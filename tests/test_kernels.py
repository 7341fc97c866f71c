"""Both kernel backends must agree bit-for-bit, including on the edge
semantics (death reporting, overflow)."""

import inspect
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import hofq
from hofq import _kernels_py, kernels
from test_table import g12_values

PURE = kernels.PURE

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def no_call(*args):
    """Stands in for a raw kernel that a refused call must never reach."""
    raise AssertionError("the kernel was called")


def run_one_term(mod, f):
    f = np.asarray(f, dtype=np.int64)
    q = np.zeros(len(f), dtype=np.int64)
    status, where = mod.one_term_trace(f, q)
    return status, where, q


def test_one_term_basic(kernel_backend):
    status, where, q = run_one_term(kernel_backend, [0, 1, 1, 1])
    assert (status, where) == (kernels.OK, 0)
    assert list(q) == [1, 2, 2, 3]


def test_one_term_death(kernel_backend):
    status, where, q = run_one_term(kernel_backend, [0, 2, 2])
    assert (status, where) == (kernels.DIED, 3)
    assert list(q[:2]) == [1, 3]


def test_one_term_overflow(kernel_backend):
    status, where, _ = run_one_term(kernel_backend, [0, 2**63 - 1])
    assert (status, where) == (kernels.OVERFLOW, 2)
    status, where, _ = run_one_term(kernel_backend, [0, -(2**63) + 1, 0])
    # q(2) = 1 + (1 - 2^63) = 2 - 2^63 is representable; the next lookup dies
    assert status == kernels.DIED and where == 3


def test_one_term_negative_overflow(kernel_backend):
    f = np.array([0, -(2**63) + 1, 0], dtype=np.int64)
    f[2] = -2  # q(3) would need q(k) - 2 with q(k) near INT64_MIN
    q = np.zeros(3, dtype=np.int64)
    status, where = kernel_backend.one_term_trace(f[:2], q[:2])
    assert status == kernels.OK
    # craft: q(2) = INT64_MIN + 2, then q(3) = q(?) ... dies on lookup instead;
    # true negative overflow needs a valid lookup, so use direct values:
    f2 = np.array([0, -10, 0], dtype=np.int64)
    q2 = np.zeros(3, dtype=np.int64)
    status, where = kernel_backend.one_term_trace(f2, q2)
    assert status == kernels.DIED  # q(2) = -9 kills the n = 3 lookup


def test_one_term_single(kernel_backend):
    status, where, q = run_one_term(kernel_backend, [0])
    assert (status, where) == (kernels.OK, 0)
    assert list(q) == [1]


def test_two_term_hofstadter(kernel_backend):
    q = np.zeros(10, dtype=np.int64)
    q[:2] = (1, 1)
    status, where = kernel_backend.two_term_trace(q, 2, 1, 1, 2, 0)
    assert (status, where) == (kernels.OK, 0)
    assert list(q) == [1, 1, 2, 3, 3, 4, 5, 5, 6, 6]


def test_two_term_tanny_form(kernel_backend):
    q = np.zeros(12, dtype=np.int64)
    q[:3] = (1, 1, 1)
    status, where = kernel_backend.two_term_trace(q, 3, 0, 1, 2, 1)
    assert status == kernels.OK
    assert list(q[:8]) == [1, 1, 1, 2, 2, 2, 3, 4]


def test_two_term_death(kernel_backend):
    q = np.zeros(6, dtype=np.int64)
    q[:2] = (1, 50)
    status, where = kernel_backend.two_term_trace(q, 2, 1, 1, 2, 0)
    assert (status, where) == (kernels.DIED, 3)


def test_two_term_extreme_value_does_not_wrap(kernel_backend):
    # an extreme stored value must register as death, not wrap the index math
    q = np.zeros(4, dtype=np.int64)
    q[:2] = (1, -(2**63) + 5)
    status, where = kernel_backend.two_term_trace(q, 2, 1, 1, 2, 0)
    assert (status, where) == (kernels.DIED, 3)


def run_two_term(mod, init, total, start, d1, d2, outer):
    q = np.zeros(total, dtype=np.int64)
    q[: len(init)] = init
    status, where = mod.two_term_trace(q, len(init), start, d1, d2, outer)
    return status, where, q


def extreme_or_small(rng, size, small):
    """Small values, with about one in five near INT64_MAX or INT64_MIN."""
    out = rng.integers(-small, small + 1, size=size)
    near = rng.random(size) < 0.2
    edge = rng.integers(0, 4, size=size)
    out[near] = np.where(rng.random(size) < 0.5, INT64_MAX - edge,
                         INT64_MIN + edge)[near]
    return out


def test_backends_agree_on_random_input(c_kernels):
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(300):
        m = int(rng.integers(1, 60))
        f = extreme_or_small(rng, m, 4) if rng.random() < 0.3 \
            else rng.integers(-4, 5, size=m)
        f[0] = 0
        ra, rb = run_one_term(c_kernels, f), run_one_term(PURE, f)
        assert ra[:2] == rb[:2] and (ra[2] == rb[2]).all()
        seen.add(("one", ra[0]))
    for _ in range(600):
        d1, d2 = (int(v) for v in rng.integers(1, 5, size=2))
        outer = int(rng.integers(0, 2))
        start = int(rng.choice([0, 1, 3]))
        n_init = max(d1, d2) + int(rng.integers(0, 4))
        init = extreme_or_small(rng, n_init, 6) if rng.random() < 0.3 \
            else rng.integers(-1, 7, size=n_init)
        args = (init, n_init + int(rng.integers(0, 60)), start, d1, d2, outer)
        ra, rb = run_two_term(c_kernels, *args), run_two_term(PURE, *args)
        assert ra[:2] == rb[:2] and (ra[2] == rb[2]).all()
        seen.add(("two", ra[0]))
    # the random inputs reach every status of both kernels
    assert seen == {(k, s) for k in ("one", "two")
                    for s in (kernels.OK, kernels.DIED, kernels.OVERFLOW)}


def test_compiled_backend_is_active():
    # a broken build must not silently leave tier-1 on the fallback alone
    pure = os.environ.get("HOFQ_PURE") or shutil.which("cc") is None
    assert kernels.BACKEND == ("python" if pure else "c")


def test_hofq_pure_selects_the_pure_backend():
    """HOFQ_PURE=1 selects the pure kernels when hofq is imported, and the
    CLI writes the same bytes on either backend."""
    script = ("import sys, hofq, hofq.cli\n"
              "print(hofq.BACKEND, file=sys.stderr)\n"
              "sys.exit(hofq.cli.main(sys.argv[1:]))\n")
    argv = ["compute", "--f", "gamma2", "--n", "2000", "--format", "csv"]
    env = {k: v for k, v in os.environ.items() if k != "HOFQ_PURE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hofq.__file__))
    runs = {}
    for pure in ("1", None):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              env=dict(env, HOFQ_PURE=pure) if pure else env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[proc.stderr.decode().strip()] = proc.stdout
    default = "python" if shutil.which("cc") is None else "c"
    assert set(runs) == {"python", default}
    assert runs["python"] == runs[default]
    assert runs["python"].startswith(b"n,f,q\n1,0,1\n2,0,1\n")


def test_pure_kernels_are_the_c_functions_twins():
    """SIGNATURES lists every function of _kernels.c with its arguments, and
    _kernels_py defines a twin of each, with as many parameters, and no
    other kernel."""
    source = kernels.SOURCE.read_text()
    c_functions = {name: len(params.split(",")) for name, params in
                   re.findall(r"^\w+ (\w+)\(([^)]*)\)\s*\{", source, re.M)}
    assert c_functions == {name: len(argtypes) for name, (argtypes, _)
                           in kernels.SIGNATURES.items()}
    twins = {name: fn for name, fn in
             inspect.getmembers(_kernels_py, inspect.isfunction)
             if fn.__module__ == _kernels_py.__name__}
    assert set(twins) == {*kernels.SIGNATURES, "percent_rows"}
    for name, (argtypes, _) in kernels.SIGNATURES.items():
        assert len(inspect.signature(twins[name]).parameters) == len(argtypes)


def test_wrapper_rejects_unsafe_arrays(kernel_backend, monkeypatch):
    monkeypatch.setattr(kernel_backend, "_two", no_call)
    f = np.zeros(8, dtype=np.int64)
    q = np.zeros(8, dtype=np.int64)
    readonly = np.zeros(8, dtype=np.int64)
    readonly.flags.writeable = False
    bad_one_term = [
        (f.astype(np.float64), q),   # dtype
        (f, np.zeros(16, dtype=np.int64)[::2]),  # not contiguous
        (f, np.zeros((2, 8), dtype=np.int64)),   # not 1-D
        (f, readonly),               # q is written
        (f, q[:7]),                  # q shorter than f
        (list(f), q),                # not an array
    ]
    for ff, qq in bad_one_term:
        with pytest.raises(ValueError):
            kernel_backend.one_term_trace(ff, qq)
    # f is only read
    assert kernel_backend.one_term_trace(readonly, q) == (kernels.OK, 0)
    assert kernel_backend.one_term_trace(f[:0], q[:0]) == (kernels.OK, 0)
    bad_two_term = [
        (q.astype(np.float64), 2, 1, 1, 2, 0),
        (np.zeros(16, dtype=np.int64)[::2], 2, 1, 1, 2, 0),
        (readonly, 2, 1, 1, 2, 0),
        (q, 1, 1, 1, 2, 0),          # n_init < max(d1, d2)
        (q, 9, 1, 1, 2, 0),          # n_init > len(q)
        (q, 2, 1, 0, 2, 0),          # offsets must be positive
        (q, 2, 1, 1, 2, 2),          # outer is 0 or 1
    ]
    for args in bad_two_term:
        with pytest.raises(ValueError):
            kernel_backend.two_term_trace(*args)


def test_one_term_trace_refuses_alike_on_both_backends(kernel_backend):
    f = np.zeros(8, dtype=np.int64)
    q = np.zeros(8, dtype=np.int64)
    readonly = np.zeros(8, dtype=np.int64)
    readonly.flags.writeable = False
    f_message = "f must be a 1-D C-contiguous int64 array"
    q_message = "q must be a 1-D C-contiguous writeable int64 array"
    for ff, qq, message in [
            (f.astype(np.int32), q, f_message),
            (f.astype(np.float64), q, f_message),
            (np.zeros(16, dtype=np.int64)[::2], q, f_message),
            (f.reshape(-1, 1), q, f_message),
            (list(f), q, f_message),
            (f, readonly, q_message),
            (f, q.astype(np.int32), q_message),
            (f, q[:7], "q holds 7 terms, f has 8")]:
        with pytest.raises(ValueError) as err:
            kernel_backend.one_term_trace(ff, qq)
        assert str(err.value) == message
    assert kernel_backend.one_term_trace(readonly, q) == (kernels.OK, 0)


def run_rows(mod, f_mat):
    """one_term_rows on the rows of f_mat; (status, q_mat)."""
    f_mat = np.ascontiguousarray(f_mat, dtype=np.int64)
    q = np.zeros_like(f_mat)
    status = np.full(len(f_mat), 7, dtype=np.int64)  # every entry is written
    mod.one_term_rows(f_mat.reshape(-1), q.reshape(-1), status, f_mat.shape[1])
    return status, q


def test_one_term_rows_small(kernel_backend):
    status, q = run_rows(kernel_backend, [[0, 1, 1], [0, 2, 2], [0, INT64_MAX, 0]])
    assert status.tolist() == [0, 3, -2]
    assert q.tolist() == [[1, 2, 2], [1, 3, 0], [1, 0, 0]]
    for shape in ((0, 4), (3, 0), (0, 0)):
        status, q = run_rows(kernel_backend, np.zeros(shape, dtype=np.int64))
        assert status.tolist() == [0] * shape[0] and q.shape == shape


def test_one_term_rows_backends_agree(c_kernels):
    rng = np.random.default_rng(47)
    codes = set()
    for _ in range(60):
        rows, m = int(rng.integers(0, 40)), int(rng.integers(0, 30))
        f_mat = extreme_or_small(rng, (rows, m), 3) if rng.random() < 0.3 \
            else rng.integers(-2, 4, size=(rows, m))
        if m:
            f_mat[:, 0] = 0
        (sc, qc), (sp, qp) = run_rows(c_kernels, f_mat), run_rows(PURE, f_mat)
        assert np.array_equal(sc, sp) and np.array_equal(qc, qp)
        for r in range(rows):  # each row is the scalar trace of that row
            one = run_one_term(PURE, f_mat[r])
            assert np.array_equal(qp[r], one[2])
            assert sp[r] == {kernels.OK: 0, kernels.DIED: one[1],
                             kernels.OVERFLOW: -one[1]}[one[0]]
        codes.update(np.sign(sc).tolist())
    assert codes == {-1, 0, 1}  # living, dying and overflowing rows


def test_one_term_rows_rejects_unsafe_arrays(kernel_backend, monkeypatch):
    monkeypatch.setattr(kernel_backend, "_rows", no_call)
    f = np.zeros(12, dtype=np.int64)
    q = np.zeros(12, dtype=np.int64)
    status = np.zeros(3, dtype=np.int64)
    readonly = np.zeros(12, dtype=np.int64)
    readonly.flags.writeable = False
    bad = [
        (f.astype(np.float64), q, status, 4),       # dtype
        (f.astype(np.int32), q, status, 4),
        (f, q.astype(np.int32), status, 4),
        (f, q, status.astype(np.float64), 4),
        (f, q, status.astype(np.int32), 4),
        (f, readonly, status, 4),                   # q is written
        (f, q, readonly[:3], 4),                    # status is written
        (np.zeros(24, dtype=np.int64)[::2], q, status, 4),  # not contiguous
        (f, np.zeros(24, dtype=np.int64)[::2], status, 4),
        (f, q, np.zeros(6, dtype=np.int64)[::2], 4),
        (f, q, status, 3),                          # length mismatch
        (f, q[:8], status, 4),
        (f[:8], q, status, 4),
        (f, q, status[:2], 4),
        (f[:0], q[:0], status[:0], -1),             # m < 0
        (f, q, status, -4),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            kernel_backend.one_term_rows(*args)


def walk(mod, m):
    seen = np.zeros(kernels.walk_size(m), dtype=np.uint8)
    return mod.slow_walk(seen, m), seen


def test_slow_walk_small(kernel_backend):
    # (n - 1, f(n), q(n)) over f = 000, 001, 011, 012: q = 111, 112, 122, 123
    status, seen = walk(kernel_backend, 3)
    assert status == (kernels.OK, 0)
    marked = {tuple(int(x) for x in idx)
              for idx in zip(*np.nonzero(seen.reshape(3, 3, 4)))}
    assert marked == {(0, 0, 1), (1, 0, 1), (1, 1, 2),
                      (2, 0, 1), (2, 1, 2), (2, 2, 3)}


def test_slow_walk_backends_agree(c_kernels):
    for m in range(1, 15):
        (sc, c), (sp, p) = walk(c_kernels, m), walk(PURE, m)
        assert sc == sp == (kernels.OK, 0)
        assert np.array_equal(c, p), m


def test_slow_walk_depth_is_bounded(kernel_backend):
    # checked before the array, so no walk or allocation of that depth runs
    seen = np.zeros(8, dtype=np.uint8)
    for m in (0, -1, 63, 2**40):
        with pytest.raises(ValueError, match=r"outside \[1, 62\]"):
            kernel_backend.slow_walk(seen, m)
    assert kernels.walk_size(62) == 62 * 62 * 63


def test_slow_walk_rejects_unsafe_arrays(kernel_backend, monkeypatch):
    monkeypatch.setattr(kernel_backend, "_walk", no_call)
    size = kernels.walk_size(4)
    readonly = np.zeros(size, dtype=np.uint8)
    readonly.flags.writeable = False
    bad = [
        np.zeros(size, dtype=np.int64),       # dtype
        np.zeros(size, dtype=np.float64),
        readonly,                             # seen is written
        np.zeros(size - 1, dtype=np.uint8),   # too small
        np.zeros(2 * size, dtype=np.uint8)[::2],  # not contiguous
        np.zeros((4, 4, 5), dtype=np.uint8),  # not 1-D
        bytearray(size),                      # not an array
    ]
    for seen in bad:
        with pytest.raises(ValueError):
            kernel_backend.slow_walk(seen, 4)


def test_compiled_kernels_are_thread_safe(c_kernels):
    big = 2**62
    ones = np.ones(5000, dtype=np.int64)
    ones[0] = 0
    cases = [  # (kind, args); dying and overflowing calls among them
        ("one", (ones,)),
        ("one", (np.array([0, 2, 2], dtype=np.int64),)),
        ("one", (np.array([0, INT64_MAX], dtype=np.int64),)),
        ("two", ((1, 1), 5000, 1, 1, 2, 0)),
        ("two", ((1, 1, 1), 5000, 0, 1, 2, 1)),
        ("two", ((1, 50), 6, 1, 1, 2, 0)),
        ("two", ((big, big, 3, 3), 8, 3, 1, 2, 0)),
    ]

    def call(mod, kind, args):
        return (run_one_term(mod, *args) if kind == "one"
                else run_two_term(mod, *args))[:2]

    expected = [call(PURE, *case) for case in cases]
    assert {e[0] for e in expected} == {kernels.OK, kernels.DIED,
                                        kernels.OVERFLOW}
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                k = (i + offset) % len(cases)
                got = call(c_kernels, *cases[k])
                if got != expected[k]:
                    errors.append((cases[k], got, expected[k]))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


PIECES = ["", ",", "  ", "; ", "é", "→|", "[", "]\r\n", "%", "ab%%c"]


def format_table(mod, cols, widths, pieces, rows=None, written=None):
    """mod.format_rows into an out array of exactly the wrapper's bound;
    every row is written unless `written` says how many."""
    encoded = [p.encode() for p in pieces]
    lit, ends = b"".join(encoded), np.cumsum([len(p) for p in encoded]).tolist()
    rows = len(cols[0]) if rows is None else rows
    out = np.zeros(rows * (len(lit) + sum(max(20, w) for w in widths)),
                   dtype=np.uint8)
    done, size = mod.format_rows(cols, widths, rows, lit, ends, out)
    assert done == (rows if written is None else written)
    return out[:size].tobytes().decode()


def percent_oracle(cols, widths, pieces, rows):
    """Row by row with `%`, the operator the writer's `%d` fields stand for."""
    fields = [f"%{w}d" if w else "%d" for w in widths]
    row_fmt = pieces[0].replace("%", "%%") + "".join(
        f + p.replace("%", "%%") for f, p in zip(fields, pieces[1:]))
    return "".join(row_fmt % tuple(int(c[r]) for c in cols)
                   for r in range(rows))


def test_format_rows_small(kernel_backend):
    col = np.array([INT64_MIN, -1, 0, 7, INT64_MAX], dtype=np.int64)
    assert format_table(kernel_backend, [col, col[::-1].copy()], [0, 2],
                        ["<", "|", ">\n"]) == "".join(
        f"<{a}|{b:>2}>\n" for a, b in zip(col.tolist(), col[::-1].tolist()))
    assert format_table(kernel_backend, [col], [25], ["", ""]) == "".join(
        f"{v:>25}" for v in col.tolist())
    assert format_table(kernel_backend, [col], [0], ["a", "b"], rows=0) == ""
    assert format_table(kernel_backend, [], [], ["x\n"], rows=3) == "x\n" * 3


G12 = kernels.FORMAT_G12


def test_format_rows_g12_stops_before_uncertain_rows(kernel_backend):
    """The C kernel writes the rows before the first %.12g value it cannot
    certify and stops there; the pure one, the reference, writes every
    row with `%`."""
    n = np.arange(6, dtype=np.int64)
    certain = [0.1, -2.5, 1 / 3, 1e-4, -999999999999.0, 123456.789]
    expect = "".join(f"[{i:>3}|{format(x, '.12g')}]\n"
                     for i, x in enumerate(certain))
    x = np.array(certain)
    assert format_table(kernel_backend, [n, x], [3, G12],
                        ["[", "|", "]\n"]) == expect
    for bad in [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 9e-5, 1e12,
                999999999999.5, 123456789012.5]:
        x[3] = bad
        written = 6 if kernel_backend is PURE else 3
        text = format_table(kernel_backend, [n, x], [3, G12],
                            ["[", "|", "]\n"], written=written)
        assert text == "".join(f"[{i:>3}|{format(v, '.12g')}]\n"
                               for i, v in enumerate(x[:written].tolist()))


def test_format_rows_g12_prints_only_what_format_prints(c_kernels):
    """Every value of the writer's %.12g test set, one row each: the C
    kernel prints it as format(v, ".12g") or stops before it."""
    x = g12_values()
    out = np.zeros(21 * len(x), dtype=np.uint8)
    r, printed = 0, 0
    while r < len(x):
        done, size = c_kernels.format_rows([x[r:]], [G12], len(x) - r,
                                           b"\n", [0, 1], out)
        assert out[:size].tobytes().decode() == "".join(
            format(v, ".12g") + "\n" for v in x[r:r + done].tolist())
        r, printed = r + done + 1, printed + done
    assert printed > len(x) // 2


def test_format_rows_backends_agree(c_kernels):
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        ncols, rows = int(rng.integers(1, 7)), int(rng.integers(0, 50))
        cols = [extreme_or_small(rng, rows, 10**int(rng.integers(0, 19)))
                for _ in range(ncols)]
        for c in cols:  # the extremes themselves, when there is room
            c[:3] = [INT64_MIN, 0, INT64_MAX][:rows]
        widths = rng.choice([0, 0, 2, 25], size=ncols).tolist()
        pieces = rng.choice(PIECES, size=ncols + 1).tolist()
        text = format_table(c_kernels, cols, widths, pieces)
        assert text == format_table(PURE, cols, widths, pieces)
        assert text == percent_oracle(cols, widths, pieces, rows)


def test_format_rows_rejects_unsafe_arrays(kernel_backend, monkeypatch):
    monkeypatch.setattr(kernel_backend, "_fmt", no_call)
    col = np.arange(4, dtype=np.int64)
    x = col.astype(np.float64)
    lit, ends = b"<,>\n", [1, 2, 4]
    size = 4 * (len(lit) + 20 + 25)
    out = np.zeros(size, dtype=np.uint8)
    readonly = out.copy()
    readonly.flags.writeable = False
    bad = [
        ([col.astype(np.float64), col], [0, 25], lit, ends, out),  # dtype
        ([col, col.astype(np.int32)], [0, 25], lit, ends, out),
        ([col, np.arange(8, dtype=np.int64)[::2]], [0, 25], lit, ends, out),
        ([col, col[:3]], [0, 25], lit, ends, out),               # too short
        ([col, col], [0, 25], lit, ends, readonly),              # out is written
        ([col, col], [0, 25], lit, ends, out[:-1]),              # one byte short
        ([col, col], [0, 25], lit, ends, out.astype(np.int8)),
        ([col, col], [0, 25], lit, ends, np.zeros(2 * size, np.uint8)[::2]),
        ([col, col], [G12, 25], lit, ends, out),                 # fields
        ([col, col], [0, 65], lit, ends, out),
        ([col, col], [0, -2], lit, ends, out),
        ([col, col], [0], lit, ends, out),
        ([col, col], [0, 25], lit, [1, 2], out),                 # ends
        ([col, col], [0, 25], lit, [1, 2, 3], out),
        ([col, col], [0, 25], lit, [2, 1, 4], out),
        ([col, col], [0, 25], lit, [-1, 2, 4], out),
        # a %.12g field takes a float64 column, whole and contiguous
        ([col, x.astype(np.float32)], [0, G12], lit, ends, out),
        ([x, x], [0, G12], lit, ends, out),
        ([col, np.arange(8, dtype=np.float64)[::2]], [0, G12], lit, ends,
         out),
        ([col, x[:3]], [0, G12], lit, ends, out),
        ([col, x.reshape(2, 2)], [0, G12], lit, ends, out),
        ([col, list(x)], [0, G12], lit, ends, out),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            kernel_backend.format_rows(args[0], args[1], 4, *args[2:])
    with pytest.raises(ValueError):
        kernel_backend.format_rows([col, col], [0, 25], -1, lit, ends, out)
