"""Both kernel backends must agree bit-for-bit, including on the edge
semantics (death reporting, overflow)."""

import enum
import gc
import importlib.machinery
import importlib.util
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import threading
import types

import numpy as np
import pytest

import hofq
from hofq import _kernels_py, fspec, kernels
from test_table import g12_values

PURE = kernels.PURE

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def no_call(*args):
    """Stands in for a raw kernel that a refused call must never reach."""
    raise AssertionError("the kernel was called")


def arrays_in(args, kinds=np.ndarray):
    """The numpy arrays, or objects of kinds, among args and in the lists
    among them."""
    return [a for x in args for a in (x if isinstance(x, list) else [x])
            if isinstance(a, kinds)]


def refused(call, args):
    """(the text of the ValueError that call(*args) raises, or None; whether
    the call left the reference count of an array or bytes argument
    changed).  A buffer taken and not released keeps a reference to its
    object.  The collector is off meanwhile: freeing garbage that refers
    to an argument would change its count too."""
    held = arrays_in(args, (np.ndarray, bytes))
    gc.disable()
    try:
        before = [sys.getrefcount(a) for a in held]
        try:  # no ExceptionInfo, whose traceback holds the arguments
            call(*args)
        except ValueError as err:
            message = str(err)
        else:
            message = None
        return message, [sys.getrefcount(a) for a in held] != before
    finally:
        gc.enable()


def assert_refused(backend, method, cases):
    """backend.method(*args) raises, for the arguments args of each case,
    the ValueError that the pure backend raises before any twin runs: a
    Kernels over the pure checks whose every kernel is no_call.  On the C
    backend the entry point itself is the check: it must refuse each call
    before writing anything, so every array passed in is byte-identical
    afterwards, and release every buffer it took, so each array and bytes
    argument keeps its reference count."""
    checks_only = kernels.Kernels(
        "python", types.SimpleNamespace(**dict.fromkeys(kernels.KERNELS,
                                                        no_call)),
        checked=False)
    for args in cases:
        with pytest.raises(ValueError) as expected:
            getattr(checks_only, method)(*args)
        before = [a.tobytes() for a in arrays_in(args)]
        message, leaked = refused(getattr(backend, method), args)
        assert message == str(expected.value), args
        assert [a.tobytes() for a in arrays_in(args)] == before, args
        assert not leaked, args


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
    forced = os.environ.get("HOFQ_PURE") == "1"  # only 1 forces the twin
    pure = forced or shutil.which("cc") is None
    assert kernels.BACKEND == ("python" if pure else "c")
    # and a build that was not tried, or worked, has no error to report
    assert (kernels.BUILD_ERROR is None) == (kernels.BACKEND == "c" or forced)


def test_hofq_pure_selects_the_pure_backend():
    """HOFQ_PURE=1 selects the pure kernels when hofq is imported, any
    other value (0 here) or none the default backend, and the CLI writes
    the same bytes on either backend."""
    script = ("import sys, hofq, hofq.cli\n"
              "print(hofq.BACKEND, file=sys.stderr)\n"
              "sys.exit(hofq.cli.main(sys.argv[1:]))\n")
    argv = ["compute", "--f", "gamma2", "--n", "2000", "--format", "csv"]
    env = {k: v for k, v in os.environ.items() if k != "HOFQ_PURE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hofq.__file__))
    backends, outputs = {}, set()
    for pure in ("1", "0", None):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              env=dict(env, HOFQ_PURE=pure) if pure else env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        backends[pure] = proc.stderr.decode().strip()
        outputs.add(proc.stdout)
    default = "python" if shutil.which("cc") is None else "c"
    assert backends == {"1": "python", "0": default, None: default}
    assert len(outputs) == 1
    assert outputs.pop().startswith(b"n,f,q\n1,0,1\n2,0,1\n")


def test_failed_build_falls_back_and_says_why(tmp_path):
    """A build that fails leaves the pure backend in use, with BUILD_ERROR
    the first line of the failure, and leaves no file in the cache; the
    cache name holds the interpreter's EXT_SUFFIX, so that a ctypes-era
    kernels-<hash>.so is never taken for the extension.  Runs in a
    subprocess whose compiler is a stub that fails and whose cache is its
    own, so that the real cache is never touched."""
    stub = tmp_path / "stub-cc"
    stub.write_text("#!/bin/sh\necho 'stub-cc: no compiler here' >&2\n"
                    "echo 'a second line' >&2\nexit 1\n")
    stub.chmod(0o755)
    cache = tmp_path / "cache" / "hofq"
    cache.mkdir(parents=True)
    # a ctypes-era library of this source, which must not be loaded
    old = importlib.util.source_hash(kernels.SOURCE.read_bytes()).hex()
    (cache / f"kernels-{old}.so").write_bytes(b"not a library")
    script = ("import json, sysconfig\n"
              "real = sysconfig.get_config_var\n"
              f"sysconfig.get_config_var = lambda name: ({str(stub)!r}"
              " if name == 'CC' else real(name))\n"
              "from hofq import kernels\n"
              "path = kernels._cache_path(b'')\n"
              "print(json.dumps([kernels.BACKEND, kernels.BUILD_ERROR,"
              " path.name]))\n")
    env = {k: v for k, v in os.environ.items() if k != "HOFQ_PURE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hofq.__file__))
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    backend, error, name = json.loads(proc.stdout)
    assert backend == "python"
    assert error == "compiling _kernels.c failed: stub-cc: no compiler here"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    assert re.fullmatch(r"kernels-[0-9a-f]{16}" + re.escape(suffix), name)
    assert suffix != ".so"
    assert os.listdir(cache) == [f"kernels-{old}.so"]


def _import_twice_into_a_full_cache(tmp_path, suffix=None):
    """Import hofq twice, in subprocesses whose kernel cache is tmp_path
    and already holds files of other names, with `suffix` put first among
    the extension suffixes where given: the second import finds the
    module in the cache, and imports neither sysconfig nor shlex, which
    only a build needs; a build writes its one module and keeps every
    other file in the cache."""
    cache = tmp_path / "hofq"
    cache.mkdir()
    hexes = "0123456789abcdef"
    own = suffix or importlib.machinery.EXTENSION_SUFFIXES[0]
    # another checkout's module, ctypes-era libraries (one of them that
    # module itself when own is ".so") and names that look like them
    kept = {f"kernels-{hexes}{own}", f"kernels-{hexes}.so",
            f"kernels-{hexes[::-1]}.so", f"kernels-{hexes.upper()}.so",
            f"kernels-{hexes}.so.tmp", f"old-kernels-{hexes}.so", "notes"}
    for name in kept:
        (cache / name).write_bytes(b"not a library")
    script = ("import importlib.machinery, sys\n"
              + (f"importlib.machinery.EXTENSION_SUFFIXES.insert(0,"
                 f" {suffix!r})\n" if suffix else "")
              + "import hofq\n"
              "from hofq import kernels\n"
              "print(hofq.BACKEND, 'sysconfig' in sys.modules,"
              " 'shlex' in sys.modules,"
              " kernels._cache_path(kernels.SOURCE.read_bytes()).name)\n")
    env = {k: v for k, v in os.environ.items() if k != "HOFQ_PURE"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hofq.__file__))
    env["XDG_CACHE_HOME"] = str(tmp_path)
    runs = [subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    backend, _, _, built = runs[0].stdout.split()
    assert runs[1].stdout == f"{backend} False False {built}\n"
    assert built.endswith(own) and built not in kept
    if backend == "c":  # the first import built the one cached module
        assert sorted(os.listdir(cache)) == sorted([*kept, built])


def test_warm_import_loads_no_build_tools(tmp_path):
    """A warm import asks sysconfig for nothing, and the build before it
    keeps every file in the cache that it did not write.  A failed build
    writes nothing (test_failed_build_falls_back_and_says_why)."""
    _import_twice_into_a_full_cache(tmp_path)


def test_a_build_keeps_the_modules_of_other_checkouts_on_a_bare_so(
        tmp_path):
    """On an interpreter whose first extension suffix is a bare .so, the
    modules of other checkouts and the ctypes-era libraries share one
    name pattern, kernels-<hash>.so, with this build's: the build keeps
    them all."""
    _import_twice_into_a_full_cache(tmp_path, ".so")


def test_pure_kernels_are_the_c_functions_twins(c_kernels):
    """The extension's method table holds the KERNELS, and _kernels_py
    defines a twin of each, with the same parameters, and no other
    kernel; the extension's bounds are the ones kernels.py checks."""
    ext = kernels.extension()
    entries = {name: fn for name, fn in vars(ext).items()
               if isinstance(fn, types.BuiltinFunctionType)}
    assert set(entries) == set(kernels.KERNELS)
    twins = {name: fn for name, fn in
             inspect.getmembers(_kernels_py, inspect.isfunction)
             if fn.__module__ == _kernels_py.__name__}
    assert set(twins) == {*kernels.KERNELS, "percent_rows"}
    for name, entry in entries.items():
        assert list(inspect.signature(entry).parameters) == list(
            inspect.signature(twins[name]).parameters), name
    assert (ext.WALK_MAX_DEPTH, ext.STEP_MAX, ext.FORMAT_MAX_WIDTH,
            ext.FORMAT_G12) == (kernels.WALK_MAX_DEPTH, kernels.STEP_MAX,
                                kernels.FORMAT_MAX_WIDTH, kernels.FORMAT_G12)
    assert (ext.ROOT_ISQRT, ext.ROOT_GAMMA, ext.ROOT_GAMMA_SQ,
            ext.ROOT_STAIRCASE, ext.GAMMA_MAX, ext.STAIRCASE_MAX) == (
        kernels.ROOT_ISQRT, kernels.ROOT_GAMMA, kernels.ROOT_GAMMA_SQ,
        kernels.ROOT_STAIRCASE, kernels.GAMMA_ARRAY_CAP,
        kernels.ROOT_FORMS[kernels.ROOT_STAIRCASE][2])


def accepted_args():
    """Arguments of each kernel, by name, that its check accepts; the
    traces' as Kernels takes them, two_term_trace's with start = 10."""
    lit, ends = b"\n", [0, 1]
    return {
        "one_term_trace": (np.zeros(4, dtype=np.int64),
                           np.zeros(4, dtype=np.int64)),
        "one_term_rows": (np.zeros(4, dtype=np.int64),
                          np.zeros(4, dtype=np.int64),
                          np.zeros(2, dtype=np.int64), 2),
        "two_term_trace": (np.ones(4, dtype=np.int64), 2, 10, 1, 2, 0),
        "slow_walk": (np.zeros(kernels.walk_size(3), dtype=np.uint8), 3),
        "step_sum": (np.ones(3, dtype=np.uint8), 0,
                     np.zeros(4, dtype=np.int64)),
        "root_floors": (np.arange(3, dtype=np.int64), kernels.ROOT_ISQRT,
                        np.zeros(3, dtype=np.int64)),
        "read_ints": ((1, 2), np.zeros(2, dtype=np.int64)),
        "format_rows": ([np.arange(2, dtype=np.int64)], [0], 2, lit, ends,
                        np.zeros(kernels.format_size(2, lit, [0]),
                                 dtype=np.uint8)),
    }


@pytest.mark.parametrize("checked", [True, False])
def test_each_kernel_calls_the_function_of_its_name(checked):
    """A Kernels over distinct recording fakes calls, for each name in
    KERNELS, the fake of that name with the kernel's arguments (all but
    start for two_term_trace), and decodes the traces' code: +3 is died
    at 3, from start for two_term_trace.  Any other kernel returns what
    its fake returns."""
    calls = []

    def fake(name):
        def raw(*args):
            calls.append((name, args))
            return 3
        return raw

    backend = kernels.Kernels(
        "fake", types.SimpleNamespace(**{n: fake(n) for n in kernels.KERNELS}),
        checked)
    decoded = {"one_term_trace": (kernels.DIED, 3),
               "two_term_trace": (kernels.DIED, 13),
               "slow_walk": (kernels.DIED, 3)}
    accepted = accepted_args()
    assert set(accepted) == set(kernels.KERNELS)
    for name, args in accepted.items():
        calls.clear()
        assert getattr(backend, name)(*args) == decoded.get(name, 3), name
        raw_args = args[:2] + args[3:] if name == "two_term_trace" else args
        assert calls == [(name, raw_args)], name


@pytest.mark.parametrize("checked", [True, False])
def test_a_refusal_its_check_accepts_is_raised_unchanged(checked):
    """Where a raw kernel refuses arguments that its check accepts, the
    call raises the kernel's own ValueError: the check has no reason of
    its own to give."""
    refusals = {name: ValueError(f"{name} refused") for name in
                kernels.KERNELS}

    def refusing(name):
        def raw(*args):
            raise refusals[name]
        return raw

    backend = kernels.Kernels(
        "fake", types.SimpleNamespace(**{n: refusing(n)
                                         for n in kernels.KERNELS}),
        checked)
    for name, args in accepted_args().items():
        with pytest.raises(ValueError) as err:
            getattr(backend, name)(*args)
        assert err.value is refusals[name], name


def test_module_kernels_are_the_active_backends_calls():
    """hofq.kernels.<name> is the call of the backend in use for every
    name in KERNELS: the names that callers call and a tracer rebinds."""
    active = kernels.PURE if kernels.BACKEND == "python" else kernels.compiled()
    for name in kernels.KERNELS:
        assert getattr(kernels, name) is getattr(active, name), name


def test_kernel_source_builds_without_warnings(tmp_path):
    """_kernels.c compiles warning-free with -Wall -Wextra, warnings made
    errors, against this interpreter's headers."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    command = [*kernels._command(), "-Wall", "-Wextra",
               "-Wno-unused-parameter", "-Werror"]
    proc = subprocess.run([*command, "-o", str(tmp_path / "k.so"),
                           str(kernels.SOURCE)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_wrapper_rejects_unsafe_arrays(kernel_backend):
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
    # f is only read
    assert kernel_backend.one_term_trace(readonly, q) == (kernels.OK, 0)
    assert kernel_backend.one_term_trace(f[:0], q[:0]) == (kernels.OK, 0)
    assert_refused(kernel_backend, "one_term_trace", bad_one_term)
    bad_two_term = [
        (q.astype(np.float64), 2, 1, 1, 2, 0),
        (np.zeros(16, dtype=np.int64)[::2], 2, 1, 1, 2, 0),
        (readonly, 2, 1, 1, 2, 0),
        (q, 1, 1, 1, 2, 0),          # n_init < max(d1, d2)
        (q, 9, 1, 1, 2, 0),          # n_init > len(q)
        (q, 2, 1, 0, 2, 0),          # offsets must be positive
        (q, 2, 1, 1, 2, 2),          # outer is 0 or 1
    ]
    assert_refused(kernel_backend, "two_term_trace", bad_two_term)


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


def test_one_term_rows_rejects_unsafe_arrays(kernel_backend):
    f = np.zeros(12, dtype=np.int64)
    q = np.zeros(12, dtype=np.int64)
    status = np.full(3, 7, dtype=np.int64)  # a run would write 0s here
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
    assert_refused(kernel_backend, "one_term_rows", bad)


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


def test_slow_walk_rejects_unsafe_arrays(kernel_backend):
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
    assert_refused(kernel_backend, "slow_walk",
                   [(seen, 4) for seen in bad])


def run_step_sum(mod, steps, first, n):
    out = np.full(n, 7, dtype=np.int64)
    assert mod.step_sum(steps, first, out) is None
    return out


def test_step_sum_matches_cumsum(kernel_backend):
    rng = np.random.default_rng(53)
    block = fspec._BLOCK
    lengths = [1, 2, block - 1, block, block + 1,
               *rng.integers(1, 3 * block, size=12).tolist()]
    for n in lengths:
        high = 2 if rng.random() < 0.8 else kernels.STEP_MAX + 1
        data = rng.integers(0, high, size=n + 20, dtype=np.uint8)
        offset = int(rng.integers(0, 21))
        steps = data[offset:offset + n - 1 + int(rng.integers(0, 2))]
        first = int(rng.integers(-2**40, 2**40))
        want = np.cumsum(np.concatenate([[first], steps[:n - 1]]),
                         dtype=np.int64)
        assert np.array_equal(run_step_sum(kernel_backend, steps, first, n),
                              want), (n, offset)
    # nothing to write, and sums that end at INT64_MAX exactly
    assert run_step_sum(kernel_backend, data[:0], INT64_MAX, 0).size == 0
    top = np.full(9, kernels.STEP_MAX, dtype=np.uint8)
    first = INT64_MAX - kernels.STEP_MAX * 9
    out = run_step_sum(kernel_backend, top, first, 10)
    assert out[0] == first and out[-1] == INT64_MAX
    assert run_step_sum(kernel_backend, top[:0], INT64_MIN, 1)[0] == INT64_MIN


def test_step_sum_rejects_unsafe_arrays(kernel_backend):
    steps = np.ones(8, dtype=np.uint8)
    out = np.full(9, 7, dtype=np.int64)  # a run would write 0, 1, ..., 8
    readonly = np.zeros(9, dtype=np.int64)
    readonly.flags.writeable = False
    near = INT64_MAX - kernels.STEP_MAX * 8
    bad = [
        (steps.astype(np.int64), 0, out),           # dtype
        (steps.view(np.int8), 0, out),
        (steps, 0, out.astype(np.int32)),
        (steps, 0, out.astype(np.float64)),
        (steps[:7], 0, out),                        # steps too short
        (steps, 0, readonly),                       # out is written
        (np.ones(16, dtype=np.uint8)[::2], 0, out),  # not contiguous
        (steps, 0, np.full(18, 7, dtype=np.int64)[::2]),
        (steps.reshape(2, 4), 0, out),              # not 1-D
        (bytes(8), 0, out),                         # not an array
        (steps, near + 1, out),                     # sums past INT64_MAX
        (steps, INT64_MAX, out),
        (steps, 2**63, out[:1]),                    # first past int64
        (steps, INT64_MIN - 1, out[:0]),
        (steps, 0.0, out),                          # first not an int
    ]
    assert_refused(kernel_backend, "step_sum", bad)


def gamma_floor(n):
    return (math.isqrt(5 * n * n) - n) // 2


# each form of root_floors: its floor, from math.isqrt
ROOT_FLOORS = {
    kernels.ROOT_ISQRT: math.isqrt,
    kernels.ROOT_GAMMA: gamma_floor,
    kernels.ROOT_GAMMA_SQ: lambda n: n - 1 - gamma_floor(n) if n else 0,
    kernels.ROOT_STAIRCASE: lambda n: (1 + math.isqrt(8 * n - 7)) // 2,
}


def pell(a, b):
    """b of each solution (a, b) of a^2 - 5 b^2 = +-1 from the given one,
    times (9 + 4 sqrt 5)^m, m >= 0, while 5 b^2 fits int64: at n = b, 5 n^2
    lies beside the square a^2."""
    ns = []
    while 5 * b * b <= INT64_MAX:
        ns.append(b)
        a, b = 9 * a + 20 * b, 4 * a + 9 * b
    return ns


def root_edges(form):
    """n where the radicand of form lies at or beside a square k^2, k near
    2^26, where the float64 seed stops being exact, near 3,037,000,499,
    the root of INT64_MAX, and near the ends of the binades of k and k^2,
    where the seed's error is widest; and the ends of the form's
    domain."""
    _, lo, hi = kernels.ROOT_FORMS[form]
    tops = [2**e for e in range(27, 32)]
    tops += [math.isqrt(2**(2 * e + 1)) for e in range(26, 31)]
    ks = [k + d for k in (2**26, 3_037_000_499, *tops) for d in range(-3, 3)]
    if form == kernels.ROOT_ISQRT:  # k^2 - 1, k^2, k^2 + 1
        ns = [k * k + d for k in ks for d in (-1, 0, 1)]
    elif form == kernels.ROOT_STAIRCASE:  # 8n - 7 = k^2 at the middle n
        ns = [(k * k + 7) // 8 + d for k in ks if k % 2 for d in (-1, 0, 1)]
    else:  # 5n^2 within 5n of k^2, and k^2 +- 1 itself
        ns = [math.isqrt(k * k // 5) + d for k in ks for d in (-1, 0, 1)]
        ns += pell(2, 1) + pell(9, 4)
    return sorted({n for n in ns + [lo, lo + 1, hi - 1, hi] if lo <= n <= hi})


@pytest.mark.parametrize("form", sorted(kernels.ROOT_FORMS))
def test_root_floors_match_math_isqrt(kernel_backend, form):
    """Every form is exact where its radicand lies beside a square, up to
    INT64_MAX for floor(sqrt(n)) and GAMMA_ARRAY_CAP for the gamma forms,
    and on every n of a dense range; in place, out = n, it writes the
    same floors."""
    edges = root_edges(form)
    lo = kernels.ROOT_FORMS[form][1]
    for ns in (edges, list(range(lo, lo + 3000)), []):
        n = np.array(ns, dtype=np.int64)
        out = np.full(len(ns), 7, dtype=np.int64)
        want = [ROOT_FLOORS[form](v) for v in ns]
        assert kernel_backend.root_floors(n, form, out) is None
        assert out.tolist() == want
        assert n.tolist() == ns
        assert kernel_backend.root_floors(n, form, n) is None
        assert n.tolist() == want
    assert max(edges) == kernels.ROOT_FORMS[form][2]
    if form in (kernels.ROOT_GAMMA, kernels.ROOT_GAMMA_SQ):
        assert max(edges) == kernels.GAMMA_ARRAY_CAP
        assert 5 * (kernels.GAMMA_ARRAY_CAP + 1) ** 2 > INT64_MAX


def test_root_floors_agree_on_random_n(c_kernels):
    """Both backends write the same floors for seeded n across each
    form's whole domain."""
    rng = np.random.default_rng(71)
    for form, (_, lo, hi) in kernels.ROOT_FORMS.items():
        n = rng.integers(lo, hi, size=20000, endpoint=True)
        want = [ROOT_FLOORS[form](v) for v in n.tolist()]
        for backend in (c_kernels, PURE):
            out = np.empty_like(n)
            backend.root_floors(n, form, out)
            assert out.tolist() == want, (backend.implementation, form)


def test_root_floors_rejects_what_it_cannot_take(kernel_backend):
    """A refused call writes nothing, in place too, and both backends give
    the same reason."""
    n = np.arange(1, 9, dtype=np.int64)
    out = np.full(8, 7, dtype=np.int64)
    readonly = n.copy()
    readonly.flags.writeable = False
    top = kernels.ROOT_FORMS[kernels.ROOT_STAIRCASE][2]
    cap = kernels.GAMMA_ARRAY_CAP
    sqrt, gamma, gamma_sq, stair = sorted(kernels.ROOT_FORMS)

    def beside(*values):
        return np.array([5, *values, 6], dtype=np.int64)

    bad = [
        (n.astype(np.int32), sqrt, out),            # dtype
        (n.astype(np.float64), sqrt, out),
        (n, sqrt, out.astype(np.uint64)),
        (n, sqrt, out[:7]),                          # lengths differ
        (n, sqrt, readonly),                         # out is written
        (readonly, sqrt, readonly),
        (np.arange(16, dtype=np.int64)[::2], sqrt, out),  # not contiguous
        (n.reshape(2, 4), sqrt, out),                # not 1-D
        (list(range(8)), sqrt, out),                 # not an array
        (n, 4, out),                                 # no such form
        (n, -1, out),
        (n, 2**64, out),
        (n, 1.0, out),
        (beside(-1), sqrt, np.zeros(3, dtype=np.int64)),  # outside domains
        (beside(INT64_MIN), sqrt, np.zeros(3, dtype=np.int64)),
        (beside(-1), gamma, np.zeros(3, dtype=np.int64)),
        (beside(cap + 1), gamma, np.zeros(3, dtype=np.int64)),
        (beside(cap + 1), gamma_sq, np.zeros(3, dtype=np.int64)),
        (beside(INT64_MAX), gamma_sq, np.zeros(3, dtype=np.int64)),
        (beside(0), stair, np.zeros(3, dtype=np.int64)),
        (beside(top + 1), stair, np.zeros(3, dtype=np.int64)),
        (beside(-7, top + 1), stair, np.zeros(4, dtype=np.int64)),
    ]
    bad += [(a, form, a) for a, form, _ in bad[-9:]]  # in place
    assert_refused(kernel_backend, "root_floors", bad)


class _Small(enum.IntEnum):
    THREE = 3


class _Int(int):
    pass


def read(backend, ints):
    """(items read, out) for read_ints over ints into an out of 7s."""
    out = np.full(len(ints), 7, dtype=np.int64)
    n = backend.read_ints(ints, out)
    assert type(n) is int
    return n, out.tolist()


@pytest.mark.parametrize("bad", [
    2**63, INT64_MIN - 1, True, np.int64(3), 2.0, _Small.THREE, _Int(3),
    "3", None,
], ids=repr)
def test_read_ints_stops_at_the_first_item_it_cannot_read(kernel_backend,
                                                           bad):
    """Exact ints in int64 are read, the extremes included; anything else
    stops the read, and nothing from there on is written."""
    head = (INT64_MIN, -1, 0, INT64_MAX)
    assert read(kernel_backend, head) == (4, list(head))
    assert read(kernel_backend, ()) == (0, [])
    assert read(kernel_backend, (bad,)) == (0, [7])
    assert read(kernel_backend, (*head, bad, 5)) == (4, [*head, 7, 7])


def test_read_ints_rejects_unsafe_arrays(kernel_backend):
    ints = (0, 1, 1, 2)
    out = np.full(4, 7, dtype=np.int64)
    readonly = out.copy()
    readonly.flags.writeable = False
    bad = [
        (list(ints), out),                          # not a tuple
        (np.array(ints), out),
        (ints, out[:3]),                            # lengths differ
        (ints, np.full(5, 7, dtype=np.int64)),
        (ints, np.full(8, 7, dtype=np.int64)[::2]),  # not contiguous
        (ints, readonly),                           # out is written
        (ints, out.astype(np.int32)),               # dtype
        (ints, out.astype(np.float64)),
        (ints, out.reshape(2, 2)),                  # not 1-D
        (ints, [7, 7, 7, 7]),                       # not an array
    ]
    assert_refused(kernel_backend, "read_ints", bad)


def test_compiled_kernels_are_thread_safe(c_kernels):
    """Traces, and format_rows printing the %.12g test set, whose loop
    takes the interpreter lock for each value it does not certify, from
    four threads at once."""
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
    x = g12_values()
    text = "".join(format(v, ".12g") + "\n" for v in x.tolist())
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                k = (i + offset) % len(cases)
                got = call(c_kernels, *cases[k])
                if got != expected[k]:
                    errors.append((cases[k], got, expected[k]))
                if i % 50 == offset:
                    got = format_table(c_kernels, [x], [G12], ["", "\n"])
                    if got != text:
                        errors.append(("format_rows", offset))
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


def format_table(mod, cols, widths, pieces, rows=None):
    """mod.format_rows into an out array of exactly the wrapper's bound."""
    encoded = [p.encode() for p in pieces]
    lit, ends = b"".join(encoded), np.cumsum([len(p) for p in encoded]).tolist()
    rows = len(cols[0]) if rows is None else rows
    out = np.zeros(rows * (len(lit) + sum(max(20, w) for w in widths)),
                   dtype=np.uint8)
    size = mod.format_rows(cols, widths, rows, lit, ends, out)
    return out[:size].tobytes().decode()


def percent_oracle(cols, widths, pieces, rows):
    """Row by row with `%`, the operator the writer's `%d` and `%.12g`
    fields stand for."""
    fields = ["%.12g" if w == G12 else f"%{w}d" if w else "%d"
              for w in widths]
    row_fmt = pieces[0].replace("%", "%%") + "".join(
        f + p.replace("%", "%%") for f, p in zip(fields, pieces[1:]))
    return "".join(row_fmt % tuple(c[r].item() for c in cols)
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

# each digit count's edges: +-(10^k - 1), +-10^k and their neighbours,
# the int64 extremes, and 0; and +-(10^k + 10^j) and +-(10^k + 7), whose
# low 4- and 8-digit blocks start with zeros (10^8 + 1, 10^12 + 10^4,
# -(10^16 + 7))
DIGIT_EDGES = sorted({s * (10**k + d) for k in range(19) for d in (-1, 0, 1)
                      for s in (1, -1)}
                     | {s * (10**k + d) for k in range(1, 19)
                        for d in [7, *(10**j for j in range(k))]
                        for s in (1, -1)}
                     | {INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX})


def test_format_rows_ints_at_every_digit_count(kernel_backend):
    """The digit blocks against `%`: every digit count, both signs, zeros
    at the head of a 4- or 8-digit block, and widths below, at and above
    each value's printed length."""
    col = np.array(DIGIT_EDGES, dtype=np.int64)
    assert format_table(kernel_backend, [col], [0], ["", "\n"]) == "".join(
        "%d\n" % v for v in DIGIT_EDGES)
    for w in range(1, 22):  # the printed lengths are 1..20
        assert format_table(kernel_backend, [col], [w], ["|", ""]) == "".join(
            "|%*d" % (w, v) for v in DIGIT_EDGES)


def test_format_rows_ints_of_every_digit_count_at_every_width(
        kernel_backend):
    """Seeded ints of each digit count 1..19, both signs, at every width
    0..FORMAT_MAX_WIDTH (0 is plain %d), against `%*d`."""
    rng = np.random.default_rng(20261020)
    values = np.concatenate([
        rng.integers(10**(k - 1) if k > 1 else 0, min(10**k, 2**63), 24,
                     dtype=np.int64) for k in range(1, 20)])
    values[1::2] *= -1
    assert {len(str(abs(v))) for v in values.tolist()} == set(range(1, 20))
    for w in range(kernels.FORMAT_MAX_WIDTH + 1):
        assert format_table(kernel_backend, [values], [w], ["", "\n"]) == (
            "".join("%*d\n" % (w, v) for v in values.tolist()))


def test_format_rows_literal_pieces_of_every_length(kernel_backend):
    """Pieces of 0 to 20 bytes, around int and %.12g fields, copy as `%`
    writes them: every size class of the piece copy, and more than one
    step of 8 bytes."""
    ints = np.array([INT64_MIN, -7, 0, 42, INT64_MAX], dtype=np.int64)
    x = np.array([0.1, -2.5, 1 / 3, 1e-4, 123456.789])
    for k in range(21):
        piece = "".join(chr(ord("a") + i) for i in range(k))
        pieces = [piece, piece[::-1], piece.upper()]
        expect = "".join(f"{pieces[0]}{a}{pieces[1]}{format(b, '.12g')}"
                         f"{pieces[2]}" for a, b in zip(ints.tolist(),
                                                        x.tolist()))
        assert format_table(kernel_backend, [ints, x], [0, G12],
                            pieces) == expect


def test_format_rows_g12_prints_every_row(kernel_backend):
    """Every row is printed as `format` prints it, on both backends: the
    values the C kernel certifies itself and those it hands to the call
    that `%` makes (a near-tie, a zero, a value that is not finite or one
    in exponent form, up to 19 bytes long)."""
    n = np.arange(6, dtype=np.int64)
    x = np.array([0.1, -2.5, 1 / 3, 1e-4, -999999999999.0, 123456.789])
    for value in [1e-4, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 9e-5,
                  1e12, 999999999999.5, 123456789012.5, -1.23456789012e-308]:
        x[3] = value
        assert format_table(kernel_backend, [n, x], [3, G12],
                            ["[", "|", "]\n"]) == "".join(
            f"[{i:>3}|{format(v, '.12g')}]\n" for i, v in enumerate(x.tolist()))
    # the longest %.12g text, 19 bytes, in every row: within the bound
    x = np.full(5, -1.23456789012e-308)
    assert format_table(kernel_backend, [x], [G12], ["", ""]) == (
        "-1.23456789012e-308" * 5)


def test_format_rows_g12_prints_only_what_format_prints(c_kernels):
    """Every value of the writer's %.12g test set, one row each, in one
    call: the C kernel prints each as format(v, ".12g")."""
    x = g12_values()
    got = format_table(c_kernels, [x], [G12], ["", "\n"]).split("\n")
    want = [format(v, ".12g") for v in x.tolist()] + [""]
    # the first differing row, with its value, not a diff of 1.3 MB texts
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, (x[bad], got[bad], want[bad])
    assert len(got) == len(want)


def test_format_rows_backends_agree(c_kernels):
    rng = np.random.default_rng(20261018)
    x = g12_values()
    for _ in range(300):
        ncols, rows = int(rng.integers(1, 7)), int(rng.integers(0, 50))
        widths = rng.choice([0, 0, 2, 25, G12], size=ncols).tolist()
        cols = [rng.choice(x, rows) if w == G12
                else extreme_or_small(rng, rows, 10**int(rng.integers(0, 19)))
                for w in widths]
        for c, w in zip(cols, widths):  # the extremes, when there is room
            if w != G12:
                c[:3] = [INT64_MIN, 0, INT64_MAX][:rows]
        pieces = rng.choice(PIECES, size=ncols + 1).tolist()
        text = format_table(c_kernels, cols, widths, pieces)
        assert text == format_table(PURE, cols, widths, pieces)
        assert text == percent_oracle(cols, widths, pieces, rows)


def test_format_rows_rejects_unsafe_arrays(kernel_backend):
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
    assert_refused(kernel_backend, "format_rows",
                   [(args[0], args[1], 4, *args[2:]) for args in bad]
                   + [([col, col], [0, 25], -1, lit, ends, out)])
