"""Byte-exact checks of the table writer and of every output that uses it.

Each expected text is built here, one row at a time, from the per-row rules
the writer replaced: f-strings, `format(v, ".12g")`, `csv.writer` and
`json.dumps`.  Comparing bytes, not parsed rows, catches a changed line
ending (`\\r\\n` in export-figure csv, `\\n` elsewhere).
"""

import csv
import io
import json
import math
import shutil
from fractions import Fraction

import numpy as np
import pytest

from hofq import analysis, cli, engine, kernels, table, verify
from hofq.fspec import as_fspec

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# oracles


def trace_oracle(trace, fmt):
    has_f = trace.f_values is not None
    q, f = trace.q_values, trace.f_values
    if fmt == "json":
        o = trace.outcome
        doc = {"schema": "hofq.trace/1",
               "fspec": trace.fspec.spec_str() if trace.fspec else None,
               "start": trace.start,
               "outcome": {"status": "exists" if o.exists else "died",
                           "checked_to": o.checked_to, "died_at": o.died_at,
                           "lookup_index": o.lookup_index},
               "q": [int(v) for v in q]}
        if has_f:
            doc["f"] = [int(v) for v in f]
        return json.dumps(doc, separators=(",", ":")) + "\n"
    idx = range(trace.start, trace.n_max + 1)
    if fmt == "csv":
        lines = ["n,f,q" if has_f else "n,q"]
        for j, n in enumerate(idx):
            lines.append(f"{n},{f[j]},{q[j]}" if has_f else f"{n},{q[j]}")
    else:
        lines = [" n  f  q" if has_f else " n  q"]
        for j, n in enumerate(idx):
            lines.append(f"{n:>2}  {f[j]}  {q[j]}" if has_f else f"{n:>2}  {q[j]}")
        lines.append(f"outcome: {trace.outcome}")
    return "".join(line + "\n" for line in lines)


def fmt_value(v):
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return format(float(v), ".12g")


def jsonify(v):
    if isinstance(v, (np.integer, int)):
        return int(v)
    return float(v)


def figure_oracle(kind, cols, data, fmt):
    count = len(data[0])
    if fmt == "csv":
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(cols)
        for i in range(count):
            writer.writerow([fmt_value(col[i]) for col in data])
        return buf.getvalue()
    doc = {"schema": "hofq.figure/1", "kind": kind, "columns": list(cols),
           "rows": [[jsonify(col[i]) for col in data] for i in range(count)]}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def figure_data(kind, n, fspec=None, alpha=0.5, a=5, at=16, amount=1):
    """Columns of each export kind, computed the way the seed computed them
    (no downsampling at the sizes used here)."""
    idx = np.arange(1, n + 1, dtype=np.int64)
    if kind == "detrended":
        q = engine.compute_q(as_fspec(fspec or "floor:1/2"), n).q_values
        return ("n", "detrended"), (idx, q.astype(np.float64) - math.sqrt(alpha) * idx)
    if kind == "approach":
        q = engine.compute_q(as_fspec(fspec or f"const-limit:sqrt:a={a}"), n).q_values
        model = np.sqrt(2.0 * (a - 1) * idx) - (a - 1) / 2.0
        return ("n", "q", "model"), (idx, q, model)
    if kind == "perturbation":
        pert = analysis.perturb_compare(fspec or "floor:1/2", at, amount, n)
        i = np.arange(1, len(pert.diff) + 1, dtype=np.int64)
        return ("log2n", "diff"), (np.log2(i), pert.diff)
    trace = engine.compute_q(as_fspec(fspec), n)
    i = np.arange(1, len(trace.q_values) + 1, dtype=np.int64)
    return ("n", "q", "f"), (i, trace.q_values, trace.f_values[:len(i)])


@pytest.fixture
def each_backend(monkeypatch):
    """The kernel backends of format_rows, the pure-Python one and, where a
    C compiler is on PATH, the C one; iterating points kernels.format_rows
    at each in turn, so a body under `for _ in each_backend` checks the
    kernel rows of both under the test's one id."""
    mods = [kernels.PURE]
    if shutil.which("cc") is not None:
        mods.append(kernels.compiled())

    def each():
        for mod in mods:
            monkeypatch.setattr(kernels, "format_rows", mod.format_rows)
            yield mod

    return each()


def write(row_fmt, columns, **kw):
    buf = io.StringIO()
    count = table.write_rows(buf, row_fmt, columns, **kw)
    return count, buf.getvalue()


# ---------------------------------------------------------------------------
# the writer itself


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_zero_one_and_two_rows(rows):
    a = np.arange(rows, dtype=np.int64)
    b = -0.5 * a
    assert write("%d,%.12g\n", (a, b)) == (
        rows, "".join(f"{x},{format(y, '.12g')}\n" for x, y in zip(a, b)))
    assert write("[%d,%r]", (a, b), json=True) == (
        rows, json.dumps([[int(x), float(y)] for x, y in zip(a, b)],
                         separators=(",", ":"))[1:-1])


def test_ints_near_int64_limits():
    v = np.array([INT64_MIN, INT64_MIN + 1, -1, 0, 1, 2**53 + 1,
                  INT64_MAX - 1, INT64_MAX], dtype=np.int64)
    assert write("%d,%d\n", (v, v[::-1]))[1] == "".join(
        f"{x},{y}\n" for x, y in zip(v, v[::-1]))
    # beside a float column the ints stay exact (no cast to float64)
    x = np.full(len(v), 0.25)
    assert write("%d,%.12g\r\n", (v, x))[1] == "".join(
        f"{int(a)},0.25\r\n" for a in v)


@pytest.mark.parametrize("dtype,values", [
    (np.uint64, [0, 1, 2**63 - 1, 2**63, 2**64 - 1]),
    (np.int32, [-2**31, -1, 0, 2**31 - 1]),
    (np.uint8, [0, 1, 127, 128, 255]),
    (np.bool_, [False, True]),
])
def test_other_int_dtypes_print_as_percent_d(monkeypatch, kernel_backend,
                                             dtype, values):
    """No silent wrap: every integer column prints what `%d` prints, and a
    uint64 one, which int64 cannot hold, stays on `%` uncast."""
    calls = []

    def format_rows(cols, *args):
        calls.append([c.dtype for c in cols])
        return kernel_backend.format_rows(cols, *args)

    monkeypatch.setattr(kernels, "format_rows", format_rows)
    col = np.array(values, dtype=dtype)
    for json_rows in (False, True):
        text = write("%d;%3d,", (col, col), json=json_rows)[1]
        sep = "," if json_rows else ""
        assert text == sep.join("%d;%3d," % (v, v) for v in values)
    if dtype == np.uint64:
        assert calls == []
    else:  # one chunk each for the plain and the JSON rows, cast to int64
        assert calls == [[np.dtype(np.int64)] * 2] * 2


FLOATS = np.array([-2.5, -1e-5, 1e-5, 1e16, -1e16, 0.1 + 0.2, -0.0, 0.0,
                   1 / 3, 123456789012.5, 5e-324, 1.7976931348623157e308,
                   np.nan, np.inf, -np.inf])


def test_floats_csv_match_format_12g():
    assert write("%.12g\n", (FLOATS,))[1] == "".join(
        format(float(v), ".12g") + "\n" for v in FLOATS)


def g12_values():
    """Seeded doubles for the %.12g rows: random ones from every binade in
    [1e-6, 1e14], exact ties at the 12th digit, both sides of 1e-4, 1e12
    and every power of ten that 12-digit rounding reaches from below, the
    zeros, subnormals, NaN and the infinities, each with both signs."""
    rng = np.random.default_rng(20261019)
    lo, hi = math.frexp(1e-6)[1] - 1, math.frexp(1e14)[1]
    binades = [np.ldexp(rng.uniform(0.5, 1, 200), k) for k in range(lo, hi)]
    # m / 2^(j+1) with m odd times 10^j is m * 5^j / 2, a half-integer: in
    # [1e11, 1e12) it is a tie between two 12-digit roundings
    ties = [(2 * rng.integers(10**11 // 5**j, 10**12 // 5**j, 50) + 1)
            / 2.0**(j + 1) for j in range(16)]
    edges = [1e-4, 1e12, 9.99999999999995, 999999999999.5, 0.5, 1 / 3]
    edges += [float(f"9.99999999999995e{k}") for k in range(-6, 15)]
    edges += [10.0**k for k in range(-6, 15)]
    edges += [float(f"{d}5e{k - 12}") for k in range(-5, 14)
              for d in (123456789012, 999999999999)]
    odd = [0.0, 5e-324, 2.2250738585072014e-308, 1e-310, np.nan, np.inf]
    x = np.concatenate([*binades, *ties, edges])
    x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    x = np.concatenate([x, odd])
    return np.concatenate([x, -x])


def test_g12_rows_match_format_on_both_backends(each_backend):
    x = g12_values()
    i = np.arange(len(x), dtype=np.int64) - len(x) // 2
    expect = "".join(f"{format(v, '.12g')},{n}\r\n"
                     for v, n in zip(x.tolist(), i.tolist()))
    for _ in each_backend:
        assert write("%.12g,%d\r\n", (x, i)) == (len(x), expect)


def g12_near_ties():
    """Doubles x whose exact scaled product x * 10^(11-e), with e the
    decade of x, lies within 2^-14 of a half-integer D + 1/2 and not on
    it, checked in exact rationals: a few ulps about (D + 1/2) / 10^(11-e)
    for 12-digit D < 2^37 in each decade 10^-4..10^11, whose product
    rounds by at most 2^-17, kept within 2^-14 - 2^-17 of D + 1/2; and
    D + 1/2 +- 2^-14 itself, exact in [2^38, 2^39).  Each must fall
    inside put_g12's near-tie margin."""
    rng = np.random.default_rng(20261020)
    out = []
    for e in range(-4, 12):
        scale = Fraction(10) ** (11 - e)
        for d in rng.integers(10**11, 2**37, 30).tolist():
            half = Fraction(2 * d + 1, 2)
            x = float(half / scale)
            for step in range(-4, 5):
                y = x
                for _ in range(abs(step)):
                    y = math.nextafter(y, math.copysign(math.inf, step))
                off = abs(Fraction(y) * scale - half)
                if 0 < off <= Fraction(1, 2**14) - Fraction(1, 2**17):
                    out.append(y)
    for d in rng.integers(2**38, 2**39, 30).tolist():
        out += [d + 0.5 - 2.0**-14, d + 0.5 + 2.0**-14]
    return np.array(out + [-v for v in out])


def test_g12_near_ties_stop_the_kernel_and_print_as_percent(each_backend):
    x = g12_near_ties()
    assert len(x) > 500
    expect = "".join(format(v, ".12g") + "\n" for v in x.tolist())
    for mod in each_backend:
        assert write("%.12g\n", (x,)) == (len(x), expect)
        if mod is kernels.PURE:
            continue
        # the C kernel certifies none of them: it stops before each row
        fields = [kernels.FORMAT_G12]
        out = np.empty(kernels.format_size(1, b"\n", fields), np.uint8)
        assert [mod.format_rows([x[i:]], fields, 1, b"\n", [0, 1], out)[0]
                for i in range(len(x))] == [0] * len(x)


@pytest.mark.parametrize("dtype,values", [
    (np.float32, [1e-38, 3.4e38, 2**-23, 0.1, -2.5, 0.0, np.inf]),
    (np.float16, [6.1e-5, 65504, 2**-10, 0.1, -2.5, -0.0, np.nan]),
    (np.int32, [-2**31, -1, 0, 1, 2**31 - 1]),
    (np.bool_, [False, True]),
])
def test_g12_columns_cast_exactly(each_backend, dtype, values):
    """A column that float64 holds exactly prints what `%` prints of its
    own values; one it does not (int64) stays on `%`."""
    col = np.array(values, dtype=dtype)
    for _ in each_backend:
        assert write("%.12g;", (col,))[1] == "".join(
            "%.12g;" % v for v in col.tolist())
    big = np.array([2**53 + 1, -2**63], dtype=np.int64)
    assert table._kernel_fields("%.12g", [big]) is None
    assert write("%.12g", (big,))[1] == "%.12g%.12g" % tuple(big.tolist())


@pytest.mark.parametrize("at", [[0, 4], [3, 7], [0, 3, 4, 7, 8]])
def test_g12_fallback_rows_at_chunk_edges(monkeypatch, each_backend, at):
    """A row the kernel cannot certify, first or last in its chunk, goes
    through `%` inside that chunk's one write; on C `%` prints those rows
    and no other."""
    monkeypatch.setattr(table, "CHUNK", 4)
    x = np.linspace(0.5, 9.5, 10)
    x[at] = [0.0, 1e-9, -np.inf, 1e15, np.nan][:len(at)]
    n = np.arange(10, dtype=np.int64)
    percent = []

    def percent_rows(template, cols, rows):
        percent.append(rows)
        return kernels.percent_rows.__wrapped__(template, cols, rows)

    percent_rows.__wrapped__ = kernels.percent_rows
    monkeypatch.setattr(kernels, "percent_rows", percent_rows)
    for mod in each_backend:
        writes = []

        class Sink:
            def write(self, s):
                writes.append(s)

        percent.clear()
        assert table.write_rows(Sink(), "%d:%.12g\n", (n, x)) == 10
        assert "".join(writes) == "".join(
            f"{a}:{format(b, '.12g')}\n" for a, b in zip(n, x.tolist()))
        assert len(writes) == 3  # one per chunk of 4 rows
        if mod is not kernels.PURE:
            assert percent == [1] * len(at)


def test_g12_runs_of_fallback_rows_take_few_kernel_calls(monkeypatch,
                                                          each_backend):
    x = np.zeros(3000)
    x[::7] = 0.25  # certain, but never more than a row before a zero
    calls = []
    for mod in each_backend:
        calls.clear()

        def format_rows(*args):
            calls.append(args[2])
            return mod.format_rows(*args)

        monkeypatch.setattr(kernels, "format_rows", format_rows)
        assert write("%.12g\n", (x,))[1] == "".join(
            format(v, ".12g") + "\n" for v in x.tolist())
        assert len(calls) <= (1 if mod is kernels.PURE else 12)


def test_floats_json_match_json_dumps():
    n = np.arange(len(FLOATS), dtype=np.int64)
    text = write("[%d,%r]", (n, FLOATS), json=True)[1]
    assert "[" + text + "]" == json.dumps(
        [[int(i), float(v)] for i, v in zip(n, FLOATS)], separators=(",", ":"))


def test_json_spelling_stays_in_float_fields():
    # literal text around the fields keeps its "nan" and "inf"
    v = np.array([1.5, np.nan, np.inf, -np.inf])
    n = np.arange(len(v), dtype=np.int64)
    text = write('{"info":%r,"nan":%d,"inf":%r}', (v, n, v), json=True)[1]
    assert "[" + text + "]" == json.dumps(
        [{"info": float(x), "nan": int(i), "inf": float(x)}
         for i, x in zip(n, v)], separators=(",", ":"))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("json_rows", [False, True])
def test_chunk_boundaries(monkeypatch, offset, json_rows):
    monkeypatch.setattr(table, "CHUNK", 4)
    for rows in (4 + offset, 8 + offset):
        a = np.arange(rows, dtype=np.int64) * -7
        writes = []

        class Sink:
            def write(self, s):
                writes.append(s)

        assert table.write_rows(Sink(), "%d;", (a,), json=json_rows) == rows
        sep = "," if json_rows else ""
        assert "".join(writes) == sep.join(f"{v};" for v in a)
        assert len(writes) == math.ceil(rows / 4)  # one write per chunk


@pytest.mark.parametrize("buffer_bytes", [1, 41, 82, 123])
def test_wide_rows_take_fewer_rows_per_write(monkeypatch, each_backend,
                                             buffer_bytes):
    monkeypatch.setattr(table, "BUFFER_BYTES", buffer_bytes)
    a = np.array([INT64_MIN, -1, 0, 7, INT64_MAX], dtype=np.int64)
    per_write = max(1, buffer_bytes // 41)  # "%d,%d" rows: 1 + 2 * 20 bytes
    for _ in each_backend:
        writes = []

        class Sink:
            def write(self, s):
                writes.append(s)

        assert table.write_rows(Sink(), "%d,%d", (a, a[::-1])) == 5
        assert "".join(writes) == "".join(
            f"{x},{y}" for x, y in zip(a.tolist(), a[::-1].tolist()))
        assert len(writes) == math.ceil(5 / per_write)


def test_write_json_matches_json_dumps():
    a = np.array([INT64_MIN, 0, INT64_MAX], dtype=np.int64)
    x = np.array([0.5, math.nan, -math.inf])
    head = {"schema": "s", "none": None, "odd": 1j}  # 1j is written as str
    rows = [[int(i), float(v)] for i, v in zip(a, x)]
    for doc in ({}, head):
        for arrays, values in [
                ({}, {}),
                ({"q": ("%d", (a,))}, {"q": a.tolist()}),
                ({"e": ("%d", (a[:0],))}, {"e": []}),
                ({"q": ("%d", (a,)), "rows": ("[%d,%r]", (a, x))},
                 {"q": a.tolist(), "rows": rows})]:
            buf = io.StringIO()
            count = table.write_json(buf, doc, arrays)
            assert buf.getvalue() == json.dumps(
                {**doc, **values}, separators=(",", ":"), default=str) + "\n"
            assert count == sum(map(len, values.values()))
    buf = io.StringIO()
    assert table.write_json(buf, head) == 0
    assert buf.getvalue() == json.dumps(head, separators=(",", ":"),
                                        default=str) + "\n"


def test_write_runs_each_piece_through_its_writer():
    a = np.array([INT64_MIN, 0, INT64_MAX], dtype=np.int64)
    x = np.array([0.5, math.nan, -math.inf])
    doc, arrays = {"schema": "s"}, {"q": ("%d", (a,))}
    pieces = ["head\n", ("%d,%.12g\n", (a, x)), (doc, arrays), "",
              ("%d\n", (a[:0],)), (doc, {}), "tail"]
    expect = io.StringIO()
    expect.write("head\n")
    table.write_rows(expect, "%d,%.12g\n", (a, x))
    table.write_json(expect, doc, arrays)
    table.write_json(expect, doc)
    expect.write("tail")
    buf = io.StringIO()
    assert table.write(buf, pieces) == 6
    assert buf.getvalue() == expect.getvalue()
    assert table.write(buf, []) == 0


def test_unequal_columns_raise():
    with pytest.raises(ValueError, match="differ in length"):
        write("%d,%d\n", (np.arange(3), np.arange(2)))


# ---------------------------------------------------------------------------
# every output built on the writer


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
@pytest.mark.parametrize("spec,n", [("gamma2", 300), ("floor:1/2", 1),
                                    ("prefix:0,2,2", 3)])
def test_compute_matches_oracle(capsys, each_backend, fmt, spec, n):
    trace = engine.compute_q(as_fspec(spec), n)
    for _ in each_backend:
        code, out, _ = run(capsys, "compute", "--f", spec, "--n", n,
                           "--format", fmt)
        assert code == (0 if trace.exists else 2)
        assert out == trace_oracle(trace, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("variant", ["hof", "tanny", "quasipoly"])
def test_hofstadter_matches_oracle(capsys, each_backend, fmt, variant):
    trace = engine.compute_two_term(cli._VARIANTS[variant](), 200)
    for _ in each_backend:
        code, out, _ = run(capsys, "hofstadter", "--variant", variant, "--n",
                           200, "--format", fmt)
        assert code == 0 and out == trace_oracle(trace, fmt)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_trace_across_chunk_boundary(capsys, monkeypatch, each_backend, offset):
    monkeypatch.setattr(table, "CHUNK", 8)
    trace = engine.compute_q(as_fspec("gamma2"), 8 + offset)
    for _ in each_backend:
        for fmt in ("csv", "text", "json"):
            _, out, _ = run(capsys, "compute", "--f", "gamma2", "--n",
                            8 + offset, "--format", fmt)
            assert out == trace_oracle(trace, fmt)


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_perturb_matches_oracle(capsys, each_backend, fmt):
    pert = analysis.perturb_compare("floor:1/2", 16, 1, 4096)
    if fmt == "csv":
        expect = ["n,diff"] + [f"{j + 1},{d}" for j, d in enumerate(pert.diff)]
    else:
        nz = int(np.count_nonzero(pert.diff))
        expect = [f"base:      {pert.base_outcome}",
                  f"perturbed: {pert.perturbed_outcome}",
                  f"difference is nonzero at {nz} of {len(pert.diff)} indices",
                  f"zero regions ({len(pert.zero_regions)}):"]
        expect += [f"  [{lo}, {hi}]" for lo, hi in pert.zero_regions[:20]]
        if len(pert.zero_regions) > 20:
            expect.append("  ...")
    for _ in each_backend:
        code, out, _ = run(capsys, "perturb", "--f", "floor:1/2", "--at", 16,
                           "--n", 4096, "--format", fmt)
        assert code == 0
        assert out == "".join(line + "\n" for line in expect)


def test_approx_csv_matches_oracle(capsys):
    code, out, _ = run(capsys, "approx", "--f", "gamma2", "--model",
                       "sqrt:gamma2", "--n", 5000, "--format", "csv")
    report = analysis.approx_error(as_fspec("gamma2"),
                                   analysis.parse_model("sqrt:gamma2"), 5000,
                                   keep_trace=True)
    ns, errs = report.error_trace
    assert code == 0 and out == "n,error\n" + "".join(
        f"{n},{format(e, '.12g')}\n" for n, e in zip(ns, errs))


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("min_run", [50, 10**6])
def test_scan_matches_oracle(capsys, each_backend, fmt, min_run):
    args = ("--f", "floor:1/2", "--n", 20000, "--shift-range", "60:130",
            "--min-run", min_run)
    trace = engine.compute_q(as_fspec("floor:1/2"), 20000)
    matches = analysis.scan_self_similarity(trace, range(60, 131), min_run)
    assert (len(matches) > 1) == (min_run == 50)
    if fmt == "csv":
        lines = ["shift,delta,lo,hi"]
        lines += [f"{m.shift},{m.delta},{m.lo},{m.hi}" for m in matches]
    else:
        lines = [f"shift {m.shift}: q(i+{m.shift}) - q(i) = {m.delta} "
                 f"for i in [{m.lo}, {m.hi}] (length {m.length})"
                 for m in matches] or ["no matches at this min-run"]
    for _ in each_backend:
        code, out, _ = run(capsys, "scan-selfsim", *args, "--format", fmt)
        assert code == 0 and out == "".join(line + "\n" for line in lines)


def json_oracle(doc, **kw):
    return json.dumps(doc, separators=(",", ":"), **kw) + "\n"


@pytest.mark.parametrize("lemma", ["all", "mod,quarter,golden-identity"])
def test_verify_json_matches_oracle(capsys, lemma):
    code, out, _ = run(capsys, "verify", "--lemma", lemma, "--n", 2000,
                       "--format", "json")
    names = None if lemma == "all" else lemma.split(",")
    results = verify.run_suite(names, 2000)
    doc = {"schema": "hofq.verify/1",
           "results": [{"name": r.name, "ok": r.ok,
                        "checked_up_to": r.checked_up_to,
                        "first_counterexample": r.first_counterexample,
                        "details": r.details} for r in results],
           "ok": True}
    assert code == 0 and out == json_oracle(doc, default=str)


@pytest.mark.parametrize("min_run", [50, 10**6])
def test_scan_json_matches_oracle(capsys, min_run):
    code, out, _ = run(capsys, "scan-selfsim", "--f", "floor:1/2", "--n",
                       20000, "--shift-range", "60:130", "--min-run", min_run,
                       "--format", "json")
    trace = engine.compute_q(as_fspec("floor:1/2"), 20000)
    matches = analysis.scan_self_similarity(trace, range(60, 131), min_run)
    doc = {"schema": "hofq.selfsim/1", "fspec": "floor:1/2", "n": 20000,
           "min_run": min_run,
           "matches": [{"shift": m.shift, "delta": m.delta, "lo": m.lo,
                        "hi": m.hi} for m in matches]}
    assert code == 0 and out == json_oracle(doc)


def test_perturb_json_matches_oracle(capsys):
    code, out, _ = run(capsys, "perturb", "--f", "floor:1/2", "--at", 16,
                       "--n", 4096, "--format", "json")
    pert = analysis.perturb_compare("floor:1/2", 16, 1, 4096)
    doc = {"schema": "hofq.perturb/1", "fspec": pert.fspec, "at": 16,
           "amount": 1, "base_outcome": pert.base_outcome,
           "perturbed_outcome": pert.perturbed_outcome,
           "zero_regions": [list(z) for z in pert.zero_regions]}
    assert len(pert.zero_regions) > 1
    assert code == 0 and out == json_oracle(doc)


@pytest.mark.parametrize("model", ["sqrt:gamma2", "const:3"])
def test_approx_json_matches_oracle(capsys, model):
    code, out, _ = run(capsys, "approx", "--f", "gamma2", "--model", model,
                       "--n", 5000, "--format", "json")
    report = analysis.approx_error(as_fspec("gamma2"),
                                   analysis.parse_model(model), 5000)
    doc = {"schema": "hofq.approx/1", "fspec": "gamma2",
           "model": report.model, "n": 5000,
           "max_abs_error": report.max_abs_error,
           "min_signed_error": report.min_signed_error,
           "max_signed_error": report.max_signed_error}
    assert code == 0 and out == json_oracle(doc)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind,n,extra", [
    ("detrended", 500, {}),
    ("detrended", 40, {"alpha": 0.0}),  # NaN alpha is refused
    ("detrended", 40, {"alpha": np.finfo(np.float64).max}),  # inf: refused
    ("approach", 500, {}),
    ("perturbation", 1024, {}),
    ("trace", 500, {"fspec": "gamma2"}),
    ("trace", 1, {"fspec": "linear"}),
    ("trace", 3, {"fspec": "prefix:0,2,2"}),
])
def test_export_figure_matches_oracle(tmp_path, each_backend, fmt, kind, n,
                                     extra):
    out = tmp_path / f"fig.{fmt}"
    cols, data = figure_data(kind, n, **extra)
    for _ in each_backend:
        count = analysis.export_figure_data(kind, out, n_max=n, fmt=fmt,
                                            **extra)
        assert count == len(data[0])
        assert out.read_bytes() == figure_oracle(kind, cols, data,
                                                 fmt).encode()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_export_figure_across_chunk_boundary(tmp_path, monkeypatch, offset):
    monkeypatch.setattr(table, "CHUNK", 16)
    for fmt in ("csv", "json"):
        out = tmp_path / f"fig.{fmt}"
        analysis.export_figure_data("detrended", out, n_max=16 + offset, fmt=fmt)
        cols, data = figure_data("detrended", 16 + offset)
        assert out.read_bytes() == figure_oracle("detrended", cols, data,
                                                 fmt).encode()


def test_export_figure_cli_writes_the_same_bytes(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, err = run(capsys, "export-figure", "--which", "trace", "--f",
                       "gamma2", "--n", 300, "--format", "json", "--out", out)
    cols, data = figure_data("trace", 300, fspec="gamma2")
    assert code == 0 and err == f"hofq: wrote 300 rows to {out}\n"
    assert out.read_bytes() == figure_oracle("trace", cols, data, "json").encode()
