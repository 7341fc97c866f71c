import csv
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hofq import analysis
from hofq.analysis import (
    ConstLimitModel,
    PowerAnsatzModel,
    SqrtAlphaModel,
    approx_error,
    const_ansatz_residual,
    export_figure_data,
    parse_model,
    perturb_compare,
    propose_shifts,
    scan_self_similarity,
)
from hofq.engine import compute_q
from hofq.errors import SequenceDied
from oracle import (oracle_propose_shifts, oracle_self_similarity,
                    oracle_zero_regions)


def test_approx_report_basics():
    rep = approx_error("floor:1/2", SqrtAlphaModel(0.5), 5000)
    assert rep.n_max == 5000
    assert rep.max_abs_error == max(abs(rep.min_signed_error),
                                    abs(rep.max_signed_error))
    again = approx_error("floor:1/2", SqrtAlphaModel(0.5), 5000)
    assert (rep.max_abs_error, rep.min_signed_error) == \
        (again.max_abs_error, again.min_signed_error)


def test_detrended_value_at_two():
    # q(2) = 2 for the half-floor driver, so the detrended value is 2 - sqrt(2)
    rep = approx_error("floor:1/2", SqrtAlphaModel(0.5), 2)
    assert math.isclose(rep.max_signed_error, 2 - 2 / math.sqrt(2))
    assert math.isclose(rep.max_signed_error, 0.5857864376, abs_tol=1e-9)


def test_golden_driver_stays_within_one_of_sqrt_alpha():
    gam = analysis.GAMMA
    rep = approx_error("gamma2", SqrtAlphaModel(gam * gam), 10**4)
    assert rep.max_abs_error <= 1.0


def test_approx_error_keep_trace_stride():
    rep = approx_error("floor:1/2", SqrtAlphaModel(0.5), 1000, keep_trace=True,
                       stride=100)
    ns, errs = rep.error_trace
    assert list(ns) == list(range(1, 1001, 100))
    assert len(errs) == len(ns)


def test_approx_error_on_dying_trace():
    with pytest.raises(RuntimeError):
        approx_error([0, 2, 2], SqrtAlphaModel(0.5), 3)


@pytest.mark.parametrize("alpha", [-1.0, -1e-300, math.nan, -math.inf,
                                   math.inf])
def test_sqrt_model_refuses_negative_or_nan_alpha(tmp_path, alpha):
    with pytest.raises(ValueError, match="alpha"):
        SqrtAlphaModel(alpha)
    out = tmp_path / "fig.csv"
    with pytest.raises(ValueError, match="alpha"):
        export_figure_data("detrended", out, n_max=10, alpha=alpha)
    assert not out.exists()


@pytest.mark.parametrize("a", [-1, -2**70])
def test_const_model_refuses_negative_a(a):
    with pytest.raises(ValueError, match=r"a >= 0, got a = "):
        ConstLimitModel(a)
    with pytest.raises(ValueError, match=r"a >= 0, got a = "):
        parse_model(f"const:{a}")


def test_const_model_at_zero_and_approach_export_at_a_one(tmp_path):
    assert (ConstLimitModel(0).values(np.arange(1, 4)) == 0).all()
    out = tmp_path / "fig.csv"
    assert export_figure_data("approach", out, n_max=3, fspec="floor:1/2",
                              a=1) == 3


def test_approach_export_refuses_a_below_one(tmp_path):
    out = tmp_path / "fig.csv"
    with pytest.raises(ValueError, match=r"a >= 0, got a = -1"):
        export_figure_data("approach", out, n_max=3, fspec="floor:1/2", a=0)
    assert not out.exists()


def test_parse_model():
    m = parse_model("sqrt:1/2")
    assert isinstance(m, SqrtAlphaModel) and m.alpha == 0.5
    assert isinstance(parse_model("sqrt:gamma2"), SqrtAlphaModel)
    c = parse_model("const:4")
    assert isinstance(c, ConstLimitModel) and c.a == 4
    p = parse_model("power:1:3/4:1/2")
    assert isinstance(p, PowerAnsatzModel) and p.p == 0.75
    with pytest.raises(ValueError):
        parse_model("banana:1")


@pytest.mark.parametrize("text", ["sqrt:1e400", "power:1e400:1:0",
                                  "power:1:-1e400:0", "power:1:1:1e400",
                                  f"const:{10**400}"])
def test_parse_model_refuses_parameters_outside_float64(text):
    with pytest.raises(ValueError, match="float64"):
        parse_model(text)


@pytest.mark.parametrize("text, message", [
    ("const:1e400", "model 'const:1e400': '1e400' is not an integer"),
    ("const:", "model 'const:': '' is not an integer"),
    ("const:2.5", "model 'const:2.5': '2.5' is not an integer"),
    ("sqrt:abc", "model 'sqrt:abc': 'abc' is not a number"),
    ("sqrt:", "model 'sqrt:': '' is not a number"),
    ("power:1:x:0", "model 'power:1:x:0': 'x' is not a number"),
    ("power:1/:1:0", "model 'power:1/:1:0': '1/' is not a number"),
])
def test_parse_model_names_the_model_of_a_bad_number(text, message):
    with pytest.raises(ValueError) as info:
        parse_model(text)
    assert str(info.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", [
    PowerAnsatzModel(1, 1000, 0),          # n^p overflows
    PowerAnsatzModel(1e308, 1, -1e308),    # a * n^p overflows
    PowerAnsatzModel(0, 1000, 0),          # 0 * inf
    PowerAnsatzModel(math.inf, 1, 0),
    ConstLimitModel(2**1022),              # 2 a n overflows
])
def test_models_refuse_to_leave_float64(model):
    n = np.arange(1, 4)
    with pytest.raises(ValueError, match=r"leaves float64 for some n in 1..3"):
        model.values(n)
    with pytest.raises(ValueError, match="leaves float64"):
        approx_error("floor:1/2", model, 3)
    if math.isfinite(model.a):  # n = 1 stays inside
        assert np.isfinite(model.values(n[:1])).all()


def test_scan_constant_trace():
    t = compute_q("zeros", 500)
    matches = scan_self_similarity(t, [1, 7, 100], min_run=10)
    assert [(m.shift, m.delta) for m in matches] == [(1, 0), (7, 0), (100, 0)]
    for m in matches:
        assert (m.lo, m.hi) == (1, 500 - m.shift)


def test_scan_maximality_on_planted_run():
    rng = np.random.default_rng(5)
    q = rng.integers(0, 50, size=2000)
    s = 700
    lo, hi = 100, 400  # 0-based positions in the difference array
    q[lo + s:hi + s + 1] = q[lo:hi + 1] + 9
    # break equality just outside both ends
    q[lo - 1 + s] = q[lo - 1] + 20
    q[hi + 1 + s] = q[hi + 1] + 20
    found = [m for m in scan_self_similarity(q, [s], min_run=100) if m.delta == 9]
    assert len(found) == 1
    m = found[0]
    assert (m.lo, m.hi) == (lo + 1, hi + 1)  # 1-based, maximal on both sides
    assert m.length == hi - lo + 1


def test_scan_rejects_min_run_one():
    with pytest.raises(ValueError):
        scan_self_similarity(np.arange(10), [2], min_run=1)


def test_scan_ignores_out_of_range_shifts():
    assert scan_self_similarity(np.arange(50), [0, 60], min_run=5) == []


def test_propose_shifts_finds_planted_period():
    # periodic-difference sequence: every multiple of 90 is a perfect shift
    n = np.arange(1, 6001)
    q = n // 3 + (n % 90 == 0)
    cands = propose_shifts(q, min_run=500)
    assert any(c % 90 == 0 for c in cands)


DISCOVERY_SPECS = ["floor:1/2", "gamma2", "one-minus-delta:1", "bits-1",
                   "bits-2", "bits-3", "planted"]
DISCOVERY_NS = [127, 128, 129, 5000, 60000]


def discovery_trace(name, n):
    """A trace of n terms for propose_shifts: a driver family's, one of
    seeded random bits: drivers, or the planted period-90 sequence of
    test_propose_shifts_finds_planted_period as a plain array."""
    if name == "planted":
        i = np.arange(1, n + 1)
        return i // 3 + (i % 90 == 0)
    if name.startswith("bits-"):
        rng = np.random.default_rng(20261022 + int(name[5:]))
        name = "bits:" + "".join(map(str, rng.integers(0, 2, n - 1)))
    return compute_q(name, n)


def discover_both(trace, min_run):
    """(propose_shifts, the window-view oracle) at analysis' settings."""
    return propose_shifts(trace, min_run), oracle_propose_shifts(
        trace, min_run, analysis.DISCOVERY_CANDIDATES,
        analysis.DISCOVERY_WINDOW, analysis.DISCOVERY_ANCHORS)


@pytest.fixture
def scanned(monkeypatch):
    """The shifts that analysis.scan_self_similarity is asked to score,
    one list per call, each scored as no match."""
    calls = []

    def record(trace, shifts, min_run):
        calls.append(sorted(shifts))
        return []

    monkeypatch.setattr(analysis, "scan_self_similarity", record)
    return calls


@pytest.mark.parametrize("n", DISCOVERY_NS)
@pytest.mark.parametrize("name", DISCOVERY_SPECS)
def test_discovery_scores_the_window_views_candidates(scanned, name, n):
    """The narrowing search scores, in one scan, every candidate shift that
    the N x 64 window view finds, and only those."""
    trace = discovery_trace(name, n)
    assert oracle_propose_shifts(
        trace, 20, analysis.DISCOVERY_CANDIDATES, analysis.DISCOVERY_WINDOW,
        analysis.DISCOVERY_ANCHORS) == []
    theirs = sorted(s for call in scanned for s in call)
    assert len(theirs) == len(set(theirs))
    scanned.clear()
    assert propose_shifts(trace, 20) == []
    assert scanned == ([theirs] if n > 128 else [])
    assert bool(theirs) == (n > 129 and not name.startswith("bits"))


@pytest.mark.parametrize("min_run", [2, 20, 200])
@pytest.mark.parametrize("name", ["floor:1/2", "gamma2", "one-minus-delta:1",
                                  "bits-1", "planted"])
def test_scan_matches_a_walk_over_each_shift(name, min_run):
    """Every shift's maximal runs, from one scan of many shifts, are those
    a walk over its differences finds: shifts repeated, unordered, out of
    range, and the candidates discovery scores."""
    trace = discovery_trace(name, 3000)
    q = trace if name == "planted" else trace.q_values
    rng = np.random.default_rng(min_run)
    shifts = [0, 1, 2, 2999, 3000, -4, 90, 90, *rng.integers(1, 3000, 20),
              *propose_shifts(trace, min_run)]
    got = [(m.shift, m.delta, m.lo, m.hi)
           for m in scan_self_similarity(trace, shifts, min_run)]
    assert got == oracle_self_similarity(q, shifts, min_run)


@pytest.fixture
def scan_once(monkeypatch):
    """analysis.scan_self_similarity remembering each shift's matches, so
    that the oracle, which scans one shift a call, scores the shifts that
    propose_shifts scored at no second cost.  The matches of many shifts
    are those of each in turn (test_scan_matches_a_walk_over_each_shift)."""
    real, seen = analysis.scan_self_similarity, {}

    def scan(trace, shifts, min_run):
        found = []
        for s in sorted(set(shifts)):
            if (s, min_run) not in seen:
                seen[s, min_run] = real(trace, [s], min_run=min_run)
            found += seen[s, min_run]
        return found

    monkeypatch.setattr(analysis, "scan_self_similarity", scan)


# Scoring is one scan per candidate in the oracle, so it costs seconds where
# there are thousands: 54,157 candidates for one-minus-delta:1 at 60,000
# terms (30 s at min_run 20, 2 s at 1,000), and 9,975 for the planted
# sequence, whose scans at min_run 20 build 4 million matches (6 s).  There
# only the candidates are compared:
# test_discovery_scores_the_window_views_candidates covers every (name, n).
SCORED_COSTLY = {("one-minus-delta:1", 60000, 20),
                 ("one-minus-delta:1", 60000, 200),
                 ("one-minus-delta:1", 60000, 1000), ("planted", 60000, 20)}


@pytest.mark.parametrize("name, n, min_run", [
    case for case in itertools.product(DISCOVERY_SPECS, DISCOVERY_NS,
                                       (20, 200, 1000))
    if case not in SCORED_COSTLY])
def test_discovery_matches_the_window_view_oracle(scan_once, name, n,
                                                  min_run):
    """propose_shifts returns the window-view oracle's list."""
    got, want = discover_both(discovery_trace(name, n), min_run)
    assert got == want


@pytest.mark.parametrize("window, anchors", [(1, 1), (2, 3), (5, 8),
                                             (64, 2), (100, 20)])
@pytest.mark.parametrize("name", ["floor:1/2", "gamma2", "planted"])
def test_discovery_reads_its_constants(monkeypatch, scan_once, name, window,
                                       anchors):
    """Every scored candidate, longest run first, at other windows and
    anchor counts, set on the module constants."""
    monkeypatch.setattr(analysis, "DISCOVERY_CANDIDATES", 10**9)
    monkeypatch.setattr(analysis, "DISCOVERY_WINDOW", window)
    monkeypatch.setattr(analysis, "DISCOVERY_ANCHORS", anchors)
    got, want = discover_both(discovery_trace(name, 5000), 100)
    assert got == want


def test_perturb_basics():
    p = perturb_compare("floor:1/2", 16, 1, 4000)
    assert (p.diff[:15] == 0).all()
    assert p.diff[15] == -1
    assert p.zero_regions[0] == (1, 15)
    for lo, hi in p.zero_regions:
        assert (p.diff[lo - 1:hi] == 0).all()
        if lo > 1:
            assert p.diff[lo - 2] != 0
        if hi < len(p.diff):
            assert p.diff[hi] != 0


def zero_diff_arrays():
    """Seeded difference arrays: empty, of length 1, all zero, never zero,
    and mixed at several densities of zeros, runs of one included."""
    rng = np.random.default_rng(20261019)
    out = {"empty": [], "one-zero": [0], "one-nonzero": [-3],
           "all-zero": [0] * 50, "never-zero": rng.choice([-2, -1, 1, 5], 50)}
    for p in (0.1, 0.5, 0.9):
        for n in (2, 3, 17, 1000):
            runs = rng.geometric(0.3, n)  # alternating runs of zeros or not
            vals = np.repeat(np.arange(n) % 2 * rng.integers(1, 4, n), runs)
            start = int(rng.random() < p)  # start on a zero run or not
            out[f"mixed-{p}-{n}"] = vals[start:] * rng.choice([-1, 1])
            out[f"random-{p}-{n}"] = (rng.random(n) > p) * rng.integers(
                -9, 10, n)
    return out


@pytest.mark.parametrize("name, diff", zero_diff_arrays().items())
def test_zero_regions_match_a_scalar_walk(monkeypatch, name, diff):
    """perturb_compare's zero regions, from one array pass, are the ones a
    walk over the values finds, on a difference planted through its two
    traces."""
    diff = np.asarray(diff, dtype=np.int64)
    pert = np.full(len(diff), 7, dtype=np.int64)

    def trace(q):
        return SimpleNamespace(q_values=q, outcome="exists")

    monkeypatch.setattr(analysis, "_existing_trace",
                        lambda spec, n: trace(pert + diff))
    monkeypatch.setattr(analysis, "compute_q", lambda spec, n: trace(pert))
    p = perturb_compare("zeros", 1, 1, len(diff))
    assert p.diff.tolist() == diff.tolist()
    assert p.zero_regions == oracle_zero_regions(diff.tolist())
    assert all(type(v) is int for z in p.zero_regions for v in z)


@pytest.mark.parametrize("at, amount, n", [(16, 1, 4000), (16, 0, 300),
                                           (3, 2, 2**16), (1000, -1, 5000)])
def test_zero_regions_of_floor_half_match_a_scalar_walk(at, amount, n):
    p = perturb_compare("floor:1/2", at, amount, n)
    assert p.zero_regions == oracle_zero_regions(p.diff.tolist())


def test_perturb_zero_amount():
    p = perturb_compare("floor:1/2", 16, 0, 300)
    assert (p.diff == 0).all()
    assert p.zero_regions == ((1, 300),)


def test_perturb_death_is_reported_not_raised():
    p = perturb_compare("zeros", 2, 5, 10)
    assert "died" in p.perturbed_outcome
    assert "exists" in p.base_outcome


def test_perturb_dying_base_trace_raises():
    with pytest.raises(SequenceDied, match="died at 3 "):
        perturb_compare([0, 2, 2], 2, 1, 3)


@pytest.mark.parametrize("kind", ["detrended", "approach"])
def test_export_of_dying_trace_raises(tmp_path, kind):
    out = tmp_path / "d.csv"
    with pytest.raises(SequenceDied, match="died at 3 "):
        export_figure_data(kind, out, n_max=3, fspec=[0, 2, 2])
    assert not out.exists()


def test_const_ansatz_residual_rates():
    a = 4.0
    coarse = np.geomspace(100, 10**5, 60)
    dense = np.geomspace(100, 10**6, 4000)
    # with b = a/2 the deviation beyond a/x decays like x^(-3/2)
    scaled = (np.abs(const_ansatz_residual(a, coarse) - a) - a / coarse) \
        * coarse**1.5
    c_fit = float(scaled.max())
    err_dense = np.abs(const_ansatz_residual(a, dense) - a)
    assert (err_dense <= a / dense + (c_fit + 1e-6) * dense**-1.5).all()
    # with b != a/2 an x^(-1/2) term survives: the same bound fails badly
    err_bad = np.abs(const_ansatz_residual(a, dense, b=0.0) - a)
    assert (err_bad * np.sqrt(dense)).min() > 1.0
    assert not (err_bad <= a / dense + (c_fit + 1e-6) * dense**-1.5).all()


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_export_trace_kind(tmp_path):
    out = tmp_path / "t.csv"
    n_rows = export_figure_data("trace", out, n_max=50, fspec="floor:1/2")
    header, rows = read_csv(out)
    assert header == ["n", "q", "f"]
    assert n_rows == 50 and len(rows) == 50
    assert rows[0] == ["1", "1", "0"]
    with pytest.raises(ValueError):
        export_figure_data("trace", out)


def test_export_detrended_kind(tmp_path):
    out = tmp_path / "d.csv"
    n_rows = export_figure_data("detrended", out, n_max=64)
    header, rows = read_csv(out)
    assert header == ["n", "detrended"]
    assert n_rows == 64
    assert rows[1][0] == "2"
    assert math.isclose(float(rows[1][1]), 2 - 2 / math.sqrt(2), abs_tol=1e-9)


def test_export_approach_kind(tmp_path):
    out = tmp_path / "a.csv"
    n_rows = export_figure_data("approach", out, n_max=200)
    header, rows = read_csv(out)
    assert header == ["n", "q", "model"]
    assert n_rows == 200
    n = 100
    assert math.isclose(float(rows[n - 1][2]), math.sqrt(8 * n) - 2, abs_tol=1e-9)


def test_export_perturbation_kind(tmp_path):
    out = tmp_path / "p.csv"
    n_rows = export_figure_data("perturbation", out, n_max=1024)
    header, rows = read_csv(out)
    assert header == ["log2n", "diff"]
    assert n_rows == 1024
    assert all(r[1] == "0" for r in rows[:15])
    assert math.isclose(float(rows[7][0]), 3.0)  # log2(8)


def test_export_aliases_and_json(tmp_path):
    out = tmp_path / "alias.csv"
    export_figure_data("fig2", out, n_max=16)
    header, _ = read_csv(out)
    assert header == ["n", "detrended"]
    export_figure_data("ascon", out, n_max=16)
    assert read_csv(out)[0] == ["n", "q", "model"]
    export_figure_data("fig3", out, n_max=64)
    assert read_csv(out)[0] == ["log2n", "diff"]
    jout = tmp_path / "x.json"
    export_figure_data("fig2", jout, n_max=8, fmt="json")
    doc = json.loads(jout.read_text())
    assert doc["schema"] == "hofq.figure/1"
    assert doc["kind"] == "detrended"
    assert doc["columns"] == ["n", "detrended"]
    assert len(doc["rows"]) == 8
    with pytest.raises(ValueError):
        export_figure_data("nope", out)
    with pytest.raises(ValueError):
        export_figure_data("fig2", out, fmt="tsv")


def test_export_downsampling(tmp_path, monkeypatch):
    monkeypatch.setattr(analysis, "MAX_EXPORT_ROWS", 100)
    out = tmp_path / "ds.csv"
    n_rows = export_figure_data("detrended", out, n_max=1000)
    assert n_rows == len(read_csv(out)[1]) == 100
    n_rows = export_figure_data("detrended", out, n_max=1000, full_resolution=True)
    assert n_rows == 1000
