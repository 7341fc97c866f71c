import math

import numpy as np
import pytest

from hofq import verify
from hofq.engine import ExistenceOutcome, QTrace, compute_q
from hofq.exactfloor import (
    GAMMA_ARRAY_CAP,
    floor_gamma,
    floor_gamma_sq,
    floor_gamma_sq_array,
    staircase_start,
)
from oracle import first_mismatch

N_FAST = 20000


@pytest.mark.parametrize("name", sorted(verify.REGISTRY))
def test_each_verifier_passes(name):
    res = verify.REGISTRY[name](N_FAST if name != "quasipoly" else 5000)
    assert res.ok, str(res)
    assert res.first_counterexample is None


def test_run_suite_all_and_selection():
    results = verify.run_suite(n=2000)
    assert [r.name for r in results] == list(verify.REGISTRY)
    assert all(r.ok for r in results)
    picked = verify.run_suite(["golden", "mod"], n=1000, threads=2)
    assert [r.name for r in picked] == ["golden", "mod"]
    with pytest.raises(KeyError):
        verify.run_suite(["golden", "bogus"])
    for threads in (0, -1):  # 0 is not "unset"
        with pytest.raises(ValueError):
            verify.run_suite(["mod"], n=100, threads=threads)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool run_suite opens."""
    sizes = []

    class Pool(verify.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(verify, "ThreadPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_run_suite_pool_defaults_to_usable_cpus(monkeypatch, pool_sizes, cpus):
    monkeypatch.setattr(verify.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    names = ["mod", "golden", "shift", "quarter"]
    verify.run_suite(names, n=200)
    verify.run_suite(names, n=200, threads=3)  # an explicit count wins
    assert pool_sizes == [min(len(names), cpus), 3]


def test_run_suite_pool_without_sched_getaffinity(monkeypatch, pool_sizes):
    monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    for count in (3, None):  # cpu_count() may not know: one worker
        monkeypatch.setattr(verify.os, "cpu_count", lambda: count)
        verify.run_suite(["mod", "golden", "shift", "quarter"], n=200)
    assert pool_sizes == [3, 1]


@pytest.mark.parametrize("names", [[], ()])
def test_run_suite_refuses_an_empty_selection(names):
    with pytest.raises(ValueError, match="no verifier selected"):
        verify.run_suite(names, n=100)


def test_mod_details():
    res = verify.verify_mod_class(3000, ms=(1, 2, 3, 5, 7))
    assert res.ok and res.details["per_modulus_ok"] == {m: True for m in (1, 2, 3, 5, 7)}


def test_shift_details():
    res = verify.verify_shift(3000, exhaustive_m=10)
    assert res.ok
    assert res.details["exhaustive_sequences"] == sum(2 ** (m - 1) for m in range(1, 11))


def test_quarter_continuous_details():
    res = verify.verify_quarter_floor(2000, samples=4000)
    assert res.ok
    d = res.details
    assert d["continuous_samples"] > 3000
    assert d["continuous_max_residual"] < 1e-9


def test_quarter_trace_values():
    t = compute_q("floor:1/4:shift=2", 6)
    assert list(t.q_values) == [1, 2, 2, 3, 3, 4]


def test_staircase_markers():
    assert staircase_start(4) == 7
    t = compute_q("one-minus-delta:1", 16)
    assert t.q(7) == 4


def test_golden_identity_details():
    n = 50000
    res = verify.verify_golden_identity(n)
    assert res.ok
    cases = res.details["cases"]
    assert cases["low"] + cases["mid"] + cases["high"] == n - 1
    assert res.details["case_overlap"] == 0
    assert res.details["boundary_points"] == [1]
    assert res.details["floor_identity_checked"]
    assert res.details["oracle_samples"] == 1000
    # gamma^2 splits as 1 : (gamma - gamma^2)/gamma^2 ... sanity: all three occur
    assert min(cases.values()) > 0


def test_identity_value_at_one():
    # floor(gamma(0+1)) + floor(gamma^2) + floor(2 gamma^2) = 0
    theta1 = floor_gamma(floor_gamma_sq(0) + 1) + floor_gamma_sq(1) + floor_gamma_sq(2)
    assert theta1 == 0


def test_golden_prefix():
    t = compute_q("gamma2", 10)
    assert list(t.q_values) == [1, 1, 2, 2, 3, 4, 4, 5, 5, 6]


def test_failure_reporting_carries_counterexample():
    mism = verify._first_by_class(np.array([1, 9, 3]), [np.array([1, 2, 3])])
    res = verify.VerifierResult("demo", 5, mism is None, mism)
    assert not res.ok
    assert res.first_counterexample == (2, 2, 9)
    assert "FAIL" in str(res) and "n = 2" in str(res)
    # a constant expected value is a constant line; n counts from first
    q = np.array([1, 1, 4, 1])
    assert verify._first_by_class(q, [1], first=5) == (7, 1, 4)
    assert verify._first_by_class(q, [1]) == first_mismatch(np.ones(4), q)
    assert verify._first_by_class(q[:2], [1]) is None


def test_shift_reports_the_first_exhaustive_mismatch(monkeypatch):
    """A shifted batch whose q disagrees with the unshifted one is reported
    as (n, q(n - 1) of the row, shifted q(n)), at the least such n."""
    real = verify.compute_q_batch

    def planted(f_mat):
        q, died = real(f_mat)
        if f_mat.shape == (8, 4) and not f_mat[:, 1].any():  # m = 4, shifted
            q = q.copy()
            q[3, 2] += 5  # row 3: f = (0, 0, 1, 2), q = (1, 1, 2, 3)
        return q, died

    monkeypatch.setattr(verify, "compute_q_batch", planted)
    res = verify.verify_shift(100, exhaustive_m=6)
    assert not res.ok and res.first_counterexample == (3, 1, 6)
    assert res.details["exhaustive_sequences"] == 1 + 2 + 4 + 8


def test_quarter_fails_on_a_continuous_residual(monkeypatch):
    """A residual of the real-valued solution past CONTINUOUS_TOL fails at
    floor(x) of the worst sample x."""
    samples, seed = 100, 7
    x = np.random.default_rng(seed).uniform(1.0, 100.0, size=samples)[0]
    real = verify._wave_f
    monkeypatch.setattr(verify, "_wave_f",
                        lambda s: real(s) + 1e-3 * (s == x))
    res = verify.verify_quarter_floor(200, samples=samples, seed=seed)
    assert not res.ok
    assert res.first_counterexample == (math.floor(x), 0, 1)
    assert res.details["continuous_worst_x"] == x
    assert 1e-3 - 1e-9 < res.details["continuous_max_residual"] < 1e-3 + 1e-9


def test_golden_identity_fails_where_its_cases_overlap(monkeypatch):
    """floor(gamma^2 j) doctored for j <= 5 so that the identity still
    holds to n = 4 while the floor rises at both n = 4 and n = 5, which puts
    n = 4 in the low and the high case at once: a partition failure."""
    fsq = np.array([0, -1, 1, 0, 1, 2], dtype=np.int64)
    monkeypatch.setattr(verify, "floor_gamma_sq_array", lambda m: fsq[m])
    res = verify.verify_golden_identity(4)
    assert not res.ok and res.first_counterexample == (4, 1, 2)
    assert res.details["case_overlap"] == 1
    assert res.details["cases"] == {"low": 2, "mid": 0, "high": 2}


def off_by_one_at_a_sample(monkeypatch, n, samples=1000):
    """Plant in verify's floor_gamma_array an off-by-one at the first of
    the oracle's seeded samples above 0.4 n, which golden-identity's
    term1, floor(gamma (floor(gamma^2 m) + 1)) for m < n, never reads;
    returns that j."""
    js = np.random.default_rng(5 * n + samples).integers(1, n + 1,
                                                         size=samples)
    j = int(js[js > 0.4 * n][0])
    real = verify.floor_gamma_array
    monkeypatch.setattr(verify, "floor_gamma_array",
                        lambda m: real(m) + (np.asarray(m) == j))
    return j


def test_golden_oracle_disagreement_is_a_failing_result(monkeypatch):
    j = off_by_one_at_a_sample(monkeypatch, 2000)
    res = verify.verify_golden_identity(2000)
    assert not res.ok
    assert res.first_counterexample == (j, floor_gamma(j), floor_gamma(j) + 1)
    assert res.details["oracle_samples"] == 1000
    assert res.details["floor_identity_checked"]


def test_golden_oracle_agrees_on_large_j():
    # the 60-digit oracle must separate j*gamma from an integer far past
    # the default N, up to GAMMA_ARRAY_CAP, where floor_gamma_array's
    # domain ends; picks are seeded by (n, samples)
    assert verify._golden_oracle_check(GAMMA_ARRAY_CAP, 500) is None


@pytest.mark.parametrize("j, step", [(1, 1), (2, -1), (5, 1), (7, -1),
                                     (150, 1), (300, -1)])
def test_beatty_check_fails_on_a_doctored_floor(j, step):
    """One floor(gamma^2 j) off by one moves floor(j phi) and floor(j
    phi^2) together, which leaves some integer covered 0 or 2 times: the
    least such k is reported as (k, 1, count), and the true floors
    pass."""
    n = 300
    fsq = floor_gamma_sq_array(np.arange(n + 2))
    assert verify._first_beatty_miss(fsq, n) is None
    fsq[j] += step
    k, once, count = verify._first_beatty_miss(fsq, n)
    beatty = [i + floor_gamma(i) for i in range(1, n + 1)]
    beatty[j - 1] -= step
    hits = beatty + [b + i for i, b in enumerate(beatty, 1)]
    top = beatty[-1]
    covered = {m: hits.count(m) for m in range(1, top + 1)}
    assert (k, once, count) == min((m, 1, c) for m, c in covered.items()
                                   if c != 1)


def test_quasipoly_needs_room():
    with pytest.raises(ValueError):
        verify.verify_quasi_polynomial(12)


def test_verifier_defaults():
    assert verify.DEFAULT_N == 10**6
    assert verify.DEFAULT_N_TWO_TERM == 10**5


# ---------------------------------------------------------------------------
# traces that stop before n, and the residue-class checks


def _cut(trace, k, died):
    """trace's first k terms: a trace that died at the index after them
    (lookup index -3) or, without died, one that exists only to its last,
    f cut with it."""
    last = trace.start + k - 1
    outcome = (ExistenceOutcome(last, died_at=last + 1, lookup_index=-3)
               if died else ExistenceOutcome(last))
    f = trace.f_values
    return QTrace(trace.q_values[:k], outcome,
                  f if died or f is None else f[:k], trace.fspec, trace.start)


ONE_TERM = ["zeros-linear", "non-slow", "mod", "shift", "quarter",
            "staircase", "golden"]


@pytest.mark.parametrize("died", [True, False], ids=["dying", "short"])
@pytest.mark.parametrize("name", ONE_TERM + ["quasipoly"])
def test_a_trace_that_stops_before_n_fails(monkeypatch, name, died):
    """Every verifier fails, with the death index, where a trace stops
    before n: no broadcast error, and no PASS over fewer terms."""
    n, k = 300, 200
    patched = "compute_two_term" if name == "quasipoly" else "compute_q"
    real = getattr(verify, patched)
    monkeypatch.setattr(verify, patched,
                        lambda spec, n_max: _cut(real(spec, n_max), k, died))
    res = verify.REGISTRY[name](n)
    assert not res.ok
    at = k + 1 if name != "quasipoly" else k + 3  # q(3) is its first term
    assert res.first_counterexample == (at, 0, -3 if died else 0)
    assert str(res).startswith(f"FAIL {name} at n = {at}:")


@pytest.mark.parametrize("name", ONE_TERM)
def test_a_trace_that_stops_later_fails_at_its_own_death(monkeypatch, name):
    # the verifiers with two traces or more: only the last one stops
    real, calls = verify.compute_q, []

    def stopping(spec, n_max):
        calls.append(spec)
        trace = real(spec, n_max)
        return _cut(trace, 250, True) if len(calls) > 1 else trace

    monkeypatch.setattr(verify, "compute_q", stopping)
    res = verify.REGISTRY[name](300)
    if len(calls) > 1:
        assert res.first_counterexample == (251, 0, -3)
    else:
        assert res.ok


@pytest.mark.parametrize("base, shifted, want", [
    (4, 3, 4),  # both rows died: the row's own index, not 4 | 3 = 7
    (0, 3, 3),
    (5, 0, 5),
])
def test_shift_reports_the_rows_own_death(monkeypatch, base, shifted, want):
    real, calls = verify.compute_q_batch, []

    def dying(f_mat):
        q, died = real(f_mat)
        calls.append(f_mat.shape[1])
        if f_mat.shape[1] == 5:  # m = 5, row 2: base, then shifted
            died = died.copy()
            died[2] = base if len(calls) % 2 else shifted
        return q, died

    monkeypatch.setattr(verify, "compute_q_batch", dying)
    res = verify.verify_shift(200, exhaustive_m=6)
    assert not res.ok and res.first_counterexample == (5, 0, want)


def _whole_non_slow(qa, qb, n):
    """The closed forms of non-slow as whole arrays, as checked before the
    residue-class views, and the first mismatch that gives."""
    idx = np.arange(1, n + 1, dtype=np.int64)
    even = (idx % 2 == 0)
    return (first_mismatch(np.where(even, idx - 1, idx), qa)
            or first_mismatch(np.where(even, 2, 1), qb))


def _whole_quasipoly(q, n):
    """quasipoly's closed form as whole arrays, as checked before."""
    k = np.arange(13, n + 1, dtype=np.int64)
    mod = k % 5
    expected = np.select([mod == 0, mod == 1, mod == 2, mod == 3],
                         [2, k - 4, 5, k - 5], default=0) \
        + np.where(mod == 4, k - 6, 0)
    return first_mismatch(expected, q[k - 3], offset=13)


def _corrupting(monkeypatch, patched, edits):
    """verify.<patched> giving its true traces with q(n) += d for each
    (call, n, d) in edits, call counting from 0; the traces it gave."""
    real, given = getattr(verify, patched), []

    def corrupt(spec, n_max):
        trace = real(spec, n_max)
        q = trace.q_values.copy()
        for call, at, d in edits:
            if call == len(given):
                q[at - trace.start] += d
        given.append(QTrace(q, trace.outcome, trace.f_values, trace.fspec,
                            trace.start))
        return given[-1]

    monkeypatch.setattr(verify, patched, corrupt)
    return given


@pytest.mark.parametrize("n", [100, 101])
@pytest.mark.parametrize("edits", [
    [(0, 1, 1)], [(0, 2, 1)], [(0, 51, -7)], [(0, 64, 2)],
    [(0, 99, 1)], [(0, 100, 1)], [(0, 40, 1), (0, 33, 1)],
    [(0, 40, 1), (0, 41, 1)], [(0, 90, 1), (1, 3, 1)],
    [(1, 1, 1)], [(1, 2, -1)], [(1, 77, 1), (1, 60, 3)], [(1, 100, 1)],
], ids=str)
def test_non_slow_classes_find_the_whole_arrays_first_mismatch(
        monkeypatch, n, edits):
    """One term of each residue class corrupted, one class at a time and
    several at once, in either trace: the reported counterexample is the
    one the whole-array comparison gives."""
    edits = [e for e in edits if e[1] <= n]
    given = _corrupting(monkeypatch, "compute_q", edits)
    res = verify.verify_non_slow_closed_forms(n)
    if len(given) == 1:  # the first trace failed: the second is not run
        given.append(compute_q("mod:2", n))
    want = _whole_non_slow(given[0].q_values, given[1].q_values, n)
    assert want is not None and res.first_counterexample == want
    assert not res.ok


@pytest.mark.parametrize("edits", [
    *([(0, k, 1)] for k in range(13, 18)),  # each class alone
    *([(0, k, -2)] for k in range(295, 300)),
    [(0, 300, 1)], [(0, 12, 1)], [(0, 3, 1)],
    [(0, 40, 1), (0, 37, 1)], [(0, 41, 1), (0, 42, 1), (0, 39, 5)],
    [(0, k, 1) for k in range(200, 205)],
], ids=str)
def test_quasipoly_classes_find_the_whole_arrays_first_mismatch(
        monkeypatch, edits):
    given = _corrupting(monkeypatch, "compute_two_term", edits)
    n = 300
    res = verify.verify_quasi_polynomial(n)
    want = _whole_quasipoly(given[0].q_values, n)
    assert res.first_counterexample == want
    assert res.ok == (want is None)
