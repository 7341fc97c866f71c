import numpy as np
import pytest

from hofq import verify
from hofq.engine import compute_q
from hofq.exactfloor import floor_gamma, floor_gamma_sq, staircase_start

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
    res = verify._result("demo", 5, np.array([1, 2, 3]), np.array([1, 9, 3]))
    assert not res.ok
    assert res.first_counterexample == (2, 2, 9)
    assert "FAIL" in str(res) and "n = 2" in str(res)


def test_golden_oracle_disagreement_is_a_failing_result(monkeypatch):
    monkeypatch.setattr(verify, "floor_gamma", lambda j: floor_gamma(j) + 1)
    res = verify.verify_golden_identity(2000)
    assert not res.ok
    j, oracle, got = res.first_counterexample
    assert 1 <= j <= 2000 and (oracle, got) == (floor_gamma(j), oracle + 1)
    assert res.details["oracle_samples"] == 1000


def test_golden_oracle_agrees_on_large_j():
    # the 60-digit oracle must separate j*gamma from an integer far past
    # the default N; picks are seeded by (n, samples)
    assert verify._golden_oracle_check(10**15, 500) is None


def test_quasipoly_needs_room():
    with pytest.raises(ValueError):
        verify.verify_quasi_polynomial(12)


def test_verifier_defaults():
    assert verify.DEFAULT_N == 10**6
    assert verify.DEFAULT_N_TWO_TERM == 10**5
