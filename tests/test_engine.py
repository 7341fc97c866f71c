import copy
import dataclasses
import pickle

import numpy as np
import pytest

from hofq import engine, kernels
from hofq.engine import (
    compute_c,
    compute_f_from_q,
    compute_q,
    compute_q_batch,
    compute_two_term,
    hofstadter_spec,
    quasipolynomial_spec,
    tanny_spec,
    v_variant_spec,
    TwoTermSpec,
)
from hofq.errors import InvalidFSpec, InvalidQ
from hofq.fspec import (
    DiffBits,
    FSpec,
    ModM,
    Prefix,
    Zeros,
    enumerate_slow_prefixes,
)

from oracle import oracle_inverse_f, oracle_q, oracle_two_term


def test_all_zero_driver_gives_constant_trace():
    t = compute_q(Zeros(), 10)
    assert list(t.q_values) == [1] * 10
    assert t.exists and t.outcome.checked_to == 10


def test_one_dip_driver_prefix():
    t = compute_q("one-minus-delta:1", 16)
    assert list(t.q_values) == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6]


def test_death_on_jump_by_two():
    t = compute_q([0, 2, 2], 3)
    assert not t.exists
    assert t.outcome.died_at == 3 and t.outcome.lookup_index == 0
    assert list(t.q_values) == [1, 3]
    # the reported lookup is n - q(n-1) and is outside [1, n-1]
    k = t.outcome.died_at - t.q(t.outcome.died_at - 1)
    assert k == t.outcome.lookup_index and not (1 <= k <= t.outcome.died_at - 1)


def test_alternating_driver_prefix():
    t = compute_q(ModM(2), 8)
    assert list(t.q_values) == [1, 2, 1, 2, 1, 2, 1, 2]


def test_f1_must_be_zero():
    with pytest.raises(InvalidFSpec):
        compute_q([1, 1, 1], 3)
    with pytest.raises(InvalidFSpec):
        compute_q("one-minus-delta:3", 5)


def test_prefix_too_short():
    with pytest.raises(InvalidFSpec):
        compute_q([0, 1], 5)


def test_overflow_is_loud():
    with pytest.raises(OverflowError):
        compute_q([0, 2**63 - 1], 2)
    with pytest.raises(OverflowError):
        compute_q([0, 2**70], 2)  # f itself does not fit


def test_n_max_validation():
    with pytest.raises(ValueError):
        compute_q(Zeros(), 0)
    with pytest.raises(ValueError):
        compute_q(Zeros(), engine.INDEX_CAP + 1)


def test_trace_is_immutable_and_deterministic():
    a = compute_q("floor:1/2", 500)
    b = compute_q("floor:1/2", 500)
    assert a.q_values.tobytes() == b.q_values.tobytes()
    assert a.f_values.tobytes() == b.f_values.tobytes()
    with pytest.raises(ValueError):
        a.q_values[0] = 7


def test_trace_accessors():
    t = compute_q("floor:1/2", 10)
    assert t.q(1) == 1 and t.f(4) == 2 and t.n_max == 10
    with pytest.raises(IndexError):
        t.q(11)
    with pytest.raises(IndexError):
        t.f(0)


def test_engine_matches_oracle_on_random_drivers():
    rng = np.random.default_rng(42)
    for trial in range(200):
        m = int(rng.integers(1, 40))
        if trial % 2:
            f = [0] + [int(v) for v in rng.integers(-3, 4, size=m - 1)]
        else:  # slow driver
            f = [0]
            for _ in range(m - 1):
                f.append(f[-1] + int(rng.integers(0, 2)))
        t = compute_q(f, m)
        q_ref, died, lookup = oracle_q(f)
        assert list(t.q_values) == q_ref
        assert t.outcome.died_at == died
        assert t.outcome.lookup_index == lookup


def test_inverse_examples():
    assert list(compute_f_from_q([1, 1, 1, 1])) == [0, 0, 0, 0]
    assert list(compute_f_from_q([1, 2, 2, 3, 3, 3, 4])) == [0, 1, 1, 1, 1, 1, 1]


def test_inverse_validation():
    with pytest.raises(InvalidQ):
        compute_f_from_q([2, 2])
    with pytest.raises(InvalidQ):
        compute_f_from_q([1, 3])
    with pytest.raises(InvalidQ):
        compute_f_from_q([1, 0])
    with pytest.raises(InvalidQ):
        compute_f_from_q([])


def test_inverse_round_trip_exhaustive():
    for m in range(1, 13):
        for f in enumerate_slow_prefixes(m):
            t = compute_q(f, m)
            assert t.exists
            back = compute_f_from_q(t.q_values)
            assert tuple(back) == f
            assert list(back) == oracle_inverse_f(list(t.q_values))


def test_inverse_of_slow_trace_has_small_steps():
    # monotone slow q with q(1)=1 inverts to f with steps in {-1, 0, 1}
    rng = np.random.default_rng(11)
    for m in range(2, 15):
        for _ in range(40):
            q = [1]
            for _ in range(m - 1):
                q.append(q[-1] + int(rng.integers(0, 2)))
            f = compute_f_from_q(q)
            assert set(np.diff(f)) <= {-1, 0, 1}
    # exhaustively over all slow q of length <= 14 via difference bitstrings
    for m in (10, 14):
        for mask in range(1 << (m - 1)):
            q = [1]
            for i in range(m - 1):
                q.append(q[-1] + ((mask >> i) & 1))
            f = compute_f_from_q(q)
            d = np.diff(f)
            assert ((d >= -1) & (d <= 1)).all()


def test_distinct_drivers_give_distinct_traces():
    for m in range(2, 11):
        seen = {}
        for f in enumerate_slow_prefixes(m):
            key = tuple(compute_q(f, m).q_values)
            assert key not in seen, (f, seen[key])
            seen[key] = f


def test_two_term_initial_and_prefix():
    t = compute_two_term(hofstadter_spec(), 10)
    assert list(t.q_values) == [1, 1, 2, 3, 3, 4, 5, 5, 6, 6]
    assert t.q(1) == 1 and t.q(2) == 1


def test_two_term_matches_oracle():
    for spec, n in [(hofstadter_spec(), 300), (tanny_spec(), 300),
                    (v_variant_spec(), 300), (quasipolynomial_spec(), 300)]:
        t = compute_two_term(spec, n)
        vals, died, _ = oracle_two_term(spec.offsets, spec.initial_values,
                                        spec.start, spec.outer_shift, n)
        assert died is None and t.exists
        assert list(t.q_values) == [vals[i] for i in range(spec.start, n + 1)]


def test_two_term_death_detection():
    # huge initial value forces an out-of-range lookup immediately
    spec = TwoTermSpec((1, 2), (1, 50), start=1, outer_shift=0)
    t = compute_two_term(spec, 10)
    assert not t.exists and t.outcome.died_at == 3
    assert t.outcome.lookup_index == 3 - 50
    assert list(t.q_values) == [1, 50]


def test_two_term_validation():
    with pytest.raises(ValueError):
        TwoTermSpec((1, 2), (1,))  # too few initial values
    with pytest.raises(ValueError):
        TwoTermSpec((0, 2), (1, 1))
    with pytest.raises(ValueError):
        compute_two_term(hofstadter_spec(), 1)


def test_tanny_is_monotone_and_hits_every_integer():
    t = compute_two_term(tanny_spec(), 10**4)
    d = np.diff(t.q_values)
    assert ((d == 0) | (d == 1)).all()
    assert t.q_values[0] == 1
    assert set(np.unique(t.q_values)) == set(range(1, int(t.q_values.max()) + 1))


def test_v_variant_is_monotone_and_hits_every_integer():
    t = compute_two_term(v_variant_spec(), 10**4)
    d = np.diff(t.q_values)
    assert ((d == 0) | (d == 1)).all()


def test_quasipolynomial_small_values():
    t = compute_two_term(quasipolynomial_spec(), 20)
    assert t.start == 3
    assert t.q(13) == 8   # 13 mod 5 = 3 -> n - 5
    assert t.q(15) == 2   # 15 mod 5 = 0 -> 2
    assert t.q(16) == 12  # 16 mod 5 = 1 -> n - 4


def test_conclusion_sequence_prefix():
    c = compute_c(15)
    assert list(c) == [1, 2, 2, 2, 3, 3, 3, 3, 3, 4, 5, 4, 5]
    d = np.diff(c[:11 + 2])
    assert ((d < 0) | (d > 1)).any()  # a step outside {0, 1} by n = 13
    q_h = compute_two_term(hofstadter_spec(), 15)
    assert c.max() <= q_h.q_values.max()


@pytest.fixture
def engine_backend(kernel_backend, monkeypatch):
    """compute_q and compute_two_term on each kernel backend."""
    for name in ("one_term_trace", "two_term_trace"):
        monkeypatch.setattr(kernels, name, getattr(kernel_backend, name))
    return kernel_backend


@pytest.mark.parametrize("poison", [2**62, -1, 1])
def test_two_term_reads_no_term_before_it_is_written(engine_backend,
                                                     monkeypatch, poison):
    """compute_two_term writes only the initial values of its np.empty
    array: a trace whose unwritten terms hold any value is the oracle's,
    dead ones too, on both backends."""
    empty = np.empty

    def poisoned(*args, **kw):
        a = empty(*args, **kw)
        a.fill(poison)
        return a

    cases = [(hofstadter_spec(), 300), (tanny_spec(), 300),
             (v_variant_spec(), 300), (quasipolynomial_spec(), 300),
             (TwoTermSpec((1, 2), (1, 50), start=1, outer_shift=0), 10),
             (TwoTermSpec((1, 3), (1, 1, 3), start=1, outer_shift=0), 40)]
    monkeypatch.setattr(np, "empty", poisoned)
    for spec, n in cases:
        t = compute_two_term(spec, n)
        vals, died, _ = oracle_two_term(spec.offsets, spec.initial_values,
                                        spec.start, spec.outer_shift, n)
        assert t.outcome.died_at == died, spec
        last = n if died is None else died - 1
        assert list(t.q_values) == [vals[i] for i in
                                    range(spec.start, last + 1)], spec


def test_two_term_overflow_is_loud(engine_backend):
    # q(5) = q(5 - q(4)) + q(5 - q(3)) = q(1) + q(1) = 2**63
    with pytest.raises(OverflowError) as err:
        compute_two_term(TwoTermSpec((1, 2), (2**62, 1, 4, 4)), 5)
    assert str(err.value) == "q(5) exceeds the 64-bit range"


def test_hofstadter_is_its_own_diluted_form(engine_backend):
    """The paper's diluted form of Hofstadter's Q: driven by f(n) =
    c(n) = Q(n - Q(n-2)) from n = 3 on, and f(1) = f(2) = 0, the one-term
    recurrence is Q's own, term for term.  compute_c reads c from the
    two-term trace by its own index arithmetic, so this checks the
    one-term trace against the two-term one."""
    n = 10**5
    f = np.concatenate([[0, 0], compute_c(n)])
    diluted = compute_q(f, n)
    hofstadter = compute_two_term(hofstadter_spec(), n)
    assert diluted.exists and hofstadter.exists
    assert np.array_equal(diluted.q_values, hofstadter.q_values)


def test_v_is_the_trace_of_its_slow_inverse(engine_backend):
    """V's driver f(n) = V(n) - V(n - V(n-1)), which is V(n - V(n-4)), is
    slow: f(1) = 0 and every step in {0, 1}; its one-term trace is V."""
    n = 10**5
    v = compute_two_term(v_variant_spec(), n)
    assert v.exists
    f = compute_f_from_q(v.q_values)
    assert f[0] == 0 and set(np.diff(f).tolist()) == {0, 1}
    again = compute_q(f, n)
    assert again.exists and np.array_equal(again.q_values, v.q_values)


def test_batch_matches_scalar_engine():
    rng = np.random.default_rng(9)
    m = 24
    batch = rng.integers(-2, 4, size=(300, m))
    batch[:, 0] = 0
    slow = np.cumsum(rng.integers(0, 2, size=(300, m)), axis=1)
    slow[:, 0] = 0
    for mat in (batch, np.asarray(list(enumerate_slow_prefixes(10))), slow):
        q_mat, died = compute_q_batch(mat)
        for row in range(len(mat)):
            q_ref, died_ref, _ = oracle_q([int(v) for v in mat[row]])
            assert q_mat[row, :len(q_ref)].tolist() == q_ref
            assert died[row] == (died_ref or 0)
            t = compute_q([int(v) for v in mat[row]], mat.shape[1])
            if t.exists:
                assert died[row] == 0
                assert (q_mat[row] == t.q_values).all()
            else:
                assert died[row] == t.outcome.died_at
                upto = t.outcome.died_at - 1
                assert (q_mat[row, :upto] == t.q_values).all()


@pytest.fixture
def batch_backend(kernel_backend, monkeypatch):
    """compute_q_batch on each kernel backend."""
    monkeypatch.setattr(kernels, "one_term_rows", kernel_backend.one_term_rows)
    return kernel_backend


def test_batch_overflow_is_loud(batch_backend):
    with pytest.raises(OverflowError, match=r"row 0: q\(2\) exceeds"):
        compute_q_batch([[0, 2**63 - 1]])
    mat = np.zeros((4, 5), dtype=np.int64)
    mat[2, 1:] = [1, 1, 1, 2**63 - 1]  # q(5) = q(2) + f(5) = 2 + f(5)
    mat[3, 1] = 2**63 - 1
    with pytest.raises(OverflowError, match=r"row 2: q\(5\) exceeds"):
        compute_q_batch(mat)


def test_batch_dying_row_keeps_zeros(batch_backend):
    q_mat, died = compute_q_batch([[0, 2, 2, 2, 2], [0, 1, 1, 1, 1],
                                   [0, 0, 1, 5, 0]])
    assert died.tolist() == [3, 0, 5]
    assert q_mat.tolist() == [[1, 3, 0, 0, 0], [1, 2, 2, 3, 3],
                              [1, 1, 2, 6, 0]]


def test_batch_shapes(batch_backend):
    for shape in ((0, 6), (4, 0), (0, 0)):
        q_mat, died = compute_q_batch(np.zeros(shape, dtype=np.int64))
        assert q_mat.shape == shape and q_mat.dtype == np.int64
        assert died.tolist() == [0] * shape[0] and died.dtype == np.int64
    with pytest.raises(ValueError, match="need a 2-D batch"):
        compute_q_batch([0, 1, 1])


def test_existence_outcome_str():
    assert str(engine.ExistenceOutcome(10)) == "exists up to 10"
    assert "died at 3" in str(engine.ExistenceOutcome(2, died_at=3, lookup_index=0))


def test_long_driver_via_diffbits():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=9999, dtype=np.uint8).tobytes()
    t = compute_q(DiffBits(bits), 10**4)
    assert t.exists
    n = np.arange(1, 10**4 + 1)
    assert (t.q_values >= 1).all() and (t.q_values <= n).all()


class _Returns(FSpec):
    """A caller's spec whose values() hands back a given array as is."""

    def __init__(self, arr):
        self.arr = arr

    def values(self, n_max):
        return self.arr

    def spec_str(self):
        return "returns"


@pytest.fixture
def trace_backend(kernel_backend, monkeypatch):
    """compute_q on each kernel backend."""
    monkeypatch.setattr(kernels, "one_term_trace", kernel_backend.one_term_trace)
    return kernel_backend


def test_compute_q_checks_the_array_a_spec_returns(c_kernels, monkeypatch):
    # the C wrapper's checks, which the pure kernel and compute_q share
    f = np.array([0, 1, 1, 2, 2, 2, 3, 3], dtype=np.int64)
    for backend in (kernels.PURE, c_kernels):
        monkeypatch.setattr(kernels, "one_term_trace", backend.one_term_trace)
        for bad in (f.astype(np.int32), f.astype(np.float64),
                    np.repeat(f, 2)[::2], f.reshape(-1, 1),
                    np.stack([f, f], axis=1), f.tolist()):
            with pytest.raises(ValueError) as err:
                compute_q(_Returns(bad), len(f))
            assert str(err.value) == "f must be a 1-D C-contiguous int64 array"
        # a q sized by n_max would trace q(n) = 0 past a short f
        for bad in (f[:5], np.append(f, 4)):
            with pytest.raises(ValueError) as err:
                compute_q(_Returns(bad), len(f))
            assert str(err.value) == (f"'returns' gave {len(bad)} terms"
                                      " for n_max = 8")


def test_read_only_f_traces_as_a_writeable_one(trace_backend):
    f = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3], dtype=np.int64)
    frozen = f.copy()
    frozen.setflags(write=False)
    want = compute_q(f.tolist(), len(f))
    got = compute_q(_Returns(frozen), len(f))
    assert got.q_values.tolist() == want.q_values.tolist()
    assert got.f_values is frozen and got.outcome == want.outcome


def test_traces_stay_frozen_and_read_only(trace_backend):
    for t in (compute_q([0, 1, 1, 2, 2], 5), compute_q([0, 2, 2], 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.outcome = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.outcome.checked_to = 0
        assert not t.q_values.flags.writeable
        assert not t.f_values.flags.writeable
        for copied in (pickle.loads(pickle.dumps(t)), copy.copy(t),
                       copy.deepcopy(t)):
            assert copied.outcome == t.outcome and copied.start == t.start
            assert copied.fspec == t.fspec
            assert copied.q_values.tolist() == t.q_values.tolist()
            assert copied.f_values.tolist() == t.f_values.tolist()


def test_prefix_and_trace_have_slots_only():
    """Prefix and QTrace keep their fields in slots, with no __dict__; every
    field of a QTrace refuses assignment; copies, pickles and
    dataclasses.replace give equal objects."""
    spec = Prefix((0, 0, 1, 1))
    traces = (compute_q(spec, 4), compute_q((0, 2), 2))  # the second dies
    for obj in (spec, *traces):
        assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.prefix = (0,)
    for copied in (copy.copy(spec), copy.deepcopy(spec),
                   pickle.loads(pickle.dumps(spec)), dataclasses.replace(spec)):
        assert copied == spec and hash(copied) == hash(spec)
        assert type(copied) is Prefix and not hasattr(copied, "__dict__")
    assert dataclasses.replace(spec, prefix=[0, 1]) == Prefix((0, 1))
    for t in traces:
        for field in dataclasses.fields(engine.QTrace):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, field.name, getattr(t, field.name))
        assert not (t.q_values.flags.writeable or t.f_values.flags.writeable)
        copied = dataclasses.replace(t)
        assert copied.q_values is t.q_values and copied.f_values is t.f_values
        assert (copied.outcome, copied.fspec, copied.start) == (
            t.outcome, t.fspec, t.start)
    moved = dataclasses.replace(traces[0], start=3)
    assert moved.start == 3 and moved.n_max == 6
    assert repr(traces[0]) == (
        "QTrace(q_values=array([1, 1, 2, 2]), outcome=ExistenceOutcome("
        "checked_to=4, died_at=None, lookup_index=None), f_values=array("
        "[0, 0, 1, 1]), fspec=Prefix(prefix=(0, 0, 1, 1)), start=1)")
    # the defaults, as a two-term trace takes them; a new array is frozen
    q = np.array([1, 1])
    two = engine.QTrace(q, engine.ExistenceOutcome(2), start=0)
    assert (two.f_values, two.fspec, two.start) == (None, None, 0)
    assert two.q_values is q and not q.flags.writeable


def test_traces_that_exist_share_an_equal_outcome(trace_backend):
    a, b = compute_q("zeros", 7), compute_q([0] * 7, 7)
    assert a.outcome == engine.ExistenceOutcome(7) == b.outcome
    assert type(a.outcome.checked_to) is int
    assert compute_q("zeros", 8).outcome == engine.ExistenceOutcome(8)


def test_compute_q_makes_one_values_and_one_kernel_call(monkeypatch):
    # the layers a tracer wraps: Prefix.values through the class and
    # kernels.one_term_trace through the module
    calls = []
    values, kernel = Prefix.values, kernels.one_term_trace

    def counted_values(self, n_max):
        calls.append(("values", n_max, values(self, n_max)))
        return calls[-1][2]

    def counted_kernel(f, q):
        calls.append(("kernel", (f, q), kernel(f, q)))
        return calls[-1][2]

    monkeypatch.setattr(Prefix, "values", counted_values)
    monkeypatch.setattr(kernels, "one_term_trace", counted_kernel)
    for prefix in [*enumerate_slow_prefixes(6), (0, 2, 2, 2, 2, 2)]:
        calls.clear()
        t = compute_q(prefix, 6)
        (_, n_max, f), (_, args, result) = calls
        assert [c[0] for c in calls] == ["values", "kernel"] and n_max == 6
        assert args[0] is f is t.f_values and len(args[1]) == 6
        assert type(result) is tuple and len(result) == 2
        assert (result == (kernels.OK, 0)) == t.exists
        if t.exists:
            assert args[1] is t.q_values
