import copy
import inspect
import math
import pickle
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import oracle_f, oracle_q

from hofq import cli, fspec, kernels
from hofq.engine import compute_q
from hofq.errors import CapExceeded, InvalidFSpec
from hofq.exactfloor import GAMMA_ARRAY_CAP, INT64_MAX, INT64_MIN
from hofq.fspec import (
    ConstLimit,
    DiffBits,
    FloorRatio,
    FracPowerSum,
    FSpec,
    GammaSq,
    Linear,
    ModM,
    OneMinusDelta,
    Perturbed,
    Prefix,
    Shifted,
    Zeros,
    as_fspec,
    brief_spec,
    enumerate_slow_prefixes,
    floor_alpha_interval,
    parse_fspec,
    shift_f,
    slow_prefix_matrix,
)

ROUND_TRIP = [
    "zeros",
    "linear",
    "floor:1/2",
    "floor:1/4:shift=2",
    "floor:1/2:shift=-1:scale=2",
    "gamma2",
    "one-minus-delta:1",
    "mod:5",
    "prefix:0,2,2",
    "bits:0110",
    "shift:3:(floor:1/2)",
    "shift:2:(perturb:16:+1:(floor:1/2))",
    "perturb:16:+1:(floor:1/2)",
    "perturb:9:-2:(zeros)",
    "const-limit:sqrt:a=5",
    "const-limit:exp:a=4,b=1/8",
    "const-limit:pow:a=4,b=1/2",
    "const-limit:clamp:alpha=1/2,n0=100",
    "fracpow:3/4*n^1/2+3/32*n^1/4+5/128",
    "fracpow:1/2*n^1/2-1/8*n^1/4",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_grammar_round_trip(text):
    spec = parse_fspec(text)
    printed = spec.spec_str()
    again = parse_fspec(printed)
    assert again == spec
    assert again.spec_str() == printed


def test_parse_decimal_alpha_is_approximate():
    spec = parse_fspec("floor:0.25")
    assert (spec.num, spec.den) == (1, 4)


@pytest.mark.parametrize("bad", [
    "nope", "floor:", "floor:1/0", "bits:012", "mod:x", "prefix:",
    "shift:1:floor:1/2", "const-limit:wavy:a=1", "fracpow:", "fracpow:++",
    "fracpow:n^3/2",  # exponent outside [0, 1)
])
def test_parse_errors(bad):
    with pytest.raises(InvalidFSpec):
        parse_fspec(bad)


@pytest.mark.parametrize("text, message", [
    ("zeros:junk", "zeros: takes no parameters, got 'junk'"),
    ("linear:5", "linear: takes no parameters, got '5'"),
    ("gamma2:x", "gamma2: takes no parameters, got 'x'"),
    ("zeros:", "zeros: takes no parameters, got ''"),
    ("const-limit:exp:a=5,b=1/1000,zz=3",
     "const-limit exp: unknown key 'zz'"),
    ("const-limit:sqrt:a=5,b=7", "const-limit sqrt: unknown key 'b'"),
    ("const-limit:clamp:alpha=1/2,n0=9,a=5",
     "const-limit clamp: unknown key 'a'"),
    ("floor:1/2:shift=1:shift=2", "floor: repeated option 'shift=2'"),
    ("floor:1/2:scale=1:shift=0:scale=1", "floor: repeated option 'scale=1'"),
    ("const-limit:exp:a=5,a=6,b=1/1000", "const-limit: repeated key 'a'"),
    ("floor:1/2:foo=1", "floor: unknown option 'foo=1'"),
    ("shift::3:(zeros)", "shift: expected shift:K:(SPEC)"),
    ("perturb:2::+1:(zeros)", "perturb: expected perturb:N1:+A:(SPEC)"),
])
def test_text_the_grammar_does_not_read_is_refused(text, message):
    """A spec is refused, not read in part, where it has text that its
    family does not read: a parameter of a bare family, a key of no
    const-limit form, a key or floor option given twice, or an empty
    field of shift: or perturb:."""
    with pytest.raises(InvalidFSpec) as refused:
        parse_fspec(text)
    assert str(refused.value) == message


def test_eval_examples():
    assert FloorRatio(1, 2).value(7) == 3
    assert [GammaSq().value(n) for n in range(1, 6)] == [0, 0, 1, 1, 1]
    assert [OneMinusDelta(1).value(n) for n in (1, 2, 3)] == [0, 1, 1]
    assert [ModM(3).value(n) for n in range(1, 7)] == [0, 1, 2, 0, 1, 2]
    assert [Linear().value(n) for n in (1, 2, 5)] == [0, 1, 4]
    with pytest.raises(ValueError):
        Zeros().value(0)


def test_gamma2_past_the_array_cap_is_exact():
    """Past GAMMA_ARRAY_CAP, where 5 n^2 leaves int64 and so the domain
    of the kernel's floors, a span goes term by term through the scalar
    floor."""
    spec, cap = GammaSq(), GAMMA_ARRAY_CAP
    got = spec._span(cap - 2, cap + 3)
    assert got.dtype == np.int64
    assert got.tolist() == [oracle_f(spec, n) for n in range(cap - 2, cap + 3)]


def test_fracpow_prints_a_unit_coefficient_bare():
    spec = parse_fspec("fracpow:1*n^1/2-1")
    assert spec.spec_str() == "fracpow:n^1/2-1"
    assert parse_fspec(spec.spec_str()) == spec


def test_values_match_scalar_eval():
    specs = [parse_fspec(t) for t in ROUND_TRIP]
    for spec in specs:
        cap = spec.max_len()
        n = min(cap or 50, 50)
        arr = spec.values(n)
        want = [oracle_f(spec, k) for k in range(1, n + 1)]
        assert arr.dtype == np.int64
        assert arr.tolist() == want
        assert [spec.value(k) for k in range(1, n + 1)] == want


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_value_below_one_is_refused(text):
    spec = parse_fspec(text)
    for n in (0, -1, -(2**70)):
        with pytest.raises(ValueError, match="n must be >= 1"):
            spec.value(n)


def test_value_past_int64_is_exact():
    clamp = ConstLimit("clamp", alpha=Fraction(1, 2), n0=2**70)
    assert Linear().value(2**64) == 2**64 - 1
    assert FloorRatio(1, 2).value(2**70) == 2**69
    assert Prefix((0, 2**70)).value(2) == 2**70
    assert ModM(7).value(2**65) == 3
    assert Shifted(3, Linear()).value(2**64) == 2**64 - 4
    assert clamp.value(2**66) == 2**65
    # under shift/perturb, a const-limit or fracpow term is its value()
    big = FracPowerSum(((Fraction(10**20), Fraction(1, 2)),))
    assert Perturbed(big, 1, 0).value(4) == 2 * 10**20
    for spec in (Linear(), FloorRatio(1, 2), Prefix((0, 2**70)), ModM(7),
                 Shifted(3, Linear()), clamp, Shifted(2, big),
                 Perturbed(ConstLimit("sqrt", a=5), 3, 1)):
        for n in (2, 2**63, 2**64, 2**65, 2**66, 2**70):
            n = min(n, spec.max_len() or n)
            got = spec.value(n)
            assert type(got) is int and got == oracle_f(spec, n)


def test_mod_past_int64_is_the_identity_below_the_modulus():
    # f(n) = n - 1 while n <= m, which fits int64 although m does not
    assert ModM(2**63).values(5).tolist() == Linear().values(5).tolist()
    assert ModM(2**63).values(5).dtype == np.int64
    assert ModM(2**64).value(2**65) == 2**64 - 1
    assert ModM(2**64).value(2**64) == 2**64 - 1
    assert ModM(2**64).value(2**64 + 1) == 0
    assert ModM(7).value(2**65) == 3


def test_each_family_defines_f_once():
    # f is written once per family, in _span: value() and values() follow
    # in FSpec, and only the two certificates keep a scalar value()
    families, todo = [], [FSpec]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        families.append(cls)
    families = [c for c in families if c.__module__ == fspec.__name__]
    concrete = [c for c in families if c is not FSpec]
    assert len(concrete) == 12
    assert all("_span" in vars(c) for c in concrete)
    assert [c for c in families if "values" in vars(c)] == [FSpec]
    assert {c for c in families if "value" in vars(c)} == {
        FSpec, ConstLimit, FracPowerSum}


def test_even_staircase_spec():
    # 2*floor((n-1)/2) = (0, 0, 2, 2, 4, 4, ...)
    spec = FloorRatio(1, 2, shift=-1, scale=2)
    assert list(spec.values(8)) == [0, 0, 2, 2, 4, 4, 6, 6]


@pytest.mark.parametrize("bad", ["012", "0a", "0\x01", "01 ", "é",
                                 b"\x00\x02", [0, 1, 2],
                                 # the bytes next to '0' and '1'
                                 "\x00", "/", ":"])
def test_diffbits_rejects_non_bits(bad):
    with pytest.raises(InvalidFSpec, match="differences must be 0 or 1"):
        DiffBits(bad)


def test_diffbits_takes_no_bits():
    for spec in (DiffBits(""), DiffBits(b""), DiffBits(bytearray()),
                 DiffBits([]), parse_fspec("bits:")):
        assert spec.bits == b""
        assert spec.values(1).tolist() == [0]
        assert spec.spec_str() == "bits:"


@pytest.mark.parametrize("given", [b"\x00\x01\x01\x00",
                                   bytearray(b"\x00\x01\x01\x00"),
                                   [0, 1, 1, 0], (0, 1, 1, 0),
                                   np.array([0, 1, 1, 0])])
def test_diffbits_takes_bits_as_values(given):
    spec = DiffBits(given)
    assert spec == DiffBits("0110")
    assert type(spec.bits) is bytes and spec.bits == b"\x00\x01\x01\x00"
    assert spec.values(5).tolist() == [0, 0, 1, 2, 2]
    assert spec.spec_str() == "bits:0110"


def test_diffbits_spec_str_round_trips_a_long_string():
    digits = (np.random.default_rng(8).integers(0, 2, 25_001, np.uint8)
              + ord("0")).tobytes().decode()
    spec = parse_fspec("bits:" + digits)
    assert spec.spec_str() == "bits:" + digits
    assert parse_fspec(spec.spec_str()) == spec
    assert spec.bits == bytes(int(c) for c in digits)


def test_prefix_and_bits_length_limits():
    with pytest.raises(InvalidFSpec):
        Prefix((0, 1, 1)).values(4)
    with pytest.raises(InvalidFSpec):
        DiffBits("01").values(4)
    assert list(DiffBits("01").values(3)) == [0, 0, 1]


def test_diffbits_round_trip_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        bits = rng.integers(0, 2, size=40, dtype=np.uint8)
        seq = DiffBits(bits.tobytes()).values(41)
        assert (np.diff(seq) == bits).all()
        assert seq[0] == 0


def test_shift_operation():
    assert shift_f(Zeros(), 5) == Zeros()
    assert list(shift_f(Linear(), 1).values(4)) == [0, 0, 1, 2]
    nested = shift_f(shift_f(ModM(3), 2), 1)
    assert isinstance(nested, Shifted) and nested.k == 3
    with pytest.raises(ValueError):
        shift_f(Linear(), 0)


def test_enumeration_counts_and_members():
    assert list(enumerate_slow_prefixes(1)) == [(0,)]
    f4 = list(enumerate_slow_prefixes(4))
    assert len(f4) == 8
    with_final_1 = [f for f in f4 if f[3] == 1]
    assert with_final_1 == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]
    assert len(list(enumerate_slow_prefixes(8))) == 128
    # lexicographic difference-bitstring order
    diffs = ["".join(str(b - a) for a, b in zip(f, f[1:])) for f in f4]
    assert diffs == sorted(diffs)
    with pytest.raises(CapExceeded):
        next(enumerate_slow_prefixes(25))


def test_slow_prefix_matrix_matches_enumeration():
    for m in (1, 2, 5, 9):
        mat = slow_prefix_matrix(m, 0, 1 << (m - 1))
        assert [tuple(int(v) for v in row) for row in mat] == \
            list(enumerate_slow_prefixes(m))
    part = slow_prefix_matrix(6, 10, 20)
    full = slow_prefix_matrix(6, 0, 32)
    assert (part == full[10:20]).all()


def test_enumeration_blocks_join_seamlessly(monkeypatch):
    # blocks of 3 rows: 32 rows of length 6 cross 10 block seams
    monkeypatch.setattr(fspec, "_ENUM_BLOCK", 3)
    rows = list(enumerate_slow_prefixes(6))
    assert rows == [tuple(r) for r in slow_prefix_matrix(6, 0, 32).tolist()]
    assert all(type(v) is int for row in rows for v in row)


@pytest.mark.parametrize("m", [*range(1, 13), 18])
def test_enumeration_yields_tuples_of_exact_ints(m):
    # m = 18 is 2^17 rows, two blocks of _ENUM_BLOCK
    rows = list(enumerate_slow_prefixes(m))
    assert rows == list(map(tuple, slow_prefix_matrix(m, 0, 2**(m - 1))
                            .tolist()))
    assert all(type(row) is tuple and len(row) == m for row in rows)
    assert all(type(v) is int for row in rows for v in row)


def test_floor_ratio_slow_whenever_num_le_den():
    n = np.arange(1, 10**4 + 1, dtype=np.int64)
    for den in range(1, 51):
        for num in range(0, den + 1):
            vals = (num * n) // den
            d = np.diff(vals)
            assert ((d == 0) | (d == 1)).all(), (num, den)
            # zero start needs num < den; num == den gives f(1) = 1
            assert (FloorRatio(num, den).values(1)[0] == 0) == (num < den)


def test_alpha_interval_witness():
    # (0,0,1,2) is reachable by difference bits but by no floor(alpha*n)
    assert list(DiffBits("011").values(4)) == [0, 0, 1, 2]
    assert floor_alpha_interval((0, 0, 1, 2)) is None
    lo, hi = floor_alpha_interval((0, 0, 1))
    assert lo == Fraction(1, 3) and hi == Fraction(1, 2)
    lo, hi = floor_alpha_interval((0, 1, 1))
    assert Fraction(1, 2) <= lo < hi


def test_slow_family_claims_hold_on_long_prefixes():
    claimed = [
        Zeros(), Linear(), FloorRatio(1, 2), FloorRatio(1, 4, shift=2),
        GammaSq(), OneMinusDelta(1), DiffBits(bytes([0, 1] * 5000)),
        ConstLimit("sqrt", a=5), ConstLimit("clamp", alpha=Fraction(1, 2), n0=99),
        FracPowerSum(((Fraction(3, 4), Fraction(1, 2)),
                      (Fraction(3, 32), Fraction(1, 4)),
                      (Fraction(5, 128), Fraction(0)))),
    ]
    for spec in claimed:
        n = min(spec.max_len() or 10**5, 10**5)
        vals = spec.values(n)
        d = np.diff(vals)
        assert vals[0] == 0 and ((d == 0) | (d == 1)).all(), spec.spec_str()


def test_const_limit_rejects_non_slow_parameters():
    with pytest.raises(InvalidFSpec):
        ConstLimit("exp", a=10, b=Fraction(5)).values(10)  # f(1) = 9
    with pytest.raises(InvalidFSpec):
        ConstLimit("sqrt", a=0)
    with pytest.raises(InvalidFSpec):
        ConstLimit("clamp", alpha=Fraction(3, 2), n0=5)


@pytest.mark.parametrize("spec, text", [
    (ConstLimit("sqrt", a=2**52 + 1),
     "difference f(2) - f(1) = 1319073791107610 is outside {0, 1}"),
    (ConstLimit("pow", a=2**52, b=Fraction(1, 64)),
     "difference f(2) - f(1) = 48512715765651 is outside {0, 1}"),
    (ConstLimit("exp", a=10, b=Fraction(5)), "f(1) = 9, not 0"),
    (FracPowerSum(((Fraction(5), Fraction(1, 2)), (Fraction(-5), Fraction(0)))),
     "difference f(2) - f(1) = 2 is outside {0, 1}"),
])
def test_non_slow_parameters_are_refused_before_materialising(
        monkeypatch, spec, text):
    # f(1) and f(2) come from value(); the n_max terms are never built
    asked = _spy_on_span(monkeypatch, type(spec))
    with pytest.raises(InvalidFSpec) as err:
        spec.values(200_000)
    assert str(err.value) == f"{spec.spec_str()!r}: {text}"
    assert all(hi <= 3 for lo, hi in asked)


@pytest.mark.parametrize("spec", [
    ConstLimit("pow", a=2**70, b=Fraction(1, 2)),
    ConstLimit("exp", a=2**70, b=Fraction(1, 8)),
    FracPowerSum(((Fraction(2**70), Fraction(1, 2)),
                  (Fraction(-2**70), Fraction(0)))),
])
@pytest.mark.parametrize("outer", [lambda s: s, lambda s: Shifted(2, s)],
                         ids=["bare", "shifted"])
def test_head_past_int64_is_refused_before_materialising(monkeypatch, spec,
                                                         outer):
    # f(1) = 0 but f(2) leaves int64: values() refuses after value(1) and
    # value(2), not after computing every term
    calls = []
    value = type(spec).value
    monkeypatch.setattr(type(spec), "value",
                        lambda self, n: calls.append(n) or value(self, n))
    with pytest.raises(OverflowError, match="f values exceed int64"):
        outer(spec).values(20_000)
    assert calls == [1, 2]


def _spy_on_span(monkeypatch, cls):
    """Record the (lo, hi) of each call of cls's _span below its check."""
    span, asked = inspect.unwrap(cls._span), []

    def spy(self, lo, hi):
        asked.append((lo, hi))
        return span(self, lo, hi)

    monkeypatch.setattr(cls, "_span", fspec._refuses_non_slow(spy))
    return asked


@pytest.mark.parametrize("outer", [
    lambda s: Shifted(3, s), lambda s: Perturbed(s, 2, 1),
    lambda s: Shifted(1, Perturbed(s, 7, -1))])
def test_shift_and_perturb_keep_the_refusal_of_their_inner_spec(
        monkeypatch, outer):
    inner = ConstLimit("pow", a=2**52, b=Fraction(1, 64))
    spec = outer(inner)
    asked = _spy_on_span(monkeypatch, ConstLimit)
    with pytest.raises(InvalidFSpec) as err:
        spec.values(200_000)
    assert str(err.value) == (f"{inner.spec_str()!r}: difference f(2) - f(1)"
                              " = 48512715765651 is outside {0, 1}")
    assert asked == []
    # a term past the first is no refusal: value() of the inner, exactly
    assert spec.value(5) == oracle_f(spec, 5)


def test_const_limit_values_against_oracle():
    with mpmath.workdps(60):
        for text, fn in [
            ("const-limit:sqrt:a=5",
             lambda n: 5 - 5 / mpmath.sqrt(n)),
            ("const-limit:exp:a=4,b=1/8",
             lambda n: 4 - 4 * mpmath.exp(mpmath.mpf(-n) / 8)),
            ("const-limit:pow:a=4,b=1/2",
             lambda n: 4 - 4 / mpmath.power(n, mpmath.mpf(1) / 2)),
        ]:
            spec = parse_fspec(text)
            got = spec.values(400)
            want = [int(mpmath.floor(fn(n))) for n in range(1, 401)]
            assert list(got) == want, text


def test_const_limit_clamp_large_numerator_does_not_wrap():
    # alpha.numerator * n exceeds int64 from n = 2 on; an int64 product
    # wrapped and the spec was refused as not slow
    spec = parse_fspec("const-limit:clamp:alpha=4611686018427387903/"
                       "4611686018427387904,n0=10")
    want = [spec.value(n) for n in range(1, 13)]
    assert want == list(range(10)) + [9, 9]
    assert spec.values(12).tolist() == want


def test_const_limit_pow_margin_decides_float_near_misses():
    # 30/n^(1/3) is an integer at every cube; there the float seed lands a
    # few ulp off, above it at n = 8, 27, 216 and 1000 (30/1000^(1/3)
    # evaluates to 3.0000000000000004), so a ceiling taken without the
    # certified margin is one too high.  Not slow, hence below the check.
    spec = ConstLimit("pow", a=30, b=Fraction(1, 3))
    got = inspect.unwrap(ConstLimit._span)(spec, 1, 1001)
    assert [int(got[k**3 - 1]) for k in range(1, 11)] == [
        30 - -(-30 // k) for k in range(1, 11)]
    assert got.tolist() == [spec.value(n) for n in range(1, 1001)]


def _fractions(num, den):
    return st.builds(Fraction, num, den)


def _unit_fractions():
    """Fractions p/q in [0, 1) with q up to 2**63."""
    return st.integers(1, 2**63).flatmap(
        lambda q: _fractions(st.integers(0, q - 1), st.just(q)))


_NEAR_2_52 = st.integers(2**52 - 64, 2**52 + 64)  # float seed / per-term edge
_CONST_A = st.one_of(st.integers(1, 100), _NEAR_2_52)
_CONST_B = _fractions(st.integers(1, 64), st.integers(1, 64))  # up to 64/1

_UNCHECKED_LEAVES = st.one_of(
    st.just(GammaSq()),
    st.text("01", max_size=400).map(DiffBits),
    st.lists(st.integers(0, 1), max_size=400).map(lambda b: DiffBits(bytes(b))),
    st.builds(lambda alpha, n0: ConstLimit("clamp", alpha=alpha, n0=n0),
              _unit_fractions(), st.integers(1, 500)),
    st.builds(FloorRatio, st.one_of(st.integers(0, 10), st.integers(0, 2**64)),
              st.one_of(st.integers(1, 10), st.integers(1, 2**64)),
              st.one_of(st.just(0), st.integers(-2**64, 2**64)),
              st.one_of(st.just(1), st.integers(-2**64, 2**64).filter(bool))),
)

_DRIVER_SPECS = st.one_of(
    st.builds(FracPowerSum, st.lists(st.tuples(
        _fractions(st.integers(-64, 64), st.integers(1, 64)),
        st.integers(1, 16).flatmap(
            lambda q: _fractions(st.integers(0, q - 1), st.just(q)))),
        min_size=1, max_size=3).map(tuple)),
    st.builds(lambda a, b: ConstLimit("pow", a=a, b=b), _CONST_A, _CONST_B),
    st.builds(lambda a, b: ConstLimit("exp", a=a, b=b), _CONST_A, _CONST_B),
    st.builds(lambda a: ConstLimit("sqrt", a=a),
              st.one_of(st.integers(1, 2**31), st.integers(1, 2**64))),
    st.recursive(_UNCHECKED_LEAVES, lambda inner: st.one_of(
        st.builds(Shifted, st.integers(1, 20), inner),
        st.builds(Perturbed, inner, st.integers(1, 300), st.one_of(
            st.integers(-10, 10), st.integers(2**63 - 300, 2**63)))),
        max_leaves=3),
)


@settings(max_examples=300, deadline=None)
@given(spec=_DRIVER_SPECS, n=st.integers(1, 300))
# pinned extremes: a around 2**52, b = 64, exp(-b*n) underflowing to 0.0
@example(spec=ConstLimit("exp", a=2**52, b=Fraction(64)), n=300)
@example(spec=ConstLimit("exp", a=1, b=Fraction(64)), n=300)
@example(spec=ConstLimit("pow", a=2**52 - 1, b=Fraction(1, 64)), n=300)
@example(spec=ConstLimit("pow", a=2**52 + 1, b=Fraction(64)), n=300)
@example(spec=FracPowerSum(((Fraction(10**20), Fraction(1, 2)),)), n=4)
# clamp with a denominator beyond int64
@example(spec=ConstLimit("clamp", alpha=Fraction(1, 2**63), n0=10), n=12)
# floor ratios whose num*n or den leave int64 while every value fits
@example(spec=FloorRatio(1, 2**63), n=4)
@example(spec=FloorRatio(2**62 + 1, 2**63), n=300)
@example(spec=FloorRatio(1, 4, scale=2**61), n=12)  # scale * n past int64
@example(spec=FloorRatio(1, 2, scale=2**62), n=8)  # f(4) = 2**63
@example(spec=FloorRatio(0, 1, 0, 2**64), n=3)  # all zeros, scale past int64
@example(spec=ConstLimit("clamp", alpha=Fraction(1, 2), n0=2**70), n=5)
# a far beyond float64's exact range: the exact integer root, no walk
@example(spec=ConstLimit("sqrt", a=10**300), n=2)
@example(spec=ConstLimit("pow", a=2**80, b=Fraction(2, 3)), n=5)
# b = 1/2 takes integer square roots for pow and sqrt only
@example(spec=ConstLimit("exp", a=5, b=Fraction(1, 2)), n=300)
def test_vectorised_values_match_scalar_value(spec, n):
    # _span is compared below the slow-property check, so parameters that
    # give a non-slow sequence are compared too
    n = min(n, spec.max_len() or n)
    span = inspect.unwrap(type(spec)._span)
    try:
        want = [oracle_f(spec, k) for k in range(1, n + 1)]
    except InvalidFSpec:  # fracpow: an exact integer through cancellation
        with pytest.raises(InvalidFSpec):
            span(spec, 1, n + 1)
        return
    assert [spec.value(k) for k in range(1, n + 1)] == want
    if not all(INT64_MIN <= v <= INT64_MAX for v in want):
        # exact Python ints, or OverflowError from fracpow's float seed
        try:
            got = span(spec, 1, n + 1)
        except OverflowError:
            assert isinstance(spec, FracPowerSum)
            return
        assert got.dtype == object
        assert got.tolist() == want
        if not isinstance(spec, (ConstLimit, FracPowerSum)):
            with pytest.raises(OverflowError):
                spec.values(n)
        return
    got = span(spec, 1, n + 1)
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_fracpow_against_high_precision_oracle():
    spec = parse_fspec("fracpow:3/4*n^1/2+3/32*n^1/4+5/128")
    got = spec.values(2000)
    with mpmath.workdps(60):
        for n in list(range(1, 2001, 97)) + [16, 81, 256, 625, 1296]:
            x = (mpmath.mpf(3) / 4 * mpmath.sqrt(n)
                 + mpmath.mpf(3) / 32 * mpmath.power(n, mpmath.mpf(1) / 4)
                 + mpmath.mpf(5) / 128)
            assert int(got[n - 1]) == int(mpmath.floor(x)), n


def test_fracpow_exact_integer_cancellation_is_rejected():
    # n^(3/4) - 2*n^(1/4) is exactly 0 at n = 4: the floor cannot be
    # certified by bracketing and the spec is refused loudly
    spec = FracPowerSum(((Fraction(1), Fraction(3, 4)),
                         (Fraction(-2), Fraction(1, 4))))
    with pytest.raises(InvalidFSpec):
        spec.value(4)


def test_fracpow_vectorized_matches_exact_path():
    spec = parse_fspec("fracpow:3/4*n^1/2+3/32*n^1/4+5/128")
    fast = spec.values(3000)
    exact = [spec.value(n) for n in range(1, 3001)]
    assert list(fast) == exact


@pytest.mark.parametrize("text", [
    "fracpow:7/3", "fracpow:-7/3", "fracpow:0", "fracpow:5/2*n^1/2-3/4",
    "fracpow:-1/3*n^1/2+1/3*n^3/4+2", "fracpow:n^1/64-n^63/64+1/2"])
def test_fracpow_value_is_the_rational_sum_where_every_root_is_exact(text):
    """At n = 1, and for a sum with no n^e term at every n, each n^e the
    value brackets is exact: the value is the floor of the rational sum."""
    spec = parse_fspec(text)
    assert spec.value(1) == math.floor(sum(c for c, _ in spec.terms))
    if all(e == 0 for _, e in spec.terms):
        const = math.floor(sum(c for c, _ in spec.terms))
        assert [spec.value(n) for n in (2, 3, 10**40)] == [const] * 3


def test_fracpow_merges_duplicate_exponents():
    spec = FracPowerSum(((Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(1, 2), Fraction(1, 2))))
    assert spec.terms == ((Fraction(1), Fraction(1, 2)),)
    assert spec.value(9) == 3


def test_perturbed_values():
    base = FloorRatio(1, 2)
    spec = Perturbed(base, 16, 1)
    vals = spec.values(20)
    assert vals[15] == base.value(16) + 1
    other = np.delete(vals, 15)
    assert (other == np.delete(base.values(20), 15)).all()
    # perturbation beyond the horizon is a no-op
    assert (Perturbed(base, 100, 7).values(20) == base.values(20)).all()


def test_perturbed_values_overflow_is_loud(capsys):
    # an int64 add would wrap f(5) negative, and the trace would report a
    # death at 6 instead of the overflow
    text = "perturb:5:+9223372036854775807:(floor:1/2)"
    spec = parse_fspec(text)
    assert spec.value(5) == 2**63 + 1
    with pytest.raises(OverflowError):
        spec.values(10)
    with pytest.raises(OverflowError):
        compute_q(text, 10)
    assert cli.main(["compute", "--f", text, "--n", "10"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hofq: overflow: ")


def test_floor_ratio_beyond_int64_intermediates(capsys):
    # every f(n) fits int64 although den (and num*n) does not
    assert cli.main(["compute", "--f", "floor:1/9223372036854775808",
                     "--n", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,f,q" and [row.split(",")[1] for row in out[1:]] == [
        "0"] * 4
    spec = parse_fspec("floor:4611686018427387905/9223372036854775808")
    assert spec.values(6).tolist() == [0, 1, 1, 2, 2, 3]
    # f(2) itself leaves int64: still one overflow line
    assert cli.main(["compute", "--f", "floor:9223372036854775807/1",
                     "--n", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hofq: overflow: ")


@pytest.mark.parametrize("a", [2**80, 10**300])
def test_sqrt_with_huge_a_is_one_overflow_line(capsys, a):
    # f(2) = a - ceil(a / sqrt(2)) leaves int64; each term is one integer
    # square root, so the refusal comes at once
    assert cli.main(["compute", "--f", f"const-limit:sqrt:a={a}",
                     "--n", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("hofq: overflow: ")


@pytest.mark.parametrize("seed_route", [True, False])
@pytest.mark.parametrize("a", [1, 5, 100, 10**6, 3037000499, 2**52])
def test_sqrt_is_pow_at_half(monkeypatch, seed_route, a):
    # sqrt and pow at b = 1/2 share one dispatcher: the float seed while a
    # is exact in float64, else value() term by term (forced here by a zero
    # cap); both agree with the scalar value()
    if not seed_route:
        monkeypatch.setattr(fspec, "_SEED_A_MAX", 0)
    sqrt = ConstLimit("sqrt", a=a)
    power = ConstLimit("pow", a=a, b=Fraction(1, 2))
    assert sqrt.spec_str() == f"const-limit:sqrt:a={a}"
    n = 2000
    want = [power.value(k) for k in range(1, n + 1)]
    assert [sqrt.value(k) for k in range(1, n + 1)] == want
    span = inspect.unwrap(ConstLimit._span)  # a > 6 is not slow
    assert span(sqrt, 1, n + 1).tolist() == want
    assert span(power, 1, n + 1).tolist() == want


@pytest.mark.parametrize("form", ["sqrt:a={}", "pow:a={},b=1/2"])
def test_sqrt_is_slow_only_up_to_a_6(capsys, form):
    """At b = 1/2, a = 1..6 trace, with f(n) = a - 1 from n = a^2 on, and
    a = 7 is refused by its f(1), f(2): no valid spec has more than 35
    decaying terms."""
    n = 100
    for a in range(1, 7):
        t = compute_q("const-limit:" + form.format(a), n)
        assert t.exists and t.n_max == n
        f = t.f_values.tolist()
        assert f[a * a - 1:] == [a - 1] * (n - a * a + 1)
        assert a == 1 or f[a * a - 2] < a - 1
    text = "const-limit:" + form.format(7)
    assert cli.main(["compute", "--f", text, "--n", str(n)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"hofq: {text!r}: difference f(2) - f(1) = 2 is outside {{0, 1}}"]


def test_as_fspec_coercions():
    assert as_fspec("zeros") == Zeros()
    assert as_fspec([0, 2, 2]) == Prefix((0, 2, 2))
    # each value is an exact int, from any iterable, of any integral value
    for values, want in [([0, 1.0, Fraction(4, 2), np.int64(3), True],
                          (0, 1, 2, 3, 1)),
                         ((v for v in [0, 1, 2.0]), (0, 1, 2)),
                         (np.array([0, 1, 1]), (0, 1, 1)),
                         (np.array([0.0, 1.0, 1.0]), (0, 1, 1))]:
        got = as_fspec(values).prefix
        assert got == want and all(type(v) is int for v in got)
    spec = GammaSq()
    assert as_fspec(spec) is spec
    with pytest.raises(TypeError):
        as_fspec(b"\x00\x01")
    with pytest.raises(InvalidFSpec):  # once traced as f = (0, 0, 1)
        compute_q((0, 0.5, 1), 3)


@pytest.mark.parametrize("values, n, quoted", [
    ((0, 0.5, 1), 2, "0.5"),
    ((0, np.float64(1.7)), 2, repr(np.float64(1.7))),
    ([0, 1, "1"], 3, "'1'"),
    ((v for v in [0, 1, 1, 2.5, 0.5]), 4, "2.5"),
    ([0, None], 2, "None"),
    ([0, float("nan")], 2, "nan"),
    ([0, float("inf")], 2, "inf"),
    ([0, Fraction(1, 3)], 2, "Fraction(1, 3)"),
    ((0, "1" * 3000), 2, "'" + "1" * 23 + "... (3002 characters)"),
], ids=["half", "float64", "text", "generator", "none", "nan", "inf",
        "fraction", "long-text"])
def test_prefix_refuses_values_that_are_not_integers(values, n, quoted):
    """A value that is not an integer is refused, not truncated: one
    InvalidFSpec names the first such value, quoted in brief, and its n."""
    with pytest.raises(InvalidFSpec) as err:
        Prefix(values)
    assert str(err.value) == f"prefix: f({n}) = {quoted} is not an integer"


@pytest.fixture
def prefix_backend(kernel_backend, monkeypatch):
    """Prefix reading its tuple on each kernel backend."""
    monkeypatch.setattr(kernels, "read_ints", kernel_backend.read_ints)
    return kernel_backend


def test_prefix_reads_its_f_once_and_shares_it(prefix_backend):
    """On either backend a tuple of exact ints in int64 is kept as it is
    and read once into a read-only f that every span and trace of the
    prefix shares; a copy reads its own.  Any other tuple of integers is
    converted, then read; past int64 each span is a new array."""
    exact = (0, 1, 1, 2)
    spec = Prefix(exact)
    assert spec.prefix is exact
    f = spec.values(4)
    assert f.tolist() == [0, 1, 1, 2] and not f.flags.writeable
    assert spec.values(4) is f
    assert compute_q(spec, 4).f_values is f
    head = spec.values(2)
    assert head.tolist() == [0, 1] and not head.flags.writeable
    assert np.shares_memory(head, f)
    for copied in (copy.copy(spec), copy.deepcopy(spec),
                   pickle.loads(pickle.dumps(spec))):
        assert copied == spec and copied.prefix == exact
        got = copied.values(4)
        assert got.tolist() == [0, 1, 1, 2] and not got.flags.writeable
        assert not np.shares_memory(got, f)
    # a value that is not an exact int: the values are converted
    mixed = Prefix((0, True, 2))
    assert mixed.prefix == (0, 1, 2)
    assert all(type(v) is int for v in mixed.prefix)
    assert mixed.spec_str() == "prefix:0,1,2"
    assert mixed.values(3).tolist() == [0, 1, 2]
    # a value past int64: its spans are object arrays, as before
    big = Prefix((0, 2**63))
    assert big.prefix == (0, 2**63) and big.value(2) == 2**63
    with pytest.raises(OverflowError):
        big.values(2)


@pytest.mark.parametrize("values", [
    np.arange(5), np.array([0, 1, 1, 2], dtype=np.int32),
    np.array([0, 1, 2**63 - 1], dtype=np.uint64), [0.0, 1.0, 1.0, 2.0],
    (0, np.int8(1), 1.0, True, 2), np.array([0.0, 3.0, -2.0]),
], ids=["arange", "int32", "uint64", "floats", "mixed", "float-array"])
def test_a_converted_prefix_holds_its_f(prefix_backend, values):
    """A prefix of numpy integers or integral floats is converted to ints
    and then read once, as a tuple of ints is: a read-only f equal to its
    values, shared by its spans and traces.  Equality, hashing and repr
    are those of the tuple of ints."""
    ints = tuple(int(v) for v in values)
    spec = Prefix(values)
    assert spec.prefix == ints and all(type(v) is int for v in spec.prefix)
    f = spec._f
    assert f is not None and not f.flags.writeable
    assert f.dtype == np.int64 and f.tolist() == list(ints)
    assert spec.values(len(ints)) is f
    assert np.shares_memory(compute_q(spec, 2).f_values, f)
    plain = Prefix(ints)
    assert spec == plain and hash(spec) == hash(plain)
    assert repr(spec) == repr(plain) == f"Prefix(prefix={ints!r})"


def test_a_value_past_int64_stops_only_the_spans_that_hold_it(
        prefix_backend):
    """A prefix with a value past int64 has no shared f, and each span is
    read on its own: one that holds no such value is int64, so the terms
    before the value are traced, also under a shift or a perturbation,
    and past _BLOCK terms."""
    big = Prefix((0, 1, 2**63))
    assert big.values(2).tolist() == [0, 1]
    t = compute_q(big, 2)
    assert t.exists and t.n_max == 2 and t.q_values.tolist() == [1, 2]
    assert Shifted(1, big).values(3).tolist() == [0, 0, 1]
    assert Perturbed(big, 2, 1).values(2).tolist() == [0, 2]
    assert compute_q(Perturbed(Shifted(1, big), 3, -1), 3).exists
    with pytest.raises(OverflowError):
        big.values(3)
    n = fspec._BLOCK + 100
    long = Prefix((*(i // 2 for i in range(n)), 2**63))
    assert long.values(n).tolist() == [i // 2 for i in range(n)]
    assert compute_q(long, n).exists


def test_a_perturbation_edits_a_copy_of_a_shared_span(prefix_backend):
    """Perturbed edits a copy of a span that is the inner spec's own
    memory.  Past _BLOCK terms, under a shift, the span it edits is a view
    of the prefix's array; the trace is the oracle's, as before f was
    shared, and the prefix's f is unchanged."""
    prefix = Prefix(tuple(i // 2 for i in range(9000)))
    before = prefix.values(9000).tolist()
    f = [0, *before]
    f[9000 - 1] += 1
    q, died, _ = oracle_q(f)
    t = compute_q(Perturbed(Shifted(1, prefix), 9000, 1), 9001)
    assert died is None and t.exists and t.n_max == 9001
    assert t.f_values.tolist() == f and t.q_values.tolist() == q
    assert prefix.values(9000).tolist() == before
    short = Prefix((0, 0, 1, 1))
    assert Perturbed(short, 2, 1).values(4).tolist() == [0, 1, 1, 1]
    assert short.values(4).tolist() == [0, 0, 1, 1]


# ---------------------------------------------------------------------------
# values() in spans of at most _BLOCK terms

B = fspec._BLOCK
BLOCK_EDGES = [B - 1, B, B + 1, 2 * B, 3 * B + 7]
_LONG_BITS = (np.random.default_rng(21).integers(0, 2, 3 * B + 6, np.uint8)
              + ord("0")).tobytes().decode()
# the finite families, long enough for every edge
BLOCK_SPECS = ROUND_TRIP + [
    "bits:" + _LONG_BITS,
    "prefix:" + ",".join(map(str, np.arange(3 * B + 7) // 3)),
    f"shift:{B - 2}:(fracpow:1/2*n^1/2-1/8*n^1/4)",
]


@pytest.mark.parametrize("text", BLOCK_SPECS, ids=lambda t: t[:40])
def test_blocked_values_equal_value_and_one_span(text):
    spec = parse_fspec(text)
    cap = spec.max_len() or BLOCK_EDGES[-1]
    top = min(cap, BLOCK_EDGES[-1])
    whole = spec._span(1, top + 1)  # the one span values() made before
    assert whole.tolist() == [spec.value(k) for k in range(1, top + 1)]
    for n in sorted({min(n, cap) for n in BLOCK_EDGES}):
        got = spec.values(n)
        assert got.dtype == np.int64
        assert got.tolist() == whole[:n].tolist(), n


@dataclass(frozen=True)
class _RiseAt(FSpec):
    """A test family under the slowness check: 0 before `at`, then 2."""

    at: int

    @fspec._refuses_non_slow
    def _span(self, lo, hi):
        return 2 * (np.arange(lo, hi, dtype=np.int64) >= self.at)

    def spec_str(self):
        return f"rise-at:{self.at}"


@pytest.mark.parametrize("at", [B + 1, B + 5])
@pytest.mark.parametrize("outer", [lambda s: s, lambda s: Shifted(3, s)],
                         ids=["bare", "shifted"])
def test_slowness_is_checked_across_blocks(at, outer):
    inner = _RiseAt(at)
    spec = outer(inner)
    message = (f"{inner.spec_str()!r}: difference f({at}) - f({at - 1}) = 2"
               " is outside {0, 1}")
    # from the first n that holds the rise: bare with at = B + 1, that n
    # would leave f(B + 1) alone in the last span
    first = at + (spec.k if isinstance(spec, Shifted) else 0)
    for n in (first, first + 1, 2 * B, 3 * B + 7):
        with pytest.raises(InvalidFSpec) as one:
            spec._span(1, n + 1)
        with pytest.raises(InvalidFSpec) as blocked:
            spec.values(n)
        assert str(blocked.value) == str(one.value) == message
    # a lone term, as value() reads it, is not checked
    assert spec.value(at + 3) == 2


@pytest.mark.parametrize("spec", [
    Perturbed(FloorRatio(1, 2), B + 5, 2**63),
    Prefix([0] * (2 * B + 2) + [2**64]),
    Shifted(B, Perturbed(Zeros(), 3, -2**63 - 1)),
])
def test_value_past_int64_in_a_later_block_overflows(spec):
    n = min(3 * B, spec.max_len() or 3 * B)
    assert spec._span(1, n + 1).dtype == object  # the one span of before
    with pytest.raises(OverflowError) as err:
        spec.values(n)
    assert str(err.value) == f"{brief_spec(spec)}: f values exceed int64"


def _count_spans(monkeypatch):
    """Record the length of every array a family's _span returns."""
    sizes, todo = [], [FSpec]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "_span" in vars(cls) and cls is not FSpec:
            def counted(self, lo, hi, _span=vars(cls)["_span"]):
                out = _span(self, lo, hi)
                sizes.append(len(out))
                return out
            monkeypatch.setattr(cls, "_span", counted)
    return sizes


# the families whose span allocates nothing but its output, which values()
# takes in one span (every prefix below is of exact ints, so its f is held)
ONE_SPAN = ("zeros", "linear", "floor:", "gamma2", "one-minus-delta:", "mod:",
            "bits:", "prefix:")


@pytest.mark.parametrize("text", BLOCK_SPECS + ["bits:" + "01" * (2 * B + 1)],
                         ids=lambda t: t[:40])
def test_no_span_of_values_is_longer_than_a_block(monkeypatch, text):
    """A family whose span makes temporaries asks _span for no more than
    _BLOCK terms at once; one whose span writes only its output makes
    exactly one _span call, for all n terms."""
    spec = parse_fspec(text)
    n = min(4 * B + 3, spec.max_len() or 4 * B + 3)
    want = spec.values(n).tolist()
    sizes = _count_spans(monkeypatch)
    assert spec.values(n).tolist() == want
    if text.startswith(ONE_SPAN):
        assert sizes == [n]
    else:
        assert sizes and max(sizes) <= B


def test_floor_past_int64_intermediates_keeps_blocks(monkeypatch):
    """A floor whose int64 route cannot hold goes in blocks: one span of
    its exact Python ints took 11 times the time and peaked at 12 times
    the output at 10**6 terms."""
    spec = FloorRatio(10**13, 10**13 + 1)
    assert FloorRatio(10**9, 10**9 + 1)._one_span
    assert not spec._one_span
    sizes = _count_spans(monkeypatch)
    got = spec.values(2 * B + 5)
    assert max(sizes) <= B
    assert got.tolist() == [(10**13 * k) // (10**13 + 1)
                            for k in range(1, 2 * B + 6)]


def _memory_spec(text, n):
    """The spec of text; `bits:` and `prefix:` alone stand for n seeded
    slow terms of each."""
    if text not in ("bits:", "prefix:"):
        return parse_fspec(text)
    steps = np.random.default_rng(29).integers(0, 2, n - 1, np.uint8)
    if text == "bits:":
        return DiffBits(steps.tobytes())
    return Prefix((0, *np.cumsum(steps, dtype=np.int64).tolist()))


@pytest.mark.parametrize("text", [
    "fracpow:3/4*n^1/2+3/32*n^1/4+5/128",
    "gamma2",
    "const-limit:sqrt:a=5",
    "const-limit:pow:a=5,b=1/2",
    "const-limit:exp:a=5,b=1/1000",
    "const-limit:clamp:alpha=1/2,n0=100",
    "zeros",
    "linear",
    "floor:1/2",
    "floor:1/2:shift=-1:scale=2",
    "one-minus-delta:1",
    "mod:2",
    "mod:7",
    "mod:999999",
    "bits:",
    "prefix:",
    "shift:3:(floor:1/2)",
    "perturb:16:+1:(floor:1/2)",
])
def test_values_peak_memory_is_near_its_output(text):
    n = 10**6
    spec = _memory_spec(text, n)  # a held f is read outside the measurement
    spec.values(1000)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        spec.values(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n


@pytest.mark.parametrize("form, a, b, start", [
    ("pow", 5, Fraction(1, 2), 25),
    ("sqrt", 5, None, 25),
    ("pow", 7, Fraction(2, 3), 19),  # 7^(3/2) = 18.52...
    ("pow", 2**52 - 1, Fraction(1, 2), (2**52 - 1)**2),
    ("pow", 4, Fraction(2, 1), 2),  # 4 / n^2 <= 1 from n = 2 on
    # exp: from L q / p on, L = a.bit_length(), ceil_exp_decay's own test
    ("exp", 5, Fraction(1, 1000), 3000),
    ("exp", 1000, Fraction(3, 7), 24),
])
def test_const_limit_saturates_exactly_where_value_does(form, a, b, start):
    spec = ConstLimit(form, a=a, b=b)
    assert spec._saturated_from == start
    if form != "exp" and start > 1:  # the least such index for pow
        assert spec.value(start - 1) < a - 1
    span = inspect.unwrap(ConstLimit._span)
    for lo in (start - 1, start, start + 1):
        if lo >= 1:
            got = span(spec, lo, start + 3).tolist()
            assert got == [spec.value(k) for k in range(lo, start + 3)]
            # one term, on either side of the cut, as value() gives it
            one = span(spec, lo, lo + 1)
            assert one.dtype == np.int64 and one.tolist() == [spec.value(lo)]
    if start < 10**5:  # below the check: not all of these are slow
        assert span(spec, 1, start + 2).tolist() == [
            spec.value(k) for k in range(1, start + 2)]


def test_diffbits_reads_its_f_once_and_shares_it(monkeypatch):
    """bits: reads f once, by one kernels.step_sum call over every bit,
    into a read-only array that every span and trace of the spec shares;
    a perturbation edits a copy, and a copy of the spec reads its own."""
    sums, step_sum = [], kernels.step_sum
    monkeypatch.setattr(kernels, "step_sum", lambda steps, first, out:
                        sums.append(len(out)) or step_sum(steps, first, out))
    spec = DiffBits("0111" * (4 * B))
    n = 16 * B + 1
    assert sums == [n]
    f = spec.values(n)
    assert f[-1] == 12 * B and not f.flags.writeable
    assert spec.values(n) is f
    assert compute_q(spec, n).f_values is f
    head = spec.values(2 * B + 3)
    assert not head.flags.writeable and np.shares_memory(head, f)
    assert head.tolist() == f[:2 * B + 3].tolist()
    assert spec.value(16 * B) == 12 * B - 1
    assert spec._span(15 * B + 9, 15 * B + 11).tolist() == [
        spec.value(15 * B + 9), spec.value(15 * B + 10)]
    assert sums == [n]
    before = f.tolist()
    assert Perturbed(spec, 3, 5).values(4).tolist() == [0, 0, 6, 2]
    shifted = Perturbed(Shifted(1, spec), n + 1, 1)  # in blocks, of views
    assert shifted.values(n + 1)[-1] == 12 * B + 1
    assert f.tolist() == before
    for copied in (copy.copy(spec), copy.deepcopy(spec),
                   pickle.loads(pickle.dumps(spec))):
        assert copied == spec and copied.bits == spec.bits
        got = copied.values(n)
        assert got.tolist() == before and not got.flags.writeable
        assert not np.shares_memory(got, f)
    assert len(sums) == 4


@pytest.mark.parametrize("exp", range(-15, -5))
def test_decimal_read_symbolically_rounds_as_limit_denominator(exp):
    """Where _parse_rational gives 0 without expanding the exponent, the
    nearest fraction with denominator <= 10^9 is 0 too, and elsewhere it
    is that fraction: on each side of 1/(2 * 10^9)."""
    for mantissa in ("1", "4.999", "5", "5.001", "9.999", "-5.001", "0"):
        text = f"{mantissa}e{exp}"
        assert fspec._parse_rational(text) == Fraction(
            text).limit_denominator(10**9), text


@pytest.mark.parametrize("text, value", [
    ("1e-9999999", 0), ("-1e-9999999", 0), ("0e9999999", 0),
    ("1e-99999999999999999999999", 0), ("2.5e-1", Fraction(1, 4)),
    ("1_0e-1", 1), (" 3e2 ", 300)])
def test_parse_rational_reads_any_exponent_at_once(text, value):
    assert fspec._parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e9999999", "-1e4300",
                                  "1e99999999999999999999999"])
def test_parse_rational_refuses_an_integer_part_past_the_digit_limit(text):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InvalidFSpec) as err:
        fspec._parse_rational(text)
    assert str(err.value) == (f"rational {fspec.brief(text)} is longer"
                              f" than Python's"
                              f" {limit}-digit integer limit")
    assert fspec._parse_rational("1e4299") == 10**4299


@pytest.mark.parametrize("text, value", [
    ("0e-9999999", 0), ("-0e99999999999999999999999", 0),
    ("2.5e-3", Fraction(1, 400)), ("1e4299", 10**4299),
    ("1e-4300", Fraction(1, 10**4300))])
def test_fraction_literal_is_exact_where_it_is_bounded(text, value):
    assert fspec.fraction_literal(text) == value


@pytest.mark.parametrize("text", ["1e-9999999", "1e9999999", "1e-4301",
                                  "-1e-99999999999999999999999"])
def test_fraction_literal_refuses_a_part_past_the_digit_limit(text):
    """Exact, so a literal whose denominator or integer part would have
    more digits than int() reads is refused, not expanded."""
    with pytest.raises(ValueError, match="-digit integer limit$"):
        fspec.fraction_literal(text)
