import functools
import math

import mpmath
import numpy as np
import pytest

from hofq import exactfloor
from hofq.exactfloor import (
    GAMMA_ARRAY_CAP,
    INT64_MAX,
    ceil_div_pow,
    ceil_exp_decay,
    floor_gamma,
    floor_gamma_array,
    floor_gamma_sq,
    floor_gamma_sq_array,
    iroot,
    isqrt_array,
    staircase_start,
    staircase_value,
    staircase_value_array,
)


def test_isqrt_array_matches_math_isqrt():
    """Every x in [0, INT64_MAX] is exact, up to INT64_MAX itself: there is
    no headroom below it."""
    rng = np.random.default_rng(7)
    vals = rng.integers(0, INT64_MAX, size=5000, endpoint=True)
    squares = np.arange(0, 2000) ** 2
    near = np.concatenate([squares, squares[1:] - 1, squares + 1])
    big = INT64_MAX - np.arange(10)
    # past 2**52 the float64 seed can miss by one either way
    k = rng.integers(2**26, math.isqrt(INT64_MAX), size=2000)
    big_near = np.concatenate([k * k - 1, k * k, k * k + 1])
    for batch in (vals, near, big, big_near, np.array([0, 1, 2, 3, 4, 5])):
        got = isqrt_array(batch)
        expected = np.array([math.isqrt(int(v)) for v in batch])
        assert (got == expected).all()


def test_isqrt_array_rejects_bad_input():
    """A negative x is refused, by the kernel's ValueError; INT64_MAX, the
    greatest int64, is taken."""
    with pytest.raises(ValueError, match=r"^n = -1 is outside \[0, "):
        isqrt_array(np.array([-1]))
    assert isqrt_array(np.array([INT64_MAX])).tolist() == [
        math.isqrt(INT64_MAX)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 63, 64])
def test_iroot_exact_and_floor(k):
    rng = np.random.default_rng(k)
    for _ in range(300):
        m = int(rng.integers(0, 10**12))
        r, exact = iroot(m, k)
        assert r**k <= m < (r + 1) ** k
        assert exact == (r**k == m)
    # perfect powers, including huge ones
    for base in (2, 3, 10, 12345):
        m = base**k
        assert iroot(m, k) == (base, True)
    big = (37**k) << (48 * k)
    r, exact = iroot(big, k)
    assert r**k <= big < (r + 1) ** k
    # m past 512 bits (the float seed then comes from its top bits), at and
    # beside perfect powers
    for bits in (600, 1500, 4000):
        base = (1 << (bits // k)) + 12345
        for m in (base**k - 1, base**k, base**k + 1,
                  int(rng.integers(1, 2**62)) << bits):
            r, exact = iroot(m, k)
            assert r**k <= m < (r + 1) ** k
            assert exact == (r**k == m)


def test_gamma_floors_against_high_precision_oracle():
    with mpmath.workdps(60):
        gamma = (mpmath.sqrt(5) - 1) / 2
        for n in list(range(0, 2000)) + [10**6, 10**9, 37**7]:
            assert floor_gamma(n) == int(mpmath.floor(gamma * n))
            if n >= 1:
                assert floor_gamma_sq(n) == int(mpmath.floor(gamma * gamma * n))
    assert floor_gamma(1) == 0  # 0 < gamma < 1
    assert floor_gamma(10) == 6  # gamma*10 = 6.18...
    assert floor_gamma_sq(0) == 0


def test_gamma_floor_identity_and_arrays():
    n = np.arange(1, 10**5 + 1, dtype=np.int64)
    fg = floor_gamma_array(n)
    fg2 = floor_gamma_sq_array(n)
    # gamma^2 = 1 - gamma makes the two floors complementary
    assert (fg2 == n - 1 - fg).all()
    spot = [1, 2, 3, 5, 10, 999, 12345, 99999]
    assert [int(fg[i - 1]) for i in spot] == [floor_gamma(i) for i in spot]
    with pytest.raises(ValueError, match="the domain of floor.gamma n"):
        floor_gamma_array(np.array([GAMMA_ARRAY_CAP + 1]))


def test_gamma_sq_prefix():
    got = [floor_gamma_sq(n) for n in range(1, 6)]
    assert got == [0, 0, 1, 1, 1]  # gamma^2 = 0.381966...


def test_staircase_forms():
    assert [staircase_start(k) for k in range(1, 6)] == [1, 2, 4, 7, 11]
    # k occupies indices staircase_start(k) .. staircase_start(k+1)-1
    expected = []
    for k in range(1, 30):
        expected.extend([k] * k)
    got = [staircase_value(n) for n in range(1, len(expected) + 1)]
    assert got == expected
    arr = staircase_value_array(np.arange(1, len(expected) + 1))
    assert list(arr) == expected
    for k in range(1, 200):
        assert staircase_value(staircase_start(k)) == k


def test_ceil_div_sqrt_brute():
    # ceil(a / sqrt(n)), the const-limit sqrt form, is ceil_div_pow at 1/2
    for a in (1, 2, 5, 7, 100):
        for n in range(1, 500):
            exact = mpmath.mpf(a) / mpmath.sqrt(n)
            brute = int(mpmath.ceil(exact))
            # guard against oracle rounding on exact integer quotients
            if a * a % n == 0 and math.isqrt(a * a // n) ** 2 * n == a * a:
                brute = math.isqrt(a * a // n)
            assert ceil_div_pow(a, n, 1, 2) == brute, (a, n)
    assert ceil_div_pow(0, 9, 1, 2) == 0
    assert ceil_div_pow(5, 4, 1, 2) == 3  # 5/2 rounds up
    assert ceil_div_pow(5, 25, 1, 2) == 1  # exact integer quotient
    a = 10**400  # beyond float64
    for n in (1, 2, 4, 5, 10**6):
        k = math.isqrt(a * a // n)
        assert ceil_div_pow(a, n, 1, 2) == (k if k * k * n == a * a else k + 1)


def test_ceil_div_pow_brute():
    with mpmath.workdps(50):
        for a in (1, 4, 9):
            for p, q in ((1, 2), (1, 3), (2, 3), (3, 4)):
                for n in range(1, 300):
                    x = mpmath.mpf(a) / mpmath.power(n, mpmath.mpf(p) / q)
                    want = int(mpmath.ceil(x))
                    if abs(x - mpmath.nint(x)) < mpmath.mpf("1e-40"):
                        want = int(mpmath.nint(x))
                    assert ceil_div_pow(a, n, p, q) == want, (a, n, p, q)
    # a past float64's exact integers: c is the ceiling iff
    # (c - 1)^q n^p < a^q <= c^q n^p
    for a in (2**53 + 1, 2**62 - 1, 2**80, 10**300):
        for p, q in ((1, 2), (1, 3), (2, 3), (3, 4), (64, 63)):
            for n in (1, 2, 3, 7, 4096, 10**6):
                c = ceil_div_pow(a, n, p, q)
                assert (c - 1) ** q * n**p < a**q <= c**q * n**p, (a, n, p, q)


# (a, b = p/q, n range): a > 2**52 is ConstLimit's per-term path; with a =
# 2**60 + 3 the decaying term drops below 1 past t = 41.6 (n = 291 at
# b = 1/7), and at b = 64 float64's exp underflows (t > 745) from n = 12 on
_EXP_CASES = [
    (1, (1, 7), range(1, 201)),
    (5, (1, 1000), range(1, 601)),
    (5, (3, 10**6), range(1, 201)),
    (2**52 + 1, (1, 7), range(1, 401)),
    (2**60 + 3, (1, 7), range(1, 401)),
    (2**60 + 3, (1, 2**62), range(1, 301)),
    (9 * 10**18, (1, 1000), range(1, 601)),
    (2**60 + 3, (64, 1), range(1, 301)),
]


def _exp_oracle(a, p, q, n):
    """ceil(a * exp(-p*n/q)) from a 100-digit mpmath value; the value is
    transcendental, so above 1 it must sit well away from every integer."""
    x = a * mpmath.exp(-mpmath.mpf(p * n) / q)
    away = abs(x - mpmath.nint(x)) > mpmath.mpf(10) ** -60
    assert x < 1 or away, (a, p, q, n)
    return int(mpmath.ceil(x))


@functools.cache
def _exp_terms():
    with mpmath.workdps(100):
        return [(a, n, p, q, _exp_oracle(a, p, q, n))
                for a, (p, q), ns in _EXP_CASES for n in ns]


def test_ceil_exp_decay_brute():
    terms = _exp_terms()
    assert len(terms) >= 3000
    for a, n, p, q, want in terms:
        assert ceil_exp_decay(a, n, p, q) == want, (a, n, p, q)


def test_ceil_exp_decay_bracket_at_low_precision(monkeypatch):
    # at 12 digits x = a*exp(-t) for a near 2**60 keeps no fractional digit,
    # so only the error bracket sends these terms on to 40 digits
    monkeypatch.setattr(exactfloor, "EXP_PRECISIONS", (12, 40, 160))
    for a, n, p, q, want in _exp_terms():
        assert ceil_exp_decay(a, n, p, q) == want, (a, n, p, q)


def test_isqrt_array_at_the_edge_of_the_float_seed():
    # below 2**52 the float64 seed is returned as it is: the largest roots
    # there, beside squares, against 2**52 itself and just past it, where
    # the seed of k^2 - 1 is k
    edge = [k * k + d for k in (2**26 - 1, 2**26, 2**26 + 1)
            for d in (-1, 0, 1)]
    edge += [2**52 - 1, 2**52, 2**52 + 1]
    batches = [[x] for x in edge] + [edge]
    for k in (np.arange(2**26 - 3000, 2**26, dtype=np.int64),
              np.arange(2**26 + 1, 2**26 + 3000, dtype=np.int64)):
        batches.append(np.concatenate([k * k - 1, k * k, k * k + 1]).tolist())
    for batch in batches:
        got = isqrt_array(np.array(batch, dtype=np.int64))
        assert got.tolist() == [math.isqrt(x) for x in batch]
