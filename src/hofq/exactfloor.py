"""Exact integer evaluation of the floor expressions used throughout.

gamma denotes the reciprocal golden ratio (sqrt(5) - 1)/2, the positive root
of g^2 + g = 1.  Floors of gamma*n and gamma^2*n are computed from integer
square roots, never from floating point:

    floor(gamma * n)   = (isqrt(5 n^2) - n) // 2
    floor(gamma^2 * n) = n - 1 - floor(gamma * n)        (n >= 1)

Both identities rely on 5 n^2 never being a perfect square (n >= 1), so the
enclosed square root is irrational and the floor commutes with the outer
integer shift/halving.
"""

from __future__ import annotations

import decimal
import math

import numpy as np

from .errors import InvalidFSpec

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

# headroom so the (s+2)^2 correction below cannot wrap int64
ISQRT_ARRAY_CAP = INT64_MAX - 2**34
# largest n with 5*n^2 within the isqrt_array cap (vectorized gamma floors)
GAMMA_ARRAY_CAP = math.isqrt(ISQRT_ARRAY_CAP // 5)


def isqrt_array(x: np.ndarray) -> np.ndarray:
    """Elementwise integer square root of a non-negative int64 array.

    A float64 seed is repaired by exact integer correction loops, so the
    result is correct even where float rounding misses by a unit.
    """
    x = np.asarray(x, dtype=np.int64)
    top = int(x.max()) if x.size else 0
    if x.size and int(x.min()) < 0:
        raise ValueError("isqrt_array: negative input")
    if top > ISQRT_ARRAY_CAP:
        raise OverflowError("isqrt_array: input too close to int64 max")
    s = x.astype(np.float64)
    s = np.sqrt(s, out=s).astype(np.int64)
    # Below 2**52 the truncated seed is r = floor(sqrt(x)) itself.  x is
    # exact in float64, and r^2 <= x < (r+1)^2 gives
    #   r <= sqrt(x) <= sqrt((r+1)^2 - 1) < r + 1 - 1/(2(r+1)).
    # The correctly rounded root is >= r (r is a double) and < r + 1: with
    # r + 1 <= 2**26 in (2**k, 2**(k+1)], k <= 25, the doubles just under
    # r + 1 are 2**(k-52) apart, so only a root within 2**(k-53) of r + 1
    # rounds up to it, and 2**(k-53) < 2**(-k-2) <= 1/(2(r+1)).
    if top < 2**52:
        return s
    # climb while (s+1)^2 <= x, then descend while s^2 > x: above 2**52 the
    # rounding of x to float64 can put the seed one too high (x = k^2 - 1)
    while True:
        low = (s + 1) * (s + 1) <= x
        if not low.any():
            break
        s[low] += 1
    while True:
        high = s * s > x
        if not high.any():
            break
        s[high] -= 1
    return s


def iroot(m: int, k: int) -> tuple[int, bool]:
    """Return (floor(m ** (1/k)), exact) for integers m >= 0, k >= 1."""
    if m < 0 or k < 1:
        raise ValueError("iroot: need m >= 0, k >= 1")
    if k == 1:
        return m, True
    if k == 2:
        r = math.isqrt(m)
        return r, r * r == m
    if k == 4:  # floor(m^(1/4)) = isqrt(isqrt(m)), nested-floor identity
        r = math.isqrt(math.isqrt(m))
        return r, r**4 == m
    if m < 2:
        return m, True
    # integer Newton from above the root, seeded in float64 from the top
    # (at most 512) bits of m: m < (h + 1) * 2**(k*s) for h = m >> (k*s), so
    # m**(1/k) < (h + 1)**(1/k) * 2**s; 1 + 2**-30 covers the float error,
    # and the seed keeps 52 fraction bits of that root through the shift
    s = max(0, -(-(m.bit_length() - 512) // k))
    est = float((m >> (k * s)) + 1) ** (1 / k) * (1 + 2.0**-30)
    r = ((int(math.ldexp(est, 52)) + 1) << s >> 52) + 1
    # a step t = ((k-1) r + m // r^(k-1)) // k never lands below the floor
    # root (AM-GM), and descends from every r above it (there r^k > m), so
    # the loop stops at an r with r^k <= m, and after one step at the floor
    # root itself.  Only a seed at or below the root needs the climb.
    stepped = False
    while True:
        rk1 = r ** (k - 1)
        t = ((k - 1) * r + m // rk1) // k
        if t >= r:
            break
        r, stepped = t, True
    if not stepped:
        while (r + 1) ** k <= m:
            r += 1
        rk1 = r ** (k - 1)
    return r, rk1 * r == m


def floor_gamma(n: int) -> int:
    """floor(gamma * n) for n >= 0, exact for arbitrary Python ints."""
    if n < 0:
        raise ValueError("floor_gamma: need n >= 0")
    return (math.isqrt(5 * n * n) - n) // 2


def floor_gamma_sq(n: int) -> int:
    """floor(gamma^2 * n) for n >= 0."""
    if n == 0:
        return 0
    return n - 1 - floor_gamma(n)


def floor_gamma_array(n: np.ndarray) -> np.ndarray:
    """Vectorized floor(gamma * n); requires 0 <= n <= GAMMA_ARRAY_CAP."""
    n = np.asarray(n, dtype=np.int64)
    if n.size == 0:
        return n.copy()
    if int(n.min()) < 0:
        raise ValueError("floor_gamma_array: negative index")
    if int(n.max()) > GAMMA_ARRAY_CAP:
        raise OverflowError("floor_gamma_array: 5*n^2 exceeds int64")
    out = n * n
    out *= 5
    out = isqrt_array(out)
    out -= n
    out >>= 1
    return out


def floor_gamma_sq_array(n: np.ndarray) -> np.ndarray:
    """Vectorized floor(gamma^2 * n); n = 0 handled as 0."""
    n = np.asarray(n, dtype=np.int64)
    out = floor_gamma_array(n)
    np.subtract(n, out, out=out)
    out -= 1  # n - 1 - floor(gamma n): -1 at n = 0 alone, >= 0 elsewhere
    if n.size and out.min() < 0:
        np.maximum(out, 0, out=out)
    return out


def staircase_start(k: int) -> int:
    """First index at which the value k appears in the k-repeats staircase:
    (k^2 - k + 2) / 2."""
    if k < 1:
        raise ValueError("staircase_start: need k >= 1")
    return (k * k - k + 2) // 2


def staircase_value(n: int) -> int:
    """Closed form floor(1/2 + sqrt(2n - 7/4)) = (1 + isqrt(8n - 7)) // 2, n >= 1."""
    if n < 1:
        raise ValueError("staircase_value: need n >= 1")
    return (1 + math.isqrt(8 * n - 7)) // 2


def staircase_value_array(n: np.ndarray) -> np.ndarray:
    """Vectorized staircase_value."""
    n = np.asarray(n, dtype=np.int64)
    if n.size and int(n.min()) < 1:
        raise ValueError("staircase_value_array: need n >= 1")
    return (1 + isqrt_array(8 * n - 7)) >> 1


def ceil_div_pow(a: int, n: int, p: int, q: int) -> int:
    """ceil(a / n**(p/q)) exactly, for integers a >= 0, n >= 1, p, q >= 1;
    ceil(a / sqrt(n)) is p/q = 1/2.

    k = floor(a / n**(p/q)) is the largest integer with k**q * n**p <= a**q,
    i.e. iroot(a**q // n**p, q); the ceiling is k where that is an equality,
    else k + 1.  Exact for every a, with no float step.
    """
    quot, rem = divmod(a**q, n**p)
    k, exact = iroot(quot, q)  # k**q * n**p == a**q iff both divisions are exact
    return k if exact and not rem else k + 1


# working precisions of ceil_exp_decay, in decimal digits
EXP_PRECISIONS = (40, 160, 640)


def ceil_exp_decay(a: int, n: int, p: int, q: int) -> int:
    """ceil(a * exp(-p*n/q)) exactly, for integers a, n, p, q >= 1.

    With t = p*n/q > 0 the value X = a * e^-t is transcendental, so it is
    never an integer and X lies in (floor(X), floor(X) + 1).  Two cases:

    * t >= L = a.bit_length(): X = a * e^-t < 2^L * 2^-L = 1 (e > 2 and
      a < 2^L), so ceil(X) = 1, decided on integers alone.
    * t < L: in a private decimal context of `prec` digits, u = 10^(1-prec),
      each of the three steps is correctly rounded (half-even), so each
      carries a relative error e_i with |e_i| <= u/2:
        t' = t (1 + e1)              (p*n and q are exact decimals)
        E  = e^-t' (1 + e2) = e^-t e^(-t e1) (1 + e2)
        x  = a E (1 + e3)            (a is an exact decimal)
      With -ln(1 - y) <= y/(1 - y) and u <= 10^-39,
        |ln(x/X)| <= t u/2 + 2 (u/2)/(1 - u/2) <= (t/2 + 1.01) u =: d,
      and d <= 1/2 because t < L is far below 10^38, so
        |X/x - 1| <= e^d - 1 <= d (1 + d) <= 1.5 d <= (t + 3) u.
      Hence X lies in [x (1 - r), x (1 + r)] for r = (ceil(t) + 3) u.  r,
      1 - r and 1 + r are exact in `prec` digits; the two ends are
      products rounded outwards (down for the lower, up for the upper), so
      the computed bracket contains X.  If both ends share a floor k,
      ceil(X) = k + 1 (so a bracket wholly below 1 gives 1, as r < 1 keeps
      its lower end positive).  Otherwise the precision escalates
      40 -> 160 -> 640 digits.

    Raises InvalidFSpec if 640 digits cannot separate X from an integer.
    """
    if a.bit_length() * q <= p * n:
        return 1
    k = -(-p * n // q)  # ceil(t)
    for prec in EXP_PRECISIONS:
        ctx = decimal.Context(prec=prec, rounding=decimal.ROUND_HALF_EVEN,
                              Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
        x = ctx.multiply(a, ctx.exp(ctx.divide(-p * n, q)))
        r = decimal.Decimal(f"{k + 3}E{1 - prec}")
        ctx.rounding = decimal.ROUND_CEILING
        upper = ctx.multiply(x, ctx.add(1, r))
        ctx.rounding = decimal.ROUND_FLOOR
        lower = ctx.multiply(x, ctx.subtract(1, r))
        fl = math.floor(lower)
        if fl == math.floor(upper):
            return fl + 1
    raise InvalidFSpec("const-limit exp: cannot certify floor")
