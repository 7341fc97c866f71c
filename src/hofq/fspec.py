"""Catalog of driving sequences f for the nested recurrence.

Every spec is an immutable value object that evaluates f(n) with exact
integer arithmetic (floors of rationals, of gamma-multiples, of fractional
power sums, ... are true mathematical floors, never float roundings).

Text grammar (parse_fspec / FSpec.spec_str round-trip):

    zeros                                f(n) = 0
    linear                               f(n) = n - 1
    floor:P/Q[:shift=R][:scale=C]        f(n) = C * floor((P*n + R) / Q)
    gamma2                               f(n) = floor(gamma^2 * n)
    one-minus-delta:N1                   f(n) = 0 at n = N1, else 1
    mod:M                                f(n) = (n - 1) mod M
    prefix:V1,V2,...                     explicit finite prefix
    bits:0110...                         the slow zero-start sequence whose
                                         successive differences are the bits
    shift:K:(SPEC)                       K leading zeros, then inner f(n-K)
    perturb:N1:+A:(SPEC)                 inner f plus A at the single index N1
    const-limit:sqrt:a=A                 f(n) = floor(A - A/sqrt(n))
    const-limit:exp:a=A,b=P/Q            f(n) = floor(A - A*exp(-b*n))
    const-limit:pow:a=A,b=P/Q            f(n) = floor(A - A/n^b)
    const-limit:clamp:alpha=P/Q,n0=N     f(n) = floor(alpha*n) clamped at n0
    fracpow:C1*n^E1+...+C0               f(n) = floor(sum of Ci * n^Ei)

A text is read whole or refused: zeros, linear and gamma2 take nothing
after their name, a const-limit form takes only its own keys, and no key
or floor option is given twice.

Rational parameters accept "P/Q" or an integer; a decimal literal is
converted to the nearest fraction with denominator <= 10^9 (approximate,
for convenience only).  Its exponent is never expanded into a power of
ten beyond what that needs: a literal that rounds to 0 is 0 at once
(floor:1e-9999999 is floor:0/1), and one whose integer part has more
digits than int() reads is refused.

Each family defines f once, as `_span(lo, hi)`: exact f(lo..hi-1), int64 or,
past int64, Python ints, by one route on either kernel backend: a
const-limit sqrt is pow at b = 1/2, whose span, as exp's, is a certified
float64 seed settled by the exact scalar value().  A span may be the
spec's own read-only memory (a Prefix reads its f once, with
kernels.read_ints, and a DiffBits once, with kernels.step_sum, and each
shares it); a caller that edits a span copies it first.  `value` and
`values` follow from it in FSpec.  `values` takes f in one span where the
family's span allocates nothing but its output (FSpec._one_span: zeros,
linear, floor, gamma2, one-minus-delta, mod, bits and a prefix whose f is
held), and
elsewhere writes f into its one output _BLOCK terms at a time, so that what
a span allocates on the way is small enough to be reused rather than
faulted in fresh: a third of the page faults on perfbench's `drivers`
workload, and a peak near the output itself (see _BLOCK).
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import CapExceeded, InvalidFSpec
from .exactfloor import (
    INT64_MAX,
    INT64_MIN,
    ceil_div_pow,
    ceil_exp_decay,
    floor_gamma_sq,
    floor_gamma_sq_array,
    GAMMA_ARRAY_CAP,
    iroot,
)

ENUM_CAP = 24  # exhaustive slow-prefix enumeration: at most 2^23 sequences
_ENUM_BLOCK = 1 << 16  # enumerate_slow_prefixes builds this many rows at once
_ALPHA_DENOM_CAP = 10**9  # decimal literals -> nearest fraction (approximate)
_FRACPOW_MAX_BITS = 4096
# const-limit pow/exp take the float64 seed only where a is exact in float64
# and, for exp, b and b*n stay normal floats; the rest go term by term
_SEED_A_MAX = 2**52
_EXP_B_MIN, _EXP_B_MAX = 2.0**-900, 2.0**900
_TINY = np.nextafter(0.0, 1.0)  # smallest positive float64
_INT64 = np.dtype(np.int64)
# values() asks _span for at most this many terms at once, where a span
# makes temporaries (not FSpec._one_span).  Each temporary
# of a span is then 64 KiB, which the heap hands back from block to block
# and L2 holds; one span of all n terms faulted in a dozen fresh full-length
# arrays instead.  Measured on a 2-core x86-64 VM, with perfbench's
# reference loop run before each call: values() took 4,714 page faults per
# round of the `drivers` workload as one span, 1,465 in blocks (about 2 us
# each), and at 10^6 terms peaked at 5 to 10 times its output, now 1.05.
_BLOCK = 8192


def _past_int64(spec: FSpec) -> OverflowError:
    return OverflowError(f"{brief_spec(spec)}: f values exceed int64")


class FSpec:
    """Base class for driving-sequence specs."""

    __slots__ = ()  # a family without its own __slots__ keeps a __dict__
    # whether _span allocates nothing but its output, so that values()
    # gains nothing from blocks and takes f in one span
    _one_span = False

    def _span(self, lo: int, hi: int) -> np.ndarray:
        """An array of the exact f(lo), ..., f(hi-1), for
        1 <= lo < hi <= max_len() + 1: int64, or an object array of Python
        ints where a value or an operand leaves int64.  It may be the
        spec's own read-only memory (a Prefix's or a DiffBits' f); a caller
        that edits a span copies it first."""
        raise NotImplementedError

    def value(self, n: int) -> int:
        """Exact f(n) as a Python int."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self._check_len(n)
        return int(self._span(n, n + 1)[0])

    def values(self, n_max: int) -> np.ndarray:
        """f(1..n_max) as an int64 array, which may be the spec's own
        read-only memory; raises InvalidFSpec if the spec cannot produce
        that many terms, OverflowError if one leaves int64.

        A family whose span allocates nothing but its output (_one_span)
        gives f as one span: blocks, which bound a span's temporaries, buy
        it nothing.  Any other writes f, past _BLOCK terms, into the output
        a span of at most _BLOCK terms at a time.  No span after the first
        is a lone term, whose step from the term before no slowness check
        would see."""
        cap = self.max_len()
        if n_max < 1 or cap is not None and n_max > cap:
            self._check_len(n_max)  # raises
        if n_max <= _BLOCK or self._one_span:
            out = self._span(1, n_max + 1)
            if out.dtype is not _INT64:  # an object array: past int64
                raise _past_int64(self)
            return out
        out = np.empty(n_max, dtype=np.int64)
        lo = 1
        while lo <= n_max:
            hi = min(lo + _BLOCK, n_max + 1)
            if hi == n_max:  # the last span takes two terms, not one
                hi -= 1
            block = self._span(lo, hi)
            if block.dtype is not _INT64:
                raise _past_int64(self)
            out[lo - 1:hi - 1] = block
            del block  # so that the next span reuses its memory
            lo = hi
        return out

    def spec_str(self) -> str:
        raise NotImplementedError

    def max_len(self) -> int | None:
        return None

    def _check_len(self, n_max: int) -> None:
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        cap = self.max_len()
        if cap is not None and n_max > cap:
            raise InvalidFSpec(
                f"{brief_spec(self)} yields at most {cap} terms, "
                f"{n_max} requested")

    def __str__(self) -> str:
        return self.spec_str()


@dataclass(frozen=True)
class Zeros(FSpec):
    _one_span = True

    def _span(self, lo, hi):
        return np.zeros(hi - lo, dtype=np.int64)

    def spec_str(self):
        return "zeros"


@dataclass(frozen=True)
class Linear(FSpec):
    """f(n) = n - 1."""

    _one_span = True

    def _span(self, lo, hi):
        return _indices(lo - 1, hi - 1)

    def spec_str(self):
        return "linear"


@dataclass(frozen=True)
class FloorRatio(FSpec):
    """f(n) = scale * floor((num*n + shift) / den).

    Plain floor(p*n/q) is the shift=0, scale=1 case; shift covers forms like
    floor((n+2)/4), scale covers forms like 2*floor((n-1)/2).  Exact past
    int64 intermediates: only an f(n) beyond int64 is an OverflowError.
    """

    num: int
    den: int
    shift: int = 0
    scale: int = 1

    def __post_init__(self):
        if self.den < 1:
            raise InvalidFSpec("floor ratio: denominator must be >= 1")
        if self.num < 0:
            raise InvalidFSpec("floor ratio: numerator must be >= 0")
        if self.scale == 0:
            raise InvalidFSpec("floor ratio: scale must be nonzero")

    @property
    def _one_span(self):
        """Whether the int64 route, in place on the indices, holds up to
        2**31 terms, the longest trace compute_q takes.  Exact Python ints
        go in blocks: at 10**6 terms one span of them took 11 times the
        time of blocks and peaked at 12 times the output."""
        return _int64_route(2**31, self.num, self.den, self.shift, self.scale)

    def _span(self, lo, hi):
        return _floor_ratio(_indices(lo, hi), self.num, self.den, self.shift,
                            self.scale)

    def spec_str(self):
        s = f"floor:{self.num}/{self.den}"
        if self.shift:
            s += f":shift={self.shift}"
        if self.scale != 1:
            s += f":scale={self.scale}"
        return s


@dataclass(frozen=True)
class GammaSq(FSpec):
    """f(n) = floor(gamma^2 * n), gamma = (sqrt(5)-1)/2: the kernel's
    floors, written over the span's own indices, up to GAMMA_ARRAY_CAP;
    a span past it, where 5 n^2 leaves int64, goes term by term through
    the scalar floor."""

    _one_span = True

    def _span(self, lo, hi):
        if hi - 1 <= GAMMA_ARRAY_CAP:
            out = _indices(lo, hi)
            return floor_gamma_sq_array(out, out)
        return _exact([floor_gamma_sq(n) for n in range(lo, hi)])

    def spec_str(self):
        return "gamma2"


@dataclass(frozen=True)
class OneMinusDelta(FSpec):
    """f(n) = 1 everywhere except a single 0 at index n1."""

    n1: int = 1
    _one_span = True

    def __post_init__(self):
        if self.n1 < 1:
            raise InvalidFSpec("one-minus-delta: index must be >= 1")

    def _span(self, lo, hi):
        out = np.ones(hi - lo, dtype=np.int64)
        if lo <= self.n1 < hi:
            out[self.n1 - lo] = 0
        return out

    def spec_str(self):
        return f"one-minus-delta:{self.n1}"


@dataclass(frozen=True)
class ModM(FSpec):
    """f(n) = (n - 1) mod m.  Not slow for m >= 2, but Q(f) still exists."""

    m: int
    _one_span = True

    def __post_init__(self):
        if self.m < 1:
            raise InvalidFSpec("mod: modulus must be >= 1")

    def _span(self, lo, hi):
        """One period written in place, then copied from what is written,
        each in doubling steps: no int64 `%`, which took four times `//`
        (240 us against 59 per 60,000 terms), and no temporary."""
        m, size = self.m, hi - lo
        if hi - 1 <= m:  # every n - 1 < m: mod is the identity
            return _indices(lo - 1, hi - 1)
        if m > INT64_MAX:  # then so are the indices: Python ints
            return _indices(lo - 1, hi - 1) % m
        out = np.empty(size, dtype=np.int64)
        # the first period less m, which stays in int64, then m added back
        # before its wrap to 0
        period, first = min(m, size), (lo - 1) % m
        out[0] = first - m
        done = 1
        while done < period:
            k = min(done, period - done)
            np.add(out[:k], done, out=out[done:done + k])
            done += k
        out[:m - first] += m
        while done < size:  # whole periods on: done is a multiple of m
            k = min(done, size - done)
            out[done:done + k] = out[:k]
            done += k
        return out

    def spec_str(self):
        return f"mod:{self.m}"


@dataclass(frozen=True, init=False)
class Prefix(FSpec):
    """Explicit finite prefix.

    The exhaustive sweeps build one per compute_q call and keep it in the
    trace, so it holds its field, and its f, in slots, with no __dict__.
    The slots are declared here, not by dataclass(slots=True), which makes
    a second class and leaves the first among FSpec's subclasses.  A value
    that is not an integer is kept only where int(v) == v, as 2.0 is.

    A tuple of exact ints in int64 is kept as it is, and kernels.read_ints
    reads it once, in one pass, into the read-only int64 array _f, which
    every span and trace of the prefix shares.  Where that pass stops early,
    at a value that is not an exact int, as a numpy integer or 2.0 is, the
    values are converted and read again.  Only where a value lies outside
    int64 is _f None, and each span reads its own from the tuple.  _f is
    not a field: equality, hashing, repr and copies see only prefix, and a
    copy reads its own."""

    __slots__ = ("prefix", "_f")
    prefix: tuple[int, ...]

    def __init__(self, prefix):
        if type(prefix) is not tuple:
            prefix = tuple(prefix)
        if not prefix:
            raise InvalidFSpec("prefix: need at least one value")
        f = np.empty(len(prefix), np.int64)
        if kernels.read_ints(prefix, f) == len(prefix):
            f.setflags(False)  # write=False
        else:
            try:  # int(v) for every integer v, at half the cost of int()
                prefix = tuple(map(operator.index, prefix))
            except TypeError:
                prefix = tuple(map(_integral, prefix,
                                   range(1, len(prefix) + 1)))
            if kernels.read_ints(prefix, f) == len(prefix):
                f.setflags(False)
            else:  # a value outside int64
                f = None
        _set_prefix(self, prefix)
        _set_f(self, f)

    def __reduce__(self):  # copy and pickle, past the frozen __setattr__
        return Prefix, (self.prefix,)

    @property
    def _one_span(self):
        """A held f is every span's memory: blocks would only copy it."""
        return self._f is not None

    def _span(self, lo, hi):
        f = self._f
        if f is None:
            return _exact(self.prefix[lo - 1:hi - 1])
        return _held_span(f, lo, hi)

    def max_len(self):
        return len(self.prefix)

    def spec_str(self):
        return "prefix:" + ",".join(str(v) for v in self.prefix)


# the slots' own setters, past the frozen __setattr__
_set_prefix, _set_f = Prefix.prefix.__set__, Prefix._f.__set__


def _integral(v, n: int) -> int:
    """f(n) = v of an explicit prefix as an int: operator.index(v), or int(v)
    where that equals v; InvalidFSpec for any other value."""
    try:
        return operator.index(v)
    except TypeError:
        pass
    try:
        w = int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if w == v:
            return w
    raise InvalidFSpec(
        f"prefix: f({n}) = {brief(repr(v), str)} is not an integer")


_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")  # DiffBits' bits to digits


@dataclass(frozen=True)
class DiffBits(FSpec):
    """The unique slow zero-start sequence whose difference string is `bits`.

    bits are stored as a bytes object of 0/1 values; a length-m prefix needs
    m-1 bits.  Given as a string of the digits 0 and 1, they are the
    string's bytes less ord('0'), in which every other byte, a multi-byte
    character's included, wraps above 1; given as bytes or a sequence of
    ints, they are the values themselves.  Either way one uint8 max over
    the array checks them.  f, their running sum, is read once, by one
    kernels.step_sum call, into the read-only int64 array _f, which every
    span and trace of the spec shares, as a Prefix's f.  _f is not a
    field: equality, hashing, repr and copies see only bits, and a copy
    reads its own.
    """

    bits: bytes
    _one_span = True

    def __post_init__(self):
        raw = self.bits
        if isinstance(raw, str):
            arr = np.frombuffer(raw.encode(), np.uint8) - ord("0")
            raw = arr.tobytes()
        else:
            if not isinstance(raw, bytes):
                raw = bytes(int(b) for b in raw)
            arr = np.frombuffer(raw, np.uint8)
        if arr.max(initial=0) > 1:
            raise InvalidFSpec("bits: differences must be 0 or 1")
        f = np.empty(len(raw) + 1, dtype=np.int64)
        kernels.step_sum(arr, 0, f)
        f.setflags(False)  # write=False
        object.__setattr__(self, "bits", raw)
        object.__setattr__(self, "_f", f)

    def __reduce__(self):  # copy and pickle: bits alone, as a Prefix does
        return DiffBits, (self.bits,)

    def _span(self, lo, hi):
        return _held_span(self._f, lo, hi)

    def max_len(self):
        return len(self.bits) + 1

    def spec_str(self):
        return "bits:" + self.bits.translate(_TO_DIGITS).decode()


@dataclass(frozen=True)
class Shifted(FSpec):
    """k leading zeros, then the inner sequence: f'(n) = f(n-k) for n > k."""

    k: int
    inner: FSpec

    def __post_init__(self):
        if self.k < 1:
            raise InvalidFSpec("shift: k must be >= 1")

    def _span(self, lo, hi):
        if hi - 1 <= self.k:
            return np.zeros(hi - lo, dtype=np.int64)
        tail = self.inner._span(max(lo - self.k, 1), hi - self.k)
        if lo > self.k:
            return tail
        head = np.zeros(self.k - lo + 1, dtype=np.int64)
        return np.concatenate([head, tail])

    def max_len(self):
        cap = self.inner.max_len()
        return None if cap is None else cap + self.k

    def spec_str(self):
        return f"shift:{self.k}:({self.inner.spec_str()})"


@dataclass(frozen=True)
class Perturbed(FSpec):
    """Inner sequence with `amount` added at the single index `at`."""

    inner: FSpec
    at: int
    amount: int

    def __post_init__(self):
        if self.at < 1:
            raise InvalidFSpec("perturb: index must be >= 1")

    def _span(self, lo, hi):
        out = self.inner._span(lo, hi)
        if lo <= self.at < hi:
            # numpy would wrap the int64 sum; add in Python ints and check
            v = int(out[self.at - lo]) + self.amount
            if not INT64_MIN <= v <= INT64_MAX:
                out = out.astype(object)
            elif not out.flags.writeable:  # the inner spec's own memory
                out = out.copy()
            out[self.at - lo] = v
        return out

    def max_len(self):
        return self.inner.max_len()

    def spec_str(self):
        return f"perturb:{self.at}:{self.amount:+d}:({self.inner.spec_str()})"


# each const-limit form, with the keys its text may give
_CONST_LIMIT_KEYS = {"sqrt": ("a",), "exp": ("a", "b"), "pow": ("a", "b"),
                     "clamp": ("alpha", "n0")}


def _refuses_non_slow(span):
    """The _span of a family documented slow, which refuses parameters that
    are not slow in every span of more than one term and in every span from
    f(1) on: for values(), and under a shift or perturb.  A span from lo > 1
    is built from lo - 1, so that its first step, from the last term of the
    span before, is checked too.  f(1) and f(2) come first, from value(), so
    most such parameters fail before a span is built, and a head past int64
    is an OverflowError at once: values() refuses the span that holds it."""

    @functools.wraps(span)
    def checked(self, lo, hi):
        if lo > 1:
            if hi - lo == 1:  # a lone term, as value() reads it: unchecked
                return span(self, lo, hi)
            out = span(self, lo - 1, hi)
            if out.dtype is _INT64:
                _require_slow(out, self, lo - 1)
            return out[1:]
        # no head for one term, the span a clamp's value(1) reads
        if hi > 2:
            head = _exact([self.value(1), self.value(2)])
            if head.dtype is not _INT64:
                raise _past_int64(self)
            _require_slow(head, self)
        out = span(self, lo, hi)
        if out.dtype is _INT64:
            _require_slow(out, self)
        return out

    return checked


@dataclass(frozen=True)
class ConstLimit(FSpec):
    """Sequences approaching a constant (or clamped-linear) limit.

    Forms: sqrt  f(n) = floor(a - a/sqrt(n)): pow with b = 1/2
           exp   f(n) = floor(a - a*exp(-b*n))
           pow   f(n) = floor(a - a/n^b)
           clamp f(n) = floor(alpha*n) for n < n0, else floor(alpha*n0)

    clamp evaluates as FloorRatio does, at min(n, n0).  The other forms
    keep an exact scalar value(), the certificate for their float seed.
    """

    form: str
    a: int = 0
    b: Fraction | None = None
    alpha: Fraction | None = None
    n0: int | None = None

    def __post_init__(self):
        if self.form not in _CONST_LIMIT_KEYS:
            raise InvalidFSpec(
                f"const-limit: unknown form {brief(str(self.form))}")
        if self.form == "clamp":
            if self.alpha is None or self.n0 is None:
                raise InvalidFSpec("const-limit clamp: need alpha and n0")
            object.__setattr__(self, "alpha", Fraction(self.alpha))
            if not (0 <= self.alpha < 1):
                raise InvalidFSpec("const-limit clamp: need 0 <= alpha < 1")
            if self.n0 < 1:
                raise InvalidFSpec("const-limit clamp: need n0 >= 1")
        else:
            if self.a < 1:
                raise InvalidFSpec("const-limit: need a >= 1")
            if self.form == "sqrt":  # evaluated as pow at b = 1/2
                object.__setattr__(self, "b", Fraction(1, 2))
            if self.b is None:
                raise InvalidFSpec(f"const-limit {self.form}: need b")
            object.__setattr__(self, "b", Fraction(self.b))
            if self.b <= 0:
                raise InvalidFSpec("const-limit: need b > 0")
            if self.form == "pow" and (self.b.numerator > 64
                                       or self.b.denominator > 64):
                raise InvalidFSpec("const-limit pow: b out of range")

    def value(self, n):
        if self.form == "clamp":
            return FSpec.value(self, n)
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.form == "exp":
            return self.a - ceil_exp_decay(self.a, n, self.b.numerator,
                                           self.b.denominator)
        return self.a - ceil_div_pow(self.a, n, self.b.numerator,
                                     self.b.denominator)

    @functools.cached_property
    def _saturated_from(self) -> int:
        """An N with f(n) = a - 1 for every n >= N (not clamp): the decaying
        term x has ceiling 1 exactly where 0 < x <= 1.  For pow, the least:
        a / n^(p/q) <= 1 iff n^p >= a^q, so N = ceil(a^(q/p)).  For exp,
        ceil_exp_decay's own test, n >= L q / p with L = a.bit_length()."""
        p, q = self.b.numerator, self.b.denominator
        if self.form == "exp":
            return -(-self.a.bit_length() * q // p)
        root, exact = iroot(self.a**q, p)
        return root if exact else root + 1

    @_refuses_non_slow
    def _span(self, lo, hi):
        """f(lo..hi-1): a - 1 from _saturated_from on; before it a float64
        seed, or value() term by term where the seed does not apply."""
        if self.form == "clamp":
            # n0 may exceed int64: clip it to the span before numpy
            n = np.minimum(_indices(lo, hi), min(hi - 1, self.n0))
            return _floor_ratio(n, self.alpha.numerator,
                                self.alpha.denominator)
        cut = min(max(lo, self._saturated_from), hi)
        if cut == hi:
            return self._decaying(lo, hi)
        limit = np.full(hi - cut, self.a - 1,
                        dtype=np.int64 if self.a - 1 <= INT64_MAX else object)
        if cut == lo:
            return limit
        return np.concatenate([self._decaying(lo, cut), limit])

    def _decaying(self, lo, hi):
        """f(lo..hi-1) where the decaying term is evaluated: a - ceil(x)
        from the certified float64 seed of _decay_ceil, at b = 1/2 as at
        any other b, where a <= 2^52 and, for exp, 2^-900 < b < 2^900;
        else value() term by term.  At b = 1/2 a slow spec has a <= 6
        (from a = 7 on, f(2) - f(1) >= 2), so at most 35 terms decay."""
        if hi - lo > 1 and self.a <= _SEED_A_MAX and (
                self.form != "exp" or _EXP_B_MIN < self.b < _EXP_B_MAX):
            out = self._decay_ceil(lo, hi)
            return np.subtract(self.a, out, out=out)
        return _exact([self.value(n) for n in range(lo, hi)])

    def _decay_ceil(self, lo, hi):
        """ceil(x) for x = a/n^b (pow) or a*exp(-b*n) (exp), n = lo..hi-1,
        from a float64 seed.

        Error bound, with u = 2**-53 and numpy's log and exp trusted to
        4 ulp (relative 8u; about 1u measured against mpmath):
          float(b) = b (1 + e1), |e1| <= u (correctly rounded);
          log(n) = ln(n) (1 + e2), |e2| <= 8u (pow only: exp uses n itself,
            exact below 2**53);
          t = float(b) * log(n) rounds by (1 + e3), |e3| <= u, so t is
            within 10u*t (+ O(u^2)) of the true argument, and exp(-t) is off
            by a factor exp(10u*t) from that alone;
          exp(-t) rounds by (1 + e4), |e4| <= 8u;
          a * exp(-t) is exact in a (a <= 2**52) and rounds by (1 + e5),
            |e5| <= u.
        So x is within (10t + 10)u * x of the true value, plus O(u^2);
        (16t + 16)u * x also covers the rounding of x - err and x + err.
        Where exp(-t) underflows the relative bound fails, but then t > 708,
        the true x is below 2**52 * e**-700 < 1 and so is x + err, which the
        clip at 0 in `_certified_round` settles: ceil is 1.
        """
        t = np.arange(lo, hi, dtype=np.float64)
        if self.form != "exp":
            np.log(t, out=t)
        t *= float(self.b)
        x = np.negative(t)
        np.exp(x, out=x)
        x *= self.a
        err = t  # x (16 t + 16) 2**-53, in place of t
        err *= 16
        err += 16
        err *= x
        err *= 2.0**-53
        return _certified_round(x, err, lambda k: self.a - self.value(k), lo,
                                ceil=True)

    def spec_str(self):
        if self.form == "clamp":
            return f"const-limit:clamp:alpha={self.alpha},n0={self.n0}"
        if self.form == "sqrt":
            return f"const-limit:sqrt:a={self.a}"
        return f"const-limit:{self.form}:a={self.a},b={self.b}"


@dataclass(frozen=True)
class FracPowerSum(FSpec):
    """f(n) = floor(sum of c_i * n^(e_i)) with rational c_i and e_i in [0, 1).

    Floors are certified with scaled-integer root brackets: each n^(e_i) is
    bracketed between consecutive multiples of 2^-bits via an integer root,
    exactly when the root is rational.  The bracket is narrowed until both
    ends share a floor.  That exact scalar value() is the certificate for
    the float seed of _span().
    """

    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        merged: dict[Fraction, Fraction] = {}
        order: list[Fraction] = []
        for c, e in self.terms:
            c, e = Fraction(c), Fraction(e)
            if not (0 <= e < 1):
                raise InvalidFSpec("fracpow: exponents must be in [0, 1)")
            if e.denominator > 64:
                raise InvalidFSpec("fracpow: exponent denominator too large")
            if e not in merged:
                merged[e] = c
                order.append(e)
            else:
                merged[e] += c
        terms = tuple((merged[e], e) for e in order if merged[e] != 0)
        if not terms:
            terms = ((Fraction(0), Fraction(0)),)
        object.__setattr__(self, "terms", terms)
        lcm = math.lcm(*(c.denominator for c, _ in terms))
        const = sum((c for c, e in terms if e == 0), Fraction(0))
        irr = tuple((c.numerator * (lcm // c.denominator),
                     e.numerator, e.denominator)
                    for c, e in terms if e != 0)
        object.__setattr__(self, "_denom_lcm", lcm)
        object.__setattr__(self, "_const_scaled", const.numerator
                           * (lcm // const.denominator))
        object.__setattr__(self, "_irr", irr)

    def _floor_at(self, n, bits):
        lcm = self._denom_lcm
        lo = hi = self._const_scaled << bits
        for m_i, p, q in self._irr:
            root, exact = iroot((n**p) << (bits * q), q)
            r_hi = root if exact else root + 1
            if m_i >= 0:
                lo += m_i * root
                hi += m_i * r_hi
            else:
                lo += m_i * r_hi
                hi += m_i * root
        den = lcm << bits
        flo, fhi = lo // den, hi // den
        return int(flo) if flo == fhi else None

    def value(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        # exact at once where every root is: at n = 1, or with no n^e term
        bits = 48
        while bits <= _FRACPOW_MAX_BITS:
            got = self._floor_at(n, bits)
            if got is not None:
                return got
            bits *= 2
        raise InvalidFSpec(
            "fracpow: cannot certify floor (value is an exact integer "
            "through irrational cancellation)")

    @_refuses_non_slow
    def _span(self, lo, hi):
        """Vectorized evaluation: float64 carries a certified error budget,
        so its floor is trusted except within that budget of an integer,
        where the exact path decides.  OverflowError where the float sum
        leaves int64; one term is value() itself."""
        if hi - lo == 1:
            return _exact([self.value(lo)])
        n = np.arange(lo, hi, dtype=np.float64)
        total = np.zeros(hi - lo)
        # the sum of |c_i n^e_i|, which is total itself when no c_i < 0
        magnitude = (np.zeros(hi - lo) if any(c < 0 for c, _ in self.terms)
                     else total)
        root = None  # sqrt(n), for n^(1/2) and n^(1/4) alike
        for c, e in self.terms:
            # sqrt is correctly rounded, and two of them err by under 2 ulp
            if e.numerator == 1 and e.denominator in (2, 4):
                if root is None:
                    root = np.sqrt(n)
                power = root if e.denominator == 2 else np.sqrt(root)
            else:
                power = n ** float(e)
            term = power * float(c)
            total += term
            if magnitude is not total:
                magnitude += np.abs(term, out=term)
        # per-term float64 error is a few ulp; 1e-13 relative is ~450 ulp
        err = 1e-13 * magnitude
        err += 1e-12
        return _certified_round(total, err, self.value, lo)

    def spec_str(self):
        parts = []
        for c, e in self.terms:
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"n^{e}")
            else:
                parts.append(f"{c}*n^{e}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return "fracpow:" + out


def _indices(lo: int, hi: int) -> np.ndarray:
    """lo, ..., hi-1 as int64, or as Python ints where hi leaves int64."""
    return np.arange(lo, hi, dtype=np.int64 if hi <= INT64_MAX else object)


def _held_span(f: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """f(lo..hi-1) from a spec's held, read-only f: f itself for the whole,
    else a view, read-only as f is."""
    return f if lo == 1 and hi > len(f) else f[lo - 1:hi - 1]


def _exact(vals) -> np.ndarray:
    """The Python ints vals as int64 where all fit, else as objects."""
    try:  # fromiter: 10-15% faster than np.array from 3 values on
        return np.fromiter(vals, np.int64)
    except OverflowError:
        return np.array(vals, dtype=object)


def _int64_route(top: int, num: int, den: int, shift: int = 0,
                 scale: int = 1) -> bool:
    """Whether scale * floor((num*n + shift) / den) keeps every intermediate
    in int64 for 1 <= n <= top."""
    return (max(abs(num) * top + abs(shift), 1) * abs(scale) <= INT64_MAX
            and den <= INT64_MAX)


def _floor_ratio(n: np.ndarray, num: int, den: int, shift: int = 0,
                 scale: int = 1) -> np.ndarray:
    """scale * floor((num*n + shift) / den) for the ascending positive
    indices n.  In int64, in place in n, where every intermediate fits,
    else in exact Python ints, which stay objects where a value leaves
    int64."""
    if _int64_route(int(n[-1]), num, den, shift, scale):
        if num != 1:
            n *= num
        if shift:
            n += shift
        if den != 1:
            n //= den
        if scale != 1:
            n *= scale
        return n
    return _exact(scale * ((num * n.astype(object) + shift) // den))


def _certified_round(x: np.ndarray, err, exact, first: int,
                     ceil: bool = False) -> np.ndarray:
    """int64 floors of the reals that the float64 array `x` approximates to
    within the proven absolute error `err`, a float64 array this overwrites;
    with `ceil`, ceilings of reals known to be > 0 (the one caller is a
    decaying positive term), so the bracket is clipped at 0 from below and a
    term under 1 has ceiling 1.

    Where every real in [x - err, x + err] rounds to the same integer, that
    integer is the answer; elsewhere, i.e. where x lies within err of an
    integer, `exact(n)` gives it for n = index + first.
    """
    # the int64 cast is undefined from 2**63 on (NaN fails both tests)
    if not (-2.0**62 < x.min() and x.max() < 2.0**62):
        raise OverflowError("values exceed int64")
    lo = x - err
    hi = np.add(x, err, out=err)
    rnd = np.ceil if ceil else np.floor
    for end in (lo, hi):
        if ceil:
            np.maximum(end, _TINY, out=end)
        rnd(end, out=end)
    out = lo.astype(np.int64)
    near = lo != hi
    if near.any():
        for i in np.flatnonzero(near):
            out[i] = exact(int(i) + first)
    return out


def _require_slow(values: np.ndarray, spec: FSpec, first: int = 1) -> None:
    """Generation-time check for specs documented as slow zero-start, on
    the int64 values f(first), f(first + 1), ...; f(1) = 0 when first = 1."""
    if first == 1 and values[0] != 0:
        raise InvalidFSpec(
            f"{brief_spec(spec)}: f(1) = {values[0]}, not 0")
    if len(values) > 1:
        d = np.diff(values)
        # a step outside {0, 1} is one above 1 as uint64, negative ones too
        bad = d.view(np.uint64) > 1
        if bad.any():
            k = int(bad.argmax())
            raise InvalidFSpec(
                f"{brief_spec(spec)}: difference f({k + first + 1}) - "
                f"f({k + first}) = {int(d[k])} is outside {{0, 1}}")


# ---------------------------------------------------------------------------
# operations


def shift_f(spec: FSpec, k: int) -> FSpec:
    """Spec generating k leading zeros followed by the inner sequence."""
    if k < 1:
        raise ValueError("shift_f: k must be >= 1")
    if isinstance(spec, Zeros):
        return spec
    if isinstance(spec, Shifted):
        return Shifted(spec.k + k, spec.inner)
    return Shifted(k, spec)


def enumerate_slow_prefixes(m: int):
    """Yield all 2^(m-1) slow zero-start prefixes of length m, as tuples, in
    lexicographic difference-bitstring order: the rows of
    slow_prefix_matrix, built _ENUM_BLOCK rows at a time.  CapExceeded for
    m > ENUM_CAP."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > ENUM_CAP:
        raise CapExceeded(f"enumeration cap is m <= {ENUM_CAP}, got {m}")
    total = 1 << (m - 1)
    for lo in range(0, total, _ENUM_BLOCK):
        block = slow_prefix_matrix(m, lo, min(lo + _ENUM_BLOCK, total))
        # each tuple straight from the columns' lists, not a row list copied
        yield from zip(*block.T.tolist())


def slow_prefix_matrix(m: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the difference-bitstring enumeration of length-m slow
    prefixes, as an (hi-lo, m) int64 matrix: row i has the m-1 bits of i,
    most significant first, as its successive differences."""
    if m < 1:
        raise ValueError("m must be >= 1")
    nbits = m - 1
    if not (0 <= lo <= hi <= 1 << nbits):
        raise ValueError("bad block range")
    masks = np.arange(lo, hi, dtype=np.int64)
    out = np.zeros((hi - lo, m), dtype=np.int64)
    if nbits:
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.int64)
        bits = (masks[:, None] >> shifts[None, :]) & 1
        np.cumsum(bits, axis=1, out=out[:, 1:])
    return out


def floor_alpha_interval(prefix) -> tuple[Fraction, Fraction] | None:
    """Feasible half-open interval [lo, hi) of alpha with
    floor(alpha*n) = prefix[n-1] for all n, or None if empty.

    Witnesses that some slow prefixes (e.g. (0,0,1,2)) cannot come from any
    floor(alpha*n) spec."""
    lo, hi = Fraction(0), None
    for i, v in enumerate(prefix):
        n = i + 1
        lo = max(lo, Fraction(v, n))
        top = Fraction(v + 1, n)
        hi = top if hi is None else min(hi, top)
        if hi <= lo:
            return None
    return lo, hi


# ---------------------------------------------------------------------------
# grammar


def as_fspec(obj) -> FSpec:
    """Coerce an FSpec, grammar string, or explicit integer sequence."""
    if type(obj) is tuple:  # the exhaustive sweeps' case, first
        return Prefix(obj)
    if isinstance(obj, FSpec):
        return obj
    if isinstance(obj, str):
        return parse_fspec(obj)
    if isinstance(obj, (bytes, bytearray)):
        raise TypeError("ambiguous bytes; pass DiffBits(...) or a list")
    try:
        return Prefix(obj)  # which converts each value once
    except TypeError:
        raise TypeError(f"cannot interpret {obj!r} as an f-spec") from None


_BRIEF = 24  # brief() quotes at most this many characters of a text
_BRIEF_SPEC = 64  # and brief_spec() this many of a spec's text
_INT_LITERAL = re.compile(r"\s*[+-]?\d(?:_?\d)*\s*")  # what int() reads
# what Fraction() or _parse_rational reads, P/Q or a decimal with an
# exponent; compiled by re's cache on the first error that needs it
_NUMBER_LITERAL = (r"\s*[+-]?(?:\d(?:_?\d)*\s*/\s*[+-]?\d(?:_?\d)*"
                   r"|(?:\d(?:_?\d)*(?:\.(?:\d(?:_?\d)*)?)?|\.\d(?:_?\d)*)"
                   r"(?:[eE][+-]?\d(?:_?\d)*)?)\s*")


def brief(text: str, spell=repr, limit: int = _BRIEF) -> str:
    """spell(text), or for a text over `limit` characters spell of its
    first `limit`, '...' and the text's length: a message that quotes a
    text stays one short line."""
    if len(text) <= limit:
        return spell(text)
    return f"{spell(text[:limit])}... ({len(text)} characters)"


def brief_spec(spec: FSpec) -> str:
    """spec's text as a message quotes it: brief, but whole up to
    _BRIEF_SPEC characters, which most specs' texts are."""
    return brief(spec.spec_str(), limit=_BRIEF_SPEC)


def _over_digit_limit(text: str, literal) -> str | None:
    """'is longer than Python's N-digit integer limit' for a text that
    `literal` reads and that is longer than the N digits int() reads
    (sys.get_int_max_str_digits(), 4300 unless set otherwise): the one
    reason left why int() or Fraction() refuses it.  None otherwise."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(text) and re.fullmatch(literal, text):
        return f"is longer than Python's {limit}-digit integer limit"
    return None


def int_literal(text: str) -> int:
    """int(text), or a ValueError that quotes text by brief and says why
    not: it is not an integer, or it is one with more digits than int()
    reads (sys.get_int_max_str_digits(), 4300 unless set otherwise)."""
    try:
        return int(text)
    except ValueError:
        why = _over_digit_limit(text, _INT_LITERAL) or "is not an integer"
        raise ValueError(f"{brief(text)} {why}") from None


def _decimal(text: str):
    """The decimal literal text (a P/Q is not one) as a decimal.Decimal,
    whose exponent stays symbolic however large, where Fraction(text)
    would expand it into 10**exponent.  An exponent past even Decimal's
    range reads as an infinity, or as the least nonzero Decimal of the
    literal's sign.  None when text is not such a literal."""
    if "/" in text or not re.fullmatch(_NUMBER_LITERAL, text):
        return None
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              Emin=decimal.MIN_EMIN, traps=[])
    value = context.create_decimal(text.strip().replace("_", ""))
    if context.flags[decimal.Underflow]:  # nonzero, yet rounded to 0
        return decimal.Decimal((value.is_signed(), (1,), context.Etiny()))
    return value


def _past_digit_limit(text: str, value, denominator: bool) -> str | None:
    """'is longer than Python's N-digit integer limit' when the decimal
    literal text, read as the Decimal value, is longer than the N digits
    int() reads (sys.get_int_max_str_digits(), 4300 unless set
    otherwise), or its value is nonzero and would have, as a Fraction, an
    integer part or (with denominator) a denominator of more than N
    digits; None otherwise."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit and (len(text) > limit or value and not (
            value.is_finite() and value.adjusted() < limit
            and (not denominator or -value.as_tuple().exponent <= limit))):
        return f"is longer than Python's {limit}-digit integer limit"
    return None


def fraction_literal(text: str) -> Fraction:
    """Fraction(text), or a ValueError that quotes text by brief and says
    why not, as int_literal does: it is not a number, or it is one with a
    part of more digits than int() reads, or that would have an integer
    part or a denominator of that many digits (such as 1e-9999999, which
    is read without expanding its exponent)."""
    exact = _decimal(text) if "e" in text.lower() else None
    if exact is not None:
        why = _past_digit_limit(text, exact, denominator=True)
        if why:
            raise ValueError(f"{brief(text)} {why}")
        if not exact:  # 0, whose exponent Fraction would expand too
            return Fraction(0)
    try:
        return Fraction(text)
    except ValueError:
        why = _over_digit_limit(text, _NUMBER_LITERAL) or "is not a number"
        raise ValueError(f"{brief(text)} {why}") from None


# a decimal of magnitude below 10^_NEAR_ZERO lies nearer 0 than
# 1/_ALPHA_DENOM_CAP does, so that _parse_rational rounds it to 0
_NEAR_ZERO = -len(str(2 * _ALPHA_DENOM_CAP))


def _parse_rational(text: str) -> Fraction:
    """P/Q or an integer exactly; a decimal literal as the nearest fraction
    with denominator <= _ALPHA_DENOM_CAP.  A decimal's exponent is read
    symbolically: one so small that the value rounds to 0 gives 0 at once,
    and an integer part of more digits than int() reads is refused, so
    that no literal of a few characters expands into 10**exponent."""
    text = text.strip()
    if "/" not in text and ("." in text or "e" in text.lower()):
        exact = _decimal(text)
        if exact is not None:
            why = _past_digit_limit(text, exact, denominator=False)
            if why:
                raise InvalidFSpec(f"rational {brief(text)} {why}")
            if not exact or exact.adjusted() < _NEAR_ZERO:
                return Fraction(0)
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        if "." in text or "e" in text.lower():
            return Fraction(text).limit_denominator(_ALPHA_DENOM_CAP)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        why = _over_digit_limit(text, _NUMBER_LITERAL)
        if why:
            raise InvalidFSpec(f"rational {brief(text)} {why}") from None
        raise InvalidFSpec(f"bad rational {brief(text)}") from exc


def _parse_int(text: str) -> int:
    try:
        return int_literal(text)
    except ValueError as exc:
        raise InvalidFSpec(str(exc)) from None


def _split_inner(text: str, head: str) -> tuple[list[str], str]:
    """Split 'a:b:(inner)' into leading fields and the parenthesized tail.
    Every field is kept, an empty one too, so that 'a::b:(inner)' has
    three."""
    if not text.endswith(")") or "(" not in text:
        raise InvalidFSpec(f"{head}: expected trailing (inner-spec)")
    open_idx = text.index("(")
    lead = text[:open_idx].removesuffix(":")
    fields = lead.split(":") if lead else []
    inner = text[open_idx + 1:-1]
    return fields, inner


def _parse_kv(text: str, head: str) -> dict[str, str]:
    """The comma-separated key=value pairs of text, each key at most once."""
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise InvalidFSpec(
                f"{head}: expected key=value, got {brief(part)}")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in out:
            raise InvalidFSpec(f"{head}: repeated key {brief(k)}")
        out[k] = v.strip()
    return out


_FRACPOW_TERM = re.compile(r"^([+-]?(?:[0-9][0-9/.]*)?)(?:\*?n\^([0-9/]+))?$")


def _parse_fracpow(expr: str) -> FracPowerSum:
    if not expr:
        raise InvalidFSpec("fracpow: empty expression")
    compact = expr.replace(" ", "")
    tokens = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(tokens) != compact:
        raise InvalidFSpec(f"fracpow: cannot parse {brief(expr)}")
    terms = []
    for tok in tokens:
        m = _FRACPOW_TERM.match(tok)
        if not m or (not m.group(1) and m.group(2) is None):
            raise InvalidFSpec(f"fracpow: bad term {brief(tok)}")
        coeff_text, expo_text = m.group(1), m.group(2)
        if coeff_text in ("", "+", "-") and expo_text is None:
            raise InvalidFSpec(f"fracpow: bad term {brief(tok)}")
        if coeff_text in (None, "", "+", "-"):
            coeff = Fraction(-1 if coeff_text == "-" else 1)
        else:
            sign = 1
            if coeff_text[0] in "+-":
                sign = -1 if coeff_text[0] == "-" else 1
                coeff_text = coeff_text[1:]
            coeff = sign * _parse_rational(coeff_text)
        expo = _parse_rational(expo_text) if expo_text else Fraction(0)
        terms.append((coeff, expo))
    return FracPowerSum(tuple(terms))


_BARE = {"zeros": Zeros, "linear": Linear, "gamma2": GammaSq}  # no parameters


def parse_fspec(text: str) -> FSpec:
    """Parse the grammar in the module docstring."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    head = head.lower()
    if head in _BARE:
        if sep:
            raise InvalidFSpec(f"{head}: takes no parameters, got"
                               f" {brief(rest)}")
        return _BARE[head]()
    if head == "floor":
        fields = rest.split(":")
        if not fields or not fields[0]:
            raise InvalidFSpec("floor: expected floor:P/Q")
        ratio = _parse_rational(fields[0])
        options = {}  # shift and scale, each at most once
        for extra in fields[1:]:
            k, _, v = extra.partition("=")
            if k not in ("shift", "scale"):
                raise InvalidFSpec(f"floor: unknown option {brief(extra)}")
            if k in options:
                raise InvalidFSpec(f"floor: repeated option {brief(extra)}")
            options[k] = _parse_int(v)
        return FloorRatio(ratio.numerator, ratio.denominator, **options)
    if head == "one-minus-delta":
        return OneMinusDelta(_parse_int(rest))
    if head == "mod":
        return ModM(_parse_int(rest))
    if head == "prefix":
        if not rest:
            raise InvalidFSpec("prefix: expected comma-separated values")
        return Prefix(tuple(_parse_int(v) for v in rest.split(",")))
    if head == "bits":
        try:
            return DiffBits(rest)
        except InvalidFSpec:
            raise InvalidFSpec("bits: expected a string of 0/1") from None
    if head == "shift":
        fields, inner = _split_inner(rest, "shift")
        if len(fields) != 1:
            raise InvalidFSpec("shift: expected shift:K:(SPEC)")
        return Shifted(_parse_int(fields[0]), parse_fspec(inner))
    if head == "perturb":
        fields, inner = _split_inner(rest, "perturb")
        if len(fields) != 2:
            raise InvalidFSpec("perturb: expected perturb:N1:+A:(SPEC)")
        return Perturbed(parse_fspec(inner), _parse_int(fields[0]),
                         _parse_int(fields[1]))
    if head == "const-limit":
        form, _, params = rest.partition(":")
        kv = _parse_kv(params, "const-limit")
        if form not in _CONST_LIMIT_KEYS:
            raise InvalidFSpec(f"const-limit: unknown form {brief(form)}")
        for k in kv:
            if k not in _CONST_LIMIT_KEYS[form]:
                raise InvalidFSpec(
                    f"const-limit {form}: unknown key {brief(k)}")
        if form == "sqrt":
            return ConstLimit("sqrt", a=_parse_int(kv.get("a", "0")))
        if form in ("exp", "pow"):
            a, b_text = _parse_int(kv.get("a", "0")), kv.get("b", "0")
            b = _parse_rational(b_text)
            if b == 0 and (_decimal(b_text) or 0) > 0:
                raise InvalidFSpec(
                    f"const-limit {form}: b = {brief(b_text)} rounds to 0"
                    f" at the 10^9 denominator cap; need b > 0")
            return ConstLimit(form, a=a, b=b)
        return ConstLimit("clamp", alpha=_parse_rational(kv.get("alpha", "0")),
                          n0=_parse_int(kv.get("n0", "0")))
    if head == "fracpow":
        return _parse_fracpow(rest)
    raise InvalidFSpec(f"unknown f-spec {brief(text)}")
