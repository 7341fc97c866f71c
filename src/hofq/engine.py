"""Trace computation for nested recurrences.

One nested term, driven by f:

    q(1) = 1,   q(n) = q(n - q(n-1)) + f(n)          (n >= 2)

Two nested terms (Hofstadter-style), self-driven:

    q(n) = q(n - outer*d1 - q(n-d1)) + q(n - outer*d2 - q(n-d2))

A sequence dies at n exactly when a nested lookup index falls outside
[start, n-1]; the trace keeps every term before n.  The recurrences run
only in hofq.kernels: compute_q, compute_q_batch and compute_two_term
check their input, make one kernel call and turn its status into a death
record or an OverflowError, so all arithmetic is 64-bit and no term wraps.
Indices are 1-based throughout (two-term specs carry their own start
index, e.g. 0).

compute_q is called thousands of times on short prefixes by the exhaustive
sweeps, where the Python around its one kernel call costs several times
the kernel.  So it returns as soon as the kernel reports OK, and every
trace that exists to n_max holds the same frozen ExistenceOutcome(n_max).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidFSpec, InvalidQ
from .fspec import FSpec, as_fspec, brief_spec

INDEX_CAP = 2**31  # full-history storage: 8 bytes/term


@dataclass(frozen=True, slots=True)
class ExistenceOutcome:
    """Either 'exists up to checked_to' or 'died at died_at' with the
    offending lookup index."""

    checked_to: int
    died_at: int | None = None
    lookup_index: int | None = None

    @property
    def exists(self) -> bool:
        return self.died_at is None

    def __str__(self):
        if self.exists:
            return f"exists up to {self.checked_to}"
        return (f"died at {self.died_at} "
                f"(lookup index {self.lookup_index} out of range)")


@dataclass(frozen=True)
class TwoTermSpec:
    """Self-driven recursion with two nested lookups.

    offsets (d1, d2) are the inner lookback distances; outer_shift is 0 for
    the q(n - q(n-d)) form and 1 for the q(n - d - q(n-d)) form.  The
    initial values start at index `start`.
    """

    offsets: tuple[int, int]
    initial_values: tuple[int, ...]
    start: int = 1
    outer_shift: int = 0
    name: str = ""

    def __post_init__(self):
        d1, d2 = self.offsets
        if d1 < 1 or d2 < 1:
            raise ValueError("offsets must be positive")
        if self.outer_shift not in (0, 1):
            raise ValueError("outer_shift must be 0 or 1")
        if len(self.initial_values) < max(d1, d2):
            raise ValueError("need at least max(d1, d2) initial values")


def hofstadter_spec() -> TwoTermSpec:
    """q(n) = q(n - q(n-1)) + q(n - q(n-2)), q(1) = q(2) = 1."""
    return TwoTermSpec((1, 2), (1, 1), start=1, outer_shift=0, name="hofstadter")


def tanny_spec() -> TwoTermSpec:
    """T(n) = T(n-1-T(n-1)) + T(n-2-T(n-2)), T(0) = T(1) = T(2) = 1."""
    return TwoTermSpec((1, 2), (1, 1, 1), start=0, outer_shift=1, name="tanny")


def v_variant_spec() -> TwoTermSpec:
    """V(n) = V(n - V(n-1)) + V(n - V(n-4)), V(1..4) = 1."""
    return TwoTermSpec((1, 4), (1, 1, 1, 1), start=1, outer_shift=0, name="v")


def quasipolynomial_spec() -> TwoTermSpec:
    """The two-lookup recursion with initial values at indices 3..12 chosen
    so the solution is eventually quasi-polynomial mod 5."""
    return TwoTermSpec((1, 2), (1, 1, 3, 5, 1, 4, 7, 6, 4, 9), start=3,
                       outer_shift=0, name="quasipoly")


@dataclass(frozen=True, slots=True, init=False)
class QTrace:
    """A computed trace.  q_values[j] is the term at index start + j;
    the array is truncated at death.  f_values is None for self-driven
    (two-term) traces.  Both arrays are read-only.

    __init__ is written by hand and stores each field through its slot's
    setter: the generated one, an object.__setattr__ per field and a
    __post_init__ call, took 1.1 us of a 5 us 14-term compute_q, this one
    0.7 (2-core x86-64 VM).  Assigning to a field still raises
    FrozenInstanceError."""

    q_values: np.ndarray
    outcome: ExistenceOutcome
    f_values: np.ndarray | None = None
    fspec: FSpec | None = None
    start: int = 1

    def __init__(self, q_values, outcome, f_values=None, fspec=None,
                 start=1):
        # setflags(False) is write=False, passed positionally: a third of
        # the cost of the keyword or of flags.writeable = False
        q_values.setflags(False)
        if f_values is not None:
            f_values.setflags(False)
        _set_q_values(self, q_values)
        _set_outcome(self, outcome)
        _set_f_values(self, f_values)
        _set_fspec(self, fspec)
        _set_start(self, start)

    @property
    def n_max(self) -> int:
        """Index of the last computed term."""
        return self.start + len(self.q_values) - 1

    @property
    def exists(self) -> bool:
        return self.outcome.exists

    def q(self, n: int) -> int:
        if not (self.start <= n <= self.n_max):
            raise IndexError(f"q({n}) not computed (have {self.start}..{self.n_max})")
        return int(self.q_values[n - self.start])

    def f(self, n: int) -> int:
        if self.f_values is None:
            raise ValueError("self-driven trace has no f")
        if not (1 <= n <= len(self.f_values)):
            raise IndexError(f"f({n}) out of range")
        return int(self.f_values[n - 1])


# the slots' own setters, past the frozen __setattr__
_set_q_values, _set_outcome, _set_f_values, _set_fspec, _set_start = (
    getattr(QTrace, name).__set__
    for name in ("q_values", "outcome", "f_values", "fspec", "start"))


def _check_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > INDEX_CAP:
        raise ValueError(f"n_max above the in-memory cap {INDEX_CAP}")


# frozen, so every one-term trace that exists to n_max can share one
_exists_to = functools.lru_cache(maxsize=16, typed=True)(ExistenceOutcome)


def compute_q(f, n_max: int) -> QTrace:
    """Trace of q(n) = q(n - q(n-1)) + f(n) with q(1) = 1.

    f may be an FSpec, a grammar string, or an explicit integer sequence;
    it must supply n_max terms with f(1) = 0.
    """
    if not 1 <= n_max <= INDEX_CAP:
        _check_n_max(n_max)
    spec = f if isinstance(f, FSpec) else as_fspec(f)
    try:
        f_arr = spec.values(n_max)
    except OverflowError:
        raise OverflowError(
            f"{brief_spec(spec)}: f values exceed the 64-bit range") from None
    # a caller's spec may return any array, and q is sized by n_max
    if getattr(f_arr, "ndim", 1) != 1 or len(f_arr) != n_max:
        if np.ndim(f_arr) != 1:
            raise ValueError("f must be a 1-D C-contiguous int64 array")
        raise ValueError(f"{brief_spec(spec)} gave {len(f_arr)} terms"
                         f" for n_max = {n_max}")
    if f_arr[0] != 0:
        raise InvalidFSpec(
            f"{brief_spec(spec)}: f(1) = {int(f_arr[0])}, but f(1) = 0"
            f" is required")
    # every term the trace keeps is written, so q need not be zeroed
    q_arr = np.empty(n_max, dtype=np.int64)
    status, where = kernels.one_term_trace(f_arr, q_arr)
    if status == kernels.OK:
        return QTrace(q_arr, _exists_to(n_max), f_arr, spec)
    if status == kernels.OVERFLOW:
        raise OverflowError(f"q({where}) exceeds the 64-bit range")
    lookup = where - int(q_arr[where - 2])
    outcome = ExistenceOutcome(where - 1, died_at=where, lookup_index=lookup)
    return QTrace(q_arr[: where - 1].copy(), outcome, f_arr, spec)


def compute_two_term(spec: TwoTermSpec, n_max: int) -> QTrace:
    """Trace of a two-nested-lookup recursion up to index n_max."""
    if n_max < spec.start + len(spec.initial_values) - 1:
        raise ValueError("n_max must cover the initial values")
    if n_max - spec.start + 1 > INDEX_CAP:
        raise ValueError(f"trace length above the in-memory cap {INDEX_CAP}")
    total = n_max - spec.start + 1
    init = np.asarray(spec.initial_values, dtype=np.int64)
    q_arr = np.zeros(total, dtype=np.int64)
    q_arr[: len(init)] = init
    d1, d2 = spec.offsets
    status, where = kernels.two_term_trace(
        q_arr, len(init), spec.start, d1, d2, spec.outer_shift)
    if status == kernels.OVERFLOW:
        raise OverflowError(f"q({where}) exceeds the 64-bit range")
    if status == kernels.DIED:
        out = spec.outer_shift
        lookup = None
        for d in (d1, d2):
            cand = where - out * d - int(q_arr[where - d - spec.start])
            if cand < spec.start or cand > where - 1:
                lookup = cand
                break
        outcome = ExistenceOutcome(where - 1, died_at=where, lookup_index=lookup)
        q_arr = q_arr[: where - spec.start].copy()
    else:
        outcome = ExistenceOutcome(n_max)
    return QTrace(q_arr, outcome, f_values=None, fspec=None, start=spec.start)


def compute_c(n_max: int) -> np.ndarray:
    """c(n) = q(n - q(n-2)) on the two-term trace with unit starts,
    for n = 3..n_max (index-aligned with the returned array)."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    trace = compute_two_term(hofstadter_spec(), n_max)
    if not trace.exists:  # would falsify the computed-existence record
        raise RuntimeError(f"two-term trace {trace.outcome}")
    q = trace.q_values
    n = np.arange(3, n_max + 1, dtype=np.int64)
    idx = n - q[n - 3]  # q(n-2) sits at offset n-3
    return q[idx - 1].copy()


def compute_f_from_q(q_values) -> np.ndarray:
    """Invert the recurrence: f(1) = 0, f(n) = q(n) - q(n - q(n-1)).

    Requires q(1) = 1 and 1 <= q(n) <= n for every supplied term."""
    q = np.asarray(q_values, dtype=np.int64)
    if q.ndim != 1 or len(q) == 0:
        raise InvalidQ("need a non-empty 1-D q sequence")
    if q[0] != 1:
        raise InvalidQ(f"q(1) = {int(q[0])}, expected 1")
    n = np.arange(1, len(q) + 1, dtype=np.int64)
    bad = np.flatnonzero((q < 1) | (q > n))
    if bad.size:
        i = int(bad[0])
        raise InvalidQ(f"q({i + 1}) = {int(q[i])} outside [1, {i + 1}]")
    f = np.zeros(len(q), dtype=np.int64)
    if len(q) > 1:
        idx = n[1:] - q[:-1]  # in [1, n-1] by the bound just checked
        f[1:] = q[1:] - q[idx - 1]
    return f


def compute_q_batch(f_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Traces for a batch of driving sequences (rows of f_mat), one
    kernels.one_term_rows call.

    Returns (q_mat, died_at) where died_at[b] is 0 for rows that exist to
    the full width and the death index otherwise; entries of dead rows are 0
    from the death index on.  Raises OverflowError, naming the first such
    row, when a term leaves the int64 range.
    """
    f = np.ascontiguousarray(f_mat, dtype=np.int64)
    if f.ndim != 2:
        raise ValueError("need a 2-D batch")
    q = np.zeros_like(f)
    status = np.zeros(len(f), dtype=np.int64)
    kernels.one_term_rows(f.reshape(-1), q.reshape(-1), status, f.shape[1])
    over = np.flatnonzero(status < 0)
    if over.size:
        row = int(over[0])
        raise OverflowError(
            f"row {row}: q({-int(status[row])}) exceeds the 64-bit range")
    return q, status
