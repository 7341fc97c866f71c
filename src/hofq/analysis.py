"""Dynamics experiments on computed traces.

Covers error tracking of asymptotic models against exact traces, scanning
for exact self-similarity (intervals where q(i+s) - q(i) is constant),
single-index perturbation comparison, and plot-ready CSV/JSON exports.
Traces stay exact-integer; models are evaluated in double precision, which
is ample because the compared errors are far above rounding scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import QTrace, compute_q
from .errors import SequenceDied
from .fspec import (ConstLimit, FloorRatio, Perturbed, as_fspec, brief,
                    fraction_literal, int_literal)
from .table import write

GAMMA = (math.sqrt(5.0) - 1.0) / 2.0
MAX_EXPORT_ROWS = 10**6
DISCOVERY_CANDIDATES = 8  # propose_shifts: the shifts it returns,
DISCOVERY_WINDOW = 64  # the differences in a window
DISCOVERY_ANCHORS = 8  # and the windows it looks for


# ---------------------------------------------------------------------------
# approximation models


@dataclass(frozen=True)
class SqrtAlphaModel:
    """q(n) ~ sqrt(alpha) * n, the large-n heuristic for f(n) = floor(alpha n)."""

    alpha: float

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:  # NaN too
            raise ValueError(f"sqrt model needs a finite alpha >= 0, got "
                             f"alpha = {self.alpha!r}")

    @property
    def label(self) -> str:
        return f"sqrt-alpha:{self.alpha:.12g}"

    def values(self, n: np.ndarray) -> np.ndarray:
        return math.sqrt(self.alpha) * n


@dataclass(frozen=True)
class ConstLimitModel:
    """q(n) ~ sqrt(2 a n) - a/2 when f approaches the constant a."""

    a: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"const-limit model needs a >= 0, got a = "
                             f"{self.a!r}")
        if self.a > sys.float_info.max:
            raise ValueError("const-limit model needs an a that float64"
                             " holds")

    @property
    def label(self) -> str:
        return f"const-limit:{self.a}"

    def values(self, n: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            v = np.sqrt(2.0 * self.a * n) - self.a / 2.0
        return _finite(self, v)


@dataclass(frozen=True)
class PowerAnsatzModel:
    """q(n) ~ a * n^p + b for fractional-power drivers."""

    a: float
    p: float
    b: float

    @property
    def label(self) -> str:
        return f"power:{self.a:.12g}:{self.p:.12g}:{self.b:.12g}"

    def values(self, n: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.a * np.power(n.astype(np.float64), self.p) + self.b
        return _finite(self, v)


def _finite(model, values: np.ndarray) -> np.ndarray:
    """values, unless the model leaves float64 at one of them."""
    if not np.isfinite(values).all():
        raise ValueError(f"model {model.label} leaves float64 for some n in"
                         f" 1..{len(values)}")
    return values


def parse_model(text: str):
    """Model grammar for the CLI: sqrt:ALPHA | sqrt:gamma2 | const:A | power:A:P:B
    (rationals allowed in numeric slots)."""
    head, _, rest = text.strip().partition(":")

    def number(field, kind=Fraction):
        try:
            return (int_literal if kind is int else fraction_literal)(field)
        except ValueError as exc:
            raise ValueError(f"model {brief(text)}: {exc}") from None

    try:
        if head == "sqrt":
            if rest == "gamma2":
                return SqrtAlphaModel(GAMMA * GAMMA)
            return SqrtAlphaModel(float(number(rest)))
        if head == "const":
            return ConstLimitModel(number(rest, int))
        if head == "power":
            parts = rest.split(":")
            if len(parts) != 3:
                raise ValueError("power model needs power:A:P:B")
            a, p, b = (float(number(x)) for x in parts)
            return PowerAnsatzModel(a, p, b)
    except ZeroDivisionError:
        raise ValueError(f"model {brief(text)} has a zero denominator"
                         ) from None
    except OverflowError:
        raise ValueError(f"model {brief(text)} has a parameter that float64"
                         f" does not hold") from None
    raise ValueError(f"unknown model {brief(text)}")


@dataclass(frozen=True)
class ApproximationReport:
    fspec: str
    model: str
    n_max: int
    max_abs_error: float
    min_signed_error: float
    max_signed_error: float
    error_trace: tuple[np.ndarray, np.ndarray] | None = None  # (n, error)


def _existing_trace(fspec, n_max: int) -> QTrace:
    """The trace to n_max; SequenceDied if it dies first."""
    trace = compute_q(fspec, n_max)
    if not trace.exists:
        raise SequenceDied(trace.outcome)
    return trace


def approx_error(fspec, model, n_max: int, keep_trace: bool = False,
                 stride: int | None = None) -> ApproximationReport:
    """Error statistics of the exact trace against the model, in float64:
    q(n) - model(n) for n = 1..n_max, each q(n) rounded to float64 first."""
    trace = _existing_trace(fspec, n_max)
    n = np.arange(1, n_max + 1, dtype=np.int64)
    err = trace.q_values.astype(np.float64) - model.values(n)
    lo, hi = float(err.min()), float(err.max())
    kept = None
    if keep_trace:
        step = stride or max(1, math.ceil(n_max / MAX_EXPORT_ROWS))
        kept = (n[::step].copy(), err[::step].copy())
    return ApproximationReport(trace.fspec.spec_str(), model.label, n_max,
                               max(abs(lo), abs(hi)), lo, hi, kept)


def const_ansatz_residual(a: float, x: np.ndarray, b: float | None = None):
    """Real-valued residual of q(x) = sqrt(2 a x) - b under the recurrence:
    q(x) - q(x - q(x-1)).  With b = a/2 the residual approaches a at rate
    x^(-3/2); any other b leaves an x^(-1/2) term."""
    if b is None:
        b = a / 2.0

    def q(t):
        return np.sqrt(2.0 * a * t) - b

    return q(x) - q(x - q(x - 1.0))


# ---------------------------------------------------------------------------
# exact self-similarity


@dataclass(frozen=True)
class SimilarityMatch:
    """q(i + shift) - q(i) = delta for every i in [lo, hi] (inclusive,
    1-based trace indices), maximal in both directions."""

    shift: int
    delta: int
    lo: int
    hi: int

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


def _runs(values: np.ndarray) -> np.ndarray:
    """The bounds b of the maximal constant runs of values: run j is
    values[b[j] + 1 .. b[j + 1]], 0-based and inclusive."""
    return np.concatenate(([-1], np.flatnonzero(values[1:] != values[:-1]),
                           [len(values) - 1]))


def scan_self_similarity(trace, shifts, min_run: int = 1000) -> list[SimilarityMatch]:
    """All maximal constant-difference intervals of length >= min_run for
    each candidate shift, ordered by (shift, lo)."""
    if min_run < 2:
        raise ValueError("min_run must be >= 2")
    q = trace.q_values if isinstance(trace, QTrace) else np.asarray(trace)
    start = trace.start if isinstance(trace, QTrace) else 1
    matches = []
    # one buffer for every shift's d, and few temporaries per shift: fresh
    # full-length arrays have the allocator fault their pages in per shift
    buf = np.empty(max(len(q) - 1, 0), q.dtype)
    for s in sorted(set(int(s) for s in shifts)):
        if not (1 <= s < len(q)):
            continue
        d = np.subtract(q[s:], q[:len(q) - s], out=buf[:len(q) - s])
        ends = _runs(d)
        for j in np.flatnonzero(np.diff(ends) >= min_run).tolist():
            lo, hi = int(ends[j]) + 1, int(ends[j + 1])
            matches.append(SimilarityMatch(s, int(d[lo]), lo + start,
                                           hi + start))
    return matches


def propose_shifts(trace, min_run: int = 1000) -> list[int]:
    """The DISCOVERY_CANDIDATES shifts with the longest runs, longest first.
    The first-difference sequence is invariant under a constant offset, so
    windows of it that recur at distance s mark candidate shifts.  A window
    is DISCOVERY_WINDOW differences at one of DISCOVERY_ANCHORS anchors in
    the first half; the positions that match its first difference are
    narrowed one offset at a time, and one scan scores every candidate."""
    q = trace.q_values if isinstance(trace, QTrace) else np.asarray(trace)
    dq = np.diff(q)
    last = len(dq) - DISCOVERY_WINDOW  # the start of the last window
    if last < DISCOVERY_WINDOW:
        return []
    candidates: set[int] = set()
    anchors = np.linspace(0, len(dq) // 2, DISCOVERY_ANCHORS, dtype=int)
    for a in anchors.tolist():
        lo = a + DISCOVERY_WINDOW + 1  # only shifts past the window count
        hits = lo + np.flatnonzero(dq[lo:last + 1] == dq[a])
        for k in range(1, DISCOVERY_WINDOW):
            hits = hits[dq[hits + k] == dq[a + k]]
        candidates.update((hits - a).tolist())
    longest: dict[int, int] = {}
    for m in scan_self_similarity(trace, candidates, min_run=min_run):
        longest[m.shift] = max(longest.get(m.shift, 0), m.length)
    scored = sorted(((run, s) for s, run in longest.items()), reverse=True)
    return [s for _, s in scored[:DISCOVERY_CANDIDATES]]


# ---------------------------------------------------------------------------
# perturbation


@dataclass(frozen=True)
class PerturbationTrace:
    """diff[j] = q(j+1) - q1(j+1) where q1 drives the same spec with
    `amount` added at the single index `at`."""

    fspec: str
    at: int
    amount: int
    diff: np.ndarray
    zero_regions: tuple[tuple[int, int], ...]
    base_outcome: str
    perturbed_outcome: str


def perturb_compare(base, at: int, amount: int, n_max: int) -> PerturbationTrace:
    """Both traces, their difference, and the maximal zero-difference
    intervals.  Death of the perturbed trace is reported, not raised; death
    of the base trace raises SequenceDied."""
    spec = as_fspec(base)
    base_trace = _existing_trace(spec, n_max)
    pert_trace = compute_q(Perturbed(spec, at, amount), n_max)
    m = min(len(base_trace.q_values), len(pert_trace.q_values))
    diff = (base_trace.q_values[:m] - pert_trace.q_values[:m]).copy()
    zero = ()
    if m:  # the runs of diff == 0 that are runs of zeros, 1-based
        ends = _runs(diff == 0)
        lo = ends[:-1] + 1
        z = diff[lo] == 0
        zero = tuple(zip((lo[z] + 1).tolist(), (ends[1:][z] + 1).tolist()))
    return PerturbationTrace(spec.spec_str(), at, amount, diff, zero,
                             str(base_trace.outcome), str(pert_trace.outcome))


# ---------------------------------------------------------------------------
# figure-data exports


EXPORT_KINDS = ("detrended", "approach", "perturbation", "trace")
EXPORT_ALIASES = {"fig2": "detrended", "ascon": "approach", "fig3": "perturbation"}

_EXPORT_DEFAULT_N = {"detrended": 160000, "approach": 10**5,
                     "perturbation": 2**19, "trace": 10**4}


def export_figure_data(kind: str, out_path, n_max: int | None = None,
                       fspec=None, fmt: str = "csv",
                       full_resolution: bool = False, alpha: float = 0.5,
                       a: int = 5, at: int = 16, amount: int = 1) -> int:
    """Write plot-ready data; returns the number of data rows.

    Kinds (aliases in EXPORT_ALIASES are accepted):
      detrended     n,detrended      q(n) - sqrt(alpha)*n, default f floor(n/2)
      approach      n,q,model        constant-limit driver vs sqrt(2(a-1)n)-(a-1)/2
      perturbation  log2n,diff       q - q1 for a single +amount at `at`
      trace         n,q,f            raw trace of an explicit fspec

    A dying trace raises SequenceDied, except for `trace`, which writes the
    terms before the death.
    """
    kind = EXPORT_ALIASES.get(kind, kind)
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}")
    n = _EXPORT_DEFAULT_N[kind] if n_max is None else n_max
    if kind == "detrended":
        spec = as_fspec(fspec) if fspec is not None else FloorRatio(1, 2)
        report = approx_error(spec, SqrtAlphaModel(alpha), n, keep_trace=True,
                              stride=1 if full_resolution else None)
        cols, rows = ("n", "detrended"), report.error_trace
    elif kind == "approach":
        spec = as_fspec(fspec) if fspec is not None else ConstLimit("sqrt", a=a)
        model = ConstLimitModel(a - 1)  # refuses a < 1 before the trace
        trace = _existing_trace(spec, n)
        idx = np.arange(1, n + 1, dtype=np.int64)
        cols, rows = ("n", "q", "model"), (idx, trace.q_values,
                                           model.values(idx))
    elif kind == "perturbation":
        spec = as_fspec(fspec) if fspec is not None else FloorRatio(1, 2)
        pert = perturb_compare(spec, at, amount, n)
        idx = np.arange(1, len(pert.diff) + 1, dtype=np.int64)
        cols, rows = ("log2n", "diff"), (np.log2(idx), pert.diff)
    else:
        if fspec is None:
            raise ValueError("trace export needs an fspec")
        trace = compute_q(as_fspec(fspec), n)
        idx = np.arange(1, len(trace.q_values) + 1, dtype=np.int64)
        cols = ("n", "q", "f")
        rows = (idx, trace.q_values, trace.f_values[:len(idx)])
    step = 1 if full_resolution else max(1, math.ceil(len(rows[0]) / MAX_EXPORT_ROWS))
    data = [col[::step] for col in rows]
    ints = [col.dtype.kind in "iu" for col in data]
    if fmt == "csv":  # csv.writer's line ending
        row_fmt = ",".join("%d" if i else "%.12g" for i in ints) + "\r\n"
        pieces = [",".join(cols) + "\r\n", (row_fmt, data)]
    elif fmt == "json":
        row_fmt = "[" + ",".join("%d" if i else "%r" for i in ints) + "]"
        pieces = [({"schema": "hofq.figure/1", "kind": kind,
                    "columns": list(cols)}, {"rows": (row_fmt, data)})]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(out_path, "wb") as fh:
        return write(fh, pieces)
