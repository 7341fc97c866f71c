"""One checkable verifier per closed-form identity of the recurrence family.

Each verifier recomputes the relevant trace with the engine and compares it
against the closed form up to N, its one parameter, using exact integer
floors throughout; the rest of what it checks is fixed by module constants
(MOD_MODULI, SHIFT_*, QUARTER_* and GOLDEN_ORACLE_SAMPLES).  A failing
verifier carries its first counterexample; a trace that stops before N
fails at its death index.  A periodic closed form is checked one residue
class at a time, on strided views of the trace.
"""

from __future__ import annotations

import decimal
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .engine import compute_q, compute_q_batch, compute_two_term, quasipolynomial_spec
from .exactfloor import (
    floor_gamma_array,
    floor_gamma_sq_array,
    staircase_value_array,
)
from .fspec import (
    FloorRatio,
    GammaSq,
    Linear,
    ModM,
    OneMinusDelta,
    Zeros,
    shift_f,
    slow_prefix_matrix,
)

DEFAULT_N = 10**6
DEFAULT_N_TWO_TERM = 10**5
CONTINUOUS_TOL = 1e-9
CONTINUOUS_EDGE = 1e-6
MOD_MODULI = (1, 2, 3, 5, 7)
SHIFT_FSPEC = FloorRatio(1, 2)
SHIFT_EXHAUSTIVE_M = 12  # every slow prefix of length <= this
QUARTER_SAMPLES = 10**4  # random reals for the continuous solution
QUARTER_SEED = 20260810
GOLDEN_ORACLE_SAMPLES = 1000


@dataclass
class VerifierResult:
    name: str
    checked_up_to: int
    ok: bool
    first_counterexample: tuple[int, int, int] | None = None  # (n, expected, actual)
    details: dict = field(default_factory=dict)

    def __str__(self):
        if self.ok:
            return f"PASS {self.name} (n <= {self.checked_up_to})"
        n, exp, act = self.first_counterexample
        return (f"FAIL {self.name} at n = {n}: expected {exp}, got {act} "
                f"(checked to {self.checked_up_to})")


def _stops_before(trace, n):
    """(died_at, 0, lookup index) for a trace that stops before index n,
    None for one that reaches it.  A trace that stops without dying, as no
    engine trace does, fails at n_max + 1 with lookup index 0."""
    if trace.n_max >= n:
        return None
    outcome = trace.outcome
    return (outcome.died_at or trace.n_max + 1, 0, outcome.lookup_index or 0)


def _first_by_class(q, lines, first=1):
    """The least-n counterexample (n, expected, actual) of q, whose q[0] is
    the term at n = first, against a closed form of period p = len(lines):
    lines[r] holds the terms at n = first + r, first + r + p, ..., as a
    constant or an array at least as long as that residue class.  Each
    class is one strided view of q compared with its line, so nothing of
    q's length is built; None where every class agrees."""
    p = len(lines)
    found = []
    for r, line in enumerate(lines):
        view = q[r::p]
        if np.ndim(line):
            line = line[:len(view)]
        bad = np.flatnonzero(view != line)
        if bad.size:
            j = int(bad[0])
            want = line[j] if np.ndim(line) else line
            found.append((first + r + p * j, int(want), int(view[j])))
    return min(found, default=None)


def _first_miss(trace, n, lines, first=1):
    """_stops_before(trace, n), or else the least-n counterexample of the
    trace's terms from n = first on against the closed form `lines`, as
    _first_by_class takes it."""
    return (_stops_before(trace, n) or _first_by_class(
        trace.q_values[first - trace.start:], lines, first))


def verify_zeros_and_linear(n: int | None = None) -> VerifierResult:
    """Q(zeros) is constant 1 and Q(linear) is the identity."""
    n = DEFAULT_N if n is None else n
    mism = (_first_miss(compute_q(Zeros(), n), n, [1])
            or _first_miss(compute_q(Linear(), n), n,
                           [np.arange(1, n + 1, dtype=np.int64)]))
    return VerifierResult("zeros-linear", n, mism is None, mism)


def verify_non_slow_closed_forms(n: int | None = None) -> VerifierResult:
    """Two non-slow drivers with closed-form traces: the even staircase
    2*floor((n-1)/2) gives odd-repeats, and the parity driver gives 1,2,1,2,..."""
    n = DEFAULT_N if n is None else n
    qa = compute_q(FloorRatio(1, 2, shift=-1, scale=2), n)
    # q(2i - 1) = q(2i) = 2i - 1: both classes are the odd numbers
    odd = np.arange(1, n + 1, 2, dtype=np.int64)
    mism = _first_miss(qa, n, [odd, odd])
    if mism is None:
        mism = _first_miss(compute_q(ModM(2), n), n, [1, 2])
    return VerifierResult("non-slow", n, mism is None, mism)


def verify_mod_class(n: int | None = None) -> VerifierResult:
    """Q((n-1) mod m)(n) = ((n-1) mod m) + 1 for each m in MOD_MODULI."""
    n = DEFAULT_N if n is None else n
    per_m, mism = {}, None
    for m in MOD_MODULI:
        trace = compute_q(ModM(m), n)
        this = _first_miss(trace, n, [trace.f_values + 1])
        per_m[m] = this is None
        mism = mism or this
    return VerifierResult("mod", n, mism is None, mism,
                          {"moduli": list(MOD_MODULI),
                           "per_modulus_ok": per_m})


def verify_shift(n: int | None = None) -> VerifierResult:
    """Prepending one zero to f delays the whole trace by one step:
    Q(shift(f))(k) = Q(f)(k-1).  Checked on one long trace, of SHIFT_FSPEC,
    and exhaustively over every slow prefix of length <= SHIFT_EXHAUSTIVE_M."""
    n = DEFAULT_N if n is None else n
    base = compute_q(SHIFT_FSPEC, n)
    shifted = compute_q(shift_f(SHIFT_FSPEC, 1), n)
    mism = (_stops_before(base, n) or _stops_before(shifted, n)
            or _first_by_class(shifted.q_values[:1], [1])
            or _first_by_class(shifted.q_values[1:], [base.q_values[:-1]], 2))
    checked = 0
    if mism is None:
        for m in range(1, SHIFT_EXHAUSTIVE_M + 1):
            f_mat = slow_prefix_matrix(m, 0, 1 << (m - 1))
            q_mat, died = compute_q_batch(f_mat)
            fs = np.zeros_like(f_mat)
            fs[:, 1:] = f_mat[:, :-1]
            qs_mat, died_s = compute_q_batch(fs)
            checked += len(f_mat)
            if died.any() or died_s.any():
                row = int(np.flatnonzero(died | died_s)[0])
                mism = (m, 0, int(died[row] or died_s[row]))
                break
            if m > 1 and not (qs_mat[:, 1:] == q_mat[:, :-1]).all():
                rows, cols = np.nonzero(qs_mat[:, 1:] != q_mat[:, :-1])
                r, c = int(rows[0]), int(cols[0])
                mism = (c + 2, int(q_mat[r, c]), int(qs_mat[r, c + 1]))
                break
    return VerifierResult("shift", n, mism is None, mism,
                          {"fspec": SHIFT_FSPEC.spec_str(),
                           "exhaustive_m": SHIFT_EXHAUSTIVE_M,
                           "exhaustive_sequences": checked})


def _wave_q(x):
    return x / 2.0 + (3.0 + np.cos(np.pi * x)) / 4.0


def _wave_f(x):
    u = 2.0 * x + 1.0 + np.cos(np.pi * x)
    return u / 8.0 - np.sin(np.pi * u / 4.0) / 4.0


def verify_quarter_floor(n: int | None = None) -> VerifierResult:
    """Q(floor((n+2)/4))(n) = floor((n+2)/2); plus the real-valued solution
    x/2 + (3 + cos pi x)/4 of the same recurrence, checked on
    QUARTER_SAMPLES random reals drawn with QUARTER_SEED."""
    n = DEFAULT_N if n is None else n
    trace = compute_q(FloorRatio(1, 4, shift=2), n)
    mism = _first_miss(trace, n, [np.arange(3, n + 3, dtype=np.int64) // 2])
    details: dict = {}
    if mism is None:
        x = np.random.default_rng(QUARTER_SEED).uniform(1.0, 100.0,
                                                        QUARTER_SAMPLES)
        inner = x - _wave_q(x - 1.0)
        # stay away from integer inner arguments (trig cancellation only;
        # the identity itself has no floors)
        keep = np.abs(inner - np.round(inner)) > CONTINUOUS_EDGE
        x, inner = x[keep], inner[keep]
        resid = _wave_q(x) - _wave_q(inner) - _wave_f(x)
        worst = float(np.max(np.abs(resid))) if len(x) else 0.0
        details = {"continuous_samples": int(len(x)),
                   "continuous_max_residual": worst,
                   "continuous_tolerance": CONTINUOUS_TOL}
        if worst >= CONTINUOUS_TOL:
            i = int(np.argmax(np.abs(resid)))
            mism = (int(math.floor(x[i])), 0, 1)
            details["continuous_worst_x"] = float(x[i])
    return VerifierResult("quarter", n, mism is None, mism, details)


def verify_sqrt_staircase(n: int | None = None) -> VerifierResult:
    """With the one-dip driver (0,1,1,...), the trace is the staircase where
    k occupies indices (k^2-k+2)/2 .. ((k+1)^2-(k+1)+2)/2 - 1; equivalently
    q(n) = floor(1/2 + sqrt(2n - 7/4))."""
    n = DEFAULT_N if n is None else n
    trace = compute_q(OneMinusDelta(1), n)
    top = int(staircase_value_array(np.array([n]))[0]) + 1
    runs = np.repeat(np.arange(1, top + 1, dtype=np.int64),
                     np.arange(1, top + 1))[:n]
    mism = _first_miss(trace, n, [runs])
    details = {}
    if mism is None:
        closed = staircase_value_array(np.arange(1, n + 1, dtype=np.int64))
        mism = _first_by_class(trace.q_values, [closed])
        details["closed_form_checked"] = True
    return VerifierResult("staircase", n, mism is None, mism, details)


def verify_golden(n: int | None = None) -> VerifierResult:
    """Q(floor(gamma^2 n))(n) = 1 + floor(gamma (n-1)), all floors exact."""
    n = DEFAULT_N if n is None else n
    expected = 1 + floor_gamma_array(np.arange(0, n, dtype=np.int64))
    mism = _first_miss(compute_q(GammaSq(), n), n, [expected])
    return VerifierResult("golden", n, mism is None, mism)


def verify_golden_identity(n: int | None = None) -> VerifierResult:
    """floor(gamma + gamma*floor(gamma^2 (n-1))) + floor(gamma^2 n)
    + floor(gamma^2 (n+1)) equals n - 1 for every n.

    Also classifies each n >= 2 by where {gamma^2 n} falls relative to the
    split points gamma^2 and gamma (computed by exact integer floor
    comparisons) and asserts that no n falls in both the low and the high
    case, failing at the least such n as (n, 1, 2); n = 1 is the lone
    boundary point, where {gamma^2 n} equals gamma^2 exactly.  Then checks
    the floors against Beatty's theorem (_first_beatty_miss), and
    floor_gamma_array against a decimal oracle at GOLDEN_ORACLE_SAMPLES
    seeded n (_golden_oracle_check).
    """
    n = DEFAULT_N if n is None else n
    m = np.arange(0, n + 2, dtype=np.int64)
    fsq = floor_gamma_sq_array(m)  # fsq[j] = floor(gamma^2 j), fsq[0] = 0
    term1 = floor_gamma_array(fsq[0:n] + 1)  # floor(gamma*(floor(..)+1))
    theta = term1 + fsq[1:n + 1] + fsq[2:n + 2]
    mism = _first_by_class(theta, [np.arange(0, n, dtype=np.int64)])
    details: dict = {}
    if mism is None:
        # fractional-part cases via pure floor comparisons (n >= 2):
        #   below gamma^2  <=> floor increments at n
        #   above gamma    <=> floor increments at n+1
        inc_prev = fsq[1:n + 1] > fsq[0:n]
        inc_next = fsq[2:n + 2] > fsq[1:n + 1]
        low, high = inc_prev[1:], inc_next[1:]
        mid = ~(low | high)
        overlap = int(np.count_nonzero(low & high))
        details["cases"] = {"low": int(np.count_nonzero(low)),
                            "mid": int(np.count_nonzero(mid)),
                            "high": int(np.count_nonzero(high))}
        details["case_overlap"] = overlap
        details["boundary_points"] = [1]  # {gamma^2 * 1} = gamma^2 exactly
        if overlap:  # mid is every other n: the cases cover them all
            mism = (int(np.flatnonzero(low & high)[0]) + 2, 1, 2)
        else:
            mism = _first_beatty_miss(fsq, n)
            details["floor_identity_checked"] = mism is None
            if mism is None:
                details["oracle_samples"] = GOLDEN_ORACLE_SAMPLES
                mism = _golden_oracle_check(n, GOLDEN_ORACLE_SAMPLES)
    return VerifierResult("golden-identity", n, mism is None, mism, details)


def _first_beatty_miss(fsq, n: int) -> tuple[int, int, int] | None:
    """The least integer k in [1, floor(n phi)], phi = 1 + gamma, that the
    Beatty sequences a_j = floor(j phi) = j + floor(gamma j) and
    floor(j phi^2) = a_j + j, j = 1..n, do not cover exactly once, as
    (k, 1, times covered); None where they partition it, as Beatty's
    theorem says they do, 1/phi + 1/phi^2 being 1.  floor(gamma j) is
    taken from the floors under test, as j - 1 - fsq[j], so a wrong
    floor(gamma^2 j) moves both of its terms.

    Where a_1 = 1 and a rises by 1 or 2, as true floors do, a_n = n + m
    for its m rises of 2, and a misses just the integer after each: with
    the i-th from a_p to a_(p+1), p = p_i, a_p = p + i - 1 misses p + i.
    The a_i + i up to a_n are those, in order, iff p_i = a_i for i <= m
    and a_(m+1) + m + 1 > a_n.  a_1 < ... < a_m are m distinct j, so that
    is a rise of 2 after each a_i, decided with no counting; otherwise
    each integer's cover is counted."""
    beatty = np.arange(1, 2 * n, 2, dtype=np.int64) - fsq[1:n + 1]  # a_j
    top = int(beatty[-1])  # floor(n phi)
    rise = np.diff(beatty)
    m = top - n
    if (beatty[0] == 1 and rise.min(initial=1) >= 1
            and rise.max(initial=1) <= 2 and (m == 0 or beatty[m - 1] < n)
            and (rise[beatty[:m] - 1] == 2).all()
            and beatty[m] + m + 1 > top):
        return None
    j = np.arange(1, n + 1, dtype=np.int64)
    hits = np.concatenate([beatty, beatty + j])
    np.clip(hits, 0, max(top, 0) + 1, out=hits)
    counts = np.bincount(hits)[1:top + 1]
    bad = np.flatnonzero(counts != 1)
    return (int(bad[0]) + 1, 1, int(counts[bad[0]])) if bad.size else None


def _golden_oracle_check(n: int, samples: int) -> tuple[int, int, int] | None:
    """Spot-check floor_gamma_array, the floor of golden and
    golden-identity, with one call at `samples` seeded j in [1, n],
    against a 60-digit decimal oracle; the first disagreement in sample
    order as (j, oracle floor, floor_gamma_array's), or None.

    The oracle's gamma is (sqrt(5) - 1)/2 with sqrt correctly rounded to 60
    digits, within 10^-59 of gamma, and read as the exact fraction G / D of
    its digits, so that j*gamma is the integer product j*G, within j*10^-59
    of the true value, and its floor one integer division.  gamma's
    continued fraction is all 1s, so |j*gamma - k| > 1/(3j) for every
    integer k; for j < 10^29, far beyond any n here, j*10^-59 < 1/(3j) and
    the oracle's floor is the true floor.
    """
    ctx = decimal.Context(prec=60, rounding=decimal.ROUND_HALF_EVEN)
    g, d = ctx.divide(ctx.subtract(ctx.sqrt(5), 1), 2).as_integer_ratio()
    js = np.random.default_rng(5 * n + samples).integers(1, n + 1,
                                                          size=samples)
    for j, got in zip(js.tolist(), floor_gamma_array(js).tolist()):
        oracle = j * g // d
        if oracle != got:
            return (j, oracle, got)
    return None


def verify_quasi_polynomial(n: int | None = None) -> VerifierResult:
    """The two-lookup trace with start values at 3..12 follows, past 12, the
    five-way polynomial schedule (2, n-4, 5, n-5, n-6) keyed by n mod 5."""
    n = DEFAULT_N_TWO_TERM if n is None else n
    if n <= 12:
        raise ValueError("need n > 12")
    trace = compute_two_term(quasipolynomial_spec(), n)
    # k = 13, ..., 17 are 3, 4, 0, 1, 2 mod 5, so along each residue class
    # q(k) = k - 5, k - 6, 2, k - 4, 5 is a constant or a line
    line = np.arange(13 - 5, n + 1, 5, dtype=np.int64)  # 8, 13, ...
    mism = _first_miss(trace, n, [line, line, 2, line + 4, 5], first=13)
    return VerifierResult("quasipoly", n, mism is None, mism)


REGISTRY = {
    "zeros-linear": verify_zeros_and_linear,
    "non-slow": verify_non_slow_closed_forms,
    "mod": verify_mod_class,
    "shift": verify_shift,
    "quarter": verify_quarter_floor,
    "staircase": verify_sqrt_staircase,
    "golden": verify_golden,
    "golden-identity": verify_golden_identity,
    "quasipoly": verify_quasi_polynomial,
}


def run_suite(names=None, n: int | None = None,
              threads: int | None = None) -> list[VerifierResult]:
    """Run verifiers (all by default) in parallel; results in name order.
    n = None gives each verifier its default length; threads = None gives
    one worker per verifier, at most one per CPU this process may use."""
    if n is not None and n < 1:
        raise ValueError("n_max must be >= 1")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if names is None:
        names = list(REGISTRY)
    if not names:
        raise ValueError("no verifier selected; known names: "
                         + ", ".join(REGISTRY))
    bad = [x for x in names if x not in REGISTRY]
    if bad:
        raise KeyError(f"unknown verifier(s): {', '.join(bad)}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = threads or min(len(names), cpus)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(REGISTRY[name], n) for name in names]
        return [f.result() for f in futures]
