"""Independent reference implementations for cross-checking the engine.

Deliberately written as direct, unoptimized recursions from the defining
equations (python lists/dicts, no numpy, no shared code with the package),
except oracle_triangle_cells: the triangle builder that preceded the
prefix-tree walk, on batches of whole prefixes.  Its batches go through
compute_q_batch, that is the same one-term kernel as compute_q, so it checks
the walk against the row-by-row trace, not against a second recurrence.
oracle_f reads the fields of a spec, and takes the terms of const-limit
(but clamp) and fracpow from their exact scalar value().  first_mismatch
is the whole-array comparison that the verifiers' residue classes are
checked against, oracle_self_similarity a walk over one shift's
differences, and oracle_propose_shifts the shift discovery that preceded
the narrowing search, scoring its candidates with the package's
analysis.scan_self_similarity (looked up at each call), one shift a call.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hofq import analysis
from hofq.engine import QTrace, compute_q_batch
from hofq.fspec import (ConstLimit, DiffBits, FloorRatio, FracPowerSum,
                        GammaSq, Linear, ModM, OneMinusDelta, Perturbed,
                        Prefix, Shifted, Zeros, slow_prefix_matrix)


def oracle_q(f, n_max=None):
    """Direct recursion q(1)=1, q(n) = q(n - q(n-1)) + f(n).

    f is 1-based-as-list (f[0] is f(1)).  Returns (q_list, died_at, lookup):
    q_list holds terms before death, died_at/lookup are None when the trace
    completes.
    """
    n_max = len(f) if n_max is None else n_max
    q = [1]
    for n in range(2, n_max + 1):
        k = n - q[n - 2]
        if not (1 <= k <= n - 1):
            return q[: n - 1], n, k
        q.append(q[k - 1] + f[n - 1])
    return q, None, None


def oracle_f(spec, n):
    """f(n) of an f-spec in Python ints, from the grammar's formula for its
    family (n >= 1, and n <= max_len())."""
    if isinstance(spec, Zeros):
        return 0
    if isinstance(spec, Linear):
        return n - 1
    if isinstance(spec, FloorRatio):
        return spec.scale * ((spec.num * n + spec.shift) // spec.den)
    if isinstance(spec, GammaSq):  # floor(gamma^2 n) = n - 1 - floor(gamma n)
        return n - 1 - (math.isqrt(5 * n * n) - n) // 2
    if isinstance(spec, OneMinusDelta):
        return 0 if n == spec.n1 else 1
    if isinstance(spec, ModM):
        return (n - 1) % spec.m
    if isinstance(spec, Prefix):
        return spec.prefix[n - 1]
    if isinstance(spec, DiffBits):
        return sum(spec.bits[:n - 1])
    if isinstance(spec, Shifted):
        return 0 if n <= spec.k else oracle_f(spec.inner, n - spec.k)
    if isinstance(spec, Perturbed):
        return oracle_f(spec.inner, n) + (spec.amount if n == spec.at else 0)
    if isinstance(spec, ConstLimit) and spec.form == "clamp":
        alpha = spec.alpha
        return alpha.numerator * min(n, spec.n0) // alpha.denominator
    if isinstance(spec, (ConstLimit, FracPowerSum)):
        return spec.value(n)
    raise TypeError(f"no oracle for {spec!r}")


def oracle_zero_regions(diff):
    """The maximal runs of zeros of diff as 1-based inclusive (lo, hi)
    pairs, by a walk over its values one at a time: the rule of
    perturb_compare's zero regions, which it finds by array passes."""
    regions, lo = [], None
    for i, v in enumerate(diff, start=1):
        if v == 0 and lo is None:
            lo = i
        elif v != 0 and lo is not None:
            regions.append((lo, i - 1))
            lo = None
    if lo is not None:
        regions.append((lo, len(diff)))
    return tuple(regions)


def oracle_two_term(offsets, init, start, outer, n_max):
    """Direct recursion with two nested lookups.

    Returns (values_dict, died_at, lookup); values_dict maps index -> value.
    """
    d1, d2 = offsets
    vals = {start + i: v for i, v in enumerate(init)}
    for n in range(start + len(init), n_max + 1):
        args = []
        for d in (d1, d2):
            a = n - outer * d - vals[n - d]
            if not (start <= a <= n - 1):
                return vals, n, a
            args.append(a)
        vals[n] = vals[args[0]] + vals[args[1]]
    return vals, None, None


def oracle_inverse_f(q):
    """f(1) = 0, f(n) = q(n) - q(n - q(n-1)); q is 1-based-as-list."""
    f = [0]
    for n in range(2, len(q) + 1):
        f.append(q[n - 1] - q[n - q[n - 2] - 1])
    return f


def oracle_triangle_cells(n_max):
    """(i, n) -> sorted tuple of the q(n) attained with f(n) = i, from
    compute_q_batch on every length-n_max slow prefix (its rows checked
    against oracle_q), in blocks merged by set union."""
    total = 1 << (n_max - 1)
    block = 1 << 16
    seen = set()
    for lo in range(0, total, block):
        f_mat = slow_prefix_matrix(n_max, lo, min(lo + block, total))
        q_mat, died = compute_q_batch(f_mat)
        if died.any():
            raise AssertionError("death inside slow enumeration")
        for n in range(1, n_max + 1):
            keys = f_mat[:, n - 1] * (n_max + 2) + q_mat[:, n - 1]
            for key in np.unique(keys):
                i, v = divmod(int(key), n_max + 2)
                seen.add((i, n, v))
    cells = {}
    for i, n, v in seen:
        cells.setdefault((i, n), []).append(v)
    return {k: tuple(sorted(vs)) for k, vs in cells.items()}


def first_mismatch(expected, actual, offset=1):
    """The first (n, expected, actual) where the whole arrays differ, n
    counting from offset at index 0, or None: the verifiers' comparison
    before they checked a closed form one residue class at a time."""
    bad = np.flatnonzero(np.asarray(expected) != np.asarray(actual))
    if not bad.size:
        return None
    i = int(bad[0])
    return (i + offset, int(np.asarray(expected)[i]),
            int(np.asarray(actual)[i]))


def oracle_propose_shifts(trace, min_run, max_candidates, window, anchors):
    """propose_shifts as it was before the narrowing search: every window
    of `window` differences, an N x window view, compared whole with the
    window at each of `anchors` anchors, and one scan per candidate shift;
    the max_candidates shifts with the longest runs, longest first."""
    q = trace.q_values if isinstance(trace, QTrace) else np.asarray(trace)
    dq = np.diff(q)
    if len(dq) < 2 * window:
        return []
    windows = sliding_window_view(dq, window)
    candidates = set()
    for a in np.linspace(0, len(dq) // 2, anchors, dtype=int):
        hits = np.flatnonzero((windows == dq[a:a + window]).all(axis=1))
        for h in hits:
            s = int(h) - int(a)
            if s > window:
                candidates.add(s)
    scored = []
    for s in candidates:
        found = analysis.scan_self_similarity(trace, [s], min_run=min_run)
        if found:
            scored.append((max(m.length for m in found), s))
    scored.sort(reverse=True)
    return [s for _, s in scored[:max_candidates]]


def oracle_self_similarity(q, shifts, min_run, start=1):
    """(shift, delta, lo, hi) of every maximal run of at least min_run
    indices i, start-based, with q(i + shift) - q(i) = delta, by a walk over
    the differences one at a time; by shift, then lo, for the distinct
    shifts in [1, len(q) - 1]."""
    q = [int(v) for v in q]
    found = []
    for s in sorted(set(shifts)):
        if not 1 <= s < len(q):
            continue
        d = [q[i + s] - q[i] for i in range(len(q) - s)]
        lo = 0
        for i in range(1, len(d) + 1):
            if i == len(d) or d[i] != d[lo]:
                if i - lo >= min_run:
                    found.append((s, d[lo], lo + start, i - 1 + start))
                lo = i
    return found
