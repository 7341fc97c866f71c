"""Exhaustive triangle of attained trace values.

cell (i, n) is the set of values q(n) attains over all slow zero-start
driving prefixes of length n whose final term f(n) equals i.  Built by
brute force over all 2^(n_max - 1) difference bitstrings (no sampling):
a depth-first walk of their prefix tree, kernels.slow_walk, which extends
q by one term per node and marks (n, f(n), q(n)) in a byte array.

The closed-form envelope cell is {1} for i = 0 and {i+1, ..., n} for
i >= 1; every attained cell is contained in its envelope, which is what
bounds q(n) by n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .engine import compute_q
from .errors import CapExceeded

# the walk has 2^n_max - 1 nodes; on a 2-core VM n_max = 30 takes ~5 s on
# the C kernel and n_max = 24 ~11 s on the pure-Python one; override per call
TRIANGLE_CAP = 30 if kernels.BACKEND == "c" else 24


@dataclass(frozen=True)
class TriangleTable:
    """cells maps (i, n) -> sorted tuple of attained q(n) values."""

    n_max: int
    cells: dict[tuple[int, int], tuple[int, ...]]

    def cell(self, i: int, n: int) -> tuple[int, ...]:
        if not (1 <= n <= self.n_max and 0 <= i <= n - 1):
            raise IndexError(f"no cell (i={i}, n={n})")
        return self.cells[(i, n)]

    def row(self, n: int) -> list[tuple[int, ...]]:
        return [self.cell(i, n) for i in range(n)]

    def to_text(self) -> str:
        width = len(str(self.n_max))
        lines = []
        for n in range(1, self.n_max + 1):
            cells = " ".join(format_cell(c) for c in self.row(n))
            lines.append(f"{n:>{width}}  {cells}")
        return "\n".join(lines)

    def to_json_cells(self) -> list[dict]:
        return [{"n": n, "i": i, "values": list(self.cells[(i, n)])}
                for n in range(1, self.n_max + 1) for i in range(n)]


def format_cell(values: tuple[int, ...]) -> str:
    """Render a sorted value set with interval shorthand: {1}, {2:4}, {2,4:5}."""
    runs = []
    start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((start, prev))
        start = prev = v
    runs.append((start, prev))
    parts = [str(a) if a == b else f"{a}:{b}" for a, b in runs]
    return "{" + ",".join(parts) + "}"


def build_triangle(n_max: int, cap: int = TRIANGLE_CAP) -> TriangleTable:
    """Exact triangle for all rows n <= n_max.

    One walk of the prefix tree of the length-n_max slow prefixes covers
    every row, since its node at depth n is a length-n prefix and q(n)
    depends only on the path to it.  The walk visits 2^n_max - 1 nodes
    (2^(n_max - 1) leaves) in O(n_max) memory and marks the attained
    (n, f(n), q(n)) in an n_max x n_max x (n_max + 1) byte array.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > cap:
        raise CapExceeded(f"triangle cap is n_max <= {cap}, got {n_max}")
    seen = np.zeros(kernels.walk_size(n_max), dtype=np.uint8)
    status, _ = kernels.slow_walk(seen, n_max)
    if status != kernels.OK:  # slow inputs cannot die; guard the enumeration
        raise AssertionError("death inside slow enumeration")
    cells: dict[tuple[int, int], list[int]] = {}
    # C order: by n, then f(n), then q(n), so each value list comes sorted
    ns, fs, vs = np.nonzero(seen.reshape(n_max, n_max, n_max + 1))
    for n, i, v in zip(ns.tolist(), fs.tolist(), vs.tolist()):
        cells.setdefault((i, n + 1), []).append(v)
    return TriangleTable(n_max, {key: tuple(values)
                                 for key, values in cells.items()})


def envelope(i: int, n: int) -> range:
    """Closed-form superset of cell (i, n): {1} if i = 0, else {i+1 .. n}."""
    if n < 1 or not (0 <= i <= n - 1):
        raise IndexError(f"no envelope cell (i={i}, n={n})")
    if i == 0:
        return range(1, 2)
    return range(i + 1, n + 1)


@dataclass(frozen=True)
class ContainmentReport:
    n_max: int
    violations: tuple[tuple[int, int, int], ...]  # (i, n, value) outside envelope
    strict_cells: tuple[tuple[int, int], ...]     # attained set a strict subset
    row_unions_equal: bool                        # union of each row == {1..n}

    @property
    def ok(self) -> bool:
        return not self.violations


def check_containment(table: TriangleTable) -> ContainmentReport:
    """Verify every attained cell is inside its envelope; list the strict
    cells; check each row's union is exactly {1..n}."""
    violations = []
    strict = []
    unions_equal = True
    for n in range(1, table.n_max + 1):
        row_union: set[int] = set()
        for i in range(n):
            attained = table.cell(i, n)
            env = envelope(i, n)
            for v in attained:
                if v not in env:
                    violations.append((i, n, v))
            if len(attained) < len(env):
                strict.append((i, n))
            row_union.update(attained)
        if row_union != set(range(1, n + 1)):
            unions_equal = False
    return ContainmentReport(table.n_max, tuple(violations), tuple(strict),
                             unions_equal)


@dataclass(frozen=True)
class MinReport:
    n_max: int
    mismatches: tuple[tuple[int, int, int], ...]        # (i, n, actual min)
    # (i, n, witness q(n)), q(n) 0 where the witness dies before n: 0 is
    # never a value of q
    witness_failures: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.witness_failures


def min_witness_prefix(i: int, n: int) -> tuple[int, ...]:
    """The driving prefix (0,...,0,1,2,...,i) with n-i leading zeros, which
    attains the minimum value i+1 in cell (i, n)."""
    if not (0 <= i <= n - 1):
        raise IndexError(f"no cell (i={i}, n={n})")
    return tuple([0] * (n - i)) + tuple(range(1, i + 1))


def check_min(table: TriangleTable) -> MinReport:
    """Verify min of each cell (i, n) is i+1 and that the zeros-then-ramp
    witness prefix attains it; a witness that dies first is reported with
    q(n) = 0."""
    mismatches = []
    witness_failures = []
    for n in range(1, table.n_max + 1):
        for i in range(n):
            got = table.cell(i, n)[0]
            if got != i + 1:
                mismatches.append((i, n, got))
            w = compute_q(min_witness_prefix(i, n), n)
            q = w.q(n) if w.exists else 0
            if q != i + 1:
                witness_failures.append((i, n, q))
    return MinReport(table.n_max, tuple(mismatches), tuple(witness_failures))


def triangle_json(table: TriangleTable) -> str:
    doc = {"schema": "hofq.triangle/1", "n_max": table.n_max,
           "cells": table.to_json_cells()}
    return json.dumps(doc, indent=None, separators=(",", ":"))
