import json

import numpy as np
import pytest

from hofq import kernels, triangle
from hofq.errors import CapExceeded
from hofq.engine import compute_q, compute_q_batch
from hofq.exactfloor import staircase_value
from hofq.fspec import slow_prefix_matrix
from oracle import oracle_triangle_cells
from hofq.triangle import (
    build_triangle,
    check_containment,
    check_min,
    envelope,
    format_cell,
    min_witness_prefix,
    triangle_json,
)

# transcription of the published 8-row table of attained-value sets
FIRST_EIGHT_ROWS = [
    [{1}],
    [{1}, {2}],
    [{1}, {2}, {3}],
    [{1}, {2, 3}, {3, 4}, {4}],
    [{1}, {2, 3}, {3, 4}, {4, 5}, {5}],
    [{1}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6}],
    [{1}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}, {5, 6, 7}, {6, 7}, {7}],
    [{1}, {2, 3, 4}, {3, 4, 5, 6}, {4, 5, 6, 7}, {5, 6, 7}, {6, 7, 8},
     {7, 8}, {8}],
]


@pytest.fixture(scope="module")
def table8():
    return build_triangle(8)


def test_first_eight_rows_exact(table8):
    assert table8.n_max == 8
    for n in range(1, 9):
        got = [set(c) for c in table8.row(n)]
        assert got == FIRST_EIGHT_ROWS[n - 1], f"row {n}"


def test_single_cells(table8):
    assert table8.cell(1, 4) == (2, 3)
    for n in range(1, 9):
        assert table8.cell(0, n) == (1,)
        assert table8.cell(n - 1, n) == (n,)
    with pytest.raises(IndexError):
        table8.cell(4, 4)


def test_envelope_cells():
    assert list(envelope(1, 4)) == [2, 3, 4]
    assert list(envelope(0, 9)) == [1]
    assert list(envelope(6, 7)) == [7]
    assert len(envelope(3, 10)) == 10 - 3
    with pytest.raises(IndexError):
        envelope(5, 5)
    with pytest.raises(IndexError):
        envelope(-1, 4)


def test_containment_report(table8):
    rep = check_containment(table8)
    assert rep.ok and not rep.violations
    assert (1, 4) in rep.strict_cells
    assert rep.row_unions_equal


def test_min_report(table8):
    rep = check_min(table8)
    assert rep.ok
    assert table8.cell(1, 4)[0] == 2
    assert table8.cell(0, 5)[0] == 1


def _doctored(table, cells):
    """table with the given cells (i, n) -> values in place of its own."""
    return triangle.TriangleTable(table.n_max, {**table.cells, **cells})


def test_containment_reports_a_value_outside_its_envelope(table8):
    rep = check_containment(_doctored(table8, {(0, 3): (1, 4),
                                                  (2, 5): (2, 3, 4)}))
    assert not rep.ok
    assert rep.violations == ((0, 3, 4), (2, 5, 2))  # 3 is in {3..5}
    assert not rep.row_unions_equal  # row 3 holds 4


def test_containment_reports_a_row_that_misses_a_value(table8):
    # row 2 without 2, which only cell (1, 2) holds: inside every envelope
    rep = check_containment(_doctored(table8, {(1, 2): ()}))
    assert rep.ok and not rep.row_unions_equal
    assert (1, 2) in rep.strict_cells


def test_min_reports_a_cell_whose_min_is_not_i_plus_1(table8):
    rep = check_min(_doctored(table8, {(1, 4): (3, 4), (0, 6): (2,)}))
    assert not rep.ok and rep.witness_failures == ()
    assert rep.mismatches == ((1, 4, 3), (0, 6, 2))


def test_min_reports_a_witness_that_misses_the_min(table8, monkeypatch):
    """A witness prefix that does not reach i + 1 at n is reported with its
    q(n), and one that dies with the last term it has."""
    real = triangle.min_witness_prefix
    planted = {(1, 3): (0, 0, 0), (2, 5): (0, 2, 2, 2, 2)}
    monkeypatch.setattr(triangle, "min_witness_prefix",
                        lambda i, n: planted.get((i, n)) or real(i, n))
    rep = check_min(table8)
    assert not rep.ok and rep.mismatches == ()
    assert rep.witness_failures == ((1, 3, 1), (2, 5, 3))
    assert all(type(q) is int for _, _, q in rep.witness_failures)


def test_min_witness_example():
    # n - i leading zeros then the ramp: (0,0,0,0,1,2) gives q(6) = 3
    w = min_witness_prefix(2, 6)
    assert w == (0, 0, 0, 0, 1, 2)
    assert compute_q(w, 6).q(6) == 3


def test_invariants_to_16():
    table = build_triangle(16)
    rep = check_containment(table)
    assert rep.ok and rep.row_unions_equal
    assert check_min(table).ok
    for n in range(1, 17):
        assert table.cell(0, n) == (1,)
        assert table.cell(n - 1, n) == (n,)
        union = set().union(*(table.cell(i, n) for i in range(n)))
        assert union <= set(range(1, n + 1))


def test_second_diagonal_is_staircase_interval():
    # cell (1, n) is exactly {2 .. floor(1/2 + sqrt(2n - 7/4))}
    table = build_triangle(20)
    for n in range(2, 21):
        assert table.cell(1, n) == tuple(range(2, staircase_value(n) + 1))


def test_predecessor_structure():
    # every attained (i, n) value comes from a driver with f(n-1) in {i-1, i}
    for n in range(2, 11):
        f_mat = slow_prefix_matrix(n, 0, 1 << (n - 1))
        q_mat, died = compute_q_batch(f_mat)
        assert not died.any()
        for i in range(n):
            rows = np.nonzero(f_mat[:, n - 1] == i)[0]
            preds = set(int(v) for v in f_mat[rows, n - 2])
            assert preds <= {i - 1, i}


def test_walk_matches_batch_oracle(kernel_backend, monkeypatch):
    monkeypatch.setattr(kernels, "slow_walk", kernel_backend.slow_walk)
    for n in range(1, 17):
        assert build_triangle(n).cells == oracle_triangle_cells(n), n


def test_walk_failure_raises(monkeypatch):
    # slow prefixes cannot die, so only a broken kernel reaches this guard
    for status in (kernels.DIED, kernels.OVERFLOW):
        monkeypatch.setattr(kernels, "slow_walk", lambda seen, m: (status, 3))
        with pytest.raises(AssertionError, match="death inside slow"):
            build_triangle(5)


def test_invariants_at_24_on_the_c_kernels(c_kernels, monkeypatch):
    monkeypatch.setattr(kernels, "slow_walk", c_kernels.slow_walk)
    table = build_triangle(24)
    assert check_containment(table).ok
    assert check_min(table).ok


def test_depth_is_bounded_before_allocation():
    # n_max = 10**6 would ask for 10**18 bytes if the bound came too late
    for n_max in (63, 10**6):
        with pytest.raises(ValueError, match="walk depth"):
            build_triangle(n_max, cap=n_max)


def test_default_cap_follows_backend():
    assert triangle.TRIANGLE_CAP == (30 if kernels.BACKEND == "c" else 24)


def test_cap():
    with pytest.raises(CapExceeded):
        build_triangle(triangle.TRIANGLE_CAP + 1)
    with pytest.raises(CapExceeded):
        build_triangle(11, cap=10)


def test_text_render(table8):
    lines = table8.to_text().splitlines()
    assert lines[3] == "4  {1} {2:3} {3:4} {4}"
    assert lines[7] == "8  {1} {2:4} {3:6} {4:7} {5:7} {6:8} {7:8} {8}"


def test_format_cell_runs():
    assert format_cell((1,)) == "{1}"
    assert format_cell((2, 3, 4)) == "{2:4}"
    assert format_cell((1, 3, 4)) == "{1,3:4}"
    assert format_cell((1, 3, 5)) == "{1,3,5}"


def test_json_cells(table8):
    doc = json.loads(triangle_json(table8))
    assert doc["schema"] == "hofq.triangle/1"
    assert doc["n_max"] == 8
    assert {"n": 4, "i": 1, "values": [2, 3]} in doc["cells"]
    assert len(doc["cells"]) == 36
