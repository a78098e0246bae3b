"""Tests for block partitions with movable boundaries."""

import numpy as np
import pytest

from repro.decomp.partition import BlockPartition, even_splits


class TestEvenSplits:
    def test_exact_division(self):
        np.testing.assert_array_equal(even_splits(12, 4), [0, 3, 6, 9, 12])

    def test_uneven_division_balanced(self):
        s = even_splits(10, 3)
        widths = np.diff(s)
        assert widths.sum() == 10
        assert widths.max() - widths.min() <= 1

    def test_more_parts_than_cells_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            even_splits(4, 5)

    def test_single_part(self):
        np.testing.assert_array_equal(even_splits(7, 1), [0, 7])


class TestPartitionValidation:
    def test_uniform_construction(self):
        p = BlockPartition.uniform(16, 4, 2)
        assert p.px == 4 and p.py == 2
        assert p.widths().tolist() == [4, 4, 4, 4]
        assert p.ysplits.tolist() == [0, 8, 16]

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ValueError, match="start at 0"):
            BlockPartition(16, np.array([1, 16]), np.array([0, 16]))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            BlockPartition(16, np.array([0, 8, 8, 16]), np.array([0, 16]))

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            BlockPartition(16, np.array([0, 10, 6, 16]), np.array([0, 16]))


class TestOwnership:
    def test_x_owner_uniform(self):
        p = BlockPartition.uniform(16, 4, 1)
        cols = np.array([0, 3, 4, 7, 8, 15])
        assert p.x_owner(cols).tolist() == [0, 0, 1, 1, 2, 3]

    def test_owner_rank_row_major(self):
        p = BlockPartition.uniform(8, 2, 2)
        # cell (0,0) -> rank 0; (0,4) -> rank 1; (4,0) -> rank 2; (4,4) -> 3
        assert p.owner_rank(np.array([0, 0, 4, 4]), np.array([0, 4, 0, 4])).tolist() == [0, 1, 2, 3]

    def test_owner_after_boundary_move(self):
        p = BlockPartition.uniform(16, 4, 1)
        moved = p.with_xsplits([0, 2, 8, 12, 16])
        assert moved.x_owner(np.array([3])).tolist() == [1]
        assert p.x_owner(np.array([3])).tolist() == [0]

    def test_every_cell_owned_exactly_once(self):
        p = BlockPartition(12, np.array([0, 1, 5, 12]), np.array([0, 6, 12]))
        cols = np.arange(12)
        owners = p.x_owner(cols)
        counts = np.bincount(owners, minlength=3)
        assert counts.tolist() == [1, 4, 7]


class TestGeometry:
    def test_block_shape_and_cells(self):
        p = BlockPartition(12, np.array([0, 4, 12]), np.array([0, 3, 12]))
        assert p.block_shape(0, 0) == (4, 3)
        assert p.block_cells(1, 1) == 8 * 9

    def test_ranges(self):
        p = BlockPartition.uniform(16, 4, 2)
        assert p.x_range(1) == (4, 8)
        assert p.y_range(1) == (8, 16)


class TestBoundaryMoves:
    def test_with_xsplits_immutably(self):
        p = BlockPartition.uniform(16, 4, 1)
        q = p.with_xsplits([0, 2, 8, 12, 16])
        assert p.xsplits.tolist() == [0, 4, 8, 12, 16]
        assert q.xsplits.tolist() == [0, 2, 8, 12, 16]

    def test_equality(self):
        a = BlockPartition.uniform(16, 4, 2)
        b = BlockPartition.uniform(16, 4, 2)
        c = a.with_xsplits([0, 2, 8, 12, 16])
        assert a == b
        assert a != c
