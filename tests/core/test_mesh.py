"""Tests for the periodic alternating-charge mesh (paper §III-B/C)."""

import numpy as np
import pytest

from repro.core.mesh import Mesh


class TestMeshConstruction:
    def test_valid_mesh(self):
        m = Mesh(cells=8, h=1.0, q=1.0)
        assert m.L == 8.0

    def test_odd_cells_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Mesh(cells=7)

    def test_nonpositive_h_rejected(self):
        with pytest.raises(ValueError):
            Mesh(cells=8, h=0.0)

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            Mesh(cells=8, q=-1.0)

    def test_noninteger_h_scales_L(self):
        m = Mesh(cells=8, h=0.5)
        assert m.L == 4.0


class TestCharges:
    def test_alternating_pattern(self):
        m = Mesh(cells=8, q=2.0)
        i = np.arange(8)
        charges = m.point_charge(i)
        assert charges.tolist() == [2.0, -2.0] * 4

    def test_periodic_wrap_preserves_parity(self):
        m = Mesh(cells=8)
        # Column 8 wraps to column 0 (even): even cell count keeps the
        # pattern consistent across the seam.
        assert m.point_charge(8) == m.point_charge(0)
        assert m.point_charge(-1) == m.point_charge(7)

    def test_column_sign_matches_charge(self):
        m = Mesh(cells=16, q=3.5)
        i = np.arange(-16, 32)
        np.testing.assert_allclose(m.point_charge(i), m.column_sign(i) * 3.5)


class TestGeometry:
    def test_cell_of_interior_points(self):
        m = Mesh(cells=8)
        x = np.array([0.1, 0.9, 1.0, 7.999])
        assert m.cell_of(x).tolist() == [0, 0, 1, 7]

    def test_cell_of_respects_h(self):
        m = Mesh(cells=8, h=0.5)
        assert m.cell_of(np.array([0.6, 1.2])).tolist() == [1, 2]

    def test_cell_of_wraps(self):
        m = Mesh(cells=8)
        assert m.cell_of(np.array([8.1, -0.1])).tolist() == [0, 7]

    def test_stored_bytes(self):
        m = Mesh(cells=8)
        assert m.stored_bytes_for_cells(100) == 800
        assert m.stored_bytes_for_cells(100, bytes_per_point=4) == 400
