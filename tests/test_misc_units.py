"""Edge-case unit tests across small helpers."""

import numpy as np
import pytest

from repro.bench.figures import write_report
from repro.runtime import ops
from repro.runtime.reduce_ops import MAX, SUM, ReduceOp


class TestReduceOps:
    def test_reduce_list(self):
        assert SUM.reduce([1, 2, 3]) == 6
        assert MAX.reduce([3, 1, 2]) == 3

    def test_reduce_empty_rejected(self):
        with pytest.raises(ValueError):
            SUM.reduce([])

    def test_elementwise_on_arrays(self):
        a, b = np.array([1.0, 5.0]), np.array([4.0, 2.0])
        np.testing.assert_array_equal(MAX(a, b), [4.0, 5.0])

    def test_custom_op(self):
        first = ReduceOp("FIRST", lambda a, b: a)
        assert first.reduce([7, 8, 9]) == 7

    def test_callable(self):
        assert SUM(2, 3) == 5


class TestOps:
    def test_compute_op_rejects_negative(self):
        with pytest.raises(ValueError):
            ops.ComputeOp(-1.0)

    def test_compute_op_zero_allowed(self):
        assert ops.ComputeOp(0.0).seconds == 0.0


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report("unit", "hello\nworld", tmp_path)
        assert path.read_text() == "hello\nworld\n"
        assert path.name == "unit.txt"

    def test_creates_directory(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        path = write_report("x", "y", out)
        assert path.exists()
