"""Unit tests for repro.util.validation."""

import numpy as np
import pytest

from repro.core import SparseTensor
from repro.data import read_tns
from repro.streaming import DeltaBatch
from repro.util.validation import (
    check_axis,
    check_dtype_real,
    check_finite,
    check_positive_int,
    check_rank_vector,
    check_same_order,
    check_shape_vector,
)


class TestCheckPositiveInt:
    def test_accepts_python_int(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="positive"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-2, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")

    def test_error_mentions_name(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive_int(-1, "my_param")


class TestCheckAxis:
    def test_valid_axis(self):
        assert check_axis(1, 3) == 1

    def test_negative_axis_wraps(self):
        assert check_axis(-1, 3) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_axis(3, 3)

    def test_too_negative(self):
        with pytest.raises(ValueError):
            check_axis(-4, 3)

    def test_non_integer(self):
        with pytest.raises(TypeError):
            check_axis(1.0, 3)


class TestCheckShapeVector:
    def test_tuple_roundtrip(self):
        assert check_shape_vector((3, 4, 5)) == (3, 4, 5)

    def test_list_converted(self):
        assert check_shape_vector([2, 2]) == (2, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_shape_vector(())

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            check_shape_vector((3, 0, 5))

    def test_rejects_non_numeric(self):
        with pytest.raises((TypeError, ValueError)):
            check_shape_vector(("a", "b"))


class TestCheckRankVector:
    def test_scalar_broadcast(self):
        assert check_rank_vector(4, (10, 20, 30)) == (4, 4, 4)

    def test_vector_passthrough(self):
        assert check_rank_vector((2, 3, 4), (10, 20, 30)) == (2, 3, 4)

    def test_clipped_to_mode_size(self):
        assert check_rank_vector(50, (10, 20, 30)) == (10, 20, 30)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_rank_vector((2, 3), (10, 20, 30))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_rank_vector((2, 0, 4), (10, 20, 30))


class TestCheckSameOrder:
    def test_matching_length(self):
        check_same_order(3, [1, 2, 3], "items")

    def test_mismatch_raises(self):
        with pytest.raises(ValueError, match="items"):
            check_same_order(3, [1, 2], "items")


class TestCheckDtypeReal:
    def test_float_passthrough(self):
        arr = np.array([1.0, 2.0])
        assert check_dtype_real(arr, "a").dtype == np.float64

    def test_int_converted(self):
        assert check_dtype_real(np.array([1, 2]), "a").dtype == np.float64

    def test_complex_rejected(self):
        with pytest.raises(TypeError):
            check_dtype_real(np.array([1j]), "a")


_NON_FINITE = pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
)


class TestNonFiniteValues:
    """One gate, at tensor and delta-batch construction, names count and position."""

    INDICES = np.array([[0, 0, 0], [1, 2, 3], [2, 4, 5], [3, 1, 1]])

    def test_check_finite_passes_finite_values(self):
        check_finite(np.array([0.0, -1.5, 1e300], dtype=np.float64))
        check_finite(np.empty(0, dtype=np.float32))

    def test_message_gives_count_and_first_position(self):
        values = np.array([1.0, np.inf, 2.0, np.nan])
        with pytest.raises(ValueError, match=r"2 non-finite entries .* inf, at position 1"):
            check_finite(values)

    @_NON_FINITE
    def test_sparse_tensor_rejects(self, bad):
        values = np.array([1.0, 2.0, bad, 3.0])
        with pytest.raises(ValueError, match=r"1 non-finite entry .* at position 2"):
            SparseTensor(self.INDICES, values, (4, 5, 6))

    @_NON_FINITE
    def test_delta_batch_rejects(self, bad):
        values = np.array([bad, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"1 non-finite entry .* at position 0"):
            DeltaBatch(self.INDICES, values)

    def test_float32_overflow_rejected(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="non-finite"):
                SparseTensor(self.INDICES[:1], np.array([1e39]), (4, 5, 6),
                             dtype="float32")

    def test_tns_file_with_nan(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("1 1 1 1.0\n2 3 4 nan\n3 5 6 2.0\n")
        with pytest.raises(ValueError, match=r"1 non-finite entry .* at position 1"):
            read_tns(path)

    def test_scale_by_inf(self):
        tensor = SparseTensor(self.INDICES, np.arange(1.0, 5.0), (4, 5, 6))
        with pytest.raises(ValueError, match="4 non-finite entries"):
            tensor.scale(np.inf)
