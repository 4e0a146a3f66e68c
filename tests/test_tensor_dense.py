"""Tests for repro.tensor.dense: specs, conversion, byte accounting."""

import numpy as np
import pytest

from repro.tensor.dense import TensorSpec, as_array, nbytes_of
from repro.tensor.sparse import IndexedSlices


class TestAsArray:
    def test_float_list_becomes_float32(self):
        arr = as_array([1.0, 2.0, 3.0])
        assert arr.dtype == np.float32

    def test_int_list_stays_integral(self):
        arr = as_array([1, 2, 3])
        assert np.issubdtype(arr.dtype, np.integer)

    def test_bool_stays_bool(self):
        arr = as_array([True, False])
        assert arr.dtype == np.bool_

    def test_explicit_dtype_wins(self):
        arr = as_array([1, 2], dtype=np.float64)
        assert arr.dtype == np.float64

    def test_float64_downcast_to_float32(self):
        arr = as_array(np.zeros(3, dtype=np.float64))
        assert arr.dtype == np.float32

    def test_scalar(self):
        assert as_array(2.5).shape == ()

    def test_contiguous(self):
        base = np.zeros((4, 4), dtype=np.float32)[::2]
        assert as_array(base).flags["C_CONTIGUOUS"]


class TestTensorSpec:
    def test_num_elements(self):
        assert TensorSpec((3, 4, 5)).num_elements == 60

    def test_scalar_spec(self):
        spec = TensorSpec(())
        assert spec.num_elements == 1
        assert spec.rank == 0

    def test_nbytes_float32(self):
        assert TensorSpec((10,), "float32").nbytes == 40

    def test_nbytes_int64(self):
        assert TensorSpec((10,), "int64").nbytes == 80

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec((3, -1))

    def test_of_array(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        spec = TensorSpec.of(arr)
        assert spec.shape == (2, 3)
        assert spec.dtype == "float32"

    def test_with_leading_dim(self):
        spec = TensorSpec((10, 4)).with_leading_dim(3)
        assert spec.shape == (3, 4)

    def test_with_leading_dim_scalar_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec(()).with_leading_dim(3)

    def test_specs_hashable_and_equal(self):
        assert TensorSpec((2, 2)) == TensorSpec((2, 2))
        assert hash(TensorSpec((2, 2))) == hash(TensorSpec((2, 2)))

    def test_dims_coerced_to_int(self):
        spec = TensorSpec((np.int64(3), np.int64(4)))
        assert spec.shape == (3, 4)
        assert all(isinstance(d, int) for d in spec.shape)


class TestNbytes:
    def test_dense_array(self):
        assert nbytes_of(np.zeros((5, 5), dtype=np.float32)) == 100

    def test_indexed_slices_counts_values_only(self):
        sl = IndexedSlices(np.zeros((3, 4), dtype=np.float32), [0, 1, 2],
                           (100, 4))
        assert nbytes_of(sl) == 3 * 4 * 4

    def test_scalar(self):
        assert nbytes_of(np.float32(1.0)) == 4
