"""Tests for IndexedSlices: the sparse gradient representation."""

import numpy as np
import pytest

from repro.tensor.sparse import IndexedSlices, concat_slices, to_dense


def make(values, indices, dense_shape=(10, 2)):
    return IndexedSlices(np.asarray(values, dtype=np.float32),
                         np.asarray(indices), dense_shape)


class TestConstruction:
    def test_basic(self):
        sl = make([[1, 2], [3, 4]], [0, 5])
        assert sl.num_rows == 2
        assert sl.dense_shape == (10, 2)

    def test_indices_rank_checked(self):
        with pytest.raises(ValueError):
            IndexedSlices(np.zeros((2, 2), np.float32),
                          np.zeros((2, 1), np.int64), (10, 2))

    def test_leading_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make([[1, 2]], [0, 1])

    def test_trailing_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IndexedSlices(np.zeros((2, 3), np.float32), [0, 1], (10, 2))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            make([[1, 2]], [10])
        with pytest.raises(ValueError):
            make([[1, 2]], [-1])

    def test_empty_slices_allowed(self):
        sl = make(np.zeros((0, 2)), [])
        assert sl.num_rows == 0
        assert sl.alpha() == 0.0


class TestAccounting:
    def test_num_unique_rows_counts_duplicates_once(self):
        sl = make([[1, 1], [2, 2], [3, 3]], [4, 4, 7])
        assert sl.num_rows == 3
        assert sl.num_unique_rows == 2

    def test_alpha_is_unique_fraction(self):
        sl = make([[1, 1], [2, 2], [3, 3]], [4, 4, 7])
        assert sl.alpha() == pytest.approx(0.2)

    def test_value_and_index_bytes(self):
        sl = make([[1, 1], [2, 2]], [0, 1])
        assert sl.value_nbytes == 2 * 2 * 4
        assert sl.index_nbytes == 2 * 8


class TestCombine:
    def test_sums_duplicate_indices(self):
        sl = make([[1, 0], [2, 0], [4, 1]], [3, 3, 5]).combine()
        assert list(sl.indices) == [3, 5]
        np.testing.assert_array_equal(sl.values, [[3, 0], [4, 1]])

    def test_sorts_indices(self):
        sl = make([[1, 0], [2, 0]], [7, 2]).combine()
        assert list(sl.indices) == [2, 7]

    def test_idempotent_when_unique(self):
        sl = make([[1, 0], [2, 0]], [2, 7])
        combined = sl.combine()
        assert combined == sl.combine().combine()

    def test_preserves_dense_equivalent(self):
        rng = np.random.default_rng(0)
        sl = make(rng.standard_normal((20, 2)),
                  rng.integers(0, 10, size=20))
        np.testing.assert_allclose(sl.combine().to_dense(), sl.to_dense(),
                                   rtol=1e-5, atol=1e-6)

    def test_empty(self):
        sl = make(np.zeros((0, 2)), []).combine()
        assert sl.num_rows == 0


class TestToDense:
    def test_duplicates_accumulate(self):
        dense = make([[1, 0], [2, 0]], [3, 3]).to_dense()
        np.testing.assert_array_equal(dense[3], [3, 0])

    def test_untouched_rows_zero(self):
        dense = make([[1, 1]], [0]).to_dense()
        assert not dense[1:].any()

    def test_to_dense_helper_passes_arrays_through(self):
        arr = np.ones((2, 2))
        assert to_dense(arr) is not None
        np.testing.assert_array_equal(to_dense(arr), arr)


class TestSliceRows:
    def test_partition_and_rebase(self):
        sl = make([[1, 0], [2, 0], [3, 0]], [1, 5, 9])
        part = sl.slice_rows(4, 8)
        assert list(part.indices) == [1]  # 5 - 4
        assert part.dense_shape == (4, 2)
        np.testing.assert_array_equal(part.values, [[2, 0]])

    def test_partitions_cover_everything(self):
        sl = make(np.arange(12, dtype=np.float32).reshape(6, 2),
                  [0, 2, 4, 6, 8, 9])
        parts = [sl.slice_rows(0, 5), sl.slice_rows(5, 10)]
        assert sum(p.num_rows for p in parts) == sl.num_rows
        rebuilt = np.zeros((10, 2), dtype=np.float32)
        rebuilt[0:5] = parts[0].to_dense()
        rebuilt[5:10] = parts[1].to_dense()
        np.testing.assert_array_equal(rebuilt, sl.to_dense())


class TestConcatAndAdd:
    def test_concat_preserves_order(self):
        a = make([[1, 0]], [2])
        b = make([[2, 0]], [2])
        cat = concat_slices([a, b])
        assert list(cat.indices) == [2, 2]
        assert cat.num_rows == 2

    def test_concat_shape_mismatch_rejected(self):
        a = make([[1, 0]], [2], dense_shape=(10, 2))
        b = make([[1, 0]], [2], dense_shape=(20, 2))
        with pytest.raises(ValueError):
            concat_slices([a, b])

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat_slices([])

    def test_add_slices_equals_dense_sum(self):
        rng = np.random.default_rng(1)
        a = make(rng.standard_normal((4, 2)), rng.integers(0, 10, 4))
        b = make(rng.standard_normal((4, 2)), rng.integers(0, 10, 4))
        np.testing.assert_allclose(
            concat_slices([a, b]).combine().to_dense(),
            a.to_dense() + b.to_dense(),
            rtol=1e-5, atol=1e-6,
        )


class TestMisc:
    def test_scale(self):
        sl = make([[2, 4]], [1]).scale(0.5)
        np.testing.assert_array_equal(sl.values, [[1, 2]])

    def test_copy_is_deep(self):
        sl = make([[1, 1]], [0])
        cp = sl.copy()
        cp.values[0, 0] = 99
        assert sl.values[0, 0] == 1

    def test_equality(self):
        assert make([[1, 1]], [0]) == make([[1, 1]], [0])
        assert make([[1, 1]], [0]) != make([[1, 1]], [1])
