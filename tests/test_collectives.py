"""Ring AllReduce / AllGatherv: correctness and transfer accounting."""

import numpy as np
import pytest

from repro.comm import Transcript, ring_allgatherv, ring_allreduce
from repro.comm.allreduce import chunk_bounds
from repro.tensor.sparse import IndexedSlices


RNG = np.random.default_rng(0)


class TestChunkBounds:
    def test_even(self):
        assert chunk_bounds(12, 4) == [0, 3, 6, 9, 12]

    def test_remainder_front_loaded(self):
        assert chunk_bounds(10, 4) == [0, 3, 6, 8, 10]

    def test_more_chunks_than_elements(self):
        bounds = chunk_bounds(2, 4)
        assert bounds[0] == 0 and bounds[-1] == 2
        assert len(bounds) == 5


class TestRingAllReduce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    def test_equals_sum(self, n):
        arrays = [RNG.standard_normal((5, 3)).astype(np.float32)
                  for _ in range(n)]
        results = ring_allreduce(arrays)
        expected = np.sum(arrays, axis=0)
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-5, atol=1e-6)

    def test_all_copies_bit_identical(self):
        arrays = [RNG.standard_normal(17).astype(np.float32)
                  for _ in range(5)]
        results = ring_allreduce(arrays)
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32])
    def test_result_is_float32_for_every_worker_count(self, n, dtype):
        """Regression: one worker used to get its input's dtype back
        while every larger ring returned float32."""
        arrays = [np.arange(6).reshape(2, 3).astype(dtype)
                  for _ in range(n)]
        results = ring_allreduce(arrays)
        assert len(results) == n
        for r in results:
            assert r.dtype == np.float32 and r.shape == (2, 3)
            np.testing.assert_array_equal(r, n * np.arange(6).reshape(2, 3))
        assert not np.shares_memory(results[0], arrays[0])

    def test_mean_of_three_divides_rather_than_scales(self):
        """x / 3 and x * (1/3) round differently; the mean is a division."""
        arrays = [np.full(5, v, dtype=np.float32) for v in (0.1, 0.2, 0.4)]
        total = ring_allreduce(arrays)[0]
        np.testing.assert_array_equal(
            ring_allreduce(arrays, average=True)[0], total / np.float32(3))

    def test_small_array_fewer_elements_than_workers(self):
        arrays = [np.array([float(i)], dtype=np.float32) for i in range(6)]
        results = ring_allreduce(arrays)
        for r in results:
            np.testing.assert_allclose(r, [15.0])

    def test_mean_variant(self):
        arrays = [np.full(4, float(i), dtype=np.float32) for i in range(4)]
        results = ring_allreduce(arrays, average=True)
        np.testing.assert_allclose(results[0], np.full(4, 1.5))

    def test_inputs_not_mutated(self):
        arrays = [np.ones(4, dtype=np.float32) for _ in range(3)]
        ring_allreduce(arrays)
        for a in arrays:
            np.testing.assert_array_equal(a, np.ones(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.zeros(3), np.zeros(4)])

    def test_machines_length_checked(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.zeros(3)] * 3, machines=[0, 1])

    def test_per_worker_bytes_match_ring_formula(self):
        """Each worker sends 2(N-1) chunks of ~w/N bytes (paper sec 3.1)."""
        n = 4
        elements = 64
        arrays = [np.zeros(elements, dtype=np.float32) for _ in range(n)]
        transcript = Transcript()
        # One worker per machine so every hop is a network transfer.
        ring_allreduce(arrays, machines=list(range(n)),
                       transcript=transcript)
        w = elements * 4
        expected_per_worker = 2 * (n - 1) * w / n
        loads = transcript.bytes_per_machine()
        for m in range(n):
            assert loads[m]["out"] == pytest.approx(expected_per_worker)
            assert loads[m]["in"] == pytest.approx(expected_per_worker)

    def test_intra_machine_hops_cost_nothing(self):
        arrays = [np.zeros(16, dtype=np.float32) for _ in range(4)]
        transcript = Transcript()
        ring_allreduce(arrays, machines=[0, 0, 0, 0], transcript=transcript)
        assert transcript.total_network_bytes() == 0

    def test_stage_count(self):
        """2(N-1) ring steps produce 2(N-1) distinct stages."""
        n = 5
        arrays = [np.zeros(20, dtype=np.float32) for _ in range(n)]
        transcript = Transcript()
        ring_allreduce(arrays, machines=list(range(n)), transcript=transcript)
        stages = {t.stage for t in transcript.transfers}
        assert stages == set(range(2 * (n - 1)))


class TestRingAllGatherv:
    def make_slices(self, n, rows_each=2, dim=3, dense_rows=20):
        return [
            IndexedSlices(
                RNG.standard_normal((rows_each, dim)).astype(np.float32),
                RNG.integers(0, dense_rows, size=rows_each),
                (dense_rows, dim),
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_concatenates_in_worker_order(self, n):
        contributions = self.make_slices(n)
        results = ring_allgatherv(contributions)
        expected_indices = np.concatenate([c.indices for c in contributions])
        for r in results:
            np.testing.assert_array_equal(r.indices, expected_indices)

    def test_all_copies_identical(self):
        results = ring_allgatherv(self.make_slices(4))
        for r in results[1:]:
            assert r == results[0]

    def test_built_once_and_never_aliases_a_contribution(self):
        for n in (1, 3):
            contributions = self.make_slices(n)
            results = ring_allgatherv(contributions)
            assert len(results) == n
            assert all(r is results[0] for r in results)
            for c in contributions:
                assert not np.shares_memory(results[0].values, c.values)

    def test_dense_equivalent_is_sum(self):
        contributions = self.make_slices(4)
        result = ring_allgatherv(contributions)[0]
        expected = np.sum([c.to_dense() for c in contributions], axis=0)
        np.testing.assert_allclose(result.to_dense(), expected,
                                   rtol=1e-5, atol=1e-6)

    def test_variable_length_contributions(self):
        contributions = [
            IndexedSlices(np.ones((k + 1, 2), np.float32),
                          list(range(k + 1)), (10, 2))
            for k in range(3)
        ]
        result = ring_allgatherv(contributions)[0]
        assert result.num_rows == 1 + 2 + 3

    def test_duplicates_not_combined(self):
        """AllGatherv is pure concatenation (the consumer combines)."""
        contributions = [
            IndexedSlices(np.ones((1, 2), np.float32), [5], (10, 2))
            for _ in range(3)
        ]
        result = ring_allgatherv(contributions)[0]
        assert result.num_rows == 3

    def test_per_machine_bytes_match_formula(self):
        """Each machine sends/receives (N-1) * alpha*w bytes (Table 3)."""
        n = 4
        rows, dim, dense_rows = 3, 5, 100
        contributions = [
            IndexedSlices(np.zeros((rows, dim), np.float32),
                          [0, 1, 2], (dense_rows, dim))
            for _ in range(n)
        ]
        transcript = Transcript()
        ring_allgatherv(contributions, machines=list(range(n)),
                        transcript=transcript)
        alpha_w = rows * dim * 4
        loads = transcript.bytes_per_machine(tag_prefix="allgatherv")
        for m in range(n):
            assert loads[m]["out"] == (n - 1) * alpha_w
            assert loads[m]["in"] == (n - 1) * alpha_w

    def test_index_bytes_tracked_separately(self):
        contributions = self.make_slices(3)
        transcript = Transcript()
        ring_allgatherv(contributions, machines=[0, 1, 2],
                        transcript=transcript)
        idx_bytes = transcript.total_network_bytes("idx:allgatherv")
        assert idx_bytes == 2 * sum(c.index_nbytes for c in contributions)

    def test_shape_mismatch_rejected(self):
        a = IndexedSlices(np.zeros((1, 2), np.float32), [0], (10, 2))
        b = IndexedSlices(np.zeros((1, 2), np.float32), [0], (20, 2))
        with pytest.raises(ValueError):
            ring_allgatherv([a, b])


class TestTranscript:
    def test_zero_byte_transfers_dropped(self):
        t = Transcript()
        t.record("x", 0, 1, 0)
        assert len(t) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Transcript().record("x", 0, 1, -5)

    def test_intra_machine_excluded_from_network(self):
        t = Transcript()
        t.record("x", 0, 0, 100)
        t.record("x", 0, 1, 50)
        assert t.total_network_bytes() == 50
        assert len(t.filter(network_only=False)) == 2

    def test_tag_prefix_filter(self):
        t = Transcript()
        t.record("pull/a", 0, 1, 10)
        t.record("push/a", 1, 0, 20)
        assert t.total_network_bytes("pull") == 10

    def test_max_machine_bytes(self):
        t = Transcript()
        t.record("x", 0, 1, 100)
        t.record("x", 0, 2, 100)
        # machine 0 carries 200 out; the hot spot metric sees it
        assert t.max_machine_bytes() == 200

    def test_clear(self):
        t = Transcript()
        t.record("x", 0, 1, 10)
        t.clear()
        assert len(t) == 0
