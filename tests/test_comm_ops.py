"""Distributed op kernels: shard_lookup, stitch, densify, aggregations."""

import numpy as np

from repro.core.transform import comm_ops  # noqa: F401 (registers kernels)
from repro.graph.executor import DIRECT
from repro.graph.ops import FORWARD
from repro.tensor.sparse import IndexedSlices


class FakeRuntime:
    """Minimal runtime for exercising kernels directly."""

    def __init__(self):
        self.run_cache = {}
        self.transcript = None


def kernel(op_type):
    """The op type's one body as ``kernel(op, inputs, runtime)``: a pure
    op's DIRECT body -- what generated plans run -- or its FORWARD kernel."""
    builder = DIRECT.get(op_type)
    if builder is None:
        return FORWARD[op_type]
    return lambda op, inputs, runtime: builder(op)(*inputs)


class FakeOp:
    def __init__(self, op_type, attrs):
        self.op_type = op_type
        self.attrs = attrs
        self.name = f"fake_{op_type}"


class TestShardLookup:
    def test_selects_range_rebased(self):
        shard = np.arange(12, dtype=np.float32).reshape(4, 3)  # rows 4..7
        ids = np.array([5, 2, 7, 5])
        op = FakeOp("shard_lookup", {"lo": 4, "hi": 8, "row_shape": (3,)})
        out = kernel("shard_lookup")(op, [shard, ids], FakeRuntime())
        # ids in range: 5, 7, 5 -> local rows 1, 3, 1 in appearance order
        np.testing.assert_array_equal(out, shard[[1, 3, 1]])

    def test_empty_when_no_ids_in_range(self):
        shard = np.ones((4, 3), dtype=np.float32)
        op = FakeOp("shard_lookup", {"lo": 4, "hi": 8, "row_shape": (3,)})
        out = kernel("shard_lookup")(op, [shard, np.array([0, 1])],
                                     FakeRuntime())
        assert out.shape == (0, 3)

    def test_grad_matches_lookup_mask(self):
        ids = np.array([5, 2, 7, 5])
        upstream = np.arange(9, dtype=np.float32).reshape(3, 3)
        op = FakeOp("shard_lookup_grad",
                    {"lo": 4, "hi": 8, "row_shape": (3,)})
        grad = kernel("shard_lookup_grad")(op, [ids, upstream],
                                           FakeRuntime())
        assert isinstance(grad, IndexedSlices)
        assert list(grad.indices) == [1, 3, 1]
        assert grad.dense_shape == (4, 3)


class TestStitch:
    def test_reassembles_in_id_order(self):
        offsets = [0, 4, 8]
        ids = np.array([5, 2, 7, 0])
        rows_shard0 = np.array([[20.0], [0.0]], dtype=np.float32)  # ids 2,0
        rows_shard1 = np.array([[50.0], [70.0]], dtype=np.float32)  # ids 5,7
        op = FakeOp("stitch", {"offsets": offsets, "row_shape": (1,)})
        out = kernel("stitch")(op, [ids, rows_shard0, rows_shard1],
                               FakeRuntime())
        np.testing.assert_array_equal(out.reshape(-1), [50.0, 20.0, 70.0, 0.0])

    def test_stitch_grad_routes_per_shard(self):
        offsets = [0, 4, 8]
        ids = np.array([5, 2, 7, 0])
        upstream = np.array([[1.0], [2.0], [3.0], [4.0]], dtype=np.float32)
        op0 = FakeOp("stitch_grad", {"shard": 0, "offsets": offsets,
                                     "row_shape": (1,)})
        op1 = FakeOp("stitch_grad", {"shard": 1, "offsets": offsets,
                                     "row_shape": (1,)})
        g0 = kernel("stitch_grad")(op0, [ids, upstream], FakeRuntime())
        g1 = kernel("stitch_grad")(op1, [ids, upstream], FakeRuntime())
        np.testing.assert_array_equal(g0.reshape(-1), [2.0, 4.0])  # ids 2, 0
        np.testing.assert_array_equal(g1.reshape(-1), [1.0, 3.0])  # ids 5, 7

    def test_roundtrip_equals_gather(self):
        """shard_lookup per shard + stitch == plain gather."""
        table = np.arange(16, dtype=np.float32).reshape(8, 2)
        offsets = [0, 3, 8]
        ids = np.array([7, 0, 4, 2, 2])
        rt = FakeRuntime()
        rows = []
        for p, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            op = FakeOp("shard_lookup", {"lo": lo, "hi": hi,
                                         "row_shape": (2,)})
            rows.append(kernel("shard_lookup")(op, [table[lo:hi], ids], rt))
        stitch_op = FakeOp("stitch", {"offsets": offsets, "row_shape": (2,)})
        out = kernel("stitch")(stitch_op, [ids] + rows, rt)
        np.testing.assert_array_equal(out, table[ids])


class TestAggregations:
    def test_densify(self):
        sl = IndexedSlices(np.ones((2, 2), np.float32), [0, 0], (3, 2))
        op = FakeOp("densify", {})
        out = kernel("densify")(op, [sl], FakeRuntime())
        np.testing.assert_array_equal(out[0], [2.0, 2.0])

    def test_local_agg_dense_sums(self):
        op = FakeOp("local_agg", {})
        out = kernel("local_agg")(op, [np.ones(3), np.full(3, 2.0)],
                                  FakeRuntime())
        np.testing.assert_array_equal(out, np.full(3, 3.0))

    def test_local_agg_sparse_dedups(self):
        a = IndexedSlices(np.ones((2, 1), np.float32), [0, 1], (4, 1))
        b = IndexedSlices(np.ones((1, 1), np.float32), [1], (4, 1))
        op = FakeOp("local_agg", {})
        out = kernel("local_agg")(op, [a, b], FakeRuntime())
        assert out.num_rows == 2  # combined
        np.testing.assert_array_equal(out.to_dense().reshape(-1),
                                      [1.0, 2.0, 0.0, 0.0])

    def test_global_agg_average(self):
        op = FakeOp("global_agg", {"average": True, "num_workers": 4})
        out = kernel("global_agg")(op, [np.full(2, 8.0), np.zeros(2)],
                                   FakeRuntime())
        np.testing.assert_array_equal(out, np.full(2, 2.0))

    def test_global_agg_sparse_average(self):
        a = IndexedSlices(np.full((1, 1), 8.0, np.float32), [0], (2, 1))
        op = FakeOp("global_agg", {"average": True, "num_workers": 4})
        out = kernel("global_agg")(op, [a], FakeRuntime())
        np.testing.assert_array_equal(out.values, [[2.0]])
