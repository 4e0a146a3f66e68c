"""Server-side gradient aggregation and PS variable placement.

Aggregation is the ``local_agg``/``global_agg`` kernel pair the graph
transformation inserts (the role TensorFlow's conditional accumulators
play); the class and test ids predate the in-process accumulators they
used to exercise.
"""

import numpy as np
import pytest

from repro.comm.ps import place_variables
from repro.core.transform import comm_ops  # noqa: F401 (registers kernels)
from repro.graph.executor import DIRECT
from repro.tensor.sparse import IndexedSlices


class _Op:
    def __init__(self, op_type, attrs):
        self.op_type = op_type
        self.attrs = attrs
        self.name = op_type


def aggregate(op_type, values, **attrs):
    """Run one aggregation kernel's single body on *values*."""
    return DIRECT[op_type](_Op(op_type, attrs))(*values)


def server_mean(values, num_workers):
    return aggregate("global_agg", values, num_workers=num_workers)


class TestDenseAccumulator:
    def test_sums_contributions(self):
        grads = [np.full(4, float(i), dtype=np.float32) for i in range(3)]
        np.testing.assert_array_equal(aggregate("local_agg", grads),
                                      np.full(4, 3.0))

    def test_average_mode(self):
        """The mean is a division by the worker count, not a product
        with its reciprocal (the two round differently)."""
        grads = [np.full(5, v, dtype=np.float32) for v in (0.1, 0.2, 0.4)]
        total = (grads[0] + grads[1]) + grads[2]
        np.testing.assert_array_equal(server_mean(grads, 3),
                                      total / np.float32(3))

    def test_take_resets(self):
        """Each step aggregates from zero: nothing carries over."""
        kernel = DIRECT["global_agg"](
            _Op("global_agg", {"num_workers": 1}))
        kernel(np.ones(2, dtype=np.float32))
        np.testing.assert_array_equal(kernel(np.full(2, 7.0, np.float32)),
                                      np.full(2, 7.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate("local_agg", [np.zeros(3), np.zeros(4)])


class TestSparseAccumulator:
    def slices(self, indices, value=1.0, shape=(10, 2)):
        vals = np.full((len(indices), shape[1]), value, dtype=np.float32)
        return IndexedSlices(vals, indices, shape)

    def test_combines_duplicate_indices_on_take(self):
        result = server_mean([self.slices([1, 3]), self.slices([3, 5])], 1)
        assert list(result.indices) == [1, 3, 5]
        np.testing.assert_array_equal(result.to_dense()[3], [2.0, 2.0])

    def test_average_divides_by_contributions(self):
        result = server_mean([self.slices([0], value=4.0),
                              self.slices([0], value=0.0)], 2)
        np.testing.assert_array_equal(result.to_dense()[0], [2.0, 2.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="dense_shape"):
            aggregate("local_agg", [self.slices([0]),
                                    self.slices([0], shape=(20, 2))])

    def test_contributions_copied(self):
        """The aggregate owns its rows: a contribution changed later (an
        arena buffer reused next step) does not reach it."""
        grad = self.slices([0])
        for op_type in ("local_agg", "global_agg"):
            result = aggregate(op_type, [grad, self.slices([1])],
                               num_workers=2)
            before = result.values.copy()
            grad.values[0, 0] = 99.0
            np.testing.assert_array_equal(result.values, before)
            grad.values[0, 0] = 1.0


class TestPlacement:
    def test_every_variable_placed(self):
        sizes = [(f"v{i}", 100) for i in range(10)]
        placement = place_variables(sizes, 4)
        assert set(placement) == {f"v{i}" for i in range(10)}
        assert all(0 <= s < 4 for s in placement.values())

    def test_balanced_for_equal_sizes(self):
        sizes = [(f"v{i}", 100) for i in range(8)]
        placement = place_variables(sizes, 4)
        loads = np.bincount(list(placement.values()), minlength=4)
        assert loads.tolist() == [2, 2, 2, 2]

    def test_greedy_balances_skewed_sizes(self):
        """One huge variable gets its own server; small ones fill others."""
        sizes = [("big", 1000)] + [(f"s{i}", 100) for i in range(9)]
        placement = place_variables(sizes, 3)
        loads = [0, 0, 0]
        for name, size in sizes:
            loads[placement[name]] += size
        # Greedy bound: max load <= ideal + largest small item.
        assert max(loads) <= 1000

    def test_deterministic(self):
        sizes = [(f"v{i}", (i * 37) % 11 + 1) for i in range(20)]
        assert place_variables(sizes, 5) == place_variables(sizes, 5)

    def test_single_server(self):
        placement = place_variables([("a", 1), ("b", 2)], 1)
        assert placement == {"a": 0, "b": 0}

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            place_variables([("a", 1)], 0)
