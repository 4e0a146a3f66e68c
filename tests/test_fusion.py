"""Bucketed (fused) dense-gradient AllReduce, on both planes.

Every dense AllReduce is a fused bucket.  The load-bearing guarantee is
bit-identity across bucket caps: packing several gradients into one
collective must perform, element for element, exactly the additions the
per-variable rings would (``ring_allreduce(segments=)`` chunks every
segment on its own), so training under the default cap matches training
with one bucket per variable bitwise while the Transcript carries fewer,
larger AllReduce messages.  ``tests/ring_oracle.py`` is the independent
per-segment reference.
"""

import dataclasses
import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import accounting, alias, congruence
from repro.cluster.spec import ClusterSpec
from repro.comm.allreduce import (
    chunk_bounds,
    fused_chunk_bounds,
    ring_allreduce,
)
from repro.core.runner import DistributedRunner
from repro.core.transform import transform_graph
from repro.core.transform.comm_ops import COLLECTIVE_OP_TYPES
from repro.cluster.plan import SyncMethod, fusion_buckets
from repro.core.transform.plan import (
    GraphSyncPlan,
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph import bufferplan, gradients
from repro.graph.executor import DIRECT, overlap_schedule
from repro.graph.graph import Graph, TensorSpec
from repro.graph.ops import FORWARD, constant
from repro.nn.models import build_lm, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer
from ring_oracle import fused_segment_layout

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)

# The four architectures of the acceptance matrix.  The bucket cap only
# changes plans with AllReduce variables (ps is a pure-PS control).
PLAN_BUILDERS = {
    "hybrid": lambda g, **kw: hybrid_graph_plan(g, **kw),
    "ps": lambda g, **kw: graph_plan(g, "ps"),
    "opt_ps": lambda g, **kw: graph_plan(g, "opt_ps"),
    "ar": lambda g, **kw: ar_graph_plan(g, **kw),
}


def make_model():
    model = build_lm(batch_size=4, vocab_size=30, seq_len=2, emb_dim=6,
                     hidden=8, num_partitions=2, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.2).update(gvs)
    return model


# A cap below every gradient: one bucket, so one ring, per variable.
PER_VARIABLE_MB = 1e-6


def make_runner(arch, **plan_kwargs):
    model = make_model()
    plan = PLAN_BUILDERS[arch](model.graph, **plan_kwargs)
    return DistributedRunner(model, CLUSTER, plan, seed=1)


class TestFusionBuckets:
    def test_cap_groups_consecutively(self):
        assert fusion_buckets([4, 4, 4, 4], 8) == [[0, 1], [2, 3]]

    def test_order_preserved_and_exhaustive(self):
        buckets = fusion_buckets([1, 9, 2, 3, 5], 10)
        flat = [i for b in buckets for i in b]
        assert flat == list(range(5))

    def test_oversize_entry_gets_own_bucket(self):
        assert fusion_buckets([100, 1, 1], 8) == [[0], [1, 2]]

    def test_empty(self):
        assert fusion_buckets([], 8) == []


class TestFusedSegmentLayout:
    """``ring_allreduce(segments=)``: a fused ring is per-segment chunking.
    (The randomised comparison against the data-moving oracle is
    ``test_properties.py::test_segmented_ring_matches_oracle``.)"""

    @pytest.mark.parametrize("sizes,workers", [
        ([7], 3), ([5, 3], 2), ([1, 2, 3, 4], 4), ([6, 6, 6], 1),
        ([0, 4], 2),
    ])
    def test_perm_is_a_permutation_with_monotone_bounds(self, sizes,
                                                        workers):
        """The oracle's packing is a bijection, and its fused chunk
        bounds are the ones the transform records on the op."""
        perm, inv_perm, bounds = fused_segment_layout(sizes, workers)
        total = sum(sizes)
        assert sorted(perm.tolist()) == list(range(total))
        np.testing.assert_array_equal(perm[inv_perm], np.arange(total))
        assert bounds[0] == 0 and bounds[-1] == total
        assert all(lo <= hi for lo, hi in zip(bounds, bounds[1:]))
        assert bounds == fused_chunk_bounds(sizes, workers)

    def test_fused_ring_bit_identical_to_per_segment_rings(self):
        """One ring over the concatenated bucket == a ring per segment.

        Exact float equality, not approx: the segments exist so fusion
        cannot perturb summation order.
        """
        rng = np.random.default_rng(0)
        sizes, workers = [5, 12, 3], 4
        segments = [[rng.standard_normal(s).astype(np.float32)
                     for s in sizes] for _ in range(workers)]
        unfused = [ring_allreduce([segments[w][i] for w in range(workers)])
                   for i in range(len(sizes))]
        fused = ring_allreduce([np.concatenate(segments[w])
                                for w in range(workers)], segments=sizes)
        offsets = np.cumsum([0] + sizes)
        for w in range(workers):
            for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
                np.testing.assert_array_equal(fused[w][lo:hi],
                                              unfused[i][w])

    def test_one_shared_read_only_result(self):
        arrays = [np.ones(6, dtype=np.float32) for _ in range(3)]
        results = ring_allreduce(arrays, segments=[4, 2])
        assert all(r is results[0] for r in results)
        with pytest.raises(ValueError, match="read-only"):
            results[0][0] = 0.0

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([], segments=[4])

    def test_negative_size_rejected(self):
        arrays = [np.ones(3, dtype=np.float32) for _ in range(2)]
        with pytest.raises(ValueError):
            ring_allreduce(arrays, segments=[4, -1])


class TestRingBounds:
    """Segment boundaries handed to the ring as ``segments=`` sizes."""

    def test_custom_bounds_match_default(self):
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal(8).astype(np.float32)
                  for _ in range(4)]
        explicit = ring_allreduce(arrays, segments=[8])
        default = ring_allreduce(arrays)
        np.testing.assert_array_equal(explicit[0], default[0])
        assert fused_chunk_bounds([8], 4) == chunk_bounds(8, 4)

    @pytest.mark.parametrize("bounds", [
        [0, 4, 7],          # does not cover the array
        [1, 4, 8],          # does not start at 0
        [0, 4, 9],          # runs past the array
        [0, 6, 4, 8],       # not monotone: a negative segment
    ])
    def test_bad_bounds_rejected(self, bounds):
        arrays = [np.ones(8, dtype=np.float32) for _ in range(4)]
        with pytest.raises(ValueError):
            ring_allreduce(arrays, segments=np.diff(bounds).tolist())


class TestFusedTraining:
    """Default cap == one bucket per variable, bitwise, for every
    architecture."""

    @pytest.mark.parametrize("arch", sorted(PLAN_BUILDERS))
    def test_losses_and_state_bit_identical(self, arch):
        fused = make_runner(arch)
        per_var = make_runner(arch, fusion_buffer_mb=PER_VARIABLE_MB)
        for i in range(3):
            a = fused.step(i)
            b = per_var.step(i)
            assert a.replica_losses == b.replica_losses
        state_a = fused.logical_state()
        state_b = per_var.logical_state()
        assert set(state_a) == set(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])

    @pytest.mark.parametrize("arch", ["hybrid", "ar"])
    def test_transcript_fewer_larger_messages_same_bytes(self, arch):
        fused = make_runner(arch)
        per_var = make_runner(arch, fusion_buffer_mb=PER_VARIABLE_MB)
        fused.step(0)
        per_var.step(0)
        fused_ar = fused.transcript.filter("allreduce")
        per_var_ar = per_var.transcript.filter("allreduce")
        assert len(fused_ar) < len(per_var_ar)
        assert (sum(t.nbytes for t in fused_ar)
                == sum(t.nbytes for t in per_var_ar))
        assert (max(t.nbytes for t in fused_ar)
                > max(t.nbytes for t in per_var_ar))

    def test_tiny_buffer_forces_per_variable_buckets(self):
        """A cap below every gradient gives each AllReduce variable a
        bucket of its own: one single-segment collective per replica."""
        runner = make_runner("hybrid", fusion_buffer_mb=PER_VARIABLE_MB)
        dense = {name for name, method in runner.plan.methods.items()
                 if method is SyncMethod.ALLREDUCE}
        assert dense
        buckets = [op.attrs["segments"]
                   for op in runner.transformed.graph.operations
                   if op.op_type == "fused_allreduce"
                   and op.attrs["replica"] == 0]
        assert all(len(segments) == 1 for segments in buckets)
        assert sorted(segments[0][0] for segments in buckets) \
            == sorted(dense)

    def test_fused_ops_present_only_when_fusion_on(self):
        """There is no unfused AllReduce: every plan with a dense
        variable reduces it in a ``fused_allreduce`` bucket."""
        for arch in sorted(PLAN_BUILDERS):
            runner = make_runner(arch)
            types = {op.op_type
                     for op in runner.transformed.graph.operations}
            assert "allreduce" not in types, arch
            has_dense = SyncMethod.ALLREDUCE in runner.plan.methods.values()
            assert ("fused_allreduce" in types) == has_dense, arch

    @pytest.mark.parametrize("arch", ["hybrid", "ar"])
    def test_odd_replica_count_bit_identical(self, arch):
        """Three replicas: /3 is inexact and a three-term float sum
        depends on its association order, so any drift between the
        fused and per-variable reduction order would show here."""
        cluster = ClusterSpec(num_machines=3, gpus_per_machine=1)
        runners = []
        for cap in ({}, {"fusion_buffer_mb": PER_VARIABLE_MB}):
            model = make_model()
            runners.append(DistributedRunner(
                model, cluster, PLAN_BUILDERS[arch](model.graph, **cap),
                seed=1))
        fused, per_var = runners
        for i in range(3):
            assert (fused.step(i).replica_losses
                    == per_var.step(i).replica_losses)
        state_a, state_b = fused.logical_state(), per_var.logical_state()
        assert set(state_a) == set(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])

    def test_plan_rejects_nonpositive_buffer(self):
        model = make_model()
        with pytest.raises(ValueError, match="fusion_buffer_mb"):
            hybrid_graph_plan(model.graph, fusion_buffer_mb=0.0)
        with pytest.raises(ValueError):
            GraphSyncPlan("p", {}, fusion_buffer_mb=-1.0)


class TestFusedTransformIsSmall:
    """The fused plan carries no per-element layout: what
    ``repro.cli launch`` ships to every remote worker stays a few KB."""

    @pytest.fixture(scope="class")
    def transformed(self):
        model = build_resnet(width=256, num_blocks=4, seed=0)
        with model.graph.as_default():
            gvs = gradients(model.loss)
            GradientDescentOptimizer(0.1).update(gvs)
        return transform_graph(model.graph, model.loss, CLUSTER,
                               ar_graph_plan(model.graph))

    def test_no_collective_op_carries_an_array_attr(self, transformed):
        collectives = [op for op in transformed.graph.operations
                       if op.op_type in COLLECTIVE_OP_TYPES]
        assert any(op.op_type == "fused_allreduce" for op in collectives)
        for op in collectives:
            arrays = [key for key, value in op.attrs.items()
                      if isinstance(value, np.ndarray)]
            assert arrays == [], (op.name, arrays)

    def test_pickled_transform_under_256_kb(self, transformed):
        assert len(pickle.dumps(transformed)) < 256 * 1024


class TestOverlapSchedule:
    """A collective starts (its input is packed) at its last gradient and
    finishes (the collective op and what hangs off it) after everything
    else."""

    def build_chain(self):
        """a -> b -> c (compute chain); collective depends only on a."""
        g = Graph()
        with g.as_default():
            a = constant(np.ones(2, dtype=np.float32), name="a")
            b = g.add_op("relu", [a], TensorSpec((2,)), name="b")
            c = g.add_op("relu", [b.output], TensorSpec((2,)), name="c")
            coll = g.add_op("fused_allreduce", [a], TensorSpec((2,)),
                            name="coll")
            sink = g.add_op("concat", [c.output, coll.output],
                            TensorSpec((4,)), attrs={"axis": 0},
                            name="sink")
        return g, sink

    def test_collective_hoisted_to_readiness(self):
        g, sink = self.build_chain()
        order = g.topo_sort([sink])
        scheduled = overlap_schedule(order)
        names = [op.name for op in scheduled]
        # The collective is ready right after "a" (where its input -- the
        # value a worker would send -- exists), but its finish sinks past
        # the whole compute chain, directly before the op that needs it.
        assert names == ["a", "b", "c", "coll", "sink"]

    def test_schedule_is_a_valid_topological_order(self):
        g, sink = self.build_chain()
        scheduled = overlap_schedule(g.topo_sort([sink]))
        position = {op.name: i for i, op in enumerate(scheduled)}
        assert sorted(position) == sorted(
            op.name for op in g.topo_sort([sink]))
        for op in scheduled:
            for t in op.inputs:
                assert position[t.op.name] < position[op.name]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_dags_schedule_lazily_and_depth_first(self, data):
        """Over random DAGs with 0-4 collectives: the schedule is a
        permutation and a topological order of data and control edges,
        every lazy op (a collective or anything downstream of one)
        follows every other op, and whenever a collective that waits on
        no other collective starts, nothing already unblocked by an
        earlier collective is still pending."""
        n = data.draw(st.integers(1, 14), label="ops")
        collectives = data.draw(
            st.sets(st.integers(0, n - 1), max_size=min(4, n)),
            label="collectives")
        g = Graph()
        ops = []
        deps = {}
        for i in range(n):
            earlier = st.sets(st.integers(0, i - 1), max_size=3) if i else \
                st.just(set())
            inputs = sorted(data.draw(earlier, label=f"inputs{i}"))
            controls = sorted(data.draw(earlier, label=f"controls{i}"))
            op_type = "fused_allreduce" if i in collectives else "relu"
            op = g.add_op(op_type, [ops[j].output for j in inputs],
                          TensorSpec((1,)), name=f"n{i}")
            for j in controls:
                op.add_control_input(ops[j])
            ops.append(op)
            deps[op.name] = {f"n{j}" for j in inputs + controls}

        scheduled = [op.name for op in overlap_schedule(g.topo_sort(ops))]
        assert sorted(scheduled) == sorted(deps)
        position = {name: i for i, name in enumerate(scheduled)}
        for name, before in deps.items():
            assert all(position[d] < position[name] for d in before)

        lazy = set()
        for i in range(n):      # creation order is topological
            if i in collectives or deps[f"n{i}"] & lazy:
                lazy.add(f"n{i}")
        assert all((name in lazy) == (i >= n - len(lazy))
                   for i, name in enumerate(scheduled))

        roots = {f"n{i}" for i in collectives if not deps[f"n{i}"] & lazy}
        for q in range(n - len(lazy) + 1, n):
            if scheduled[q] not in roots:
                continue
            done = set(scheduled[:q])
            unblocked = {name for name in scheduled[q:]
                         if deps[name] <= done}
            assert unblocked <= roots

    def test_compiled_plan_hoists_fused_collectives(self):
        """End to end, in the compiled step plan of a fused hybrid runner
        with several buckets: a bucket is packed while backward compute
        of the buckets still to come remains (the overlap window), and
        once the first collective finishes nothing but collectives and
        their consumers is left."""
        runner = make_runner("hybrid", fusion_buffer_mb=1e-4)
        ops = [entry[0] for entry in runner.step_plans[0].schedule]
        packs = [i for i, op in enumerate(ops)
                 if op.op_type == "concat"
                 and op.name.endswith("/pack/rep0")]
        assert len(packs) >= 3
        for this, later in zip(packs, packs[1:]):
            assert any(op.op_type == "vjp" for op in ops[this:later])
        first_collective = next(i for i, op in enumerate(ops)
                                if op.op_type == "fused_allreduce")
        assert packs[-1] < first_collective
        assert {op.op_type for op in ops[first_collective:]} == {
            "fused_allreduce", "bucket_slice", "sgd_update", "group"}
        # Depth-first finish: a bucket is sliced and applied before the
        # next collective of the same replica starts.
        tail = [op for op in ops[first_collective:]
                if op.attrs.get("replica", 0) == 0
                and op.op_type in ("fused_allreduce", "bucket_slice")]
        assert tail[0].op_type == "fused_allreduce"
        assert tail[1].op_type == "bucket_slice"


def test_one_dense_allreduce_and_one_entry_point():
    """Fused buckets are the only dense AllReduce and ``get_runner`` the
    only entry point: no per-variable ``allreduce`` op type in any
    registry, no switch selecting it, and no facade over the runner."""
    for registry in (FORWARD, DIRECT, COLLECTIVE_OP_TYPES,
                     bufferplan.FOLD_OUT, accounting._DENSE_RING,
                     accounting._KNOWN, congruence.COLLECTIVE_TYPES,
                     alias._FOLDS):
        assert "allreduce" not in registry
    assert "fusion" not in {f.name for f in dataclasses.fields(GraphSyncPlan)}
    assert "fusion" not in inspect.signature(graph_plan).parameters
    for name in ("Runner", "auto_parallelize"):
        assert not hasattr(repro, name) and name not in repro.__all__
    model = make_model()
    for build in (hybrid_graph_plan, ar_graph_plan):
        with pytest.raises(ValueError, match="fusion"):
            build(model.graph, fusion=False)
