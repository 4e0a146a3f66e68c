"""The step-scoped buffer arena.

Contract under test: the compile-time buffer plan only recycles storage
whose whole alias group is provably dead (so an out-parameter kernel can
never scribble over a live value, a fetched value, or one of its own
inputs), and -- the load-bearing guarantee -- arena execution stays
*bit-identical* to the seed interpreter on every architecture, plan,
and backend, including on randomly generated elementwise graphs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_interpreter import interpret, interpreted_runner

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph import ops
from repro.graph.bufferplan import (
    BufferPlan,
    build_buffer_plan,
)
from repro.graph.gradients import gradients
from repro.graph.graph import Graph
from repro.graph.session import Session
from repro.nn.models import build_inception, build_lm, build_nmt, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer

SEED = 7
CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)

PLAN_BUILDERS = {
    "hybrid": hybrid_graph_plan,
    "ps": lambda g: graph_plan(g, "opt_ps"),
    "ar": ar_graph_plan,
}


def _finish(model):
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.4).update(gvs)
    return model


MODEL_BUILDERS = {
    "lm": lambda: _finish(build_lm(batch_size=4, vocab_size=40, seq_len=2,
                                   emb_dim=6, hidden=8, num_partitions=2,
                                   seed=0)),
    "nmt": lambda: _finish(build_nmt(batch_size=4, src_vocab=30,
                                     tgt_vocab=30, src_len=2, tgt_len=2,
                                     emb_dim=6, hidden=6, num_partitions=2,
                                     seed=1)),
    "resnet": lambda: _finish(build_resnet(batch_size=4, num_features=8,
                                           num_classes=3, width=8,
                                           num_blocks=1, seed=0)),
    "inception": lambda: _finish(build_inception(batch_size=4,
                                                 num_features=8,
                                                 num_classes=3, width=8,
                                                 num_modules=1, seed=0)),
}


def compiled_plan(model_key="lm", plan_key="hybrid", steps=3):
    """A generated (post-warmup) step plan plus its runner."""
    model = MODEL_BUILDERS[model_key]()
    runner = DistributedRunner(model, CLUSTER,
                               PLAN_BUILDERS[plan_key](model.graph),
                               seed=SEED)
    for i in range(steps):
        runner.step(i)
    return runner.step_plans[0], runner


# ======================================================================
# Planning invariants (liveness, aliasing, allocation)
# ======================================================================
class TestBufferPlanInvariants:
    @pytest.fixture(scope="class")
    def plan_and_bplan(self):
        plan, _runner = compiled_plan()
        return plan, build_buffer_plan(plan)

    def test_plan_engages_on_a_real_model(self, plan_and_bplan):
        _, bplan = plan_and_bplan
        assert bplan.arena_slots > 0
        assert bplan.arena_bytes > 0
        assert bplan.arena_bytes <= bplan.arena_slot_bytes

    def test_fetched_slots_never_enter_the_arena(self, plan_and_bplan):
        plan, bplan = plan_and_bplan
        for t in plan.target_slots:
            assert t not in bplan.assignment
            # The whole fetched group is pinned: it can never die and
            # hand its storage to a later slot.
            assert bplan.group_last_use[bplan.group_of[t]] == math.inf

    def test_output_buffer_never_aliases_an_input_buffer(
            self, plan_and_bplan):
        plan, bplan = plan_and_bplan
        for _op, _kernel, input_slots, slot, _edges in plan.schedule:
            bid = bplan.assignment.get(slot)
            if bid is None:
                continue
            for j in input_slots:
                assert bplan.assignment.get(j, -1) != bid, (
                    f"slot {slot} writes buffer {bid} which also backs "
                    f"its live input {j}"
                )

    def test_slots_sharing_a_buffer_have_disjoint_live_ranges(
            self, plan_and_bplan):
        _, bplan = plan_and_bplan
        by_buffer = {}
        for slot, bid in bplan.assignment.items():
            death = bplan.group_last_use[bplan.group_of[slot]]
            by_buffer.setdefault(bid, []).append((slot, death))
        reused = 0
        for intervals in by_buffer.values():
            intervals.sort()
            reused += len(intervals) - 1
            for (_, prev_death), (nxt, _) in zip(intervals, intervals[1:]):
                # Strict: the previous owner's group died before the next
                # owner's position (matching the sweep's `death < pos`).
                assert prev_death < nxt
        assert reused == bplan.arena_slots - len(bplan.buffers)

    def test_buffer_shapes_match_their_slots(self, plan_and_bplan):
        plan, bplan = plan_and_bplan
        by_slot = {entry[3]: entry[0] for entry in plan.schedule}
        for slot, bid in bplan.assignment.items():
            shape, dtype = bplan.buffers[bid]
            spec = by_slot[slot].output.spec
            assert tuple(spec.shape) == shape
            assert str(spec.dtype) == dtype

    def test_expansions_are_well_formed(self, plan_and_bplan):
        plan, bplan = plan_and_bplan
        for slot, exp in bplan.expansions.items():
            if exp.kind == "alias":
                assert exp.fn is None and len(exp.args) == 1
            else:
                assert exp.kind == "call"
                assert callable(exp.fn)
                # Its own buffer, or its region of a bucket's.
                assert (slot in bplan.assignment) != (slot in bplan.views)
            assert all(0 <= a < plan.num_slots for a in exp.args)


class TestReuseRateFormula:
    def test_amortizes_over_the_replay_window(self):
        bplan = BufferPlan(assignment={}, buffers=[], out_fns={},
                           expansions={}, slot_last_use={}, group_of={},
                           group_last_use={}, arena_bytes=100,
                           arena_slot_bytes=1000)
        assert bplan.arena_reuse_rate(1) == pytest.approx(0.9)
        assert bplan.arena_reuse_rate(10) == pytest.approx(0.99)
        assert bplan.arena_reuse_rate(1000) == pytest.approx(0.9999)

    def test_degenerate_plans_report_zero(self):
        empty = BufferPlan(assignment={}, buffers=[], out_fns={},
                           expansions={}, slot_last_use={}, group_of={},
                           group_last_use={})
        assert empty.arena_reuse_rate(1) == 0.0
        assert empty.arena_reuse_rate(0) == 0.0


# ======================================================================
# Property: arena execution == seed interpreter on random graphs
# ======================================================================
def _random_elementwise_graph(rng):
    """A random DAG over the arena-fusable elementwise ops."""
    g = Graph()
    shape = (3, 4)
    with g.as_default():
        x = ops.placeholder(shape, name="x")
        y = ops.placeholder(shape, name="y")
        nodes = [x, y,
                 ops.constant(rng.standard_normal(shape), name="c0")]
        unary = [ops.tanh, ops.sigmoid, ops.relu]
        for k in range(int(rng.integers(4, 12))):
            roll = rng.integers(0, 4)
            if roll == 0:
                a, b = rng.integers(0, len(nodes), size=2)
                node = ops.add(nodes[a], nodes[b], name=f"n{k}")
            elif roll == 1:
                a, b = rng.integers(0, len(nodes), size=2)
                node = ops.mul(nodes[a], nodes[b], name=f"n{k}")
            elif roll == 2:
                node = unary[int(rng.integers(0, 3))](
                    nodes[int(rng.integers(0, len(nodes)))], name=f"n{k}")
            else:
                node = ops.scale(nodes[int(rng.integers(0, len(nodes)))],
                                 float(rng.standard_normal()), name=f"n{k}")
            nodes.append(node)
    # Fetch the final node and one random interior node, so the plan has
    # both a deep arena-eligible prefix and a mid-graph pinned target.
    fetches = [nodes[-1], nodes[int(rng.integers(2, len(nodes)))]]
    feed = {x: rng.standard_normal(shape), y: rng.standard_normal(shape)}
    return g, fetches, feed


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_graphs_are_bit_identical_under_the_arena(seed):
    rng = np.random.default_rng(seed)
    g, fetches, feed = _random_elementwise_graph(rng)
    sess = Session(g)
    reference = interpret(sess, fetches, feed)
    # Three replays: the first-run loop, then the generated code with
    # arena writes.
    for _ in range(3):
        got = sess.run(fetches, feed)
        for r, v in zip(reference, got):
            np.testing.assert_array_equal(r, v)


# ======================================================================
# Differential: every arch x plan, compiled vs interpreted, both backends
# ======================================================================
class TestFusedDifferential:
    @pytest.mark.parametrize("model_key", sorted(MODEL_BUILDERS))
    @pytest.mark.parametrize("plan_key", sorted(PLAN_BUILDERS))
    def test_compiled_matches_interpreted(self, model_key, plan_key):
        losses = {}
        for engine, runner_cls in (("compiled", DistributedRunner),
                                   ("interpreted", interpreted_runner)):
            model = MODEL_BUILDERS[model_key]()
            runner = runner_cls(model, CLUSTER,
                                PLAN_BUILDERS[plan_key](model.graph),
                                seed=SEED)
            losses[engine] = [runner.step(i).replica_losses
                              for i in range(3)]
            if engine == "compiled":
                plan = runner.step_plans[0]
                arena = sum(p.arena_slots for p in runner.step_plans)
                bplan = plan._buffer_plan
        assert losses["compiled"] == losses["interpreted"]
        # The comparison must actually exercise the new machinery.
        assert bplan is not None
        if model_key in ("lm", "nmt"):
            assert arena > 0
            assert any(entry[0].op_type == "lstm_seq"
                       for entry in plan.schedule)

    def test_compiled_inproc_matches_multiproc(self):
        losses = {}
        for backend in ("inproc", "multiproc"):
            model = MODEL_BUILDERS["lm"]()
            runner = DistributedRunner(model, CLUSTER,
                                       hybrid_graph_plan(model.graph),
                                       seed=SEED, backend=backend)
            try:
                losses[backend] = [runner.step(i).replica_losses
                                   for i in range(3)]
            finally:
                runner.close()
        assert losses["inproc"] == losses["multiproc"]
