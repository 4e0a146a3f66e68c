"""The compile-once/execute-many engine.

Two guarantees are load-bearing: compiled execution is *bit-identical*
to the seed interpreter (losses, variable state, and the byte-accounting
transcript) -- which lives on only as the oracle in
``tests/reference_interpreter.py`` -- and the per-session plan cache
invalidates whenever the fetch set or the graph changes.
"""

import inspect
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from reference_interpreter import interpret, interpreted_runner

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph import gradients, ops
from repro.graph.executor import CompiledPlan
from repro.graph.graph import Graph
from repro.graph.session import Session, split_replica_prefix
from repro.nn.models import build_lm, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)

PLAN_BUILDERS = {
    "hybrid": lambda g: hybrid_graph_plan(g),
    "ps": lambda g: graph_plan(g, "ps"),
    "opt_ps": lambda g: graph_plan(g, "opt_ps"),
    "ar": lambda g: ar_graph_plan(g),
    "async_ps": lambda g: replace(graph_plan(g, "ps"), asynchronous=True),
}


def make_model():
    model = build_lm(batch_size=4, vocab_size=30, seq_len=2, emb_dim=6,
                     hidden=8, num_partitions=2, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.2).update(gvs)
    return model


def make_runner(arch, runner_cls=DistributedRunner):
    model = make_model()
    return runner_cls(model, CLUSTER, PLAN_BUILDERS[arch](model.graph),
                      seed=1)


class TestBitEquivalence:
    """Compiled == interpreted, for every architecture, async included.

    Three steps per runner so the generated fast path (activated on plan
    replay) is exercised, not just the first-run loop."""

    @pytest.mark.parametrize("arch", sorted(PLAN_BUILDERS))
    def test_losses_state_and_transcript_match(self, arch):
        compiled = make_runner(arch)
        interpreted = make_runner(arch, interpreted_runner)
        assert compiled.step_plans and not interpreted.step_plans
        for i in range(3):
            a = compiled.step(i)
            b = interpreted.step(i)
            assert a.replica_losses == b.replica_losses
        state_a = compiled.logical_state()
        state_b = interpreted.logical_state()
        assert set(state_a) == set(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])
        assert (compiled.transcript.total_network_bytes()
                == interpreted.transcript.total_network_bytes())

    def test_async_plans_compile_one_plan_per_replica(self):
        runner = make_runner("async_ps")
        assert len(runner.step_plans) == runner.num_replicas
        assert len({p.fetch_names for p in runner.step_plans}) \
            == runner.num_replicas

    def test_sync_plans_compile_single_plan(self):
        runner = make_runner("hybrid")
        assert len(runner.step_plans) == 1
        fetches = runner.step_plans[0].fetch_names
        assert fetches[-1] == "train_op"
        assert len(fetches) == runner.num_replicas + 1

    def test_runner_rejects_unknown_engine(self):
        """There is one engine, so there is no ``engine=`` to select."""
        from repro.core.elastic import ElasticRunner

        model = make_model()
        plan = hybrid_graph_plan(model.graph)
        for runner_cls in (DistributedRunner, ElasticRunner):
            for engine in ("turbo", "compiled", "interpreted"):
                with pytest.raises(TypeError, match="engine"):
                    runner_cls(model, CLUSTER, plan, engine=engine)

    def test_the_interpreter_and_its_hooks_are_gone_from_src(self):
        from repro.core.runner import DistributedSession

        for cls in (Session, DistributedSession):
            assert not hasattr(cls, "run_interpreted")
            assert not hasattr(cls, "_before_kernel")
        assert "call_hook" not in inspect.signature(CompiledPlan).parameters
        assert "call_hook" not in CompiledPlan.__slots__


def small_session():
    g = Graph()
    with g.as_default():
        x = ops.placeholder((2,), name="x")
        c = ops.constant(np.ones(2, dtype=np.float32), name="c")
        y = ops.add(x, c, name="y")
        z = ops.mul(y, c, name="z")
    return g, Session(g), x, y, z


class TestPlanCache:
    def test_same_fetches_reuse_plan(self):
        _, sess, x, _, z = small_session()
        feed = {x: np.zeros(2, dtype=np.float32)}
        sess.run(z, feed)
        plan_a = sess.compile(z)
        sess.run(z, feed)
        assert sess.compile(z) is plan_a

    def test_different_fetches_compile_different_plans(self):
        _, sess, _, y, z = small_session()
        assert sess.compile(y) is not sess.compile(z)
        assert sess.compile([y, z]) is not sess.compile(z)

    def test_adding_an_op_invalidates(self):
        g, sess, x, _, z = small_session()
        before = sess.compile(z)
        with g.as_default():
            ops.add(z, z, name="later")
        after = sess.compile(z)
        assert after is not before
        assert after.version == g.version

    def test_adding_a_control_edge_invalidates(self):
        g, sess, x, y, z = small_session()
        before = sess.compile(z)
        z.op.add_control_input(y.op)
        assert sess.compile(z) is not before

    def test_stale_plan_replays_through_run_plan(self):
        g, sess, x, _, z = small_session()
        stale = sess.compile(z)
        with g.as_default():
            ops.add(z, z, name="later")
        value = sess.run_plan(stale, {x: np.zeros(2, dtype=np.float32)})
        np.testing.assert_array_equal(value[0],
                                      np.ones(2, dtype=np.float32))


class TestFeedSemantics:
    """The compiled engine must honour the interpreter's feed contract,
    on the first (loop) execution and on generated replays alike."""

    def test_intermediate_override_all_paths(self):
        _, sess, x, y, z = small_session()
        feed = {x: np.zeros(2, dtype=np.float32)}
        override = dict(feed)
        override["y"] = np.full(2, 5.0, dtype=np.float32)
        for _ in range(3):  # loop, then generated code
            np.testing.assert_array_equal(sess.run(z, feed),
                                          np.ones(2, dtype=np.float32))
            np.testing.assert_array_equal(sess.run(z, override),
                                          np.full(2, 5.0, dtype=np.float32))

    def test_unfed_placeholder_raises_like_interpreter(self):
        _, sess, x, _, z = small_session()
        for _ in range(3):
            with pytest.raises(RuntimeError, match="was not fed"):
                sess.run(z, {})

    def test_unknown_feeds_are_ignored(self):
        _, sess, x, _, z = small_session()
        feed = {x: np.zeros(2, dtype=np.float32), "nonexistent": np.ones(3)}
        for _ in range(3):
            np.testing.assert_array_equal(sess.run(z, feed),
                                          np.ones(2, dtype=np.float32))

    def test_run_matches_run_interpreted(self):
        _, sess_a, x, _, z = small_session()
        _, sess_b, x2, _, z2 = small_session()
        feed = {"x": np.asarray([0.5, -1.5], dtype=np.float32)}
        for _ in range(3):
            np.testing.assert_array_equal(sess_a.run(z, feed),
                                          interpret(sess_b, z2, feed))


class TestPlanIntrospection:
    def test_placeholder_slots_declared(self):
        _, sess, x, _, z = small_session()
        plan = sess.compile(z)
        assert plan.placeholder_names == ("x",)
        plan.validate_placeholders(["x", "other"])
        with pytest.raises(ValueError, match="never feeds"):
            plan.validate_placeholders(["other"])

    def test_plan_records_fetch_signature_and_version(self):
        g, sess, _, y, z = small_session()
        plan = sess.compile([y, z])
        assert plan.fetch_names == ("y", "z")
        assert plan.version == g.version
        assert isinstance(plan, CompiledPlan)


class TestReplicaPrefixParsing:
    def test_split_replica_prefix(self):
        assert split_replica_prefix("rep3/w") == (3, "w")
        assert split_replica_prefix("rep12/a/b") == (12, "a/b")
        assert split_replica_prefix("report/w") == (None, "report/w")
        assert split_replica_prefix("w") == (None, "w")
        assert split_replica_prefix("rep/w") == (None, "rep/w")


class TestPlanCacheLRU:
    """The plan cache is a plain dict: every signature keeps its plan for
    the session's lifetime, and only a graph-version bump recompiles.
    (The class and test ids predate the removal of the LRU cap.)"""

    def _fetches(self, g):
        with g.as_default():
            c = ops.constant(np.ones(1, dtype=np.float32), name="base")
            return [ops.add(c, c, name=f"fetch{i}") for i in range(6)]

    def test_cache_is_bounded_with_eviction_counter(self):
        """Distinct signatures keep their plans: a second pass over six
        fetch sets compiles nothing."""
        g = Graph()
        fetches = self._fetches(g)
        sess = Session(g)
        before = CompiledPlan.compiled_total
        for _ in range(2):
            for t in fetches:
                sess.run(t)
        assert CompiledPlan.compiled_total - before == len(fetches)
        assert len(sess._plans) == len(fetches)
        assert not hasattr(sess, "plan_evictions")

    def test_lru_order_keeps_recently_used_plans(self):
        """Whatever the access order, each signature gets its first plan
        back."""
        g = Graph()
        fetches = self._fetches(g)
        sess = Session(g)
        plans = [sess.compile(t) for t in fetches]
        for i in (0, 5, 1, 0, 3, 2, 4, 5):
            assert sess.compile(fetches[i]) is plans[i]

    def test_evicted_plan_recompiles_transparently(self):
        """A graph-version bump recompiles each held signature once, on
        its next use, and the new plans compute the same values."""
        g = Graph()
        fetches = self._fetches(g)
        sess = Session(g)
        first = [sess.compile(t) for t in fetches[:2]]
        with g.as_default():
            ops.add(fetches[0], fetches[1], name="later")
        before = CompiledPlan.compiled_total
        again = [sess.compile(t) for t in fetches[:2]]
        assert all(a is not f for a, f in zip(again, first))
        assert all(sess.compile(t) is a for t, a in zip(fetches[:2], again))
        assert CompiledPlan.compiled_total - before == 2
        np.testing.assert_array_equal(sess.run(fetches[0]),
                                      np.asarray([2.0], dtype=np.float32))

    def test_cache_size_validated(self):
        """There is no cap to validate: the keyword is gone."""
        with pytest.raises(TypeError, match="plan_cache_size"):
            Session(Graph(), plan_cache_size=1)

    def test_runner_threads_cache_size_to_session(self):
        """A training session holds exactly its step plans: one when
        synchronous, one per replica when asynchronous."""
        for arch, expected in (("hybrid", 1),
                               ("async_ps", CLUSTER.total_gpus)):
            runner = make_runner(arch)
            for i in range(3):
                runner.step(i)
            assert len(runner.session._plans) == expected


class TestFailureContext:
    """An exception escaping a plan names the schedule entry that raised,
    on the first-run loop and in generated code alike."""

    @pytest.mark.parametrize("failing_call", [1, 3],
                             ids=["loop", "generated"])
    def test_kernel_failure_names_its_entry(self, monkeypatch,
                                            failing_call):
        real = ops.FORWARD["fused_allreduce"]
        calls = {}

        def fails_once(op, inputs, runtime):
            calls[op.name] = calls.get(op.name, 0) + 1
            if calls[op.name] == failing_call:
                raise RuntimeError("injected failure")
            return real(op, inputs, runtime)

        monkeypatch.setitem(ops.FORWARD, "fused_allreduce", fails_once)
        model = make_model()
        runner = DistributedRunner(
            model, CLUSTER, hybrid_graph_plan(model.graph),
            seed=1)
        with pytest.raises(RuntimeError, match="injected") as excinfo:
            for i in range(3):
                runner.step(i)
        plan = runner.step_plans[0]
        assert (plan._codegen is not None) == (failing_call == 3)
        op = plan.schedule[excinfo.value.schedule_index][0]
        assert (op.op_type, op.name) == ("fused_allreduce",
                                          excinfo.value.op_name)

    def test_failure_inside_a_fused_chain_names_the_member(self):
        """A failing entry inside a run of arena calls is named by its
        own line.  (The id predates the removal of fused chains.)"""
        g = Graph()
        with g.as_default():
            x = ops.placeholder((4,), name="x")
            a = ops.tanh(x, name="a")
            b = ops.mul(a, a, name="b")
            c = ops.add(b, a, name="c")
            out = ops.mul(c, c, name="out")
        sess = Session(g)
        plan = sess.compile(out)
        bplan = plan._ensure_buffer_plan()
        slot = plan.slot_of_name["b"]

        def broken(*args):
            raise ValueError("broken out-kernel")

        bplan.out_fns[slot] = broken
        feed = {x: np.ones(4, dtype=np.float32)}
        sess.run_plan(plan, feed)  # the loop never calls out-kernels
        with pytest.raises(ValueError, match="broken") as excinfo:
            sess.run_plan(plan, feed)
        assert plan._codegen is not None
        assert (excinfo.value.schedule_index, excinfo.value.op_name) \
            == (slot, "b")


class TestOneLinePerEntry:
    def test_generated_code_runs_each_entry_in_one_place(self):
        """The generated code is ``_run`` alone -- no helper functions --
        and its line table holds every non-placeholder entry once, as
        one run of lines in schedule order.  Checked on the benchmark's
        ResNet step plan, whose elementwise runs are long."""
        model = build_resnet(batch_size=32, num_features=128,
                             num_classes=10, width=512, num_blocks=4,
                             seed=1)
        with model.graph.as_default():
            GradientDescentOptimizer(0.02).update(gradients(model.loss))
        runner = DistributedRunner(model, ClusterSpec(2, 1),
                                   ar_graph_plan(model.graph),
                                   seed=1)
        for i in range(2):
            runner.step(i)
        plan = runner.step_plans[0]
        assert plan._codegen is not None
        assert not [name for name in plan._codegen.__globals__
                    if name.startswith("_F")]
        runs = [slot for slot, _ in groupby(plan._line_slots)
                if slot is not None]
        assert runs == [slot for op, _, _, slot, _ in plan.schedule
                        if op.op_type != "placeholder"]
