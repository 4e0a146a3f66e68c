"""The serving plane: forward-only compiled plans, batched bit-identity,
and train-and-serve hot reload.

The load-bearing contracts: a serving engine's output must be
bit-identical to the training graph's forward pass -- per example, at
every request batch size, and through the codegen'd replay path -- and
a hot reload must leave a running server bit-identical to a cold server
restored from the same state.  Batch-size identity is pinned on these small
models; on larger shapes BLAS may pick another kernel per batch size
(~5e-9 on the benchmark's LM, which ``bench/serving.py`` holds to a
1e-6 row tolerance).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.api import ParallaxConfig, ServeConfig, make_server
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import hybrid_graph_plan
from repro.graph import Graph, ops
from repro.graph.executor import CompiledPlan
from repro.graph.gradients import gradients
from repro.graph.session import Session
from repro.graph.variables import Variable
from repro.nn.models import build_inception, build_lm, build_nmt, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer
from repro.serve import (
    InferenceEngine,
    InferencePlanError,
    InferenceServer,
    seeded_weights,
    weights_from_state,
)

SEED = 3
C2x1 = ClusterSpec(num_machines=2, gpus_per_machine=1)

MODEL_BUILDERS = {
    "lm": lambda: build_lm(batch_size=4, vocab_size=40, seq_len=3,
                           emb_dim=8, hidden=10, num_partitions=3, seed=0),
    "nmt": lambda: build_nmt(batch_size=4, src_vocab=30, tgt_vocab=30,
                             src_len=3, tgt_len=3, emb_dim=10, hidden=10,
                             num_partitions=2, seed=0),
    "resnet": lambda: build_resnet(batch_size=4, num_features=12,
                                   num_classes=5, width=8, num_blocks=2,
                                   seed=0),
    "inception": lambda: build_inception(batch_size=4, num_features=12,
                                         num_classes=5, width=8,
                                         num_modules=2, seed=0),
}


def trained_model(key="lm"):
    """A model with gradients/updates built -- the graph a server prunes."""
    model = MODEL_BUILDERS[key]()
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.4).update(gvs)
    return model


# ======================================================================
# Forward-only engine: pruning, bit-identity, plan cache
# ======================================================================
class TestInferenceEngine:
    @pytest.mark.parametrize("key", sorted(MODEL_BUILDERS))
    def test_matches_training_graph_forward(self, key):
        """Engine output == Session forward of the full training graph."""
        model = trained_model(key)
        batch = model.dataset.batch(model.batch_size, 0)
        expected = Session(model.graph, seed=SEED).run(
            model.logits, model.feed(batch))
        engine = InferenceEngine(model.graph, [model.logits],
                                 seeded_weights(model.graph, SEED))
        got = engine.run(model.feed(batch))[0]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("key", sorted(MODEL_BUILDERS))
    def test_batched_equals_per_example(self, key):
        """Every batch size serves exactly the per-example rows."""
        model = MODEL_BUILDERS[key]()
        engine = InferenceEngine(model.graph, [model.logits],
                                 seeded_weights(model.graph, SEED))
        for size in (1, 2, 4, 6):
            columns = model.dataset.batch(size, 0)
            batched = engine.run(model.feed(columns))[0]
            for i in range(size):
                single = tuple(col[i:i + 1] for col in columns)
                row = engine.run(model.feed(single))[0]
                np.testing.assert_array_equal(row[0], batched[i])

    def test_codegen_replay_is_stable(self):
        """Replay after codegen kicks in (>= 2 executions) stays exact."""
        model = MODEL_BUILDERS["lm"]()
        engine = InferenceEngine(model.graph, [model.logits],
                                 seeded_weights(model.graph, SEED))
        feed = model.feed(model.dataset.batch(4, 0))
        first = np.array(engine.run(feed)[0])
        for _ in range(5):
            np.testing.assert_array_equal(engine.run(feed)[0], first)

    def test_uses_buffer_arena(self):
        model = MODEL_BUILDERS["lm"]()
        engine = InferenceEngine(model.graph, [model.logits],
                                 seeded_weights(model.graph, SEED))
        plan = engine.plan_for(engine.native_batch)
        assert plan.arena_slots > 0
        assert plan.arena_bytes > 0

    def test_rejects_training_fetches(self):
        model = trained_model("lm")
        train_op = next(op for op in model.graph.operations
                        if op.op_type == "group")
        with pytest.raises(InferencePlanError, match="not forward-only"):
            InferenceEngine(model.graph, [train_op],
                            seeded_weights(model.graph, SEED))

    def test_rejects_missing_and_misshapen_weights(self):
        model = MODEL_BUILDERS["lm"]()
        weights = seeded_weights(model.graph, SEED)
        del weights["lstm/bias"]
        with pytest.raises(InferencePlanError, match="missing"):
            InferenceEngine(model.graph, [model.logits], weights)
        weights = seeded_weights(model.graph, SEED)
        weights["lstm/bias"] = np.zeros(3)
        with pytest.raises(InferencePlanError, match="shape"):
            InferenceEngine(model.graph, [model.logits], weights)

    def test_weights_are_frozen(self):
        model = MODEL_BUILDERS["lm"]()
        engine = InferenceEngine(model.graph, [model.logits],
                                 seeded_weights(model.graph, SEED))
        table = engine.weights.table
        assert all(not v.flags.writeable for v in table.values())
        with pytest.raises(ValueError):
            table["lstm/bias"][0] = 1.0
        with pytest.raises(RuntimeError, match="read-only"):
            engine._session.store.write("lstm/bias", np.zeros(40))

    def test_plan_cache_one_plan_per_batch_size(self):
        model = MODEL_BUILDERS["lm"]()
        engine = InferenceEngine(model.graph, [model.logits],
                                 seeded_weights(model.graph, SEED))
        assert engine.plan_for(4) is engine.plan_for(4)
        assert engine.plan_for(2) is not engine.plan_for(4)
        assert engine.native_batch == 4

    @settings(max_examples=25, deadline=None)
    @given(nb=st.integers(1, 4), steps=st.integers(1, 4),
           width=st.integers(2, 5), seed=st.integers(0, 9))
    def test_batch_major_merge_and_split_serve_every_batch(self, nb, steps,
                                                            width, seed):
        """(B, T, D) -> (B*T, D) -> matmul -> (B, T, Y), the LSTM's
        hoisted input projection: batches 1..8 serve each example's rows
        bit for bit.  (``width`` >= 2: one output column makes a single
        row a BLAS dot product, which rounds unlike the batched gemv.)"""
        dim = 3
        g = Graph()
        with g.as_default():
            x = ops.placeholder((nb, steps, dim), name="x")
            w = Variable("w", (dim, width))
            rows = ops.matmul(ops.reshape(x, (nb * steps, dim), name="merge"),
                              w.tensor)
            out = ops.reshape(rows, (nb, steps, width), name="split")
        engine = InferenceEngine(g, [out], seeded_weights(g, seed))
        rng = np.random.default_rng(seed)
        for size in range(1, 9):
            xs = rng.standard_normal((size, steps, dim)).astype(np.float32)
            batched = engine.run({"x": xs})[0]
            assert batched.shape == (size, steps, width)
            for i in range(size):
                row = engine.run({"x": xs[i:i + 1]})[0]
                np.testing.assert_array_equal(row[0], batched[i])

    def test_reshape_not_led_by_the_batch_stays_static(self):
        nb = 4
        g = Graph()
        with g.as_default():
            x = ops.placeholder((nb, 2, 3), name="x")
            merged = ops.reshape(x, (nb * 2, 3), name="merge")
            w = Variable("w", (6, nb))  # leads with 6, not a multiple of 4
            flipped = ops.reshape(w.tensor, (nb, 6), name="flip")
            out = ops.add(ops.reshape(merged, (nb, 6), name="split"), flipped)
        engine = InferenceEngine(g, [out], seeded_weights(g, 0))
        assert engine._specialize(g.get_op("flip")) is None
        for name in ("merge", "split"):
            assert engine._specialize(g.get_op(name)) is not None

    def test_weights_from_state_drops_optimizer_slots(self):
        model = trained_model("lm")
        state = seeded_weights(model.graph, SEED)
        state["embedding/part_0/adam_m"] = np.zeros(3)
        table = weights_from_state(model.graph, state)
        assert "embedding/part_0/adam_m" not in table
        assert set(table) == set(model.graph.variables)


# ======================================================================
# The server front end and hot reload
# ======================================================================
class TestInferenceServer:
    def test_results_routed_to_each_request(self):
        model = MODEL_BUILDERS["lm"]()
        server = InferenceServer(model, seeded_weights(model.graph, SEED),
                                 max_batch=4)
        try:
            columns = model.dataset.batch(6, 0)
            expected = np.array(server.run_batch(columns))
            futures = [server.submit(model.dataset.example(i))
                       for i in range(6)]
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(future.result(timeout=30),
                                              expected[i])
            assert server.requests_served == 6
            assert all(size <= 4 for size, _ in server.batcher.batch_log)
        finally:
            server.close()

    def test_submit_rejects_wrong_arity(self):
        model = MODEL_BUILDERS["lm"]()
        server = InferenceServer(model, seeded_weights(model.graph, SEED))
        try:
            with pytest.raises(ValueError, match="placeholders"):
                server.submit((np.zeros(3, dtype=np.int64),))
        finally:
            server.close()

    @pytest.mark.parametrize("backend", ("inproc", "multiproc"))
    def test_hot_reload_equals_cold_restore(self, backend):
        """Reloading a live server from a further-trained runner leaves
        it bit-identical to a cold server restored from the same state,
        whichever backend produced that state."""
        model = trained_model("lm")
        runner = DistributedRunner(model, C2x1,
                                   hybrid_graph_plan(model.graph),
                                   seed=SEED, backend=backend)
        server = None
        cold = None
        try:
            for i in range(3):
                runner.step(i)
            server = make_server(model, runner=runner)
            columns = model.dataset.batch(4, 0)
            before = np.array(server.run_batch(columns))
            for i in range(3, 6):
                runner.step(i)
            server.reload(runner.logical_state())
            cold = make_server(model, runner=runner)
            hot_rows = np.array(server.run_batch(columns))
            cold_rows = np.array(cold.run_batch(columns))
            np.testing.assert_array_equal(hot_rows, cold_rows)
            assert not np.array_equal(hot_rows, before), \
                "reload served the stale generation"
        finally:
            for s in (server, cold):
                if s is not None:
                    s.close()
            runner.close()

    def test_reload_is_atomic_between_batches(self):
        """A swap never mixes generations inside one batch: every served
        row matches either the old or the new weights in full."""
        model = MODEL_BUILDERS["lm"]()
        old = seeded_weights(model.graph, SEED)
        new = seeded_weights(model.graph, SEED + 1)
        server = InferenceServer(model, old, max_batch=4)
        try:
            columns = model.dataset.batch(4, 0)
            old_rows = np.array(server.run_batch(columns))
            server.reload(new)
            new_rows = np.array(server.run_batch(columns))
            reference = InferenceServer(model, new)
            try:
                np.testing.assert_array_equal(
                    new_rows, np.array(reference.run_batch(columns)))
            finally:
                reference.close()
            assert not np.array_equal(new_rows, old_rows)
        finally:
            server.close()


def test_delay_keyword_holds_no_request():
    """``InferenceServer(max_delay_ms=)`` is accepted and validated but
    bounds nothing: a lone request on an idle engine is answered at
    once however large the bound."""
    model = MODEL_BUILDERS["lm"]()
    weights = seeded_weights(model.graph, SEED)
    with pytest.raises(ValueError, match=r"^max_delay_ms must be >= 0$"):
        InferenceServer(model, weights, max_delay_ms=-1.0)
    server = InferenceServer(model, weights, max_batch=8,
                             max_delay_ms=10_000.0)
    try:
        example = model.dataset.example(0)
        start = time.monotonic()
        row = server.infer(example, timeout=30)
        assert time.monotonic() - start < 1.0
        np.testing.assert_array_equal(
            row, server.run_batch(tuple(np.stack([f]) for f in example))[0])
    finally:
        server.close()


def test_server_compiles_each_batch_size_once():
    """Each request batch size compiles once, off the request path after
    its first batch: a session keeps every plan it builds, so a server
    whose ``max_batch`` exceeds any cache bound recompiles nothing."""
    model = build_lm(batch_size=8, vocab_size=40, seq_len=3, emb_dim=8,
                     hidden=10, num_partitions=3, seed=0)
    server = InferenceServer(model, seeded_weights(model.graph, SEED),
                             max_batch=12)
    try:
        before = CompiledPlan.compiled_total
        for _ in range(3):
            for size in range(1, 13):
                server.run_batch(model.dataset.batch(size, 0))
        # 1..12 minus the native size 8, compiled at construction.
        assert CompiledPlan.compiled_total - before == 11
    finally:
        server.close()


# ======================================================================
# Config plumbing: ParallaxConfig knobs and make_server
# ======================================================================
class TestMakeServer:
    def test_make_server_applies_config_knobs(self):
        model = MODEL_BUILDERS["lm"]()
        config = ParallaxConfig(serve=ServeConfig(max_batch=3))
        server = make_server(model, config)
        try:
            assert server.batcher.max_batch == 3
            result = server.infer(model.dataset.example(0))
            assert result.shape[-1] == 40
        finally:
            server.close()

    def test_make_server_seeds_weights_from_config(self):
        model = MODEL_BUILDERS["lm"]()
        config = ParallaxConfig(seed=SEED)
        server = make_server(model, config)
        try:
            expected = seeded_weights(model.graph, SEED)
            for name, value in server.engine.weights.table.items():
                np.testing.assert_array_equal(value, expected[name])
        finally:
            server.close()

    def test_config_rejects_bad_serving_knobs(self):
        with pytest.raises(ValueError, match=r"^max_batch must be >= 1$"):
            ServeConfig(max_batch=0)


def test_weights_are_served_from_one_table():
    """No serving constructor takes a shard router any more, and the
    package exports no shard type: every variable is read from the
    engine's one ``FrozenWeights`` table."""
    import inspect

    import repro.serve

    for api in (InferenceEngine, InferenceServer, make_server):
        params = inspect.signature(api).parameters
        for name in ("router", "owns_router"):
            assert name not in params, (api, name)
    assert not [name for name in repro.serve.__all__
                if name.startswith("Shard")]


# ======================================================================
# Elastic integration: the train-and-serve loop
# ======================================================================
class TestElasticServing:
    def _elastic_runner(self, model, checkpoint_every=2):
        from repro.core.elastic import ElasticRunner

        return ElasticRunner(model, C2x1, hybrid_graph_plan(model.graph),
                             checkpoint_every=checkpoint_every, seed=SEED)

    def test_attached_server_follows_checkpoints(self):
        model = trained_model("lm")
        runner = self._elastic_runner(model, checkpoint_every=2)
        server = make_server(model, runner=runner)
        try:
            runner.attach_server(server)
            runner.run_elastic(4)
            # checkpoint_every=2 over 4 iterations: the initial recovery
            # point plus two cadence checkpoints, each pushed live.
            assert server.reloads == 3
            runner.detach_server(server)
            runner.run_elastic(2, start_iteration=4)
            assert server.reloads == 3
        finally:
            server.close()
            runner.close()

