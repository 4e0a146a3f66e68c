"""Asynchronous PS training and gradient clipping (paper extensions).

The paper (section 2.1): "Parallax supports both synchronous and
asynchronous training", and section 5 describes workers needing
aggregated gradients "to compute a global norm of gradients for
clipping".
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import (
    GraphSyncPlan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph import Graph, Session, gradients, ops
from repro.graph.variables import Variable
from repro.nn.models import build_lm
from repro.nn.optimizers import (
    AdamOptimizer,
    GradientDescentOptimizer,
    MomentumOptimizer,
)

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)


def lm_model(lr=0.4, optimizer=None, **kwargs):
    defaults = dict(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                    hidden=10, num_partitions=2, seed=0)
    defaults.update(kwargs)
    model = build_lm(**defaults)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        opt = optimizer if optimizer is not None else \
            GradientDescentOptimizer(lr)
        opt.update(gvs)
    return model


class TestAsyncPlanValidation:
    def test_async_requires_all_ps(self):
        model = lm_model()
        plan = hybrid_graph_plan(model.graph)
        with pytest.raises(ValueError, match="asynchronous"):
            GraphSyncPlan("bad", plan.methods, asynchronous=True)

    def test_async_ps_plan_builds(self):
        model = lm_model()
        plan = replace(graph_plan(model.graph, "ps"), asynchronous=True)
        assert plan.asynchronous


class TestAsyncTraining:
    def make_runner(self, **kwargs):
        model = lm_model(**kwargs)
        plan = replace(graph_plan(model.graph, "ps"), asynchronous=True)
        return DistributedRunner(model, CLUSTER, plan, seed=7)

    def test_per_replica_train_ops_exist(self):
        runner = self.make_runner()
        assert runner.transformed.replica_train_ops is not None
        assert len(runner.transformed.replica_train_ops) == 4

    def test_one_update_per_variable_per_replica(self):
        runner = self.make_runner()
        updates = [op for op in runner.transformed.graph.operations
                   if op.attrs.get("is_update")]
        num_vars = len(runner.transformed.plan.methods)
        assert len(updates) == num_vars * runner.num_replicas

    def test_no_aggregation_ops(self):
        runner = self.make_runner()
        kinds = {op.op_type for op in runner.transformed.graph.operations}
        assert "global_agg" not in kinds
        assert "local_agg" not in kinds
        assert "allreduce" not in kinds

    def test_async_converges(self):
        runner = self.make_runner()
        first = runner.step(0).mean_loss
        for i in range(1, 30):
            last = runner.step(i).mean_loss
        assert last < first

    def test_async_trajectory_differs_from_sync(self):
        """Later workers see earlier workers' updates within an iteration,
        so async and sync trajectories must diverge."""
        async_runner = self.make_runner()
        sync_model = lm_model()
        sync_runner = DistributedRunner(
            sync_model, CLUSTER, graph_plan(sync_model.graph, "ps"), seed=7)
        async_losses = [async_runner.step(i).mean_loss for i in range(4)]
        sync_losses = [sync_runner.step(i).mean_loss for i in range(4)]
        # Iteration 0 replica 0 is identical; later ones are not.
        assert not np.allclose(async_losses[1:], sync_losses[1:], rtol=1e-6)

    def test_staleness_visible_within_iteration(self):
        """Within one async iteration, replica r+1's loss reflects
        replica r's update: replica losses are computed against different
        variable versions, unlike the sync case."""
        runner = self.make_runner(lr=2.0)
        runner.step(0)
        result = runner.step(1)
        # In sync training all replicas read the same snapshot, so their
        # losses depend only on their shard.  Reconstruct what replica 1
        # would have seen pre-update by rerunning its loss without the
        # train op: it must differ from the recorded (post-replica-0) one
        # ... we check the cheaper observable: replica losses are not all
        # equal to a fresh evaluation against the final state.
        feeds = runner.feeds_for(1)
        final_losses = [
            float(runner.session.run(
                runner.transformed.replica_losses[r], feeds))
            for r in range(runner.num_replicas)
        ]
        # Recorded losses were taken against evolving state; at least the
        # earliest replica's recorded loss differs from its value against
        # the final state.
        assert not np.allclose(result.replica_losses, final_losses,
                               rtol=1e-6)


class TestGradientClipping:
    def quadratic(self, clip_norm, lr=1.0, optimizer_cls=None):
        g = Graph()
        target = np.full((4,), 100.0, dtype=np.float32)
        with g.as_default():
            w = Variable("w", (4,), initializer=np.zeros(4, np.float32))
            loss = ops.mse_loss(w.tensor, ops.constant(target))
            gvs = gradients(loss)
            cls = optimizer_cls or GradientDescentOptimizer
            train = cls(lr, clip_norm=clip_norm).update(gvs)
        return g, loss, gvs, train

    def test_dense_step_bounded_by_clip(self):
        g, loss, gvs, train = self.quadratic(clip_norm=1.0)
        sess = Session(g)
        before = sess.read_variable("w").copy()
        sess.run(train)
        step = sess.read_variable("w") - before
        assert np.linalg.norm(step) <= 1.0 + 1e-5

    def test_no_clip_when_under_threshold(self):
        g, loss, gvs, train = self.quadratic(clip_norm=1e9)
        sess = Session(g)
        grad = sess.run(gvs[0][0])
        before = sess.read_variable("w").copy()
        sess.run(train)
        np.testing.assert_allclose(sess.read_variable("w"),
                                   before - grad, rtol=1e-6)

    def test_clip_direction_preserved(self):
        g, loss, gvs, train = self.quadratic(clip_norm=0.5)
        sess = Session(g)
        grad = sess.run(gvs[0][0])
        before = sess.read_variable("w").copy()
        sess.run(train)
        step = before - sess.read_variable("w")
        cos = step @ grad / (np.linalg.norm(step) * np.linalg.norm(grad))
        assert cos == pytest.approx(1.0, abs=1e-5)

    def test_sparse_clipping(self):
        g = Graph()
        with g.as_default():
            emb = Variable("emb", (6, 2),
                           initializer=np.zeros((6, 2), np.float32))
            ids = ops.constant(np.array([1, 4], dtype=np.int64))
            rows = ops.gather(emb.tensor, ids)
            loss = ops.mse_loss(
                rows, ops.constant(np.full((2, 2), 50.0, dtype=np.float32)))
            gvs = gradients(loss)
            train = GradientDescentOptimizer(1.0, clip_norm=0.1).update(gvs)
        sess = Session(g)
        sess.run(train)
        moved = sess.read_variable("emb")
        assert np.linalg.norm(moved) <= 0.1 + 1e-6

    def test_clipping_survives_transformation(self):
        """The transform rebuilds update ops; clip_norm must ride along."""
        model = lm_model(optimizer=GradientDescentOptimizer(0.5,
                                                            clip_norm=0.01))
        plan = hybrid_graph_plan(model.graph)
        runner = DistributedRunner(model, CLUSTER, plan, seed=7)
        updates = [op for op in runner.transformed.graph.operations
                   if op.attrs.get("is_update")]
        assert updates
        assert all(op.attrs.get("clip_norm") == 0.01 for op in updates)

        before = {name: runner.variable_value(name).copy()
                  for name in plan.methods}
        runner.step(0)
        for name in plan.methods:
            delta = runner.variable_value(name) - before[name]
            assert np.linalg.norm(delta) <= 0.5 * 0.01 + 1e-6, name

    def test_momentum_and_adam_accept_clip(self):
        for cls in (MomentumOptimizer, AdamOptimizer):
            g, loss, gvs, train = self.quadratic(clip_norm=1.0,
                                                 optimizer_cls=cls)
            sess = Session(g)
            sess.run(train)  # smoke: kernels handle the attr
