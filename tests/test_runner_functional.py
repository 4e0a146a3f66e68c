"""Functional-plane correctness: distributed training vs single-GPU.

The strongest guarantee the reproduction offers: for every architecture,
one synchronous distributed iteration equals (to float32 rounding) one
single-GPU step on the averaged gradients of the same per-replica batches,
and all architectures produce identical training trajectories.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph import Session, gradients
from repro.nn.models import build_inception, build_lm, build_nmt, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer, MomentumOptimizer
from repro.tensor.sparse import IndexedSlices

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)
LR = 0.4
SEED = 11


def prepare(builder, **kwargs):
    model = builder(**kwargs)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(LR).update(gvs)
    return model, gvs


def lm_kwargs(partitions=3):
    return dict(builder=build_lm, batch_size=4, vocab_size=40, seq_len=3,
                emb_dim=8, hidden=10, num_partitions=partitions, seed=0)


def reference_sgd_step(builder_kwargs, num_replicas, iteration=0):
    """Single-GPU reference: average the per-shard gradients, apply SGD."""
    kwargs = dict(builder_kwargs)
    builder = kwargs.pop("builder")
    model, gvs = prepare(builder, **kwargs)
    sess = Session(model.graph, seed=SEED)
    shards = [model.dataset.shard(num_replicas, r)
              for r in range(num_replicas)]
    averaged = {}
    for r in range(num_replicas):
        feed = model.feed(shards[r].batch(model.batch_size, iteration))
        values = sess.run([gt for gt, _ in gvs], feed)
        for (gt, var), value in zip(gvs, values):
            if isinstance(value, IndexedSlices):
                value = value.to_dense()
            averaged[var.name] = (
                averaged.get(var.name, 0.0)
                + np.asarray(value, dtype=np.float64) / num_replicas
            )
    return {
        name: sess.read_variable(name) - LR * grad
        for name, grad in averaged.items()
    }


def distributed_state(runner):
    state = {}
    for name in runner.transformed.plan.methods:
        state[name] = runner.variable_value(name)
    return state


PLAN_BUILDERS = {
    "parallax": lambda g: hybrid_graph_plan(g),
    "tf_ps": lambda g: graph_plan(g, "ps"),
    "opt_ps": lambda g: graph_plan(g, "opt_ps"),
    "horovod": lambda g: ar_graph_plan(g),
}


class TestSingleStepEquivalence:
    @pytest.mark.parametrize("arch", list(PLAN_BUILDERS))
    def test_lm_step_matches_reference(self, arch):
        model, _ = prepare(**lm_kwargs())
        plan = PLAN_BUILDERS[arch](model.graph)
        runner = DistributedRunner(model, CLUSTER, plan, seed=SEED)
        runner.step(0)
        reference = reference_sgd_step(lm_kwargs(), runner.num_replicas)
        for name, expected in reference.items():
            got = runner.variable_value(name)
            np.testing.assert_allclose(got, expected, atol=1e-5,
                                       err_msg=f"{arch}:{name}")

    @pytest.mark.parametrize("arch", ["parallax", "horovod", "tf_ps"])
    def test_resnet_step_matches_reference(self, arch):
        kwargs = dict(builder=build_resnet, batch_size=4, num_features=8,
                      num_classes=3, width=8, num_blocks=1, seed=0)
        model, _ = prepare(**kwargs)
        plan = PLAN_BUILDERS[arch](model.graph)
        runner = DistributedRunner(model, CLUSTER, plan, seed=SEED)
        runner.step(0)
        reference = reference_sgd_step(kwargs, runner.num_replicas)
        for name, expected in reference.items():
            np.testing.assert_allclose(runner.variable_value(name), expected,
                                       atol=1e-5, err_msg=f"{arch}:{name}")


class TestArchitectureInvariance:
    def test_all_architectures_same_trajectory(self):
        """Synchronous training is architecture-independent: every plan
        yields the same loss sequence (paper section 6.2's correctness)."""
        trajectories = {}
        for arch, plan_fn in PLAN_BUILDERS.items():
            model, _ = prepare(**lm_kwargs())
            runner = DistributedRunner(model, CLUSTER, plan_fn(model.graph),
                                       seed=SEED)
            trajectories[arch] = [runner.step(i).mean_loss for i in range(4)]
        base = trajectories["parallax"]
        for arch, losses in trajectories.items():
            np.testing.assert_allclose(losses, base, rtol=1e-4,
                                       err_msg=arch)

    def test_replicas_stay_synchronized(self):
        model, _ = prepare(**lm_kwargs())
        runner = DistributedRunner(model, CLUSTER,
                                   hybrid_graph_plan(model.graph), seed=SEED)
        for i in range(3):
            runner.step(i)
        for name in runner.transformed.replica_variables:
            base = runner.replica_variable(0, name)
            for r in range(1, runner.num_replicas):
                np.testing.assert_array_equal(
                    base, runner.replica_variable(r, name),
                    err_msg=f"replica {r} diverged on {name}")

    def test_momentum_trajectories_match_across_architectures(self):
        losses_by_arch = {}
        for arch in ("parallax", "horovod"):
            model = build_nmt(batch_size=4, src_vocab=30, tgt_vocab=30,
                              src_len=2, tgt_len=2, emb_dim=6, hidden=6,
                              num_partitions=2, seed=1)
            with model.graph.as_default():
                gvs = gradients(model.loss)
                MomentumOptimizer(0.2, 0.9).update(gvs)
            plan = PLAN_BUILDERS[arch](model.graph)
            runner = DistributedRunner(model, CLUSTER, plan, seed=SEED)
            losses_by_arch[arch] = [runner.step(i).mean_loss
                                    for i in range(4)]
        np.testing.assert_allclose(losses_by_arch["parallax"],
                                   losses_by_arch["horovod"], rtol=1e-4)


class TestTraining:
    @pytest.mark.parametrize("builder,kwargs", [
        (build_resnet, dict(batch_size=8, num_features=16, num_classes=4,
                            width=16, num_blocks=1)),
        (build_inception, dict(batch_size=8, num_features=16, num_classes=4,
                               width=8, num_modules=1)),
    ])
    def test_dense_models_learn_distributed(self, builder, kwargs):
        model = builder(seed=0, **kwargs)
        with model.graph.as_default():
            gvs = gradients(model.loss)
            GradientDescentOptimizer(0.1).update(gvs)
        runner = DistributedRunner(model, CLUSTER,
                                   hybrid_graph_plan(model.graph), seed=SEED)
        first = runner.step(0).mean_loss
        for i in range(1, 25):
            last = runner.step(i).mean_loss
        assert last < first * 0.6

    def test_lm_perplexity_decreases(self):
        model, _ = prepare(**lm_kwargs())
        runner = DistributedRunner(model, CLUSTER,
                                   hybrid_graph_plan(model.graph), seed=SEED)
        first = runner.step(0).mean_loss
        for i in range(1, 30):
            last = runner.step(i).mean_loss
        assert np.exp(last) < np.exp(first)


class TestTranscriptAccounting:
    def iteration_bytes(self, plan_fn, partitions=3):
        model, _ = prepare(**lm_kwargs(partitions))
        runner = DistributedRunner(model, CLUSTER, plan_fn(model.graph),
                                   seed=SEED)
        runner.step(0)
        runner.transcript.clear()
        runner.step(1)
        return runner.transcript

    def test_local_aggregation_reduces_push_bytes(self):
        naive = self.iteration_bytes(lambda g: graph_plan(g, "ps"))
        opt = self.iteration_bytes(
            lambda g: graph_plan(g, "opt_ps"))

        def push_bytes(transcript):
            # Everything but the variable pulls, whichever op type a
            # gradient's last producer has (a vjp, a grad_add, a concat).
            pulls = ("edge/read_var", "edge/shard_lookup")
            return sum(t.nbytes for t in transcript.filter(None)
                       if t.tag not in pulls)

        assert opt.total_network_bytes("edge/local_agg") > 0
        assert push_bytes(opt) < push_bytes(naive)

    def test_hybrid_moves_fewer_bytes_than_gatherv(self):
        hybrid = self.iteration_bytes(hybrid_graph_plan)
        horovod = self.iteration_bytes(ar_graph_plan)
        # Sparse traffic: PS pulls/pushes vs full AllGatherv circulation.
        assert hybrid.total_network_bytes() < \
            horovod.total_network_bytes()

    def test_sparse_pull_bytes_bounded_by_batch_rows(self):
        """Each worker pulls at most batch*seq embedding rows per iter."""
        transcript = self.iteration_bytes(hybrid_graph_plan)
        pull = transcript.total_network_bytes("edge/shard_lookup")
        row_bytes = 8 * 4  # emb_dim * float32
        max_rows = 4 * 3   # batch * seq_len
        # 4 replicas, but only cross-machine pulls counted (<= all pulls).
        assert pull <= 4 * max_rows * row_bytes

    def test_allreduce_bytes_match_ring_formula(self):
        model, _ = prepare(**lm_kwargs())
        runner = DistributedRunner(model, CLUSTER,
                                   hybrid_graph_plan(model.graph), seed=SEED)
        runner.step(0)
        runner.transcript.clear()
        runner.step(1)
        w = sum(
            np.prod(model.graph.variables[name].shape) * 4
            for name in runner.transformed.replica_variables
        )
        n_workers = runner.num_replicas
        # Ring over 4 workers on 2 machines: 2 of 4 hops cross machines,
        # each hop carries chunk bytes; per-iteration cross bytes =
        # 2 hops * 2(N-1) steps * w/N.
        expected = 2 * 2 * (n_workers - 1) * w / n_workers
        measured = runner.transcript.total_network_bytes("allreduce")
        assert measured == pytest.approx(expected, rel=0.01)


class TestCheckpointing:
    def test_save_restore_roundtrip(self, tmp_path):
        model, _ = prepare(**lm_kwargs())
        runner = DistributedRunner(model, CLUSTER,
                                   hybrid_graph_plan(model.graph), seed=SEED)
        for i in range(3):
            runner.step(i)
        path = str(tmp_path / "ckpt.npz")
        runner.save(path)

        model2, _ = prepare(**lm_kwargs())
        runner2 = DistributedRunner(model2, CLUSTER,
                                    hybrid_graph_plan(model2.graph),
                                    seed=SEED + 99)
        runner2.restore(path)
        for name in runner.transformed.plan.methods:
            np.testing.assert_array_equal(runner.variable_value(name),
                                          runner2.variable_value(name))

    def test_training_resumes_identically(self, tmp_path):
        model, _ = prepare(**lm_kwargs())
        runner = DistributedRunner(model, CLUSTER,
                                   hybrid_graph_plan(model.graph), seed=SEED)
        for i in range(2):
            runner.step(i)
        path = str(tmp_path / "ckpt.npz")
        runner.save(path)
        expected = runner.step(2).mean_loss

        model2, _ = prepare(**lm_kwargs())
        runner2 = DistributedRunner(model2, CLUSTER,
                                    hybrid_graph_plan(model2.graph), seed=0)
        runner2.restore(path)
        assert runner2.step(2).mean_loss == pytest.approx(expected,
                                                          rel=1e-5)

    def test_save_requires_path(self):
        model, _ = prepare(**lm_kwargs())
        runner = DistributedRunner(model, CLUSTER,
                                   hybrid_graph_plan(model.graph))
        with pytest.raises(TypeError, match="path"):
            runner.save()
        assert not hasattr(runner, "default_save_path")

    def test_variable_named_like_replica_prefix_roundtrips(self, tmp_path):
        """Regression: a user variable named e.g. ``report/w`` must not be
        mistaken for a ``rep<k>/`` replica copy.  It used to be dropped
        from checkpoints, and restoring alongside a variable named ``w``
        crashed on ``int("ort")``."""
        from repro.graph.graph import Graph
        from repro.graph.ops import matmul, mse_loss, placeholder
        from repro.graph.variables import get_variable
        from repro.nn.datasets import Dataset

        class _RegressionData(Dataset):
            def __init__(self):
                rng = np.random.default_rng(3)
                self.x = rng.normal(size=(32, 3)).astype(np.float32)
                self.y = rng.normal(size=(32, 1)).astype(np.float32)

            def __len__(self):
                return 32

            def example(self, index):
                return self.x[index], self.y[index]

        def build():
            from repro.nn.models.common import BuiltModel

            graph = Graph()
            with graph.as_default():
                x = placeholder((4, 3), name="x")
                target = placeholder((4, 1), name="target")
                w = get_variable("w", (3, 1))
                report_w = get_variable("report/w", (1, 1))
                pred = matmul(matmul(x, w.tensor, name="pred"),
                              report_w.tensor, name="pred/scaled")
                loss = mse_loss(pred, target)
                gvs = gradients(loss)
                GradientDescentOptimizer(0.1).update(gvs)
            return BuiltModel(graph=graph, loss=loss,
                              placeholders={"x": x, "target": target},
                              dataset=_RegressionData(), batch_size=4,
                              name="report_regression")

        model = build()
        runner = DistributedRunner(model, CLUSTER,
                                   graph_plan(model.graph, "ps"), seed=SEED)
        for i in range(2):
            runner.step(i)
        state = runner.logical_state()
        assert "report/w" in state and "w" in state
        path = str(tmp_path / "report.npz")
        runner.save(path)

        model2 = build()
        restored = DistributedRunner(model2, CLUSTER,
                                     graph_plan(model2.graph, "ps"),
                                     seed=SEED + 7)
        restored.restore(path)
        for name in ("w", "report/w"):
            np.testing.assert_array_equal(runner.variable_value(name),
                                          restored.variable_value(name))


class TestRestoreStrictness:
    """restore() must not silently load a partial checkpoint."""

    def make_runner(self):
        model, _ = prepare(**lm_kwargs())
        return DistributedRunner(model, CLUSTER,
                                 hybrid_graph_plan(model.graph), seed=SEED)

    def test_missing_names_rejected_with_listing(self, tmp_path):
        runner = self.make_runner()
        state = runner.logical_state()
        dropped = sorted(state)[0]
        del state[dropped]
        path = str(tmp_path / "partial.npz")
        np.savez(path, **state)
        runner2 = self.make_runner()
        with pytest.raises(ValueError) as err:
            runner2.restore(path)
        assert dropped in str(err.value)
        assert "missing" in str(err.value)

    def test_unexpected_names_rejected_with_listing(self, tmp_path):
        runner = self.make_runner()
        state = runner.logical_state()
        state["not/a/graph/var"] = np.zeros(3, dtype=np.float32)
        path = str(tmp_path / "extra.npz")
        np.savez(path, **state)
        runner2 = self.make_runner()
        with pytest.raises(ValueError) as err:
            runner2.restore(path)
        assert "not/a/graph/var" in str(err.value)
        assert "unexpected" in str(err.value)

    def test_non_strict_loads_the_intersection(self, tmp_path):
        runner = self.make_runner()
        for i in range(2):
            runner.step(i)
        state = runner.logical_state()
        dropped = sorted(state)[0]
        del state[dropped]
        state["stray"] = np.zeros(2, dtype=np.float32)
        path = str(tmp_path / "partial.npz")
        np.savez(path, **state)
        runner2 = self.make_runner()
        before = runner2.variable_value(dropped)
        runner2.restore(path, strict=False)
        # Matching names loaded, the missing one kept its initial value.
        kept = sorted(set(state) - {"stray"})[0]
        np.testing.assert_array_equal(runner2.variable_value(kept),
                                      runner.variable_value(kept))
        np.testing.assert_array_equal(runner2.variable_value(dropped),
                                      before)

    def test_exact_checkpoint_still_roundtrips_strict(self, tmp_path):
        runner = self.make_runner()
        runner.step(0)
        path = str(tmp_path / "full.npz")
        runner.save(path)
        runner2 = self.make_runner()
        runner2.restore(path)  # strict=True default; must not raise
        for name in runner.transformed.plan.methods:
            np.testing.assert_array_equal(runner.variable_value(name),
                                          runner2.variable_value(name))
