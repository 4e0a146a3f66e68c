"""The Parallax user API: shard, partitioner, config, get_runner."""

import json

import numpy as np
import pytest

import repro as parallax
from repro.cluster.spec import ClusterSpec
from repro.core.api import (
    CommConfig,
    ElasticConfig,
    ParallaxConfig,
    get_runner,
    measure_alpha,
    resolve_cluster,
    shard,
)
from repro.core.partition_context import (
    active_partitions,
    partitioner,
    sampling_partitions,
)
from repro.graph import gradients
from repro.graph.graph import Graph
from repro.graph import ops
from repro.nn import layers
from repro.nn.datasets import SyntheticTextDataset
from repro.nn.models import build_lm, build_resnet
from repro.nn.models.common import BuiltModel
from repro.nn.optimizers import GradientDescentOptimizer

SMALL = {"machines": 2, "gpus_per_machine": 2}


def lm_builder(vocab=40, use_partitioner=True):
    """Figure-3-style builder closure."""

    def build():
        ds = shard(SyntheticTextDataset(size=128, vocab_size=vocab,
                                        seq_len=2, seed=0))
        g = Graph()
        with g.as_default():
            tokens = ops.placeholder((4, 2), dtype="int64", name="tokens")
            targets = ops.placeholder((4, 2), dtype="int64", name="targets")
            if use_partitioner:
                with partitioner():
                    emb, _ = layers.embedding(tokens, vocab, 6, name="emb")
            else:
                emb, _ = layers.embedding(tokens, vocab, 6, name="emb")
            flat = ops.reshape(emb, (4, 12), name="flat")
            w = layers.get_variable("w", (12, vocab))
            losses = []
            for t in range(2):
                logits = ops.matmul(
                    ops.reshape(ops.slice_axis(emb, t, t + 1, axis=1,
                                               name=f"e{t}"),
                                (4, 6), name=f"es{t}"),
                    ops.matmul(layers.get_variable(f"p{t}", (6, 12)).tensor,
                               w.tensor, name=f"pw{t}"),
                    name=f"logits{t}")
                lbl = ops.reshape(ops.slice_axis(targets, t, t + 1, axis=1,
                                                 name=f"l{t}"), (4,),
                                  name=f"ls{t}")
                losses.append(ops.softmax_xent(logits, lbl, name=f"x{t}"))
            loss = ops.scale(ops.add(losses[0], losses[1], name="loss/sum0"),
                             0.5, name="loss/mean")
            gvs = gradients(loss)
            GradientDescentOptimizer(0.2).update(gvs)
        return BuiltModel(graph=g, loss=loss,
                          placeholders={"tokens": tokens,
                                        "targets": targets},
                          dataset=ds, batch_size=4, name="api_lm")

    return build


class TestPartitionContext:
    def test_inactive_outside_scope(self):
        assert active_partitions() is None

    def test_default_one_inside_scope(self):
        with partitioner():
            assert active_partitions() == 1

    def test_sampling_value_visible_in_scope(self):
        with sampling_partitions(7):
            assert active_partitions() is None  # needs partitioner() too
            with partitioner():
                assert active_partitions() == 7

    def test_nested_partitioner_rejected(self):
        with partitioner():
            with pytest.raises(RuntimeError):
                with partitioner():
                    pass

    def test_invalid_sampling_value(self):
        with pytest.raises(ValueError):
            with sampling_partitions(0):
                pass

    def test_embedding_uses_context(self):
        g = Graph()
        with g.as_default():
            ids = ops.placeholder((3,), dtype="int64", name="ids")
            with sampling_partitions(3), partitioner():
                _, pv = layers.embedding(ids, 30, 4, name="emb")
        assert len(pv.partitions) == 3


class TestShard:
    def test_marks_and_returns_dataset(self):
        ds = SyntheticTextDataset(size=16, vocab_size=10, seq_len=2)
        assert shard(ds) is ds
        assert ds._parallax_shard is True


class TestConfig:
    def test_defaults_valid(self):
        ParallaxConfig()

    def test_bad_architecture_rejected(self):
        with pytest.raises(ValueError):
            ParallaxConfig(architecture="magic")


class TestResolveCluster:
    def test_passthrough(self):
        spec = ClusterSpec(2, 3)
        assert resolve_cluster(spec) is spec

    def test_simple_dict(self):
        spec = resolve_cluster({"machines": 3, "gpus_per_machine": 4})
        assert spec.num_machines == 3
        assert spec.gpus_per_machine == 4

    def test_machine_list_dict(self):
        spec = resolve_cluster({
            "machines": [{"hostname": "a", "gpus": [0, 1]},
                         {"hostname": "b", "gpus": [0, 1]}],
            "nic_gbps": 40,
        })
        assert spec.num_machines == 2
        assert spec.gpus_per_machine == 2
        assert spec.nic_gbps == 40

    def test_resource_file(self, tmp_path):
        path = tmp_path / "resources.json"
        path.write_text(json.dumps(
            {"machines": [{"hostname": "a", "gpus": [0, 1, 2]}]}))
        spec = resolve_cluster(str(path))
        assert spec.num_machines == 1
        assert spec.gpus_per_machine == 3

    def test_heterogeneous_rejected(self):
        with pytest.raises(ValueError):
            resolve_cluster({
                "machines": [{"hostname": "a", "gpus": [0]},
                             {"hostname": "b", "gpus": [0, 1]}],
            })

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            resolve_cluster(42)


class TestMeasureAlpha:
    def test_small_vocab_high_alpha(self):
        model = build_lm(batch_size=16, vocab_size=10, seq_len=4,
                         emb_dim=4, hidden=6, seed=0)
        with model.graph.as_default():
            gradients(model.loss)
        alphas = measure_alpha(model, num_batches=2)
        assert alphas["embedding"] > 0.5

    def test_large_vocab_low_alpha(self):
        model = build_lm(batch_size=4, vocab_size=500, seq_len=2,
                         emb_dim=4, hidden=6, seed=0)
        with model.graph.as_default():
            gradients(model.loss)
        alphas = measure_alpha(model, num_batches=2)
        assert alphas["embedding"] < 0.2

    def test_partition_shards_share_parent_alpha(self):
        model = build_lm(batch_size=8, vocab_size=20, seq_len=3,
                         emb_dim=4, hidden=6, num_partitions=3, seed=0)
        with model.graph.as_default():
            gradients(model.loss)
        alphas = measure_alpha(model, num_batches=2)
        shard_alphas = {v for k, v in alphas.items()
                        if k.startswith("embedding/")}
        assert len(shard_alphas) == 1  # merged to the parent value

    def test_dense_model_empty(self):
        model = build_resnet(batch_size=4, num_features=8, width=8,
                             num_blocks=1, seed=0)
        with model.graph.as_default():
            gradients(model.loss)
        assert measure_alpha(model, num_batches=2) == {}


class TestGetRunner:
    def test_runs_and_trains(self):
        runner = get_runner(lm_builder(), SMALL,
                            ParallaxConfig(search_partitions=False))
        losses = [runner.step(i).mean_loss for i in range(6)]
        assert losses[-1] < losses[0] + 0.05  # not diverging

    def test_partition_search_executes(self):
        cfg = ParallaxConfig(max_partitions=8)
        runner = get_runner(lm_builder(), SMALL, cfg)
        assert runner.partition_search is not None
        assert runner.partition_search.num_samples >= 2

    def test_small_vocab_sparse_as_dense(self):
        """With a tiny vocabulary, alpha ~ 1 and the hybrid plan should
        AllReduce the embedding rather than PS it."""
        cfg = ParallaxConfig(search_partitions=False,
                             sparse_as_dense_threshold=0.5)
        runner = get_runner(lm_builder(vocab=8, use_partitioner=False),
                            SMALL, cfg)
        assert "emb" in runner.transformed.replica_variables
        assert not runner.transformed.ps_placement

    def test_large_vocab_stays_ps(self):
        cfg = ParallaxConfig(search_partitions=False,
                             sparse_as_dense_threshold=0.5)
        runner = get_runner(lm_builder(vocab=500), SMALL, cfg)
        assert any(name.startswith("emb")
                   for name in runner.transformed.ps_placement)

    def test_ps_architecture_override(self):
        cfg = ParallaxConfig(architecture="ps", search_partitions=False)
        runner = get_runner(lm_builder(), SMALL, cfg)
        assert not runner.transformed.replica_variables

    def test_ar_architecture_override(self):
        cfg = ParallaxConfig(architecture="ar", search_partitions=False)
        runner = get_runner(lm_builder(), SMALL, cfg)
        assert not runner.transformed.ps_placement

    def test_builder_without_optimizer_rejected(self):
        def bad_builder():
            g = Graph()
            with g.as_default():
                v = layers.get_variable("v", (3,))
                loss = ops.mean(v.tensor)
            return BuiltModel(graph=g, loss=loss, placeholders={},
                              dataset=SyntheticTextDataset(size=4),
                              batch_size=1)

        with pytest.raises(ValueError, match="gradients"):
            get_runner(bad_builder, SMALL)

    def test_top_level_exports(self):
        assert parallax.get_runner is get_runner
        assert parallax.shard is shard
        assert hasattr(parallax, "partitioner")
        assert hasattr(parallax, "ParallaxConfig")


class TestConfigValidation:
    """Every ParallaxConfig knob rejects out-of-range values eagerly."""

    def test_nonpositive_max_partitions_rejected(self):
        with pytest.raises(ValueError, match="max_partitions"):
            ParallaxConfig(max_partitions=0)

    def test_nonpositive_fusion_buffer_rejected(self):
        with pytest.raises(ValueError, match="fusion_buffer_mb"):
            CommConfig(fusion_buffer_mb=0.0)
        with pytest.raises(ValueError, match="fusion_buffer_mb"):
            CommConfig(fusion_buffer_mb=-4.0)

    def test_boundary_values_accepted(self):
        ParallaxConfig(max_partitions=1,
                       comm=CommConfig(fusion_buffer_mb=0.5))

    def test_unknown_architecture_message_lists_options(self):
        with pytest.raises(ValueError) as err:
            ParallaxConfig(architecture="allgather")
        message = str(err.value)
        for option in ("hybrid", "ps", "opt_ps", "ar"):
            assert option in message

    def test_nonpositive_checkpoint_every_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            ElasticConfig(checkpoint_every=0)

    def test_fault_plan_without_elastic_rejected(self):
        from repro.cluster.faults import FaultPlan

        with pytest.raises(ValueError, match="elastic"):
            ElasticConfig(fault_plan=FaultPlan.kill(0, 0))
        ParallaxConfig(elastic=ElasticConfig(enabled=True,
                                             fault_plan=FaultPlan.kill(0, 0)))


class TestResolveClusterValidation:
    """Malformed machine lists fail with clear messages, not KeyError."""

    def test_empty_machine_list_rejected(self):
        with pytest.raises(ValueError, match="no machines"):
            resolve_cluster({"machines": []})

    def test_zero_gpu_machine_rejected(self):
        with pytest.raises(ValueError, match="'gpuless'.*no GPUs"):
            resolve_cluster({
                "machines": [{"hostname": "ok", "gpus": [0, 1]},
                             {"hostname": "gpuless", "gpus": []}],
            })

    def test_machine_entry_without_gpus_key_rejected(self):
        with pytest.raises(ValueError, match="'gpus'"):
            resolve_cluster({"machines": [{"hostname": "a"}]})

    def test_non_list_gpus_rejected(self):
        with pytest.raises(ValueError, match="'gpus' list"):
            resolve_cluster({"machines": [{"hostname": "a", "gpus": 2}]})

    def test_non_dict_machine_entry_rejected(self):
        with pytest.raises(ValueError, match="entry 0"):
            resolve_cluster({"machines": ["gpu0"]})

    def test_malformed_entry_message_names_its_index(self):
        with pytest.raises(ValueError, match="entry 2"):
            resolve_cluster({"machines": [
                {"hostname": "a", "gpus": [0]},
                {"hostname": "b", "gpus": [0]},
                {"hostname": "c", "gpus": "zero"},
            ]})

    def test_zero_gpu_machine_without_hostname_labelled_by_index(self):
        with pytest.raises(ValueError, match="machine 1"):
            resolve_cluster({"machines": [{"gpus": [0]}, {"gpus": []}]})

    def test_unequal_gpu_counts_message_lists_counts(self):
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            resolve_cluster({"machines": [
                {"hostname": "a", "gpus": [0]},
                {"hostname": "b", "gpus": [0, 1, 2]},
            ]})

    def test_non_resource_object_rejected_with_type_error(self):
        with pytest.raises(TypeError, match="resources"):
            resolve_cluster(42)


class TestRestoreBestEffort:
    """restore(strict=False) keeps the old best-effort semantics through
    the full get_runner pipeline (optimizer slots included)."""

    def make_runner(self, seed=0):
        return get_runner(lm_builder(), SMALL,
                          ParallaxConfig(search_partitions=False,
                                         sparse_as_dense_threshold=2.0,
                                         seed=seed))

    def test_disjoint_checkpoint_leaves_state_untouched(self, tmp_path):
        runner = self.make_runner()
        runner.step(0)
        before = {k: v.copy() for k, v in runner.logical_state().items()}
        path = str(tmp_path / "foreign.npz")
        np.savez(path, unrelated=np.zeros(3, dtype=np.float32))
        runner.restore(path, strict=False)
        after = runner.logical_state()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_partial_checkpoint_loads_only_matches(self, tmp_path):
        trained = self.make_runner()
        for i in range(2):
            trained.step(i)
        state = trained.logical_state()
        kept = sorted(state)[0]
        path = str(tmp_path / "partial.npz")
        np.savez(path, **{kept: state[kept]})
        fresh = self.make_runner(seed=9)
        untouched = sorted(set(state) - {kept})[0]
        before = fresh.logical_state()[untouched].copy()
        fresh.restore(path, strict=False)
        np.testing.assert_array_equal(fresh.logical_state()[kept],
                                      state[kept])
        np.testing.assert_array_equal(fresh.logical_state()[untouched],
                                      before)

    def test_strict_lists_both_directions_at_once(self, tmp_path):
        runner = self.make_runner()
        state = runner.logical_state()
        dropped = sorted(state)[0]
        del state[dropped]
        state["stray/extra"] = np.zeros(2, dtype=np.float32)
        path = str(tmp_path / "both.npz")
        np.savez(path, **state)
        with pytest.raises(ValueError) as err:
            self.make_runner(seed=3).restore(path)
        message = str(err.value)
        assert dropped in message and "stray/extra" in message
        assert "missing" in message and "unexpected" in message


class TestElasticConfig:
    def test_elastic_config_returns_elastic_runner(self):
        from repro.core.elastic import ElasticRunner

        runner = get_runner(lm_builder(), SMALL,
                            ParallaxConfig(
                                search_partitions=False,
                                sparse_as_dense_threshold=2.0,
                                elastic=ElasticConfig(enabled=True,
                                                      checkpoint_every=2)))
        assert isinstance(runner, ElasticRunner)
        assert runner.checkpoint_every == 2
        runner.step(0)
        runner.rescale(ClusterSpec(1, 2))
        assert runner.num_replicas == 2
        runner.step(1)

    def test_elastic_runner_can_reshard_through_user_builder(self):
        runner = get_runner(lm_builder(), SMALL,
                            ParallaxConfig(
                                search_partitions=False,
                                sparse_as_dense_threshold=2.0,
                                elastic=ElasticConfig(enabled=True)))
        runner.step(0)
        old = runner.num_partitions
        runner.rescale(ClusterSpec(1, 2), num_partitions=old + 1)
        assert runner.num_partitions == old + 1
        runner.step(1)

    def test_sparse_as_dense_override_follows_shards_across_reshard(self):
        """The measured alpha decision attaches to the parent variable:
        after a partition-count rescale every new shard must share the
        parent's classification, not just shards whose old names match."""
        from repro.cluster.plan import SyncMethod

        runner = get_runner(
            lm_builder(), SMALL,
            ParallaxConfig(search_partitions=False,
                           elastic=ElasticConfig(enabled=True),
                           sparse_as_dense_threshold=0.0))
        emb_methods = {name: m for name, m in runner.plan.methods.items()
                       if name.startswith("emb")}
        assert emb_methods
        assert set(emb_methods.values()) == {SyncMethod.ALLREDUCE}
        runner.rescale(ClusterSpec(1, 2),
                       num_partitions=len(emb_methods) + 1)
        new_emb = {name: m for name, m in runner.plan.methods.items()
                   if name.startswith("emb")}
        assert len(new_emb) == len(emb_methods) + 1
        assert set(new_emb.values()) == {SyncMethod.ALLREDUCE}


def _mark_grad_sparse(model, var_name):
    """Tamper a dense variable's gradient op to be statically classified
    sparse while its runtime value stays a dense ndarray -- the
    mismatch measure_alpha used to crash on."""
    grad_op = model.graph.get_op(model.graph.gradient_info[var_name])
    grad_op.attrs["is_sparse"] = True
    return model


class TestMeasureAlphaDenseAtRuntime:
    """A sparse-classified gradient that materializes dense is the
    strongest sparse-as-dense signal (alpha=1), not a TypeError."""

    def test_dense_at_runtime_measures_alpha_one(self):
        model = lm_builder()()
        model = _mark_grad_sparse(model, "w")
        alphas = measure_alpha(model, num_batches=2)
        assert alphas["w"] == 1.0
        assert alphas["emb"] < 1.0  # true sparse var still measured

    def test_get_runner_survives_and_allreduces_it(self):
        def builder():
            return _mark_grad_sparse(lm_builder()(), "w")

        runner = get_runner(builder, SMALL,
                            ParallaxConfig(search_partitions=False))
        from repro.cluster.plan import SyncMethod
        method = runner.transformed.plan.methods["w"]
        assert method is SyncMethod.ALLREDUCE
        losses = [runner.step(i).mean_loss for i in range(3)]
        assert np.isfinite(losses).all()


class TestBackendConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            CommConfig(backend="cloud")

    def test_plan_cache_size_validated(self):
        """No constructor on the way from the config to a session takes a
        plan-cache cap any more (the id predates the cap's removal)."""
        import inspect

        from repro.core.api import make_server
        from repro.core.elastic import ElasticRunner
        from repro.core.runner import DistributedRunner, DistributedSession
        from repro.graph.session import Session
        from repro.serve import InferenceEngine, InferenceServer

        with pytest.raises(TypeError, match="plan_cache_size"):
            ParallaxConfig(plan_cache_size=1)
        for api in (Session, DistributedSession, DistributedRunner,
                    ElasticRunner, InferenceEngine, InferenceServer,
                    make_server):
            assert "plan_cache_size" not in \
                inspect.signature(api).parameters, api

    def test_default_backend_is_inproc(self):
        cfg = ParallaxConfig()
        assert cfg.comm.backend == "inproc"

    def test_get_runner_threads_backend_through(self):
        cfg = ParallaxConfig(comm=CommConfig(backend="multiproc"),
                             search_partitions=False,
                             sparse_as_dense_threshold=2.0)
        runner = get_runner(lm_builder(), {"machines": 2,
                                           "gpus_per_machine": 1}, cfg)
        try:
            assert runner.backend_name == "multiproc"
            result = runner.step(0)
            assert len(result.replica_losses) == 2
        finally:
            runner.close()

    def test_get_runner_multiproc_matches_inproc(self):
        resources = {"machines": 2, "gpus_per_machine": 1}
        base = dict(search_partitions=False, sparse_as_dense_threshold=2.0,
                    seed=4)
        inproc = get_runner(lm_builder(), resources,
                            ParallaxConfig(**base))
        want = [inproc.step(i).replica_losses for i in range(2)]
        multiproc = get_runner(
            lm_builder(), resources,
            ParallaxConfig(comm=CommConfig(backend="multiproc"), **base))
        try:
            got = [multiproc.step(i).replica_losses for i in range(2)]
        finally:
            multiproc.close()
        assert got == want
