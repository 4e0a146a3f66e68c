"""Chaos/differential suite for the elastic cluster runtime.

The contract under test: rescaling N->M replicas migrates logical state
bit-exactly (including re-sharding partitioned sparse variables), the
post-rescale trajectory is bit-identical to a fresh M-replica runner
restored from the same state, and a run with scheduled worker kills that
recovers from its last checkpoint converges to exactly the fault-free
losses.  A :class:`FaultPlan` schedules worker kills only.
"""

import numpy as np
import pytest

from repro.cluster.faults import FaultPlan, WorkerFailure, WorkerFailureError
from repro.cluster.spec import ClusterSpec
from repro.core.elastic import (
    ElasticRunner,
    partition_layout,
    replicated_slot_suffixes,
    reshard_logical_state,
)
from repro.core.partition_context import (
    installed_partitions,
    sampling_partitions,
)
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph.executor import CompiledPlan
from repro.graph.gradients import gradients
from repro.nn.models import build_inception, build_lm, build_nmt, build_resnet
from repro.nn.optimizers import (
    AdamOptimizer,
    GradientDescentOptimizer,
    MomentumOptimizer,
)

SEED = 11
LR = 0.4
C4 = ClusterSpec(num_machines=2, gpus_per_machine=2)
C2 = ClusterSpec(num_machines=1, gpus_per_machine=2)

PLAN_BUILDERS = {
    "hybrid": hybrid_graph_plan,
    "ps": lambda g: graph_plan(g, "opt_ps"),
    "ar": ar_graph_plan,
}


def _finish(model, optimizer=None):
    with model.graph.as_default():
        gvs = gradients(model.loss)
        (optimizer or GradientDescentOptimizer(LR)).update(gvs)
    return model


def lm_builder(optimizer=None):
    def build():
        model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                         hidden=10,
                         num_partitions=installed_partitions() or 3, seed=0)
        return _finish(model, optimizer() if optimizer else None)

    return build


MODEL_BUILDERS = {
    "lm": lm_builder(),
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


def make_elastic(model_key="lm", plan_key="hybrid", cluster=C4, **kwargs):
    builder = MODEL_BUILDERS[model_key]
    model = builder()
    return ElasticRunner(model, cluster, PLAN_BUILDERS[plan_key](model.graph),
                         seed=SEED, **kwargs)


def losses(results):
    return [r.replica_losses for r in results]


# ======================================================================
# Rescale correctness
# ======================================================================
class TestRescaleStatePreservation:
    @pytest.mark.parametrize("plan_key", list(PLAN_BUILDERS))
    def test_rescale_down_preserves_logical_state_bitwise(self, plan_key):
        runner = make_elastic(plan_key=plan_key)
        for i in range(3):
            runner.step(i)
        before = {k: v.copy() for k, v in runner.logical_state().items()}
        runner.rescale(C2)
        assert runner.num_replicas == 2
        after = runner.logical_state()
        assert set(before) == set(after)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name],
                                          err_msg=name)

    @pytest.mark.parametrize("plan_key", list(PLAN_BUILDERS))
    def test_rescale_up_preserves_logical_state_bitwise(self, plan_key):
        runner = make_elastic(plan_key=plan_key, cluster=C2)
        for i in range(3):
            runner.step(i)
        before = {k: v.copy() for k, v in runner.logical_state().items()}
        runner.rescale(C4)
        assert runner.num_replicas == 4
        after = runner.logical_state()
        assert set(before) == set(after)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name],
                                          err_msg=name)

    def test_rescale_recompiles_step_plans(self):
        runner = make_elastic()
        before = CompiledPlan.compiled_total
        runner.rescale(C2)
        assert CompiledPlan.compiled_total > before
        note = runner.transcript.events("elastic/rescale")[-1]
        assert note.get("plans_compiled") >= 1
        assert note.get("old_replicas") == 4
        assert note.get("new_replicas") == 2

    def test_rescale_replaces_ps_placement_for_new_machine_count(self):
        runner = make_elastic(cluster=C4)
        assert set(runner.transformed.ps_placement.values()) <= {0, 1}
        runner.rescale(C2)
        # One machine left: every PS variable must live on it.
        assert set(runner.transformed.ps_placement.values()) == {0}

    def test_all_replicas_receive_migrated_state(self):
        runner = make_elastic(cluster=C2)
        for i in range(2):
            runner.step(i)
        runner.rescale(C4)
        for name in runner.transformed.replica_variables:
            base = runner.replica_variable(0, name)
            for r in range(1, runner.num_replicas):
                np.testing.assert_array_equal(
                    base, runner.replica_variable(r, name),
                    err_msg=f"replica {r} missed migration of {name}")


class TestRescaleDifferential:
    """Post-rescale training == a from-scratch runner at the target size
    restored with the same state and fed the same batches."""

    @pytest.mark.parametrize("plan_key", list(PLAN_BUILDERS))
    def test_post_rescale_matches_fresh_runner(self, plan_key):
        runner = make_elastic(plan_key=plan_key)
        for i in range(2):
            runner.step(i)
        state = {k: v.copy() for k, v in runner.logical_state().items()}
        runner.rescale(C2)

        model = MODEL_BUILDERS["lm"]()
        fresh = DistributedRunner(model, C2,
                                  PLAN_BUILDERS[plan_key](model.graph),
                                  seed=SEED + 123)
        fresh._load_state(state)
        for i in range(2, 5):
            got = runner.step(i)
            want = fresh.step(i)
            assert got.replica_losses == want.replica_losses, (plan_key, i)

    @pytest.mark.parametrize("model_key", list(MODEL_BUILDERS))
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_rescale_matches_uninterrupted_target_run(self, model_key,
                                                      direction):
        """Acceptance: for each model arch, rescale 4->2 and 2->4
        mid-training reaches bit-identically the final loss of an
        uninterrupted run at the target size with identical feeds."""
        start, target = (C4, C2) if direction == "down" else (C2, C4)
        model = MODEL_BUILDERS[model_key]()
        runner = ElasticRunner(model, start, hybrid_graph_plan(model.graph),
                               seed=SEED)
        for i in range(2):
            runner.step(i)
        state = {k: v.copy() for k, v in runner.logical_state().items()}
        runner.rescale(target)
        final = [runner.step(i).replica_losses for i in range(2, 5)]

        ref_model = MODEL_BUILDERS[model_key]()
        reference = DistributedRunner(ref_model, target,
                                      hybrid_graph_plan(ref_model.graph),
                                      seed=SEED + 7)
        reference._load_state(state)
        expected = [reference.step(i).replica_losses for i in range(2, 5)]
        assert final == expected

    @pytest.mark.parametrize("backend", ["inproc", "multiproc"])
    def test_round_trip_2_3_2_matches_cold_restart(self, backend):
        """2 -> 3 -> 2 workers while the embedding re-shards 2 -> 3 -> 2
        partitions: the steps after the round trip equal a cold runner
        at the final size loaded with the resharded snapshot, and each
        rescale notes its wall time."""
        c2, c3 = ClusterSpec(1, 2), ClusterSpec(1, 3)
        builder = lm_builder()
        with sampling_partitions(2):
            model = builder()
        runner = ElasticRunner(model, c2, hybrid_graph_plan(model.graph),
                               seed=SEED, model_builder=builder,
                               plan_builder=hybrid_graph_plan,
                               backend=backend)
        try:
            for i in range(2):
                runner.step(i)
            runner.rescale(c3, num_partitions=3)
            runner.step(2)
            snapshot = {k: v.copy()
                        for k, v in runner.logical_state().items()}
            layout = partition_layout(runner.model.graph)
            runner.rescale(c2, num_partitions=2)
            got = [runner.step(i).replica_losses for i in range(3, 6)]
            notes = runner.transcript.events("elastic/rescale")
        finally:
            runner.close()

        with sampling_partitions(2):
            cold_model = builder()
        cold = DistributedRunner(cold_model, c2,
                                 hybrid_graph_plan(cold_model.graph),
                                 seed=SEED + 9)
        cold._load_state(reshard_logical_state(
            snapshot, layout, partition_layout(cold_model.graph)))
        assert got == [cold.step(i).replica_losses for i in range(3, 6)]
        assert [(n.get("new_replicas"), n.get("num_partitions"))
                for n in notes] == [(3, 3), (2, 2)]
        assert all(n.get("wall_time") > 0.0 for n in notes)

    def test_save_restore_interoperates_with_rescale(self, tmp_path):
        """A checkpoint written before a rescale restores into a runner
        built directly at the new size -- same bits either way."""
        runner = make_elastic()
        for i in range(2):
            runner.step(i)
        path = str(tmp_path / "ckpt.npz")
        runner.save(path)
        runner.rescale(C2)

        model = MODEL_BUILDERS["lm"]()
        restored = DistributedRunner(model, C2,
                                     hybrid_graph_plan(model.graph),
                                     seed=SEED + 5)
        restored.restore(path)
        for name in runner.transformed.plan.methods:
            np.testing.assert_array_equal(runner.variable_value(name),
                                          restored.variable_value(name))


class TestReshardingRescale:
    def elastic_with_builder(self, optimizer=None):
        builder = lm_builder(optimizer)
        model = builder()
        return ElasticRunner(model, C4, hybrid_graph_plan(model.graph),
                             seed=SEED, model_builder=builder,
                             plan_builder=hybrid_graph_plan)

    def test_reshard_conserves_embedding_bits(self):
        runner = self.elastic_with_builder()
        for i in range(3):
            runner.step(i)
        pre = runner.logical_state()
        merged_pre = np.concatenate(
            [pre[f"embedding/part_{p}"] for p in range(3)])
        runner.rescale(C2, num_partitions=4)
        assert runner.num_partitions == 4
        post = runner.logical_state()
        merged_post = np.concatenate(
            [post[f"embedding/part_{p}"] for p in range(4)])
        np.testing.assert_array_equal(merged_pre, merged_post)

    def test_resharded_training_matches_fresh_runner_at_new_count(self):
        runner = self.elastic_with_builder()
        for i in range(2):
            runner.step(i)
        state = {k: v.copy() for k, v in runner.logical_state().items()}
        runner.rescale(C2, num_partitions=4)

        with sampling_partitions(4):
            model = lm_builder()()
        fresh = DistributedRunner(model, C2, hybrid_graph_plan(model.graph),
                                  seed=SEED + 3)
        fresh._load_state(
            reshard_logical_state(state, {"embedding": [0, 14, 27, 40]},
                                  partition_layout(model.graph)))
        for i in range(2, 5):
            assert (runner.step(i).replica_losses
                    == fresh.step(i).replica_losses), i

    def test_momentum_slots_reshard_with_their_variable(self):
        runner = self.elastic_with_builder(
            optimizer=lambda: MomentumOptimizer(0.2, 0.9))
        for i in range(3):
            runner.step(i)
        pre = runner.logical_state()
        merged_pre = np.concatenate(
            [pre[f"embedding/part_{p}/velocity"] for p in range(3)])
        runner.rescale(C4, num_partitions=2)
        post = runner.logical_state()
        merged_post = np.concatenate(
            [post[f"embedding/part_{p}/velocity"] for p in range(2)])
        np.testing.assert_array_equal(merged_pre, merged_post)

    def test_adam_step_counter_replicates_across_new_shards(self):
        runner = self.elastic_with_builder(
            optimizer=lambda: AdamOptimizer(0.01))
        for i in range(3):
            runner.step(i)
        step_value = runner.logical_state()["embedding/part_0/adam_step"]
        runner.rescale(C4, num_partitions=4)
        post = runner.logical_state()
        for p in range(4):
            np.testing.assert_array_equal(
                post[f"embedding/part_{p}/adam_step"], step_value)
        runner.step(3)  # training still healthy after the re-shard

    def test_partition_change_without_builder_rejected(self):
        runner = make_elastic()
        with pytest.raises(ValueError, match="model_builder"):
            runner.rescale(C2, num_partitions=4)

    def test_failed_rescale_rolls_back_atomically(self):
        """A state dict that does not match the target graph must leave
        the runner exactly as it was -- same cluster, same values, still
        trainable bit-identically."""
        runner = make_elastic()
        twin = make_elastic()
        runner.step(0)
        twin.step(0)
        bogus = {"not/a/real/variable": np.zeros(2, np.float32)}
        with pytest.raises(ValueError, match="mismatched names"):
            runner.rescale(C2, state=bogus)
        assert runner.num_replicas == 4
        assert runner.cluster == C4
        for i in range(1, 3):
            assert (runner.step(i).replica_losses
                    == twin.step(i).replica_losses), i

    def test_builder_without_plan_builder_rejected(self):
        model = MODEL_BUILDERS["lm"]()
        with pytest.raises(ValueError, match="plan_builder"):
            ElasticRunner(model, C4, hybrid_graph_plan(model.graph),
                          model_builder=lm_builder())

    def test_rescale_keeps_verifying_plans(self, monkeypatch):
        """``verify_plans=True`` survives the rescale's re-``__init__``,
        committed or rolled back.  The suite-wide REPRO_VERIFY_PLANS
        would mask a dropped argument, so it is unset here."""
        import repro.analysis as analysis

        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        real, verified = analysis.verify_plan, []

        def spy(transformed, *args, **kwargs):
            verified.append(transformed.num_replicas)
            return real(transformed, *args, **kwargs)

        monkeypatch.setattr(analysis, "verify_plan", spy)
        make_elastic().rescale(C2)  # nobody asked: nothing verified
        assert verified == []
        runner = make_elastic(verify_plans=True)
        assert verified == [4]
        runner.rescale(C2)
        assert verified == [4, 2]
        assert runner.verify_plans is True
        bogus = {"not/a/real/variable": np.zeros(2, np.float32)}
        with pytest.raises(ValueError, match="mismatched names"):
            runner.rescale(C4, state=bogus)
        assert verified == [4, 2, 4]
        assert runner.verify_plans is True
        assert runner.num_replicas == 2


class TestRollbackBitIdentity:
    """A rescale that fails after the new session and backend exist
    leaves no trace: the runner's logical state and its subsequent
    trajectory are identical to a twin that never tried."""

    def twins(self):
        return make_elastic(cluster=C4), make_elastic(cluster=C4)

    def test_midflight_failure_rolls_back_bit_exactly(self):
        runner, twin = self.twins()
        for i in range(3):
            runner.step(i)
            twin.step(i)
        backend_before = runner.backend
        state_before = {k: v.copy()
                        for k, v in runner.logical_state().items()}

        def boom(state):
            raise RuntimeError("synthetic load failure")

        # Fail *after* the new session/backend exist, so the except
        # path has real work to undo.
        runner._load_state = boom
        try:
            with pytest.raises(RuntimeError, match="synthetic"):
                runner.rescale(ClusterSpec(1, 2))
        finally:
            del runner.__dict__["_load_state"]
        assert runner.backend is backend_before
        assert runner.num_replicas == 4
        after = runner.logical_state()
        assert set(after) == set(state_before)
        for name in after:
            np.testing.assert_array_equal(after[name], state_before[name],
                                          err_msg=name)
        self.assert_trajectories_match(runner, twin)

    def assert_trajectories_match(self, runner, twin):
        for i in range(3, 6):
            a = runner.step(i)
            b = twin.step(i)
            np.testing.assert_array_equal(
                np.asarray(a.replica_losses), np.asarray(b.replica_losses),
                err_msg=f"trajectories diverged at step {i}")


# ======================================================================
# Fault injection and recovery
# ======================================================================
class TestFaultInjection:
    def test_scheduled_kill_raises_and_notes_transcript(self):
        runner = make_elastic(
            fault_plan=FaultPlan.kill(worker=1, at_iteration=2))
        runner.step(0)
        runner.step(1)
        with pytest.raises(WorkerFailureError) as err:
            runner.step(2)
        assert err.value.worker == 1
        assert err.value.iteration == 2
        notes = runner.transcript.events("fault/worker_kill")
        assert len(notes) == 1
        assert notes[0].get("worker") == 1

    def test_fault_fires_exactly_once(self):
        runner = make_elastic(
            fault_plan=FaultPlan.kill(worker=0, at_iteration=1))
        runner.step(0)
        with pytest.raises(WorkerFailureError):
            runner.step(1)
        runner.step(1)  # replay passes: the event is spent

    def test_out_of_range_worker_never_fires(self):
        runner = make_elastic(
            fault_plan=FaultPlan.kill(worker=99, at_iteration=0))
        runner.step(0)
        assert runner.transcript.events("fault/") == []


class TestRecovery:
    def run_pair(self, fault_plan, checkpoint_every=2, iters=6, **kwargs):
        clean = make_elastic(checkpoint_every=checkpoint_every)
        faulted = make_elastic(checkpoint_every=checkpoint_every,
                               fault_plan=fault_plan)
        return (clean.run_elastic(iters, **kwargs),
                faulted.run_elastic(iters, **kwargs), faulted)

    def test_recovered_run_reaches_fault_free_losses(self):
        clean, faulted, runner = self.run_pair(
            FaultPlan.kill(worker=1, at_iteration=3))
        assert losses(clean) == losses(faulted)
        recoveries = runner.transcript.events("elastic/recovery")
        assert len(recoveries) == 1
        entry = recoveries[0]
        assert entry.get("action") == "restore"
        assert entry.get("lost_iterations") == 1

    def test_multiple_failures_all_recovered(self):
        plan = FaultPlan(failures=(WorkerFailure(1, 0), WorkerFailure(4, 3)))
        clean, faulted, runner = self.run_pair(plan, iters=6)
        assert losses(clean) == losses(faulted)
        assert len(runner.transcript.events("elastic/recovery")) == 2

    def test_fault_at_checkpoint_boundary_loses_nothing(self):
        clean, faulted, runner = self.run_pair(
            FaultPlan.kill(worker=2, at_iteration=4), checkpoint_every=2)
        assert losses(clean) == losses(faulted)
        recovery = runner.transcript.events("elastic/recovery")[0]
        assert recovery.get("lost_iterations") == 0

    def test_recovery_is_deterministic(self):
        plan = FaultPlan.kill(worker=1, at_iteration=3)
        _, first, _ = self.run_pair(plan)
        _, second, _ = self.run_pair(plan)
        assert losses(first) == losses(second)

    def test_shrink_recovery_continues_on_smaller_cluster(self):
        plan = FaultPlan.kill(worker=1, at_iteration=3)
        runner = make_elastic(checkpoint_every=2, fault_plan=plan)
        results = runner.run_elastic(6, shrink_on_failure=True)
        assert runner.num_replicas == 2
        assert runner.cluster.num_machines == 1
        assert len(results) == 6
        assert all(np.isfinite(r.mean_loss) for r in results)
        recovery = runner.transcript.events("elastic/recovery")[0]
        assert recovery.get("action") == "shrink"
        # Post-shrink iterations match a fresh shrunken runner restored
        # from the same checkpoint (the differential recovery contract):
        # the kill at iteration 3 rolls back to the iteration-2 snapshot.
        clean = make_elastic(checkpoint_every=2)
        clean.run_elastic(2)
        ck_model = MODEL_BUILDERS["lm"]()
        fresh = DistributedRunner(ck_model, C2,
                                  hybrid_graph_plan(ck_model.graph),
                                  seed=SEED + 17)
        fresh._load_state(clean.logical_state())
        expected = [fresh.step(i).replica_losses for i in range(2, 6)]
        assert losses(results)[2:] == expected

    def test_run_elastic_without_faults_matches_plain_run(self):
        elastic = make_elastic(checkpoint_every=2)
        plain_model = MODEL_BUILDERS["lm"]()
        plain = DistributedRunner(plain_model, C4,
                                  hybrid_graph_plan(plain_model.graph),
                                  seed=SEED)
        got = elastic.run_elastic(5)
        want = plain.run(5)
        assert losses(got) == losses(want)

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_elastic(checkpoint_every=0)


# ======================================================================
# Fault plan validation
# ======================================================================
class TestFaultPlanValidation:
    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            WorkerFailure(-1, 0)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.kill(0, 0)


# ======================================================================
# reshard_logical_state unit behaviour
# ======================================================================
class TestReshardLogicalState:
    def test_mismatched_parents_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            reshard_logical_state({}, {"a": [0, 2]}, {"b": [0, 2]})

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            reshard_logical_state({}, {"a": [0, 4]}, {"a": [0, 2]})

    def test_missing_shard_rejected(self):
        state = {"a/part_0": np.zeros((2, 3), np.float32)}
        with pytest.raises(ValueError, match="missing"):
            reshard_logical_state(state, {"a": [0, 2, 4]}, {"a": [0, 4]})

    def test_disagreeing_non_row_slot_rejected(self):
        state = {
            "a/part_0": np.zeros((2, 3), np.float32),
            "a/part_1": np.zeros((2, 3), np.float32),
            "a/part_0/adam_step": np.array([1.0], np.float32),
            "a/part_1/adam_step": np.array([2.0], np.float32),
        }
        with pytest.raises(ValueError, match="disagree"):
            reshard_logical_state(state, {"a": [0, 2, 4]}, {"a": [0, 4]})

    def test_replicated_suffixes_derived_structurally_from_graph(self):
        builder = lm_builder(optimizer=lambda: AdamOptimizer(0.01))
        model = builder()
        layout = partition_layout(model.graph)
        suffixes = replicated_slot_suffixes(model.graph, layout)
        assert suffixes == {"embedding": {"adam_step"}}

    def test_explicit_replicated_map_overrides_shape_heuristic(self):
        # A 1-row-per-shard layout where a (1,)-shaped slot is shape-
        # ambiguous: the structural map says "replicate", so it must not
        # be split even though its leading dim matches the shard rows.
        state = {
            "a/part_0": np.array([1.0], np.float32),
            "a/part_1": np.array([2.0], np.float32),
            "a/part_0/counter": np.array([7.0], np.float32),
            "a/part_1/counter": np.array([7.0], np.float32),
        }
        out = reshard_logical_state(state, {"a": [0, 1, 2]}, {"a": [0, 2]},
                                    replicated={"a": {"counter"}})
        np.testing.assert_array_equal(out["a/part_0"], [1.0, 2.0])
        np.testing.assert_array_equal(out["a/part_0/counter"], [7.0])

    def test_scalar_slot_survives_heuristic_path(self):
        state = {
            "a/part_0": np.zeros((2, 3), np.float32),
            "a/part_1": np.zeros((2, 3), np.float32),
            "a/part_0/beta": np.float32(0.5),
            "a/part_1/beta": np.float32(0.5),
        }
        out = reshard_logical_state(state, {"a": [0, 2, 4]}, {"a": [0, 4]})
        np.testing.assert_array_equal(out["a/part_0/beta"], 0.5)

    def test_unpartitioned_names_pass_through_untouched(self):
        dense = np.arange(6, dtype=np.float32).reshape(2, 3)
        state = {
            "w": dense,
            "a/part_0": np.zeros((2, 3), np.float32),
            "a/part_1": np.ones((2, 3), np.float32),
        }
        out = reshard_logical_state(state, {"a": [0, 2, 4]},
                                    {"a": [0, 1, 2, 3, 4]})
        assert out["w"] is dense
        assert sorted(k for k in out if k.startswith("a/")) == [
            f"a/part_{p}" for p in range(4)
        ]


class TestMultiprocRescale:
    """The 4<->2 rescale bit-identity contract under the multiprocess
    execution backend: worker processes are respawned for the new
    replica count and the post-rescale trajectory matches an
    uninterrupted in-process run at the target size."""

    @pytest.mark.parametrize("plan_key", list(PLAN_BUILDERS))
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_rescale_matches_uninterrupted_inproc_run(self, plan_key,
                                                      direction):
        start, target = (C4, C2) if direction == "down" else (C2, C4)
        runner = make_elastic(plan_key=plan_key, cluster=start,
                              backend="multiproc")
        try:
            for i in range(2):
                runner.step(i)
            state = {k: v.copy() for k, v in runner.logical_state().items()}
            old_processes = list(runner.backend.processes)
            runner.rescale(target)
            # Rescale respawned the worker fleet for the new size.
            assert all(not p.is_alive() for p in old_processes)
            assert len(runner.backend.processes) == target.total_gpus
            final = [runner.step(i).replica_losses for i in range(2, 5)]
        finally:
            runner.close()

        model = MODEL_BUILDERS["lm"]()
        reference = DistributedRunner(model, target,
                                      PLAN_BUILDERS[plan_key](model.graph),
                                      seed=SEED + 7)
        reference._load_state(state)
        expected = [reference.step(i).replica_losses for i in range(2, 5)]
        assert final == expected, (plan_key, direction)

    def test_failed_rescale_keeps_multiproc_workers_alive(self):
        """Atomicity with processes: a rejected migration leaves the old
        worker fleet running and training still bit-correct."""
        runner = make_elastic(backend="multiproc")
        try:
            runner.step(0)
            want = make_elastic()  # inproc twin
            want.step(0)
            state = runner.logical_state()
            state["not/a/real/variable"] = np.zeros(1)
            with pytest.raises(ValueError, match="mismatched names"):
                runner.rescale(C2, state=state)
            assert all(p.is_alive() for p in runner.backend.processes)
            assert (runner.step(1).replica_losses
                    == want.step(1).replica_losses)
        finally:
            runner.close()

    def test_run_elastic_recovers_under_multiproc(self):
        """Fault recovery (restore-and-replay) reaches the fault-free
        losses with worker processes doing the execution."""
        fault_plan = FaultPlan(failures=(WorkerFailure(2, worker=1),))
        clean = make_elastic(checkpoint_every=1)
        want = [r.replica_losses for r in clean.run_elastic(4)]
        faulted = make_elastic(checkpoint_every=1, fault_plan=fault_plan,
                               backend="multiproc")
        try:
            got = [r.replica_losses for r in faulted.run_elastic(4)]
        finally:
            faulted.close()
        assert got == want
        assert len(faulted.transcript.events("elastic/recovery")) == 1

    def test_rescale_preserves_configured_backend_instance(self):
        """A backend instance with custom configuration survives a
        rescale: the respawned fleet is built from backend.fresh(),
        not from a default-constructed registry entry."""
        from repro.core.backend import MultiprocBackend

        backend = MultiprocBackend(start_timeout=90.0, step_timeout=45.0)
        runner = make_elastic(backend=backend)
        try:
            runner.step(0)
            runner.rescale(C2)
            assert runner.backend is not backend
            assert isinstance(runner.backend, MultiprocBackend)
            assert runner.backend.start_timeout == 90.0
            assert runner.backend.step_timeout == 45.0
            runner.step(1)
        finally:
            runner.close()
