"""The Transcript ``Note``/``events()`` plane.

Covers the satellite contract: notes survive rescales, fused buckets
plus elastic recovery record the expected event sequence on the shared
timeline, and per-worker transcripts merge deterministically.
"""


from repro.cluster.faults import FaultPlan, WorkerFailure
from repro.cluster.spec import ClusterSpec
from repro.comm.transcript import Note, Transcript, merge_transcripts
from repro.core.elastic import ElasticRunner
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import hybrid_graph_plan
from repro.graph.gradients import gradients
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer

SEED = 5
C4 = ClusterSpec(num_machines=2, gpus_per_machine=2)
C2 = ClusterSpec(num_machines=1, gpus_per_machine=2)
C2x1 = ClusterSpec(num_machines=2, gpus_per_machine=1)


def make_model():
    model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                     hidden=10, num_partitions=3, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.4).update(gvs)
    return model


def make_elastic(cluster=C4, **kwargs):
    model = make_model()
    plan = hybrid_graph_plan(model.graph)
    return ElasticRunner(model, cluster, plan, seed=SEED, **kwargs)


class TestNotePlane:
    def test_note_round_trip_and_get_default(self):
        t = Transcript()
        t.note("custom/tag", iteration=7, worker=1, why="test")
        (event,) = t.events()
        assert event.tag == "custom/tag"
        assert event.iteration == 7
        assert event.get("worker") == 1
        assert event.get("missing", "fallback") == "fallback"

    def test_events_prefix_filter(self):
        t = Transcript()
        t.note("fault/worker_kill", iteration=1, worker=0)
        t.note("elastic/rescale", iteration=2)
        assert [e.tag for e in t.events("fault/")] == ["fault/worker_kill"]
        assert len(t.events()) == 2

    def test_notes_are_hashable_and_comparable(self):
        a = Note("x", 1, (("k", 2),))
        b = Note("x", 1, (("k", 2),))
        assert a == b and len({a, b}) == 1

    def test_clear_drops_events(self):
        t = Transcript()
        t.note("x", iteration=0)
        t.clear()
        assert t.events() == []


class TestNotesSurviveRescale:
    def test_pre_rescale_notes_survive_and_rescale_appends(self):
        runner = make_elastic()
        runner.transcript.note("custom/marker", iteration=0, payload=42)
        runner.step(0)
        runner.rescale(C2)
        tags = [e.tag for e in runner.transcript.events()]
        assert "custom/marker" in tags
        assert tags[-1] == "elastic/rescale"
        rescale = runner.transcript.events("elastic/rescale")[-1]
        assert rescale.get("old_replicas") == 4
        assert rescale.get("new_replicas") == 2
        assert rescale.get("wall_time") > 0

    def test_notes_survive_multiproc_rescale(self):
        runner = make_elastic(backend="multiproc")
        try:
            runner.transcript.note("custom/marker", iteration=0)
            runner.step(0)
            runner.rescale(C2)
            runner.step(1)
            tags = [e.tag for e in runner.transcript.events()]
            assert "custom/marker" in tags
            assert "elastic/rescale" in tags
        finally:
            runner.close()


class TestFusedRecoveryEventSequence:
    def test_kill_then_recovery_sequence_with_fused_buckets(self):
        """A fused run through a worker kill records exactly the expected
        event order -- kill first, recovery next -- on the same timeline
        as the fused collective's transfers."""
        fault_plan = FaultPlan(failures=(WorkerFailure(2, worker=1),))
        runner = make_elastic(fault_plan=fault_plan,
                              checkpoint_every=1)
        results = runner.run_elastic(4)
        assert len(results) == 4

        events = runner.transcript.events()
        tags = [e.tag for e in events]
        assert tags == ["fault/worker_kill", "elastic/recovery"]
        kill, recovery = events
        assert kill.iteration == 2 and kill.get("worker") == 1
        assert recovery.iteration == 2
        assert recovery.get("action") == "restore"
        assert recovery.get("lost_iterations") == 0

        # Fused buckets really ran: packed collectives in the byte plane.
        fused = runner.transcript.filter("allreduce/fused/",
                                         network_only=False)
        assert fused, "expected fused bucket transfers alongside the events"

    def test_shrink_recovery_emits_rescale_between_kill_and_recovery(self):
        fault_plan = FaultPlan(failures=(WorkerFailure(1, worker=0),))
        runner = make_elastic(fault_plan=fault_plan,
                              checkpoint_every=1)
        runner.run_elastic(3, shrink_on_failure=True)
        tags = [e.tag for e in runner.transcript.events()]
        assert tags == ["fault/worker_kill", "elastic/rescale",
                        "elastic/recovery"]
        assert runner.transcript.events("elastic/recovery")[0].get(
            "action") == "shrink"

    def test_fault_free_fused_run_has_no_events(self):
        runner = make_elastic()
        runner.run_elastic(3)
        assert runner.transcript.events() == []


class TestPerWorkerMerge:
    def test_merge_is_pure_function_of_inputs(self):
        def part(rank):
            t = Transcript()
            t.record(f"allreduce/g{rank}", rank, (rank + 1) % 2, 64,
                     stage=rank)
            t.note("worker/mark", iteration=rank, rank=rank)
            return t

        parts = [part(0), part(1)]
        first = merge_transcripts(parts)
        second = merge_transcripts(parts)
        assert first.transfers == second.transfers
        assert first.events() == second.events()
        # Rank-major order, internal order preserved.
        assert [e.get("rank") for e in first.events()] == [0, 1]

    def test_multiproc_merge_is_reproducible_across_runs(self):
        """Two identical multiproc runs merge to identical transcripts --
        worker deltas arrive in rank order, not arrival order."""

        def one_run():
            model = make_model()
            runner = DistributedRunner(
                model, C2x1, hybrid_graph_plan(model.graph),
                seed=SEED, backend="multiproc")
            try:
                runner.step(0)
                return runner.transcript.transfers
            finally:
                runner.close()

        assert one_run() == one_run()

    def test_multiproc_merge_matches_inproc_aggregates(self):
        model = make_model()
        inproc = DistributedRunner(
            model, C2x1, hybrid_graph_plan(model.graph),
            seed=SEED)
        inproc.step(0)
        model2 = make_model()
        multiproc = DistributedRunner(
            model2, C2x1, hybrid_graph_plan(model2.graph),
            seed=SEED, backend="multiproc")
        try:
            multiproc.step(0)
            for prefix in (None, "allreduce", "edge/"):
                assert (multiproc.transcript.total_network_bytes(prefix)
                        == inproc.transcript.total_network_bytes(prefix))
            assert multiproc.transcript.transfers, "expected transfers"
        finally:
            multiproc.close()
