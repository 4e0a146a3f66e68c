"""Static plan verifier: mutation regressions, matrix coverage, lint.

The analyses must hold two properties at once: *zero false positives*
on every plan the transform actually emits (the matrix tests), and
*guaranteed detection* of the bug classes they claim to catch (the
mutation tests, which corrupt a real schedule or buffer plan and assert
the specific diagnostic -- naming ranks and schedule positions -- comes
back).
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import AnalysisReport, Finding, PlanVerificationError, verify_plan
from repro.analysis.accounting import analyze_accounting
from repro.analysis.alias import audit_buffer_plan
from repro.analysis.congruence import COLLECTIVE_TYPES, analyze_congruence
from repro.analysis.deadlock import analyze_deadlock, check_entries
from repro.analysis.lint import lint_paths
from repro.analysis.lint import main as lint_main
from repro.analysis.verifier import default_fetch_ops
from repro.cli import _matrix_models, _matrix_plans
from repro.cluster.faults import WorkerFailureError
from repro.cluster.spec import ClusterSpec
from repro.core.backend import MultiprocBackend, build_all_worker_entries
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import ar_graph_plan, hybrid_graph_plan
from repro.core.transform.transform import transform_graph
from repro.graph import Graph, ops
from repro.graph.executor import CompiledPlan
from repro.graph.gradients import gradients
from repro.graph.variables import Variable
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer

C2x1 = ClusterSpec(num_machines=2, gpus_per_machine=1)
C2x2 = ClusterSpec(num_machines=2, gpus_per_machine=2)


def make_model():
    model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                     hidden=10, num_partitions=3, seed=0)
    with model.graph.as_default():
        GradientDescentOptimizer(0.4).update(gradients(model.loss))
    return model


def make_transformed(plan_builder=None, cluster=C2x2):
    model = make_model()
    plan = (plan_builder or hybrid_graph_plan)(model.graph)
    transformed = transform_graph(model.graph, model.loss, cluster, plan,
                                  verify=False)
    return transformed, default_fetch_ops(transformed)


def collective_ops(transformed, fetch_ops):
    from repro.graph.executor import plan_order

    return [op for op in plan_order(transformed.graph, fetch_ops)
            if op.op_type in COLLECTIVE_TYPES]


# ======================================================================
# Deadlock / matching analysis: mutation regressions
# ======================================================================
class TestDeadlockMutations:
    @pytest.fixture()
    def entries(self):
        transformed, fetch_ops = make_transformed()
        return build_all_worker_entries(transformed, fetch_ops)

    def test_clean_partition_passes(self, entries):
        findings, stats = check_entries(entries)
        assert findings == []
        assert stats["ranks"] == 4
        assert stats["messages"] > 0

    def _first_recv(self, entries):
        for rank in sorted(entries):
            for idx, entry in enumerate(entries[rank]):
                if entry[0] == "recv":
                    return rank, idx, entry
        pytest.fail("partition has no recv entries")

    def test_dropped_recv_is_reported_as_unmatched_send(self, entries):
        rank, idx, (_, name, src) = self._first_recv(entries)
        entries[rank] = (entries[rank][:idx] + entries[rank][idx + 1:])
        findings, _ = check_entries(entries)
        messages = [f.message for f in findings]
        assert any(
            "unmatched send" in m and f"rank {src} sends {name!r}" in m
            and f"rank {rank}" in m for m in messages
        ), messages
        # The counterexample trace names the sender's schedule position.
        finding = next(f for f in findings
                       if "unmatched send" in f.message)
        assert any(f"rank {src} pos " in line for line in finding.trace)

    def test_dropped_send_names_the_hanging_receiver(self, entries):
        rank, idx, (_, name, src) = self._first_recv(entries)
        src_entries = []
        for entry in entries[src]:
            if entry[0] == "exec" and entry[1].name == name:
                sends = tuple(d for d in entry[2] if d != rank)
                entry = (entry[0], entry[1], sends)
            src_entries.append(entry)
        entries[src] = src_entries
        findings, _ = check_entries(entries)
        hang = [f for f in findings if "unmatched recv" in f.message]
        assert hang, [f.message for f in findings]
        assert (f"rank {rank} hangs at schedule position {idx}"
                in hang[0].message)

    def test_swapped_sends_are_detected(self, entries):
        # Swap the send sets of the first two sending execs on one rank:
        # values are misrouted, so matching and/or channel order breaks.
        for rank in sorted(entries):
            sending = [i for i, e in enumerate(entries[rank])
                       if e[0] == "exec" and e[2]]
            if len(sending) >= 2:
                i, j = sending[0], sending[1]
                a, b = entries[rank][i], entries[rank][j]
                entries[rank][i] = (a[0], a[1], b[2])
                entries[rank][j] = (b[0], b[1], a[2])
                break
        else:
            pytest.fail("no rank with two sending execs")
        findings, _ = check_entries(entries)
        assert findings
        assert any(f"rank {rank}" in f.message for f in findings)

    def test_double_recv_is_rejected(self, entries):
        rank, idx, entry = self._first_recv(entries)
        entries[rank] = (entries[rank][:idx + 1] + [entry]
                         + entries[rank][idx + 1:])
        findings, _ = check_entries(entries)
        assert any("blocks forever" in f.message
                   and f"rank {rank} receives" in f.message
                   for f in findings)

    def test_missing_producer_at_rank_is_reported(self, entries):
        rank, idx, (_, name, src) = self._first_recv(entries)
        entries[rank] = (entries[rank][:idx] + entries[rank][idx + 1:])
        findings, _ = check_entries(entries)
        avail = [f for f in findings if "before its input" in f.message]
        assert avail and f"{name!r}" in avail[0].message

    def test_cross_rank_cycle_is_a_counterexample_trace(self):
        class FakeOp:
            def __init__(self, name, inputs=()):
                self.name = name
                self.inputs = inputs

        # rank 0 waits for 'b' before sending 'a'; rank 1 waits for 'a'
        # before sending 'b' -- the classic two-party deadlock.
        entries = {
            0: [("recv", "b", 1), ("exec", FakeOp("a"), (1,))],
            1: [("recv", "a", 0), ("exec", FakeOp("b"), (0,))],
        }
        findings, _ = check_entries(entries)
        dead = [f for f in findings if f.message.startswith("deadlock")]
        assert dead, [f.message for f in findings]
        trace = " ".join(dead[0].trace)
        assert "rank 0" in trace and "rank 1" in trace
        # The cycle closes: the first node is repeated at the end.
        assert dead[0].trace[0].split("waits")[0] in dead[0].trace[-1]

    @pytest.fixture()
    def bucket_exchange(self):
        """Two ranks, fused AllReduce: per rank, the index of the first
        bucket ``pack`` (the exec that sends) and of the ``recv`` of the
        peer's pack of the same bucket."""
        transformed, fetch_ops = make_transformed(ar_graph_plan,
                                                  cluster=C2x1)
        entries = build_all_worker_entries(transformed, fetch_ops)
        where = {}
        for rank, peer in ((0, 1), (1, 0)):
            pack = next(i for i, e in enumerate(entries[rank])
                        if e[0] == "exec" and e[2]
                        and "/pack/" in e[1].name)
            wanted = entries[rank][pack][1].name.replace(
                f"rep{rank}", f"rep{peer}")
            recv = entries[rank].index(("recv", wanted, peer))
            assert pack < recv
            where[rank] = (pack, recv)
        return entries, where

    def test_recv_moved_after_its_consumer_is_reported(self,
                                                       bucket_exchange):
        entries, where = bucket_exchange
        _, recv = where[0]
        moved = entries[0].pop(recv)
        at = next(i for i, e in enumerate(entries[0])
                  if e[0] == "exec"
                  and any(t.op.name == moved[1] for t in e[1].inputs))
        consumer = entries[0][at]       # the fold that reads it
        entries[0].insert(at + 1, moved)
        findings, _ = check_entries(entries)
        avail = [f for f in findings if "before its input" in f.message]
        assert avail, [f.message for f in findings]
        assert f"{moved[1]!r}" in avail[0].message
        assert f"rank 0 pos {at}: exec {consumer[1].name!r}" \
            in avail[0].trace[0]

    def test_recvs_ahead_of_both_packs_are_a_reported_cycle(
            self, bucket_exchange):
        """The schedule this layout replaced, made one step worse: both
        ranks wait for the peer's bucket before packing their own."""
        entries, where = bucket_exchange
        for rank, (pack, recv) in where.items():
            entries[rank].insert(pack, entries[rank].pop(recv))
        findings, stats = check_entries(entries)
        dead = [f for f in findings if f.message.startswith("deadlock")]
        assert dead, [f.message for f in findings]
        trace = " ".join(dead[0].trace)
        for rank, (pack, _) in where.items():
            assert f"rank {rank} pos {pack}: recv" in trace
            assert f"rank {rank} pos {pack + 1}: exec" in trace
        assert stats["early_recvs"] == 2

    def test_early_recv_is_counted_not_a_finding(self, bucket_exchange):
        entries, where = bucket_exchange
        findings, stats = check_entries(entries)
        assert findings == [] and stats["early_recvs"] == 0
        # Legal but serialising: rank 0 waits for the peer's bucket at
        # the first exec after its own pack and after the messages the
        # peer sent before the bucket (the channel is FIFO), instead of
        # where it is folded.
        pack, recv = where[0]
        peer = entries[0][recv][2]
        last = max([pack] + [i for i in range(pack, recv)
                             if entries[0][i][0] == "recv"
                             and entries[0][i][2] == peer])
        slot = next(i for i in range(last + 1, recv)
                    if entries[0][i - 1][0] == "exec")
        entries[0].insert(slot, entries[0].pop(recv))
        findings, stats = check_entries(entries)
        assert findings == [] and stats["early_recvs"] == 1

    def test_async_plans_pass_vacuously(self):
        from repro.core.transform.plan import graph_plan

        transformed, fetch_ops = make_transformed(
            lambda g: dataclasses.replace(graph_plan(g, "ps"), asynchronous=True), cluster=C2x1)
        findings, stats = analyze_deadlock(transformed, fetch_ops)
        assert findings == []
        assert stats["skipped"] == "asynchronous plan"


# ======================================================================
# Collective congruence: replica-skew mutations
# ======================================================================
class TestCongruenceMutations:
    def _replica_collective(self, transformed, fetch_ops, replica=1):
        for op in collective_ops(transformed, fetch_ops):
            if (op.op_type == "fused_allreduce"
                    and op.attrs.get("replica") == replica):
                return op
        pytest.fail(f"no fused_allreduce collective for replica {replica}")

    def test_clean_plan_is_congruent(self):
        transformed, fetch_ops = make_transformed()
        findings, stats = analyze_congruence(transformed, fetch_ops)
        assert findings == []
        assert stats["collectives"] == stats["per_replica"] * 4

    def test_skewed_bucket_layout_names_replica_and_position(self):
        transformed, fetch_ops = make_transformed()
        op = self._replica_collective(transformed, fetch_ops)
        segments = [list(seg) for seg in op.attrs["segments"]]
        segments[0][1] += 1  # one replica believes the bucket is bigger
        op.attrs["segments"] = [tuple(seg) for seg in segments]
        findings, _ = analyze_congruence(transformed, fetch_ops)
        assert findings
        skew = findings[0]
        assert "replica 1 diverges from replica 0" in skew.message
        assert "segments" in skew.message
        assert "at collective position" in skew.message
        assert any("segments" in line for line in skew.trace)

    def test_skewed_average_flag_is_detected(self):
        transformed, fetch_ops = make_transformed()
        op = self._replica_collective(transformed, fetch_ops)
        op.attrs["average"] = not op.attrs.get("average", False)
        findings, _ = analyze_congruence(transformed, fetch_ops)
        assert any("mismatched average" in f.message for f in findings)

    def test_replica_missing_from_group_is_detected(self):
        transformed, fetch_ops = make_transformed()
        op = self._replica_collective(transformed, fetch_ops, replica=3)
        op.attrs["replica"] = 0  # group now has replicas [0, 0, 1, 2]
        findings, _ = analyze_congruence(transformed, fetch_ops)
        assert any("expected one per replica" in f.message
                   for f in findings)


# ======================================================================
# Alias audit: corrupted buffer plans must be rejected
# ======================================================================
class TestAliasAudit:
    @pytest.fixture()
    def plan(self):
        transformed, fetch_ops = make_transformed(cluster=C2x1)
        plan = CompiledPlan(transformed.graph, fetch_ops)
        plan._ensure_buffer_plan()
        return plan

    def test_real_buffer_plan_is_sound(self, plan):
        findings, stats = audit_buffer_plan(plan)
        assert findings == []
        assert stats["arena_slots"] > 0

    def test_forced_buffer_sharing_is_an_overlap(self, plan):
        bplan = plan._ensure_buffer_plan()
        assert len(bplan.assignment) >= 2
        # Collapse every arena slot onto buffer 0: two slots whose
        # lifetimes overlap now share storage.
        corrupted = dataclasses.replace(
            bplan, assignment={s: 0 for s in bplan.assignment})
        findings, stats = audit_buffer_plan(plan, bplan=corrupted)
        assert stats["overlap_errors"] > 0
        overlap = next(f for f in findings if "still live" in f.message)
        assert "rewritten at schedule position" in overlap.message
        assert any("overwrite happens at position" in line
                   for line in overlap.trace)

    def test_fetched_slot_in_arena_is_rejected(self, plan):
        bplan = plan._ensure_buffer_plan()
        target = sorted(plan.target_slots)[0]
        corrupted = dataclasses.replace(
            bplan, assignment={**bplan.assignment, target: 0})
        findings, stats = audit_buffer_plan(plan, bplan=corrupted)
        assert stats["pinned_errors"] > 0
        assert any("must outlive the step" in f.message for f in findings)

    def test_overlapping_bucket_views_are_flagged(self, plan):
        """ROADMAP's bucket mutant: a member gradient born over part of
        its neighbour's region of the fused bucket."""
        bplan = plan._ensure_buffer_plan()
        buckets = {}
        for slot, (concat, lo, hi) in bplan.views.items():
            buckets.setdefault(concat, []).append((lo, hi, slot))
        concat, members = next((c, sorted(m)) for c, m in buckets.items()
                               if len(m) >= 2)
        (lo_a, hi_a, a), (lo_b, hi_b, b) = members[:2]
        start = (lo_a + hi_a) // 2
        corrupted = dataclasses.replace(bplan, views={
            **bplan.views, b: (concat, start, start + hi_b - lo_b)})
        findings, stats = audit_buffer_plan(plan, bplan=corrupted)
        assert stats["view_errors"] >= 1
        overlap = next(f for f in findings
                       if "bucket views overlap" in f.message)
        assert f"slot {a} " in overlap.message
        assert f"slot {b} " in overlap.message
        assert f"[{start}, " in overlap.message

    def test_read_moved_after_its_update_is_flagged(self):
        """A read of ``w`` whose consumer runs after ``w``'s update: the
        planner keeps that update out of place, and a plan that runs it
        in place anyway is rejected (property 4)."""
        g = Graph()
        with g.as_default():
            w = Variable("w", (4, 3), initializer=np.ones((4, 3),
                                                          np.float32))
            loss = ops.mse_loss(w.tensor, ops.constant(
                np.zeros((4, 3), np.float32)))
            train = GradientDescentOptimizer(0.5).update(gradients(loss))
            late = ops.scale(w.tensor, 2.0, name="late_reader")
        plan = CompiledPlan(g, [train.op, late.op])
        bplan = plan._ensure_buffer_plan()
        slot = {op.name: s for op, _k, _i, s, _e in plan.schedule}
        update, reader = slot["update/w"], slot["late_reader"]
        assert slot["w"] < update < reader
        assert update not in bplan.in_place
        assert audit_buffer_plan(plan)[0] == []
        corrupted = dataclasses.replace(bplan,
                                        in_place=frozenset({update}))
        findings, stats = audit_buffer_plan(plan, bplan=corrupted)
        assert stats["in_place_errors"] == 1
        [finding] = findings
        assert f"in-place update at position {update}" in finding.message
        assert "variable 'w'" in finding.message
        assert f"is used at position {reader}" in finding.message

    def test_liveness_disagreement_is_reported(self, plan):
        bplan = plan._ensure_buffer_plan()
        slot = max(bplan.slot_last_use)
        corrupted = dataclasses.replace(
            bplan, slot_last_use={**bplan.slot_last_use, slot: 0})
        findings, _ = audit_buffer_plan(plan, bplan=corrupted)
        assert any("disagrees with the audit" in f.message
                   for f in findings)


# ======================================================================
# Accounting conservation
# ======================================================================
class TestAccounting:
    def test_static_bytes_equal_measured_transcript_dense(self):
        model = make_model()
        runner = DistributedRunner(
            model, C2x1, hybrid_graph_plan(model.graph),
            seed=3)
        runner.step(0)
        fetch_ops = default_fetch_ops(runner.transformed)
        findings, stats = analyze_accounting(runner.transformed, fetch_ops)
        assert findings == []
        checked = 0
        for entry in stats["per_group"]:
            if not entry.get("static"):
                continue
            transfers = runner.transcript.filter(entry["tag"])
            assert entry["total_bytes"] == sum(t.nbytes for t in transfers)
            assert entry["network_bytes"] == sum(
                t.nbytes for t in transfers if t.is_network)
            checked += 1
        assert checked > 0

    def test_skewed_segments_break_conservation(self):
        transformed, fetch_ops = make_transformed()
        fused = next(op for op in collective_ops(transformed, fetch_ops)
                     if op.op_type == "fused_allreduce")
        segments = [list(seg) for seg in fused.attrs["segments"]]
        segments[0][1] += 7
        fused.attrs["segments"] = [tuple(seg) for seg in segments]
        findings, _ = analyze_accounting(transformed, fetch_ops)
        assert any("does not conserve elements" in f.message
                   for f in findings)

    def test_shifted_chunk_bound_names_the_bucket(self):
        """Verifier recall, first mutant: a good plan whose recorded
        ring chunk bounds drift one element from what its segments
        imply.  Conservation still holds (same total), so only the
        bounds-vs-segments relation can catch it."""
        transformed, fetch_ops = make_transformed()
        assert analyze_accounting(transformed, fetch_ops)[0] == []
        fused = [op for op in collective_ops(transformed, fetch_ops)
                 if op.op_type == "fused_allreduce"]
        group = fused[0].attrs["group"]
        for op in fused:
            if op.attrs["group"] == group:
                bounds = list(op.attrs["bounds"])
                bounds[1] += 1
                op.attrs["bounds"] = bounds
        findings, _ = analyze_accounting(transformed, fetch_ops)
        assert len(findings) == 1
        assert f"fused_allreduce/{group}" in findings[0].message
        assert "disagree with its segments" in findings[0].message

    def test_dropped_plan_variable_breaks_element_conservation(self):
        transformed, fetch_ops = make_transformed()
        name = next(n for n, m in transformed.plan.methods.items()
                    if m.name != "PS")
        del transformed.plan.methods[name]
        findings, _ = analyze_accounting(transformed, fetch_ops)
        assert any("element conservation violated" in f.message
                   for f in findings)

    def test_unregistered_collective_is_reported(self, monkeypatch):
        from repro.core.transform import comm_ops

        transformed, fetch_ops = make_transformed()
        monkeypatch.setattr(
            comm_ops, "COLLECTIVE_OP_TYPES",
            comm_ops.COLLECTIVE_OP_TYPES - {"fused_allreduce"})
        findings, _ = analyze_accounting(transformed, fetch_ops)
        registry = [f for f in findings
                    if "COLLECTIVE_OP_TYPES" in f.message]
        assert len(registry) == 1  # one set, so one finding
        assert "'fused_allreduce'" in registry[0].message


# ======================================================================
# verify_plan: matrix coverage and runtime wiring
# ======================================================================
class TestVerifyPlanMatrix:
    @pytest.mark.parametrize("model_key", sorted(_matrix_models()))
    @pytest.mark.parametrize("plan_key", sorted(_matrix_plans()))
    def test_matrix_is_clean(self, model_key, plan_key):
        model = _matrix_models()[model_key]()
        transformed = transform_graph(
            model.graph, model.loss, C2x2,
            _matrix_plans()[plan_key](model.graph), verify=False)
        report = verify_plan(transformed)
        assert report.ok, report.render()
        assert set(report.timings) == {"deadlock", "congruence", "alias",
                                       "accounting"}

    # The id predates the codec removal; both plans are exact, the
    # first with one bucket per AllReduce variable.
    @pytest.mark.parametrize("plan_builder", [
        lambda g: hybrid_graph_plan(g, fusion_buffer_mb=1e-6),
        lambda g: ar_graph_plan(g),
    ])
    def test_fusion_and_compression_variants_are_clean(self, plan_builder):
        transformed, fetch_ops = make_transformed(plan_builder)
        report = verify_plan(transformed, fetch_ops)
        assert report.ok, report.render()

    def test_supplied_plan_is_reused_and_guarded(self):
        transformed, fetch_ops = make_transformed(cluster=C2x1)
        plan = CompiledPlan(transformed.graph, fetch_ops)
        report = verify_plan(transformed, fetch_ops, plan=plan)
        assert report.ok
        other, other_fetch = make_transformed(cluster=C2x1)
        with pytest.raises(ValueError, match="different graph"):
            verify_plan(other, other_fetch, plan=plan)

    def test_transform_raises_on_findings(self, monkeypatch):
        import repro.analysis as analysis

        bad = AnalysisReport(findings=[Finding("deadlock", "injected")])
        monkeypatch.setattr(analysis, "verify_plan",
                            lambda *a, **k: bad)
        model = make_model()
        with pytest.raises(PlanVerificationError, match="injected"):
            transform_graph(model.graph, model.loss, C2x1,
                            hybrid_graph_plan(model.graph), verify=True)

    def test_env_gate_controls_default(self, monkeypatch):
        import repro.analysis as analysis

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return AnalysisReport()

        monkeypatch.setattr(analysis, "verify_plan", spy)
        model = make_model()
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        transform_graph(model.graph, model.loss, C2x1,
                        hybrid_graph_plan(model.graph))
        assert calls == []
        model = make_model()
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        transform_graph(model.graph, model.loss, C2x1,
                        hybrid_graph_plan(model.graph))
        assert len(calls) == 1

    def test_config_opt_in_wires_through_get_runner(self):
        from repro.core.api import ParallaxConfig, get_runner

        cfg = ParallaxConfig(search_partitions=False,
                             alpha_measure_batches=0, verify_plans=True)
        runner = get_runner(make_model, C2x1, cfg)
        assert runner.verify_plans is True


# ======================================================================
# Transport invariance (satellite: shm rings vs pickle fallback)
# ======================================================================
class TestTransportInvariance:
    def _report_key(self, report):
        scalar_stats = {
            name: {k: v for k, v in stats.items()
                   if isinstance(v, (int, float, str))}
            for name, stats in report.stats.items()
        }
        return ([f.render() for f in report.findings], scalar_stats)

    @pytest.mark.parametrize("transport", MultiprocBackend.TRANSPORTS)
    def test_verification_is_transport_agnostic(self, transport):
        model = make_model()
        runner = DistributedRunner(
            model, C2x1, hybrid_graph_plan(model.graph),
            seed=3, backend=MultiprocBackend(transport=transport))
        try:
            result = runner.step(0)
            assert len(result.replica_losses) == 2
            report = verify_plan(runner.transformed)
            assert report.ok, report.render()
            key = self._report_key(report)
        finally:
            runner.close()
        if not hasattr(type(self), "_first_key"):
            type(self)._first_key = key
        else:
            assert key == type(self)._first_key


# ======================================================================
# Worker failure context (satellite: rank/position/op attribution)
# ======================================================================
class TestWorkerFailureContext:
    def test_mid_step_failure_names_rank_position_and_op(self, monkeypatch):
        from repro.graph.executor import DIRECT

        def exploding_lstm(*inputs):
            raise RuntimeError("injected kernel failure")

        # Patch before the runner forks its workers: the children inherit
        # the poisoned kernel table and die mid-execute on the first step.
        monkeypatch.setitem(DIRECT, "lstm_seq", lambda op: exploding_lstm)
        model = make_model()
        runner = DistributedRunner(
            model, C2x1, hybrid_graph_plan(model.graph),
            seed=3, backend="multiproc")
        try:
            with pytest.raises(WorkerFailureError) as excinfo:
                runner.step(0)
        finally:
            runner.close()
        err = excinfo.value
        assert err.iteration == 0
        assert err.worker in (0, 1)
        assert err.machine == err.worker  # C2x1: one worker per machine
        assert err.schedule_index is not None and err.schedule_index >= 0
        assert err.op_name
        failed_op = runner.transformed.graph.get_op(err.op_name)
        assert failed_op.op_type == "lstm_seq"
        assert "injected kernel failure" in str(err)
        assert f"at schedule position {err.schedule_index}" in str(err)

    def test_message_formats_context(self):
        err = WorkerFailureError(3, 1, 0, schedule_index=17,
                                 op_name="rep1/tanh", detail="boom")
        assert str(err) == ("worker 1 (machine 0) failed at iteration 3 "
                            "at schedule position 17 while executing "
                            "'rep1/tanh'\nboom")
        legacy = WorkerFailureError(2, 0, 0)
        assert str(legacy) == "worker 0 (machine 0) failed at iteration 2"


# ======================================================================
# Repo lint
# ======================================================================
class TestLint:
    def test_repo_is_clean(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        findings = lint_paths([repo / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_mutating_arena_safe_kernel_is_flagged(self, tmp_path):
        bad = tmp_path / "bad_kernel.py"
        bad.write_text(
            "@register_forward(\"add\")\n"
            "def _add_fwd(op, inputs, runtime):\n"
            "    a = inputs[0]\n"
            "    a[0] = 1.0\n"
            "    return a\n"
        )
        findings = lint_paths([bad])
        assert any("mutates its inputs" in f.message for f in findings)
        assert any("subscript store" in line
                   for f in findings for line in f.trace)

    def test_mutating_arena_safe_direct_kernel_is_flagged(self, tmp_path):
        bad = tmp_path / "bad_direct.py"
        bad.write_text(
            "@register_direct(\"add\")\n"
            "def _add_direct(op):\n"
            "    def add_direct(a, b):\n"
            "        a[0] = 1.0\n"
            "        return a + b\n"
            "\n"
            "    return add_direct\n"
        )
        findings = lint_paths([bad])
        assert len(findings) == 1
        assert "kernel for 'add' mutates its inputs" in findings[0].message
        assert f"{bad}:3:" in findings[0].message  # the inner function
        assert findings[0].trace == (
            "line 4: subscript store into input alias 'a'",)

    def test_mutating_unlisted_kernel_is_allowed(self, tmp_path):
        ok = tmp_path / "custom_kernel.py"
        ok.write_text(
            "@register_forward(\"my_scatter_apply\")\n"
            "def _fwd(op, inputs, runtime):\n"
            "    inputs[0][0] = 1.0\n"
            "    return inputs[0]\n"
        )
        assert lint_paths([ok]) == []

    def test_global_np_random_is_flagged(self, tmp_path):
        bad = tmp_path / "bad_random.py"
        bad.write_text(
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
            "rng = np.random.default_rng(0)\n"
        )
        findings = lint_paths([bad])
        assert len(findings) == 1
        assert "np.random.rand" in findings[0].message

    def test_lambda_in_add_op_is_flagged(self, tmp_path):
        bad = tmp_path / "bad_lambda.py"
        bad.write_text(
            "op = g.add_op(\"scale\", inputs, attrs={\n"
            "    \"fn\": lambda x: x * 2})\n"
        )
        findings = lint_paths([bad])
        assert any("lambda passed into" in f.message for f in findings)

    def test_unregistered_collective_literal_is_flagged(self, tmp_path):
        bad = tmp_path / "bad_collective.py"
        bad.write_text(
            "op = g.add_op(\"hierarchical_allreduce\", inputs)\n"
        )
        findings = lint_paths([bad])
        assert any("hierarchical_allreduce" in f.message for f in findings)

    def test_hoisted_op_type_outside_the_registry_is_flagged(
            self, monkeypatch):
        import repro.graph.executor as executor_mod

        monkeypatch.setattr(
            executor_mod, "COLLECTIVE_OPS",
            executor_mod.COLLECTIVE_OPS | {"phantom_allreduce"})
        findings = lint_paths([])
        assert len(findings) == 1
        assert "phantom_allreduce" in findings[0].message

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        assert lint_main([str(bad)]) == 1
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out


# ======================================================================
# Report plumbing
# ======================================================================
class TestReport:
    def test_render_and_error(self):
        report = AnalysisReport(
            findings=[Finding("deadlock", "it hangs",
                              trace=("rank 0 pos 1: recv",))])
        assert not report.ok
        text = report.render()
        assert "deadlock" in text and "rank 0 pos 1" in text
        err = PlanVerificationError(report)
        assert err.report is report
        assert "it hangs" in str(err)

    def test_crashing_analysis_becomes_a_finding(self, monkeypatch):
        import repro.analysis.verifier as verifier_mod

        def boom(*args, **kwargs):
            raise ValueError("analysis bug")

        monkeypatch.setattr(verifier_mod, "analyze_congruence", boom)
        transformed, fetch_ops = make_transformed(cluster=C2x1)
        report = verify_plan(transformed, fetch_ops,
                             analyses=["congruence"])
        assert not report.ok
        assert "analysis crashed" in report.findings[0].message
