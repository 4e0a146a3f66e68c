"""Pluggable execution backends: transport semantics, schedule
partitioning, and the multiprocess worker backend's differential
guarantees against the in-process engine.

The multiprocess tests run with two workers (one per machine) so the
suite stays fast on hosted runners: the single-model smoke cases, then
the arch x plan x transport bit-identity matrix.
"""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.deadlock import check_entries
from repro.cli import _matrix_models, _matrix_plans
from repro.cluster.spec import ClusterSpec
from repro.comm.transcript import Transcript, merge_transcripts
from repro.comm.transport import (
    CONTROLLER,
    InMemoryTransport,
    MultiprocTransport,
    TransportError,
    TransportTimeout,
    counter_delta,
)
from repro.core.backend import (
    BACKENDS,
    InprocBackend,
    MultiprocBackend,
    _make_worker_session,
    build_all_worker_entries,
    compile_rank_plan,
    make_backend,
    op_owner,
)
from repro.core.runner import DistributedRunner
from repro.core.transform.comm_ops import COLLECTIVE_OP_TYPES
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph.executor import CompiledPlan, plan_order
from repro.graph.gradients import gradients
from repro.nn.models import build_lm
from repro.nn.optimizers import AdamOptimizer, GradientDescentOptimizer

SEED = 3
# Two machines x one GPU: two worker processes, with real cross-machine
# PS traffic and a two-party ring.
C2x1 = ClusterSpec(num_machines=2, gpus_per_machine=1)

PLAN_BUILDERS = {
    "hybrid": hybrid_graph_plan,
    "ps": lambda g: graph_plan(g, "opt_ps"),
    "ar": ar_graph_plan,
}


def make_model(optimizer=None):
    model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                     hidden=10, num_partitions=3, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        (optimizer or GradientDescentOptimizer(0.4)).update(gvs)
    return model


def make_runner(plan_key="hybrid", backend="inproc", cluster=C2x1,
                optimizer=None, **kwargs):
    model = make_model(optimizer)
    return DistributedRunner(model, cluster,
                             PLAN_BUILDERS[plan_key](model.graph),
                             seed=SEED, backend=backend, **kwargs)


# ======================================================================
# Transport semantics
# ======================================================================
class TestInMemoryTransport:
    def test_send_recv_round_trip(self):
        t = InMemoryTransport(2)
        t.send(0, 1, ("v", "x"), np.arange(3.0))
        np.testing.assert_array_equal(t.recv(1, 0, ("v", "x")),
                                      np.arange(3.0))

    def test_messages_are_frozen_at_send_time(self):
        """Mutating a buffer after send must not corrupt the receiver --
        the value semantics in-place update kernels rely on."""
        t = InMemoryTransport(2)
        value = np.zeros(4)
        t.send(0, 1, ("v", "x"), value)
        value[:] = 99.0
        np.testing.assert_array_equal(t.recv(1, 0, ("v", "x")),
                                      np.zeros(4))

    def test_fifo_per_channel(self):
        t = InMemoryTransport(2)
        for i in range(3):
            t.send(0, 1, ("v", "x"), i)
        assert [t.recv(1, 0, ("v", "x")) for _ in range(3)] == [0, 1, 2]

    def test_channels_are_independent(self):
        t = InMemoryTransport(2)
        t.send(0, 1, ("v", "a"), "a-val")
        t.send(0, 1, ("v", "b"), "b-val")
        assert t.recv(1, 0, ("v", "b")) == "b-val"
        assert t.recv(1, 0, ("v", "a")) == "a-val"

    def test_recv_timeout(self):
        t = InMemoryTransport(2)
        with pytest.raises(TransportTimeout):
            t.recv(1, 0, ("v", "missing"), timeout=0.01)

    def test_rank_validation(self):
        t = InMemoryTransport(2)
        with pytest.raises(TransportError):
            t.send(0, 5, ("v", "x"), 1)
        with pytest.raises(TransportError):
            t.recv(-7, 0, ("v", "x"))

    def test_controller_rank_is_addressable(self):
        t = InMemoryTransport(2)
        t.send(1, CONTROLLER, ("res",), ("ok", None))
        assert t.recv(CONTROLLER, 1, ("res",)) == ("ok", None)

    def test_sends_recorded_into_transcript(self):
        t = InMemoryTransport(2)
        t.send(0, 1, ("v", "x"), np.zeros(16))
        assert t.counters["pickle_msgs"] == 1
        assert t.counters["pickle_bytes"] > 0
        assert t.counters["shm_msgs"] == t.counters["wire_msgs"] == 0


class TestMultiprocTransportLocal:
    """Single-process checks of the queue transport's demultiplexing."""

    def test_out_of_order_keys_are_buffered(self):
        t = MultiprocTransport(2)
        t.send(0, 1, ("v", "a"), "first")
        t.send(0, 1, ("v", "b"), "second")
        assert t.recv(1, 0, ("v", "b"), timeout=5.0) == "second"
        assert t.recv(1, 0, ("v", "a"), timeout=5.0) == "first"
        t.close()

    def test_recv_timeout_and_drain(self):
        t = MultiprocTransport(1)
        with pytest.raises(TransportTimeout):
            t.recv(0, CONTROLLER, ("cmd",), timeout=0.01)
        t.send(CONTROLLER, 0, ("cmd",), ("step", 0))
        import time

        time.sleep(0.1)  # let the feeder thread flush
        assert t.drain(0) >= 1
        t.close()

    def test_closed_transport_rejects_sends(self):
        t = MultiprocTransport(1)
        t.close()
        with pytest.raises(TransportError):
            t.send(CONTROLLER, 0, ("cmd",), "x")


# ======================================================================
# Transcript merging
# ======================================================================
class TestTranscriptMerge:
    def _part(self, machine):
        part = Transcript()
        part.record("edge/x", machine, machine + 1, 128)
        part.note("fault/test", iteration=machine, machine=machine)
        return part

    def test_merge_preserves_rank_order(self):
        merged = merge_transcripts([self._part(0), self._part(1)])
        assert [t.src_machine for t in merged.transfers] == [0, 1]
        assert [e.get("machine") for e in merged.events()] == [0, 1]

    def test_merge_is_deterministic(self):
        parts = [self._part(0), self._part(1), self._part(2)]
        a = merge_transcripts(parts)
        b = merge_transcripts(parts)
        assert a.transfers == b.transfers
        assert a.events() == b.events()
        assert a.total_network_bytes() == 3 * 128

    def test_extend_appends_records(self):
        base = Transcript()
        part = self._part(4)
        base.extend(part.transfers, part.events())
        assert len(base) == 1
        assert base.events("fault/")[0].get("machine") == 4


# ======================================================================
# Schedule partitioning
# ======================================================================
class TestPartitioning:
    def test_op_owner_rules(self):
        runner = make_runner("hybrid")
        graph = runner.transformed.graph
        cluster = runner.cluster
        for op in graph.operations:
            own = op_owner(op, cluster)
            if op.device is None:
                assert own is None
            elif op.device.is_gpu:
                assert own == (op.device.machine * cluster.gpus_per_machine
                               + op.device.index)
            else:
                # Server-side ops run on the first worker of the machine.
                assert own == op.device.machine * cluster.gpus_per_machine

    @pytest.mark.parametrize("plan_key", list(PLAN_BUILDERS))
    def test_partition_covers_schedule_exactly_once(self, plan_key):
        """Across ranks, every schedulable op executes exactly once and
        every cross-rank value has a matching send/recv pair."""
        runner = make_runner(plan_key)
        transformed = runner.transformed
        fetch_ops = [t.op for t in runner._step_fetches[0]]
        order = plan_order(transformed.graph, fetch_ops)
        by_rank = build_all_worker_entries(transformed, fetch_ops)
        per_rank = [by_rank[r] for r in range(transformed.num_replicas)]

        executed = {}
        sends = set()
        recvs = set()
        for rank, entries in enumerate(per_rank):
            for entry in entries:
                if entry[0] == "exec":
                    _, op, send_to = entry
                    assert op.name not in executed
                    executed[op.name] = rank
                    for dst in send_to:
                        sends.add((op.name, dst))
                else:
                    _, name, src = entry
                    recvs.add((name, rank))
        expected = {op.name for op in order if op.op_type != "group"}
        assert set(executed) == expected
        assert sends == recvs
        for name, dst in sends:
            assert executed[name] != dst  # no self-sends

    def test_entries_follow_global_order(self):
        """``exec`` entries alone strictly follow ``plan_order``; with
        each ``recv`` given the position of the ``exec`` it was placed
        for (the next one), a rank's whole list is sorted -- the premise
        of the deadlock-freedom argument."""
        runner = make_runner("hybrid")
        transformed = runner.transformed
        fetch_ops = [t.op for t in runner._step_fetches[0]]
        position = {op.name: i
                    for i, op in enumerate(plan_order(transformed.graph,
                                                      fetch_ops))}
        by_rank = build_all_worker_entries(transformed, fetch_ops)
        for rank in range(transformed.num_replicas):
            execs = [position[entry[1].name] for entry in by_rank[rank]
                     if entry[0] == "exec"]
            assert all(a < b for a, b in zip(execs, execs[1:]))
            positions, consumer = [], None
            for entry in reversed(by_rank[rank]):
                if entry[0] == "exec":
                    consumer = position[entry[1].name]
                positions.append(consumer)
            assert positions == sorted(positions, reverse=True)

    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("plan_key", list(PLAN_BUILDERS))
    def test_recvs_sit_at_their_consumer_in_send_order(self, plan_key,
                                                       shape):
        """Every ``recv`` is followed -- across nothing but other
        ``recv``s -- by an ``exec`` that reads one of them, so no rank
        waits for a value before it needs it; and per directed channel
        the receive order is the send order."""
        runner = make_runner(plan_key, cluster=ClusterSpec(*shape))
        fetch_ops = [t.op for t in runner._step_fetches[0]]
        by_rank = build_all_worker_entries(runner.transformed, fetch_ops)
        sent, received, recvs = {}, {}, 0
        for rank, entries in by_rank.items():
            fresh = []
            for entry in entries:
                if entry[0] == "recv":
                    _, name, src = entry
                    fresh.append(name)
                    received.setdefault((src, rank), []).append(name)
                    continue
                _, op, send_to = entry
                if fresh:
                    assert {t.op.name for t in op.inputs} & set(fresh)
                    recvs += len(fresh)
                    fresh = []
                for dst in send_to:
                    sent.setdefault((rank, dst), []).append(op.name)
            assert not fresh
        assert recvs > 0
        assert received == sent
        _, stats = check_entries(by_rank)
        assert stats["early_recvs"] == 0


# ======================================================================
# The worker loop over the in-memory transport (threads, same process)
# ======================================================================
class TestWorkerLoopOverInMemoryTransport:
    """The worker main loop is transport-agnostic: driving it with
    threads over InMemoryTransport must reproduce the in-process losses
    bit for bit -- the abstraction boundary the multiprocess backend
    builds on."""

    def _spawn_threaded_workers(self, runner, transport):
        import threading

        from repro.core.backend import _run_worker

        n = runner.num_replicas
        fetch_names = [t.op.name for t in runner._step_fetches[0]]
        threads = []
        for rank in range(n):
            spec = {
                "transformed": runner.transformed,
                "seed": runner.seed,
                "fetch_names": fetch_names,
                "shard": runner.shards[rank],
                "batch_size": runner.model.batch_size,
                "feed_names": runner._feed_names[rank],
                "recv_timeout": 60.0,
            }
            thread = threading.Thread(target=_run_worker,
                                      args=(spec, transport, rank),
                                      daemon=True)
            thread.start()
            threads.append(thread)
        for rank in range(n):
            tag, *_ = transport.recv(CONTROLLER, rank, ("res",),
                                     timeout=60.0)
            assert tag == "ready"
        return threads

    def test_threaded_workers_match_inproc_losses(self):
        reference = make_runner("hybrid")
        driver = make_runner("hybrid")  # spec source; never stepped
        n = driver.num_replicas
        transport = InMemoryTransport(n)
        threads = self._spawn_threaded_workers(driver, transport)
        loss_names = [t.op.name
                      for t in driver.transformed.replica_losses]
        try:
            for iteration in range(3):
                want = reference.step(iteration).replica_losses
                for rank in range(n):
                    transport.send(CONTROLLER, rank, ("cmd",),
                                   ("step", iteration))
                losses = {}
                deltas = []
                for rank in range(n):
                    tag, payload, delta = transport.recv(
                        CONTROLLER, rank, ("res",), timeout=60.0)
                    assert tag == "ok", payload
                    losses.update(payload)
                    deltas.append(delta)
                got = [losses[name] for name in loss_names]
                assert got == want, iteration
                # Per-worker transcript deltas merge to the inproc bytes.
                merged = Transcript()
                for transfers, events, _counters in deltas:
                    merged.extend(transfers, events)
                assert (merged.total_network_bytes()
                        == reference.transcript.total_network_bytes())
                reference.transcript.clear()
        finally:
            for rank in range(n):
                transport.send(CONTROLLER, rank, ("cmd",), ("shutdown",))
            for rank in range(n):
                transport.recv(CONTROLLER, rank, ("res",), timeout=60.0)
            for thread in threads:
                thread.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)

    def _capture_sessions(self, monkeypatch) -> dict:
        """Rank -> the worker session ``_run_worker`` builds, so a test
        can see which variables each rank's stores materialized."""
        import repro.core.backend as backend_mod

        sessions = {}
        make = backend_mod._make_worker_session

        def capture(transformed, seed, rank, *args):
            sessions[rank] = make(transformed, seed, rank, *args)
            return sessions[rank]

        monkeypatch.setattr(backend_mod, "_make_worker_session", capture)
        return sessions

    @staticmethod
    def _controller(driver, transport) -> MultiprocBackend:
        """The multiproc controller protocol, bound to threaded workers."""
        controller = MultiprocBackend()
        controller._bind(driver)
        controller.transport = transport
        return controller

    @staticmethod
    def _held(session) -> list:
        return sorted(name for store in (session.ps_store,
                                         *session.replica_stores)
                      for name in store._values)

    def test_threaded_worker_read_and_load_commands(self, monkeypatch):
        sessions = self._capture_sessions(monkeypatch)
        driver = make_runner("hybrid")
        n = driver.num_replicas
        transport = InMemoryTransport(n)
        threads = self._spawn_threaded_workers(driver, transport)
        controller = self._controller(driver, transport)
        try:
            owners = controller._var_owner
            base = next(iter(driver.transformed.replica_variables))
            shard = next(iter(driver.transformed.ps_placement))
            names = list(driver.transformed.replica_variables[base])
            # Freshly seeded owners agree with the driver's own stores.
            before = controller.read_variables(names + [shard])
            for name, value in before.items():
                np.testing.assert_array_equal(
                    value, driver.backend.read_variables([name])[name])
            # A load lands in each variable's owner and reads back there.
            replacement = np.full_like(before[names[0]], 0.125)
            served = np.full_like(before[shard], -0.5)
            controller.load_state({base: replacement, shard: served})
            after = controller.read_variables(names + [shard])
            for name in names:
                np.testing.assert_array_equal(after[name], replacement)
            np.testing.assert_array_equal(after[shard], served)
            # No rank materialized a variable it does not own.
            assert sorted(sessions) == list(range(n))
            for rank, session in sessions.items():
                held = self._held(session)
                for name in names + [shard]:
                    assert (name in held) == (owners[name] == rank), name
        finally:
            controller.shutdown()
            for thread in threads:
                thread.join(timeout=10.0)

    def test_each_rank_materializes_only_what_it_owns(self, monkeypatch):
        """N=4 hybrid LM: after two steps and an owner-routed load, every
        rank holds exactly the variables the owner map gives it (its
        replica, plus the PS shards on ranks 0 and 2)."""
        sessions = self._capture_sessions(monkeypatch)
        cluster = ClusterSpec(num_machines=2, gpus_per_machine=2)
        reference = make_runner("hybrid", cluster=cluster)
        driver = make_runner("hybrid", cluster=cluster)
        n = driver.num_replicas
        transport = InMemoryTransport(n)
        threads = self._spawn_threaded_workers(driver, transport)
        controller = self._controller(driver, transport)
        try:
            for iteration in range(2):
                assert (controller.run_step(iteration)
                        == reference.step(iteration).replica_losses)
            state = {base: value + 1.0
                     for base, value in reference.logical_state().items()}
            controller.load_state(state)
            owners = controller._var_owner
            assert {owners[shard]
                    for shard in driver.transformed.ps_placement} == {0, 2}
            for rank in range(n):
                assert self._held(sessions[rank]) == sorted(
                    name for name, own in owners.items() if own == rank)
            logical = driver.transformed.logical_variable_names
            got = controller.read_variables(sorted(set(logical.values())))
            for base, name in logical.items():
                np.testing.assert_array_equal(got[name], state[base])
        finally:
            controller.shutdown()
            for thread in threads:
                thread.join(timeout=10.0)


# ======================================================================
# Backend registry and lifecycle
# ======================================================================
class TestBackendRegistry:
    def test_registry_names(self):
        assert set(BACKENDS) == {"inproc", "multiproc"}
        assert isinstance(make_backend("inproc"), InprocBackend)
        assert isinstance(make_backend("multiproc"), MultiprocBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu-cluster")
        with pytest.raises(ValueError, match="unknown backend"):
            make_runner("hybrid", backend="nope")

    def test_backend_instance_passes_through(self):
        backend = InprocBackend()
        assert make_backend(backend) is backend

    def test_runner_records_backend_name(self):
        runner = make_runner("hybrid")
        assert runner.backend_name == "inproc"
        assert runner.backend.runner is runner

    def test_multiproc_rejects_async_plans(self):
        model = make_model()
        plan = replace(graph_plan(model.graph, "ps"), asynchronous=True)
        with pytest.raises(ValueError, match="synchronous"):
            DistributedRunner(model, C2x1, plan, seed=SEED,
                              backend="multiproc")

    def test_inproc_close_is_idempotent(self):
        runner = make_runner("hybrid")
        runner.close()
        runner.close()

    def test_multiproc_backend_has_no_latency_knobs(self):
        for knob in ("simulated_latency", "latency_jitter", "latency_seed"):
            with pytest.raises(TypeError, match=knob):
                MultiprocBackend(**{knob: 0})


# ======================================================================
# Multiprocess differential smoke (2 workers)
# ======================================================================
class TestMultiprocSmoke:
    @pytest.mark.parametrize("plan_key", list(PLAN_BUILDERS))
    def test_losses_bit_identical_to_inproc(self, plan_key):
        inproc = make_runner(plan_key, backend="inproc")
        want = [inproc.step(i).replica_losses for i in range(3)]
        multiproc = make_runner(plan_key, backend="multiproc")
        try:
            got = [multiproc.step(i).replica_losses for i in range(3)]
        finally:
            multiproc.close()
        assert got == want

    def test_logical_state_bit_identical_after_training(self):
        inproc = make_runner("hybrid", backend="inproc")
        multiproc = make_runner("hybrid", backend="multiproc")
        try:
            for i in range(3):
                inproc.step(i)
                multiproc.step(i)
            want = inproc.logical_state()
            got = multiproc.logical_state()
        finally:
            multiproc.close()
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_transcript_byte_accounting_matches_inproc(self):
        """The logical byte plane is backend-independent: same totals,
        same per-machine loads, collectives recorded exactly once."""
        inproc = make_runner("hybrid", backend="inproc")
        multiproc = make_runner("hybrid", backend="multiproc")
        try:
            inproc.step(0)
            multiproc.step(0)
            assert (multiproc.transcript.total_network_bytes()
                    == inproc.transcript.total_network_bytes())
            assert (multiproc.transcript.bytes_per_machine()
                    == inproc.transcript.bytes_per_machine())
            assert (multiproc.transcript.total_network_bytes("allreduce")
                    == inproc.transcript.total_network_bytes("allreduce"))
        finally:
            multiproc.close()

    def test_early_arrivals_are_attributed_to_their_step(self):
        """A rank that gets its step command late decodes the peer's
        frames while it still waits for the command.  Those decodes
        belong to that step's report: with every bulk message costing
        one copy per side, each step's ``copy_count`` is exactly twice
        its ``shm_msgs`` however the commands are staggered."""

        class LateLastRank(MultiprocBackend):
            def _command(self, command):
                *early, last = range(self.transport.num_workers)
                for rank in early:
                    self.transport.send(CONTROLLER, rank, ("cmd",), command)
                time.sleep(0.05)    # the early ranks run and send
                self.transport.send(CONTROLLER, last, ("cmd",), command)
                return [self._result(rank, self.step_timeout)
                        for rank in (*early, last)]

        # Fused AllReduce only: the early rank sends its bucket without
        # needing anything from the late one first.
        model = make_model()
        runner = DistributedRunner(
            model, C2x1, ar_graph_plan(model.graph),
            seed=SEED, backend=LateLastRank(transport="shm"))
        steps = []
        try:
            for i in range(4):
                before = dict(runner.backend.serialization_totals)
                runner.step(i)
                steps.append(counter_delta(
                    runner.backend.serialization_totals, before))
        finally:
            runner.close()
        assert len(steps) == 4
        for step in steps:
            assert step["shm_msgs"] > 0
            assert step["fallbacks"] == 0
            assert step["copy_count"] == 2 * step["shm_msgs"]

    def test_adam_slots_and_inspection_helpers(self):
        inproc = make_runner("hybrid", optimizer=AdamOptimizer(0.01))
        multiproc = make_runner("hybrid", backend="multiproc",
                                optimizer=AdamOptimizer(0.01))
        try:
            for i in range(2):
                inproc.step(i)
                multiproc.step(i)
            for name in inproc.transformed.plan.methods:
                np.testing.assert_array_equal(
                    multiproc.variable_value(name),
                    inproc.variable_value(name), err_msg=name)
        finally:
            multiproc.close()

    def test_save_restore_round_trip(self, tmp_path):
        multiproc = make_runner("hybrid", backend="multiproc")
        try:
            for i in range(2):
                multiproc.step(i)
            path = multiproc.save(str(tmp_path / "ckpt.npz"))
            resumed = make_runner("hybrid", backend="inproc")
            resumed.restore(path)
            want = resumed.step(2).replica_losses
            got = multiproc.step(2).replica_losses
        finally:
            multiproc.close()
        assert got == want

    def test_restore_into_multiproc_broadcasts_to_workers(self, tmp_path):
        source = make_runner("hybrid", backend="inproc")
        for i in range(2):
            source.step(i)
        path = source.save(str(tmp_path / "ckpt.npz"))
        want = source.step(2).replica_losses

        multiproc = make_runner("hybrid", backend="multiproc")
        try:
            multiproc.restore(path)
            got = multiproc.step(2).replica_losses
        finally:
            multiproc.close()
        assert got == want

    def test_controller_session_materializes_nothing(self, tmp_path):
        """Every value lives in its owning worker: stepping, saving and
        restoring a tcp fleet seeds none of the controller's stores."""
        multiproc = make_runner("hybrid",
                                backend=MultiprocBackend(transport="tcp"))
        try:
            for i in range(2):
                multiproc.step(i)
            multiproc.restore(multiproc.save(str(tmp_path / "ckpt.npz")))
            multiproc.step(2)
            session = multiproc.session
            for store in (session.ps_store, *session.replica_stores):
                assert store.names() and not store._values
        finally:
            multiproc.close()

    def test_worker_error_surfaces_in_controller(self):
        multiproc = make_runner("hybrid", backend="multiproc")
        closed = False
        try:
            # Provoke a worker-side failure: load a real variable with a
            # wrong-shaped value.  The worker's traceback must surface in
            # the controller's exception, and the backend shuts down.
            base = next(iter(multiproc.transformed.logical_variable_names))
            with pytest.raises(RuntimeError, match="worker 0 failed"):
                multiproc.backend.load_state({base: np.zeros((1, 2, 3, 4))})
            closed = True  # backend shut itself down on the error
        finally:
            if not closed:
                multiproc.close()

    def test_close_terminates_workers(self):
        multiproc = make_runner("hybrid", backend="multiproc")
        processes = list(multiproc.backend.processes)
        assert all(p.is_alive() for p in processes)
        multiproc.close()
        assert all(not p.is_alive() for p in processes)
        multiproc.close()  # idempotent


# ======================================================================
# Multiprocess bit-identity matrix (every arch x plan family x transport)
# ======================================================================
class TestMultiprocMatrix:
    """The differential guarantee that makes the backends (and the
    message planes under the multiprocess one) interchangeable: same
    per-step, per-replica losses, bit for bit."""

    @pytest.mark.parametrize("transport", ["queue", "shm", "tcp"])
    @pytest.mark.parametrize("plan_key", sorted(_matrix_plans()))
    @pytest.mark.parametrize("model_key", sorted(_matrix_models()))
    def test_losses_bit_identical_to_inproc(self, model_key, plan_key,
                                            transport):
        losses = {}
        for name, backend in (
                ("inproc", "inproc"),
                ("multiproc", MultiprocBackend(transport=transport))):
            model = _matrix_models()[model_key]()
            runner = DistributedRunner(
                model, C2x1, _matrix_plans()[plan_key](model.graph),
                seed=SEED, backend=backend)
            try:
                losses[name] = [runner.step(i).replica_losses
                                for i in range(3)]
            finally:
                runner.close()
        assert losses["multiproc"] == losses["inproc"]


    def test_three_workers_losses_and_state_bit_identical(self):
        """Odd ring: /3 is inexact and a three-term float sum depends on
        its association order, so the workers' separate reductions must
        match the in-process one exactly -- losses and final state."""
        cluster = ClusterSpec(num_machines=3, gpus_per_machine=1)
        losses, state = {}, {}
        for name, backend in (("inproc", "inproc"),
                              ("multiproc", MultiprocBackend(transport="shm"))):
            runner = make_runner("hybrid", backend, cluster=cluster)
            try:
                losses[name] = [runner.step(i).replica_losses
                                for i in range(3)]
                state[name] = runner.logical_state()
            finally:
                runner.close()
        assert losses["multiproc"] == losses["inproc"]
        assert set(state["multiproc"]) == set(state["inproc"])
        for name, value in state["inproc"].items():
            np.testing.assert_array_equal(state["multiproc"][name], value)


# ======================================================================
# Worker value liveness (a rank's slice of the schedule, in-process)
# ======================================================================
def rank_plans(runner, transport=None, recv_timeout=5.0):
    """``[(session, plan)]`` per rank, compiled as a worker compiles."""
    fetch_ops = [t.op for t in runner._step_fetches[0]]
    pairs = []
    for rank in range(runner.num_replicas):
        session = _make_worker_session(runner.transformed, SEED, rank,
                                       transport, recv_timeout)
        pairs.append((session, compile_rank_plan(session, fetch_ops)))
    return pairs


def run_ranks(runner, pairs, iteration=0):
    """One step of every rank's plan, each on its own thread; per rank
    the fetched values or the exception it raised."""
    outcomes = {}

    def work(rank, session, plan):
        feeds = dict(zip(
            runner._feed_names[rank],
            runner.shards[rank].batch(runner.model.batch_size, iteration)))
        try:
            outcomes[rank] = session.run_plan(plan, feeds)
        except Exception as exc:
            outcomes[rank] = exc

    threads = [threading.Thread(target=work, args=(rank, *pair))
               for rank, pair in enumerate(pairs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    return outcomes


class TestWorkerValueLiveness:
    """Two ranks' compiled plans driven by threads over the in-memory
    plane: same code path as a worker process, values inspectable."""

    def test_only_fetched_values_survive_the_step(self):
        runner = make_runner("hybrid")
        pairs = rank_plans(runner, InMemoryTransport(runner.num_replicas))
        outcomes = run_ranks(runner, pairs)
        expected = runner.step(0).replica_losses
        loss_names = [t.op.name for t in runner.transformed.replica_losses]
        for rank, (_, plan) in enumerate(pairs):
            assert isinstance(plan, CompiledPlan)
            assert any(op.op_type == "recv" for op, *_ in plan.schedule)
            assert any(op.op_type == "send" for op, *_ in plan.schedule)
            # The rank's loss is its one fetch and all the step returns.
            assert plan.fetch_names == (loss_names[rank],)
            assert [float(v) for v in outcomes[rank]] == [expected[rank]]

    def test_failing_kernel_still_names_its_schedule_position(
            self, monkeypatch):
        from repro.graph.executor import DIRECT

        def exploding(*values):
            raise RuntimeError("injected kernel failure")

        runner = make_runner("hybrid")
        monkeypatch.setitem(DIRECT, "softmax_xent", lambda op: exploding)
        pairs = rank_plans(runner, InMemoryTransport(runner.num_replicas))
        outcomes = run_ranks(runner, pairs)
        assert set(outcomes) == set(range(len(pairs)))
        for rank, exc in outcomes.items():
            assert isinstance(exc, RuntimeError)
            op = pairs[rank][1].schedule[exc.schedule_index][0]
            assert op.op_type == "softmax_xent"
            assert exc.op_name == op.name

    def test_reduced_bucket_is_shared_and_read_only(self):
        runner = make_runner("hybrid", cluster=ClusterSpec(1, 3))
        runner.step(0)
        reduced = runner.session.run_cache["collectives"]
        fused = [v for (op_type, _), v in reduced.items()
                 if op_type == "fused_allreduce"]
        assert fused
        for copies in fused:
            assert len(copies) == 3
            assert all(c is copies[0] for c in copies)
            assert not copies[0].flags.writeable


class TestRankPlansReplayGeneratedCode:
    def test_threaded_rank_plans_match_inproc_on_the_generated_path(self):
        """Three steps: the first runs the loop, the rest the generated
        code with its arena -- bit for bit what the in-process engine
        computes."""
        runner = make_runner("hybrid")
        reference = make_runner("hybrid")
        pairs = rank_plans(runner, InMemoryTransport(runner.num_replicas))
        for iteration in range(3):
            outcomes = run_ranks(runner, pairs, iteration)
            want = reference.step(iteration).replica_losses
            assert [float(outcomes[r][0]) for r in range(len(pairs))] \
                == want, iteration
        for _, plan in pairs:
            assert plan._codegen is not None
            assert plan.arena_slots > 0

    def test_generated_path_failure_names_the_entry_on_a_worker(
            self, monkeypatch):
        """A collective kernel that raises on its third call -- on the
        generated path -- is named by schedule position and op, through
        the worker's WorkerFailureError."""
        from repro.cluster.faults import WorkerFailureError
        from repro.graph import ops as graph_ops

        real = graph_ops.FORWARD["fused_allreduce"]
        calls = {}

        def third_call_fails(op, inputs, runtime):
            calls[op.name] = calls.get(op.name, 0) + 1
            if calls[op.name] == 3:
                raise RuntimeError("injected third-call failure")
            return real(op, inputs, runtime)

        # Patched before the fork: the workers inherit it.
        monkeypatch.setitem(graph_ops.FORWARD, "fused_allreduce",
                            third_call_fails)
        runner = make_runner("hybrid", backend="multiproc")
        try:
            runner.step(0)
            runner.step(1)
            with pytest.raises(WorkerFailureError) as excinfo:
                runner.step(2)
        finally:
            runner.close()
        err = excinfo.value
        assert err.iteration == 2
        _, plan = rank_plans(runner)[err.worker]
        op = plan.schedule[err.schedule_index][0]
        assert (op.op_type, op.name) == ("fused_allreduce", err.op_name)
        assert "injected third-call failure" in str(err)


class TestOneKernelBindingLadder:
    def test_worker_and_compiled_plans_bind_through_bind_kernel(
            self, monkeypatch):
        """Over one worker session, every op a rank owns gets its kernel
        from the ``bind_kernel`` call that serves the global plan -- same
        ops, same specialized-or-generic outcome -- and the session
        specializes exactly the rank plan's ports and its muted
        collectives (``replica != 0``); every other op runs its one
        registered kernel."""
        import repro.graph.executor as executor_mod

        runner = make_runner("hybrid")
        transformed = runner.transformed
        graph = transformed.graph
        fetch_ops = [t.op for t in runner._step_fetches[0]]
        real = executor_mod.bind_kernel
        bound = {}
        side = None

        def spy(op, specialize_fn=None):
            kernel, specialized = real(op, specialize_fn)
            bound.setdefault(side, set()).add(
                (op.name, op.op_type, specialized))
            return kernel, specialized

        monkeypatch.setattr(executor_mod, "bind_kernel", spy)
        owned_anywhere = set()
        for rank in range(runner.num_replicas):
            session = _make_worker_session(transformed, SEED, rank)
            side = ("global", rank)
            plan = session.compile(fetch_ops)
            side = ("rank", rank)
            compile_rank_plan(session, fetch_ops)

            assert len(bound["global", rank]) == len(plan.schedule)
            ports = {entry for entry in bound["rank", rank]
                     if entry[1] in ("send", "recv")}
            assert ports and all(specialized for *_, specialized in ports)
            owned = bound["rank", rank] - ports
            names = {name for name, *_ in owned}
            assert owned == {entry for entry in bound["global", rank]
                             if entry[0] in names}
            muted = {name for name, op_type, _ in owned
                     if op_type in COLLECTIVE_OP_TYPES
                     and graph.get_op(name).attrs.get("replica", 0) != 0}
            assert {name for name, _, specialized in owned
                    if specialized} == muted
            assert {graph.get_op(name).op_type for name in muted} \
                == ({"fused_allreduce"} if rank else set())
            owned_anywhere |= names
        # Only the unplaced train-op grouping runs on no rank.
        unowned = {op.name for op in plan_order(transformed.graph,
                                                fetch_ops)} - owned_anywhere
        assert {transformed.graph.get_op(n).op_type
                for n in unowned} == {"group"}


class _SlicingStubTransport:
    """Transport whose recv always times out after a short real sleep.

    Models the pathological case for the liveness loop: the transport
    returns from each <=1s slice *early* (here after 0.1s).  The old
    budget scheme charged a full 1.0s per slice regardless, so a 2s
    step timeout expired after ~0.2s of wall clock."""

    num_workers = 1

    def recv(self, dst, src, key, timeout=None):
        time.sleep(min(timeout if timeout else 0.1, 0.1))
        raise TransportTimeout("stub: nothing ever arrives")

    def close(self):
        pass


class _AliveStubProcess:
    exitcode = None

    def is_alive(self):
        return True

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class TestResultDeadline:
    def test_timeout_measures_wall_clock_not_slices(self):
        """Regression: ``_result`` must honour the stated timeout as
        wall-clock time.  With early-returning recv slices, the old
        fixed-1.0-per-slice budget declared a live worker dead after a
        fraction of the timeout."""
        backend = MultiprocBackend()
        backend.transport = _SlicingStubTransport()
        backend.processes = [_AliveStubProcess()]
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="did not answer within"):
            backend._result(0, 2.0)
        elapsed = time.monotonic() - t0
        assert elapsed >= 1.8, (
            f"_result(timeout=2.0) gave up after {elapsed:.2f}s -- the "
            f"liveness budget is counting slices, not elapsed time"
        )
        assert elapsed < 10.0

    def test_dead_worker_detected_before_deadline(self):
        """The per-slice liveness poll still notices a dead worker long
        before the full step timeout."""

        class _DeadProcess(_AliveStubProcess):
            exitcode = -9

            def is_alive(self):
                return False

        backend = MultiprocBackend()
        backend.transport = _SlicingStubTransport()
        backend.processes = [_DeadProcess()]
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="worker 0 died"):
            backend._result(0, 60.0)
        assert time.monotonic() - t0 < 5.0
