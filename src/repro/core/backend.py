"""Pluggable execution backends: who actually runs a training step.

The compiled engine (PR 1) decides *what* to execute -- a frozen schedule
over the transformed graph.  An :class:`ExecutionBackend` decides *where*:

* :class:`InprocBackend` (default) replays the schedule inside the
  driving process, replica after replica -- bit-identical to the
  original sequential loop, zero IPC.
* :class:`MultiprocBackend` spawns one OS worker process per replica.
  The global schedule is partitioned by device ownership: every op runs
  exactly once, in the process that owns its device (GPU ops on their
  replica's worker; server-side CPU ops on the first worker of their
  machine, mirroring Parallax's server/worker colocation).  Values that
  cross process boundaries -- PS pushes and pulls, the all-to-all
  buffer exchange behind (fused) AllReduce and AllGatherv -- travel over
  a :class:`~repro.comm.transport.Transport`.  A worker runs its slice
  through the same :class:`~repro.graph.executor.CompiledPlan` as the
  in-process engine (:func:`compile_rank_plan`): the transfers are
  ``send``/``recv`` schedule entries, so integer slots, generated code,
  the buffer arena and the alias audit all cover what workers run.

Both backends produce the same per-step losses bit for bit and the same
logical Transcript records: the partitioned schedule preserves the
global dependency order, collectives run the identical ring arithmetic
on identically ordered contributions, and cross-machine edge accounting
moves with the op that owned it in-process.

Backend protocol
----------------
A backend is bound to one :class:`~repro.core.runner.DistributedRunner`
via :meth:`ExecutionBackend.start` (called at the end of the runner's
``__init__``; an elastic rescale starts a fresh backend and shuts the
old one down).  After that:

* :meth:`run_step` executes one synchronous iteration and returns the
  per-replica losses in replica order;
* :meth:`read_variables` / :meth:`load_state` are the authoritative
  variable plane -- the runner's checkpoint, inspection, and elastic
  migration paths all route through them, because under ``multiproc``
  each value lives only in the worker that owns it (the driving
  process' own stores never materialize one);
* :meth:`shutdown` releases workers and transport resources.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.comm.transport import (
    CONTROLLER,
    Transport,
    TransportTimeout,
    counter_delta,
    make_transport,
    merge_counters,
)
from repro.core.transform.comm_ops import COLLECTIVE_OP_TYPES
from repro.graph.executor import CompiledPlan, plan_order
from repro.graph.graph import Operation
from repro.tensor.dense import TensorSpec


def op_owner(op: Operation, cluster) -> Optional[int]:
    """The worker rank that executes *op* under the multiprocess backend.

    GPU ops belong to their replica.  Server-side (CPU) ops belong to the
    first worker on their machine -- the process standing in for the
    colocated parameter-server process Parallax launches per machine.
    Unplaced ops (the ``group`` train op) have no owner; their value is
    never needed.
    """
    if op.device is None:
        return None
    if op.device.is_gpu:
        return (op.device.machine * cluster.gpus_per_machine
                + op.device.index)
    return op.device.machine * cluster.gpus_per_machine


def build_all_worker_entries(transformed, fetch_ops: Sequence[Operation],
                             order: Optional[Sequence[Operation]] = None,
                             ) -> Dict[int, List[tuple]]:
    """Every rank's slice of the global step schedule, in one pass.

    Entry shapes (:func:`compile_rank_plan` compiles them):
      ``("exec", op, send_to)`` -- run *op* here, then send its value to
      each rank in *send_to* (they consume it remotely);
      ``("recv", name, src)`` -- block until rank *src* sends the value
      of op *name*.

    ``exec`` entries appear in global
    :func:`~repro.graph.executor.plan_order` order -- the same order
    every rank (and the in-process engine) derives independently.  A
    ``recv`` sits immediately before the first local ``exec`` that reads
    its value, not where the producer ran, so a rank sends its own
    bucket before it waits for a peer's.  Per directed channel receives
    stay in send order (a consumer that needs the channel's *i*-th
    outstanding value first receives the ``i`` before it).

    Deadlock freedom: ``send`` never blocks on any plane (tcp reader
    threads, queue feeder threads, shm's pickle fallback on a full
    ring), so only a ``recv`` waits, and only for its producer's
    ``exec``.  Give every ``recv`` the global position of the consumer
    it was placed for: a rank's entries are then sorted by position and
    a value's producer ``p(v)`` precedes its consumer ``p(c)``, so a
    wait cycle A -> B -> A would need
    ``p(v_A) >= p(c_A) > p(v_B) >= p(c_B) > p(v_A)``.  The plan verifier
    checks this over the concrete entries instead of assuming it
    (:mod:`repro.analysis.deadlock`).

    Ownership/consumer maps are computed once and shared across ranks;
    a caller that wants one rank's slice indexes the result.
    """
    cluster = transformed.cluster
    num_ranks = cluster.total_gpus
    if order is None:
        order = plan_order(transformed.graph, fetch_ops)
    owner: Dict[str, Optional[int]] = {}
    for op in order:
        if op.op_type == "group":
            # Pure control grouping (the train op): its inputs are update
            # ops executed by their owners; the group itself runs nowhere.
            owner[op.name] = None
            continue
        own = op_owner(op, cluster)
        if own is None:
            raise ValueError(
                f"multiproc backend requires placed ops; {op.name!r} "
                f"({op.op_type}) has no device"
            )
        owner[op.name] = own

    consumer_ranks: Dict[str, set] = {}
    for op in order:
        if owner[op.name] is None:
            continue
        for tensor in op.inputs:
            consumer_ranks.setdefault(tensor.op.name,
                                      set()).add(owner[op.name])

    entries: Dict[int, List[tuple]] = {r: [] for r in range(num_ranks)}
    # (src, dst) -> names sent on that channel and not yet received.
    in_flight: Dict[tuple, List[str]] = {}
    for op in order:
        own = owner[op.name]
        if own is None:
            continue
        for tensor in op.inputs:
            name, src = tensor.op.name, owner[tensor.op.name]
            pending = in_flight.get((src, own), ())
            if name in pending:
                upto = pending.index(name) + 1
                entries[own].extend(("recv", sent, src)
                                    for sent in pending[:upto])
                del pending[:upto]
        remote = tuple(sorted(consumer_ranks.get(op.name, set()) - {own}))
        entries[own].append(("exec", op, remote))
        for rank in remote:
            in_flight.setdefault((own, rank), []).append(op.name)
    return entries


class _MutedCollectiveRuntime:
    """Runtime proxy handed to non-canonical collective kernels.

    Every worker reduces the gathered contributions once for its own
    replica's collective op (the ring-order fold is deterministic, so
    all workers hold the same bits); only replica 0's op records the
    ring's transfers, so the merged per-worker transcripts carry each
    chunk movement exactly once -- the same records the in-process
    engine's shared-cache execution produces.
    """

    __slots__ = ("_session",)
    transcript = None

    def __init__(self, session):
        self._session = session

    @property
    def run_cache(self):
        return self._session.run_cache


def _make_worker_session(transformed, seed: int, rank: int,
                         transport: Optional[Transport] = None,
                         recv_timeout: Optional[float] = None):
    """Worker *rank*'s :class:`~repro.core.runner.DistributedSession`.

    Its one ``_specialize_kernel`` override binds the rank plan's ports
    and mutes non-canonical collectives.  Port kernels reach the
    transport through ``session.transport`` when they run, so a rank
    plan compiles without one (the verifier builds them that way).
    """
    from repro.core.runner import DistributedSession

    class WorkerSession(DistributedSession):
        def _specialize_kernel(self, op):
            if op.op_type == "recv":
                src, key = op.attrs["src"], ("v", op.name)

                def recv(op, inputs, runtime):
                    return self.transport.recv(rank, src, key,
                                               timeout=recv_timeout)

                return recv
            if op.op_type == "send":
                dsts, key = op.attrs["dst"], ("v", op.inputs[0].op.name)

                def send(op, inputs, runtime):
                    for dst in dsts:
                        self.transport.send(rank, dst, key, inputs[0])

                return send
            if (op.op_type in COLLECTIVE_OP_TYPES
                    and op.attrs.get("replica", 0) != 0):
                from repro.graph.ops import FORWARD

                generic = FORWARD[op.op_type]
                muted = _MutedCollectiveRuntime(self)

                def muted_collective(op, inputs, runtime):
                    return generic(op, inputs, muted)

                return muted_collective
            return super()._specialize_kernel(op)

    session = WorkerSession(transformed, seed=seed)
    session.rank = rank
    session.transport = transport
    return session


def compile_rank_plan(session, fetch_ops: Sequence[Operation],
                      ) -> CompiledPlan:
    """Worker ``session.rank``'s slice of the step as a
    :class:`~repro.graph.executor.CompiledPlan`.

    Every :func:`build_all_worker_entries` entry becomes schedule
    entries: an ``exec`` is its op, bound and generated exactly as in
    the global plan, followed by a ``send`` port reading its value when
    peers consume it; a ``recv`` is a port whose slot carries the
    value's name, so consumers find it.  Ports are ops outside the
    graph, bound by the worker session.  The plan fetches the
    *fetch_ops* this rank executes -- its replica's loss.
    """
    transformed = session.transformed
    graph = transformed.graph
    order: List[Operation] = []
    owned = set()
    for entry in build_all_worker_entries(transformed,
                                          fetch_ops)[session.rank]:
        if entry[0] == "recv":
            _, name, src = entry
            order.append(Operation(graph, name, "recv", (),
                                   graph.get_op(name).output.spec,
                                   {"src": src}))
            continue
        _, op, send_to = entry
        order.append(op)
        owned.add(op.name)
        if send_to:
            order.append(Operation(graph, f"{op.name}->send", "send",
                                   (op.output,), TensorSpec(()),
                                   {"dst": send_to}))
    return CompiledPlan(graph, [op for op in fetch_ops if op.name in owned],
                        edge_fn=session._compile_edge_fn(),
                        specialize_fn=session._specialize_kernel,
                        order=order)


def _graph_variable_store(session, name: str):
    from repro.graph.session import split_replica_prefix

    replica, _ = split_replica_prefix(name)
    if replica is not None:
        return session.replica_stores[replica]
    return session.ps_store


def _run_worker(spec: dict, transport: Transport, rank: int) -> None:
    """Worker process main loop: build the session + plan, serve commands.

    Commands arrive from the controller as ``("cmd",)`` messages; every
    command is answered with exactly one ``("res",)`` message, which is
    what keeps the controller and all workers in lock step (a ``step``
    command is only issued after every worker acknowledged the previous
    one, so dataflow value keys never collide across iterations).
    """
    try:
        transformed = spec["transformed"]
        session = _make_worker_session(transformed, spec["seed"], rank,
                                       transport, spec.get("recv_timeout"))
        plan = compile_rank_plan(session, [transformed.graph.get_op(n)
                                           for n in spec["fetch_names"]])
        shard = spec["shard"]
        batch_size = spec["batch_size"]
        feed_names = spec["feed_names"]
    except BaseException:
        transport.send(rank, CONTROLLER, ("res",),
                       ("err", traceback.format_exc(), None))
        return
    transport.send(rank, CONTROLLER, ("res",), ("ready", rank, None))

    while True:
        # Taken before the wait: a peer that got its step command first
        # is already sending, and a frame decoded while this rank waits
        # for the command belongs to the step it then reports.
        counters_before = dict(transport.counters)
        cmd = transport.recv(rank, CONTROLLER, ("cmd",))
        try:
            if cmd[0] == "step":
                iteration = cmd[1]
                batch = shard.batch(batch_size, iteration)
                if len(batch) != len(feed_names):
                    raise ValueError(
                        f"dataset yields {len(batch)} arrays but replica "
                        f"{rank} feeds {len(feed_names)} placeholders"
                    )
                results = session.run_plan(plan, dict(zip(feed_names, batch)))
                losses = {name: float(value)
                          for name, value in zip(plan.fetch_names, results)}
                delta = (session.transcript.transfers,
                         session.transcript.events(),
                         counter_delta(transport.counters, counters_before))
                session.transcript.clear()
                transport.send(rank, CONTROLLER, ("res",),
                               ("ok", losses, delta))
            elif cmd[0] == "read":
                out = {name: _graph_variable_store(session, name).read(name)
                       for name in cmd[1]}
                transport.send(rank, CONTROLLER, ("res",),
                               ("ok", out, None))
            elif cmd[0] == "load":
                for name, value in cmd[1].items():
                    _graph_variable_store(session, name).write(
                        name, np.asarray(value).copy())
                transport.send(rank, CONTROLLER, ("res",),
                               ("ok", None, None))
            elif cmd[0] == "shutdown":
                transport.send(rank, CONTROLLER, ("res",),
                               ("ok", None, None))
                return
            else:
                raise ValueError(f"unknown worker command {cmd[0]!r}")
        except BaseException as exc:
            # A step failure names where this rank was in its schedule;
            # the controller folds it into the WorkerFailureError it
            # raises (see MultiprocBackend._result).
            context = None
            if cmd[0] == "step":
                context = {"rank": rank, "iteration": cmd[1],
                           "schedule_index": getattr(exc, "schedule_index",
                                                     None),
                           "op_name": getattr(exc, "op_name", None)}
            transport.send(rank, CONTROLLER, ("res",),
                           ("err", traceback.format_exc(), context))


class ExecutionBackend:
    """Where a runner's training step executes; see the module docstring.

    Subclasses implement the four-method protocol (:meth:`run_step`,
    :meth:`read_variables`, :meth:`load_state`, :meth:`shutdown`).  A
    backend instance binds to exactly one runner at a time.
    """

    name = "abstract"

    def __init__(self):
        self.runner = None

    def start(self, runner) -> None:
        """Bind to *runner* and allocate execution resources."""
        self.runner = runner

    def fresh(self) -> "ExecutionBackend":
        """An unbound backend configured like this one.

        The elastic rescale builds the post-migration runner with a
        *new* backend (worker fleets cannot be rebound to a different
        replica count); subclasses with constructor configuration
        override this so that configuration survives the rescale.
        """
        return type(self)()

    def run_step(self, iteration: int) -> List[float]:
        """Execute one synchronous iteration; per-replica losses."""
        raise NotImplementedError

    def read_variables(self, names: Sequence[str],
                       ) -> Dict[str, np.ndarray]:
        """Authoritative current values of graph-level variable names."""
        raise NotImplementedError

    def load_state(self, values: Dict[str, np.ndarray]) -> None:
        """Write logical (base-named) values into every replica/server."""
        raise NotImplementedError

    def shutdown(self, force: bool = False) -> None:
        """Release resources; idempotent."""


class InprocBackend(ExecutionBackend):
    """The default backend: the original single-process execution loop.

    Synchronous plans run one compiled plan covering every replica;
    asynchronous plans step replicas one after another (each worker sees
    the state its predecessors produced -- the paper's staleness
    semantics).  Variable reads and writes touch the runner's own
    session stores directly.
    """

    name = "inproc"

    def run_step(self, iteration: int) -> List[float]:
        runner = self.runner
        session = runner.session
        feeds = runner.feeds_for(iteration)
        if runner.transformed.replica_train_ops is None:
            results = session.run_plan(runner.step_plans[0], feeds)
            return [float(v) for v in results[:-1]]
        losses = []
        for r in range(runner.num_replicas):
            loss_r, _ = session.run_plan(runner.step_plans[r], feeds)
            losses.append(float(loss_r))
        return losses

    def read_variables(self, names: Sequence[str],
                       ) -> Dict[str, np.ndarray]:
        # Copies, as multiproc's pickled replies are: updates write the
        # stores' arrays in place, so a live array is no snapshot.
        session = self.runner.session
        return {name: _graph_variable_store(session, name).read(name).copy()
                for name in names}

    def load_state(self, values: Dict[str, np.ndarray]) -> None:
        from repro.core.runner import apply_logical_state

        apply_logical_state(self.runner.session,
                            self.runner.transformed.graph, values)


class MultiprocBackend(ExecutionBackend):
    """One worker process per replica, wired by a Transport.

    Workers are spawned in :meth:`start` from a pickled
    :class:`~repro.core.transform.transform.TransformedGraph` (plus their
    dataset shard and feed-name routing), compute their own feeds
    locally, execute their slice of the partitioned schedule, and ship a
    per-step result -- replica loss plus their logical Transcript delta
    -- back to the controller.  Deltas merge into the runner's
    transcript in worker-rank order, so merged byte accounting is
    deterministic and backend-independent.

    Only synchronous plans are supported: asynchronous PS training is
    defined by replicas *serially* applying gradients, which has no
    parallel execution.
    """

    name = "multiproc"

    #: transport kinds accepted by the ``transport`` constructor arg.
    TRANSPORTS = ("shm", "queue", "tcp")

    def __init__(self, start_timeout: float = 120.0,
                 step_timeout: float = 600.0,
                 transport: str = "shm"):
        super().__init__()
        if transport not in self.TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of "
                f"{self.TRANSPORTS}"
            )
        self.start_timeout = start_timeout
        self.step_timeout = step_timeout
        self.transport_kind = transport
        self.transport: Optional[Transport] = None
        self.processes: list = []
        self._var_owner: Dict[str, int] = {}
        # Serialization-cost totals across every step this backend ran
        # (controller + worker endpoints); a step's share is the
        # difference of two reads around it.
        self.serialization_totals: Dict[str, float] = {}

    def fresh(self) -> "MultiprocBackend":
        return type(self)(start_timeout=self.start_timeout,
                          step_timeout=self.step_timeout,
                          transport=self.transport_kind)

    def _make_transport(self, num_workers: int, context) -> Transport:
        """The configured transport -- the one overridable seam.

        Built before the fork: workers inherit the queues and ring
        mappings (no attach/name-lookup path) and the bound tcp
        listeners (every address exists before any process connects).
        """
        # Queues and ring locks come from the workers' fork context;
        # sockets take none.
        kwargs = {} if self.transport_kind == "tcp" else {"context": context}
        return make_transport(self.transport_kind, num_workers, **kwargs)

    # -- lifecycle -------------------------------------------------------
    def start(self, runner) -> None:
        self._bind(runner)
        import multiprocessing as mp

        try:
            context = mp.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            context = mp.get_context()
        n = runner.num_replicas
        self.transport = self._make_transport(n, context)
        for rank in range(n):
            process = context.Process(
                target=_run_worker,
                args=(self._worker_spec(rank), self.transport, rank),
                daemon=True, name=f"parallax-worker-{rank}",
            )
            process.start()
            self.processes.append(process)
        self._await_ready()

    def _bind(self, runner) -> None:
        """What every worker fleet does first, however it is launched."""
        if runner.transformed.replica_train_ops is not None:
            raise ValueError(
                f"the {self.name} backend supports synchronous plans "
                f"only: asynchronous PS training is serial by definition"
            )
        ExecutionBackend.start(self, runner)
        self._var_owner = self._variable_owner_map(runner.transformed)
        self.processes = []

    def _worker_spec(self, rank: int) -> dict:
        """Everything worker *rank* needs to build its session + plan."""
        runner = self.runner
        return {
            "transformed": runner.transformed,
            "seed": runner.seed,
            "fetch_names": [t.op.name for t in runner._step_fetches[0]],
            "shard": runner.shards[rank],
            "batch_size": runner.model.batch_size,
            "feed_names": runner._feed_names[rank],
            "recv_timeout": self.step_timeout,
        }

    def _await_ready(self) -> None:
        for rank in range(self.runner.num_replicas):
            tag, _, _ = self._result(rank, self.start_timeout)
            if tag != "ready":  # pragma: no cover - startup failure path
                raise RuntimeError(f"worker {rank} failed to start")

    def _variable_owner_map(self, transformed) -> Dict[str, int]:
        """Graph variable name -> rank holding its authoritative value.

        A variable lives wherever its update op runs (optimizer slots
        follow their update); variables nothing updates default to their
        read op's owner, or rank 0 when unplaced -- their value never
        changes, so every rank's seeded copy agrees anyway.
        """
        from repro.graph.session import split_replica_prefix

        graph = transformed.graph
        cluster = transformed.cluster
        owners: Dict[str, int] = {}
        for name in graph.variables:
            replica, _ = split_replica_prefix(name)
            if replica is not None:
                owners[name] = replica
                continue
            read_op = graph.get_op(name) if graph.has_op(name) else None
            own = op_owner(read_op, cluster) if read_op is not None else None
            owners[name] = own if own is not None else 0
        for op in graph.operations:
            if not op.attrs.get("is_update"):
                continue
            own = op_owner(op, cluster)
            if own is None:
                continue
            # Every string attr naming a graph variable is one the update
            # kernel reads or writes (the target plus its optimizer
            # slots, whatever the optimizer calls them) -- derived
            # structurally so new optimizers route correctly without
            # this map knowing their slot attr keys.
            for value in op.attrs.values():
                if isinstance(value, str) and value in graph.variables:
                    owners[value] = own
        return owners

    # -- controller-side protocol ---------------------------------------
    def _result(self, rank: int, timeout: float) -> tuple:
        """Next result from *rank*, with liveness checks while waiting.

        One monotonic deadline bounds the whole wait; recv runs in
        <= 1s slices purely so a dead worker is noticed promptly.
        Decrementing a budget by a fixed 1.0 per timeout slice (the
        old scheme) drifts: a recv that returns early under-charges
        and scheduling delay over-charges, so the stated timeout was
        only nominal.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                payload = self.transport.recv(
                    CONTROLLER, rank, ("res",),
                    timeout=min(max(remaining, 0.0), 1.0))
            except TransportTimeout:
                # Externally-launched fleets (RemoteWorkerBackend) have
                # no local process handles to poll.
                process = (self.processes[rank]
                           if rank < len(self.processes) else None)
                if process is not None and not process.is_alive():
                    self.shutdown(force=True)
                    raise RuntimeError(
                        f"worker {rank} died (exit code "
                        f"{process.exitcode})"
                    ) from None
                if time.monotonic() >= deadline:
                    self.shutdown(force=True)
                    raise RuntimeError(
                        f"worker {rank} did not answer within {timeout}s"
                    ) from None
                continue
            if payload[0] == "err":
                self.shutdown(force=True)
                context = payload[2] if len(payload) > 2 else None
                if isinstance(context, dict):
                    from repro.cluster.faults import WorkerFailureError

                    gpm = self.runner.cluster.gpus_per_machine
                    raise WorkerFailureError(
                        context.get("iteration", -1), rank, rank // gpm,
                        schedule_index=context.get("schedule_index"),
                        op_name=context.get("op_name"),
                        detail=payload[1],
                    )
                raise RuntimeError(
                    f"worker {rank} failed:\n{payload[1]}"
                )
            return payload

    def _command(self, command: tuple) -> List[tuple]:
        """Broadcast a command; collect one result per rank, rank order."""
        for rank in range(self.transport.num_workers):
            self.transport.send(CONTROLLER, rank, ("cmd",), command)
        return [self._result(rank, self.step_timeout)
                for rank in range(self.transport.num_workers)]

    # -- backend protocol ------------------------------------------------
    def run_step(self, iteration: int) -> List[float]:
        runner = self.runner
        losses_by_name: Dict[str, float] = {}
        step_counters: Dict[str, float] = {}
        controller_before = dict(self.transport.counters)
        for _, losses, delta in self._command(("step", iteration)):
            losses_by_name.update(losses)
            transfers, events, worker_counters = delta
            runner.transcript.extend(transfers, events)
            merge_counters(step_counters, worker_counters)
        merge_counters(step_counters,
                       counter_delta(self.transport.counters,
                                     controller_before))
        merge_counters(self.serialization_totals, step_counters)
        return [losses_by_name[t.op.name]
                for t in runner.transformed.replica_losses]

    def _owner_command(self, kind: str, by_rank: Dict[int, object],
                       ) -> List[object]:
        """Send each rank in *by_rank* its payload; replies, rank order."""
        for rank, payload in by_rank.items():
            self.transport.send(CONTROLLER, rank, ("cmd",), (kind, payload))
        return [self._result(rank, self.step_timeout)[1]
                for rank in sorted(by_rank)]

    def read_variables(self, names: Sequence[str],
                       ) -> Dict[str, np.ndarray]:
        by_rank: Dict[int, List[str]] = {}
        for name in names:
            by_rank.setdefault(self._var_owner.get(name, 0),
                               []).append(name)
        out: Dict[str, np.ndarray] = {}
        for values in self._owner_command("read", by_rank):
            out.update(values)
        return out

    def load_state(self, values: Dict[str, np.ndarray]) -> None:
        """Send each rank only the values of the variables it owns."""
        from repro.graph.session import split_replica_prefix

        by_rank: Dict[int, Dict[str, np.ndarray]] = {}
        for name, rank in self._var_owner.items():
            base = split_replica_prefix(name)[1]
            if base in values:
                by_rank.setdefault(rank, {})[name] = values[base]
        self._owner_command("load", by_rank)

    def shutdown(self, force: bool = False) -> None:
        if self.transport is None:
            return
        transport, self.transport = self.transport, None
        if not force:
            try:
                for rank in range(transport.num_workers):
                    transport.send(CONTROLLER, rank, ("cmd",),
                                   ("shutdown",))
                for rank in range(transport.num_workers):
                    transport.recv(CONTROLLER, rank, ("res",), timeout=10.0)
            except Exception:  # pragma: no cover - degraded shutdown
                force = True
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self.processes = []
        transport.close()


class RemoteWorkerBackend(MultiprocBackend):
    """Controller half of a rendezvous-launched cross-host TCP fleet.

    Where :class:`MultiprocBackend` forks its workers and hands them
    their spec as a constructor argument, this backend expects the
    workers to be launched *externally* (``repro.cli launch
    --rendezvous tcp://... --rank R --world-size N``, one process per
    replica, any machine).  :meth:`start` runs the rendezvous server at
    the configured ``tcp://host:port``, waits for every worker to join
    and barrier, then ships each worker its spec as a ``("spec",)``
    message over the resulting :class:`~repro.comm.tcp.TcpTransport` --
    after which the command/response protocol is exactly the forked
    backend's, so steps, reads, loads, and shutdown are inherited
    unchanged.  Liveness polling degrades gracefully: there are no
    local process handles, so only the timeout (not exit-code
    detection) catches a dead remote worker.
    """

    name = "remote"

    def __init__(self, rendezvous: str,
                 start_timeout: float = 120.0,
                 step_timeout: float = 600.0,
                 listen_host: str = "127.0.0.1"):
        super().__init__(start_timeout=start_timeout,
                         step_timeout=step_timeout, transport="tcp")
        self.rendezvous = rendezvous
        self.listen_host = listen_host

    def fresh(self) -> "MultiprocBackend":
        raise RuntimeError(
            "a rendezvous-launched fleet cannot be rescaled in place; "
            "relaunch the workers with the new world size"
        )

    def start(self, runner) -> None:
        self._bind(runner)
        from repro.comm.tcp import (
            RendezvousServer,
            TcpTransport,
            bind_listener,
            parse_rendezvous,
        )

        n = runner.num_replicas
        host, port = parse_rendezvous(self.rendezvous)
        listener = bind_listener(self.listen_host)
        server = RendezvousServer(
            n, listener.getsockname(), host=host, port=port,
        ).start()
        addr_map = server.wait(timeout=self.start_timeout)
        self.transport = TcpTransport.for_rank(
            n, CONTROLLER, addr_map, listener,
        )
        for rank in range(n):
            self.transport.send(CONTROLLER, rank, ("spec",),
                                self._worker_spec(rank))
        self._await_ready()


def run_remote_worker(rendezvous: str, rank: int, world_size: int,
                      listen_host: str = "127.0.0.1",
                      join_timeout: float = 60.0) -> None:
    """One externally-launched TCP worker, start to shutdown.

    Binds a listener, joins the rendezvous, builds the transport from
    the returned address map, receives its spec from the controller,
    and serves the standard command loop until the shutdown command.
    This is what ``repro.cli launch`` runs per rank.
    """
    from repro.comm.tcp import TcpTransport, bind_listener, rendezvous_join

    listener = bind_listener(listen_host)
    addr_map = rendezvous_join(rendezvous, rank, listener.getsockname(),
                               timeout=join_timeout)
    transport = TcpTransport.for_rank(world_size, rank, addr_map,
                                      listener)
    try:
        spec = transport.recv(rank, CONTROLLER, ("spec",),
                              timeout=join_timeout)
        _run_worker(spec, transport, rank)
    finally:
        transport.close()


BACKENDS = {
    "inproc": InprocBackend,
    "multiproc": MultiprocBackend,
}


def make_backend(backend) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return BACKENDS[backend]()
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(BACKENDS)}"
        ) from None
