"""Functional distributed execution engine.

:class:`DistributedSession` executes a transformed graph with one variable
store per worker replica plus one for the parameter servers, routing every
variable read/write by the accessing op's device placement.  It also
records every cross-machine data movement into a
:class:`~repro.comm.transcript.Transcript` -- the byte-accounting plane
the Table 3 experiments check.

:class:`DistributedRunner` drives synchronous data-parallel training: it
shards the dataset across replicas (the ``parallax.shard`` semantics),
feeds every replica its own batch, and fetches all replica losses plus the
train op each iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.faults import FaultPlan, WorkerFailureError
from repro.cluster.spec import ClusterSpec
from repro.comm.transcript import Transcript
from repro.core.backend import make_backend
from repro.core.transform.comm_ops import COLLECTIVE_OP_TYPES
from repro.core.transform.plan import GraphSyncPlan
from repro.core.transform.transform import TransformedGraph, transform_graph
from repro.graph.executor import EdgeSpec
from repro.graph.graph import Graph, Operation
from repro.graph.session import Session, VariableStore, split_replica_prefix
from repro.nn.models.common import BuiltModel


def apply_logical_state(session: "DistributedSession", graph: Graph,
                        values: Dict[str, np.ndarray]) -> None:
    """Write logical (base-named) values into every matching store.

    The in-process half of ``restore`` and the elastic rescale: a base
    name loads into the PS store or into *all* replica copies; names
    absent from *values* keep their current state.  Multiprocess
    workers instead receive graph-named values for the variables they
    own (:meth:`~repro.core.backend.MultiprocBackend.load_state`).
    """
    for name in graph.variables:
        # Match the true rep<k>/ replica prefix, not any name that
        # merely starts with "rep" (a user variable named "report/w"
        # is a plain PS variable).
        replica, base = split_replica_prefix(name)
        if replica is not None:
            if base in values:
                session.replica_stores[replica].write(
                    name, np.asarray(values[base]).copy())
            continue
        if name in values:
            session.ps_store.write(name, np.asarray(values[name]).copy())


class DistributedSession(Session):
    """Executes a transformed graph across logical machines and GPUs."""

    def __init__(self, transformed: TransformedGraph, seed: int = 0,
                 transcript: Optional[Transcript] = None):
        self.transformed = transformed
        self.cluster = transformed.cluster
        self.transcript = transcript if transcript is not None else Transcript()
        # One store per replica (its ``rep<r>/`` variables) plus one for
        # the servers (the rest); each seeds a variable at its first read.
        routed: Dict[Optional[int], List[str]] = {}
        for name in transformed.graph.variables:
            routed.setdefault(split_replica_prefix(name)[0], []).append(name)
        self.ps_store = VariableStore(transformed.graph, seed,
                                      names=routed.get(None, ()))
        self.replica_stores = [
            VariableStore(transformed.graph, seed, names=routed.get(r, ()))
            for r in range(transformed.num_replicas)
        ]
        self._seen_edges: set = set()
        super().__init__(transformed.graph, seed=seed, store=self.ps_store)

    # -- variable routing --------------------------------------------------
    def _store_for(self, op: Optional[Operation]) -> VariableStore:
        if op is None or op.device is None or not op.device.is_gpu:
            return self.ps_store
        replica = (op.device.machine * self.cluster.gpus_per_machine
                   + op.device.index)
        return self.replica_stores[replica]

    def read_variable(self, name: str) -> np.ndarray:
        return self._store_for(self._current_op).read(name)

    def write_variable(self, name: str, value: np.ndarray) -> None:
        self._store_for(self._current_op).write(name, value)

    # -- execution ----------------------------------------------------------
    def _begin_run(self) -> None:
        self._seen_edges = set()

    def _compile_edge_fn(self):
        """The cross-machine edge set is static graph structure, so
        compiled plans carry it per schedule entry; only byte counts (and
        the per-run dedup against fed producers) stay dynamic.  One
        transfer per (producer, consumer device) pair per iteration (a
        worker process pulls a value once and reuses it); collectives
        record their own ring transfers, so their edges are skipped."""

        def static_edges(op: Operation) -> Optional[List[EdgeSpec]]:
            if op.op_type in COLLECTIVE_OP_TYPES or op.device is None:
                return None
            edges: List[EdgeSpec] = []
            for pos, tensor in enumerate(op.inputs):
                producer = tensor.op
                if (producer.device is None
                        or producer.op_type in COLLECTIVE_OP_TYPES):
                    continue
                if producer.device.machine == op.device.machine:
                    continue
                key = (producer.name, op.device.machine,
                       op.device.device_type, op.device.index)
                edges.append((pos, key, f"edge/{producer.op_type}",
                              producer.device.machine, op.device.machine))
            return edges or None

        return static_edges


@dataclass
class IterationResult:
    """Outcome of one synchronous training iteration."""

    iteration: int
    mean_loss: float
    replica_losses: List[float]
    wall_time: float


class DistributedRunner:
    """Synchronous data-parallel training over a transformed graph.

    This is what ``parallax.get_runner`` returns: it owns the transformed
    graph, the distributed session, and the per-replica input shards.
    """

    def __init__(
        self,
        model: BuiltModel,
        cluster: ClusterSpec,
        plan: GraphSyncPlan,
        seed: int = 0,
        transcript: Optional[Transcript] = None,
        fault_plan: Optional[FaultPlan] = None,
        backend: str = "inproc",
        verify_plans: Optional[bool] = None,
    ):
        self.model = model
        self.cluster = cluster
        self.plan = plan
        self.seed = seed
        self.fault_plan = fault_plan
        self.backend = make_backend(backend)
        self.backend_name = self.backend.name
        self.verify_plans = verify_plans
        # Events fire once each; the set survives a rescale's re-__init__
        # so a replayed iteration does not re-kill the same worker.
        self._faults_fired = getattr(self, "_faults_fired", set())
        self.transformed = transform_graph(model.graph, model.loss, cluster,
                                           plan, verify=verify_plans)
        self.session = DistributedSession(self.transformed, seed=seed,
                                          transcript=transcript)
        if self.backend_name == "inproc":
            # This process runs every replica: seed them all here, where
            # eager stores did; seeded inside step 1 its steps ran slower.
            for store in (self.session.ps_store, *self.session.replica_stores):
                for name in store.names():
                    store.read(name)
        n = self.transformed.num_replicas
        self.shards = [model.dataset.shard(n, r) for r in range(n)]
        # Placeholder routing is static: replica r's k-th dataset array
        # always feeds the same transformed placeholder.  Resolve the name
        # indirection once instead of per iteration.
        self._feed_names = [
            [self.transformed.placeholder_names[tensor.name][r]
             for tensor in model.placeholders.values()]
            for r in range(n)
        ]
        # Compile-once/execute-many: the step fetches never change, so
        # synchronous plans compile one plan (all losses + the global train
        # op) and asynchronous plans one per replica -- here, not in the
        # iteration loop.  Every step() afterwards is pure plan replay.
        if self.transformed.replica_train_ops is None:
            self._step_fetches = [
                list(self.transformed.replica_losses)
                + [self.transformed.train_op]
            ]
        else:
            self._step_fetches = [
                [self.transformed.replica_losses[r],
                 self.transformed.replica_train_ops[r]]
                for r in range(n)
            ]
        self.step_plans = []
        if self.backend_name == "inproc":
            # Multiproc workers compile their own partitioned schedules;
            # the controller's monolithic step plans would never replay.
            self.step_plans = [self.session.compile(fetches)
                               for fetches in self._step_fetches]
            fed_names = {name
                         for names in self.transformed.placeholder_names.values()
                         for name in names}
            for step_plan in self.step_plans:
                step_plan.validate_placeholders(fed_names)
        # The backend starts last: it may snapshot runner attributes (or
        # spawn worker processes from them).
        self.backend.start(self)

    @property
    def num_replicas(self) -> int:
        return self.transformed.num_replicas

    @property
    def transcript(self) -> Transcript:
        return self.session.transcript

    def feeds_for(self, iteration: int) -> Dict[str, np.ndarray]:
        """Per-replica placeholder feeds for one iteration."""
        feeds: Dict[str, np.ndarray] = {}
        batch_size = self.model.batch_size
        for r, names in enumerate(self._feed_names):
            batch = self.shards[r].batch(batch_size, iteration)
            if len(batch) != len(names):
                raise ValueError(
                    f"dataset yields {len(batch)} arrays but the model has "
                    f"{len(names)} placeholders"
                )
            for name, array in zip(names, batch):
                feeds[name] = array
        return feeds

    def step(self, iteration: int) -> IterationResult:
        """Run one training iteration.

        Synchronous plans fetch every replica's loss plus the global train
        op in one execution (all workers see the same variable snapshot).
        Asynchronous plans step workers one after another: each applies
        its own gradients before the next worker reads the variables, so
        later workers see fresher (and earlier iterations' workers see
        staler) state -- the staleness the paper's section 2.1 discusses.

        When a :class:`FaultPlan` is installed, this iteration's scheduled
        worker kill fires first: it notes itself into the transcript and
        raises :class:`WorkerFailureError` (each kill at most once --
        recovery replays the iteration without re-dying).

        *Where* the step executes is the installed
        :class:`~repro.core.backend.ExecutionBackend`'s business: the
        default ``inproc`` backend replays compiled plans in this
        process; the ``multiproc`` backend drives one worker process per
        replica and returns the same losses bit for bit.
        """
        self._inject_faults(iteration)
        start = time.perf_counter()
        losses = self.backend.run_step(iteration)
        return IterationResult(
            iteration=iteration,
            mean_loss=float(np.mean(losses)),
            replica_losses=losses,
            wall_time=time.perf_counter() - start,
        )

    def _inject_faults(self, iteration: int) -> None:
        """Fire this iteration's scheduled faults (each at most once)."""
        if self.fault_plan is None:
            return
        for failure in self.fault_plan.failures_at(iteration):
            if (failure in self._faults_fired
                    or failure.worker >= self.num_replicas):
                continue
            self._faults_fired.add(failure)
            machine = self.cluster.machine_of_worker(failure.worker)
            self.transcript.note(
                "fault/worker_kill", iteration=iteration,
                worker=failure.worker, machine=machine,
            )
            raise WorkerFailureError(iteration, failure.worker, machine)

    def run(self, num_iterations: int,
            start_iteration: int = 0) -> List[IterationResult]:
        return [
            self.step(i)
            for i in range(start_iteration, start_iteration + num_iterations)
        ]

    # Filled in by get_runner when it drives this runner.
    partition_search = None
    config = None

    # -- checkpointing ------------------------------------------------------
    def logical_state(self) -> Dict[str, np.ndarray]:
        """Deduplicated variable state: PS values plus replica-0 copies.

        Optimizer slot variables are included, so a save/restore round
        trip resumes training exactly.  Reads route through the
        execution backend -- under ``multiproc`` the authoritative values
        live in the worker processes, not this one.
        """
        names = self.transformed.logical_variable_names
        values = self.backend.read_variables(sorted(set(names.values())))
        return {base: values[name] for base, name in names.items()}

    def save(self, path: str) -> str:
        """Write all logical variable values to an ``.npz`` checkpoint."""
        np.savez(path, **self.logical_state())
        return path if path.endswith(".npz") else path + ".npz"

    def restore(self, path: str, strict: bool = True) -> None:
        """Load a checkpoint into the servers and every replica's copy.

        By default the checkpoint must cover exactly the graph's logical
        variable set (the names :meth:`logical_state` writes); name
        mismatches raise ``ValueError`` listing both directions instead of
        silently restoring a partial state.  ``strict=False`` keeps the
        old best-effort behaviour: matching names load, the rest keep
        their current values.
        """
        with np.load(path) as data:
            values = {name: data[name] for name in data.files}
        if strict:
            logical = set(self.transformed.logical_variable_names)
            missing = sorted(logical - set(values))
            unexpected = sorted(set(values) - logical)
            if missing or unexpected:
                raise ValueError(
                    f"checkpoint {path!r} does not match the graph's "
                    f"variables: missing {missing}, unexpected "
                    f"{unexpected} (pass strict=False to load the "
                    "intersection)"
                )
        self._load_state(values)

    def _load_state(self, values: Dict[str, np.ndarray]) -> None:
        """Load logical (base-named) values through the backend.

        The migration primitive behind both ``restore`` and the elastic
        rescale: a base name loads into the PS store or into *all*
        replica copies (under ``multiproc``, on the worker owning each),
        names absent from *values* keep their current state.
        """
        self.backend.load_state(values)

    def close(self) -> None:
        """Release backend resources (worker processes, transports)."""
        self.backend.shutdown()

    # -- inspection helpers (used by tests and examples) -------------------
    def replica_variable(self, replica: int, original_name: str) -> np.ndarray:
        """Current value of an AR variable on one replica."""
        names = self.transformed.replica_variables.get(original_name)
        if names is None:
            raise KeyError(f"{original_name!r} is not a replicated variable")
        name = names[replica]
        return self.backend.read_variables([name])[name]

    def server_variable(self, original_name: str) -> np.ndarray:
        """Current value of a PS variable on its server."""
        if original_name not in self.transformed.ps_placement:
            raise KeyError(f"{original_name!r} is not a PS variable")
        return self.backend.read_variables([original_name])[original_name]

    def variable_value(self, original_name: str) -> np.ndarray:
        """Current logical value of any variable (replica 0 view)."""
        if original_name in self.transformed.ps_placement:
            return self.server_variable(original_name)
        return self.replica_variable(0, original_name)
