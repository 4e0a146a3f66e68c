"""Elastic cluster runtime: checkpoint-backed rescaling and recovery.

Parallax's transform assumes a fixed cluster; this module makes the
transformed graph *elastic*.  :class:`ElasticRunner` extends
:class:`~repro.core.runner.DistributedRunner` with:

* ``rescale(new_cluster)`` -- snapshot logical state through the existing
  checkpoint path, re-run ``transform_graph`` (and with it the greedy
  ``place_variables`` placement) for the new replica count, migrate dense
  replica state and bit-exactly re-shard partitioned sparse variables
  when the partition count changes, and re-compile step plans through the
  compile-once engine;
* a checkpoint cadence (``checkpoint_every``) plus ``run_elastic`` -- a
  driving loop that recovers from scheduled
  :class:`~repro.cluster.faults.WorkerFailure` events by restoring the
  last checkpoint (optionally shrink-rescaling away the dead machine) and
  replaying the lost iterations.

The state contract is the logical (base-named) variable dict
``DistributedRunner.logical_state`` already defines, so an elastic
migration and a ``save``/``restore`` round trip are the same operation
-- which is exactly what the differential tests exploit.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.faults import FaultPlan, WorkerFailureError
from repro.cluster.spec import ClusterSpec
from repro.comm.ps import merge_shards, split_rows
from repro.comm.transcript import Transcript
from repro.core.partition_context import sampling_partitions
from repro.core.runner import DistributedRunner, IterationResult
from repro.core.transform.plan import GraphSyncPlan
from repro.graph.executor import CompiledPlan
from repro.graph.graph import Graph
from repro.nn.models.common import BuiltModel

__all__ = ["ElasticRunner", "partition_layout", "reshard_logical_state",
           "replicated_slot_suffixes"]


def partition_layout(graph: Graph) -> Dict[str, List[int]]:
    """Parent variable name -> row-offset boundaries, for one graph."""
    return {
        pvar.name: list(pvar.offsets)
        for pvar in graph.get_collection("partitioned_variables")
    }


def _shard_group(parent: str, num_partitions: int,
                 suffix: Optional[str]) -> List[str]:
    names = []
    for p in range(num_partitions):
        base = f"{parent}/part_{p}"
        names.append(base if suffix is None else f"{base}/{suffix}")
    return names


def replicated_slot_suffixes(graph: Graph,
                             layout: Dict[str, List[int]],
                             ) -> Dict[str, set]:
    """Per parent, the slot suffixes that are NOT row-sharded.

    Structural rule, read off the graph that owns the shards: a slot
    variable ``parent/part_p/<suffix>`` is row-sharded iff its shape
    equals its shard's shape (velocity, adam_m, ...); anything else
    (Adam's ``(1,)`` step counter) is per-shard bookkeeping that must be
    replicated, not split.  Comparing full shapes -- not just the leading
    dimension -- keeps 1-row shards unambiguous.
    """
    out: Dict[str, set] = {}
    for parent, offsets in layout.items():
        replicated = set()
        for p in range(len(offsets) - 1):
            shard_name = f"{parent}/part_{p}"
            shard_shape = graph.variables[shard_name].shape
            prefix = shard_name + "/"
            for name, var in graph.variables.items():
                if name.startswith(prefix) and var.shape != shard_shape:
                    replicated.add(name[len(prefix):])
        out[parent] = replicated
    return out


def reshard_logical_state(
    state: Dict[str, np.ndarray],
    old_layout: Dict[str, List[int]],
    new_layout: Dict[str, List[int]],
    replicated: Dict[str, set],
) -> Dict[str, np.ndarray]:
    """Re-shard a logical state dict from one partition layout to another.

    For every partitioned parent, the old shards (and their row-shaped
    optimizer slots, e.g. ``emb/part_0/velocity``) are concatenated in
    partition order and re-split at the new offsets -- pure row movement,
    so ``concat(new shards) == concat(old shards)`` bit-for-bit.
    Per-shard bookkeeping slots that are not row-sharded (Adam's step
    counter) must agree across shards and are replicated into the new
    layout.  Unpartitioned variables pass through untouched.

    ``replicated`` names, per parent, the slot suffixes to replicate
    rather than split; :func:`replicated_slot_suffixes` derives it
    structurally from the graph that owns the old shards.
    """
    if set(old_layout) != set(new_layout):
        raise ValueError(
            f"partitioned variables differ between layouts: "
            f"{sorted(set(old_layout) ^ set(new_layout))}"
        )
    out = dict(state)
    for parent, old_offsets in old_layout.items():
        new_offsets = new_layout[parent]
        old_p = len(old_offsets) - 1
        new_p = len(new_offsets) - 1
        if old_offsets[-1] != new_offsets[-1]:
            raise ValueError(
                f"{parent!r}: old layout has {old_offsets[-1]} rows but "
                f"new layout has {new_offsets[-1]}"
            )

        # Discover slot suffixes riding on the shards (velocity, adam_m,
        # adam_step, ...); None stands for the shard value itself.
        suffixes: set = set()
        for p in range(old_p):
            prefix = f"{parent}/part_{p}/"
            suffixes.update(
                key[len(prefix):] for key in state if key.startswith(prefix)
            )
        for suffix in [None] + sorted(suffixes):
            old_names = _shard_group(parent, old_p, suffix)
            missing = [n for n in old_names if n not in state]
            if missing:
                raise ValueError(
                    f"state is missing shards of {parent!r}: {missing}"
                )
            pieces = [np.asarray(state[n]) for n in old_names]
            if suffix not in replicated.get(parent, ()):
                new_pieces = split_rows(merge_shards(pieces), new_offsets)
            else:
                # Replicated per-shard bookkeeping: every shard must hold
                # the same value (synchronous training updates them in
                # lock step), so the new shards inherit it verbatim.
                for name, piece in zip(old_names[1:], pieces[1:]):
                    if not np.array_equal(piece, pieces[0]):
                        raise ValueError(
                            f"cannot re-shard {name!r}: per-shard values "
                            "disagree and are not row-sharded"
                        )
                new_pieces = [pieces[0].copy() for _ in range(new_p)]
            for name in old_names:
                del out[name]
            new_names = _shard_group(parent, new_p, suffix)
            for name, piece in zip(new_names, new_pieces):
                out[name] = piece
    return out


class ElasticRunner(DistributedRunner):
    """A :class:`DistributedRunner` that survives rescales and failures.

    Args:
        model: the built single-GPU model (as for DistributedRunner).
        cluster: the initial cluster.
        plan: the initial synchronization plan.
        model_builder: optional zero-argument builder (the ``get_runner``
            contract: builds the graph including ``gradients`` and
            ``opt.update``).  Required only for rescales that change the
            partition count, which must rebuild the single-GPU graph.
        plan_builder: optional ``graph -> GraphSyncPlan`` used to re-plan
            a rebuilt graph (shard names change with the partition
            count).  Required together with ``model_builder``.
        checkpoint_every: in-memory checkpoint cadence of
            :meth:`run_elastic` (iterations per snapshot).
        fault_plan: deterministic failure schedule injected into ``step``.
    """

    def __init__(
        self,
        model: BuiltModel,
        cluster: ClusterSpec,
        plan: GraphSyncPlan,
        *,
        model_builder: Optional[Callable[[], BuiltModel]] = None,
        plan_builder: Optional[Callable[[Graph], GraphSyncPlan]] = None,
        checkpoint_every: int = 1,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 0,
        transcript: Optional[Transcript] = None,
        backend: str = "inproc",
        verify_plans: Optional[bool] = None,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if model_builder is not None and plan_builder is None:
            raise ValueError(
                "model_builder requires a plan_builder: a rebuilt graph "
                "has new shard names and needs a fresh plan"
            )
        super().__init__(model, cluster, plan, seed=seed,
                         transcript=transcript, fault_plan=fault_plan,
                         backend=backend, verify_plans=verify_plans)
        self.model_builder = model_builder
        self.plan_builder = plan_builder
        self.checkpoint_every = checkpoint_every
        self.num_rescales = 0
        self._progress = 0
        self._checkpoint_iteration = 0
        self._servers: List = []
        self._checkpoint_state = self._snapshot()

    # -- checkpoint cadence ----------------------------------------------
    def _snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of the logical state (kernels mutate arrays in place)."""
        return {k: v.copy() for k, v in self.logical_state().items()}

    def checkpoint(self, next_iteration: int) -> None:
        """Snapshot state as the recovery point for *next_iteration*."""
        self._checkpoint_iteration = int(next_iteration)
        self._checkpoint_state = self._snapshot()
        # Train-and-serve: hand the freshly cut snapshot to every
        # attached server.  The server swaps between batches, so a live
        # serving fleet tracks training at checkpoint cadence while each
        # batch still sees exactly one weight generation.
        for server in self._servers:
            server.reload(self._checkpoint_state)

    # -- train-and-serve hot reload ---------------------------------------
    def attach_server(self, server) -> None:
        """Hot-reload *server* from every future checkpoint.

        *server* is anything with ``reload(state)`` (an
        :class:`~repro.serve.server.InferenceServer`); each
        ``checkpoint()`` pushes the snapshot it just cut, which is
        bit-exact against a cold server restored from the same state.
        """
        self._servers.append(server)

    def detach_server(self, server) -> None:
        self._servers.remove(server)

    def step(self, iteration: int) -> IterationResult:
        result = super().step(iteration)
        self._progress = iteration + 1
        return result

    # -- rescaling --------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Partition count of the current model (1 when unpartitioned)."""
        layout = partition_layout(self.model.graph)
        if not layout:
            return 1
        return max(len(offsets) - 1 for offsets in layout.values())

    def rescale(
        self,
        new_cluster: ClusterSpec,
        num_partitions: Optional[int] = None,
        state: Optional[Dict[str, np.ndarray]] = None,
    ) -> "ElasticRunner":
        """Migrate training onto *new_cluster* without losing state.

        Snapshots logical state (or uses the provided *state*), rebuilds
        the single-GPU model when *num_partitions* changes (re-sharding
        the snapshot bit-exactly), re-runs the graph transformation --
        which re-places PS variables for the new machine count -- and
        recompiles the step plans.  Training resumes exactly where the
        snapshot left off: the next ``step`` on M replicas is
        bit-identical to a fresh M-replica runner restored from the same
        checkpoint.
        """
        start = time.perf_counter()
        if state is None:
            state = self._snapshot()
        model, plan = self.model, self.plan
        if (num_partitions is not None
                and num_partitions != self.num_partitions):
            if self.model_builder is None:
                raise ValueError(
                    "changing the partition count requires a model_builder "
                    "(the single-GPU graph must be rebuilt)"
                )
            old_layout = partition_layout(self.model.graph)
            if not old_layout:
                raise ValueError(
                    "model has no partitioned variables to re-shard"
                )
            with sampling_partitions(num_partitions):
                model = self.model_builder()
            if not model.graph.gradient_info:
                raise ValueError(
                    "model builder must call gradients() and opt.update() "
                    "(see paper Figure 3)"
                )
            state = reshard_logical_state(
                state, old_layout, partition_layout(model.graph),
                replicated=replicated_slot_suffixes(self.model.graph,
                                                    old_layout))
            plan = self.plan_builder(model.graph)

        old_replicas = self.num_replicas
        compiled_before = CompiledPlan.compiled_total
        transcript = self.transcript
        # Keep the old runner guts so a failed migration can roll back:
        # rescale is atomic -- it either completes or leaves the runner
        # exactly as it was.  The old execution backend (and with it any
        # worker processes) stays alive until the migration commits.
        old_guts = {
            name: getattr(self, name)
            for name in ("model", "cluster", "plan", "transformed",
                         "session", "shards", "_feed_names",
                         "_step_fetches", "step_plans", "backend")
        }
        # Re-run the full construction pipeline: transform (placement for
        # the new machine count), session stores, compiled step plans,
        # and a fresh backend configured like the old one -- under
        # ``multiproc`` this respawns one worker process per new replica
        # and reconnects the transport.  ANY failure in the pipeline
        # (worker spawn, state validation, the state broadcast) rolls
        # the runner back to the pre-rescale guts, old worker fleet
        # included -- rescale is atomic.
        try:
            DistributedRunner.__init__(self, model, new_cluster, plan,
                                       seed=self.seed,
                                       transcript=transcript,
                                       fault_plan=self.fault_plan,
                                       backend=old_guts["backend"].fresh(),
                                       verify_plans=self.verify_plans)
            expected = set(self.transformed.logical_variable_names)
            mismatch = sorted(expected ^ set(state))
            if mismatch:
                raise ValueError(
                    f"rescale state does not match the new graph's "
                    f"logical variables; mismatched names: {mismatch[:8]}"
                )
            self._load_state(state)
        except BaseException:
            if self.backend is not old_guts["backend"]:
                self.backend.shutdown(force=True)
            for name, value in old_guts.items():
                setattr(self, name, value)
            raise
        # The migration committed: release the pre-rescale backend's
        # workers (a no-op for inproc).
        old_guts["backend"].shutdown()
        self.num_rescales += 1
        # The migrated state is the new recovery point: the old
        # checkpoint's names may no longer exist after a re-shard.
        self.checkpoint(self._progress)
        self.transcript.note(
            "elastic/rescale", iteration=self._progress,
            old_replicas=old_replicas, new_replicas=self.num_replicas,
            num_partitions=self.num_partitions,
            plans_compiled=CompiledPlan.compiled_total - compiled_before,
            wall_time=time.perf_counter() - start,
        )
        return self

    # -- fault-tolerant driving loop -------------------------------------
    def run_elastic(
        self,
        num_iterations: int,
        start_iteration: int = 0,
        shrink_on_failure: bool = False,
    ) -> List[IterationResult]:
        """Train through the fault plan, recovering from worker kills.

        Checkpoints every ``checkpoint_every`` completed iterations.  A
        :class:`WorkerFailureError` rolls back to the last checkpoint
        (discarding the results of lost iterations), optionally evicting
        the failed worker's machine first (``shrink_on_failure``), then
        replays.  Returns one result per distinct iteration; replayed
        attempts overwrite the lost ones.
        """
        results: List[IterationResult] = []
        end = start_iteration + num_iterations
        self.checkpoint(start_iteration)
        i = start_iteration
        while i < end:
            try:
                result = self.step(i)
            except WorkerFailureError as failure:
                self._recover(failure, shrink=shrink_on_failure)
                del results[self._checkpoint_iteration - start_iteration:]
                i = self._checkpoint_iteration
                continue
            results.append(result)
            i += 1
            if (i - start_iteration) % self.checkpoint_every == 0:
                self.checkpoint(i)
        return results

    def _recover(self, failure: WorkerFailureError, shrink: bool) -> None:
        start = time.perf_counter()
        lost = failure.iteration - self._checkpoint_iteration
        state = {k: v.copy() for k, v in self._checkpoint_state.items()}
        # Roll progress back first so a shrink-rescale checkpoints the
        # restored state under the checkpoint's iteration number.
        self._progress = self._checkpoint_iteration
        if shrink and self.cluster.num_machines > 1:
            action = "shrink"
            self.rescale(self.cluster.without_machine(failure.machine),
                         state=state)
        else:
            action = "restore"
            self._load_state(state)
        self.transcript.note(
            "elastic/recovery", iteration=failure.iteration,
            action=action, lost_iterations=lost, worker=failure.worker,
            machine=failure.machine, wall_time=time.perf_counter() - start,
        )
