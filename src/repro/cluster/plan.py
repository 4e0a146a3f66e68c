"""Synchronization architectures and the simulator's plans.

:data:`ARCHITECTURES` is the paper's Table 4 design space, one entry per
architecture: the method for sparse variables, the method for dense
ones, and whether OptPS's local aggregation and smart placement are on
(sections 3.1 and 6.4).  Both planes build their plans from it: the
performance simulator prices a :class:`SyncPlan` from
:func:`profile_plan`, and the functional engine transforms a graph
under the ``GraphSyncPlan`` of
:func:`repro.core.transform.plan.graph_plan`.  Ablations and async SGD
change a built plan's flags with :func:`dataclasses.replace`.

A :class:`SyncPlan` adds what only the simulator prices: per-variable
partition counts for PS-managed sparse variables, and the dense
AllReduce fusion-bucket cap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.nn.profiles import ModelProfile, VariableProfile


class SyncMethod(enum.Enum):
    """How one variable's gradients are synchronized across workers."""

    ALLREDUCE = "allreduce"    # dense collective (NCCL-style ring)
    ALLGATHERV = "allgatherv"  # sparse collective (MPI-style ring)
    PS = "ps"                  # parameter server push/pull


@dataclass(frozen=True)
class Architecture:
    """One synchronization architecture of the paper's Table 4."""

    label: str             # the system's name in the paper's tables
    sparse: SyncMethod     # method for IndexedSlices-gradient variables
    dense: SyncMethod      # method for dense-gradient variables
    optimized: bool        # OptPS: local aggregation + smart placement
    # Section 3.1's refinement: a sparse variable whose alpha is near 1
    # moves almost its full size anyway, so it is synchronized the dense
    # way ("it may be helpful to handle the variable as a dense variable
    # and use AllReduce").
    near_dense_as_dense: bool = False


ARCHITECTURES: Dict[str, Architecture] = {
    # Parallax: sparse -> PS, dense -> AllReduce, OptPS optimizations on.
    "hybrid": Architecture("parallax", SyncMethod.PS, SyncMethod.ALLREDUCE,
                           True, near_dense_as_dense=True),
    # TensorFlow 1.6's SyncReplicasOptimizer ("TF-PS"): everything on
    # servers, every worker pushes its own gradient, default placement.
    "ps": Architecture("tf_ps", SyncMethod.PS, SyncMethod.PS, False),
    # The same placement with local aggregation and smart placement.
    "opt_ps": Architecture("opt_ps", SyncMethod.PS, SyncMethod.PS, True),
    # Horovod 0.11.2: NCCL ring AllReduce for dense gradients, the MPI
    # AllGatherv fallback for IndexedSlices (paper Table 3).
    "ar": Architecture("horovod", SyncMethod.ALLGATHERV,
                       SyncMethod.ALLREDUCE, False),
}

# Above this alpha a near-dense sparse variable is synchronized as dense.
# The paper states the principle without a number; the ablation bench
# (benchmarks/test_ablations.py) sweeps it.
DEFAULT_SPARSE_AS_DENSE_THRESHOLD = 0.95


def fusion_buckets(sizes_bytes: List[float],
                   cap_bytes: float) -> List[List[int]]:
    """Greedy size-capped grouping, preserving order.

    Consecutive entries share a bucket until adding the next one would
    exceed *cap_bytes*; an entry larger than the cap gets its own bucket.
    Returns index lists into the input order.  Both planes bucket through
    this one function so the simulator's bucket counts match the graph
    transform's by construction.
    """
    buckets: List[List[int]] = []
    current: List[int] = []
    current_bytes = 0.0
    for i, nbytes in enumerate(sizes_bytes):
        if current and current_bytes + nbytes > cap_bytes:
            buckets.append(current)
            current, current_bytes = [], 0.0
        current.append(i)
        current_bytes += nbytes
    if current:
        buckets.append(current)
    return buckets


@dataclass(frozen=True)
class VariableAssignment:
    """One variable's synchronization decision."""

    variable: VariableProfile
    method: SyncMethod
    num_partitions: int = 1

    def __post_init__(self):
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.num_partitions > 1 and self.method is not SyncMethod.PS:
            raise ValueError(
                f"{self.variable.name}: partitioning only applies to PS "
                f"variables (got {self.method})"
            )
        if (self.variable.rows is not None
                and self.num_partitions > self.variable.rows):
            raise ValueError(
                f"{self.variable.name}: cannot split {self.variable.rows} "
                f"rows into {self.num_partitions} partitions"
            )

    @property
    def shard_nbytes(self) -> float:
        return self.variable.nbytes / self.num_partitions


@dataclass(frozen=True)
class SyncPlan:
    """A complete synchronization strategy for one model."""

    name: str
    assignments: List[VariableAssignment]
    local_aggregation: bool = False
    smart_placement: bool = False
    # Dense AllReduce fusion-bucket cap for the performance plane:
    #   None -> legacy aggregate pricing (one ring over all dense bytes,
    #           no per-collective launch cost, no AR/compute overlap);
    #   0.0  -> unfused: one bucket (one collective) per variable;
    #   >0   -> greedy size-capped buckets in assignment order.
    fusion_buffer_mb: Optional[float] = None

    def __post_init__(self):
        if self.fusion_buffer_mb is not None and self.fusion_buffer_mb < 0:
            raise ValueError("fusion_buffer_mb must be >= 0 (or None)")

    def by_method(self, method: SyncMethod) -> List[VariableAssignment]:
        return [a for a in self.assignments if a.method is method]

    @property
    def allreduce_bytes(self) -> int:
        return sum(a.variable.nbytes
                   for a in self.by_method(SyncMethod.ALLREDUCE))

    @property
    def ps_assignments(self) -> List[VariableAssignment]:
        return self.by_method(SyncMethod.PS)

    @property
    def gatherv_assignments(self) -> List[VariableAssignment]:
        return self.by_method(SyncMethod.ALLGATHERV)

    def allreduce_buckets(self) -> List[float]:
        """Per-bucket payload bytes for bucketed AR pricing.

        ``fusion_buffer_mb`` of 0 (or None) yields one bucket per
        AllReduce variable; a positive cap groups consecutive variables
        greedily, in assignment order, exactly as the functional plane's
        graph transform buckets gradients.
        """
        sizes = [float(a.variable.nbytes)
                 for a in self.by_method(SyncMethod.ALLREDUCE)]
        cap = self.fusion_buffer_mb
        if not cap:
            return sizes
        return [sum(sizes[i] for i in bucket)
                for bucket in fusion_buckets(sizes, cap * 1024 * 1024)]


def profile_plan(
    profile: ModelProfile,
    architecture: str,
    num_partitions: int = 1,
    sparse_as_dense_threshold: float = DEFAULT_SPARSE_AS_DENSE_THRESHOLD,
) -> SyncPlan:
    """The simulator's plan of *architecture* (an :data:`ARCHITECTURES`
    key) for *profile*.

    PS-managed sparse variables are split into *num_partitions* (bounded
    by their rows); under an architecture with the near-1 refinement, a
    sparse variable whose alpha reaches *sparse_as_dense_threshold* takes
    the dense method.
    """
    arch = ARCHITECTURES[architecture]
    assignments = []
    for v in profile.variables:
        sparse = v.is_sparse and not (arch.near_dense_as_dense
                                      and v.alpha >= sparse_as_dense_threshold)
        method = arch.sparse if sparse else arch.dense
        partitions = (min(num_partitions, v.rows)
                      if sparse and method is SyncMethod.PS else 1)
        assignments.append(VariableAssignment(v, method, partitions))
    return SyncPlan(
        name=f"{arch.label}({profile.name})",
        assignments=assignments,
        local_aggregation=arch.optimized,
        smart_placement=arch.optimized,
    )
