"""Synchronization plans: which method synchronizes which variable.

A :class:`SyncPlan` is the shared contract between the strategy layer
(baselines and Parallax's hybrid assignment) and the two execution planes:
the functional engine transforms the graph according to it, and the
performance simulator prices it.  It captures the paper's design space:

* per-variable method -- AllReduce, AllGatherv, or PS;
* per-variable partition count for PS-managed sparse variables;
* the OptPS optimizations: local (per-machine) gradient aggregation and
  smart placement of aggregation/update ops on the variable's server.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.nn.profiles import VariableProfile


class SyncMethod(enum.Enum):
    """How one variable's gradients are synchronized across workers."""

    ALLREDUCE = "allreduce"    # dense collective (NCCL-style ring)
    ALLGATHERV = "allgatherv"  # sparse collective (MPI-style ring)
    PS = "ps"                  # parameter server push/pull


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
    average_gradients: bool = True
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

    def with_fusion(self, fusion_buffer_mb: Optional[float]) -> "SyncPlan":
        """Same plan under a different fusion-bucket cap (ablations)."""
        return replace(self, fusion_buffer_mb=fusion_buffer_mb)

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

    def with_partitions(self, num_partitions: int) -> "SyncPlan":
        """Same plan with every PS *sparse* variable re-partitioned.

        Mirrors the paper's ``partitioner`` scope: one partition count is
        searched for all variables in the partitioner context.
        """
        updated = []
        for a in self.assignments:
            if a.method is SyncMethod.PS and a.variable.is_sparse:
                bounded = num_partitions
                if a.variable.rows is not None:
                    bounded = min(bounded, a.variable.rows)
                updated.append(replace(a, num_partitions=bounded))
            else:
                updated.append(a)
        return replace(self, assignments=updated)

    def max_partitions(self) -> int:
        return max((a.num_partitions for a in self.assignments), default=1)

    def describe(self) -> str:
        lines = [f"SyncPlan {self.name!r} (local_agg={self.local_aggregation}, "
                 f"smart_placement={self.smart_placement})"]
        for a in self.assignments:
            extra = (f" P={a.num_partitions}"
                     if a.num_partitions > 1 else "")
            lines.append(
                f"  {a.variable.name}: {a.method.value}{extra} "
                f"({a.variable.num_elements:,} elems"
                f"{', sparse' if a.variable.is_sparse else ''})"
            )
        return "\n".join(lines)
