"""Graph-level synchronization plans and variable classification.

The performance plane plans over :class:`~repro.nn.profiles.ModelProfile`
inventories; the functional plane plans over the variables of an actual
graph.  Both read the one architecture table,
:data:`repro.cluster.plan.ARCHITECTURES`.  This module provides the
graph-side plan plus the classification step Parallax performs after
autodiff: a variable is *sparse* iff its gradient tensor is
IndexedSlices-typed (paper section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.plan import ARCHITECTURES, SyncMethod
from repro.graph.gradients import grad_tensor_is_sparse
from repro.graph.graph import Graph

#: Size cap of one fused AllReduce bucket, in megabytes (Horovod's
#: tensor-fusion buffer).
FUSION_BUFFER_MB = 4.0


def classify_variables(graph: Graph) -> Dict[str, bool]:
    """Variable name -> is_sparse, from recorded gradient info.

    Requires ``gradients()`` to have run on the graph (it populates
    ``graph.gradient_info``, the MetaGraphDef extension).  Variables
    without a recorded gradient (non-trainable, unused) are omitted.
    """
    result: Dict[str, bool] = {}
    for var_name, grad_name in graph.gradient_info.items():
        grad_op = graph.get_op(grad_name)
        result[var_name] = grad_tensor_is_sparse(grad_op.output)
    return result


@dataclass(frozen=True)
class GraphSyncPlan:
    """Synchronization decisions for the variables of one graph.

    Section 4.1's per-type aggregation method ("whether to compute the
    average ... or to compute the sum instead") is fixed to the average,
    the method every workload uses: every PS aggregation and collective
    divides by the worker count.
    """

    name: str
    methods: Dict[str, SyncMethod]
    local_aggregation: bool = True
    smart_placement: bool = True
    # Asynchronous PS training (paper section 2.1: "Parallax supports both
    # synchronous and asynchronous training").  Each worker applies its own
    # gradients to the servers without waiting for the others; only valid
    # when every variable uses the PS method (collectives are inherently
    # synchronous).
    asynchronous: bool = False
    # Tensor fusion (Horovod-style): dense AllReduce gradients ride one
    # collective per bucket of at most this size.  The packed ring keeps
    # every element's summation order, so the cap moves messages, not bits.
    fusion_buffer_mb: float = FUSION_BUFFER_MB

    def __post_init__(self):
        if self.fusion_buffer_mb <= 0:
            raise ValueError("fusion_buffer_mb must be > 0")
        if self.asynchronous:
            offenders = [
                name for name, m in self.methods.items()
                if m is not SyncMethod.PS
            ]
            if offenders:
                raise ValueError(
                    "asynchronous training requires the PS method for every "
                    f"variable; offending: {offenders[:3]}"
                )

    def method_of(self, var_name: str) -> SyncMethod:
        try:
            return self.methods[var_name]
        except KeyError:
            raise KeyError(
                f"plan {self.name!r} has no method for variable "
                f"{var_name!r}"
            ) from None

    @property
    def ps_variables(self):
        return [v for v, m in self.methods.items() if m is SyncMethod.PS]


def graph_plan(graph: Graph, architecture: str,
               sparse_as_dense: Optional[Dict[str, bool]] = None,
               fusion_buffer_mb: float = FUSION_BUFFER_MB) -> GraphSyncPlan:
    """The engine's plan of *architecture* (an
    :data:`~repro.cluster.plan.ARCHITECTURES` key) for *graph*.

    ``sparse_as_dense`` names sparse variables whose measured alpha is
    near 1; an architecture with the section 3.1 refinement gives them
    the dense method despite their sparse gradient type.  The AllReduce
    variables are packed into ``fusion_buffer_mb``-capped buckets.
    """
    arch = ARCHITECTURES[architecture]
    overrides = (sparse_as_dense or {}) if arch.near_dense_as_dense else {}
    methods = {
        name: (arch.sparse if sparse and not overrides.get(name, False)
               else arch.dense)
        for name, sparse in classify_variables(graph).items()
    }
    return GraphSyncPlan(arch.label, methods, arch.optimized, arch.optimized,
                         fusion_buffer_mb=fusion_buffer_mb)


def _fused_only(fusion: bool) -> None:
    # ``fusion`` stays a keyword only because ``bench/training.py`` passes
    # ``fusion=True``; it goes once the benchmark stops (ROADMAP item 14).
    if fusion is not True:
        raise ValueError(f"fusion={fusion!r}: every dense AllReduce is a "
                         "fused bucket; size it with fusion_buffer_mb")


def hybrid_graph_plan(graph: Graph, fusion: bool = True,
                      **kw) -> GraphSyncPlan:
    """Parallax's rule: sparse -> PS, dense -> AllReduce (section 3.1)."""
    _fused_only(fusion)
    return graph_plan(graph, "hybrid", **kw)


def ar_graph_plan(graph: Graph, fusion: bool = True,
                  **kw) -> GraphSyncPlan:
    """Pure collective plan (Horovod): AllReduce dense, AllGatherv sparse."""
    _fused_only(fusion)
    return graph_plan(graph, "ar", **kw)
