"""Parallax core: the paper's primary contribution.

* :mod:`repro.core.partitioner` -- cost-model-driven search for the
  number of sparse-variable partitions (section 3.2, Equation 1).
* :mod:`repro.core.transform` -- automatic graph transformation from a
  single-GPU graph to a distributed one (section 4.3).
* :mod:`repro.core.api` -- the user-facing ``shard`` / ``partitioner`` /
  ``get_runner`` interface (section 4.1, Figure 3).
* :mod:`repro.core.runner` -- the functional distributed execution engine.
"""

from repro.core.partitioner import (
    PartitionCostModel,
    PartitionSearch,
    SearchResult,
    brute_force_search,
    fit_cost_model,
)
from repro.core.api import (
    ParallaxConfig,
    get_runner,
    measure_alpha,
    resolve_cluster,
    shard,
)
from repro.core.backend import (
    BACKENDS,
    ExecutionBackend,
    InprocBackend,
    MultiprocBackend,
    make_backend,
)
from repro.core.partition_context import partitioner
from repro.core.runner import DistributedRunner, DistributedSession
from repro.core.transform import (
    GraphSyncPlan,
    classify_variables,
    transform_graph,
    TransformedGraph,
)
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)

__all__ = [
    "PartitionCostModel",
    "PartitionSearch",
    "SearchResult",
    "brute_force_search",
    "fit_cost_model",
    "ParallaxConfig",
    "get_runner",
    "measure_alpha",
    "resolve_cluster",
    "shard",
    "partitioner",
    "BACKENDS",
    "ExecutionBackend",
    "InprocBackend",
    "MultiprocBackend",
    "make_backend",
    "DistributedRunner",
    "DistributedSession",
    "GraphSyncPlan",
    "classify_variables",
    "transform_graph",
    "TransformedGraph",
    "ar_graph_plan",
    "graph_plan",
    "hybrid_graph_plan",
]
