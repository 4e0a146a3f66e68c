"""Automatic graph transformation (paper section 4.3).

Takes a user's single-GPU graph and rewrites it for distributed execution
according to a synchronization plan:

* **AR rule** -- replicate main computation per GPU; pack dense
  gradients into size-capped buckets, one ``fused_allreduce`` per bucket
  (``allgatherv`` for sparse ones), between gradient producers and
  per-replica update ops (paper Figure 4).
* **PS rule** -- replicate main computation per GPU; place variables and
  their update ops on servers; rewrite embedding lookups into server-side
  ``shard_lookup`` ops plus a worker-side ``stitch``; insert per-machine
  ``local_agg`` and per-server ``global_agg`` ops (paper Figure 5).
* **Hybrid rule** -- apply the AR rule to dense variables and the PS rule
  to sparse ones within the same graph (paper Figure 6).
"""

from repro.core.transform.plan import GraphSyncPlan, classify_variables
from repro.core.transform.transform import transform_graph, TransformedGraph

__all__ = [
    "GraphSyncPlan",
    "classify_variables",
    "transform_graph",
    "TransformedGraph",
]
