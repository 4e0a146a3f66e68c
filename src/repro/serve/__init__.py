"""Serving plane: forward-only compiled plans under heavy traffic.

The training plane builds and trains a model; this package serves it.
The same compiled-plan machinery (executor codegen, buffer arena) is
specialized for inference: plans that fetch only forward
outputs schedule no gradients, optimizer updates, or collectives by
construction -- and :class:`InferenceEngine` proves it at compile time.
Variable reads bind to an immutable :class:`FrozenWeights` snapshot
that hot reload swaps atomically between batches, the
:class:`RequestBatcher` coalesces single-example requests -- launching
the moment the engine is free with whatever is queued, up to
``max_batch`` -- and row-partitioned embedding shards can stay on their
owning workers behind a :class:`ShardRouter` instead of being
replicated into every serving process.
"""

from repro.serve.batcher import BatcherClosed, RequestBatcher
from repro.serve.plan import (
    FrozenWeights,
    InferenceEngine,
    InferencePlanError,
    seeded_weights,
    weights_from_state,
)
from repro.serve.server import InferenceServer
from repro.serve.shard import (
    RemoteShard,
    ShardHost,
    ShardRouter,
    shard_hosts,
)

__all__ = [
    "BatcherClosed",
    "FrozenWeights",
    "InferenceEngine",
    "InferencePlanError",
    "InferenceServer",
    "RemoteShard",
    "RequestBatcher",
    "ShardHost",
    "ShardRouter",
    "seeded_weights",
    "shard_hosts",
    "weights_from_state",
]
