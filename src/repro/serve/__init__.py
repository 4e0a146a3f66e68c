"""Serving plane: forward-only compiled plans under heavy traffic.

The training plane builds and trains a model; this package serves it.
The same compiled-plan machinery (executor codegen, buffer arena) is
specialized for inference: plans that fetch only forward
outputs schedule no gradients, optimizer updates, or collectives by
construction -- and :class:`InferenceEngine` proves it at compile time.
Every variable read binds to one immutable :class:`FrozenWeights`
table, which hot reload swaps atomically between batches; the serving
plane sends no messages.  The :class:`RequestBatcher` coalesces
single-example requests -- launching the moment the engine is free with
whatever is queued, up to ``max_batch``.
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

__all__ = [
    "BatcherClosed",
    "FrozenWeights",
    "InferenceEngine",
    "InferencePlanError",
    "InferenceServer",
    "RequestBatcher",
    "seeded_weights",
    "weights_from_state",
]
