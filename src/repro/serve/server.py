"""The serving front end: one model, one engine, one batcher.

:class:`InferenceServer` accepts single examples (placeholder-order
tuples without the batch dimension), coalesces them through the
:class:`~repro.serve.batcher.RequestBatcher`, stacks them into one
batched feed, replays the compiled forward plan, and splits the fetched
rows back per request.  Hot reload takes the same lock batch execution
holds, so a weight swap is atomic *between* batches: every in-flight
request completes on the old generation, every later batch runs fully
on the new one -- bit-exact against a cold server restored from the
same state.
"""

from __future__ import annotations

import threading
from typing import List, Mapping, Sequence

import numpy as np

from repro.nn.models.common import BuiltModel
from repro.serve.batcher import RequestBatcher
from repro.serve.plan import InferenceEngine, weights_from_state


class InferenceServer:
    """Batched forward serving over a built model's graph.

    The default fetch is ``model.logits``; pass ``fetches=`` to serve
    other forward tensors.  ``submit`` never blocks on execution.  To
    serve a live runner's weights use
    :func:`~repro.core.api.make_server` (``runner=``), and to follow it
    call ``reload(runner.logical_state())``.

    ``max_delay_ms`` has no effect.  It is validated (>= 0) and then
    dropped: the batcher never holds a request while the engine is
    idle, so every bound >= 0 is already met.  The keyword stays only
    because ``bench/serving.py`` passes it; it goes once the benchmark
    stops doing so (ROADMAP item 11).
    """

    def __init__(self, model: BuiltModel,
                 weights: Mapping[str, np.ndarray], *,
                 fetches=None, max_batch: int = 8,
                 max_delay_ms: float = 0.0):
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if fetches is None:
            if model.logits is None:
                raise ValueError(
                    f"model {model.name!r} has no logits tensor; pass "
                    "fetches= explicitly")
            fetches = [model.logits]
        elif not isinstance(fetches, (list, tuple)):
            fetches = [fetches]
        self.model = model
        self.engine = InferenceEngine(model.graph, list(fetches), weights)
        self._placeholders = list(model.placeholders.values())
        self._single = len(fetches) == 1
        self._lock = threading.Lock()
        self.requests_served = 0
        self.batches_run = 0
        self.reloads = 0
        self.batcher = RequestBatcher(self._run_examples,
                                      max_batch=max_batch)

    # -- request path ----------------------------------------------------
    def submit(self, example: Sequence):
        """Enqueue one example (a tuple matching the model's placeholder
        order, without the batch dimension); returns its Future."""
        example = tuple(example)
        if len(example) != len(self._placeholders):
            raise ValueError(
                f"example has {len(example)} fields; model "
                f"{self.model.name!r} feeds {len(self._placeholders)} "
                "placeholders")
        return self.batcher.submit(example)

    def infer(self, example: Sequence, timeout: float = 30.0):
        """Submit one example and wait for its result."""
        return self.submit(example).result(timeout)

    def run_batch(self, columns: Sequence[np.ndarray]):
        """Execute one already-stacked batch (the bench/bypass path),
        serialized against hot reload like every batch."""
        feed = dict(zip(self._placeholders, columns))
        shape = np.shape(columns[0])
        batch = int(shape[0]) if shape else 1
        with self._lock:
            outs = self.engine.run(feed, batch_size=batch)
            self.batches_run += 1
        return outs[0] if self._single else outs

    def _run_examples(self, examples: List[tuple]) -> List:
        columns = tuple(np.stack(col) for col in zip(*examples))
        outs = self.run_batch(columns)
        fetched = [outs] if self._single else list(outs)
        per_request = []
        for i in range(len(examples)):
            # Copies, not views: a request's result must outlive the
            # arena-backed batch output it was sliced from.
            row = tuple(np.array(values[i]) for values in fetched)
            per_request.append(row[0] if self._single else row)
        self.requests_served += len(examples)
        return per_request

    # -- hot reload ------------------------------------------------------
    def reload(self, state: Mapping[str, np.ndarray]) -> int:
        """Swap in new weights between batches; returns the generation.

        *state* is ``logical_state()``-shaped (optimizer-slot extras are
        ignored).
        """
        weights = weights_from_state(self.model.graph, dict(state))
        with self._lock:
            version = self.engine.reload(weights)
        self.reloads += 1
        return version

    def close(self) -> None:
        """Flush queued requests and stop the batcher."""
        self.batcher.close()
