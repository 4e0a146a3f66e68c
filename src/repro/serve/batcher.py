"""Dynamic request batching: coalesce single-example submissions.

Small-batch replay is overhead-bound -- a batch of 8 costs barely more
than a batch of 1 through the compiled executor -- so the single
largest serving win is running fewer, fuller batches.  The batcher
implements the classic knobs: a batch launches as soon as ``max_batch``
requests are aboard, or when the oldest waiting request has been held
``max_delay_ms`` counted from its *enqueue* stamp -- time spent sitting
out the previous batch is time already waited (one monotonic deadline;
each queue wait gets the remaining slice, the same discipline the
transports use for ``recv`` timeouts).  Whatever is already queued
boards without a look at the clock, so a backlog older than the delay
still leaves in full batches.  ``submit`` only enqueues, so the front
end never blocks on execution; results are routed back to each
requester's Future by position.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Sequence, Tuple


class BatcherClosed(RuntimeError):
    """``submit`` after ``close``: the batcher no longer accepts work."""


_STOP = object()


class RequestBatcher:
    """Coalesces single-example requests into bounded batches.

    A daemon worker thread blocks for the first waiting request, takes
    everything already queued behind it, then keeps the batch open until
    that first request is ``max_delay_ms`` past its enqueue time or
    ``max_batch`` requests are aboard, runs ``run_batch(examples)``, and
    resolves ``results[i]`` into the i-th requester's Future.  A full
    batch launches immediately and the head of a batch waits at most the
    delay bound plus the ``run_batch`` already in flight when it
    arrived, so no request starves; a ``run_batch`` failure fans out
    to every Future in the batch.  ``batch_log`` records
    ``(size, first_wait_seconds)`` per executed batch for observability
    and the property tests.
    """

    def __init__(self, run_batch: Callable[[List], Sequence],
                 max_batch: int = 8, max_delay_ms: float = 2.0):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        self.run_batch = run_batch
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.batch_log: List[Tuple[int, float]] = []
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True)
        self._thread.start()

    def submit(self, example) -> Future:
        """Enqueue one example; returns immediately with its Future."""
        future: Future = Future()
        with self._lock:
            # Enqueueing under the lock orders every accepted request
            # ahead of the close sentinel, so close() can flush them all.
            if self._closed:
                raise BatcherClosed("batcher is closed")
            self._queue.put((example, future, time.monotonic()))
        return future

    def close(self) -> None:
        """Stop accepting requests, flush everything queued, join."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_STOP)
        self._thread.join()

    # -- worker ----------------------------------------------------------
    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._drain()
                return
            batch = [item]
            deadline = item[2] + self.max_delay_ms / 1000.0
            stopping = False
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    # Only an empty queue is worth waiting on, and only
                    # for what is left of the oldest request's delay.
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        extra = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if extra is _STOP:
                    stopping = True
                    break
                batch.append(extra)
            self._execute(batch)
            if stopping:
                self._drain()
                return

    def _drain(self) -> None:
        # Everything enqueued before the close sentinel is still
        # answered, in <= max_batch chunks -- close() loses nothing.
        batch: list = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            batch.append(item)
            if len(batch) == self.max_batch:
                self._execute(batch)
                batch = []
        if batch:
            self._execute(batch)

    def _execute(self, batch: list) -> None:
        examples = [example for example, _future, _enq in batch]
        self.batch_log.append(
            (len(batch), time.monotonic() - batch[0][2]))
        try:
            results = self.run_batch(examples)
            if len(results) != len(examples):
                raise RuntimeError(
                    f"run_batch returned {len(results)} results for "
                    f"{len(examples)} requests")
        except Exception as exc:
            for _example, future, _enq in batch:
                future.set_exception(exc)
            return
        for (_example, future, _enq), result in zip(batch, results):
            future.set_result(result)
