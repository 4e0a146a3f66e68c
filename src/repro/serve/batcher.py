"""Dynamic request batching: coalesce single-example submissions.

Small-batch replay is overhead-bound -- a batch of 8 costs barely more
than a batch of 1 through the compiled executor -- so the serving win
is running fewer, fuller batches *when requests are already waiting*.
The batcher is work-conserving: the worker thread that runs batches is
the engine, so it never holds a request back while it is free.  It
blocks only on an empty queue, then launches with everything already
queued, up to ``max_batch``; requests that arrive during a replay board
the next batch, so a backlog leaves in full batches and a lone request
leaves at once (the rule of continuous batching: nothing waits while
the executor is idle).  ``submit`` only enqueues, so the front end
never blocks on execution; results are routed back to each requester's
Future by position.
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
    whatever is already queued behind it up to ``max_batch``, runs
    ``run_batch(examples)``, and resolves ``results[i]`` into the i-th
    requester's Future.  There is no delay window: a request waits only
    for the ``run_batch`` in flight when it arrived (plus the full
    batches queued ahead of it), so no request starves; a ``run_batch``
    failure fans out to every Future in the batch.  ``batch_log``
    records ``(size, first_wait_seconds)`` per executed batch for
    observability and the property tests.
    """

    def __init__(self, run_batch: Callable[[List], Sequence],
                 max_batch: int = 8):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.run_batch = run_batch
        self.max_batch = int(max_batch)
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
        """Stop accepting requests, flush everything queued, join.

        Called from a completion callback, ``close`` runs on the worker
        itself: it cannot join its own thread, and returns at once --
        the worker still answers everything queued, then exits.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_STOP)
        if threading.current_thread() is not self._thread:
            self._thread.join()

    # -- worker ----------------------------------------------------------
    def _loop(self) -> None:
        # Block only while idle; take what is queued; run it.  The close
        # sentinel sits behind every accepted request, so taking it means
        # the queue has been flushed in <= max_batch chunks.
        stopping = False
        while not stopping:
            batch, stopping = self._take(self._queue.get())
            if batch:
                self._execute(batch)

    def _take(self, item) -> Tuple[list, bool]:
        """*item* plus whatever is already queued, up to ``max_batch``,
        without waiting; the flag is set once the sentinel is taken."""
        batch: list = []
        while item is not _STOP:
            batch.append(item)
            if len(batch) == self.max_batch:
                return batch, False
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return batch, False
        return batch, True

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
