"""Property tests on the request batcher: under random arrival
patterns, batch bounds, and submitter interleavings, no request is ever
lost, duplicated, starved, or answered with another requester's result,
every executed batch respects ``max_batch``, and no request waits while
the engine is idle (the batcher is work-conserving).

The run_batch functions here are pure transforms tagging each input, so
result-routing violations are observable as value mismatches rather
than flaky shape errors.
"""

import logging
import statistics
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatcherClosed, RequestBatcher


def _tag(examples):
    return [("seen", x) for x in examples]


# ----------------------------------------------------------------------
# Routing and conservation
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(), min_size=0, max_size=40),
       max_batch=st.integers(1, 9))
def test_every_request_answered_with_its_own_result(values, max_batch):
    batcher = RequestBatcher(_tag, max_batch=max_batch)
    try:
        futures = [batcher.submit(v) for v in values]
    finally:
        batcher.close()
    assert [f.result(timeout=30) for f in futures] == \
        [("seen", v) for v in values]
    assert sum(size for size, _ in batcher.batch_log) == len(values)
    assert all(1 <= size <= max_batch for size, _ in batcher.batch_log)


@settings(max_examples=20, deadline=None)
@given(per_thread=st.lists(
    st.lists(st.integers(), min_size=1, max_size=10),
    min_size=2, max_size=4))
def test_concurrent_submitters_never_cross_results(per_thread):
    """Requests from racing threads each get their own tagged result."""
    batcher = RequestBatcher(_tag, max_batch=4)
    collected = {}

    def submitter(tid, values):
        futures = [batcher.submit((tid, v)) for v in values]
        collected[tid] = [f.result(timeout=30) for f in futures]

    threads = [threading.Thread(target=submitter, args=(tid, values))
               for tid, values in enumerate(per_thread)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        batcher.close()
    for tid, values in enumerate(per_thread):
        assert collected[tid] == [("seen", (tid, v)) for v in values]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 12), max_batch=st.integers(1, 4))
def test_close_flushes_everything_queued(n, max_batch):
    """close() answers every accepted request, in <= max_batch chunks."""
    release = threading.Event()

    def slow_tag(examples):
        release.wait(timeout=30)
        return _tag(examples)

    batcher = RequestBatcher(slow_tag, max_batch=max_batch)
    futures = [batcher.submit(i) for i in range(n)]
    release.set()
    batcher.close()
    assert [f.result(timeout=30) for f in futures] == \
        [("seen", i) for i in range(n)]
    assert all(size <= max_batch for size, _ in batcher.batch_log)


# ----------------------------------------------------------------------
# Work conservation and starvation
# ----------------------------------------------------------------------
def _gated_tag():
    """A run_batch holding the batch ``["gate"]`` until released, so a
    test can queue requests behind a busy engine."""
    entered, release = threading.Event(), threading.Event()

    def gated_tag(examples):
        if examples == ["gate"]:
            entered.set()
            release.wait(timeout=30)
        return _tag(examples)

    return gated_tag, entered, release


@settings(max_examples=20, deadline=None)
@given(gaps_ms=st.lists(st.floats(0.0, 4.0), min_size=5, max_size=16),
       run_ms=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=12),
       max_batch=st.integers(1, 6))
def test_no_request_waits_while_the_engine_is_idle(gaps_ms, run_ms,
                                                   max_batch):
    """A batch's head waits only while the engine is busy: its
    ``first_wait`` is covered by the replays overlapping [enqueue,
    launch], up to scheduling slack, and to under 1.5 ms in the median
    batch."""
    busy = []  # (start, end) of each replay, in batch_log order

    def timed_tag(examples):
        start = time.monotonic()
        time.sleep(run_ms[len(busy) % len(run_ms)] / 1000.0)
        busy.append((start, time.monotonic()))
        return _tag(examples)

    batcher = RequestBatcher(timed_tag, max_batch=max_batch)
    try:
        futures = []
        for gap in gaps_ms:
            time.sleep(gap / 1000.0)
            futures.append(batcher.submit(len(futures)))
        for f in futures:
            f.result(timeout=30)
    finally:
        batcher.close()
    idle = []
    for (_size, first_wait), (launch, _end) in zip(batcher.batch_log, busy):
        enqueued = launch - first_wait
        covered = sum(max(0.0, min(end, launch) - max(start, enqueued))
                      for start, end in busy)
        idle.append(first_wait - covered)
    assert max(idle) <= 0.02  # scheduling slack on a shared host
    if len(idle) >= 5:
        # A loaded host can stall one wake-up for a few ms, so only the
        # median of several batches can tell a 2 ms hold from noise.
        assert statistics.median(idle) < 0.0015


def test_lone_request_is_not_starved():
    """A single request launches at once on an idle engine -- no
    companion traffic needed, however large ``max_batch`` is."""
    batcher = RequestBatcher(_tag, max_batch=64)
    try:
        start = time.monotonic()
        result = batcher.submit("solo").result(timeout=30)
        elapsed = time.monotonic() - start
        assert result == ("seen", "solo")
        assert elapsed < 0.5, "lone request waited for batch-mates"
    finally:
        batcher.close()


def test_full_batch_launches_before_the_delay_expires():
    """Requests queued behind a busy engine leave as one full batch the
    moment it frees; the surplus boards the next one."""
    gated_tag, entered, release = _gated_tag()
    batcher = RequestBatcher(gated_tag, max_batch=2)
    try:
        gate = batcher.submit("gate")
        assert entered.wait(timeout=30)
        futures = [batcher.submit(i) for i in range(3)]
        release.set()
        assert gate.result(timeout=30) == ("seen", "gate")
        assert [f.result(timeout=30) for f in futures] == \
            [("seen", 0), ("seen", 1), ("seen", 2)]
    finally:
        release.set()
        batcher.close()
    assert [size for size, _ in batcher.batch_log] == [1, 2, 1]


def test_time_spent_behind_the_previous_batch_counts_toward_the_delay():
    """A request that arrives during a 160 ms replay launches when that
    replay ends: it waits out the replay's remaining time and nothing
    more."""
    entered = threading.Event()
    ends = []

    def slow_tag(examples):
        entered.set()
        time.sleep(0.16)
        ends.append(time.monotonic())
        return _tag(examples)

    batcher = RequestBatcher(slow_tag, max_batch=2)
    try:
        first = batcher.submit(0)
        assert entered.wait(timeout=30)
        sent = time.monotonic()
        late = batcher.submit("late")
        assert late.result(timeout=30) == ("seen", "late")
        assert first.result(timeout=30) == ("seen", 0)
    finally:
        batcher.close()
    (_, _), (size, first_wait) = batcher.batch_log
    assert size == 1
    assert first_wait == pytest.approx(ends[0] - sent, abs=0.02)
    assert first_wait < 0.19


@settings(max_examples=15, deadline=None)
@given(gaps_ms=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=12),
       run_ms=st.floats(0.0, 4.0))
def test_first_wait_is_bounded_by_the_delay_plus_one_run(gaps_ms, run_ms):
    """With room aboard for everything queued (``max_batch`` above the
    request count) the head of a batch waits at most the one
    ``run_batch`` in flight when it arrived."""
    runs = []

    def timed_tag(examples):
        start = time.monotonic()
        time.sleep(run_ms / 1000.0)
        runs.append(time.monotonic() - start)
        return _tag(examples)

    batcher = RequestBatcher(timed_tag, max_batch=64)
    try:
        futures = []
        for gap in gaps_ms:
            time.sleep(gap / 1000.0)
            futures.append(batcher.submit(len(futures)))
        for f in futures:
            f.result(timeout=30)
    finally:
        batcher.close()
    slack = 0.05  # scheduling noise on a shared host
    for _size, first_wait in batcher.batch_log:
        assert first_wait <= max(runs) + slack


@settings(max_examples=15, deadline=None)
@given(max_batch=st.integers(1, 6), surplus=st.integers(0, 5))
def test_a_backlog_launches_full_batches_and_adds_no_wait(max_batch,
                                                          surplus):
    """With >= ``max_batch`` requests queued while a batch runs, the next
    batch is full and leaves as soon as the worker is free."""
    gated_tag, entered, release = _gated_tag()
    batcher = RequestBatcher(gated_tag, max_batch=max_batch)
    try:
        gate = batcher.submit("gate")
        assert entered.wait(timeout=30)
        queued_at = time.monotonic()
        futures = [batcher.submit(i) for i in range(max_batch + surplus)]
        time.sleep(0.005)  # the backlog ages behind the busy engine
        released_at = time.monotonic()
        release.set()
        gate.result(timeout=30)
        futures[max_batch - 1].result(timeout=30)
        next_size, next_wait = batcher.batch_log[1]
    finally:
        release.set()
        batcher.close()
    assert next_size == max_batch
    assert next_wait <= (released_at - queued_at) + 0.05

# ----------------------------------------------------------------------
# Failure semantics and lifecycle
# ----------------------------------------------------------------------
def test_execution_error_fans_out_to_every_future():
    def broken(examples):
        raise RuntimeError("kaboom")

    batcher = RequestBatcher(broken, max_batch=4)
    try:
        futures = [batcher.submit(i) for i in range(3)]
        for future in futures:
            with pytest.raises(RuntimeError, match="kaboom"):
                future.result(timeout=30)
    finally:
        batcher.close()


def test_result_length_mismatch_is_an_error():
    def short(examples):
        return examples[:-1]

    batcher = RequestBatcher(short, max_batch=2)
    try:
        futures = [batcher.submit(i) for i in range(2)]
        for future in futures:
            with pytest.raises(RuntimeError, match="results"):
                future.result(timeout=30)
    finally:
        batcher.close()


def test_close_from_a_completion_callback_answers_the_queue(caplog):
    """A callback that closes the batcher runs on its worker thread:
    close() must not join that thread (an error the Future would log
    and swallow), and every request already queued is still answered."""
    gated_tag, entered, release = _gated_tag()
    batcher = RequestBatcher(gated_tag, max_batch=2)
    try:
        gate = batcher.submit("gate")
        assert entered.wait(timeout=30)
        futures = [batcher.submit(i) for i in range(5)]
        gate.add_done_callback(lambda _future: batcher.close())
        release.set()
        assert [f.result(timeout=30) for f in futures] == \
            [("seen", i) for i in range(5)]
    finally:
        release.set()
        batcher.close()
    batcher._thread.join(timeout=30)
    assert not batcher._thread.is_alive()
    with pytest.raises(BatcherClosed):
        batcher.submit("after")
    assert not [r for r in caplog.records
                if r.name == "concurrent.futures"
                and r.levelno >= logging.ERROR]


def test_submit_after_close_raises():
    batcher = RequestBatcher(_tag)
    batcher.close()
    with pytest.raises(BatcherClosed):
        batcher.submit(1)
    batcher.close()  # idempotent


def test_rejects_bad_knobs():
    with pytest.raises(ValueError):
        RequestBatcher(_tag, max_batch=0)
