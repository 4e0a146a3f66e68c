"""Property tests on the request batcher: under random arrival
patterns, knobs, and submitter interleavings, no request is ever lost,
duplicated, starved, or answered with another requester's result, and
every executed batch respects ``max_batch``.

The run_batch functions here are pure transforms tagging each input, so
result-routing violations are observable as value mismatches rather
than flaky shape errors.
"""

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
       max_batch=st.integers(1, 9),
       max_delay_ms=st.floats(0.0, 3.0))
def test_every_request_answered_with_its_own_result(values, max_batch,
                                                    max_delay_ms):
    batcher = RequestBatcher(_tag, max_batch=max_batch,
                             max_delay_ms=max_delay_ms)
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
    batcher = RequestBatcher(_tag, max_batch=4, max_delay_ms=1.0)
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

    batcher = RequestBatcher(slow_tag, max_batch=max_batch,
                             max_delay_ms=0.0)
    futures = [batcher.submit(i) for i in range(n)]
    release.set()
    batcher.close()
    assert [f.result(timeout=30) for f in futures] == \
        [("seen", i) for i in range(n)]
    assert all(size <= max_batch for size, _ in batcher.batch_log)


# ----------------------------------------------------------------------
# Starvation and delay bounds
# ----------------------------------------------------------------------
def test_lone_request_is_not_starved():
    """A single request launches once its delay window expires -- no
    companion traffic needed."""
    batcher = RequestBatcher(_tag, max_batch=64, max_delay_ms=5.0)
    try:
        start = time.monotonic()
        result = batcher.submit("solo").result(timeout=30)
        elapsed = time.monotonic() - start
        assert result == ("seen", "solo")
        assert elapsed < 5.0, "lone request waited far past the bound"
    finally:
        batcher.close()


def test_full_batch_launches_before_the_delay_expires():
    batcher = RequestBatcher(_tag, max_batch=2, max_delay_ms=10_000.0)
    try:
        futures = [batcher.submit(i) for i in range(2)]
        start = time.monotonic()
        assert [f.result(timeout=30) for f in futures] == \
            [("seen", 0), ("seen", 1)]
        assert time.monotonic() - start < 30.0
        assert batcher.batch_log[0][0] == 2
    finally:
        batcher.close()


def test_time_spent_behind_the_previous_batch_counts_toward_the_delay():
    """The deadline runs from enqueue, not dequeue: a request that sat
    out a 160 ms batch has used up most of its 200 ms, and waits only
    the remainder (the parent waited a fresh 200 ms: ~350 ms in all)."""
    def slow_tag(examples):
        time.sleep(0.16)
        return _tag(examples)

    batcher = RequestBatcher(slow_tag, max_batch=2, max_delay_ms=200.0)
    try:
        first = [batcher.submit(i) for i in range(2)]  # full: runs at once
        time.sleep(0.01)
        late = batcher.submit("late")
        assert late.result(timeout=30) == ("seen", "late")
        assert [f.result(timeout=30) for f in first] == \
            [("seen", 0), ("seen", 1)]
    finally:
        batcher.close()
    (_, _), (size, first_wait) = batcher.batch_log
    assert size == 1
    assert 0.19 <= first_wait < 0.29


@settings(max_examples=15, deadline=None)
@given(gaps_ms=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=12),
       max_delay_ms=st.floats(0.0, 6.0),
       run_ms=st.floats(0.0, 4.0))
def test_first_wait_is_bounded_by_the_delay_plus_one_run(gaps_ms,
                                                         max_delay_ms,
                                                         run_ms):
    """With room aboard for everything queued (``max_batch`` above the
    request count) the head of a batch waits at most ``max_delay_ms``
    plus the one ``run_batch`` in flight when it arrived."""
    runs = []

    def timed_tag(examples):
        start = time.monotonic()
        time.sleep(run_ms / 1000.0)
        runs.append(time.monotonic() - start)
        return _tag(examples)

    batcher = RequestBatcher(timed_tag, max_batch=64,
                             max_delay_ms=max_delay_ms)
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
        assert first_wait <= max_delay_ms / 1000.0 + max(runs) + slack


@settings(max_examples=15, deadline=None)
@given(max_batch=st.integers(1, 6), surplus=st.integers(0, 5),
       max_delay_ms=st.sampled_from([0.0, 0.5, 1.0]))
def test_a_backlog_launches_full_batches_and_adds_no_wait(max_batch, surplus,
                                                          max_delay_ms):
    """With >= ``max_batch`` requests queued while a batch runs, the next
    batch is full even though the backlog is older than the delay (the
    parent read the clock first and launched batches of one), and it
    leaves as soon as the worker is free."""
    entered, release = threading.Event(), threading.Event()

    def gated_tag(examples):
        if examples == ["gate"]:
            entered.set()
            release.wait(timeout=30)
        return _tag(examples)

    batcher = RequestBatcher(gated_tag, max_batch=max_batch,
                             max_delay_ms=max_delay_ms)
    try:
        gate = batcher.submit("gate")
        assert entered.wait(timeout=30)
        queued_at = time.monotonic()
        futures = [batcher.submit(i) for i in range(max_batch + surplus)]
        time.sleep(0.005)  # now every queued request is past its delay
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

    batcher = RequestBatcher(broken, max_batch=4, max_delay_ms=1.0)
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

    batcher = RequestBatcher(short, max_batch=2, max_delay_ms=0.0)
    try:
        futures = [batcher.submit(i) for i in range(2)]
        for future in futures:
            with pytest.raises(RuntimeError, match="results"):
                future.result(timeout=30)
    finally:
        batcher.close()


def test_submit_after_close_raises():
    batcher = RequestBatcher(_tag)
    batcher.close()
    with pytest.raises(BatcherClosed):
        batcher.submit(1)
    batcher.close()  # idempotent


def test_rejects_bad_knobs():
    with pytest.raises(ValueError):
        RequestBatcher(_tag, max_batch=0)
    with pytest.raises(ValueError):
        RequestBatcher(_tag, max_delay_ms=-1.0)
