"""The serving workload: open-loop latency, closed-loop saturation, and
the serving plane's per-layer probes -- through ``InferenceServer``'s
public surface only."""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from bench.harness import (
    END_TO_END,
    RunResult,
    Scale,
    Tracer,
    median_ms,
    now,
    over_blocks,
    peak_rss_mb,
    percentiles,
    scalar,
)
from bench.training import LM_SIZES
from repro.nn.models import build_lm
from repro.serve import InferenceServer, seeded_weights

NAME = "lm_serve_open"
MAX_BATCH = 8
MAX_DELAY_MS = 2.0
OUTSTANDING = 16            # closed-loop clients
OPEN_SHARE = 0.75           # of --seconds spent in the open-loop phase
REQUEST_LIMIT_S = 1.0       # a slower request counts as failed
ROUNDS = 6
# Batched rows differ from batch-of-one rows by ~5e-9 on this LM (BLAS
# picks another kernel per batch size), so rows are held to a tolerance
# instead of the bit-identity the small quickstart model satisfies.
ROW_ATOL = 1e-6


def cold_start(seed: int):
    """Build the training LM's graph and initial weights -> server ->
    first answered request.  Returns the live server and the seconds."""
    start = now()
    model = build_lm(seed=seed, **LM_SIZES)
    weights = seeded_weights(model.graph, seed)
    server = InferenceServer(model, weights, max_batch=MAX_BATCH,
                             max_delay_ms=MAX_DELAY_MS)
    try:
        server.infer(model.dataset.example(0))
    except BaseException:
        server.close()
        raise
    return model, weights, server, now() - start


def stacked(examples: List[tuple]):
    return tuple(np.stack(column) for column in zip(*examples))


@dataclass
class Traffic:
    """The generated inputs of one run, and what each must answer."""

    examples: List[tuple]
    expected: List[np.ndarray]     # server.run_batch on each example alone
    order: np.ndarray              # request k asks for examples[order[k]]

    def row_ok(self, k: int, row) -> bool:
        # Runs on the batcher thread between replies: keep it to one pass
        # (np.allclose costs several times as much; NaN compares False).
        return bool(np.abs(row - self.expected[self.order[k]]).max()
                    <= ROW_ATOL)


def make_traffic(model, server, seed: int, scale: Scale,
                 requests: int) -> Traffic:
    examples = [model.dataset.example(i) for i in range(scale.serve_examples)]
    # Every batch size the batcher can form gets its plan compiled and
    # its generated fast path live before anything is timed.
    for size in range(1, MAX_BATCH + 1):
        columns = stacked([examples[i % len(examples)] for i in range(size)])
        for _ in range(3):
            server.run_batch(columns)
    expected = [np.array(server.run_batch(stacked([e]))[0]) for e in examples]
    order = np.random.default_rng(seed).integers(0, len(examples), requests)
    return Traffic(examples, expected, order)


@dataclass
class OpenLoop:
    latency_ms: np.ndarray      # completion minus *due* time
    late_ms: np.ndarray         # how late the generator sent it
    done_at: np.ndarray
    due_at: np.ndarray
    failures: List[str]
    submit_us: List[float]
    reload_ms: List[float]
    wall_s: float


def open_loop(server, weights, traffic: Traffic, first: int, count: int,
              scale: Scale, tracer: Optional[Tracer] = None) -> OpenLoop:
    """Requests ``first .. first+count`` on a fixed arrival schedule from
    this one thread, with a reload of the same weights beside the reads.
    Latency runs from each request's due time, so a stall in the
    generator or the server is charged to every request it delays."""
    rate = scale.serve_rate
    latency = np.full(count, np.inf)
    done_at = np.zeros(count)
    late = np.zeros(count)
    failures: List[str] = []
    submit_us: List[float] = []
    reload_ms: List[float] = []
    spans: Dict[int, int] = {}
    answered = threading.Semaphore(0)

    def on_done(j: int, due: float, future) -> None:
        done = time.perf_counter()
        done_at[j] = done
        latency[j] = (done - due) * 1e3
        if tracer is not None:
            tracer.finish(spans[j], done)
        error = future.exception()
        if error is not None:
            failures.append(f"request {first + j}: {error!r}")
        elif not traffic.row_ok(first + j, future.result()):
            failures.append(f"request {first + j}: row differs from "
                            "server.run_batch on the same example")
        answered.release()

    start = time.perf_counter() + 0.02
    due_at = start + np.arange(count) / rate
    for j in range(count):
        due = due_at[j]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if j and j % scale.serve_reload_every == 0:
            t0 = time.perf_counter()
            server.reload(weights)
            reload_ms.append((time.perf_counter() - t0) * 1e3)
        example = traffic.examples[traffic.order[first + j]]
        sent = time.perf_counter()
        late[j] = (sent - due) * 1e3
        if tracer is not None:
            spans[j] = tracer.add("request", due, None, step=first + j)
        future = server.submit(example)
        if tracer is not None:
            after = time.perf_counter()
            submit_us.append((after - sent) * 1e6)
            tracer.add("serve.submit", sent, after, parent=spans[j],
                       step=first + j)
        future.add_done_callback(partial(on_done, j, due))
    # Not Future.result(): a future wakes its waiters before it runs its
    # callbacks, and the numbers are written by the callbacks.
    for _ in range(count):
        if not answered.acquire(timeout=30.0):
            failures.append("open loop: a request was never answered")
            break
    wall = time.perf_counter() - start
    failures += [f"request {first + j}: took over {REQUEST_LIMIT_S} s"
                 for j in np.flatnonzero(latency > REQUEST_LIMIT_S * 1e3)]
    return OpenLoop(latency, late, done_at, due_at, failures, submit_us,
                    reload_ms, wall)


def closed_loop(server, traffic: Traffic, seconds: float):
    """``OUTSTANDING`` clients that each send their next request the
    moment the previous one is answered.  Replies arrive on the server's
    batcher thread, so the clients live there as completion callbacks:
    no second thread competes for the interpreter, and the queue always
    holds enough requests to fill a batch."""
    lock = threading.Lock()
    drained = threading.Event()
    done_at: List[float] = []
    failures: List[str] = []
    state = {"sent": 0, "outstanding": 0}
    start = time.perf_counter()

    def send() -> None:
        with lock:
            if time.perf_counter() - start >= seconds:
                if state["outstanding"] == 0:
                    drained.set()
                return
            k = state["sent"] % len(traffic.order)
            state["sent"] += 1
            state["outstanding"] += 1
        server.submit(traffic.examples[traffic.order[k]]).add_done_callback(
            partial(on_done, k))

    def on_done(k: int, future) -> None:
        error = future.exception()
        if error is not None:
            failures.append(f"request {k}: {error!r}")
        elif not traffic.row_ok(k, future.result()):
            failures.append(f"request {k}: row differs from "
                            "server.run_batch on the same example")
        done_at.append(time.perf_counter())
        with lock:
            state["outstanding"] -= 1
        send()

    for _ in range(OUTSTANDING):
        send()
    if not drained.wait(timeout=seconds + 60.0):
        failures.append("closed loop did not drain")
    return start, done_at, failures


def run_end_to_end(seed: int, seconds: float, scale: Scale) -> RunResult:
    result = RunResult(NAME)
    # ROUNDS rounds of (open loop, closed loop), so that both phases see
    # the whole window: this host's speed drifts in multi-second phases,
    # and a closed loop squeezed into the last quarter met one of them.
    per_round = int(scale.serve_rate * seconds * OPEN_SHARE) // ROUNDS
    setups = []
    for cycle in range(scale.setup_cycles):
        model, weights, server, seconds_taken = cold_start(seed)
        setups.append(seconds_taken)
        if cycle < scale.setup_cycles - 1:  # the last one gets measured
            server.close()
            gc.collect()    # closed servers must not pile up in peak_rss_mb
    try:
        traffic = make_traffic(model, server, seed, scale,
                               ROUNDS * per_round)
        p50, p95, rate, saturated = [], [], [], []
        for r in range(ROUNDS):
            a = open_loop(server, weights, traffic, r * per_round, per_round,
                          scale)
            result.record(per_round, a.failures)
            lo, hi = percentiles(a.latency_ms, (50, 95))
            p50.append(lo)
            p95.append(hi)
            rate.append(per_round / (a.done_at.max() - a.due_at[0]))
            b_start, b_done, b_failures = closed_loop(
                server, traffic, seconds * (1 - OPEN_SHARE) / ROUNDS)
            result.record(len(b_done), b_failures)
            saturated.append(len(b_done) / (b_done[-1] - b_start))
    finally:
        server.close()
    result.check_leaks()

    # Quality of what was served: cross-entropy of the answers against
    # the examples' own next-token targets.
    logits = np.stack(traffic.expected).astype(np.float64)
    targets = np.array([example[1][-1] for example in traffic.examples])
    log_z = np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1)) \
        + logits.max(1)
    nll = float(np.mean(log_z - logits[np.arange(len(targets)), targets]))
    payload = sum(np.asarray(field).nbytes for field in traffic.examples[0]) \
        + traffic.expected[0].nbytes

    m = result.metrics
    m["setup_s"] = over_blocks(setups, "s")
    m["req_ms_p50"] = over_blocks(p50, "ms")
    m["req_ms_p95"] = over_blocks(p95, "ms")
    m["qps_sat"] = over_blocks(saturated, "req/s")
    m["peak_rss_mb"] = scalar(peak_rss_mb(), "MB")
    # A step of a server is one request (see README, "One table of nine
    # metrics for four workloads").
    m["samples_per_s"] = over_blocks(rate, "samples/s")
    m["step_ms_p50"] = dict(m["req_ms_p50"])
    m["net_bytes_per_step"] = scalar(payload, "bytes")
    m["final_loss"] = scalar(nll, "nats")
    result.complete(END_TO_END)
    return result


def run_traced(seed: int, seconds: float, scale: Scale,
               out_dir: str) -> RunResult:
    result = RunResult(NAME)
    tracer = Tracer()
    m: Dict[str, float] = {}
    # One traced and one untraced open loop.
    half = int(scale.serve_rate * seconds * OPEN_SHARE) // 2

    model, weights, server, _ = cold_start(seed)
    try:
        traffic = make_traffic(model, server, seed, scale, 2 * half)
        for size in (1, MAX_BATCH):
            columns = stacked(traffic.examples[:size])
            with tracer.span(f"serve.engine_b{size}"):
                m[f"serve.engine_ms_b{size}"] = median_ms(
                    lambda: server.run_batch(columns), 5 * scale.probe_reps)

        batches_before = len(server.batcher.batch_log)
        traced = open_loop(server, weights, traffic, 0, half, scale, tracer)
        batch_log = server.batcher.batch_log[batches_before:]
        plain = open_loop(server, weights, traffic, half, half, scale)
        for run in (traced, plain):
            result.record(half, run.failures)
    finally:
        server.close()
    result.check_leaks()

    m["serve.submit_us"] = statistics.median(traced.submit_us)
    m["serve.batch_size_mean"] = statistics.fmean(s for s, _ in batch_log)
    m["serve.queue_wait_ms_p50"] = statistics.median(
        w for _, w in batch_log) * 1e3
    m["serve.batches_per_s"] = len(batch_log) / traced.wall_s
    if traced.reload_ms:
        m["serve.reload_ms"] = statistics.median(traced.reload_ms)
    m["serve.req_ms_p99"] = percentiles(traced.latency_ms, (99,))[0]
    m["serve.gen_late_ms_p99"] = percentiles(traced.late_ms, (99,))[0]
    base = statistics.median(plain.latency_ms)
    m["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced.latency_ms) - base) / base)
    m["trace.unattributed_pct"] = tracer.unattributed_pct("request")

    result.finish_traced(tracer, m, out_dir, seed)
    return result
