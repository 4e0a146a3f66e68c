"""The three training workloads: end-to-end run and per-layer probes.

Everything is driven through public ``repro`` API; timings are taken here,
around the calls, never inside the program.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from bench.harness import (
    END_TO_END,
    WARMUP_STEPS,
    RunResult,
    Scale,
    Tracer,
    median_ms,
    ms_since,
    now,
    over_blocks,
    peak_rss_mb,
    percentiles,
    scalar,
)
from repro.analysis import verify_plan
from repro.cluster.costmodel import (
    fit_transport_constants,
    predict_multiproc_goodput,
)
from repro.cluster.spec import ClusterSpec
from repro.comm.allreduce import ring_allreduce
from repro.comm.transport import CONTROLLER, make_transport
from repro.core.backend import MultiprocBackend
from repro.core.runner import DistributedRunner, DistributedSession
from repro.core.transform.plan import ar_graph_plan, hybrid_graph_plan
from repro.core.transform.transform import transform_graph
from repro.graph.gradients import gradients
from repro.graph.session import Session
from repro.nn.datasets import SyntheticImageDataset
from repro.nn.models import build_lm, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer

# 2 machines x 1 GPU: two replicas fit the host's two cores, and every
# collective byte crosses a machine boundary.
CLUSTER = ClusterSpec(2, 1)
LM_SIZES = dict(batch_size=32, vocab_size=1500, seq_len=10, emb_dim=96,
                hidden=192, num_partitions=4)
RESNET_SIZES = dict(batch_size=32, num_features=128, num_classes=10,
                    width=512, num_blocks=4)
SAMPLES_PER_STEP = 32 * CLUSTER.total_gpus
SWEEP = ("inproc", "queue", "shm", "tcp")


@dataclass(frozen=True)
class TrainingWorkload:
    name: str
    model: str                  # "lm" or "resnet"
    transport: Optional[str]    # None: the in-process backend

    def backend(self):
        return backend_for(self.transport or "inproc")


TRAINING = {w.name: w for w in (
    TrainingWorkload("lm_hybrid_inproc", "lm", None),
    TrainingWorkload("lm_hybrid_shm", "lm", "shm"),
    TrainingWorkload("resnet_ar_tcp", "resnet", "tcp"),
)}


def backend_for(kind: str):
    return "inproc" if kind == "inproc" else MultiprocBackend(transport=kind)


class NoisyLabelImages(SyntheticImageDataset):
    """``SyntheticImageDataset`` with a fifth of the labels redrawn.

    The stock 512-example set is separable and memorised within a few
    dozen steps: the loss decays to ~5e-4, where its spread across seeds
    is 40 % of its median -- useless as a tracked metric.  Label noise
    gives the loss a floor (~0.87 nats), and 16384 examples keep the
    first 243 steps inside one epoch, so the floor cannot be memorised
    away.  Shapes, and therefore compute and bytes, are unchanged.
    """

    SIZE = 16384
    FLIP = 0.2

    def __init__(self, num_features: int, num_classes: int, seed: int):
        super().__init__(self.SIZE, num_features, num_classes, seed)
        rng = np.random.default_rng([seed, 1])
        self._flip = rng.random(self.SIZE) < self.FLIP
        self._redrawn = rng.integers(0, num_classes, self.SIZE)

    def example(self, index: int):
        image, label = super().example(index)
        if self._flip[index]:
            label = np.int64(self._redrawn[index])
        return image, label

    def take(self, ids: np.ndarray):
        images, labels = super().take(ids)
        return images, np.where(self._flip[ids], self._redrawn[ids], labels)


def build_model(kind: str, seed: int):
    """``(model, plan, grads_and_vars)`` for one cold start."""
    if kind == "lm":
        model = build_lm(seed=seed, **LM_SIZES)
        rate = 0.5
    else:
        dataset = NoisyLabelImages(RESNET_SIZES["num_features"],
                                   RESNET_SIZES["num_classes"], seed)
        model = build_resnet(seed=seed, dataset=dataset, **RESNET_SIZES)
        # The issue's 0.1 diverges to NaN on seed 1.
        rate = 0.02
    with model.graph.as_default():
        grads = gradients(model.loss)
        GradientDescentOptimizer(rate).update(grads)
    build_plan = hybrid_graph_plan if kind == "lm" else ar_graph_plan
    return model, build_plan(model.graph, fusion=True), grads


def make_runner(kind: str, seed: int, backend) -> DistributedRunner:
    model, plan, _ = build_model(kind, seed)
    return DistributedRunner(model, CLUSTER, plan, seed=seed, backend=backend)


def cold_start(workload: TrainingWorkload, seed: int):
    """Build -> gradients/optimizer -> runner -> end of the third step.
    Returns the live runner, the warm-up losses and the seconds it took."""
    start = now()
    runner = make_runner(workload.model, seed, workload.backend())
    try:
        losses = [runner.step(i).replica_losses for i in range(WARMUP_STEPS)]
    except BaseException:
        runner.close()
        raise
    return runner, losses, now() - start


def timed_step(runner, i: int) -> Tuple[float, object]:
    start = now()
    result = runner.step(i)
    return ms_since(start), result


# -- end to end --------------------------------------------------------------

def run_end_to_end(workload: TrainingWorkload, seed: int, seconds: float,
                   scale: Scale) -> RunResult:
    result = RunResult(workload.name)
    setups = []
    for cycle in range(scale.setup_cycles):
        runner, losses, seconds_taken = cold_start(workload, seed)
        setups.append(seconds_taken)
        if cycle < scale.setup_cycles - 1:  # the last one gets measured
            runner.close()
            # Graphs are cyclic and their big arrays are few objects, so
            # the collector would let closed runners pile up into
            # peak_rss_mb.
            gc.collect()
    block_rate, block_p50, block_p95, block_bytes = [], [], [], []
    try:
        runner.transcript.clear()
        step = WARMUP_STEPS
        window_start = now()
        while True:
            times = []
            block_start = now()
            for _ in range(scale.block_steps):
                elapsed, res = timed_step(runner, step)
                times.append(elapsed)
                losses.append(res.replica_losses)
                step += 1
            wall = now() - block_start
            block_rate.append(SAMPLES_PER_STEP * scale.block_steps / wall)
            p50, p95 = percentiles(times, (50, 95))
            block_p50.append(p50)
            block_p95.append(p95)
            block_bytes.append(runner.transcript.total_network_bytes())
            # Keeps memory independent of how many steps the window fits.
            runner.transcript.clear()
            if (len(block_rate) >= scale.min_blocks
                    and now() - window_start + wall > seconds):
                break   # the next block would not fit the window
    finally:
        runner.close()
    rss = peak_rss_mb()     # before the reference run fattens this process

    mean_losses = [float(np.mean(step_losses)) for step_losses in losses]
    result.record(len(mean_losses),
                  [f"step {i}: loss {v}" for i, v in enumerate(mean_losses)
                   if not math.isfinite(v)])
    # Fixed step range, so both repeat exactly at a fixed seed no matter
    # how many steps the time window fits.
    fixed = scale.min_blocks * scale.block_steps
    final_loss = float(np.mean(
        mean_losses[WARMUP_STEPS + fixed - scale.block_steps:
                    WARMUP_STEPS + fixed]))
    if scale.check_learning:
        result.check(final_loss < mean_losses[0],
                     f"final_loss {final_loss} not below step 0's "
                     f"{mean_losses[0]}")
    if workload.transport is not None:
        reference = make_runner(workload.model, seed, "inproc")
        try:
            expected = [reference.step(i).replica_losses
                        for i in range(scale.reference_steps)]
        finally:
            reference.close()
        result.record(scale.reference_steps,
                      [f"step {i}: losses differ bit-wise from the inproc "
                       "reference"
                       for i, (want, got) in enumerate(zip(expected, losses))
                       if want != got])
    result.check_leaks()

    m = result.metrics
    m["setup_s"] = over_blocks(setups, "s")
    m["samples_per_s"] = over_blocks(block_rate, "samples/s")
    m["step_ms_p50"] = over_blocks(block_p50, "ms")
    m["net_bytes_per_step"] = scalar(
        sum(block_bytes[:scale.min_blocks]) / fixed, "bytes")
    m["final_loss"] = scalar(final_loss, "nats")
    m["peak_rss_mb"] = scalar(rss, "MB")
    # A request to a training job is one step (see README, "One table of
    # nine metrics for four workloads").
    m["req_ms_p50"] = dict(m["step_ms_p50"])
    m["req_ms_p95"] = over_blocks(block_p95, "ms")
    m["qps_sat"] = over_blocks(
        [r / SAMPLES_PER_STEP for r in block_rate], "req/s")
    result.complete(END_TO_END)
    return result


# -- per layer ---------------------------------------------------------------

def _fused_bucket_elements(transformed) -> List[int]:
    """Element counts of the fused AllReduce buckets, in plan order."""
    return [op.inputs[0].spec.shape[0]
            for op in transformed.graph.operations
            if op.op_type == "fused_allreduce"
            and op.attrs.get("replica", 0) == 0]


def _comm_counts(transcript, steps: int) -> Dict[str, float]:
    """Exact per-step counts from the logical transcript."""
    m = {}
    for name, prefix in (("net", None), ("allreduce", "allreduce"),
                         ("ps", "edge/shard_lookup")):
        moved = transcript.filter(prefix)
        m[f"comm.{name}_bytes"] = sum(t.nbytes for t in moved) / steps
        m[f"comm.{name}_msgs"] = len(moved) / steps
    m["comm.max_machine_bytes"] = transcript.max_machine_bytes() / steps
    return m


def _transport_counters(per_step: Dict[str, float]) -> Dict[str, float]:
    """Per-step deltas of ``backend.serialization_totals``, by metric."""
    m = {"transport.serialize_ms": per_step["serialize_s"] * 1e3,
         "transport.deserialize_ms": per_step["deserialize_s"] * 1e3,
         "transport.copies": per_step["copy_count"],
         "transport.msgs": (per_step["pickle_msgs"] + per_step["shm_msgs"]
                            + per_step["wire_msgs"])}
    for key in ("shm_bytes", "wire_bytes", "pickle_bytes", "fallbacks"):
        m[f"transport.{key}"] = per_step[key]
    return m


def _transport_microbench(kind: str, bulk_elements: int,
                          reps: int) -> Tuple[float, float]:
    """``(round trip in us, bulk MB/s)`` through one endpoint pair, the
    way ``repro.cli bench --network`` measures a link."""
    transport = make_transport(kind, 1)
    try:
        def ping_pong():
            transport.send(CONTROLLER, 0, ("ping",), 0)
            transport.recv(0, CONTROLLER, ("ping",), timeout=30.0)
            transport.send(0, CONTROLLER, ("pong",), 0)
            transport.recv(CONTROLLER, 0, ("pong",), timeout=30.0)

        rtt_us = median_ms(ping_pong, reps=5 * reps, warmup=3) * 1e3
        payload = np.zeros(bulk_elements, dtype=np.float32)

        def bulk():
            transport.send(CONTROLLER, 0, ("bulk",), payload)
            transport.recv(0, CONTROLLER, ("bulk",), timeout=60.0)

        bulk_ms = median_ms(bulk, reps=reps, warmup=1)
    finally:
        transport.close()
    return rtt_us, payload.nbytes / 1e6 / (bulk_ms / 1e3)


def _sweep_step_ms(model_kind: str, seed: int, kind: str,
                   steps: int) -> float:
    runner = make_runner(model_kind, seed, backend_for(kind))
    warmup = min(WARMUP_STEPS, steps)   # a smoke run skips the fast path
    try:
        for i in range(warmup):
            runner.step(i)
        times = [timed_step(runner, warmup + i)[0] for i in range(steps)]
    finally:
        runner.close()
    return statistics.median(times)


def run_traced(workload: TrainingWorkload, seed: int, scale: Scale,
               out_dir: str) -> RunResult:
    result = RunResult(workload.name)
    tracer = Tracer()
    m: Dict[str, float] = {}
    inproc = workload.transport is None
    reps = scale.probe_reps

    # Cold start, taken apart.  The runner transforms and compiles again
    # inside its constructor; the separate calls here time those parts.
    with tracer.span("probe:cold_start"):
        model, plan, grads = build_model(workload.model, seed)
        with tracer.span("core.transform"):
            start = now()
            transformed = transform_graph(model.graph, model.loss, CLUSTER,
                                          plan)
            m["core.transform_ms"] = ms_since(start)
        with tracer.span("graph.compile"):
            session = DistributedSession(transformed, seed=seed)
            fetches = list(transformed.replica_losses) + [transformed.train_op]
            start = now()
            step_plan = session.compile(fetches)
            m["graph.compile_ms"] = ms_since(start)
        m["graph.ops_per_step"] = len(step_plan.schedule)
        with tracer.span("core.runner_init"):
            start = now()
            runner = DistributedRunner(model, CLUSTER, plan, seed=seed,
                                       backend=workload.backend())
            construct_ms = ms_since(start)
        m["core.backend_start_ms"] = (
            construct_ms - m["core.transform_ms"]
            - (m["graph.compile_ms"] if inproc else 0.0))
    try:
        with tracer.span("core.first_steps"):
            start = now()
            for i in range(WARMUP_STEPS):
                result.check(math.isfinite(runner.step(i).mean_loss),
                             f"non-finite loss at step {i}")
            m["core.first_steps_ms"] = ms_since(start)

        # graph: one replica's compute in a plain session over the user
        # graph, sampled between the blocks below -- this host's speed
        # drifts within seconds, and comm.sync_ms / core.exposed_sync_ms
        # are differences against these numbers.
        feed = model.feed(model.dataset.shard(CLUSTER.total_gpus, 0)
                          .batch(model.batch_size, 0))
        plain = Session(model.graph, seed=seed)
        replays = {"graph.fwd": plain.compile([model.loss]),
                   "graph.fwd_bwd": plain.compile(
                       [model.loss] + [g for g, _ in grads])}
        graph_ms: Dict[str, List[float]] = {name: [] for name in replays}

        def sample_graph(count: int) -> None:
            for name, replay in replays.items():
                with tracer.span(name):
                    for _ in range(count):
                        start = now()
                        plain.run_plan(replay, feed)
                        graph_ms[name].append(ms_since(start))

        sample_graph(3)     # reach the generated fast path, then discard
        for samples in graph_ms.values():
            samples.clear()

        # Alternating traced and untraced blocks of the same runner: their
        # difference is what recording spans costs.
        blocks = 2 * scale.traced_blocks - 1
        runner.transcript.clear()
        totals_before = dict(getattr(runner.backend, "serialization_totals",
                                     {}))
        step = WARMUP_STEPS
        untraced_ms: List[float] = []
        for block in range(blocks):
            sample_graph(-(-reps // blocks))
            for _ in range(scale.block_steps):
                if block % 2:
                    elapsed, res = timed_step(runner, step)
                    untraced_ms.append(elapsed)
                    loss = res.mean_loss
                elif inproc:
                    # What InprocBackend.run_step does, driven from here
                    # so its two halves get their own spans.
                    with tracer.span("step", step=step):
                        with tracer.span("nn.feed", step=step):
                            feeds = runner.feeds_for(step)
                        with tracer.span("graph.run_plan", step=step):
                            values = runner.session.run_plan(
                                runner.step_plans[0], feeds)
                    loss = float(np.mean([float(v) for v in values[:-1]]))
                else:
                    with tracer.span("step", step=step):
                        loss = runner.step(step).mean_loss
                result.check(math.isfinite(loss),
                             f"non-finite loss at step {step}")
                step += 1
        traced_ms = tracer.durations_ms("step")
        steps_run = step - WARMUP_STEPS
        step_ms, step_p95 = percentiles(traced_ms, (50, 95))
        m["core.step_ms_p95"] = step_p95
        if untraced_ms:
            base = statistics.median(untraced_ms)
            m["trace.overhead_pct"] = 100.0 * (step_ms - base) / base
        m["trace.unattributed_pct"] = tracer.unattributed_pct("step")
        if inproc:
            m["nn.feed_ms"] = statistics.median(
                tracer.durations_ms("nn.feed"))
            m["graph.run_plan_ms"] = statistics.median(
                tracer.durations_ms("graph.run_plan"))

        m.update(_comm_counts(runner.transcript, steps_run))
        totals = {}
        if not inproc:
            after = runner.backend.serialization_totals
            totals = {k: (after[k] - totals_before.get(k, 0)) / steps_run
                      for k in after}
            m.update(_transport_counters(totals))

        with tracer.span("core.command_rtt"):
            variables = transformed.graph.variables
            small = min(variables,
                        key=lambda n: int(np.prod(variables[n].shape)))
            m["core.command_rtt_ms"] = median_ms(
                lambda: runner.backend.read_variables([small]), reps)
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            path = os.path.join(tmp, "checkpoint.npz")
            with tracer.span("core.save"):
                m["core.save_ms"] = median_ms(lambda: runner.save(path),
                                              max(1, reps // 4), warmup=0)
            with tracer.span("core.restore"):
                m["core.restore_ms"] = median_ms(
                    lambda: runner.restore(path), max(1, reps // 4), warmup=0)
        with tracer.span("analysis.verify"):
            start = now()
            report = verify_plan(runner.transformed)
            m["analysis.verify_ms"] = ms_since(start)
        m["analysis.findings"] = len(report.findings)
        result.check(report.ok, "plan verifier: " + report.render())
    finally:
        runner.close()

    for name, samples in graph_ms.items():
        m[f"{name}_ms"] = statistics.median(samples)
    if inproc:
        m["comm.sync_ms"] = m["graph.run_plan_ms"] - 2 * m["graph.fwd_bwd_ms"]
    else:
        m["core.exposed_sync_ms"] = step_ms - m["graph.fwd_bwd_ms"]

    buckets = _fused_bucket_elements(transformed)
    pairs = [[np.ones(n, dtype=np.float32), np.ones(n, dtype=np.float32)]
             for n in buckets]
    with tracer.span("comm.allreduce"):
        m["comm.allreduce_ms"] = median_ms(
            lambda: [ring_allreduce(pair, machines=[0, 1]) for pair in pairs],
            reps)
    if not inproc:
        with tracer.span("transport.microbench"):
            m["transport.rtt_us"], m["transport.bulk_mb_s"] = (
                _transport_microbench(workload.transport, max(buckets), reps))

    for kind in SWEEP:
        with tracer.span(f"core.sweep.{kind}"):
            m[f"core.step_ms.{kind}"] = _sweep_step_ms(
                workload.model, seed, kind, scale.sweep_steps)
    if not inproc:
        # The bench --parallel path: fit the host-transport constants on
        # this run's own counters, then predict multiproc from inproc.
        bulk_wire = max(0.0, totals["wire_bytes"] - totals["pickle_bytes"])
        predicted = predict_multiproc_goodput(
            1e3 / m["core.step_ms.inproc"], CLUSTER.total_gpus,
            os.cpu_count() or 1, totals["pickle_bytes"], totals["shm_bytes"],
            bulk_wire, fit_transport_constants([totals]))
        m["cluster.predicted_step_ms"] = 1e3 / predicted
        m["cluster.prediction_rel_err"] = (
            100.0 * abs(1e3 / predicted - step_ms) / step_ms)

    result.check_leaks()
    result.finish_traced(tracer, m, out_dir, seed)
    return result
