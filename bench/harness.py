"""Shared measurement plumbing: metric tables, block statistics, spans,
and the result record every workload run produces."""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from bench import hygiene

# name -> unit.  BENCHMARK.json declares the same tables (plus direction
# and bound); bench/test_bench_contract.py keeps the two in step.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "step_ms_p50": "ms",
    "net_bytes_per_step": "bytes",
    "final_loss": "nats",
    "peak_rss_mb": "MB",
    "req_ms_p50": "ms",
    "req_ms_p95": "ms",
    "qps_sat": "req/s",
}

PER_LAYER: Dict[str, str] = {
    "nn.feed_ms": "ms",
    "graph.fwd_ms": "ms",
    "graph.fwd_bwd_ms": "ms",
    "graph.run_plan_ms": "ms",
    "graph.compile_ms": "ms",
    "graph.ops_per_step": "count",
    "comm.sync_ms": "ms",
    "comm.allreduce_ms": "ms",
    "comm.net_bytes": "bytes",
    "comm.net_msgs": "count",
    "comm.allreduce_bytes": "bytes",
    "comm.allreduce_msgs": "count",
    "comm.ps_bytes": "bytes",
    "comm.ps_msgs": "count",
    "comm.max_machine_bytes": "bytes",
    "transport.serialize_ms": "ms",
    "transport.deserialize_ms": "ms",
    "transport.copies": "count",
    "transport.msgs": "count",
    "transport.shm_bytes": "bytes",
    "transport.wire_bytes": "bytes",
    "transport.pickle_bytes": "bytes",
    "transport.fallbacks": "count",
    "transport.rtt_us": "us",
    "transport.bulk_mb_s": "MB/s",
    "core.transform_ms": "ms",
    "core.backend_start_ms": "ms",
    "core.first_steps_ms": "ms",
    "core.exposed_sync_ms": "ms",
    "core.command_rtt_ms": "ms",
    "core.step_ms_p95": "ms",
    "core.save_ms": "ms",
    "core.restore_ms": "ms",
    "core.step_ms.inproc": "ms",
    "core.step_ms.queue": "ms",
    "core.step_ms.shm": "ms",
    "core.step_ms.tcp": "ms",
    "analysis.verify_ms": "ms",
    "analysis.findings": "count",
    "cluster.predicted_step_ms": "ms",
    "cluster.prediction_rel_err": "%",
    "serve.engine_ms_b1": "ms",
    "serve.engine_ms_b8": "ms",
    "serve.submit_us": "us",
    "serve.batch_size_mean": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.batches_per_s": "1/s",
    "serve.reload_ms": "ms",
    "serve.req_ms_p99": "ms",
    "serve.gen_late_ms_p99": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


@dataclass(frozen=True)
class Scale:
    """How much work one run measures.  ``FULL`` is the benchmark;
    ``SMOKE`` only proves the plumbing (tier-1 runs it)."""

    block_steps: int = 40          # training steps per timing block
    min_blocks: int = 6            # blocks that fix bytes/step + final_loss
    setup_cycles: int = 9          # cold starts; the last one is measured
    reference_steps: int = 20      # steps checked against the inproc run
    traced_blocks: int = 3         # traced blocks (x block_steps steps)
    probe_reps: int = 20           # repetitions of each per-layer probe
    sweep_steps: int = 40          # steps per backend in the sweep
    serve_rate: float = 400.0      # open-loop arrival rate, req/s
    serve_reload_every: int = 800  # open-loop requests between reloads
    serve_examples: int = 512      # distinct examples requests draw from
    check_learning: bool = True    # final_loss must be below step 0's


FULL = Scale()
SMOKE = Scale(block_steps=1, min_blocks=2, setup_cycles=1, reference_steps=3,
              traced_blocks=1, probe_reps=2, sweep_steps=1,
              serve_reload_every=40, serve_examples=16,
              check_learning=False)
SMOKE_SECONDS = 0.4     # 120 open-loop requests; min_blocks training blocks

WARMUP_STEPS = 3  # the third step runs the generated fast path


def now() -> float:
    return time.perf_counter()


def ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def median_ms(fn, reps: int, warmup: int = 2) -> float:
    """Median wall time of ``fn()`` in ms, after *warmup* unmeasured calls."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    """Controller peak RSS plus the largest reaped child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def over_blocks(values: Sequence[float], unit: str) -> Dict[str, object]:
    """A timing metric: the median over blocks of the block statistic,
    with the quartiles across blocks as its reported spread."""
    values = [float(v) for v in values]
    out: Dict[str, object] = {"value": statistics.median(values),
                              "unit": unit, "blocks": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def scalar(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class Tracer:
    """In-memory spans ``[name, start, end, parent, step]``; written out
    as Chrome trace-event JSON when the run ends.

    ``span`` nests by call stack (one thread); ``add``/``finish`` record
    spans whose ends are observed elsewhere (request completions).
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, step: Optional[int] = None):
        parent = self._stack[-1] if self._stack else None
        index = self.add(name, time.perf_counter(), None, parent, step)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, start: float, end: Optional[float],
            parent: Optional[int] = None, step: Optional[int] = None) -> int:
        self.spans.append([name, start, end, parent, step])
        return len(self.spans) - 1

    def finish(self, index: int, end: float) -> None:
        self.spans[index][2] = end

    def durations_ms(self, name: str) -> List[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans
                if s[0] == name and s[2] is not None]

    def unattributed_pct(self, name: str) -> float:
        """Share of all *name* spans' time not covered by child spans."""
        total = covered = 0.0
        parents = {i for i, s in enumerate(self.spans)
                   if s[0] == name and s[2] is not None}
        for i in parents:
            total += self.spans[i][2] - self.spans[i][1]
        for s in self.spans:
            if s[3] in parents and s[2] is not None:
                covered += s[2] - s[1]
        return 100.0 * (1.0 - covered / total) if total > 0 else 0.0

    def write_chrome(self, path: str, workload: str) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 0,
                   "args": {"name": workload}}]
        for index, (name, start, end, parent, step) in enumerate(self.spans):
            if end is None:
                continue
            events.append({
                "name": name, "ph": "X", "pid": 0,
                # Requests overlap each other; give them their own row.
                "tid": 1 if name == "request" else 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "step": step},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


@dataclass
class RunResult:
    """One workload x one mode (untraced end-to-end, or traced per-layer)."""

    workload: str
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    failed: int = 0
    trace_file: Optional[str] = None

    def record(self, attempted: int, failures: Sequence[str]) -> None:
        """*attempted* operations, one message per failed one."""
        self.attempted += attempted
        self.failed += min(attempted, len(failures))
        self.failures.extend(failures[:5])

    def check(self, ok: bool, what: str) -> None:
        self.record(1, [] if ok else [what])

    def check_leaks(self) -> None:
        leaks = hygiene.leak_violations()
        self.check(not leaks, "left behind: " + ", ".join(leaks))

    def finish_traced(self, tracer: "Tracer", values: Dict[str, float],
                      out_dir: str, seed: int) -> None:
        """Write the spans out and turn probe values into metrics."""
        os.makedirs(out_dir, exist_ok=True)
        self.trace_file = os.path.join(
            out_dir, f"{self.workload}.seed{seed}.trace.json")
        tracer.write_chrome(self.trace_file, self.workload)
        self.metrics = {name: scalar(value, PER_LAYER[name])
                        for name, value in values.items()}
        self.complete(PER_LAYER)

    def complete(self, table: Dict[str, str]) -> None:
        """Every declared metric is reported; a layer that is not on this
        workload's path reports 0."""
        unknown = set(self.metrics) - set(table)
        if unknown:
            raise KeyError(f"undeclared metrics: {sorted(unknown)}")
        for name, unit in table.items():
            self.metrics.setdefault(name, scalar(0.0, unit))
        self.metrics = {name: self.metrics[name] for name in table}

    def contract_line(self) -> str:
        """The driver's last-line JSON object."""
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in self.metrics.items()},
        })

    def detail(self) -> Dict[str, object]:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "failures": self.failures,
                "metrics": self.metrics, "trace_file": self.trace_file}


def print_metrics(workload: str, metrics: Dict[str, Dict[str, object]]) -> None:
    for name, m in metrics.items():
        spread = ""
        if "q1" in m:
            spread = (f"   [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                      f"over {m['blocks']} blocks]")
        print(f"{workload:<18}{name:<28}{m['value']:>16.6g} {m['unit']}"
              f"{spread}", flush=True)


def percentiles(values: Iterable[float], qs: Sequence[float]) -> List[float]:
    return [float(v) for v in np.percentile(np.asarray(list(values)), qs)]
