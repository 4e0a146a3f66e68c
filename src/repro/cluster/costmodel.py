"""Calibrated cost model for the performance plane.

The paper reports wall-clock throughput on a real testbed; we reproduce
it on a simulator, so every constant below is a *substitution* for a piece
of 2018-era systems reality.  The table maps each constant to what it
stands in for; values are calibrated (``examples/calibrate.py`` prints
simulated next to published throughput) so that the paper's headline
ratios hold, and the shapes of all tables/figures are reproduced.

===============================  =====================================
Constant                         Stands in for
===============================  =====================================
nccl_bw                          NCCL ring AllReduce effective per-NIC
                                 bandwidth over 100 Gb/s InfiniBand
                                 (GPUDirect, ~60-75% line rate)
intra_bw                         intra-machine GPU<->GPU over PCIe P2P
mpi_bw                           OpenMPI AllGatherv effective bandwidth
                                 (no NCCL support; TCP-over-IB path --
                                 the paper notes this fallback)
ps_nic_bw                        gRPC aggregate per-NIC throughput
worker_stream_bw                 a single worker's gRPC stream rate
dense_ps_overlap                 fraction of *compute time* under which
                                 dense PS traffic can hide (TF pipelines
                                 pulls/pushes layer-by-layer with
                                 fwd/bwd); sparse embedding traffic sits
                                 at iteration boundaries and cannot hide
c_agg_sparse                     CPU ns/element to dedup+sum one sparse
                                 gradient contribution (TF conditional
                                 accumulator take_grad path)
c_agg_dense                      vectorized dense summation ns/element
agg_threads_per_machine          server-side op-level parallelism cap
c_stitch                         per-partition cost of dynamic_stitch /
                                 per-partition op scheduling (theta_2)
c_rpc_per_variable               per-variable request/queueing overhead
                                 of one PS round (pull + push RPCs are
                                 issued per variable, poorly pipelined
                                 in TF 1.x)
c_sync_per_worker                per-worker barrier/bookkeeping cost of
                                 synchronous PS training per sparse var;
                                 local aggregation reduces it to one
                                 participant (the local chief) per
                                 machine
c_apply_gathered                 per-element cost for every replica to
                                 apply an AllGatherv'd sparse update
step_latency                     per ring-step launch latency
c_collective_launch              fixed launch cost of one fused
                                 AllReduce bucket (kernel launch + NCCL
                                 group setup)
ar_overlap                       fraction of compute time under which
                                 bucketed AllReduce hides
                                 (Horovod-style backward overlap)
zipf_overlap                     cross-worker overlap of touched
                                 embedding rows (Zipf head sharing),
                                 controls local-aggregation dedup
c_serialize                      host seconds/byte to pickle a payload
                                 between worker processes
shm_bw                           shared-memory ring copy bandwidth
tcp_bw                           one TcpTransport connection's bulk
                                 frame bandwidth
===============================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the performance simulator (seconds / bytes)."""

    # Network (bytes/sec, one-way per NIC unless stated)
    nccl_bw: float = 4.0e9
    intra_bw: float = 8.0e9
    mpi_bw: float = 11.0e9
    ps_nic_bw: float = 11.0e9
    worker_stream_bw: float = 0.8e9

    # Fraction of compute time under which dense PS traffic hides
    dense_ps_overlap: float = 0.9

    # CPU-side costs (seconds per element / per unit)
    c_agg_sparse: float = 2.4e-8
    c_agg_dense: float = 1.0e-10
    agg_threads_per_machine: int = 36  # 2x 18-core Xeon E5-2695
    c_stitch: float = 3.0e-4
    c_rpc_per_variable: float = 4.0e-3
    c_sync_per_worker: float = 4.0e-3
    c_apply_gathered: float = 5.3e-9

    # Latencies
    step_latency: float = 2.5e-5
    # Fixed cost of launching one collective (kernel launch + NCCL group
    # setup + scheduler wakeup).  Only priced under bucketed (fusion-aware)
    # AllReduce accounting -- the per-collective term tensor fusion
    # amortizes; see SyncPlan.fusion_buffer_mb.
    c_collective_launch: float = 5e-5

    # Fraction of the iteration's GPU compute (profiles report fwd+bwd
    # together as gpu_time_per_iter) under which dense AllReduce can hide
    # when collectives are scheduled per fusion bucket as each bucket's
    # last gradient becomes ready (Horovod-style overlap).  The default
    # approximates the backward share of an iteration.  Like
    # c_collective_launch, only used by bucketed AR accounting.
    ar_overlap: float = 0.5

    # Sparsity overlap across workers (0 = disjoint rows, 1 = identical)
    zipf_overlap: float = 0.9

    # ---- host transport (multiprocess backend serialization) -----------
    # Seconds per byte to pickle a payload onto a queue-based transport
    # (the PR-4 worker path).  Default 0.0 keeps every pre-existing
    # simulator output exact; `fit_transport_constants` calibrates it
    # from the ShmTransport's measured telemetry counters.
    c_serialize: float = 0.0
    # Bytes/sec the shared-memory ring moves bulk payloads at (one copy
    # in, one copy out of /dev/shm).
    shm_bw: float = 8.0e9
    # Bytes/sec one TcpTransport connection sustains (loopback or NIC;
    # `fit_transport_constants` calibrates it from measured frames).  The
    # default models loopback so pre-calibration predictions stay sane.
    tcp_bw: float = 3.0e9

    def __post_init__(self):
        for name in ("nccl_bw", "intra_bw", "mpi_bw", "ps_nic_bw",
                     "worker_stream_bw", "shm_bw", "tcp_bw"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.c_serialize < 0:
            raise ValueError("c_serialize must be >= 0")
        if not 0.0 <= self.dense_ps_overlap <= 1.0:
            raise ValueError("dense_ps_overlap must be in [0, 1]")
        if not 0.0 <= self.ar_overlap <= 1.0:
            raise ValueError("ar_overlap must be in [0, 1]")
        if self.c_collective_launch < 0.0:
            raise ValueError("c_collective_launch must be >= 0")
        if not 0.0 <= self.zipf_overlap <= 1.0:
            raise ValueError("zipf_overlap must be in [0, 1]")
        if self.agg_threads_per_machine < 1:
            raise ValueError("agg_threads_per_machine must be >= 1")

    def with_overrides(self, **kwargs) -> "CostModel":
        return replace(self, **kwargs)


def union_alpha(alpha: float, k: int, zipf_overlap: float) -> float:
    """Effective row fraction after merging k workers' sparse gradients.

    With fully independent batches the union of k samples of fraction
    ``alpha`` is ``1 - (1 - alpha)^k``; natural-language batches overlap
    far more than independence predicts because frequent (Zipf-head) words
    recur in every batch.  ``zipf_overlap`` interpolates between the
    independent union (0) and complete overlap (1):

        alpha_eff = alpha + (1 - zipf_overlap) * (union_independent - alpha)
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    independent = 1.0 - (1.0 - alpha) ** k
    return alpha + (1.0 - zipf_overlap) * (independent - alpha)


def fit_transport_constants(samples, base: "CostModel" = None) -> "CostModel":
    """Calibrate ``c_serialize`` / ``shm_bw`` / ``tcp_bw`` from telemetry.

    *samples* is an iterable of counter dicts, such as
    ``MultiprocBackend.serialization_totals`` or the
    :func:`~repro.comm.transport.counter_delta` of two reads of it
    around a step.  The keys used are ``pickle_bytes`` / ``serialize_s`` for the pickle path,
    ``shm_bytes`` / ``deserialize_s`` + ``serialize_s`` for the ring
    path, and the bulk (non-pickle) share of ``wire_bytes`` for the TCP
    frame path.  On the TCP transport every frame counts ``wire_bytes``
    and pickle-path frames *also* count ``pickle_bytes``, so the bulk
    wire traffic is their difference.  Measurements that would produce
    degenerate constants (no bytes moved, or zero measured time) leave
    the corresponding default untouched.
    """
    base = base if base is not None else DEFAULT_COST_MODEL
    pickle_bytes = pickle_s = shm_bytes = shm_s = 0.0
    wire_bytes = wire_s = 0.0
    for counters in samples:
        pb = float(counters.get("pickle_bytes", 0))
        sb = float(counters.get("shm_bytes", 0))
        wb = max(0.0, float(counters.get("wire_bytes", 0)) - pb)
        wall = (float(counters.get("serialize_s", 0.0))
                + float(counters.get("deserialize_s", 0.0)))
        total = pb + sb + wb
        if total <= 0 or wall <= 0:
            continue
        # Wall time is attributed to the paths by bytes moved; on
        # homogeneous steps (all one path) this is exact.
        pickle_bytes += pb
        shm_bytes += sb
        wire_bytes += wb
        pickle_s += wall * (pb / total)
        shm_s += wall * (sb / total)
        wire_s += wall * (wb / total)
    overrides = {}
    if pickle_bytes > 0 and pickle_s > 0:
        overrides["c_serialize"] = pickle_s / pickle_bytes
    if shm_bytes > 0 and shm_s > 0:
        overrides["shm_bw"] = shm_bytes / shm_s
    if wire_bytes > 0 and wire_s > 0:
        overrides["tcp_bw"] = wire_bytes / wire_s
    return base.with_overrides(**overrides) if overrides else base


def predict_multiproc_goodput(inproc_steps_per_sec: float, num_workers: int,
                              cpu_count: int, pickle_bytes_per_step: float,
                              shm_bytes_per_step: float,
                              wire_bytes_per_step: float = 0.0,
                              cost: "CostModel" = None) -> float:
    """Predicted multiprocess steps/sec from the in-process rate.

    Replicas run concurrently up to the host's core count, so compute
    time shrinks by ``min(num_workers, cpu_count)``; the per-step
    transport bill (pickled control bytes at ``c_serialize`` sec/byte,
    ring payload bytes at ``shm_bw``, bulk socket-frame bytes at
    ``tcp_bw``) is paid on the controller's critical path and does not
    parallelize.
    """
    if inproc_steps_per_sec <= 0 or num_workers < 1:
        return 0.0
    cost = cost if cost is not None else DEFAULT_COST_MODEL
    parallelism = max(1, min(num_workers, cpu_count))
    compute_s = 1.0 / inproc_steps_per_sec / parallelism
    transport_s = (pickle_bytes_per_step * cost.c_serialize
                   + shm_bytes_per_step / cost.shm_bw
                   + wire_bytes_per_step / cost.tcp_bw)
    return 1.0 / (compute_s + transport_s)


DEFAULT_COST_MODEL = CostModel()
