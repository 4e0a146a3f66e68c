"""Iteration-time simulator: prices a SyncPlan on a cluster.

Composes four ingredients into per-iteration wall-clock time:

1. **Compute** -- the calibrated single-GPU fwd+bwd time (all replicas in
   parallel).
2. **Collective communication** -- ring AllReduce at machine granularity
   (NCCL builds hierarchical rings; intra-machine hops ride PCIe) and ring
   AllGatherv at worker granularity over the slower MPI path.
3. **PS communication** -- pull and push flow matrices priced by the
   max-min fair fluid network model (this is where the PS hot-spot
   asymmetry emerges) and by per-worker stream limits.
4. **CPU-side work** -- sparse gradient aggregation parallelized across
   partitions and server threads (the 1/P term of the paper's Equation 1),
   partition stitching (the theta2*P term), per-shard RPC overhead, and
   synchronization bookkeeping.

The hybrid architecture's advantage appears naturally: its collective and
PS phases use disjoint transports and overlap (``max``), while each pure
architecture pays its own full cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL, union_alpha
from repro.cluster.network import Flow, simulate_flows
from repro.cluster.plan import SyncPlan, VariableAssignment
from repro.cluster.spec import ClusterSpec
from repro.comm.ps import place_variables
from repro.nn.profiles import ModelProfile, VariableProfile


@dataclass(frozen=True)
class Shard:
    """One placed partition of a PS variable."""

    name: str
    nbytes: float
    num_elements: float
    is_sparse: bool
    alpha: float
    server: int
    num_partitions: int


@dataclass
class IterationBreakdown:
    """Where one iteration's time goes."""

    compute_time: float
    allreduce_time: float
    gatherv_time: float
    gatherv_apply_time: float
    ps_network_time: float
    ps_rpc_time: float
    server_cpu_time: float
    local_agg_time: float
    stitch_time: float
    sync_overhead_time: float
    ps_flow_bytes: Dict[Tuple[int, int], float] = field(default_factory=dict)
    # Bucketed (fusion-aware) AllReduce accounting: the raw collective
    # time before overlap with backward compute, and how many fusion
    # buckets (= collectives) it was priced over.  Zero under legacy
    # aggregate pricing (SyncPlan.fusion_buffer_mb is None).
    allreduce_raw_time: float = 0.0
    num_ar_buckets: int = 0

    @property
    def collective_time(self) -> float:
        return (self.allreduce_time + self.gatherv_time
                + self.gatherv_apply_time)

    @property
    def ps_time(self) -> float:
        return self.ps_network_time + self.ps_rpc_time

    @property
    def iteration_time(self) -> float:
        """Total seconds per iteration.

        Collectives and PS traffic use disjoint transports (NCCL/MPI vs
        gRPC) and overlap; CPU-side aggregation, stitching and sync
        bookkeeping serialize with communication.
        """
        comm = max(self.collective_time, self.ps_time)
        return (self.compute_time + comm + self.server_cpu_time
                + self.local_agg_time + self.stitch_time
                + self.sync_overhead_time)


def shard_assignments(plan: SyncPlan, cluster: ClusterSpec) -> List[Shard]:
    """Split PS variables into shards and place them on server machines."""
    pieces: List[Tuple[str, VariableAssignment, int]] = []
    for a in plan.ps_assignments:
        for p in range(a.num_partitions):
            pieces.append((f"{a.variable.name}/part_{p}", a, p))
    placement = place_variables(
        [(name, a.shard_nbytes) for name, a, _ in pieces],
        cluster.num_machines,
    )
    shards = []
    for name, a, _ in pieces:
        shards.append(
            Shard(
                name=name,
                nbytes=a.variable.nbytes / a.num_partitions,
                num_elements=a.variable.num_elements / a.num_partitions,
                is_sparse=a.variable.is_sparse,
                alpha=a.variable.alpha,
                server=placement[name],
                num_partitions=a.num_partitions,
            )
        )
    return shards


def _collective_times(plan: SyncPlan, cluster: ClusterSpec,
                      cost: CostModel, compute_time: float = 0.0,
                      ) -> Tuple[float, float, float, float, int]:
    """(allreduce, gatherv, gatherv-apply, allreduce-raw, buckets)
    accounting for one iteration.

    AllReduce pricing has two modes.  Legacy aggregate (the plan's
    ``fusion_buffer_mb`` is None): one ring over all dense bytes, as if
    collectives were free to launch and never overlapped compute.
    Bucketed: each fusion bucket pays its own ring (latency x buckets +
    bandwidth terms) plus a per-collective launch cost, and up to
    ``ar_overlap`` of *compute_time* (the profile's whole-iteration GPU
    time; the default overlap fraction approximates the backward share of
    it) hides the total -- collectives launch as each bucket's last
    gradient becomes ready, so fewer, larger buckets amortize launches
    while small ones expose them.
    """
    n, g = cluster.num_machines, cluster.gpus_per_machine
    w = cluster.total_gpus

    def ring_time(nbytes: float) -> float:
        t = 0.0
        if n > 1:
            # Machine-level hierarchical ring: 2(N-1) steps of D/N each.
            t += 2 * (n - 1) * (nbytes / n / cost.nccl_bw
                                + cost.step_latency)
        if g > 1:
            t += 2 * (g - 1) * (nbytes / g / cost.intra_bw
                                + cost.step_latency)
        return t

    ar_time = 0.0
    ar_raw = 0.0
    num_buckets = 0
    dense_bytes = plan.allreduce_bytes
    if dense_bytes and w > 1:
        if plan.fusion_buffer_mb is None:
            ar_time = ring_time(dense_bytes)
        else:
            buckets = plan.allreduce_buckets()
            num_buckets = len(buckets)
            ar_raw = (sum(ring_time(b) for b in buckets)
                      + cost.c_collective_launch * num_buckets)
            ar_time = max(0.0, ar_raw - cost.ar_overlap * compute_time)

    gatherv_time = 0.0
    apply_time = 0.0
    gatherv_payload = sum(
        a.variable.alpha * a.variable.nbytes
        for a in plan.gatherv_assignments
    )
    if gatherv_payload and w > 1:
        # Every worker must receive every other worker's payload, so each
        # machine's NIC ingests G * (W-1) * payload bytes regardless of the
        # gather schedule -- the binding constraint at scale.
        per_machine = g * (w - 1) * gatherv_payload
        gatherv_time = (per_machine / cost.mpi_bw
                        + (w - 1) * cost.step_latency)
        gathered_elements = w * sum(
            a.variable.alpha * a.variable.num_elements
            for a in plan.gatherv_assignments
        )
        # Every replica applies the full gathered update locally.
        apply_time = gathered_elements * cost.c_apply_gathered

    return ar_time, gatherv_time, apply_time, ar_raw, num_buckets


def _ps_times(plan: SyncPlan, cluster: ClusterSpec, cost: CostModel,
              shards: List[Shard], compute_time: float):
    """PS network, RPC, server CPU, local agg, stitch, sync times.

    Dense and sparse traffic are priced separately: dense pulls/pushes
    pipeline with layer-wise forward/backward compute (TF issues them as
    each layer needs its variables), so up to ``dense_ps_overlap *
    compute_time`` of dense transfer hides under compute.  Sparse
    embedding traffic sits at the iteration boundary (pull before step 0,
    push after the last backward op) and cannot hide.
    """
    n, g, w = (cluster.num_machines, cluster.gpus_per_machine,
               cluster.total_gpus)
    if not shards:
        return 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, {}

    def pull_bytes(shard: Shard) -> float:
        return shard.alpha * shard.nbytes if shard.is_sparse else shard.nbytes

    def push_bytes_worker(shard: Shard) -> float:
        return shard.alpha * shard.nbytes if shard.is_sparse else shard.nbytes

    def push_bytes_machine(shard: Shard) -> float:
        if shard.is_sparse:
            eff = union_alpha(shard.alpha, g, cost.zipf_overlap)
            return eff * shard.nbytes
        return shard.nbytes

    # ---- flow matrices (machine granularity), dense/sparse separate ----
    matrix: Dict[Tuple[int, int], float] = {}
    flows: Dict[bool, List[Flow]] = {True: [], False: []}

    def add_flow(src: int, dst: int, nbytes: float, stage: int,
                 sparse: bool) -> None:
        if src == dst or nbytes <= 0:
            return
        matrix[(src, dst)] = matrix.get((src, dst), 0.0) + nbytes
        flows[sparse].append(Flow(src, dst, nbytes, stage=stage))

    for shard in shards:
        for m in range(n):
            if m == shard.server:
                continue
            add_flow(shard.server, m, g * pull_bytes(shard), 0,
                     shard.is_sparse)

    for shard in shards:
        for m in range(n):
            if m == shard.server:
                continue
            if plan.local_aggregation:
                add_flow(m, shard.server, push_bytes_machine(shard), 1,
                         shard.is_sparse)
            else:
                add_flow(m, shard.server, g * push_bytes_worker(shard), 1,
                         shard.is_sparse)

    if not plan.smart_placement:
        # Aggregation/update ops end up on the chief worker's machine
        # (machine 0) instead of the owning server: aggregated gradients
        # make an extra network hop chief -> server.
        for shard in shards:
            contributors = n if plan.local_aggregation else w
            agg_bytes = (
                union_alpha(shard.alpha, contributors, cost.zipf_overlap)
                * shard.nbytes if shard.is_sparse else shard.nbytes
            )
            if shard.server != 0:
                add_flow(0, shard.server, agg_bytes, 2, shard.is_sparse)

    # ---- per-worker stream limits, dense/sparse separate ---------------
    # Worker 0 of each machine is the local chief (does the machine push
    # under local aggregation).  Streams of one worker serialize.
    def stream_time(sparse: bool) -> float:
        worst = 0.0
        for m in range(n):
            for j in range(g):
                load = 0.0
                for shard in shards:
                    if shard.server == m or shard.is_sparse is not sparse:
                        continue
                    load += pull_bytes(shard)
                    if plan.local_aggregation:
                        if j == 0:
                            load += push_bytes_machine(shard)
                    else:
                        load += push_bytes_worker(shard)
                worst = max(worst, load / cost.worker_stream_bw)
        return worst

    dense_raw = max(simulate_flows(flows[False], cost.ps_nic_bw),
                    stream_time(False))
    sparse_raw = max(simulate_flows(flows[True], cost.ps_nic_bw),
                     stream_time(True))
    hidden = cost.dense_ps_overlap * compute_time
    ps_network = max(0.0, dense_raw - hidden) + sparse_raw

    # ---- per-variable request overhead ---------------------------------
    # Pull/push RPCs are issued per variable; TF 1.x pipelines them poorly,
    # so models with many variables (Inception: ~100) pay proportionally.
    rpc_time = cost.c_rpc_per_variable * len(plan.ps_assignments)

    # ---- server-side CPU: sparse aggregation + pull gather -------------
    # Work per sparse variable: serving pulls (gather rows for W workers)
    # plus aggregating pushes.  Parallelism: shards spread over server
    # threads; the makespan is bounded below by both total-work/threads
    # and the largest single-shard task (the 1/P term of Equation 1).
    total_threads = n * cost.agg_threads_per_machine
    total_work = 0.0
    max_task = 0.0
    for a in plan.ps_assignments:
        v = a.variable
        if v.is_sparse:
            contributors = n if plan.local_aggregation else w
            contrib_alpha = (
                union_alpha(v.alpha, g, cost.zipf_overlap)
                if plan.local_aggregation else v.alpha
            )
            work = (w * v.alpha * v.num_elements            # pull gathers
                    + contributors * contrib_alpha * v.num_elements)
            work *= cost.c_agg_sparse
            # Sparse aggregation (index dedup + scattered accumulate) is
            # serial within one shard; a variable's minimum latency is one
            # shard's work -- the 1/P term of Equation 1.
            max_task = max(max_task, work / a.num_partitions)
        else:
            contributors = n if plan.local_aggregation else w
            # Dense summation vectorizes across threads inside one op, so
            # it only contributes to the total-work bound.
            work = contributors * v.num_elements * cost.c_agg_dense
        total_work += work
    server_cpu = max(total_work / total_threads, max_task)

    # ---- local aggregation CPU (on every worker machine, in parallel) --
    local_agg_time = 0.0
    if plan.local_aggregation:
        per_machine = 0.0
        for a in plan.ps_assignments:
            v = a.variable
            if v.is_sparse:
                per_machine += (g * v.alpha * v.num_elements
                                * cost.c_agg_sparse)
            else:
                per_machine += g * v.num_elements * cost.c_agg_dense
        local_agg_time = per_machine / cost.agg_threads_per_machine

    # ---- worker-side stitching of partitioned reads (theta2 * P) -------
    stitch_time = cost.c_stitch * sum(
        a.num_partitions for a in plan.ps_assignments
        if a.variable.is_sparse and a.num_partitions > 1
    )

    # ---- synchronous-training bookkeeping ------------------------------
    num_sparse = sum(1 for a in plan.ps_assignments if a.variable.is_sparse)
    sync_scale = 1.0 if not plan.local_aggregation else 1.0 / g
    sync_time = cost.c_sync_per_worker * w * num_sparse * sync_scale

    return (ps_network, rpc_time, server_cpu, local_agg_time, stitch_time,
            sync_time, matrix)


def simulate_iteration(
    profile: ModelProfile,
    plan: SyncPlan,
    cluster: ClusterSpec,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> IterationBreakdown:
    """Price one training iteration of *plan* on *cluster*.

    A single-GPU cluster runs the original undistributed graph (as the
    paper's 1-GPU baselines do), so it pays compute time only.
    """
    if cluster.total_gpus == 1:
        return IterationBreakdown(
            compute_time=profile.gpu_time_per_iter,
            allreduce_time=0.0, gatherv_time=0.0, gatherv_apply_time=0.0,
            ps_network_time=0.0, ps_rpc_time=0.0, server_cpu_time=0.0,
            local_agg_time=0.0, stitch_time=0.0, sync_overhead_time=0.0,
        )
    ar_time, gatherv_time, apply_time, ar_raw, num_buckets = \
        _collective_times(plan, cluster, cost, profile.gpu_time_per_iter)
    shards = shard_assignments(plan, cluster)
    (ps_network, rpc_time, server_cpu, local_agg, stitch, sync,
     matrix) = _ps_times(plan, cluster, cost, shards,
                         profile.gpu_time_per_iter)
    return IterationBreakdown(
        compute_time=profile.gpu_time_per_iter,
        allreduce_time=ar_time,
        gatherv_time=gatherv_time,
        gatherv_apply_time=apply_time,
        ps_network_time=ps_network,
        ps_rpc_time=rpc_time,
        server_cpu_time=server_cpu,
        local_agg_time=local_agg,
        stitch_time=stitch,
        sync_overhead_time=sync,
        ps_flow_bytes=matrix,
        allreduce_raw_time=ar_raw,
        num_ar_buckets=num_buckets,
    )


def derive_profile(
    model,
    alphas: Optional[Dict[str, float]] = None,
    gpu_time_per_iter: float = 1e-3,
    name: str = "live",
) -> ModelProfile:
    """A :class:`ModelProfile` of a live graph, for the simulator.

    Builds one :class:`VariableProfile` per synchronized variable,
    merging partition shards back into their parent (the SyncPlan-level
    plan builders re-partition from ``num_partitions``), with sparsity
    from the static classifier and alpha from the measured values
    *alphas*, which every sparse variable needs in (0, 1] (``ValueError``
    otherwise: a guessed alpha could cross the hybrid's near-dense
    threshold and price a plan the engine does not run).
    ``gpu_time_per_iter`` is a placeholder the caller replaces with a
    measured or fitted compute time.
    """
    # Imported here: the graph transform imports this package.
    from repro.core.transform.plan import classify_variables

    graph = model.graph
    alphas = alphas or {}
    sparse_map = classify_variables(graph)
    merged: Dict[str, Dict] = {}
    order: List[str] = []
    for var_name in graph.gradient_info:
        var = graph.variables[var_name]
        info = getattr(var, "partition_info", None)
        parent = info["parent"] if info else var_name
        entry = merged.get(parent)
        if entry is None:
            entry = merged[parent] = {
                "elements": 0, "rows": 0,
                "sparse": bool(sparse_map.get(var_name)),
                "alpha": None,
            }
            order.append(parent)
        entry["elements"] += int(var.num_elements)
        entry["rows"] += int(var.shape[0]) if var.shape else 1
        entry["sparse"] = entry["sparse"] or bool(sparse_map.get(var_name))
        if var_name in alphas:
            # measure_alpha already parent-merges, so any shard carries
            # the parent's value.
            entry["alpha"] = float(alphas[var_name])
    variables = []
    for parent in order:
        entry = merged[parent]
        alpha = entry["alpha"]
        if entry["sparse"] and (alpha is None or not 0.0 < alpha <= 1.0):
            raise ValueError(
                f"sparse variable {parent!r} needs a measured alpha in "
                f"(0, 1]; got {alpha!r}")
        variables.append(VariableProfile(
            name=parent,
            num_elements=entry["elements"],
            is_sparse=entry["sparse"],
            alpha=alpha if entry["sparse"] else 1.0,
            rows=entry["rows"] if entry["sparse"] else None,
        ))
    return ModelProfile(
        name=name,
        variables=variables,
        batch_per_gpu=getattr(model, "batch_size", 1),
        units_per_sample=1,
        unit="samples",
        gpu_time_per_iter=gpu_time_per_iter,
    )


def throughput(
    profile: ModelProfile,
    plan: SyncPlan,
    cluster: ClusterSpec,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Units (images or words) per second for *plan* on *cluster*."""
    breakdown = simulate_iteration(profile, plan, cluster, cost)
    return (profile.units_per_iteration(cluster.total_gpus)
            / breakdown.iteration_time)
