"""Fluid network model with max-min fair bandwidth sharing.

Each machine has a full-duplex NIC: an egress resource and an ingress
resource, each of a given capacity in bytes/sec.  Concurrent flows share
these resources max-min fairly -- the standard fluid approximation of TCP
fair sharing.  The simulation advances from flow completion to flow
completion, recomputing rates at each event.

This model is what lets the PS hot-spot asymmetry (paper section 3.1)
*emerge* rather than being asserted: a server machine with ``w(N-1)``
bytes to egress finishes long after machines that only push ``w``,
because its NIC is the max-min bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Resource = Tuple[str, int]  # ("out"|"in", machine)


@dataclass
class Flow:
    """A point-to-point transfer of ``nbytes`` from src to dst machine.

    ``stage`` imposes barrier ordering: all flows of stage ``s`` finish
    before stage ``s+1`` starts (ring steps, pull-then-push phases).
    Flows with ``src == dst`` are intra-machine and complete instantly.
    """

    src: int
    dst: int
    nbytes: float
    tag: str = ""
    stage: int = 0

    def resources(self) -> List[Resource]:
        return [("out", self.src), ("in", self.dst)]


def maxmin_rates(
    flows: Sequence[Flow],
    capacity: Mapping[Resource, float],
) -> List[float]:
    """Max-min fair rates for *flows* under per-resource capacities.

    Progressive filling: repeatedly find the bottleneck resource (smallest
    equal-share), freeze its flows at that rate, subtract, and continue.
    Capacities clamp at zero on entry and after every subtraction:
    explicit zero-capacity resources (a dead NIC) yield zero-rate flows,
    and float drift from repeated subtraction can never push a residual
    negative (which would hand later flows a negative share).
    """
    remaining = {r: max(0.0, float(c)) for r, c in capacity.items()}
    rates: List[Optional[float]] = [None] * len(flows)
    active = set(range(len(flows)))

    while active:
        usage: Dict[Resource, int] = {}
        for i in active:
            for r in flows[i].resources():
                usage[r] = usage.get(r, 0) + 1
        share: Dict[Resource, float] = {}
        for r, n in usage.items():
            cap = remaining.get(r)
            if cap is None:
                raise KeyError(f"no capacity defined for resource {r}")
            share[r] = cap / n
        bottleneck = min(share, key=lambda r: share[r])
        rate = share[bottleneck]
        frozen = [i for i in active if bottleneck in flows[i].resources()]
        for i in frozen:
            rates[i] = rate
            active.remove(i)
            for r in flows[i].resources():
                remaining[r] = max(0.0, remaining[r] - rate)
    return [r if r is not None else 0.0 for r in rates]


def _uniform_capacity(flows: Sequence[Flow], bandwidth: float,
                      ) -> Dict[Resource, float]:
    machines = {f.src for f in flows} | {f.dst for f in flows}
    caps: Dict[Resource, float] = {}
    for m in machines:
        caps[("out", m)] = bandwidth
        caps[("in", m)] = bandwidth
    return caps


def simulate_flows(
    flows: Sequence[Flow],
    bandwidth: float,
    per_stage_latency: float = 0.0,
    capacity: Optional[Mapping[Resource, float]] = None,
) -> float:
    """Completion time of *flows* under max-min sharing.

    Stages run as barriers in ascending order; within a stage, rates are
    recomputed at every flow completion.

    Args:
        flows: the transfer set.
        bandwidth: per-NIC one-way bandwidth (bytes/sec) when *capacity*
            is not given.
        per_stage_latency: fixed latency added once per non-empty stage
            (ring step setup, RPC round trip).
        capacity: optional explicit per-resource capacities.

    Returns:
        Total seconds until the last flow completes.
    """
    if bandwidth <= 0 and capacity is None:
        raise ValueError("bandwidth must be positive")
    network = [f for f in flows if f.src != f.dst and f.nbytes > 0]
    if not network:
        return 0.0

    stages = sorted({f.stage for f in network})
    total = 0.0
    for stage in stages:
        stage_flows = [f for f in network if f.stage == stage]
        caps = dict(capacity) if capacity is not None else _uniform_capacity(
            stage_flows, bandwidth
        )
        remaining = [float(f.nbytes) for f in stage_flows]
        active = list(range(len(stage_flows)))
        elapsed = per_stage_latency
        while active:
            sub_flows = [stage_flows[i] for i in active]
            rates = maxmin_rates(sub_flows, caps)
            # A flow only counts as progressing if it finishes in
            # finite time: rate 0, and denormal rates whose
            # ``remaining / rate`` overflows to inf, are both stalls.
            times = [
                t for t in (
                    remaining[i] / r
                    for i, r in zip(active, rates)
                    if r > 0
                )
                if t < float("inf")
            ]
            if not times:
                # Every active flow is stalled (a zero- or effectively
                # zero-capacity resource on its path): the fluid model
                # would spin forever.  Name the stalled transfers
                # instead of the bare ``min() arg is an empty
                # sequence``.
                stalled = ", ".join(
                    f"{stage_flows[i].src}->{stage_flows[i].dst}"
                    f" ({stage_flows[i].tag or 'untagged'},"
                    f" {remaining[i]:.0f}B left)"
                    for i in active
                )
                raise ValueError(
                    f"stage {stage} stalled: no active flow can "
                    f"finish in finite time -- every path crosses a "
                    f"zero-capacity resource; stalled flows: {stalled}"
                )
            # Time until the first of the active flows completes.
            dt = min(times)
            elapsed += dt
            still_active = []
            for i, r in zip(active, rates):
                remaining[i] -= r * dt
                if remaining[i] > 1e-9:
                    still_active.append(i)
            active = still_active
        total += elapsed
    return total
