"""Accounting conservation: static wire-byte bookkeeping per plan.

Two independent derivations of a plan's collective payload must agree:

* **graph-walk** -- every collective group in the transformed graph,
  with its element count taken from the collective op's static output
  spec (and, for fused buckets, the sum of its ``segments``);
* **plan-walk** -- the :class:`GraphSyncPlan`'s variable inventory: the
  summed element counts of every variable synchronized by a collective
  method.

A fusion rewrite that drops, duplicates or misroutes a gradient breaks
the equality and is reported with the offending groups.  On top of
conservation, the analysis prices each group's transcript traffic
*exactly* -- replaying the ring index arithmetic of ``repro.comm``
without moving data -- so tests can assert the measured Transcript
equals the static prediction byte for byte.  Groups whose payloads
depend on runtime values (sparse AllGatherv) are classified ``dynamic``
and excluded from exact byte claims.

Registry completeness rides along: every collective op type found in the
graph must be known to this table and to ``comm_ops.COLLECTIVE_OP_TYPES``
(the set edge accounting and worker muting read) -- a new collective
that misses the latter silently double-counts bytes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Tuple

from repro.analysis.report import Finding
from repro.graph.executor import plan_order

ANALYSIS = "accounting"

_DENSE_RING = frozenset({"fused_allreduce"})
_KNOWN = frozenset({"fused_allreduce", "allgatherv"})

#: the ring reduces in fp32 regardless of input dtype.
_RING_ITEMSIZE = 4


def _chunk_sizes(segment_sizes: List[int], n: int) -> List[int]:
    """Chunk extents of a ring over concatenated segments (one chunk per
    worker): every segment is split on its own, remainder front-loaded,
    and ring chunk ``c`` carries chunk ``c`` of each."""
    sizes = [0] * n
    for numel in segment_sizes:
        base, extra = divmod(numel, n)
        for c in range(n):
            sizes[c] += base + (1 if c < extra else 0)
    return sizes


def _ring_bytes(segment_sizes: List[int], machines: List[int],
                itemsize: int) -> Tuple[int, int]:
    """(total, cross-machine) transcript bytes of one dense ring.

    Replays the index arithmetic of ``comm.allreduce.ring_allreduce``:
    reduce-scatter sends chunk ``(i - s) % n`` from worker ``i`` to its
    successor at step ``s``; allgather sends chunk ``(i + 1 - s) % n``.
    """
    n = len(machines)
    if n <= 1:
        return 0, 0
    sizes = _chunk_sizes(segment_sizes, n)
    total = network = 0
    for phase_shift in (0, 1):
        for step in range(n - 1):
            for i in range(n):
                chunk = (i + phase_shift - step) % n
                nbytes = sizes[chunk] * itemsize
                total += nbytes
                if machines[i] != machines[(i + 1) % n]:
                    network += nbytes
    return total, network


def _numel(shape) -> int:
    count = 1
    for dim in shape:
        count *= int(dim)
    return count


def analyze_accounting(transformed, fetch_ops, order=None,
                       ) -> Tuple[List[Finding], Dict[str, object]]:
    findings: List[Finding] = []
    graph = transformed.graph
    if order is None:
        order = plan_order(graph, fetch_ops)

    # ---- registry completeness ----------------------------------------
    from repro.core.transform.comm_ops import COLLECTIVE_OP_TYPES

    groups: Dict[Tuple[str, str], object] = {}
    for op in order:
        if op.op_type not in _KNOWN:
            continue
        groups.setdefault((op.op_type, op.attrs.get("group")), op)
    seen_types = {op_type for op_type, _ in groups}
    for op_type in sorted(seen_types - COLLECTIVE_OP_TYPES):
        findings.append(Finding(
            ANALYSIS,
            f"collective op type {op_type!r} is missing from "
            "comm_ops.COLLECTIVE_OP_TYPES -- static edge accounting would "
            "double-count its transfers and non-canonical replicas would "
            "record duplicate transcript entries under multiproc",
        ))

    # ---- per-group static pricing -------------------------------------
    per_group: List[Dict[str, object]] = []
    collected_elements = 0
    raw_bytes = 0.0
    static_total = 0
    static_network = 0
    dynamic_groups = 0
    for (op_type, group), op in sorted(groups.items()):
        machines = [int(m) for m in op.attrs.get("machines", ())]
        n = len(machines)
        numel = _numel(op.output.spec.shape)
        segments = op.attrs.get("segments")
        segment_sizes = ([numel] if segments is None
                         else [int(size) for _name, size in segments])
        if segments is not None:
            seg_total = sum(segment_sizes)
            if seg_total != numel:
                findings.append(Finding(
                    ANALYSIS,
                    f"bucket layout of {op_type}/{group} does not "
                    f"conserve elements: segments sum to {seg_total} "
                    f"but the collective payload holds {numel}",
                    trace=(f"segments: {list(segments)}",),
                ))
        entry: Dict[str, object] = {
            "op_type": op_type,
            "group": group,
            "tag": f"allreduce/{group}" if op_type in _DENSE_RING
                   else f"{op_type}/{group}",
            "workers": n,
            "numel": numel,
        }
        if op_type in _DENSE_RING:
            collected_elements += numel
            raw_bytes += numel * _RING_ITEMSIZE
            bounds = op.attrs.get("bounds")
            if bounds is not None and n:
                # The kernel chunks by ``segments``; the attr is what the
                # other analyses compare, so the two must tell one story.
                derived = [0, *accumulate(_chunk_sizes(segment_sizes, n))]
                if [int(b) for b in bounds] != derived:
                    findings.append(Finding(
                        ANALYSIS,
                        f"chunk bounds of {op_type}/{group} disagree with "
                        f"its segments: the op carries {list(bounds)} but "
                        f"per-segment ring chunking gives {derived}",
                        trace=(f"segments: {list(segments or ())}",),
                    ))
            total, network = _ring_bytes(segment_sizes, machines,
                                         _RING_ITEMSIZE)
            entry.update(static=True, total_bytes=total,
                         network_bytes=network)
            static_total += total
            static_network += network
        else:
            # AllGatherv payloads depend on the rows the batch touched --
            # no static byte claim.
            entry.update(static=False)
            dynamic_groups += 1
        per_group.append(entry)

    # ---- conservation against the plan's variable inventory -----------
    # A fetch set that schedules no collectives and no update ops is a
    # forward-only (serving/inference) plan: it never executes the
    # synchronization subgraph the plan inventory describes, so there is
    # nothing to conserve.  Every training fetch set reaches its update
    # ops, so gating on their presence keeps the conservation checks
    # live exactly where the inventory applies -- without it, a grad-free
    # plan over a collective plan would be reported as "losing" every
    # dense element the plan assigns a collective method to.
    has_updates = any(op.attrs.get("is_update") for op in order)
    forward_only = not groups and not has_updates
    plan = transformed.plan
    expected_elements = 0
    gatherv_vars = 0
    if not forward_only:
        for var_name, method in plan.methods.items():
            if method.name == "PS":
                continue
            replica_names = transformed.replica_variables.get(var_name)
            if not replica_names:
                findings.append(Finding(
                    ANALYSIS,
                    f"plan assigns a collective method to {var_name!r} but "
                    "the transform produced no replica variables for it",
                ))
                continue
            variable = graph.variables[replica_names[0]]
            is_gatherv = ("allgatherv", var_name) in groups
            if is_gatherv:
                gatherv_vars += 1
            else:
                expected_elements += int(variable.num_elements)
        if expected_elements != collected_elements:
            findings.append(Finding(
                ANALYSIS,
                "collective element conservation violated: the plan "
                f"synchronizes {expected_elements} dense elements but the "
                f"graph's collective groups carry {collected_elements}",
                trace=tuple(
                    f"{e['op_type']}/{e['group']}: {e['numel']} elements"
                    for e in per_group
                ),
            ))
        gatherv_groups = sum(
            1 for op_type, _group in groups if op_type == "allgatherv"
        )
        if gatherv_groups != gatherv_vars:
            findings.append(Finding(
                ANALYSIS,
                f"AllGatherv group count {gatherv_groups} does not match "
                f"the plan's sparse collective variable count {gatherv_vars}",
            ))

    stats = {
        "groups": len(groups),
        "forward_only": forward_only,
        "dynamic_groups": dynamic_groups,
        "per_group": per_group,
        "collective_raw_bytes": raw_bytes,
        "static_transcript_bytes": static_total,
        "static_network_bytes": static_network,
    }
    return findings, stats
