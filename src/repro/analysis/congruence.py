"""Collective-congruence checking: every replica, same collective story.

MPI programs hang or corrupt reductions when ranks disagree on the
collective sequence; the transformed graph can suffer the same class of
bug if the transform (or a later graph edit) skews one replica's fusion
bucket layout or collective ordering.  This analysis extracts each
replica's collective sequence from the global schedule and verifies,
position by position, that all replicas issue the same op type over the
same group with the same payload shape/dtype, the same bucket
``segments``/``bounds`` layout, the same averaging flag and the same
machine list.

Group-level structure is checked too: every ``(op_type, group)`` must
have exactly one member per replica, and all members must consume the
identical payload list (each replica's collective op reads *all*
replicas' contributions -- that is how the run-cache executes the ring
once per group).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.report import Finding
from repro.graph.executor import plan_order

ANALYSIS = "congruence"

#: Every collective op type the transform can emit.
COLLECTIVE_TYPES = frozenset({"fused_allreduce", "allgatherv"})


def _signature(op) -> Dict[str, object]:
    """The statically comparable fingerprint of one collective op."""
    attrs = op.attrs
    sig: Dict[str, object] = {
        "op_type": op.op_type,
        "group": attrs.get("group"),
        "shape": tuple(op.output.spec.shape),
        "dtype": str(op.output.spec.dtype),
        "is_sparse": attrs.get("is_sparse"),
        "machines": tuple(int(m) for m in attrs.get("machines", ())),
        "num_payloads": len(op.inputs),
    }
    if "segments" in attrs:
        sig["segments"] = tuple((name, int(size))
                                for name, size in attrs["segments"])
    if "bounds" in attrs:
        sig["bounds"] = tuple(int(b) for b in attrs["bounds"])
    return sig


def analyze_congruence(transformed, fetch_ops, order=None,
                       ) -> Tuple[List[Finding], Dict[str, object]]:
    findings: List[Finding] = []
    if order is None:
        order = plan_order(transformed.graph, fetch_ops)
    num_replicas = transformed.num_replicas

    sequences: Dict[int, List] = {}
    groups: Dict[Tuple[str, str], List] = {}
    for op in order:
        if op.op_type not in COLLECTIVE_TYPES:
            continue
        replica = op.attrs.get("replica")
        if replica is None:
            findings.append(Finding(
                ANALYSIS,
                f"collective {op.name!r} carries no replica attribute",
            ))
            continue
        sequences.setdefault(replica, []).append(op)
        groups.setdefault((op.op_type, op.attrs.get("group")),
                          []).append(op)

    if not sequences:
        return findings, {"collectives": 0, "groups": 0}

    # ---- sequence congruence across replicas --------------------------
    base_replica = min(sequences)
    base = sequences[base_replica]
    for replica in sorted(sequences):
        if replica == base_replica:
            continue
        seq = sequences[replica]
        if len(seq) != len(base):
            findings.append(Finding(
                ANALYSIS,
                f"replica {replica} issues {len(seq)} collectives but "
                f"replica {base_replica} issues {len(base)}",
                trace=(f"replica {base_replica}: "
                       f"{[op.name for op in base]}",
                       f"replica {replica}: {[op.name for op in seq]}"),
            ))
            continue
        for pos, (ref, other) in enumerate(zip(base, seq)):
            ref_sig = _signature(ref)
            other_sig = _signature(other)
            if ref_sig == other_sig:
                continue
            diverging = sorted(
                key for key in set(ref_sig) | set(other_sig)
                if ref_sig.get(key) != other_sig.get(key)
            )
            findings.append(Finding(
                ANALYSIS,
                f"replica {replica} diverges from replica "
                f"{base_replica} at collective position {pos} "
                f"({other.name!r} vs {ref.name!r}): mismatched "
                f"{', '.join(diverging)}",
                trace=tuple(
                    f"{key}: replica {base_replica}={ref_sig.get(key)!r} "
                    f"vs replica {replica}={other_sig.get(key)!r}"
                    for key in diverging
                ),
            ))

    # ---- group structure ----------------------------------------------
    for (op_type, group), members in groups.items():
        replicas = sorted(op.attrs.get("replica") for op in members)
        if replicas != list(range(num_replicas)):
            findings.append(Finding(
                ANALYSIS,
                f"collective group {op_type}/{group} has members for "
                f"replicas {replicas}, expected one per replica "
                f"0..{num_replicas - 1}",
                trace=tuple(op.name for op in members),
            ))
        payload_lists = {tuple(t.op.name for t in op.inputs)
                         for op in members}
        if len(payload_lists) > 1:
            findings.append(Finding(
                ANALYSIS,
                f"collective group {op_type}/{group} members disagree on "
                "the payload list -- all replicas must contribute the "
                "same ordered inputs for the shared ring to be "
                "well-defined",
                trace=tuple(f"{op.name}: "
                            f"{[t.op.name for t in op.inputs]}"
                            for op in members),
            ))

    stats = {
        "collectives": sum(len(seq) for seq in sequences.values()),
        "groups": len(groups),
        "per_replica": len(base),
    }
    return findings, stats
