"""Deadlock and message-matching analysis over partitioned schedules.

The multiprocess backend partitions the global step schedule by device
ownership (:func:`~repro.core.backend.build_all_worker_entries`); every
rank executes its slice sequentially, blocking on ``recv`` entries.  The
original claim was that this is deadlock-free *by construction* because
all ranks derive the same global order.  This module checks the theorem
instead of assuming it, over the concrete per-rank entry lists:

* every ``send`` has exactly one matching ``recv`` at its destination
  (and vice versa) -- unmatched or double receives block a rank forever;
* per directed channel, receive order equals send order -- a divergence
  means two ranks compiled *different* global schedules;
* every ``exec`` entry's inputs are produced earlier at that rank (by an
  earlier exec or recv) -- a violation is an immediate runtime KeyError;
* the cross-rank wait-for graph (program-order edges within each rank,
  send->recv edges across ranks) is acyclic -- a cycle is a deadlock,
  reported as a concrete counterexample trace naming every rank and
  schedule position on it.

``early_recvs`` in the stats counts ``recv`` entries whose next ``exec``
reads nothing just received -- a rank waiting for a value before it
needs it.  Legal, but ``repro.cli verify`` treats non-zero as a finding,
so a scheduler change cannot quietly re-serialise the bucket exchange.

The checker is deliberately decoupled from how the entries were built so
tests can hand it corrupted partitions, and so a future TCP transport
can gate its schedules through the same analysis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import Finding

ANALYSIS = "deadlock"


def _entry_repr(entry: tuple) -> str:
    if entry[0] == "recv":
        return f"recv {entry[1]!r} from rank {entry[2]}"
    op, sends = entry[1], entry[2]
    suffix = f" -> send to {list(sends)}" if sends else ""
    return f"exec {op.name!r}{suffix}"


def check_entries(entries_by_rank: Dict[int, Sequence[tuple]],
                  ) -> Tuple[List[Finding], Dict[str, object]]:
    """Run every matching/ordering/cycle check over per-rank entries.

    *entries_by_rank* maps a worker rank to its schedule slice in the
    shapes :func:`~repro.core.backend.build_all_worker_entries` emits:
    ``("exec", op, send_to)`` or ``("recv", name, src)``.
    """
    findings: List[Finding] = []
    ranks = sorted(entries_by_rank)

    # ---- per-rank indexes ---------------------------------------------
    # (src_rank, op_name) -> (index, send_to) for every exec entry.
    exec_at: Dict[Tuple[int, str], Tuple[int, Tuple[int, ...]]] = {}
    # (dst_rank, op_name, src_rank) -> [indices] of recv entries.
    recv_at: Dict[Tuple[int, str, int], List[int]] = {}
    for rank in ranks:
        for idx, entry in enumerate(entries_by_rank[rank]):
            if entry[0] == "recv":
                _, name, src = entry
                recv_at.setdefault((rank, name, src), []).append(idx)
            else:
                _, op, _sends = entry
                exec_at[(rank, op.name)] = (idx, tuple(entry[2]))

    # ---- double receives ----------------------------------------------
    for (rank, name, src), indices in recv_at.items():
        if len(indices) > 1:
            findings.append(Finding(
                ANALYSIS,
                f"rank {rank} receives {name!r} from rank {src} "
                f"{len(indices)} times; the value is sent once, so every "
                "receive after the first blocks forever",
                trace=tuple(
                    f"rank {rank} pos {i}: "
                    + _entry_repr(entries_by_rank[rank][i])
                    for i in indices
                ),
            ))

    # ---- send/recv matching -------------------------------------------
    messages = 0
    for (rank, name), (idx, sends) in exec_at.items():
        for dst in sends:
            messages += 1
            if dst == rank:
                findings.append(Finding(
                    ANALYSIS,
                    f"rank {rank} sends {name!r} to itself",
                    trace=(f"rank {rank} pos {idx}: "
                           + _entry_repr(entries_by_rank[rank][idx]),),
                ))
                continue
            if (dst, name, rank) not in recv_at:
                findings.append(Finding(
                    ANALYSIS,
                    f"unmatched send: rank {rank} sends {name!r} to rank "
                    f"{dst}, but rank {dst} has no matching recv -- the "
                    "value is dropped and any consumer of it at rank "
                    f"{dst} fails",
                    trace=(f"rank {rank} pos {idx}: "
                           + _entry_repr(entries_by_rank[rank][idx]),
                           f"rank {dst}: no ('recv', {name!r}, {rank}) "
                           "entry"),
                ))
    for (rank, name, src), indices in recv_at.items():
        sender = exec_at.get((src, name))
        if sender is None or rank not in sender[1]:
            where = (f"rank {src} pos {sender[0]}: "
                     + _entry_repr(entries_by_rank[src][sender[0]])
                     if sender is not None
                     else f"rank {src}: no exec entry for {name!r}")
            findings.append(Finding(
                ANALYSIS,
                f"unmatched recv: rank {rank} blocks on {name!r} from "
                f"rank {src}, but rank {src} never sends it -- rank "
                f"{rank} hangs at schedule position {indices[0]}",
                trace=(f"rank {rank} pos {indices[0]}: "
                       + _entry_repr(entries_by_rank[rank][indices[0]]),
                       where),
            ))

    # ---- per-channel order congruence ---------------------------------
    # Both sides of a channel derive their order from the same global
    # schedule; a divergence means the ranks compiled different plans.
    # (The transport's keyed mailboxes would still deliver the values,
    # which is exactly why only a static check can catch this.)
    send_order: Dict[Tuple[int, int], List[str]] = {}
    recv_order: Dict[Tuple[int, int], List[str]] = {}
    for rank in ranks:
        for entry in entries_by_rank[rank]:
            if entry[0] == "recv":
                _, name, src = entry
                if (src, name) in exec_at and rank in exec_at[(src, name)][1]:
                    recv_order.setdefault((src, rank), []).append(name)
            else:
                _, op, sends = entry
                for dst in sends:
                    if (dst, op.name, rank) in recv_at:
                        send_order.setdefault((rank, dst),
                                              []).append(op.name)
    for channel, sent in send_order.items():
        received = recv_order.get(channel, [])
        if sent != received and sorted(sent) == sorted(received):
            src, dst = channel
            pos = next(i for i, (a, b) in enumerate(zip(sent, received))
                       if a != b)
            findings.append(Finding(
                ANALYSIS,
                f"reordered channel rank {src} -> rank {dst}: message "
                f"{pos} is sent as {sent[pos]!r} but received as "
                f"{received[pos]!r} -- the ranks disagree on the global "
                "schedule order",
                trace=(f"rank {src} send order: {sent}",
                       f"rank {dst} recv order: {received}"),
            ))

    # ---- value availability at each exec ------------------------------
    early_recvs = 0  # counted on the way; see the module docstring
    for rank in ranks:
        produced = set()
        fresh = set()  # received since the previous exec
        for idx, entry in enumerate(entries_by_rank[rank]):
            if entry[0] == "recv":
                produced.add(entry[1])
                fresh.add(entry[1])
                continue
            _, op, _sends = entry
            if fresh and fresh.isdisjoint(t.op.name for t in op.inputs):
                early_recvs += len(fresh)
            fresh.clear()
            for tensor in op.inputs:
                dep = tensor.op.name
                if dep not in produced:
                    findings.append(Finding(
                        ANALYSIS,
                        f"rank {rank} executes {op.name!r} at position "
                        f"{idx} before its input {dep!r} is available "
                        "(no earlier exec or recv at this rank produces "
                        "it)",
                        trace=(f"rank {rank} pos {idx}: "
                               + _entry_repr(entry),
                               f"missing producer: {dep!r}"),
                    ))
            produced.add(op.name)
        early_recvs += len(fresh)  # received after the last exec

    # ---- wait-for cycle detection -------------------------------------
    # Nodes are (rank, index), flattened to dense ints so the Kahn pass
    # runs over plain lists.  Edges: each entry waits for the previous
    # entry at its rank (sequential execution) and each matched recv
    # waits for the sending exec.  A cycle is a deadlock.
    base: Dict[int, int] = {}
    total = 0
    for rank in ranks:
        base[rank] = total
        total += len(entries_by_rank[rank])
    unflatten = [(rank, idx) for rank in ranks
                 for idx in range(len(entries_by_rank[rank]))]
    succ: List[List[int]] = [[] for _ in range(total)]
    indegree = [0] * total
    for rank in ranks:
        lo = base[rank]
        for idx in range(1, len(entries_by_rank[rank])):
            succ[lo + idx - 1].append(lo + idx)
            indegree[lo + idx] = 1
    for (rank, name, src), indices in recv_at.items():
        sender = exec_at.get((src, name))
        if sender is None or rank not in sender[1]:
            continue  # already reported as unmatched
        for idx in indices:
            succ[base[src] + sender[0]].append(base[rank] + idx)
            indegree[base[rank] + idx] += 1

    queue = [node for node in range(total) if not indegree[node]]
    settled = 0
    while queue:
        node = queue.pop()
        settled += 1
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                queue.append(nxt)
    if settled != total:
        stuck = {unflatten[node] for node in range(total)
                 if indegree[node] > 0}
        preds: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for node in range(total):
            for nxt in succ[node]:
                preds.setdefault(unflatten[nxt],
                                 []).append(unflatten[node])
        cycle = _extract_cycle(preds, stuck)
        findings.append(Finding(
            ANALYSIS,
            f"deadlock: {len(stuck)} schedule entries across "
            f"{len({r for r, _ in stuck})} rank(s) wait on each other in "
            "a cycle",
            trace=tuple(
                f"rank {rank} pos {idx}: "
                + _entry_repr(entries_by_rank[rank][idx])
                + "  waits for ->"
                for rank, idx in cycle
            ),
        ))

    stats = {
        "ranks": len(ranks),
        "entries": sum(len(entries_by_rank[r]) for r in ranks),
        "messages": messages,
        "early_recvs": early_recvs,
    }
    return findings, stats


def _extract_cycle(preds, stuck):
    """One concrete cycle inside the unresolved wait-for subgraph.

    Walks *predecessor* edges: every unresolved node kept a positive
    in-degree, so it has at least one unresolved predecessor and the
    walk must eventually revisit a node -- closing a cycle -- whereas a
    forward walk could dead-end in nodes merely downstream of one.
    An edge X -> Y means Y waits for X, so the predecessor walk already
    visits nodes in wait-for order.
    """
    path: List[Tuple[int, int]] = []
    on_path: Dict[Tuple[int, int], int] = {}
    node = min(stuck)
    while node not in on_path:
        on_path[node] = len(path)
        path.append(node)
        node = next(p for p in preds.get(node, ()) if p in stuck)
    cycle = path[on_path[node]:]
    return tuple(cycle) + (cycle[0],)


def analyze_deadlock(transformed, fetch_ops, order=None,
                     ) -> Tuple[List[Finding], Dict[str, object]]:
    """Build every rank's schedule slice and run :func:`check_entries`.

    Asynchronous plans have no partitioned schedule (the multiprocess
    backend rejects them), so they pass vacuously.
    """
    from repro.core.backend import build_all_worker_entries

    if transformed.replica_train_ops is not None:
        return [], {"ranks": 0, "entries": 0, "messages": 0,
                    "early_recvs": 0, "skipped": "asynchronous plan"}
    return check_entries(
        build_all_worker_entries(transformed, fetch_ops, order=order))
