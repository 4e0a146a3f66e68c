"""Alias-soundness audit: an independent oracle for the buffer arena.

``repro.graph.bufferplan`` *plans* arena reuse with a union-find over
alias groups and a linear allocation sweep.  This module *audits* the
resulting plan with a deliberately different algorithm -- abstract
interpretation over storage tokens plus interval-overlap checking -- so
a bug in the planner's bookkeeping cannot hide inside a shared helper.
Nothing here imports the planner's alias tables or liveness maps; the
kernel-semantics facts (which op types return views, which vjp rules
alias the incoming gradient, which collectives fold into a plan-owned
buffer, which updates write in place) are re-declared from the kernels'
ground truth.

The audit proves four properties over the frozen schedule:

1. **No overwrite of live storage.**  Every arena buffer write at
   schedule position ``p`` requires that all storage tokens previously
   written into that buffer are dead strictly before ``p``.  Because an
   op's inputs are live at its own position, this subsumes "an output
   never aliases any of its own inputs".  A fused bucket is one write:
   its buffer is taken where its first member gradient is born, and it
   holds every member's tokens and the pack's.  Its member views must
   be disjoint, inside the buffer, and exactly where the pack places
   that member's input.
2. **Fetched values never live in the arena.**  A target slot's storage
   tokens must not reach any arena-assigned slot or bucket view -- a
   recycled buffer would be overwritten by the next ``execute()``.
3. **Escaped storage never lives in the arena.**  Tokens consumed by
   op types whose kernels may retain references across steps
   (shard ops, gathers) are immortal to the audit, so any
   arena assignment touching them is rejected.  The folding collectives
   are not among them: they read their inputs during the call only, and
   every replica's op of one group returns the first one's result.
4. **No reader after an in-place update.**  An update the plan runs in
   place rewrites its variables' arrays, so a value read from one of
   them before the update must not be used after it, and no value read
   from one of them may be fetched (the caller would see it change at
   the next step).

It additionally re-derives per-slot liveness from scratch and diffs it
against the planner's ``slot_last_use`` -- the two implementations must
agree exactly on every plan.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.analysis.report import Finding

ANALYSIS = "alias"

# ---- kernel-semantics tables (independent re-declaration) -------------
# Derived from the kernels in repro/graph/ops.py, the vjp rules they
# register, repro/core/transform/comm_ops.py and repro/nn/optimizers.py
# -- NOT imported from bufferplan, which is the implementation under
# audit.

#: Forward op types whose kernel may return a view of its first input.
_VIEW_OF_INPUT0 = frozenset({"identity", "reshape", "slice", "bucket_slice"})

#: Forward op types whose kernel always returns a fresh dense array and
#: retains no reference to it (ufunc/BLAS outputs).
_FRESH_FWD = frozenset({
    "add", "mul", "tanh", "sigmoid", "relu", "scale", "add_bias",
    "matmul", "lstm_seq",
})

#: Forward op types that neither alias their inputs nor retain them
#: beyond the step (fresh arrays, scalars, IndexedSlices wrappers whose
#: buffers are fresh, or None outputs).  A rank plan's ``send`` port
#: freezes its value before returning and ``recv`` decodes a fresh one
#: (``repro.comm.transport.Transport``).
_NON_RETAINING_FWD = frozenset({
    "placeholder", "constant", "read_var", "concat", "gather", "mean",
    "softmax", "softmax_xent", "mse", "grad_add", "ones_like_scalar", "group",
    "assign", "assign_sub", "scatter_sub", "send", "recv",
})

#: Collectives that fold into one result every replica of the group
#: returns, reading their inputs during the call only.
_FOLDS = frozenset({"fused_allreduce"})

#: vjp rules returning a fresh array for every output index.
_FRESH_VJP = frozenset({
    "matmul", "mul", "tanh", "sigmoid", "relu", "scale", "slice",
    "softmax_xent", "mse", "mean", "lstm_seq",
})

#: vjp rules where some output index may alias (or view) the incoming
#: gradient -- except the (rule, index) pairs in _FRESH_VJP_INDEX.
_GRAD_ALIAS_VJP = frozenset({
    "add", "identity", "reshape", "concat", "add_bias", "gather",
})
_FRESH_VJP_INDEX = frozenset({("add_bias", 1)})  # the bias sum

#: Dense update op types and the attrs naming the variables they write.
_UPDATE_WRITES = {
    "sgd_update": ("variable",),
    "momentum_update": ("variable", "slot"),
    "adam_update": ("variable", "m", "v"),
}


def audit_buffer_plan(plan, bplan=None,
                      ) -> Tuple[List[Finding], Dict[str, object]]:
    """Audit one compiled plan's arena assignment for alias soundness.

    *bplan* defaults to the plan's own buffer plan; tests pass a
    deliberately corrupted copy to prove the audit rejects it.
    """
    if bplan is None:
        bplan = plan._ensure_buffer_plan()
    schedule = plan.schedule
    n = plan.num_slots
    findings: List[Finding] = []

    def op_at(pos: int):
        return schedule[pos][0]

    # ---- independent liveness -----------------------------------------
    last_use: Dict[int, float] = {}
    for entry in schedule:
        input_slots, slot = entry[2], entry[3]
        if last_use.get(slot, -1) < slot:
            last_use[slot] = slot
        for j in input_slots:
            if last_use.get(j, -1) < slot:
                last_use[j] = slot

    if dict(bplan.slot_last_use) != last_use:
        diff = sorted(
            s for s in set(last_use) | set(bplan.slot_last_use)
            if last_use.get(s) != bplan.slot_last_use.get(s)
        )
        findings.append(Finding(
            ANALYSIS,
            "planner liveness disagrees with the audit's independent "
            f"re-derivation at {len(diff)} slot(s)",
            trace=tuple(
                f"slot {s} ({op_at(s).name!r}): planner="
                f"{bplan.slot_last_use.get(s)} audit={last_use.get(s)}"
                for s in diff[:8]
            ),
        ))

    # ---- storage-token propagation ------------------------------------
    tokens: List[Set[int]] = [set() for _ in range(n)]
    escaped: Set[int] = set()
    fold_result: Dict[tuple, int] = {}  # (op type, group) -> first slot
    for entry in schedule:
        op, input_slots, slot = entry[0], entry[2], entry[3]
        op_type = op.op_type
        own = {slot}
        if op_type == "vjp":
            fwd_op = plan.graph.get_op(op.attrs["forward_op"])
            ftype = fwd_op.op_type
            if (ftype in _FRESH_VJP or (ftype, op.attrs["input_index"])
                    in _FRESH_VJP_INDEX):
                tokens[slot] = own
            elif ftype in _GRAD_ALIAS_VJP:
                grad_slot = input_slots[len(fwd_op.inputs) + 1]
                tokens[slot] = own | tokens[grad_slot]
            else:
                merged = set(own)
                for j in input_slots:
                    merged |= tokens[j]
                tokens[slot] = merged
        elif op_type in _VIEW_OF_INPUT0:
            tokens[slot] = own | (set(tokens[input_slots[0]])
                                  if input_slots else set())
        elif op_type in _FOLDS:
            first = fold_result.setdefault((op_type, op.attrs.get("group")),
                                           slot)
            tokens[slot] = own | tokens[first]
        elif (op_type in _FRESH_FWD or op_type in _NON_RETAINING_FWD
              or op.attrs.get("is_update")):
            tokens[slot] = own
        else:
            # Unmodelled kernel (shard ops, gathers): its
            # output may alias any input and the kernel may retain
            # references across steps.
            merged = set(own)
            for j in input_slots:
                merged |= tokens[j]
            tokens[slot] = merged
            escaped |= merged

    # A token dies when the last slot carrying it dies; target tokens
    # and escaped tokens are immortal.
    targets = set(plan.target_slots)
    token_death: Dict[int, float] = {}
    token_blocker: Dict[int, int] = {}
    for s in range(n):
        death = math.inf if s in targets else last_use.get(s, s)
        for tok in tokens[s]:
            if token_death.get(tok, -1.0) < death:
                token_death[tok] = death
                token_blocker[tok] = s
    for tok in escaped:
        token_death[tok] = math.inf

    # ---- bucket views --------------------------------------------------
    members: Dict[int, List[int]] = {}  # bucket concat -> member slots
    for slot, (concat, _lo, _hi) in bplan.views.items():
        members.setdefault(concat, []).append(slot)
    view_errors = _audit_views(plan, bplan, members, findings)

    # ---- arena checks --------------------------------------------------
    # One write per assignment: a bucket's at its first member.
    writes: Dict[int, List[Tuple[int, int, Set[int]]]] = {}
    for slot, buf in bplan.assignment.items():
        born = members.get(slot, [])
        held = set(tokens[slot]).union(*(tokens[k] for k in born))
        writes.setdefault(buf, []).append((min([slot, *born]), slot, held))

    overlap_errors = 0
    for buf, events in writes.items():
        events.sort()
        order = [slot for _, slot, _ in events]
        for i, (writer, wslot, _) in enumerate(events):
            for _, prev, held in events[:i]:
                live = [tok for tok in held
                        if token_death.get(tok, -1.0) >= writer]
                if not live:
                    continue
                overlap_errors += 1
                tok = min(live)
                blocker = token_blocker.get(tok, prev)
                death = token_death[tok]
                until = "forever (pinned/fetched/escaped)" \
                    if death == math.inf else f"until position {int(death)}"
                findings.append(Finding(
                    ANALYSIS,
                    f"arena buffer {buf} is rewritten at schedule "
                    f"position {writer} ({op_at(wslot).name!r}) while "
                    f"the value written at position {prev} "
                    f"({op_at(prev).name!r}) is still live {until}",
                    trace=(
                        f"buffer {buf} assignees in order: {order}",
                        f"storage token {tok} (origin "
                        f"{op_at(tok).name!r}) is carried by slot "
                        f"{blocker} ({op_at(blocker).name!r}), last used "
                        f"at {until}",
                        f"overwrite happens at position {writer} "
                        f"({op_at(wslot).name!r})",
                    ),
                ))

    arena_target_errors = 0
    for slot in sorted(set(bplan.assignment) | set(bplan.views)):
        hot = [tok for tok in tokens[slot]
               if token_death.get(tok, -1.0) == math.inf]
        if not hot:
            continue
        arena_target_errors += 1
        tok = hot[0]
        why = ("escaped into an unmodelled kernel" if tok in escaped
               else f"reaches fetched slot "
                    f"{token_blocker.get(tok, tok)} "
                    f"({op_at(token_blocker.get(tok, tok)).name!r})")
        findings.append(Finding(
            ANALYSIS,
            f"arena slot {slot} ({op_at(slot).name!r}) holds storage "
            "that must outlive the step: token "
            f"{tok} {why}; recycled arena storage would be overwritten by "
            "the next execute()",
            trace=(f"slot {slot} tokens: {sorted(tokens[slot])}",),
        ))

    in_place_errors = _audit_in_place(plan, bplan, tokens, last_use,
                                      targets, findings)

    stats = {
        "slots": n,
        "arena_slots": len(bplan.assignment),
        "buffers": len(bplan.buffers),
        "bucket_views": len(bplan.views),
        "in_place_updates": len(bplan.in_place),
        "escaped_tokens": len(escaped),
        "overlap_errors": overlap_errors,
        "pinned_errors": arena_target_errors,
        "view_errors": view_errors,
        "in_place_errors": in_place_errors,
    }
    return findings, stats


def _audit_views(plan, bplan, members: Dict[int, List[int]],
                 findings: List[Finding]) -> int:
    """Property 1 for bucket views: each lies inside its bucket's buffer,
    exactly where the pack places that member's input, and no two
    overlap."""
    schedule = plan.schedule
    errors = 0

    def name(slot: int) -> str:
        return repr(schedule[slot][0].name)

    for concat, born in sorted(members.items()):
        op, _kernel, input_slots, _slot, _edges = schedule[concat]
        buf = bplan.assignment.get(concat)
        if op.op_type != "concat" or buf is None:
            errors += 1
            findings.append(Finding(
                ANALYSIS,
                f"bucket views {sorted(born)} name slot {concat} "
                f"({name(concat)}), which is not a concat holding an "
                "arena buffer",
            ))
            continue
        size = int(np.prod(bplan.buffers[buf][0], dtype=np.int64))
        # Where the pack puts each input, and which slot produced it.
        placed: Dict[int, Tuple[int, int]] = {}
        lo = 0
        for j in input_slots:
            j_op = schedule[j][0]
            hi = lo + int(np.prod(j_op.output.spec.shape, dtype=np.int64))
            producer = (schedule[j][2][0] if j_op.op_type == "reshape"
                        else j)
            placed.setdefault(producer, (lo, hi))
            lo = hi
        spans = sorted((bplan.views[k][1], bplan.views[k][2], k)
                       for k in born)
        for lo, hi, k in spans:
            want = placed.get(k)
            if not 0 <= lo < hi <= size or want != (lo, hi):
                errors += 1
                findings.append(Finding(
                    ANALYSIS,
                    f"bucket view of slot {k} ({name(k)}) covers "
                    f"elements [{lo}, {hi}) of the {size}-element buffer "
                    f"of {name(concat)}, but the pack places that input "
                    + (f"at [{want[0]}, {want[1]})" if want else
                       "nowhere"),
                ))
        for (lo_a, hi_a, a), (lo_b, hi_b, b) in zip(spans, spans[1:]):
            if lo_b < hi_a:
                errors += 1
                findings.append(Finding(
                    ANALYSIS,
                    f"bucket views overlap in the buffer of "
                    f"{name(concat)}: slot {a} ({name(a)}) writes "
                    f"[{lo_a}, {hi_a}) and slot {b} ({name(b)}) writes "
                    f"[{lo_b}, {hi_b})",
                    trace=(f"members of slot {concat} by offset: "
                           + ", ".join(f"{k}@[{lo}, {hi})"
                                       for lo, hi, k in spans),),
                ))
    return errors


def _audit_in_place(plan, bplan, tokens: List[Set[int]],
                    last_use: Dict[int, float], targets: Set[int],
                    findings: List[Finding]) -> int:
    """Property 4: no value read from a variable an in-place update
    writes is used after that update, or fetched."""
    schedule = plan.schedule
    reads: Dict[str, List[int]] = {}
    for op, _kernel, _inputs, slot, _edges in schedule:
        if op.op_type == "read_var":
            reads.setdefault(op.attrs["variable"], []).append(slot)
    carriers: Dict[int, List[int]] = {}  # read slot -> slots holding it
    for slot, held in enumerate(tokens):
        for tok in held:
            carriers.setdefault(tok, []).append(slot)

    errors = 0
    for p in sorted(bplan.in_place):
        op = schedule[p][0]
        keys = _UPDATE_WRITES.get(op.op_type)
        if keys is None:
            errors += 1
            findings.append(Finding(
                ANALYSIS,
                f"slot {p} ({op.name!r}) runs in place, but "
                f"{op.op_type!r} is not an in-place update kernel",
            ))
            continue
        for var in sorted({op.attrs.get(key) for key in keys} - {None}):
            for r in reads.get(var, ()):
                for s in carriers.get(r, ()):
                    if s in targets:
                        use = "is fetched"
                    elif r < p and last_use.get(s, s) > p:
                        use = f"is used at position {int(last_use[s])}"
                    else:
                        continue
                    errors += 1
                    findings.append(Finding(
                        ANALYSIS,
                        f"in-place update at position {p} ({op.name!r}) "
                        f"rewrites variable {var!r}, but its value read at "
                        f"position {r} ({schedule[r][0].name!r}) {use}, "
                        f"through slot {s} ({schedule[s][0].name!r})",
                        trace=(f"readers of {var!r}: {reads[var]}",
                               "the update must run out of place"),
                    ))
                    break
    return errors
