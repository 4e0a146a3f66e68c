"""Alias-soundness audit: an independent oracle for the buffer arena.

``repro.graph.bufferplan`` *plans* arena reuse with a union-find over
alias groups and a linear allocation sweep.  This module *audits* the
resulting plan with a deliberately different algorithm -- abstract
interpretation over storage tokens plus interval-overlap checking -- so
a bug in the planner's bookkeeping cannot hide inside a shared helper.
Nothing here imports the planner's alias tables or liveness maps; the
kernel-semantics facts (which op types return views, which vjp rules
alias the incoming gradient) are re-declared from ``repro.graph.ops``
ground truth.

The audit proves three properties over the frozen schedule:

1. **No overwrite of live storage.**  Every arena buffer write at
   schedule position ``p`` requires that all storage tokens previously
   written into that buffer are dead strictly before ``p``.  Because an
   op's inputs are live at its own position, this subsumes "an output
   never aliases any of its own inputs".
2. **Fetched values never live in the arena.**  A target slot's storage
   tokens must not reach any arena-assigned slot -- a recycled buffer
   would be overwritten by the next ``execute()``.
3. **Escaped storage never lives in the arena.**  Tokens consumed by
   op types whose kernels may retain references across steps
   (collectives, compression, shard ops) are immortal to the audit, so
   any arena assignment touching them is rejected.

It additionally re-derives per-slot liveness from scratch and diffs it
against the planner's ``slot_last_use`` -- the two implementations must
agree exactly on every plan.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from repro.analysis.report import Finding

ANALYSIS = "alias"

# ---- kernel-semantics tables (independent re-declaration) -------------
# Derived from the kernels in repro/graph/ops.py and the vjp rules they
# register -- NOT imported from bufferplan, which is the implementation
# under audit.

#: Forward op types whose kernel may return a view of its first input.
_VIEW_OF_INPUT0 = frozenset({"identity", "reshape", "slice"})

#: Forward op types whose kernel always returns a fresh dense array and
#: retains no reference to it (ufunc/BLAS outputs).
_FRESH_FWD = frozenset({
    "add", "mul", "tanh", "sigmoid", "relu", "scale", "add_bias",
    "matmul",
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

#: vjp rules returning a fresh array for every output index.
_FRESH_VJP = frozenset({
    "matmul", "mul", "tanh", "sigmoid", "relu", "scale", "slice",
    "softmax_xent", "mse", "mean",
})

#: vjp rules where some output index may alias (or view) the incoming
#: gradient.
_GRAD_ALIAS_VJP = frozenset({
    "add", "identity", "reshape", "concat", "add_bias", "gather",
})


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
    for entry in schedule:
        op, input_slots, slot = entry[0], entry[2], entry[3]
        op_type = op.op_type
        own = {slot}
        if op_type == "vjp":
            fwd_op = plan.graph.get_op(op.attrs["forward_op"])
            ftype = fwd_op.op_type
            if ftype in _FRESH_VJP:
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
        elif (op_type in _FRESH_FWD or op_type in _NON_RETAINING_FWD
              or op.attrs.get("is_update")):
            tokens[slot] = own
        else:
            # Unmodelled kernel (collectives, compression, shard ops):
            # its output may alias any input and the kernel may retain
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

    # ---- arena checks --------------------------------------------------
    by_buffer: Dict[int, List[int]] = {}
    for slot, buf in bplan.assignment.items():
        by_buffer.setdefault(buf, []).append(slot)

    overlap_errors = 0
    for buf, slots in by_buffer.items():
        slots.sort()
        for i, writer in enumerate(slots):
            for prev in slots[:i]:
                live = [tok for tok in tokens[prev]
                        if token_death.get(tok, -1.0) >= writer]
                if not live:
                    continue
                overlap_errors += 1
                tok = live[0]
                blocker = token_blocker.get(tok, prev)
                death = token_death[tok]
                until = "forever (pinned/fetched/escaped)" \
                    if death == math.inf else f"until position {int(death)}"
                findings.append(Finding(
                    ANALYSIS,
                    f"arena buffer {buf} is rewritten at schedule "
                    f"position {writer} ({op_at(writer).name!r}) while "
                    f"the value written at position {prev} "
                    f"({op_at(prev).name!r}) is still live {until}",
                    trace=(
                        f"buffer {buf} assignees in order: {slots}",
                        f"storage token {tok} (origin "
                        f"{op_at(tok).name!r}) is carried by slot "
                        f"{blocker} ({op_at(blocker).name!r}), last used "
                        f"at {until}",
                        f"overwrite happens at position {writer} "
                        f"({op_at(writer).name!r})",
                    ),
                ))

    arena_target_errors = 0
    for slot in sorted(bplan.assignment):
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
            f"that must outlive the step: token {tok} {why}; recycled "
            "arena storage would be overwritten by the next execute()",
            trace=(f"slot {slot} tokens: {sorted(tokens[slot])}",),
        ))

    stats = {
        "slots": n,
        "arena_slots": len(bplan.assignment),
        "buffers": len(bplan.buffers),
        "escaped_tokens": len(escaped),
        "overlap_errors": overlap_errors,
        "pinned_errors": arena_target_errors,
    }
    return findings, stats
