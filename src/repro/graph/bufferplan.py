"""Compile-time buffer planning for the straight-line engine.

A :class:`~repro.graph.executor.CompiledPlan` replays a frozen schedule
thousands of times with identical shapes, yet (before this pass) every
elementwise kernel allocated a fresh output array per step.  This module
computes, once per plan, which schedule slots can instead write into a
small *arena* of preallocated buffers that are recycled as values die:

1. **Alias analysis** -- slots whose values may share storage (views,
   gradient-aliasing vjp rules, unknown op types) are merged into
   storage groups with a union-find; a buffer may only be recycled when
   its whole group is dead.
2. **Liveness** -- each slot's last static consumer position; a group
   dies at the max over its members.  Groups touched by fetched slots or
   by op types this pass does not model are pinned (never recycled), and
   fetched groups are additionally excluded from the arena entirely so a
   value returned to the caller is never overwritten by the next step.
3. **Linear allocation sweep** -- walk the schedule once, handing each
   arena-eligible slot a dead buffer of the same (shape, dtype) from a
   free list or minting a new one.  Freeing is strict (``last_use <
   pos``), so an op's output buffer can never alias any of its own
   inputs.

Three kinds of plan-owned storage ride on the same sweep:

* **Bucket views.**  A dense axis-0 ``concat`` -- a fused bucket's pack
  -- gets an arena buffer, and each input produced by an arena kernel
  (directly or through a ``reshape``) gets a new slot kind, *view of
  bucket B at offset o* (:attr:`BufferPlan.views`): the producer writes
  its gradient straight into its region, the member's storage joins the
  bucket's group, and the buffer is taken where the first member is
  born.  The pack's out-kernel then finds its inputs in place and
  copies nothing.
* **Fold buffers.**  A :data:`FOLD_OUT` collective reads its inputs
  only during the call, so it no longer pins them; the first replica's
  op of a group gets an arena buffer to fold into, and the others,
  which return that same result, join its group.
* **In-place updates.**  A dense update (:data:`IN_PLACE_UPDATES`) may
  write its variables' own arrays unless a value read from one of them
  is used after the update or fetched -- decided here, at compile time
  (the alias audit's property 4).

Generated code hands the fold buffers and the in-place update names to
the runtime kernels through the run cache (``run_cache["out"]``,
``run_cache["in_place"]``); the first-run loop and the reference
interpreter leave both empty, so they allocate exactly as before.

The pass is conservative by construction: anything it cannot prove safe
simply stays on the allocating path, and every out-parameter kernel
re-guards shapes/dtypes at run time (see ``ops.py``), so planning errors
degrade to extra allocation, never to wrong values.  Values are bitwise
identical to the unplanned engine because the out-parameter kernels run
the same ufunc/BLAS routines into same-dtype outputs.

Sparse values (IndexedSlices) never enter the arena: slots reachable
from a sparse gradient source are tagged ``maybe_sparse`` and skipped,
which both avoids minting dense buffers that would go unused and keeps
the runtime guards on the fast path cheap.

A multiprocess worker's rank plan is planned like any other.  Its
``send`` port is known-safe because a Transport freezes the value before
``send`` returns (pickle, ring copy or blocking ``sendall``) and keeps no
reference, so the arena may recycle a sent buffer -- a bucket included;
``recv`` hands over a
freshly decoded value nothing else holds (possibly IndexedSlices, so it
is also a sparse source).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Forward op types whose kernels produce a fresh dense array and retain
# no reference to it or to their inputs -- the arena candidates.
ARENA_FWD = frozenset(
    {"add", "mul", "tanh", "sigmoid", "relu", "scale", "add_bias", "matmul"}
)

# Forward op types whose output is (or may be) a view of input 0.
VIEW_FWD = frozenset({"identity", "reshape", "slice", "bucket_slice"})

# vjp rules that return only fresh arrays for every output index.
FRESH_VJP = frozenset(
    {"matmul", "mul", "tanh", "sigmoid", "relu", "scale", "slice",
     "softmax_xent", "mse", "mean", "lstm_seq"}
)

# vjp rules where some output index may alias (or view) the incoming
# gradient: add -> [g, g], identity -> [g], add_bias -> [g, sum],
# reshape/concat -> views of g, gather -> IndexedSlices over a view of g.
# An index with a ``VJP_OUT`` expansion (add_bias's sum) is fresh.
GRAD_ALIAS_VJP = frozenset(
    {"add", "identity", "reshape", "concat", "add_bias", "gather"}
)

# (forward op type, input index) vjp nodes expandable to
# ``buf[i] = buf[grad_slot]``: the rule returns the incoming gradient
# unchanged for that index.
EXPAND_ALIAS_VJP = frozenset(
    {("add", 0), ("add", 1), ("identity", 0), ("add_bias", 0)}
)

# Collectives whose kernel folds into a plan-owned ``out=`` buffer.  They
# read their inputs only during the call and retain nothing, and every
# replica's op of one (op type, group) returns the first one's result.
FOLD_OUT = frozenset({"fused_allreduce"})

# Dense update kernels that write in place when the run cache lists them
# (``run_cache["in_place"]``), and the attrs naming those variables.
IN_PLACE_UPDATES = {
    "sgd_update": ("variable",),
    "momentum_update": ("variable", "slot"),
    "adam_update": ("variable", "m", "v"),
}

# Op types that are known not to retain references to their inputs
# beyond the step and whose outputs need no storage modelling (fresh
# arrays, scalars, or None).  Consuming an arena value is safe for them.
KNOWN_SAFE = frozenset(
    {"placeholder", "constant", "read_var", "concat", "gather", "mean",
     "softmax", "softmax_xent", "mse", "grad_add", "ones_like_scalar", "group",
     "assign", "assign_sub", "scatter_sub", "send", "recv", "lstm_seq"}
)

# Op types whose output is (or may wrap) an IndexedSlices.
SPARSE_SOURCE = frozenset({"allgatherv", "recv"})

# Known op types that can pass an IndexedSlices input through to their
# output.  Every other known kernel either densifies or only ever sees
# dense operands, so sparseness tracking stops there instead of
# poisoning everything downstream of an embedding lookup.
SPARSE_PASSTHROUGH = frozenset({"identity", "scale", "grad_add"})


@dataclass(frozen=True)
class VjpExpansion:
    """Per-node replacement for one output of a shared vjp rule.

    ``kind`` is ``"alias"`` (emit ``buf[i] = buf[args[0]]``) or
    ``"call"`` (emit ``buf[i] = fn(buf[a]..., arena_buffer)``); ``args``
    are absolute value-buffer slots.
    """

    kind: str
    args: Tuple[int, ...]
    fn: Optional[Callable] = None


@dataclass
class BufferPlan:
    assignment: Dict[int, int]  # slot -> arena buffer id
    buffers: List[Tuple[Tuple[int, ...], str]]  # buffer id -> (shape, dtype)
    out_fns: Dict[int, Callable]  # slot -> guarded out-parameter kernel
    expansions: Dict[int, VjpExpansion]  # vjp slot -> expansion
    slot_last_use: Dict[int, float]  # slot -> last consumer position
    group_of: Dict[int, int]  # slot -> storage group root
    group_last_use: Dict[int, float]  # root -> death position (inf = pinned)
    arena_bytes: int = 0  # bytes actually allocated for the arena
    arena_slot_bytes: int = 0  # bytes the same slots would allocate per step
    # member slot -> (bucket concat slot, lo, hi): the member is born in
    # elements [lo, hi) of the flattened buffer of that concat
    views: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    folds: frozenset = frozenset()  # collective slots folding into a buffer
    in_place: frozenset = frozenset()  # update slots writing in place

    @property
    def arena_slots(self) -> int:
        return len(self.assignment)

    def arena_reuse_rate(self, steps: int = 1) -> float:
        """Fraction of arena-slot output bytes over *steps* replays that
        were served by an already-allocated buffer instead of a fresh
        allocation.

        The arena allocates ``arena_bytes`` once at compile time and
        then serves ``arena_slot_bytes`` of output per replay, so the
        rate is ``1 - arena_bytes / (steps * arena_slot_bytes)``.  With
        ``steps=1`` this is the *within-step* recycle factor (how much
        the free lists shrink the arena below one-buffer-per-slot);
        training graphs keep activations live across the whole backward
        pass, so that factor is structurally modest.  Over a replay
        window it converges to 1: steady-state steps allocate nothing.
        """
        if not self.arena_slot_bytes or steps <= 0:
            return 0.0
        return 1.0 - self.arena_bytes / (steps * self.arena_slot_bytes)


class _UnionFind:
    __slots__ = ("parent", "no_arena", "pinned")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.no_arena = [False] * n
        self.pinned = [False] * n

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self.parent[rb] = ra
        self.no_arena[ra] = self.no_arena[ra] or self.no_arena[rb]
        self.pinned[ra] = self.pinned[ra] or self.pinned[rb]

    def flag(self, a: int, *, no_arena: bool = False,
             pinned: bool = False) -> None:
        root = self.find(a)
        self.no_arena[root] = self.no_arena[root] or no_arena
        self.pinned[root] = self.pinned[root] or pinned


def _buffer_spec(op) -> Optional[Tuple[Tuple[int, ...], str, int]]:
    """(shape, dtype, nbytes) for an arena buffer, or None if unusable."""
    output = getattr(op, "output", None)
    spec = getattr(output, "spec", None)
    if spec is None:
        return None
    shape = tuple(spec.shape)
    if any(not isinstance(d, int) or d < 0 for d in shape):
        return None
    try:
        dt = np.dtype(spec.dtype)
    except TypeError:
        return None
    if dt.hasobject:
        return None
    nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize if shape \
        else dt.itemsize
    if nbytes <= 0:
        return None
    return shape, str(spec.dtype), nbytes


def build_buffer_plan(plan) -> BufferPlan:
    """Compute the :class:`BufferPlan` for one compiled plan."""
    from repro.graph import ops as ops_mod
    from repro.graph.executor import DIRECT_OUT

    schedule = plan.schedule
    n = plan.num_slots
    uf = _UnionFind(n)
    last_use: Dict[int, float] = {}
    maybe_sparse = [False] * n
    # (slot, buffer spec, out_fn or None-for-vjp placeholder) candidates,
    # filtered against group flags after all joins are known.
    fwd_candidates: List[Tuple[int, Tuple, Callable]] = []
    vjp_candidates: Dict[int, Tuple[Tuple, Tuple[int, ...], Callable]] = {}
    expansions: Dict[int, VjpExpansion] = {}
    fold_first: Dict[Tuple[str, object], int] = {}  # (type, group) -> slot
    fold_candidates: Dict[int, Tuple] = {}  # first fold slot -> spec
    concats: List[int] = []
    updates: List[int] = []
    reads: Dict[str, List[int]] = {}  # variable -> read_var slots

    for op, _kernel, input_slots, slot, _edges in schedule:
        last_use.setdefault(slot, slot)
        for j in input_slots:
            if last_use.get(j, j) < slot:
                last_use[j] = slot
        op_type = op.op_type
        if (op_type in SPARSE_SOURCE
                or (op_type in SPARSE_PASSTHROUGH
                    and any(maybe_sparse[j] for j in input_slots))):
            maybe_sparse[slot] = True
        if op_type == "vjp":
            fwd_op = plan.graph.get_op(op.attrs["forward_op"])
            ftype = fwd_op.op_type
            index = op.attrs["input_index"]
            nf = len(fwd_op.inputs)
            grad_slot = input_slots[nf + 1]
            if op.attrs.get("is_sparse") or ftype == "gather":
                maybe_sparse[slot] = True
            built = None
            if (ftype in ops_mod.VJP_OUT and ftype in ops_mod.VJP
                    and not maybe_sparse[slot]):
                built = ops_mod.VJP_OUT[ftype](fwd_op, index)
            if built is not None:
                # An expandable index returns a fresh array.
                rel_args, fn = built
                spec = _buffer_spec(op)
                if spec is not None:
                    args = tuple(input_slots[r] for r in rel_args)
                    vjp_candidates[slot] = (spec, args, fn)
            elif ftype in FRESH_VJP:
                pass  # fresh output from the shared rule
            elif ftype in GRAD_ALIAS_VJP:
                uf.union(slot, grad_slot)
                if (ftype, index) in EXPAND_ALIAS_VJP and ftype in ops_mod.VJP:
                    expansions[slot] = VjpExpansion("alias", (grad_slot,))
            else:
                # Unmodelled rule: assume any output may alias anything.
                for j in input_slots:
                    uf.union(slot, j)
        elif op_type in VIEW_FWD:
            if input_slots:
                uf.union(slot, input_slots[0])
        elif op_type in ARENA_FWD:
            if slot not in plan._specialized and not maybe_sparse[slot]:
                builder = DIRECT_OUT.get(op_type)
                out_fn = builder(op) if builder is not None else None
                spec = _buffer_spec(op)
                if out_fn is not None and spec is not None:
                    fwd_candidates.append((slot, spec, out_fn))
        elif op_type in FOLD_OUT and _buffer_spec(op) is not None:
            # Replicas of one group return the first one's result.
            first = fold_first.setdefault((op_type, op.attrs.get("group")),
                                          slot)
            if first == slot:
                fold_candidates[slot] = _buffer_spec(op)
            else:
                uf.union(slot, first)
        elif op_type in KNOWN_SAFE or op.attrs.get("is_update"):
            if op_type == "concat":
                concats.append(slot)
            elif op_type == "read_var":
                reads.setdefault(op.attrs["variable"], []).append(slot)
            elif op_type in IN_PLACE_UPDATES and op.attrs.get("is_update"):
                updates.append(slot)
        else:
            # Unknown op type (collectives, shard ops, gathers...):
            # its output may alias or retain any input, and it may keep
            # references across steps -- fuse the storages, pin them,
            # and keep the arena away from all of it.
            maybe_sparse[slot] = True
            for j in input_slots:
                uf.union(slot, j)
            uf.flag(slot, no_arena=True, pinned=True)

    # Values returned to the caller must never live in recycled storage:
    # the next execute() would overwrite them in place.
    for t in plan.target_slots:
        uf.flag(t, no_arena=True, pinned=True)

    candidate_specs = {slot: spec for slot, spec, _ in fwd_candidates}
    candidate_specs.update(
        (slot, entry[0]) for slot, entry in vjp_candidates.items())
    views = _bucket_views(schedule, concats, candidate_specs, uf,
                          maybe_sparse)

    group_of = {s: uf.find(s) for s in range(n)}
    group_last_use: Dict[int, float] = {}
    for s in range(n):
        root = group_of[s]
        death = math.inf if uf.pinned[root] else last_use.get(s, s)
        if group_last_use.get(root, -1) < death:
            group_last_use[root] = death

    # ---- in-place updates (alias audit property 4) ---------------------
    # An update may write its variables' arrays in place unless a value
    # read from one of them is still used after it, or is fetched (the
    # caller would see it change at the next step).
    def death_of(r: int) -> float:
        return group_last_use[group_of[r]]

    in_place = frozenset(
        p for p in updates
        if not any(death_of(r) == math.inf or (r < p and death_of(r) > p)
                   for key in IN_PLACE_UPDATES[schedule[p][0].op_type]
                   for r in reads.get(schedule[p][0].attrs.get(key), ())))

    # ---- linear allocation sweep --------------------------------------
    assignment: Dict[int, int] = {}
    out_fns: Dict[int, Callable] = {}
    buffers: List[Tuple[Tuple[int, ...], str]] = []
    buffer_nbytes: List[int] = []
    free_lists: Dict[Tuple[Tuple[int, ...], str], List[int]] = {}
    owned: Dict[int, List[int]] = {}
    deaths: List[Tuple[float, int]] = []
    arena_slot_bytes = 0

    # slot -> (spec, vjp args or None, out fn; None for a fold).  A
    # bucket's buffer is minted where its first member is born.
    eligible: Dict[int, Tuple[Tuple, Optional[Tuple[int, ...]],
                              Optional[Callable]]] = {}
    for slot, spec, out_fn in fwd_candidates:
        eligible[slot] = (spec, None, out_fn)
    for slot, (spec, args, fn) in vjp_candidates.items():
        eligible[slot] = (spec, args, fn)
    for slot, spec in fold_candidates.items():
        eligible[slot] = (spec, None, None)
    eligible = {slot: entry for slot, entry in eligible.items()
                if not uf.no_arena[group_of[slot]]}
    first_member: Dict[int, int] = {}  # bucket concat -> first member
    for k, (c, _lo, _hi) in views.items():
        first_member[c] = min(k, first_member.get(c, k))
    bucket_at = {k: c for c, k in first_member.items()}

    def allocate(slot: int, spec: Tuple) -> int:
        shape, dtype, nbytes = spec
        free = free_lists.get((shape, dtype))
        if free:
            buf_id = free.pop()
        else:
            buf_id = len(buffers)
            buffers.append((shape, dtype))
            buffer_nbytes.append(nbytes)
        root = group_of[slot]
        if root not in owned:
            owned[root] = []
            heapq.heappush(deaths, (group_last_use[root], root))
        owned[root].append(buf_id)
        return buf_id

    folds = set()
    for pos in range(n):
        while deaths and deaths[0][0] < pos:
            _, dead_root = heapq.heappop(deaths)
            for buf_id in owned.pop(dead_root, ()):  # recycle
                shape, dtype = buffers[buf_id]
                free_lists.setdefault((shape, dtype), []).append(buf_id)
        c = bucket_at.get(pos)
        if c is not None:
            spec = _buffer_spec(schedule[c][0])
            assignment[c] = allocate(c, spec)
            arena_slot_bytes += spec[2]
            out_fns[c] = DIRECT_OUT["concat"](schedule[c][0])
        entry = eligible.get(pos)
        if entry is None:
            continue
        spec, args, fn = entry
        if pos not in views:
            assignment[pos] = allocate(pos, spec)
            arena_slot_bytes += spec[2]
        if fn is None:
            folds.add(pos)
        elif args is None:
            out_fns[pos] = fn
        else:
            expansions[pos] = VjpExpansion("call", args, fn)

    return BufferPlan(
        assignment=assignment,
        buffers=buffers,
        out_fns=out_fns,
        expansions=expansions,
        slot_last_use=last_use,
        group_of=group_of,
        group_last_use=group_last_use,
        arena_bytes=sum(buffer_nbytes),
        arena_slot_bytes=arena_slot_bytes,
        views=views,
        folds=frozenset(folds),
        in_place=in_place,
    )


def _bucket_views(schedule, concats: List[int],
                  candidate_specs: Dict[int, Tuple], uf: _UnionFind,
                  maybe_sparse: List[bool]) -> Dict[int, Tuple[int, int, int]]:
    """Which gradients are born in their fused bucket.

    A dense axis-0 ``concat`` whose storage may take an arena buffer is a
    bucket.  Its input at elements ``[lo, hi)`` -- an arena candidate's
    output, directly or through a ``reshape`` view -- is a member: the
    candidate writes straight into that region of the bucket's buffer,
    and the pack's out-kernel finds it already in place.  A member's
    storage joins the bucket's group, so the whole buffer lives until
    the last reader of any member or of the pack.  A candidate feeds at
    most one region; anything else stays a copy.
    """
    views: Dict[int, Tuple[int, int, int]] = {}
    for c in concats:
        op, _kernel, input_slots, _slot, _edges = schedule[c]
        spec = _buffer_spec(op)
        if (spec is None or op.attrs.get("axis") != 0 or maybe_sparse[c]
                or uf.no_arena[uf.find(c)]):
            continue
        dtype = spec[1]
        lo = 0
        for j in input_slots:
            entry = schedule[j]
            member_spec = _buffer_spec(entry[0])
            if member_spec is None:
                break  # no static layout past this input
            hi = lo + int(np.prod(member_spec[0], dtype=np.int64))
            k = entry[2][0] if entry[0].op_type == "reshape" else j
            k_spec = candidate_specs.get(k)
            if (k_spec is not None and k not in views
                    and k_spec[1:] == (dtype, member_spec[2])
                    and not uf.no_arena[uf.find(k)]
                    and uf.find(k) != uf.find(c)):
                views[k] = (c, lo, hi)
                uf.union(c, k)
            lo = hi
    return views
