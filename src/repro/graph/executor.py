"""Compile-once / execute-many engine for the graph layer -- the only one.

A memoized topological walk re-resolves fetches, re-sorts the graph, and
re-dispatches every kernel through a string-keyed registry on every call
(``tests/reference_interpreter.py`` keeps one as the test oracle).  That
overhead is multiplied by replicas × iterations × sampled partition counts
in the Equation-1 search, so every run compiles a :class:`CompiledPlan`
once per (fetch set, graph version) and replays it:

* the topological schedule is frozen at compile time;
* each kernel is bound directly into its schedule entry (no registry
  lookup per op per run).  An op type has one body: a pure op's
  :data:`DIRECT` body, which the loop and generated code both call, or a
  runtime kernel in ``ops.FORWARD``;
* operand routing uses precomputed integer indices into a flat value
  buffer instead of per-op name-dict lookups;
* placeholder slots are declared up front so a runner can validate its
  feeds once instead of discovering a missing feed mid-iteration;
* cross-machine transfer edges (static graph structure) are precomputed
  by the distributed session, leaving only byte counts dynamic.

A plan has two replay forms, picked from what it observes, never from
a user option: the loop (the first run, and any run not feeding exactly
the placeholders) and generated straight-line code (every other run).
The schedule is :func:`plan_order` unless the caller passes a
precomputed *order* -- a multiprocess worker's slice of the step, with
``send``/``recv`` port ops outside the graph (:mod:`repro.core.backend`).
An exception escaping a plan carries ``schedule_index`` and ``op_name``;
generated code finds them through a line table built while emitting.

Sessions own a plan cache keyed by the fetch-name signature; plans
self-invalidate when :attr:`Graph.version` moves.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph, Operation, Tensor
from repro.tensor.dense import as_array, nbytes_of

# A static transfer edge attached to one schedule entry:
# (input position, dedup key, transcript tag, src machine, dst machine).
EdgeSpec = Tuple[int, tuple, str, int, int]
EdgeFn = Callable[[Operation], Optional[List[EdgeSpec]]]

# Op types whose finish the overlap schedule sinks to the end of the step.
# A collective *starts* at the op that feeds it (the bucket ``concat``;
# under ``multiproc`` that entry carries the sends), which stays at the
# bucket's last gradient; the collective op and everything downstream of
# it (``bucket_slice``, the updates, ``group``) run after all other compute.
COLLECTIVE_OPS = frozenset({"fused_allreduce"})


def overlap_schedule(order: Sequence[Operation]) -> List[Operation]:
    """Reorder a topological order for comm/compute overlap.

    List scheduling over the dependency DAG.  An op is *lazy* when it is
    a :data:`COLLECTIVE_OPS` op or has a lazy data/control input; all
    other ops keep their relative (FIFO) order, so a bucket is packed at
    its last gradient.  Lazy ops run only when nothing else is ready,
    depth-first: collectives in the order they became ready, each one's
    newly ready consumers ahead of the next (``fold b2, slice,
    update..., fold b1, ...``), so a bucket's wire time hides behind the
    rest of the backward pass and the folds and updates before its own.
    Any valid topological order executes to identical values (kernels
    are pure between variable reads and the updates that transitively
    depend on every read), so only where a collective starts and
    finishes moves.
    """
    from collections import deque

    in_schedule = {op.name for op in order}
    indegree: Dict[str, int] = {}
    consumers: Dict[str, List[Operation]] = {}
    lazy = set()
    for op in order:
        deps = {t.op.name for t in op.inputs if t.op.name in in_schedule}
        deps.update(c.name for c in op.control_inputs
                    if c.name in in_schedule)
        indegree[op.name] = len(deps)
        for dep in deps:
            consumers.setdefault(dep, []).append(op)
        if op.op_type in COLLECTIVE_OPS or not lazy.isdisjoint(deps):
            lazy.add(op.name)

    ready: deque = deque()
    ready_lazy: deque = deque()
    for op in order:
        if indegree[op.name] == 0:
            (ready_lazy if op.name in lazy else ready).append(op)
    scheduled: List[Operation] = []
    while ready or ready_lazy:
        op = ready.popleft() if ready else ready_lazy.popleft()
        scheduled.append(op)
        woken_lazy = []
        for consumer in consumers.get(op.name, ()):
            indegree[consumer.name] -= 1
            if indegree[consumer.name] == 0:
                (woken_lazy if consumer.name in lazy
                 else ready).append(consumer)
        if op.name in lazy:
            ready_lazy.extendleft(reversed(woken_lazy))
        else:
            ready_lazy.extend(woken_lazy)
    return scheduled

def plan_order(graph: Graph, targets: Sequence[Operation]) -> List[Operation]:
    """The execution order a :class:`CompiledPlan` uses for *targets*.

    The memoized topological order, overlap-rescheduled when the fetch set
    contains collectives.  Exposed so the multiprocess backend partitions
    exactly the schedule the in-process engine would replay -- every
    worker derives the same global order independently.
    """
    order = graph.cached_topo_sort(targets)
    if any(op.op_type in COLLECTIVE_OPS for op in order):
        order = overlap_schedule(order)
    return order


# The bodies of pure ops: op_type -> builder(op) returning a positional
# function over the op's input *values*, with its static attrs prebound.
# Every op type has one body: a pure op (no runtime access, no
# _current_op) registers it here, anything touching the session registers
# a runtime kernel in ``ops.FORWARD``, and neither registry accepts an op
# type the other holds.  The loop calls a pure op's body through
# :func:`bind_kernel`'s adapter, generated code calls it positionally, and
# the reference interpreter calls ``DIRECT[op_type](op)(*inputs)``.
DIRECT: Dict[str, Callable[[Operation], Callable]] = {}


def register_direct(op_type: str):
    def deco(fn):
        if op_type in DIRECT or op_type in _forward_registry():
            raise ValueError(
                f"a kernel for {op_type!r} is already registered"
            )
        DIRECT[op_type] = fn
        return fn

    return deco


# Out-parameter builders for the buffer arena: op_type -> builder(op)
# returning a positional function ``fn(*input_values, out)`` that computes
# exactly what the op's DIRECT body computes, writing the result into
# ``out`` (a preallocated arena buffer) when the runtime values match the
# compile time specs, and calling the body otherwise.  The returned array
# is stored into the value buffer either way, so a fallback changes
# allocation behaviour only -- never values.
DIRECT_OUT: Dict[str, Callable[[Operation], Optional[Callable]]] = {}


def register_direct_out(op_type: str):
    def deco(fn):
        if op_type in DIRECT_OUT:
            raise ValueError(
                f"direct out-kernel for {op_type!r} already registered"
            )
        DIRECT_OUT[op_type] = fn
        return fn

    return deco


@cache
def _forward_registry():
    # Imported lazily (once) so kernel modules may import this one to
    # register direct kernels without a cycle.
    from repro.graph import ops as ops_mod

    return ops_mod.FORWARD


def _missing_kernel(op_type: str):
    """Deferred dispatch for op types with no kernel at compile time: the
    registry is re-consulted at execute time (so a kernel registered
    after compilation is still found), and only a still-missing kernel
    raises."""

    def raise_missing(op, inputs, runtime):
        kernel = _forward_registry().get(op_type)
        if kernel is None:
            raise NotImplementedError(
                f"no kernel registered for op type {op.op_type!r} "
                f"(op {op.name!r})"
            )
        return kernel(op, inputs, runtime)

    return raise_missing


def bind_kernel(op: Operation, specialize_fn: Optional[Callable] = None,
                ) -> Tuple[Callable, bool]:
    """The kernel a schedule entry calls for *op*: ``(kernel, specialized)``.

    The one binding ladder every :class:`CompiledPlan` uses, the
    multiprocess workers' rank plans included: the session's per-instance
    specialization first (a worker's ports and muted collectives), then the
    op type's one body -- a pure op's :data:`DIRECT` body adapted to the
    ``(op, inputs, runtime)`` convention, or its ``FORWARD`` kernel --
    then deferred dispatch.  *specialized* kernels have their op context
    prebound and never read ``_current_op``; an adapted body is not
    specialized, so generated code calls the body itself.
    """
    kernel = specialize_fn(op) if specialize_fn is not None else None
    if kernel is not None:
        return kernel, True
    builder = DIRECT.get(op.op_type)
    if builder is not None:
        body = builder(op)

        def direct_kernel(op, inputs, runtime):
            return body(*inputs)

        return direct_kernel, False
    kernel = _forward_registry().get(op.op_type)
    return (kernel if kernel is not None
            else _missing_kernel(op.op_type)), False


class CompiledPlan:
    """Frozen execution schedule for one fetch set of one graph.

    Replaying a plan is semantically identical to interpreting the graph:
    fetches evaluate in the same dependency order, ``feed_dict`` may still
    override any op's output (the op's kernel is skipped), and unfed
    placeholders raise the same error.  Only the per-run bookkeeping is
    gone.
    """

    __slots__ = ("graph", "version", "fetch_names", "num_slots", "schedule",
                 "target_slots", "slot_of_name", "placeholder_names",
                 "placeholder_slots", "has_edges", "_specialized",
                 "_codegen", "_line_slots", "_exec_count", "_buffer_plan",
                 "_arena")

    # Process-wide count of plan compilations.  Purely observational: the
    # elastic runtime asserts (and reports) that a rescale really paid the
    # compile-once cost again instead of replaying a stale plan.
    compiled_total = 0

    def __init__(self, graph: Graph, targets: Sequence[Operation],
                 edge_fn: Optional[EdgeFn] = None,
                 specialize_fn: Optional[Callable] = None,
                 order: Optional[Sequence[Operation]] = None):
        CompiledPlan.compiled_total += 1
        self.graph = graph
        self.version = graph.version
        self.fetch_names: Tuple[str, ...] = tuple(op.name for op in targets)

        if order is None:
            order = plan_order(graph, targets)
        slot_of: Dict[str, int] = {}
        schedule = []
        placeholders: List[str] = []
        specialized = set()
        has_edges = False
        for slot, op in enumerate(order):
            slot_of[op.name] = slot
            kernel, is_specialized = bind_kernel(op, specialize_fn)
            if is_specialized:
                specialized.add(slot)
            input_slots = tuple(slot_of[t.op.name] for t in op.inputs)
            edges = edge_fn(op) if edge_fn is not None else None
            if edges:
                has_edges = True
            if op.op_type == "placeholder":
                placeholders.append(op.name)
            schedule.append((op, kernel, input_slots, slot, edges or None))

        self.num_slots = len(order)
        self.schedule: tuple = tuple(schedule)
        self.slot_of_name = slot_of
        self.target_slots = tuple(slot_of[name] for name in self.fetch_names)
        self.placeholder_names = tuple(placeholders)
        self.placeholder_slots = frozenset(slot_of[n] for n in placeholders)
        self.has_edges = has_edges
        self._specialized = specialized
        self._codegen = None
        self._line_slots: Tuple[Optional[int], ...] = ()
        self._exec_count = 0
        self._buffer_plan = None
        self._arena: List[np.ndarray] = []

    def validate_placeholders(self, available: Sequence[str]) -> None:
        """One-time feed validation: every placeholder slot the schedule
        executes must be coverable by *available* feed names."""
        known = set(available)
        missing = [name for name in self.placeholder_names
                   if name not in known]
        if missing:
            raise ValueError(
                f"compiled plan for {self.fetch_names} needs placeholders "
                f"that the runner never feeds: {missing}"
            )

    def execute(self, session, feed_dict: Optional[dict] = None) -> list:
        """Replay the schedule against *session*; returns fetch values."""
        buf: List[object] = [None] * self.num_slots
        fed = bytearray(self.num_slots)
        fed_slots = set()
        if feed_dict:
            slot_of = self.slot_of_name
            for key, value in feed_dict.items():
                name = key.name if isinstance(key, Tensor) else str(key)
                slot = slot_of.get(name)
                if slot is None:
                    continue  # feeds outside the schedule are ignored
                buf[slot] = (value if isinstance(value, np.ndarray)
                             else as_array(value))
                fed[slot] = 1
                fed_slots.add(slot)

        fast = self._codegen
        if fast is None:
            # Straight-line code is only worth generating for plans that
            # are actually replayed; a one-shot fetch uses the loop.
            self._exec_count += 1
            if self._exec_count >= 2:
                fast = self._codegen = self._generate()
        generated = fast is not None and fed_slots == self.placeholder_slots
        try:
            if generated:
                # The steady-state pattern: exactly the placeholders fed.
                fast(session, buf)
            else:
                self._execute_loop(session, buf, fed)
        except BaseException as exc:
            # Name the entry that raised: the loop marks it as the
            # session's current op, generated code by its line.
            slot = (self._generated_slot(exc) if generated else
                    self.slot_of_name.get(getattr(session._current_op,
                                                  "name", None)))
            exc.schedule_index = slot
            exc.op_name = None if slot is None else self.schedule[slot][0].name
            raise
        return [buf[s] for s in self.target_slots]

    def _execute_loop(self, session, buf: list, fed: bytearray) -> None:
        session.run_cache = {}
        seen = session._seen_edges if self.has_edges else None
        record = session.transcript.record if self.has_edges else None
        for op, kernel, input_slots, slot, edges in self.schedule:
            if fed[slot]:
                continue
            inputs = [buf[j] for j in input_slots]
            session._current_op = op
            if edges is not None:
                for pos, key, tag, src, dst in edges:
                    value = inputs[pos]
                    if value is None or key in seen:
                        continue
                    seen.add(key)
                    record(tag=tag, src_machine=src, dst_machine=dst,
                           nbytes=nbytes_of(value))
            buf[slot] = kernel(op, inputs, session)
        session._current_op = None

    def _generated_slot(self, exc: BaseException) -> Optional[int]:
        """The slot whose generated line raised: the innermost traceback
        frame running this plan's ``_run``."""
        code_globals = self._codegen.__globals__
        slot = None
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_globals is code_globals:
                slot = self._line_slots[tb.tb_lineno - 1]
            tb = tb.tb_next
        return slot

    # -- buffer arena ----------------------------------------------------
    def _ensure_buffer_plan(self):
        """Compute (once) the liveness/alias buffer plan and allocate the
        arena."""
        if self._buffer_plan is None:
            from repro.graph.bufferplan import build_buffer_plan

            self._buffer_plan = build_buffer_plan(self)
            self._arena = [np.empty(shape, dtype=np.dtype(dt))
                           for shape, dt in self._buffer_plan.buffers]
        return self._buffer_plan

    def _out_ref(self, ns: Dict[str, object], slot: int) -> str:
        """The generated-code name of *slot*'s arena storage: its buffer,
        or for a bucket member the view of its region of the bucket's."""
        bplan = self._buffer_plan
        view = bplan.views.get(slot)
        if view is None:
            return f"A{bplan.assignment[slot]}"
        concat, lo, hi = view
        flat = self._arena[bplan.assignment[concat]].reshape(-1)
        ns[f"V{slot}"] = flat[lo:hi].reshape(
            self.schedule[slot][0].output.spec.shape)
        return f"V{slot}"

    @property
    def arena_bytes(self) -> int:
        return self._ensure_buffer_plan().arena_bytes

    @property
    def arena_slots(self) -> int:
        return self._ensure_buffer_plan().arena_slots

    def arena_reuse_rate(self, steps: int = 1) -> float:
        return self._ensure_buffer_plan().arena_reuse_rate(steps)

    # -- straight-line code generation ----------------------------------
    def _generate(self):
        """Compile the schedule to straight-line Python, assuming exactly
        the placeholders are fed; ``_line_slots`` maps each line to its slot.

        ``_run(session, buf)`` is the loop with every per-op decision
        already taken: no iteration machinery, fed checks or kernel
        indirection for inlined op types.  ``vjp`` nodes inline the
        shared-gradient cache protocol (same ``run_cache['vjp']`` keys as
        the ``vjp`` kernel, resolved to generated locals), constants
        become literals, pure ops' DIRECT bodies are called positionally,
        and specialized kernels skip the ``_current_op`` bookkeeping they
        contractually ignore.  Arena-planned ops call guarded
        out-parameter kernels writing into preallocated buffers -- a
        fused bucket's member into its region of the bucket's buffer
        (see ``repro.graph.bufferplan``) -- the run cache names the fold
        buffers and in-place updates runtime kernels may use, and shared
        vjp rules expand into per-node arena kernels.  Each entry emits
        its own lines, none shared with another entry.
        """
        from repro.graph import ops as ops_mod

        bplan = self._ensure_buffer_plan()
        ns: Dict[str, object] = {"NB": nbytes_of}
        for b, arr in enumerate(self._arena):
            ns[f"A{b}"] = arr
        lines: List[str] = ["def _run(session, buf):",
                            "    rc = {}",
                            "    session.run_cache = rc"]
        # Plan-owned storage runtime kernels may write, through the run
        # cache: a fold slot's buffer by op name, and the updates that
        # may write their variables in place.
        if bplan.folds:
            ns["FOLD_OUT"] = {self.schedule[s][0].name: self._arena[
                bplan.assignment[s]] for s in bplan.folds}
            lines.append("    rc['out'] = FOLD_OUT")
        if bplan.in_place:
            ns["IN_PLACE"] = frozenset(self.schedule[s][0].name
                                       for s in bplan.in_place)
            lines.append("    rc['in_place'] = IN_PLACE")
        if any(op.op_type == "vjp" for op, *_ in self.schedule):
            lines.append("    vjp = {}")
            lines.append("    rc['vjp'] = vjp")
        if self.has_edges:
            lines.append("    seen = session._seen_edges")
            lines.append("    record = session.transcript.record")

        vjp_ids: Dict[tuple, int] = {}
        edge_id = 0
        ind = "    "
        line_slots: List[Optional[int]] = [None] * len(lines)

        def emit(text: str) -> None:
            lines.append(text)
            line_slots.append(i)  # the entry being emitted

        for op, kernel, input_slots, slot, edges in self.schedule:
            i = slot
            if op.op_type == "placeholder":
                continue  # every placeholder is fed

            def emit_edges():
                nonlocal edge_id
                for pos, key, tag, src, dst in edges or ():
                    e = edge_id
                    edge_id += 1
                    ns[f"EK{e}"] = key
                    emit(f"{ind}v = buf[{input_slots[pos]}]")
                    emit(f"{ind}if v is not None and EK{e} not in seen:")
                    emit(f"{ind}    seen.add(EK{e})")
                    emit(f"{ind}    record(tag={tag!r}, src_machine={src},"
                         f" dst_machine={dst}, nbytes=NB(v))")

            args = "[" + ", ".join(f"buf[{j}]" for j in input_slots) + "]"
            if op.op_type == "vjp":
                # Expanded nodes bypass the shared-rule cache entirely:
                # alias nodes copy the gradient reference, call nodes run
                # a guarded single-output kernel into their arena buffer.
                exp = bplan.expansions.get(i)
                if exp is not None:
                    emit_edges()
                    if exp.kind == "alias":
                        emit(f"{ind}buf[{i}] = buf[{exp.args[0]}]")
                    else:
                        ns[f"X{i}"] = exp.fn
                        a = ", ".join(f"buf[{s}]" for s in exp.args)
                        emit(f"{ind}buf[{i}] = "
                             f"X{i}({a}, {self._out_ref(ns, i)})")
                    continue
                fwd_op = self.graph.get_op(op.attrs["forward_op"])
                rule = ops_mod.VJP.get(fwd_op.op_type)
                if rule is not None:
                    emit_edges()
                    key = (op.attrs["forward_op"], op.attrs["grad_source"])
                    index = op.attrs["input_index"]
                    j = vjp_ids.get(key)
                    if j is None:
                        # The first node of each key computes; later
                        # nodes read the generated local directly.
                        j = vjp_ids[key] = len(vjp_ids)
                        ns[f"VK{j}"] = key
                        ns[f"VR{j}"] = rule
                        ns[f"VF{j}"] = fwd_op
                        n = len(fwd_op.inputs)
                        fwd_args = ("[" + ", ".join(
                            f"buf[{s}]" for s in input_slots[:n]) + "]")
                        emit(f"{ind}g{j} = vjp[VK{j}] = "
                             f"VR{j}(VF{j}, {fwd_args}, "
                             f"buf[{input_slots[n]}], "
                             f"buf[{input_slots[n + 1]}])")
                    emit(f"{ind}buf[{i}] = g{j}[{index}]")
                    continue
            if op.op_type == "constant":
                # Inline the bound kernel's value: the body returns
                # attrs["value"] verbatim, but a session-level
                # specialization may prebind a different constant (e.g.
                # the serving engine resizes batch-shaped constants per
                # request batch size).
                ns[f"C{i}"] = kernel(op, (), None)
                emit(f"{ind}buf[{i}] = C{i}")
                continue
            if i in bplan.out_fns:
                emit_edges()
                ns[f"W{i}"] = bplan.out_fns[i]
                call_args = ", ".join(f"buf[{j}]" for j in input_slots)
                emit(f"{ind}buf[{i}] = "
                     f"W{i}({call_args}, {self._out_ref(ns, i)})")
                continue
            if i not in self._specialized and op.op_type in DIRECT:
                emit_edges()
                ns[f"D{i}"] = DIRECT[op.op_type](op)
                call_args = ", ".join(f"buf[{j}]" for j in input_slots)
                emit(f"{ind}buf[{i}] = D{i}({call_args})")
                continue
            emit_edges()
            ns[f"O{i}"] = op
            ns[f"K{i}"] = kernel
            if i in self._specialized:
                # Contract: specialized kernels never read _current_op --
                # their op context is prebound -- so skip the bookkeeping.
                emit(f"{ind}buf[{i}] = K{i}(O{i}, {args}, session)")
            else:
                emit(f"{ind}session._current_op = O{i}")
                emit(f"{ind}buf[{i}] = K{i}(O{i}, {args}, session)")
        lines.append("    session._current_op = None")
        line_slots.append(None)

        code = compile("\n".join(lines),
                       f"<plan/fast {self.fetch_names[:2]}...>", "exec")
        exec(code, ns)
        self._line_slots = tuple(line_slots)
        return ns["_run"]
