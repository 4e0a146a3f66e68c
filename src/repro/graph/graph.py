"""The static dataflow graph IR: Graph, Operation, Tensor.

The IR is deliberately close to TensorFlow 1.x's:

* a :class:`Graph` owns a set of uniquely-named :class:`Operation` objects;
* each op has a type, input :class:`Tensor` references, attributes, and a
  device placement;
* each op produces exactly one output tensor (a composite op such as the
  fused LSTM recurrence returns one workspace its consumers slice).

Graphs additionally carry the *gradient info* map (variable name ->
gradient tensor name) that the paper adds to MetaGraphDef so that Parallax
can locate the gradient of every variable after autodiff (section 5).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.device import DeviceSpec, canonicalize
from repro.tensor.dense import TensorSpec

_thread_local = threading.local()


def _graph_stack() -> List["Graph"]:
    if not hasattr(_thread_local, "stack"):
        _thread_local.stack = []
    return _thread_local.stack


def get_default_graph() -> "Graph":
    """The innermost graph made default via ``with graph.as_default():``.

    A process-wide fallback graph is created lazily so small scripts and
    tests can build ops without any ceremony.
    """
    stack = _graph_stack()
    if stack:
        return stack[-1]
    if not hasattr(_thread_local, "fallback"):
        _thread_local.fallback = Graph()
    return _thread_local.fallback


class Tensor:
    """A symbolic handle to the output of an operation."""

    def __init__(self, op: "Operation", spec: TensorSpec):
        self.op = op
        self.spec = spec

    @property
    def name(self) -> str:
        return self.op.name

    @property
    def graph(self) -> "Graph":
        return self.op.graph

    @property
    def shape(self):
        return self.spec.shape

    @property
    def dtype(self) -> str:
        return self.spec.dtype

    def __repr__(self) -> str:
        return f"<Tensor {self.name!r} {self.op.op_type} shape={self.spec.shape}>"


class Operation:
    """A node in the dataflow graph.

    Attributes:
        name: unique within the graph.
        op_type: kernel key, e.g. ``"matmul"``; dispatched by the executor.
        inputs: data inputs (tensors whose values feed the kernel).
        control_inputs: ops that must run first but contribute no value.
        attrs: static attributes (axis, shape, variable name, ...).
        device: optional :class:`DeviceSpec` placement.
    """

    def __init__(
        self,
        graph: "Graph",
        name: str,
        op_type: str,
        inputs: Sequence[Tensor],
        spec: TensorSpec,
        attrs: Optional[dict] = None,
        device: Optional[DeviceSpec] = None,
    ):
        self.graph = graph
        self.name = name
        self.op_type = op_type
        self.inputs: List[Tensor] = list(inputs)
        self.control_inputs: List["Operation"] = []
        self.attrs: dict = dict(attrs or {})
        self.device: Optional[DeviceSpec] = device
        self.output = Tensor(self, spec)

    def add_control_input(self, op: "Operation") -> None:
        if op.graph is not self.graph:
            raise ValueError("control input must belong to the same graph")
        if op is not self and op not in self.control_inputs:
            self.control_inputs.append(op)
            self.graph._version += 1

    def __repr__(self) -> str:
        dev = f" on {self.device}" if self.device else ""
        return f"<Operation {self.name!r} type={self.op_type}{dev}>"


class Graph:
    """A container of operations plus training metadata."""

    def __init__(self):
        self._ops: Dict[str, Operation] = {}
        self._name_counts: Dict[str, int] = {}
        self._device_stack: List[DeviceSpec] = []
        # variable name -> Variable object (populated by repro.graph.variables)
        self.variables: Dict[str, object] = {}
        # variable name -> gradient tensor name; the MetaGraphDef extension
        # from paper section 5 ("modified MetaGraphDef enables Parallax to
        # track exact mapping between model variables and their gradients").
        self.gradient_info: Dict[str, str] = {}
        # arbitrary metadata used by transforms (e.g. partitioner groups)
        self.collections: Dict[str, list] = {}
        # Structural version: bumped on every op / control-edge addition.
        # Compiled execution plans and the topo-order cache are validated
        # against it, so a mutated graph is never executed from stale state.
        self._version = 0
        # (target names) -> (version, dependency-ordered op list)
        self._topo_cache: Dict[Tuple[str, ...],
                               Tuple[int, List["Operation"]]] = {}

    # ------------------------------------------------------------------
    # Default-graph / device scoping
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def as_default(self):
        _graph_stack().append(self)
        try:
            yield self
        finally:
            _graph_stack().pop()

    @contextlib.contextmanager
    def device(self, spec):
        """Place ops created in this scope on *spec* (innermost wins)."""
        self._device_stack.append(canonicalize(spec))
        try:
            yield
        finally:
            self._device_stack.pop()

    def current_device(self) -> Optional[DeviceSpec]:
        return self._device_stack[-1] if self._device_stack else None

    # ------------------------------------------------------------------
    # Op management
    # ------------------------------------------------------------------
    def unique_name(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}_{count}"

    def add_op(
        self,
        op_type: str,
        inputs: Sequence[Tensor],
        spec: TensorSpec,
        name: Optional[str] = None,
        attrs: Optional[dict] = None,
        device=None,
    ) -> Operation:
        for tensor in inputs:
            if tensor.graph is not self:
                raise ValueError(
                    f"input {tensor.name!r} belongs to a different graph"
                )
        name = self.unique_name(name or op_type)
        if name in self._ops:
            raise ValueError(f"duplicate op name {name!r}")
        placement = canonicalize(device) if device is not None else self.current_device()
        op = Operation(self, name, op_type, inputs, spec, attrs, placement)
        self._ops[name] = op
        self._version += 1
        return op

    @property
    def version(self) -> int:
        """Structural version; changes whenever ops or edges are added."""
        return self._version

    def get_op(self, name: str) -> Operation:
        try:
            return self._ops[name]
        except KeyError:
            raise KeyError(f"no op named {name!r} in graph") from None

    def has_op(self, name: str) -> bool:
        return name in self._ops

    @property
    def operations(self) -> List[Operation]:
        return list(self._ops.values())

    def __len__(self) -> int:
        return len(self._ops)

    # ------------------------------------------------------------------
    # Collections (named op lists, used by the partitioner API)
    # ------------------------------------------------------------------
    def add_to_collection(self, key: str, value) -> None:
        self.collections.setdefault(key, []).append(value)

    def get_collection(self, key: str) -> list:
        return list(self.collections.get(key, []))

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def ancestors(self, ops: Iterable[Operation]) -> Set[Operation]:
        """All transitive predecessors of *ops* (data + control edges).

        Parallax uses this to identify the "main computation" subgraph:
        every ancestor of the gradient ops (paper section 4.3).
        """
        seen: Set[Operation] = set()
        stack = list(ops)
        while stack:
            op = stack.pop()
            if op in seen:
                continue
            seen.add(op)
            stack.extend(t.op for t in op.inputs)
            stack.extend(op.control_inputs)
        return seen

    def topo_sort(self, targets: Iterable[Operation]) -> List[Operation]:
        """Dependency-ordered list of every op needed to run *targets*."""
        order: List[Operation] = []
        state: Dict[Operation, int] = {}  # 1 = visiting, 2 = done

        def visit(op: Operation):
            status = state.get(op)
            if status == 2:
                return
            if status == 1:
                raise ValueError(f"cycle detected through op {op.name!r}")
            state[op] = 1
            for tensor in op.inputs:
                visit(tensor.op)
            for ctrl in op.control_inputs:
                visit(ctrl)
            state[op] = 2
            order.append(op)

        for target in targets:
            visit(target)
        return order

    def cached_topo_sort(self, targets: Sequence[Operation]) -> List[Operation]:
        """Memoized :meth:`topo_sort`, keyed by target names + version.

        Autodiff, the distributed transform, and compiled execution plans
        all need the dependency order of the same fetch sets; sorting once
        per (fetch set, graph version) keeps that off the hot path.  The
        returned list is shared -- callers must not mutate it.
        """
        key = tuple(op.name for op in targets)
        hit = self._topo_cache.get(key)
        if hit is not None and hit[0] == self._version:
            return hit[1]
        order = self.topo_sort(targets)
        self._topo_cache[key] = (self._version, order)
        return order

    def consumers(self, op: Operation) -> List[Operation]:
        """Ops that read *op*'s output (linear scan; graphs are small)."""
        return [
            other
            for other in self._ops.values()
            if any(t.op is op for t in other.inputs)
        ]

    # ------------------------------------------------------------------
    # Serialization.  Graphs pickle as a *flat* op table (name-indexed
    # edges) rather than object-graph traversal: deep chains of Operation
    # references would otherwise exceed the pickler's recursion budget,
    # and Variables must not re-run their constructors (which add ops) on
    # load.  This is the serialization contract the multiprocess
    # execution backend relies on to ship a transformed graph to worker
    # processes; see README "Execution backends".
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        ops_state = [
            (op.name, op.op_type, [t.op.name for t in op.inputs],
             op.output.spec, op.attrs, op.device,
             [c.name for c in op.control_inputs])
            for op in self._ops.values()
        ]
        variables_state = [
            (name, var.initializer, var.trainable,
             getattr(var, "partition_info", None))
            for name, var in self.variables.items()
        ]
        collections_state = {
            key: [self._encode_collection_entry(v) for v in values]
            for key, values in self.collections.items()
        }
        return {
            "ops": ops_state,
            "variables": variables_state,
            "collections": collections_state,
            "gradient_info": dict(self.gradient_info),
            "name_counts": dict(self._name_counts),
            "version": self._version,
        }

    def _encode_collection_entry(self, value):
        from repro.graph import variables as variables_mod

        if isinstance(value, Operation):
            return ("op", value.name)
        if isinstance(value, variables_mod.Variable):
            return ("var", value.name)
        if isinstance(value, variables_mod.PartitionedVariable):
            return ("pvar", value.name, value.full_shape,
                    list(value.offsets), [p.name for p in value.partitions])
        return ("raw", value)

    def _decode_collection_entry(self, entry):
        from repro.graph import variables as variables_mod

        kind = entry[0]
        if kind == "op":
            return self._ops[entry[1]]
        if kind == "var":
            return self.variables[entry[1]]
        if kind == "pvar":
            _, name, full_shape, offsets, partition_names = entry
            return variables_mod.restore_partitioned_variable(
                self, name, full_shape, offsets, partition_names
            )
        return entry[1]

    def __setstate__(self, state: dict) -> None:
        from repro.graph import variables as variables_mod

        self._ops = {}
        self._name_counts = dict(state["name_counts"])
        self._device_stack = []
        self.variables = {}
        self.gradient_info = dict(state["gradient_info"])
        self.collections = {}
        self._version = state["version"]
        self._topo_cache = {}
        # Data inputs always precede their consumers in insertion order
        # (add_op requires existing tensors), so one forward pass rebuilds
        # every op; control edges may point forward and need a second.
        for name, op_type, input_names, spec, attrs, device, _ in state["ops"]:
            inputs = [self._ops[i].output for i in input_names]
            self._ops[name] = Operation(self, name, op_type, inputs, spec,
                                        attrs, device)
        for name, _, _, _, _, _, control_names in state["ops"]:
            if control_names:
                self._ops[name].control_inputs = [
                    self._ops[c] for c in control_names
                ]
        for name, initializer, trainable, partition_info in state["variables"]:
            variables_mod.restore_variable(self, name, initializer,
                                           trainable, partition_info)
        for key, encoded in state["collections"].items():
            self.collections[key] = [
                self._decode_collection_entry(e) for e in encoded
            ]
