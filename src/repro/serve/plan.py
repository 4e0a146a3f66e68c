"""Forward-only compiled plans over frozen weights.

Training plans fetch losses *and* a train op, so their schedules carry
vjp chains, optimizer updates, and collectives.  Serving needs none of
that.  :class:`InferenceEngine` compiles plans that fetch only forward
outputs -- ``plan_order`` never schedules an op the fetches do not
reach, so the gradient/optimizer/collective subgraphs are pruned by
construction -- then *proves* the result is grad-free by scanning the
schedule for training-only op types.  Every ``read_var`` is bound at
compile time to an immutable :class:`FrozenWeights` snapshot (no store
lookup on the hot path), and replay reuses the executor's buffer arena
and straight-line codegen, so the steady-state request path allocates
nothing per call.

The snapshot is swappable: ``FrozenWeights.swap`` replaces the whole
table behind a single attribute assignment, which is the hot-reload
primitive -- a reader sees either the old generation or the new one,
never a mix.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.transform.comm_ops import COLLECTIVE_OP_TYPES
from repro.graph.executor import CompiledPlan
from repro.graph.graph import Graph, Operation, Tensor
from repro.graph.session import Session, variable_rng

# Op types that only ever appear in training schedules.  Optimizer
# kernels are caught through their ``is_update`` attr rather than by
# type, so new update ops stay covered without touching this set.
_TRAINING_ONLY = COLLECTIVE_OP_TYPES | frozenset({
    "vjp", "local_agg", "global_agg", "group",
    "assign", "assign_sub", "scatter_sub",
})


class InferencePlanError(ValueError):
    """A fetch set or weight table unusable for forward-only serving."""


def _freeze_table(table: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    frozen = {}
    for name, value in table.items():
        arr = np.array(value, copy=True)
        arr.setflags(write=False)
        frozen[name] = arr
    return frozen


class FrozenWeights:
    """An immutable weight snapshot behind one swappable reference.

    ``table`` maps variable name -> read-only ndarray copy.  ``swap``
    replaces the whole table in a single attribute assignment, so a
    concurrent reader observes either the old snapshot or the new one in
    full -- the snapshot-consistency contract hot reload relies on.
    """

    __slots__ = ("table", "version")

    def __init__(self, table: Mapping[str, np.ndarray]):
        self.table = _freeze_table(table)
        self.version = 0

    def swap(self, table: Mapping[str, np.ndarray]) -> None:
        self.table = _freeze_table(table)
        self.version += 1


class _FrozenStore:
    """Store facade routing stray session variable reads to the frozen
    snapshot; writes are refused -- the serving plane is read-only."""

    def __init__(self, weights: FrozenWeights):
        self._weights = weights

    def read(self, name: str) -> np.ndarray:
        try:
            return self._weights.table[name]
        except KeyError:
            raise KeyError(
                f"serving weights carry no value for variable {name!r}"
            ) from None

    def write(self, name: str, value) -> None:
        raise RuntimeError(
            f"refusing to write variable {name!r}: the serving plane is "
            "read-only; ship new weights through reload()"
        )


def weights_from_state(graph: Graph,
                       state: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Restrict a runner's ``logical_state()`` to *graph*'s variables.

    Training state carries optimizer slots no forward plan reads; they
    are dropped here so a server can be fed a checkpoint verbatim.
    """
    return {name: state[name] for name in graph.variables if name in state}


def seeded_weights(graph: Graph, seed: int = 0) -> Dict[str, np.ndarray]:
    """Freshly initialized weights, bit-identical to a
    ``Session(graph, seed)`` store -- the cold-start table for a server
    with no checkpoint yet."""
    return {name: var.initial_value(variable_rng(name, seed))
            for name, var in graph.variables.items()}


Fetch = Union[Tensor, Operation, str]


class InferenceEngine:
    """Compile-once forward replay over frozen weights.

    Fetches resolve once at construction; each request batch size gets
    its own plan, compiled once and kept by the session (key = fetch
    names + batch size), so every batch size replays generated
    straight-line code with a warm arena and odd-size batches never
    perturb the native one.  A server with ``max_batch`` B holds at most
    B + 1 plans: one per size in 1..B, plus the native-size plan
    compiled at construction when the native batch exceeds B (a plan's
    arena is only allocated at its second run, so an idle one holds no
    buffers).
    """

    def __init__(self, graph: Graph, fetches: Sequence[Fetch],
                 weights: Union[FrozenWeights, Mapping[str, np.ndarray]]):
        self.graph = graph
        self.weights = (weights if isinstance(weights, FrozenWeights)
                        else FrozenWeights(weights))
        self._session = Session(graph, store=_FrozenStore(self.weights))
        fetch_list = (list(fetches) if isinstance(fetches, (list, tuple))
                      else [fetches])
        self.fetches = [self._session._resolve(f) for f in fetch_list]
        self.fetch_names: Tuple[str, ...] = tuple(
            op.name for op in self.fetches)

        self.native_batch: Optional[int] = None
        plan = self._compile()
        self._read_names = tuple(sorted({op.attrs["variable"]
                                         for op, *_ in plan.schedule
                                         if op.op_type == "read_var"}))
        self._check_weights(self.weights.table, self._read_names)
        # The graph's built-in batch dimension (placeholder leading dim):
        # the batch size whose replay is the zero-allocation fast path.
        # Other batch sizes compile their own plan through ``plan_for`` with
        # batch-agnostic reshape kernels; their replay stays correct (the
        # arena's ``out=`` kernels are shape-guarded and fall back to
        # allocating forms) without perturbing the native plan.
        self.native_batch = 1
        for name in plan.placeholder_names:
            shape = self.graph.get_op(name).output.spec.shape
            if shape:
                self.native_batch = int(shape[0])
                break
        # Seed the cache under the native batch size so the first request
        # at that size starts from the already-verified plan.
        self._session.cache_plan(
            self.fetch_names + ("@serve", self.native_batch),
            lambda: plan)

    # -- compilation -----------------------------------------------------
    def plan_for(self, batch_size: int) -> CompiledPlan:
        """The compiled forward plan for one request batch size."""
        size = int(batch_size)
        key = self.fetch_names + ("@serve", size)
        return self._session.cache_plan(key, lambda: self._compile(size))

    def _specialize(self, op: Operation, batch_size: Optional[int] = None):
        if op.op_type == "read_var":
            name = op.attrs["variable"]
            weights = self.weights

            def read(_op, _inputs, _rt, _name=name, _weights=weights):
                return _weights.table[_name]

            return read
        if op.op_type == "reshape" and self.native_batch is not None:
            # Static reshape attrs bake the graph's native batch into the
            # leading dim; serving a different batch size through them
            # would fail.  When one side leads with the native batch and
            # the other with a multiple of it -- batch-leading, or a
            # batch-major merge/split such as (B, T, D) <-> (B*T, D) --
            # bind a -1 leading dim instead: a C-order merge or split
            # then never straddles examples, so every batch size serves
            # the same rows.
            shape = tuple(op.attrs["shape"])
            in_shape = tuple(op.inputs[0].spec.shape)
            nb = self.native_batch
            if (shape and in_shape
                    and nb in (shape[0], in_shape[0])
                    and shape[0] % nb == 0 and in_shape[0] % nb == 0):
                free_shape = (-1,) + shape[1:]

                def reshape_any_batch(_op, inputs, _rt, _shape=free_shape):
                    return np.reshape(inputs[0], _shape)

                return reshape_any_batch
        if (op.op_type == "constant" and batch_size is not None
                and self.native_batch is not None
                and batch_size != self.native_batch):
            # Batch-shaped constants (e.g. an RNN's initial state) bake
            # the native batch into their leading dim.  When every row is
            # identical -- the only case where another batch size has a
            # well-defined meaning -- prebind the value broadcast to the
            # request batch; otherwise leave the static value to fail
            # loudly rather than serve silently wrong rows.
            value = np.asarray(op.attrs["value"])
            if (value.ndim >= 1 and value.shape[0] == self.native_batch
                    and bool(np.all(value == value[:1]))):
                resized = np.ascontiguousarray(np.broadcast_to(
                    value[0], (batch_size,) + value.shape[1:]))
                resized.setflags(write=False)

                def batch_constant(_op, _inputs, _rt, _value=resized):
                    return _value

                return batch_constant
        return None

    def _compile(self, batch_size: Optional[int] = None) -> CompiledPlan:
        def specialize(op):
            return self._specialize(op, batch_size)

        plan = CompiledPlan(self.graph, self.fetches,
                            specialize_fn=specialize)
        offending = sorted({
            op.op_type for op, *_ in plan.schedule
            if op.op_type in _TRAINING_ONLY or op.attrs.get("is_update")
        })
        if offending:
            raise InferencePlanError(
                f"fetch set {self.fetch_names} is not forward-only: its "
                f"schedule executes training ops {offending}; serve "
                "model outputs, not train ops"
            )
        if os.environ.get("REPRO_VERIFY_PLANS"):
            from repro.analysis.alias import audit_buffer_plan

            findings, _stats = audit_buffer_plan(plan)
            if findings:
                raise InferencePlanError(
                    "inference plan failed the alias audit: "
                    + "; ".join(f.message for f in findings)
                )
        return plan

    def _check_weights(self, table: Mapping[str, np.ndarray],
                       names: Sequence[str]) -> None:
        problems = []
        for name in names:
            var = self.graph.variables[name]
            value = table.get(name)
            if value is None:
                problems.append(f"{name!r} is missing")
            elif tuple(np.shape(value)) != tuple(var.shape):
                problems.append(
                    f"{name!r} has shape {tuple(np.shape(value))}, the "
                    f"variable expects {tuple(var.shape)}")
        if problems:
            raise InferencePlanError(
                "serving weights do not match the graph: "
                + "; ".join(problems))

    # -- execution -------------------------------------------------------
    def run(self, feed_dict: Dict, batch_size: Optional[int] = None) -> List:
        """Replay the forward plan; returns one value per fetch."""
        if batch_size is None:
            first = next(iter(feed_dict.values()))
            shape = np.shape(first)
            batch_size = int(shape[0]) if shape else 1
        plan = self.plan_for(batch_size)
        session = self._session
        session._begin_run()
        return plan.execute(session, feed_dict)

    # -- hot reload ------------------------------------------------------
    def reload(self, weights: Mapping[str, np.ndarray]) -> int:
        """Swap in a new weight generation; returns its version.

        *weights* must cover every variable the plan reads; extra
        entries are ignored.  No recompilation happens -- the compiled
        plans read through the swapped reference.
        """
        if isinstance(weights, FrozenWeights):
            weights = weights.table
        self._check_weights(weights, self._read_names)
        self.weights.swap({name: weights[name]
                           for name in self._read_names})
        return self.weights.version
