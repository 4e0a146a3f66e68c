"""Reverse-mode autodiff over the static graph.

``gradients(loss, variables)`` adds *gradient ops* to the graph (rather
than computing values eagerly), because Parallax's transformation needs
gradients to exist as graph nodes it can splice aggregation between.  Two
synthetic op types implement this:

* ``vjp`` -- computes the gradient of one forward op w.r.t. one of its
  inputs, by invoking the registered VJP rule at runtime;
* ``grad_add`` -- accumulates gradients from multiple consumers.  Dense
  gradients are a left fold in input order into one fresh copy of the
  first input (``np.add(..., out=)`` while dtype and shape match); no
  input is ever written.  IndexedSlices are concatenated (TF semantics
  -- duplicate indices are resolved later, by whoever applies the update).

The tiling rule: a ``slice`` consumer's contribution is held (slice op +
gradient of its output) until its producer is reached.  When *all* of a
producer's contributions are slices of one axis whose ``[lo, hi)`` ranges
cover it exactly -- disjoint, gap-free, complete, as the LSTM kernel's
input and recurrent rows are -- its gradient is one ``concat`` of the held
gradients.  Otherwise each held slice gets its ordinary zero-padding
``vjp`` node, as if never held.  The ``concat`` equals the padded sum
except that it keeps a ``-0.0`` the sum would turn into ``+0.0``.

After running, ``graph.gradient_info`` maps each variable name to its
gradient tensor name -- the MetaGraphDef extension from paper section 5.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.executor import register_direct
from repro.graph.graph import Graph, Operation, Tensor
from repro.graph import ops as ops_mod
from repro.graph.ops import register_forward
from repro.graph.variables import Variable
from repro.tensor.dense import TensorSpec
from repro.tensor.sparse import IndexedSlices, concat_slices

# Per-op-type mask of which inputs receive gradients.  Ops not listed have
# every input differentiable.  Ids/labels inputs never do.
NON_DIFFERENTIABLE_INPUTS: Dict[str, Tuple[int, ...]] = {
    "gather": (1,),
    "softmax_xent": (1, 2),  # labels; the shared softmax (ops.softmax_xent)
    "mse": (1,),
    "lstm_seq": (2, 3),  # the initial state (ops.lstm_seq)
    "part_gather": (-1,),  # -1 means "last input" (the ids)
}

# Op types whose VJP emits an IndexedSlices for the given input index.
SPARSE_GRAD_INPUTS: Dict[str, str] = {
    "gather": "first",       # input 0 (params) gets a sparse gradient
    "part_gather": "shards",  # every shard input gets a sparse gradient
}

# Custom symbolic-gradient builders.  The generic path creates a ``vjp``
# node wired to every forward input; ops registered here build their own
# gradient nodes instead (e.g. the distributed ``shard_lookup``, whose
# gradient must not take the full shard tensor as an input).  A builder
# receives ``(graph, forward_op, upstream_grad_tensor)`` and returns a
# list of ``(input_index, grad_tensor, is_sparse)`` triples.
CUSTOM_GRAD_BUILDERS: Dict[str, object] = {}


def register_custom_grad(op_type: str):
    def deco(fn):
        if op_type in CUSTOM_GRAD_BUILDERS:
            raise ValueError(f"custom grad for {op_type!r} already registered")
        CUSTOM_GRAD_BUILDERS[op_type] = fn
        return fn

    return deco


def _is_differentiable(op: Operation, index: int) -> bool:
    mask = NON_DIFFERENTIABLE_INPUTS.get(op.op_type)
    if mask is None:
        return True
    resolved = tuple(
        i if i >= 0 else len(op.inputs) + i for i in mask
    )
    return index not in resolved


def _grad_is_sparse(op: Operation, index: int) -> bool:
    kind = SPARSE_GRAD_INPUTS.get(op.op_type)
    if kind is None:
        return False
    if kind == "first":
        return index == 0
    if kind == "shards":
        return index < len(op.inputs) - 1
    raise AssertionError(kind)


@register_forward("vjp")
def _vjp_fwd(op, inputs, runtime):
    graph = op.graph
    fwd_op = graph.get_op(op.attrs["forward_op"])
    n = len(fwd_op.inputs)
    fwd_inputs, fwd_output, upstream = inputs[:n], inputs[n], inputs[n + 1]
    # All VJP nodes of one forward op share the full gradient computation;
    # cache it per (forward op, upstream grad node) within the run.
    cache = runtime.run_cache.setdefault("vjp", {})
    key = (op.attrs["forward_op"], op.attrs["grad_source"])
    if key not in cache:
        rule = ops_mod.VJP.get(fwd_op.op_type)
        if rule is None:
            raise NotImplementedError(
                f"no VJP registered for op type {fwd_op.op_type!r}"
            )
        cache[key] = rule(fwd_op, fwd_inputs, fwd_output, upstream)
    return cache[key][op.attrs["input_index"]]


def _sum_gradients(name: str, values):
    """The one ``grad_add`` body: left fold of *values* in input order."""
    if any(isinstance(v, IndexedSlices) for v in values):
        if not all(isinstance(v, IndexedSlices) for v in values):
            raise TypeError(
                f"grad_add {name!r} mixes dense and sparse gradients"
            )
        return concat_slices(list(values))
    total = np.array(values[0])  # the only array the fold ever writes
    for value in values[1:]:
        if (isinstance(value, np.ndarray) and value.dtype == total.dtype
                and value.shape == total.shape):
            np.add(total, value, out=total)
        else:
            total = total + value
    return total


@register_direct("grad_add")
def _grad_add_direct(op):
    name = op.name

    def grad_add_direct(*values):
        return _sum_gradients(name, values)

    return grad_add_direct


@register_direct("ones_like_scalar")
def _ones_direct(op):
    one = np.float32(1.0)

    def ones_direct():
        return one

    return ones_direct


def _add_vjp(graph: Graph, op: Operation, index: int, upstream: Tensor,
             sparse: bool) -> Tensor:
    """The ``vjp`` node for input *index* of forward *op*."""
    return graph.add_op(
        "vjp",
        list(op.inputs) + [op.output, upstream],
        op.inputs[index].spec,
        name=f"grad/{op.name}/in{index}",
        attrs={
            "forward_op": op.name,
            "input_index": index,
            "grad_source": upstream.name,
            "is_sparse": sparse,
        },
    ).output


def _concat_tiles(graph: Graph, op: Operation,
                  contributions) -> Optional[Tensor]:
    """One ``concat`` of the held upstream gradients when *contributions*
    are slices tiling one axis of *op* exactly (module docstring)."""
    if any(held is None for _, _, held in contributions):
        return None
    tiles = sorted(contributions,
                   key=lambda c: (c[2].attrs["lo"], c[2].attrs["hi"]))
    axis, edge = tiles[0][2].attrs["axis"], 0
    for _, _, held in tiles:
        if held.attrs["axis"] != axis or held.attrs["lo"] != edge:
            return None
        edge = held.attrs["hi"]
    if edge != op.output.spec.shape[axis]:
        return None
    return ops_mod.concat([t for t, _, _ in tiles], axis,
                          name=f"grad_concat/{op.name}", graph=graph)


def gradients(
    loss: Tensor,
    variables: Optional[Sequence[Variable]] = None,
) -> List[Tuple[Tensor, Variable]]:
    """Differentiate *loss* w.r.t. *variables* (default: all trainable).

    Returns TF-style ``grads_and_vars`` pairs and records the mapping in
    ``graph.gradient_info``.  Gradient tensors carry an ``is_sparse`` attr
    on their producing op when they are IndexedSlices-valued.
    """
    graph = loss.graph
    if loss.spec.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.spec.shape}")
    if variables is None:
        variables = [v for v in graph.variables.values() if v.trainable]

    # The forward order is shared with the transform and any compiled
    # plan over the same fetch (cache invalidates once we add grad ops).
    forward_order = graph.cached_topo_sort([loss.op])
    reachable = set(forward_order)

    seed = graph.add_op(
        "ones_like_scalar", [], TensorSpec(()), name=graph.unique_name("grad_seed")
    )
    # op -> contributions to its output gradient: (grad tensor, is_sparse,
    # None), or for a held slice (gradient of the slice's output, False,
    # the slice op) -- see the tiling rule in the module docstring.
    pending: Dict[Operation,
                  List[Tuple[Tensor, bool, Optional[Operation]]]] = {
        loss.op: [(seed.output, False, None)]
    }
    # op -> final accumulated output-gradient tensor
    out_grad: Dict[Operation, Tensor] = {}

    for op in reversed(forward_order):
        contributions = pending.get(op)
        if not contributions:
            continue
        acc = _concat_tiles(graph, op, contributions)
        if acc is None:
            grads = [t if held is None else _add_vjp(graph, held, 0, t, False)
                     for t, _, held in contributions]
            acc = grads[0] if len(grads) == 1 else graph.add_op(
                "grad_add", grads, op.output.spec, name=f"grad_add/{op.name}",
                attrs={"is_sparse": any(f for _, f, _ in contributions)},
            ).output
        out_grad[op] = acc
        if op.op_type in ("placeholder", "constant", "read_var",
                          "ones_like_scalar"):
            continue
        builder = CUSTOM_GRAD_BUILDERS.get(op.op_type)
        if builder is not None:
            for index, grad_tensor, input_sparse in builder(graph, op, acc):
                inp = op.inputs[index]
                if inp.op not in reachable:
                    continue
                pending.setdefault(inp.op, []).append(
                    (grad_tensor, input_sparse, None)
                )
            continue
        if op.op_type not in ops_mod.VJP:
            raise NotImplementedError(
                f"cannot differentiate through op type {op.op_type!r}"
            )
        for index, inp in enumerate(op.inputs):
            if not _is_differentiable(op, index):
                continue
            if inp.op not in reachable:
                continue
            if op.op_type == "slice":
                pending.setdefault(inp.op, []).append((acc, False, op))
                continue
            input_sparse = _grad_is_sparse(op, index)
            pending.setdefault(inp.op, []).append(
                (_add_vjp(graph, op, index, acc, input_sparse),
                 input_sparse, None)
            )

    grads_and_vars: List[Tuple[Tensor, Variable]] = []
    for var in variables:
        grad_tensor = out_grad.get(var.read_op)
        if grad_tensor is None:
            continue  # variable does not influence the loss
        graph.gradient_info[var.name] = grad_tensor.name
        grads_and_vars.append((grad_tensor, var))
    return grads_and_vars


def grad_tensor_is_sparse(grad: Tensor) -> bool:
    """Whether a gradient tensor is IndexedSlices-valued.

    This is Parallax's sparsity test (paper section 5): the gradient type
    assigned by autodiff, *not* runtime inspection.
    """
    return bool(grad.op.attrs.get("is_sparse", False))
