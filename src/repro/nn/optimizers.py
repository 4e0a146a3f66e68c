"""Optimizers that build update ops into the graph.

The contract with the distributed transformation (paper section 4.3,
"Parallax assigns update operations in the same server with their
variables"): update ops are *rebuildable*.  ``Optimizer.update`` builds
single-GPU update ops; the transforms discard those and call
``build_update(var, grad_tensor, device=...)`` again to place fresh update
ops wherever the architecture dictates (on servers for PS variables, on
every worker replica for AR variables).

Sparse gradients (IndexedSlices) get sparse update rules: plain row
subtraction for SGD and row-wise ("lazy") slot updates for Momentum/Adam,
matching TensorFlow's sparse-apply semantics.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph import ops as ops_mod
from repro.graph.gradients import grad_tensor_is_sparse
from repro.graph.graph import Graph, Operation, Tensor
from repro.graph.ops import register_forward
from repro.graph.variables import Variable, zeros_initializer
from repro.tensor.dense import TensorSpec
from repro.tensor.sparse import IndexedSlices


class Optimizer:
    """Base class; subclasses define per-variable update op construction.

    ``clip_norm`` (set by subclass constructors) enables per-variable
    gradient-norm clipping: each variable's gradient is rescaled to at
    most that L2 norm before the update rule applies.  The attribute
    rides on the update op, so the distributed transformation preserves
    clipping when it rebuilds updates on servers/replicas.
    """

    clip_norm: Optional[float] = None

    def update(self, grads_and_vars: Sequence[Tuple[Tensor, Variable]],
               name: str = "train_op") -> Tensor:
        """Build update ops for every pair and group them into a train op."""
        if not grads_and_vars:
            raise ValueError("no gradients to apply")
        graph = grads_and_vars[0][0].graph
        updates = [
            self.build_update(var, grad) for grad, var in grads_and_vars
        ]
        graph.collections.setdefault("optimizer", []).append(self)
        train_op = ops_mod.group(updates, name=name, graph=graph)
        graph.add_to_collection("train_ops", train_op.op)
        return train_op

    def build_update(self, var: Variable, grad: Tensor,
                     device=None) -> Operation:
        graph = grad.graph
        sparse = grad_tensor_is_sparse(grad)
        op = self._build(graph, var, grad, sparse, device)
        op.attrs["variable"] = var.name
        op.attrs["is_update"] = True
        op.attrs["sparse_grad"] = sparse
        if self.clip_norm is not None:
            op.attrs["clip_norm"] = float(self.clip_norm)
        return op

    def _build(self, graph: Graph, var: Variable, grad: Tensor,
               sparse: bool, device) -> Operation:
        raise NotImplementedError

    def _slot(self, graph: Graph, var: Variable, slot: str) -> Variable:
        """Create (or reuse) a non-trainable slot variable like momentum."""
        name = f"{var.name}/{slot}"
        if name in graph.variables:
            return graph.variables[name]  # type: ignore[return-value]
        return Variable(name, var.shape, initializer=zeros_initializer,
                        trainable=False, graph=graph)


class GradientDescentOptimizer(Optimizer):
    """Plain SGD: ``var -= lr * grad`` (sparse: only the touched rows)."""

    def __init__(self, learning_rate: float,
                 clip_norm: Optional[float] = None):
        self.learning_rate = float(learning_rate)
        self.clip_norm = clip_norm

    def _build(self, graph, var, grad, sparse, device):
        op_type = "sgd_update_sparse" if sparse else "sgd_update"
        return graph.add_op(
            op_type, [grad], TensorSpec(()),
            name=f"update/{var.name}",
            attrs={"lr": self.learning_rate},
            device=device,
        )


class MomentumOptimizer(Optimizer):
    """SGD with momentum; sparse applies row-wise to the velocity slot."""

    def __init__(self, learning_rate: float, momentum: float = 0.9,
                 clip_norm: Optional[float] = None):
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.clip_norm = clip_norm

    def _build(self, graph, var, grad, sparse, device):
        slot = self._slot(graph, var, "velocity")
        op_type = "momentum_update_sparse" if sparse else "momentum_update"
        return graph.add_op(
            op_type, [grad], TensorSpec(()),
            name=f"update/{var.name}",
            attrs={"lr": self.learning_rate, "momentum": self.momentum,
                   "slot": slot.name},
            device=device,
        )


class AdamOptimizer(Optimizer):
    """Adam; the sparse variant is TF's lazy Adam (row-wise slot updates)."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8,
                 clip_norm: Optional[float] = None):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.clip_norm = clip_norm

    def _build(self, graph, var, grad, sparse, device):
        m = self._slot(graph, var, "adam_m")
        v = self._slot(graph, var, "adam_v")
        step_name = f"{var.name}/adam_step"
        if step_name not in graph.variables:
            Variable(step_name, (1,), initializer=zeros_initializer,
                     trainable=False, graph=graph)
        op_type = "adam_update_sparse" if sparse else "adam_update"
        return graph.add_op(
            op_type, [grad], TensorSpec(()),
            name=f"update/{var.name}",
            attrs={"lr": self.learning_rate, "beta1": self.beta1,
                   "beta2": self.beta2, "eps": self.epsilon,
                   "m": m.name, "v": v.name, "step": step_name},
            device=device,
        )


# ======================================================================
# Update kernels.  Each reads/writes variables through the runtime, which
# resolves the correct store from the device placement of the op it is
# running (``runtime._current_op``).
# ======================================================================
def _maybe_clip(op, value):
    """Rescale the gradient to at most attrs["clip_norm"] L2 norm."""
    clip = op.attrs.get("clip_norm")
    if clip is None:
        return value
    if isinstance(value, IndexedSlices):
        norm = float(np.sqrt((value.values.astype(np.float64) ** 2).sum()))
        if norm > clip:
            return value.scale(clip / norm)
        return value
    arr = np.asarray(value)
    norm = float(np.sqrt((arr.astype(np.float64) ** 2).sum()))
    if norm > clip:
        return arr * (clip / norm)
    return arr


def _as_combined_slices(op, value) -> IndexedSlices:
    value = _maybe_clip(op, value)
    if not isinstance(value, IndexedSlices):
        raise TypeError(f"sparse update expects IndexedSlices, got {type(value)}")
    return value.combine()


def _writable_like(state, grad) -> bool:
    """Whether *state* can take an update from *grad* in place with the
    bits of the allocating write: both plain arrays of one dtype and
    shape, and *state* writable."""
    return (type(state) is np.ndarray and type(grad) is np.ndarray
            and state.flags.writeable and state.dtype == grad.dtype
            and state.shape == grad.shape)


def _in_place(op, runtime) -> bool:
    """Whether this run may write *op*'s variables in place: generated
    code lists the updates its buffer plan proved no reader of those
    variables follows in ``run_cache["in_place"]``
    (``repro.graph.bufferplan.IN_PLACE_UPDATES``).  The same ufuncs then
    write the variables' own arrays, so the bits do not change."""
    return op.name in runtime.run_cache.get("in_place", ())


@register_forward("sgd_update")
def _sgd_update(op, inputs, runtime):
    name, lr = op.attrs["variable"], op.attrs["lr"]
    grad = _maybe_clip(op, inputs[0])
    current = runtime.read_variable(name)
    if _in_place(op, runtime) and _writable_like(current, grad):
        np.subtract(current, lr * grad, out=current)
    else:
        runtime.write_variable(name, current - lr * grad)


@register_forward("sgd_update_sparse")
def _sgd_update_sparse(op, inputs, runtime):
    name = op.attrs["variable"]
    delta = _as_combined_slices(op, inputs[0])
    current = runtime.read_variable(name)
    np.subtract.at(current, delta.indices, op.attrs["lr"] * delta.values)
    runtime.write_variable(name, current)


@register_forward("momentum_update")
def _momentum_update(op, inputs, runtime):
    name, slot = op.attrs["variable"], op.attrs["slot"]
    grad = _maybe_clip(op, inputs[0])
    vel = runtime.read_variable(slot)
    current = runtime.read_variable(name)
    if (_in_place(op, runtime) and _writable_like(vel, grad)
            and _writable_like(current, grad)):
        np.multiply(vel, op.attrs["momentum"], out=vel)
        np.add(vel, grad, out=vel)
        np.subtract(current, op.attrs["lr"] * vel, out=current)
        return None
    vel = op.attrs["momentum"] * vel + grad
    runtime.write_variable(slot, vel)
    runtime.write_variable(name, current - op.attrs["lr"] * vel)
    return None


@register_forward("momentum_update_sparse")
def _momentum_update_sparse(op, inputs, runtime):
    name, slot = op.attrs["variable"], op.attrs["slot"]
    delta = _as_combined_slices(op, inputs[0])
    vel = runtime.read_variable(slot)
    rows = delta.indices
    vel[rows] = op.attrs["momentum"] * vel[rows] + delta.values
    runtime.write_variable(slot, vel)
    current = runtime.read_variable(name)
    current[rows] = current[rows] - op.attrs["lr"] * vel[rows]
    runtime.write_variable(name, current)
    return None


@register_forward("adam_update")
def _adam_update(op, inputs, runtime):
    name = op.attrs["variable"]
    grad = np.asarray(_maybe_clip(op, inputs[0]))
    lr, b1, b2, eps = (op.attrs[k] for k in ("lr", "beta1", "beta2", "eps"))
    step = runtime.read_variable(op.attrs["step"]) + 1.0
    runtime.write_variable(op.attrs["step"], step)
    t = float(step[0])
    m = runtime.read_variable(op.attrs["m"])
    v = runtime.read_variable(op.attrs["v"])
    current = runtime.read_variable(name)
    in_place = _in_place(op, runtime) and all(
        _writable_like(state, grad) for state in (m, v, current))
    if in_place:
        m_term = (1 - b1) * grad
        np.add(np.multiply(m, b1, out=m), m_term, out=m)
        v_term = (1 - b2) * grad * grad
        np.add(np.multiply(v, b2, out=v), v_term, out=v)
    else:
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        runtime.write_variable(op.attrs["m"], m)
        runtime.write_variable(op.attrs["v"], v)
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    delta = lr * m_hat / (np.sqrt(v_hat) + eps)
    if in_place:
        np.subtract(current, delta, out=current)
    else:
        runtime.write_variable(name, current - delta)
    return None


@register_forward("adam_update_sparse")
def _adam_update_sparse(op, inputs, runtime):
    name = op.attrs["variable"]
    delta = _as_combined_slices(op, inputs[0])
    lr, b1, b2, eps = (op.attrs[k] for k in ("lr", "beta1", "beta2", "eps"))
    step = runtime.read_variable(op.attrs["step"]) + 1.0
    runtime.write_variable(op.attrs["step"], step)
    t = float(step[0])
    rows = delta.indices
    m = runtime.read_variable(op.attrs["m"])
    v = runtime.read_variable(op.attrs["v"])
    m[rows] = b1 * m[rows] + (1 - b1) * delta.values
    v[rows] = b2 * v[rows] + (1 - b2) * delta.values * delta.values
    runtime.write_variable(op.attrs["m"], m)
    runtime.write_variable(op.attrs["v"], v)
    m_hat = m[rows] / (1 - b1 ** t)
    v_hat = v[rows] / (1 - b2 ** t)
    current = runtime.read_variable(name)
    current[rows] = current[rows] - lr * m_hat / (np.sqrt(v_hat) + eps)
    runtime.write_variable(name, current)
    return None
