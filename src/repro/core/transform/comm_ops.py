"""Distributed op kernels inserted by the graph transformation.

These ops execute *for real* in the functional plane:
``fused_allreduce`` sums every replica's bucket of dense gradients in
ring order, ``global_agg`` implements the server-side accumulator,
``shard_lookup``/``stitch`` implement the partitioned embedding read
(TF's dynamic_partition / per-shard gather / dynamic_stitch pattern the
paper's theta2-cost comes from).

Collective kernels appear once per replica in the graph (so placement is
explicit per GPU) but reduce once per run per process: the first replica's
op to execute computes the one result every replica holds -- the ring
leaves all workers with the same bits -- and parks it in the session's run
cache; the other replicas' ops return that same (read-only) value.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.comm.allgatherv import ring_allgatherv
from repro.comm.allreduce import ring_allreduce
from repro.graph.executor import register_direct
from repro.graph.gradients import register_custom_grad
from repro.graph.ops import register_forward
from repro.tensor.sparse import IndexedSlices, concat_slices, to_dense


#: Every collective op type, defined once next to the kernels below.  They
#: exchange data across replicas through the run cache and record their own
#: ring transfers, so static edge accounting skips their edges (runner) and
#: multiproc workers mute every replica's copy but the first (backend).
COLLECTIVE_OP_TYPES = frozenset({"fused_allreduce", "allgatherv"})


def _replica_machines(op, runtime) -> List[int]:
    """Machine of each collective participant, from the recorded devices."""
    return [int(m) for m in op.attrs["machines"]]


@register_forward("fused_allreduce")
def _allreduce_fwd(op, inputs, runtime):
    """Ring AllReduce across replicas of one fused bucket.

    The inputs are each replica's concatenated bucket gradients and the
    ``segments`` attr names the pieces; the ring chunks every segment on
    its own, so one pass sends one fused message per step -- the
    Transcript records one transfer per (step, worker) for the whole
    bucket -- while performing exactly the additions of per-variable
    rings.

    Generated code names a plan-owned buffer for the op in
    ``run_cache["out"]`` (the buffer plan's fold slot, see
    ``repro.graph.bufferplan.FOLD_OUT``): the fold lands there instead
    of in a fresh array.  The kernel reads its inputs only during the
    call.
    """
    cache = runtime.run_cache.setdefault("collectives", {})
    key = (op.op_type, op.attrs["group"])
    if key not in cache:
        cache[key] = ring_allreduce(
            [np.asarray(v) for v in inputs],
            machines=_replica_machines(op, runtime),
            transcript=getattr(runtime, "transcript", None),
            tag=f"allreduce/{op.attrs['group']}",
            segments=[size for _name, size in op.attrs["segments"]],
            average=op.attrs.get("average", False),
            out=runtime.run_cache.get("out", {}).get(op.name),
        )
    return cache[key][op.attrs["replica"]]


@register_forward("allgatherv")
def _allgatherv_fwd(op, inputs, runtime):
    """Ring AllGatherv of IndexedSlices; returns replica r's copy."""
    cache = runtime.run_cache.setdefault("collectives", {})
    key = ("allgatherv", op.attrs["group"])
    if key not in cache:
        transcript = getattr(runtime, "transcript", None)
        gathered = ring_allgatherv(
            list(inputs),
            machines=_replica_machines(op, runtime),
            transcript=transcript,
            tag=f"allgatherv/{op.attrs['group']}",
        )
        if op.attrs.get("average", False):
            gathered = ([gathered[0].scale(1.0 / len(inputs))]
                        * len(inputs))
        cache[key] = gathered
    return cache[key][op.attrs["replica"]]


# ----------------------------------------------------------------------
# Pure kernels: one body each, which the loop, generated plans and the
# reference interpreter all call, with the static attrs (bounds, offsets,
# row shapes) converted once when the op is bound.  Collectives above
# stay runtime kernels -- they share state through the run cache.
# ----------------------------------------------------------------------
@register_direct("bucket_slice")
def _bucket_slice_direct(op):
    """Unpack one variable's reduced gradient from a fused bucket."""
    lo, hi = op.attrs["lo"], op.attrs["hi"]
    shape = tuple(op.attrs["shape"])

    def bucket_slice_direct(buf):
        return buf[lo:hi].reshape(shape)

    return bucket_slice_direct


@register_direct("densify")
def _densify_direct(op):
    """IndexedSlices -> dense array (the sparse-as-dense AR path)."""
    return to_dense


@register_direct("local_agg")
def _local_agg_direct(op):
    """Per-machine aggregation before pushing to servers (paper sec. 4.3).

    Sparse gradients are concatenated and duplicate indices combined --
    this dedup is exactly the transfer saving local aggregation buys.
    Dense gradients are summed.
    """

    def local_agg_direct(*values):
        if isinstance(values[0], IndexedSlices):
            return concat_slices(list(values)).combine()
        total = np.array(values[0], copy=True)
        for value in values[1:]:
            total = total + value
        return total

    return local_agg_direct


@register_direct("global_agg")
def _global_agg_direct(op):
    """Server-side accumulator: aggregates per-machine (or per-worker)
    contributions for one variable/shard."""
    average = bool(op.attrs.get("average", False))
    num_workers = op.attrs.get("num_workers")

    def global_agg_direct(*values):
        if isinstance(values[0], IndexedSlices):
            combined = concat_slices(list(values)).combine()
            if average:
                combined = combined.scale(1.0 / num_workers)
            return combined
        total = np.array(values[0], copy=True)
        for value in values[1:]:
            total = total + value
        if average:
            total = total / np.float32(num_workers)
        return total

    return global_agg_direct


@register_direct("shard_lookup")
def _shard_lookup_direct(op):
    """Server-side gather of the rows of one shard a batch needs.

    Returns the shard's rows for the ids in ``[lo, hi)``, in order of
    appearance; only these rows travel to the worker.
    """
    lo, hi = op.attrs["lo"], op.attrs["hi"]

    def shard_lookup_direct(shard, ids):
        flat = np.asarray(ids, dtype=np.int64).reshape(-1)
        mask = (flat >= lo) & (flat < hi)
        return np.asarray(shard)[flat[mask] - lo]

    return shard_lookup_direct


@register_direct("stitch")
def _stitch_direct(op):
    """Worker-side dynamic_stitch: reassemble per-shard rows in id order."""
    offsets = np.asarray(op.attrs["offsets"])
    row_shape = tuple(op.attrs["row_shape"])

    def stitch_direct(ids, *rows_per_shard):
        ids = np.asarray(ids, dtype=np.int64)
        flat = ids.reshape(-1)
        owner = np.searchsorted(offsets, flat, side="right") - 1
        out = np.empty((flat.size,) + row_shape, dtype=np.float32)
        for p, rows in enumerate(rows_per_shard):
            positions = np.nonzero(owner == p)[0]
            if positions.size:
                out[positions] = rows
        return out.reshape(tuple(ids.shape) + row_shape)

    return stitch_direct


# ----------------------------------------------------------------------
# Custom symbolic gradients.  The generic vjp node would take the full
# shard tensor as an input, creating a bogus server->worker transfer of
# the entire variable; these builders produce gradient ops that only read
# the ids and the upstream gradient.
# ----------------------------------------------------------------------
@register_direct("shard_lookup_grad")
def _shard_lookup_grad_direct(op):
    """Gradient of shard_lookup w.r.t. its shard: shard-local slices."""
    lo, hi = op.attrs["lo"], op.attrs["hi"]
    shape = (hi - lo,) + tuple(op.attrs["row_shape"])

    def shard_lookup_grad_direct(ids, upstream):
        flat = np.asarray(ids, dtype=np.int64).reshape(-1)
        mask = (flat >= lo) & (flat < hi)
        # Indices are in [0, hi-lo) by construction of the mask.
        return IndexedSlices._wrap(np.asarray(upstream), flat[mask] - lo,
                                   shape)

    return shard_lookup_grad_direct


@register_direct("stitch_grad")
def _stitch_grad_direct(op):
    """Gradient of stitch w.r.t. one shard's rows input."""
    offsets = np.asarray(op.attrs["offsets"])
    shard = op.attrs["shard"]
    row_shape = tuple(op.attrs["row_shape"])

    def stitch_grad_direct(ids, upstream):
        flat = np.asarray(ids, dtype=np.int64).reshape(-1)
        owner = np.searchsorted(offsets, flat, side="right") - 1
        positions = np.nonzero(owner == shard)[0]
        grad = np.asarray(upstream).reshape((flat.size,) + row_shape)
        return grad[positions]

    return stitch_grad_direct


@register_custom_grad("shard_lookup")
def _shard_lookup_grad_builder(graph, op, acc):
    """Symbolic gradient for shard_lookup: depends on ids + upstream only.

    The resulting op lives on the worker (ambient device scope) and its
    IndexedSlices output is what flows into local/global aggregation.
    """
    ids = op.inputs[1]
    grad_op = graph.add_op(
        "shard_lookup_grad",
        [ids, acc],
        op.inputs[0].spec,
        name=f"grad/{op.name}/shard",
        attrs={
            "lo": op.attrs["lo"],
            "hi": op.attrs["hi"],
            "row_shape": op.attrs["row_shape"],
            "is_sparse": True,
        },
    )
    return [(0, grad_op.output, True)]


@register_custom_grad("stitch")
def _stitch_grad_builder(graph, op, acc):
    """Symbolic gradient for stitch: one dense rows-gradient per shard."""
    ids = op.inputs[0]
    results = []
    for p, rows_input in enumerate(op.inputs[1:]):
        grad_op = graph.add_op(
            "stitch_grad",
            [ids, acc],
            rows_input.spec,
            name=f"grad/{op.name}/shard{p}",
            attrs={
                "shard": p,
                "offsets": op.attrs["offsets"],
                "row_shape": op.attrs["row_shape"],
            },
        )
        results.append((p + 1, grad_op.output, False))
    return results
