"""The graph transformation: single-GPU graph -> distributed graph.

Follows the paper's section 4.3 recipe:

1. **Identify** main computation (ancestors of the loss), variables, and
   their gradients (via the MetaGraphDef-style ``gradient_info`` map).
2. **Place** PS variables on servers (greedy balanced placement, one
   server per machine) and create them in the new graph on server devices;
   AllReduce variables get one replica per GPU.
3. **Replicate** the main computation once per GPU, rewriting reads of PS
   sparse variables into server-side ``shard_lookup`` ops plus a
   worker-side ``stitch`` (TF's dynamic_partition/gather/dynamic_stitch
   pattern).
4. **Differentiate** each replica's loss on the transformed graph (so
   per-shard sparse gradients exist as worker-side graph nodes).
5. **Aggregate and update**: AllReduce/AllGatherv ops between gradient
   producers and per-replica update ops for collective variables;
   per-machine ``local_agg`` and per-server ``global_agg`` plus
   server-placed update ops for PS variables.

The result is one graph containing every replica's ops with explicit
device placement -- executable by the functional engine and inspectable
by tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.plan import SyncMethod, fusion_buckets
from repro.cluster.spec import ClusterSpec
from repro.comm.ps import place_variables
from repro.core.transform import comm_ops  # noqa: F401  (registers kernels)
from repro.core.transform.plan import GraphSyncPlan
from repro.graph.device import DeviceSpec
from repro.graph.gradients import gradients
from repro.graph.graph import Graph, Operation, Tensor
from repro.graph.variables import Variable
from repro.nn.optimizers import Optimizer
from repro.tensor.dense import TensorSpec


@dataclass
class TransformedGraph:
    """The distributed graph plus everything a runner needs to drive it."""

    graph: Graph
    cluster: ClusterSpec
    plan: GraphSyncPlan
    replica_losses: List[Tensor]
    train_op: Tensor
    # base placeholder name -> per-replica placeholder names
    placeholder_names: Dict[str, List[str]]
    # original variable name -> server machine (PS variables only)
    ps_placement: Dict[str, int]
    # original variable name -> per-replica variable names (AR variables)
    replica_variables: Dict[str, List[str]]
    # asynchronous mode only: one train op per worker replica
    replica_train_ops: Optional[List[Tensor]] = None

    @property
    def num_replicas(self) -> int:
        return self.cluster.total_gpus

    # -- serialization ---------------------------------------------------
    # Tensors pickle as op names resolved against the (flat-pickling)
    # graph: the object graph behind a Tensor is arbitrarily deep, and the
    # multiprocess backend ships TransformedGraph to every worker.
    def __getstate__(self) -> dict:
        return {
            "graph": self.graph,
            "cluster": self.cluster,
            "plan": self.plan,
            "replica_losses": [t.name for t in self.replica_losses],
            "train_op": self.train_op.name,
            "placeholder_names": self.placeholder_names,
            "ps_placement": self.ps_placement,
            "replica_variables": self.replica_variables,
            "replica_train_ops": (
                None if self.replica_train_ops is None
                else [t.name for t in self.replica_train_ops]
            ),
        }

    def __setstate__(self, state: dict) -> None:
        graph = state["graph"]
        self.graph = graph
        self.cluster = state["cluster"]
        self.plan = state["plan"]
        self.replica_losses = [graph.get_op(n).output
                               for n in state["replica_losses"]]
        self.train_op = graph.get_op(state["train_op"]).output
        self.placeholder_names = state["placeholder_names"]
        self.ps_placement = state["ps_placement"]
        self.replica_variables = state["replica_variables"]
        self.replica_train_ops = (
            None if state["replica_train_ops"] is None
            else [graph.get_op(n).output for n in state["replica_train_ops"]]
        )

    @property
    def logical_variable_names(self) -> Dict[str, str]:
        """Base variable name -> graph name of its canonical copy.

        The logical state of a transformed graph deduplicates replicated
        variables: replica 0's copy stands for every AR replica (they are
        bit-identical under synchronous training), and PS variables are
        their own canonical copy.  This is the name set checkpoints carry
        and the elastic runtime migrates across rescales.
        """
        from repro.graph.session import split_replica_prefix

        out: Dict[str, str] = {}
        for name in self.graph.variables:
            replica, base = split_replica_prefix(name)
            if replica is None:
                out[base] = name
            elif replica == 0:
                out[base] = name
        return out


def _find_optimizer(graph: Graph) -> Optimizer:
    optimizers = graph.collections.get("optimizer", [])
    if not optimizers:
        raise ValueError(
            "the single-GPU graph has no optimizer; call opt.update(...) "
            "before transforming"
        )
    return optimizers[-1]


def _loss_subgraph(loss: Tensor) -> List[Operation]:
    """Main-computation ops in dependency order (paper: the ancestors of
    the gradients, i.e. everything the loss depends on).  Uses the graph's
    memoized order, shared with autodiff and compiled execution plans."""
    return loss.graph.cached_topo_sort([loss.op])


class _ReplicaBuilder:
    """Copies the forward subgraph into the new graph for one replica."""

    def __init__(self, new_graph: Graph, cluster: ClusterSpec,
                 plan: GraphSyncPlan, ps_placement: Dict[str, int],
                 ps_reads: Dict[str, Tensor], replica: int):
        self.g = new_graph
        self.cluster = cluster
        self.plan = plan
        self.ps_placement = ps_placement
        self.ps_reads = ps_reads
        self.replica = replica
        machine = cluster.machine_of_worker(replica)
        self.device = DeviceSpec.gpu(machine, replica % cluster.gpus_per_machine)
        self.mapping: Dict[str, Tensor] = {}  # old op name -> new tensor
        self.replica_vars: Dict[str, Variable] = {}
        self.placeholders: Dict[str, str] = {}

    def _name(self, base: str) -> str:
        return f"rep{self.replica}/{base}"

    def copy(self, ops_in_order: List[Operation], src_graph: Graph) -> None:
        for op in ops_in_order:
            if op.name in self.mapping:
                continue
            handler = getattr(self, f"_copy_{op.op_type}", None)
            if handler is not None:
                self.mapping[op.name] = handler(op, src_graph)
            else:
                self.mapping[op.name] = self._copy_generic(op)

    # -- op handlers -----------------------------------------------------
    def _copy_generic(self, op: Operation) -> Tensor:
        new_op = self.g.add_op(
            op.op_type,
            [self.mapping[t.op.name] for t in op.inputs],
            op.output.spec,
            name=self._name(op.name),
            attrs=dict(op.attrs),
            device=self.device,
        )
        return new_op.output

    def _copy_placeholder(self, op: Operation, src_graph: Graph) -> Tensor:
        new_op = self.g.add_op(
            "placeholder", [], op.output.spec,
            name=self._name(op.name), device=self.device,
        )
        self.placeholders[op.name] = new_op.name
        return new_op.output

    def _copy_constant(self, op: Operation, src_graph: Graph) -> Tensor:
        return self._copy_generic(op)

    def _copy_read_var(self, op: Operation, src_graph: Graph) -> Tensor:
        var_name = op.attrs["variable"]
        method = self.plan.method_of(var_name)
        if method is SyncMethod.PS:
            return self.ps_reads[var_name]
        # Collective variable: this replica holds its own copy.
        src_var = src_graph.variables[var_name]
        replica_var = Variable(
            self._name(var_name), src_var.shape,
            initializer=src_var.initializer,
            trainable=src_var.trainable,
            graph=self.g, device=self.device,
        )
        self.replica_vars[var_name] = replica_var
        return replica_var.tensor

    def _copy_gather(self, op: Operation, src_graph: Graph) -> Tensor:
        """A gather reading a PS variable becomes a server-side lookup."""
        params_op = op.inputs[0].op
        if params_op.op_type != "read_var":
            return self._copy_generic(op)
        var_name = params_op.attrs["variable"]
        if self.plan.method_of(var_name) is not SyncMethod.PS:
            return self._copy_generic(op)
        ids = self.mapping[op.inputs[1].op.name]
        shard_read = self.ps_reads[var_name]
        rows = src_graph.variables[var_name].shape[0]
        row_shape = tuple(src_graph.variables[var_name].shape[1:])
        server = self.ps_placement[var_name]
        lookup = self.g.add_op(
            "shard_lookup",
            [shard_read, ids],
            op.output.spec,
            name=self._name(f"{op.name}/lookup"),
            attrs={"lo": 0, "hi": rows, "row_shape": row_shape},
            device=DeviceSpec.cpu(server),
        )
        # A single shard returns rows in id order; reshape to the gather's
        # output shape on the worker.
        reshaped = self.g.add_op(
            "reshape", [lookup.output], op.output.spec,
            name=self._name(f"{op.name}/rows"),
            attrs={"shape": op.output.spec.shape},
            device=self.device,
        )
        return reshaped.output

    def _copy_part_gather(self, op: Operation, src_graph: Graph) -> Tensor:
        """Partitioned lookup: per-shard server gathers + worker stitch."""
        *shard_tensors, ids_tensor = op.inputs
        shard_names = [t.op.attrs["variable"] for t in shard_tensors]
        methods = {self.plan.method_of(n) for n in shard_names}
        if methods != {SyncMethod.PS}:
            return self._copy_generic(op)
        ids = self.mapping[ids_tensor.op.name]
        offsets = list(op.attrs["offsets"])
        row_shape = tuple(src_graph.variables[shard_names[0]].shape[1:])
        lookups = []
        for p, name in enumerate(shard_names):
            lo, hi = offsets[p], offsets[p + 1]
            server = self.ps_placement[name]
            lookup = self.g.add_op(
                "shard_lookup",
                [self.ps_reads[name], ids],
                TensorSpec((0,) + row_shape),  # dynamic row count
                name=self._name(f"{op.name}/lookup{p}"),
                attrs={"lo": lo, "hi": hi, "row_shape": row_shape},
                device=DeviceSpec.cpu(server),
            )
            lookups.append(lookup.output)
        stitch = self.g.add_op(
            "stitch",
            [ids] + lookups,
            op.output.spec,
            name=self._name(f"{op.name}/stitch"),
            attrs={"offsets": offsets, "row_shape": row_shape},
            device=self.device,
        )
        return stitch.output


def transform_graph(
    single_graph: Graph,
    loss: Tensor,
    cluster: ClusterSpec,
    plan: GraphSyncPlan,
    optimizer: Optional[Optimizer] = None,
    verify: Optional[bool] = None,
) -> TransformedGraph:
    """Rewrite *single_graph* into a distributed graph for *cluster*.

    Args:
        single_graph: the user's single-GPU graph; ``gradients`` and
            ``opt.update`` must already have been called on it.
        loss: the scalar loss tensor in the single-GPU graph.
        cluster: machines/GPUs to distribute over.
        plan: per-variable synchronization methods plus optimizations.
        optimizer: defaults to the optimizer recorded in the graph.
        verify: run the static plan verifier (:mod:`repro.analysis`)
            over the result and raise
            :class:`~repro.analysis.report.PlanVerificationError` on any
            finding.  ``None`` (the default) defers to the
            ``REPRO_VERIFY_PLANS`` environment variable, which the test
            suite sets -- production transforms skip the pass unless
            opted in (see ``ParallaxConfig.verify_plans``).
    """
    if loss.graph is not single_graph:
        raise ValueError("loss does not belong to the given graph")
    opt = optimizer if optimizer is not None else _find_optimizer(single_graph)
    num_replicas = cluster.total_gpus

    # Every trainable variable the plan covers must have a gradient.
    for var_name in plan.methods:
        if var_name not in single_graph.gradient_info:
            raise ValueError(
                f"variable {var_name!r} has no recorded gradient; run "
                "gradients() on the single-GPU graph first"
            )

    # ---- PS placement ---------------------------------------------------
    ps_vars = [name for name in plan.ps_variables]
    ps_placement = place_variables(
        [(name, single_graph.variables[name].nbytes) for name in ps_vars],
        cluster.num_machines,
    )

    new_graph = Graph()
    ps_reads: Dict[str, Tensor] = {}
    ps_new_vars: Dict[str, Variable] = {}
    with new_graph.as_default():
        for name in ps_vars:
            src_var = single_graph.variables[name]
            server = ps_placement[name]
            new_var = Variable(
                name, src_var.shape,
                initializer=src_var.initializer,
                trainable=src_var.trainable,
                graph=new_graph,
                device=DeviceSpec.cpu(server),
            )
            ps_new_vars[name] = new_var
            ps_reads[name] = new_var.tensor

    # ---- replicate main computation and differentiate -------------------
    forward_ops = _loss_subgraph(loss)
    replica_losses: List[Tensor] = []
    replica_grads: List[Dict[str, Tensor]] = []  # var name -> grad tensor
    replica_variables: Dict[str, List[str]] = {}
    placeholder_names: Dict[str, List[str]] = {}
    builders: List[_ReplicaBuilder] = []

    for r in range(num_replicas):
        builder = _ReplicaBuilder(new_graph, cluster, plan, ps_placement,
                                  ps_reads, r)
        with new_graph.as_default(), new_graph.device(builder.device):
            builder.copy(forward_ops, single_graph)
            loss_r = builder.mapping[loss.op.name]
            grad_vars = [
                builder.replica_vars.get(name) or ps_new_vars[name]
                for name in plan.methods
            ]
            gvs = gradients(loss_r, grad_vars)
        builders.append(builder)
        replica_losses.append(loss_r)
        grads_by_original: Dict[str, Tensor] = {}
        for grad_tensor, var in gvs:
            original = _strip_replica(var.name, r)
            grads_by_original[original] = grad_tensor
        replica_grads.append(grads_by_original)
        for base, new_name in builder.placeholders.items():
            placeholder_names.setdefault(base, []).append(new_name)
        for original, var in builder.replica_vars.items():
            replica_variables.setdefault(original, []).append(var.name)

    # ---- aggregation + updates ------------------------------------------
    machines = [cluster.machine_of_worker(r) for r in range(num_replicas)]
    update_ops: List[Operation] = []
    per_replica_updates: Dict[int, List[Operation]] = {
        r: [] for r in range(num_replicas)
    }
    fused_ar_vars: List[str] = []
    with new_graph.as_default():
        for var_name, method in plan.methods.items():
            grads = [replica_grads[r][var_name] for r in range(num_replicas)]
            if method is SyncMethod.ALLREDUCE:
                # Collected into size-capped buckets below; order is the
                # deterministic plan order, so bucketing is reproducible.
                fused_ar_vars.append(var_name)
                continue
            if method is SyncMethod.PS and plan.asynchronous:
                for r in range(num_replicas):
                    update = opt.build_update(
                        ps_new_vars[var_name], grads[r],
                        device=DeviceSpec.cpu(ps_placement[var_name]),
                    )
                    update.attrs["replica"] = r
                    update_ops.append(update)
                    per_replica_updates[r].append(update)
            elif method is SyncMethod.PS:
                update_ops.append(
                    _build_ps_update(new_graph, cluster, plan, opt,
                                     ps_new_vars[var_name],
                                     ps_placement[var_name], grads, machines)
                )
            else:
                update_ops.extend(
                    _build_allgatherv_updates(new_graph, opt, var_name,
                                              grads, machines, builders)
                )
        if fused_ar_vars:
            update_ops.extend(
                _build_fused_collective_updates(new_graph, plan, opt,
                                                fused_ar_vars, replica_grads,
                                                machines, builders)
            )
        train_op = _group(new_graph, update_ops, "train_op")
        replica_train_ops = None
        if plan.asynchronous:
            replica_train_ops = [
                _group(new_graph, per_replica_updates[r], f"train_op/rep{r}")
                for r in range(num_replicas)
            ]

    transformed = TransformedGraph(
        graph=new_graph,
        cluster=cluster,
        plan=plan,
        replica_losses=replica_losses,
        train_op=train_op,
        placeholder_names=placeholder_names,
        ps_placement=ps_placement,
        replica_variables=replica_variables,
        replica_train_ops=replica_train_ops,
    )

    if verify is None:
        verify = os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")
    if verify:
        # Imported lazily: the analysis package depends on the executor
        # and backend layers, which in turn import this module.
        from repro.analysis import PlanVerificationError, verify_plan

        report = verify_plan(transformed)
        if not report.ok:
            raise PlanVerificationError(report)
    return transformed


def _strip_replica(name: str, replica: int) -> str:
    prefix = f"rep{replica}/"
    return name[len(prefix):] if name.startswith(prefix) else name


def _group(graph: Graph, ops_list: List[Operation], name: str) -> Tensor:
    tensors = [op.output for op in ops_list]
    op = graph.add_op("group", tensors, TensorSpec(()), name=name)
    return op.output


def _grad_is_sparse(grad: Tensor) -> bool:
    return bool(grad.op.attrs.get("is_sparse", False))


def _build_ps_update(
    new_graph: Graph,
    cluster: ClusterSpec,
    plan: GraphSyncPlan,
    opt: Optimizer,
    var: Variable,
    server: int,
    grads: List[Tensor],
    machines: List[int],
) -> Operation:
    """Local aggregation per machine, global aggregation on the server (or
    the chief machine without smart placement), update on the server."""
    sparse = _grad_is_sparse(grads[0])
    num_workers = len(grads)

    contributions: List[Tensor] = []
    if plan.local_aggregation and cluster.gpus_per_machine > 1:
        for m in range(cluster.num_machines):
            local = [g for g, mach in zip(grads, machines) if mach == m]
            if not local:
                continue
            if len(local) == 1:
                contributions.append(local[0])
                continue
            agg = new_graph.add_op(
                "local_agg", local, local[0].spec,
                name=f"local_agg/{var.name}/m{m}",
                attrs={"is_sparse": sparse},
                device=DeviceSpec.cpu(m),
            )
            contributions.append(agg.output)
    else:
        contributions = list(grads)

    agg_machine = server if plan.smart_placement else 0
    global_agg = new_graph.add_op(
        "global_agg", contributions, grads[0].spec,
        name=f"global_agg/{var.name}",
        attrs={
            "is_sparse": sparse,
            "num_workers": num_workers,
        },
        device=DeviceSpec.cpu(agg_machine),
    )
    return opt.build_update(var, global_agg.output,
                            device=DeviceSpec.cpu(server))


def _densified_grad(new_graph: Graph, var_name: str, grad: Tensor,
                    replica: int, device: DeviceSpec) -> Tensor:
    """Sparse-as-dense path: densify an IndexedSlices gradient in place."""
    if not _grad_is_sparse(grad):
        return grad
    dense = new_graph.add_op(
        "densify", [grad], grad.spec,
        name=f"densify/{var_name}/rep{replica}",
        device=device,
    )
    return dense.output


def _build_fused_collective_updates(
    new_graph: Graph,
    plan: GraphSyncPlan,
    opt: Optimizer,
    var_names: List[str],
    replica_grads: List[Dict[str, Tensor]],
    machines: List[int],
    builders: List["_ReplicaBuilder"],
) -> List[Operation]:
    """Bucketed (fused) dense AllReduce: concat -> collective -> split.

    The Horovod tensor-fusion idea on the functional plane: AllReduce
    variables are packed, in deterministic plan order, into
    ``fusion_buffer_mb``-capped buckets.  Each replica flattens and
    concatenates its bucket's gradients, one ``fused_allreduce`` per
    replica reduces the packed buffer in a single ring pass (one fused
    message per ring step), and ``bucket_slice`` ops unpack each
    variable's reduced gradient for its per-replica update.  The ring
    chunks every segment of the bucket on its own
    (:func:`~repro.comm.allreduce.ring_allreduce`), so each element sums
    in the order a per-variable ring would give it, whatever the cap.
    """
    from repro.comm.allreduce import fused_chunk_bounds

    num_replicas = len(builders)
    sizes = [
        int(np.prod(builders[0].replica_vars[name].shape))
        for name in var_names
    ]
    cap_bytes = plan.fusion_buffer_mb * 1024 * 1024
    updates: List[Operation] = []
    for b, bucket in enumerate(fusion_buckets([s * 4.0 for s in sizes],
                                              cap_bytes)):
        names = [var_names[i] for i in bucket]
        seg_sizes = [sizes[i] for i in bucket]
        total = sum(seg_sizes)
        group = f"fused/bucket{b}"
        buffers: List[Tensor] = []
        for r in range(num_replicas):
            device = builders[r].device
            flats = []
            for name, size in zip(names, seg_sizes):
                grad = _densified_grad(new_graph, name,
                                       replica_grads[r][name], r, device)
                flat = new_graph.add_op(
                    "reshape", [grad], TensorSpec((size,)),
                    name=f"fusion/{group}/flat/{name}/rep{r}",
                    attrs={"shape": (size,)},
                    device=device,
                )
                flats.append(flat.output)
            pack = new_graph.add_op(
                "concat", flats, TensorSpec((total,)),
                name=f"fusion/{group}/pack/rep{r}",
                attrs={"axis": 0},
                device=device,
            )
            buffers.append(pack.output)
        # What each fused ring message carries, for the analyses; the
        # kernel derives its chunking from ``segments``.
        bounds = fused_chunk_bounds(seg_sizes, num_replicas)
        for r in range(num_replicas):
            device = builders[r].device
            collective = new_graph.add_op(
                "fused_allreduce", buffers, TensorSpec((total,)),
                name=f"fused_allreduce/{group}/rep{r}",
                attrs={
                    "group": group,
                    "replica": r,
                    "machines": machines,
                    "is_sparse": False,
                    "segments": list(zip(names, seg_sizes)),
                    "bounds": bounds,
                },
                device=device,
            )
            offset = 0
            for name, size in zip(names, seg_sizes):
                replica_var = builders[r].replica_vars[name]
                piece = new_graph.add_op(
                    "bucket_slice", [collective.output],
                    TensorSpec(replica_var.shape),
                    name=f"fusion/{group}/unpack/{name}/rep{r}",
                    attrs={"lo": offset, "hi": offset + size,
                           "shape": tuple(replica_var.shape)},
                    device=device,
                )
                updates.append(
                    opt.build_update(replica_var, piece.output,
                                     device=device)
                )
                offset += size
    return updates


def _build_allgatherv_updates(
    new_graph: Graph,
    opt: Optimizer,
    var_name: str,
    grads: List[Tensor],
    machines: List[int],
    builders: List["_ReplicaBuilder"],
) -> List[Operation]:
    """AllGatherv per replica, then per-replica updates."""
    sparse = _grad_is_sparse(grads[0])
    updates: List[Operation] = []
    for r in range(len(grads)):
        replica_var = builders[r].replica_vars[var_name]
        collective = new_graph.add_op(
            "allgatherv", grads, grads[r].spec,
            name=f"allgatherv/{var_name}/rep{r}",
            attrs={
                "group": var_name,
                "replica": r,
                "machines": machines,
                "is_sparse": sparse,
            },
            device=builders[r].device,
        )
        updates.append(
            opt.build_update(replica_var, collective.output,
                             device=builders[r].device)
        )
    return updates
