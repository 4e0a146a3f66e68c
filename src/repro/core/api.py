"""The Parallax user API: ``shard``, ``partitioner``, ``get_runner``.

Mirrors the paper's Figure 3 programming model: a user writes a
single-GPU model builder, marks input data with :func:`shard`, wraps
to-be-partitioned variables in :func:`partitioner`, and obtains a
distributed runner from :func:`get_runner` -- everything else (sparsity
classification, hybrid assignment, partition-count search, graph
transformation, placement) is automatic.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.cluster.faults import FaultPlan
from repro.cluster.plan import ARCHITECTURES, SyncMethod
from repro.cluster.spec import ClusterSpec
from repro.core.config import (
    CommConfig,
    ElasticConfig,
    ParallaxConfig,
    ServeConfig,
    graph_plan_builder,
)
from repro.core.elastic import ElasticRunner
from repro.core.partition_context import partitioner, sampling_partitions
from repro.core.partitioner import PartitionSearch, SearchResult
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import classify_variables
from repro.graph.session import Session
from repro.nn.datasets import Dataset
from repro.nn.models.common import BuiltModel
from repro.tensor.sparse import IndexedSlices

__all__ = ["shard", "partitioner",
           "ParallaxConfig", "CommConfig", "ElasticConfig", "ServeConfig",
           "get_runner", "make_server", "ElasticRunner",
           "FaultPlan"]

# Iterations the Equation-1 search times per sampled partition count,
# after discarding the warmup ones.
SAMPLE_ITERATIONS = 2
SAMPLE_WARMUP = 1
# Batches the sparse-as-dense rule measures each sparse variable's
# alpha over (section 3.1).
ALPHA_MEASURE_BATCHES = 2


def shard(dataset: Dataset) -> Dataset:
    """Mark input data for splitting across GPUs (paper Figure 3, line 6).

    The runner gives each model replica a disjoint round-robin shard; this
    call records the user's intent and returns the dataset unchanged
    (sharding needs the replica count, which only the runner knows).
    """
    dataset._parallax_shard = True  # type: ignore[attr-defined]
    return dataset


def resolve_cluster(resource_info: Union[ClusterSpec, dict, str],
                    ) -> ClusterSpec:
    """Accept a ClusterSpec, a dict, or a JSON resource file path.

    The file format mirrors Parallax's resource description: a list of
    machines with their GPU ids, e.g.::

        {"machines": [{"hostname": "w0", "gpus": [0,1,2]},
                      {"hostname": "w1", "gpus": [0,1,2]}]}
    """
    if isinstance(resource_info, ClusterSpec):
        return resource_info
    if isinstance(resource_info, str):
        with open(resource_info) as f:
            resource_info = json.load(f)
    if not isinstance(resource_info, dict):
        raise TypeError(f"cannot interpret {resource_info!r} as resources")
    if "machines" in resource_info and isinstance(resource_info["machines"],
                                                  list):
        machines = resource_info["machines"]
        if not machines:
            raise ValueError(
                "resource description lists no machines; at least one "
                "machine with at least one GPU is required"
            )
        for i, machine in enumerate(machines):
            if (not isinstance(machine, dict)
                    or not isinstance(machine.get("gpus"), (list, tuple))):
                raise ValueError(
                    f"machine entry {i} must be a dict with a 'gpus' "
                    f"list; got {machine!r}"
                )
            if not machine["gpus"]:
                label = machine.get("hostname", f"machine {i}")
                raise ValueError(
                    f"{label!r} declares no GPUs; every machine must "
                    "list at least one"
                )
        gpu_counts = {len(m["gpus"]) for m in machines}
        if len(gpu_counts) != 1:
            raise ValueError(
                "machines must have equal GPU counts; got "
                f"{sorted(gpu_counts)}"
            )
        return ClusterSpec(
            num_machines=len(machines),
            gpus_per_machine=gpu_counts.pop(),
            nic_gbps=float(resource_info.get("nic_gbps", 100.0)),
        )
    return ClusterSpec(
        num_machines=int(resource_info.get("machines", 1)),
        gpus_per_machine=int(resource_info.get("gpus_per_machine", 1)),
        nic_gbps=float(resource_info.get("nic_gbps", 100.0)),
    )


def measure_alpha(model: BuiltModel, num_batches: int,
                  seed: int = 0) -> Dict[str, float]:
    """Measured per-variable alpha: unique rows touched / total rows.

    Runs forward+backward on a few batches of the model's own dataset and
    inspects each sparse gradient.  Shards of one partitioned variable are
    merged into their parent's alpha.
    """
    graph = model.graph
    sparse_vars = [name for name, sparse in classify_variables(graph).items()
                   if sparse]
    if not sparse_vars or num_batches < 1:
        return {}
    session = Session(graph, seed=seed)
    grad_tensors = {
        name: graph.get_op(graph.gradient_info[name]).output
        for name in sparse_vars
    }
    # parent -> (unique row ids seen per batch, total rows)
    fractions: Dict[str, List[float]] = {name: [] for name in sparse_vars}
    for b in range(num_batches):
        feed = model.feed(model.dataset.batch(model.batch_size, b))
        values = session.run([grad_tensors[n] for n in sparse_vars], feed)
        for name, value in zip(sparse_vars, values):
            if isinstance(value, IndexedSlices):
                fractions[name].append(value.alpha())
            else:
                # Statically sparse-classified, but the gradient
                # materialized dense at runtime: every row may be touched,
                # so alpha is 1 -- the strongest sparse-as-dense signal
                # (section 3.1's near-1 refinement), not an error.
                fractions[name].append(1.0)
    per_var = {name: float(np.mean(f)) for name, f in fractions.items()}

    # Merge partition shards into their parent (weighted by rows).
    merged: Dict[str, List] = {}
    for name, alpha in per_var.items():
        var = graph.variables[name]
        info = getattr(var, "partition_info", None)
        parent = info["parent"] if info else name
        rows = var.shape[0]
        merged.setdefault(parent, []).append((alpha, rows, name))
    result: Dict[str, float] = {}
    for parent, entries in merged.items():
        total_rows = sum(rows for _, rows, _ in entries)
        weighted = sum(alpha * rows for alpha, rows, _ in entries)
        parent_alpha = weighted / total_rows
        for _, _, name in entries:
            result[name] = parent_alpha
    return result


def _partition_bounds(model: BuiltModel, config: ParallaxConfig) -> int:
    """Largest partition count any partitioner-scoped variable allows."""
    pvars = model.graph.get_collection("partitioned_variables")
    if not pvars:
        return 1
    max_rows = min(p.full_shape[0] for p in pvars)
    return max(1, min(config.max_partitions, max_rows))


def get_runner(
    model_builder: Callable[[], BuiltModel],
    resource_info: Union[ClusterSpec, dict, str],
    config: Optional[ParallaxConfig] = None,
) -> DistributedRunner:
    """Automatically parallelize a single-GPU model (Figure 3, line 19).

    Probes the single-GPU graph, measures alpha for the sparse-as-dense
    refinement, runs the Equation-1 partition search, transforms the
    winning graph under ``config.architecture``, and wires the chosen
    backend -- returning the ready runner itself, an
    :class:`~repro.core.elastic.ElasticRunner` when
    ``config.elastic.enabled``.

    Args:
        model_builder: zero-argument callable building the single-GPU
            graph -- including ``gradients`` and ``opt.update`` -- and
            returning a :class:`BuiltModel`.  Variables created inside a
            ``parallax.partitioner()`` scope within the builder are
            partitioned with the searched count.
        resource_info: cluster description (ClusterSpec, dict, or a JSON
            resource file path).
        config: optional :class:`ParallaxConfig`.

    Returns:
        The runner; its ``partition_search`` attribute records the
        Equation-1 search when one ran, and ``config`` the resolved
        config.
    """
    cluster = resolve_cluster(resource_info)
    cfg = config if config is not None else ParallaxConfig()

    def build(num_partitions: int) -> BuiltModel:
        with sampling_partitions(num_partitions):
            model = model_builder()
        if not model.graph.gradient_info:
            raise ValueError(
                "model builder must call gradients() and opt.update() on "
                "the single-GPU graph (see paper Figure 3)"
            )
        return model

    initial = max(1, cluster.num_machines)
    probe = build(initial)

    # Sparse-as-dense refinement from measured alpha (section 3.1).
    sparse_as_dense: Dict[str, bool] = {}
    architecture = ARCHITECTURES[cfg.architecture]
    if (cfg.sparse_as_dense_threshold <= 1.0
            and architecture.near_dense_as_dense):
        alphas = measure_alpha(probe, ALPHA_MEASURE_BATCHES, seed=cfg.seed)
        sparse_as_dense = {
            name: alpha >= cfg.sparse_as_dense_threshold
            for name, alpha in alphas.items()
        }

    # The measured decision attaches to the *parent* variable, and is
    # re-keyed onto each graph's own shard names: a model rebuilt at a
    # different partition count (the Equation-1 search, elastic re-shard
    # rescales) applies the same classification to every shard instead
    # of silently dropping overrides whose names no longer exist.
    def _parent_name(graph, name: str) -> str:
        info = getattr(graph.variables[name], "partition_info", None)
        return info["parent"] if info else name

    parent_overrides = {
        _parent_name(probe.graph, name): flag
        for name, flag in sparse_as_dense.items()
    }

    def overrides_for(graph) -> Dict[str, bool]:
        return {
            name: parent_overrides[_parent_name(graph, name)]
            for name in graph.variables
            if _parent_name(graph, name) in parent_overrides
        }

    plan_builder = graph_plan_builder(cfg, overrides_for)

    search_result: Optional[SearchResult] = None
    best_partitions = initial
    max_partitions = _partition_bounds(probe, cfg)
    uses_ps = architecture.sparse is SyncMethod.PS
    if cfg.search_partitions and uses_ps and max_partitions > 1:

        def measure(num_partitions: int) -> float:
            model = build(num_partitions)
            plan = plan_builder(model.graph)
            # The runner compiles its step fetches once (in __init__), so
            # every sampled iteration -- warmup included -- replays the
            # same CompiledPlan; the measurement sees steady-state
            # execution, not per-iteration graph interpretation.
            runner = DistributedRunner(model, cluster, plan, seed=cfg.seed)
            total = SAMPLE_WARMUP + SAMPLE_ITERATIONS
            times = [runner.step(i).wall_time for i in range(total)]
            return float(np.mean(times[SAMPLE_WARMUP:]))

        search = PartitionSearch(measure, initial=initial,
                                 max_partitions=max_partitions)
        search_result = search.run()
        best_partitions = search_result.best_partitions

    final_model = (probe if best_partitions == initial
                   else build(best_partitions))
    plan = plan_builder(final_model.graph)
    backend = cfg.comm.backend
    if cfg.comm.transport is not None:
        from repro.core.backend import MultiprocBackend

        # A configured instance; make_backend passes it through and
        # elastic rescales clone it with .fresh(), so the transport
        # choice survives every migration.
        backend = MultiprocBackend(transport=cfg.comm.transport)
    if cfg.elastic.enabled:
        runner: DistributedRunner = ElasticRunner(
            final_model, cluster, plan,
            model_builder=model_builder,
            plan_builder=plan_builder,
            checkpoint_every=cfg.elastic.checkpoint_every,
            fault_plan=cfg.elastic.fault_plan,
            seed=cfg.seed,
            backend=backend,
            verify_plans=True if cfg.verify_plans else None,
        )
    else:
        runner = DistributedRunner(
            final_model, cluster, plan,
            seed=cfg.seed, backend=backend,
            verify_plans=True if cfg.verify_plans else None)
    runner.partition_search = search_result
    runner.config = cfg
    return runner


def make_server(model, config: Optional[ParallaxConfig] = None, *,
                runner=None, state=None, fetches=None):
    """A ready :class:`~repro.serve.server.InferenceServer` for *model*
    under *config*'s serving knobs.

    Weights come from (in priority order) a live *runner*'s
    ``logical_state()``, an explicit *state* mapping, or a fresh
    seeded initialization from ``config.seed`` -- the same values a
    ``Session(graph, seed)`` would start from.  To follow *runner* later,
    call ``server.reload(runner.logical_state())``.
    """
    from repro.serve import (
        InferenceServer,
        seeded_weights,
        weights_from_state,
    )

    cfg = config if config is not None else ParallaxConfig()
    if runner is not None:
        state = runner.logical_state()
    weights = (weights_from_state(model.graph, state)
               if state is not None
               else seeded_weights(model.graph, cfg.seed))
    return InferenceServer(
        model, weights,
        fetches=fetches,
        max_batch=cfg.serve.max_batch,
    )
