"""Grouped configuration for the public Parallax API.

``ParallaxConfig`` keeps the architecture/search knobs top-level and groups
everything plane-specific into sub-configs that mirror the planes of the
system:

* :class:`CommConfig` -- the synchronization plane (fusion bucket cap,
  execution backend, message transport).
* :class:`ElasticConfig` -- the elastic runtime (checkpoint cadence,
  fault schedule).
* :class:`ServeConfig` -- the serving plane (batch coalescing).

The grouped spelling is the only one: a pre-grouping flat kwarg
(``ParallaxConfig(backend="multiproc")``) is an ordinary
unexpected-keyword ``TypeError``, and a group field given anything but
its config class (``ParallaxConfig(elastic=True)``) a ``TypeError``
naming that class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.cluster.faults import FaultPlan
from repro.cluster.plan import ARCHITECTURES, DEFAULT_SPARSE_AS_DENSE_THRESHOLD
from repro.core.transform.plan import FUSION_BUFFER_MB, graph_plan

__all__ = [
    "CommConfig",
    "ElasticConfig",
    "ServeConfig",
    "ParallaxConfig",
    "graph_plan_builder",
]


@dataclass
class CommConfig:
    """Synchronization-plane knobs: fusion bucket cap, backend, transport.

    Attributes:
        fusion_buffer_mb: size cap in megabytes of the buckets dense
            AllReduce gradients ride (Horovod-style tensor fusion).
        backend: execution backend -- "inproc" (sequential in-process
            engine) or "multiproc" (one OS worker process per replica).
        transport: message plane of the multiproc backend -- "shm"
            (default), "queue", or "tcp".  Requires ``backend="multiproc"``.
    """

    fusion_buffer_mb: float = FUSION_BUFFER_MB
    backend: str = "inproc"
    transport: Optional[str] = None

    def __post_init__(self):
        if self.fusion_buffer_mb <= 0:
            raise ValueError("fusion_buffer_mb must be > 0")
        from repro.core.backend import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{sorted(BACKENDS)}"
            )
        if self.transport is not None:
            from repro.core.backend import MultiprocBackend

            if self.backend != "multiproc":
                raise ValueError(
                    "transport selection requires backend='multiproc' "
                    "(the inproc engine has no message plane)"
                )
            if self.transport not in MultiprocBackend.TRANSPORTS:
                raise ValueError(
                    f"unknown transport {self.transport!r}; expected "
                    f"one of {MultiprocBackend.TRANSPORTS}"
                )


@dataclass
class ElasticConfig:
    """Elastic-runtime knobs: checkpointing and fault schedule.

    Attributes:
        enabled: return an :class:`~repro.core.elastic.ElasticRunner`
            (supports ``rescale`` and fault-injected recovery) instead of
            a plain DistributedRunner.
        checkpoint_every: in-memory recovery snapshots per this many
            completed iterations.
        fault_plan: optional deterministic failure schedule injected into
            every ``step``.
    """

    enabled: bool = False
    checkpoint_every: int = 1
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.fault_plan is not None and not self.enabled:
            raise ValueError(
                "fault_plan requires an elastic runner (enabled=True): a "
                "plain runner cannot recover from injected failures"
            )


@dataclass
class ServeConfig:
    """Serving-plane knobs handed to the request batcher.

    Attributes:
        max_batch: most requests one batch coalesces.  The batcher is
            work-conserving -- a batch launches the moment the engine is
            free, with whatever is queued up to this bound -- so there
            is no delay to configure.
    """

    max_batch: int = 8

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


_GROUP_TYPES = {
    "comm": CommConfig,
    "elastic": ElasticConfig,
    "serve": ServeConfig,
}


@dataclass
class ParallaxConfig:
    """Optional knobs of ``get_runner`` (paper section 4.1), grouped.

    Architecture and search knobs stay top-level; everything
    plane-specific lives in a sub-config:

    * ``comm`` -- :class:`CommConfig` (fusion bucket cap, backend,
      transport).
    * ``elastic`` -- :class:`ElasticConfig` (checkpointing, fault
      schedule).
    * ``serve`` -- :class:`ServeConfig` (request batching).

    Top-level attributes:
        architecture: a key of
            :data:`repro.cluster.plan.ARCHITECTURES` -- "hybrid"
            (Parallax), "ps", "opt_ps", or "ar"; all but "hybrid" are
            for ablations.
            Section 4.1's other optimizations are fixed: "hybrid" always
            aggregates locally and places aggregation/update ops on the
            variable's server ("ps" and "opt_ps" are the ablations
            without and with both), and every architecture averages
            gradients.
        search_partitions: run the Equation-1 partition search.
        max_partitions: upper bound for the search.
        sparse_as_dense_threshold: sparse variables whose *measured*
            alpha reaches this are synchronized as dense via AllReduce
            (section 3.1's near-1 refinement; only "hybrid" applies
            it).  Set > 1 to disable.
        alpha_measure_batches: batches used to measure per-variable alpha
            (0 disables measurement and the threshold rule).
        verify_plans: run the static plan verifier on the transformed
            graph and refuse to train on a plan with a finding.
        seed: variable-initialization seed.
    """

    architecture: str = "hybrid"
    search_partitions: bool = True
    max_partitions: int = 512
    sparse_as_dense_threshold: float = DEFAULT_SPARSE_AS_DENSE_THRESHOLD
    alpha_measure_batches: int = 2
    verify_plans: bool = False
    seed: int = 0
    comm: CommConfig = field(default_factory=CommConfig)
    elastic: ElasticConfig = field(default_factory=ElasticConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self):
        for group, expected in _GROUP_TYPES.items():
            value = getattr(self, group)
            if not isinstance(value, expected):
                raise TypeError(
                    f"{group}= expects {expected.__name__}, got {value!r}"
                )
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; expected "
                f"one of {', '.join(ARCHITECTURES)}"
            )
        if self.max_partitions < 1:
            raise ValueError("max_partitions must be >= 1")
        if self.alpha_measure_batches < 0:
            raise ValueError("alpha_measure_batches must be >= 0")


def graph_plan_builder(
    config: ParallaxConfig,
    overrides_for: Optional[Callable[[object], Dict[str, bool]]] = None,
) -> Callable:
    """Return a ``graph -> GraphSyncPlan`` builder for *config*.

    The builder applies the config's architecture and communication
    knobs to any graph with gradient info; *overrides_for* maps a graph
    to its measured sparse-as-dense decisions (re-keyed onto that
    graph's own shard names).  ``get_runner`` hands the returned builder
    to :class:`~repro.core.elastic.ElasticRunner` so rescales rebuild
    congruent plans.
    """
    def build(graph):
        return graph_plan(
            graph, config.architecture,
            sparse_as_dense=overrides_for(graph) if overrides_for else None,
            fusion_buffer_mb=config.comm.fusion_buffer_mb,
        )

    return build
