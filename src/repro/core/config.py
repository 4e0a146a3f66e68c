"""Grouped configuration for the public Parallax API.

``ParallaxConfig`` keeps the architecture/search knobs top-level and groups
everything plane-specific into sub-configs that mirror the planes of the
system:

* :class:`CommConfig` -- the synchronization plane (fusion, gradient
  compression, execution backend, message transport).
* :class:`ElasticConfig` -- the elastic runtime (checkpoint cadence,
  fault schedule, functional NIC-degradation emulation).
* :class:`ServeConfig` -- the serving plane (batch coalescing).
* :class:`AutopilotConfig` -- the online replanning controller
  (telemetry window, hysteresis, cooldown/backoff).

The grouped spelling is the only one: a pre-grouping flat kwarg
(``ParallaxConfig(fusion=False)``) is an ordinary unexpected-keyword
``TypeError``, and a group field given anything but its config class
(``ParallaxConfig(elastic=True)``) a ``TypeError`` naming that class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cluster.faults import FaultPlan

__all__ = [
    "CommConfig",
    "ElasticConfig",
    "ServeConfig",
    "AutopilotConfig",
    "ParallaxConfig",
    "graph_plan_builder",
]


@dataclass
class CommConfig:
    """Synchronization-plane knobs: fusion, compression, backend, transport.

    Attributes:
        fusion: pack dense AllReduce gradients into size-capped buckets
            (Horovod-style tensor fusion); bit-identical to unfused
            training.
        fusion_buffer_mb: fusion bucket size cap in megabytes (measured
            in on-wire bytes, so compression fits more gradient per
            bucket).
        compression: gradient compression on the collective paths --
            None (exact), "topk", "fp16", or "topk+fp16".  PS-synchronized
            variables are unaffected; requires a collective architecture.
        compression_ratio: fraction of elements (rows, for sparse
            gradients) top-k keeps.
        backend: execution backend -- "inproc" (sequential in-process
            engine) or "multiproc" (one OS worker process per replica).
        transport: message plane of the multiproc backend -- "shm"
            (default), "queue", or "tcp".  Requires ``backend="multiproc"``.
    """

    fusion: bool = True
    fusion_buffer_mb: float = 4.0
    compression: Optional[str] = None
    compression_ratio: float = 0.1
    backend: str = "inproc"
    transport: Optional[str] = None

    def __post_init__(self):
        if self.fusion_buffer_mb <= 0:
            raise ValueError("fusion_buffer_mb must be > 0")
        if self.compression is not None:
            from repro.comm.compression import parse_spec

            parse_spec(self.compression)  # raises on unknown specs
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")
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
    """Elastic-runtime knobs: checkpointing, fault schedule, emulation.

    Attributes:
        enabled: return an :class:`~repro.core.elastic.ElasticRunner`
            (supports ``rescale`` and fault-injected recovery) instead of
            a plain DistributedRunner.
        checkpoint_every: in-memory recovery snapshots per this many
            completed iterations.
        fault_plan: optional deterministic failure schedule injected into
            every ``step``.
        emulate_nic_bw: when set (bytes/second), the functional plane
            *pays* for scheduled :class:`~repro.cluster.faults.NicDegradation`
            windows instead of merely noting them: each step inside a
            degradation window sleeps for the extra wire time
            ``bytes * (1/factor - 1) / emulate_nic_bw`` its network
            transfers would take on the degraded link.  The autopilot's
            planner prices candidates with the identical formula, so
            predicted and measured step times agree.  None (default)
            disables the emulation.
    """

    enabled: bool = False
    checkpoint_every: int = 1
    fault_plan: Optional[FaultPlan] = None
    emulate_nic_bw: Optional[float] = None

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.fault_plan is not None and not self.enabled:
            raise ValueError(
                "fault_plan requires an elastic runner (enabled=True): a "
                "plain runner cannot recover from injected failures"
            )
        if self.emulate_nic_bw is not None and self.emulate_nic_bw <= 0:
            raise ValueError("emulate_nic_bw must be > 0 bytes/second")


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


@dataclass
class AutopilotConfig:
    """Online-replanning controller knobs (see :mod:`repro.autopilot`).

    Attributes:
        enabled: attach an :class:`~repro.autopilot.AutopilotController`
            to the runner (requires an elastic runner).
        window_steps: telemetry window length in steps; the controller
            refits and reconsiders the plan once per closed window.
        hysteresis: a candidate must beat the incumbent's predicted
            step time by this fraction before a migration is proposed.
        cooldown_windows: windows to hold after a migration before the
            next one may be proposed; a switch back to the plan just
            replaced is refused for twice this many windows (the
            no-flapping contract).
        backoff_factor: cooldown multiplier applied after a failed or
            non-improving migration.
        max_backoff_windows: cap on the grown cooldown.
        plan_families: candidate architectures the planner enumerates.
        fusion_buffers_mb: candidate fusion bucket caps.
        codecs: candidate compression specs (None = exact) tried on
            collective architectures.
        compression_ratio: top-k keep fraction used by candidate codecs.
        consider_rescale: also enumerate smaller replica counts that
            drop degraded machines from the fleet.
        min_machines: floor for replica-count candidates.
    """

    enabled: bool = False
    window_steps: int = 8
    hysteresis: float = 0.10
    cooldown_windows: int = 2
    backoff_factor: float = 2.0
    max_backoff_windows: int = 16
    plan_families: Tuple[str, ...] = ("hybrid", "ar")
    fusion_buffers_mb: Tuple[float, ...] = (1.0, 4.0, 16.0)
    codecs: Tuple[Optional[str], ...] = (None, "fp16", "topk", "topk+fp16")
    compression_ratio: float = 0.1
    consider_rescale: bool = True
    min_machines: int = 1

    def __post_init__(self):
        if self.window_steps < 1:
            raise ValueError("window_steps must be >= 1")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be >= 0")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff_windows < self.cooldown_windows:
            raise ValueError(
                "max_backoff_windows must be >= cooldown_windows"
            )
        for family in self.plan_families:
            if family not in ("hybrid", "ps", "opt_ps", "ar"):
                raise ValueError(f"unknown plan family {family!r}")
        if not self.plan_families:
            raise ValueError("plan_families must name at least one family")
        if any(mb <= 0 for mb in self.fusion_buffers_mb):
            raise ValueError("fusion_buffers_mb entries must be > 0")
        for codec in self.codecs:
            if codec is not None:
                from repro.comm.compression import parse_spec

                parse_spec(codec)
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")
        if self.min_machines < 1:
            raise ValueError("min_machines must be >= 1")


_GROUP_TYPES = {
    "comm": CommConfig,
    "elastic": ElasticConfig,
    "serve": ServeConfig,
    "autopilot": AutopilotConfig,
}


@dataclass
class ParallaxConfig:
    """Optional knobs of ``get_runner`` (paper section 4.1), grouped.

    Architecture and search knobs stay top-level; everything
    plane-specific lives in a sub-config:

    * ``comm`` -- :class:`CommConfig` (fusion, compression, backend,
      transport).
    * ``elastic`` -- :class:`ElasticConfig` (checkpointing, fault
      schedule, NIC-degradation emulation).
    * ``serve`` -- :class:`ServeConfig` (request batching).
    * ``autopilot`` -- :class:`AutopilotConfig` (online replanning).

    Top-level attributes:
        architecture: "hybrid" (Parallax), "ps", "opt_ps", or "ar" --
            mostly for ablations; the paper's Parallax is "hybrid".
            Section 4.1's other optimizations are fixed: "hybrid" always
            aggregates locally and places aggregation/update ops on the
            variable's server ("ps" and "opt_ps" are the ablations
            without and with both), and every architecture averages
            gradients.
        search_partitions: run the Equation-1 partition search.
        sample_iterations / sample_warmup: iterations measured (after
            discarding warmup) per sampled partition count.
        max_partitions: upper bound for the search.
        sparse_as_dense_threshold: sparse variables whose *measured*
            alpha reaches this are synchronized as dense via AllReduce
            (section 3.1's near-1 refinement).  Set > 1 to disable.
        alpha_measure_batches: batches used to measure per-variable alpha
            (0 disables measurement and the threshold rule).
        verify_plans: run the static plan verifier on the transformed
            graph and refuse to train on a plan with a finding.
        seed: variable-initialization seed.
    """

    architecture: str = "hybrid"
    search_partitions: bool = True
    sample_iterations: int = 2
    sample_warmup: int = 1
    max_partitions: int = 512
    sparse_as_dense_threshold: float = 0.95
    alpha_measure_batches: int = 2
    verify_plans: bool = False
    seed: int = 0
    comm: CommConfig = field(default_factory=CommConfig)
    elastic: ElasticConfig = field(default_factory=ElasticConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    autopilot: AutopilotConfig = field(default_factory=AutopilotConfig)

    def __post_init__(self):
        for group, expected in _GROUP_TYPES.items():
            value = getattr(self, group)
            if not isinstance(value, expected):
                raise TypeError(
                    f"{group}= expects {expected.__name__}, got {value!r}"
                )
        if self.architecture not in ("hybrid", "ps", "opt_ps", "ar"):
            raise ValueError(
                f"unknown architecture {self.architecture!r}; expected "
                "hybrid, ps, opt_ps, or ar"
            )
        if self.sample_iterations < 1:
            raise ValueError("sample_iterations must be >= 1")
        if self.sample_warmup < 0:
            raise ValueError("sample_warmup must be >= 0")
        if self.max_partitions < 1:
            raise ValueError("max_partitions must be >= 1")
        if self.alpha_measure_batches < 0:
            raise ValueError("alpha_measure_batches must be >= 0")
        # Cross-group checks: each sub-config validates itself on
        # construction, but these couple a sub-config to a top-level
        # field or to another group.
        if (self.comm.compression is not None
                and self.architecture in ("ps", "opt_ps")):
            raise ValueError(
                "compression applies to collective synchronization; "
                f"the {self.architecture!r} architecture has no "
                "collective path"
            )
        if self.autopilot.enabled and not self.elastic.enabled:
            raise ValueError(
                "autopilot requires an elastic runner: set "
                "elastic=ElasticConfig(enabled=True)"
            )


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
    congruent plans, and the autopilot builds per-candidate variants of
    it to migrate between plan families at a fixed partition count.
    """
    from repro.core.transform.plan import (
        ar_graph_plan,
        hybrid_graph_plan,
        ps_graph_plan,
    )

    def build(graph):
        comm = config.comm
        if config.architecture == "hybrid":
            overrides = overrides_for(graph) if overrides_for else {}
            return hybrid_graph_plan(
                graph,
                sparse_as_dense=overrides,
                fusion=comm.fusion,
                fusion_buffer_mb=comm.fusion_buffer_mb,
                compression=comm.compression,
                compression_ratio=comm.compression_ratio,
            )
        if config.architecture == "ps":
            return ps_graph_plan(graph, local_aggregation=False,
                                 smart_placement=False)
        if config.architecture == "opt_ps":
            return ps_graph_plan(graph, local_aggregation=True,
                                 smart_placement=True, name="opt_ps")
        return ar_graph_plan(graph, fusion=comm.fusion,
                             fusion_buffer_mb=comm.fusion_buffer_mb,
                             compression=comm.compression,
                             compression_ratio=comm.compression_ratio)

    return build
