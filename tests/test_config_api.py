"""Grouped-config API: one spelling.

``ParallaxConfig`` is a plain dataclass: search/placement knobs
top-level, everything plane-specific inside ``comm`` / ``elastic`` /
``serve``.  The pre-grouping flat kwargs and their read
aliases are gone -- a flat kwarg is an ordinary unexpected-keyword
``TypeError`` (so a typo cannot hide behind a shim), and a group field
given anything but its config class is a ``TypeError`` naming it.
"""

import dataclasses
import warnings

import pytest

from repro.cluster.costmodel import CostModel
from repro.cluster.faults import FaultPlan, WorkerFailure
from repro.core.config import (
    CommConfig,
    ElasticConfig,
    ParallaxConfig,
    ServeConfig,
)

FAULTS = FaultPlan(failures=(WorkerFailure(iteration=1, worker=0),))

# (removed flat kwargs, the grouped spelling that replaced them) -- one
# case per pre-grouping kwarg.
LEGACY_EQUIVALENTS = [
    ({"fusion_buffer_mb": 2.5}, {"comm": CommConfig(fusion_buffer_mb=2.5)}),
    ({"backend": "multiproc"}, {"comm": CommConfig(backend="multiproc")}),
    ({"backend": "multiproc", "transport": "tcp"},
     {"comm": CommConfig(backend="multiproc", transport="tcp")}),
    ({"elastic": True}, {"elastic": ElasticConfig(enabled=True)}),
    ({"elastic": True, "checkpoint_every": 3},
     {"elastic": ElasticConfig(enabled=True, checkpoint_every=3)}),
    ({"elastic": True, "fault_plan": FAULTS},
     {"elastic": ElasticConfig(enabled=True, fault_plan=FAULTS)}),
    ({"serve_max_batch": 3}, {"serve": ServeConfig(max_batch=3)}),
    # The delay knob is gone from ServeConfig too; its id stays pinned.
    ({"serve_max_delay_ms": 0.5}, {"serve": ServeConfig(max_batch=3)}),
]


class TestLegacyKwargParity:
    # The id predates the shim's removal (the tier-1 floor pins it): the
    # flat kwargs no longer build anything, only the grouped config does.
    @pytest.mark.parametrize("flat,grouped", LEGACY_EQUIVALENTS,
                             ids=lambda kw: "+".join(sorted(kw)))
    def test_flat_kwargs_build_the_grouped_config(self, flat, grouped):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a TypeError, not a warning
            with pytest.raises(TypeError):
                ParallaxConfig(**flat)
            config = ParallaxConfig(**grouped)
        (group, value), = grouped.items()
        assert getattr(config, group) == value
        assert dataclasses.replace(config, **{group: type(value)()}) \
            == ParallaxConfig()

    def test_no_flat_read_attribute_exists(self):
        config = ParallaxConfig()
        top_level = {f.name for f in dataclasses.fields(ParallaxConfig)}
        flat_names = {name for flat, _ in LEGACY_EQUIVALENTS
                      for name in flat} - top_level
        assert len(flat_names) == 7
        for name in sorted(flat_names):
            assert not hasattr(ParallaxConfig, name)
            with pytest.raises(AttributeError):
                getattr(config, name)

    def test_default_config_field_for_field(self):
        assert dataclasses.asdict(ParallaxConfig()) == {
            "architecture": "hybrid", "search_partitions": True,
            "max_partitions": 512, "sparse_as_dense_threshold": 0.95,
            "verify_plans": False, "seed": 0,
            "comm": {"fusion_buffer_mb": 4.0, "backend": "inproc",
                     "transport": None},
            "elastic": dataclasses.asdict(ElasticConfig()),
            "serve": dataclasses.asdict(ServeConfig()),
        }


# Settings no caller turned: each default is now the one behaviour (local
# aggregation and smart placement on the hybrid plan, averaged gradients,
# a session keeping every plan it compiles, ``save(path)`` with a path,
# and a work-conserving batcher with no delay to configure), plus the
# online replanner, the gradient codecs and the NIC-degradation sleep,
# which no workload ran; the cost constants and fault schedule that
# only the deleted recovery, rescale and goodput prices read; the
# partition search's sample counts and the alpha-measurement batches,
# now constants of ``core/api.py`` (``sparse_as_dense_threshold > 1``
# turns the measurement off); and the unfused AllReduce switch, now that
# every dense AllReduce is a fused bucket.
REMOVED_FIELDS = {
    "local_aggregation": (ParallaxConfig, False),
    "smart_placement": (ParallaxConfig, False),
    "average_dense": (ParallaxConfig, False),
    "average_sparse": (ParallaxConfig, False),
    "plan_cache_size": (ParallaxConfig, 8),
    "save_path": (ParallaxConfig, "ckpt.npz"),
    "max_delay_ms": (ServeConfig, 2.0),
    "autopilot": (ParallaxConfig, True),
    "compression": (CommConfig, "fp16"),
    "compression_ratio": (CommConfig, 0.5),
    "emulate_nic_bw": (ElasticConfig, 1e9),
    "ckpt_bw": (CostModel, 2.0e9),
    "c_failure_detect": (CostModel, 2.0),
    "c_worker_respawn": (CostModel, 5.0),
    "c_plan_compile": (CostModel, 0.05),
    "tcp_latency": (CostModel, 5.0e-5),
    "degradations": (FaultPlan, ()),
    "sample_iterations": (ParallaxConfig, 2),
    "sample_warmup": (ParallaxConfig, 1),
    "fusion": (CommConfig, False),
    "alpha_measure_batches": (ParallaxConfig, 0),
}


@pytest.mark.parametrize("name", sorted(REMOVED_FIELDS))
def test_removed_field_is_a_type_error(name):
    cls, value = REMOVED_FIELDS[name]
    with pytest.raises(TypeError, match=name):
        cls(**{name: value})
    assert not hasattr(cls(), name)


class TestShimStrictness:
    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="fusio"):
            ParallaxConfig(fusio=False)

    def test_grouped_plus_flat_same_group_is_a_type_error(self):
        with pytest.raises(TypeError, match="fusion"):
            ParallaxConfig(comm=CommConfig(), fusion=False)

    def test_wrong_grouped_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="CommConfig"):
            ParallaxConfig(comm=ServeConfig())
        for flag in (True, False):
            with pytest.raises(TypeError, match="ElasticConfig"):
                ParallaxConfig(elastic=flag)
        with pytest.raises(TypeError, match="ServeConfig"):
            ParallaxConfig(serve=None)


class TestDeprecatedReadAliases:
    # Nothing is deprecated any more; the id is pinned by the floor.
    def test_grouped_reads_do_not_warn(self):
        config = ParallaxConfig(elastic=ElasticConfig(enabled=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.comm.backend == "inproc"
            assert config.elastic.enabled is True
            assert config.serve.max_batch == 8

