"""SyncPlan validation and the architecture table's plan builders."""

import dataclasses
import importlib
from dataclasses import replace

import pytest

from repro.cli import _matrix_models
from repro.cluster.plan import (
    ARCHITECTURES,
    DEFAULT_SPARSE_AS_DENSE_THRESHOLD,
    SyncMethod,
    SyncPlan,
    VariableAssignment,
    profile_plan,
)
from repro.cluster.simulator import derive_profile
from repro.core.transform.plan import classify_variables, graph_plan
from repro.nn.profiles import (
    PAPER_PROFILES,
    VariableProfile,
    lm_profile,
    nmt_profile,
    resnet50_profile,
)


def dense_var(name="w", elements=1000):
    return VariableProfile(name, elements)


def sparse_var(name="emb", elements=1000, alpha=0.1, rows=100):
    return VariableProfile(name, elements, is_sparse=True, alpha=alpha,
                           rows=rows)


class TestVariableAssignment:
    def test_partitioning_requires_ps(self):
        with pytest.raises(ValueError, match="partitioning"):
            VariableAssignment(sparse_var(), SyncMethod.ALLGATHERV,
                               num_partitions=4)

    def test_partitions_bounded_by_rows(self):
        with pytest.raises(ValueError):
            VariableAssignment(sparse_var(rows=4), SyncMethod.PS,
                               num_partitions=8)

    def test_shard_nbytes(self):
        a = VariableAssignment(sparse_var(elements=1000, rows=100),
                               SyncMethod.PS, num_partitions=4)
        assert a.shard_nbytes == 1000 * 4 / 4

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            VariableAssignment(dense_var(), SyncMethod.PS, num_partitions=0)


class TestSyncPlan:
    def make_plan(self):
        return SyncPlan(
            "test",
            [
                VariableAssignment(dense_var("a"), SyncMethod.ALLREDUCE),
                VariableAssignment(sparse_var("b"), SyncMethod.PS,
                                   num_partitions=2),
                VariableAssignment(sparse_var("c"), SyncMethod.ALLGATHERV),
            ],
        )

    def test_by_method(self):
        plan = self.make_plan()
        assert len(plan.by_method(SyncMethod.PS)) == 1
        assert len(plan.gatherv_assignments) == 1
        assert plan.allreduce_bytes == 4000


class TestVariableProfile:
    def test_sparse_requires_rows(self):
        with pytest.raises(ValueError):
            VariableProfile("x", 10, is_sparse=True, alpha=0.5)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            VariableProfile("x", 10, alpha=0.0)
        with pytest.raises(ValueError):
            VariableProfile("x", 10, alpha=1.5)

    def test_grad_bytes_sparse_scaled_by_alpha(self):
        v = sparse_var(elements=1000, alpha=0.25, rows=100)
        assert v.grad_nbytes == 1000 * 0.25 * 4

    def test_grad_bytes_dense_full(self):
        assert dense_var(elements=10).grad_nbytes == 40


class TestBaselinePlans:
    def test_tf_ps_everything_on_ps(self):
        plan = profile_plan(lm_profile(), "ps", 16)
        assert all(a.method is SyncMethod.PS for a in plan.assignments)
        assert not plan.local_aggregation
        assert not plan.smart_placement

    def test_tf_ps_partitions_only_sparse(self):
        plan = profile_plan(lm_profile(), "ps", 16)
        for a in plan.assignments:
            if a.variable.is_sparse:
                assert a.num_partitions == 16
            else:
                assert a.num_partitions == 1

    def test_horovod_split_by_sparsity(self):
        plan = profile_plan(lm_profile(), "ar")
        for a in plan.assignments:
            expected = (SyncMethod.ALLGATHERV if a.variable.is_sparse
                        else SyncMethod.ALLREDUCE)
            assert a.method is expected

    def test_opt_ps_enables_optimizations(self):
        plan = profile_plan(nmt_profile(), "opt_ps", 8)
        assert plan.local_aggregation and plan.smart_placement
        assert all(a.method is SyncMethod.PS for a in plan.assignments)


class TestHybridPlan:
    def test_dense_to_ar_sparse_to_ps(self):
        plan = profile_plan(nmt_profile(), "hybrid", 4)
        for a in plan.assignments:
            expected = (SyncMethod.PS if a.variable.is_sparse
                        else SyncMethod.ALLREDUCE)
            assert a.method is expected

    def test_dense_model_is_pure_ar(self):
        plan = profile_plan(resnet50_profile(), "hybrid")
        assert all(a.method is SyncMethod.ALLREDUCE
                   for a in plan.assignments)
        assert not plan.ps_assignments

    def test_near_dense_sparse_variable_allreduced(self):
        profile = nmt_profile()
        high_alpha = VariableProfile("hot", 1000, is_sparse=True,
                                     alpha=0.97, rows=100)
        profile = type(profile)(
            name="custom",
            variables=list(profile.variables) + [high_alpha],
            batch_per_gpu=8, units_per_sample=1, unit="words",
            gpu_time_per_iter=0.1,
        )
        plan = profile_plan(profile, "hybrid", sparse_as_dense_threshold=0.95)
        by_name = {a.variable.name: a for a in plan.assignments}
        assert by_name["hot"].method is SyncMethod.ALLREDUCE
        assert by_name["encoder/embedding"].method is SyncMethod.PS

    def test_optimizations_default_on(self):
        plan = profile_plan(lm_profile(), "hybrid")
        assert plan.local_aggregation and plan.smart_placement


class TestPaperProfiles:
    def test_table1_element_counts(self):
        profiles = PAPER_PROFILES()
        assert profiles["resnet50"].dense_elements == pytest.approx(
            23.8e6, rel=0.001)
        assert profiles["resnet50"].sparse_elements == 0
        assert profiles["inception_v3"].dense_elements == pytest.approx(
            25.6e6, rel=0.001)
        assert profiles["lm"].dense_elements == pytest.approx(9.4e6, rel=0.01)
        assert profiles["lm"].sparse_elements == pytest.approx(813.3e6,
                                                               rel=0.001)
        assert profiles["nmt"].dense_elements == pytest.approx(94.1e6,
                                                               rel=0.001)
        assert profiles["nmt"].sparse_elements == pytest.approx(74.9e6,
                                                                rel=0.001)

    def test_lm_alpha_model_matches_table1(self):
        assert lm_profile().alpha_model == pytest.approx(0.02, abs=0.002)

    def test_resnet_fc_is_largest_dense_variable(self):
        """Paper: 'the largest variable in ... Inception-V3, weight of the
        fully connected layer, has 2.05 million elements.'"""
        profile = resnet50_profile()
        fc = profile.get_variable("fc")
        assert fc.num_elements == 2_049_000
        biggest = max(profile.variables, key=lambda v: v.num_elements)
        assert biggest.num_elements <= 4_456_448  # stage4 conv before scaling

    def test_lm_largest_sparse_variable_406m(self):
        """Paper: 'the embedding matrix has 406 million elements.'"""
        profile = lm_profile()
        emb = profile.get_variable("embedding")
        assert emb.num_elements == pytest.approx(406e6, rel=0.01)

    def test_dense_models_alpha_one(self):
        assert resnet50_profile().alpha_model == 1.0

    def test_units_per_iteration(self):
        lm = lm_profile()
        assert lm.units_per_iteration(48) == 48 * 128 * 20

    def test_get_variable_unknown_raises(self):
        with pytest.raises(KeyError):
            lm_profile().get_variable("nope")


class TestAllReduceBuckets:
    """Fusion-bucket shaping on the performance plane (SyncPlan)."""

    def make_plan(self, cap, elements=(100, 100, 100, 100)):
        assignments = [
            VariableAssignment(dense_var(f"w{i}", n), SyncMethod.ALLREDUCE)
            for i, n in enumerate(elements)
        ]
        return SyncPlan("p", assignments, fusion_buffer_mb=cap)

    def test_unfused_one_bucket_per_variable(self):
        plan = self.make_plan(0.0)
        assert plan.allreduce_buckets() == [400.0] * 4  # 100 f32 each

    def test_none_cap_matches_unfused_shape(self):
        plan = self.make_plan(None)
        assert len(plan.allreduce_buckets()) == 4

    def test_cap_groups_in_assignment_order(self):
        cap_mb = 800 / (1024 * 1024)  # two 400-byte variables per bucket
        buckets = self.make_plan(cap_mb).allreduce_buckets()
        assert buckets == [800.0, 800.0]

    def test_large_cap_single_bucket_conserves_bytes(self):
        plan = self.make_plan(64.0)
        buckets = plan.allreduce_buckets()
        assert len(buckets) == 1
        assert buckets[0] == float(plan.allreduce_bytes)

    def test_with_fusion_rewrites_only_the_cap(self):
        plan = self.make_plan(None)
        fused = replace(plan, fusion_buffer_mb=4.0)
        assert fused.fusion_buffer_mb == 4.0
        assert fused.assignments == plan.assignments
        assert plan.fusion_buffer_mb is None  # original untouched

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="fusion_buffer_mb"):
            self.make_plan(-1.0)

    def test_non_allreduce_variables_ignored(self):
        assignments = [
            VariableAssignment(dense_var("w", 100), SyncMethod.ALLREDUCE),
            VariableAssignment(sparse_var(), SyncMethod.PS),
        ]
        plan = SyncPlan("p", assignments, fusion_buffer_mb=64.0)
        assert plan.allreduce_buckets() == [400.0]


class TestOneArchitectureTable:
    """Both planes build their plans from ``ARCHITECTURES``, so a graph
    and its derived profile get the same method per variable (shards
    count as their parent) and the same OptPS flags."""

    @staticmethod
    def parent(graph, name):
        info = getattr(graph.variables[name], "partition_info", None)
        return info["parent"] if info else name

    def assert_congruent(self, model, arch, alphas, overrides=None):
        graph = model.graph
        partitions = max(
            [p.num_partitions for p in
             graph.get_collection("partitioned_variables")] or [1])
        engine = graph_plan(graph, arch, sparse_as_dense=overrides)
        simulator = profile_plan(derive_profile(model, alphas), arch,
                                 partitions)
        by_parent = {a.variable.name: a.method
                     for a in simulator.assignments}
        assert set(by_parent) == {self.parent(graph, name)
                                  for name in engine.methods}
        for name, method in engine.methods.items():
            assert method is by_parent[self.parent(graph, name)], \
                (arch, name)
        assert engine.local_aggregation == simulator.local_aggregation
        assert engine.smart_placement == simulator.smart_placement
        return engine, simulator

    @pytest.mark.parametrize("model_key", ["lm", "nmt"])
    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_same_method_per_variable_on_both_planes(self, model_key,
                                                     arch):
        model = _matrix_models()[model_key]()
        sparse = [n for n, s in classify_variables(model.graph).items()
                  if s]
        assert sparse
        engine, _ = self.assert_congruent(model, arch,
                                          {n: 0.1 for n in sparse})
        assert ({engine.methods[n] for n in sparse}
                == {ARCHITECTURES[arch].sparse})

    def test_near_dense_variable_goes_dense_on_both_planes(self):
        model = _matrix_models()["lm"]()
        graph = model.graph
        shards = [n for n, s in classify_variables(graph).items()
                  if s and self.parent(graph, n) == "embedding"]
        assert len(shards) == 3
        threshold = DEFAULT_SPARSE_AS_DENSE_THRESHOLD
        engine, simulator = self.assert_congruent(
            model, "hybrid", {n: threshold for n in shards},
            overrides={n: True for n in shards})
        assert all(engine.methods[n] is SyncMethod.ALLREDUCE
                   for n in shards)
        assert not simulator.ps_assignments

    @pytest.mark.parametrize("alpha", [None, 0.0, 1.5])
    def test_sparse_variable_without_measured_alpha_is_refused(self, alpha):
        # A guessed alpha of 1.0 would reach the hybrid's near-dense
        # threshold: the simulator would AllReduce the embedding the
        # engine keeps on PS.
        model = _matrix_models()["lm"]()
        alphas = ({} if alpha is None else
                  {n: alpha for n, s in
                   classify_variables(model.graph).items() if s})
        with pytest.raises(ValueError, match="'embedding'"):
            derive_profile(model, alphas)


def test_each_architecture_is_defined_once():
    """The per-architecture builders, their name maps and the unread
    ``SyncPlan`` flag are gone: ``ARCHITECTURES`` is the one definition."""
    for module in ("repro.baselines", "repro.core.hybrid"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    import repro.cli
    import repro.core

    for name in ("hybrid_plan", "parallax_plan", "ps_graph_plan"):
        assert name not in repro.core.__all__
        assert not hasattr(repro.core, name)
    assert not hasattr(repro.cli, "plan_for")
    assert "average_gradients" not in {
        f.name for f in dataclasses.fields(SyncPlan)}
