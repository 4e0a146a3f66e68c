"""Performance simulator: transfer-model consistency and paper orderings."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro

from repro.cluster.costmodel import CostModel, union_alpha
from repro.cluster.plan import SyncPlan, profile_plan
from repro.cluster.simulator import (
    derive_profile,
    shard_assignments,
    simulate_iteration,
    throughput,
)
from repro.cluster.spec import PAPER_CLUSTER, ClusterSpec
from repro.core.transform.plan import classify_variables
from repro.graph.gradients import gradients
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer
from repro.nn.profiles import (
    PAPER_PROFILES,
    ModelProfile,
    VariableProfile,
    lm_profile,
    resnet50_profile,
)


def single_var_profile(is_sparse: bool, elements=1_000_000, alpha=0.1):
    var = VariableProfile("v", elements, is_sparse=is_sparse,
                          alpha=alpha if is_sparse else 1.0,
                          rows=elements if is_sparse else None)
    return ModelProfile(name="single", variables=[var], batch_per_gpu=8,
                        units_per_sample=1, unit="images",
                        gpu_time_per_iter=0.05)


class TestShardAssignments:
    def test_partitions_expand_to_shards(self):
        profile = lm_profile()
        plan = profile_plan(profile, "ps", 8)
        shards = shard_assignments(plan, PAPER_CLUSTER)
        sparse_shards = [s for s in shards if s.is_sparse]
        assert len(sparse_shards) == 3 * 8

    def test_shards_spread_across_servers(self):
        profile = lm_profile()
        plan = profile_plan(profile, "ps", 16)
        shards = shard_assignments(plan, PAPER_CLUSTER)
        servers = {s.server for s in shards}
        assert servers == set(range(8))

    def test_shard_sizes_sum_to_variable(self):
        profile = lm_profile()
        plan = profile_plan(profile, "ps", 8)
        shards = shard_assignments(plan, PAPER_CLUSTER)
        emb_bytes = sum(s.nbytes for s in shards
                        if s.name.startswith("embedding/"))
        assert emb_bytes == pytest.approx(
            profile.get_variable("embedding").nbytes)


class TestArchitectureOrderings:
    """The paper's Table 1 claim: AR wins on dense, PS wins on sparse."""

    def test_ar_beats_ps_on_dense_models(self):
        for name in ("resnet50", "inception_v3"):
            profile = PAPER_PROFILES()[name]
            ar = throughput(profile, profile_plan(profile, "ar"), PAPER_CLUSTER)
            ps = throughput(profile, profile_plan(profile, "ps"), PAPER_CLUSTER)
            assert ar > ps, name

    def test_ps_beats_ar_on_sparse_models(self):
        for name, partitions in (("lm", 128), ("nmt", 64)):
            profile = PAPER_PROFILES()[name]
            ar = throughput(profile, profile_plan(profile, "ar"), PAPER_CLUSTER)
            ps = throughput(profile, profile_plan(profile, "ps", partitions),
                            PAPER_CLUSTER)
            assert ps > ar, name

    def test_hybrid_at_least_matches_best_pure(self):
        """Table 4: HYB >= max(AR, OptPS) for the sparse models."""
        for name, partitions in (("lm", 128), ("nmt", 64)):
            profile = PAPER_PROFILES()[name]
            hyb = throughput(profile, profile_plan(profile, "hybrid", partitions),
                             PAPER_CLUSTER)
            ar = throughput(profile, profile_plan(profile, "ar"), PAPER_CLUSTER)
            opt = throughput(profile, profile_plan(profile, "opt_ps", partitions),
                             PAPER_CLUSTER)
            assert hyb >= 0.99 * max(ar, opt), name

    def test_opt_ps_beats_naive_ps_on_sparse(self):
        for name, partitions in (("lm", 128), ("nmt", 64)):
            profile = PAPER_PROFILES()[name]
            naive = throughput(profile, profile_plan(profile, "ps", partitions),
                               PAPER_CLUSTER)
            opt = throughput(profile, profile_plan(profile, "opt_ps", partitions),
                             PAPER_CLUSTER)
            assert opt > naive, name

    def test_hybrid_equals_horovod_on_dense(self):
        """Parallax uses pure AR for dense models (paper section 6.2)."""
        profile = resnet50_profile()
        hyb = throughput(profile, profile_plan(profile, "hybrid"), PAPER_CLUSTER)
        ar = throughput(profile, profile_plan(profile, "ar"), PAPER_CLUSTER)
        assert hyb == pytest.approx(ar, rel=1e-6)


class TestScalingShapes:
    def test_parallax_scales_with_machines(self):
        """Fig 8: Parallax throughput grows with machine count."""
        for name, partitions in (("resnet50", 1), ("lm", 128), ("nmt", 64)):
            profile = PAPER_PROFILES()[name]
            values = [
                throughput(profile, profile_plan(profile, "hybrid", partitions),
                           ClusterSpec(n, 6))
                for n in (1, 2, 4, 8)
            ]
            assert values == sorted(values), name

    def test_horovod_lm_flat(self):
        """Fig 8(c): Horovod LM barely scales (gatherv volume grows with
        worker count as fast as compute capacity does)."""
        profile = lm_profile()
        t1 = throughput(profile, profile_plan(profile, "ar"), ClusterSpec(1, 6))
        t8 = throughput(profile, profile_plan(profile, "ar"), ClusterSpec(8, 6))
        assert t8 < 1.5 * t1

    def test_parallax_speedup_over_tfps_grows_with_scale(self):
        """Fig 8(c)/(d): the Parallax advantage widens with machines."""
        profile = lm_profile()
        ratios = []
        for n in (2, 8):
            cluster = ClusterSpec(n, 6)
            hyb = throughput(profile, profile_plan(profile, "hybrid", 128), cluster)
            ps = throughput(profile, profile_plan(profile, "ps", 128), cluster)
            ratios.append(hyb / ps)
        assert ratios[1] > ratios[0]

    def test_single_gpu_no_comm(self):
        profile = resnet50_profile()
        b = simulate_iteration(profile, profile_plan(profile, "hybrid"),
                               ClusterSpec(1, 1))
        assert b.iteration_time == pytest.approx(profile.gpu_time_per_iter)


class TestPartitionBehaviour:
    def test_partition_curve_convex_for_lm(self):
        """Table 2: throughput rises then falls as P grows."""
        profile = lm_profile()
        values = {
            p: throughput(profile, profile_plan(profile, "ps", p), PAPER_CLUSTER)
            for p in (1, 8, 64, 128, 1024)
        }
        assert values[8] > values[1]
        assert values[64] > values[8]
        assert values[1024] < values[128]

    def test_iteration_time_has_equation1_shape(self):
        """iter(P) ~ theta0 + theta1/P + theta2*P: the marginal gain of
        doubling P shrinks, and large P adds linear cost."""
        profile = lm_profile()
        times = {
            p: simulate_iteration(profile, profile_plan(profile, "ps", p),
                                  PAPER_CLUSTER).iteration_time
            for p in (4, 8, 16, 512, 1024)
        }
        gain_small = times[4] - times[8]
        gain_next = times[8] - times[16]
        assert gain_small > gain_next > 0
        assert times[1024] > times[512]


class TestTransferModel:
    """Per-machine PS flow bytes vs the closed forms of paper Table 3."""

    def test_dense_ps_pull_push_bytes(self):
        cluster = ClusterSpec(4, 1)  # one worker per machine, as in Table 3
        profile = single_var_profile(is_sparse=False)
        plan = profile_plan(profile, "ps")
        b = simulate_iteration(profile, plan, cluster)
        w = profile.variables[0].nbytes
        n = cluster.num_machines
        server = shard_assignments(plan, cluster)[0].server
        out_bytes = sum(v for (src, dst), v in b.ps_flow_bytes.items()
                        if src == server)
        in_bytes = sum(v for (src, dst), v in b.ps_flow_bytes.items()
                       if dst == server)
        # Table 3, PS dense, one variable: 2w(N-1) total for the server.
        assert out_bytes == pytest.approx(w * (n - 1))
        assert in_bytes == pytest.approx(w * (n - 1))

    def test_sparse_ps_bytes_scaled_by_alpha(self):
        cluster = ClusterSpec(4, 1)
        alpha = 0.2
        profile = single_var_profile(is_sparse=True, alpha=alpha)
        plan = profile_plan(profile, "ps")
        b = simulate_iteration(profile, plan, cluster)
        w = profile.variables[0].nbytes
        n = cluster.num_machines
        total = sum(b.ps_flow_bytes.values())
        # Table 3, PS sparse: 2*alpha*w*(N-1).
        assert total == pytest.approx(2 * alpha * w * (n - 1))

    def test_local_aggregation_reduces_push_bytes(self):
        cluster = ClusterSpec(4, 6)
        profile = single_var_profile(is_sparse=True, alpha=0.05)
        naive = simulate_iteration(profile, profile_plan(profile, "ps"), cluster)
        opt = simulate_iteration(profile, profile_plan(profile, "opt_ps"), cluster)
        assert sum(opt.ps_flow_bytes.values()) < \
            sum(naive.ps_flow_bytes.values())

    def test_smart_placement_removes_extra_hop(self):
        """Without smart placement, aggregated gradients of variables not
        hosted on the chief machine make an extra chief->server hop."""
        cluster = ClusterSpec(4, 2)
        variables = [
            VariableProfile(f"emb{i}", 100_000, is_sparse=True, alpha=0.1,
                            rows=1000)
            for i in range(4)  # spread over all 4 servers
        ]
        profile = ModelProfile(name="multi", variables=variables,
                               batch_per_gpu=8, units_per_sample=1,
                               unit="words", gpu_time_per_iter=0.05)
        naive = profile_plan(profile, "ps")
        smart = SyncPlan(
            "smart", naive.assignments,
            local_aggregation=False, smart_placement=True,
        )
        b_naive = simulate_iteration(profile, naive, cluster)
        b_smart = simulate_iteration(profile, smart, cluster)
        assert sum(b_smart.ps_flow_bytes.values()) < \
            sum(b_naive.ps_flow_bytes.values())


class TestUnionAlpha:
    def test_identity_for_one_worker(self):
        assert union_alpha(0.3, 1, 0.5) == pytest.approx(0.3)

    def test_bounded_by_independent_union(self):
        independent = 1 - (1 - 0.1) ** 6
        assert 0.1 <= union_alpha(0.1, 6, 0.5) <= independent

    def test_full_overlap_stays_alpha(self):
        assert union_alpha(0.1, 6, 1.0) == pytest.approx(0.1)

    def test_zero_overlap_is_independent(self):
        assert union_alpha(0.1, 6, 0.0) == pytest.approx(1 - 0.9 ** 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            union_alpha(0.0, 3, 0.5)
        with pytest.raises(ValueError):
            union_alpha(0.5, 0, 0.5)


class TestCostModel:
    def test_defaults_valid(self):
        CostModel()

    def test_overrides(self):
        cm = CostModel().with_overrides(nccl_bw=1e9)
        assert cm.nccl_bw == 1e9

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            CostModel(nccl_bw=0)

    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError):
            CostModel(dense_ps_overlap=-0.1)
        with pytest.raises(ValueError):
            CostModel(zipf_overlap=1.5)


class TestCalibration:
    """Simulated 48-GPU throughput within 2x of every paper number
    (absolute match is not required; the shape tests above are)."""

    TARGETS = [
        ("resnet50", "horovod", 1, 7600), ("resnet50", "tf_ps", 1, 5800),
        ("inception_v3", "horovod", 1, 5900),
        ("inception_v3", "tf_ps", 1, 3800),
        ("lm", "horovod", 128, 45500), ("lm", "tf_ps", 128, 98900),
        ("lm", "opt_ps", 128, 250000), ("lm", "parallax", 128, 274000),
        ("nmt", "horovod", 64, 68300), ("nmt", "tf_ps", 64, 102000),
        ("nmt", "opt_ps", 64, 116000), ("nmt", "parallax", 64, 204000),
    ]

    @pytest.mark.parametrize("model,arch,partitions,paper", TARGETS)
    def test_within_factor_two(self, model, arch, partitions, paper):
        profile = PAPER_PROFILES()[model]
        builders = {
            "horovod": lambda: profile_plan(profile, "ar"),
            "tf_ps": lambda: profile_plan(profile, "ps", partitions),
            "opt_ps": lambda: profile_plan(profile, "opt_ps", partitions),
            "parallax": lambda: profile_plan(profile, "hybrid", partitions),
        }
        simulated = throughput(profile, builders[arch](), PAPER_CLUSTER)
        assert 0.5 < simulated / paper < 2.0


class TestBucketedAllReducePricing:
    """Fusion-aware collective accounting: the launch-latency term makes
    iteration time bucket-count sensitive, and overlap hides collective
    time under backward compute."""

    CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)

    def breakdown(self, buffer_mb, **cost_overrides):
        profile = resnet50_profile()
        plan = dataclasses.replace(profile_plan(profile, "ar"),
                                   fusion_buffer_mb=buffer_mb)
        cost = CostModel().with_overrides(**cost_overrides)
        return simulate_iteration(profile, plan, self.CLUSTER, cost)

    def test_more_buckets_cost_more_launch_latency(self):
        unfused = self.breakdown(0.0, ar_overlap=0.0)
        fused = self.breakdown(64.0, ar_overlap=0.0)
        assert unfused.num_ar_buckets > fused.num_ar_buckets
        assert unfused.iteration_time > fused.iteration_time
        assert unfused.allreduce_raw_time > fused.allreduce_raw_time

    def test_launch_latency_term_scales_with_bucket_count(self):
        """Doubling the per-collective launch cost moves iteration time
        by exactly launch_delta x num_buckets (overlap off)."""
        base, bumped = 5e-5, 1e-4
        a = self.breakdown(0.0, ar_overlap=0.0, c_collective_launch=base)
        b = self.breakdown(0.0, ar_overlap=0.0, c_collective_launch=bumped)
        assert a.num_ar_buckets == b.num_ar_buckets > 1
        expected = (bumped - base) * a.num_ar_buckets
        assert b.iteration_time - a.iteration_time == pytest.approx(expected)

    def test_bucket_count_monotone_in_buffer_cap(self):
        counts = [self.breakdown(mb, ar_overlap=0.0).num_ar_buckets
                  for mb in (0.0, 1.0, 4.0, 64.0)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]

    def test_overlap_hides_collectives_under_compute(self):
        exposed = self.breakdown(4.0, ar_overlap=0.0)
        hidden = self.breakdown(4.0, ar_overlap=1.0)
        assert hidden.allreduce_time < exposed.allreduce_time
        assert hidden.allreduce_raw_time == exposed.allreduce_raw_time
        assert hidden.allreduce_time >= 0.0

    def test_legacy_aggregate_pricing_unchanged(self):
        """fusion_buffer_mb=None keeps the seed's aggregate ring price:
        no launch term, no overlap, no bucket accounting."""
        legacy = self.breakdown(None, c_collective_launch=1.0,
                                ar_overlap=1.0)
        assert legacy.num_ar_buckets == 0
        assert legacy.allreduce_raw_time == 0.0
        assert legacy.allreduce_time > 0.0

    def test_single_bucket_beats_legacy_only_by_launch_cost(self):
        """One bucket prices the same ring as the legacy aggregate, plus
        exactly one launch (overlap off)."""
        legacy = self.breakdown(None)
        one = self.breakdown(10_000.0, ar_overlap=0.0)
        assert one.num_ar_buckets == 1
        assert one.allreduce_time - legacy.allreduce_time == pytest.approx(
            CostModel().c_collective_launch)

    def test_cost_model_validates_new_knobs(self):
        with pytest.raises(ValueError, match="ar_overlap"):
            CostModel(ar_overlap=1.5)
        with pytest.raises(ValueError, match="c_collective_launch"):
            CostModel(c_collective_launch=-1e-6)


class TestDeriveProfile:
    def test_partitioned_lm_merges_shards_into_their_parent(self):
        model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                         hidden=10, num_partitions=3, seed=0)
        with model.graph.as_default():
            GradientDescentOptimizer(0.4).update(gradients(model.loss))
        sparse = classify_variables(model.graph)
        profile = derive_profile(model, alphas={"embedding/part_1": 0.25},
                                 gpu_time_per_iter=0.002)
        by_name = {v.name: v for v in profile.variables}
        # The three row shards (14 + 13 + 13 rows of 8) are one variable.
        shards = [f"embedding/part_{p}" for p in range(3)]
        assert not set(shards) & set(by_name)
        embedding = by_name["embedding"]
        assert embedding.num_elements == 40 * 8
        assert embedding.rows == 40
        assert all(sparse[s] for s in shards) and embedding.is_sparse
        assert embedding.alpha == 0.25
        # Unpartitioned variables pass through; dense ones carry alpha 1.
        for name, var in by_name.items():
            if name == "embedding":
                continue
            assert var.is_sparse is sparse[name]
            assert var.num_elements == model.graph.variables[name].num_elements
            assert (var.alpha, var.rows) == (1.0, None)
        assert profile.batch_per_gpu == 4
        assert profile.gpu_time_per_iter == 0.002


def test_every_cost_constant_is_read_by_a_price():
    """A ``CostModel`` field exists only while some price reads it: a read
    outside ``CostModel``'s own body, anywhere in the package."""
    read = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "CostModel":
                own.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in own):
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(CostModel)
              if f.name not in read]
    assert unread == [], f"CostModel fields no price reads: {unread}"
