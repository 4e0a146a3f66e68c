"""Ablations of the design choices DESIGN.md calls out.

Not a paper table -- these sweeps probe the decisions behind the headline
results: local aggregation, smart placement, the sparse-as-dense alpha
threshold, and the partition sampling policy.
"""

from dataclasses import replace

import pytest

from conftest import _mark_benchmark, fmt, print_table
from repro.cluster.plan import profile_plan
from repro.cluster.simulator import simulate_iteration, throughput
from repro.cluster.spec import ClusterSpec
from repro.core.partitioner import PartitionSearch, fit_cost_model
from repro.nn.profiles import ModelProfile, VariableProfile


class TestLocalAggregationAblation:
    def test_gain_grows_with_gpus_per_machine(self, benchmark, profiles, paper_cluster):
        _mark_benchmark(benchmark)
        """Local aggregation merges G per-machine gradients into one; its
        benefit should grow with G."""
        profile = profiles["lm"]
        gains = []
        for gpus in (2, 6):
            cluster = ClusterSpec(8, gpus)
            opt = profile_plan(profile, "hybrid", 128)
            base = replace(opt, local_aggregation=False)
            t_base = throughput(profile, base, cluster)
            t_opt = throughput(profile, opt, cluster)
            gains.append(t_opt / t_base)
        print(f"\nlocal-agg gain: G=2 -> {gains[0]:.2f}x, "
              f"G=6 -> {gains[1]:.2f}x")
        assert gains[1] > gains[0] > 1.0


class TestSmartPlacementAblation:
    def test_placement_matters_more_without_local_agg(self, benchmark,
                                                      profiles,
                                                      paper_cluster):
        _mark_benchmark(benchmark)
        profile = profiles["nmt"]
        rows = []
        results = {}
        for local in (False, True):
            for smart in (False, True):
                plan = replace(profile_plan(profile, "hybrid", 64),
                               local_aggregation=local,
                               smart_placement=smart)
                tp = throughput(profile, plan, paper_cluster)
                results[(local, smart)] = tp
                rows.append([local, smart, fmt(tp)])
        print_table("NMT hybrid: local_agg x smart_placement",
                    ["local_agg", "smart", "words/s"], rows)
        assert results[(True, True)] >= results[(False, False)]


class TestSparseAsDenseThreshold:
    def make_profile(self, alpha):
        variables = [
            VariableProfile("dense", 5_000_000),
            VariableProfile("emb", 20_000_000, is_sparse=True, alpha=alpha,
                            rows=100_000),
        ]
        return ModelProfile(name=f"thresh_{alpha}", variables=variables,
                            batch_per_gpu=64, units_per_sample=1,
                            unit="words", gpu_time_per_iter=0.08)

    def test_crossover_exists(self, benchmark, paper_cluster):
        _mark_benchmark(benchmark)
        """Below some alpha PS wins; near alpha = 1 AR wins -- the basis
        of the sparse_as_dense_threshold (paper section 3.1)."""
        rows = []
        wins = {}
        for alpha in (0.01, 0.1, 0.5, 0.99):
            profile = self.make_profile(alpha)
            ps_plan = profile_plan(profile, "hybrid", 32,
                                   sparse_as_dense_threshold=1.1)
            ar_plan = profile_plan(profile, "hybrid", 32,
                                   sparse_as_dense_threshold=0.0)
            ps = throughput(profile, ps_plan, paper_cluster)
            ar = throughput(profile, ar_plan, paper_cluster)
            wins[alpha] = "AR" if ar > ps else "PS"
            rows.append([alpha, fmt(ps), fmt(ar), wins[alpha]])
        print_table("sparse-as-dense crossover",
                    ["alpha", "as PS", "as AR (dense)", "winner"], rows)
        assert wins[0.01] == "PS"
        assert wins[0.99] == "AR"


class TestSamplingPolicyAblation:
    def test_bracket_beats_fixed_grid_on_sample_count(self, benchmark,
                                                      profiles,
                                                      paper_cluster):
        _mark_benchmark(benchmark)
        """The doubling/halving bracket uses fewer samples than a fixed
        power-of-two grid of the same range, with equal outcome quality."""
        profile = profiles["lm"]

        calls = []

        def measure(p):
            calls.append(p)
            plan = profile_plan(profile, "hybrid", p)
            return simulate_iteration(profile, plan,
                                      paper_cluster).iteration_time

        search = PartitionSearch(measure, initial=8, max_partitions=1024)
        result = search.run()
        bracket_calls = len(calls)

        grid = [2 ** k for k in range(0, 11)]
        grid_samples = [(p, measure(p)) for p in grid]
        grid_best = min(grid_samples, key=lambda kv: kv[1])[0]

        print(f"\nbracket: {bracket_calls} samples -> "
              f"P={result.best_partitions}; grid: {len(grid)} samples -> "
              f"P={grid_best}")
        assert bracket_calls <= len(grid)
        assert measure(result.best_partitions) <= \
            1.05 * measure(grid_best)

    def test_fitted_model_interpolates_unsampled_points(self, benchmark,
                                                        profiles,
                                                        paper_cluster):
        _mark_benchmark(benchmark)
        profile = profiles["lm"]

        def measure(p):
            plan = profile_plan(profile, "hybrid", p)
            return simulate_iteration(profile, plan,
                                      paper_cluster).iteration_time

        samples = [(p, measure(p)) for p in (8, 16, 32, 64, 128, 256)]
        model = fit_cost_model(samples)
        for p in (24, 96, 192):
            predicted = model.predict(p)
            actual = measure(p)
            assert predicted == pytest.approx(actual, rel=0.25)


def test_bench_ablation_grid(benchmark, profiles, paper_cluster):
    profile = profiles["nmt"]

    def grid():
        out = []
        for local in (False, True):
            plan = replace(profile_plan(profile, "hybrid", 64),
                           local_aggregation=local)
            out.append(throughput(profile, plan, paper_cluster))
        return out

    values = benchmark(grid)
    assert len(values) == 2


class TestFusionBufferAblation:
    """Tensor-fusion buffer cap vs iteration time (the tentpole's
    performance plane): per-collective launch latency makes many small
    buckets slow, while one giant bucket forfeits nothing at this scale
    -- the sweep the paper-era Horovod fusion knob trades over."""

    def test_iteration_time_tracks_bucket_count(self, benchmark,
                                                profiles, paper_cluster):
        _mark_benchmark(benchmark)
        from repro.cluster.costmodel import CostModel

        profile = profiles["resnet50"]
        cost = CostModel(ar_overlap=0.0)  # expose the launch term
        rows = []
        results = []
        for cap_mb in (0.0, 1.0, 4.0, 16.0, 64.0):
            plan = replace(profile_plan(profile, "ar"),
                           fusion_buffer_mb=cap_mb)
            b = simulate_iteration(profile, plan, paper_cluster, cost)
            results.append((b.num_ar_buckets, b.iteration_time))
            rows.append([cap_mb, b.num_ar_buckets,
                         fmt(b.allreduce_time * 1e3),
                         fmt(b.iteration_time * 1e3)])
        print_table("ResNet-50 AllReduce fusion-buffer sweep",
                    ["buffer MB", "buckets", "AR ms", "iter ms"], rows)
        buckets = [r[0] for r in results]
        times = [r[1] for r in results]
        assert buckets == sorted(buckets, reverse=True)
        assert times == sorted(times, reverse=True)
        # The gap between unfused and fully fused is at least the launch
        # latency the extra collectives pay.
        assert times[0] - times[-1] >= (
            cost.c_collective_launch * (buckets[0] - buckets[-1]))
