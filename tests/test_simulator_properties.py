"""Property-style invariants of the performance simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CostModel
from repro.cluster.plan import profile_plan
from repro.cluster.simulator import simulate_iteration, throughput
from repro.cluster.spec import ClusterSpec
from repro.nn.profiles import ModelProfile, VariableProfile


def profile_from(dense_m: float, sparse_m: float, alpha: float,
                 compute: float = 0.1) -> ModelProfile:
    variables = []
    if int(dense_m * 1e6) > 0:
        variables.append(
            VariableProfile("dense", int(dense_m * 1e6))
        )
    if int(sparse_m * 1e6) > 0:
        variables.append(
            VariableProfile("sparse", int(sparse_m * 1e6), is_sparse=True,
                            alpha=alpha, rows=max(1, int(sparse_m * 1e4)))
        )
    if not variables:
        variables.append(VariableProfile("dense", 1000))
    return ModelProfile(name="prop", variables=variables, batch_per_gpu=32,
                        units_per_sample=1, unit="words",
                        gpu_time_per_iter=compute)


@settings(max_examples=25, deadline=None)
@given(st.floats(1.0, 200.0), st.floats(0.0, 500.0),
       st.floats(0.005, 0.9))
def test_iteration_time_positive_and_at_least_compute(dense_m, sparse_m,
                                                      alpha):
    profile = profile_from(dense_m, sparse_m, alpha)
    cluster = ClusterSpec(4, 2)
    for arch, partitions in (("ps", 1), ("ar", 1), ("hybrid", 8)):
        plan = profile_plan(profile, arch, partitions)
        b = simulate_iteration(profile, plan, cluster)
        assert b.iteration_time >= profile.gpu_time_per_iter - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(5.0, 100.0), st.floats(0.01, 0.5))
def test_more_bandwidth_never_slower(dense_m, alpha):
    profile = profile_from(dense_m, dense_m, alpha)
    cluster = ClusterSpec(4, 4)
    slow = CostModel()
    fast = slow.with_overrides(
        nccl_bw=slow.nccl_bw * 2, mpi_bw=slow.mpi_bw * 2,
        ps_nic_bw=slow.ps_nic_bw * 2,
        worker_stream_bw=slow.worker_stream_bw * 2,
    )
    for arch in ("ps", "ar"):
        plan = profile_plan(profile, arch)
        t_slow = simulate_iteration(profile, plan, cluster,
                                    slow).iteration_time
        t_fast = simulate_iteration(profile, plan, cluster,
                                    fast).iteration_time
        assert t_fast <= t_slow + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(10.0, 300.0), st.floats(0.01, 0.3))
def test_gatherv_time_grows_with_alpha(sparse_m, alpha):
    cluster = ClusterSpec(4, 4)
    low = profile_from(1.0, sparse_m, alpha)
    high = profile_from(1.0, sparse_m, min(0.95, alpha * 2))
    t_low = simulate_iteration(low, profile_plan(low, "ar"), cluster)
    t_high = simulate_iteration(high, profile_plan(high, "ar"), cluster)
    assert t_high.gatherv_time >= t_low.gatherv_time


class TestMonotonicity:
    def test_total_throughput_grows_with_machines_hybrid(self):
        profile = profile_from(50.0, 400.0, 0.01)
        values = [
            throughput(profile, profile_plan(profile, "hybrid", 64),
                       ClusterSpec(n, 4))
            for n in (2, 4, 8)
        ]
        assert values == sorted(values)

    def test_local_agg_never_hurts(self):
        for alpha in (0.01, 0.1, 0.4):
            profile = profile_from(20.0, 200.0, alpha)
            cluster = ClusterSpec(8, 6)
            naive = throughput(profile, profile_plan(profile, "ps", 32), cluster)
            opt = throughput(profile, profile_plan(profile, "opt_ps", 32), cluster)
            assert opt >= naive

    def test_compute_dominated_regime_architecture_agnostic(self):
        """With enormous compute and tiny variables, all architectures
        converge to the compute bound."""
        profile = profile_from(0.001, 0.001, 0.5, compute=10.0)
        cluster = ClusterSpec(4, 2)
        times = [
            simulate_iteration(profile, profile_plan(profile, arch),
                               cluster).iteration_time
            for arch in ("ps", "ar", "hybrid")
        ]
        for t in times:
            assert t == pytest.approx(10.0, rel=0.05)

    def test_breakdown_components_sum_consistently(self):
        profile = profile_from(50.0, 400.0, 0.02)
        b = simulate_iteration(profile, profile_plan(profile, "hybrid", 32),
                               ClusterSpec(8, 6))
        recomposed = (b.compute_time
                      + max(b.collective_time, b.ps_time)
                      + b.server_cpu_time + b.local_agg_time
                      + b.stitch_time + b.sync_overhead_time)
        assert b.iteration_time == pytest.approx(recomposed, rel=1e-9)

    def test_hot_spot_metric_larger_for_fewer_partitions(self):
        """With one partition the owning server's flows concentrate; more
        partitions spread bytes across servers."""
        profile = profile_from(0.0, 400.0, 0.05)
        cluster = ClusterSpec(8, 6)
        few = simulate_iteration(profile, profile_plan(profile, "ps", 1), cluster)
        many = simulate_iteration(profile, profile_plan(profile, "ps", 64), cluster)

        def max_nic(breakdown):
            loads = {}
            for (src, dst), nbytes in breakdown.ps_flow_bytes.items():
                loads[src] = loads.get(src, 0.0) + nbytes
            return max(loads.values())

        assert max_nic(few) > max_nic(many)
