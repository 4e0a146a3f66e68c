"""The gradient-compression plane: codecs, invariants, and differentials.

Four layers of coverage:

1. codec units -- top-k selection, fp16 round trips, wire-size math;
2. hypothesis properties -- the error-feedback conservation law
   (``sent + residual == original``), top-k magnitude dominance, fp16
   exactness on representable values, mass-preserving residual
   re-sharding;
3. end-to-end training -- bytes-on-wire reduction, the convergence
   contract, and the inproc/multiproc differential (identical losses bit
   for bit under every codec);
4. the pricing stack -- compressed wire bytes, compression compute
   terms, and the bandwidth-budget plan picker.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_interpreter import interpreted_runner

from repro.cluster.spec import ClusterSpec
from repro.comm.compression import (
    EF_RESIDUAL_SUFFIX,
    FP16Compressor,
    TopKCompressor,
    decompress,
    is_residual_name,
    make_compressor,
    parse_spec,
    spec_uses_error_feedback,
    wire_bytes,
    wire_fraction,
)
from repro.core.api import CommConfig, ParallaxConfig
from repro.core.elastic import ElasticRunner, reshard_logical_state
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import (
    GraphSyncPlan,
    ar_graph_plan,
    hybrid_graph_plan,
)
from repro.graph.gradients import gradients
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def small_lm(num_partitions=3, seed=0, lr=0.1):
    model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                     hidden=10, num_partitions=num_partitions, seed=seed)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(lr).update(gvs)
    return model


def compressed_runner(compression, ratio=0.2, cluster=None, backend="inproc",
                      num_partitions=3, fusion=True):
    cluster = cluster or ClusterSpec(2, 2)
    model = small_lm(num_partitions=num_partitions)
    plan = ar_graph_plan(model.graph, fusion=fusion, compression=compression,
                         compression_ratio=ratio)
    return DistributedRunner(model, cluster, plan, seed=0, backend=backend)


# ----------------------------------------------------------------------
# Codec units
# ----------------------------------------------------------------------
class TestCodecs:
    def test_parse_spec_normalizes_and_rejects(self):
        assert parse_spec("topk") == ("topk",)
        assert parse_spec("fp16+topk") == ("topk", "fp16")
        for bad in ("gzip", "topk+topk", "", "topk+"):
            with pytest.raises(ValueError):
                parse_spec(bad)

    def test_error_feedback_only_for_topk(self):
        assert spec_uses_error_feedback("topk")
        assert spec_uses_error_feedback("topk+fp16")
        assert not spec_uses_error_feedback("fp16")
        assert not spec_uses_error_feedback(None)

    def test_topk_keeps_requested_fraction(self):
        comp = TopKCompressor(0.25)
        payload = comp.encode_flat(np.arange(100, dtype=np.float32))
        assert payload.kind == "flat"
        assert payload.values.size == 25
        assert payload.indices.dtype == np.int32

    def test_topk_flat_roundtrip_places_kept_values(self):
        arr = np.array([[0.1, -5.0], [3.0, 0.01]], dtype=np.float32)
        payload = TopKCompressor(0.5).encode_flat(arr)
        dense = decompress(payload)
        assert dense.shape == arr.shape
        np.testing.assert_array_equal(
            dense, np.array([[0.0, -5.0], [3.0, 0.0]], dtype=np.float32))

    def test_topk_deterministic_on_ties(self):
        arr = np.array([1.0, 1.0, 1.0, 1.0], dtype=np.float32)
        a = TopKCompressor(0.5).encode_flat(arr)
        b = TopKCompressor(0.5).encode_flat(arr.copy())
        np.testing.assert_array_equal(a.indices, b.indices)
        # Stable tie-break: lowest indices win.
        np.testing.assert_array_equal(a.indices, [0, 1])

    def test_topk_rows_selects_largest_rows(self):
        dense = np.zeros((10, 2), dtype=np.float32)
        dense[3] = 5.0
        dense[7] = 1.0
        dense[9] = 3.0
        payload = TopKCompressor(0.5).encode_rows(dense)
        slices = decompress(payload)
        assert sorted(slices.indices.tolist()) == [3, 9]

    def test_fp16_dense_payload_halves_bytes(self):
        arr = np.ones((8, 4), dtype=np.float32)
        payload = FP16Compressor().encode_flat(arr)
        assert payload.kind == "dense"
        assert payload.nbytes == arr.nbytes // 2
        assert payload.raw_nbytes == arr.nbytes

    def test_make_compressor_dispatch(self):
        assert isinstance(make_compressor("fp16"), FP16Compressor)
        topk = make_compressor("topk+fp16", 0.3)
        assert isinstance(topk, TopKCompressor)
        assert topk.fp16 and topk.ratio == 0.3

    def test_wire_fraction_math(self):
        # topk: ratio * (4-byte value + 4-byte index) / 4-byte raw.
        assert wire_fraction("topk", 0.1) == pytest.approx(0.2)
        # topk+fp16: ratio * (2 + 4) / 4.
        assert wire_fraction("topk+fp16", 0.1) == pytest.approx(0.15)
        assert wire_fraction("fp16", 0.1) == pytest.approx(0.5)
        assert wire_bytes(None, 0.1, 1000) == 1000
        assert wire_bytes("fp16", 0.1, 1000) == 500

    def test_rows_payload_has_no_raw_size(self):
        payload = TopKCompressor(0.5).encode_rows(
            np.ones((4, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            payload.raw_nbytes

    def test_residual_name_predicate(self):
        assert is_residual_name("softmax/kernel" + EF_RESIDUAL_SUFFIX)
        assert is_residual_name("rep2/w" + EF_RESIDUAL_SUFFIX)
        assert not is_residual_name("softmax/kernel")


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------
def arrays_strategy(max_size=64):
    return st.builds(
        lambda n, seed: np.random.default_rng(seed)
        .standard_normal(n).astype(np.float32),
        st.integers(1, max_size),
        st.integers(0, 2 ** 16),
    )


class TestProperties:
    @given(arrays_strategy(), st.floats(0.05, 1.0))
    def test_topk_keeps_k_largest_magnitudes(self, arr, ratio):
        payload = TopKCompressor(ratio).encode_flat(arr)
        kept = np.zeros(arr.size, dtype=bool)
        kept[payload.indices] = True
        if (~kept).any() and kept.any():
            assert np.abs(arr[kept]).min() >= np.abs(arr[~kept]).max()

    @given(arrays_strategy(), st.floats(0.05, 1.0))
    def test_error_feedback_conserves_mass_exactly(self, arr, ratio):
        """residual + sent == original, bit for bit in pure fp32 top-k.

        This is the invariant the grad_compress kernel maintains: what
        is not on the wire is in the residual, nothing is lost.
        """
        payload = TopKCompressor(ratio).encode_flat(arr)
        sent = decompress(payload).reshape(-1)
        residual = arr.copy()
        residual[payload.indices] -= payload.values.astype(np.float32)
        np.testing.assert_array_equal(sent + residual, arr)

    @given(arrays_strategy(), st.floats(0.05, 1.0))
    def test_error_feedback_mass_close_under_fp16(self, arr, ratio):
        """With fp16-quantized values the conservation law holds to fp16
        rounding (the quantization error lands in the residual)."""
        payload = TopKCompressor(ratio, fp16=True).encode_flat(arr)
        sent = decompress(payload).reshape(-1)
        residual = arr.copy()
        residual[payload.indices] -= payload.values.astype(np.float32)
        np.testing.assert_allclose(sent + residual, arr,
                                   rtol=1e-3, atol=1e-6)

    @given(st.integers(1, 64), st.integers(0, 2 ** 16))
    def test_fp16_roundtrip_exact_on_representable(self, n, seed):
        rng = np.random.default_rng(seed)
        representable = rng.standard_normal(n).astype(np.float16).astype(
            np.float32)
        out = decompress(FP16Compressor().encode_flat(representable))
        np.testing.assert_array_equal(out, representable)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 16))
    def test_residual_reshard_preserves_rows(self, old_p, new_p, seed):
        """Row-sharded residuals re-shard like optimizer slots: the
        concatenation over shards is invariant, so no residual mass
        moves or disappears across a partition-count change."""
        from repro.graph.variables import partition_offsets

        rows, dim = 12, 3
        rng = np.random.default_rng(seed)
        old_p = min(old_p, rows)
        new_p = min(new_p, rows)
        old_offsets = partition_offsets(rows, old_p)
        new_offsets = partition_offsets(rows, new_p)
        full = rng.standard_normal((rows, dim)).astype(np.float32)
        state = {}
        for p in range(old_p):
            lo, hi = old_offsets[p], old_offsets[p + 1]
            state[f"emb/part_{p}"] = full[lo:hi].copy()
            state[f"emb/part_{p}{EF_RESIDUAL_SUFFIX}"] = \
                (full[lo:hi] * 2).copy()
        out = reshard_logical_state(
            state, {"emb": list(old_offsets)}, {"emb": list(new_offsets)})
        rebuilt = np.concatenate(
            [out[f"emb/part_{p}{EF_RESIDUAL_SUFFIX}"]
             for p in range(new_p)])
        np.testing.assert_array_equal(rebuilt, full * 2)


# ----------------------------------------------------------------------
# Plan / config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_graph_plan_rejects_unknown_codec(self):
        model = small_lm()
        with pytest.raises(ValueError, match="compression"):
            ar_graph_plan(model.graph, compression="gzip")

    def test_graph_plan_rejects_bad_ratio(self):
        model = small_lm()
        for ratio in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="compression_ratio"):
                ar_graph_plan(model.graph, compression="topk",
                              compression_ratio=ratio)

    def test_async_plans_reject_compression(self):
        from repro.cluster.plan import SyncMethod

        with pytest.raises(ValueError, match="asynchronous"):
            GraphSyncPlan("x", {"w": SyncMethod.PS}, asynchronous=True,
                          compression="fp16")

    def test_parallax_config_validates_compression(self):
        ParallaxConfig(comm=CommConfig(compression="topk+fp16",
                                       compression_ratio=0.5))
        with pytest.raises(ValueError, match="compression"):
            CommConfig(compression="gzip")
        with pytest.raises(ValueError, match="compression_ratio"):
            CommConfig(compression="topk", compression_ratio=0.0)
        with pytest.raises(ValueError, match="collective"):
            ParallaxConfig(architecture="ps",
                           comm=CommConfig(compression="fp16"))

    def test_get_runner_threads_compression_through(self):
        from repro.core.api import get_runner

        runner = get_runner(
            small_lm, ClusterSpec(2, 1),
            ParallaxConfig(architecture="ar",
                           comm=CommConfig(compression="topk",
                                           compression_ratio=0.25),
                           search_partitions=False,
                           alpha_measure_batches=0))
        assert runner.plan.compression == "topk"
        assert runner.plan.compression_ratio == 0.25
        assert runner.transformed.residual_variables
        assert np.isfinite(runner.step(0).mean_loss)


# ----------------------------------------------------------------------
# Transform structure
# ----------------------------------------------------------------------
class TestTransformStructure:
    def test_compressed_ops_replace_exact_collectives(self):
        runner = compressed_runner("topk")
        ops = [op.op_type for op in runner.transformed.graph.operations]
        assert "compressed_allreduce" in ops
        assert "compressed_allgatherv" in ops
        assert "allreduce" not in ops
        assert "fused_allreduce" not in ops
        assert "allgatherv" not in ops

    def test_residual_variables_per_replica_topk_only(self):
        runner = compressed_runner("topk")
        residuals = runner.transformed.residual_variables
        assert residuals, "top-k must create error-feedback residuals"
        for base, names in residuals.items():
            assert base.endswith(EF_RESIDUAL_SUFFIX)
            assert len(names) == runner.num_replicas
            assert names == sorted(
                names, key=lambda n: int(n.split("/")[0][3:]))
        assert not compressed_runner("fp16").transformed.residual_variables

    def test_fusion_buckets_sized_by_wire_bytes(self):
        """A cap that holds one raw segment holds ~2x fp16 segments: the
        compressed transform must produce fewer buckets than an
        uncompressed one under the same cap."""
        def bucket_count(compression):
            model = small_lm()
            plan = ar_graph_plan(model.graph, fusion=True,
                                 fusion_buffer_mb=0.004,
                                 compression=compression)
            runner = DistributedRunner(model, ClusterSpec(1, 2), plan,
                                       seed=0)
            kinds = ("fused_allreduce", "compressed_allreduce")
            groups = {op.attrs["group"]
                      for op in runner.transformed.graph.operations
                      if op.op_type in kinds}
            return len(groups)

        assert bucket_count("fp16") < bucket_count(None)

    def test_logical_state_roundtrip_with_residuals(self, tmp_path):
        runner = compressed_runner("topk")
        for i in range(3):
            runner.step(i)
        state = runner.logical_state()
        res_keys = [k for k in state if is_residual_name(k)]
        assert res_keys
        # The logical residual is the sum over replicas.
        base = res_keys[0]
        names = runner.transformed.residual_variables[base]
        total = sum(runner.backend.read_variables([n])[n] for n in names)
        np.testing.assert_array_equal(state[base], total)
        # Save/restore round trip covers residuals (strict mode).
        path = runner.save(str(tmp_path / "ckpt"))
        runner.restore(path)
        # After a load, replica 0 holds the mass and the rest are zero.
        values = runner.backend.read_variables(names)
        np.testing.assert_array_equal(values[names[0]], total)
        for name in names[1:]:
            assert not values[name].any()


# ----------------------------------------------------------------------
# End-to-end training behaviour
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_topk_cuts_bytes_at_least_2x(self):
        totals = {}
        for mode in (None, "topk"):
            runner = compressed_runner(mode, ratio=0.1)
            runner.step(0)
            runner.transcript.clear()
            runner.step(1)
            totals[mode] = sum(
                t.nbytes
                for t in runner.transcript.filter(None, network_only=False))
        assert totals["topk"] * 2 <= totals[None]

    def test_fp16_losses_track_exact_run(self):
        exact = compressed_runner(None)
        quantized = compressed_runner("fp16")
        for i in range(5):
            a = exact.step(i).mean_loss
            b = quantized.step(i).mean_loss
            assert abs(a - b) <= 1e-3 * max(abs(a), 1e-12)

    def test_topk_error_feedback_improves_loss(self):
        runner = compressed_runner("topk", ratio=0.1)
        losses = [runner.step(i).mean_loss for i in range(15)]
        assert losses[-1] < losses[0]

    def test_compression_composes_with_hybrid_plan(self):
        """Hybrid plans compress their AR variables only; the PS path
        still moves sparse gradients exactly."""
        model = small_lm()
        plan = hybrid_graph_plan(model.graph, fusion=True,
                                 compression="topk", compression_ratio=0.2)
        runner = DistributedRunner(model, ClusterSpec(2, 2), plan, seed=0)
        ops = {op.op_type for op in runner.transformed.graph.operations}
        assert "compressed_allreduce" in ops
        assert "global_agg" in ops  # PS aggregation untouched
        assert np.isfinite(runner.step(0).mean_loss)

    @pytest.mark.parametrize("mode", ["topk", "fp16", "topk+fp16"])
    def test_interpreted_matches_compiled(self, mode):
        losses = {}
        for engine, runner_cls in (("compiled", DistributedRunner),
                                   ("interpreted", interpreted_runner)):
            model = small_lm()
            plan = ar_graph_plan(model.graph, fusion=True, compression=mode,
                                 compression_ratio=0.2)
            runner = runner_cls(model, ClusterSpec(2, 2), plan, seed=0)
            losses[engine] = [runner.step(i).replica_losses
                              for i in range(3)]
        assert losses["compiled"] == losses["interpreted"]


# ----------------------------------------------------------------------
# Backend differential + elastic migration (the acceptance criteria)
# ----------------------------------------------------------------------
class TestBackendDifferential:
    @pytest.mark.parametrize("mode", ["topk", "fp16", "topk+fp16"])
    def test_inproc_multiproc_bit_identical(self, mode):
        losses = {}
        for backend in ("inproc", "multiproc"):
            runner = compressed_runner(mode, cluster=ClusterSpec(2, 2),
                                       backend=backend)
            try:
                losses[backend] = [runner.step(i).replica_losses
                                   for i in range(4)]
            finally:
                runner.close()
        assert losses["inproc"] == losses["multiproc"]

    def test_residual_state_survives_multiproc_rescale(self):
        """Rescale 4 -> 2 -> 4 under multiproc: total error-feedback
        mass is conserved across both migrations, and training resumes
        bit-identically to a fresh runner restored from the same
        snapshot."""
        model = small_lm()
        plan = ar_graph_plan(model.graph, fusion=True, compression="topk",
                             compression_ratio=0.2)
        runner = ElasticRunner(model, ClusterSpec(2, 2), plan, seed=0,
                               backend="multiproc")
        try:
            for i in range(3):
                runner.step(i)
            before = {k: v.copy()
                      for k, v in runner.logical_state().items()}
            res_keys = [k for k in before if is_residual_name(k)]
            assert res_keys

            runner.rescale(ClusterSpec(1, 2))
            mid = runner.logical_state()
            for key in res_keys:
                np.testing.assert_array_equal(before[key], mid[key])

            # Differential: the rescaled runner's next step matches a
            # fresh 2-replica runner loaded from the same snapshot.
            fresh_model = small_lm()
            fresh_plan = ar_graph_plan(fresh_model.graph, fusion=True,
                                       compression="topk",
                                       compression_ratio=0.2)
            fresh = DistributedRunner(fresh_model, ClusterSpec(1, 2),
                                      fresh_plan, seed=0)
            fresh._load_state(before)
            assert (runner.step(3).replica_losses
                    == fresh.step(3).replica_losses)

            runner.rescale(ClusterSpec(2, 2))
            after = runner.logical_state()
            for key in res_keys:
                assert after[key].shape == before[key].shape
            assert np.isfinite(runner.step(4).mean_loss)
        finally:
            runner.close()

    def test_partition_change_rescale_resharding(self):
        """A rescale that changes the partition count re-shards
        per-shard residuals row-exactly (they ride the same path as
        optimizer slots) and resets only layout-changed bucket
        residuals."""
        from repro.core.partition_context import installed_partitions

        def builder():
            return small_lm(
                num_partitions=installed_partitions() or 3)

        model = builder()
        plan_builder = lambda g: ar_graph_plan(  # noqa: E731
            g, fusion=True, compression="topk", compression_ratio=0.2)
        runner = ElasticRunner(model, ClusterSpec(2, 2),
                               plan_builder(model.graph),
                               model_builder=builder,
                               plan_builder=plan_builder, seed=0)
        for i in range(3):
            runner.step(i)
        before = runner.logical_state()
        shard_res = np.concatenate([
            before[f"embedding/part_{p}{EF_RESIDUAL_SUFFIX}"]
            for p in range(3)
        ])
        runner.rescale(ClusterSpec(1, 2), num_partitions=2)
        after = runner.logical_state()
        rebuilt = np.concatenate([
            after[f"embedding/part_{p}{EF_RESIDUAL_SUFFIX}"]
            for p in range(2)
        ])
        np.testing.assert_array_equal(rebuilt, shard_res)
        assert np.isfinite(runner.step(3).mean_loss)


# ----------------------------------------------------------------------
# Pricing stack
# ----------------------------------------------------------------------
class TestPricing:
    def _setup(self):
        from repro.baselines import horovod_plan
        from repro.nn.profiles import lm_profile

        profile = lm_profile()
        return profile, horovod_plan(profile).with_fusion(4.0)

    def test_simulator_reports_raw_vs_wire(self):
        from repro.cluster.simulator import simulate_iteration

        profile, plan = self._setup()
        cluster = ClusterSpec(4, 4)
        exact = simulate_iteration(profile, plan, cluster)
        topk = simulate_iteration(
            profile, plan.with_compression("topk", 0.1), cluster)
        fp16 = simulate_iteration(
            profile, plan.with_compression("fp16"), cluster)
        assert exact.collective_wire_bytes == exact.collective_raw_bytes
        assert exact.compress_time == 0.0
        assert topk.collective_raw_bytes == exact.collective_raw_bytes
        assert topk.collective_wire_bytes == pytest.approx(
            0.2 * topk.collective_raw_bytes)
        assert fp16.collective_wire_bytes == pytest.approx(
            0.5 * fp16.collective_raw_bytes)
        assert topk.compress_time > 0 and fp16.compress_time > 0

    def test_fp16_speeds_up_bandwidth_bound_plans(self):
        from repro.cluster.costmodel import DEFAULT_COST_MODEL
        from repro.cluster.simulator import simulate_iteration

        profile, plan = self._setup()
        cluster = ClusterSpec(8, 4)
        slow_net = DEFAULT_COST_MODEL.with_overrides(nccl_bw=2e8,
                                                     mpi_bw=2e8)
        exact = simulate_iteration(profile, plan, cluster, slow_net)
        fp16 = simulate_iteration(profile, plan.with_compression("fp16"),
                                  cluster, slow_net)
        assert fp16.iteration_time < exact.iteration_time

    def test_budget_picker_prefers_fitting_plans(self):
        from repro.cluster.simulator import (
            pick_plan_under_budget,
            plan_wire_bytes,
            simulate_iteration,
        )

        profile, plan = self._setup()
        cluster = ClusterSpec(4, 4)
        candidates = [plan, plan.with_compression("fp16"),
                      plan.with_compression("topk", 0.1)]
        exact_bytes = plan_wire_bytes(
            simulate_iteration(profile, plan, cluster))
        roomy = pick_plan_under_budget(profile, candidates, cluster,
                                       exact_bytes * 10)
        assert roomy is not None
        tight = pick_plan_under_budget(profile, candidates, cluster,
                                       exact_bytes * 0.3)
        assert tight is not None and tight.compression is not None
        assert pick_plan_under_budget(profile, candidates, cluster,
                                      1.0) is None
        with pytest.raises(ValueError):
            pick_plan_under_budget(profile, candidates, cluster, 0.0)

    def test_sync_plan_compression_validation(self):
        from repro.cluster.plan import SyncPlan

        with pytest.raises(ValueError):
            SyncPlan("x", [], compression="gzip")
        with pytest.raises(ValueError):
            SyncPlan("x", [], compression="topk", compression_ratio=0.0)
        plan = SyncPlan("x", [], compression="topk+fp16",
                        compression_ratio=0.1)
        assert plan.compressed_fraction == pytest.approx(0.15)

    def test_compressed_buckets_shrink_with_fraction(self):
        profile, plan = self._setup()
        raw = plan.allreduce_buckets()
        wire = plan.with_compression("topk", 0.1).allreduce_buckets()
        assert sum(wire) == pytest.approx(0.2 * sum(raw))
        # Smaller wire segments pack into fewer (or equal) buckets.
        assert len(wire) <= len(raw)

    def test_cost_model_validates_compression_terms(self):
        from repro.cluster.costmodel import CostModel

        with pytest.raises(ValueError):
            CostModel(compress_throughput=0.0)
        with pytest.raises(ValueError):
            CostModel(c_compress_launch=-1.0)
