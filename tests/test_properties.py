"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.allreduce import (
    chunk_bounds,
    fused_chunk_bounds,
    ring_allreduce,
)
from repro.comm.allgatherv import ring_allgatherv
from repro.comm.transcript import Transcript
from repro.comm.ps import place_variables
from repro.cluster.network import Flow, maxmin_rates
from repro.core.partitioner import PartitionCostModel, fit_cost_model
from repro.graph.variables import partition_offsets
from repro.tensor.sparse import IndexedSlices, concat_slices
from ring_oracle import oracle_fused_allreduce, oracle_ring_allreduce


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def slices_strategy(dense_rows=12, dim=3, max_rows=6):
    return st.builds(
        lambda idx, seed: IndexedSlices(
            np.random.default_rng(seed)
            .standard_normal((len(idx), dim)).astype(np.float32),
            np.array(idx, dtype=np.int64),
            (dense_rows, dim),
        ),
        st.lists(st.integers(0, dense_rows - 1), min_size=0,
                 max_size=max_rows),
        st.integers(0, 2 ** 16),
    )


# ----------------------------------------------------------------------
# IndexedSlices invariants
# ----------------------------------------------------------------------
@given(slices_strategy())
def test_combine_preserves_dense_value(sl):
    np.testing.assert_allclose(sl.combine().to_dense(), sl.to_dense(),
                               rtol=1e-4, atol=1e-5)


@given(slices_strategy())
def test_combine_yields_unique_sorted_indices(sl):
    combined = sl.combine()
    idx = combined.indices
    assert len(set(idx.tolist())) == len(idx)
    assert np.all(np.diff(idx) > 0) or idx.size <= 1


@given(st.lists(slices_strategy(), min_size=1, max_size=4))
def test_concat_dense_equals_sum(parts):
    expected = np.sum([p.to_dense() for p in parts], axis=0)
    np.testing.assert_allclose(concat_slices(parts).to_dense(), expected,
                               rtol=1e-4, atol=1e-5)


@given(slices_strategy(), st.integers(1, 12))
def test_row_partitions_cover_exactly(sl, num_parts):
    offsets = partition_offsets(sl.dense_shape[0], min(num_parts,
                                                       sl.dense_shape[0]))
    total_rows = 0
    rebuilt = np.zeros(sl.dense_shape, dtype=np.float32)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        part = sl.slice_rows(lo, hi)
        total_rows += part.num_rows
        rebuilt[lo:hi] += part.to_dense()
    assert total_rows == sl.num_rows
    np.testing.assert_allclose(rebuilt, sl.to_dense(), rtol=1e-4, atol=1e-5)


# ----------------------------------------------------------------------
# Partitioning / chunking invariants
# ----------------------------------------------------------------------
@given(st.integers(1, 500), st.integers(1, 64))
def test_partition_offsets_cover_and_balance(rows, parts):
    parts = min(parts, rows)
    offsets = partition_offsets(rows, parts)
    sizes = np.diff(offsets)
    assert offsets[0] == 0 and offsets[-1] == rows
    assert len(sizes) == parts
    assert sizes.max() - sizes.min() <= 1


@given(st.integers(0, 1000), st.integers(1, 32))
def test_chunk_bounds_monotone_cover(size, chunks):
    bounds = chunk_bounds(size, chunks)
    assert bounds[0] == 0 and bounds[-1] == size
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


# ----------------------------------------------------------------------
# Collectives
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2 ** 16))
def test_ring_allreduce_equals_sum(workers, elements, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(elements).astype(np.float32)
              for _ in range(workers)]
    results = ring_allreduce(arrays)
    expected = np.sum(arrays, axis=0)
    for r in results:
        np.testing.assert_allclose(r, expected, rtol=1e-4, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.lists(slices_strategy(), min_size=1, max_size=5))
def test_allgatherv_copies_identical_and_complete(parts):
    results = ring_allgatherv(parts)
    total_rows = sum(p.num_rows for p in parts)
    for r in results:
        assert r.num_rows == total_rows
        assert r == results[0]


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 10 ** 6)), min_size=0,
                max_size=30),
       st.integers(1, 8))
def test_place_variables_greedy_bound(size_tuples, servers):
    sizes = [(f"v{i}", s[0]) for i, s in enumerate(size_tuples)]
    placement = place_variables(sizes, servers)
    loads = [0] * servers
    for name, size in sizes:
        loads[placement[name]] += size
    total = sum(s for _, s in sizes)
    biggest = max((s for _, s in sizes), default=0)
    # Classic greedy (LPT) bound: max load <= total/servers + biggest.
    assert max(loads, default=0) <= total / servers + biggest + 1e-9


# ----------------------------------------------------------------------
# Network fairness
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=10))
def test_maxmin_rates_respect_capacities(pairs):
    flows = [Flow(src, dst, 100.0) for src, dst in pairs if src != dst]
    if not flows:
        return
    machines = {f.src for f in flows} | {f.dst for f in flows}
    capacity = {}
    for m in machines:
        capacity[("out", m)] = 10.0
        capacity[("in", m)] = 10.0
    rates = maxmin_rates(flows, capacity)
    assert all(r > 0 for r in rates)
    usage = {}
    for f, r in zip(flows, rates):
        for res in f.resources():
            usage[res] = usage.get(res, 0.0) + r
    for res, used in usage.items():
        assert used <= capacity[res] * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=2, max_size=8))
def test_maxmin_no_flow_starves(pairs):
    """Max-min fairness: every flow gets at least the equal share of its
    most contended resource."""
    flows = [Flow(src, dst, 100.0) for src, dst in pairs if src != dst]
    if not flows:
        return
    machines = {f.src for f in flows} | {f.dst for f in flows}
    capacity = {}
    for m in machines:
        capacity[("out", m)] = 8.0
        capacity[("in", m)] = 8.0
    rates = maxmin_rates(flows, capacity)
    for f, r in zip(flows, rates):
        worst_share = min(
            capacity[res] / sum(1 for g in flows if res in g.resources())
            for res in f.resources()
        )
        assert r >= worst_share - 1e-9


# ----------------------------------------------------------------------
# Equation-1 fitting
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.1, 100.0), st.floats(1e-4, 0.5))
def test_fit_recovers_exact_equation1(theta0, theta1, theta2):
    samples = [(p, theta0 + theta1 / p + theta2 * p)
               for p in (1, 2, 4, 8, 16, 32)]
    model = fit_cost_model(samples)
    for p in (3, 6, 24):
        expected = theta0 + theta1 / p + theta2 * p
        assert abs(model.predict(p) - expected) <= 1e-6 + 1e-6 * expected


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 100.0), st.floats(1e-4, 0.5),
       st.integers(1, 64), st.integers(65, 4096))
def test_best_partitions_within_range_and_optimal(theta1, theta2, lo, hi):
    model = PartitionCostModel(1.0, theta1, theta2)
    best = model.best_partitions(lo, hi)
    assert lo <= best <= hi
    for candidate in (lo, hi, max(lo, min(hi, best - 1)),
                      max(lo, min(hi, best + 1))):
        assert model.predict(best) <= model.predict(candidate) + 1e-9


# ----------------------------------------------------------------------
# Segmented (fused) ring AllReduce against the data-moving oracle
# ----------------------------------------------------------------------
def _bits(array):
    return np.asarray(array).view(np.uint32)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=8),
       st.integers(2, 6), st.integers(0, 2 ** 16), st.booleans())
def test_segmented_ring_matches_oracle(sizes, workers, seed, colocated):
    """``ring_allreduce(segments=)`` never moves a chunk, yet equals --
    bit for bit, with equal Transcript records in equal order -- both the
    oracle's permuted fused ring and one ring per segment.  Sizes include
    0 and sizes below the worker count (empty chunks)."""
    rng = np.random.default_rng(seed)
    # Mixed magnitudes make the association order observable.
    arrays = [(rng.standard_normal(sum(sizes))
               * 10.0 ** rng.integers(-3, 4, sum(sizes))).astype(np.float32)
              for _ in range(workers)]
    machines = ([w // 2 for w in range(workers)] if colocated
                else list(range(workers)))

    got_log, oracle_log = Transcript(), Transcript()
    got = ring_allreduce(arrays, machines, got_log, segments=sizes)
    oracle = oracle_fused_allreduce(arrays, sizes, machines, oracle_log)
    for copy in oracle:
        np.testing.assert_array_equal(_bits(got[0]), _bits(copy))
    assert got_log.transfers == oracle_log.transfers

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        piece = [a[lo:hi] for a in arrays]
        got_log, oracle_log = Transcript(), Transcript()
        unfused = ring_allreduce(piece, machines, got_log)[0]
        np.testing.assert_array_equal(_bits(got[0][lo:hi]), _bits(unfused))
        for copy in oracle_ring_allreduce(piece, machines, oracle_log):
            np.testing.assert_array_equal(_bits(unfused), _bits(copy))
        assert got_log.transfers == oracle_log.transfers


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=6),
       st.integers(2, 6), st.integers(0, 2 ** 16))
def test_fused_layout_chunks_group_per_segment_chunks(sizes, workers, seed):
    """Bytes are conserved chunk-for-chunk: every fused ring message is
    exactly the per-segment rings' messages of the same (stage, sender)
    put together (the bit-identity basis)."""
    rng = np.random.default_rng(seed)
    segments = [[rng.standard_normal(s).astype(np.float32) for s in sizes]
                for _ in range(workers)]
    fused_log, unfused_log = Transcript(), Transcript()
    ring_allreduce([np.concatenate(segs) for segs in segments],
                   transcript=fused_log, segments=sizes)
    for i in range(len(sizes)):
        ring_allreduce([segs[i] for segs in segments],
                       transcript=unfused_log)

    def per_message(log):
        totals = {}
        for t in log.transfers:
            key = (t.stage, t.src_machine, t.dst_machine)
            totals[key] = totals.get(key, 0) + t.nbytes
        return totals

    assert per_message(fused_log) == per_message(unfused_log)
    # One message per (stage, sender) whatever the segment count, sized
    # by the chunk bounds the transform records on the fused op.
    assert len(fused_log) <= 2 * (workers - 1) * workers
    chunks = np.diff(fused_chunk_bounds(sizes, workers))
    assert (sorted(t.nbytes for t in fused_log.transfers if t.stage == 0)
            == sorted(4 * int(c) for c in chunks if c))


# ----------------------------------------------------------------------
# Sparse re-sharding (elastic rescale primitive)
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 48), st.integers(1, 4), st.integers(1, 8),
       st.integers(1, 8), st.integers(0, 2 ** 16))
def test_reshard_round_trip_is_bit_exact(rows, dim, old_parts, new_parts,
                                         seed):
    from repro.comm.ps import merge_shards, split_rows

    old_parts = min(old_parts, rows)
    new_parts = min(new_parts, rows)
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((rows, dim)).astype(np.float32)
    old_offsets = partition_offsets(rows, old_parts)
    new_offsets = partition_offsets(rows, new_parts)

    old_shards = split_rows(full, old_offsets)
    # concat(shards) == original, bit for bit
    np.testing.assert_array_equal(merge_shards(old_shards), full)
    # bytes conserved across the split
    assert sum(s.nbytes for s in old_shards) == full.nbytes
    # re-shard to the new layout and back: still the original bits
    new_shards = split_rows(merge_shards(old_shards), new_offsets)
    assert [s.shape[0] for s in new_shards] == [
        hi - lo for lo, hi in zip(new_offsets, new_offsets[1:])
    ]
    np.testing.assert_array_equal(merge_shards(new_shards), full)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 3), st.integers(1, 6),
       st.integers(1, 6), st.integers(0, 2 ** 16))
def test_reshard_logical_state_conserves_parent(rows, dim, old_parts,
                                                new_parts, seed):
    from repro.core.elastic import reshard_logical_state

    old_parts = min(old_parts, rows)
    new_parts = min(new_parts, rows)
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((rows, dim)).astype(np.float32)
    vel = rng.standard_normal((rows, dim)).astype(np.float32)
    old_offsets = partition_offsets(rows, old_parts)
    new_offsets = partition_offsets(rows, new_parts)
    state = {}
    for p, (lo, hi) in enumerate(zip(old_offsets, old_offsets[1:])):
        state[f"emb/part_{p}"] = full[lo:hi].copy()
        state[f"emb/part_{p}/velocity"] = vel[lo:hi].copy()
        state[f"emb/part_{p}/adam_step"] = np.array([3.0], np.float32)
    state["dense"] = rng.standard_normal(4).astype(np.float32)

    out = reshard_logical_state(state, {"emb": old_offsets},
                                {"emb": new_offsets})
    merged = np.concatenate([out[f"emb/part_{p}"]
                             for p in range(new_parts)])
    merged_vel = np.concatenate([out[f"emb/part_{p}/velocity"]
                                 for p in range(new_parts)])
    np.testing.assert_array_equal(merged, full)
    np.testing.assert_array_equal(merged_vel, vel)
    for p in range(new_parts):
        np.testing.assert_array_equal(out[f"emb/part_{p}/adam_step"],
                                      [3.0])
    np.testing.assert_array_equal(out["dense"], state["dense"])
    # Bytes conserved overall (step counters replicate per shard).
    assert merged.nbytes + merged_vel.nbytes == full.nbytes + vel.nbytes
