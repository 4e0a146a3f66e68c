"""Zero-copy shared-memory transport: rings, fallback, hygiene.

Contract under test: bulk ndarray / IndexedSlices payloads move through
/dev/shm rings with pickle used only for the header (zero pickle bytes
for the payload), values freeze at send time, every ineligible payload
falls back to the queue path transparently, and no shm segment outlives
its transport -- including across elastic rescales and forced shutdowns.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.comm.shm import ShmRing, ShmRingError, live_segments
from repro.comm.transport import CONTROLLER, ShmTransport, counter_delta
from repro.core.elastic import ElasticRunner
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import hybrid_graph_plan
from repro.graph.gradients import gradients
from repro.nn.models import build_resnet
from repro.nn.optimizers import GradientDescentOptimizer
from repro.tensor.sparse import IndexedSlices

C2 = ClusterSpec(num_machines=1, gpus_per_machine=2)


def small_model():
    # width=16 keeps the dense weight gradients above the transport's
    # min_shm_bytes threshold, so steps exercise the ring path.
    model = build_resnet(batch_size=4, num_features=8, num_classes=3,
                         width=16, num_blocks=1, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.4).update(gvs)
    return model


@pytest.fixture
def ring():
    r = ShmRing(1 << 14, lock=mp.Lock())
    yield r
    r.destroy()


@pytest.fixture
def transport():
    t = ShmTransport(2)
    yield t
    t.close()


# ======================================================================
# The ring itself
# ======================================================================
class TestShmRing:
    def test_roundtrip_preserves_bits_and_dtype(self, ring):
        a = np.random.default_rng(0).standard_normal((16, 7)).astype(
            np.float32)
        b = np.arange(11, dtype=np.int64)
        pos, advance, seq, offs = ring.try_write([a, b])
        out = ring.read(pos, seq, tuple(
            (x.dtype.str, x.shape, off) for x, off in zip((a, b), offs)))
        ring.release(advance)
        np.testing.assert_array_equal(out[0], a)
        np.testing.assert_array_equal(out[1], b)
        assert out[0].dtype == a.dtype and out[1].dtype == b.dtype
        assert ring.used_bytes() == 0

    def test_read_copies_out_of_the_ring(self, ring):
        a = np.ones(32, dtype=np.float32)
        pos, advance, seq, offs = ring.try_write([a])
        out = ring.read(pos, seq, ((a.dtype.str, a.shape, offs[0]),))[0]
        ring.release(advance)
        # The reader owns its bytes: releasing (and later overwriting)
        # the slot cannot reach through into a returned array.
        assert out.flags["OWNDATA"]
        assert np.all(out == 1.0)

    def test_stale_generation_raises(self, ring):
        a = np.ones(8, dtype=np.float32)
        pos, advance, seq, offs = ring.try_write([a])
        with pytest.raises(ShmRingError):
            ring.read(pos, seq + 1, ((a.dtype.str, a.shape, offs[0]),))
        ring.release(advance)

    def test_oversized_and_full_writes_return_none(self, ring):
        too_big = np.zeros(1 << 14, dtype=np.uint8)  # > capacity // 2
        assert ring.try_write([too_big]) is None
        # 8176 B + 16 B prefix == capacity // 2: exactly two messages fit.
        chunk = np.zeros(8176, dtype=np.uint8)
        first = ring.try_write([chunk])
        second = ring.try_write([chunk])
        assert first is not None and second is not None
        assert ring.try_write([chunk]) is None  # no free space
        ring.release(first[1])
        assert ring.try_write([chunk]) is not None  # space reclaimed

    def test_wraparound_many_messages(self, ring):
        rng = np.random.default_rng(1)
        for i in range(200):
            a = rng.standard_normal(400 + (i % 5)).astype(np.float32)
            written = ring.try_write([a])
            assert written is not None, f"ring full at message {i}"
            pos, advance, seq, offs = written
            out = ring.read(pos, seq, ((a.dtype.str, a.shape, offs[0]),))
            ring.release(advance)
            np.testing.assert_array_equal(out[0], a)
        assert ring.used_bytes() == 0

    def test_destroy_unlinks_segment_and_is_idempotent(self):
        r = ShmRing(1 << 12, lock=mp.Lock())
        name = r.name
        assert name in live_segments()
        r.destroy()
        r.destroy()
        assert name not in live_segments()


# ======================================================================
# The transport: routing, fallback, counters
# ======================================================================
class TestShmTransport:
    def test_bulk_array_rides_shm_with_zero_pickle_bytes(self, transport):
        payload = np.random.default_rng(2).standard_normal(
            (64, 64)).astype(np.float32)
        transport.send(CONTROLLER, 0, ("grad", 0), payload)
        out = transport.recv(0, CONTROLLER, ("grad", 0), timeout=5)
        np.testing.assert_array_equal(out, payload)
        c = transport.counters
        assert c["shm_msgs"] == 1
        assert c["shm_bytes"] == payload.nbytes
        assert c["pickle_msgs"] == 0
        assert c["pickle_bytes"] == 0
        assert c["copy_count"] == 2  # one copy in, one copy out
        assert c["serialize_s"] >= 0.0 and c["deserialize_s"] >= 0.0

    def test_freeze_at_send(self, transport):
        payload = np.ones((32, 32), dtype=np.float32)
        transport.send(0, CONTROLLER, ("k",), payload)
        payload[:] = -7.0  # mutate after send: receiver must not see it
        out = transport.recv(CONTROLLER, 0, ("k",), timeout=5)
        assert np.all(out == 1.0)

    def test_indexed_slices_roundtrip(self, transport):
        sl = IndexedSlices(
            np.random.default_rng(3).standard_normal((40, 8)),
            np.arange(40, dtype=np.int64) % 13,
            (64, 8),
        )
        transport.send(CONTROLLER, 1, ("sp",), sl)
        out = transport.recv(1, CONTROLLER, ("sp",), timeout=5)
        assert isinstance(out, IndexedSlices)
        np.testing.assert_array_equal(out.values, sl.values)
        np.testing.assert_array_equal(out.indices, sl.indices)
        assert out.dense_shape == sl.dense_shape
        assert transport.counters["shm_msgs"] == 1
        assert transport.counters["pickle_msgs"] == 0

    def test_small_and_non_array_payloads_fall_back_to_pickle(
            self, transport):
        transport.send(CONTROLLER, 0, ("tiny",),
                       np.zeros(4, dtype=np.float32))
        transport.send(CONTROLLER, 0, ("cmd",), {"op": "step", "i": 3})
        assert np.all(
            transport.recv(0, CONTROLLER, ("tiny",), timeout=5) == 0)
        assert transport.recv(0, CONTROLLER, ("cmd",),
                              timeout=5) == {"op": "step", "i": 3}
        c = transport.counters
        assert c["shm_msgs"] == 0
        assert c["pickle_msgs"] == 2
        assert c["pickle_bytes"] > 0

    def test_ring_full_falls_back_and_preserves_values(self):
        t = ShmTransport(1, ring_bytes=1 << 13)
        try:
            msgs = [np.full(800, i, dtype=np.float32) for i in range(6)]
            for i, m in enumerate(msgs):
                t.send(CONTROLLER, 0, ("m", i), m)  # ring fills mid-way
            assert t.counters["fallbacks"] > 0
            assert t.counters["pickle_msgs"] == t.counters["fallbacks"]
            for i, m in enumerate(msgs):
                out = t.recv(0, CONTROLLER, ("m", i), timeout=5)
                np.testing.assert_array_equal(out, m)
        finally:
            t.close()

    def test_oversized_payload_falls_back(self):
        t = ShmTransport(1, ring_bytes=1 << 13)
        try:
            big = np.random.default_rng(4).standard_normal(
                1 << 12).astype(np.float64)  # 32 KiB > ring
            t.send(0, CONTROLLER, ("big",), big)
            np.testing.assert_array_equal(
                t.recv(CONTROLLER, 0, ("big",), timeout=5), big)
            assert t.counters["shm_msgs"] == 0
            assert t.counters["fallbacks"] == 1
        finally:
            t.close()

    def test_out_of_order_recv_releases_slots(self, transport):
        a = np.full(1024, 1.0, dtype=np.float32)
        b = np.full(1024, 2.0, dtype=np.float32)
        transport.send(0, CONTROLLER, ("a",), a)
        transport.send(0, CONTROLLER, ("b",), b)
        out_b = transport.recv(CONTROLLER, 0, ("b",), timeout=5)
        out_a = transport.recv(CONTROLLER, 0, ("a",), timeout=5)
        assert np.all(out_a == 1.0) and np.all(out_b == 2.0)
        assert transport._rings[(0, CONTROLLER)].used_bytes() == 0

    def test_drain_releases_ring_slots(self, transport):
        ring = transport._rings[(0, CONTROLLER)]
        for i in range(3):
            transport.send(0, CONTROLLER, ("x", i),
                           np.zeros(2048, dtype=np.float32))
        assert ring.used_bytes() > 0
        # Sends flush through the queue's feeder thread asynchronously.
        deadline = time.monotonic() + 5.0
        dropped = 0
        while dropped < 3 and time.monotonic() < deadline:
            dropped += transport.drain(CONTROLLER)
        assert dropped == 3
        assert ring.used_bytes() == 0

    def test_close_unlinks_all_segments_idempotently(self):
        t = ShmTransport(3)
        names = t.segment_names
        assert len(names) == len(set(names)) == 4 * 3  # directed pairs
        alive = set(live_segments())
        assert all(n in alive for n in names)
        t.close()
        t.close()
        alive = set(live_segments())
        assert all(n not in alive for n in names)


# ======================================================================
# Backend integration: per-step counters and segment hygiene
# ======================================================================
class TestBackendIntegration:
    def test_transport_step_notes_report_shm_traffic(self):
        model = small_model()
        runner = DistributedRunner(model, C2, hybrid_graph_plan(model.graph),
                                   seed=5, backend="multiproc")
        try:
            steps = []
            for i in range(2):
                before = dict(runner.backend.serialization_totals)
                runner.step(i)
                steps.append(counter_delta(
                    runner.backend.serialization_totals, before))
            for step in steps:
                assert step["shm_bytes"] > 0  # bulk grads ride shm
                assert step["copy_count"] > 0
                assert step["serialize_s"] >= 0.0
            totals = runner.backend.serialization_totals
            assert totals["shm_bytes"] == sum(
                s["shm_bytes"] for s in steps)
        finally:
            runner.close()

    def test_shutdown_unlinks_every_segment(self):
        model = small_model()
        runner = DistributedRunner(model, C2, hybrid_graph_plan(model.graph),
                                   seed=5, backend="multiproc")
        names = runner.backend.transport.segment_names
        assert names and all(n in live_segments() for n in names)
        runner.close()
        alive = set(live_segments())
        assert all(n not in alive for n in names)

    def test_queue_transport_stays_available_and_bit_identical(self):
        from repro.core.backend import MultiprocBackend

        losses = {}
        for kind in ("shm", "queue"):
            model = small_model()
            runner = DistributedRunner(
                model, C2, hybrid_graph_plan(model.graph), seed=5,
                backend=MultiprocBackend(transport=kind))
            try:
                losses[kind] = [runner.step(i).replica_losses
                                for i in range(3)]
            finally:
                runner.close()
        assert losses["shm"] == losses["queue"]

    def test_rescale_swaps_shm_fleets_atomically(self):
        model_builder = small_model
        model = model_builder()
        runner = ElasticRunner(model, C2, hybrid_graph_plan(model.graph),
                               seed=5, backend="multiproc")
        try:
            runner.step(0)
            old_names = runner.backend.transport.segment_names
            assert all(n in live_segments() for n in old_names)
            runner.rescale(ClusterSpec(num_machines=2, gpus_per_machine=2))
            new_names = runner.backend.transport.segment_names
            alive = set(live_segments())
            # Old fleet's segments are gone, the new fleet's are live.
            assert all(n not in alive for n in old_names)
            assert all(n in alive for n in new_names)
            runner.step(1)
        finally:
            runner.close()
        alive = set(live_segments())
        assert all(n not in alive for n in new_names)
