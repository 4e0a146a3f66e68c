"""TCP transport specifics: wire accounting, simulated latency,
rendezvous bootstrap, the ``launch`` entry point, and the link-constant
fitter.

The behavioural contract shared with the other transports lives in
``test_transport_conformance.py``; this file covers what is unique to
the socket plane.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.comm.tcp import (
    RendezvousServer,
    TcpTransport,
    bind_listener,
    parse_rendezvous,
    rendezvous_join,
)
from repro.comm.transport import (
    CONTROLLER,
    InMemoryTransport,
    SimulatedLatencyTransport,
    TransportError,
    make_transport,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tcp():
    t = TcpTransport(2)
    yield t
    t.close()


class TestWireAccounting:
    def test_ndarray_counts_wire_not_pickle(self, tcp):
        a = np.arange(1024, dtype=np.float64)
        tcp.send(0, 1, ("v", "a"), a)
        got = tcp.recv(1, 0, ("v", "a"), timeout=10.0)
        np.testing.assert_array_equal(got, a)
        c = tcp.counters
        assert c["wire_msgs"] == 1
        assert c["wire_bytes"] >= a.nbytes
        assert c["pickle_msgs"] == 0
        # A contiguous array is sent in place; only a layout that has to
        # be made C-order first costs a copy.
        assert c["copy_count"] == 0
        t = np.arange(1024, dtype=np.float64).reshape(32, 32).T
        assert not t.flags.c_contiguous
        tcp.send(0, 1, ("v", "t"), t)
        got = tcp.recv(1, 0, ("v", "t"), timeout=10.0)
        np.testing.assert_array_equal(got, t)
        assert c["copy_count"] == 1
        assert c["wire_msgs"] == 2

    def test_send_freezes_without_a_copy(self, tcp):
        """Freeze-at-send holds with no ``tobytes``: the blocking
        ``sendall`` owns every byte by the time ``send`` returns, so a
        sender that overwrites a 4 MB array straight afterwards cannot
        reach the frame (the payload is far larger than a socket buffer,
        so most of it is still in flight when the mutation happens)."""
        # Endpoints start lazily; rank 1's reader must be draining the
        # socket before a payload bigger than its buffer is sent.
        tcp.send(0, 1, ("hello",), 0)
        tcp.recv(1, 0, ("hello",), timeout=10.0)
        a = np.arange(1 << 20, dtype=np.float32)
        want = a.copy()
        tcp.send(0, 1, ("v", "a"), a)
        a[...] = -1.0
        got = tcp.recv(1, 0, ("v", "a"), timeout=30.0)
        np.testing.assert_array_equal(got, want)
        assert tcp.counters["copy_count"] == 0

    def test_pickle_frames_count_both_planes(self, tcp):
        """Pickle-path frames land in wire_bytes AND pickle_bytes, so
        bulk wire traffic is ``wire_bytes - pickle_bytes`` (what
        ``fit_transport_constants`` subtracts)."""
        tcp.send(0, 1, ("v", "d"), {"step": 1})
        tcp.recv(1, 0, ("v", "d"), timeout=10.0)
        c = tcp.counters
        assert c["pickle_msgs"] == 1
        assert c["wire_msgs"] == 1
        assert c["wire_bytes"] >= c["pickle_bytes"] > 0

    def test_received_array_is_writable(self, tcp):
        """Decoded arrays own their buffer -- training code writes into
        received gradients in place."""
        tcp.send(0, 1, ("v", "a"), np.zeros(8))
        got = tcp.recv(1, 0, ("v", "a"), timeout=10.0)
        got += 1.0
        np.testing.assert_array_equal(got, np.ones(8))


class TestSimulatedLatency:
    def test_delay_for_is_pure(self):
        inner = InMemoryTransport(2)
        a = SimulatedLatencyTransport(inner, delay_s=1e-3,
                                      jitter_s=2e-3, seed=42)
        b = SimulatedLatencyTransport(InMemoryTransport(2), delay_s=1e-3,
                                      jitter_s=2e-3, seed=42)
        delays = [a.delay_for(0, 1, i) for i in range(20)]
        assert delays == [b.delay_for(0, 1, i) for i in range(20)]
        assert all(1e-3 <= d <= 3e-3 for d in delays)
        # Different channels and seeds draw different jitter.
        assert delays != [a.delay_for(1, 0, i) for i in range(20)]
        c = SimulatedLatencyTransport(inner, delay_s=1e-3,
                                      jitter_s=2e-3, seed=43)
        assert delays != [c.delay_for(0, 1, i) for i in range(20)]

    def test_values_bit_identical_through_delay(self):
        t = SimulatedLatencyTransport(InMemoryTransport(2),
                                      delay_s=1e-4, jitter_s=1e-4)
        a = np.arange(64, dtype=np.float64) * np.pi
        t.send(0, 1, ("v",), a)
        got = t.recv(1, 0, ("v",), timeout=10.0)
        assert got.tobytes() == a.tobytes()

    def test_proxies_inner_attributes(self):
        inner = InMemoryTransport(3)
        t = SimulatedLatencyTransport(inner)
        assert t.num_workers == 3
        assert t.counters is inner.counters
        t.close()
        with pytest.raises(TransportError):
            t.send(0, 1, ("v",), 1)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            SimulatedLatencyTransport(InMemoryTransport(2), delay_s=-1.0)


class TestRendezvous:
    def test_parse_url(self):
        assert parse_rendezvous("tcp://10.0.0.7:29500") == ("10.0.0.7",
                                                            29500)
        for bad in ("http://x:1", "tcp://nohost", "tcp://h:port", "x"):
            with pytest.raises(ValueError):
                parse_rendezvous(bad)

    def test_join_map_barrier(self):
        server = RendezvousServer(2, ("127.0.0.1", 5555)).start()
        maps = {}

        def join(rank):
            listener = bind_listener()
            try:
                maps[rank] = rendezvous_join(
                    server.url, rank, listener.getsockname(), timeout=10.0
                )
            finally:
                listener.close()

        threads = [threading.Thread(target=join, args=(r,))
                   for r in range(2)]
        for th in threads:
            th.start()
        addr_map = server.wait(timeout=10.0)
        for th in threads:
            th.join(timeout=10.0)
        assert sorted(addr_map) == [CONTROLLER, 0, 1]
        assert addr_map[CONTROLLER] == ("127.0.0.1", 5555)
        assert maps[0] == addr_map and maps[1] == addr_map

    def test_duplicate_rank_rejected(self):
        server = RendezvousServer(2, ("127.0.0.1", 5555)).start()

        def join(rank):
            try:
                rendezvous_join(server.url, rank, ("127.0.0.1", 1),
                                timeout=5.0)
            except (TransportError, EOFError, OSError):
                pass  # server tears the barrier down on the error

        t0 = threading.Thread(target=join, args=(0,))
        t0.start()
        time.sleep(0.2)  # let rank 0 register first
        t1 = threading.Thread(target=join, args=(0,))
        t1.start()
        with pytest.raises(TransportError, match="twice"):
            server.wait(timeout=10.0)
        t0.join(timeout=10.0)
        t1.join(timeout=10.0)

    def test_for_rank_round_trip(self):
        """Two rendezvous-mode endpoints in one process exchange a value
        through real sockets."""
        listeners = {r: bind_listener() for r in (CONTROLLER, 0)}
        addrs = {r: s.getsockname() for r, s in listeners.items()}
        ctrl = TcpTransport.for_rank(1, CONTROLLER, addrs,
                                     listeners[CONTROLLER])
        worker = TcpTransport.for_rank(1, 0, addrs, listeners[0])
        try:
            ctrl.send(CONTROLLER, 0, ("cmd",), "step")
            assert worker.recv(0, CONTROLLER, ("cmd",),
                               timeout=10.0) == "step"
            worker.send(0, CONTROLLER, ("res",), 7.5)
            assert ctrl.recv(CONTROLLER, 0, ("res",), timeout=10.0) == 7.5
        finally:
            ctrl.close()
            worker.close()


class TestRegistry:
    def test_make_transport_tcp(self):
        t = make_transport("tcp", 1)
        assert isinstance(t, TcpTransport)
        t.close()

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("carrier-pigeon", 1)

    def test_config_rejects_transport_without_multiproc(self):
        from repro.core.api import CommConfig, ParallaxConfig

        with pytest.raises(ValueError, match="multiproc"):
            CommConfig(backend="inproc", transport="tcp")
        with pytest.raises(ValueError, match="unknown transport"):
            CommConfig(backend="multiproc", transport="smoke-signal")
        # Valid combination constructs.
        ParallaxConfig(comm=CommConfig(backend="multiproc",
                                       transport="tcp"))


class TestFitTransportConstants:
    """``fit_transport_constants`` folds every sample it is given: a
    window whose wall time measured a fault, not the transport, skews
    the fitted constants, so callers must keep such windows out."""

    CLEAN = {"pickle_bytes": 1_000_000.0, "serialize_s": 0.01}
    # A degraded window's wall time measures the fault, not the
    # transport: folding it in would inflate c_serialize 1000x.
    POISON = {"pickle_bytes": 1_000_000.0, "serialize_s": 10.0}

    def test_the_poison_is_real(self):
        from repro.cluster.costmodel import fit_transport_constants

        poisoned = fit_transport_constants([self.CLEAN, self.POISON])
        assert poisoned.c_serialize > 100 * (0.01 / 1_000_000.0)


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestLaunchEndToEnd:
    def test_launcher_bit_identity(self, tmp_path):
        """Full three-process launch through ``repro.cli launch``: two
        worker processes plus the controller, which also runs the
        in-process reference and asserts bit identity."""
        url = f"tcp://127.0.0.1:{_free_port()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        common = [sys.executable, "-m", "repro.cli", "launch",
                  "--rendezvous", url, "--world-size", "2"]
        workers = [
            subprocess.Popen(
                common + ["--rank", str(r)],
                env=env, cwd=str(tmp_path),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            for r in range(2)
        ]
        try:
            controller = subprocess.run(
                common + ["--rank", "-1", "--iters", "2",
                          "--check-identity"],
                env=env, cwd=str(tmp_path), capture_output=True,
                text=True, timeout=180,
            )
            assert controller.returncode == 0, controller.stdout[-2000:]
            report = json.loads(controller.stdout)
            assert report["losses_bit_identical"] is True
            assert report["iterations"] == 2
            assert report["wire_msgs"] > 0
            for w in workers:
                assert w.wait(timeout=60) == 0
        finally:
            for w in workers:
                if w.poll() is None:
                    w.kill()
                w.stdout.close()
