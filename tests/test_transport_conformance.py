"""Transport conformance suite.

Every transport in the registry must satisfy one behavioural contract
(module docstring of :mod:`repro.comm.transport`): per-channel FIFO,
freeze-at-send value semantics, buffering of non-matching arrivals
per destination, deadline-correct timeouts, drain accounting, and an
idempotent close that leaves no thread, process or segment behind.

The suite is parameterized over every registered transport so a future
transport inherits the whole contract by showing up in
``transport_registry()``.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm.transport import (
    CONTROLLER,
    TransportError,
    TransportTimeout,
    counter_delta,
    transport_registry,
)

KINDS = sorted(transport_registry())


# The case ids predate the queue plane's registry name and stay stable:
# its cases keep the id of its class, ``MultiprocTransport``.
@pytest.fixture(params=KINDS,
                ids=lambda kind: "multiproc" if kind == "queue" else kind)
def transport(request, assert_no_leaks):
    t = transport_registry()[request.param](2)
    yield t
    t.close()
    assert_no_leaks()


class TestConformance:
    def test_registry_covers_expected_transports(self):
        assert {"inmem", "queue", "shm", "tcp"} <= set(KINDS)

    def test_round_trip(self, transport):
        value = {"step": 3, "grad": np.arange(6, dtype=np.float64)}
        transport.send(0, 1, ("v", "g"), value)
        got = transport.recv(1, 0, ("v", "g"), timeout=10.0)
        assert got["step"] == 3
        np.testing.assert_array_equal(got["grad"], value["grad"])

    def test_freeze_at_send(self, transport):
        """Mutating a buffer after send must not affect the receiver."""
        a = np.ones(32, dtype=np.float64)
        transport.send(0, 1, ("v", "a"), a)
        a[:] = -1.0
        got = transport.recv(1, 0, ("v", "a"), timeout=10.0)
        np.testing.assert_array_equal(got, np.ones(32))

    def test_fifo_per_channel(self, transport):
        for i in range(5):
            transport.send(0, 1, ("seq",), i)
        assert [transport.recv(1, 0, ("seq",), timeout=10.0)
                for _ in range(5)] == list(range(5))

    def test_out_of_order_keys_buffered(self, transport):
        """recv of key B must buffer (not drop) an earlier key-A arrival."""
        transport.send(0, 1, ("a",), "first")
        transport.send(0, 1, ("b",), "second")
        assert transport.recv(1, 0, ("b",), timeout=10.0) == "second"
        assert transport.recv(1, 0, ("a",), timeout=10.0) == "first"

    def test_pending_is_per_destination(self, transport):
        """Regression: one process hosting several endpoints.  Rank 0's
        recv of key j buffers its earlier key-k arrival; that buffered
        message must stay rank 0's -- a receive-side buffer shared by
        all destinations handed it to the controller's recv of the same
        ``(src, key)``."""
        transport.send(1, 0, ("k",), "for-0-k")
        transport.send(1, 0, ("j",), "for-0-j")
        transport.send(1, CONTROLLER, ("k",), "for-controller")
        assert transport.recv(0, 1, ("j",), timeout=10.0) == "for-0-j"
        assert transport.recv(CONTROLLER, 1, ("k",),
                              timeout=10.0) == "for-controller"
        assert transport.recv(0, 1, ("k",), timeout=10.0) == "for-0-k"

    def test_drain_only_touches_its_destination(self, transport):
        transport.send(1, 0, ("k",), "keep")
        transport.send(1, 0, ("j",), "flush")
        transport.send(0, CONTROLLER, ("junk",), 1)
        transport.send(0, CONTROLLER, ("flush",), "sentinel")
        # Each sentinel recv boxes the message sent before it, so both
        # endpoints hold exactly one buffered message.
        assert transport.recv(0, 1, ("j",), timeout=10.0) == "flush"
        assert transport.recv(CONTROLLER, 0, ("flush",),
                              timeout=10.0) == "sentinel"
        assert transport.drain(CONTROLLER) == 1
        assert transport.recv(0, 1, ("k",), timeout=10.0) == "keep"
        assert transport.drain(0) == 0

    def test_controller_addressable(self, transport):
        transport.send(CONTROLLER, 0, ("cmd",), "work")
        assert transport.recv(0, CONTROLLER, ("cmd",),
                              timeout=10.0) == "work"
        transport.send(0, CONTROLLER, ("res",), "done")
        assert transport.recv(CONTROLLER, 0, ("res",),
                              timeout=10.0) == "done"

    def test_out_of_range_rank_rejected(self, transport):
        with pytest.raises(TransportError):
            transport.send(0, 7, ("v",), 1)
        with pytest.raises(TransportError):
            transport.recv(7, 0, ("v",), timeout=0.1)

    def test_transcript_records_sends(self, transport):
        before = dict(transport.counters)
        transport.send(0, 1, ("v", "x"), np.zeros(16))
        transport.recv(1, 0, ("v", "x"), timeout=10.0)
        sent = counter_delta(transport.counters, before)
        # tcp counts every frame as wire traffic; the other planes count
        # a message on exactly one of the pickle and ring paths.
        msgs = sent["wire_msgs"] or sent["pickle_msgs"] + sent["shm_msgs"]
        nbytes = (sent["wire_bytes"]
                  or sent["pickle_bytes"] + sent["shm_bytes"])
        assert msgs == 1
        assert nbytes > 0

    def test_timeout_raises(self, transport):
        t0 = time.monotonic()
        with pytest.raises(TransportTimeout):
            transport.recv(1, 0, ("never",), timeout=0.05)
        assert time.monotonic() - t0 < 5.0

    def test_timeout_deadline_survives_unrelated_traffic(self, transport):
        """Regression: the timeout clock must not restart when an
        unrelated message arrives.  Under a steady drip of noise the old
        code waited the *full* timeout again after every arrival, so a
        0.3s recv only expired once the noise stopped."""
        stop = threading.Event()

        def noisy_sender():
            i = 0
            while not stop.is_set() and i < 100:
                transport.send(0, 1, ("noise", i), i)
                i += 1
                stop.wait(0.05)

        sender = threading.Thread(target=noisy_sender, daemon=True)
        sender.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(TransportTimeout):
                transport.recv(1, 0, ("missing",), timeout=0.3)
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            sender.join(timeout=10.0)
        assert 0.3 <= elapsed < 1.0, (
            f"recv(timeout=0.3) returned after {elapsed:.2f}s -- the "
            f"deadline restarted on unrelated arrivals"
        )

    def test_drain_accounting(self, transport):
        """drain(dst) reports exactly the undelivered messages."""
        for i in range(3):
            transport.send(0, 1, ("junk",), i)
        transport.send(0, 1, ("flush",), "sentinel")
        # Receiving the sentinel forces the three junk messages to be
        # buffered locally first (same src => per-channel FIFO), which
        # makes the drain count deterministic for the socket transports.
        assert transport.recv(1, 0, ("flush",), timeout=10.0) == "sentinel"
        assert transport.drain(1) == 3
        with pytest.raises(TransportTimeout):
            transport.recv(1, 0, ("junk",), timeout=0.05)

    def test_close_idempotent_and_send_after_close_raises(self, transport):
        transport.close()
        transport.close()
        with pytest.raises(TransportError):
            transport.send(0, 1, ("v",), 1)
