"""The message plane behind pluggable execution backends.

A :class:`Transport` carries every inter-process message of a distributed
step: parameter-server pushes and pulls (gradient contributions up,
variable values down), the all-to-all buffer exchange feeding fused
AllReduce and AllGatherv collectives, and the controller's command /
result traffic.  Execution backends (:mod:`repro.core.backend`) never
talk to pipes or queues directly -- they address peers by *rank* and let
the transport move the bytes.

One plane, two parts
--------------------
* :class:`Transport` is the whole send/receive contract, concrete on the
  base class: closed and rank checks and the cost counters on ``send``;
  ``recv`` and ``drain`` hand straight to the destination's
  :class:`Mailbox`.
* :class:`Mailbox` -- one per destination endpoint -- is the only place
  that knows how a rank *waits* for a message: the ``(src, key)`` boxes
  of buffered arrivals, the single-deadline wait (the timeout contract
  is stated once, on :meth:`Mailbox.recv`), decode-at-dequeue in arrival
  order, and ``drain``.

What is left to a concrete plane is its *framing*: how one message
becomes a frame (``_encode``, which is also where the value is frozen),
how the frame reaches the destination's inbox (``_put``), and how a
dequeued frame becomes a value again (the ``decode`` its mailboxes are
built with).  Four framings ship (see :func:`transport_registry`):

* :class:`InMemoryTransport` (``inmem``) -- the queue framing
  (:class:`QueueFraming`: eagerly pickled bytes, one FIFO per
  destination) over ``queue.Queue``, for same-process use (tests,
  threaded workers).  Messages are deep-frozen through pickle exactly
  like the real thing, so a value mutated after ``send`` cannot corrupt
  the receiver.
* :class:`MultiprocTransport` (``multiproc``; the backend calls it
  ``queue``) -- the same framing over :class:`multiprocessing.Queue`
  (OS pipe + feeder thread).
* :class:`ShmTransport` (``shm``) -- bulk arrays ride shared-memory
  rings and only a header tuple is queued; everything else falls back
  to the queue framing, which it composes.
* :class:`~repro.comm.tcp.TcpTransport` (``tcp``) -- length-prefixed
  frames over sockets, decoded by per-connection reader threads into
  the endpoint's inbox; the cross-host plane (``repro.cli launch``
  bootstraps it via a ``tcp://host:port`` rendezvous).

:class:`SimulatedLatencyTransport` wraps any of them with a
deterministic, seeded per-message delay schedule -- wall-clock changes,
values and ordering do not, so the differential/bit-identity suites
stay exact under injected latency.

Every endpoint counts what it sends in its ``counters`` -- payload
bytes and messages per path (pickle, shared-memory ring, raw socket
frame), bulk copies, ring fallbacks and serialize/deserialize time.
These physical counters stay apart from the runner's logical
:class:`~repro.comm.transcript.Transcript`: paper-facing byte accounting
(Table 3 closed forms) must not change when the same graph executes on a
different backend.

Ranks ``0..n-1`` are worker replicas; rank :data:`CONTROLLER` (-1) is
the driving process.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

# The driving (parent) process' rank.
CONTROLLER = -1

# Payloads below this many bytes take the shm plane's pickle path: the
# ring header would dominate.
MIN_SHM_BYTES = 1024


class TransportError(RuntimeError):
    """A transport-level failure (closed peer, timeout, bad rank)."""


class TransportTimeout(TransportError):
    """``recv`` gave up waiting for a message."""


# Serialization-cost counters every transport endpoint tracks.
# ``pickle_bytes``/``shm_bytes``/``wire_bytes`` split payload bytes by
# path (pickle, shared-memory ring, raw socket frame), ``copy_count``
# counts bulk memcpys (one per shm side per message), and the ``*_s``
# entries are serialize/deserialize wall time.
_COUNTER_ZERO = {
    "pickle_bytes": 0,
    "pickle_msgs": 0,
    "shm_bytes": 0,
    "shm_msgs": 0,
    "wire_bytes": 0,
    "wire_msgs": 0,
    "copy_count": 0,
    "fallbacks": 0,
    "serialize_s": 0.0,
    "deserialize_s": 0.0,
}


def counter_delta(now: Dict[str, float],
                  before: Dict[str, float]) -> Dict[str, float]:
    """``now - before`` per key (counters are monotonic accumulators)."""
    return {k: now.get(k, 0) - before.get(k, 0) for k in _COUNTER_ZERO}


def merge_counters(total: Dict[str, float],
                   delta: Dict[str, float]) -> Dict[str, float]:
    for k in _COUNTER_ZERO:
        total[k] = total.get(k, 0) + delta.get(k, 0)
    return total


def wire_parts(value):
    """``(kind, arrays, extra)`` for bulk-eligible values, else None.

    The eligibility rule shared by every bulk payload path (shm rings,
    raw TCP frames): plain native-dtype ``ndarray`` payloads move as one
    buffer (kind ``"a"``), :class:`~repro.tensor.sparse.IndexedSlices`
    as a values/indices pair plus its dense shape (kind ``"s"``);
    everything else (commands, results, state dicts, scalars) takes the
    transport's pickle path.
    """
    import numpy as np

    from repro.tensor.sparse import IndexedSlices

    if type(value) is np.ndarray:
        if value.dtype.hasobject or not value.dtype.isnative:
            return None
        return "a", [value], None
    if isinstance(value, IndexedSlices):
        vals, idx = value.values, value.indices
        if (type(vals) is not np.ndarray or type(idx) is not np.ndarray
                or vals.dtype.hasobject or not vals.dtype.isnative
                or idx.dtype.hasobject or not idx.dtype.isnative):
            return None
        return "s", [vals, idx], value.dense_shape
    return None


class Mailbox:
    """One destination endpoint's receive side: how a rank waits for mail.

    Frames arrive on *inbox* -- any FIFO with ``queue.Queue``'s
    ``get(timeout=)`` / ``get_nowait()`` -- as ``(src, key, frame)``.
    Every dequeued frame is decoded on the spot, in arrival order,
    whether or not it is the message being waited for: the copy out of
    a shm ring is what frees the slot, so release order equals write
    order (the ring's one protocol requirement), and the ``(src, key)``
    boxes of buffered arrivals hold ready values.  *decode* is
    ``decode(src, dst, frame) -> value``, or None for an inbox that is
    fed decoded values already (tcp's reader threads).

    A mailbox belongs to exactly one destination.  A process hosting
    several endpoints (the conformance suite) holds one mailbox per
    endpoint, so mail buffered for one rank is never handed to -- or
    drained by -- another.  It is single-consumer: one thread at a time
    receives for a given destination.
    """

    def __init__(self, dst: int, inbox,
                 decode: Optional[Callable] = None):
        self.dst = dst
        self.inbox = inbox
        self._decode = decode
        self._pending: Dict[Tuple[int, Tuple], deque] = {}

    def recv(self, src: int, key: Tuple, timeout: Optional[float] = None):
        """Next message ``(src, key)``; non-matching arrivals are boxed.

        Timeout contract (every plane, this is its only implementation):
        ``timeout=T`` computes one ``time.monotonic()`` deadline on
        entry and each inbox wait gets only the *remainder* -- buffering
        an unrelated arrival (other keys, other senders) never restarts
        the clock, so the call gives up within ``T`` of its start no
        matter how much background traffic the endpoint sees.  Waiting
        the full timeout again after every wakeup would never expire
        under steady unrelated traffic.  ``None`` waits forever.
        """
        want = (src, key)
        box = self._pending.get(want)
        if box:
            return box.popleft()
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            try:
                if remaining is not None and remaining <= 0:
                    raise queue_mod.Empty  # deadline passed while boxing
                got_src, got_key, frame = self.inbox.get(timeout=remaining)
            except queue_mod.Empty:
                raise TransportTimeout(
                    f"no message {src}->{self.dst} {key!r} within "
                    f"{timeout}s"
                ) from None
            value = (frame if self._decode is None
                     else self._decode(got_src, self.dst, frame))
            if (got_src, got_key) == want:
                return value
            self._pending.setdefault((got_src, got_key),
                                     deque()).append(value)

    def drain(self) -> int:
        """Discard every boxed and queued message (error paths).

        Queued frames are still decoded before they are dropped: that
        keeps ring accounting sane even for discarded messages.
        """
        dropped = sum(len(box) for box in self._pending.values())
        self._pending.clear()
        while True:
            try:
                got_src, _, frame = self.inbox.get_nowait()
            except queue_mod.Empty:
                return dropped
            if self._decode is not None:
                self._decode(got_src, self.dst, frame)
            dropped += 1


class Transport:
    """Point-to-point typed messages between the ranks of one runner.

    The interface is deliberately small: ``send`` is asynchronous and
    never blocks on the receiver; ``recv`` blocks (with optional
    timeout) until the message addressed ``(src -> dst, key)`` arrives.
    Keys are small hashable tuples -- the backends use ``("v", op_name)``
    for dataflow values, ``("cmd",)``/``("res",)`` for control traffic.

    Per-rank message order is preserved; messages with different keys
    from the same sender may be consumed in any order (the receiver's
    :class:`Mailbox` buffers non-matching arrivals).

    A concrete plane supplies only its framing: :meth:`_encode`,
    :meth:`_put`, :meth:`_mailbox` and, when it owns OS resources,
    :meth:`_release`.
    """

    name: str = "transport"

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("transport needs at least one worker rank")
        self.num_workers = num_workers
        # Per-endpoint serialization cost counters.  After a fork each
        # process accumulates its own copy; the multiprocess backend
        # ships worker deltas back with every step result so the
        # controller can price where the bytes of a step actually went.
        self.counters: Dict[str, float] = dict(_COUNTER_ZERO)
        self._closed = False

    # -- interface -------------------------------------------------------
    def send(self, src: int, dst: int, key: Tuple, value) -> None:
        """Deliver *value* to *dst*'s mailbox; returns immediately."""
        if self._closed:
            raise TransportError("transport is closed")
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        self._put(src, dst, key, self._encode(src, dst, key, value))

    def recv(self, dst: int, src: int, key: Tuple,
             timeout: Optional[float] = None):
        """Next message ``(src -> dst, key)``; blocks until it arrives
        or raises :class:`TransportTimeout` (see :meth:`Mailbox.recv`)."""
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        return self._mailbox(dst).recv(src, key, timeout)

    def drain(self, dst: int) -> int:
        """Discard every undelivered message addressed to *dst* (error
        paths); returns how many were dropped."""
        self._check_rank(dst, "destination")
        return self._mailbox(dst).drain()

    def close(self) -> None:
        """Release OS resources (queues, rings, sockets); idempotent."""
        if self._closed:
            return
        self._closed = True
        self._release()

    # -- framing back-end ------------------------------------------------
    def _encode(self, src: int, dst: int, key: Tuple, value):
        """The frame of *value*, frozen as of now.  Counts its own
        serialization cost."""
        raise NotImplementedError

    def _put(self, src: int, dst: int, key: Tuple, frame) -> None:
        """Move *frame* toward *dst*'s inbox without blocking on it."""
        raise NotImplementedError

    def _mailbox(self, dst: int) -> Mailbox:
        """The :class:`Mailbox` of local endpoint *dst*."""
        raise NotImplementedError

    def _release(self) -> None:
        """Free what the plane allocated; called once, by ``close``."""

    # -- shared helpers --------------------------------------------------
    def _check_rank(self, rank: int, role: str) -> None:
        if rank != CONTROLLER and not 0 <= rank < self.num_workers:
            raise TransportError(
                f"{role} rank {rank} out of range "
                f"[{CONTROLLER}, {self.num_workers})"
            )

    def _slot(self, rank: int) -> int:
        """Dense endpoint index: workers keep their rank, the
        controller gets the slot past the last worker."""
        return self.num_workers if rank == CONTROLLER else rank


class QueueFraming:
    """The queue framing: eagerly pickled bytes, one FIFO per destination.

    *make_queue* picks the FIFO: ``queue.Queue`` inside one process, a
    ``multiprocessing`` context's ``Queue`` (OS pipe + feeder thread)
    between forked ones.  The feeder thread gives non-blocking sends
    (no pipe-buffer deadlock between two ranks exchanging large
    buffers); the eager ``pickle.dumps`` in :meth:`freeze` is what makes
    that safe -- the feeder would otherwise serialize a live numpy
    buffer that an in-place update kernel may already have mutated.
    """

    def __init__(self, num_workers: int, make_queue: Callable,
                 counters: Dict[str, float]):
        # Index 0..n-1: worker inboxes; index n: controller inbox
        # (``Transport._slot`` order).
        self.inboxes = [make_queue() for _ in range(num_workers + 1)]
        self._counters = counters

    def freeze(self, value) -> bytes:
        t0 = time.perf_counter()
        frozen = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        c = self._counters
        c["serialize_s"] += time.perf_counter() - t0
        c["pickle_bytes"] += len(frozen)
        c["pickle_msgs"] += 1
        return frozen

    def thaw(self, frozen: bytes):
        t0 = time.perf_counter()
        value = pickle.loads(frozen)
        self._counters["deserialize_s"] += time.perf_counter() - t0
        return value

    def mailboxes(self, decode: Callable) -> List[Mailbox]:
        """One :class:`Mailbox` per inbox, in slot order."""
        last = len(self.inboxes) - 1
        return [Mailbox(CONTROLLER if slot == last else slot, inbox, decode)
                for slot, inbox in enumerate(self.inboxes)]

    def close(self) -> None:
        """Close ``multiprocessing`` queues (a ``queue.Queue`` plane
        holds nothing to release and never calls this)."""
        for q in self.inboxes:
            q.close()
            # Don't block interpreter exit on unflushed feeder threads.
            q.cancel_join_thread()


class _QueueTransport(Transport):
    """A plane whose whole framing is :class:`QueueFraming`."""

    def __init__(self, num_workers: int, make_queue: Callable):
        super().__init__(num_workers)
        self._queues = QueueFraming(num_workers, make_queue, self.counters)
        self._mailboxes = self._queues.mailboxes(self._decode)

    def _encode(self, src: int, dst: int, key: Tuple, value):
        return self._queues.freeze(value)

    def _put(self, src: int, dst: int, key: Tuple, frame) -> None:
        self._queues.inboxes[self._slot(dst)].put((src, key, frame))

    def _decode(self, src: int, dst: int, frame: bytes):
        return self._queues.thaw(frame)

    def _mailbox(self, dst: int) -> Mailbox:
        return self._mailboxes[self._slot(dst)]


class InMemoryTransport(_QueueTransport):
    """Same-process transport (threads or plain sequential use).

    Values round-trip through pickle on ``send`` so the in-memory plane
    has exactly the multiprocess plane's value semantics (no aliasing of
    mutable buffers between sender and receiver).
    """

    name = "inmem"

    def __init__(self, num_workers: int):
        super().__init__(num_workers, queue_mod.Queue)


class MultiprocTransport(_QueueTransport):
    """One ``multiprocessing.Queue`` per destination rank (plus one for
    the controller); the backend's ``queue`` plane."""

    name = "multiproc"

    def __init__(self, num_workers: int, context=None):
        if context is None:
            import multiprocessing as context
        super().__init__(num_workers, context.Queue)

    def _release(self) -> None:
        self._queues.close()


class ShmTransport(Transport):
    """Zero-copy transport: bulk arrays ride shared-memory rings.

    One SPSC :class:`~repro.comm.shm.ShmRing` per directed rank pair,
    all created by the controller *before* the workers fork (so every
    process inherits the mappings).  ``send`` copies an eligible payload
    into the ring once -- that copy is the freeze-at-send semantics the
    queue framing gets from eager pickling -- and ships only a small
    header tuple through the queue.  The mailbox copies the payload out
    the moment the header is dequeued (release order therefore equals
    write order, the ring's one protocol requirement).

    Fallback to the composed queue framing's pickle path, keeping the
    fleet deadlock-free and fully general, happens when the payload is

    * not a plain ``ndarray`` / ``IndexedSlices`` (commands, results,
      state dicts, scalars),
    * an object/non-native dtype,
    * smaller than :data:`MIN_SHM_BYTES` (header overhead would
      dominate),
    * larger than half the ring, or the ring is momentarily full.

    Byte accounting stays deterministic: shm messages count the exact
    payload ``nbytes`` (dtype x shape), pickle messages the frozen
    length, so the counters are a pure function of the traffic.
    """

    name = "shm"

    #: Default per-ring capacity.
    DEFAULT_RING_BYTES = 1 << 22

    def __init__(self, num_workers: int, context=None,
                 ring_bytes: int = DEFAULT_RING_BYTES):
        super().__init__(num_workers)
        from repro.comm.shm import ShmRing

        if context is None:
            import multiprocessing as context
        self._queues = QueueFraming(num_workers, context.Queue,
                                    self.counters)
        self._mailboxes = self._queues.mailboxes(self._decode)
        self._rings: Dict[Tuple[int, int], ShmRing] = {}
        ranks = [CONTROLLER] + list(range(num_workers))
        for a in ranks:
            for b in ranks:
                if a != b:
                    self._rings[(a, b)] = ShmRing(ring_bytes,
                                                  lock=context.Lock())

    def _encode(self, src: int, dst: int, key: Tuple, value):
        parts = wire_parts(value)
        if parts is not None:
            kind, arrays, extra = parts
            nbytes = sum(int(a.nbytes) for a in arrays)
            if nbytes >= MIN_SHM_BYTES:
                t0 = time.perf_counter()
                written = self._rings[(src, dst)].try_write(arrays)
                if written is not None:
                    pos, advance, seq, offs = written
                    c = self.counters
                    c["serialize_s"] += time.perf_counter() - t0
                    c["shm_bytes"] += nbytes
                    c["shm_msgs"] += 1
                    c["copy_count"] += 1
                    header = ("shm", pos, advance, seq, kind, extra,
                              tuple((a.dtype.str, a.shape, off)
                                    for a, off in zip(arrays, offs)))
                    return header
                self.counters["fallbacks"] += 1
        return self._queues.freeze(value)

    def _put(self, src: int, dst: int, key: Tuple, frame) -> None:
        self._queues.inboxes[self._slot(dst)].put((src, key, frame))

    def _decode(self, src: int, dst: int, frame):
        """Materialize one queue arrival (header tuple or pickled bytes)."""
        if isinstance(frame, (bytes, bytearray)):
            return self._queues.thaw(frame)
        from repro.tensor.sparse import IndexedSlices

        _, pos, advance, seq, kind, extra, metas = frame
        ring = self._rings[(src, dst)]
        t0 = time.perf_counter()
        try:
            arrays = ring.read(pos, seq, metas)
        finally:
            ring.release(advance)
        c = self.counters
        c["deserialize_s"] += time.perf_counter() - t0
        c["copy_count"] += 1
        if kind == "a":
            return arrays[0]
        values, indices = arrays
        return IndexedSlices._wrap(values, indices, tuple(extra))

    def _mailbox(self, dst: int) -> Mailbox:
        return self._mailboxes[self._slot(dst)]

    def _release(self) -> None:
        self._queues.close()
        for ring in self._rings.values():
            ring.destroy()

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """The /dev/shm segment names this transport owns (hygiene tests)."""
        return tuple(sorted(r.name for r in self._rings.values()))


class SimulatedLatencyTransport:
    """Deterministic per-message delay wrapper around any transport.

    ``send`` sleeps a delay drawn from a seeded schedule -- a pure
    function of ``(seed, src, dst, per-channel message index)`` -- then
    delegates to the wrapped transport.  Per-channel FIFO order is
    preserved (the delay happens before enqueue, in send order), values
    are untouched, and every other attribute (``recv``, ``counters``,
    ``close``, ...) proxies straight through.  Wall
    clock changes; bits do not -- which is what lets the differential
    and bit-identity suites run under injected latency and stay exact.
    """

    name = "simlat"

    def __init__(self, inner: Transport, delay_s: float = 1e-3,
                 jitter_s: float = 0.0, seed: int = 0):
        if delay_s < 0 or jitter_s < 0:
            raise ValueError("latency delays must be >= 0")
        self.inner = inner
        self.delay_s = float(delay_s)
        self.jitter_s = float(jitter_s)
        self.seed = int(seed)
        self._counts: Dict[Tuple[int, int], int] = {}

    def delay_for(self, src: int, dst: int, index: int) -> float:
        """The schedule: delay of channel ``src->dst``'s *index*-th send.

        Pure and replayable -- two wrappers with the same seed produce
        identical schedules, which is what makes latency-injected runs
        reproducible.
        """
        if self.jitter_s <= 0:
            return self.delay_s
        import random

        r = random.Random(f"{self.seed}:{src}:{dst}:{index}").random()
        return self.delay_s + r * self.jitter_s

    def send(self, src: int, dst: int, key: Tuple, value) -> None:
        index = self._counts.get((src, dst), 0)
        self._counts[(src, dst)] = index + 1
        delay = self.delay_for(src, dst, index)
        if delay > 0:
            time.sleep(delay)
        self.inner.send(src, dst, key, value)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def transport_registry() -> Dict[str, type]:
    """Every registered transport kind, name -> class.

    ``tcp`` is imported lazily: :mod:`repro.comm.tcp` imports this
    module, so eager registration would be a cycle.
    """
    from repro.comm.tcp import TcpTransport

    return {
        InMemoryTransport.name: InMemoryTransport,
        MultiprocTransport.name: MultiprocTransport,
        ShmTransport.name: ShmTransport,
        TcpTransport.name: TcpTransport,
    }


def make_transport(kind: str, num_workers: int, **kwargs) -> Transport:
    """Construct a registered transport by name."""
    registry = transport_registry()
    try:
        cls = registry[kind]
    except KeyError:
        raise ValueError(
            f"unknown transport {kind!r}; expected one of "
            f"{sorted(registry)}"
        ) from None
    return cls(num_workers, **kwargs)
