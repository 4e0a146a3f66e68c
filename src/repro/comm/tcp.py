"""Cross-host transport: length-prefixed frames over TCP sockets.

This is the plane ROADMAP item 1 asks for -- the same rank-addressed
``send``/``recv`` contract as the in-host transports, but over real
sockets, so a fleet can span machines.  Two bootstrap modes share one
:class:`TcpTransport`:

* **fork mode** (the default constructor): the controller binds one
  listening socket per endpoint *before* the workers fork, exactly like
  :class:`~repro.comm.transport.ShmTransport` pre-creates its rings.
  Children inherit the bound sockets, so there is no name lookup or
  connect race -- every address exists before any process runs.
* **rendezvous mode** (:meth:`TcpTransport.for_rank`): each process is
  launched independently (``repro.cli launch``), binds its own listener,
  and learns everyone else's address from a ``tcp://host:port``
  bootstrap server (:class:`RendezvousServer`, run by the controller).
  The join exchanges ``rank -> (host, port)`` maps and barriers before
  the first step, mirroring the ``init_process_group`` bootstrap of the
  mainstream frameworks.

Wire format
-----------
One frame per message::

    !II header: (meta_len, payload_len)
    meta:       pickled (src_rank, key, kind, array_metas, extra)
    payload:    payload_len raw bytes

``kind`` selects the payload encoding -- ``"p"`` is a pickled value;
``"a"``/``"s"`` (the :func:`~repro.comm.transport.wire_parts` bulk
paths) carry raw C-order array bytes with dtype/shape/nbytes in
``array_metas``, so eligible ndarrays and IndexedSlices cross the
socket without a pickle or any other copy: a frame's chunks are flat
``uint8`` views of the sender's arrays (only an array that is not
C-contiguous is copied first).  The freeze-at-send the other transports
get from eager pickling or the ring copy comes from the blocking
``sendall``: ``send`` encodes and writes on the caller's thread and
returns only once the kernel has taken every byte, so a later mutation
cannot reach the frame.  The receiver reads each frame into a fresh,
uninitialised ``uint8`` array that only that frame's values use
(``recv_into`` fills every byte, so nothing is zero-filled first) and
rebuilds arrays with ``np.frombuffer`` over it -- no copy.

Connections are created on demand, one duplex socket per rank pair in
the dominant command/response pattern: the first sender connects and
announces its endpoint index (a 4-byte hello), the acceptor registers
the socket for its own replies.  Every connection gets a blocking
reader thread that decodes frames into the inbox of the endpoint's
:class:`~repro.comm.transport.Mailbox` continuously -- which is what
keeps ``send`` effectively non-blocking (the peer always drains its
socket, independent of application ``recv`` calls) and the fleet
deadlock-free.  Waiting for a message is the mailbox's business; this
module is only the socket framing.

Counter accounting: every frame adds its payload to ``wire_bytes`` /
``wire_msgs`` (physical socket traffic, what ``tcp_bw`` in the cost
model prices); pickle-path frames *also* count ``pickle_bytes``
/ ``pickle_msgs`` (serialization cost), and ``copy_count`` counts only
the C-order copies of non-contiguous bulk arrays.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import socket
import struct
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.transport import (
    CONTROLLER,
    Mailbox,
    Transport,
    TransportError,
    TransportTimeout,
    wire_parts,
)

_HEADER = struct.Struct("!II")
_HELLO = struct.Struct("!I")
_OBJ_LEN = struct.Struct("!I")


def parse_rendezvous(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` -> ``(host, port)``."""
    if not url.startswith("tcp://"):
        raise ValueError(f"rendezvous url must be tcp://host:port, got {url!r}")
    hostport = url[len("tcp://"):]
    host, sep, port = hostport.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"rendezvous url must be tcp://host:port, got {url!r}")
    return host, int(port)


def bind_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """A bound, listening TCP socket (port 0 = OS-assigned)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(64)
    return sock


def _read_exact(sock: socket.socket, n: int) -> np.ndarray:
    """Exactly *n* bytes from *sock* (blocking); EOFError on early close.

    The buffer is uninitialised (``bytearray(n)`` would zero-fill bytes
    the socket overwrites anyway)."""
    buf = np.empty(n, dtype=np.uint8)
    view = memoryview(buf)
    got = 0
    while got < n:
        r = sock.recv_into(view[got:], n - got)
        if r == 0:
            raise EOFError(f"peer closed after {got}/{n} bytes")
        got += r
    return buf


def _shutdown_close(sock: Optional[socket.socket]) -> None:
    """Close *sock*, waking any thread blocked in accept/recv on it."""
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _send_obj(sock: socket.socket, obj) -> None:
    """One length-prefixed pickled object (rendezvous control plane)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_OBJ_LEN.pack(len(data)) + data)


def _recv_obj(sock: socket.socket):
    (n,) = _OBJ_LEN.unpack(bytes(_read_exact(sock, _OBJ_LEN.size)))
    return pickle.loads(bytes(_read_exact(sock, n)))


class _Endpoint:
    """One rank's socket machinery: listener, connections, mailbox.

    The accept thread learns each inbound peer from its hello and
    registers the socket for duplex reuse; one blocking reader thread
    per connection decodes frames straight into the mailbox's inbox.
    All sends to one peer serialize on that connection's lock so frames
    never interleave.
    """

    def __init__(self, transport: "TcpTransport", rank: int,
                 listener: socket.socket):
        self.transport = transport
        self.idx = transport._slot(rank)
        self.listener = listener
        # Reader threads decode; the mailbox is fed ready values.
        self.mailbox = Mailbox(rank, queue_mod.Queue())
        # peer idx -> (socket, send lock); guarded by conn_lock.
        self.conns: Dict[int, Tuple[socket.socket, threading.Lock]] = {}
        self.conn_lock = threading.Lock()
        self.closed = False
        self._readers: List[threading.Thread] = []
        self._accepter = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"tcp-accept-{self.idx}",
        )
        self._accepter.start()

    # -- connection management -------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
                (peer,) = _HELLO.unpack(
                    bytes(_read_exact(sock, _HELLO.size)))
            except (OSError, EOFError):
                return  # listener closed (endpoint shutdown)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self.conn_lock:
                if self.closed:
                    _shutdown_close(sock)
                    return
                # Duplex reuse: replies ride the inbound socket unless a
                # simultaneous-connect race already registered one (then
                # this socket is read-only and both still deliver).
                self.conns.setdefault(peer, (sock, threading.Lock()))
                self._spawn_reader(sock)

    def _spawn_reader(self, sock: socket.socket) -> None:
        thread = threading.Thread(
            target=self._read_loop, args=(sock,), daemon=True,
            name=f"tcp-read-{self.idx}",
        )
        thread.start()
        self._readers.append(thread)

    def _connection(self, peer: int) -> Tuple[socket.socket, threading.Lock]:
        """The (socket, lock) for *peer*, connecting on demand."""
        with self.conn_lock:
            if self.closed:
                raise TransportError("transport is closed")
            conn = self.conns.get(peer)
            if conn is not None:
                return conn
            addr = self.transport._addrs[peer]
            deadline = (time.monotonic()
                        + self.transport.connect_timeout)
            while True:
                try:
                    sock = socket.create_connection(addr, timeout=5.0)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise TransportError(
                            f"cannot connect to endpoint {peer} at "
                            f"{addr}"
                        ) from None
                    time.sleep(0.05)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(_HELLO.pack(self.idx))
            conn = (sock, threading.Lock())
            self.conns[peer] = conn
            self._spawn_reader(sock)
            return conn

    # -- receive path ----------------------------------------------------
    def _read_loop(self, sock: socket.socket) -> None:
        try:
            while True:
                header = _read_exact(sock, _HEADER.size)
                meta_len, payload_len = _HEADER.unpack(bytes(header))
                meta = pickle.loads(bytes(_read_exact(sock, meta_len)))
                payload = (_read_exact(sock, payload_len)
                           if payload_len else bytearray())
                self.mailbox.inbox.put(
                    self.transport._decode(meta, payload))
        except (OSError, EOFError):
            return  # peer gone or endpoint closing
        except Exception:
            if not self.closed:
                raise

    # -- shutdown --------------------------------------------------------
    def close(self) -> None:
        with self.conn_lock:
            if self.closed:
                return
            self.closed = True
            conns = list(self.conns.values())
            self.conns.clear()
        _shutdown_close(self.listener)
        for sock, _ in conns:
            _shutdown_close(sock)
        self._accepter.join(timeout=1.0)
        for thread in self._readers:
            thread.join(timeout=1.0)


class TcpTransport(Transport):
    """Rank-addressed messaging over TCP; see the module docstring.

    Endpoints (sockets, reader threads, inbox) are created lazily per
    local rank on first use -- after the fork in fork mode, so threads
    never cross a fork boundary, and only for ranks this process
    actually is.  Several endpoints can coexist in one process, which
    is what the conformance suite exercises.
    """

    name = "tcp"

    def __init__(self, num_workers: int, host: str = "127.0.0.1",
                 addrs: Optional[Dict[int, Tuple[str, int]]] = None,
                 listeners: Optional[Dict[int, socket.socket]] = None,
                 connect_timeout: float = 20.0):
        super().__init__(num_workers)
        self.host = host
        self.connect_timeout = float(connect_timeout)
        self._endpoints: Dict[int, _Endpoint] = {}
        self._ep_lock = threading.Lock()
        if addrs is None:
            # Fork mode: bind every endpoint's listener now, pre-fork;
            # children inherit the bound sockets and their addresses.
            self._listeners = {
                idx: bind_listener(host)
                for idx in range(num_workers + 1)
            }
            self._addrs = {
                idx: sock.getsockname()
                for idx, sock in self._listeners.items()
            }
        else:
            self._addrs = {int(k): tuple(v) for k, v in addrs.items()}
            self._listeners = dict(listeners or {})
            missing = set(range(num_workers + 1)) - set(self._addrs)
            if missing:
                raise ValueError(
                    f"address map missing endpoints {sorted(missing)}"
                )

    @classmethod
    def for_rank(cls, num_workers: int, rank: int,
                 rank_addrs: Dict[int, Tuple[str, int]],
                 listener: socket.socket,
                 connect_timeout: float = 20.0) -> "TcpTransport":
        """Rendezvous-mode endpoint for one launched process.

        *rank_addrs* is the rendezvous map keyed by rank (including
        :data:`CONTROLLER`); *listener* is this process' already-bound
        listening socket (its address is what the join announced).
        """
        idx_of = (lambda r: num_workers if r == CONTROLLER else r)
        addrs = {idx_of(int(r)): tuple(a) for r, a in rank_addrs.items()}
        return cls(num_workers, addrs=addrs,
                   listeners={idx_of(rank): listener},
                   connect_timeout=connect_timeout)

    # -- endpoint plumbing -----------------------------------------------
    def _endpoint(self, rank: int) -> _Endpoint:
        idx = self._slot(rank)
        with self._ep_lock:
            if self._closed:
                raise TransportError("transport is closed")
            endpoint = self._endpoints.get(idx)
            if endpoint is None:
                listener = self._listeners.get(idx)
                if listener is None:
                    raise TransportError(
                        f"no local listener for rank {rank}; this "
                        f"process only hosts {sorted(self._listeners)}"
                    )
                endpoint = _Endpoint(self, rank, listener)
                self._endpoints[idx] = endpoint
            return endpoint

    # -- encode / decode -------------------------------------------------
    def _encode(self, src: int, dst: int, key: Tuple, value):
        """``(header+meta, payload_chunks)``, counted."""
        t0 = time.perf_counter()
        c = self.counters
        parts = wire_parts(value)
        if parts is None:
            payload = pickle.dumps(value,
                                   protocol=pickle.HIGHEST_PROTOCOL)
            chunks = [payload]
            meta = (src, key, "p", None, None)
            c["pickle_bytes"] += len(payload)
            c["pickle_msgs"] += 1
        else:
            kind, arrays, extra = parts
            # No freeze copy: ``send`` hands these views to ``_put`` on
            # this thread, whose blocking ``sendall`` takes every byte.
            chunks, metas = [], []
            for a in arrays:
                if not a.flags.c_contiguous:
                    a = np.ascontiguousarray(a)
                    c["copy_count"] += 1
                chunks.append(a.reshape(-1).view(np.uint8))
                metas.append((a.dtype.str, a.shape, a.nbytes))
            meta = (src, key, kind, tuple(metas), extra)
        meta_bytes = pickle.dumps(meta,
                                  protocol=pickle.HIGHEST_PROTOCOL)
        payload_len = sum(len(chunk) for chunk in chunks)
        c["wire_bytes"] += payload_len
        c["wire_msgs"] += 1
        c["serialize_s"] += time.perf_counter() - t0
        header = _HEADER.pack(len(meta_bytes), payload_len)
        return header + meta_bytes, chunks

    def _decode(self, meta, payload):
        """``(src, key, value)`` from one frame's meta + payload."""
        t0 = time.perf_counter()
        src, key, kind, metas, extra = meta
        if kind == "p":
            value = pickle.loads(bytes(payload))
        else:
            view = memoryview(payload)
            arrays, off = [], 0
            for dtype, shape, nbytes in metas:
                arrays.append(
                    np.frombuffer(view[off:off + nbytes],
                                  dtype=dtype).reshape(shape))
                off += nbytes
            if kind == "a":
                value = arrays[0]
            else:
                from repro.tensor.sparse import IndexedSlices

                value = IndexedSlices._wrap(arrays[0], arrays[1],
                                            tuple(extra))
        self.counters["deserialize_s"] += time.perf_counter() - t0
        return src, key, value

    # -- transport interface ---------------------------------------------
    def _put(self, src: int, dst: int, key: Tuple, frame) -> None:
        head, chunks = frame
        sock, lock = self._endpoint(src)._connection(self._slot(dst))
        try:
            with lock:
                sock.sendall(head)
                for chunk in chunks:
                    sock.sendall(chunk)
        except OSError as exc:
            raise TransportError(
                f"send {src}->{dst} {key!r} failed: {exc}"
            ) from exc

    def _mailbox(self, dst: int) -> Mailbox:
        return self._endpoint(dst).mailbox

    def _release(self) -> None:
        with self._ep_lock:
            endpoints = list(self._endpoints.values())
            self._endpoints.clear()
            listeners = list(self._listeners.values())
            self._listeners.clear()
        for endpoint in endpoints:
            endpoint.close()
        for listener in listeners:
            # Listeners of endpoints this process never hosted (fork
            # mode inherits all of them) still hold their ports.
            _shutdown_close(listener)


class RendezvousServer:
    """The ``tcp://host:port`` bootstrap the controller runs.

    Accepts exactly *world_size* worker joins (``("join", rank, addr)``),
    replies to each with the full rank -> address map (including the
    controller's own transport address), then barriers: every worker
    sends ``("ready", rank)`` and is released with ``("go",)`` only
    after all are ready -- so nobody steps before the whole fleet can
    be reached.
    """

    def __init__(self, world_size: int,
                 controller_addr: Tuple[str, int],
                 host: str = "127.0.0.1", port: int = 0):
        if world_size < 1:
            raise ValueError("rendezvous needs at least one worker")
        self.world_size = world_size
        self.controller_addr = tuple(controller_addr)
        self._sock = bind_listener(host, port)
        self.addr = self._sock.getsockname()
        self.url = f"tcp://{self.addr[0]}:{self.addr[1]}"
        self._map: Optional[Dict[int, Tuple[str, int]]] = None
        self._error: Optional[BaseException] = None
        self._done = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "RendezvousServer":
        self._thread = threading.Thread(
            target=self._serve, daemon=True, name="tcp-rendezvous",
        )
        self._thread.start()
        return self

    def _serve(self) -> None:
        conns: Dict[int, Tuple[socket.socket, Tuple[str, int]]] = {}
        try:
            while len(conns) < self.world_size:
                sock, _ = self._sock.accept()
                tag, rank, addr = _recv_obj(sock)
                if tag != "join":
                    raise TransportError(
                        f"expected join, got {tag!r}")
                if rank in conns:
                    raise TransportError(
                        f"rank {rank} joined the rendezvous twice")
                if not 0 <= rank < self.world_size:
                    raise TransportError(
                        f"join rank {rank} out of range "
                        f"[0, {self.world_size})")
                conns[rank] = (sock, tuple(addr))
            addr_map = {rank: addr
                        for rank, (_, addr) in conns.items()}
            addr_map[CONTROLLER] = self.controller_addr
            for sock, _ in conns.values():
                _send_obj(sock, ("map", addr_map))
            for rank, (sock, _) in conns.items():
                tag, got = _recv_obj(sock)
                if tag != "ready" or got != rank:
                    raise TransportError(
                        f"rank {rank} broke the barrier: "
                        f"({tag!r}, {got!r})")
            for sock, _ in conns.values():
                _send_obj(sock, ("go",))
            self._map = addr_map
        except BaseException as exc:
            self._error = exc
        finally:
            for sock, _ in conns.values():
                _shutdown_close(sock)
            _shutdown_close(self._sock)
            self._done.set()

    def wait(self, timeout: Optional[float] = None,
             ) -> Dict[int, Tuple[str, int]]:
        """Block until the barrier released; the rank -> address map."""
        if not self._done.wait(timeout):
            _shutdown_close(self._sock)
            raise TransportTimeout(
                f"rendezvous did not complete within {timeout}s "
                f"({self.world_size} workers expected)"
            )
        if self._error is not None:
            raise TransportError(
                f"rendezvous failed: {self._error}"
            ) from self._error
        return dict(self._map)


def rendezvous_join(url: str, rank: int, addr: Tuple[str, int],
                    timeout: float = 60.0,
                    ) -> Dict[int, Tuple[str, int]]:
    """Join the bootstrap at *url* as *rank*, announcing *addr*.

    Retries the connect until *timeout* (workers typically race the
    controller to the rendezvous port), runs the join/map/ready/go
    exchange, and returns the rank -> address map.
    """
    host, port = parse_rendezvous(url)
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise TransportTimeout(
                    f"cannot reach rendezvous {url} within {timeout}s"
                ) from None
            time.sleep(0.1)
    try:
        sock.settimeout(max(1.0, deadline - time.monotonic()))
        _send_obj(sock, ("join", rank, tuple(addr)))
        tag, addr_map = _recv_obj(sock)
        if tag != "map":
            raise TransportError(f"expected map, got {tag!r}")
        _send_obj(sock, ("ready", rank))
        (tag,) = _recv_obj(sock)
        if tag != "go":
            raise TransportError(f"expected go, got {tag!r}")
        return addr_map
    finally:
        _shutdown_close(sock)
