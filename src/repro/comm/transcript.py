"""Transfer transcript: the byte-level record of one training iteration.

The paper's architectural argument (section 3.1, Table 3) is entirely
about *how many bytes cross each machine's NIC per iteration*.  Every
communication primitive in the reproduction records its transfers here;
tests then check the totals against the paper's closed forms, and the
performance simulator replays the same flows through the network model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Transfer:
    """One directed data movement between machines.

    ``stage`` orders transfers that must be sequential (ring steps); flows
    in the same stage may overlap on the network.
    """

    tag: str
    src_machine: int
    dst_machine: int
    nbytes: int
    stage: int = 0

    @property
    def is_network(self) -> bool:
        """Whether this transfer crosses machine boundaries.

        Intra-machine movement (server and worker colocated, GPU-to-GPU)
        is recorded for completeness but costs no NIC bandwidth -- the
        paper's model likewise excludes it ("server and worker processes
        in the same machine communicate locally").
        """
        return self.src_machine != self.dst_machine


@dataclass(frozen=True)
class Note:
    """One annotated runtime event (fault injection, rescale, recovery).

    Notes carry no bytes -- they mark *when* something happened on the
    same timeline the transfers live on, so the chaos tests can correlate
    byte movement with the failure schedule that produced it.
    """

    tag: str
    iteration: int
    info: tuple  # sorted (key, value) pairs, hashable

    def get(self, key: str, default=None):
        return dict(self.info).get(key, default)


class Transcript:
    """Append-only list of transfers plus aggregation helpers."""

    def __init__(self):
        self._transfers: List[Transfer] = []
        self._events: List[Note] = []

    def record(self, tag: str, src_machine: int, dst_machine: int,
               nbytes: int, stage: int = 0) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return
        self._transfers.append(
            Transfer(tag, int(src_machine), int(dst_machine), int(nbytes),
                     int(stage))
        )

    def note(self, tag: str, iteration: int, **info) -> None:
        """Record a zero-byte runtime event (fault, rescale, recovery)."""
        self._events.append(
            Note(tag, int(iteration), tuple(sorted(info.items())))
        )

    def extend(self, transfers: Iterable[Transfer] = (),
               events: Iterable[Note] = ()) -> None:
        """Append already-built records (merging per-worker transcripts).

        The multiprocess backend ships each worker's transcript delta to
        the controller after every step and appends them here in worker
        rank order -- see :func:`merge_transcripts` for the ordering
        contract.
        """
        self._transfers.extend(transfers)
        self._events.extend(events)

    def events(self, tag_prefix: Optional[str] = None) -> List[Note]:
        if tag_prefix is None:
            return list(self._events)
        return [e for e in self._events if e.tag.startswith(tag_prefix)]

    def clear(self) -> None:
        self._transfers = []
        self._events = []

    @property
    def transfers(self) -> List[Transfer]:
        return list(self._transfers)

    def filter(self, tag_prefix: Optional[str] = None,
               network_only: bool = True) -> List[Transfer]:
        out = []
        for t in self._transfers:
            if network_only and not t.is_network:
                continue
            if tag_prefix is not None and not t.tag.startswith(tag_prefix):
                continue
            out.append(t)
        return out

    def total_network_bytes(self, tag_prefix: Optional[str] = None) -> int:
        return sum(t.nbytes for t in self.filter(tag_prefix))

    def bytes_per_machine(self, tag_prefix: Optional[str] = None,
                          ) -> Dict[int, Dict[str, int]]:
        """Per-machine NIC load: ``{machine: {"out": bytes, "in": bytes}}``.

        This is the quantity in the paper's Table 3 ("the amount of
        network transfer required per machine").
        """
        loads: Dict[int, Dict[str, int]] = {}
        for t in self.filter(tag_prefix):
            loads.setdefault(t.src_machine, {"out": 0, "in": 0})["out"] += t.nbytes
            loads.setdefault(t.dst_machine, {"out": 0, "in": 0})["in"] += t.nbytes
        return loads

    def max_machine_bytes(self, tag_prefix: Optional[str] = None) -> int:
        """The busiest NIC's total (in + out) -- the PS hot-spot metric."""
        loads = self.bytes_per_machine(tag_prefix)
        if not loads:
            return 0
        return max(v["out"] + v["in"] for v in loads.values())

    def __len__(self) -> int:
        return len(self._transfers)


def merge_transcripts(parts: Iterable[Transcript]) -> Transcript:
    """Deterministically merge per-worker transcripts into one.

    Ordering contract: workers in the order given (rank order), each
    worker's internal record order preserved.  Merging is therefore a
    pure function of the inputs -- the aggregate views (byte totals,
    per-machine loads, event queries) are identical no matter when the
    merge happens, which the multiprocess backend's tests rely on.
    """
    merged = Transcript()
    for part in parts:
        merged.extend(part.transfers, part.events())
    return merged
