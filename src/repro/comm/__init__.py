"""Communication substrate: collectives, PS placement, byte accounting.

Every primitive both *moves data* (numpy arrays / IndexedSlices between
logical workers) and *records transfers* into a :class:`Transcript`, so the
same execution yields correctness results and the per-machine network-byte
profile the paper's Table 3 analyses.
"""

from repro.comm.transcript import Note, Transcript, Transfer, merge_transcripts
from repro.comm.transport import (
    InMemoryTransport,
    Mailbox,
    MultiprocTransport,
    ShmTransport,
    Transport,
    make_transport,
    transport_registry,
)
from repro.comm.allreduce import ring_allreduce
from repro.comm.allgatherv import ring_allgatherv
from repro.comm.ps import place_variables

__all__ = [
    "Note",
    "Transcript",
    "Transfer",
    "merge_transcripts",
    "Transport",
    "Mailbox",
    "InMemoryTransport",
    "MultiprocTransport",
    "ShmTransport",
    "make_transport",
    "transport_registry",
    "ring_allreduce",
    "ring_allgatherv",
    "place_variables",
]
