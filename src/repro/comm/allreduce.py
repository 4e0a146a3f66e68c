"""Ring AllReduce: the NCCL-style collective for dense gradients.

The ring algorithm (Patarasuk & Yuan) runs in two phases over N workers:
N-1 *reduce-scatter* steps, after which worker ``i`` holds the fully
reduced chunk ``(i+1) mod N``, then N-1 *allgather* steps that circulate
the reduced chunks.  Each worker sends and receives ``size/N`` elements
per step, giving the paper's ``4w(N-1)/N`` bytes per machine for one
variable of ``w`` bytes (section 3.1, Figure 2(c)).

The ring leaves every worker with the same bits, and those bits are fixed
by the chunking alone: chunk ``c`` starts at worker ``c`` and picks up one
contribution per hop, so its value is the left fold
``x[c+N-1] + (... (x[c+1] + x[c]))`` in ring order.  This module computes
that fold *once* into one buffer all N workers share -- no per-worker
copies, no per-hop copies -- and records into the transcript exactly the
chunk movements the N-worker ring performs, from the chunk sizes alone.

A fused bucket (several gradients concatenated into one collective) is
the same ring with per-*segment* chunking: chunk ``c`` of the bucket is
chunk ``c`` of every segment, so each element is summed in the order its
own per-variable ring would use and one fused message per ring step
carries all of them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.comm.transcript import Transcript


def chunk_bounds(size: int, num_chunks: int) -> List[int]:
    """Split ``size`` elements into ``num_chunks`` contiguous chunks."""
    base, extra = divmod(size, num_chunks)
    bounds = [0]
    for c in range(num_chunks):
        bounds.append(bounds[-1] + base + (1 if c < extra else 0))
    return bounds


def _chunk_slices(sizes: Sequence[int], num_chunks: int):
    """``slices[c]``: the ``(lo, hi)`` ranges of ring chunk ``c`` in a
    buffer of concatenated segments -- chunk ``c`` of every segment under
    that segment's own :func:`chunk_bounds`, empty ranges dropped."""
    if any(s < 0 for s in sizes):
        raise ValueError("segment sizes must be >= 0")
    slices: List[List[tuple]] = [[] for _ in range(num_chunks)]
    offset = 0
    for size in sizes:
        bounds = chunk_bounds(size, num_chunks)
        for c in range(num_chunks):
            if bounds[c] < bounds[c + 1]:
                slices[c].append((offset + bounds[c], offset + bounds[c + 1]))
        offset += size
    return slices


def fused_chunk_bounds(sizes: Sequence[int], num_chunks: int) -> List[int]:
    """Cumulative element counts of a fused bucket's ring chunks (what one
    fused message per step carries); equals :func:`chunk_bounds` for a
    single segment."""
    bounds = [0]
    for chunk in _chunk_slices([int(s) for s in sizes], num_chunks):
        bounds.append(bounds[-1] + sum(hi - lo for lo, hi in chunk))
    return bounds


def ring_allreduce(
    arrays: Sequence[np.ndarray],
    machines: Optional[Sequence[int]] = None,
    transcript: Optional[Transcript] = None,
    tag: str = "allreduce",
    stage_offset: int = 0,
    segments: Optional[Sequence[int]] = None,
    average: bool = False,
    out: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Sum *arrays* across workers in ring order.

    Args:
        arrays: one gradient array per worker (all the same shape).
        machines: machine id of each worker, for transfer accounting;
            defaults to one worker per machine.
        transcript: where to record chunk transfers (optional).
        tag: transcript tag.
        stage_offset: starting stage number (lets several collectives in
            one iteration keep distinct orderings).
        segments: element counts of the gradients concatenated into each
            (flat) array -- a fused bucket.  Every segment is chunked on
            its own, so results are bit-identical to one ring per
            segment; the default is one segment covering the array.
        average: divide the sum by the worker count.
        out: where to fold -- a caller-owned writable C-contiguous
            float32 buffer of the arrays' size that no input overlaps
            (a compiled plan's arena buffer); allocated when absent or
            unusable.

    Returns:
        One entry per worker, all the *same* read-only float32 array (a
        read-only view of *out* when one was used).
    """
    n = len(arrays)
    if n == 0:
        raise ValueError("ring_allreduce needs at least one worker")
    shape = np.asarray(arrays[0]).shape
    for a in arrays[1:]:
        if np.asarray(a).shape != shape:
            raise ValueError("all workers must contribute the same shape")
    if machines is None:
        machines = list(range(n))
    if len(machines) != n:
        raise ValueError("machines must have one entry per worker")

    # The ring accumulates in fp32 whatever the inputs are.
    flats = [np.asarray(a, dtype=np.float32).reshape(-1) for a in arrays]
    size = flats[0].size
    sizes = [size] if segments is None else [int(s) for s in segments]
    slices = _chunk_slices(sizes, n)
    if sum(sizes) != size:
        raise ValueError(
            f"segments cover {sum(sizes)} elements but the arrays hold "
            f"{size}"
        )

    if (type(out) is np.ndarray and out.dtype == np.float32
            and out.size == size and out.flags.c_contiguous
            and out.flags.writeable):
        out = out.reshape(-1)
    else:
        out = np.empty(size, dtype=np.float32)
    for c, chunk in enumerate(slices):
        for lo, hi in chunk:
            acc = out[lo:hi]
            if n == 1:
                acc[...] = flats[c][lo:hi]
                continue
            # Reduce-scatter hop: the receiver adds what arrives to its
            # own chunk, receiver's value as the first operand (hop 1
            # reads both contributions; nothing is copied into ``out``).
            np.add(flats[(c + 1) % n][lo:hi], flats[c][lo:hi], out=acc)
            for hop in range(2, n):
                np.add(flats[(c + hop) % n][lo:hi], acc, out=acc)
    if average:
        out /= np.float32(n)
    result = out.reshape(shape)
    result.flags.writeable = False

    if transcript is not None:
        nbytes = [sum(hi - lo for lo, hi in chunk) * out.itemsize
                  for chunk in slices]
        # Reduce-scatter step s moves chunk (i - s) mod n from worker i to
        # its successor; allgather step s then circulates the reduced
        # chunk (i + 1 - s) mod n.
        for phase in (0, 1):
            for step in range(n - 1):
                for i in range(n):
                    transcript.record(
                        tag, machines[i], machines[(i + 1) % n],
                        nbytes[(i + phase - step) % n],
                        stage=stage_offset + phase * (n - 1) + step)

    return [result] * n
