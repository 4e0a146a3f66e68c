"""Reference ring AllReduce: the data-moving implementation `src/` had
before the collective was reduced once (ISSUE 17).

An oracle, not product code: it materialises every worker's buffer,
copies every chunk hop, and fuses buckets by permuting the concatenated
buffer so that chunk ``c`` of every segment lands inside fused chunk
``c``.  ``comm.allreduce.ring_allreduce`` must produce the same bits and
the same Transcript records without moving any of that data.
"""

import numpy as np

from repro.comm.allreduce import chunk_bounds


def oracle_ring_allreduce(arrays, machines=None, transcript=None,
                          tag="allreduce", bounds=None):
    """Every worker's copy of the sum, by running the ring hop by hop."""
    n = len(arrays)
    shape = np.asarray(arrays[0]).shape
    machines = list(range(n)) if machines is None else machines
    flats = [np.asarray(a).reshape(-1).astype(np.float32, copy=True)
             for a in arrays]
    if bounds is None:
        bounds = chunk_bounds(flats[0].size, n)

    def hop(step, first_chunk, stage, combine):
        sends = []
        for i in range(n):
            c = (i + first_chunk - step) % n
            lo, hi = bounds[c], bounds[c + 1]
            sends.append((i, (i + 1) % n, lo, hi, flats[i][lo:hi].copy()))
        for src, dst, lo, hi, data in sends:
            combine(flats[dst][lo:hi], data)
            if transcript is not None:
                transcript.record(tag, machines[src], machines[dst],
                                  (hi - lo) * 4, stage=stage)

    def accumulate(dst, data):
        dst += data

    def overwrite(dst, data):
        dst[...] = data

    for step in range(n - 1):       # reduce-scatter
        hop(step, 0, step, accumulate)
    for step in range(n - 1):       # allgather
        hop(step, 1, (n - 1) + step, overwrite)
    return [f.reshape(shape) for f in flats]


def fused_segment_layout(sizes, num_workers):
    """``(perm, inv_perm, bounds)`` packing a bucket of segments so one
    ring over ``buffer[perm]`` with chunk *bounds* performs exactly the
    per-segment rings' additions; ``result[inv_perm]`` unpacks."""
    seg_bounds = [chunk_bounds(s, num_workers) for s in sizes]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    pieces, bounds = [], [0]
    for c in range(num_workers):
        for off, sb in zip(offsets[:-1], seg_bounds):
            pieces.append(np.arange(off + sb[c], off + sb[c + 1],
                                    dtype=np.int64))
        bounds.append(bounds[-1]
                      + sum(sb[c + 1] - sb[c] for sb in seg_bounds))
    perm = (np.concatenate(pieces) if pieces
            else np.zeros(0, dtype=np.int64))
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(perm.size, dtype=np.int64)
    return perm, inv_perm, bounds


def oracle_fused_allreduce(arrays, sizes, machines=None, transcript=None,
                           tag="allreduce"):
    """The parent's fused ring: permute in, one ring, permute out."""
    perm, inv_perm, bounds = fused_segment_layout(sizes, len(arrays))
    packed = [np.asarray(a).reshape(-1)[perm] for a in arrays]
    reduced = oracle_ring_allreduce(packed, machines, transcript, tag,
                                    bounds=bounds)
    return [r[inv_perm] for r in reduced]
