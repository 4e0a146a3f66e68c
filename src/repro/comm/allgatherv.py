"""Ring AllGatherv: the collective Horovod falls back to for sparse grads.

AllGatherv concatenates variable-length contributions from every worker
(here: IndexedSlices gradients) and delivers the concatenation to all of
them.  With the ring schedule each worker forwards, over N-1 steps, the
pieces it has received so far; every worker's payload of ``alpha*w`` bytes
traverses N-1 links, giving the paper's ``2*alpha*w*(N-1)`` bytes per
machine for one variable (section 3.1, Figure 2(d)) -- the term that makes
pure-AR training of sparse models collapse at scale.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.comm.transcript import Transcript
from repro.tensor.sparse import IndexedSlices, concat_slices


def ring_allgatherv(
    contributions: Sequence[IndexedSlices],
    machines: Optional[Sequence[int]] = None,
    transcript: Optional[Transcript] = None,
    tag: str = "allgatherv",
    stage_offset: int = 0,
) -> List[IndexedSlices]:
    """Gather every worker's IndexedSlices to all workers (ring schedule).

    Returns one entry per worker, all the *same* concatenated
    IndexedSlices, ordered by originating worker index: the ring only
    forwards pieces, so every worker ends with that concatenation and it
    is built once.  Duplicate indices are preserved (the consumer decides
    whether to combine), matching the paper's description of AllGatherv
    as pure concatenation.
    """
    # Validates too: at least one worker, one shared dense_shape.
    gathered = concat_slices(list(contributions))
    n = len(contributions)
    if machines is None:
        machines = list(range(n))
    if len(machines) != n:
        raise ValueError("machines must have one entry per worker")

    if transcript is not None:
        # At step s worker i forwards the piece that originated at
        # worker (i - s) mod n.  Indices ride along with values; the
        # paper's model treats the index payload as negligible but we
        # record it under a separate tag so the approximation is
        # checkable.
        for step in range(n - 1):
            for i in range(n):
                piece = contributions[(i - step) % n]
                src, dst = machines[i], machines[(i + 1) % n]
                transcript.record(tag, src, dst, piece.value_nbytes,
                                  stage=stage_offset + step)
                transcript.record(f"idx:{tag}", src, dst,
                                  piece.index_nbytes,
                                  stage=stage_offset + step)

    return [gathered] * n
