"""Parameter-server placement and re-sharding.

:func:`place_variables` spreads PS variables evenly across the server
machines (paper section 4.3); :func:`split_rows` and
:func:`merge_shards` cut a partitioned variable into row-range shards
and join them back bit-for-bit, which is how the elastic runtime
re-shards state when a rescale changes the partition count.  Gradient
aggregation on the servers -- the role TensorFlow's conditional
accumulators play -- is the ``local_agg``/``global_agg`` kernels the
graph transformation inserts (``repro.core.transform.comm_ops``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def merge_shards(shards: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate row-range shards back into the full variable.

    The inverse of :func:`split_rows`: shards are contiguous row ranges in
    partition order, so a plain axis-0 concatenation reconstructs the
    original array bit-for-bit.  Trailing dimensions and dtypes must agree.
    """
    if not shards:
        raise ValueError("merge_shards needs at least one shard")
    arrays = [np.asarray(s) for s in shards]
    first = arrays[0]
    for i, a in enumerate(arrays[1:], start=1):
        if a.shape[1:] != first.shape[1:]:
            raise ValueError(
                f"shard {i} has row shape {a.shape[1:]}, expected "
                f"{first.shape[1:]}"
            )
        if a.dtype != first.dtype:
            raise ValueError(
                f"shard {i} has dtype {a.dtype}, expected {first.dtype}"
            )
    return np.concatenate(arrays, axis=0)


def split_rows(full: np.ndarray, offsets: Sequence[int]) -> List[np.ndarray]:
    """Split *full* into contiguous row-range shards at *offsets*.

    ``offsets`` is the ``[0, ..., rows]`` boundary list a
    :class:`~repro.graph.variables.PartitionedVariable` carries; shard
    ``p`` receives rows ``offsets[p]:offsets[p+1]``.  Together with
    :func:`merge_shards` this is the bit-exact re-sharding primitive the
    elastic runtime uses when a rescale changes the partition count.
    """
    full = np.asarray(full)
    offsets = [int(o) for o in offsets]
    if (len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != full.shape[0]
            or any(lo > hi for lo, hi in zip(offsets, offsets[1:]))):
        raise ValueError(
            f"offsets {offsets} must be monotone, start at 0, and end at "
            f"the row count {full.shape[0]}"
        )
    return [full[lo:hi].copy() for lo, hi in zip(offsets, offsets[1:])]


def place_variables(
    sizes: Sequence[Tuple[str, int]],
    num_servers: int,
) -> Dict[str, int]:
    """Greedy balanced placement of variables onto server machines.

    Sorts by size descending and assigns each variable to the currently
    least-loaded server -- the "evenly distributes variables across
    servers" placement of paper section 4.3, which also underlies the
    balanced-PS assumption of the Table 3 transfer model.

    Args:
        sizes: (variable name, payload bytes) pairs.
        num_servers: number of server processes (one per machine).

    Returns:
        variable name -> server machine index.
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    loads = [0] * num_servers
    placement: Dict[str, int] = {}
    # Stable tie-break on name keeps placement deterministic run-to-run.
    for name, size in sorted(sizes, key=lambda kv: (-kv[1], kv[0])):
        target = min(range(num_servers), key=lambda s: (loads[s], s))
        placement[name] = target
        loads[target] += size
    return placement
