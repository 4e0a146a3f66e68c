"""Dense tensor helpers.

All dense values in the reproduction are plain ``numpy.ndarray`` objects;
this module provides the small amount of shared plumbing around them:
conversion, shape/dtype specs, and byte accounting used by the network
transfer model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

import numpy as np

DEFAULT_DTYPE = np.float32

ArrayLike = Union[np.ndarray, float, int, Iterable]


def as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Convert *value* to a numpy array with the framework default dtype.

    Integer inputs keep an integer dtype (indices must stay integral);
    everything else defaults to float32, matching the GPU-resident dtype
    used by the training systems the paper evaluates.
    """
    arr = np.asarray(value)
    if dtype is None:
        if np.issubdtype(arr.dtype, np.integer) or np.issubdtype(arr.dtype,
                                                                 np.bool_):
            dtype = arr.dtype
        else:
            dtype = DEFAULT_DTYPE
    if arr.ndim == 0:
        # ascontiguousarray would promote 0-d to 1-d; keep scalars scalar.
        return arr.astype(dtype)
    return np.ascontiguousarray(arr, dtype=dtype)


def nbytes_of(value) -> int:
    """Number of payload bytes a value occupies on the wire.

    For an ``IndexedSlices`` the paper's transfer model (section 3.1,
    footnote 3) counts only the nonzero *values*; the index payload is
    negligible and is tracked separately by the communication layer.
    """
    # Import here to avoid a cycle between dense and sparse modules.
    from repro.tensor.sparse import IndexedSlices

    if isinstance(value, IndexedSlices):
        return int(value.values.nbytes)
    arr = np.asarray(value)
    return int(arr.nbytes)


@dataclass(frozen=True)
class TensorSpec:
    """Static shape/dtype description of a tensor.

    Used by the graph IR for shape inference and by the performance plane,
    which needs element counts without materializing paper-scale arrays
    (e.g. the LM embedding with 406M elements).
    """

    shape: Tuple[int, ...]
    dtype: str = "float32"

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        for dim in self.shape:
            if dim < 0:
                raise ValueError(f"TensorSpec dims must be >= 0, got {self.shape}")

    @property
    def num_elements(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return n

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.itemsize

    @property
    def rank(self) -> int:
        return len(self.shape)

    @classmethod
    def of(cls, array: np.ndarray) -> "TensorSpec":
        return cls(shape=tuple(array.shape), dtype=str(array.dtype))

    def with_leading_dim(self, dim: int) -> "TensorSpec":
        """Spec with the first dimension replaced (partitioning helper)."""
        if not self.shape:
            raise ValueError("cannot replace leading dim of a scalar spec")
        return TensorSpec(shape=(int(dim),) + self.shape[1:], dtype=self.dtype)
