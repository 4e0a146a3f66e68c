"""Sparse gradient representation: ``IndexedSlices``.

TensorFlow represents the gradient of a variable accessed through
``tf.gather`` as an ``IndexedSlices`` -- a pair of arrays ``(values,
indices)`` where row ``values[i]`` is the gradient contribution for row
``indices[i]`` of the variable.  Parallax's sparsity detection is exactly
"did autodiff produce IndexedSlices for this variable?", so this type is
load-bearing for the whole reproduction.

Indices may repeat (a batch usually contains the same word many times);
``combine`` sums duplicate rows, which is what PS accumulators and
AllGatherv reductions must do before applying an update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.tensor.dense import as_array


@dataclass
class IndexedSlices:
    """A sparse set of rows of a larger (dense) tensor.

    Attributes:
        values: float array of shape ``(k,) + dense_shape[1:]``.
        indices: int array of shape ``(k,)``; row ids into the first
            dimension of the dense tensor.  May contain duplicates.
        dense_shape: shape of the tensor these slices belong to.
    """

    values: np.ndarray
    indices: np.ndarray
    dense_shape: Tuple[int, ...]

    def __post_init__(self):
        self.values = as_array(self.values)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.dense_shape = tuple(int(d) for d in self.dense_shape)
        if self.indices.ndim != 1:
            raise ValueError(f"indices must be rank-1, got {self.indices.shape}")
        if self.values.shape[0] != self.indices.shape[0]:
            raise ValueError(
                "values/indices leading dims differ: "
                f"{self.values.shape[0]} vs {self.indices.shape[0]}"
            )
        if self.values.shape[1:] != self.dense_shape[1:]:
            raise ValueError(
                f"values trailing shape {self.values.shape[1:]} does not match "
                f"dense_shape trailing {self.dense_shape[1:]}"
            )
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.dense_shape[0]
        ):
            raise ValueError("indices out of range for dense_shape")

    @classmethod
    def _wrap(cls, values: np.ndarray, indices: np.ndarray,
              dense_shape: Tuple[int, ...]) -> "IndexedSlices":
        """Internal fast constructor for invariant-preserving call sites.

        The algebra below (combine/concat/scale/slice_rows) and the kernel
        gradients construct slices whose arrays are already converted and
        whose indices are in range by construction; re-validating them
        costs two reductions per instantiation on the training hot path.
        External callers must use the normal constructor.
        """
        out = object.__new__(cls)
        out.values = values
        out.indices = indices
        out.dense_shape = dense_shape
        return out

    # ------------------------------------------------------------------
    # Size accounting (drives the transfer model)
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of slice rows currently stored (duplicates included)."""
        return int(self.indices.shape[0])

    @property
    def num_unique_rows(self) -> int:
        return int(np.unique(self.indices).size)

    @property
    def value_nbytes(self) -> int:
        return int(self.values.nbytes)

    @property
    def index_nbytes(self) -> int:
        return int(self.indices.nbytes)

    def alpha(self) -> float:
        """Fraction of dense rows touched: the paper's per-variable α."""
        if self.dense_shape[0] == 0:
            return 0.0
        return self.num_unique_rows / self.dense_shape[0]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def combine(self) -> "IndexedSlices":
        """Sum rows that share an index; result has unique, sorted indices.

        This is the CPU-side aggregation work the paper identifies as the
        thing partitioning parallelizes ("iterating through nonzero indices
        one by one to accumulate values with the same index", section 3.2).
        """
        if self.indices.size == 0:
            return IndexedSlices._wrap(self.values, self.indices,
                                       self.dense_shape)
        uniq, inverse = np.unique(self.indices, return_inverse=True)
        summed = np.zeros((uniq.size,) + self.values.shape[1:], dtype=self.values.dtype)
        np.add.at(summed, inverse, self.values)
        return IndexedSlices._wrap(summed, uniq, self.dense_shape)

    def scale(self, factor: float) -> "IndexedSlices":
        return IndexedSlices._wrap(self.values * factor, self.indices.copy(),
                                   self.dense_shape)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dense_shape, dtype=self.values.dtype)
        np.add.at(dense, self.indices, self.values)
        return dense

    def slice_rows(self, lo: int, hi: int) -> "IndexedSlices":
        """Rows whose index lies in ``[lo, hi)``, re-based to the partition.

        Used when a partitioned sparse variable routes gradient rows to the
        server holding each partition.
        """
        mask = (self.indices >= lo) & (self.indices < hi)
        return IndexedSlices._wrap(
            self.values[mask],
            self.indices[mask] - lo,
            (hi - lo,) + self.dense_shape[1:],
        )

    def copy(self) -> "IndexedSlices":
        return IndexedSlices(self.values.copy(), self.indices.copy(), self.dense_shape)

    def __eq__(self, other) -> bool:  # value equality, used by tests
        if not isinstance(other, IndexedSlices):
            return NotImplemented
        return (
            self.dense_shape == other.dense_shape
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


def concat_slices(slices: Sequence[IndexedSlices]) -> IndexedSlices:
    """Concatenate slices from several workers (the AllGatherv result)."""
    if not slices:
        raise ValueError("need at least one IndexedSlices to concatenate")
    shape = slices[0].dense_shape
    for s in slices[1:]:
        if s.dense_shape != shape:
            raise ValueError("all slices must share dense_shape")
    values = np.concatenate([s.values for s in slices], axis=0)
    indices = np.concatenate([s.indices for s in slices], axis=0)
    return IndexedSlices._wrap(values, indices, shape)


def to_dense(value) -> np.ndarray:
    """Densify either an IndexedSlices or an array (identity for arrays)."""
    if isinstance(value, IndexedSlices):
        return value.to_dense()
    return np.asarray(value)
