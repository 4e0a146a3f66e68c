"""Tensor substrate: dense arrays, sparse gradients, and numeric kernels.

This package is the numerical foundation of the reproduction.  It mirrors
the split TensorFlow makes between dense ``Tensor`` values and sparse
``IndexedSlices`` gradients, which is the exact mechanism Parallax uses to
decide whether a variable is *dense* or *sparse* (paper section 5,
"Identifying the sparsity of a variable").
"""

from repro.tensor.sparse import IndexedSlices, to_dense
from repro.tensor.dense import as_array, nbytes_of, TensorSpec
from repro.tensor import math as kernels

__all__ = [
    "IndexedSlices",
    "to_dense",
    "as_array",
    "nbytes_of",
    "TensorSpec",
    "kernels",
]
