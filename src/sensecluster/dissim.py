"""Pairwise feature-mismatch counts.

Each pair of instances is scored by the number of features on which
their values differ, giving a symmetric N x N integer matrix with a zero
diagonal. Mismatch counts are not a metric: nothing beyond symmetry and
the zero diagonal may be assumed. Storage is a dense square array of
small integers; intended for N up to a few thousand.

The counts come from one matrix product: with H the one-hot encoding of
every instance's (feature, value) pairs, H H^T counts the features on
which two instances agree, and q minus it those on which they differ.
"""

from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix


@dataclass(frozen=True)
class DissimilarityMatrix:
    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("cells must be a square matrix")
        if (np.diag(arr) != 0).any():
            raise ValueError("diagonal must be zero")
        if (arr != arr.T).any():
            raise ValueError("matrix must be symmetric")
        if arr.size and arr.min() < 0:
            raise ValueError("mismatch counts must be non-negative")
        arr = arr.astype(np.int32, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    def cell(self, i: int, j: int) -> int:
        return int(self.cells[i, j])


def build(matrix: FeatureMatrix) -> DissimilarityMatrix:
    """Count mismatching features for every instance pair.

    The one-hot product runs in float32: every partial sum is an integer
    of at most q < 2^24, so it is exact.
    """
    n = matrix.n
    onehot = np.zeros((n, matrix.schema.offsets[-1]), dtype=np.float32)
    onehot[np.arange(n)[:, None], matrix.table_rows] = 1.0
    cells = onehot @ onehot.T
    np.subtract(matrix.q, cells, out=cells)
    return DissimilarityMatrix(cells)  # stored as int32


def row_vectors(d: DissimilarityMatrix) -> np.ndarray:
    """Each observation as its matrix row, a point in N-dimensional space."""
    return d.cells.astype(np.float64)


def format_triangle(d: DissimilarityMatrix) -> str:
    """Plain-text lower-triangle export (diagonal included)."""
    lines = []
    for i in range(d.n):
        lines.append(" ".join(str(int(v)) for v in d.cells[i, : i + 1]))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> DissimilarityMatrix:
    """Read a dissimilarity matrix from text: full square or lower-triangle rows."""
    rows = [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    n = len(rows)
    lengths = [len(r) for r in rows]
    if lengths == [n] * n:
        return DissimilarityMatrix(np.array(rows))
    if lengths == list(range(1, n + 1)):
        cells = np.zeros((n, n), dtype=np.int32)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                cells[i, j] = v
                cells[j, i] = v
        return DissimilarityMatrix(cells)
    raise ValueError("matrix text must be square or lower-triangular")
