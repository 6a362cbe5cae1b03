"""Pairwise feature-mismatch counts.

Each pair of instances is scored by the number of features on which
their values differ, giving a symmetric N x N integer matrix with a zero
diagonal. Mismatch counts are not a metric: nothing beyond symmetry and
the zero diagonal may be assumed. Storage is a dense square array of
small integers; intended for N up to a few thousand.

The counts come from one matrix product: with H the one-hot encoding of
every instance's (feature, value) pairs, H H^T counts the features on
which two instances agree, and q minus it those on which they differ.
Every matrix, ``build``'s own included, passes the constructor's checks.
"""

from dataclasses import dataclass

import numpy as np

from ._value import ArrayValue
from .features import FeatureMatrix

_NOT_INT32 = "mismatch counts must be whole numbers that fit int32"


@dataclass(frozen=True, eq=False)
class DissimilarityMatrix(ArrayValue):
    """Mismatch counts as a read-only int32 copy; equal by value, unhashable."""

    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("cells must be a square matrix")
        # a cell that int32 cannot hold casts to a different value, so one
        # comparison after the cast finds fractions, nan, inf and overflow
        try:
            with np.errstate(invalid="ignore"):
                cells = self._hold("cells", np.int32)
        except OverflowError:  # Python ints past int64 in an object array
            cells = None
        if cells is None or (cells != arr).any():
            raise ValueError(_NOT_INT32)
        if (np.diag(cells) != 0).any():
            raise ValueError("diagonal must be zero")
        if (cells != cells.T).any():
            raise ValueError("matrix must be symmetric")
        if cells.size and cells.min() < 0:
            raise ValueError("mismatch counts must be non-negative")

    @property
    def n(self) -> int:
        return self.cells.shape[0]


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
    return DissimilarityMatrix(cells)


def row_vectors(d: DissimilarityMatrix) -> np.ndarray:
    """Each observation as its matrix row, a point in N-dimensional space.

    Returns ``d.cells`` itself, the read-only int32 rows, with no copy;
    ``agglom.ward`` takes them as they are.
    """
    return d.cells


def format_triangle(d: DissimilarityMatrix) -> str:
    """Plain-text lower-triangle export (diagonal included)."""
    lines = []
    for i in range(d.n):
        lines.append(" ".join(str(int(v)) for v in d.cells[i, : i + 1]))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> DissimilarityMatrix:
    """Read a dissimilarity matrix from text: full square or lower-triangle rows."""
    try:
        rows = [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        raise ValueError(f"{_NOT_INT32}: {exc}") from None
    if not rows:
        raise ValueError("empty matrix text")
    n = len(rows)
    lengths = [len(r) for r in rows]
    if lengths == list(range(1, n + 1)):
        rows = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    elif lengths != [n] * n:
        raise ValueError("matrix text must be square or lower-triangular")
    return DissimilarityMatrix(np.array(rows))
