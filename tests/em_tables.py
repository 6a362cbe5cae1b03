"""Per-feature (k, cardinality) tables to and from EM's stacked layout.

``sensecluster.em`` holds all features' tables in one (sum of
cardinalities, k) table with row offsets; hand-written parameters and the
per-feature oracle in ``reference_em`` speak one table per feature.
"""

from itertools import accumulate

import numpy as np


def stack(tables) -> tuple[np.ndarray, tuple[int, ...]]:
    """The stacked table of per-feature (k, cardinality) tables, and its offsets."""
    blocks = [np.asarray(table, dtype=np.float64).T for table in tables]
    return np.concatenate(blocks), tuple(accumulate((len(b) for b in blocks), initial=0))


def split(table, offsets) -> list[np.ndarray]:
    """The per-feature (k, cardinality) tables of a stacked table."""
    return [table[a:b].T for a, b in zip(offsets[:-1], offsets[1:])]
