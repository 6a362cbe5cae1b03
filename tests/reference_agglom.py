"""Reference Ward and McQuitty: the original O(N^3) full-scan loops.

Every merge rescans the whole criterion matrix for its minimum and tied
pairs, and Ward recomputes the merged cluster's row from exact means.
``sensecluster.agglom`` must reproduce these merge ids, criterion values,
assignments and tie draws exactly. The changes from the original are
that each run counts the steps that drew among tied pairs and reports
them as ``ClusterResult.ties_drawn``, and that the tie tolerance is
stated here, from the README's rule, not imported from the code checked.
"""

import numpy as np

from sensecluster.agglom import ClusterResult, Merge, _check_k
from sensecluster.dissim import DissimilarityMatrix

# README: "Clustering ties (criterion values within 1e-9) are broken uniformly at random"
TIE_TOL = 1e-9


def _pick_min_pair(crit: np.ndarray, rng) -> tuple[int, int, bool]:
    """Index pair (i < j) of the minimum criterion; ties drawn uniformly."""
    m = crit.shape[0]
    flat = int(crit.argmin())
    i, j = divmod(flat, m)
    vmin = crit[i, j]
    mask = crit <= vmin + TIE_TOL
    drew = np.count_nonzero(mask) > 2  # symmetric, so a unique pair hits twice
    if drew:
        cand = np.argwhere(mask)
        cand = cand[cand[:, 0] < cand[:, 1]]
        i, j = (int(v) for v in cand[rng.integers(len(cand))])
    return ((i, j) if i < j else (j, i)) + (drew,)


def _finish(n, members, merges, k, drawn) -> ClusterResult:
    assignment = np.empty(n, dtype=np.int64)
    order = sorted(range(len(members)), key=lambda c: min(members[c]))
    for label, c in enumerate(order):
        assignment[members[c]] = label
    return ClusterResult(assignment, tuple(merges), k, drawn)


def _drop_cluster(crit, ids, members, j, m):
    last = m - 1
    if j != last:
        crit[j, :m] = crit[last, :m]
        crit[:m, j] = crit[:m, last]
        crit[j, j] = np.inf
        ids[j] = ids[last]
        members[j] = members[last]
    ids.pop()
    members.pop()
    return last


def ward(points, k: int, seed=None) -> ClusterResult:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = pts.shape[0]
    _check_k(k, n)
    rng = np.random.default_rng(seed)

    means = pts.copy()
    sizes = np.ones(n, dtype=np.float64)
    ids = list(range(n))
    members = [[i] for i in range(n)]

    crit = np.full((n, n), np.inf)
    for i in range(n):
        d = means - means[i]
        row = np.einsum("ij,ij->i", d, d) / (1.0 / sizes[i] + 1.0 / sizes)
        crit[i] = row
        crit[i, i] = np.inf

    merges: list[Merge] = []
    drawn = 0
    m = n
    for step in range(n - k):
        i, j, drew = _pick_min_pair(crit[:m, :m], rng)
        drawn += drew
        merges.append(Merge(ids[i], ids[j], float(crit[i, j])))

        total = sizes[i] + sizes[j]
        means[i] = (sizes[i] * means[i] + sizes[j] * means[j]) / total
        sizes[i] = total
        members[i] = members[i] + members[j]
        ids[i] = n + step

        last = _drop_cluster(crit, ids, members, j, m)
        if j != last:
            means[j] = means[last]
            sizes[j] = sizes[last]
        m = last

        d = means[:m] - means[i]
        row = np.einsum("ij,ij->i", d, d) / (1.0 / sizes[i] + 1.0 / sizes[:m])
        row[i] = np.inf
        crit[i, :m] = row
        crit[:m, i] = row

    return _finish(n, members, merges, k, drawn)


def mcquitty(d: DissimilarityMatrix, k: int, seed=None) -> ClusterResult:
    n = d.n
    _check_k(k, n)
    rng = np.random.default_rng(seed)

    crit = d.cells.astype(np.float64)
    np.fill_diagonal(crit, np.inf)
    ids = list(range(n))
    members = [[i] for i in range(n)]

    merges: list[Merge] = []
    drawn = 0
    m = n
    for step in range(n - k):
        i, j, drew = _pick_min_pair(crit[:m, :m], rng)
        drawn += drew
        merges.append(Merge(ids[i], ids[j], float(crit[i, j])))

        row = 0.5 * (crit[i, :m] + crit[j, :m])
        members[i] = members[i] + members[j]
        ids[i] = n + step

        last = _drop_cluster(crit, ids, members, j, m)
        if j != last:
            row[j] = row[last]
        m = last

        row = row[:m]
        row[i] = np.inf
        crit[i, :m] = row
        crit[:m, i] = row

    return _finish(n, members, merges, k, drawn)
