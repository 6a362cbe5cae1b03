"""Agglomerative clustering over dissimilarity data.

Two merge criteria are provided. Ward's minimum-variance method treats
each observation as a point (here: its dissimilarity-matrix row) and at
each step merges the pair of clusters with the smallest between-cluster
variance

    ||mean_K - mean_L||^2 / (1/N_K + 1/N_L)

McQuitty's similarity analysis works on the mismatch counts directly:
it merges the pair with the fewest dissimilar features and scores the
new cluster against every other cluster as the plain average of its two
parts' scores.

Both run through one driver that keeps the criterion matrix of the
active clusters and, after each merge, rewrites only the merged
cluster's row with the method's Lance-Williams update: McQuitty's
average, and for Ward

    c(IJ, K) = ((N_I+N_K) c(I,K) + (N_J+N_K) c(J,K) - N_K c(I,J)) / (N_I+N_J+N_K)

starting from ||x_a - x_b||^2 / 2, so a merge costs O(m) for m active
clusters instead of O(m N). For integer points, such as mismatch-count
rows, that start is one matrix product, (||a||^2 + ||b||^2 - 2 a.b) / 2,
exact in float64 (see ``_half_sq_distances``). For Ward these values
only choose the merges. The criterion a Ward merge records is recomputed
from exact cluster means and sizes with the formula above: the
recurrence rounds differently in the last bits (841.3125000000001
against 841.3124999999998 in one case), which would change the six-digit
merge trace. A singleton's mean is its own point; a merged cluster's
mean is computed in O(N) when it forms and kept under its cluster id
until it merges again, so no N x N copy of the points is made.

Both stop once k clusters remain. Pairs within 1e-9 of the minimum
criterion count as tied and one is drawn uniformly with the seeded
generator: the r-th tied pair in row-major upper-triangle order of the
active slots, with the generator called only when more than one pair
ties. Without ties the outcome is seed-independent. While more than
CACHE_ABOVE clusters are active, the minimum comes from cached row
minima in O(m), and the r-th tied pair from per-row counts of tied
entries right of the diagonal. The counts are updated in O(m) per merge
while the minimum holds and recounted over the rows near a new minimum
when it moves. Below CACHE_ABOVE a full scan of the matrix is cheaper
than that bookkeeping. Both paths pick the same pair and consume the
generator the same way.

Merges are recorded scipy-style: observations are clusters 0..N-1 and
the merge at step t creates cluster id N+t.
"""

from dataclasses import dataclass

import numpy as np

from .dissim import DissimilarityMatrix

TIE_TOL = 1e-9

# While more than this many clusters are active, merges are picked from
# cached row minima and tie counts; at or below it a full scan is
# cheaper than the bookkeeping's fixed per-merge numpy overhead. On a
# 2-vCPU x86 host (numpy 2.4) a merge cost 50-70 us either way at about
# 100 active clusters; at 150 the cache took 50-80 us against 80-120 us
# for the scan, and at 300 65-90 us against 290-450 us.
CACHE_ABOVE = 150

# Rows of the criterion matrix gathered at once when tie counts are
# recounted.
TIE_BLOCK = 128


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    criterion: float


@dataclass(frozen=True)
class ClusterResult:
    """Hard assignment into k clusters plus the merge history that built them.

    Cluster labels are 0..k-1, ordered by each cluster's smallest member
    index, so labelling does not depend on merge order. ``ties_drawn``
    counts the merge steps that drew among tied pairs, i.e. how many
    times the seeded generator was consumed.
    """

    assignment: np.ndarray
    merges: tuple[Merge, ...]
    k: int
    ties_drawn: int = 0

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)
        object.__setattr__(self, "merges", tuple(self.merges))

    @property
    def n(self) -> int:
        return self.assignment.size


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and the number of observations ({n}), got {k}")


def _pick_min_pair(crit: np.ndarray, rng) -> tuple[int, int, bool]:
    """Index pair (i < j) of the minimum criterion, and whether ties were drawn."""
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
    return min(i, j), max(i, j), drew


class _MinCache:
    """Row minima and tie counts of the active criterion block.

    ``rowmin[a]`` is the minimum of row a. ``ties[a]`` counts the entries
    right of the diagonal in row a that are at most ``thr``, the tie
    threshold of the last pick.
    """

    def __init__(self, crit: np.ndarray):
        self.crit = crit
        self.rowmin = crit.min(axis=1)
        self.ties = np.zeros(crit.shape[0], dtype=np.int64)
        self.thr = None

    def pick(self, m: int, rng) -> tuple[int, int, bool]:
        """The same pair, and the same generator call, as ``_pick_min_pair``."""
        crit, rowmin, ties = self.crit, self.rowmin[:m], self.ties[:m]
        thr = rowmin.min() + TIE_TOL
        if thr != self.thr:
            self.thr = thr
            ties[:] = 0
            rows = np.flatnonzero(rowmin <= thr)
            # in blocks of rows: with dense ties every row can qualify,
            # and one gather would copy the whole matrix
            for start in range(0, rows.size, TIE_BLOCK):
                block = rows[start : start + TIE_BLOCK]
                near = crit[block, :m] <= thr
                near &= np.arange(m) > block[:, None]
                ties[block] = np.count_nonzero(near, axis=1)
        cum = np.cumsum(ties)
        total = int(cum[-1])
        r = int(rng.integers(total)) if total > 1 else 0
        a = int(np.searchsorted(cum, r, side="right"))
        r -= int(cum[a - 1]) if a else 0
        b = a + 1 + int(np.flatnonzero(crit[a, a + 1 : m] <= thr)[r])
        return a, b, total > 1

    def retire(self, i: int, j: int, m: int, row: np.ndarray) -> np.ndarray:
        """Account for merging slots i < j into i, before slot m-1 moves to j.

        ``row`` holds the merged cluster's new criteria against the m
        active slots. Returns the rows whose minimum may have risen.
        """
        crit, thr, ties = self.crit, self.thr, self.ties
        last = m - 1
        ci, cj, cl = crit[i, :m], crit[j, :m], crit[last, :m]
        # column i is replaced, column j removed, column last moves to j
        ties[:i] += row[:i] <= thr
        ties[:i] -= ci[:i] <= thr
        ties[:i] -= cj[:i] <= thr
        ties[i + 1 : j] -= cj[i + 1 : j] <= thr
        ties[j + 1 : last] -= cl[j + 1 : last] <= thr
        rowmin = self.rowmin[:m]
        stale = np.flatnonzero((np.minimum(ci, cj) <= rowmin) & (row > rowmin))
        np.minimum(rowmin, row, out=rowmin)
        return stale

    def admit(self, i: int, j: int, m: int, stale: np.ndarray) -> None:
        """Refresh the merged slot i, the moved slot j and the stale rows."""
        crit = self.crit
        stale = stale[(stale != i) & (stale != j) & (stale < m)]
        if stale.size:
            self.rowmin[stale] = crit[stale, :m].min(axis=1)
        for s in (i, j) if j < m else (i,):
            self.rowmin[s] = crit[s, :m].min()
            self.ties[s] = np.count_nonzero(crit[s, s + 1 : m] <= self.thr)


def _finish(n: int, members: list[list[int]], merges: list[Merge], k: int,
            drawn: int) -> ClusterResult:
    assignment = np.empty(n, dtype=np.int64)
    order = sorted(range(len(members)), key=lambda c: min(members[c]))
    for label, c in enumerate(order):
        assignment[members[c]] = label
    return ClusterResult(assignment, tuple(merges), k, drawn)


def _drop_cluster(crit, ids, members, j, m):
    """Remove active slot j by swapping the last active slot into it.

    O(m) per removal where rebuilding the matrix would be O(m^2); the
    slot order carries no meaning (cluster identity lives in ``ids``).
    """
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


def _agglomerate(crit: np.ndarray, k: int, seed, merge) -> ClusterResult:
    """Merge the clusters of an n x n criterion matrix (inf diagonal) down to k.

    ``merge(i, j, m, left, right, new)`` is called for the chosen active
    slots i < j of m, which hold clusters ``left`` and ``right``; the
    merged cluster gets id ``new``. It returns the criterion to record and
    a fresh array of the merged cluster's criteria against all m slots
    (entries i and j ignored), and keeps the method's own per-slot state,
    moving slot m-1 into j.
    """
    n = crit.shape[0]
    rng = np.random.default_rng(seed)
    ids = list(range(n))
    members = [[i] for i in range(n)]
    cache = _MinCache(crit) if n > CACHE_ABOVE else None

    merges: list[Merge] = []
    drawn = 0
    m = n
    for step in range(n - k):
        cached = m > CACHE_ABOVE
        if cached:
            i, j, drew = cache.pick(m, rng)
        else:
            i, j, drew = _pick_min_pair(crit[:m, :m], rng)
        drawn += drew
        new = n + step
        value, row = merge(i, j, m, ids[i], ids[j], new)
        merges.append(Merge(ids[i], ids[j], value))
        members[i] = members[i] + members[j]
        ids[i] = new
        if cached:
            stale = cache.retire(i, j, m, row)

        last = _drop_cluster(crit, ids, members, j, m)
        if j != last:
            row[j] = row[last]
        m = last

        row = row[:m]
        row[i] = np.inf
        crit[i, :m] = row
        crit[:m, i] = row
        if cached:
            cache.admit(i, j, m, stale)

    return _finish(n, members, merges, k, drawn)


def _gram_is_exact(pts: np.ndarray) -> bool:
    """Whether every partial sum of the Gram-product distances is an
    integer below 2^53: integer points with dim * (2 max|x|)^2 < 2^53."""
    span = 2.0 * float(np.abs(pts).max()) if pts.size else 0.0
    return pts.shape[1] * span * span < 2.0**53 and np.array_equal(pts, np.rint(pts))


def _gram_half_sq_distances(pts: np.ndarray) -> np.ndarray:
    """(||a||^2 + ||b||^2 - 2 a.b) / 2 for every pair, built in place in
    one N x N array, inf on the diagonal."""
    sq = np.einsum("ij,ij->i", pts, pts)
    crit = pts @ pts.T
    crit *= -2.0
    crit += sq[:, None]
    crit += sq
    crit /= 2.0
    np.fill_diagonal(crit, np.inf)
    return crit


def _half_sq_distances(pts: np.ndarray) -> np.ndarray:
    """||x_a - x_b||^2 / 2 for every pair, inf on the diagonal.

    Integer points within the bound of ``_gram_is_exact``, which every
    mismatch-count row meets, take one Gram product. Each of its partial
    sums (of a.b, and of ||a||^2 + ||b||^2 - 2 a.b, both at most
    dim * (2 max|x|)^2) is then an integer that float64 holds exactly,
    so the result is exact whatever order BLAS adds in and however many
    threads it uses. On a 2-vCPU x86 host (numpy 2.4, OpenBLAS) that took
    Ward at N=2000 from 5.1-5.2 s to 0.67-0.76 s, with the same merges.
    Other points are differenced one row at a time over the upper
    triangle, which gives the same values as differencing every row
    against every other.
    """
    if _gram_is_exact(pts):
        return _gram_half_sq_distances(pts)
    n = pts.shape[0]
    crit = np.full((n, n), np.inf)
    for a in range(n - 1):
        d = pts[a + 1 :] - pts[a]
        half = np.einsum("ij,ij->i", d, d) / 2.0
        crit[a, a + 1 :] = half
        crit[a + 1 :, a] = half
    return crit


def ward(points, k: int, seed=None) -> ClusterResult:
    """Cluster points into k groups by Ward's minimum-variance criterion."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = pts.shape[0]
    _check_k(k, n)

    crit = _half_sq_distances(pts)
    sizes = np.ones(n, dtype=np.float64)
    merged_means = {}  # by cluster id, for merged clusters still active

    def mean(c):
        return merged_means.pop(c) if c >= n else pts[c]

    def merge(i, j, m, left, right, new):
        ni, nj, nk = sizes[i], sizes[j], sizes[:m]
        mi, mj = mean(left), mean(right)
        # einsum over one row, not a BLAS dot, so the sum rounds as the
        # row-at-a-time exact criterion always has
        d = (mj - mi)[None]
        value = float(np.einsum("ij,ij->i", d, d)[0] / (1.0 / ni + 1.0 / nj))
        row = ((ni + nk) * crit[i, :m] + (nj + nk) * crit[j, :m] - nk * crit[i, j]) / (
            ni + nj + nk
        )
        total = ni + nj
        merged_means[new] = (ni * mi + nj * mj) / total
        sizes[i] = total
        last = m - 1
        if j != last:
            sizes[j] = sizes[last]
        return value, row

    return _agglomerate(crit, k, seed, merge)


def mcquitty(d: DissimilarityMatrix, k: int, seed=None) -> ClusterResult:
    """Cluster into k groups by McQuitty's average-of-mismatches criterion."""
    n = d.n
    _check_k(k, n)

    crit = d.cells.astype(np.float64)
    np.fill_diagonal(crit, np.inf)

    def merge(i, j, m, *_):
        return float(crit[i, j]), 0.5 * (crit[i, :m] + crit[j, :m])

    return _agglomerate(crit, k, seed, merge)


def merge_trace(result: ClusterResult) -> str:
    """One line per merge: step, left members, right members, criterion value."""
    n = result.n
    members = {i: [i] for i in range(n)}
    lines = []
    for step, m in enumerate(result.merges):
        left, right = members[m.left], members[m.right]
        members[n + step] = left + right
        lines.append(
            "{}  {{{}}}  {{{}}}  {:.6g}".format(
                step + 1,
                " ".join(map(str, left)),
                " ".join(map(str, right)),
                m.criterion,
            )
        )
    return "\n".join(lines) + "\n" if lines else ""
