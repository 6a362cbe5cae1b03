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

Both run through one driver. It owns the bookkeeping: the criterion
matrix of the m active clusters, the id and size of the cluster in each
active slot, and the slot moves (after a merge the last slot moves into
the freed one). A method only supplies, for the chosen slot pair, the
criterion to record and the merged cluster's new row, from its
Lance-Williams update: McQuitty's average, and for Ward

    c(IJ, K) = ((N_I+N_K) c(I,K) + (N_J+N_K) c(J,K) - N_K c(I,J)) / (N_I+N_J+N_K)

starting from ||x_a - x_b||^2 / 2, so a merge costs O(m) instead of
O(m N). For integer points that start is one matrix product,
(||a||^2 + ||b||^2 - 2 a.b) / 2, whose partial sums are all exact
integers: in float32, a row block at a time, for integer-typed points
such as the int32 mismatch-count rows, and in float64 for other points
with integer values (see ``_half_sq_distances``). For Ward these values
only choose the merges. The criterion a Ward merge records is recomputed
from exact cluster means and the driver's sizes with the formula above:
the recurrence rounds differently in the last bits (841.3125000000001
against 841.3124999999998 in one case), which would change the six-digit
merge trace. A singleton's mean is its own row of the points, read as
float64 when it merges; a merged cluster's mean is computed in O(N) when
it forms and kept under its cluster id until it merges again, so integer
points, the runner's mismatch rows among them, get no float64 N x N copy.

Both stop once k clusters remain. Pairs within 1e-9 of the minimum
criterion count as tied and one is drawn uniformly with the seeded
generator: the r-th tied pair in row-major upper-triangle order of the
active slots, with the generator called only when more than one pair
ties. Without ties the outcome is seed-independent. While more than
CACHE_ABOVE clusters are active, the minimum comes from cached row
minima in O(m), and the r-th tied pair from per-row counts of tied
entries right of the diagonal. The counts are updated in O(m) per merge
while the minimum holds and recounted over the rows near a new minimum
when it moves. At or below CACHE_ABOVE a full scan of the matrix is
cheaper than that bookkeeping: one argmin, one mask of the entries
within the tolerance, and, when more than one pair ties, the r-th flat
index of that mask restricted to a precomputed strict upper triangle.
Both paths pick the same pair and consume the generator the same way.

Merges are recorded scipy-style: observations are clusters 0..N-1 and
the merge at step t creates cluster id N+t. The final assignment is
replayed from that record.
"""

from dataclasses import dataclass

import numpy as np

from ._value import ArrayValue
from .dissim import DissimilarityMatrix

TIE_TOL = 1e-9

# While more than this many clusters are active, merges are picked from
# cached row minima and tie counts; at or below it a full scan is
# cheaper than the bookkeeping's fixed per-merge numpy overhead. On a
# 2-vCPU x86 host (numpy 2.4), merging N=600 mismatch matrices of sets A
# and B with McQuitty and Ward, a merge took 80-125 us with the cache
# against 40-90 us with the scan at about 100 active clusters, 95-130
# against 55-140 us at 150, 80-135 against 90-275 us at 200, and 80-135
# against 240-580 us at 300.
CACHE_ABOVE = 150

# Rows handled at once where a whole-matrix temporary would copy an
# N x N array: the criterion rows gathered when tie counts are
# recounted, Ward's float points checked for integer values, and the
# rows of Ward's float32 init.
ROW_BLOCK = 128


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    criterion: float


@dataclass(frozen=True, eq=False)
class ClusterResult(ArrayValue):
    """Hard assignment into k clusters plus the merge history that built them.

    Cluster labels are 0..k-1, ordered by each cluster's smallest member
    index, so labelling does not depend on merge order. ``ties_drawn``
    counts the merge steps that drew among tied pairs, i.e. how many
    times the seeded generator was consumed. Holds its own read-only copy
    of the assignment; equal by value and unhashable.
    """

    assignment: np.ndarray
    merges: tuple[Merge, ...]
    k: int
    ties_drawn: int = 0

    def __post_init__(self):
        self._hold("assignment", np.int64)
        object.__setattr__(self, "merges", tuple(self.merges))

    @property
    def n(self) -> int:
        return self.assignment.size


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and the number of observations ({n}), got {k}")


# Strict upper triangle of the largest block the full scan sees.
_UPPER = np.triu(np.ones((CACHE_ABOVE, CACHE_ABOVE), dtype=bool), 1)


def _pick_min_pair(crit: np.ndarray, rng) -> tuple[int, int, bool]:
    """Index pair (i < j) of the minimum criterion, and whether ties were drawn."""
    m = crit.shape[0]
    flat = int(crit.argmin())
    i, j = divmod(flat, m)
    vmin = crit[i, j]
    mask = crit <= vmin + TIE_TOL
    drew = np.count_nonzero(mask) > 2  # symmetric, so a unique pair hits twice
    if drew:
        # flat indices of the tied pairs right of the diagonal, in row-major order
        mask &= _UPPER[:m, :m]
        cand = np.flatnonzero(mask)
        i, j = divmod(int(cand[rng.integers(cand.size)]), m)
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
            for start in range(0, rows.size, ROW_BLOCK):
                block = rows[start : start + ROW_BLOCK]
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


def _finish(n: int, merges: list[Merge], k: int, drawn: int) -> ClusterResult:
    """Label the clusters left after ``merges`` by their smallest member,
    replaying member lists by cluster id; each merge pops its children's
    lists, so at most n members are held at once."""
    members = {c: [c] for c in range(n)}
    for step, mg in enumerate(merges):
        members[n + step] = members.pop(mg.left) + members.pop(mg.right)
    assignment = np.empty(n, dtype=np.int64)
    for label, cluster in enumerate(sorted(members.values(), key=min)):
        assignment[cluster] = label
    return ClusterResult(assignment, tuple(merges), k, drawn)


def _agglomerate(crit: np.ndarray, k: int, seed, merge) -> ClusterResult:
    """Merge the clusters of an n x n criterion matrix (inf diagonal) down to k.

    The driver keeps each active slot's cluster id and size and moves
    the slots. ``merge(i, j, sizes, left, right, new)`` gets the chosen
    slots i < j of m, the m active sizes (to read only), the ids of the
    clusters in slots i and j and the merged cluster's id; it returns the
    criterion to record and a fresh array of the merged cluster's
    criteria against all m slots (entries i and j ignored). The merged
    cluster takes slot i and slot m-1 moves into j, so a merge costs
    O(m): slot order carries no meaning.
    """
    n = crit.shape[0]
    rng = np.random.default_rng(seed)
    ids = list(range(n))
    sizes = np.ones(n)  # float64, as Ward multiplies them into float64 criteria
    cache = _MinCache(crit) if n > CACHE_ABOVE else None

    merges: list[Merge] = []
    drawn = 0
    for step in range(n - k):
        m = n - step
        cached = m > CACHE_ABOVE
        i, j, drew = cache.pick(m, rng) if cached else _pick_min_pair(crit[:m, :m], rng)
        drawn += drew
        new = n + step
        value, row = merge(i, j, sizes[:m], ids[i], ids[j], new)
        merges.append(Merge(ids[i], ids[j], value))
        if cached:
            stale = cache.retire(i, j, m, row)
        ids[i] = new
        sizes[i] += sizes[j]

        # the row copy sets crit[j, last] = inf, which the column copy moves to crit[j, j]
        last = m - 1
        ids[j], sizes[j], row[j] = ids[last], sizes[last], row[last]
        crit[j, :m] = crit[last, :m]
        crit[:m, j] = crit[:m, last]
        ids.pop()

        row = row[:last]
        row[i] = np.inf
        crit[i, :last] = row
        crit[:last, i] = row
        if cached:
            cache.admit(i, j, last, stale)

    return _finish(n, merges, k, drawn)


def _gram_bound(pts: np.ndarray) -> float:
    """dim * (2 max|x|)^2, which bounds every partial sum of the
    Gram-product distances of integer points (of a.b, and of
    ||a||^2 + ||b||^2 - 2 a.b)."""
    span = 2.0 * max(float(pts.max()), -float(pts.min())) if pts.size else 0.0
    return pts.shape[1] * span * span


def _float32_is_exact(pts: np.ndarray) -> bool:
    """Whether float32 holds every partial sum of the Gram-product
    distances exactly: integer-typed points with a ``_gram_bound`` below
    2^24. Mismatch-count rows (N dimensions, entries at most q) meet it
    while 4 N q^2 < 2^24."""
    return np.issubdtype(pts.dtype, np.integer) and _gram_bound(pts) < 2.0**24


def _gram_is_exact(pts: np.ndarray) -> bool:
    """Whether float64 holds every partial sum of the Gram-product
    distances exactly: points with integer values and a ``_gram_bound``
    below 2^53.

    Checked ROW_BLOCK rows at a time, with no temporary the size of the
    points.
    """
    if not _gram_bound(pts) < 2.0**53:
        return False
    blocks = (pts[start : start + ROW_BLOCK] for start in range(0, pts.shape[0], ROW_BLOCK))
    return all(np.array_equal(block, np.rint(block)) for block in blocks)


def _gram_rows(rows: np.ndarray, pts: np.ndarray, sq_rows: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """(||a||^2 + ||b||^2 - 2 a.b) / 2 of each of ``rows`` against every
    point, built in place in the product's array; ``sq_rows`` and ``sq``
    are the squared norms of ``rows`` and ``pts``. Both Gram inits go
    through it, so they add in the same order."""
    out = rows @ pts.T
    out *= -2.0
    out += sq_rows[:, None]
    out += sq
    out /= 2.0
    return out


def _gram_half_sq_distances(pts: np.ndarray) -> np.ndarray:
    """``_gram_rows`` of all points at once, in one N x N array, inf on
    the diagonal."""
    sq = np.einsum("ij,ij->i", pts, pts)
    crit = _gram_rows(pts, pts, sq, sq)
    np.fill_diagonal(crit, np.inf)
    return crit


def _float32_half_sq_distances(pts: np.ndarray) -> np.ndarray:
    """``_gram_half_sq_distances`` of integer points within the bound of
    ``_float32_is_exact``, from one float32 copy of the points, ROW_BLOCK
    rows of the float64 result at a time through the same ``_gram_rows``,
    so the values and the signs of zeros are the same."""
    f32 = pts.astype(np.float32)
    sq = np.einsum("ij,ij->i", f32, f32)
    n = pts.shape[0]
    crit = np.empty((n, n))
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        crit[rows] = _gram_rows(f32[rows], f32, sq[rows], sq)
    np.fill_diagonal(crit, np.inf)
    return crit


def _half_sq_distances(pts: np.ndarray) -> np.ndarray:
    """||x_a - x_b||^2 / 2 for every pair, as float64, inf on the diagonal.

    Integer-typed points within the bound of ``_float32_is_exact``, such
    as the int32 mismatch-count rows that ``dissim.row_vectors`` returns,
    take the Gram product in float32, in row blocks, with no float64
    copy of the points. Each of its partial sums is then an integer that
    float32 holds exactly, so the result is exact whatever order BLAS
    adds in and however many threads it uses. The row blocks keep the
    float32 temporaries at one copy of the points: at N=600, a whole
    float32 Gram matrix raised the benchmark process's peak RSS by about
    1 MB, as the allocator kept its pages. Other integer points are
    copied to float64 once. Points with integer values within the bound
    of ``_gram_is_exact`` take one whole product in float64, exact for
    the same reason; on a 2-vCPU x86 host (numpy 2.4, OpenBLAS) that
    took Ward at N=2000 from 5.1-5.2 s to 0.67-0.76 s, with the same
    merges. Other points are differenced one row at a time over the
    upper triangle, which gives the same values as differencing every
    row against every other.
    """
    if _float32_is_exact(pts):
        return _float32_half_sq_distances(pts)
    pts = pts.astype(np.float64, copy=False)
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
    """Cluster points into k groups by Ward's minimum-variance criterion.

    Integer-typed points are used as they are, without a float64 copy;
    any other points are taken as float64.
    """
    pts = np.asarray(points)
    if not np.issubdtype(pts.dtype, np.integer):
        pts = pts.astype(np.float64, copy=False)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = pts.shape[0]
    _check_k(k, n)

    crit = _half_sq_distances(pts)
    merged_means = {}  # by cluster id, for merged clusters still active

    def mean(c):
        return merged_means.pop(c) if c >= n else pts[c].astype(np.float64, copy=False)

    def merge(i, j, sizes, left, right, new):
        ni, nj = sizes[i], sizes[j]
        mi, mj = mean(left), mean(right)
        # einsum over one row, not a BLAS dot, so the sum rounds as the
        # row-at-a-time exact criterion always has
        d = (mj - mi)[None]
        value = float(np.einsum("ij,ij->i", d, d)[0] / (1.0 / ni + 1.0 / nj))
        m = sizes.size
        row = ((ni + sizes) * crit[i, :m] + (nj + sizes) * crit[j, :m] - sizes * crit[i, j]) / (
            ni + nj + sizes
        )
        merged_means[new] = (ni * mi + nj * mj) / (ni + nj)
        return value, row

    return _agglomerate(crit, k, seed, merge)


def mcquitty(d: DissimilarityMatrix, k: int, seed=None) -> ClusterResult:
    """Cluster into k groups by McQuitty's average-of-mismatches criterion."""
    n = d.n
    _check_k(k, n)

    crit = d.cells.astype(np.float64)
    np.fill_diagonal(crit, np.inf)

    def merge(i, j, sizes, *_):
        m = sizes.size
        return float(crit[i, j]), 0.5 * (crit[i, :m] + crit[j, :m])

    return _agglomerate(crit, k, seed, merge)


def merge_trace(result: ClusterResult) -> str:
    """One line per merge: step, left members, right members, criterion value."""
    n = result.n
    members = {i: [i] for i in range(n)}
    lines = []
    for step, m in enumerate(result.merges):
        left, right = members.pop(m.left), members.pop(m.right)
        members[n + step] = left + right
        parts = " ".join(map(str, left)), " ".join(map(str, right))
        lines.append("{}  {{{}}}  {{{}}}  {:.6g}".format(step + 1, *parts, m.criterion))
    return "\n".join(lines) + "\n" if lines else ""
