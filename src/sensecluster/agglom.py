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
O(m N). For Ward these values only choose the merges. The criterion a
Ward merge records is recomputed from exact cluster means and the
driver's sizes with the formula above: the recurrence rounds differently
in the last bits (841.3125000000001 against 841.3124999999998 in one
case), which would change the six-digit merge trace. A singleton's mean
is its own row of the points, read as float64 when it merges; a merged
cluster's mean is computed in O(N) when it forms and kept under its
cluster id until it merges again, so integer points, the runner's
mismatch rows among them, get no float64 N x N copy.

Both stop once k clusters remain. Pairs within 1e-9 of the minimum
criterion count as tied and one is drawn uniformly with the seeded
generator: the r-th tied pair in row-major upper-triangle order of the
active slots, with the generator called only when more than one pair
ties. Without ties the outcome is seed-independent. While more than
CACHE_ABOVE clusters are active, the minimum comes from cached row
minima and the r-th tied pair from per-row counts of tied entries right
of the diagonal. ``_MinCache.move`` keeps both in O(m) per merge, the
counts by ``_untie``, the one rule for a slot move, which the duplicate
replay shares; a new minimum recounts the rows near it. At or below
CACHE_ABOVE a full scan is cheaper than that bookkeeping: one minimum
and the flat indices of the entries within the tolerance of it in a
precomputed strict upper triangle. Both paths pick the same pair and
consume the generator the same way.

Both methods start one way: row labels, a replay of the merges among
equal rows, one start matrix over the rows left, then the driver.
``_row_labels`` groups rows by the hash of their bytes, labels each with
the first row of its group and checks every row against that row; a
hash collision, which alone can fail the check, makes each row its own
label. Ward labels integer points within the float32 bound; in float
points, pairs within TIE_TOL of 0 would tie with equal rows, so they,
like integers past the bound, keep each row as its own label. McQuitty
labels the mismatch rows and keeps the labels only if the matrix holds
exactly sum(size^2) zeros: every pair of equal rows is a zero, so then
no zero lies between different rows. Otherwise each row is its own
label.

Equal rows are at criterion 0 and every other pair at least 1
(McQuitty) or 1/2 (Ward), so the driver makes every merge among equal
rows first, drawing among the zero pairs. Which pairs tie then depends
only on each slot's label, the first row equal to its cluster's rows, so
those merges, N - max(G, k) for G distinct rows, are replayed from the
labels alone: the same pairs, ids, criteria (0.0), slot moves and
generator calls, with no N x N matrix. The driver goes on from there
over the max(G, k) clusters left, all N when each row is its own label.
McQuitty's start is the mismatch counts between the rows they copy,
equal to what its averages of equal counts give. Ward's is
n_a n_b / (n_a + n_b) ||x_a - x_b||^2 (see ``_ward_start``), exact from
a float32 product for labelled points and from float64 row differences
for the others; between singletons it is ||x_a - x_b||^2 / 2 itself.
After duplicate merges it rounds differently from the recurrence it
replaces; as with the recurrence, these values only choose merges, and
the tests check on the runner's data that every tie rounding splits is
an exact tie. Ward takes points while N^2 dim (2 max|x|)^2 is below the
largest float64, so no value it computes overflows (see ``ward``).

Merges are recorded scipy-style: observations are clusters 0..N-1 and
the merge at step t creates cluster id N+t. The final assignment is
replayed from that record.
"""

import numbers
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
# N x N array or the points: the criterion rows gathered when tie counts
# are recounted, the rows of Ward's start (both kernels and the weights),
# the rows checked against their labels' rows, and McQuitty's zero count.
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
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and the number of observations ({n}), got {k}")


# Strict upper triangle of the largest block the full scan sees.
_UPPER = np.triu(np.ones((CACHE_ABOVE, CACHE_ABOVE), dtype=bool), 1)


def _pick_min_pair(crit: np.ndarray, rng) -> tuple[int, int, bool]:
    """Index pair (i < j) of the minimum criterion, and whether ties were drawn."""
    m = crit.shape[0]
    mask = crit <= crit.min() + TIE_TOL
    drew = bool(np.count_nonzero(mask) > 2)  # symmetric, so a unique pair hits twice
    mask &= _UPPER[:m, :m]
    # flat indices of the tied pairs right of the diagonal, in row-major order
    cand = np.flatnonzero(mask)
    i, j = divmod(int(cand[rng.integers(cand.size)] if drew else cand[0]), m)
    return i, j, drew


def _draw_tied(counts: np.ndarray, rng) -> tuple[int, int, bool]:
    """Draw one of the tied pairs counted per slot in ``counts``, of
    which at least one must tie: the r-th in slot order, with the
    generator called only when more than one pair ties. Returns the slot
    holding it, its rank among that slot's pairs and whether the
    generator was called."""
    cum = np.cumsum(counts)
    total = int(cum[-1])
    r = int(rng.integers(total)) if total > 1 else 0
    a = int(np.searchsorted(cum, r, side="right"))
    return a, r - int(cum[a] - counts[a]), total > 1


def _untie(counts: np.ndarray, j: int, last: int, near: np.ndarray, passed: np.ndarray) -> None:
    """Update per-slot counts of the later tied slots as slot j leaves and
    slot ``last`` moves into it: ``near[s]`` tells whether slot s < j ties
    with j, ``passed`` whether each slot between j and last ties with last."""
    counts[:j] -= near[:j]
    counts[j + 1 : last] -= passed
    counts[j] = np.count_nonzero(passed)


def _move(crit: np.ndarray, i: int, j: int, m: int, row: np.ndarray) -> None:
    """Put ``row``, the merged cluster's criteria against the m active
    slots, in slot i of ``crit`` and move slot m-1 into j; ``row`` is used up."""
    # the row copy sets crit[j, last] = inf, which the column copy moves to crit[j, j]
    last = m - 1
    row[j] = row[last]
    crit[j, :m] = crit[last, :m]
    crit[:m, j] = crit[:m, last]
    row = row[:last]
    row[i] = np.inf
    crit[i, :last] = row
    crit[:last, i] = row


class _MinCache:
    """Row minima and tie counts of the active criterion block.

    ``rowmin[a]`` is the minimum of row a. ``ties[a]`` counts the entries
    right of the diagonal in row a that are at most ``thr``, the tie
    threshold of the last pick. Both hold for the m active slots only:
    entries at m and beyond are scratch that nothing reads.
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
        a, r, drew = _draw_tied(ties, rng)
        b = a + 1 + int(np.flatnonzero(crit[a, a + 1 : m] <= thr)[r])
        return a, b, drew

    def move(self, i: int, j: int, m: int, row: np.ndarray) -> None:
        """Merge slots i < j into i and move slot m-1 into j, as ``_move``
        does, keeping the minima and tie counts of the slots left."""
        crit, thr, ties = self.crit, self.thr, self.ties
        last = m - 1
        ci, cj = crit[i, :m], crit[j, :m]
        # column i is replaced; slot i itself is recounted after the move
        ties[:i] += row[:i] <= thr
        ties[:i] -= ci[:i] <= thr
        _untie(ties, j, last, cj[:j] <= thr, crit[last, j + 1 : last] <= thr)
        rowmin = self.rowmin[:m]
        # the rows whose minimum may have risen, and the two rewritten slots
        fresh = np.append(np.flatnonzero((np.minimum(ci, cj) <= rowmin) & (row > rowmin)), (i, j))
        np.minimum(rowmin, row, out=rowmin)
        _move(crit, i, j, m, row)
        self.rowmin[fresh] = crit[fresh, :last].min(axis=1)
        ties[i] = np.count_nonzero(crit[i, i + 1 : last] <= thr)


class _State:
    """Where the driver stands: the id and size of the cluster in each
    active slot, the merges so far, how many of them drew among ties,
    and the seeded generator. Fresh, every observation is a slot of its
    own."""

    def __init__(self, n: int, seed):
        self.n = n
        self.ids = list(range(n))
        self.sizes = np.ones(n)  # float64, as Ward multiplies them into float64 criteria
        self.merges: list[Merge] = []
        self.drawn = 0
        self.rng = np.random.default_rng(seed)

    @property
    def next_id(self) -> int:
        return self.n + len(self.merges)

    def join(self, i: int, j: int, value: float, drew: bool) -> None:
        """Record the merge of slots i < j: the merged cluster takes slot
        i and the last slot moves into j."""
        ids, sizes = self.ids, self.sizes
        new = self.next_id
        self.merges.append(Merge(ids[i], ids[j], value))
        self.drawn += drew
        ids[i] = new
        sizes[i] += sizes[j]
        last = len(ids) - 1
        ids[j], sizes[j] = ids[last], sizes[last]
        ids.pop()

    def result(self, k: int) -> ClusterResult:
        """Label the clusters left after the merges by their smallest
        member, replaying member lists by cluster id; each merge pops its
        children's lists, so at most n members are held at once."""
        n = self.n
        members = {c: [c] for c in range(n)}
        for step, mg in enumerate(self.merges):
            members[n + step] = members.pop(mg.left) + members.pop(mg.right)
        assignment = np.empty(n, dtype=np.int64)
        for label, cluster in enumerate(sorted(members.values(), key=min)):
            assignment[cluster] = label
        return ClusterResult(assignment, tuple(self.merges), k, self.drawn)


def _agglomerate(crit: np.ndarray, k: int, merge, state: _State) -> ClusterResult:
    """Merge the clusters in the m active slots of ``state`` down to k,
    from their m x m criterion matrix (inf diagonal).

    ``merge(i, j, sizes, left, right, new)`` gets the chosen slots i < j
    of m, the m active sizes (to read only), the ids of the clusters in
    slots i and j and the merged cluster's id; it returns the criterion
    to record and a fresh array of the merged cluster's criteria against
    all m slots (entries i and j ignored). The merged cluster takes slot
    i and slot m-1 moves into j, so a merge costs O(m): slot order
    carries no meaning.
    """
    rng = state.rng
    cache = _MinCache(crit) if len(state.ids) > CACHE_ABOVE else None
    for m in range(len(state.ids), k, -1):
        cached = m > CACHE_ABOVE
        i, j, drew = cache.pick(m, rng) if cached else _pick_min_pair(crit[:m, :m], rng)
        value, row = merge(i, j, state.sizes[:m], state.ids[i], state.ids[j], state.next_id)
        state.join(i, j, value, drew)
        if cached:
            cache.move(i, j, m, row)
        else:
            _move(crit, i, j, m, row)
    return state.result(k)


def _replay_duplicates(state: _State, labels: np.ndarray, k: int) -> np.ndarray:
    """Make, from the labels alone, the merges the driver makes first:
    those among rows with the same label, whose criterion is 0 while
    every other pair's is at least 1/2. They are n - max(G, k) merges,
    G the number of rows that label themselves: the driver stops at k
    clusters, and no pair ties once each label holds one slot. Returns
    the row that each active slot's cluster copies: the labels
    themselves, with ``state`` left fresh, if no two rows share a label.

    ``labels`` gives each row the first row equal to it. Pairs of slots
    with one label are the tied pairs, so the pair drawn, the generator
    call, the criterion 0.0 and the slot moves are the driver's: as in
    ``_MinCache``, ``_draw_tied`` draws from per-slot counts of the later
    tied slots, here those with the same label, kept by ``_untie``.
    """
    n = labels.size
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    later = np.empty(n, dtype=np.intp)
    later[order] = np.searchsorted(ranked, ranked, side="right") - np.arange(n) - 1

    slot = labels.copy()
    stop = max(np.count_nonzero(labels == np.arange(n)), k)
    for m in range(n, stop, -1):
        i, r, drew = _draw_tied(later[:m], state.rng)
        same = slot[:m] == slot[i]
        j = i + 1 + int(same[i + 1 :].nonzero()[0][r])
        state.join(i, j, 0.0, drew)
        last = m - 1
        _untie(later, j, last, same, slot[j + 1 : last] == slot[last])
        slot[j] = slot[last]
    return slot[:stop]


def _float32_is_exact(pts: np.ndarray, span: float) -> bool:
    """Whether float32 holds every partial sum of ``_ward_start``'s
    product exactly: integer-typed points whose dim * span^2, with span
    = 2 max|x|, which bounds every partial sum of a.b and of
    ||a||^2 + ||b||^2 - 2 a.b, is below 2^24. Mismatch-count rows
    (N dimensions, entries at most q) meet it while 4 N q^2 < 2^24."""
    return np.issubdtype(pts.dtype, np.integer) and pts.shape[1] * span * span < 2.0**24


def _gather(a: np.ndarray, rows: np.ndarray, cols, dtype) -> np.ndarray:
    """``a[rows][:, cols]`` as ``dtype``, ROW_BLOCK rows at a time, so no
    temporary is the size of the result."""
    out = np.empty((rows.size, a[:0, cols].shape[1]), dtype=dtype)
    for start in range(0, rows.size, ROW_BLOCK):
        out[start : start + ROW_BLOCK] = a[rows[start : start + ROW_BLOCK]][:, cols]
    return out


def _ward_start(pts: np.ndarray, rows: np.ndarray, sizes: np.ndarray, exact: bool) -> np.ndarray:
    """Ward's criterion n_a n_b / (n_a + n_b) ||x_a - x_b||^2 between the
    clusters left by ``_replay_duplicates``, of sizes ``sizes`` and with
    means ``pts[rows]``, inf on the diagonal; ``exact`` tells whether
    the points meet ``_float32_is_exact``.

    For ``exact`` points ||x_a - x_b||^2 / 2 is the product
    (||a||^2 + ||b||^2 - 2 a.b) / 2 over one float32 copy of the rows.
    Each of its partial sums is an integer that float32 holds exactly, so
    it equals the float64 differences whatever order BLAS adds in and
    however many threads it uses. Other points, none of them the
    runner's, are differenced in float64, each row against ROW_BLOCK of
    the rows after it at a time: on a 2-vCPU x86 host (numpy 2.4) Ward on
    the runner's N=600 mismatch rows taken as float64 takes 0.27-0.35 s
    this way, against 0.08-0.09 s from a float64 Gram product. The weight
    2 n_a n_b / (n_a + n_b) is exactly 1 between singletons.

    The product and the weights are built ROW_BLOCK rows of the float64
    result at a time, so no temporary is the size of the matrix, and the
    weights only once the float32 copy is freed. On the benchmark's
    agglom-large workload (N=600) a whole float32 product raised peak RSS
    by about 1 MB, whole-matrix weights and gathers from 44.0 to 46.7 MB,
    and weights made alongside the float32 copy to 45.2 MB, as the
    allocator kept their pages.
    """
    g = rows.size
    crit = np.empty((g, g))
    if exact:
        f32 = _gather(pts, rows, slice(None), np.float32)
        sq = np.einsum("ij,ij->i", f32, f32)
        for start in range(0, g, ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            half = f32[block] @ f32.T
            half *= -2.0
            half += sq[block, None]
            half += sq
            half /= 2.0
            crit[block] = half
            del half  # so that two blocks' products are never held at once
        del f32
    else:
        f64 = pts.astype(np.float64, copy=False)
        for a in range(g - 1):
            for start in range(a + 1, g, ROW_BLOCK):
                block = slice(start, start + ROW_BLOCK)
                d = f64[rows[block]]
                d -= f64[rows[a]]
                half = np.einsum("ij,ij->i", d, d) / 2.0
                crit[a, block] = half
                crit[block, a] = half
    np.fill_diagonal(crit, np.inf)
    sizes = sizes[:g]
    for start in range(0, g, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        near = sizes[block, None]
        weight = near * sizes
        weight /= near + sizes
        weight *= 2.0
        crit[block] *= weight
    return crit


def _row_labels(rows: np.ndarray) -> np.ndarray:
    """Each row's first equal row; each row itself if a hash collision
    put two different rows in one group.

    Rows are grouped by the hash of their bytes and each labelled with
    the first row of its group; only the hashes are kept, not the bytes.
    Equal rows hash alike, so they share a label, and each row is then
    checked against its label's row, ROW_BLOCK rows at a time. The labels
    depend on the grouping only, never on the hash values, so not on
    PYTHONHASHSEED either.
    """
    first = {}
    labels = np.array(
        [first.setdefault(hash(row.tobytes()), a) for a, row in enumerate(rows)], dtype=np.intp
    )
    for start in range(0, labels.size, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        if not np.array_equal(rows[block], rows[labels[block]]):
            return np.arange(labels.size)
    return labels


def ward(points, k: int, seed=None) -> ClusterResult:
    """Cluster points into k groups by Ward's minimum-variance criterion.

    Integer-typed points within the bound of ``_float32_is_exact``, such
    as the runner's mismatch rows, are used as they are, without a
    float64 copy; any other points are taken as float64. With span
    2 max|x|, n^2 dim span^2 must be below the largest float64: then no
    start entry, Lance-Williams term, mean or criterion overflows, and
    nan or inf points fail it too.
    """
    pts = np.asarray(points)
    if not np.issubdtype(pts.dtype, np.integer):
        pts = pts.astype(np.float64, copy=False)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n, dim = pts.shape
    span = 2.0 * max(float(pts.max()), -float(pts.min())) if pts.size else 0.0
    if not n * n * dim * span * span < np.finfo(np.float64).max:
        raise ValueError("points must be finite, with n^2 dim (2 max|x|)^2 a finite float64")
    _check_k(k, n)

    state = _State(n, seed)
    # only points within the float32 bound are labelled: pairs of float
    # points within TIE_TOL of 0 would tie with equal rows
    exact = _float32_is_exact(pts, span)
    labels = _row_labels(pts) if exact else np.arange(n)
    rows = _replay_duplicates(state, labels, k)
    crit = _ward_start(pts, rows, state.sizes, exact)
    first_rows = dict(zip(state.ids, rows.tolist()))
    merged_means = {}  # by cluster id, for clusters merged by the driver still active

    def mean(c):
        if c in merged_means:
            return merged_means.pop(c)
        # a singleton, or a cluster of duplicates of one row
        return pts[first_rows.pop(c)].astype(np.float64, copy=False)

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

    return _agglomerate(crit, k, merge, state)


def mcquitty(d: DissimilarityMatrix, k: int, seed=None) -> ClusterResult:
    """Cluster into k groups by McQuitty's average-of-mismatches criterion."""
    n = d.n
    _check_k(k, n)

    cells = d.cells
    state = _State(n, seed)
    # equal rows are at 0 to each other, so the labels hold only if the
    # matrix has no other zero: sum(size^2) zeros in all
    labels = _row_labels(cells)
    zeros = sum(np.count_nonzero(cells[s : s + ROW_BLOCK] == 0) for s in range(0, n, ROW_BLOCK))
    if zeros != np.square(np.bincount(labels)).sum():
        labels = np.arange(n)  # nothing to replay: the start is the whole matrix
    # averages of equal counts are exact: after the duplicate merges the
    # criteria are the counts between the rows the clusters copy
    rows = _replay_duplicates(state, labels, k)
    crit = _gather(cells, rows, rows, np.float64)
    np.fill_diagonal(crit, np.inf)

    def merge(i, j, sizes, *_):
        m = sizes.size
        return float(crit[i, j]), 0.5 * (crit[i, :m] + crit[j, :m])

    return _agglomerate(crit, k, merge, state)


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
