"""Ward and McQuitty against the original full-scan loops and scipy.

``reference_agglom`` keeps the original O(N^3) implementation. The
cached-pick driver must reproduce its merge ids, criterion values,
traces, assignments and tie draws exactly: on tie-heavy feature set A
and sparse-tie set B at N = 600, and on the small oracle and tie
fixtures with the cache in use down to two clusters. scipy's ``linkage``
is an independent oracle at realistic N on tie-free inputs.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

import reference_agglom as reference
from conftest import synth_sample
from sensecluster import agglom
from sensecluster.dissim import DissimilarityMatrix, build, row_vectors
from sensecluster.features import build_schema, extract
from test_agglom import assert_same_as_uncollapsed, random_tie_free_matrix, random_tie_free_points

N_LARGE = 600


def assert_identical(got, expected):
    assert got.merges == expected.merges
    assert agglom.merge_trace(got) == agglom.merge_trace(expected)
    assert got.assignment.tolist() == expected.assignment.tolist()
    assert got.ties_drawn == expected.ties_drawn


@pytest.fixture(scope="module", params=[(1, "A"), (1, "B"), (2, "A"), (2, "B")],
                ids=lambda p: f"seed{p[0]}-set{p[1]}")
def large_matrix(request):
    seed, set_id = request.param
    sample = synth_sample("drug", "noun", n=N_LARGE, seed=seed)
    return seed, build(extract(sample, build_schema(sample, set_id)))


class TestLargeEquivalence:
    def test_mcquitty(self, large_matrix):
        seed, d = large_matrix
        got = agglom.mcquitty(d, 2, seed)
        assert got.ties_drawn > 0
        assert_identical(got, reference.mcquitty(d, 2, seed))

    def test_ward(self, large_matrix):
        seed, d = large_matrix
        points = row_vectors(d)
        got = agglom.ward(points, 2, seed)
        assert got.ties_drawn > 0
        assert_identical(got, reference.ward(points, 2, seed))
        assert_identical(got, agglom.ward(points.astype(np.float64), 2, seed))


def set_matrix(set_id, n=N_LARGE):
    sample = synth_sample("drug", "noun", n=n, seed=1)
    return build(extract(sample, build_schema(sample, set_id)))


def peak(method, data):
    """Peak bytes tracemalloc sees while ``method`` clusters ``data``."""
    tracemalloc.start()
    try:
        method(data, 2, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("set_id", ["A", "B", "C"])
def test_ward_allocates_less_than_two_matrices(set_id):
    """Ward on the runner's points, ``row_vectors`` of the mismatch
    matrix, allocates less than two N x N float64 arrays: the criterion
    matrix and a transient float32 copy of the rows, with no float64
    copy of them and no N x N gather of the criteria when every row ties
    (set A)."""
    assert peak(agglom.ward, row_vectors(set_matrix(set_id))) < 2 * N_LARGE**2 * 8


@pytest.mark.parametrize("set_id", ["A", "B", "C"])
def test_ward_on_float_points_allocates_less_than_two_matrices(set_id):
    """The same bound on float64 points, made before tracing starts:
    Ward makes no N x N copy of them, as its loop differences each row
    against ROW_BLOCK rows at a time."""
    points = row_vectors(set_matrix(set_id)).astype(np.float64)
    assert peak(agglom.ward, points) < 2 * N_LARGE**2 * 8


def test_mcquitty_on_duplicate_rows_allocates_less_than_one_matrix():
    """McQuitty on set A, 8 distinct rows among N, allocates less than
    one N x N float64 array: the duplicate merges are replayed from row
    labels, and the driver's criterion matrix is 8 x 8."""
    assert peak(agglom.mcquitty, set_matrix("A")) < N_LARGE**2 * 8


@pytest.mark.parametrize("set_id", ["A", "B", "C"])
def test_float32_init_equals_float64_init(set_id):
    """Ward's float32 start over all the int32 mismatch rows at unit
    sizes is byte-equal to the float64 row-difference loop over them."""
    points = row_vectors(set_matrix(set_id))
    # counts are non-negative, so 2 max|x| is 2 max x
    assert points.dtype == np.int32 and agglom._float32_is_exact(points, 2.0 * points.max())
    got = agglom._ward_start(points, np.arange(N_LARGE), np.ones(N_LARGE), True)
    expected = agglom._ward_start(points, np.arange(N_LARGE), np.ones(N_LARGE), False)
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


class TestDuplicateCollapse:
    """The replayed duplicate merges against the driver making them, on
    the runner's mismatch matrices, with the cache at its default and in
    use down to two clusters."""

    @pytest.fixture(autouse=True, params=[agglom.CACHE_ABOVE, 2], ids=["default", "cache2"])
    def cache_above(self, request, monkeypatch):
        monkeypatch.setattr(agglom, "CACHE_ABOVE", request.param)

    @pytest.mark.parametrize("set_id", ["A", "B", "C"])
    def test_sets_at_200(self, set_id):
        d = set_matrix(set_id, 200)
        for seed in (1, 2):
            for k in (2, 5):
                assert_same_as_uncollapsed(agglom.mcquitty, d, k, seed)
                assert_same_as_uncollapsed(agglom.ward, row_vectors(d), k, seed)

    @pytest.mark.parametrize("k", [7, 8, 9, 10, 50, 199, 200])
    def test_k_around_set_a_distinct_rows(self, k):
        # set A has 8 distinct rows among 200: from k = 8 up the
        # replayed merges alone reach k
        d = set_matrix("A", 200)
        assert len(np.unique(d.cells, axis=0)) == 8
        for seed in (1, 2):
            assert_same_as_uncollapsed(agglom.mcquitty, d, k, seed)
            assert_same_as_uncollapsed(agglom.ward, row_vectors(d), k, seed)


def duplicate_heavy_points():
    """400 integer rows drawn from a pool of 200, 174 of them distinct."""
    rng = np.random.default_rng(3)
    pool = rng.integers(0, 5, size=(200, 6))
    return pool[rng.integers(0, 200, size=400)]


class TestMinCacheArrays:
    """After every ``_MinCache.admit`` the row minima and tie counts of
    the m active slots equal a fresh reduction of the criterion block, on
    the runner's mismatch rows and on duplicate-heavy integer points, with
    the cache at its default and in use down to two clusters."""

    @pytest.fixture(autouse=True, params=[agglom.CACHE_ABOVE, 2], ids=["default", "cache2"])
    def cache_above(self, request, monkeypatch):
        monkeypatch.setattr(agglom, "CACHE_ABOVE", request.param)
        return request.param

    def check_every_admit(self, method, data, monkeypatch, cache_above):
        """Cluster ``data`` at seeds 1-4; how many admits ran in all, and
        how many of them followed a merge whose j was the last slot."""
        drive, admit = agglom._agglomerate, agglom._MinCache.admit
        seen = {"admits": 0, "j_last": 0}

        def spy_drive(crit, k, merge, state):
            seen["start"] = len(state.ids)
            return drive(crit, k, merge, state)

        def spy_admit(cache, i, j, m, stale):
            admit(cache, i, j, m, stale)
            block = cache.crit[:m, :m]
            assert cache.rowmin[:m].tobytes() == block.min(axis=1).tobytes()
            fresh = np.count_nonzero(np.triu(block <= cache.thr, 1), axis=1)
            assert cache.ties[:m].tolist() == fresh.tolist()
            seen["admits"] += 1
            seen["j_last"] += j == m  # slot j was the last one, and left

        monkeypatch.setattr(agglom, "_agglomerate", spy_drive)
        monkeypatch.setattr(agglom._MinCache, "admit", spy_admit)
        for seed in (1, 2, 3, 4):
            before = seen["admits"]
            method(data, 2, seed)
            assert seen["admits"] - before == max(0, seen["start"] - max(cache_above, 2))
        return seen

    @pytest.mark.parametrize("set_id", ["A", "B", "C"])
    def test_mismatch_rows_at_300(self, set_id, monkeypatch, cache_above):
        d = set_matrix(set_id, 300)
        for method, data in ((agglom.mcquitty, d), (agglom.ward, row_vectors(d))):
            seen = self.check_every_admit(method, data, monkeypatch, cache_above)
            assert seen["j_last"] > 0 or seen["admits"] == 0

    def test_duplicate_heavy_integer_points(self, monkeypatch, cache_above):
        points = duplicate_heavy_points()
        cells = (points[:, None, :] != points[None, :, :]).sum(axis=2)
        for method, data in ((agglom.mcquitty, DissimilarityMatrix(cells)), (agglom.ward, points)):
            seen = self.check_every_admit(method, data, monkeypatch, cache_above)
            assert seen["admits"] > 0 and seen["j_last"] > 0


class ExactCriteria:
    """The exact criteria, as Fractions, of the pairs of active slots
    within 1e-6 of a criterion block's minimum, for ``method`` clustering
    the integer ``data``.

    Ward: ||n_J S_I - n_I S_J||^2 / (n_I n_J (n_I + n_J)), from the
    integer sums S of the clusters' points. McQuitty: the sum over
    members a of I and b of J of 2^-(depth_I(a) + depth_J(b)) D[a, b], a
    member's depth being the number of merges above it in its cluster's
    tree. Each call first makes the merges the driver's state has made
    since the last call.
    """

    def __init__(self, method, data):
        self.data = np.asarray(data, dtype=np.int64)
        self.ward = method is agglom.ward
        self.done = 0
        # by cluster id: Ward's (size, sum), McQuitty's (members, depths)
        self.clusters = {
            c: (1, row) if self.ward else (np.array([c]), np.zeros(1, dtype=np.int64))
            for c, row in enumerate(self.data)
        }

    def _join(self, left, right):
        (a, x), (b, y) = self.clusters.pop(left), self.clusters.pop(right)
        if self.ward:
            return a + b, x + y
        return np.concatenate([a, b]), np.concatenate([x, y]) + 1

    def _exact(self, left, right):
        (a, x), (b, y) = left, right
        if self.ward:
            diff = b * x - a * y
            assert int(np.abs(diff).max(initial=0)) ** 2 * diff.size < 2**63  # int64 holds the norm
            return Fraction(int(diff @ diff), a * b * (a + b))
        # the counts summed per pair of depths, then scaled by powers of 2
        da, ia = np.unique(x, return_inverse=True)
        db, ib = np.unique(y, return_inverse=True)
        summed = np.zeros((da.size, db.size), dtype=np.int64)
        np.add.at(summed, (ia[:, None], ib[None, :]), self.data[np.ix_(a, b)])
        top = int(da[-1] + db[-1])
        num = sum(
            int(summed[u, v]) << (top - int(da[u]) - int(db[v])) for u, v in np.argwhere(summed)
        )
        return Fraction(num, 1 << top)

    def __call__(self, block, state):
        for mg in state.merges[self.done :]:
            self.clusters[state.n + self.done] = self._join(mg.left, mg.right)
            self.done += 1
        slots = [self.clusters[c] for c in state.ids]
        near = np.argwhere(np.triu(block <= block.min() + 1e-6, 1))
        return {(a, b): self._exact(slots[a], slots[b]) for a, b in near.tolist()}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ward_tie_split_by_rounding_is_a_true_tie(seed, monkeypatch):
    """At merge 347 of Ward on set B (254 clusters active), rounding puts
    one of the pairs within TIE_TOL of the minimum at 62.500000000000014
    against 62.5. Exact rationals from integer cluster sums give 125/2
    for every pair within 1e-6 of the minimum, so the float tie set is
    the exact one: the guard for the reweighted start that Ward takes
    after the duplicate merges."""
    points = row_vectors(set_matrix("B"))
    drive, pick = agglom._agglomerate, agglom._MinCache.pick
    exact_criteria = ExactCriteria(agglom.ward, points)
    seen = {}

    def spy_drive(crit, k, merge, state):
        seen["state"] = state
        return drive(crit, k, merge, state)

    def spy_pick(cache, m, rng):
        state = seen["state"]
        if len(state.merges) == 346:
            block = cache.crit[:m, :m].copy()
            seen["at"] = m, block, exact_criteria(block, state)
        return pick(cache, m, rng)

    monkeypatch.setattr(agglom, "_agglomerate", spy_drive)
    monkeypatch.setattr(agglom._MinCache, "pick", spy_pick)
    agglom.ward(points, 2, seed)

    m, block, exact = seen["at"]
    assert m == 254
    floats = {pair: block[pair] for pair in exact}
    assert sorted(set(floats.values())) == [62.5, 62.500000000000014]
    vmin = block.min()
    tied = {pair for pair, value in floats.items() if value <= vmin + agglom.TIE_TOL}
    assert min(exact.values()) == Fraction(125, 2)
    assert tied == {pair for pair, value in exact.items() if value == Fraction(125, 2)}
    assert len(tied) == 4


class TestWardPointsBound:
    """Ward takes points while n^2 dim (2 max|x|)^2 is below the largest
    float64, so that no criterion it computes can overflow."""

    # four points in three dimensions: opposite corners, a third corner
    # and one point between
    SPREAD = np.array([[1, 1, 1], [-1, -1, -1], [1, -1, 1], [0.5, 0.25, -1]])

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0], [1e200], [-1e200]],  # an inf minimum, merged into a nan row
            [[0.0], [1e154], [-1e154]],  # criteria 5e307 and inf, as the reference's
            [[0.0], [1.0], [np.nan]],
            [[0.0], [1.0], [np.inf]],
            [[0.0], [1.0], [-np.inf]],
            1e153 * SPREAD,  # n^2 dim (2 max|x|)^2 = 1.92e308
        ],
        ids=["1e200", "1e154", "nan", "inf", "-inf", "1e153-4x3"],
    )
    def test_points_past_the_bound_are_rejected(self, points):
        with pytest.raises(ValueError, match="finite"):
            agglom.ward(np.array(points), 1, 5)

    @pytest.mark.parametrize(
        "points",
        [
            np.array([[0.0], [1e150], [-1e150]]),
            9e152 * SPREAD,  # n^2 dim (2 max|x|)^2 = 1.56e308
            np.array([[np.iinfo(np.int64).min, 0], [np.iinfo(np.int64).max, 0], [0, 1]]),
            np.array([[np.iinfo(np.int64).max, -1], [np.iinfo(np.int64).min, 1]] * 2),
        ],
        ids=["1e150", "9e152-4x3", "int64-extremes", "int64-duplicates"],
    )
    def test_points_inside_the_bound_match_the_reference(self, points):
        for k in range(1, len(points) + 1):
            for seed in range(3):
                got = agglom.ward(points, k, seed)
                assert all(math.isfinite(mg.criterion) for mg in got.merges)
                assert_identical(got, reference.ward(points, k, seed))


class TestSmallEquivalence:
    @pytest.fixture(autouse=True)
    def cache_every_merge(self, monkeypatch):
        """Pick from the row-minimum cache down to two clusters, then scan."""
        monkeypatch.setattr(agglom, "CACHE_ABOVE", 2)

    def test_oracle_fixtures(self):
        for case in range(12):
            points, _ = random_tie_free_points(case)
            cells, _ = random_tie_free_matrix(case)
            d = DissimilarityMatrix(cells)
            for k in (1, 3):
                assert_identical(agglom.ward(points, k, 5), reference.ward(points, k, 5))
                assert_identical(agglom.mcquitty(d, k, 5), reference.mcquitty(d, k, 5))

    def test_tie_fixtures(self):
        points = np.zeros((4, 2))
        cells = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        for seed in range(20):
            assert_identical(agglom.ward(points, 1, seed), reference.ward(points, 1, seed))
            d = DissimilarityMatrix(cells)
            assert_identical(agglom.mcquitty(d, 2, seed), reference.mcquitty(d, 2, seed))

    def test_random_tie_heavy_matrices(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            values = rng.integers(0, 4, size=(40, 6))
            cells = (values[:, None, :] != values[None, :, :]).sum(axis=2)
            d = DissimilarityMatrix(cells)
            points = row_vectors(d)
            assert_identical(agglom.mcquitty(d, 2, seed), reference.mcquitty(d, 2, seed))
            assert_identical(agglom.ward(points, 2, seed), reference.ward(points, 2, seed))


def symmetric(upper_values, m):
    """Symmetric m x m matrix from the strict upper triangle of a draw, inf diagonal."""
    crit = np.triu(upper_values, 1)
    crit = crit + crit.T
    np.fill_diagonal(crit, np.inf)
    return crit


def pick_inputs(m, rng):
    """Criterion blocks of m active clusters: dense integer ties, sparse
    ties, inf entries and an all-inf block."""
    dense = symmetric(rng.integers(0, 3, size=(m, m)).astype(np.float64), m)
    sparse = symmetric(rng.integers(0, 10**6, size=(m, m)).astype(np.float64), m)
    pairs = rng.integers(0, m, size=(int(rng.integers(1, 4)), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    sparse[pairs[:, 0], pairs[:, 1]] = sparse[pairs[:, 1], pairs[:, 0]] = -1.0
    with_inf = dense.copy()
    gone = rng.random((m, m)) < 0.3
    with_inf[gone | gone.T] = np.inf
    return dense, sparse, with_inf, np.full((m, m), np.inf)


@pytest.mark.parametrize("m", range(2, agglom.CACHE_ABOVE + 1))
def test_pick_matches_the_reference_scan(m):
    """The same pair, the same draw flag and the same generator state as
    the original argwhere scan, on blocks cut from a larger matrix as the
    driver passes them."""
    rng = np.random.default_rng(m)
    for crit in pick_inputs(m, rng):
        full = np.full((m + 3, m + 3), 7.0)
        full[:m, :m] = crit
        block = full[:m, :m]
        ours, theirs = np.random.default_rng(m), np.random.default_rng(m)
        for _ in range(3):
            assert agglom._pick_min_pair(block, ours) == reference._pick_min_pair(block, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state


def scipy_pairs(z):
    return [frozenset((int(a), int(b))) for a, b in z[:, :2]]


def our_pairs(result):
    return [frozenset((m.left, m.right)) for m in result.merges]


@pytest.mark.parametrize("n", [200, 260, 320, 380, 440, 500])
class TestScipyOracle:
    def test_ward_matches_linkage_ward(self, n):
        rng = np.random.default_rng(n)
        points = rng.uniform(0.0, 10.0, size=(n, 5))
        result = agglom.ward(points, 1, seed=0)
        assert result.ties_drawn == 0
        z = linkage(points, method="ward")
        assert our_pairs(result) == scipy_pairs(z)
        for m, height in zip(result.merges, z[:, 2]):
            assert math.isclose(math.sqrt(2.0 * m.criterion), height, rel_tol=1e-9)

    def test_mcquitty_matches_linkage_weighted(self, n):
        rng = np.random.default_rng(n)
        upper = rng.integers(1, 2**30, size=n * (n - 1) // 2)
        cells = squareform(upper)
        result = agglom.mcquitty(DissimilarityMatrix(cells), 1, seed=0)
        assert result.ties_drawn == 0
        z = linkage(upper.astype(np.float64), method="weighted")
        assert our_pairs(result) == scipy_pairs(z)
        for m, height in zip(result.merges, z[:, 2]):
            assert math.isclose(m.criterion, height, rel_tol=1e-9)
