"""Ward's and McQuitty's clustering against brute-force oracles."""

import math

import numpy as np
import pytest

from sensecluster import agglom
from sensecluster.agglom import ClusterResult, mcquitty, merge_trace, ward
from sensecluster.dissim import DissimilarityMatrix

TOL = 1e-9


# ---------------------------------------------------------------- oracles

def ward_oracle(points, k):
    """Recompute every candidate merge from scratch each step.

    Returns (steps, partition, had_tie); steps hold frozenset member
    pairs and the criterion value.
    """
    points = np.asarray(points, dtype=float)
    clusters = [[i] for i in range(len(points))]
    steps = []
    had_tie = False
    while len(clusters) > k:
        pairs = []
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                ma = points[clusters[a]].mean(axis=0)
                mb = points[clusters[b]].mean(axis=0)
                v = float(
                    ((ma - mb) ** 2).sum()
                    / (1.0 / len(clusters[a]) + 1.0 / len(clusters[b]))
                )
                pairs.append((v, a, b))
        vmin = min(p[0] for p in pairs)
        ties = [p for p in pairs if p[0] <= vmin + TOL]
        if len(ties) > 1:
            had_tie = True
        v, a, b = ties[0]
        steps.append((frozenset(clusters[a]), frozenset(clusters[b]), v))
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return steps, clusters, had_tie


def _leaves(tree):
    if isinstance(tree, tuple):
        return _leaves(tree[0]) + _leaves(tree[1])
    return [tree]


def _expand(tree_a, tree_b, base):
    """Average-of-mismatches distance, expanded recursively from the original matrix."""
    if isinstance(tree_a, tuple):
        return 0.5 * (_expand(tree_a[0], tree_b, base) + _expand(tree_a[1], tree_b, base))
    if isinstance(tree_b, tuple):
        return 0.5 * (_expand(tree_a, tree_b[0], base) + _expand(tree_a, tree_b[1], base))
    return float(base[tree_a][tree_b])


def mcquitty_oracle(base, k):
    n = len(base)
    trees = list(range(n))
    steps = []
    had_tie = False
    while len(trees) > k:
        pairs = []
        for a in range(len(trees)):
            for b in range(a + 1, len(trees)):
                pairs.append((_expand(trees[a], trees[b], base), a, b))
        vmin = min(p[0] for p in pairs)
        ties = [p for p in pairs if p[0] <= vmin + TOL]
        if len(ties) > 1:
            had_tie = True
        v, a, b = ties[0]
        steps.append((frozenset(_leaves(trees[a])), frozenset(_leaves(trees[b])), v))
        trees[a] = (trees[a], trees[b])
        del trees[b]
    return steps, trees, had_tie


def replay_member_steps(result: ClusterResult):
    """Member-set view of a result's merge history."""
    members = {i: frozenset([i]) for i in range(result.n)}
    steps = []
    for t, m in enumerate(result.merges):
        left, right = members[m.left], members[m.right]
        members[result.n + t] = left | right
        steps.append((left, right, m.criterion))
    return steps


def assert_same_trace(got, expected):
    assert len(got) == len(expected)
    for (gl, gr, gv), (el, er, ev) in zip(got, expected):
        assert {gl, gr} == {el, er}
        assert math.isclose(gv, ev, rel_tol=TOL, abs_tol=TOL)


def random_tie_free_points(case, n_max=12, d_max=6):
    """Deterministically search sub-seeds until the oracle sees no ties."""
    for attempt in range(50):
        rng = np.random.default_rng((case, attempt))
        n = int(rng.integers(4, n_max + 1))
        d = int(rng.integers(2, d_max + 1))
        points = rng.uniform(0.0, 10.0, size=(n, d))
        steps, _, had_tie = ward_oracle(points, 1)
        if not had_tie:
            return points, steps
    raise AssertionError("could not generate a tie-free point set")


def random_tie_free_matrix(case, n_max=12):
    for attempt in range(50):
        rng = np.random.default_rng((case, attempt, 7))
        n = int(rng.integers(4, n_max + 1))
        vals = rng.choice(np.arange(1, 10_000), size=n * (n - 1) // 2, replace=False)
        cells = np.zeros((n, n), dtype=np.int64)
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                cells[i, j] = cells[j, i] = vals[idx]
                idx += 1
        steps, _, had_tie = mcquitty_oracle(cells.tolist(), 1)
        if not had_tie:
            return cells, steps
    raise AssertionError("could not generate a tie-free matrix")


REFERENCE_MISMATCHES = np.array(
    [[0, 2, 1, 0], [2, 0, 2, 2], [1, 2, 0, 1], [0, 2, 1, 0]]
)


# ---------------------------------------------------------------- ward

class TestWard:
    def test_two_singletons_direct_substitution(self):
        result = ward(np.array([[0.0, 0.0], [2.0, 0.0]]), k=1, seed=0)
        assert len(result.merges) == 1
        assert result.merges[0].criterion == pytest.approx(4.0 / 2.0)

    def test_k_equals_n_is_identity_partition(self):
        pts = np.arange(12.0).reshape(6, 2)
        result = ward(pts, k=6, seed=0)
        assert result.merges == ()
        assert result.assignment.tolist() == list(range(6))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            ward(np.zeros((3, 2)), k=4)
        with pytest.raises(ValueError):
            ward(np.zeros((3, 2)), k=0)

    def test_merge_sequence_matches_exhaustive_oracle(self):
        for case in range(12):
            points, oracle_steps = random_tie_free_points(case)
            result = ward(points, k=1, seed=123)
            assert_same_trace(replay_member_steps(result), oracle_steps)

    def test_within_variance_never_decreases_and_merge_is_optimal(self):
        def sse(points, clusters):
            total = 0.0
            for members in clusters:
                pts = points[list(members)]
                total += ((pts - pts.mean(axis=0)) ** 2).sum()
            return total

        points, _ = random_tie_free_points(99)
        result = ward(points, k=1, seed=0)
        clusters = [frozenset([i]) for i in range(len(points))]
        prev = sse(points, clusters)
        for left, right, value in replay_member_steps(result):
            # the chosen criterion is minimal among all current pairs
            candidates = []
            for a in range(len(clusters)):
                for b in range(a + 1, len(clusters)):
                    ma = points[list(clusters[a])].mean(axis=0)
                    mb = points[list(clusters[b])].mean(axis=0)
                    candidates.append(
                        ((ma - mb) ** 2).sum()
                        / (1.0 / len(clusters[a]) + 1.0 / len(clusters[b]))
                    )
            assert value <= min(candidates) + TOL
            clusters = [c for c in clusters if c not in (left, right)] + [left | right]
            now = sse(points, clusters)
            # merging raises total within-cluster variance by exactly the criterion
            assert now >= prev - TOL
            assert math.isclose(now - prev, value, rel_tol=1e-9, abs_tol=1e-9)
            prev = now

    def test_merged_mean_matches_scratch_mean(self):
        # criterion values come from incrementally merged means; agreement
        # with the oracle's from-scratch means pins the bookkeeping
        points, oracle_steps = random_tie_free_points(7)
        result = ward(points, k=1, seed=1)
        for got, exp in zip(replay_member_steps(result), oracle_steps):
            assert math.isclose(got[2], exp[2], rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------- mcquitty

class TestMcQuitty:
    def test_reference_matrix_first_merge_is_the_zero_pair(self):
        d = DissimilarityMatrix(REFERENCE_MISMATCHES)
        result = mcquitty(d, k=3, seed=0)
        steps = replay_member_steps(result)
        assert {steps[0][0], steps[0][1]} == {frozenset([0]), frozenset([3])}
        assert steps[0][2] == 0.0

    def test_update_is_plain_average(self):
        # distances 0 and 2 from the merged pair average to 1
        cells = np.array([[0, 0, 0], [0, 0, 2], [0, 2, 0]])
        result = mcquitty(DissimilarityMatrix(cells), k=1, seed=3)
        assert result.merges[0].criterion == 0.0
        assert result.merges[1].criterion == pytest.approx(1.0)

    def test_k_equals_n_is_identity_partition(self):
        d = DissimilarityMatrix(REFERENCE_MISMATCHES)
        result = mcquitty(d, k=4, seed=0)
        assert result.merges == ()
        assert result.assignment.tolist() == [0, 1, 2, 3]

    def test_k_larger_than_n_rejected(self):
        d = DissimilarityMatrix(REFERENCE_MISMATCHES)
        with pytest.raises(ValueError):
            mcquitty(d, k=5)

    def test_merge_sequence_matches_recursive_oracle(self):
        for case in range(12):
            cells, oracle_steps = random_tie_free_matrix(case)
            result = mcquitty(DissimilarityMatrix(cells), k=1, seed=99)
            assert_same_trace(replay_member_steps(result), oracle_steps)

    def test_every_merge_value_equals_recursive_expansion(self):
        cells, _ = random_tie_free_matrix(31)
        base = cells.tolist()
        result = mcquitty(DissimilarityMatrix(cells), k=1, seed=0)
        trees = {i: i for i in range(result.n)}
        for t, m in enumerate(result.merges):
            expected = _expand(trees[m.left], trees[m.right], base)
            assert math.isclose(m.criterion, expected, rel_tol=TOL, abs_tol=TOL)
            trees[result.n + t] = (trees[m.left], trees[m.right])


# ---------------------------------------------------------------- shared behaviour

@pytest.mark.parametrize("algorithm", ["ward", "mcquitty"])
class TestCommon:
    def run(self, algorithm, k, seed):
        if algorithm == "ward":
            rng = np.random.default_rng(42)
            return ward(rng.uniform(0, 5, size=(10, 4)), k, seed)
        cells, _ = random_tie_free_matrix(1)
        return mcquitty(DissimilarityMatrix(cells), k, seed)

    def test_fixed_seed_is_bit_identical(self, algorithm):
        a = self.run(algorithm, 3, seed=17)
        b = self.run(algorithm, 3, seed=17)
        assert a.assignment.tolist() == b.assignment.tolist()
        assert a.merges == b.merges

    def test_no_ties_means_seed_independent(self, algorithm):
        a = self.run(algorithm, 2, seed=1)
        b = self.run(algorithm, 2, seed=2)
        assert a.assignment.tolist() == b.assignment.tolist()
        assert a.merges == b.merges

    def test_partition_has_exactly_k_nonempty_clusters(self, algorithm):
        for k in (1, 2, 4):
            result = self.run(algorithm, k, seed=5)
            labels = set(result.assignment.tolist())
            assert labels == set(range(k))
            assert len(result.merges) == result.n - k


class TestTies:
    def test_tied_pairs_are_drawn_at_random(self):
        # four identical points: every pair ties at zero, so different
        # seeds must pick different first merges
        points = np.zeros((4, 2))
        seen = set()
        for seed in range(40):
            result = ward(points, k=1, seed=seed)
            left, right, _ = replay_member_steps(result)[0]
            seen.add(frozenset({left, right}))
        assert len(seen) >= 3

    def test_mcquitty_tie_choice_follows_seed(self):
        cells = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        seen = set()
        for seed in range(30):
            result = mcquitty(DissimilarityMatrix(cells), k=2, seed=seed)
            seen.add(tuple(result.assignment.tolist()))
        assert len(seen) == 2


class TestTiesDrawn:
    def test_zero_on_tie_free_inputs(self):
        points, _ = random_tie_free_points(3)
        cells, _ = random_tie_free_matrix(3)
        assert ward(points, k=1, seed=0).ties_drawn == 0
        assert mcquitty(DissimilarityMatrix(cells), k=1, seed=0).ties_drawn == 0

    def test_counts_each_drawing_step(self):
        # four identical points: every pair ties at zero until two
        # clusters remain, so the first two of the three merges draw
        assert ward(np.zeros((4, 2)), k=1, seed=0).ties_drawn == 2

    def test_mcquitty_tie_fixture_draws_once(self):
        cells = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        assert mcquitty(DissimilarityMatrix(cells), k=2, seed=0).ties_drawn == 1

    def test_existing_constructors_default_to_zero(self):
        result = ClusterResult(np.zeros(3), (), 1)
        assert result.ties_drawn == 0


class TestTrace:
    def test_trace_lists_members_and_values(self):
        d = DissimilarityMatrix(REFERENCE_MISMATCHES)
        result = mcquitty(d, k=1, seed=0)
        text = merge_trace(result)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("1  ")
        assert "{" in lines[0] and "}" in lines[0]

    def test_trace_empty_when_no_merges(self):
        d = DissimilarityMatrix(REFERENCE_MISMATCHES)
        assert merge_trace(mcquitty(d, k=4, seed=0)) == ""


class TestHalfSqDistances:
    @staticmethod
    def brute(points):
        p = np.asarray(points, dtype=np.float64)
        crit = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2) / 2.0
        np.fill_diagonal(crit, np.inf)
        return crit

    @pytest.mark.parametrize("dims", [4, 5])
    def test_integer_points_exact_at_float32_limit(self, dims):
        # |x| <= 1023 bounds a squared distance by dims * 2046^2, just
        # under 2^24 at 4 dimensions (float32 path) and over it at 5
        # (float64 path); rows 0 and 1 reach an odd sum near that bound,
        # which float32 could not hold above 2^24
        rng = np.random.default_rng(dims)
        points = rng.integers(-1023, 1024, size=(30, dims)).astype(np.float64)
        points[0], points[1] = -1023.0, 1023.0
        points[1, 0] = 1022.0
        got = agglom._half_sq_distances(points)
        assert got.dtype == np.float64
        assert np.array_equal(got, self.brute(points))


class TestGramInit:
    """The Gram-product init against the row-at-a-time difference loop."""

    # at 2 dimensions the bound dim * (2 max|x|)^2 < 2^53 holds up to
    # max|x| = 2^25 - 1 and fails from 2^25
    EDGE = 2**25

    @staticmethod
    def by_loop(points):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agglom, "_gram_is_exact", lambda pts: False)
            return agglom._half_sq_distances(points)

    @staticmethod
    def loop_only(points):
        """``_half_sq_distances`` with the Gram product made to fail."""

        def refuse(pts):
            raise AssertionError("took the Gram product")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agglom, "_gram_half_sq_distances", refuse)
            return agglom._half_sq_distances(points)

    @staticmethod
    def edge_points(bound):
        rng = np.random.default_rng(bound)
        points = rng.integers(-bound, bound + 1, size=(40, 2)).astype(np.float64)
        points[0], points[1] = -bound, bound
        points[2] = (bound, bound - 1)
        return points

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_loop_on_seeded_integer_points(self, seed):
        rng = np.random.default_rng(seed)
        n, dims = int(rng.integers(2, 120)), int(rng.integers(1, 80))
        points = rng.integers(-(10**seed), 10**seed + 1, size=(n, dims)).astype(np.float64)
        assert agglom._gram_is_exact(points)
        assert np.array_equal(agglom._gram_half_sq_distances(points), self.by_loop(points))

    def test_integer_points_just_inside_the_bound(self):
        points = self.edge_points(self.EDGE - 1)
        assert agglom._gram_is_exact(points)
        got = agglom._gram_half_sq_distances(points)
        assert np.array_equal(got, self.by_loop(points))
        assert np.array_equal(got, TestHalfSqDistances.brute(points))
        # rows 0 and 1 differ by 2 max|x| in both dimensions, the largest
        # squared distance the bound admits
        assert got[0, 1] == 2 * (2 * (self.EDGE - 1)) ** 2 / 2

    def test_integer_points_at_the_bound_take_the_loop(self):
        points = self.edge_points(self.EDGE)
        assert not agglom._gram_is_exact(points)
        assert np.array_equal(self.loop_only(points), TestHalfSqDistances.brute(points))

    def test_non_integer_point_takes_the_loop(self):
        rng = np.random.default_rng(9)
        points = rng.integers(0, 10, size=(30, 4)).astype(np.float64)
        points[7, 2] += 0.5
        assert not agglom._gram_is_exact(points)
        assert np.array_equal(self.loop_only(points), TestHalfSqDistances.brute(points))

    def test_non_finite_points_take_the_loop(self):
        for bad in (np.inf, np.nan):
            points = np.zeros((3, 2))
            points[1, 0] = bad
            assert not agglom._gram_is_exact(points)
            self.loop_only(points)


# ---------------------------------------------------------------- cached pick path

@pytest.fixture
def cache_every_merge(monkeypatch):
    """Pick from the row-minimum cache down to two clusters, then scan."""
    monkeypatch.setattr(agglom, "CACHE_ABOVE", 2)


@pytest.mark.usefixtures("cache_every_merge")
class TestWardCached(TestWard):
    """The Ward oracle tests again, with both pick paths running."""


@pytest.mark.usefixtures("cache_every_merge")
class TestMcQuittyCached(TestMcQuitty):
    """The McQuitty oracle tests again, with both pick paths running."""


@pytest.mark.usefixtures("cache_every_merge")
class TestCommonCached(TestCommon):
    """Seed and partition behaviour again, with both pick paths running."""


@pytest.mark.usefixtures("cache_every_merge")
class TestTiesCached(TestTies):
    """Tie draws again, with both pick paths running."""


@pytest.mark.usefixtures("cache_every_merge")
class TestTiesDrawnCached(TestTiesDrawn):
    """Tie counts again, with both pick paths running."""
