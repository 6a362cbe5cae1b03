"""Ward's and McQuitty's clustering against brute-force oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


class TestClusterResultValue:
    def test_equal_by_value_and_unhashable(self):
        d = DissimilarityMatrix(random_tie_free_matrix(1)[0])
        result = mcquitty(d, 2, seed=0)
        assert result == mcquitty(d, 2, seed=0)
        assert result != mcquitty(d, 3, seed=0)
        assert result != ClusterResult(result.assignment, result.merges, 2, result.ties_drawn + 1)
        assert result != ClusterResult(1 - result.assignment, result.merges, 2, result.ties_drawn)
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)

    def test_holds_its_own_copy(self):
        assignment = np.array([0, 1, 0])
        result = ClusterResult(assignment, (), 2)
        assignment[0] = 1
        assert result.assignment.tolist() == [0, 1, 0]
        assert not result.assignment.flags.writeable


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

    def test_is_a_python_int(self):
        # drawn by the full scan (the cache's pick, with it in use), by
        # the duplicate replay and by McQuitty; a numpy count would not
        # pass json.dumps
        for result in (
            ward(np.zeros((4, 2)), k=1, seed=0),
            ward(np.zeros((4, 2), dtype=np.int32), k=1, seed=0),
            mcquitty(DissimilarityMatrix(np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])), k=2, seed=0),
        ):
            assert result.ties_drawn > 0
            assert type(result.ties_drawn) is int
            json.dumps(result.ties_drawn)


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


def float32_start(points):
    """Ward's start over every row at unit sizes, as for points with no
    two rows equal, from the float32 product."""
    n = len(points)
    return agglom._ward_start(points, np.arange(n), np.ones(n), True)


def float64_start(points):
    """The same from the float64 row-difference loop."""
    n = len(points)
    return agglom._ward_start(points, np.arange(n), np.ones(n), False)


def starts_taken(points):
    """The kernels of the Ward starts that clustering ``points`` builds,
    True for the float32 product and False for the float64 loop."""
    taken = []

    def spy(pts, rows, sizes, exact, start=agglom._ward_start):
        taken.append(exact)
        return start(pts, rows, sizes, exact)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agglom, "_ward_start", spy)
        ward(points, len(points), 0)
    return taken


FLOAT32, LOOP = [True], [False]


def float32_is_exact(points):
    """``agglom._float32_is_exact`` at the span 2 max|x| of ``points``."""
    span = 2.0 * float(np.abs(points.astype(np.float64)).max()) if points.size else 0.0
    return agglom._float32_is_exact(points, span)


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
        # under 2^24 at 4 dimensions (float32 start for integer-typed
        # points) and over it at 5 (float64 loop); rows 0 and 1 reach an
        # odd sum near that bound, which float32 could not hold above 2^24
        rng = np.random.default_rng(dims)
        points = rng.integers(-1023, 1024, size=(30, dims))
        points[0], points[1] = -1023, 1023
        points[1, 0] = 1022
        assert float32_is_exact(points) == (dims == 4)
        assert starts_taken(points) == (FLOAT32 if dims == 4 else LOOP)
        starts = [float64_start(points)]
        if dims == 4:
            starts.append(float32_start(points))
        for got in starts:
            assert got.dtype == np.float64
            assert np.array_equal(got, self.brute(points))


    def test_float64_kernel_is_brute_force_at_unit_sizes(self):
        # dyadic coordinates sum exactly in any order, so the loop over
        # pts[rows] in blocks of rows equals brute force bit for bit; rows
        # skip and reorder points, and span more than two row blocks
        rng = np.random.default_rng(21)
        points = rng.integers(-32, 33, size=(2 * agglom.ROW_BLOCK + 40, 5)) / 4.0
        rows = rng.permutation(len(points))[: 2 * agglom.ROW_BLOCK + 9]
        got = agglom._ward_start(points, rows, np.ones(len(points)), False)
        assert got.dtype == np.float64
        assert np.array_equal(got, self.brute(points[rows]))
        # other floats round, but each pair is differenced once
        points = rng.normal(size=(150, 7))
        got = float64_start(points)
        assert np.array_equal(got, got.T)
        assert np.allclose(got, self.brute(points), rtol=1e-12, atol=0)


class TestFloat32Init:
    """The float32 kernel of integer-typed points against the float64
    loop, the reference, byte for byte.

    At 4 dimensions the bound dim * (2 max|x|)^2 < 2^24 holds up to
    max|x| = 1023 and fails from 1024; at 64 dimensions uint8's full
    range 0..255 is inside it, and at 65 it is not. Past the bound Ward
    takes the loop.
    """

    @staticmethod
    def edge_points(bound, dims=4, dtype=np.int64, n=2 * agglom.ROW_BLOCK + 9):
        """Random points in [-bound, bound], rows 0 and 1 at opposite
        corners and row 2 one off a corner, so the largest and an odd
        near-largest squared distance both occur; more than two row
        blocks."""
        rng = np.random.default_rng(bound + dims)
        points = rng.integers(-bound, bound + 1, size=(n, dims))
        points[0], points[1], points[2] = -bound, bound, bound
        points[2, 0] = bound - 1
        return points.astype(dtype)

    @staticmethod
    def assert_bytes_equal(got, expected):
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def assert_start_is_loop(self, points):
        """The float32 start equals the loop, byte for byte; returns it."""
        got = float32_start(points)
        self.assert_bytes_equal(got, float64_start(points))
        return got

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16])
    def test_just_inside_the_bound_takes_float32(self, dtype):
        points = self.edge_points(1023, dtype=dtype)
        assert float32_is_exact(points)
        assert starts_taken(points) == FLOAT32
        got = self.assert_start_is_loop(points)
        assert np.array_equal(got, TestHalfSqDistances.brute(points))
        assert got[0, 1] == 4 * 2046**2 / 2
        assert got[1, 2] == 0.5
        # an odd sum above 2^23, which needs all 24 bits of float32
        assert got[0, 2] == (3 * 2046**2 + 2045**2) / 2

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16])
    def test_at_the_bound_falls_back_to_float64(self, dtype):
        points = self.edge_points(1024, dtype=dtype)
        assert not float32_is_exact(points)
        assert starts_taken(points) == LOOP
        got = float64_start(points)
        assert np.array_equal(got, TestHalfSqDistances.brute(points))
        assert got[0, 1] == 4 * 2048**2 / 2

    def test_a_negative_extreme_alone_breaks_the_bound(self):
        points = np.zeros((5, 4), dtype=np.int32)
        points[3, 1] = 1023
        assert float32_is_exact(points)
        assert starts_taken(points) == FLOAT32
        points[3, 1] = -1024
        assert not float32_is_exact(points)
        assert starts_taken(points) == LOOP

    @pytest.mark.parametrize("dims", [64, 65])
    def test_uint8_full_range(self, dims):
        rng = np.random.default_rng(dims)
        points = rng.integers(0, 256, size=(150, dims), dtype=np.uint8)
        points[0], points[1] = 0, 255
        assert float32_is_exact(points) == (dims == 64)
        assert starts_taken(points) == (FLOAT32 if dims == 64 else LOOP)
        got = self.assert_start_is_loop(points) if dims == 64 else float64_start(points)
        assert np.array_equal(got, TestHalfSqDistances.brute(points))
        assert got[0, 1] == dims * 255**2 / 2

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_integer_points(self, seed):
        rng = np.random.default_rng(seed)
        n, dims = int(rng.integers(2, 300)), int(rng.integers(1, 80))
        high = int(rng.integers(1, 200))
        points = rng.integers(-high, high + 1, size=(n, dims), dtype=np.int32)
        assert float32_is_exact(points)
        self.assert_start_is_loop(points)

    def test_zero_width_points(self):
        points = np.zeros((4, 0), dtype=np.int32)
        assert float32_is_exact(points)
        self.assert_start_is_loop(points)
        result = ward(points, k=1, seed=0)
        assert result == ward(points.astype(np.float64), k=1, seed=0)
        assert result.ties_drawn == 2

    @pytest.mark.parametrize(
        "points",
        [
            np.random.default_rng(3).integers(-2, 3, size=(200, 7)),
            np.random.default_rng(4).integers(0, 256, size=(170, 64), dtype=np.uint8),
            np.random.default_rng(5).integers(-1023, 1024, size=(40, 4), dtype=np.int16),
        ],
        ids=["ties-int64", "uint8", "edge-int16"],
    )
    def test_ward_equals_ward_of_float64_points(self, points):
        for seed in range(3):
            got = ward(points, k=2, seed=seed)
            expected = ward(points.astype(np.float64), k=2, seed=seed)
            assert got == expected  # merges, ties_drawn and assignment
            assert merge_trace(got) == merge_trace(expected)


class TestGramInit:
    """Points the float32 product does not start, which take the float64
    row-difference loop, against brute force; and, where their integer
    values fit the float32 bound, the product against the loop."""

    # at 2 dimensions the bound dim * (2 max|x|)^2 < 2^53, within which
    # float64 sums of squared integer differences are exact, holds up to
    # max|x| = 2^25 - 1 and fails from 2^25
    EDGE = 2**25

    @staticmethod
    def edge_points(bound):
        rng = np.random.default_rng(bound)
        points = rng.integers(-bound, bound + 1, size=(40, 2)).astype(np.float64)
        points[0], points[1] = -bound, bound
        points[2] = (bound, bound - 1)
        return points

    @staticmethod
    def assert_loop_is_brute(points):
        """The loop equals brute force, nan for nan; returns it."""
        got = float64_start(points)
        assert np.array_equal(got, TestHalfSqDistances.brute(points), equal_nan=True)
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_loop_on_seeded_integer_points(self, seed):
        rng = np.random.default_rng(seed)
        n, dims = int(rng.integers(2, 120)), int(rng.integers(1, 80))
        points = rng.integers(-(10**seed), 10**seed + 1, size=(n, dims))
        got = self.assert_loop_is_brute(points.astype(np.float64))
        if float32_is_exact(points):
            TestFloat32Init.assert_bytes_equal(float32_start(points), got)

    def test_integer_points_just_inside_the_bound(self):
        points = self.edge_points(self.EDGE - 1)
        assert starts_taken(points) == LOOP
        got = self.assert_loop_is_brute(points)
        # rows 0 and 1 differ by 2 max|x| in both dimensions, the largest
        # squared distance the bound admits
        assert got[0, 1] == 2 * (2 * (self.EDGE - 1)) ** 2 / 2

    def test_integer_points_at_the_bound_take_the_loop(self):
        points = self.edge_points(self.EDGE)
        assert starts_taken(points) == LOOP
        self.assert_loop_is_brute(points)

    def test_non_integer_point_takes_the_loop(self):
        rng = np.random.default_rng(9)
        points = rng.integers(0, 10, size=(30, 4)).astype(np.float64)
        points[7, 2] += 0.5
        assert starts_taken(points) == LOOP
        self.assert_loop_is_brute(points)

    @pytest.mark.parametrize(
        "row", [0, agglom.ROW_BLOCK - 1, agglom.ROW_BLOCK, 2 * agglom.ROW_BLOCK + 5]
    )
    def test_every_row_block_is_checked(self, row):
        # a value in any row reaches every pair of that row, whichever
        # block of rows the loop differences it in
        points = np.zeros((2 * agglom.ROW_BLOCK + 6, 3))
        for bad in (0.5, np.nan, -self.EDGE):
            points[row, 1] = bad
            got = self.assert_loop_is_brute(points)
            others = np.arange(len(points)) != row
            assert np.all(got[row, others] != 0) and np.all(got[others, row] != 0)

    def test_non_finite_points_take_the_loop(self):
        # Ward rejects them; the loop itself still matches brute force
        for bad in (np.inf, -np.inf, np.nan):
            points = np.zeros((3, 2))
            points[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                ward(points, 1, 0)
            with np.errstate(invalid="ignore"):  # brute force differences inf with itself
                self.assert_loop_is_brute(points)


# ---------------------------------------------------------------- duplicate rows

def uncollapsed(method, *args):
    """``method`` with each row its own label and Ward's points taken
    as float64, so the driver makes every merge from the full start
    matrix, Ward's from the float64 loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agglom, "_row_labels", lambda rows: np.arange(len(rows)))
        mp.setattr(agglom, "_float32_is_exact", lambda *_: False)
        return method(*args)


def assert_same_as_uncollapsed(method, data, k, seed):
    got = method(data, k, seed)
    expected = uncollapsed(method, data, k, seed)
    assert got == expected  # merges, ties_drawn and assignment
    assert merge_trace(got) == merge_trace(expected)


def refuse(*_):
    raise AssertionError("took a path the input should not reach")


def float32_kernel_only(pts, rows, sizes, exact, start=agglom._ward_start):
    """Ward's start, refusing the float64 loop."""
    if not exact:
        refuse()
    return start(pts, rows, sizes, exact)


def replayed(method, *args):
    """The labels ``method`` hands the duplicate replay and how many
    merges the replay makes; None if it makes no replay."""
    seen = []

    def spy(state, labels, k, replay=agglom._replay_duplicates):
        before = len(state.merges)
        rows = replay(state, labels, k)
        seen.append((labels.tolist(), len(state.merges) - before))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agglom, "_replay_duplicates", spy)
        method(*args)
    return seen[0] if seen else None


def mismatches(values):
    return DissimilarityMatrix((values[:, None, :] != values[None, :, :]).sum(axis=2))


class TestDuplicateCollapse:
    """The merges among equal rows, replayed from their labels, against
    the driver making them."""

    @staticmethod
    def tie_heavy_values(features, levels):
        """60 rows of few nominal values: many equal rows, as feature set A has."""
        return np.random.default_rng(features * levels).integers(0, levels, size=(60, features))

    @pytest.mark.parametrize("features, levels", [(2, 3), (3, 3), (5, 2)])
    def test_tie_heavy_nominal_data(self, features, levels):
        values = self.tie_heavy_values(features, levels)
        d = mismatches(values)
        distinct = len(np.unique(values, axis=0))
        assert distinct < 60
        for seed in range(3):
            for k in (1, 2, distinct - 1, distinct, distinct + 1, 59):
                assert_same_as_uncollapsed(mcquitty, d, k, seed)
                assert_same_as_uncollapsed(ward, d.cells, k, seed)
                assert_same_as_uncollapsed(ward, values, k, seed)

    @staticmethod
    def after_replay(method, *args):
        """The labels ``method`` hands the duplicate replay, and the number
        of merges and the generator state the replay leaves."""
        seen = []

        def spy(state, labels, k, replay=agglom._replay_duplicates):
            rows = replay(state, labels, k)
            seen.append((labels, len(state.merges), state.rng.bit_generator.state))
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agglom, "_replay_duplicates", spy)
            method(*args)
        [(labels, merges, rng_state)] = seen
        return labels, (merges, rng_state)

    @staticmethod
    def driver_states(method, data, k, seed):
        """The number of merges and the generator state of the uncollapsed
        driver before its first merge and after each."""
        states = [(0, np.random.default_rng(seed).bit_generator.state)]

        def spy(state, *args, join=agglom._State.join):
            join(state, *args)
            states.append((len(state.merges), state.rng.bit_generator.state))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agglom._State, "join", spy)
            uncollapsed(method, data, k, seed)
        return states

    @pytest.mark.parametrize("features, levels", [(2, 3), (3, 3), (5, 2)])
    def test_replay_leaves_the_generator_where_the_driver_does(self, features, levels):
        # the replay makes the driver's first n - max(G, k) merges, G the
        # rows that label themselves, and calls the generator as it does
        values = self.tie_heavy_values(features, levels)
        d = mismatches(values)
        n, distinct = len(values), len(np.unique(values, axis=0))
        for method, data in ((mcquitty, d), (ward, d.cells), (ward, values)):
            for seed in range(3):
                for k in (1, distinct - 1, distinct, distinct + 1):
                    labels, left = self.after_replay(method, data, k, seed)
                    g = np.count_nonzero(labels == np.arange(n))
                    assert g == distinct
                    assert left == self.driver_states(method, data, k, seed)[n - max(g, k)]

    def test_integer_points_with_more_columns_than_rows(self):
        # a label is a row number, never a column number
        points = np.random.default_rng(11).integers(0, 3, size=(12, 40))
        points[[3, 7, 9]] = points[0]
        points[10] = points[5]
        labels = list(range(12))
        labels[3] = labels[7] = labels[9] = 0
        labels[10] = 5
        assert agglom._row_labels(points).tolist() == labels
        for seed in range(5):
            for k in (1, 4, 7, 8, 9, 12):
                assert_same_as_uncollapsed(ward, points, k, seed)

    def test_zero_width_points_are_all_equal(self):
        points = np.zeros((4, 0), dtype=np.int32)
        assert agglom._row_labels(points).tolist() == [0, 0, 0, 0]
        for k in (1, 2, 4):
            assert_same_as_uncollapsed(ward, points, k, 0)

    def test_collapse_alone_reaches_k(self):
        # 3 distinct rows among 10: down to k >= 3 no pick is made
        values = np.array([[0, 1], [2, 2], [0, 1], [1, 0], [2, 2], [0, 1], [1, 0], [0, 1], [2, 2], [1, 0]])
        d = mismatches(values)
        for seed in range(4):
            for k in (3, 4, 9, 10):
                expected = uncollapsed(mcquitty, d, k, seed), uncollapsed(ward, values, k, seed)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(agglom, "_pick_min_pair", refuse)
                    mp.setattr(agglom._MinCache, "pick", refuse)
                    assert (mcquitty(d, k, seed), ward(values, k, seed)) == expected

    def test_mismatch_labels_of_equal_rows(self):
        # rows 0 and 3 are equal and their zeros are the only ones off
        # the diagonal: 6 zeros, 2^2 + 1 + 1
        assert agglom._row_labels(REFERENCE_MISMATCHES).tolist() == [0, 1, 2, 0]
        d = DissimilarityMatrix(REFERENCE_MISMATCHES)
        assert replayed(mcquitty, d, 1, 0) == ([0, 1, 2, 0], 1)

    @pytest.mark.parametrize(
        "cells",
        [
            # the average-of-mismatches fixture: rows 0 and 1 are at 0 but differ
            [[0, 0, 0], [0, 0, 2], [0, 2, 0]],
            [[0, 0, 1, 3], [0, 0, 2, 3], [1, 2, 0, 1], [3, 3, 1, 0]],
        ],
    )
    def test_a_zero_between_different_rows_takes_the_driver(self, cells):
        # the rows are all different, so more zeros than sum(size^2) = n:
        # each row is its own label and the replay makes no merge
        cells = np.array(cells)
        n = len(cells)
        assert agglom._row_labels(cells).tolist() == list(range(n))
        assert np.count_nonzero(cells == 0) > n
        for seed in range(5):
            for k in range(1, n + 1):
                d = DissimilarityMatrix(cells)
                assert replayed(mcquitty, d, k, seed) == (list(range(n)), 0)
                assert mcquitty(d, k, seed) == uncollapsed(mcquitty, d, k, seed)

    @pytest.mark.parametrize("pair", [(2, 3), (126, 127), (128, 129), (260, 261)])
    def test_zeros_are_counted_in_every_row_block(self, pair):
        # rows 0 and 1 are equal; a zero between two different rows in
        # any block of rows takes their labels away
        n = 2 * agglom.ROW_BLOCK + 6
        rng = np.random.default_rng(n)
        upper = np.triu(rng.integers(1, 10, size=(n, n)), 1)
        cells = upper + upper.T
        cells[1], cells[:, 1] = cells[0], cells[:, 0]
        cells[0, 1] = cells[1, 0] = cells[1, 1] = 0
        d = DissimilarityMatrix(cells)
        assert replayed(mcquitty, d, 2, 0) == ([0, 0] + list(range(2, n)), 1)
        a, b = pair
        cells[a, b] = cells[b, a] = 0
        d = DissimilarityMatrix(cells)
        assert agglom._row_labels(cells).tolist() == [0, 0] + list(range(2, n))
        assert replayed(mcquitty, d, 2, 0) == (list(range(n)), 0)
        assert mcquitty(d, 2, 0) == uncollapsed(mcquitty, d, 2, 0)

    @pytest.mark.parametrize(
        "points",
        [
            np.zeros((4, 2)),
            np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 3.0], [0.0, 1.0 + 1e-12]]),
            TestFloat32Init.edge_points(1024),
        ],
        ids=["equal-floats", "near-floats", "past-float32-bound"],
    )
    def test_other_points_take_the_driver(self, points):
        # no labeler: each row is its own label, the replay makes no
        # merge, and the start is the float64 loop over all rows
        assert not float32_is_exact(points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agglom, "_row_labels", refuse)
            assert replayed(ward, points, 1, 0) == (list(range(len(points))), 0)
            assert starts_taken(points) == LOOP
            assert ward(points, 1, 0) == uncollapsed(ward, points, 1, 0)

    def test_distinct_rows_take_the_start(self):
        # no two rows are equal: nothing is replayed, and both methods
        # start from all rows, Ward from its float32 product at unit sizes
        codes = np.random.default_rng(13).choice(3**4, size=24, replace=False)
        points = codes[:, None] // 3 ** np.arange(4) % 3  # their distinct base-3 digits
        n = len(points)
        assert agglom._row_labels(points).tolist() == list(range(n))
        d = mismatches(points)
        assert agglom._row_labels(d.cells).tolist() == list(range(n))
        assert replayed(mcquitty, d, 1, 0) == (list(range(n)), 0)
        assert replayed(ward, points, 1, 0) == (list(range(n)), 0)
        drawn = 0
        for seed in range(3):
            for k in range(1, n + 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(agglom, "_ward_start", float32_kernel_only)
                    got = ward(points, k, seed), mcquitty(d, k, seed), ward(d.cells, k, seed)
                expected = (
                    uncollapsed(ward, points, k, seed),
                    uncollapsed(mcquitty, d, k, seed),
                    uncollapsed(ward, d.cells, k, seed),
                )
                assert got == expected  # merges, ties_drawn and assignment
                drawn += sum(result.ties_drawn for result in got)
        assert drawn > 0

    @pytest.mark.parametrize(
        "row", [0, agglom.ROW_BLOCK - 1, agglom.ROW_BLOCK, 2 * agglom.ROW_BLOCK + 5]
    )
    def test_every_row_is_checked_against_its_label(self, row, monkeypatch):
        # with every hash equal all rows share row 0's label, and one
        # different row in any block of rows refuses the labels
        monkeypatch.setattr(agglom, "hash", lambda b: 0, raising=False)
        points = np.zeros((2 * agglom.ROW_BLOCK + 6, 3), dtype=np.int32)
        assert agglom._row_labels(points).tolist() == [0] * len(points)
        points[row, 1] = 1
        assert agglom._row_labels(points).tolist() == list(range(len(points)))

    def test_hash_collision_takes_the_driver(self, monkeypatch):
        # tie-heavy nominal rows, and the mismatch fixture with two equal
        # rows: with every hash equal each row is its own label, and Ward
        # and McQuitty start from the full matrix, Ward from the float32
        # product
        values = np.random.default_rng(6).integers(0, 3, size=(40, 2))
        d = mismatches(values)
        cases = [
            (mcquitty, d),
            (ward, d.cells),
            (ward, values),
            (mcquitty, DissimilarityMatrix(REFERENCE_MISMATCHES)),
        ]
        expected = {
            (case, k, seed): uncollapsed(method, data, k, seed)
            for case, (method, data) in enumerate(cases)
            for k in (1, 3)
            for seed in range(3)
        }
        monkeypatch.setattr(agglom, "hash", lambda b: 0, raising=False)
        assert agglom._row_labels(values).tolist() == list(range(40))
        assert agglom._row_labels(d.cells).tolist() == list(range(40))
        assert replayed(mcquitty, d, 1, 0) == (list(range(40)), 0)
        assert replayed(ward, values, 1, 0) == (list(range(40)), 0)
        assert starts_taken(values) == starts_taken(d.cells) == FLOAT32
        for (case, k, seed), result in expected.items():
            method, data = cases[case]
            assert method(data, k, seed) == result
            assert merge_trace(method(data, k, seed)) == merge_trace(result)


def hash_seed_report() -> str:
    """Merge traces, ties_drawn and assignments of McQuitty and Ward on
    60 tie-heavy rows with duplicates, at k = 2 and seeds 0-2."""
    values = TestDuplicateCollapse.tie_heavy_values(5, 2)
    assert len(np.unique(values, axis=0)) < len(values)
    d = mismatches(values)
    lines = []
    for method, data in ((mcquitty, d), (ward, d.cells), (ward, values)):
        for seed in range(3):
            result = method(data, 2, seed)
            assert result.ties_drawn > 0
            lines += [merge_trace(result), f"{result.ties_drawn} {result.assignment.tolist()}"]
    return "\n".join(lines)


def test_duplicate_collapse_ignores_the_hash_seed():
    # _row_labels groups rows by hash(bytes), which PYTHONHASHSEED salts
    path = os.pathsep.join((str(Path(agglom.__file__).parents[1]), str(Path(__file__).parent)))
    code = "from test_agglom import hash_seed_report; print(hash_seed_report())"
    reports = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        ).stdout
        for seed in ("0", "1", "4242")
    }
    assert reports == {hash_seed_report() + "\n"}


def record(method, data, names):
    """The calls ``method(data, 2, 0)`` makes to the agglom functions
    ``names``, in order, as (name, args, returned)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in names:

            def spy(*args, name=name, fn=getattr(agglom, name)):
                out = fn(*args)
                calls.append((name, args, out))
                return out

            mp.setattr(agglom, name, spy)
        method(data, 2, 0)
    return calls


def nominal_rows(dtype=np.int64):
    """40 rows of 3 values in 0..2: many rows are equal."""
    return np.random.default_rng(40).integers(0, 3, size=(40, 3)).astype(dtype)


def nominal_rows_past_the_bound():
    points = nominal_rows()
    points[0, 0] = 2**30
    return points


class TestOneStart:
    """Both methods go row labels -> replay -> one start -> driver on
    every input; only the labels and Ward's start kernel differ."""

    # input, Ward's kernel (True: float32 product), whether the labels
    # Ward and McQuitty hand the replay join equal rows
    CASES = {
        "labelled-int32": (lambda: nominal_rows(np.int32), True, True, True),
        "floats": (lambda: np.random.default_rng(41).normal(size=(40, 3)), False, False, False),
        "integer-floats": (lambda: nominal_rows(np.float64), False, False, True),
        "past-float32-bound": (nominal_rows_past_the_bound, False, False, True),
        "hash-collision": (lambda: nominal_rows(np.int32), True, False, False),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_each_method_replays_once_and_builds_one_start(self, case, monkeypatch):
        make, exact, ward_joins, mcquitty_joins = self.CASES[case]
        points = make()
        d = mismatches(points)
        n = len(points)
        if case == "hash-collision":
            monkeypatch.setattr(agglom, "hash", lambda b: 0, raising=False)
        names = ("_replay_duplicates", "_ward_start", "_gather")

        calls = [c for c in record(ward, points, names) if c[0] != "_gather"]
        assert [name for name, *_ in calls] == ["_replay_duplicates", "_ward_start"]
        (_, (_, labels, _), rows), (_, (_, start_rows, _, got_exact), crit) = calls
        assert (labels.tolist() != list(range(n))) == ward_joins
        assert start_rows is rows and got_exact == exact
        assert crit.shape == (rows.size, rows.size)

        calls = record(mcquitty, d, names)
        assert [name for name, *_ in calls] == ["_replay_duplicates", "_gather"]
        (_, (_, labels, _), rows), (_, (cells, gather_rows, gather_cols, _), crit) = calls
        assert (labels.tolist() != list(range(n))) == mcquitty_joins
        assert cells is d.cells and gather_rows is rows and gather_cols is rows
        assert crit.shape == (rows.size, rows.size)

        for seed in range(3):
            assert_same_as_uncollapsed(ward, points, 2, seed)
            assert_same_as_uncollapsed(mcquitty, d, 2, seed)


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


@pytest.mark.usefixtures("cache_every_merge")
class TestDuplicateCollapseCached(TestDuplicateCollapse):
    """The duplicate replay again, with both pick paths running after it."""
