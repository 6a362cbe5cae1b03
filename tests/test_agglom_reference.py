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

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

import reference_agglom as reference
from conftest import synth_sample
from sensecluster import agglom
from sensecluster.dissim import DissimilarityMatrix, build, row_vectors
from sensecluster.features import build_schema, extract
from test_agglom import random_tie_free_matrix, random_tie_free_points

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


@pytest.mark.parametrize("set_id", ["A", "B", "C"])
def test_ward_allocates_less_than_two_matrices(set_id):
    """No N x N copy of the points, and no N x N gather of the criteria
    when every row ties (set A), on top of the criterion matrix."""
    sample = synth_sample("drug", "noun", n=N_LARGE, seed=1)
    points = row_vectors(build(extract(sample, build_schema(sample, set_id))))
    tracemalloc.start()
    try:
        agglom.ward(points, 2, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * N_LARGE**2 * points.itemsize


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
