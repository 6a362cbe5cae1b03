"""Property tests: row-permutation invariance and EM's non-decreasing
log-likelihood.

Each example draws a seed and sizes; the data come from numpy's seeded
generator, so examples stay cheap at a few hundred rows.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_sample
from sensecluster import agglom, dissim
from sensecluster.corpus import WordSample
from sensecluster.em import fit
from sensecluster.features import Feature, FeatureMatrix, FeatureSchema, build_schema, extract

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def permuted(sample: WordSample, perm) -> WordSample:
    instances = [sample.instances[p] for p in perm]
    return WordSample(sample.word, sample.category, instances, sample.sense_inventory)


def partition(assignment, perm=None):
    """The clusters as sets of original row indices; row r of a permuted
    input is original row perm[r]."""
    rows = np.arange(assignment.size) if perm is None else np.asarray(perm)
    return {frozenset(rows[assignment == c].tolist()) for c in np.unique(assignment)}


@PROPERTY
@given(
    seed=SEEDS,
    n=st.integers(1, 40),
    set_id=st.sampled_from("ABC"),
    category=st.sampled_from(["noun", "verb", "adjective"]),
)
def test_extract_commutes_with_row_permutation(seed, n, set_id, category):
    rng = np.random.default_rng(seed)
    sample = random_sample(rng, n=n, category=category)
    perm = rng.permutation(n)
    schema = build_schema(sample, set_id)
    # alphabets are ranked by count with lexicographic tie breaks
    assert build_schema(permuted(sample, perm), set_id) == schema
    got = extract(permuted(sample, perm), schema)
    assert np.array_equal(got.values, extract(sample, schema).values[perm])


@PROPERTY
@given(seed=SEEDS, n=st.integers(1, 40), set_id=st.sampled_from("ABC"))
def test_dissim_build_commutes_with_row_permutation(seed, n, set_id):
    rng = np.random.default_rng(seed)
    sample = random_sample(rng, n=n)
    matrix = extract(sample, build_schema(sample, set_id))
    perm = rng.permutation(n)
    cells = dissim.build(matrix).cells
    got = dissim.build(FeatureMatrix(matrix.schema, matrix.values[perm]))
    assert got == dissim.DissimilarityMatrix(cells[np.ix_(perm, perm)])


# (CACHE_ABOVE, smallest n, largest n): at the default both pick paths
# run once n exceeds it; at 2 the cache picks every merge down to two
# clusters
CACHE_CASES = [(agglom.CACHE_ABOVE, agglom.CACHE_ABOVE - 20, agglom.CACHE_ABOVE + 40), (2, 2, 60)]


def tie_free_input(method, rng, n):
    """Distinct values from a wide range, so no criterion ties; examples
    where one does are skipped."""
    if method == "ward":
        if rng.random() < 0.5:  # the Gram-product init
            return rng.integers(0, 10**6, size=(n, 3)).astype(np.float64)
        return rng.uniform(0, 1, size=(n, 3))  # the row-at-a-time init
    cells = np.zeros((n, n), dtype=np.int64)
    upper = np.triu_indices(n, 1)
    cells[upper] = rng.choice(10**9, size=upper[0].size, replace=False)
    return dissim.DissimilarityMatrix(cells + cells.T)


def cluster(method, data, perm, k, seed):
    if method == "ward":
        return agglom.ward(data[perm], k, seed)
    return agglom.mcquitty(dissim.DissimilarityMatrix(data.cells[np.ix_(perm, perm)]), k, seed)


@pytest.mark.parametrize("method", ["ward", "mcquitty"])
@pytest.mark.parametrize("cache_above, n_min, n_max", CACHE_CASES)
@PROPERTY
@given(data=st.data())
def test_tie_free_partition_invariant_under_row_permutation(
    method, cache_above, n_min, n_max, data
):
    seed = data.draw(SEEDS, label="seed")
    n = data.draw(st.integers(n_min, n_max), label="n")
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    values = tie_free_input(method, rng, n)
    perm = rng.permutation(n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agglom, "CACHE_ABOVE", cache_above)
        base = cluster(method, values, np.arange(n), k, seed)
        assume(base.ties_drawn == 0)
        got = cluster(method, values, perm, k, seed + 1)
    assert got.ties_drawn == 0
    assert partition(got.assignment, perm) == partition(base.assignment)
    assert [m.criterion for m in got.merges] == [m.criterion for m in base.merges]


@PROPERTY
@given(
    seed=SEEDS,
    cards=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    n=st.integers(1, 30),
    k=st.integers(1, 4),
)
def test_em_loglik_never_falls_at_zero_tol(seed, cards, n, k):
    """Each EM iteration cannot lower the log-likelihood in exact
    arithmetic; ``PROB_FLOOR`` and rounding may, by a little.

    Evidence for the 1e-12 bound: 300 seeded random fits of this shape
    (1-4 features of cardinality 1-5, n 1-30, k 1-4, 80 iterations at
    tol = 0) fell at some step in 88 fits, by at most 2.9e-14, and by at
    most 6 ulps where |log-likelihood| > 1; that is rounding at a fixed
    point, far below the bound. Falls where the log-likelihood is about
    0 come from features of cardinality 1 (at most 3.3e-15).
    """
    rng = np.random.default_rng(seed)
    alphabets = [tuple(f"v{i}" for i in range(c)) for c in cards]
    schema = FeatureSchema(tuple(Feature(f"f{j}", "pos", a) for j, a in enumerate(alphabets)))
    rows = np.stack([rng.integers(0, c, size=n) for c in cards], axis=1)
    trace = fit(FeatureMatrix(schema, rows), k, seed, max_iter=80, tol=0.0).loglik_trace
    assert len(trace) == 81
    assert all(later >= earlier - 1e-12 for earlier, later in zip(trace, trace[1:]))
