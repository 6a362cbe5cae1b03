"""One-table EM against the original per-feature implementation.

``reference_em`` keeps the per-feature EM with ``scipy.special.logsumexp``.
``sensecluster.em`` must give bit-identical posteriors, parameters,
log-likelihood traces, iteration counts and assignments on seeded random
schemas, with k = 1 included: for a single class every sum over features
has an inner axis of length 1, where numpy would switch to pairwise
summation if the features were reduced in one call.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

import reference_em as reference
from sensecluster import em
from sensecluster.features import Feature, FeatureMatrix, FeatureSchema

CASES_PER_K = 8


def random_matrix(rng, q, n):
    cards = rng.integers(1, 22, size=q)
    schema = FeatureSchema(
        tuple(
            Feature(f"f{j}", "pos", tuple(f"v{i}" for i in range(c)))
            for j, c in enumerate(cards)
        )
    )
    values = np.stack([rng.integers(0, c, size=n) for c in cards], axis=1)
    return FeatureMatrix(schema, values)


def assert_bit_identical(got, expected):
    assert got.posteriors.tobytes() == expected.posteriors.tobytes()
    assert got.params.priors.tobytes() == expected.params.priors.tobytes()
    assert len(got.params.joints) == len(expected.params.joints)
    for a, b in zip(got.params.joints, expected.params.joints):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.loglik_trace == expected.loglik_trace
    assert got.iterations == expected.iterations
    assert got.converged == expected.converged
    assert got.assignment.tobytes() == expected.assignment.tobytes()


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("tol", [0.0, 1e-6], ids=["tol0", "default-tol"])
def test_fit_matches_reference(k, tol):
    rng = np.random.default_rng(1000 * k + int(tol == 0.0))
    for _ in range(CASES_PER_K):
        q = int(rng.integers(1, 61))
        n = int(rng.integers(5, 201))
        data = random_matrix(rng, q, n)
        seed = int(rng.integers(2**31))
        max_iter = 15 if tol == 0.0 else 60
        got = em.fit(data, k, seed, max_iter=max_iter, tol=tol)
        expected = reference.fit(data, k, seed, max_iter=max_iter, tol=tol)
        assert_bit_identical(got, expected)


@pytest.mark.parametrize("n,k,q", [(1, 1, 12), (1, 3, 9), (2, 1, 40), (7, 1, 60)])
def test_fit_matches_reference_on_tiny_samples(n, k, q):
    rng = np.random.default_rng(n * 100 + k * 10 + q)
    for seed in range(5):
        data = random_matrix(rng, q, n)
        got = em.fit(data, k, seed, max_iter=10, tol=0.0)
        expected = reference.fit(data, k, seed, max_iter=10, tol=0.0)
        assert_bit_identical(got, expected)


def test_steps_match_reference_from_hand_built_params():
    rng = np.random.default_rng(5)
    data = random_matrix(rng, 6, 40)
    k = 3
    priors = rng.dirichlet(np.ones(k))
    joints = [
        priors[:, None] * rng.dirichlet(np.ones(card), size=k)
        for card in data.schema.cardinalities
    ]
    got = em.e_step(em.NaiveBayesParams(priors, tuple(joints)), data)
    expected = reference.e_step(reference.NaiveBayesParams(priors, tuple(joints)), data)
    assert got.posteriors.tobytes() == expected.posteriors.tobytes()
    assert got.loglik == expected.loglik
    for a, b in zip(got.value_counts, expected.value_counts):
        assert a.tobytes() == b.tobytes()
    new = em.m_step(got, data.n)
    old = reference.m_step(expected, data.n)
    assert new.priors.tobytes() == old.priors.tobytes()
    for a, b in zip(new.joints, old.joints):
        assert a.tobytes() == b.tobytes()


def test_joints_and_value_counts_are_views_of_one_table():
    rng = np.random.default_rng(6)
    data = random_matrix(rng, 4, 30)
    params = em.initial_params(data, 2, rng)
    counts = em.e_step(params, data)
    offsets = data.schema.offsets
    assert params.table.shape == counts.table.shape == (offsets[-1], 2)
    for j, (joint, value) in enumerate(zip(params.joints, counts.value_counts)):
        assert np.shares_memory(joint, params.table)
        assert np.shares_memory(value, counts.table)
        assert joint.shape == value.shape == (2, data.schema.cardinalities[j])
        assert (joint == params.table[offsets[j]:offsets[j + 1]].T).all()


def test_bincount_index_is_built_once_per_k():
    rng = np.random.default_rng(7)
    data = random_matrix(rng, 5, 40)
    for k in (1, 3):
        bins = data.table_bins(k)
        assert data.table_bins(k) is bins
        assert not bins.flags.writeable
        expected = data.table_rows[:, :, None] * k + np.arange(k)
        assert bins.tolist() == expected.ravel().tolist()
    assert data.table_bins(1) is not data.table_bins(3)


LOGSUMEXP_ROWS = [
    [[0.5, 0.5, -1.0]],
    [[-3.0, -3.0, -3.0, -3.0]],
    [[-np.inf, -2.0, -2.0, -7.5]],
    [[-np.inf, -np.inf, 1e-3]],
    [[-745.0, -745.0, -1e3]],
    [[-27.1], [0.0], [-np.inf]],
    [[2.0, 2.0], [-np.inf, -np.inf], [1.0, -np.inf]],
]


@pytest.mark.parametrize("rows", LOGSUMEXP_ROWS)
def test_logsumexp_matches_scipy_bitwise(rows):
    a = np.array(rows, dtype=np.float64)
    with np.errstate(divide="ignore"):
        expected = logsumexp(a, axis=1)
    got = em._logsumexp_rows(a)
    finite = np.isfinite(expected)
    assert (np.isfinite(got) == finite).all()
    assert got[finite].tobytes() == expected[finite].tobytes()


def test_logsumexp_matches_scipy_on_random_rows_with_ties():
    rng = np.random.default_rng(8)
    for k in range(1, 9):
        # few distinct values, so tied maxima are common
        a = rng.integers(-6, 1, size=(400, k)) * 0.75
        a[rng.random(a.shape) < 0.1] = -np.inf
        a[:, 0] = np.where(np.isfinite(a).any(axis=1), a[:, 0], -1.0)
        expected = logsumexp(a, axis=1)
        assert em._logsumexp_rows(a).tobytes() == expected.tobytes()

