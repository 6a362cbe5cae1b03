"""EM for the Naive Bayes mixture: oracles, invariants, recovery."""

import statistics

import numpy as np
import pytest
from scipy.stats import chi2

from sensecluster.agglom import mcquitty, ward
from sensecluster.dissim import build as build_dissim
from sensecluster.dissim import row_vectors
from sensecluster.em import (
    ExpectedCounts,
    NaiveBayesParams,
    e_step,
    fit,
    fit_from,
    format_result,
    generate,
    initial_params,
    m_step,
)
from sensecluster.evaluate import best_mapping, confusion_from_labels
from sensecluster.features import Feature, FeatureMatrix, FeatureSchema


def make_schema(cards):
    return FeatureSchema(
        tuple(
            Feature(f"f{j}", "pos", tuple(f"v{i}" for i in range(c)))
            for j, c in enumerate(cards)
        )
    )


def make_matrix(cards, rows):
    return FeatureMatrix(make_schema(cards), np.asarray(rows))


# ---------------------------------------------------------------- oracle

def posterior_oracle(priors, joints, row):
    """Posterior by direct product arithmetic (no log space)."""
    k = len(priors)
    q = len(row)
    weights = []
    for s in range(k):
        w = 1.0
        for j, v in enumerate(row):
            w *= joints[j][s][v]
        w /= priors[s] ** (q - 1)
        weights.append(w)
    total = sum(weights)
    return [w / total for w in weights]


def counts_oracle(priors, joints, rows, cards):
    k = len(priors)
    sense = [0.0] * k
    value = [[[0.0] * c for _ in range(k)] for c in cards]
    for row in rows:
        post = posterior_oracle(priors, joints, row)
        for s in range(k):
            sense[s] += post[s]
            for j, v in enumerate(row):
                value[j][s][v] += post[s]
    return sense, value


# Hand-set two-class parameters over three features (cards 2, 3, 2).
# Conditionals are scaled by the priors so the joint-table margins agree.
HAND_PRIORS = (0.4, 0.6)
HAND_JOINTS = (
    [[0.28, 0.12], [0.12, 0.48]],
    [[0.20, 0.10, 0.10], [0.06, 0.36, 0.18]],
    [[0.36, 0.04], [0.24, 0.36]],
)
HAND_CARDS = (2, 3, 2)
HAND_ROWS = [[0, 1, 0], [1, 2, 1], [0, 0, 0], [1, 1, 1]]


def hand_params():
    return NaiveBayesParams.from_joints(
        np.array(HAND_PRIORS), tuple(np.array(j) for j in HAND_JOINTS)
    )


class TestEStep:
    def test_single_component_counts_are_observed_counts(self):
        data = make_matrix((3, 2), [[0, 1], [2, 0], [2, 1], [1, 1]])
        params = NaiveBayesParams.from_joints(
            np.array([1.0]),
            (np.array([[0.25, 0.25, 0.5]]), np.array([[0.25, 0.75]])),
        )
        counts = e_step(params, data)
        assert counts.sense_counts.tolist() == [4.0]
        assert counts.value_counts[0].tolist() == [[1.0, 1.0, 2.0]]
        assert counts.value_counts[1].tolist() == [[1.0, 3.0]]
        assert (counts.posteriors == 1.0).all()

    def test_matches_enumeration_oracle(self):
        params = hand_params()
        counts = e_step(params, make_matrix(HAND_CARDS, HAND_ROWS))
        sense, value = counts_oracle(HAND_PRIORS, HAND_JOINTS, HAND_ROWS, HAND_CARDS)
        assert np.allclose(counts.sense_counts, sense, atol=1e-9)
        for j in range(3):
            assert np.allclose(counts.value_counts[j], value[j], atol=1e-9)

    def test_posterior_log_space_equals_direct_product(self):
        params = hand_params()
        counts = e_step(params, make_matrix(HAND_CARDS, HAND_ROWS))
        for i, row in enumerate(HAND_ROWS):
            direct = posterior_oracle(HAND_PRIORS, HAND_JOINTS, row)
            assert np.allclose(counts.posteriors[i], direct, atol=1e-9)

    def test_marginal_identity(self):
        params = hand_params()
        data = make_matrix(HAND_CARDS, HAND_ROWS)
        counts = e_step(params, data)
        for j, card in enumerate(HAND_CARDS):
            per_value = counts.value_counts[j].sum(axis=0)
            observed = np.bincount(data.values[:, j], minlength=card)
            assert np.allclose(per_value, observed, atol=1e-9)

    def test_posterior_rows_sum_to_one(self):
        counts = e_step(hand_params(), make_matrix(HAND_CARDS, HAND_ROWS))
        assert np.allclose(counts.posteriors.sum(axis=1), 1.0, atol=1e-9)

    def test_degenerate_likelihood_raises(self):
        # value 0 of the only feature carries zero mass in every component
        params = NaiveBayesParams.from_joints(
            np.array([0.5, 0.5]),
            (np.array([[0.0, 0.5], [0.0, 0.5]]),),
        )
        with pytest.raises(ValueError, match="degenerate likelihood"):
            e_step(params, make_matrix((2,), [[0]]))


class TestMStep:
    def test_single_sense_prior_is_one(self):
        counts = ExpectedCounts.from_value_counts(
            np.array([4.0]),
            (np.array([[1.0, 3.0]]),),
            np.ones((4, 1)),
            0.0,
        )
        params = m_step(counts, 4)
        assert params.priors[0] == pytest.approx(1.0)

    def test_priors_are_count_fractions(self):
        counts = ExpectedCounts.from_value_counts(
            np.array([30.0, 70.0]),
            (np.array([[10.0, 20.0], [30.0, 40.0]]),),
            np.zeros((100, 2)),
            0.0,
        )
        params = m_step(counts, 100)
        assert np.allclose(params.priors, [0.3, 0.7], atol=1e-9)
        assert np.allclose(params.joints[0], [[0.1, 0.2], [0.3, 0.4]], atol=1e-9)

    def test_composition_reproduces_oracle_update(self):
        data = make_matrix(HAND_CARDS, HAND_ROWS)
        new_params = m_step(e_step(hand_params(), data), len(HAND_ROWS))
        sense, value = counts_oracle(HAND_PRIORS, HAND_JOINTS, HAND_ROWS, HAND_CARDS)
        n = len(HAND_ROWS)
        assert np.allclose(new_params.priors, np.array(sense) / n, atol=1e-9)
        for j in range(3):
            assert np.allclose(new_params.joints[j], np.array(value[j]) / n, atol=1e-9)

    def test_inconsistent_counts_rejected(self):
        counts = ExpectedCounts.from_value_counts(
            np.array([1.0, 1.0]), (np.array([[0.5, 0.5], [0.5, 0.5]]),),
            np.zeros((4, 2)), 0.0,
        )
        with pytest.raises(ValueError, match="sample size"):
            m_step(counts, 4)
        with pytest.raises(ValueError):
            m_step(counts, 0)


def mapped_accuracy(labels, assignment, k):
    cm = confusion_from_labels([str(x) for x in labels], assignment, tuple(str(s) for s in range(k)), k)
    _, agreement = best_mapping(cm)
    return agreement / len(labels)


class TestFit:
    def test_loglik_trace_non_decreasing(self):
        for seed in range(6):
            schema = make_schema((3, 4, 2, 5))
            sample = generate(2, schema, 60, 0.7, seed=seed)
            result = fit(sample.matrix, 2, seed=seed + 100, max_iter=200)
            trace = result.loglik_trace
            assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_params_valid_after_every_iteration(self):
        schema = make_schema((3, 2, 4))
        sample = generate(3, schema, 50, 0.6, seed=4)
        rng = np.random.default_rng(9)
        params = initial_params(sample.matrix, 3, rng)
        for _ in range(25):
            params.validate(tol=1e-9)
            params = m_step(e_step(params, sample.matrix), sample.matrix.n)
        params.validate(tol=1e-9)

    def test_constant_feature_forces_marginal(self):
        rows = [[0, v] for v in [0, 1, 2, 0, 1, 1]]
        data = make_matrix((2, 3), rows)
        result = fit(data, 2, seed=0, max_iter=100)
        table = result.params.joints[0]
        # all mass sits on the constant value for every component
        assert table[:, 0].sum() == pytest.approx(1.0, abs=1e-6)
        assert table[:, 1].max() < 1e-9

    def test_posteriors_match_returned_params(self):
        schema = make_schema((3, 3))
        sample = generate(2, schema, 40, 0.8, seed=2)
        result = fit(sample.matrix, 2, seed=5)
        counts = e_step(result.params, sample.matrix)
        assert np.allclose(counts.posteriors, result.posteriors, atol=1e-12)
        assert (result.assignment == result.posteriors.argmax(axis=1)).all()

    def test_synthetic_recovery_median_accuracy(self):
        schema = make_schema((3, 4, 2, 5, 3))
        accuracies = []
        for seed in range(25):
            sample = generate(2, schema, 300, 0.9, seed=seed)
            result = fit(sample.matrix, 2, seed=1000 + seed)
            accuracies.append(mapped_accuracy(sample.labels, result.assignment, 2))
        assert statistics.median(accuracies) >= 0.95

    def test_deterministic_given_seed(self):
        schema = make_schema((3, 3, 2))
        sample = generate(2, schema, 50, 0.7, seed=0)
        a = fit(sample.matrix, 2, seed=11)
        b = fit(sample.matrix, 2, seed=11)
        assert a.loglik_trace == b.loglik_trace
        assert (a.assignment == b.assignment).all()

    def test_label_permutation_symmetry(self):
        schema = make_schema((3, 4, 2))
        sample = generate(2, schema, 80, 0.8, seed=3)
        start = initial_params(sample.matrix, 2, np.random.default_rng(21))
        swapped = NaiveBayesParams.from_joints(
            start.priors[::-1].copy(),
            tuple(j[::-1].copy() for j in start.joints),
        )
        a = fit_from(start, sample.matrix, max_iter=200)
        b = fit_from(swapped, sample.matrix, max_iter=200)
        assert np.allclose(a.params.priors, b.params.priors[::-1], atol=1e-6)
        acc_a = mapped_accuracy(sample.labels, a.assignment, 2)
        acc_b = mapped_accuracy(sample.labels, b.assignment, 2)
        assert acc_a == pytest.approx(acc_b, abs=1e-12)

    def test_input_validation(self):
        data = make_matrix((2,), [[0]])
        with pytest.raises(ValueError):
            fit(data, 0)


class TestGenerate:
    def test_fixed_seed_identical_output(self):
        schema = make_schema((3, 4))
        a = generate(2, schema, 50, 0.5, seed=9)
        b = generate(2, schema, 50, 0.5, seed=9)
        assert a.matrix.values.tobytes() == b.matrix.values.tobytes()
        assert (a.labels == b.labels).all()

    def test_fully_separated_classes_are_distinguishable(self):
        schema = make_schema((3, 4, 2, 5, 3))
        sample = generate(2, schema, 60, 1.0, seed=5)
        rows_by_class = {
            s: {tuple(r) for r in sample.matrix.values[sample.labels == s].tolist()}
            for s in (0, 1)
        }
        assert len(rows_by_class[0]) == 1
        assert len(rows_by_class[1]) == 1
        assert rows_by_class[0] != rows_by_class[1]

    def test_all_three_algorithms_perfect_at_full_separation(self):
        schema = make_schema((3, 4, 2, 5, 3))
        sample = generate(2, schema, 60, 1.0, seed=6)
        labels = sample.labels
        d = build_dissim(sample.matrix)
        for assignment in (
            mcquitty(d, 2, seed=0).assignment,
            ward(row_vectors(d), 2, seed=0).assignment,
            fit(sample.matrix, 2, seed=0).assignment,
        ):
            assert mapped_accuracy(labels, assignment, 2) == 1.0

    def test_empirical_frequencies_match_generator_tables(self):
        # law-of-large-numbers sanity via chi-square at a generous cutoff
        schema = make_schema((3, 4, 2, 5, 2))
        sample = generate(2, schema, 10_000, 0.6, seed=13)
        for j, feat in enumerate(schema.features):
            for s in range(2):
                rows = sample.matrix.values[sample.labels == s, j]
                observed = np.bincount(rows, minlength=feat.cardinality)
                expected = len(rows) * sample.emissions[j][s]
                stat = ((observed - expected) ** 2 / expected).sum()
                assert stat < chi2.ppf(0.999, feat.cardinality - 1)

    def test_separation_bounds_enforced(self):
        schema = make_schema((2,))
        with pytest.raises(ValueError):
            generate(2, schema, 10, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate(2, schema, 10, 1.5, seed=0)


class TestValueEquality:
    def test_params_and_counts_equal_by_value_and_unhashable(self):
        data = make_matrix(HAND_CARDS, HAND_ROWS)
        params = hand_params()
        assert params == hand_params()
        assert params != NaiveBayesParams.from_joints(np.array([0.5, 0.5]), HAND_JOINTS)
        counts = e_step(params, data)
        assert counts == e_step(hand_params(), data)
        assert counts != e_step(m_step(counts, data.n), data)
        for value in (params, counts):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)

    def test_holds_its_own_copy(self):
        priors = np.array(HAND_PRIORS)
        params = NaiveBayesParams.from_joints(priors, HAND_JOINTS)
        table = params.table.copy()
        stacked = NaiveBayesParams(priors, table, params.offsets)
        priors[0] = table[0, 0] = 0.9
        assert params == stacked == hand_params()
        for held in (params.priors, params.table, stacked.priors, stacked.table):
            assert not held.flags.writeable

    def test_stacked_offsets_are_an_int_tuple(self):
        params = hand_params()
        counts = ExpectedCounts.from_value_counts(
            np.array([2.0, 2.0]), params.joints, np.full((4, 2), 0.5), 0.0
        )
        for value in (params, counts, e_step(params, make_matrix(HAND_CARDS, HAND_ROWS))):
            assert value.offsets == (0, 2, 5, 7)
            assert type(value.offsets) is tuple
            assert all(type(o) is int for o in value.offsets)

    def test_results_and_samples_equal_by_value_and_unhashable(self):
        schema = make_schema(HAND_CARDS)
        sample = generate(2, schema, 40, separation=0.6, seed=5)
        assert sample == generate(2, schema, 40, separation=0.6, seed=5)
        assert sample != generate(2, schema, 40, separation=0.6, seed=6)
        result = fit(sample.matrix, 2, seed=1)
        assert result == fit(sample.matrix, 2, seed=1)
        assert result != fit(sample.matrix, 2, seed=2)
        assert result != fit(sample.matrix, 2, seed=1, max_iter=1)
        for value in (sample, result):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


class TestExport:
    def test_structured_text_sections(self):
        schema = make_schema((2, 3))
        sample = generate(2, schema, 30, 0.8, seed=1)
        result = fit(sample.matrix, 2, seed=1)
        text = format_result(result, schema)
        assert "components: 2" in text
        assert "priors:" in text
        assert "feature f0" in text
        assert "log-likelihood:" in text
        assert "assignment:" in text
