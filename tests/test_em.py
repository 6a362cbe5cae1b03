"""EM for the Naive Bayes mixture: oracles, invariants, recovery."""

import statistics

import numpy as np
import pytest
from scipy.stats import chi2

from sensecluster.agglom import mcquitty, ward
from sensecluster.dissim import build as build_dissim
from sensecluster.dissim import row_vectors
from sensecluster.em import (
    EmResult,
    ExpectedCounts,
    GeneratedSample,
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
from sensecluster.features import Feature, FeatureMatrix, FeatureSchema, build_schema, extract

from conftest import synth_sample
from em_tables import split, stack


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
    return NaiveBayesParams(np.array(HAND_PRIORS), *stack(HAND_JOINTS))


class TestEStep:
    def test_single_component_counts_are_observed_counts(self):
        data = make_matrix((3, 2), [[0, 1], [2, 0], [2, 1], [1, 1]])
        params = NaiveBayesParams(np.array([1.0]), *stack(([[0.25, 0.25, 0.5]], [[0.25, 0.75]])))
        counts = e_step(params, data)
        assert counts.sense_counts.tolist() == [4.0]
        value_counts = split(counts.table, counts.offsets)
        assert value_counts[0].tolist() == [[1.0, 1.0, 2.0]]
        assert value_counts[1].tolist() == [[1.0, 3.0]]
        assert (counts.posteriors == 1.0).all()

    def test_matches_enumeration_oracle(self):
        params = hand_params()
        counts = e_step(params, make_matrix(HAND_CARDS, HAND_ROWS))
        sense, value = counts_oracle(HAND_PRIORS, HAND_JOINTS, HAND_ROWS, HAND_CARDS)
        assert np.allclose(counts.sense_counts, sense, atol=1e-9)
        for j, table in enumerate(split(counts.table, counts.offsets)):
            assert np.allclose(table, value[j], atol=1e-9)

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
            per_value = split(counts.table, counts.offsets)[j].sum(axis=0)
            observed = np.bincount(data.values[:, j], minlength=card)
            assert np.allclose(per_value, observed, atol=1e-9)

    def test_posterior_rows_sum_to_one(self):
        counts = e_step(hand_params(), make_matrix(HAND_CARDS, HAND_ROWS))
        assert np.allclose(counts.posteriors.sum(axis=1), 1.0, atol=1e-9)

    def test_degenerate_likelihood_raises(self):
        # value 0 of the only feature carries zero mass in every component
        params = NaiveBayesParams(np.array([0.5, 0.5]), *stack(([[0.0, 0.5], [0.0, 0.5]],)))
        with pytest.raises(ValueError, match="degenerate likelihood"):
            e_step(params, make_matrix((2,), [[0]]))


class TestMStep:
    def test_single_sense_prior_is_one(self):
        counts = ExpectedCounts(np.array([4.0]), *stack(([[1.0, 3.0]],)), np.ones((4, 1)), 0.0)
        params = m_step(counts, 4)
        assert params.priors[0] == pytest.approx(1.0)

    def test_priors_are_count_fractions(self):
        counts = ExpectedCounts(
            np.array([30.0, 70.0]), *stack(([[10.0, 20.0], [30.0, 40.0]],)), np.zeros((100, 2)), 0.0
        )
        params = m_step(counts, 100)
        assert np.allclose(params.priors, [0.3, 0.7], atol=1e-9)
        joint = split(params.table, params.offsets)[0]
        assert np.allclose(joint, [[0.1, 0.2], [0.3, 0.4]], atol=1e-9)

    def test_composition_reproduces_oracle_update(self):
        data = make_matrix(HAND_CARDS, HAND_ROWS)
        new_params = m_step(e_step(hand_params(), data), len(HAND_ROWS))
        sense, value = counts_oracle(HAND_PRIORS, HAND_JOINTS, HAND_ROWS, HAND_CARDS)
        n = len(HAND_ROWS)
        assert np.allclose(new_params.priors, np.array(sense) / n, atol=1e-9)
        for j, table in enumerate(split(new_params.table, new_params.offsets)):
            assert np.allclose(table, np.array(value[j]) / n, atol=1e-9)

    def test_inconsistent_counts_rejected(self):
        counts = ExpectedCounts(
            np.array([1.0, 1.0]), *stack(([[0.5, 0.5], [0.5, 0.5]],)), np.zeros((4, 2)), 0.0
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
        table = split(result.params.table, result.params.offsets)[0]
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
        swapped = NaiveBayesParams(start.priors[::-1], start.table[:, ::-1], start.offsets)
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

    @pytest.mark.parametrize(
        "max_iter, tol, message",
        [
            (0, 1e-6, "max_iter"),
            (-5, 1e-6, "max_iter"),
            (10, float("nan"), "tol"),
            (10, -1e-9, "tol"),
            (-5, float("nan"), "max_iter"),
            (2.5, 1e-6, "max_iter must be an int"),
            (True, 1e-6, "max_iter must be an int"),
            (10, "0", "tol must be a real number"),
            (10, False, "tol must be a real number"),
        ],
    )
    def test_stopping_rule_is_checked(self, max_iter, tol, message):
        """A fit of no iterations, or with a tolerance no change can fall
        below, would return its random start as a result."""
        sample = generate(2, make_schema((3, 2)), 20, 0.7, seed=1)
        start = initial_params(sample.matrix, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            fit(sample.matrix, 2, seed=0, max_iter=max_iter, tol=tol)
        with pytest.raises(ValueError, match=message):
            fit_from(start, sample.matrix, max_iter=max_iter, tol=tol)

    def test_zero_tol_runs_every_iteration(self):
        sample = generate(2, make_schema((3, 2)), 20, 0.7, seed=1)
        result = fit(sample.matrix, 2, seed=0, max_iter=7, tol=0.0)
        assert result.iterations == 7
        assert not result.converged
        assert len(result.loglik_trace) == 8

    def test_no_features_leave_every_posterior_at_the_priors(self):
        # an empty table: no feature block to renormalize
        result = fit(make_matrix((), np.zeros((5, 0), dtype=np.int64)), 2, seed=1)
        assert result.converged and result.iterations == 1
        assert result.params.table.shape == (0, 2)
        assert np.allclose(result.posteriors, result.params.priors)


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
                expected = len(rows) * split(sample.emissions, schema.offsets)[j][s]
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
        assert params != NaiveBayesParams(np.array([0.5, 0.5]), params.table, params.offsets)
        counts = e_step(params, data)
        assert counts == e_step(hand_params(), data)
        assert counts != e_step(m_step(counts, data.n), data)
        for value in (params, counts):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)

    def test_holds_its_own_copy(self):
        priors = np.array(HAND_PRIORS)
        table, offsets = stack(HAND_JOINTS)
        params = NaiveBayesParams(priors, table, offsets)
        priors[0] = table[0, 0] = 0.9
        assert params == hand_params()
        for held in (params.priors, params.table):
            assert not held.flags.writeable

    def test_counts_hold_their_own_copies(self):
        sense_counts, posteriors = np.array([2.0, 2.0]), np.full((4, 2), 0.5)
        hand = hand_params()
        counts = ExpectedCounts(sense_counts, hand.table, hand.offsets, posteriors, 0.0)
        sense_counts[0] = posteriors[0, 0] = 0.9
        assert counts.sense_counts.tolist() == [2.0, 2.0]
        assert counts.posteriors.tolist() == [[0.5, 0.5]] * 4
        stepped = e_step(hand_params(), make_matrix(HAND_CARDS, HAND_ROWS))
        for value in (counts, stepped):
            for held in (value.sense_counts, value.table, value.posteriors):
                assert not held.flags.writeable

    def test_results_and_samples_hold_their_own_copies(self):
        schema = make_schema(HAND_CARDS)
        sample = generate(2, schema, 40, separation=0.6, seed=5)
        result = fit(sample.matrix, 2, seed=1)
        for held in (result.posteriors, result.assignment, sample.labels, sample.priors,
                     sample.emissions):
            assert not held.flags.writeable
        labels, priors = sample.labels.copy(), np.array([0.3, 0.7])
        emissions = sample.emissions.copy()
        copied = type(sample)(sample.matrix, labels, priors, emissions)
        labels[0] = 1 - labels[0]
        priors[0] = emissions[0, 0] = 0.0
        assert copied.labels.tolist() == sample.labels.tolist()
        assert copied.priors.tolist() == [0.3, 0.7]
        assert copied.emissions[0, 0] == sample.emissions[0, 0] != 0.0

    def test_stacked_offsets_are_an_int_tuple(self):
        params = NaiveBayesParams(np.array(HAND_PRIORS), stack(HAND_JOINTS)[0], [0, 2, 5, 7])
        counts = ExpectedCounts(
            np.array([2.0, 2.0]), params.table, [0, 2, 5, 7], np.full((4, 2), 0.5), 0.0
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

    def test_hand_built_result_text(self):
        schema = FeatureSchema(
            (Feature("left", "pos", ("noun", "verb")), Feature("right", "pos", ("a", "b", "c")))
        )
        params = NaiveBayesParams(np.array(HAND_PRIORS), *stack(HAND_JOINTS[:2]))
        posteriors = [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]
        result = EmResult(params, posteriors, [0, 1, 0], (-4.25, -3.5, -3.4999999), 2, True)
        assert format_result(result, schema) == """\
components: 2
priors: 0.4 0.6
feature left  P(component, value):
  value                           c0          c1
  noun                          0.28        0.12
  verb                          0.12        0.48
feature right  P(component, value):
  value                           c0          c1
  a                              0.2        0.06
  b                              0.1        0.36
  c                              0.1        0.18
log-likelihood: -4.250000 -3.500000 -3.500000
converged: yes (2 iterations)
assignment: 0 1 0
"""

    def test_a_schema_of_other_offsets_is_rejected(self):
        # a set-A fit printed with the set-B schema ran past the end of the table
        sample = synth_sample("drug", n=40, seed=1)
        result = fit(extract(sample, build_schema(sample, "A")), 2, seed=1)
        with pytest.raises(ValueError, match="schema offsets"):
            format_result(result, build_schema(sample, "B"))

    def test_a_schema_of_equal_size_but_other_blocks_is_rejected(self):
        # offsets (0, 2, 5) printed as (0, 3, 5) would put values under the wrong feature
        result = fit(generate(2, make_schema((2, 3)), 30, 0.8, seed=1).matrix, 2, seed=1)
        with pytest.raises(ValueError, match=r"schema offsets \(0, 3, 5\) differ"):
            format_result(result, make_schema((3, 2)))


# two classes over features of 2 and 3 values: offsets (0, 2, 5)
SAMPLE = generate(2, make_schema((2, 3)), 6, 0.8, seed=0)


# each row builds a value whose table disagrees with its offsets or class count
MALFORMED = {
    # offsets name five rows, the table has three: sliced by the offsets,
    # its one block sums to 1 with margins equal to the priors
    "params-short-table": lambda: NaiveBayesParams([0.5, 0.5], np.full((3, 2), 1 / 6), (0, 5)),
    "params-long-table": lambda: NaiveBayesParams([0.5, 0.5], np.full((6, 2), 0.1), (0, 2, 5)),
    "params-offsets-not-from-0": lambda: NaiveBayesParams([0.5, 0.5], np.full((5, 2), 0.1), (1, 5)),
    "params-no-offsets": lambda: NaiveBayesParams([0.5, 0.5], np.full((5, 2), 0.1), ()),
    "params-class-count": lambda: NaiveBayesParams([0.5, 0.5], np.full((5, 3), 0.1), (0, 5)),
    "params-per-feature-table": lambda: NaiveBayesParams([0.5, 0.5], np.full((2, 5), 0.1), (0, 5)),
    "params-flat-table": lambda: NaiveBayesParams([0.5, 0.5], np.full(5, 0.2), (0, 5)),
    "counts-short-table": lambda: ExpectedCounts(
        [2.0, 2.0], np.ones((4, 2)), (0, 2, 5), np.full((4, 2), 0.5), 0.0
    ),
    "counts-offsets-not-from-0": lambda: ExpectedCounts(
        [2.0, 2.0], np.ones((5, 2)), (2, 5), np.full((4, 2), 0.5), 0.0
    ),
    "counts-class-count": lambda: ExpectedCounts(
        [4.0], np.ones((5, 2)), (0, 2, 5), np.ones((4, 1)), 0.0
    ),
    "sample-short-emissions": lambda: GeneratedSample(
        SAMPLE.matrix, SAMPLE.labels, [0.5, 0.5], np.full((4, 2), 0.25)
    ),
    "sample-class-count": lambda: GeneratedSample(
        SAMPLE.matrix, SAMPLE.labels, [1.0], np.full((5, 2), 0.25)
    ),
    "sample-per-feature-table": lambda: GeneratedSample(
        SAMPLE.matrix, SAMPLE.labels, [0.5, 0.5], np.full((2, 5), 0.25)
    ),
}


class TestLayout:
    @pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED.keys())
    def test_table_must_match_offsets_and_classes(self, build):
        with pytest.raises(ValueError, match="does not match offsets"):
            build()

    def test_well_formed_values_are_accepted(self):
        assert SAMPLE.emissions.shape == (5, 2)
        params = NaiveBayesParams([0.5, 0.5], np.full((5, 2), 0.1), [0, 2, 5])
        assert params.offsets == (0, 2, 5)
        copy = GeneratedSample(SAMPLE.matrix, SAMPLE.labels, SAMPLE.priors, SAMPLE.emissions)
        assert copy == SAMPLE

    @pytest.mark.parametrize("fit_on, run_on", [((2, 3), (3, 2)), ((3, 2), (2, 3))])
    def test_e_step_rejects_params_of_another_layout(self, fit_on, run_on):
        # same row total, so only the offsets tell the layouts apart
        params = initial_params(generate(2, make_schema(fit_on), 20, 0.8, seed=1).matrix, 2,
                                np.random.default_rng(0))
        data = generate(2, make_schema(run_on), 20, 0.8, seed=2).matrix
        with pytest.raises(ValueError, match="offsets"):
            e_step(params, data)
        with pytest.raises(ValueError, match="offsets"):
            fit_from(params, data)

    def test_fit_from_rejects_params_of_another_feature_set(self):
        sample = synth_sample("drug", n=40, seed=1)
        set_a = extract(sample, build_schema(sample, "A"))
        set_b = extract(sample, build_schema(sample, "B"))
        params = fit(set_a, 2, seed=0).params
        with pytest.raises(ValueError, match="offsets"):
            fit_from(params, set_b)


class TestClassCount:
    ENTRIES = {
        "mcquitty": lambda k: mcquitty(build_dissim(SAMPLE.matrix), k, seed=0),
        "ward": lambda k: ward(row_vectors(build_dissim(SAMPLE.matrix)), k, seed=0),
        "fit": lambda k: fit(SAMPLE.matrix, k, seed=0, max_iter=5),
        "generate": lambda k: generate(k, make_schema((2, 3)), 6, 0.8, seed=0),
    }

    @pytest.mark.parametrize(
        "k",
        [True, False, 2.5, 2.0, np.float64(2.0), "2", None],
        ids=["True", "False", "2.5", "2.0", "float64-2.0", "str-2", "None"],
    )
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_k_must_be_an_integer(self, entry, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            self.ENTRIES[entry](k)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_numpy_integers_are_integers(self, entry):
        assert self.ENTRIES[entry](np.int64(2)) == self.ENTRIES[entry](2)
