"""Cluster-to-sense mapping, baselines, aggregation and the t test."""

import functools
import math
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment
from scipy.special import betainc

import sensecluster
from sensecluster.corpus import WordSample
from sensecluster.evaluate import (
    AggregateReport,
    ConfusionMatrix,
    aggregate,
    best_mapping,
    category_rollup,
    confusion_from_labels,
    format_confusion,
    majority_classifier,
    _two_tailed_p,
    t_test,
)

from conftest import make_instance


def cm(counts, senses=None):
    counts = np.asarray(counts)
    senses = senses or tuple(f"s{i}" for i in range(counts.shape[0]))
    clusters = tuple(str(c) for c in range(counts.shape[1]))
    return ConfusionMatrix(tuple(senses), clusters, counts)


# Two- and three-sense reference matrices with known best agreements.
TWO_SENSE_CASES = [
    ([[166, 281], [181, 607]], 773),
    ([[288, 159], [155, 633]], 921),
    ([[384, 63], [132, 656]], 1040),
    ([[45, 234], [146, 842]], 887),
    ([[88, 191], [354, 634]], 722),
    ([[119, 160], [344, 644]], 763),
]
THREE_SENSE_CASES = [
    ([[53, 6, 302], [58, 187, 255], [108, 4, 1140]], 1380),
    ([[280, 3, 78], [240, 197, 63], [559, 0, 693]], 1170),
    ([[127, 230, 4], [134, 364, 2], [320, 124, 808]], 1299),
]


@functools.cache
def _injections(n_targets, n_positions):
    """Every injective position-to-target tuple, in lexicographic order."""
    return np.array(
        list(permutations(range(n_targets), n_positions)), dtype=np.intp
    ).reshape(-1, n_positions)


def permutation_mapping(counts):
    """The former exhaustive search: score every injective map in
    lexicographic order and keep the first best one."""
    counts = np.asarray(counts)
    n_senses, n_clusters = counts.shape
    if n_clusters <= n_senses:
        perms = _injections(n_senses, n_clusters)
        scores = counts[perms, np.arange(n_clusters)].sum(axis=1)
        best = perms[scores.argmax()]
        return {c: int(best[c]) for c in range(n_clusters)}, int(scores.max())
    perms = _injections(n_clusters, n_senses)
    scores = counts[np.arange(n_senses), perms].sum(axis=1)
    best = perms[scores.argmax()]
    return {int(best[s]): s for s in range(n_senses)}, int(scores.max())


def mapping_oracle(counts):
    """Independent exhaustive scorer: filter injective maps out of all functions."""
    counts = np.asarray(counts)
    n_senses, n_clusters = counts.shape
    if n_clusters > n_senses:
        return mapping_oracle(counts.T)
    best = -1
    for combo in product(range(n_senses), repeat=n_clusters):
        if len(set(combo)) != n_clusters:
            continue
        score = sum(int(counts[combo[c], c]) for c in range(n_clusters))
        best = max(best, score)
    return best


class TestBestMapping:
    @pytest.mark.parametrize("counts,expected", TWO_SENSE_CASES + THREE_SENSE_CASES)
    def test_reference_agreements(self, counts, expected):
        mapping, agreement = best_mapping(cm(counts))
        assert agreement == expected

    def test_first_reference_case_uses_identity_map(self):
        mapping, agreement = best_mapping(cm([[166, 281], [181, 607]]))
        assert mapping == {0: 0, 1: 1}
        assert agreement == 166 + 607

    def test_diagonal_matrix_is_perfect(self):
        mapping, agreement = best_mapping(cm([[7, 0, 0], [0, 5, 0], [0, 0, 9]]))
        assert mapping == {0: 0, 1: 1, 2: 2}
        assert agreement == 21

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            s = int(rng.integers(1, 5))
            c = int(rng.integers(1, 5))
            counts = rng.integers(0, 50, size=(s, c))
            _, agreement = best_mapping(cm(counts))
            assert agreement == mapping_oracle(counts)

    def test_beats_any_fixed_mapping(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            counts = rng.integers(0, 30, size=(3, 3))
            _, agreement = best_mapping(cm(counts))
            for perm in permutations(range(3)):
                fixed = sum(int(counts[perm[c], c]) for c in range(3))
                assert agreement >= fixed

    def test_more_clusters_than_senses_leaves_some_unmapped(self):
        counts = [[10, 0, 4], [0, 8, 4]]
        mapping, agreement = best_mapping(cm(counts))
        assert agreement == 18
        assert mapping == {0: 0, 1: 1}
        assert 2 not in mapping

    def test_tie_break_is_lexicographically_smallest(self):
        mapping, agreement = best_mapping(cm([[5, 5], [5, 5]]))
        assert agreement == 10
        assert mapping == {0: 0, 1: 1}

    def test_rejects_oversized_inputs(self):
        counts = np.ones((13, 2), dtype=int)
        with pytest.raises(ValueError, match="at most 12"):
            best_mapping(cm(counts))

    def test_matches_permutation_search(self):
        """Map and agreement equal the exhaustive search's, ties included."""
        rng = np.random.default_rng(11)
        for i in range(3000):
            if i % 3 == 0:
                s = c = int(rng.integers(1, 9))
            else:
                s, c = (int(v) for v in rng.integers(1, 9, size=2))
            counts = rng.integers(0, 4, size=(s, c))
            mapping, agreement = best_mapping(cm(counts))
            expected_map, expected = permutation_mapping(counts)
            assert agreement == expected
            assert list(mapping.items()) == list(expected_map.items()), counts

    def test_beyond_eight_senses_matches_assignment_solver(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            s, c = (int(v) for v in rng.integers(9, 13, size=2))
            counts = rng.integers(0, 20, size=(s, c))
            mapping, agreement = best_mapping(cm(counts))
            rows, cols = linear_sum_assignment(counts, maximize=True)
            assert agreement == int(counts[rows, cols].sum())
            assert len(set(mapping.values())) == len(mapping) == min(s, c)
            assert agreement == sum(int(counts[sense, c]) for c, sense in mapping.items())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_agreement_invariant_under_relabelling(self, data):
        s = data.draw(st.integers(1, 7), label="senses")
        c = data.draw(st.integers(1, 7), label="clusters")
        cells = st.lists(st.integers(0, 5), min_size=c, max_size=c)
        counts = np.array(data.draw(st.lists(cells, min_size=s, max_size=s), label="counts"))
        senses = data.draw(st.permutations(range(s)), label="sense order")
        clusters = data.draw(st.permutations(range(c)), label="cluster order")
        _, agreement = best_mapping(cm(counts))
        assert best_mapping(cm(counts[senses]))[1] == agreement
        assert best_mapping(cm(counts[:, clusters]))[1] == agreement


class TestConfusionMatrixValue:
    def test_equal_by_value_and_unhashable(self):
        counts = np.array([[1, 2], [3, 4]])
        matrix = cm(counts)
        assert matrix == cm(counts.copy())
        assert matrix == cm(counts.tolist())
        assert matrix != cm(counts + 1)
        assert matrix != cm(counts, senses=("x", "y"))
        assert matrix != cm([[1, 2, 0], [3, 4, 0]])
        with pytest.raises(TypeError, match="unhashable"):
            hash(matrix)

    def test_holds_its_own_copy(self):
        counts = np.array([[1, 2], [3, 4]])
        matrix = cm(counts)
        counts[0, 0] = 9
        assert matrix.counts[0, 0] == 1
        base = np.array([[1, 2], [3, 4]])
        view = cm(base[:, :])
        base[0, 0] = 9
        assert view.counts[0, 0] == 1
        assert not matrix.counts.flags.writeable


class TestConfusionFromLabels:
    def test_tabulation_and_margins(self):
        gold = ["a", "a", "b", "b", "b"]
        assignment = [0, 1, 1, 1, 0]
        matrix = confusion_from_labels(gold, assignment, ("a", "b"), 2)
        assert matrix.counts.tolist() == [[1, 1], [1, 2]]
        assert matrix.n == 5
        assert matrix.counts.sum(axis=1).tolist() == [2, 3]

    def test_row_margins_equal_gold_counts(self):
        rng = np.random.default_rng(8)
        gold = [f"s{i}" for i in rng.integers(0, 3, size=50)]
        assignment = rng.integers(0, 3, size=50)
        matrix = confusion_from_labels(gold, assignment, ("s0", "s1", "s2"), 3)
        for i, sense in enumerate(("s0", "s1", "s2")):
            assert matrix.counts[i].sum() == gold.count(sense)


    @pytest.mark.parametrize("seed", range(6))
    def test_counts_equal_a_per_instance_tally(self, seed):
        rng = np.random.default_rng(seed)
        n_senses, n_clusters = (int(v) for v in rng.integers(1, 8, size=2))
        senses = tuple(f"s{i}" for i in range(n_senses))
        gold = [senses[i] for i in rng.integers(0, n_senses, size=120)]
        assignment = rng.integers(0, n_clusters, size=120)
        expected = np.zeros((n_senses, n_clusters), dtype=np.int64)
        for label, cluster in zip(gold, assignment):
            expected[senses.index(label), cluster] += 1
        matrix = confusion_from_labels(gold, assignment, senses, n_clusters)
        assert matrix.counts.tolist() == expected.tolist()
        assert matrix.clusters == tuple(str(c) for c in range(n_clusters))

    def test_rejects_gold_label_outside_senses(self):
        with pytest.raises(ValueError, match="'z'"):
            confusion_from_labels(["x", "z"], [0, 1], ("x", "y"), 2)

    @pytest.mark.parametrize(
        "assignment, n_clusters",
        [([0, -1, 1], 2), ([0, 2, 1], 2)],
    )
    def test_rejects_cluster_indices_out_of_range(self, assignment, n_clusters):
        with pytest.raises(ValueError, match="cluster indices"):
            confusion_from_labels(["a", "b", "a"], assignment, ("a", "b"), n_clusters)


class TestMajorityClassifier:
    def sample(self, counts, senses):
        instances = []
        for sense, count in zip(senses, counts):
            instances.extend(make_instance(["x"], 0, sense=sense) for _ in range(count))
        return WordSample("x", "noun", tuple(instances), tuple(senses))

    def test_skewed_two_sense_sample(self):
        sense, acc = majority_classifier(self.sample([86, 14], ("hi", "lo")))
        assert sense == "hi"
        assert acc == pytest.approx(0.86)

    def test_uniform_sample_breaks_tie_by_inventory_order(self):
        sense, acc = majority_classifier(self.sample([10, 10], ("first", "second")))
        assert sense == "first"
        assert acc == pytest.approx(0.5)

    def test_three_sense_sample(self):
        sense, acc = majority_classifier(self.sample([429, 367, 353], ("a", "b", "c")))
        assert sense == "a"
        assert acc == pytest.approx(0.373, abs=5e-4)

    def test_equals_max_of_sense_distribution(self):
        from sensecluster.corpus import sense_distribution

        sample = self.sample([7, 12, 5], ("a", "b", "c"))
        _, acc = majority_classifier(sample)
        assert acc == max(sense_distribution(sample).values())


class TestAggregate:
    def test_identical_trials(self):
        report = aggregate([0.7] * 25)
        assert report == AggregateReport(pytest.approx(0.7), pytest.approx(0.0), 25)

    def test_two_point_formula(self):
        report = aggregate([0.6, 0.8])
        assert report.mean == pytest.approx(0.7)
        assert report.std == pytest.approx(math.sqrt(0.02), abs=1e-12)

    def test_matches_recompute_oracle(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(0, 1, size=25).tolist()
        report = aggregate(values)
        mean = sum(values) / 25
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / 24)
        assert abs(report.mean - mean) < 1e-12
        assert abs(report.std - std) < 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_single_trial_has_zero_spread(self):
        report = aggregate([0.4])
        assert report.std == 0.0
        assert report.trials == 1


class TestCategoryRollup:
    CATEGORIES = {
        "chief": "adjective", "common": "adjective", "last": "adjective",
        "public": "adjective",
        "bill": "noun", "concern": "noun", "drug": "noun", "interest": "noun",
        "line": "noun",
        "agree": "verb", "close": "verb", "help": "verb", "include": "verb",
    }
    MAJORITY = {
        "chief": 0.861, "common": 0.842, "last": 0.940, "public": 0.683,
        "bill": 0.681, "concern": 0.638, "drug": 0.567, "interest": 0.593,
        "line": 0.373,
        "agree": 0.740, "close": 0.771, "help": 0.780, "include": 0.910,
    }

    def test_noun_rollup(self):
        nouns = {w: v for w, v in self.MAJORITY.items() if self.CATEGORIES[w] == "noun"}
        means, overall = category_rollup(nouns, self.CATEGORIES)
        assert means["noun"] == pytest.approx(0.570, abs=5e-4)

    def test_adjective_rollup(self):
        adjs = {w: v for w, v in self.MAJORITY.items() if self.CATEGORIES[w] == "adjective"}
        means, _ = category_rollup(adjs, self.CATEGORIES)
        assert means["adjective"] == pytest.approx(0.832, abs=5e-4)

    def test_overall_is_mean_of_category_means(self):
        means, overall = category_rollup(self.MAJORITY, self.CATEGORIES)
        assert means["verb"] == pytest.approx(0.800, abs=5e-4)
        assert overall == pytest.approx(0.734, abs=5e-4)
        assert overall == pytest.approx(sum(means.values()) / 3, abs=1e-12)

    def test_unknown_word_rejected(self):
        with pytest.raises(ValueError, match="no category"):
            category_rollup({"mystery": 0.5}, {})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            category_rollup({}, {})


def student_pdf(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def p_value_by_quadrature(t, df):
    inner, _ = quad(student_pdf, -abs(t), abs(t), args=(df,), epsabs=1e-12, epsrel=1e-12)
    return 1.0 - inner


class TestTTest:
    def test_identical_samples(self):
        result = t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7], alpha=0.01)
        assert result.t == 0.0
        assert result.p == 1.0
        assert not result.significant

    def test_degenerate_separation_is_significant(self):
        result = t_test([0.9] * 25, [0.1] * 25, alpha=0.01)
        assert result.significant
        assert result.p == 0.0

    def test_zero_variance_equal_means(self):
        result = t_test([0.5] * 5, [0.5] * 5)
        assert (result.t, result.p, result.significant) == (0.0, 1.0, False)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            na = int(rng.integers(2, 30))
            nb = int(rng.integers(2, 30))
            a = rng.normal(0.6, 0.1, size=na).tolist()
            b = rng.normal(0.55, 0.12, size=nb).tolist()
            result = t_test(a, b)
            if not math.isfinite(result.t):
                continue
            expected = p_value_by_quadrature(result.t, na + nb - 2)
            assert abs(result.p - expected) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(18)
        a = rng.uniform(0, 1, size=10).tolist()
        b = rng.uniform(0, 1, size=12).tolist()
        fwd = t_test(a, b)
        rev = t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            t_test([0.5], [0.5, 0.6])

    def test_p_matches_betainc(self):
        ts = np.concatenate([np.linspace(0.0, 50.0, 201), [1e-8, 0.3, 1.7, 1.85]])
        for df in range(2, 201):
            expected = betainc(df / 2.0, 0.5, df / (df + ts * ts))
            for t, want in zip(ts.tolist(), expected.tolist()):
                assert abs(_two_tailed_p(t, df) - want) <= 1e-12 * want, (df, t)

    def test_p_ignores_the_sign_of_t(self):
        for df in (2, 3, 48, 165):
            for t in (0.4, 1.7, 6.0):
                assert _two_tailed_p(-t, df) == _two_tailed_p(t, df)


def test_import_leaves_scipy_unloaded():
    src = str(Path(sensecluster.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import sensecluster; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestNotSignificantlyBelow:
    def test_clear_leader_and_clear_loser(self):
        from sensecluster.evaluate import not_significantly_below

        samples = {
            "best": [0.90, 0.91, 0.89, 0.90, 0.92],
            "close": [0.90, 0.88, 0.91, 0.89, 0.90],
            "far": [0.20, 0.22, 0.21, 0.19, 0.20],
        }
        marked = not_significantly_below(samples)
        assert "best" in marked
        assert "close" in marked
        assert "far" not in marked

    def test_equal_means_always_marked(self):
        from sensecluster.evaluate import not_significantly_below

        samples = {"a": [0.5, 0.5], "b": [0.4, 0.6]}
        assert not_significantly_below(samples) == {"a", "b"}

    def test_single_trial_marks_only_the_leader(self):
        from sensecluster.evaluate import not_significantly_below

        assert not_significantly_below({"a": [0.9], "b": [0.8]}) == {"a"}

    def test_empty_input(self):
        from sensecluster.evaluate import not_significantly_below

        assert not_significantly_below({}) == set()


class TestFormatConfusion:
    def test_reference_layout_and_caption(self):
        matrix = ConfusionMatrix(
            ("worry", "business"),
            ("0", "1"),
            np.array([[166, 281], [181, 607]]),
        )
        text = format_confusion(matrix, {0: 0, 1: 1}, "McQuitty")
        assert "McQuitty - 773 correct" in text
        lines = text.strip().split("\n")
        assert "discovered" in lines[0]
        assert lines[1].split() == ["actual", "worry", "business"]
        assert lines[2].split() == ["worry", "166", "281", "447"]
        assert lines[3].split() == ["business", "181", "607", "788"]
        assert lines[4].split() == ["347", "888", "1235"]
