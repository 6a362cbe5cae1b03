"""Feature schema construction, extraction and dimensionality."""

import math
import pickle
from itertools import accumulate

import numpy as np
import pytest

from sensecluster.corpus import WordSample
from sensecluster.features import (
    DEFAULT_STOPWORDS,
    FEATURE_SETS,
    MORPH_CARDINALITY,
    FeatureMatrix,
    NONE_VALUE,
    NULL_VALUE,
    build_schema,
    dimensionality,
    extract,
    format_matrix,
    load_stopwords,
    top_content_words,
    top_positional_words,
)

from conftest import make_instance, random_sample


def brute_force_content_counts(sample, stopwords):
    """Independent recount: explicit loops, token occurrences, case-folded."""
    target = sample.word.casefold()
    counts = {}
    for inst in sample.instances:
        for tok in inst.tokens:
            w = tok.text.casefold()
            if w == target or w in stopwords:
                continue
            counts[w] = counts.get(w, 0) + 1
    return counts


def brute_force_positional_counts(sample, offset, content_only, stopwords):
    counts = {}
    for inst in sample.instances:
        p = inst.target_index + offset
        if p < 0 or p >= len(inst.tokens):
            continue
        w = inst.tokens[p].text.casefold()
        if content_only and w in stopwords:
            continue
        counts[w] = counts.get(w, 0) + 1
    return counts


def ranked(counts, k):
    return [w for w, _ in sorted(counts.items(), key=lambda it: (-it[1], it[0]))[:k]]


class TestTopContentWords:
    def test_dominant_words_lead(self, plant_sample):
        assert top_content_words(plant_sample, 3) == ["leaves", "green", "cars"]

    def test_frequent_corpus_wide_words_rank_first(self):
        # million > company > market by occurrence count
        rows = [
            ["a", "million", "concern", "company", "market"],
            ["the", "million", "concern", "company", "said"],
            ["million", "rose", "concern", "by", "points"],
        ]
        instances = tuple(make_instance(r, 2) for r in rows)
        sample = WordSample("concern", "noun", instances, ("s1", "s2"))
        assert top_content_words(sample, 3) == ["million", "company", "market"]

    def test_stopword_only_context_gives_empty(self):
        instances = (
            make_instance([("the", "other"), ("term", "noun"), ("of", "other")], 1),
            make_instance([("a", "other"), ("term", "noun")], 1),
        )
        sample = WordSample("term", "noun", instances, ("s1", "s2"))
        assert top_content_words(sample, 3) == []

    def test_matches_brute_force_recount(self):
        for seed in range(8):
            sample = random_sample(np.random.default_rng(seed), n=20)
            expected = ranked(brute_force_content_counts(sample, DEFAULT_STOPWORDS), 5)
            assert top_content_words(sample, 5) == expected

    def test_k_must_be_positive(self, plant_sample):
        with pytest.raises(ValueError):
            top_content_words(plant_sample, 0)

    def test_deterministic(self, plant_sample):
        first = top_content_words(plant_sample, 3)
        assert all(top_content_words(plant_sample, 3) == first for _ in range(3))


class TestTopPositionalWords:
    def test_dominant_right_neighbor_leads(self):
        # "said" owns offset +1 in most sentences
        rows = [
            ["the", "concern", "said", "x"],
            ["a", "concern", "said", "y"],
            ["big", "concern", "said", "z"],
            ["the", "concern", "grew", "w"],
        ]
        instances = tuple(make_instance(r, 1) for r in rows)
        sample = WordSample("concern", "noun", instances, ("s1", "s2"))
        out = top_positional_words(sample, +1, content_only=True)
        assert out[0] == "said"

    def test_position_outside_sentence_contributes_nothing(self):
        sample = WordSample(
            "term", "noun", (make_instance(["term", "x"], 0),), ("s1", "s2")
        )
        assert top_positional_words(sample, -1) == []

    def test_matches_brute_force_recount(self):
        for seed in range(8):
            sample = random_sample(np.random.default_rng(100 + seed), n=25)
            for offset in (-2, -1, 1, 2):
                for content_only in (False, True):
                    expected = ranked(
                        brute_force_positional_counts(
                            sample, offset, content_only, DEFAULT_STOPWORDS
                        ),
                        19,
                    )
                    got = top_positional_words(sample, offset, content_only)
                    assert got == expected

    def test_zero_offset_rejected(self, plant_sample):
        with pytest.raises(ValueError):
            top_positional_words(plant_sample, 0)


class TestBuildSchema:
    def test_adjective_set_a_has_no_morph_feature(self):
        instances = tuple(
            make_instance([("very", "adverb"), ("chief", "adjective")], 1, morph="")
            for _ in range(3)
        )
        sample = WordSample("chief", "adjective", instances, ("s1", "s2"))
        schema = build_schema(sample, "A")
        assert schema.names == ("PL2", "PL1", "PR1", "PR2", "C1", "C2", "C3")

    def test_noun_set_b_shape(self, plant_sample):
        schema = build_schema(plant_sample, "B")
        assert schema.names == ("M", "UL2", "UL1", "UR1", "UR2")
        assert schema.cardinalities == (2, 21, 21, 21, 21)

    def test_verb_morph_alphabet_follows_observations(self):
        tags = ["base", "past", "gerund", "3sg", "perfect", "passive", "modal"]
        instances = tuple(
            make_instance([("they", "noun"), ("agree", "verb")], 1, morph=tag)
            for tag in tags
        )
        sample = WordSample("agree", "verb", instances, ("s1", "s2"))
        schema = build_schema(sample, "C")
        morph = schema.features[0]
        assert morph.name == "M"
        assert morph.cardinality == 7
        assert morph.values == tuple(sorted(tags))

    def test_set_definitions(self, plant_sample):
        assert build_schema(plant_sample, "A").names == (
            "M", "PL2", "PL1", "PR1", "PR2", "C1", "C2", "C3",
        )
        assert build_schema(plant_sample, "C").names == (
            "M", "PL2", "PL1", "PR1", "PR2", "CL1", "CR1",
        )

    def test_colloc_alphabet_always_21_with_specials(self, plant_sample):
        schema = build_schema(plant_sample, "B")
        for feat in schema.features[1:]:
            assert feat.cardinality == 21
            assert feat.values[19] == NONE_VALUE
            assert feat.values[20] == NULL_VALUE
            assert len(set(feat.values)) == 21

    def test_content_colloc_vocabulary_skips_stopwords(self, plant_sample):
        schema = build_schema(plant_sample, "C")
        cl1 = schema.features[5]
        assert cl1.name == "CL1"
        assert cl1.values[0] == "green"
        assert "the" not in cl1.vocabulary


class TestExtract:
    # Frozen hand-computed expectations for the five plant instances.
    # POS alphabet: noun=0 verb=1 adjective=2 adverb=3 other=4.
    # M alphabet (sorted): plural=0 singular=1.
    # Top content words: leaves, green, cars.
    EXPECTED_A = [
        [1, 4, 4, 1, 0, 0, 0, 1],
        [1, 1, 4, 4, 4, 0, 0, 0],
        [1, 4, 4, 0, 1, 1, 1, 0],
        [1, 4, 2, 1, 0, 1, 1, 0],
        [0, 4, 4, 1, 0, 1, 0, 0],
    ]
    # Collocation alphabets (frequency then lexicographic):
    #   UL2: closed=0 the=1 | UL1: the=0 green=1 these=2
    #   UR1: grows=0 leaves=1 produce=2 produces=3 | UR2: leaves=0 cars=1 turn=2
    # (none)=19, (null)=20.
    EXPECTED_B = [
        [1, 20, 0, 3, 1],
        [1, 0, 0, 20, 20],
        [1, 20, 20, 1, 2],
        [1, 1, 1, 0, 0],
        [0, 20, 2, 2, 0],
    ]

    def test_hand_computed_set_a(self, plant_sample):
        matrix = extract(plant_sample, build_schema(plant_sample, "A"))
        assert matrix.values.tolist() == self.EXPECTED_A

    def test_hand_computed_set_b(self, plant_sample):
        matrix = extract(plant_sample, build_schema(plant_sample, "B"))
        assert matrix.values.tolist() == self.EXPECTED_B

    def test_null_for_position_outside_sentence(self):
        instances = (
            make_instance([("term", "noun"), ("x", "noun"), ("y", "noun")], 0),
            make_instance([("a", "other"), ("term", "noun"), ("z", "noun")], 1),
        )
        sample = WordSample("term", "noun", instances, ("s1", "s2"))
        schema = build_schema(sample, "B")
        matrix = extract(sample, schema)
        ul1 = schema.names.index("UL1")
        assert matrix.decode_row(0)[ul1] == NULL_VALUE
        assert matrix.decode_row(1)[ul1] == "a"

    def test_binary_cooccurrence_presence(self):
        instances = (
            make_instance([("term", "noun"), ("market", "noun")], 0),
            make_instance([("term", "noun"), ("profit", "noun")], 0),
            make_instance([("term", "noun"), ("market", "noun"), ("x", "noun")], 0),
        )
        sample = WordSample("term", "noun", instances, ("s1", "s2"))
        schema = build_schema(sample, "A")
        matrix = extract(sample, schema)
        c1 = schema.names.index("C1")
        assert [row[c1] for row in matrix.values.tolist()] == [1, 0, 1]

    def test_unfilled_cooccurrence_slot_is_constant_zero(self):
        # only one distinct content word exists, so C2/C3 test nothing
        instances = tuple(
            make_instance([("term", "noun"), ("market", "noun")], 0) for _ in range(3)
        )
        sample = WordSample("term", "noun", instances, ("s1", "s2"))
        schema = build_schema(sample, "A")
        matrix = extract(sample, schema)
        c2, c3 = schema.names.index("C2"), schema.names.index("C3")
        assert set(matrix.values[:, c2].tolist()) == {0}
        assert set(matrix.values[:, c3].tolist()) == {0}

    def test_pos_outside_sentence_reads_other(self, plant_sample):
        schema = build_schema(plant_sample, "A")
        matrix = extract(plant_sample, schema)
        pl2 = schema.names.index("PL2")
        assert matrix.decode_row(0)[pl2] == "other"

    def test_fuzz_values_stay_inside_alphabets(self):
        for seed in range(12):
            sample = random_sample(np.random.default_rng(200 + seed), n=15)
            for set_id in ("A", "B", "C"):
                schema = build_schema(sample, set_id)
                matrix = extract(sample, schema)
                for j, feat in enumerate(schema.features):
                    col = matrix.values[:, j]
                    assert col.min() >= 0
                    assert col.max() < feat.cardinality
                    if feat.kind == "colloc":
                        decoded = {feat.values[v] for v in col}
                        allowed = feat.vocabulary | {NONE_VALUE, NULL_VALUE}
                        assert decoded <= allowed

    def test_tokens_spelled_like_special_values_cannot_enter_alphabets(self):
        # a real token spelled (null) must not claim the boundary slot
        instances = (
            make_instance([("(null)", "noun"), ("term", "noun")], 1),
            make_instance([("(none)", "noun"), ("term", "noun")], 1),
            make_instance([("(unused0)", "noun"), ("term", "noun")], 1),
            make_instance([("term", "noun"), ("x", "noun")], 0),
        )
        sample = WordSample("term", "noun", instances, ("s1", "s2"))
        schema = build_schema(sample, "B")
        matrix = extract(sample, schema)
        ul1 = schema.names.index("UL1")
        feat = schema.features[ul1]
        assert feat.vocabulary == frozenset()
        decoded = [matrix.decode_row(i)[ul1] for i in range(4)]
        # spelled-like-special neighbors read (none); true boundary reads (null)
        assert decoded[:3] == [NONE_VALUE, NONE_VALUE, NONE_VALUE]
        assert decoded[3] == NULL_VALUE
        for f in schema.features[1:]:
            assert len(set(f.values)) == 21

    def test_rows_align_with_instances(self, plant_sample):
        schema = build_schema(plant_sample, "A")
        matrix = extract(plant_sample, schema)
        assert matrix.n == plant_sample.n
        assert matrix.q == schema.q


class TestFeatureMatrixCopy:
    def test_holds_its_own_copy(self):
        sample = random_sample(np.random.default_rng(3), n=6)
        schema = build_schema(sample, "A")
        values = extract(sample, schema).values.copy()
        matrix = FeatureMatrix(schema, values)
        values[0, 0] += 1
        assert matrix.values[0, 0] == values[0, 0] - 1
        assert not matrix.values.flags.writeable

    def test_equal_by_value_and_unhashable(self):
        sample = random_sample(np.random.default_rng(3), n=6)
        schema = build_schema(sample, "A")
        matrix = extract(sample, schema)
        assert matrix == extract(sample, build_schema(sample, "A"))
        changed = matrix.values.copy()
        changed[0, -1] = 1 - changed[0, -1]
        assert matrix != FeatureMatrix(schema, changed)
        assert matrix != extract(sample, build_schema(sample, "C"))
        with pytest.raises(TypeError, match="unhashable"):
            hash(matrix)

    def test_offsets_stay_an_int_tuple_through_pickling(self):
        sample = random_sample(np.random.default_rng(3), n=6)
        matrix = extract(sample, build_schema(sample, "A"))
        matrix.table_rows  # computes and caches schema.offsets
        copy = pickle.loads(pickle.dumps(matrix))
        for offsets in (matrix.schema.offsets, copy.schema.offsets):
            assert type(offsets) is tuple and all(type(o) is int for o in offsets)
        assert copy.schema.offsets == (0,) + tuple(accumulate(matrix.schema.cardinalities))
        assert (copy.table_rows == matrix.table_rows).all()


class TestDimensionality:
    @pytest.mark.parametrize(
        "set_id,category,expected",
        [
            ("A", "adjective", 5_000),
            ("A", "verb", 35_000),
            ("B", "adjective", 194_481),
            ("B", "verb", 1_361_367),
            ("C", "adjective", 275_625),
            ("C", "verb", 1_929_375),
            ("A", "noun", 10_000),
            ("B", "noun", 388_962),
            ("C", "noun", 551_250),
        ],
    )
    def test_endpoints(self, set_id, category, expected):
        assert dimensionality(set_id, category) == expected

    @pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
    @pytest.mark.parametrize("category", sorted(MORPH_CARDINALITY))
    def test_equals_product_of_schema_cardinalities(self, set_id, category):
        # a sample carrying the nominal number of morph tags for its category
        tags = {
            "adjective": [""],
            "noun": ["singular", "plural"],
            "verb": ["base", "past", "gerund", "3sg", "perfect", "passive", "modal"],
        }[category]
        assert len(tags) == MORPH_CARDINALITY[category]
        instances = tuple(
            make_instance([("a", "other"), ("term", category), ("b", "noun")], 1, morph=tag)
            for tag in tags
        )
        sample = WordSample("term", category, instances, ("s1", "s2"))
        schema = build_schema(sample, set_id)
        assert dimensionality(set_id, category) == math.prod(schema.cardinalities)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            dimensionality("D", "noun")
        with pytest.raises(ValueError):
            dimensionality("A", "adverb")


class TestStopwords:
    def test_pronouns_are_content_words(self):
        assert "he" not in DEFAULT_STOPWORDS
        assert "it" not in DEFAULT_STOPWORDS

    def test_function_word_classes_are_stopped(self):
        for w in ("the", "of", "and", "was", ".", "n't"):
            assert w in DEFAULT_STOPWORDS

    def test_load_stopwords_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\nof\n\nmarket\n", encoding="utf-8")
        stops = load_stopwords(path)
        assert stops == {"the", "of", "market"}

    def test_custom_stoplist_changes_content_words(self, plant_sample):
        custom = frozenset({"leaves", "the", "these", "."})
        out = top_content_words(plant_sample, 3, stopwords=custom)
        assert "leaves" not in out
        assert out[0] == "green"


class TestExport:
    def test_tabular_export_shape(self, plant_sample):
        schema = build_schema(plant_sample, "A")
        text = format_matrix(extract(plant_sample, schema))
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == list(schema.names)
        assert len(lines) == plant_sample.n + 1
        assert lines[1].split("\t")[0] == "singular"
