"""Corpus model, file format and sense distribution."""

import math

import pytest

from sensecluster.corpus import (
    CorpusError,
    Instance,
    Token,
    WordSample,
    dumps_corpus,
    load_corpus,
    save_corpus,
    sense_distribution,
)

from conftest import make_instance, random_sample

HEADER = '{"word":"drug","category":"noun","senses":["medicine","narcotic"]}'
INSTANCE = '{"tokens":[["The","other"],["drug","noun"],["works","verb"]],"target":1,"morph":"singular","sense":"medicine"}'


def write(tmp_path, *lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTypes:
    def test_token_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Token("", "noun")

    def test_token_rejects_unknown_pos(self):
        with pytest.raises(ValueError, match="unknown POS"):
            Token("dog", "gerund")

    def test_instance_target_bounds(self):
        toks = (Token("a", "other"), Token("b", "noun"))
        Instance(toks, 1)
        with pytest.raises(ValueError, match="out of range"):
            Instance(toks, 2)
        with pytest.raises(ValueError, match="out of range"):
            Instance(toks, -1)

    def test_sample_requires_two_senses(self):
        inst = make_instance(["drug"], 0)
        with pytest.raises(ValueError, match="at least 2"):
            WordSample("drug", "noun", (inst,), ("only",))

    def test_sample_rejects_foreign_gold_sense(self):
        inst = make_instance(["drug"], 0, sense="other")
        with pytest.raises(ValueError, match="not in declared inventory"):
            WordSample("drug", "noun", (inst,), ("a", "b"))

    def test_noun_sample_requires_morph(self):
        inst = make_instance(["drug"], 0, morph="")
        with pytest.raises(ValueError, match="morph"):
            WordSample("drug", "noun", (inst,), ("a", "b"))

    def test_adjective_sample_ignores_morph(self):
        inst = make_instance([("chief", "adjective")], 0, morph="")
        sample = WordSample("chief", "adjective", (inst,), ("a", "b"))
        assert sample.n == 1

    def test_folded_text(self):
        assert Token("The", "other").folded == "the"


class TestLoad:
    def test_minimal_file(self, tmp_path):
        sample = load_corpus(write(tmp_path, HEADER, INSTANCE))
        assert sample.word == "drug"
        assert sample.n == 1
        assert sample.k == 2
        assert sample.instances[0].target.text == "drug"
        assert sample.instances[0].gold_sense == "medicine"

    def test_instance_order_preserved(self, tmp_path):
        second = INSTANCE.replace('"singular"', '"plural"')
        sample = load_corpus(write(tmp_path, HEADER, INSTANCE, second))
        assert [i.morph for i in sample.instances] == ["singular", "plural"]

    def test_target_out_of_range(self, tmp_path):
        bad = INSTANCE.replace('"target":1', '"target":3')
        with pytest.raises(CorpusError, match="line 2: target index out of range"):
            load_corpus(write(tmp_path, HEADER, bad))

    def test_unknown_pos(self, tmp_path):
        bad = INSTANCE.replace('"noun"', '"nn"')
        with pytest.raises(CorpusError, match="unknown POS"):
            load_corpus(write(tmp_path, HEADER, bad))

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(write(tmp_path, HEADER, "{not json"))

    def test_sense_not_declared(self, tmp_path):
        bad = INSTANCE.replace('"medicine"', '"poison"')
        with pytest.raises(CorpusError, match="not in declared inventory"):
            load_corpus(write(tmp_path, HEADER, bad))

    def test_missing_header_fields(self, tmp_path):
        with pytest.raises(CorpusError, match="header"):
            load_corpus(write(tmp_path, '{"word":"drug"}', INSTANCE))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(path)

    def test_missing_morph_for_noun(self, tmp_path):
        bad = INSTANCE.replace('"morph":"singular",', "")
        with pytest.raises(CorpusError, match="morph"):
            load_corpus(write(tmp_path, HEADER, bad))


class TestRoundTrip:
    def test_eight_instance_round_trip(self, tmp_path):
        rng = __import__("numpy").random.default_rng(11)
        sample = random_sample(rng, n=8)
        path = tmp_path / "rt.jsonl"
        save_corpus(sample, path)
        first = path.read_bytes()
        reloaded = load_corpus(path)
        assert reloaded == sample
        save_corpus(reloaded, path)
        assert path.read_bytes() == first

    def test_untagged_instances_round_trip(self, tmp_path):
        inst = make_instance(["the", "drug"], 1)
        sample = WordSample("drug", "noun", (inst,), ("a", "b"))
        path = tmp_path / "rt.jsonl"
        save_corpus(sample, path)
        reloaded = load_corpus(path)
        assert reloaded.instances[0].gold_sense is None
        assert dumps_corpus(reloaded) == dumps_corpus(sample)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_separators_in_tokens_round_trip(self, tmp_path, separator):
        inst = make_instance([f"c{separator}", "drug", f"{separator}x"], 1, sense="a")
        sample = WordSample("drug", "noun", (inst,), ("a", "b"))
        path = tmp_path / "rt.jsonl"
        save_corpus(sample, path)
        first = path.read_bytes()
        assert load_corpus(path) == sample
        save_corpus(load_corpus(path), path)
        assert path.read_bytes() == first

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(f"{HEADER}\r\n{INSTANCE}\r\n".encode("utf-8"))
        sample = load_corpus(path)
        assert sample.n == 1
        assert sample.instances[0].tokens[2].text == "works"

    def test_serialized_form_is_json_lines(self):
        inst = make_instance(["drug"], 0, sense="a")
        sample = WordSample("drug", "noun", (inst,), ("a", "b"))
        text = dumps_corpus(sample)
        lines = text.splitlines()
        assert len(lines) == 2
        assert text.endswith("\n")
        import json

        header = json.loads(lines[0])
        assert header == {"word": "drug", "category": "noun", "senses": ["a", "b"]}


class TestSenseDistribution:
    def test_skewed_split(self):
        instances = tuple(
            make_instance(["chief"], 0, sense="s1" if i < 86 else "s2")
            for i in range(100)
        )
        sample = WordSample("chief", "noun", instances, ("s1", "s2"))
        assert sense_distribution(sample) == {"s1": 0.86, "s2": 0.14}

    def test_degenerate_distribution(self):
        instances = tuple(make_instance(["x"], 0, sense="s1") for _ in range(5))
        sample = WordSample("x", "noun", instances, ("s1", "s2"))
        assert sense_distribution(sample) == {"s1": 1.0, "s2": 0.0}

    def test_two_sense_margins(self):
        instances = tuple(
            make_instance(["concern"], 0, sense="worry" if i < 447 else "business")
            for i in range(1235)
        )
        sample = WordSample("concern", "noun", instances, ("worry", "business"))
        dist = sense_distribution(sample)
        assert dist["worry"] == 447 / 1235
        assert dist["business"] == 788 / 1235

    def test_sums_to_one(self):
        import numpy as np

        for seed in range(10):
            sample = random_sample(np.random.default_rng(seed), n=17, n_senses=3)
            dist = sense_distribution(sample)
            assert all(v >= 0 for v in dist.values())
            assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
            assert list(dist) == list(sample.sense_inventory)

    def test_requires_gold_everywhere(self):
        instances = (make_instance(["x"], 0, sense="s1"), make_instance(["x"], 0))
        sample = WordSample("x", "noun", instances, ("s1", "s2"))
        with pytest.raises(ValueError, match="no gold sense"):
            sense_distribution(sample)
