"""Corpus model, file format and sense distribution."""

import json
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


HEAD = json.loads(HEADER)
RECORD = json.loads(INSTANCE)
TOKENS = (Token("The", "other"), Token("drug", "noun"), Token("works", "verb"))
SENSES = ("medicine", "narcotic")


def record(**fields):
    return json.dumps(dict(RECORD, **fields))


SURROGATE = "'utf-8' codec can't encode character"

# (line of the bad record, its changed fields, the constructor call, message);
# a file holds the header, one good record, then the record under test
RULES = {
    "token-text-type": (3, {"tokens": [[5, "noun"]]}, lambda: Token(5, "noun"),
                        "each token must be a [text, pos] pair"),
    "token-pos-type": (3, {"tokens": [["drug", 5]]}, lambda: Token("drug", 5),
                       "each token must be a [text, pos] pair"),
    "token-text-empty": (3, {"tokens": [["", "noun"]]}, lambda: Token("", "noun"),
                         "empty token text"),
    "token-pos-unknown": (3, {"tokens": [["drug", "nn"]]}, lambda: Token("drug", "nn"),
                          "unknown POS tag 'nn'"),
    "tokens-empty": (3, {"tokens": [], "target": 0}, lambda: Instance((), 0),
                     "tokens must be a non-empty array"),
    "target-bool": (3, {"target": True}, lambda: Instance(TOKENS, True),
                    "target must be an integer"),
    "target-float": (3, {"target": 1.0}, lambda: Instance(TOKENS, 1.0),
                     "target must be an integer"),
    "target-range": (3, {"target": 3}, lambda: Instance(TOKENS, 3),
                     "target index out of range"),
    "morph-type": (3, {"morph": 3}, lambda: Instance(TOKENS, 0, 3),
                   "morph must be a string"),
    "sense-type": (3, {"sense": 5}, lambda: Instance(TOKENS, 1, "singular", 5),
                   "sense must be a string"),
    "word-type": (1, {"word": 7}, lambda: WordSample(7, "noun", (), ("x", "y")),
                  "word must be a non-empty string"),
    "word-empty": (1, {"word": ""}, lambda: WordSample("", "noun", (), SENSES),
                   "word must be a non-empty string"),
    "category": (1, {"category": "gerund"}, lambda: WordSample("drug", "gerund", (), SENSES),
                 "unknown category 'gerund'"),
    "senses-empty-string": (1, {"senses": ["", "y"]}, lambda: WordSample("w", "noun", (), ("", "y")),
                            "senses must be a list of non-empty strings"),
    "senses-not-a-list": (1, {"senses": "xy"}, lambda: WordSample("w", "noun", (), "xy"),
                          "senses must be a list of non-empty strings"),
    "senses-one": (1, {"senses": ["only"]}, lambda: WordSample("w", "noun", (), ("only",)),
                   "sense inventory must declare at least 2 senses"),
    "senses-repeated": (1, {"senses": ["a", "a"]}, lambda: WordSample("w", "noun", (), ("a", "a")),
                        "duplicate sense in inventory"),
    "morph-missing": (3, {"morph": ""},
                      lambda: WordSample("drug", "noun", (Instance(TOKENS, 1),), SENSES),
                      "instance 0: missing morph tag for noun"),
    "sense-foreign": (3, {"sense": "poison"},
                      lambda: WordSample("drug", "noun", (Instance(TOKENS, 1, "singular", "poison"),), SENSES),
                      "instance 0: sense 'poison' not in declared inventory"),
    # a lone surrogate, which a JSON escape can spell but UTF-8 cannot encode
    "token-text-utf8": (3, {"tokens": [["\ud800", "noun"]]}, lambda: Token("\ud800", "noun"),
                        f"{SURROGATE} '\\ud800' in position 0: surrogates not allowed"),
    "morph-utf8": (3, {"morph": "s\udfff"}, lambda: Instance(TOKENS, 1, "s\udfff"),
                   f"{SURROGATE} '\\udfff' in position 1: surrogates not allowed"),
    "word-utf8": (1, {"word": "\ud800"}, lambda: WordSample("\ud800", "noun", (), SENSES),
                  f"{SURROGATE} '\\ud800' in position 0: surrogates not allowed"),
    "senses-utf8": (1, {"senses": ["a", "b\ud800"]}, lambda: WordSample("w", "noun", (), ("a", "b\ud800")),
                    f"{SURROGATE} '\\ud800' in position 1: surrogates not allowed"),
}

# (constructor call, message) for values no corpus file can spell
CODE_RULES = {
    "tokens-strings": (lambda: Instance(("a", "b"), 0, "x"), "each token must be a Token"),
    "tokens-pairs": (lambda: Instance((("drug", "noun"),), 0, "x"), "each token must be a Token"),
    "tokens-mixed": (lambda: Instance((TOKENS[0], "drug"), 0, "x"), "each token must be a Token"),
    # JSON reads an escaped surrogate pair as the one character it spells
    "token-text-surrogate-pair": (lambda: Token("\ud83d\ude00", "noun"),
                                  "'utf-8' codec can't encode characters in position 0-1: surrogates not allowed"),
}


class TestRules:
    """Each corpus rule says the same through a file and through the constructor."""

    @pytest.mark.parametrize("rule", RULES)
    def test_file_and_constructor_reject_alike(self, tmp_path, rule):
        line, fields, construct, message = RULES[rule]
        head, bad = (json.dumps(dict(HEAD, **fields)), record()) if line == 1 else (HEADER, record(**fields))
        path = write(tmp_path, head, INSTANCE, bad)
        with pytest.raises(CorpusError) as from_file:
            load_corpus(path)
        with pytest.raises(ValueError) as from_code:
            construct()
        assert from_file.value.line == line
        # the constructor names the instance where the file names the line
        assert str(from_file.value) == f"line {line}: {message.removeprefix('instance 0: ')}"
        assert str(from_code.value) == message

    @pytest.mark.parametrize("rule", CODE_RULES)
    def test_values_only_code_can_hold(self, rule):
        construct, message = CODE_RULES[rule]
        with pytest.raises(ValueError) as exc:
            construct()
        assert str(exc.value) == message

    def test_a_surrogate_pair_in_a_file_is_its_character(self, tmp_path):
        bad = record(tokens=[["\ud83d\ude00", "other"], ["drug", "noun"]])
        assert "\\ud83d\\ude00" in bad  # json.dumps escapes it as a pair
        sample = load_corpus(write(tmp_path, HEADER, bad))
        assert sample.instances[0].tokens[0].text == "\U0001f600"
        assert dumps_corpus(sample).encode("utf-8").count("\U0001f600".encode("utf-8")) == 1

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['["drug","noun"]', INSTANCE], "line 1: header must declare word, category and senses"),
            ([HEADER, '{"target":0}'], "line 2: instance record must carry tokens and target"),
            ([HEADER, "", record(tokens="drug")], "line 3: tokens must be a non-empty array"),
            ([HEADER, "", record(tokens=[["The", "other", "x"]])], "line 3: each token must be a [text, pos] pair"),
            ([HEADER, "", record(tokens=["drug"])], "line 3: each token must be a [text, pos] pair"),
        ],
        ids=["header-not-an-object", "no-tokens", "tokens-not-an-array", "triple", "bare-string"],
    )
    def test_shapes_only_a_file_can_hold(self, tmp_path, lines, message):
        with pytest.raises(CorpusError) as exc:
            load_corpus(write(tmp_path, *lines))
        assert str(exc.value) == message


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
