"""Shared corpus builders and result digests for the test suite."""

import hashlib

import numpy as np
import pytest

from sensecluster.corpus import Instance, Token, WordSample

POS = ("noun", "verb", "adjective", "adverb", "other")


def make_instance(words, target, morph="singular", sense=None):
    """Build an Instance from (text, pos) pairs or bare texts (pos defaults to noun)."""
    tokens = []
    for w in words:
        if isinstance(w, tuple):
            tokens.append(Token(w[0], w[1]))
        else:
            tokens.append(Token(w, "noun"))
    return Instance(tuple(tokens), target, morph, sense)


@pytest.fixture
def plant_sample():
    """Five hand-written noun instances used for frozen extraction expectations."""
    instances = (
        make_instance(
            [("The", "other"), ("plant", "noun"), ("produces", "verb"),
             ("cars", "noun"), (".", "other")],
            target=1, morph="singular", sense="factory",
        ),
        make_instance(
            [("Workers", "noun"), ("closed", "verb"), ("the", "other"),
             ("plant", "noun")],
            target=3, morph="singular", sense="factory",
        ),
        make_instance(
            [("plant", "noun"), ("leaves", "noun"), ("turn", "verb"),
             ("green", "adjective")],
            target=0, morph="singular", sense="flora",
        ),
        make_instance(
            [("The", "other"), ("green", "adjective"), ("plant", "noun"),
             ("grows", "verb"), ("leaves", "noun"), ("quickly", "adverb")],
            target=2, morph="singular", sense="flora",
        ),
        make_instance(
            [("These", "other"), ("plants", "noun"), ("produce", "verb"),
             ("leaves", "noun")],
            target=1, morph="plural", sense="flora",
        ),
    )
    return WordSample("plant", "noun", instances, ("factory", "flora"))


def random_sample(rng, n=20, category="noun", n_senses=2, vocab_size=12, max_len=9):
    """A structurally valid random sample for fuzz tests (no sense signal)."""
    words = [f"w{i}" for i in range(vocab_size)]
    senses = tuple(f"s{i}" for i in range(n_senses))
    morphs = {
        "noun": ("singular", "plural"),
        "verb": ("base", "past", "gerund", "3sg"),
        "adjective": ("",),
    }[category]
    instances = []
    for _ in range(n):
        length = int(rng.integers(2, max_len + 1))
        target = int(rng.integers(length))
        tokens = []
        for pos_i in range(length):
            if pos_i == target:
                tokens.append(Token("term", category))
            else:
                tokens.append(Token(words[rng.integers(vocab_size)], POS[rng.integers(5)]))
        instances.append(
            Instance(
                tuple(tokens),
                target,
                morphs[rng.integers(len(morphs))],
                senses[rng.integers(n_senses)],
            )
        )
    return WordSample("term", category, tuple(instances), senses)


def synth_sample(word, category="noun", senses=("one", "two"), n=24, seed=0,
                 majority=0.6):
    """A sample whose context words correlate with the gold sense.

    Used by the runner tests: every feature set extracts something
    non-degenerate and all three algorithms find real structure.
    """
    rng = np.random.default_rng(seed)
    cues = {
        senses[0]: ["fda", "company", "approved", "maker", "generic", "dose"],
        senses[1]: ["police", "seized", "street", "illegal", "gang", "dealer"],
    }
    if len(senses) > 2:
        extra = ["court", "law", "judge", "ruling", "appeal", "case"]
        cues[senses[2]] = extra
    fillers = ["market", "year", "report", "city"]
    probs = [majority] + [(1 - majority) / (len(senses) - 1)] * (len(senses) - 1)
    morphs = {
        "noun": ("singular", "plural"),
        "verb": ("base", "past", "gerund"),
        "adjective": ("",),
    }[category]
    instances = []
    for _ in range(n):
        sense = senses[int(rng.choice(len(senses), p=probs))]
        pool = cues[sense]
        pre = pool[rng.integers(len(pool))]
        post = pool[rng.integers(len(pool))]
        tail = fillers[rng.integers(len(fillers))] if rng.random() < 0.5 else pool[
            rng.integers(len(pool))
        ]
        morph = morphs[rng.integers(len(morphs))]
        text = word + "s" if morph == "plural" else word
        tokens = [
            Token("the", "other"),
            Token(pre, "noun"),
            Token(text, category),
            Token(post, "verb"),
            Token(tail, "noun"),
        ]
        target = 2
        if rng.random() < 0.3:
            tokens.append(Token(".", "other"))
        instances.append(Instance(tuple(tokens), target, morph, sense))
    return WordSample(word, category, tuple(instances), tuple(senses))


def digest(result, trace: str = "") -> str:
    """SHA-256 of ``trace`` followed by the space-separated assignment of
    ``result``, as ``BENCH_stages.json`` records clustering results: with
    their ``merge_trace`` for McQuitty and Ward, alone for EM."""
    assignment = " ".join(map(str, result.assignment.tolist()))
    return hashlib.sha256((trace + assignment).encode()).hexdigest()
