"""Nominal context features for sense discrimination.

Five feature families are extracted from a word sample:

  M        morphology tag of the target occurrence (nouns and verbs only)
  PL2/PL1/PR1/PR2   POS of the word 1 or 2 positions left/right of the target
  C1/C2/C3 presence in the sentence of the sample's three most frequent
           content words (binary)
  UL2/UL1/UR1/UR2   the word at a fixed offset, restricted to the 19 most
           frequent words seen at that offset, plus (none) for any other
           word and (null) for positions outside the sentence
  CL1/CR1  like UL/UR at offset 1, restricted to the 19 most frequent
           content words at that offset

Three standard combinations are provided: set A (M, POS window,
co-occurrences), set B (M, unrestricted collocations) and set C (M, POS
window, content collocations). A content word is any token whose
case-folded text is not on the stopword list and is not the target word
itself; the default list covers determiners, prepositions, conjunctions,
auxiliaries and punctuation, and can be replaced by a one-word-per-line
file. Pronouns are deliberately kept as content words.

A feature name is decoded in one place, the ``_DECODE`` table of kind,
offset and content restriction that build_schema and dimensionality read.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._value import ArrayValue
from .corpus import POS_TAGS, WordSample

NONE_VALUE = "(none)"
NULL_VALUE = "(null)"
COLLOC_TOP = 19

FEATURE_SETS = {
    "A": ("M", "PL2", "PL1", "PR1", "PR2", "C1", "C2", "C3"),
    "B": ("M", "UL2", "UL1", "UR1", "UR2"),
    "C": ("M", "PL2", "PL1", "PR1", "PR2", "CL1", "CR1"),
}

# name -> (kind, offset, content_only); offset is the signed distance from
# the target for "pos" and "colloc" and the frequency rank for "cooc"
_DECODE = {
    "M": ("morph", 0, False),
    "PL2": ("pos", -2, False), "PL1": ("pos", -1, False),
    "PR1": ("pos", 1, False), "PR2": ("pos", 2, False),
    "C1": ("cooc", 1, False), "C2": ("cooc", 2, False), "C3": ("cooc", 3, False),
    "UL2": ("colloc", -2, False), "UL1": ("colloc", -1, False),
    "UR1": ("colloc", 1, False), "UR2": ("colloc", 2, False),
    "CL1": ("colloc", -1, True), "CR1": ("colloc", 1, True),
}

# Morphology cardinality by category under the nominal tagging scheme
# (adjectives carry no M feature, nouns singular/plural, verbs 7 tenses).
MORPH_CARDINALITY = {"adjective": 1, "noun": 2, "verb": 7}

_DETERMINERS = """
a an the this that these those each every either neither some any no
all both half several many much few little more most less least own
other another such what which whose whatever whichever enough
""".split()

_PREPOSITIONS = """
aboard about above across after against along amid among around as at
before behind below beneath beside besides between beyond by despite
down during except for from in inside into like near of off on onto out
outside over past per since through throughout till to toward towards
under underneath until unto up upon via with within without
""".split()

_CONJUNCTIONS = """
and or nor but so yet if because although though while unless whereas
whether than when whenever where wherever how why once lest
""".split()

_AUXILIARIES = """
am is are was were be been being have has had having do does did doing
done will would shall should can could may might must ought not n't
cannot 's 're 've 'll 'd 'm s'
""".split()

_PUNCTUATION = list(".,;:!?'\"`()[]{}<>|/\\$%#&*+=~^_@") + [
    "``", "''", "--", "---", "...", "‘", "’", "“", "”",
]

DEFAULT_STOPWORDS = frozenset(
    _DETERMINERS + _PREPOSITIONS + _CONJUNCTIONS + _AUXILIARIES + _PUNCTUATION
)


def load_stopwords(path) -> frozenset:
    """Read a stopword list, one word per line; blank lines and # comments skipped."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith("#"):
                words.add(word.casefold())
    return frozenset(words)


@dataclass(frozen=True)
class Feature:
    """One feature: a name, an ordered value alphabet and how to read it off.

    ``kind`` selects the extraction rule: "morph", "pos", "cooc" or
    "colloc". For positional kinds ``offset`` is the signed distance from
    the target. For "cooc" ``word`` is the content word whose presence is
    tested (None when the sample had too few content words; the feature
    is then constantly 0). For "colloc" ``vocabulary`` holds the actual
    top words; alphabet slots padded to keep cardinality at 21 are never
    emitted.
    """

    name: str
    kind: str
    values: tuple[str, ...]
    offset: int = 0
    word: str | None = None
    vocabulary: frozenset = frozenset()

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptors for one sample/feature-set combination."""

    features: tuple[Feature, ...]

    @property
    def q(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(f.cardinality for f in self.features)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Where each feature's values start in a table with one row per
        (feature, value) pair, features in order; the last entry is the
        table's row count (length q + 1)."""
        return tuple(accumulate(self.cardinalities, initial=0))


@dataclass(frozen=True, eq=False)
class FeatureMatrix(ArrayValue):
    """Extracted nominal values, one row per instance, as alphabet indices
    (a read-only copy). Equal by value; unhashable."""

    schema: FeatureSchema
    values: np.ndarray

    def __post_init__(self):
        arr = self._hold("values", np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.schema.q:
            raise ValueError("matrix shape does not match schema")
        for j, feat in enumerate(self.schema.features):
            col = arr[:, j]
            if col.size and (col.min() < 0 or col.max() >= feat.cardinality):
                raise ValueError(f"value index out of alphabet for feature {feat.name}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]

    @cached_property
    def table_rows(self) -> np.ndarray:
        """Each value shifted by its feature's ``schema.offsets`` entry: its
        row in the one-row-per-(feature, value) table (read-only, n x q)."""
        rows = self.values + np.array(self.schema.offsets[:-1], dtype=np.int64)
        rows.setflags(write=False)
        return rows

    def table_bins(self, k: int) -> np.ndarray:
        """``table_rows * k + s`` for every class s < k, flattened in
        (instance, feature, class) order: the bin of each (table row, class)
        pair in a flattened (table rows, k) table (read-only, built once
        per k)."""
        bins = self._bins_by_k.get(k)
        if bins is None:
            bins = (self.table_rows[:, :, None] * k + np.arange(k)).ravel()
            bins.setflags(write=False)
            self._bins_by_k[k] = bins
        return bins

    @cached_property
    def _bins_by_k(self) -> dict:
        return {}

    def decode_row(self, i) -> tuple[str, ...]:
        """Row i as alphabet strings."""
        return tuple(
            feat.values[v] for feat, v in zip(self.schema.features, self.values[i])
        )


def top_content_words(sample: WordSample, k: int, stopwords=None) -> list[str]:
    """The k most frequent content words in the sample's sentences.

    Frequencies are counted over token occurrences, case-folded; the
    target word itself is excluded. Ties break lexicographically. Fewer
    than k distinct content words yield a shorter list.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    stop = DEFAULT_STOPWORDS if stopwords is None else stopwords
    target = sample.word.casefold()
    counts = Counter(
        tok.folded
        for inst in sample.instances
        for tok in inst.tokens
        if tok.folded != target and tok.folded not in stop
    )
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [word for word, _ in ranked[:k]]


def _tokens_at(sample, offset) -> list:
    """Each instance's token at ``offset`` from the target, None outside the sentence."""
    at = [(inst.tokens, inst.target_index + offset) for inst in sample.instances]
    return [tokens[pos] if 0 <= pos < len(tokens) else None for tokens, pos in at]


def top_positional_words(
    sample: WordSample, offset: int, content_only: bool = False, k: int = COLLOC_TOP,
    stopwords=None,
) -> list[str]:
    """The k most frequent words at a fixed signed offset from the target.

    Positions falling outside a sentence contribute nothing. With
    content_only, stopwords are skipped. Ties break lexicographically.
    """
    if offset == 0:
        raise ValueError("offset must be non-zero")
    if k < 1:
        raise ValueError("k must be at least 1")
    stop = DEFAULT_STOPWORDS if stopwords is None else stopwords
    counts = Counter(
        tok.folded
        for tok in _tokens_at(sample, offset)
        if tok is not None and not (content_only and tok.folded in stop)
    )
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [word for word, _ in ranked[:k]]


# a token spelled like (null)/(none)/(unusedN) would collide with a
# collocation alphabet's special slots; such words extract as (none) instead
_RESERVED = re.compile(r"\((?:none|null|unused\d+)\)$")


def build_schema(sample: WordSample, set_id: str, stopwords=None) -> FeatureSchema:
    """Assemble the schema for feature set A, B or C over one sample.

    The M alphabet is the sorted set of observed morph tags (dropped for
    adjectives); collocation alphabets are the per-offset top-19 words
    padded with unreachable placeholders, plus (none) and (null), so
    their cardinality is always 21.
    """
    set_id = set_id.upper()
    if set_id not in FEATURE_SETS:
        raise ValueError(f"unknown feature set {set_id!r}")
    if sample.n == 0:
        raise ValueError("sample has no instances")
    stop = DEFAULT_STOPWORDS if stopwords is None else stopwords

    features = []
    cooc_words = None
    for name in FEATURE_SETS[set_id]:
        kind, offset, content_only = _DECODE[name]
        if kind == "morph":
            if sample.category == "adjective":
                continue
            morphs = tuple(sorted({inst.morph for inst in sample.instances}))
            features.append(Feature(name, kind, morphs))
        elif kind == "pos":
            features.append(Feature(name, kind, POS_TAGS, offset=offset))
        elif kind == "cooc":
            if cooc_words is None:
                cooc_words = top_content_words(sample, 3, stop) + [None] * 3
            features.append(Feature(name, kind, ("0", "1"), word=cooc_words[offset - 1]))
        else:
            # all n instances' words at the offset, ranked, before reserved ones drop out
            ranked = top_positional_words(sample, offset, content_only, sample.n, stop)
            words = [w for w in ranked if not _RESERVED.fullmatch(w)][:COLLOC_TOP]
            unused = [f"(unused{i})" for i in range(len(words), COLLOC_TOP)]
            values = (*words, *unused, NONE_VALUE, NULL_VALUE)
            features.append(Feature(name, kind, values, offset=offset, vocabulary=frozenset(words)))
    return FeatureSchema(tuple(features))


def _morph_column(sample, feat) -> list[int]:
    index = {v: i for i, v in enumerate(feat.values)}
    try:
        return [index[inst.morph] for inst in sample.instances]
    except KeyError as exc:
        raise ValueError(
            f"morph {exc.args[0]!r} not in schema for {feat.name}; "
            "schema must be built from the same sample"
        ) from None


def _pos_column(sample, feat) -> list[int]:
    index = {v: i for i, v in enumerate(feat.values)}
    return [index["other" if tok is None else tok.pos] for tok in _tokens_at(sample, feat.offset)]


def _cooc_column(sample, feat) -> list[int]:
    # a token's text is never None, so an unfilled slot (word None) reads 0
    return [int(any(tok.folded == feat.word for tok in inst.tokens)) for inst in sample.instances]


def _colloc_column(sample, feat) -> list[int]:
    index = {v: i for i, v in enumerate(feat.values) if v in feat.vocabulary}
    none_idx = feat.values.index(NONE_VALUE)
    null_idx = feat.values.index(NULL_VALUE)
    return [
        null_idx if tok is None else index.get(tok.folded, none_idx)
        for tok in _tokens_at(sample, feat.offset)
    ]


_COLUMN = dict(morph=_morph_column, pos=_pos_column, cooc=_cooc_column, colloc=_colloc_column)


def extract(sample: WordSample, schema: FeatureSchema) -> FeatureMatrix:
    """Extract the matrix of feature value indices for every instance.

    POS features read `other` at positions outside the sentence;
    collocation features read (null) there, and (none) for any in-bounds
    word missing from their alphabet. The schema must have been built
    from the same sample.
    """
    rows = np.empty((sample.n, schema.q), dtype=np.int64)
    for j, feat in enumerate(schema.features):
        rows[:, j] = _COLUMN[feat.kind](sample, feat)
    return FeatureMatrix(schema, rows)


def dimensionality(set_id: str, category: str) -> int:
    """Size of the feature space for a set/category pair.

    Uses the nominal morphology cardinalities (1 for adjectives, 2 for
    nouns, 7 for verbs) and the fixed alphabets: 5 for POS, 2 for
    co-occurrence, 21 for collocation features.
    """
    set_id = set_id.upper()
    if set_id not in FEATURE_SETS:
        raise ValueError(f"unknown feature set {set_id!r}")
    if category not in MORPH_CARDINALITY:
        raise ValueError(f"unknown category {category!r}")
    sizes = dict(
        morph=MORPH_CARDINALITY[category], pos=len(POS_TAGS), cooc=2, colloc=COLLOC_TOP + 2
    )
    return math.prod(sizes[_DECODE[name][0]] for name in FEATURE_SETS[set_id])


def format_matrix(matrix: FeatureMatrix) -> str:
    """Tabular text export: feature-name header, one row of alphabet strings per instance."""
    lines = ["\t".join(matrix.schema.names)]
    for i in range(matrix.n):
        lines.append("\t".join(matrix.decode_row(i)))
    return "\n".join(lines) + "\n"
