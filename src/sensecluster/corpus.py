"""Instance data model and corpus file I/O.

A corpus file holds every occurrence of one ambiguous word. It is
line-delimited JSON (UTF-8, LF endings): the first record declares the
word, its part-of-speech category and the ordered sense inventory; each
following record is one occurrence with its tokenized, POS-tagged
sentence, the target position, a morphology tag and an optional gold
sense used only for evaluation.

This module owns the word categories: ``CATEGORIES`` in the order reports
list them, and ``MORPH_CATEGORIES``, those whose instances carry a morph
tag (adjectives carry none, so their feature sets have no M feature).
"""

import json
from dataclasses import dataclass

POS_TAGS = ("noun", "verb", "adjective", "adverb", "other")
CATEGORIES = ("adjective", "noun", "verb")
MORPH_CATEGORIES = ("noun", "verb")


class CorpusError(ValueError):
    """Malformed or inconsistent corpus file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Token:
    """One token of a sentence: surface form plus a coarse POS tag."""

    text: str
    pos: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("empty token text")
        if self.pos not in POS_TAGS:
            raise ValueError(f"unknown POS tag {self.pos!r}")

    @property
    def folded(self) -> str:
        """Case-folded surface form, used for all frequency counting."""
        return self.text.casefold()


@dataclass(frozen=True)
class Instance:
    """One occurrence of the ambiguous word with its sentence context.

    ``morph`` is a free-form morphology tag for the target occurrence
    (e.g. singular/plural for nouns, a tense tag for verbs); its observed
    value set defines the morphology feature alphabet for a sample.
    ``gold_sense`` is optional and used only to evaluate discovered
    clusters.
    """

    tokens: tuple[Token, ...]
    target_index: int
    morph: str = ""
    gold_sense: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not 0 <= self.target_index < len(self.tokens):
            raise ValueError("target index out of range")

    @property
    def target(self) -> Token:
        return self.tokens[self.target_index]


@dataclass(frozen=True)
class WordSample:
    """All instances of one ambiguous word plus its sense inventory.

    Immutable after construction and safe to share across threads.
    """

    word: str
    category: str
    instances: tuple[Instance, ...]
    sense_inventory: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "sense_inventory", tuple(self.sense_inventory))
        if not self.word:
            raise ValueError("empty word")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if len(self.sense_inventory) < 2:
            raise ValueError("sense inventory must declare at least 2 senses")
        if len(set(self.sense_inventory)) != len(self.sense_inventory):
            raise ValueError("duplicate sense in inventory")
        needs_morph = self.category in MORPH_CATEGORIES
        for i, inst in enumerate(self.instances):
            if inst.gold_sense is not None and inst.gold_sense not in self.sense_inventory:
                raise ValueError(
                    f"instance {i}: sense {inst.gold_sense!r} not in declared inventory"
                )
            if needs_morph and not inst.morph:
                raise ValueError(f"instance {i}: missing morph tag for {self.category}")

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def k(self) -> int:
        return len(self.sense_inventory)


def load_corpus(path) -> WordSample:
    """Read and validate a corpus file; instance order follows file order."""
    # split on LF only: str.splitlines would also break inside token text
    # holding U+0085, U+2028 or U+2029, which the JSON is written with raw
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    records = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise CorpusError(f"malformed record: {exc.msg}", line=lineno) from exc
    if not records:
        raise CorpusError("empty corpus file")

    lineno, header = records[0]
    if not isinstance(header, dict) or not {"word", "category", "senses"} <= header.keys():
        raise CorpusError("header must declare word, category and senses", line=lineno)
    word = header["word"]
    category = header["category"]
    senses = header["senses"]
    if not isinstance(word, str) or not word:
        raise CorpusError("word must be a non-empty string", line=lineno)
    if category not in CATEGORIES:
        raise CorpusError(f"unknown category {category!r}", line=lineno)
    if not isinstance(senses, list) or not all(isinstance(s, str) and s for s in senses):
        raise CorpusError("senses must be a list of non-empty strings", line=lineno)

    instances = []
    for lineno, rec in records[1:]:
        instances.append(_parse_instance(rec, lineno, category, senses))
    try:
        return WordSample(word, category, tuple(instances), tuple(senses))
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc


def _parse_instance(rec, lineno, category, senses) -> Instance:
    if not isinstance(rec, dict) or "tokens" not in rec or "target" not in rec:
        raise CorpusError("instance record must carry tokens and target", line=lineno)
    raw_tokens = rec["tokens"]
    if not isinstance(raw_tokens, list) or not raw_tokens:
        raise CorpusError("tokens must be a non-empty array", line=lineno)
    tokens = []
    for pair in raw_tokens:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise CorpusError("each token must be a [text, pos] pair", line=lineno)
        try:
            tokens.append(Token(pair[0], pair[1]))
        except ValueError as exc:
            raise CorpusError(str(exc), line=lineno) from exc
    target = rec["target"]
    if not isinstance(target, int) or isinstance(target, bool):
        raise CorpusError("target must be an integer", line=lineno)
    if not 0 <= target < len(tokens):
        raise CorpusError("target index out of range", line=lineno)
    morph = rec.get("morph", "")
    if not isinstance(morph, str):
        raise CorpusError("morph must be a string", line=lineno)
    if category in MORPH_CATEGORIES and not morph:
        raise CorpusError(f"missing morph tag for {category}", line=lineno)
    sense = rec.get("sense")
    if sense is not None:
        if not isinstance(sense, str):
            raise CorpusError("sense must be a string", line=lineno)
        if sense not in senses:
            raise CorpusError(f"sense {sense!r} not in declared inventory", line=lineno)
    return Instance(tuple(tokens), target, morph, sense)


def dumps_corpus(sample: WordSample) -> str:
    """Serialize a sample to the corpus format; inverse of load_corpus, byte-exact."""
    out = [
        _dumps(
            {
                "word": sample.word,
                "category": sample.category,
                "senses": list(sample.sense_inventory),
            }
        )
    ]
    for inst in sample.instances:
        rec = {
            "tokens": [[t.text, t.pos] for t in inst.tokens],
            "target": inst.target_index,
            "morph": inst.morph,
        }
        if inst.gold_sense is not None:
            rec["sense"] = inst.gold_sense
        out.append(_dumps(rec))
    return "\n".join(out) + "\n"


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def save_corpus(sample: WordSample, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_corpus(sample))


def sense_distribution(sample: WordSample) -> dict[str, float]:
    """Proportion of each inventory sense among the gold tags, in inventory order."""
    if sample.n == 0:
        raise ValueError("sample has no instances")
    counts = {s: 0 for s in sample.sense_inventory}
    for i, inst in enumerate(sample.instances):
        if inst.gold_sense is None:
            raise ValueError(f"instance {i} has no gold sense")
        counts[inst.gold_sense] += 1
    return {s: c / sample.n for s, c in counts.items()}
