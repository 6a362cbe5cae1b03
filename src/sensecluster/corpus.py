"""Instance data model and corpus file I/O.

A corpus file holds every occurrence of one ambiguous word. It is
line-delimited JSON (UTF-8, LF endings): the first record declares the
word, its part-of-speech category and the ordered sense inventory; each
following record is one occurrence with its tokenized, POS-tagged
sentence, the target position, a morphology tag and an optional gold
sense used only for evaluation.

Every corpus rule lives in the value types: ``Token``, ``Instance`` and
``WordSample`` raise ``ValueError`` for any value a corpus file may not
hold, so a sample built in code passes the same checks as one read from
a file. ``load_corpus`` only parses the JSON shapes and adds the line of
the record a rule rejects.

This module owns the word categories: ``CATEGORIES`` in the order reports
list them, and ``MORPH_CATEGORIES``, those whose instances carry a morph
tag (adjectives carry none, so their feature sets have no M feature).
"""

import json
from dataclasses import dataclass, replace

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
        if not (isinstance(self.text, str) and isinstance(self.pos, str)):
            raise ValueError("each token must be a [text, pos] pair")
        if not self.text:
            raise ValueError("empty token text")
        self.text.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
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
    clusters. ``target_index`` is a Python ``int`` (not a bool), as the
    corpus file holds it.
    """

    tokens: tuple[Token, ...]
    target_index: int
    morph: str = ""
    gold_sense: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("tokens must be a non-empty array")
        if not all(isinstance(t, Token) for t in self.tokens):
            raise ValueError("each token must be a Token")
        if not isinstance(self.target_index, int) or isinstance(self.target_index, bool):
            raise ValueError("target must be an integer")
        if not 0 <= self.target_index < len(self.tokens):
            raise ValueError("target index out of range")
        if not isinstance(self.morph, str):
            raise ValueError("morph must be a string")
        if self.gold_sense is not None and not isinstance(self.gold_sense, str):
            raise ValueError("sense must be a string")
        self.morph.encode("utf-8")  # a gold sense must be one of the sample's checked senses

    @property
    def target(self) -> Token:
        return self.tokens[self.target_index]


@dataclass(frozen=True)
class WordSample:
    """All instances of one ambiguous word plus its sense inventory.

    The inventory is a list or tuple of strings, held as a tuple.
    Immutable after construction and safe to share across threads.
    """

    word: str
    category: str
    instances: tuple[Instance, ...]
    sense_inventory: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.word, str) or not self.word:
            raise ValueError("word must be a non-empty string")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        senses = self.sense_inventory
        if not isinstance(senses, (list, tuple)) or not all(isinstance(s, str) and s for s in senses):
            raise ValueError("senses must be a list of non-empty strings")
        for text in (self.word, *senses):
            text.encode("utf-8")
        if len(senses) < 2:
            raise ValueError("sense inventory must declare at least 2 senses")
        if len(set(senses)) != len(senses):
            raise ValueError("duplicate sense in inventory")
        object.__setattr__(self, "sense_inventory", tuple(senses))
        object.__setattr__(self, "instances", tuple(self.instances))
        for i, inst in enumerate(self.instances):
            try:
                self.check_instance(inst)
            except ValueError as exc:
                raise ValueError(f"instance {i}: {exc}") from None

    def check_instance(self, inst: Instance) -> None:
        """Raise ``ValueError`` unless ``inst`` fits this sample.

        It needs a morph tag if the category has them, and its gold sense,
        if any, must be in the inventory. ``load_corpus`` checks each
        record through this, and the constructor checks every instance.
        """
        if self.category in MORPH_CATEGORIES and not inst.morph:
            raise ValueError(f"missing morph tag for {self.category}")
        if inst.gold_sense is not None and inst.gold_sense not in self.sense_inventory:
            raise ValueError(f"sense {inst.gold_sense!r} not in declared inventory")

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def k(self) -> int:
        return len(self.sense_inventory)


def load_corpus(path) -> WordSample:
    """Read a corpus file; instance order follows file order.

    The value types check every corpus rule; a value one rejects becomes
    a ``CorpusError`` naming the line of its record.
    """
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
    instances = []
    try:
        if not isinstance(header, dict) or not {"word", "category", "senses"} <= header.keys():
            raise ValueError("header must declare word, category and senses")
        sample = WordSample(header["word"], header["category"], (), header["senses"])
        for lineno, rec in records[1:]:
            if not isinstance(rec, dict) or not {"tokens", "target"} <= rec.keys():
                raise ValueError("instance record must carry tokens and target")
            if not isinstance(rec["tokens"], list):
                raise ValueError("tokens must be a non-empty array")
            tokens = []
            for pair in rec["tokens"]:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ValueError("each token must be a [text, pos] pair")
                tokens.append(Token(*pair))
            inst = Instance(tokens, rec["target"], rec.get("morph", ""), rec.get("sense"))
            sample.check_instance(inst)
            instances.append(inst)
    except ValueError as exc:
        raise CorpusError(str(exc), line=lineno) from exc
    return replace(sample, instances=instances)


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
