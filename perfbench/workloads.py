"""Benchmark workloads and their seeded corpus generator.

Corpora come from ``demo/make_corpora.build`` (the demo's generator),
fed with this module's cue pools so that words can have up to seven
senses. Every corpus is a pure function of the benchmark seed, the
workload and the word, so the same seed always gives the same files.
"""

import hashlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One pool of sense-specific context words per sense slot. A word with k
# senses uses k consecutive pools, starting at a per-word offset.
CUE_POOLS = (
    ("medicine", [("fda", "noun"), ("approved", "verb"), ("maker", "noun"),
                  ("generic", "adjective"), ("dose", "noun"), ("patients", "noun")]),
    ("crime", [("police", "noun"), ("seized", "verb"), ("illegal", "adjective"),
               ("street", "noun"), ("dealer", "noun"), ("trade", "noun")]),
    ("law", [("court", "noun"), ("judge", "noun"), ("ruled", "verb"),
             ("appeal", "noun"), ("legally", "adverb"), ("case", "noun")]),
    ("sport", [("coach", "noun"), ("scored", "verb"), ("season", "noun"),
               ("team", "noun"), ("quickly", "adverb"), ("league", "noun")]),
    ("money", [("bank", "noun"), ("lent", "verb"), ("interest", "noun"),
               ("fiscal", "adjective"), ("loan", "noun"), ("debt", "noun")]),
    ("weather", [("storm", "noun"), ("rained", "verb"), ("cold", "adjective"),
                 ("winter", "noun"), ("heavily", "adverb"), ("wind", "noun")]),
    ("music", [("band", "noun"), ("played", "verb"), ("loud", "adjective"),
               ("song", "noun"), ("album", "noun"), ("stage", "noun")]),
)


@dataclass(frozen=True)
class WordSpec:
    word: str
    category: str
    n: int
    k: int
    majority: float = 0.65


# Every EM fit runs exactly this many iterations (the config sets tol = 0),
# so the work of a run does not depend on how quickly a seed converges.
EM_ITERATIONS = 60

# traced functions each algorithm must call, beside those every run calls
_ALWAYS = frozenset({
    "runner.run",
    "corpus.load_corpus",
    "features.build_schema",
    "features.extract",
    "evaluate.confusion_from_labels",
    "evaluate.best_mapping",
    "evaluate.not_significantly_below",
})
_BY_ALGORITHM = {
    "mcquitty": {"dissim.build", "agglom.mcquitty"},
    "ward": {"dissim.build", "dissim.row_vectors", "agglom.ward"},
    "em": {"em.fit", "em.e_step"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    words: tuple[WordSpec, ...]
    feature_sets: tuple[str, ...]
    algorithms: tuple[str, ...]
    trials: int

    @property
    def trials_total(self) -> int:
        return len(self.words) * len(self.feature_sets) * len(self.algorithms) * self.trials

    @property
    def expected(self) -> frozenset:
        """Traced functions that must record calls on this workload."""
        return _ALWAYS.union(*(_BY_ALGORITHM[a] for a in self.algorithms))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            (
                WordSpec("drug", "noun", 140, 2),
                WordSpec("line", "noun", 120, 7, majority=0.4),
                WordSpec("agree", "verb", 90, 3),
                WordSpec("serve", "verb", 110, 4, majority=0.5),
                WordSpec("chief", "adjective", 50, 2, majority=0.75),
                WordSpec("common", "adjective", 70, 3),
            ),
            ("A", "B", "C"),
            ("mcquitty", "ward", "em"),
            3,
        ),
        Workload(
            "agglom-large",
            (WordSpec("bank", "noun", 600, 2),),
            ("A", "B"),
            ("mcquitty", "ward"),
            1,
        ),
    )
}


def _load_demo_builder():
    path = ROOT / "demo" / "make_corpora.py"
    spec = importlib.util.spec_from_file_location("make_corpora", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build


def word_seed(seed: int, workload: str, word: str) -> int:
    key = f"{seed}\x1f{workload}\x1f{word}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's corpora and experiment config; return the config path."""
    from sensecluster.corpus import save_corpus

    build = _load_demo_builder()
    directory.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(workload.words):
        pools = [CUE_POOLS[(i + s) % len(CUE_POOLS)] for s in range(spec.k)]
        senses = tuple(name for name, _ in pools)
        sample = build(
            spec.word,
            spec.category,
            senses,
            dict(pools),
            spec.n,
            word_seed(seed, workload.name, spec.word),
            spec.majority,
        )
        save_corpus(sample, directory / f"{spec.word}.jsonl")
    corpora = "\n".join(f"{s.word} = {s.word}.jsonl" for s in workload.words)
    config = directory / "experiment.ini"
    config.write_text(
        "[experiment]\n"
        f"feature_sets = {' '.join(workload.feature_sets)}\n"
        f"algorithms = {' '.join(workload.algorithms)}\n"
        f"trials = {workload.trials}\n"
        f"seed = {seed}\n"
        "output = results\n"
        f"\n[em]\nmax_iter = {EM_ITERATIONS}\ntol = 0\n"
        f"\n[corpora]\n{corpora}\n",
        encoding="utf-8",
    )
    return config
