"""Config-driven experiment runner.

The unit of work is one (word, feature set): its features and, when an
agglomerative method is configured, its mismatch matrix are built once
and shared by every configured algorithm. Each algorithm executes a
fixed number of independently seeded trials, maps each trial's clusters
to the gold senses, and the runner writes per-trial results, a
mean-and-std table, and confusion matrices for a designated trial. The
table's per-category and overall rows are ``evaluate.category_rollup``
of each column. All outputs are written in one pass over the cells, in
grid order. Trial seeds are derived from the master seed
and the (word, set, algorithm, trial) key, so every cell is
reproducible in isolation and results are identical at any parallelism
level.
"""

import configparser
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from . import agglom, dissim, em
from .corpus import WordSample, load_corpus
from .evaluate import (
    CATEGORY_ORDER,
    TrialReport,
    aggregate,
    best_mapping,
    category_rollup,
    confusion_from_labels,
    format_confusion,
    majority_classifier,
    not_significantly_below,
)
from .features import FEATURE_SETS, build_schema, extract, load_stopwords

ALGORITHMS = ("mcquitty", "ward", "em")


@dataclass
class ExperimentConfig:
    corpora: dict[str, str]
    feature_sets: tuple[str, ...] = ("A", "B", "C")
    algorithms: tuple[str, ...] = ALGORITHMS
    trials: int = 25
    seed: int = 0
    em_max_iter: int = 1000
    em_tol: float = 1e-6
    stopwords_path: str | None = None
    output_dir: str = "results"
    report_trial: int = 0
    dump_clusters: bool = False

    def __post_init__(self):
        self.feature_sets = tuple(s.upper() for s in self.feature_sets)
        self.algorithms = tuple(a.lower() for a in self.algorithms)
        if not self.corpora:
            raise ValueError("config names no corpora")
        for kind, names, known in (
            ("feature set", self.feature_sets, FEATURE_SETS),
            ("algorithm", self.algorithms, ALGORITHMS),
        ):
            if not names:
                raise ValueError(f"config names no {kind}s")
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}")
            if len(set(names)) < len(names):
                raise ValueError(f"duplicate {kind} in {' '.join(names)}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.report_trial < self.trials:
            raise ValueError("report_trial must name one of the trials")


# (section, key) -> (ExperimentConfig field, reader of the value text); a
# value read as a Path resolves against the config file's directory
_CONFIG_KEYS = {
    ("experiment", "feature_sets"): ("feature_sets", str.split),
    ("experiment", "algorithms"): ("algorithms", str.split),
    ("experiment", "trials"): ("trials", int),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "output"): ("output_dir", Path),
    ("experiment", "report_trial"): ("report_trial", int),
    ("em", "max_iter"): ("em_max_iter", int),
    ("em", "tol"): ("em_tol", float),
    ("stopwords", "path"): ("stopwords_path", Path),
}
_CONFIG_SECTIONS = {"corpora"} | {section for section, _ in _CONFIG_KEYS}


def load_config(path) -> ExperimentConfig:
    """Read the declarative INI config; relative paths resolve against it.

    Every section other than ``[corpora]`` (one ``word = path`` per corpus)
    is read through ``_CONFIG_KEYS``; an unknown section or key is an error.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    base = Path(path).resolve().parent

    if parser.defaults():  # they would leak into [corpora] as words
        raise ValueError("unknown config section [DEFAULT]")
    if "corpora" not in parser:
        raise ValueError("config must have a [corpora] section")
    corpora = {w: str((base / p).resolve()) for w, p in parser["corpora"].items()}
    kwargs = {"corpora": corpora}
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        if section == "corpora":
            continue
        for key, text in parser[section].items():
            if (section, key) not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key [{section}] {key}")
            name, reader = _CONFIG_KEYS[section, key]
            try:
                value = reader(text)
            except ValueError as exc:
                raise ValueError(f"config key [{section}] {key}: {exc}") from None
            kwargs[name] = str((base / value).resolve()) if isinstance(value, Path) else value
    return ExperimentConfig(**kwargs)


def trial_seed(master: int, word: str, set_id: str, algorithm: str, trial: int) -> int:
    """Stable 64-bit seed for one trial, independent of all other trials."""
    key = f"{master}\x1f{word}\x1f{set_id}\x1f{algorithm}\x1f{trial}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


@dataclass
class CellResult:
    word: str
    set_id: str
    algorithm: str
    reports: list = field(default_factory=list)
    assignments: list = field(default_factory=list)
    error: str | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return self.word, self.set_id, self.algorithm


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_unit(
    config: ExperimentConfig, word: str, sample: WordSample, set_id: str
) -> list[CellResult]:
    """Run every configured algorithm on one (word, feature set), in config order.

    A failure while building the shared features fails every cell; a
    failure while building the mismatch matrix fails each agglomerative
    cell; a failure in one algorithm's trials fails only its own cell.
    """
    cells = [CellResult(word, set_id, alg) for alg in config.algorithms]
    try:
        stop = load_stopwords(config.stopwords_path) if config.stopwords_path else None
        matrix = extract(sample, build_schema(sample, set_id, stop))
        have_gold = all(inst.gold_sense is not None for inst in sample.instances)
        if not have_gold and not config.dump_clusters:
            raise ValueError(
                "corpus has untagged instances; evaluation needs gold senses "
                "(use --dump-clusters for the untagged workflow)"
            )
    except Exception as exc:  # reported per cell; other units keep running
        for cell in cells:
            cell.error = _error_text(exc)
        return cells

    gold = [inst.gold_sense for inst in sample.instances]
    d = None
    for cell in cells:
        alg = cell.algorithm
        try:
            if alg != "em" and d is None:
                d = dissim.build(matrix)
            # Ward's float64 copy of d lives only while Ward runs
            points = dissim.row_vectors(d) if alg == "ward" else None
            for t in range(config.trials):
                seed = trial_seed(config.seed, word, set_id, alg, t)
                if alg == "mcquitty":
                    assignment = agglom.mcquitty(d, sample.k, seed).assignment
                elif alg == "ward":
                    assignment = agglom.ward(points, sample.k, seed).assignment
                else:
                    assignment = em.fit(
                        matrix, sample.k, seed, config.em_max_iter, config.em_tol
                    ).assignment
                if config.dump_clusters:
                    cell.assignments.append(assignment)
                if have_gold:
                    cm = confusion_from_labels(gold, assignment, sample.sense_inventory, sample.k)
                    mapping, agreement = best_mapping(cm)
                    cell.reports.append(
                        TrialReport(word, set_id, alg, t, seed, agreement / sample.n, mapping, cm)
                    )
        except Exception as exc:  # reported per cell; other cells keep running
            cell.error = _error_text(exc)
    return cells


def _fmt3(x: float) -> str:
    return f"{x:.3f}".lstrip("0") or "0"


def _fmt2(x: float) -> str:
    return f"{x:.2f}".lstrip("0") or "0"


def _rollup_text(x) -> str:
    return "-" if x is None else _fmt3(x)


def _summary_table(config, samples, cells, stats) -> str:
    """The mean-and-std table; ``stats`` holds each evaluated cell's aggregate."""
    columns = [(s, a) for s in config.feature_sets for a in config.algorithms]
    failed = {cell.key for cell in cells if cell.error is not None}

    maj = {}
    categories = {}
    for word, sample in samples.items():
        categories[word] = sample.category
        try:
            maj[word] = majority_classifier(sample)[1]
        except ValueError:
            pass

    # per word: the best experiment and those not significantly below it
    accuracies = {cell.key: [r.accuracy for r in cell.reports] for cell in cells}
    marked = set()
    for word in samples:
        per_word = {(s, a): accuracies[word, s, a] for s, a in columns if (word, s, a) in stats}
        marked.update((word, s, a) for s, a in not_significantly_below(per_word))

    def cell_text(key):
        agg = stats.get(key)
        if agg is None:
            return "FAILED" if key in failed else "-"
        mark = "*" if key in marked else ""
        return f"{_fmt3(agg.mean)}±{_fmt2(agg.std)}{mark}"

    header = ["word", "Maj"] + [f"{s}/{a}" for s, a in columns]
    rows = [header]
    # per column (Maj first): the category and overall means of the words
    # that have a value in it; a column with no values reads "-"
    column_values = [maj] + [
        {w: stats[w, s, a].mean for w in samples if (w, s, a) in stats} for s, a in columns
    ]
    rollups = [category_rollup(v, categories) if v else ({}, None) for v in column_values]
    for cat in CATEGORY_ORDER:
        words = [w for w in samples if categories[w] == cat]
        if not words:
            continue
        for word in words:
            rows.append(
                [word, _fmt3(maj[word]) if word in maj else "-"]
                + [cell_text((word, s, a)) for s, a in columns]
            )
        rows.append([cat] + [_rollup_text(means.get(cat)) for means, _ in rollups])
    rows.append(["overall"] + [_rollup_text(overall) for _, overall in rollups])

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        line = row[0].ljust(widths[0])
        for i, cell in enumerate(row[1:], start=1):
            line += "  " + cell.rjust(widths[i])
        lines.append(line.rstrip())
    lines.append("")
    lines.append("* best experiment for the word, or not significantly below it (t test, p=.01)")
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig, jobs: int = 1) -> int:
    """Execute every cell of the experiment grid; returns the process exit code.

    Per-cell failures are reported on stderr and yield exit code 1, but
    never stop the other cells.
    """
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    samples = {}
    preload_errors = {}
    for word, path in config.corpora.items():
        try:
            samples[word] = load_corpus(path)
        except Exception as exc:
            preload_errors[word] = _error_text(exc)

    units = [(w, sample, s) for w, sample in samples.items() for s in config.feature_sets]
    if jobs > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_unit = list(pool.map(_run_unit, repeat(config), *zip(*units)))
    else:
        per_unit = [_run_unit(config, *unit) for unit in units]
    cells = [cell for unit_cells in per_unit for cell in unit_cells]

    failed = [(word, "*", "*", err) for word, err in preload_errors.items()]
    stats = {}
    results_lines = ["word,set,algorithm,trial,seed,accuracy,n,k"]
    agg_lines = ["word,set,algorithm,trials,mean,std"]
    confusion_dir = outdir / "confusion"
    assign_dir = outdir / "assignments"
    if config.dump_clusters:
        assign_dir.mkdir(exist_ok=True)
    for cell in cells:
        if cell.error is not None:
            failed.append((*cell.key, cell.error))
            continue
        sample = samples[cell.word]
        for rep in cell.reports:
            results_lines.append(
                f"{rep.word},{rep.feature_set},{rep.algorithm},{rep.trial},"
                f"{rep.seed},{rep.accuracy!r},{sample.n},{sample.k}"
            )
        if cell.reports:
            agg = stats[cell.key] = aggregate(cell.reports)
            agg_lines.append(f"{','.join(cell.key)},{agg.trials},{agg.mean!r},{agg.std!r}")
            confusion_dir.mkdir(exist_ok=True)
            rep = cell.reports[config.report_trial]
            text = format_confusion(rep.confusion, rep.mapping, cell.algorithm)
            (confusion_dir / f"{'_'.join(cell.key)}.txt").write_text(text, encoding="utf-8")
        for t, assignment in enumerate(cell.assignments):
            text = " ".join(str(int(c)) for c in assignment) + "\n"
            (assign_dir / f"{'_'.join(cell.key)}_t{t}.txt").write_text(text, encoding="utf-8")
    (outdir / "results.csv").write_text("\n".join(results_lines) + "\n", encoding="utf-8")
    (outdir / "aggregates.csv").write_text("\n".join(agg_lines) + "\n", encoding="utf-8")
    (outdir / "summary.txt").write_text(
        _summary_table(config, samples, cells, stats), encoding="utf-8"
    )

    for word, set_id, alg, err in failed:
        print(f"cell ({word}, {set_id}, {alg}) failed: {err}", file=sys.stderr)
    return 1 if failed else 0
