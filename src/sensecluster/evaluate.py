"""Scoring discovered clusters against gold senses.

Discovered clusters carry no sense labels, so accuracy is measured after
mapping clusters to senses in the way that maximizes agreement with the
gold tags (an exact dynamic program over subsets of the larger index set,
up to 12 senses or clusters). Also provided: the majority-class baseline,
multi-trial mean/std aggregation, per-category rollups and a pooled
two-sample t test for comparing algorithms.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import betainc

from .corpus import WordSample, sense_distribution

MAPPING_LIMIT = 12

CATEGORY_ORDER = ("adjective", "noun", "verb")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Gold senses (rows) against discovered clusters (columns)."""

    senses: tuple[str, ...]
    clusters: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "clusters", tuple(self.clusters))
        if arr.shape != (len(self.senses), len(self.clusters)):
            raise ValueError("counts shape does not match labels")
        if arr.size and arr.min() < 0:
            raise ValueError("counts must be non-negative")

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def confusion_from_labels(gold, assignment, senses, n_clusters=None) -> ConfusionMatrix:
    """Tabulate gold sense labels against cluster indices."""
    senses = tuple(senses)
    assignment = np.asarray(assignment)
    if len(gold) != assignment.size:
        raise ValueError("gold labels and assignment differ in length")
    if n_clusters is None:
        n_clusters = int(assignment.max()) + 1 if assignment.size else 0
    index = {s: i for i, s in enumerate(senses)}
    counts = np.zeros((len(senses), n_clusters), dtype=np.int64)
    for label, cluster in zip(gold, assignment):
        counts[index[label], int(cluster)] += 1
    return ConfusionMatrix(senses, tuple(str(c) for c in range(n_clusters)), counts)


def best_mapping(cm: ConfusionMatrix) -> tuple[dict[int, int], int]:
    """Injective cluster-to-sense map with maximum total agreement.

    The smaller of the two index sets is mapped into the larger; clusters
    left unmapped contribute no agreement. Among equally good maps the
    lexicographically smallest assignment tuple wins. Exact by dynamic
    programming over the subsets of the larger side already used, so
    both side sizes are capped at ``MAPPING_LIMIT``.
    """
    counts = cm.counts
    n_senses, n_clusters = counts.shape
    if n_senses > MAPPING_LIMIT or n_clusters > MAPPING_LIMIT:
        raise ValueError(f"mapping search supports at most {MAPPING_LIMIT} senses/clusters")
    if n_senses == 0 or n_clusters == 0:
        return {}, 0

    # gain[p][t]: agreement of mapping position p of the smaller side to
    # target t of the larger side
    by_cluster = n_clusters <= n_senses
    gain = (counts.T if by_cluster else counts).tolist()
    targets = range(len(gain[0]))

    @cache
    def best_rest(used: int) -> int:
        """Best agreement over the positions not yet mapped, when the first
        popcount(used) positions have taken the targets in bit set ``used``."""
        position = used.bit_count()
        if position == len(gain):
            return 0
        row = gain[position]
        return max(row[t] + best_rest(used | 1 << t) for t in targets if not used >> t & 1)

    # forward read-out: at each position the smallest target that keeps
    # the optimum, giving the lexicographically smallest optimal tuple
    best = remaining = best_rest(0)
    used = 0
    chosen = []
    for row in gain:
        t = next(
            t for t in targets
            if not used >> t & 1 and row[t] + best_rest(used | 1 << t) == remaining
        )
        chosen.append(t)
        remaining -= row[t]
        used |= 1 << t
    if by_cluster:
        return dict(enumerate(chosen)), best
    return {c: s for s, c in enumerate(chosen)}, best


def majority_classifier(sample: WordSample) -> tuple[str, float]:
    """The modal gold sense and its proportion; inventory order breaks ties."""
    dist = sense_distribution(sample)
    best_sense, best_prop = None, -1.0
    for sense in sample.sense_inventory:
        if dist[sense] > best_prop:
            best_sense, best_prop = sense, dist[sense]
    return best_sense, best_prop


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one seeded trial of one word/feature-set/algorithm cell."""

    word: str
    feature_set: str
    algorithm: str
    trial: int
    seed: int
    accuracy: float
    mapping: dict[int, int]
    confusion: ConfusionMatrix


@dataclass(frozen=True)
class AggregateReport:
    mean: float
    std: float
    trials: int


def aggregate(trials) -> AggregateReport:
    """Mean and sample standard deviation of trial accuracies.

    Accepts TrialReports or bare accuracy values. A single trial has no
    spread; its std is reported as 0.
    """
    values = [t.accuracy if isinstance(t, TrialReport) else float(t) for t in trials]
    if not values:
        raise ValueError("no trials to aggregate")
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        std = 0.0
    else:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return AggregateReport(mean, std, n)


def category_rollup(values: dict[str, float], categories: dict[str, str]):
    """Unweighted per-category means and their unweighted overall mean.

    Each word contributes equally inside its category and each category
    contributes equally to the overall figure, regardless of word or
    instance counts.
    """
    if not values:
        raise ValueError("no values to roll up")
    groups: dict[str, list[float]] = {}
    for word, value in values.items():
        try:
            cat = categories[word]
        except KeyError:
            raise ValueError(f"no category for word {word!r}") from None
        if cat not in CATEGORY_ORDER:
            raise ValueError(f"unknown category {cat!r}")
        groups.setdefault(cat, []).append(value)
    cat_means = {
        cat: math.fsum(groups[cat]) / len(groups[cat])
        for cat in CATEGORY_ORDER
        if cat in groups
    }
    overall = math.fsum(cat_means.values()) / len(cat_means)
    return cat_means, overall


def not_significantly_below(samples: dict, alpha: float = 0.01) -> set:
    """Keys whose trial sample leads by mean, or is not significantly below the leader.

    ``samples`` maps a key (e.g. a feature-set/algorithm pair) to its list
    of per-trial accuracies. The leader is the highest-mean key; every key
    whose sample does not test significantly different from the leader's
    (pooled two-tailed t, ``alpha``) is included. Single-trial samples
    carry no spread and are only included when they lead.
    """
    means = {k: math.fsum(v) / len(v) for k, v in samples.items() if v}
    if not means:
        return set()
    best = max(means, key=means.get)
    marked = set()
    for key, values in samples.items():
        if not values:
            continue
        if means[key] == means[best]:
            marked.add(key)
            continue
        if len(values) < 2 or len(samples[best]) < 2:
            continue
        if not t_test(samples[best], values, alpha).significant:
            marked.add(key)
    return marked


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant: bool


def t_test(a, b, alpha: float = 0.01) -> TTestResult:
    """Two-tailed pooled-variance Student t test on two accuracy samples.

    p comes from the regularized incomplete beta function with
    df = len(a) + len(b) - 2. Degenerate spread is handled explicitly:
    identical means with zero pooled variance give t=0, p=1; distinct
    means with zero pooled variance are reported as significant with p=0.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least 2 values")
    na, nb = len(a), len(b)
    ma = math.fsum(a) / na
    mb = math.fsum(b) / nb
    ssa = math.fsum((x - ma) ** 2 for x in a)
    ssb = math.fsum((x - mb) ** 2 for x in b)
    df = na + nb - 2
    pooled = (ssa + ssb) / df
    if pooled == 0.0:
        if ma == mb:
            return TTestResult(0.0, 1.0, False)
        t = math.inf if ma > mb else -math.inf
        return TTestResult(t, 0.0, True)
    t = (ma - mb) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t, p, p < alpha)


def format_confusion(cm: ConfusionMatrix, mapping=None, algorithm=None) -> str:
    """Render with row/column margins and a ``<algorithm> - <n> correct`` caption.

    When a cluster-to-sense mapping is given, discovered columns are
    headed by their mapped sense names and the caption reports the
    mapped agreement count.
    """
    col_names = []
    for c, label in enumerate(cm.clusters):
        if mapping is not None and c in mapping:
            col_names.append(cm.senses[mapping[c]])
        else:
            col_names.append(label)
    row_names = list(cm.senses)
    label_width = max(len(s) for s in row_names + ["actual"]) + 2
    cols = cm.counts.sum(axis=0)
    rows = cm.counts.sum(axis=1)
    widths = [
        max(len(col_names[c]), len(str(int(cols[c])))) + 2 for c in range(len(col_names))
    ]
    total_width = max(len(str(cm.n)), 5) + 2

    def fmt_row(label, cells, total):
        out = label.ljust(label_width)
        for w, cell in zip(widths, cells):
            out += str(cell).rjust(w)
        out += str(total).rjust(total_width)
        return out

    lines = [label_width * " " + "discovered".rjust(sum(widths))]
    lines.append(fmt_row("actual", col_names, ""))
    for s, name in enumerate(row_names):
        lines.append(fmt_row(name, [int(v) for v in cm.counts[s]], int(rows[s])))
    lines.append(fmt_row("", [int(v) for v in cols], cm.n))
    if algorithm is not None:
        agreement = None
        if mapping is not None:
            agreement = sum(int(cm.counts[sense, c]) for c, sense in mapping.items())
        else:
            _, agreement = best_mapping(cm)
        lines.append("")
        lines.append(f"{algorithm} - {agreement} correct")
    return "\n".join(lines) + "\n"
