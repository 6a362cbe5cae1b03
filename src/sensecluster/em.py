"""EM estimation of a Naive Bayes mixture over nominal features.

The class of each observation is a latent nominal variable; all observed
features are conditionally independent given it. Parameters are the
class weights P(s) and, per feature j, the joint table P(s, f_j = v).
The posterior of one observation y factorises as

    P(s | y)  proportional to  prod_j P(s, y_j) / P(s)^(q-1)

which the E-step turns into expected marginal counts; the M-step divides
those counts by the sample size. Per-observation likelihoods are
computed in log space, and every stored probability is floored at 1e-12
and renormalized so no component can collapse to an undefined state.

All joint tables, all expected value counts and a generated sample's
emission probabilities are held in one table with a row per (feature,
value) pair and a column per class; feature j owns rows ``offsets[j]``
to ``offsets[j + 1]`` (``FeatureSchema.offsets``). It is the only layout
the module builds, reads or returns: every value rejects a table whose
shape is not ``(offsets[-1], k)``, and ``e_step`` and ``format_result``
reject parameters laid out by other offsets than the schema's.
``FeatureMatrix.table_rows`` maps every observed value to its row, so the
E-step is one gather summed over features and the expected counts are
one weighted ``np.bincount``.

Every sum adds its terms in the same order as a table-per-feature
implementation (kept in tests/reference_em.py), so the results match it
bit for bit. The rule: elementwise work and exact reductions (maxima,
tie counts) may take any layout, but a float sum keeps the reference's
memory order, as numpy adds 8 or more contiguous terms pairwise. So the
normalizer (scipy.special.logsumexp's formula) takes row maxima, tie
counts and exponentials on a class-major (k, n) copy and sums the
exponentials along the rows of a C-ordered (n, k) copy; the feature
slabs are added in turn; and the M-step takes one sum per distinct
cardinality along the rows of its features' gathered blocks, each row
one feature's (cardinality, k) block in C order, as a per-feature table.
``em_iter_us`` in BENCH_stages.json: 143 µs on set A at N = 600, k = 2.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._value import ArrayValue
from .features import FeatureMatrix, FeatureSchema

PROB_FLOOR = 1e-12
# the paper's stopping rule, the default of every EM entry point
DEFAULT_MAX_ITER = 1000
DEFAULT_TOL = 1e-6


def _blocks(offsets: tuple[int, ...]):
    """Each feature's row slice of a stacked table, in feature order."""
    return map(slice, offsets[:-1], offsets[1:])


def _layout(table: np.ndarray, offsets, k: int) -> tuple[int, ...]:
    """``offsets`` as a tuple, if ``table`` is laid out by it for k classes."""
    offsets = tuple(offsets)
    if not offsets or offsets[0] != 0 or table.shape != (offsets[-1], k):
        raise ValueError(f"table of shape {table.shape} does not match offsets {offsets}, k={k}")
    return offsets


def _check_k(k) -> None:
    """Reject a class count that is not an integer (a bool is not one) or is below 1."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")


@dataclass(frozen=True, eq=False)
class NaiveBayesParams(ArrayValue):
    """Mixture weights and the joint tables P(s, f_j = v).

    ``table[offsets[j] + v, s]`` holds P(s, f_j = v); the table must have
    ``offsets[-1]`` rows, ``offsets[0]`` must be 0, and ``offsets`` is held
    as a tuple. Holds its own read-only copies of ``priors`` and ``table``;
    equal by value and unhashable.
    """

    priors: np.ndarray
    table: np.ndarray
    offsets: tuple[int, ...]

    def __post_init__(self):
        priors = self._hold("priors", np.float64)
        table = self._hold("table", np.float64)
        object.__setattr__(self, "offsets", _layout(table, self.offsets, priors.size))

    @property
    def k(self) -> int:
        return self.priors.size

    def validate(self, tol: float = 1e-9) -> None:
        """Check the normalization and margin identities."""
        if abs(self.priors.sum() - 1.0) > tol:
            raise ValueError("priors do not sum to 1")
        for j, rows in enumerate(_blocks(self.offsets)):
            table = self.table[rows]
            if abs(table.sum() - 1.0) > tol:
                raise ValueError(f"joint table {j} does not sum to 1")
            if np.abs(table.sum(axis=0) - self.priors).max() > tol:
                raise ValueError(f"joint table {j} margins disagree with priors")

    def max_abs_diff(self, other: "NaiveBayesParams") -> float:
        delta = np.abs(self.priors - other.priors).max()
        return float(np.abs(self.table - other.table).max(initial=delta))


@dataclass(frozen=True, eq=False)
class ExpectedCounts(ArrayValue):
    """E-step output: expected class counts, per-feature marginal counts,
    the posterior matrix they were accumulated from, and the observed-data
    log-likelihood of the parameters that produced them.

    ``table`` and ``offsets`` are laid out and checked as in
    ``NaiveBayesParams``. Holds its own read-only copies of the arrays;
    equal by value and unhashable.
    """

    sense_counts: np.ndarray
    table: np.ndarray
    offsets: tuple[int, ...]
    posteriors: np.ndarray
    loglik: float

    def __post_init__(self):
        sense_counts = self._hold("sense_counts", np.float64)
        table = self._hold("table", np.float64)
        self._hold("posteriors", np.float64)
        object.__setattr__(self, "offsets", _layout(table, self.offsets, sense_counts.size))


@dataclass(frozen=True, eq=False)
class EmResult(ArrayValue):
    """A fitted mixture with its posteriors and run record. Holds its own
    read-only copies of the arrays; equal by value and unhashable."""

    params: NaiveBayesParams
    posteriors: np.ndarray
    assignment: np.ndarray
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool

    def __post_init__(self):
        self._hold("posteriors", np.float64)
        self._hold("assignment", np.int64)


def _accumulate(posteriors: np.ndarray, data: FeatureMatrix, loglik: float) -> ExpectedCounts:
    k = posteriors.shape[1]
    offsets = data.schema.offsets
    # bin (row r, class s) is r * k + s; each bin sums its rows' posteriors
    # in instance order, as a per-feature np.add.at would
    weights = np.repeat(posteriors, data.q, axis=0).ravel()
    table = np.bincount(data.table_bins(k), weights, minlength=offsets[-1] * k).reshape(-1, k)
    return ExpectedCounts(posteriors.sum(axis=0), table, offsets, posteriors, loglik)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log sum_s exp(a[:, s]) per row, by scipy.special.logsumexp's formula.

    The m entries equal to the row maximum are taken out of the sum; the
    rest are shifted by the maximum, exponentiated and summed, and the
    result is log1p(sum / m) + log(m) + max. A row that contains NaN or
    has no finite maximum comes out non-finite.
    """
    cols = np.ascontiguousarray(a.T)
    top = cols.max(axis=0)
    at_top = cols == top
    ties = at_top.sum(axis=0, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, cols) - top).T.copy().sum(axis=1) / ties
        return np.log1p(rest) + np.log(ties) + top


def e_step(params: NaiveBayesParams, data: FeatureMatrix) -> ExpectedCounts:
    """Expected sufficient statistics of the complete data under ``params``,
    which must be laid out by ``data``'s schema offsets."""
    offsets = data.schema.offsets
    if params.offsets != offsets:
        raise ValueError(f"params offsets {params.offsets} differ from data offsets {offsets}")
    # unnormalized log P(s, y_n): one (n, k) slab per feature, added in feature order
    log_joint = np.zeros((data.n, params.k))
    with np.errstate(divide="ignore"):
        for term in np.log(params.table).take(data.table_rows.T, axis=0):
            log_joint += term
        log_joint -= (data.q - 1) * np.log(params.priors)
    norms = _logsumexp_rows(log_joint)
    loglik = float(norms.sum())
    # a NaN or infinite normalizer log P(y_n) leaves the sum non-finite
    if not math.isfinite(loglik):
        raise ValueError("degenerate likelihood")
    posteriors = np.exp(log_joint - norms[:, None])
    return _accumulate(posteriors, data, loglik)


@lru_cache(maxsize=64)
def _renormalizer(offsets: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The table rows of each distinct cardinality's features, as one (features, cardinality)
    index, in increasing cardinality; and each table row's feature's place in that order."""
    cards = np.diff(offsets)
    order = np.argsort(cards, kind="stable")
    starts, sizes = np.array(offsets[:-1])[order], cards[order]
    rows = tuple(starts[sizes == c, None] + np.arange(c) for c in sorted(set(cards.tolist())))
    position = np.repeat(np.argsort(order), cards)[:, None]
    for index in (*rows, position):
        index.setflags(write=False)  # the cache hands them to every caller
    return rows, position


def m_step(counts: ExpectedCounts, n: int) -> NaiveBayesParams:
    """Maximum-likelihood parameters from expected counts, floored and renormalized."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    if abs(counts.sense_counts.sum() - n) > 1e-6:
        raise ValueError("expected class counts do not sum to the sample size")
    priors = np.maximum(counts.sense_counts / n, PROB_FLOOR)
    priors = priors / priors.sum()
    table = np.maximum(counts.table / n, PROB_FLOOR)
    # each feature's block sums on its own, as table[rows].sum() would
    blocks, position = _renormalizer(counts.offsets)
    sums = [table.take(rows, axis=0).reshape(len(rows), -1).sum(axis=1) for rows in blocks]
    table /= np.concatenate([np.empty(0), *sums])[position]
    return NaiveBayesParams(priors, table, counts.offsets)


def initial_params(data: FeatureMatrix, k: int, rng) -> NaiveBayesParams:
    """Random starting point: per-instance soft assignments drawn from a flat
    Dirichlet, pushed through one M-step."""
    posteriors = rng.dirichlet(np.ones(k), size=data.n)
    counts = _accumulate(posteriors, data, float("nan"))
    return m_step(counts, data.n)


def check_stopping_rule(max_iter: int, tol: float) -> None:
    """Reject a stopping rule EM cannot run: a ``max_iter`` that is not an
    int (a bool is not one) or is below 1, or a ``tol`` that is not a real
    number (nor a bool) or is nan or negative (0 runs exactly ``max_iter``)."""
    if not isinstance(max_iter, int) or isinstance(max_iter, bool):
        raise ValueError(f"max_iter must be an int, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not tol >= 0:
        raise ValueError(f"tol must be at least 0, got {tol}")


def fit_from(
    params: NaiveBayesParams,
    data: FeatureMatrix,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> EmResult:
    """Run EM from explicit starting parameters (see ``fit`` for the usual entry)."""
    check_stopping_rule(max_iter, tol)
    trace: list[float] = []
    converged = False
    for iterations in range(1, max_iter + 1):
        counts = e_step(params, data)
        trace.append(counts.loglik)
        new_params = m_step(counts, data.n)
        delta = params.max_abs_diff(new_params)
        params = new_params
        if delta < tol:
            converged = True
            break
    final = e_step(params, data)
    trace.append(final.loglik)
    assignment = final.posteriors.argmax(axis=1)
    return EmResult(params, final.posteriors, assignment, tuple(trace), iterations, converged)


def fit(
    data: FeatureMatrix,
    k: int,
    seed=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> EmResult:
    """Fit a k-component mixture by EM from a seeded random start.

    Stops when the largest absolute parameter change falls below ``tol``
    or after ``max_iter`` iterations; ``check_stopping_rule`` says which
    values are errors. ``loglik_trace[i]`` is the
    observed-data log-likelihood of the parameters entering iteration i;
    the final entry scores the returned parameters, which also produce
    the returned posteriors and hard assignment. A single call performs
    no restarts; run independent seeds for that.
    """
    _check_k(k)
    if data.n < 1:
        raise ValueError("data has no rows")
    rng = np.random.default_rng(seed)
    return fit_from(initial_params(data, k, rng), data, max_iter, tol)


@dataclass(frozen=True, eq=False)
class GeneratedSample(ArrayValue):
    """Synthetic draw from the mixture model, with its generating tables.

    ``emissions[offsets[j] + v, s]`` holds P(f_j = v | s), laid out and
    checked by the matrix's ``schema.offsets`` as ``NaiveBayesParams.table``
    is by its offsets. Holds its own read-only copies of the arrays; equal
    by value and unhashable.
    """

    matrix: FeatureMatrix
    labels: np.ndarray
    priors: np.ndarray
    emissions: np.ndarray

    def __post_init__(self):
        self._hold("labels", np.int64)
        priors = self._hold("priors", np.float64)
        _layout(self._hold("emissions", np.float64), self.matrix.schema.offsets, priors.size)


def generate(
    k: int,
    schema: FeatureSchema,
    n: int,
    separation: float,
    seed=None,
    priors=None,
) -> GeneratedSample:
    """Sample labelled data from a Naive Bayes mixture over ``schema``.

    Labels come from ``priors`` (uniform by default); each feature is
    drawn independently given the label. Every class gets one preferred
    value per feature and emits it with probability separation +
    (1 - separation)/cardinality, all other values uniformly; separation
    1 makes emissions deterministic, so classes with distinct preferred
    values are perfectly distinguishable.
    """
    _check_k(k)
    if not 0.0 < separation <= 1.0:
        raise ValueError("separation must be in (0, 1]")
    rng = np.random.default_rng(seed)
    if priors is None:
        priors = np.full(k, 1.0 / k)
    else:
        priors = np.asarray(priors, dtype=np.float64)
        if priors.shape != (k,) or abs(priors.sum() - 1.0) > 1e-9 or priors.min() < 0:
            raise ValueError("priors must be a length-k distribution")

    labels = rng.choice(k, size=n, p=priors)
    emissions = np.empty((schema.offsets[-1], k))
    columns = np.empty((n, schema.q), dtype=np.int64)
    for j, (feat, rows) in enumerate(zip(schema.features, _blocks(schema.offsets))):
        card = feat.cardinality
        preferred = rng.permutation(card)
        table = emissions[rows]
        table[:] = (1.0 - separation) / card
        for s in range(k):
            table[preferred[s % card], s] += separation
            mask = labels == s
            count = int(mask.sum())
            if count:
                columns[mask, j] = rng.choice(card, size=count, p=table[:, s])
    return GeneratedSample(FeatureMatrix(schema, columns), labels, priors, emissions)


def format_result(result: EmResult, schema: FeatureSchema) -> str:
    """Structured text export: parameter tables, log-likelihood trace, assignment."""
    if schema.offsets != result.params.offsets:
        raise ValueError(f"schema offsets {schema.offsets} differ from {result.params.offsets}")
    k = result.params.k
    lines = [f"components: {k}"]
    lines.append("priors: " + " ".join(f"{p:.6g}" for p in result.params.priors))
    for feat, rows in zip(schema.features, _blocks(result.params.offsets)):
        table = result.params.table[rows]
        lines.append(f"feature {feat.name}  P(component, value):")
        lines.append("  value".ljust(24) + "".join(f"c{s}".rjust(12) for s in range(k)))
        for v, name in enumerate(feat.values):
            lines.append("  " + name.ljust(22) + "".join(f"{p:12.6g}" for p in table[v]))
    lines.append(
        "log-likelihood: " + " ".join(f"{v:.6f}" for v in result.loglik_trace)
    )
    converged = "yes" if result.converged else "no"
    lines.append(f"converged: {converged} ({result.iterations} iterations)")
    lines.append("assignment: " + " ".join(str(int(s)) for s in result.assignment))
    return "\n".join(lines) + "\n"
