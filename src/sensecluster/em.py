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

All joint tables, and all expected value counts, are held in one table
with a row per (feature, value) pair and a column per class; feature j
owns rows ``offsets[j]`` to ``offsets[j + 1]`` (``FeatureSchema.offsets``).
``FeatureMatrix.table_rows`` maps every observed value to its row, so the
E-step is one gather summed over features and the expected counts are one
weighted ``np.bincount``. The normalizer follows scipy.special.logsumexp's
formula, and every sum adds its terms in the same order as a table-per-
feature implementation (kept in tests/reference_em.py), so the results
match it bit for bit.
"""

import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._value import ArrayValue
from .features import FeatureMatrix, FeatureSchema

PROB_FLOOR = 1e-12
# the paper's stopping rule, the default of every EM entry point
DEFAULT_MAX_ITER = 1000
DEFAULT_TOL = 1e-6


def _stack(tables, k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """One (sum of cardinalities, k) table from per-feature (k, cardinality)
    tables, and the row offsets of each feature."""
    blocks = []
    for table in tables:
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] != k:
            raise ValueError("joint table shape does not match number of classes")
        blocks.append(table.T)
    offsets = tuple(accumulate((block.shape[0] for block in blocks), initial=0))
    return (np.concatenate(blocks) if blocks else np.empty((0, k))), offsets


def _split(table: np.ndarray, offsets: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per-feature (k, cardinality) views of a stacked table."""
    return tuple(table[a:b].T for a, b in zip(offsets[:-1], offsets[1:]))


@dataclass(frozen=True, eq=False)
class NaiveBayesParams(ArrayValue):
    """Mixture weights and the joint tables P(s, f_j = v).

    ``table[offsets[j] + v, s]`` holds P(s, f_j = v); ``joints[j]`` is the
    (k, cardinality) view of feature j's rows. Holds its own read-only
    copies of ``priors`` and ``table``; equal by value and unhashable.
    """

    priors: np.ndarray
    table: np.ndarray
    offsets: tuple[int, ...]

    def __post_init__(self):
        self._hold("priors", np.float64)
        self._hold("table", np.float64)

    @classmethod
    def from_joints(cls, priors, joints) -> "NaiveBayesParams":
        """Parameters from the priors and per-feature (k, cardinality) tables."""
        priors = np.asarray(priors, dtype=np.float64)
        return cls(priors, *_stack(joints, priors.size))

    @property
    def joints(self) -> tuple[np.ndarray, ...]:
        return _split(self.table, self.offsets)

    @property
    def k(self) -> int:
        return self.priors.size

    def validate(self, tol: float = 1e-9) -> None:
        """Check the normalization and margin identities."""
        if abs(self.priors.sum() - 1.0) > tol:
            raise ValueError("priors do not sum to 1")
        for j, table in enumerate(self.joints):
            if abs(table.sum() - 1.0) > tol:
                raise ValueError(f"joint table {j} does not sum to 1")
            if np.abs(table.sum(axis=1) - self.priors).max() > tol:
                raise ValueError(f"joint table {j} margins disagree with priors")

    def max_abs_diff(self, other: "NaiveBayesParams") -> float:
        delta = np.abs(self.priors - other.priors).max()
        return float(np.abs(self.table - other.table).max(initial=delta))


@dataclass(frozen=True, eq=False)
class ExpectedCounts(ArrayValue):
    """E-step output: expected class counts, per-feature marginal counts,
    the posterior matrix they were accumulated from, and the observed-data
    log-likelihood of the parameters that produced them.

    ``table`` is laid out as ``NaiveBayesParams.table``; ``value_counts[j]``
    is the (k, cardinality) view of feature j's rows. Holds its own
    read-only copies of the arrays; equal by value and unhashable.
    """

    sense_counts: np.ndarray
    table: np.ndarray
    offsets: tuple[int, ...]
    posteriors: np.ndarray
    loglik: float

    def __post_init__(self):
        for name in ("sense_counts", "table", "posteriors"):
            self._hold(name, np.float64)

    @classmethod
    def from_value_counts(cls, sense_counts, value_counts, posteriors, loglik) -> "ExpectedCounts":
        """Counts from the class counts and per-feature (k, cardinality) tables."""
        sense_counts = np.asarray(sense_counts, dtype=np.float64)
        return cls(sense_counts, *_stack(value_counts, sense_counts.size), posteriors, loglik)

    @property
    def value_counts(self) -> tuple[np.ndarray, ...]:
        return _split(self.table, self.offsets)


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
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    ties = at_top.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=1, keepdims=True) / ties
        return (np.log1p(rest) + np.log(ties) + top)[:, 0]


def _log_posterior(params: NaiveBayesParams, data: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized log P(s, y_n) per instance and its normalizer log P(y_n)."""
    n, q = data.values.shape
    log_joint = np.zeros((n, params.k))
    with np.errstate(divide="ignore"):
        # one (n, k) slab per feature, added in feature order
        for term in np.log(params.table).take(data.table_rows.T, axis=0):
            log_joint += term
        log_joint -= (q - 1) * np.log(params.priors)
    norms = _logsumexp_rows(log_joint)
    if not np.isfinite(norms).all():
        raise ValueError("degenerate likelihood")
    return log_joint, norms


def e_step(params: NaiveBayesParams, data: FeatureMatrix) -> ExpectedCounts:
    """Expected sufficient statistics of the complete data under ``params``."""
    log_joint, norms = _log_posterior(params, data)
    posteriors = np.exp(log_joint - norms[:, None])
    return _accumulate(posteriors, data, float(norms.sum()))


def m_step(counts: ExpectedCounts, n: int) -> NaiveBayesParams:
    """Maximum-likelihood parameters from expected counts, floored and renormalized."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    if abs(counts.sense_counts.sum() - n) > 1e-6:
        raise ValueError("expected class counts do not sum to the sample size")
    priors = np.maximum(counts.sense_counts / n, PROB_FLOOR)
    priors = priors / priors.sum()
    offsets = counts.offsets
    table = np.maximum(counts.table / n, PROB_FLOOR)
    # each feature's block sums on its own, exactly as a per-feature table would
    sums = [table[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])]
    table /= np.repeat(sums, np.diff(offsets))[:, None]
    return NaiveBayesParams(priors, table, offsets)


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
    iterations = 0
    for _ in range(max_iter):
        counts = e_step(params, data)
        trace.append(counts.loglik)
        new_params = m_step(counts, data.n)
        delta = params.max_abs_diff(new_params)
        params = new_params
        iterations += 1
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
    if k < 1:
        raise ValueError("k must be at least 1")
    if data.n < 1:
        raise ValueError("data has no rows")
    rng = np.random.default_rng(seed)
    return fit_from(initial_params(data, k, rng), data, max_iter, tol)


@dataclass(frozen=True, eq=False)
class GeneratedSample(ArrayValue):
    """Synthetic draw from the mixture model, with its generating tables.
    Holds its own read-only copies of the arrays; equal by value and
    unhashable."""

    matrix: FeatureMatrix
    labels: np.ndarray
    priors: np.ndarray
    emissions: tuple[np.ndarray, ...]

    def __post_init__(self):
        self._hold("labels", np.int64)
        self._hold("priors", np.float64)
        emissions = tuple(np.array(table, dtype=np.float64) for table in self.emissions)
        for table in emissions:
            table.setflags(write=False)
        object.__setattr__(self, "emissions", emissions)


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
    if k < 1:
        raise ValueError("k must be at least 1")
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
    emissions = []
    columns = np.empty((n, schema.q), dtype=np.int64)
    for j, feat in enumerate(schema.features):
        card = feat.cardinality
        preferred = rng.permutation(card)
        table = np.full((k, card), (1.0 - separation) / card)
        for s in range(k):
            table[s, preferred[s % card]] += separation
        emissions.append(table)
        for s in range(k):
            mask = labels == s
            count = int(mask.sum())
            if count:
                columns[mask, j] = rng.choice(card, size=count, p=table[s])
    return GeneratedSample(FeatureMatrix(schema, columns), labels, priors, tuple(emissions))


def format_result(result: EmResult, schema: FeatureSchema) -> str:
    """Structured text export: parameter tables, log-likelihood trace, assignment."""
    k = result.params.k
    lines = [f"components: {k}"]
    lines.append("priors: " + " ".join(f"{p:.6g}" for p in result.params.priors))
    for feat, table in zip(schema.features, result.params.joints):
        lines.append(f"feature {feat.name}  P(component, value):")
        header = "  value".ljust(24) + "".join(f"c{s}".rjust(12) for s in range(k))
        lines.append(header)
        for v, name in enumerate(feat.values):
            row = "  " + name.ljust(22) + "".join(f"{table[s, v]:12.6g}" for s in range(k))
            lines.append(row)
    lines.append(
        "log-likelihood: " + " ".join(f"{v:.6f}" for v in result.loglik_trace)
    )
    lines.append(
        "converged: {} ({} iterations)".format("yes" if result.converged else "no", result.iterations)
    )
    lines.append("assignment: " + " ".join(str(int(s)) for s in result.assignment))
    return "\n".join(lines) + "\n"
