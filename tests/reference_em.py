"""Reference Naive-Bayes EM: the original per-feature implementation.

Parameters and expected counts are kept as one table per feature, the
M-step accumulates with one ``np.add.at`` per feature, and the E-step
normalizes with ``scipy.special.logsumexp``. ``sensecluster.em`` must
reproduce its posteriors, joint tables, log-likelihood traces, iteration
counts and assignments bit for bit. The code below is unchanged apart
from this docstring and the import of ``FeatureMatrix`` from the package.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from sensecluster.features import FeatureMatrix

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class NaiveBayesParams:
    """Mixture weights and per-feature joint tables P(s, f_j = v)."""

    priors: np.ndarray
    joints: tuple[np.ndarray, ...]

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=np.float64)
        priors.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        joints = []
        for table in self.joints:
            table = np.asarray(table, dtype=np.float64)
            table.setflags(write=False)
            if table.ndim != 2 or table.shape[0] != priors.size:
                raise ValueError("joint table shape does not match number of classes")
            joints.append(table)
        object.__setattr__(self, "joints", tuple(joints))

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
        for a, b in zip(self.joints, other.joints):
            delta = max(delta, np.abs(a - b).max())
        return float(delta)


@dataclass(frozen=True)
class ExpectedCounts:
    """E-step output: expected class counts, per-feature marginal counts,
    the posterior matrix they were accumulated from, and the observed-data
    log-likelihood of the parameters that produced them."""

    sense_counts: np.ndarray
    value_counts: tuple[np.ndarray, ...]
    posteriors: np.ndarray
    loglik: float


@dataclass(frozen=True)
class EmResult:
    params: NaiveBayesParams
    posteriors: np.ndarray
    assignment: np.ndarray
    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool


def _accumulate(posteriors: np.ndarray, data: FeatureMatrix, loglik: float) -> ExpectedCounts:
    vals = data.values
    k = posteriors.shape[1]
    value_counts = []
    for j, feat in enumerate(data.schema.features):
        table = np.zeros((feat.cardinality, k))
        np.add.at(table, vals[:, j], posteriors)
        value_counts.append(table.T)
    return ExpectedCounts(posteriors.sum(axis=0), tuple(value_counts), posteriors, loglik)


def _log_posterior(params: NaiveBayesParams, data: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized log P(s, y_n) per instance and its normalizer log P(y_n)."""
    vals = data.values
    n, q = vals.shape
    log_joint = np.zeros((n, params.k))
    with np.errstate(divide="ignore"):
        for j, table in enumerate(params.joints):
            log_joint += np.log(table).T[vals[:, j]]
        log_joint -= (q - 1) * np.log(params.priors)
    norms = logsumexp(log_joint, axis=1)
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
    joints = []
    for table in counts.value_counts:
        table = np.maximum(table / n, PROB_FLOOR)
        joints.append(table / table.sum())
    return NaiveBayesParams(priors, tuple(joints))


def initial_params(data: FeatureMatrix, k: int, rng) -> NaiveBayesParams:
    """Random starting point: per-instance soft assignments drawn from a flat
    Dirichlet, pushed through one M-step."""
    posteriors = rng.dirichlet(np.ones(k), size=data.n)
    counts = _accumulate(posteriors, data, float("nan"))
    return m_step(counts, data.n)


def fit_from(
    params: NaiveBayesParams,
    data: FeatureMatrix,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> EmResult:
    """Run EM from explicit starting parameters (see ``fit`` for the usual entry)."""
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
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> EmResult:
    """Fit a k-component mixture by EM from a seeded random start.

    Stops when the largest absolute parameter change falls below ``tol``
    or after ``max_iter`` iterations. ``loglik_trace[i]`` is the
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
