"""Maximum-likelihood fitting of the saturated-factor logistic model.

The linear predictor is ``intercept + psi-terms + linear confounder
terms``: saturated in the ``p`` binary risk factors (every product of
factor indicators gets its own coefficient, in the canonical pattern
order) and linear in the ``q`` confounders.  Fitting maximizes the
prospective Bernoulli log likelihood by Newton iterations with
step-halving; with the logit link the observed and expected information
coincide, and the returned covariance block for the structural
coefficients is carved out of the inverse of the *full* information
matrix.

Under case-control sampling only the structural coefficients are
consistently estimable (controls must be frequency matched to cases, with
any matching variables included as covariates); the intercept soaks up the
sampling fractions and should not be interpreted.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.special import expit

from .errors import (
    ConvergenceError,
    EmptyClassError,
    SeparationError,
    SingularDesignError,
)
from .measures import StructuralParams
from .patterns import downset_indicator, downset_rows


@dataclass(eq=False)
class CaseControlDataset:
    """Case-control records: binary exposures, confounders, 0/1 outcome.

    ``exposures`` is (n, p) with entries in {0, 1}, ``covariates`` is
    (n, q) finite floats (q may be 0), ``outcome`` is (n,) in {0, 1}.
    """

    exposures: np.ndarray
    covariates: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.exposures)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError("exposures must be a 2-D array with >= 1 column")
        if not np.isin(v, (0, 1)).all():
            raise ValueError("exposure entries must be 0 or 1")
        z = np.asarray(self.covariates, dtype=float)
        if z.ndim == 1:
            z = z.reshape(len(z), 0) if z.size == 0 else z.reshape(-1, 1)
        if z.shape[0] != v.shape[0]:
            raise ValueError("covariates and exposures disagree on record count")
        if z.size and not np.all(np.isfinite(z)):
            raise ValueError("covariate entries must all be finite")
        y = np.asarray(self.outcome)
        if y.shape != (v.shape[0],):
            raise ValueError("outcome must be 1-D with one entry per record")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("outcome entries must be 0 or 1")
        self.exposures = v.astype(np.int8)
        self.covariates = z
        self.outcome = y.astype(np.int8)

    @property
    def n(self) -> int:
        return self.exposures.shape[0]

    @property
    def p(self) -> int:
        return self.exposures.shape[1]

    @property
    def q(self) -> int:
        return self.covariates.shape[1]

    @property
    def n1(self) -> int:
        return int(self.outcome.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def exposure_masks(self) -> np.ndarray:
        weights = (1 << np.arange(self.p)).astype(np.int64)
        return self.exposures.astype(np.int64) @ weights

    @cached_property
    def design_matrix(self) -> np.ndarray:
        """n x (2^p + q) matrix: intercept, saturated factor block, confounders."""
        block = downset_rows(self.p, self.exposure_masks)
        return np.hstack([np.ones((self.n, 1)), block, self.covariates])


def design_row(v, z) -> np.ndarray:
    """One design-matrix row: [1, indicator of patterns <= v, z...].

    The middle block equals :func:`interodds.patterns.downset_indicator`
    evaluated at ``v``, i.e. entry ``c`` is the product of the exposure
    indicators named by the pattern at coordinate ``c``.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    return np.concatenate([[1.0], downset_indicator(v).astype(float), z])


@dataclass(eq=False)
class FullParams:
    """Structural parameters plus intercept-first nuisance coefficients."""

    psi: StructuralParams
    kappa: np.ndarray  # length q + 1, kappa[0] is the intercept

    def __post_init__(self):
        kappa = np.array(self.kappa, dtype=float).reshape(-1)
        if kappa.size < 1 or not np.all(np.isfinite(kappa)):
            raise ValueError("kappa must be a finite vector with the intercept first")
        self.kappa = kappa

    @property
    def q(self) -> int:
        return self.kappa.size - 1

    def to_vector(self) -> np.ndarray:
        """Stack into the design-column order [kappa0, psi..., kappa1..q]."""
        return np.concatenate([[self.kappa[0]], self.psi.psi, self.kappa[1:]])

    @classmethod
    def from_vector(cls, beta, p: int, q: int) -> "FullParams":
        beta = np.asarray(beta, dtype=float)
        npsi = (1 << p) - 1
        if beta.shape != (npsi + 1 + q,):
            raise ValueError(f"expected vector of length {npsi + 1 + q}")
        psi = StructuralParams(beta[1 : npsi + 1], p)
        kappa = np.concatenate([[beta[0]], beta[npsi + 1 :]])
        return cls(psi=psi, kappa=kappa)


@dataclass
class FitOptions:
    max_iter: int = 100
    score_tol: float = 1e-8  # scaled by (1 + |loglik|)
    step_tol: float = 1e-10
    coef_bound: float = 15.0  # |coefficient| beyond this means divergence
    cond_cap: float = 1e12


@dataclass(eq=False)
class FitResult:
    params: FullParams
    sigma_psi: np.ndarray  # structural block of the full inverse information
    loglik: float
    iterations: int
    converged: bool
    gradient_norm: float
    ridge_used: bool = False

    @property
    def se_psi(self) -> np.ndarray:
        return np.sqrt(np.diag(self.sigma_psi))


def loglik_score_info(beta, X, y, weights=None):
    """Log likelihood, score vector and information matrix at ``beta``.

    ``loglik = sum(w * (y * eta - log(1 + exp(eta))))``,
    ``score = X' diag(w) (y - theta)`` and
    ``info = X' diag(w theta (1 - theta)) X`` with ``theta = expit(eta)``,
    where ``w`` are frequency weights, one per row by default.
    """
    if weights is None:
        weights = np.ones(len(y))
    eta = X @ beta
    theta = expit(eta)
    score = X.T @ (weights * (y - theta))
    info = (X * (weights * (theta * (1.0 - theta)))[:, None]).T @ X
    loglik = float(weights @ (y * eta - np.logaddexp(0.0, eta)))
    return loglik, score, info


def loglik_and_derivatives(params: FullParams, data: CaseControlDataset):
    """Evaluate :func:`loglik_score_info` for a parameter object on a dataset."""
    if params.psi.p != data.p or params.q != data.q:
        raise ValueError("parameter dimensions do not match the dataset")
    return loglik_score_info(
        params.to_vector(), data.design_matrix, data.outcome.astype(float)
    )


def _factor(info):
    """Cholesky factor of the information, with a tiny-ridge fallback."""
    try:
        return cho_factor(info, lower=True), False
    except LinAlgError:
        dim = info.shape[0]
        ridge = 1e-10 * np.trace(info) / dim
        return cho_factor(info + ridge * np.eye(dim), lower=True), True


def fit_design(X, y, p, q, options=None, start=None, weights=None):
    """Newton/step-halving ML fit on an explicit design matrix.

    :func:`fit_logit` fits a dataset's own design; bootstrap refits call
    this directly on the collapsed design.  ``weights`` are positive
    frequency weights, one per row by default: row ``i`` stands for
    ``weights[i]`` identical records.  A fit on the distinct rows of a
    design, weighted by how often each occurs, is the same fit as on the
    design itself, up to the order of summation; the record-count and
    class checks count weighted records.  Raises SingularDesignError /
    SeparationError / ConvergenceError as described there.
    """
    options = options or FitOptions()
    ncols = X.shape[1]
    y = np.asarray(y, dtype=float)
    weights = np.ones(len(y)) if weights is None else np.asarray(weights, float)
    if weights.shape != y.shape or not np.all(weights > 0):
        raise ValueError("weights must be positive, one per design row")
    n, n1 = int(weights.sum()), int(weights @ y)

    if n < ncols + 1:
        raise ValueError(
            f"need at least {ncols + 1} records to fit {ncols} coefficients, got {n}"
        )
    if n1 == 0 or n1 == n:
        raise EmptyClassError("both cases and controls are required for fitting")

    spans = np.ptp(X[:, 1:], axis=0)
    if np.any(spans == 0):
        col = int(np.argmin(spans)) + 1
        raise SingularDesignError(f"design column {col} is constant")
    if np.linalg.matrix_rank(X) < ncols:
        raise SingularDesignError("design matrix is rank deficient (collinear columns)")

    beta = np.zeros(ncols) if start is None else np.array(start, dtype=float)
    loglik, score, info = loglik_score_info(beta, X, y, weights)
    converged = False
    ridge_used = False
    iterations = 0

    for iterations in range(1, options.max_iter + 1):
        gnorm = float(np.max(np.abs(score)))
        if gnorm <= options.score_tol * (1.0 + abs(loglik)):
            converged = True
            break
        cond = np.linalg.cond(info)
        if cond > options.cond_cap:
            raise SeparationError(
                f"information matrix condition number {cond:.3g} exceeds "
                f"{options.cond_cap:.0e}; separation suspected"
            )
        factor, used = _factor(info)
        ridge_used = ridge_used or used
        step = cho_solve(factor, score)

        # the accepted trial's loglik, score and information carry over
        t = 1.0
        while True:
            candidate = beta + t * step
            trial = loglik_score_info(candidate, X, y, weights)
            if trial[0] >= loglik:
                break
            t *= 0.5
            if t <= 2.0 ** -34:
                raise ConvergenceError(
                    "step-halving found no non-decreasing step at "
                    f"iteration {iterations}"
                )
        delta = t * step
        beta = candidate
        worst = float(np.max(np.abs(beta)))
        if worst > options.coef_bound:
            raise SeparationError(
                f"coefficient magnitude {worst:.3g} exceeds the divergence "
                f"bound {options.coef_bound}; separation suspected"
            )
        loglik, score, info = trial
        if float(np.max(np.abs(delta))) <= options.step_tol:
            converged = True
            break

    if not converged:
        raise ConvergenceError(
            f"no convergence after {options.max_iter} Newton iterations"
        )

    gnorm = float(np.max(np.abs(score)))
    factor, used = _factor(info)
    ridge_used = ridge_used or used
    full_cov = cho_solve(factor, np.eye(ncols))
    full_cov = 0.5 * (full_cov + full_cov.T)
    npsi = (1 << p) - 1
    psi_slice = slice(1, npsi + 1)
    sigma_psi = np.array(full_cov[psi_slice, psi_slice])

    return FitResult(
        params=FullParams.from_vector(beta, p, q),
        sigma_psi=sigma_psi,
        loglik=loglik,
        iterations=iterations,
        converged=converged,
        gradient_norm=gnorm,
        ridge_used=ridge_used,
    )


def fit_logit(data: CaseControlDataset, options=None, start=None) -> FitResult:
    """Fit the saturated-factor logistic model to a case-control dataset.

    Parameters
    ----------
    data : CaseControlDataset
    options : FitOptions, optional
        Iteration and guard thresholds.
    start : array_like, optional
        Starting coefficient vector in design order (defaults to zeros).

    Raises
    ------
    SingularDesignError
        A design column is constant, or the design is collinear.
    SeparationError
        A coefficient passed the divergence bound or the information
        matrix condition number passed its cap during iteration.
    ConvergenceError
        Iteration budget exhausted without meeting either tolerance.
    EmptyClassError
        All records share one outcome.
    """
    if start is not None and isinstance(start, FullParams):
        start = start.to_vector()
    return fit_design(
        data.design_matrix,
        data.outcome.astype(float),
        data.p,
        data.q,
        options=options,
        start=start,
    )
