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
from functools import cached_property, lru_cache

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
from .patterns import downset_rows, pattern_index


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

    @cached_property
    def exposure_masks(self) -> np.ndarray:
        """Each record's exposure pattern as a bitmask (factor j is bit j)."""
        weights = (1 << np.arange(self.p)).astype(np.int64)
        return self.exposures.astype(np.int64) @ weights


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


@lru_cache(maxsize=None)
def _pattern_tables(p: int, q: int) -> tuple:
    """The pattern basis and where the score and information read the moments.

    ``basis`` is ``[1 | downset_rows(p, arange(2^p))]``: row ``u`` is the
    intercept and saturated part of the design row of a record with mask
    ``u``, and ``counts @ basis`` sums ``counts`` over the masks containing
    each column's pattern.  An evaluation's moments are ``sums @ basis``
    (rows r, v, v z_j) then ``zt @ stack.T`` (rows z_j), raveled; the
    information of pattern columns ``c`` and ``c'`` is the v superset sum at
    ``c | c'``.
    """
    nmask = 1 << p
    cols = np.concatenate([[0], pattern_index(p).masks])  # column -> mask
    basis = np.hstack([np.ones((nmask, 1)), downset_rows(p, np.arange(nmask))])
    basis.setflags(write=False)
    zrows = (2 + q) * nmask + (2 + q) * np.arange(q)
    info = np.empty((nmask + q, nmask + q), dtype=np.intp)
    info[:nmask, :nmask] = nmask + np.argsort(cols)[cols[:, None] | cols]
    info[nmask:, :nmask] = nmask * np.arange(2, 2 + q)[:, None] + np.arange(nmask)
    info[:nmask, nmask:] = info[nmask:, :nmask].T
    info[nmask:, nmask:] = zrows[:, None] + 2 + np.arange(q)
    offsets = nmask * np.arange(2 + q)[:, None]  # of the stacked bincount rows
    return basis, offsets, np.concatenate([np.arange(nmask), zrows]), info


def _evaluator(masks, zt, y, weights, p):
    """Loglik, score and information as a function of the coefficients.

    The design is not built.  A record's linear predictor is
    ``(basis @ beta[:2^p])[mask] + z @ kappa`` (``zt`` holds the covariates
    as rows), and the sums over records of the score and information reduce
    to per-mask sums of ``r = w (y - theta)``, ``v = w theta (1 - theta)``
    and ``v z_j``: one stacked ``bincount`` per evaluation, on an index
    built once per fit.
    """
    basis, offsets, score_at, info_at = _pattern_tables(p, len(zt))
    nmask, q = len(basis), len(zt)
    index = (masks + offsets).ravel()
    stack = np.empty((2 + q, len(y)))
    r, v, vz, flat = stack[0], stack[1], stack[2:], stack.ravel()

    def evaluate(beta):  # np.dot: less call overhead than @ on small fits
        eta = np.dot(basis, beta[:nmask])[masks]
        if q:
            eta += np.dot(beta[nmask:], zt)
        theta = expit(eta)
        np.multiply(weights, y - theta, out=r)
        np.multiply(weights, theta * (1.0 - theta), out=v)
        np.multiply(v, zt, out=vz)
        sums = np.bincount(index, flat, (2 + q) * nmask).reshape(2 + q, nmask)
        moments = np.concatenate(
            [np.dot(sums, basis).ravel(), np.dot(zt, stack.T).ravel()]
        )
        loglik = float(np.dot(weights, y * eta - np.logaddexp(0.0, eta)))
        return loglik, moments[score_at], moments[info_at]

    return evaluate


def _patterns_named(p, selected, limit=10):
    """``exposure pattern(s) ...``: the labels of the selected masks."""
    index = pattern_index(p)
    labels = ["unexposed"] * bool(selected[0]) + [
        index.label(c) for c, m in enumerate(index.masks.tolist()) if selected[m]
    ]
    more = f" (+{len(labels) - limit} more)" if len(labels) > limit else ""
    plural = "s" * (len(labels) > 1)
    return f"exposure pattern{plural} {', '.join(labels[:limit])}{more}"


def _check_design(masks, zt, p):
    """Raise SingularDesignError unless the design has full column rank.

    Pattern column ``c`` is constant when no record's mask, or every one,
    contains ``c``.  Then ``[1 | saturated block]`` has full rank iff every
    mask has a record, and the whole design iff the covariates centred
    within masks have full column rank, by ``matrix_rank``'s tolerance with
    the design's Frobenius norm for its largest singular value.
    """
    basis, offsets = _pattern_tables(p, len(zt))[:2]
    nmask, n, q = len(basis), len(masks), len(zt)
    counts = np.bincount(masks, minlength=nmask)
    cover = counts @ basis  # records whose mask contains each column's pattern
    constant = np.concatenate([
        (cover[1:] == 0) | (cover[1:] == n), zt.max(1) == zt.min(1)
    ])
    if constant.any():
        col = int(np.argmax(constant)) + 1
        raise SingularDesignError(f"design column {col} is constant")
    deficient = "design matrix is rank deficient (collinear columns)"
    if not counts.all():
        raise SingularDesignError(
            f"{deficient}: no record has {_patterns_named(p, counts == 0)}"
        )
    index = (masks + offsets[:q]).ravel()
    flat = zt.ravel()
    means = np.bincount(index, flat, q * nmask) / np.tile(counts, q)
    centred = (flat - means[index]).reshape(q, n).T
    tol = np.sqrt(cover.sum() + flat @ flat) * max(n, nmask + q) * 2.0**-52
    if q == 0 or np.linalg.svd(centred, compute_uv=False)[-1] > tol:
        return
    for j in range(q):  # the first covariate that adds no rank
        if np.linalg.svd(centred[:, : j + 1], compute_uv=False)[-1] <= tol:
            how = ("is collinear with the exposure patterns and the covariates "
                   "before it" if j else "is constant within every exposure pattern")
            raise SingularDesignError(
                f"{deficient}: covariate {j + 1} (design column {nmask + j}) {how}"
            )


def _separation_error(reason, masks, y, weights, p):
    """SeparationError for ``reason``, naming the one-sided exposure patterns."""
    cases = np.bincount(masks, weights * y, 1 << p)
    controls = np.bincount(masks, weights * (1.0 - y), 1 << p)
    for side, only in (("cases", controls == 0), ("controls", cases == 0)):
        if only.any():
            reason += f"; only {side} have {_patterns_named(p, only)}"
    return SeparationError(reason)


def _factor(info):
    """Cholesky factor of the information, with a tiny-ridge fallback."""
    try:
        return cho_factor(info, lower=True), False
    except LinAlgError:
        dim = info.shape[0]
        ridge = 1e-10 * np.trace(info) / dim
        return cho_factor(info + ridge * np.eye(dim), lower=True), True


def fit_design(masks, covariates, outcome, p, options=None, start=None,
               weights=None):
    """Newton/step-halving ML fit on records given by their exposure masks.

    Record ``i`` has exposure bitmask ``masks[i]`` (factor j is bit j),
    covariates ``covariates[i]`` (an (n, q) float array, q may be 0) and
    outcome ``outcome[i]``; its design row ``[1, downset indicator of the
    mask, covariates]`` is never built.  ``weights`` are positive frequency
    weights, one per record by default: a fit on the distinct records
    weighted by their counts is the fit on the records themselves, up to
    the order of summation, and the record-count and class checks count
    weighted records.  Raises as described in :func:`fit_logit`.
    """
    options = options or FitOptions()
    zt = np.ascontiguousarray(covariates.T)
    ncols = (1 << p) + len(zt)
    y = np.asarray(outcome, dtype=float)
    weights = np.ones(len(y)) if weights is None else np.asarray(weights, float)
    if weights.shape != y.shape or not (weights > 0).all():
        raise ValueError("weights must be positive, one per record")
    n, n1 = int(weights.sum()), int(weights @ y)

    if n < ncols + 1:
        raise ValueError(
            f"need at least {ncols + 1} records to fit {ncols} coefficients, got {n}"
        )
    if n1 == 0 or n1 == n:
        raise EmptyClassError("both cases and controls are required for fitting")
    _check_design(masks, zt, p)

    evaluate = _evaluator(masks, zt, y, weights, p)
    beta = np.zeros(ncols) if start is None else np.array(start, dtype=float)
    loglik, score, info = evaluate(beta)
    converged = False
    ridge_used = False
    iterations = 0

    for iterations in range(1, options.max_iter + 1):
        gnorm = float(np.abs(score).max())
        if gnorm <= options.score_tol * (1.0 + abs(loglik)):
            converged = True
            break
        # the information is symmetric: its 2-norm condition number is the
        # ratio of its extreme eigenvalue magnitudes, no SVD needed
        eig = np.abs(np.linalg.eigvalsh(info))
        cond = eig.max() / eig.min() if eig.min() > 0 else np.inf
        if cond > options.cond_cap:
            raise _separation_error(
                f"information matrix condition number {cond:.3g} exceeds "
                f"{options.cond_cap:.0e}; separation suspected",
                masks, y, weights, p,
            )
        factor, used = _factor(info)
        ridge_used = ridge_used or used
        step = cho_solve(factor, score)

        # the accepted trial's loglik, score and information carry over
        t = 1.0
        while True:
            candidate = beta + t * step
            trial = evaluate(candidate)
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
        worst = float(np.abs(beta).max())
        if worst > options.coef_bound:
            raise _separation_error(
                f"coefficient magnitude {worst:.3g} exceeds the divergence "
                f"bound {options.coef_bound}; separation suspected",
                masks, y, weights, p,
            )
        loglik, score, info = trial
        if float(np.abs(delta).max()) <= options.step_tol:
            converged = True
            break

    if not converged:
        raise ConvergenceError(
            f"no convergence after {options.max_iter} Newton iterations"
        )

    gnorm = float(np.abs(score).max())
    factor, used = _factor(info)
    ridge_used = ridge_used or used
    full_cov = cho_solve(factor, np.eye(ncols))
    full_cov = 0.5 * (full_cov + full_cov.T)
    npsi = (1 << p) - 1
    psi_slice = slice(1, npsi + 1)
    sigma_psi = np.array(full_cov[psi_slice, psi_slice])

    return FitResult(
        params=FullParams.from_vector(beta, p, len(zt)),
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
        data.exposure_masks,
        data.covariates,
        data.outcome,
        data.p,
        options=options,
        start=start,
    )
