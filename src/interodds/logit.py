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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    EmptyClassError,
    SeparationError,
    SingularDesignError,
)
from .measures import StructuralParams, _ReadOnly, _frozen
from .patterns import as_masks, downset_rows, lattice_sums, pattern_index

# The Newton loop's limits
MAX_ITER = 100
SCORE_TOL = 1e-8  # scaled by (1 + |loglik|)
STEP_TOL = 1e-10
COEF_BOUND = 15.0  # |intercept|, |psi| or |slope| x covariate SD beyond this diverges
COND_CAP = 1e12  # information condition numbers above this mean separation


@dataclass(frozen=True, eq=False)
class CaseControlDataset(_ReadOnly):
    """Case-control records: binary exposures, confounders, 0/1 outcome.

    ``exposures`` is (n, p) with entries in {0, 1}, ``covariates`` is
    (n, q) finite floats (q may be 0), ``outcome`` is (n,) in {0, 1}.
    The covariates are held column-major, each covariate's values
    contiguous, as the fit reads them.  The exposures, covariates and
    outcome are read-only copies.
    """

    exposures: np.ndarray
    covariates: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.exposures)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError("exposures must be a 2-D array with >= 1 column")
        if not ((v == 0) | (v == 1)).all():
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
        if not ((y == 0) | (y == 1)).all():
            raise ValueError("outcome entries must be 0 or 1")
        object.__setattr__(self, "exposures", _frozen(v.astype(np.int8))[0])
        object.__setattr__(self, "covariates", _frozen(np.array(z, order="F"))[0])
        object.__setattr__(self, "outcome", _frozen(y.astype(np.int8))[0])

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
        """Each record's pattern as a bitmask (factor j is bit j); new on each read."""
        return as_masks(self.exposures)


@dataclass(frozen=True, eq=False)
class FullParams(_ReadOnly):
    """Structural parameters plus intercept-first nuisance coefficients."""

    psi: StructuralParams
    kappa: np.ndarray  # length q + 1, kappa[0] is the intercept

    def __post_init__(self):
        kappa = np.array(self.kappa, dtype=float).reshape(-1)
        if kappa.size < 1 or not np.all(np.isfinite(kappa)):
            raise ValueError("kappa must be a finite vector with the intercept first")
        object.__setattr__(self, "kappa", _frozen(kappa)[0])

    @property
    def q(self) -> int:
        return self.kappa.size - 1


@dataclass(frozen=True, eq=False)
class FitResult(_ReadOnly):
    params: FullParams
    sigma_psi: np.ndarray  # structural block of the full inverse information
    loglik: float
    iterations: int
    converged: bool
    gradient_norm: float
    ridge_used: bool = False
    # the part covariances by plan value: inference._plan_covariance
    _delta: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        sigma = np.array(self.sigma_psi, dtype=float)
        object.__setattr__(self, "sigma_psi", _frozen(sigma)[0])

    @property
    def se_psi(self) -> np.ndarray:
        return np.sqrt(np.diag(self.sigma_psi))

    @cached_property
    def or_covariance(self) -> np.ndarray:
        """``Y = diag(OR) R sigma_psi R' diag(OR)``, read-only.

        The covariance of the odds ratios at all ``2^p`` masks, indexed by
        mask (``R`` their downset rows), formed on first use.
        """
        psi = self.params.psi
        d = downset_rows(psi.p, np.arange(1 << psi.p)) * psi.or_table[:, None]
        return _frozen(d.dot(self.sigma_psi).dot(d.T))[0]


@dataclass(eq=False)
class BatchFit:
    """Fits of one model per row of a weight matrix; see :func:`fit_batch`.

    Row ``b`` holds fit ``b``'s last accepted point: coefficients in design
    order, loglik, score and information.  ``errors[b]`` is the
    :class:`InterOddsError` that ended fit ``b``, or ``None`` where it
    converged; the numbers of a failed row mean nothing.
    """

    beta: np.ndarray  # (B, 2^p + q)
    loglik: np.ndarray  # (B,)
    score: np.ndarray  # (B, 2^p + q)
    info: np.ndarray  # (B, 2^p + q, 2^p + q)
    iterations: np.ndarray  # (B,)
    ridge_used: np.ndarray  # (B,)
    errors: list


@lru_cache(maxsize=None)
def _moment_tables(p: int, q: int) -> tuple:
    """Where the score, information and loglik read an evaluation's moments.

    An evaluation bins, per fit, ``3 + 2q + q(q+1)/2`` cell quantities by
    exposure mask: ``r``, ``v``, ``v z_j``, ``r z_j``, ``v z_j z_k``
    (``j <= k``) and the negated loglik term, then sums each over the masks
    above every mask.  Raveled, entry ``k 2^p + m`` is quantity ``k`` summed over
    the cells whose mask contains ``m``: the intercept column reads mask 0,
    pattern column ``c`` its mask, and the information of pattern columns
    ``c`` and ``c'`` is the ``v`` sum at ``c | c'``.  Also returns each
    mask's column and the covariate pairs ``(j, k)``.
    """
    nmask = 1 << p
    cols = np.concatenate([[0], pattern_index(p).masks])  # column -> mask
    j, k = np.triu_indices(q)
    nq = 3 + 2 * q + len(j)
    info_at = np.empty((nmask + q, nmask + q), dtype=np.intp)
    info_at[:nmask, :nmask] = nmask + (cols[:, None] | cols)
    info_at[nmask:, :nmask] = nmask * (2 + np.arange(q))[:, None] + cols
    info_at[:nmask, nmask:] = info_at[nmask:, :nmask].T
    info_at[nmask + j, nmask + k] = nmask * (2 + 2 * q + np.arange(len(j)))
    info_at[nmask + k, nmask + j] = info_at[nmask + j, nmask + k]
    score_at = np.concatenate([cols, nmask * (2 + q + np.arange(q))])
    return np.argsort(cols), score_at, info_at, nmask * (nq - 1), (j, k)


def _evaluator(masks, zt, y, weights, p):
    """Loglik, score and information of chosen fits of a batch.

    The C cells have exposure masks ``masks``, covariates ``zt`` (one row
    per covariate) and outcomes ``y``; row ``b`` of the (B, C) ``weights``
    gives fit ``b`` its frequency weights, zero where it has no record.
    ``evaluate(beta, rows)`` takes one coefficient vector per entry of
    ``rows``.  The design is not built: a cell's linear predictor is its
    mask's entry in the subset sums of ``[intercept, psi]`` plus
    ``z @ kappa``.  The cells are read where they are, never copied: an
    evaluation of b fits works in four (b, C) buffers (five when it gathers
    the weights of part of the batch) and one of length C, and forms each
    covariate pair product ``z_j z_k`` as it sums it, so its memory grows
    with C q, not C q^2.  Every sum over cells is a ``bincount`` in cell
    order, so a zero weight adds an exact zero and no fit's numbers depend
    on the other fits of its batch.
    """
    at_mask, score_at, info_at, loglik_at, (j, k) = _moment_tables(p, len(zt))
    nmask, q = 1 << p, len(zt)
    # fit b of a batch sums into bins b 2^p onward
    index = masks[None] if len(weights) == 1 else (
        masks + nmask * np.arange(len(weights))[:, None])

    def evaluate(beta, rows):  # in place where it can: fresh pages cost
        b = len(rows)
        w = weights if b == len(weights) else weights[rows]
        eta = np.take(lattice_sums(beta[:, at_mask]), masks, axis=1)
        e = np.empty_like(eta)
        for i in range(q):
            eta += np.multiply(beta[:, nmask + i, None], zt[i], out=e)
        # with e = exp(-|eta|) and d = 1 / (1 + e): theta (1 - theta) = e d^2,
        # theta = 1/2 + sign(eta) (d - 1/2), and the loglik term is
        # -log1p(e) - max((1 - 2y) eta, 0), all without overflow
        np.abs(eta, out=e)
        np.exp(np.negative(e, out=e), out=e)
        d = np.add(e, 1.0)
        np.reciprocal(d, out=d)
        v = e * d
        v *= d
        v *= w
        d -= 0.5
        half = y - 0.5
        r = np.subtract(half, np.copysign(d, eta, out=d), out=d)
        r *= w
        loss = np.log1p(e, out=e)
        eta *= np.multiply(half, -2.0, out=half)  # 1 - 2y, exactly
        loss += np.maximum(eta, 0.0, out=eta)
        loss *= w
        work, pair = eta, half  # both spent
        bins, size = index[:b].ravel(), b * nmask

        def total(x, z=None):  # the bin sums of x, or of x z
            if z is not None:
                x = np.multiply(x, z, out=work)
            return np.bincount(bins, x.ravel(), size)

        sums = np.array([
            total(r), total(v), *[total(v, z) for z in zt],
            *[total(r, z) for z in zt],
            *[total(v, np.multiply(zt[a], zt[c], out=pair)) for a, c in zip(j, k)],
            total(loss),
        ]).reshape(-1, b, nmask)
        moments = lattice_sums(sums, up=True).transpose(1, 0, 2).reshape(b, -1)
        return -moments[:, loglik_at], moments[:, score_at], moments[:, info_at]

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
    nmask, n, q = 1 << p, len(masks), len(zt)
    counts = np.bincount(masks, minlength=nmask)
    cover = lattice_sums(counts.copy(), up=True)  # records containing each mask
    patterns = cover[pattern_index(p).masks]
    constant = np.concatenate([
        (patterns == 0) | (patterns == n), zt.max(1) == zt.min(1)
    ])
    if constant.any():
        col = int(np.argmax(constant)) + 1
        raise SingularDesignError(f"design column {col} is constant")
    deficient = "design matrix is rank deficient (collinear columns)"
    if not counts.all():
        raise SingularDesignError(
            f"{deficient}: no record has {_patterns_named(p, counts == 0)}"
        )
    tol = np.sqrt(cover.sum() + np.vdot(zt, zt)) * max(n, nmask + q) * 2.0**-52
    dependent = _first_dependent(masks, zt, counts, tol)
    if dependent:
        raise SingularDesignError(f"{deficient}: {dependent}")


def _first_dependent(masks, zt, counts, tol, nearly=""):
    """Name the first covariate that adds no singular value above ``tol``.

    The covariates are centred within exposure patterns; ``counts`` holds
    each mask's records, none of them 0.  None where every covariate adds one.
    """
    centred = np.empty((len(masks), len(zt)), order="F")
    for j, z in enumerate(zt):
        means = np.bincount(masks, z, len(counts)) / counts
        np.subtract(z, means[masks], out=centred[:, j])
    if not len(zt) or np.linalg.svd(centred, compute_uv=False)[-1] > tol:
        return None
    for j in range(len(zt)):
        if np.linalg.svd(centred[:, : j + 1], compute_uv=False)[-1] <= tol:
            how = ("collinear with the exposure patterns and the covariates before it"
                   if j else "constant within every exposure pattern")
            return f"covariate {j + 1} (design column {len(counts) + j}) is {nearly}{how}"


def _separation_error(reason, masks, y, weights, p, zt=()):
    """SeparationError for ``reason``, naming the one-sided exposure patterns.

    Where none is one-sided, it names a nearly collinear covariate of ``zt``
    if there is one: one that, scaled to unit spread on the fit's records,
    adds no singular value above 1e-3.  The information's condition number
    grows as the inverse square of that value.
    """
    cases = np.bincount(masks, weights * y, 1 << p)
    controls = np.bincount(masks, weights * (1.0 - y), 1 << p)
    named = "".join(f"; only {side} have {_patterns_named(p, only)}" for side, only in (
        ("cases", controls == 0), ("controls", cases == 0)) if only.any())
    if not named and len(zt):
        own, has = zt.compress(weights > 0, 1), masks[weights > 0]
        own /= np.linalg.norm(own - own.mean(1, keepdims=True), axis=1, keepdims=True)
        counts = np.bincount(has, minlength=1 << p)
        dependent = _first_dependent(has, own, counts, 1e-3, "nearly ")
        if dependent:
            return SeparationError(f"{reason}; {dependent}")
    return SeparationError(f"{reason}; separation suspected{named}")


# The Cholesky margin of the certificate in _cleared, far above the
# O(k^2 eps) rounding of a factorization of a unit-diagonal k x k matrix
_MARGIN = 2.0 ** -20
# Above this cap eigvalsh's rounding, about k eps times the largest
# eigenvalue, could reach the lowest one of a matrix the certificate clears
_CERTIFIED_CAP = 1e12


def _cleared(info, cap):
    """Which informations certainly pass the condition cap and need no ridge.

    With ``d`` a matrix's diagonal and ``M = D info D``, ``D = diag(d)^-1/2``,
    a Cholesky factorization of ``M - tau 1`` (``tau`` = ``_MARGIN``) proves
    ``lambda_min(M) > tau`` up to rounding.  As ``lambda_max(M) <= k``, the
    condition number of ``info`` is then below ``k max(d) / (tau min(d))``;
    where that is at most ``min(cap, _CERTIFIED_CAP) / 2`` the matrix passes
    the cap and is positive definite with a margin far beyond eigvalsh's
    rounding, so eigvalsh would decide the same.  One stacked Cholesky tests
    every candidate; when it fails for any of them, none is cleared.
    """
    k = info.shape[-1]
    d = np.diagonal(info, axis1=1, axis2=2)
    bound = _MARGIN * min(cap, _CERTIFIED_CAP) / 2
    low = d.min(1)
    clear = (low > 0) & (k * d.max(1) <= bound * low) & np.isfinite(info).all((1, 2))
    if clear.any():
        scale = 1.0 / np.sqrt(d[clear])
        m = info[clear] * scale[:, :, None] * scale[:, None, :]
        m -= _MARGIN * np.eye(k)
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            clear[:] = False
    return clear


def _conditioning(info, cap):
    """Each information's condition number, and whether it needs a ridge.

    ``cond`` is the ratio of the extreme eigenvalue magnitudes (infinite
    for a zero eigenvalue), or NaN where :func:`_cleared` shows it is at
    most ``cap / 2``.  ``ridge`` marks a lowest eigenvalue that is not
    positive, where Cholesky factorization would fail.  Only the matrices
    not cleared go through ``eigvalsh``.
    """
    cond = np.full(len(info), np.nan)
    ridge = np.zeros(len(info), dtype=bool)
    rest = np.flatnonzero(~_cleared(info, cap))
    if rest.size:
        eig = np.linalg.eigvalsh(info[rest])
        size = np.abs(eig)
        exact = np.full(len(rest), np.inf)
        np.divide(size.max(1), size.min(1), out=exact, where=size.min(1) > 0)
        cond[rest], ridge[rest] = exact, eig[:, 0] <= 0.0
    return cond, ridge


def _ridged(info, used):
    """The informations, with a tiny ridge on each that ``used`` marks."""
    if used.any():
        dim = info.shape[-1]
        info = info.copy()
        info[used] += (1e-10 * np.trace(info[used], axis1=1, axis2=2) / dim)[
            :, None, None] * np.eye(dim)
    return info


def _fit_checks(masks, zt, y, p, weights, start):
    """Each fit's error before it iterates, or None, and its coefficient scales.

    Fits with the same records share one rank check.  The scales are 1 but
    for each covariate's weighted SD, by which ``COEF_BOUND`` reads a slope.
    """
    if weights.ndim != 2 or weights.shape[1] != len(y) or not (
            (weights >= 0) & (weights < np.inf)).all():
        raise ValueError("weights must be finite and non-negative, one row of n per fit")
    if start is not None and not np.isfinite(start).all():
        raise ValueError("start entries must all be finite")
    nfits, ncols = len(weights), (1 << p) + len(zt)
    n = weights.sum(1)
    if (n < ncols + 1).any():
        raise ValueError(
            f"need at least {ncols + 1} records to fit {ncols} coefficients, "
            f"got {n.min():g}"
        )
    both = (weights @ y > 0) & (weights @ (1 - y) > 0)
    scale = np.ones((nfits, ncols))
    for i, z in enumerate(zt, start=1 << p):
        dev = z - z.mean()  # then the weighted mean of dev is near 0
        mean = weights @ dev / n
        spread = weights @ np.square(dev, out=dev) / n - mean**2
        scale[:, i] = np.sqrt(np.maximum(spread, 0.0))
    errors = np.full(nfits, None)
    checked = {}
    for b in range(nfits):
        has = weights[b] > 0
        key = has.tobytes()
        if both[b] and key not in checked:
            # no copy where the fit has every record: a fresh copy of a
            # large design costs more in page faults than the check itself
            own = (masks, zt) if has.all() else (masks[has], zt.compress(has, 1))
            try:
                _check_design(*own, p)
                checked[key] = None
            except SingularDesignError as exc:
                checked[key] = exc
        errors[b] = checked[key] if both[b] else EmptyClassError(
            "both cases and controls are required for fitting")
    return errors, scale


def _newton_step(evaluate, rows, moving, ridge, beta, loglik, score, info):
    """Step each fit of ``rows`` that ``moving`` marks, writing its new point.

    The Newton step (with :func:`_ridged`'s ridge where ``ridge`` marks) is
    halved until the loglik does not decrease.  Returns each fit's accepted
    step, zero where it does not move, and which fits stalled: no trial down
    to 2^-34 of the full step was accepted.
    """
    step = np.zeros((len(rows), beta.shape[1]))
    pending = np.flatnonzero(moving)
    step[pending] = np.linalg.solve(_ridged(info[rows[pending]], ridge[pending]),
                                    score[rows[pending]][..., None])[..., 0]
    origin, floor = beta[rows], loglik[rows]
    t, stalled = np.ones(len(rows)), np.zeros(len(rows), dtype=bool)
    while pending.size:
        candidate = origin[pending] + t[pending, None] * step[pending]
        trial = evaluate(candidate, rows[pending])
        up = trial[0] >= floor[pending]
        done = rows[pending[up]]
        beta[done], loglik[done], score[done], info[done] = (
            a[up] for a in (candidate, *trial))
        pending = pending[~up]
        t[pending] *= 0.5
        stuck = t[pending] <= 2.0 ** -34
        stalled[pending[stuck]] = True
        pending = pending[~stuck]
    return t[:, None] * step, stalled


def _guards(iteration, rows, cond, stalled, scaled, masks, zt, y, weights, p):
    """The error that ends each fit of ``rows`` at this iteration, or None.

    In order: a condition number ``cond`` (NaN where certified) above
    ``COND_CAP``, SeparationError; a stalled step-halving, ConvergenceError;
    a coefficient beyond ``COEF_BOUND``, slopes per SD (``scaled``), SeparationError.
    """
    worst = np.abs(scaled).max(1)
    verdicts = np.full(len(rows), None)
    for i in np.flatnonzero((cond > COND_CAP) | stalled | (worst > COEF_BOUND)):
        if cond[i] > COND_CAP:
            verdicts[i] = _separation_error(
                f"information matrix condition number {cond[i]:.3g} exceeds "
                f"{COND_CAP:.0e}", masks, y, weights[rows[i]], p, zt,
            )
        elif stalled[i]:
            verdicts[i] = ConvergenceError(
                f"step-halving found no non-decreasing step at iteration {iteration}")
        else:
            c = int(np.abs(scaled[i]).argmax())  # the coefficient at worst
            name = ("intercept" if c == 0 else pattern_index(p).label(c - 1)
                    if c < 1 << p else f"covariate {c - (1 << p) + 1} (per SD)")
            verdicts[i] = _separation_error(
                f"coefficient magnitude {worst[i]:.3g} of {name} exceeds the "
                f"divergence bound {COEF_BOUND}", masks, y, weights[rows[i]], p,
            )
    return verdicts


def fit_batch(masks, covariates, outcome, p, weights, start=None):
    """Newton/step-halving ML fits of one model per row of ``weights``.

    The records are shared, given as in :func:`fit_design`; row ``b`` of the
    (B, n) ``weights`` holds fit ``b``'s frequency weights, zero for a
    record it does not have; they may be fractional, and a fit has both
    classes when its cases and its controls have positive total weight.
    ``start`` is an optional (B, 2^p + q) array of starting coefficients.
    A fit on the distinct records weighted by their counts is the fit on
    the records themselves, up to the order of summation.  Each fit's
    numbers do not depend on the other rows, and its
    :class:`InterOddsError` (see :func:`fit_logit`) is recorded in
    ``errors`` instead of raised.  Raises ValueError when ``weights`` is
    not a (B, n) array of finite non-negative weights, ``start`` has an
    entry that is not finite, or a fit has fewer weighted records than
    coefficients plus one.
    """
    zt = np.ascontiguousarray(covariates.T)  # a view for column-major records
    y, weights = np.asarray(outcome), np.asarray(weights, dtype=float)
    errors, scale = _fit_checks(masks, zt, y, p, weights, start)
    nfits, ncols = scale.shape
    evaluate = _evaluator(masks, zt, y, weights, p)
    beta = np.zeros((nfits, ncols)) if start is None else (
        np.array(start, dtype=float).reshape(nfits, ncols))
    loglik, score = np.zeros(nfits), np.zeros((nfits, ncols))
    info = np.zeros((nfits, ncols, ncols))
    iterations, ridge_used = np.zeros(nfits, np.int64), np.zeros(nfits, bool)
    rows = np.flatnonzero(np.equal(errors, None))  # still iterating
    if rows.size:
        loglik[rows], score[rows], info[rows] = evaluate(beta[rows], rows)
    for iteration in range(1, MAX_ITER + 1):
        iterations[rows] = iteration
        rows = rows[np.abs(score[rows]).max(1) > SCORE_TOL * (1.0 + np.abs(loglik[rows]))]
        if not rows.size:
            break
        cond, ridge = _conditioning(info[rows], COND_CAP)
        moving = ~(cond > COND_CAP)  # cond is NaN where certified below the cap
        ridge_used[rows] |= moving & ridge
        step, stalled = _newton_step(
            evaluate, rows, moving, ridge, beta, loglik, score, info)
        errors[rows] = _guards(iteration, rows, cond, stalled, beta[rows] * scale[rows],
                               masks, zt, y, weights, p)
        rows = rows[np.equal(errors[rows], None) & (np.abs(step).max(1) > STEP_TOL)]
    errors[rows] = [ConvergenceError(f"no convergence after {MAX_ITER} Newton iterations")
                    for _ in rows]
    return BatchFit(beta, loglik, score, info, iterations, ridge_used, errors.tolist())


def fit_design(masks, covariates, outcome, p, start=None):
    """Newton/step-halving ML fit on records given by their exposure masks.

    Record ``i`` has exposure bitmask ``masks[i]`` (factor j is bit j),
    covariates ``covariates[i]`` (an (n, q) float array, q may be 0) and
    outcome ``outcome[i]``; its design row ``[1, downset indicator of the
    mask, covariates]`` is never built.  This is a batch of one for
    :func:`fit_batch`, every record with weight one.  The covariance is the
    inverse of the information at the fit, with :func:`fit_batch`'s ridge
    where that information is not positive definite.  Raises as described
    in :func:`fit_logit`.
    """
    fits = fit_batch(
        masks, covariates, outcome, p,
        np.broadcast_to(1.0, (1, len(masks))),  # the ones, with no copy
        None if start is None else np.asarray(start, dtype=float)[None],
    )
    if fits.errors[0] is not None:
        raise fits.errors[0]
    used = _conditioning(fits.info[:1], np.inf)[1]
    full_cov = np.linalg.inv(_ridged(fits.info[:1], used)[0])
    full_cov = 0.5 * (full_cov + full_cov.T)
    beta, psi = fits.beta[0], slice(1, 1 << p)
    return FitResult(
        params=FullParams(StructuralParams(beta[psi], p), np.delete(beta, psi)),
        sigma_psi=full_cov[psi, psi],
        loglik=float(fits.loglik[0]),
        iterations=int(fits.iterations[0]),
        converged=True,
        gradient_norm=float(np.abs(fits.score[0]).max()),
        ridge_used=bool(fits.ridge_used[0] or used[0]),
    )


def fit_logit(data: CaseControlDataset, start=None) -> FitResult:
    """Fit the saturated-factor logistic model to a case-control dataset.

    Parameters
    ----------
    data : CaseControlDataset
    start : array_like, optional
        Design-order start ``[kappa0, psi..., kappa1..q]``; zeros by default.

    Raises
    ------
    SingularDesignError
        A design column is constant, or the design is collinear.
    SeparationError
        A coefficient (a slope in units of its covariate's weighted SD)
        passed the divergence bound or the information matrix condition
        number passed its cap during iteration.
    ConvergenceError
        Iteration budget exhausted without meeting either tolerance.
    EmptyClassError
        All records share one outcome.
    ValueError
        Too few records for the coefficients, or a start entry that is not
        finite.
    """
    return fit_design(data.exposure_masks, data.covariates, data.outcome, data.p, start)
