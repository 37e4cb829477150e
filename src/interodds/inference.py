"""Confidence intervals for the odds-scale measures.

The delta method propagates the asymptotic covariance of the structural
coefficients through a measure.  Every measure is a function of three
odds-ratio parts, so its variance is ``r' G r``: ``r`` holds its analytic
derivatives by the parts and ``G`` is the parts' 3 x 3 covariance, which
each fit keeps per plan.  The interval is built symmetrically on a
variance-stabilizing scale and mapped back.  A stratified percentile
bootstrap is provided as an independent, slower route to the same
interval.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import exp, fsum, log, sqrt, tanh
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import (
    BootstrapFailureError,
    NegativeVarianceError,
    TransformRangeError,
)
# fit_design is not called here: the benchmark's tracer wraps it by name
from .logit import CaseControlDataset, FitResult, fit_batch, fit_design  # noqa: F401
from .measures import (
    MeasureSpec,
    _ReadOnly,
    _family,
    _frozen,
    _plan_parts,
    kind_value,
    log_or_tables,
    measure,
    measure_parts,  # noqa: F401  not called here: the tracer wraps it by name
    measure_value,
    si_defined,
    spec_plan,
)

# Relative gap below which the attributable-proportion denominator is
# treated as tied; the gradient then follows the joint-OR branch.
AP_TIE_RTOL = 1e-9

# Fewest bootstrap replicates that give usable 2.5% / 97.5% percentiles.
MIN_BOOT = 200

# Cells per batch of bootstrap refits: one Newton loop fits
# max(1, BUDGET // C) replicates on the union of the cells they drew, where
# C is the data's distinct-cell count.  With few cells every replicate
# shares one loop; with many, each is fitted alone on the cells it drew,
# since carrying cells a replicate did not draw costs more than it saves.
# C is floored at the coefficient count, which a design of full rank
# reaches anyway, so data that fail every refit cannot size a batch of
# information matrices past the budget.
BUDGET = 1 << 13

_STANDARD_NORMAL = NormalDist()


@lru_cache(maxsize=64)
def normal_quantile(beta: float) -> float:
    """Standard normal quantile (Wichura's AS241), cached per level."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {beta}")
    return _STANDARD_NORMAL.inv_cdf(beta)


def _derivatives(kind: str, a: float, b: float, c: float) -> tuple:
    """A measure's derivatives by its parts, where :func:`measure_value` is defined."""
    if kind == "OR":
        return 1.0 / c, 0.0, -a / c**2
    if kind == "EOR":
        return 1.0 / c, -1.0 / c, -(a - b) / c**2
    if kind == "AP" and a >= b:
        return b / a**2, -1.0 / a, 0.0
    if kind == "AP":
        return 1.0 / b, -a / b**2, 0.0
    d = b - c
    return 1.0 / d, -(a - c) / d**2, (a - b) / d**2


def _plan_covariance(fit: FitResult, spec: MeasureSpec) -> list:
    """``[a, b, c, G00, G01, G02, G11, G12, G22]``: a plan's parts and their covariance.

    The parts are :func:`~interodds.measures.measure_parts`'s, and ``G``
    reads the fit's :attr:`~interodds.logit.FitResult.or_covariance`
    ``Y``.  The fit keeps each entry under its plan's value ``(p, varying,
    fixed_mask, order)``.  A miss forms, in one pass, the entries of every
    plan of the spec's varying set J: each held-level mask and each order,
    at most ``2^p`` plans.  ``b`` is an ``fsum`` per plan, and ``u = W Y``
    and ``G11 = (W * u) 1`` are ``einsum`` sums over the plans' dense
    weight rows ``W``: unlike a BLAS product's, a row's bits do not depend
    on the other rows.
    """
    entries = fit._delta
    key = (spec.p, spec.varying, spec.fixed_mask, spec.effective_order)
    if key not in entries:
        psi = fit.params.psi
        spec_plan(psi.p, spec)  # raises for another p
        keys, starts, j, z, rows, m, w = _family(psi.p, spec.varying)
        y, ors, r = fit.or_covariance, psi.or_table, np.arange(len(keys))
        wd = np.zeros((len(keys), 1 << psi.p))
        wd[rows, m] = w
        u = np.einsum("rk,kc->rc", wd, y)
        terms = (w * ors[m]).tolist()
        b = [fsum(terms[s:e]) for s, e in zip(starts, starts[1:])]
        out = np.array([ors[j], b, ors[z], y[j, j], u[r, j], y[j, z],
                        np.einsum("rk,rk->r", wd, u), u[r, z], y[z, z]])
        entries.update(zip(keys, out.T.tolist()))
    return entries[key]


def _unit(x: float) -> float:
    if not -1.0 < x < 1.0:
        raise TransformRangeError(f"value {x} outside the open interval (-1, 1)")
    return x


def _positive(x: float) -> float:
    if not x > 0.0:
        raise TransformRangeError(f"value {x} outside (0, inf)")
    return x


def _exp(y: float) -> float:
    if y < 700.0:
        return exp(y)
    with np.errstate(over="ignore"):  # inf past 709.78, where math.exp raises
        return float(np.exp(y))


# The variance-stabilizing transform of each kind, which delta_ci writes
# out: the identity for the excess odds ratio, log((1 + x)/(1 - x)) for the
# attributable proportion, and the logarithm for the odds ratio and the
# synergy index.
TRANSFORM_NAMES = {"OR": "log", "EOR": "identity", "AP": "atanh_like", "SI": "log"}


@dataclass
class EstimateReport:
    """Point estimate with a confidence interval and its provenance."""

    kind: str
    point: float
    transform: str
    se_transformed: float
    ci_low: float
    ci_high: float
    alpha: float
    method: str  # "DELTA" or "BOOTSTRAP_PERCENTILE"
    n_boot: Optional[int] = None
    n_failed: Optional[int] = None
    failures: Optional[dict] = None  # dropped replicates by error class
    note: Optional[str] = None


def delta_ci(fit: FitResult, spec: MeasureSpec, alpha: float = 0.05) -> EstimateReport:
    """Delta-method confidence interval for a measure at the fitted model.

    The variance of the estimate is ``r' G r``: ``r`` holds the measure's
    analytic derivatives by its joint, predicted and baseline odds ratios,
    and ``G`` is their 3 x 3 covariance.  A fit's first call for a varying
    set forms it, in one pass, for every plan of that set (see
    :func:`_plan_covariance`), so later calls for the set are scalar
    arithmetic.  The interval is symmetric on the transformed scale
    and mapped back, so it respects the measure's natural range; the
    kind's transform (see :data:`TRANSFORM_NAMES`) is written out, its
    derivative, map and inverse in one step.

    Raises
    ------
    ValueError
        Fit not converged, dimension mismatch, or alpha outside (0, 1).
    NegativeVarianceError
        Quadratic form below -1e-10 (defective covariance matrix).
    TransformRangeError, UndefinedSynergyError
        An attributable proportion whose predicted odds ratio is not
        positive; a synergy index that is undefined at the fit.
    """
    if not fit.converged:
        raise ValueError("delta_ci requires a converged fit")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    a, b, c, g00, g01, g02, g11, g12, g22 = _plan_covariance(fit, spec)
    point = measure_value(spec.kind, a, b, c)
    r0, r1, r2 = _derivatives(spec.kind, a, b, c)
    var = (r0 * (r0 * g00 + 2.0 * (r1 * g01 + r2 * g02))
           + r1 * (r1 * g11 + 2.0 * r2 * g12) + r2 * r2 * g22)
    if var < -1e-10:
        raise NegativeVarianceError(
            f"delta-method variance {var:.3g} is negative; covariance defect"
        )
    sigma = sqrt(0.0 if var < 0.0 else var)  # max(var, 0.0), without the call
    if spec.kind == "AP" and not b > 0.0:  # then the point is 1 or above
        raise TransformRangeError(
            f"attributable proportion {point:.6g} is outside (-1, 1): the "
            f"predicted odds ratio {b:.6g} is not positive (joint odds ratio "
            f"{a:.6g})"
        )

    if spec.kind == "EOR":
        se_t = sigma  # 1.0 * sigma
    elif spec.kind == "AP":
        se_t = 2.0 / (1.0 - _unit(point) * point) * sigma
    else:
        se_t = 1.0 / _positive(point) * sigma
    h = normal_quantile(1.0 - alpha / 2.0) * se_t
    if se_t == 0.0:
        low = high = point
    elif spec.kind == "EOR":
        low, high = point - h, point + h
    elif spec.kind == "AP":
        center = log((1.0 + point) / (1.0 - point))
        low, high = tanh(0.5 * (center - h)), tanh(0.5 * (center + h))
    else:
        center = log(point)
        low, high = _exp(center - h), _exp(center + h)
    # monotone transforms preserve the ordering exactly; the clamp only
    # absorbs last-ulp rounding of the transform round trip
    ci_low = point if point < low else low  # min(low, point)
    ci_high = point if point > high else high  # max(high, point)
    note = None
    if spec.kind == "AP" and abs(a - b) < AP_TIE_RTOL * max(a, b):
        note = (
            "joint and predicted odds ratios are numerically tied; "
            "the gradient used the joint branch of the denominator"
        )
    return EstimateReport(spec.kind, point, TRANSFORM_NAMES[spec.kind], se_t,
                          ci_low, ci_high, alpha, "DELTA", None, None, None, note)


@dataclass(frozen=True, eq=False)
class BootstrapReplicates(_ReadOnly):
    """Refitted structural coefficients of the bootstrap replicates.

    Row ``b`` of ``psi``, a read-only ``(n_fitted, 2^p - 1)`` copy, belongs
    to replicate ``b``.  ``errors[b]`` is the class name of the error that
    ended its refit, and ``None`` where the refit succeeded; the row of a
    failed refit is NaN.  Fitting stops once more than 10% of the refits
    have failed, since every measure's interval is then refused, so
    ``n_fitted`` may be less than ``n_boot``.  ``errors`` is a tuple.
    """

    n_boot: int
    psi: np.ndarray
    errors: tuple

    def __post_init__(self):
        object.__setattr__(self, "psi", _frozen(np.array(self.psi, dtype=float))[0])
        object.__setattr__(self, "errors", tuple(self.errors))

    @property
    def max_failures(self) -> int:
        return int(0.10 * self.n_boot)

    @cached_property
    def or_tables(self) -> np.ndarray:
        """The odds-ratio tables of the successful refits, one row each.

        Row ``k`` is the :attr:`~interodds.measures.StructuralParams.or_table`
        of the ``k``-th successful refit, bit for bit.
        """
        kept = self.psi[[e is None for e in self.errors]]
        return _frozen(np.exp(log_or_tables(kept)))[0]


def bootstrap_replicates(
    data: CaseControlDataset, n_boot: int = 1000, seed: int = 0
) -> BootstrapReplicates:
    """Refit the model once on each stratified bootstrap resample.

    Records are resampled with replacement independently within cases and
    within controls, so every replicate keeps the original case/control
    counts (the retrospective design fixes them).  Each replicate draws
    from its own seed-sequence substream indexed by replicate number,
    which makes the result independent of execution order.

    The records are first collapsed to their distinct (outcome, exposure
    pattern, covariates) cells, and a replicate is refitted as a weighted
    fit on the cells it drew, with the draw counts as frequency weights.
    That is the same fit as on the drawn records, up to the order of
    summation.  It is much smaller only where records repeat, as with no
    or only discrete confounders; a continuous confounder leaves one cell
    per record.  Replicates are fitted in batches of ``max(1, BUDGET //
    C)`` by :func:`~interodds.logit.fit_batch`, and a replicate's refit does
    not depend on its batch.

    Raises
    ------
    ValueError
        ``n_boot`` below 200.
    """
    if n_boot < MIN_BOOT:
        raise ValueError(
            f"need at least {MIN_BOOT} bootstrap replicates, got {n_boot}"
        )
    masks = data.exposure_masks
    cell_of, first = _cells(data, masks)
    ncells, p = len(first), data.p
    mask_cells = masks[first]
    zt_cells = data.covariates.T[:, first]  # rows, so fit_batch's transpose is a view
    y_cells = data.outcome[first]
    case_cells = cell_of[data.outcome == 1]
    control_cells = cell_of[data.outcome == 0]
    n1, n0 = len(case_cells), len(control_cells)

    def draw(child):  # the replicate's cell counts
        rng = np.random.default_rng(child)
        cases = case_cells[rng.integers(0, n1, size=n1)]
        controls = control_cells[rng.integers(0, n0, size=n0)]
        return (np.bincount(cases, minlength=ncells)
                + np.bincount(controls, minlength=ncells))

    children = np.random.SeedSequence(seed).spawn(n_boot)
    per_batch = max(1, BUDGET // max(ncells, (1 << p) + data.q))
    psi, errors, limit = [], [], int(0.10 * n_boot)  # the result's max_failures
    for start in range(0, n_boot, per_batch):
        counts = np.array([draw(c) for c in children[start : start + per_batch]])
        drawn = counts.any(0)
        fits = fit_batch(
            mask_cells.compress(drawn), zt_cells.compress(drawn, 1).T,
            y_cells.compress(drawn), p, counts.compress(drawn, 1),
        )
        names = [None if e is None else type(e).__name__ for e in fits.errors]
        batch = fits.beta[:, 1 : 1 << p]
        batch[[name is not None for name in names]] = np.nan
        psi.append(batch)
        errors += names
        if len(errors) - errors.count(None) > limit:
            # stop at the failure that crosses the limit
            cut = [b for b, name in enumerate(errors) if name][limit]
            del errors[cut + 1 :]
            break
    return BootstrapReplicates(n_boot, np.concatenate(psi)[: len(errors)], errors)


def _cells(data: CaseControlDataset, masks: np.ndarray) -> tuple:
    """Each record's cell and each cell's first record, given the records' ``masks``.

    A cell is a distinct (outcome, exposure mask, covariates) record.  Cells
    are numbered in the order of their first records, which keeps runs of
    one exposure mask as short as in the data: ``bincount`` by mask is
    slowest when consecutive cells share a bin.
    """
    keys = (*data.covariates.T[::-1], masks, data.outcome)
    order = np.lexsort(keys)
    new = np.zeros(data.n, dtype=bool)  # where a sorted record starts a cell
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    first = order[new]  # the smallest record of each cell: lexsort is stable
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    cell_of = np.empty(data.n, dtype=np.intp)
    cell_of[order] = rank[np.cumsum(new) - 1]
    return cell_of, np.sort(first)


def bootstrap_ci(
    fit: FitResult,
    replicates: BootstrapReplicates,
    spec: MeasureSpec,
    alpha: float = 0.05,
) -> EstimateReport:
    """Stratified percentile-bootstrap confidence interval.

    The point estimate is the measure at ``fit``, the full-data fit; the
    interval comes from the refits of :func:`bootstrap_replicates`, which
    one set of replicates serves for every measure.  Replicates whose
    refit failed, or whose measure is undefined, are dropped and counted
    by error class in ``failures``: a failed refit counts against every
    measure, an undefined measure only against its own.

    Raises
    ------
    BootstrapFailureError
        More than 10% of replicates dropped.
    ValueError
        alpha outside (0, 1), or a spec whose factor count differs from
        the fit's.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    point = measure(fit.params.psi, spec)
    tables = replicates.or_tables
    a, b, c = _plan_parts(tables, spec_plan(tables.shape[1].bit_length() - 1, spec))
    errors = list(replicates.errors)  # a failed refit counts for every measure
    if spec.kind == "SI":  # an undefined measure only for its own
        defined = si_defined(a, b, c)
        kept = [k for k, error in enumerate(errors) if error is None]
        for k in np.compress(~defined, kept):
            errors[k] = "UndefinedSynergyError"
        a, b, c = a[defined], b[defined], c[defined]
    failures = {}
    for failed, error in enumerate(filter(None, errors), start=1):
        failures[error] = failures.get(error, 0) + 1
        if failed > replicates.max_failures:
            raise BootstrapFailureError(
                f"{failed} of {replicates.n_boot} bootstrap replicates failed "
                "(limit is 10%)",
                failures,
            )
    values = kind_value(spec.kind, a, b, c, np.maximum)
    ci_low, ci_high = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return EstimateReport(
        kind=spec.kind,
        point=point,
        transform="identity",
        se_transformed=float(np.std(values, ddof=1)),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        alpha=alpha,
        method="BOOTSTRAP_PERCENTILE",
        n_boot=replicates.n_boot,
        n_failed=sum(failures.values()),
        failures=failures,
    )
