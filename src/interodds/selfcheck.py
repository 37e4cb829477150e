"""Internal identity suites.

These walk randomized grids and verify the algebraic identities the whole
package rests on: the additive expansion of odds ratios into increments,
the closed form of the truncated prediction, the alternating binomial
identity behind its coefficients, and the delta-method standard errors
against central finite differences.  The CLI ``check`` subcommand runs
small versions of all four; the acceptance tests run the full grids.

The expansion and prediction suites evaluate all draws at once with the
term tables and row ``fsum`` that the measures use; the gradient suite
checks :func:`~interodds.inference.delta_ci` itself.

Random draws use per-coordinate log odds ratios uniform in
``[-PSI_SCALE, PSI_SCALE]``.  Comparisons use a relative error with a
unit floor, ``|x - y| / max(1, |x|, |y|)``, so identities involving
near-zero signed combinations stay comparable.
"""

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .errors import UndefinedSynergyError
from .inference import delta_ci
from .logit import FitResult
from .measures import (
    KINDS,
    MeasureSpec,
    StructuralParams,
    _increment_terms,
    _plan_parts,
    _prediction_terms,
    _sublattice,
    _validate_fixed,
    log_or_tables,
    measure,
    measure_parts,
)
from .patterns import alternating_binomial_sum

# Per-factor odds ratios between exp(-0.75) ~ 0.47 and exp(0.75) ~ 2.1: a
# realistic effect range that also keeps the alternating sums far from
# catastrophic cancellation (the identities are scale-free, so this loses
# no checking power).
PSI_SCALE = 0.75


def rel_err(x, y):
    """The unit-floor relative error, entrywise on arrays."""
    return np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))


def random_params(p: int, rng, scale: float = PSI_SCALE) -> StructuralParams:
    return StructuralParams(rng.uniform(-scale, scale, (1 << p) - 1), p)


def iter_splits(p: int):
    """Every way to hold a (possibly empty) factor subset at fixed levels."""
    for kmask in range(1 << p):
        held = [j for j in range(p) if (kmask >> j) & 1]
        if len(held) == p:
            continue
        for levels in range(1 << len(held)):
            yield {j: (levels >> i) & 1 for i, j in enumerate(held)}


def _identity_grid(p_values, draws, seed, stride):
    """Every (split, pattern ``v_j``) of each ``p``, for all draws at once.

    The draws of each ``p`` are one ``(draws, 2^p - 1)`` block from the
    stream seeded ``seed + stride * p``, row ``k`` the ``k``-th draw's
    parameters.  Yields ``(ors, fixed_mask, on, incs, below, target)``:
    the draws' odds-ratio tables, the held-level mask, the factors ``v_j``
    turns on, the increments of every pattern of the varying factors (one
    row per draw, computed once per split), the local masks ``w <= v_j``
    and the odds ratios at ``v_j``.
    """
    for p in p_values:
        rng = np.random.default_rng(seed + stride * p)
        ors = np.exp(log_or_tables(rng.uniform(-PSI_SCALE, PSI_SCALE,
                                               (draws, (1 << p) - 1))))
        for fixed in iter_splits(p):
            varying, fixed_mask = _validate_fixed(p, fixed)
            patterns = [tuple(j for i, j in enumerate(varying) if w >> i & 1)
                        for w in range(1 << len(varying))]
            incs = np.array([_fsums(ors, *_increment_terms(on, fixed_mask))
                             for on in patterns]).T
            full = _sublattice(varying, fixed_mask)[0]
            for vj, on in enumerate(patterns):
                below = [w for w in range(len(patterns)) if not w & ~vj]
                yield ors, fixed_mask, on, incs, below, ors[:, full[vj]]


def _fsums(table, masks, coef):
    """Each row's ``fsum`` of ``coef`` times its entries at ``masks``."""
    return _plan_parts(table, (0, 0, masks, coef))[1]


def _increment_sums(incs, below):
    """Each row's ``fsum`` of its increments at the local masks ``below``."""
    return _fsums(incs, np.array(below), np.ones(len(below)))


def expansion_identity_error(p_values=(1, 2, 3, 4), draws=25, seed=20170322):
    """Worst error of: increments below v sum back to the odds ratio at v.

    Checked for every split into varying/held factors, every held level
    combination, and every pattern of the varying factors.
    """
    worst = 0.0
    for _, _, _, incs, below, target in _identity_grid(p_values, draws, seed, 1):
        error = np.abs(_increment_sums(incs, below) - target) / target
        worst = max(worst, float(error.max()))
    return worst


def prediction_equivalence_error(p_values=(1, 2, 3, 4), draws=25, seed=20170322):
    """Worst disagreement between the closed-form prediction and the increments.

    For every truncation order the closed form must equal the ``fsum`` of
    the increments below the pattern with at most that many factors on;
    with nothing truncated, the increments must sum to the plain odds ratio.
    """
    worst = 0.0
    for ors, fixed_mask, on, incs, below, target in _identity_grid(
        p_values, draws, seed, 31
    ):
        for order in range(len(on)):
            ref = _increment_sums(incs, [w for w in below if w.bit_count() <= order])
            closed = _fsums(ors, *_prediction_terms(on, fixed_mask, order))
            worst = max(worst, float(rel_err(closed, ref).max()))
        worst = max(worst, float(rel_err(_increment_sums(incs, below), target).max()))
    return worst


def alternating_binomial_ok(n_max=12):
    """Direct-sum and closed-form sides agree for all 0 <= m < n <= n_max."""
    for n in range(1, n_max + 1):
        for m in range(n):
            direct = sum((-1) ** l * comb(n, l) for l in range(m + 1))
            if alternating_binomial_sum(n, m) != direct:
                return False
    return True


def _fd(func, params, step=1e-5):
    """Five-point central finite-difference gradient of a function of psi.

    Its error is O(step**4), so it stays accurate where the synergy
    index's denominator is small and the central difference's O(step**2)
    error is not.
    """
    psi = params.psi

    def at(k, offset):
        moved = psi.copy()
        moved[k] += offset
        return func(StructuralParams(moved, params.p))

    grad = np.empty(psi.size)
    for k in range(psi.size):
        grad[k] = (
            8.0 * (at(k, step) - at(k, -step)) - (at(k, 2 * step) - at(k, -2 * step))
        ) / (12.0 * step)
    return grad


def _gradient_points(points, seed, p_values, step):
    """``points`` random ``(params, spec, gradient, sigma_psi)`` points.

    ``gradient`` is the :func:`_fd` gradient of the measure and
    ``sigma_psi`` a random positive definite covariance.  The points cycle
    through the four kinds, and every other round of four holds a factor
    at level 1, so each kind is also checked where its baseline odds ratio
    varies with the coefficients (with every held level 0 that gradient is
    zero).  Points where the synergy index is undefined nearby, or where
    the attributable-proportion denominator is within 1e-6 relative of its
    tie, are redrawn (the gradient is not defined there).
    """
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < points:
        kind = KINDS[checked % 4]
        low = 2 if kind == "SI" else 1  # the fewest varying factors of the kind
        hold_one = checked // 4 % 2 == 0 and max(p_values) > low
        p = int(rng.choice(p_values))
        if hold_one and p <= low:
            continue
        params = random_params(p, rng)
        while True:
            kmask = int(rng.integers(1 << p))
            fixed = {j: int(rng.integers(2)) for j in range(p) if (kmask >> j) & 1}
            nj = p - len(fixed)
            if nj >= low and (not hold_one or 1 in fixed.values()):
                break
        spec = MeasureSpec(p, kind, int(rng.integers(low, nj + 1)), fixed)
        a, b, _ = measure_parts(params, spec)
        if spec.kind == "AP" and abs(a - b) < 1e-6 * max(a, b):
            continue
        try:
            gradient = _fd(lambda pr: measure(pr, spec), params, step)
        except UndefinedSynergyError:
            continue
        root = rng.normal(0.0, 0.1, (params.psi.size, params.psi.size))
        checked += 1
        yield params, spec, gradient, root @ root.T


def gradient_fd_error(points=100, seed=20170322, p_values=(2, 3, 4), step=1e-5):
    """Worst relative error of delta-method standard errors against finite differences.

    At each point of :func:`_gradient_points`, :func:`delta_ci`'s standard
    error, mapped back from its transform's scale to the measure's, is
    compared with ``sqrt(g' sigma_psi g)``, ``g`` the finite-difference
    gradient of the measure.
    """
    worst = 0.0
    for params, spec, g, sigma in _gradient_points(points, seed, p_values, step):
        fit = FitResult(params, np.zeros(1), sigma, 0.0, 0, True, 0.0)
        rep = delta_ci(fit, spec)
        x = rep.point  # the standard error is on the transform's scale
        if spec.kind == "EOR":
            slope = 1.0
        elif spec.kind == "AP":
            slope = 2.0 / (1.0 - x * x)
        else:
            slope = 1.0 / x
        want = sqrt(g @ sigma @ g)
        worst = max(worst, abs(rep.se_transformed / slope - want) / want)
    return worst


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_all(fast=True):
    """Run the four identity suites; small grids when ``fast``."""
    draws = 25 if fast else 200
    p_values = (1, 2, 3, 4) if fast else (1, 2, 3, 4, 5)
    points = 20 if fast else 100
    results = []

    for name, suite in (("expansion-identity", expansion_identity_error),
                        ("prediction-equivalence", prediction_equivalence_error)):
        err = suite(p_values=p_values, draws=draws)
        results.append(CheckResult(
            name,
            err <= 1e-12,
            f"max rel err {err:.2e} (tol 1e-12, p in {p_values}, {draws} draws)",
        ))
    ok = alternating_binomial_ok(n_max=12)
    results.append(
        CheckResult(
            "alternating-binomial",
            ok,
            "both sides agree for all 0 <= m < n <= 12",
        )
    )
    err = gradient_fd_error(points=points)
    results.append(
        CheckResult(
            "gradient-finite-difference",
            err <= 1e-6,
            f"max rel err {err:.2e} (tol 1e-6, {points} points)",
        )
    )
    return results
