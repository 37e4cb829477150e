"""Reference implementations that the tests check the package against.

Each is written out from its definition, independently of the code it
checks, and lives here because only the tests use it.
"""

from dataclasses import dataclass
from math import comb, exp, fsum, log, sqrt, tanh
from types import SimpleNamespace
from typing import Callable

import numpy as np

from interodds.errors import (
    BootstrapFailureError,
    InterOddsError,
    NegativeVarianceError,
    OrderRangeError,
    TransformRangeError,
)
from interodds.inference import (
    AP_TIE_RTOL,
    EstimateReport,
    normal_quantile,
)
from interodds.measures import (
    MeasureSpec,
    StructuralParams,
    canonical_kind,
    measure,
    measure_parts,
    measure_value,
    odds_ratio,
    or_increment,
    spec_plan,
)
from interodds.patterns import as_mask, downset_rows, pattern_index
from interodds.selfcheck import iter_splits, random_params, rel_err


def downset_indicator(u) -> np.ndarray:
    """0/1 vector over the canonical coordinates, marking patterns ``w <= u``."""
    bits = tuple(int(b) for b in u)
    mask = as_mask(bits)
    masks = pattern_index(len(bits)).masks.tolist()
    return np.array([int(m & ~mask == 0) for m in masks], dtype=np.int8)


def part_derivatives(kind, a, b, c):
    """A measure's derivatives by its joint, predicted and baseline odds ratios.

    The attributable proportion takes its joint-branch subgradient where
    joint and predicted tie.
    """
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


def parts_gradients(params, spec):
    """Gradients of the (joint, predicted, baseline) odds ratios by psi.

    Each odds ratio of the spec's plan differentiates to itself times the
    :func:`downset_indicator` of its pattern; the predicted part weights
    them by the plan's coefficients.
    """
    joint, baseline, masks, coef = spec_plan(params.p, spec)
    ors = params.or_table[[joint, baseline, *masks.tolist()]]
    rows = np.array([downset_indicator(as_bits(m, params.p))
                     for m in [joint, baseline, *masks.tolist()]], dtype=float)
    return SimpleNamespace(
        joint=ors[0] * rows[0], predicted=(coef * ors[2:]) @ rows[2:],
        baseline=ors[1] * rows[1],
    )


def measure_gradient(params, spec):
    """Gradient of the measure by psi: the chain rule over :func:`parts_gradients`.

    Raises where the measure is undefined, as :func:`measure` does.
    """
    a, b, c = measure_parts(params, spec)
    measure_value(spec.kind, a, b, c)
    r0, r1, r2 = part_derivatives(spec.kind, a, b, c)
    g = parts_gradients(params, spec)
    return r0 * g.joint + r1 * g.predicted + r2 * g.baseline


def predicted_or_increments(params, v_j, fixed, order):
    """Reference for :func:`~interodds.measures.predicted_or`: sum the increments.

    The ``fsum`` of the public :func:`or_increment` over every subpattern
    of ``v_j`` with at most ``order`` factors on.
    """
    or_increment(params, v_j, fixed)  # checks v_j and fixed as predicted_or does
    d = sum(v_j)
    if not 0 <= order <= d:
        raise OrderRangeError(f"prediction order must be in 0..{d}, got {order}")
    below = [w for w in subpatterns(v_j) if sum(w) <= order]
    return fsum(or_increment(params, w, fixed) for w in below)


def excess_or(params, fixed, order):
    """Joint odds ratio minus its prediction from orders below ``order``."""
    a, b, _ = measure_parts(params, MeasureSpec(params.p, "EOR", order, fixed or {}))
    return a - b


def _full_mask(w, varying, fixed_mask):
    """The full-pattern mask of the mask ``w`` over the varying factors."""
    mask = fixed_mask
    for i, j in enumerate(varying):
        if (w >> i) & 1:
            mask |= 1 << j
    return mask


def increment_terms_loop(varying, vj_local, fixed_mask):
    """Masks and signs of the increment at ``v_j``, every ``w <= v_j`` ascending."""
    masks, signs = [], []
    d = vj_local.bit_count()
    for w in range(1 << len(varying)):
        if w & ~vj_local:
            continue
        masks.append(_full_mask(w, varying, fixed_mask))
        signs.append(-1.0 if (d - w.bit_count()) % 2 else 1.0)
    return np.array(masks), np.array(signs)


def increment_sum_terms_loop(varying, vj_local, fixed_mask, order):
    """The increment terms of each ``w <= v_j`` with ``|w| <= order``, and their slices."""
    masks, signs, slices, start = [], [], [], 0
    for w in range(1 << len(varying)):
        if w & ~vj_local or w.bit_count() > order:
            continue
        m, s = increment_terms_loop(varying, w, fixed_mask)
        masks += m.tolist()
        signs += s.tolist()
        slices.append(slice(start, start + len(m)))
        start += len(m)
    return np.array(masks), np.array(signs), tuple(slices)


def prediction_terms_loop(varying, vj_local, fixed_mask, order):
    """Masks and coefficients ``(-1)^(order-|w|) C(|v_j|-1-|w|, order-|w|)``."""
    masks, coeffs = [], []
    d = vj_local.bit_count()
    for w in range(1 << len(varying)):
        k = w.bit_count()
        if w & ~vj_local or k > order:
            continue
        masks.append(_full_mask(w, varying, fixed_mask))
        coeffs.append((-1.0) ** (order - k) * comb(d - 1 - k, order - k))
    return np.array(masks), np.array(coeffs)


def spec_terms_loop(varying, fixed_mask, order):
    """The (joint, baseline, masks, coef) plan: the prediction terms last."""
    joint = _full_mask((1 << len(varying)) - 1, varying, fixed_mask)
    pred_masks, coeffs = prediction_terms_loop(
        varying, (1 << len(varying)) - 1, fixed_mask, order - 1
    )
    return joint, fixed_mask, pred_masks, coeffs


def canonical_masks_loop(p):
    """The nonzero masks in canonical order: by count of factors on, then
    by the positions of the factors on, compared in turn."""
    masks = []
    for k in range(1, p + 1):
        level = [m for m in range(1 << p) if bin(m).count("1") == k]
        masks += sorted(level, key=lambda m: [j for j in range(p) if m >> j & 1])
    return masks


def as_bits(mask: int, p: int) -> tuple:
    """Unpack a bitmask into a length-``p`` tuple of 0/1 ints."""
    return tuple((mask >> j) & 1 for j in range(p))


def subpatterns(v) -> list:
    """All patterns ``w <= v`` in canonical order, zero pattern included."""
    bits = tuple(int(b) for b in v)
    mask = as_mask(bits)
    return [as_bits(m, len(bits)) for m in [0, *canonical_masks_loop(len(bits))]
            if not m & ~mask]


def _cell_counts(exposures, outcome, weights=None):
    """The weighted case and control counts of each exposure mask."""
    p = len(exposures[0])
    n1, n0 = [0.0] * (1 << p), [0.0] * (1 << p)
    weights = [1.0] * len(outcome) if weights is None else list(weights)
    for bits, y, w in zip(np.asarray(exposures).tolist(), np.asarray(outcome).tolist(),
                          weights):
        mask = 0
        for j, b in enumerate(bits):
            mask |= b << j
        if y == 1:
            n1[mask] += w
        else:
            n0[mask] += w
    return p, n1, n0


def saturated_mle_loop(exposures, outcome, weights=None):
    """The q = 0 MLE as ``(intercept, psi, sigma_psi)``, in closed form.

    With no covariates the model is saturated in the 2^p exposure cells and
    fits each cell's log odds exactly: log(n1_m / n0_m), from the cell's
    weighted case and control counts.  The intercept and psi (canonical
    order) are the Moebius inverse of those log odds over the pattern
    lattice, and sigma_psi is the psi block of M diag(1/n1_m + 1/n0_m) M',
    with M the Moebius matrix: Woolf's variance of each cell's log odds,
    carried through the expansion.
    """
    p, n1, n0 = _cell_counts(exposures, outcome, weights)
    log_odds = [log(a / b) for a, b in zip(n1, n0)]
    woolf = [1.0 / a + 1.0 / b for a, b in zip(n1, n0)]
    rows = []  # the psi rows of M
    for c in canonical_masks_loop(p):
        rows.append([0.0 if u & ~c else (-1.0) ** (bin(c).count("1") - bin(u).count("1"))
                     for u in range(1 << p)])
    psi = [fsum(r[u] * log_odds[u] for u in range(1 << p)) for r in rows]
    sigma = [[fsum(r[u] * s[u] * woolf[u] for u in range(1 << p)) for s in rows]
             for r in rows]
    return log_odds[0], np.array(psi), np.array(sigma)


def saturated_score_loop(exposures, outcome, intercept, psi, weights=None):
    """The q = 0 score at ``(intercept, psi)``: intercept entry first, then psi's.

    Each cell contributes its residual n1_m - (n1_m + n0_m) theta_m to the
    intercept and to every psi coordinate whose pattern lies below m.
    """
    p, n1, n0 = _cell_counts(exposures, outcome, weights)
    coords = canonical_masks_loop(p)
    residual = []
    for m in range(1 << p):
        eta = intercept + fsum(x for x, c in zip(psi, coords) if c & ~m == 0)
        residual.append(n1[m] - (n1[m] + n0[m]) / (1.0 + exp(-eta)))
    return np.array([fsum(residual)] + [
        fsum(r for m, r in enumerate(residual) if c & ~m == 0) for c in coords])


def excess_or_explicit(params, fixed, order: int) -> float:
    """Hand-expanded excess odds ratio for one, two or three varying factors.

    The cross-check oracle for :func:`excess_or`; the formulas below are
    written out term by term.
    """
    varying = [j for j in range(params.p) if j not in fixed]
    nj = len(varying)
    if nj > 3:
        raise ValueError(f"explicit formulas cover up to 3 varying factors, got {nj}")
    if not 1 <= order <= nj:
        raise OrderRangeError(f"order must be in 1..{nj}, got {order}")

    def OR(*levels):
        bits = [0] * params.p
        for j, level in [*fixed.items(), *zip(varying, levels)]:
            bits[j] = level
        return odds_ratio(params, bits)

    if nj == 1:
        return OR(1) - OR(0)
    if nj == 2:
        if order == 1:
            return OR(1, 1) - OR(0, 0)
        return OR(1, 1) - OR(1, 0) - OR(0, 1) + OR(0, 0)
    if order == 1:
        return OR(1, 1, 1) - OR(0, 0, 0)
    if order == 2:
        return (
            OR(1, 1, 1)
            - OR(1, 0, 0)
            - OR(0, 1, 0)
            - OR(0, 0, 1)
            + 2 * OR(0, 0, 0)
        )
    return (
        OR(1, 1, 1)
        - OR(1, 1, 0)
        - OR(1, 0, 1)
        - OR(0, 1, 1)
        + OR(1, 0, 0)
        + OR(0, 1, 0)
        + OR(0, 0, 1)
        - OR(0, 0, 0)
    )


def excess_oracle_error(p_values=(1, 2, 3, 4), draws=25, seed=20170322):
    """Worst disagreement of excess_or with the hand-expanded formulas.

    Covers every split with at most three varying factors and every
    admissible order.
    """
    worst = 0.0
    for p in p_values:
        rng = np.random.default_rng(seed + 101 * p)
        splits = [
            fixed
            for fixed in iter_splits(p)
            if 1 <= p - len(fixed) <= 3
        ]
        for _ in range(draws):
            params = random_params(p, rng)
            for fixed in splits:
                nj = p - len(fixed)
                for order in range(1, nj + 1):
                    fast = excess_or(params, fixed, order)
                    oracle = excess_or_explicit(params, fixed, order)
                    worst = max(worst, rel_err(fast, oracle))
    return worst


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


@dataclass(frozen=True, eq=False)
class Transform:
    """Increasing map from a measure's range to the real line."""

    name: str
    apply: Callable[[float], float]
    invert: Callable[[float], float]
    derivative: Callable[[float], float]


_LOG = Transform("log", lambda x: log(_positive(x)), _exp, lambda x: 1.0 / _positive(x))
_TRANSFORMS = {
    "OR": _LOG,
    "EOR": Transform("identity", lambda x: x, lambda y: y, lambda x: 1.0),
    "AP": Transform(
        "atanh_like",
        lambda x: log((1.0 + _unit(x)) / (1.0 - x)),
        lambda y: tanh(0.5 * y),
        lambda x: 2.0 / (1.0 - _unit(x) * x),
    ),
    "SI": _LOG,
}


def ci_transform(kind: str) -> Transform:
    """Variance-stabilizing transform of each measure kind, as delta_ci uses it.

    Identity for the excess odds ratio, ``log((1 + x)/(1 - x))`` for the
    attributable proportion, and the logarithm for the synergy index and
    the joint odds ratio.  Each kind's transform is one shared instance.
    """
    return _TRANSFORMS[canonical_kind(kind)]


def bootstrap_ci_per_replicate(fit, replicates, spec, alpha=0.05):
    """:func:`interodds.inference.bootstrap_ci`, one replicate at a time.

    Evaluates :func:`measure` on each successful refit in replicate order
    and counts the dropped replicates as it goes, raising at the one that
    crosses the 10% limit.
    """
    point = measure(fit.psi, spec)
    values = []
    failed = 0
    failures = {}
    for psi, error in zip(replicates.psi, replicates.errors, strict=True):
        if error is None:
            try:
                values.append(measure(StructuralParams(psi, fit.psi.p), spec))
                continue
            except InterOddsError as exc:
                error = type(exc).__name__
        failed += 1
        failures[error] = failures.get(error, 0) + 1
        if failed > int(0.10 * replicates.n_boot):
            raise BootstrapFailureError(
                f"{failed} of {replicates.n_boot} bootstrap replicates failed "
                "(limit is 10%)",
                failures,
            )
    values = np.asarray(values)
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
        n_failed=failed,
        failures=failures,
    )


def delta_ci_reference(fit, spec, alpha=0.05):
    """:func:`interodds.inference.delta_ci` from scratch on every call.

    Forms ``Y = diag(OR) R sigma_psi R' diag(OR)``, the covariance of the
    odds ratios at all ``2^p`` patterns (``R`` their downset rows), reads
    the 3 x 3 covariance ``G`` of the spec's joint, predicted and baseline
    parts from it, and takes the variance as ``r' G r`` with ``r`` the
    measure's derivatives by its parts.  ``G`` is formed as the package's
    stacked pass forms it, on a block of one dense weight row ``w``:
    ``u = w Y`` and ``G11 = w . u`` are ``einsum`` sums.  The measure is
    :func:`measure_value`, and the interval maps through the transform's
    ``derivative``, ``apply`` and ``invert``.  The package keeps ``Y`` and
    ``G``; it must agree with this bit for bit: the same operations on the
    same operands, whatever block its pass formed the plan in.
    """
    if not fit.converged:
        raise ValueError("delta_ci requires a converged fit")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

    params = fit.psi
    j, z, masks, coef = spec_plan(params.p, spec)
    table = params.or_table
    jac = downset_rows(params.p, np.arange(len(table))) * table[:, None]  # dOR/dpsi
    y = jac.dot(fit.sigma_psi).dot(jac.T)
    ors = table.tolist()
    m, k = masks.tolist(), coef.tolist()
    a, b, c = ors[j], fsum([w * ors[i] for w, i in zip(k, m)]), ors[z]
    w = np.zeros((1, len(table)))  # the predicted part's weights
    w[0, m] = k
    u = np.einsum("rk,kc->rc", w, y)
    g00, g01, g02 = float(y[j, j]), float(u[0, j]), float(y[j, z])
    g11 = float(np.einsum("rk,rk->r", w, u)[0])
    g12, g22 = float(u[0, z]), float(y[z, z])
    point = measure_value(spec.kind, a, b, c)
    r0, r1, r2 = part_derivatives(spec.kind, a, b, c)
    var = (r0 * (r0 * g00 + 2.0 * (r1 * g01 + r2 * g02))
           + r1 * (r1 * g11 + 2.0 * r2 * g12) + r2 * r2 * g22)
    if var < -1e-10:
        raise NegativeVarianceError(
            f"delta-method variance {var:.3g} is negative; covariance defect"
        )
    sigma = sqrt(max(var, 0.0))
    if spec.kind == "AP" and not b > 0.0:
        raise TransformRangeError(
            f"attributable proportion {point:.6g} is outside (-1, 1): the "
            f"predicted odds ratio {b:.6g} is not positive (joint odds ratio "
            f"{a:.6g})"
        )
    tr = ci_transform(spec.kind)
    se_t = tr.derivative(point) * sigma
    z = normal_quantile(1.0 - alpha / 2.0)
    center = tr.apply(point)
    if se_t == 0.0:
        ci_low = ci_high = point
    else:
        ci_low = min(tr.invert(center - z * se_t), point)
        ci_high = max(tr.invert(center + z * se_t), point)
    note = None
    if spec.kind == "AP" and abs(a - b) < AP_TIE_RTOL * max(a, b):
        note = (
            "joint and predicted odds ratios are numerically tied; "
            "the gradient used the joint branch of the denominator"
        )
    return EstimateReport(
        kind=spec.kind,
        point=point,
        transform=tr.name,
        se_transformed=se_t,
        ci_low=ci_low,
        ci_high=ci_high,
        alpha=alpha,
        method="DELTA",
        note=note,
    )
