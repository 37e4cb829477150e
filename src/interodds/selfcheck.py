"""Internal identity suites.

These walk randomized grids and verify the algebraic identities the whole
package rests on: the additive expansion of odds ratios into increments,
the closed form of the truncated prediction, the alternating binomial
identity behind its coefficients, and the analytic measure gradients
against central finite differences.  The CLI ``check`` subcommand runs
small versions of all four; the acceptance tests run the full grids.

Random draws use per-coordinate log odds ratios uniform in
``[-PSI_SCALE, PSI_SCALE]``.  Comparisons use a relative error with a
unit floor, ``|x - y| / max(1, |x|, |y|)``, so identities involving
near-zero signed combinations stay comparable.
"""

from dataclasses import dataclass
from math import comb, fsum

import numpy as np

from .inference import measure_gradient
from .measures import (
    KINDS,
    MeasureSpec,
    StructuralParams,
    measure,
    measure_parts,
    odds_ratio,
    or_increment,
    predicted_or,
    spec_plan,
)
from .errors import UndefinedSynergyError
from .patterns import alternating_binomial_sum, downset_rows

# Per-factor odds ratios between exp(-0.75) ~ 0.47 and exp(0.75) ~ 2.1: a
# realistic effect range that also keeps the alternating sums far from
# catastrophic cancellation (the identities are scale-free, so this loses
# no checking power).
PSI_SCALE = 0.75


def rel_err(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


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
    """Every (draw, split, pattern ``v_j``) of each ``p``, seeded ``seed + stride * p``.

    Yields ``(params, fixed, v_j bits, incs, below, target)``: ``incs`` are
    the increments of every pattern of the varying factors, computed once
    per (split, draw); ``below`` the local masks ``w <= v_j``; ``target`` the
    odds ratio at ``v_j``.
    """
    for p in p_values:
        rng = np.random.default_rng(seed + stride * p)
        splits = list(iter_splits(p))
        for _ in range(draws):
            params = random_params(p, rng)
            for fixed in splits:
                varying = tuple(j for j in range(p) if j not in fixed)
                patterns = [
                    tuple((w >> i) & 1 for i in range(len(varying)))
                    for w in range(1 << len(varying))
                ]
                incs = [or_increment(params, v, fixed) for v in patterns]
                for vj, v_bits in enumerate(patterns):
                    bits = [fixed.get(j, 0) for j in range(p)]
                    for i, j in enumerate(varying):
                        bits[j] = v_bits[i]
                    below = [w for w in range(len(patterns)) if not (w & ~vj)]
                    yield params, fixed, v_bits, incs, below, odds_ratio(params, bits)


def expansion_identity_error(p_values=(1, 2, 3, 4), draws=25, seed=20170322):
    """Worst error of: increments below v sum back to the odds ratio at v.

    Checked for every split into varying/held factors, every held level
    combination, and every pattern of the varying factors.
    """
    worst = 0.0
    for _, _, _, incs, below, target in _identity_grid(p_values, draws, seed, 1):
        worst = max(worst, abs(fsum(incs[w] for w in below) - target) / target)
    return worst


def prediction_equivalence_error(p_values=(1, 2, 3, 4), draws=25, seed=20170322):
    """Worst disagreement between the closed-form prediction and the increments.

    For every truncation order the closed form must equal the ``fsum`` of
    the increments below the pattern with at most that many factors on;
    with nothing truncated, both must equal the plain odds ratio.
    """
    worst = 0.0
    for params, fixed, v_bits, incs, below, target in _identity_grid(
        p_values, draws, seed, 31
    ):
        d = sum(v_bits)
        for order in range(d + 1):
            ref = fsum(incs[w] for w in below if w.bit_count() <= order)
            closed = predicted_or(params, v_bits, fixed, order)
            worst = max(worst, rel_err(closed, ref if order < d else target))
        worst = max(worst, rel_err(ref, target))
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


def _random_spec(p, rng, kind, hold_one):
    """A random spec of ``kind``; with ``hold_one``, a factor is held at 1."""
    low = 2 if kind == "SI" else 1
    while True:
        kmask = int(rng.integers(1 << p))
        fixed = {j: int(rng.integers(2)) for j in range(p) if (kmask >> j) & 1}
        nj = p - len(fixed)
        if nj >= low and (not hold_one or 1 in fixed.values()):
            break
    order = int(rng.integers(low, nj + 1))
    return MeasureSpec(p=p, kind=kind, order=order, fixed=fixed)


def gradient_fd_error(points=100, seed=20170322, p_values=(2, 3, 4), step=1e-5):
    """Worst error of the analytic gradients against finite differences.

    Checks the three part gradients (each odds ratio of the plan times its
    downset row) and the assembled measure gradient at random (parameters,
    spec) points.  The points cycle through the four kinds, and every
    other round of four holds a factor at level 1, so each kind is also
    checked where its baseline odds ratio varies with the coefficients
    (with every held level 0 that gradient is zero).
    Points where the synergy index is undefined nearby, or where the
    attributable-proportion denominator is within 1e-6 relative of its
    tie, are redrawn (the gradient is not defined there).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    while checked < points:
        kind = KINDS[checked % 4]
        low = 3 if kind == "SI" else 2  # factors needed to hold one at 1
        hold_one = checked // 4 % 2 == 0 and max(p_values) >= low
        p = int(rng.choice(p_values))
        if hold_one and p < low:
            continue
        params = random_params(p, rng)
        spec = _random_spec(p, rng, kind, hold_one)
        a, b, c = measure_parts(params, spec)
        if spec.kind == "AP" and abs(a - b) < 1e-6 * max(a, b):
            continue
        try:
            analytic = measure_gradient(params, spec)
            fd_measure = _fd(lambda pr: measure(pr, spec), params, step)
        except UndefinedSynergyError:
            continue
        fd_joint = _fd(lambda pr: measure_parts(pr, spec).joint, params, step)
        fd_pred = _fd(lambda pr: measure_parts(pr, spec).predicted, params, step)
        fd_base = _fd(lambda pr: measure_parts(pr, spec).baseline, params, step)
        joint, baseline, masks, coef = spec_plan(p, spec)
        for exact, approx in (
            (a * downset_rows(p, joint), fd_joint),
            ((coef * params.or_table[masks]) @ downset_rows(p, masks), fd_pred),
            (c * downset_rows(p, baseline), fd_base),
            (analytic, fd_measure),
        ):
            for x, y in zip(exact, approx):
                worst = max(worst, rel_err(float(x), float(y)))
        checked += 1
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
