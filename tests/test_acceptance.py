"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them stream).  The
randomized-identity grids draw structural coefficients uniformly from
[-0.75, 0.75] (per-factor odds ratios between 0.47 and 2.1); the
attributable-proportion bound additionally draws risk-increasing margins
with moderate interactions, the regime in which its normalization
guarantee applies (see the test's docstring).
"""

import time

import numpy as np

from interodds.cli import main, render_estimate
from interodds.inference import bootstrap_ci, bootstrap_replicates, delta_ci
from interodds.logit import fit_logit
from interodds.measures import (
    MeasureSpec,
    StructuralParams,
    measure,
    measure_parts,
)
from interodds.patterns import pattern_index
from interodds.selfcheck import (
    expansion_identity_error,
    gradient_fd_error,
    iter_splits,
    prediction_equivalence_error,
)
from interodds.simulate import ConfounderModel, SimDesign, simulate, true_measure

from oracles import excess_or, excess_oracle_error

SEED = 20170322


def criterion(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" -- {detail}" if detail else "")
    print(line)
    assert ok, line


def test_expansion_identity_suite():
    start = time.perf_counter()
    err = expansion_identity_error(p_values=(1, 2, 3, 4, 5), draws=200, seed=SEED)
    elapsed = time.perf_counter() - start
    criterion(
        "expansion identity (p 1..5, 200 draws, every split)",
        err <= 1e-12 and elapsed < 10.0,
        f"max rel err {err:.2e} (tol 1e-12), {elapsed:.1f}s (< 10s)",
    )


def test_prediction_equivalence_suite():
    start = time.perf_counter()
    err = prediction_equivalence_error(p_values=(1, 2, 3, 4, 5), draws=200, seed=SEED)
    elapsed = time.perf_counter() - start
    criterion(
        "prediction closed form vs increment sum (same grid, incl. full order)",
        err <= 1e-12 and elapsed < 10.0,
        f"max rel err {err:.2e} (tol 1e-12), {elapsed:.1f}s (< 10s)",
    )


def test_excess_or_special_case_oracle():
    err = excess_oracle_error(p_values=(1, 2, 3, 4), draws=200, seed=SEED)
    criterion(
        "excess odds ratio vs hand formulas (1..3 varying factors, all orders)",
        err <= 1e-12,
        f"max rel err {err:.2e} (tol 1e-12)",
    )


def test_worked_example_regression():
    params = StructuralParams(np.log([2.0, 3.0, 1.5]), 2)
    spec = {k: MeasureSpec(p=2, kind=k, order=2) for k in ("EOR", "AP", "SI")}
    parts = measure_parts(params, spec["EOR"])
    expected = {
        "joint": (parts.joint, 9.0),
        "predicted": (parts.predicted, 4.0),
        "baseline": (parts.baseline, 1.0),
        "excess": (excess_or(params, {}, 2), 5.0),
        "EOR": (measure(params, spec["EOR"]), 5.0),
        "AP": (measure(params, spec["AP"]), 5.0 / 9.0),
        "SI": (measure(params, spec["SI"]), 8.0 / 3.0),
    }
    worst = max(abs(got - want) / abs(want) for got, want in expected.values())
    criterion(
        "worked two-factor example (9, 4, 1; excess 5; EOR 5; AP 5/9; SI 8/3)",
        worst <= 1e-12,
        f"max rel err {worst:.2e} (tol 1e-12)",
    )


def test_gradient_suite():
    start = time.perf_counter()
    err = gradient_fd_error(points=100, seed=SEED, step=1e-5)
    elapsed = time.perf_counter() - start
    criterion(
        "analytic gradients vs central differences (100 points, step 1e-5)",
        err <= 1e-6 and elapsed < 30.0,
        f"max rel err {err:.2e} (tol 1e-6), {elapsed:.1f}s (< 30s)",
    )


RECOVERY_PSI = np.log([2.0, 1.5, 0.8, 1.3, 0.9, 1.1, 1.05])


def recovery_design(seed, n0=25000, n1=25000):
    return SimDesign(
        p=3,
        q=2,
        psi_true=StructuralParams(RECOVERY_PSI, 3),
        kappa_true=np.array([-1.2, 0.4, -0.3]),
        exposure_probs=np.array([0.35, 0.45, 0.25]),
        n0=n0,
        n1=n1,
        seed=seed,
        z_models=(
            ConfounderModel.normal(),
            ConfounderModel.discrete([0.0, 1.0], [0.6, 0.4]),
        ),
    )


def test_mle_recovery():
    start = time.perf_counter()
    seeds = range(SEED, SEED + 50)
    hits = 0
    for seed in seeds:
        data = simulate(recovery_design(seed))
        fit = fit_logit(data)
        assert fit.gradient_norm <= 1e-8 * (1.0 + abs(fit.loglik))
        if np.all(np.abs(fit.params.psi.psi - RECOVERY_PSI) <= 4.0 * fit.se_psi):
            hits += 1
    elapsed = time.perf_counter() - start
    criterion(
        "MLE recovery (p=3, q=2, n=50000, 50 seeds, 4 SE)",
        hits >= 0.95 * 50 and elapsed < 120.0,
        f"{hits}/50 seeds fully recovered, {elapsed:.0f}s (< 120s)",
    )


COVERAGE_PSI = np.log([2.0, 2.0, 2.0, 1.3, 1.3, 1.3, 1.2])


def coverage_design(seed):
    return SimDesign(
        p=3,
        q=1,
        psi_true=StructuralParams(COVERAGE_PSI, 3),
        kappa_true=np.array([-2.0, 0.3]),
        exposure_probs=np.array([0.40, 0.35, 0.30]),
        n0=2000,
        n1=2000,
        seed=seed,
        z_models=(ConfounderModel.normal(),),
    )


def test_delta_ci_coverage():
    start = time.perf_counter()
    ap_spec = MeasureSpec(p=3, kind="AP", order=2)
    or_spec = MeasureSpec(p=3, kind="OR")
    true_ap = true_measure(coverage_design(0), ap_spec)
    true_or = true_measure(coverage_design(0), or_spec)
    reps = 500
    ap_cover = or_cover = 0
    for seed in range(SEED, SEED + reps):
        data = simulate(coverage_design(seed))
        fit = fit_logit(data)
        rep_ap = delta_ci(fit, ap_spec, alpha=0.05)
        rep_or = delta_ci(fit, or_spec, alpha=0.05)
        ap_cover += rep_ap.ci_low <= true_ap <= rep_ap.ci_high
        or_cover += rep_or.ci_low <= true_or <= rep_or.ci_high
    elapsed = time.perf_counter() - start
    ap_rate, or_rate = ap_cover / reps, or_cover / reps
    criterion(
        "delta 95% CI coverage over 500 replicates (AP order 2; joint OR)",
        0.92 <= ap_rate <= 0.97 and 0.92 <= or_rate <= 0.97 and elapsed < 600.0,
        f"AP {ap_rate:.1%}, OR {or_rate:.1%} (target [92%, 97%]), {elapsed:.0f}s (< 600s)",
    )


def test_delta_vs_bootstrap_agreement():
    start = time.perf_counter()
    spec = MeasureSpec(p=3, kind="AP", order=2)
    agree = 0
    seeds = range(SEED, SEED + 20)
    for seed in seeds:
        data = simulate(recovery_design(seed, n0=10000, n1=10000))
        fit = fit_logit(data)
        d = delta_ci(fit, spec, alpha=0.05)
        b = bootstrap_ci(
            fit, bootstrap_replicates(data, 500, seed), spec, alpha=0.05
        )
        if (
            abs(d.ci_low - b.ci_low) <= 0.05
            and abs(d.ci_high - b.ci_high) <= 0.05
        ):
            agree += 1
    elapsed = time.perf_counter() - start
    criterion(
        "delta vs percentile bootstrap AP intervals (n=20000, 500 replicates)",
        agree >= 18 and elapsed < 900.0,
        f"{agree}/20 seeds within 0.05 on both endpoints, {elapsed:.0f}s (< 900s)",
    )


def test_attributable_proportion_bound():
    """AP stays inside [-1, 1] across 10^4 random models and every spec.

    Margins are drawn risk-increasing (log OR uniform in [0, 0.75]) with
    interactions of either sign (uniform in [-0.2, 0.2]); in this regime
    every truncated prediction is positive, which is the hypothesis under
    which the max-normalized denominator guarantees the bound.  The test
    also asserts that positivity held, so a drift out of the regime fails
    loudly instead of passing vacuously.
    """
    rng_violations = 0
    total = 0
    min_predicted = np.inf
    draws_per_p = 2500
    for p in (1, 2, 3, 4):
        rng = np.random.default_rng(SEED + 13 * p)
        idx = pattern_index(p)
        cards = np.array([int(m).bit_count() for m in idx.masks])
        splits = list(iter_splits(p))
        for _ in range(draws_per_p):
            psi = np.where(
                cards == 1,
                rng.uniform(0.0, 0.75, idx.size),
                rng.uniform(-0.2, 0.2, idx.size),
            )
            params = StructuralParams(psi, p)
            for fixed in splits:
                nj = p - len(fixed)
                for order in range(1, nj + 1):
                    spec = MeasureSpec(p=p, kind="AP", order=order, fixed=fixed)
                    ap = measure(params, spec)
                    min_predicted = min(
                        min_predicted, measure_parts(params, spec).predicted
                    )
                    total += 1
                    if not -1.0 <= ap <= 1.0:
                        rng_violations += 1
    criterion(
        "attributable proportion bound (10^4 draws, p <= 4, all specs)",
        rng_violations == 0 and min_predicted > 0.0,
        f"0 violations required, got {rng_violations}/{total}; "
        f"min predicted OR {min_predicted:.3f} (> 0)",
    )


def test_cli_golden_rendering_and_check(capsys):
    ok_render = (
        render_estimate(3.60, 3.34, 3.87) == "3.60 (3.34,3.87)"
        and render_estimate(-0.02, -0.29, 0.25) == "-0.02 (-0.29,0.25)"
    )
    code = main(["check"])
    capsys.readouterr()
    criterion(
        "report rendering golden strings and `check` subcommand",
        ok_render and code == 0,
        f"renderings {'ok' if ok_render else 'BAD'}, check exit code {code}",
    )
