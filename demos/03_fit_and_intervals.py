"""End to end: simulate case-control data, fit, report measures with CIs.

Draws a retrospective sample (2000 cases, 2000 controls) from a known
three-factor model with one confounder, fits the saturated logistic model
by maximum likelihood, and reports delta-method confidence intervals next
to the true values the data were generated from.
"""

import numpy as np

from interodds import (
    ConfounderModel,
    MeasureSpec,
    SimDesign,
    StructuralParams,
    delta_ci,
    fit_logit,
    psi_coordinate_names,
    simulate,
    true_measure,
)

design = SimDesign(
    p=3,
    q=1,
    psi_true=StructuralParams(np.log([2.0, 2.0, 2.0, 1.3, 1.3, 1.3, 1.2]), 3),
    kappa_true=np.array([-2.0, 0.3]),
    exposure_probs=np.array([0.40, 0.35, 0.30]),
    n0=2000,
    n1=2000,
    seed=1,
    z_models=(ConfounderModel.normal(),),
)

data = simulate(design)
fit = fit_logit(data)
print(f"fitted {data.n} records in {fit.iterations} Newton steps "
      f"(log-likelihood {fit.loglik:.2f})")

print("\nstructural coefficients (log odds-ratio scale)")
for name, est, se, truth in zip(
    psi_coordinate_names(3), fit.psi.psi, fit.se_psi, design.psi_true.psi
):
    print(f"  {name:9s} {est:7.3f} (se {se:.3f})   truth {truth:7.3f}")

print("\nmeasure                      estimate (95% CI)          truth")
for kind, order in (("OR", None), ("EOR", 2), ("AP", 1), ("AP", 2), ("SI", 2)):
    spec = MeasureSpec(p=3, kind=kind, order=order)
    rep = delta_ci(fit, spec, alpha=0.05)
    name = kind if order is None else f"{kind} (order >= {order})"
    print(f"  {name:25s}  {rep.point:7.3f} ({rep.ci_low:.3f}, {rep.ci_high:.3f})"
          f"   {true_measure(design, spec):7.3f}")
