"""Delta-method intervals vs the stratified percentile bootstrap.

The delta interval costs one fit; the bootstrap refits every resample.
At moderate sample sizes and effect strengths the two agree closely for
attributable proportions, which is what makes the fast delta interval the
everyday tool, with the bootstrap as the cross-check.
"""

import time

import numpy as np

from interodds import (
    ConfounderModel,
    MeasureSpec,
    SimDesign,
    StructuralParams,
    bootstrap_ci,
    bootstrap_replicates,
    delta_ci,
    fit_logit,
    simulate,
)

design = SimDesign(
    p=3,
    q=1,
    psi_true=StructuralParams(np.log([2.0, 2.0, 2.0, 1.3, 1.3, 1.3, 1.2]), 3),
    kappa_true=np.array([-2.0, 0.3]),
    exposure_probs=np.array([0.40, 0.35, 0.30]),
    n0=5000,
    n1=5000,
    seed=8,
    z_models=(ConfounderModel.normal(),),
)

data = simulate(design)
fit = fit_logit(data)

tic = time.perf_counter()
replicates = bootstrap_replicates(data, n_boot=500, seed=2)
print(f"refitted {replicates.n_boot} bootstrap replicates in "
      f"{time.perf_counter() - tic:.2f} s, shared by every measure")

for kind, order in (("AP", 2), ("EOR", 2), ("SI", 2)):
    spec = MeasureSpec(p=3, kind=kind, order=order)

    tic = time.perf_counter()
    d = delta_ci(fit, spec, alpha=0.05)
    delta_s = time.perf_counter() - tic

    tic = time.perf_counter()
    b = bootstrap_ci(fit, replicates, spec, alpha=0.05)
    boot_s = time.perf_counter() - tic

    print(f"{kind} (order >= {order}), point {d.point:.4f}")
    print(f"  delta     ({d.ci_low:.4f}, {d.ci_high:.4f})   {delta_s * 1e3:7.1f} ms")
    print(f"  bootstrap ({b.ci_low:.4f}, {b.ci_high:.4f})   {boot_s * 1e3:7.1f} ms "
          f"({b.n_boot} replicates, {b.n_failed} failed)")
