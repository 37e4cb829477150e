"""Synthetic case-control data from a known logistic model.

Covariates are drawn from a configurable population model, disease status
from the logistic disease probability, and the retrospective sample is
collected by rejection from that prospective stream until exactly the
requested numbers of cases and controls have been seen.  Everything is
deterministic given the design's seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PrevalenceError
from .inference import normal_quantile
from .logit import CaseControlDataset
from .measures import MeasureSpec, StructuralParams, measure
from .patterns import as_masks

_BATCH = 8192  # fixed so that a given seed always yields the same stream


@dataclass(eq=False)
class ConfounderModel:
    """Distribution of one confounder column: normal or discrete."""

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    levels: tuple = ()
    probs: tuple = ()

    @classmethod
    def normal(cls, mean=0.0, sd=1.0):
        if not sd > 0:
            raise ValueError(f"sd must be positive, got {sd}")
        return cls(kind="normal", mean=float(mean), sd=float(sd))

    @classmethod
    def discrete(cls, levels, probs):
        levels = tuple(float(x) for x in levels)
        probs = tuple(float(x) for x in probs)
        if len(levels) != len(probs) or not levels:
            raise ValueError("levels and probs must be nonempty and equal length")
        if any(x < 0 for x in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("probs must be nonnegative and sum to 1")
        return cls(kind="discrete", levels=levels, probs=probs)

    def draw(self, rng, size):
        if self.kind == "normal":
            return rng.standard_normal(size) * self.sd + self.mean
        return rng.choice(np.array(self.levels), size=size, p=np.array(self.probs))


@dataclass(eq=False)
class SimDesign:
    """Everything needed to draw one synthetic case-control dataset.

    ``exposure_rho`` is a single pairwise dependence knob: the exposure
    indicators are thresholded from an equicorrelated latent Gaussian, so
    0 gives independent factors and positive values make co-exposure more
    common while preserving each factor's marginal probability.
    """

    p: int
    q: int
    psi_true: StructuralParams
    kappa_true: np.ndarray
    exposure_probs: np.ndarray
    n0: int
    n1: int
    seed: int
    exposure_rho: float = 0.0
    z_models: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.psi_true.p != self.p:
            raise ValueError("psi_true factor count disagrees with p")
        kappa = np.array(self.kappa_true, dtype=float).reshape(-1)
        if kappa.shape != (self.q + 1,):
            raise ValueError(f"kappa_true must have length q + 1 = {self.q + 1}")
        if not np.all(np.isfinite(kappa)):
            raise ValueError("kappa_true must be finite")
        self.kappa_true = kappa
        probs = np.array(self.exposure_probs, dtype=float).reshape(-1)
        if probs.shape != (self.p,) or not np.all((probs > 0) & (probs < 1)):
            raise ValueError("exposure_probs must be p values strictly inside (0, 1)")
        self.exposure_probs = probs
        if self.n0 < 1 or self.n1 < 1:
            raise ValueError("n0 and n1 must both be at least 1")
        lo = -1.0 / (self.p - 1) if self.p > 1 else -1.0
        if not lo < self.exposure_rho < 1.0:
            raise ValueError(
                f"exposure_rho must lie in ({lo:.4g}, 1) for {self.p} factors"
            )
        self.z_models = tuple(self.z_models)
        if len(self.z_models) != self.q:
            raise ValueError(f"need {self.q} confounder models, got {len(self.z_models)}")


def _latent_chol(design):
    if design.exposure_rho == 0.0:
        return None
    cov = np.full((design.p, design.p), design.exposure_rho)
    np.fill_diagonal(cov, 1.0)
    return np.linalg.cholesky(cov)


def _population_batch(design, rng, chol, size=_BATCH):
    """Draw covariates and disease probabilities from the population model."""
    latent = rng.standard_normal((size, design.p))
    if chol is not None:
        latent = latent @ chol.T
    cuts = np.array([normal_quantile(x) for x in design.exposure_probs.tolist()])
    exposures = (latent < cuts).astype(np.int8)

    z = np.empty((size, design.q))
    for j, model in enumerate(design.z_models):
        z[:, j] = model.draw(rng, size)

    masks = as_masks(exposures)
    eta = (
        design.kappa_true[0]
        + design.psi_true.log_or_table[masks]
        + (z @ design.kappa_true[1:] if design.q else 0.0)
    )
    with np.errstate(over="ignore"):  # exp(-eta) = inf gives probability 0
        return exposures, z, 1.0 / (1.0 + np.exp(-eta))


def simulate(design: SimDesign) -> CaseControlDataset:
    """Draw a dataset with exactly ``n1`` cases and ``n0`` controls.

    Rejection sampling from the prospective stream: records are kept in
    stream order while their class quota is open, so the output carries
    no trace of which rows were rejected.  Deterministic given the seed.

    Raises
    ------
    PrevalenceError
        Expected per-draw acceptance rate below 1e-6 for either class
        (the intercept puts the needed class out of practical reach).
    """
    rng = np.random.default_rng(design.seed)
    chol = _latent_chol(design)

    exposures, z, theta = _population_batch(design, rng, chol)
    case_rate = float(theta.mean())
    if design.n1 and case_rate < 1e-6:
        raise PrevalenceError(
            f"expected case rate {case_rate:.3g} is below 1e-6"
        )
    if design.n0 and 1.0 - case_rate < 1e-6:
        raise PrevalenceError(
            f"expected control rate {1.0 - case_rate:.3g} is below 1e-6"
        )
    draw_cap = 200.0 * (
        design.n1 / max(case_rate, 1e-12)
        + design.n0 / max(1.0 - case_rate, 1e-12)
    )

    need1, need0 = design.n1, design.n0
    v_parts, z_parts, y_parts = [], [], []
    drawn = 0
    while True:
        y = (rng.random(len(theta)) < theta).astype(np.int8)
        case_rows = np.flatnonzero(y == 1)[:need1]
        control_rows = np.flatnonzero(y == 0)[:need0]
        keep = np.sort(np.concatenate([case_rows, control_rows]))
        if keep.size:
            v_parts.append(exposures[keep])
            z_parts.append(z[keep])
            y_parts.append(y[keep])
        need1 -= len(case_rows)
        need0 -= len(control_rows)
        drawn += len(theta)
        if need1 == 0 and need0 == 0:
            break
        if drawn > draw_cap:
            raise PrevalenceError(
                f"gave up after {drawn} population draws; acceptance far "
                "below the pilot estimate"
            )
        exposures, z, theta = _population_batch(design, rng, chol)

    return CaseControlDataset(
        np.concatenate(v_parts),
        np.concatenate(z_parts),
        np.concatenate(y_parts),
    )


def true_measure(design: SimDesign, spec: MeasureSpec) -> float:
    """Measure evaluated at the design's true parameters (coverage target).

    Raises as :func:`~interodds.measures.measure` does: a ``ValueError``
    that names both factor counts where ``spec``'s is not the design's.
    """
    return measure(design.psi_true, spec)
