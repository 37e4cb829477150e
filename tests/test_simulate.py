import hashlib

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from interodds.errors import PrevalenceError
from interodds.logit import fit_logit
from interodds.measures import MeasureSpec, StructuralParams
from interodds.simulate import (
    ConfounderModel,
    SimDesign,
    _latent_chol,
    _population_batch,
    simulate,
    true_measure,
)

RUN2 = StructuralParams(np.log([2.0, 3.0, 1.5]), 2)


def make_design(**kw):
    base = dict(
        p=2,
        q=1,
        psi_true=RUN2,
        kappa_true=np.array([-0.5, 0.4]),
        exposure_probs=np.array([0.4, 0.3]),
        n0=500,
        n1=500,
        seed=123,
        z_models=(ConfounderModel.normal(),),
    )
    base.update(kw)
    return SimDesign(**base)


def test_same_seed_same_dataset():
    a = simulate(make_design())
    b = simulate(make_design())
    assert np.array_equal(a.exposures, b.exposures)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.outcome, b.outcome)
    c = simulate(make_design(seed=124))
    assert not np.array_equal(a.covariates, c.covariates)


def test_seeded_dataset_is_pinned():
    # the digest of a fixed p=3, q=2 draw: a change in the exposure
    # thresholds, the disease probabilities or the stream order that moves
    # any record changes it
    design = SimDesign(
        p=3,
        q=2,
        psi_true=StructuralParams(np.log([1.8, 2.2, 1.5, 1.3, 0.8, 1.4, 1.2]), 3),
        kappa_true=np.array([-1.5, 0.4, -0.3]),
        exposure_probs=np.array([0.4, 0.3, 0.25]),
        n0=800,
        n1=600,
        seed=4242,
        exposure_rho=0.3,
        z_models=(
            ConfounderModel.normal(0.5, 2.0),
            ConfounderModel.discrete([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]),
        ),
    )
    data = simulate(design)
    digest = hashlib.sha256()
    for array, dtype in (
        (data.exposures, "<i1"),
        (data.covariates, "<f8"),
        (data.outcome, "<i1"),
    ):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    assert digest.hexdigest() == (
        "b5d689a9705f1a2662331645689cf31be3dc8c4e4b4ce6c1460477e53f213867"
    )


def test_exact_case_control_counts():
    data = simulate(make_design(n0=321, n1=77))
    assert data.n0 == 321
    assert data.n1 == 77
    assert data.n == 398


def test_record_order_mixes_classes():
    data = simulate(make_design(n0=500, n1=500))
    # stream order: classes interleave rather than one block per class
    changes = int(np.sum(data.outcome[1:] != data.outcome[:-1]))
    assert changes > 100


def test_null_model_population_prevalence():
    design = make_design(
        psi_true=StructuralParams.zeros(2), kappa_true=np.array([0.0, 0.0])
    )
    rng = np.random.default_rng(9)
    _, _, theta = _population_batch(design, rng, _latent_chol(design), size=4096)
    assert np.all(theta == 0.5)
    y = rng.random(4096) < theta
    se = np.sqrt(0.25 / 4096)
    assert abs(y.mean() - 0.5) <= 3 * se


def test_null_model_exposures_balanced_between_classes():
    counts = np.zeros((2, 4))
    for seed in range(8):
        design = make_design(
            psi_true=StructuralParams.zeros(2),
            kappa_true=np.array([0.0, 0.0]),
            n0=1500,
            n1=1500,
            seed=500 + seed,
        )
        data = simulate(design)
        masks = data.exposure_masks
        for cls in (0, 1):
            for m in range(4):
                counts[cls, m] += np.sum((data.outcome == cls) & (masks == m))
    _, pvalue, _, _ = chi2_contingency(counts)
    assert pvalue > 0.001


def test_recovery_within_four_se():
    design = make_design(n0=25000, n1=25000, seed=2024)
    data = simulate(design)
    fit = fit_logit(data)
    err = np.abs(fit.params.psi.psi - RUN2.psi)
    assert np.all(err <= 4.0 * fit.se_psi)


def test_estimation_error_shrinks_with_sample_size():
    sizes = (5000, 10000, 20000)
    reps = 50
    mae = {}
    for n in sizes:
        errs = []
        for rep in range(reps):
            design = make_design(
                q=0,
                kappa_true=np.array([0.0]),
                z_models=(),
                n0=n // 2,
                n1=n // 2,
                seed=7000 + rep,
            )
            data = simulate(design)
            fit = fit_logit(data)
            errs.append(np.mean(np.abs(fit.params.psi.psi - RUN2.psi)))
        mae[n] = float(np.mean(errs))
    assert mae[5000] > mae[10000] > mae[20000]


def test_unreachable_prevalence(monkeypatch):
    with pytest.raises(PrevalenceError):
        simulate(make_design(kappa_true=np.array([-30.0, 0.0])))
    with pytest.raises(PrevalenceError):
        simulate(make_design(kappa_true=np.array([30.0, 0.0])))
    # the first batch sets the draw cap; no later batch holds a case
    first = _population_batch(make_design(), np.random.default_rng(0), None)
    batches = iter([first])
    monkeypatch.setitem(simulate.__globals__, "_population_batch", lambda *args: next(
        batches, (first[0], first[1], np.zeros_like(first[2]))))
    with pytest.raises(PrevalenceError, match="^gave up after [0-9]+ population draws"):
        simulate(make_design(n1=5000))


def test_exposure_dependence_sign():
    design = make_design(exposure_rho=0.6, exposure_probs=np.array([0.5, 0.5]))
    rng = np.random.default_rng(31)
    v, _, _ = _population_batch(design, rng, _latent_chol(design), size=20000)
    corr = np.corrcoef(v[:, 0], v[:, 1])[0, 1]
    assert corr > 0.3


def test_design_validation():
    with pytest.raises(ValueError):
        make_design(exposure_probs=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        make_design(kappa_true=np.array([0.0]))  # needs q + 1 entries
    with pytest.raises(ValueError):
        make_design(n1=0)
    with pytest.raises(ValueError):
        make_design(exposure_rho=1.5)
    with pytest.raises(ValueError):
        make_design(z_models=())
    with pytest.raises(ValueError):
        ConfounderModel.discrete([0, 1], [0.5, 0.6])
    with pytest.raises(ValueError, match="^levels and probs must be nonempty and equal"):
        ConfounderModel.discrete([0, 1, 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="^psi_true factor count disagrees with p$"):
        make_design(psi_true=StructuralParams.zeros(3))
    with pytest.raises(ValueError, match="^kappa_true must be finite$"):
        make_design(kappa_true=np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        ConfounderModel.normal(sd=0.0)


def test_discrete_confounder_levels():
    design = make_design(
        z_models=(ConfounderModel.discrete([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]),)
    )
    data = simulate(design)
    assert set(np.unique(data.covariates)) <= {0.0, 1.0, 2.0}


def test_true_measure_values():
    design = make_design()
    assert np.isclose(
        true_measure(design, MeasureSpec(p=2, kind="AP", order=2)), 5.0 / 9.0,
        rtol=1e-12,
    )
    assert np.isclose(
        true_measure(design, MeasureSpec(p=2, kind="SI", order=2)), 8.0 / 3.0,
        rtol=1e-12,
    )
    null_design = make_design(psi_true=StructuralParams.zeros(2))
    assert true_measure(null_design, MeasureSpec(p=2, kind="AP", order=2)) == 0.0


def test_true_measure_names_both_factor_counts():
    with pytest.raises(
        ValueError, match=r"^spec has 3 risk factors but the parameters have 2$"
    ):
        true_measure(make_design(), MeasureSpec(p=3, kind="OR"))
