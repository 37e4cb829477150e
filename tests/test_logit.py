import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from interodds import inference, logit
from interodds.errors import (
    ConvergenceError,
    EmptyClassError,
    SeparationError,
    SingularDesignError,
)
from interodds.logit import (
    CaseControlDataset,
    FullParams,
    _evaluator,
    fit_batch,
    fit_design,
    fit_logit,
)
from interodds.measures import StructuralParams
from interodds.simulate import ConfounderModel, SimDesign, simulate

from oracles import downset_indicator, saturated_mle_loop, saturated_score_loop


def small_dataset(n=400, seed=0, p=2, q=1, psi=None, kappa=None):
    psi = StructuralParams(np.log([2.0, 3.0, 1.5]), 2) if psi is None else psi
    kappa = np.array([-0.5, 0.4])[: q + 1] if kappa is None else kappa
    design = SimDesign(
        p=p,
        q=q,
        psi_true=psi,
        kappa_true=kappa,
        exposure_probs=np.full(p, 0.4),
        n0=n // 2,
        n1=n // 2,
        seed=seed,
        z_models=tuple(ConfounderModel.normal() for _ in range(q)),
    )
    return simulate(design)


# ------------------------------------------------- explicit-design oracle
#
# The fit never builds its design matrix.  These helpers build it row by
# row and evaluate the likelihood on it directly, as the reference for the
# pattern-basis arithmetic of ``interodds.logit``.


def design_vector(params: FullParams) -> np.ndarray:
    """The coefficients in design-column order: [kappa0, psi..., kappa1..q]."""
    return np.concatenate([params.kappa[:1], params.psi.psi, params.kappa[1:]])


def design_row(v, z) -> np.ndarray:
    """One design-matrix row: [1, indicator of patterns <= v, z...]."""
    z = np.asarray(z, dtype=float).reshape(-1)
    return np.concatenate([[1.0], downset_indicator(v).astype(float), z])


def design_matrix(data) -> np.ndarray:
    """n x (2^p + q) matrix: intercept, saturated factor block, confounders."""
    return np.array([design_row(v, z) for v, z in zip(data.exposures, data.covariates)])


def explicit_loglik_score_info(beta, X, y, weights=None):
    """Log likelihood, score and information on an explicit design ``X``."""
    if weights is None:
        weights = np.ones(len(y))
    eta = X @ beta
    theta = 1.0 / (1.0 + np.exp(-eta))
    score = X.T @ (weights * (y - theta))
    info = (X * (weights * (theta * (1.0 - theta)))[:, None]).T @ X
    loglik = float(weights @ (y * eta - np.logaddexp(0.0, eta)))
    return loglik, score, info


def loglik_and_derivatives(params: FullParams, data: CaseControlDataset):
    """The oracle for a parameter object on a dataset's explicit design."""
    if params.psi.p != data.p or params.q != data.q:
        raise ValueError("parameter dimensions do not match the dataset")
    return explicit_loglik_score_info(
        design_vector(params), design_matrix(data), data.outcome.astype(float)
    )


def pattern_loglik_score_info(beta, data, weights=None):
    """The fit's own evaluation, which never builds the design."""
    weights = np.ones(data.n) if weights is None else np.asarray(weights, float)
    evaluate = _evaluator(
        data.exposure_masks, np.ascontiguousarray(data.covariates.T),
        data.outcome.astype(float), weights[None], data.p,
    )
    loglik, score, info = evaluate(np.asarray(beta, dtype=float)[None], [0])
    return float(loglik[0]), score[0], info[0]


def weighted_fit(masks, z, y, p, weights):
    """One weighted fit by :func:`fit_batch`: coefficients, sigma_psi, loglik.

    Raises the fit's error; ``sigma_psi`` is the structural block of the
    inverse information at the last point, as ``fit_design`` reports it.
    """
    fits = fit_batch(masks, z, y, p, np.asarray(weights, dtype=float)[None])
    if fits.errors[0] is not None:
        raise fits.errors[0]
    psi = slice(1, 1 << p)
    return fits.beta[0], np.linalg.inv(fits.info[0])[psi, psi], fits.loglik[0]


def unit_floor_error(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return float(np.max(np.abs(x - y) / np.maximum(1.0, np.maximum(abs(x), abs(y)))))


# ------------------------------------------------------------------- design


def test_design_row_examples():
    assert design_row((1, 1), (0.5,)).tolist() == [1.0, 1.0, 1.0, 1.0, 0.5]
    assert design_row((1, 0), ()).tolist() == [1.0, 1.0, 0.0, 0.0]
    assert design_row((0,), (2.0, 3.0)).tolist() == [1.0, 0.0, 2.0, 3.0]


def test_design_matrix_columns_are_downset_indicators():
    data = small_dataset(n=50, seed=1)
    X = design_matrix(data)
    assert X.shape == (50, 4 + data.q)
    for i in range(data.n):
        v = tuple(int(x) for x in data.exposures[i])
        assert X[i, 1:4].tolist() == downset_indicator(v).astype(float).tolist()
        assert X[i, 0] == 1.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        CaseControlDataset(np.array([[0, 2]]), np.zeros((1, 0)), np.array([1]))
    with pytest.raises(ValueError):
        CaseControlDataset(np.array([[0, 1]]), np.zeros((1, 0)), np.array([2]))
    with pytest.raises(ValueError):
        CaseControlDataset(
            np.array([[0, 1]]), np.array([[np.nan]]), np.array([1])
        )
    with pytest.raises(ValueError, match="^exposures must be a 2-D array"):
        CaseControlDataset(np.array([0, 1]), np.zeros((2, 0)), np.array([0, 1]))
    with pytest.raises(ValueError, match="^covariates and exposures disagree"):
        CaseControlDataset(np.array([[0], [1]]), np.zeros((3, 1)), np.array([0, 1]))
    with pytest.raises(ValueError, match="^outcome must be 1-D"):
        CaseControlDataset(np.array([[0], [1]]), np.zeros((2, 0)), np.array([[0, 1]]))
    for kappa in ([], [0.0, np.inf]):
        with pytest.raises(ValueError, match="^kappa must be a finite vector"):
            FullParams(StructuralParams.zeros(2), kappa)


def test_a_dataset_owns_its_covariates():
    z = np.asfortranarray(np.zeros((4, 1)))  # a copy-free column-major input
    data = CaseControlDataset(np.array([[0], [1], [1], [0]]), z, np.array([0, 1, 1, 0]))
    z[0, 0] = 99.0
    assert data.covariates[0, 0] == 0.0
    assert data.covariates.flags.f_contiguous and not data.covariates.flags.writeable


def test_a_write_into_the_masks_leaves_the_dataset_and_its_fit_unchanged():
    data = small_dataset(n=400, seed=3)
    want = data.exposures @ np.array([1, 2])
    before = fit_logit(data).params.psi.psi
    masks = data.exposure_masks
    masks[:10] = 0
    assert np.array_equal(data.exposure_masks, want)
    assert fit_logit(data).params.psi.psi.tobytes() == before.tobytes()


@pytest.mark.parametrize("p", [1, 3, 9])
def test_exposure_masks_hold_no_int64_copy_of_the_exposures(p):
    n = 50_000
    rng = np.random.default_rng(70 + p)
    data = CaseControlDataset(
        rng.integers(0, 2, size=(n, p)), np.zeros((n, 0)),
        rng.integers(0, 2, size=n),
    )
    tracemalloc.start()
    try:
        masks = data.exposure_masks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = (1 << np.arange(p)).astype(np.int64)
    assert masks.dtype == np.int64
    assert np.array_equal(masks, data.exposures.astype(np.int64) @ weights)
    assert peak < 2 * 8 * n  # the masks themselves are 8 n bytes


# ----------------------------------------------------------------- derivatives


def test_null_params_loglik():
    data = small_dataset(n=200, seed=2)
    params = FullParams(
        psi=StructuralParams.zeros(2), kappa=np.zeros(data.q + 1)
    )
    loglik, score, info = loglik_and_derivatives(params, data)
    assert np.isclose(loglik, -data.n * np.log(2.0))
    # theta = 0.5 everywhere: score is X'(y - 1/2), info is X'X/4
    X = design_matrix(data)
    assert np.allclose(score, X.T @ (data.outcome - 0.5))
    assert np.allclose(info, X.T @ X / 4.0)


def test_information_symmetric_psd():
    data = small_dataset(n=300, seed=3)
    rng = np.random.default_rng(4)
    beta = rng.normal(0, 0.5, 4 + data.q)
    _, _, info = pattern_loglik_score_info(beta, data)
    assert np.allclose(info, info.T)
    for _ in range(10):
        u = rng.normal(size=info.shape[0])
        assert u @ info @ u >= -1e-10 * np.trace(info)


def test_score_and_info_match_finite_differences():
    data = small_dataset(n=250, seed=5)
    rng = np.random.default_rng(6)
    beta = rng.normal(0, 0.3, 4 + data.q)
    loglik, score, info = pattern_loglik_score_info(beta, data)
    step = 1e-5 * (1.0 + np.abs(beta))
    for k in range(len(beta)):
        up, down = beta.copy(), beta.copy()
        up[k] += step[k]
        down[k] -= step[k]
        l_up, s_up, _ = pattern_loglik_score_info(up, data)
        l_down, s_down, _ = pattern_loglik_score_info(down, data)
        fd_score = (l_up - l_down) / (2 * step[k])
        assert abs(fd_score - score[k]) <= 1e-6 * max(1.0, abs(score[k]))
        fd_info_col = (s_down - s_up) / (2 * step[k])  # info = -hessian
        assert np.allclose(fd_info_col, info[:, k], rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_pattern_evaluation_matches_explicit_design(p, q, weighted):
    rng = np.random.default_rng(100 * p + 10 * q + weighted)
    n = 300
    data = CaseControlDataset(
        rng.integers(0, 2, size=(n, p)),
        rng.normal(size=(n, q)),
        rng.integers(0, 2, size=n),
    )
    weights = rng.integers(1, 6, size=n) if weighted else None
    X, y = design_matrix(data), data.outcome.astype(float)
    for _ in range(3):
        beta = rng.normal(0, 0.4, X.shape[1])
        expected = explicit_loglik_score_info(beta, X, y, weights)
        got = pattern_loglik_score_info(beta, data, weights)
        for x, ref in zip(got, expected):
            assert np.shape(x) == np.shape(ref)
            assert unit_floor_error(x, ref) <= 1e-12


def singular_by_fit(data):
    """The fit's verdict: does it refuse the design as singular?"""
    try:
        fit_logit(data)
    except SingularDesignError:
        return True
    return False


def singular_by_rank(data):
    X = design_matrix(data)
    return np.linalg.matrix_rank(X) < X.shape[1]


def rank_case(name, n=240, seed=30):
    """p = 2 records built to make the design singular in one way each."""
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    v = rng.integers(0, 2, size=(n, 2))
    masks = v[:, 0] + 2 * v[:, 1]
    z = rng.normal(size=(n, 2))
    if name == "missing mask":
        v[masks == 1] = (0, 0)
    elif name == "missing unexposed":
        v[masks == 0] = (1, 1)
    elif name == "missing interaction":
        v[masks == 3] = (1, 0)
    elif name == "constant z":
        z[:, 1] = 2.5
    elif name == "z a function of the mask":
        z[:, 0] = np.array([0.1, 1.7, -2.0, 0.5])[masks]
    elif name == "z collinear within masks":
        z[:, 1] = 3.0 * z[:, 0] - np.array([0.3, 0.0, 1.1, 0.2])[masks]
    elif name == "duplicated factor":
        v[:, 1] = v[:, 0]
    return CaseControlDataset(v, z, y)


RANK_CASES = {
    "missing mask": "no record has exposure pattern v1$",
    "missing unexposed": "no record has exposure pattern unexposed$",
    # the interaction column is all zero
    "missing interaction": "^design column 3 is constant$",
    "constant z": "^design column 5 is constant$",
    "z a function of the mask": "covariate 1 \\(design column 4\\) is constant "
    "within every exposure pattern$",
    "z collinear within masks": "covariate 2 \\(design column 5\\) is collinear "
    "with the exposure patterns and the covariates before it$",
    "duplicated factor": "no record has exposure patterns v1, v2$",
    "full rank": None,
}


@pytest.mark.parametrize("name", list(RANK_CASES))
def test_rank_verdict_matches_matrix_rank_of_the_explicit_design(name):
    data = rank_case(name)
    assert singular_by_fit(data) == singular_by_rank(data) == (
        RANK_CASES[name] is not None
    )
    if RANK_CASES[name] is not None:
        with pytest.raises(SingularDesignError, match=RANK_CASES[name]):
            fit_logit(data)


# ------------------------------------------------------------------------ fit


def test_fit_improves_on_null_and_meets_score_tolerance():
    data = small_dataset(n=600, seed=7)
    fit = fit_logit(data)
    assert fit.converged
    null = FullParams(psi=StructuralParams.zeros(2), kappa=np.zeros(data.q + 1))
    null_ll, _, _ = loglik_and_derivatives(null, data)
    assert fit.loglik >= null_ll
    assert fit.gradient_norm <= 1e-8 * (1.0 + abs(fit.loglik))


def test_refit_from_perturbed_start_reconverges():
    data = small_dataset(n=600, seed=8)
    fit = fit_logit(data)
    rng = np.random.default_rng(9)
    start = design_vector(fit.params) + 0.1 * rng.normal(size=4 + data.q)
    again = fit_logit(data, start=start)
    assert np.allclose(again.params.psi.psi, fit.params.psi.psi, atol=1e-6)


def test_covariate_shift_leaves_psi_unchanged():
    data = small_dataset(n=600, seed=10)
    fit = fit_logit(data)
    shifted = CaseControlDataset(
        data.exposures, data.covariates + 5.0, data.outcome
    )
    fit2 = fit_logit(shifted)
    assert np.allclose(fit2.params.psi.psi, fit.params.psi.psi, atol=1e-8)
    assert np.allclose(fit2.params.kappa[1:], fit.params.kappa[1:], atol=1e-8)
    assert abs(
        fit2.params.kappa[0] - (fit.params.kappa[0] - 5.0 * fit.params.kappa[1])
    ) <= 1e-6


def test_null_model_estimates_stay_within_three_se():
    hits = 0
    reps = 20
    for seed in range(reps):
        rng = np.random.default_rng(1000 + seed)
        n = 10000
        exposures = (rng.random((n, 2)) < 0.4).astype(np.int8)
        outcome = np.repeat([0, 1], n // 2).astype(np.int8)
        data = CaseControlDataset(exposures, np.zeros((n, 0)), outcome)
        fit = fit_logit(data)
        if np.all(np.abs(fit.params.psi.psi) <= 3.0 * fit.se_psi):
            hits += 1
    assert hits >= 0.95 * reps


def test_complete_separation_detected():
    rng = np.random.default_rng(11)
    n = 200
    y = np.repeat([0, 1], n // 2).astype(np.int8)
    v1 = y.copy()  # factor equal to the outcome: perfectly separating
    v2 = (rng.random(n) < 0.5).astype(np.int8)
    data = CaseControlDataset(np.column_stack([v1, v2]), np.zeros((n, 0)), y)
    with pytest.raises(SeparationError):
        fit_logit(data)
    # the error names the exposure patterns whose records are one-sided
    with pytest.raises(
        SeparationError,
        match=r"separation suspected; only cases have exposure patterns v1, "
        r"v1:v2; only controls have exposure patterns unexposed, v2$",
    ):
        fit_logit(data)


def test_covariate_units_do_not_stop_a_fit():
    # the bound reads a slope per weighted SD of its covariate, so rescaling
    # a covariate leaves the fit as it was: at 0.01 the raw slope is 45
    data = small_dataset(n=2000)
    fit = fit_logit(data)
    for scale in (0.01, 1e-4, 100.0):
        rescaled = fit_logit(CaseControlDataset(
            data.exposures, scale * data.covariates, data.outcome))
        assert np.allclose(rescaled.params.psi.psi, fit.params.psi.psi, rtol=1e-6, atol=0)
        assert rescaled.params.kappa[1] == pytest.approx(fit.params.kappa[1] / scale, rel=1e-6)
    # a covariate that separates cases from controls still diverges
    rng = np.random.default_rng(1)
    z = 0.01 * (data.outcome - 0.5) + 0.001 * rng.random(data.n)
    with pytest.raises(SeparationError, match="exceeds the divergence bound 15.0; "
                       "separation suspected$"):
        fit_logit(CaseControlDataset(data.exposures, z, data.outcome))


def test_divergence_names_the_coefficient_that_passed_the_bound():
    # no exposure pattern is one-sided, so only the coefficient's name says
    # where the fit diverged
    data = small_dataset(n=2000)
    z = 0.01 * (data.outcome - 0.5) + 0.001 * np.random.default_rng(1).random(data.n)
    with pytest.raises(SeparationError, match=r"^coefficient magnitude 15.5 of covariate "
                       r"1 \(per SD\) exceeds the divergence bound 15.0; separation "
                       r"suspected$"):
        fit_logit(CaseControlDataset(data.exposures, z, data.outcome))


def test_condition_cap_names_a_nearly_collinear_covariate():
    # covariate 2 is the v1 indicator plus 1e-6 N(0, 1): the rank check
    # passes it, the information's condition number does not
    rng = np.random.default_rng(0)
    n = 400
    v = (rng.random((n, 2)) < 0.4).astype(np.int8)
    y = np.repeat([0, 1], n // 2)
    z = np.column_stack([rng.normal(size=n), v[:, 0] + 1e-6 * rng.normal(size=n)])
    weights = np.ones((3, n))
    weights[1] = rng.integers(0, 3, n)
    weights[2, (v[:, 0] == 1) & (y == 0)] = 0  # only cases have v1
    errors = fit_batch(v[:, 0] + 2 * v[:, 1], z, y, 2, weights).errors
    for error in errors[:2]:
        assert isinstance(error, SeparationError)
        assert re.fullmatch(
            r"information matrix condition number \S+ exceeds 1e\+12; covariate 2 "
            r"\(design column 5\) is nearly collinear with the exposure patterns and "
            r"the covariates before it", str(error))
    # where a pattern is one-sided, the message is unchanged
    assert isinstance(errors[2], SeparationError)
    assert str(errors[2]).endswith(
        "; separation suspected; only cases have exposure patterns v1, v1:v2")


def test_condition_cap_reads_the_information_eigenvalues():
    data = small_dataset()
    info = np.linalg.inv(fit_logit(data).sigma_psi)  # symmetric positive definite
    eig = np.linalg.eigvalsh(info)
    assert np.isclose(eig.max() / eig.min(), np.linalg.cond(info), rtol=1e-9)
    with pytest.raises(
        SeparationError, match=r"condition number \S+ exceeds 1e\+00; separation"
    ):
        with mock.patch.object(logit, "COND_CAP", 1.0):
            fit_logit(data)
    # a zero eigenvalue is an infinite condition number, not a division error;
    # only eigvalsh sees one, as no matrix with one passes the certificate
    with mock.patch.object(np.linalg, "eigvalsh", lambda a: np.zeros(a.shape[:-1])), \
            mock.patch.object(logit, "_cleared", lambda a, cap: np.zeros(len(a), bool)):
        with pytest.raises(SeparationError, match="condition number inf exceeds"):
            fit_logit(data)


def test_constant_column_detected():
    rng = np.random.default_rng(12)
    n = 100
    y = np.repeat([0, 1], n // 2).astype(np.int8)
    exposures = np.column_stack(
        [(rng.random(n) < 0.5).astype(np.int8), np.zeros(n, dtype=np.int8)]
    )
    data = CaseControlDataset(exposures, np.zeros((n, 0)), y)
    with pytest.raises(SingularDesignError):
        fit_logit(data)


def test_collinear_columns_detected():
    rng = np.random.default_rng(13)
    n = 120
    y = np.repeat([0, 1], n // 2).astype(np.int8)
    v = (rng.random(n) < 0.5).astype(np.int8)
    data = CaseControlDataset(
        np.column_stack([v, v]), np.zeros((n, 0)), y
    )  # duplicated factor: interaction column equals each margin
    with pytest.raises(SingularDesignError):
        fit_logit(data)
    with pytest.raises(
        SingularDesignError,
        match=r"^design matrix is rank deficient \(collinear columns\): "
        r"no record has exposure patterns v1, v2$",
    ):
        fit_logit(data)


def test_single_class_rejected():
    data = CaseControlDataset(
        np.array([[0, 1]] * 12, dtype=np.int8),
        np.zeros((12, 0)),
        np.ones(12, dtype=np.int8),
    )
    with pytest.raises(EmptyClassError):
        fit_logit(data)


def test_too_few_records_rejected():
    data = CaseControlDataset(
        np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int8),
        np.zeros((3, 0)),
        np.array([0, 1, 1], dtype=np.int8),
    )
    with pytest.raises(ValueError):
        fit_logit(data)


def test_iteration_budget_respected():
    data = small_dataset(n=600, seed=14)
    with pytest.raises(ConvergenceError, match="^no convergence after 1 Newton iterations$"):
        with mock.patch.multiple(logit, MAX_ITER=1, SCORE_TOL=1e-14, STEP_TOL=0.0):
            fit_logit(data)


def test_stalled_step_halving_names_its_iteration():
    # every evaluation after the first reads a loglik of -inf, so no trial
    # is accepted: the full step and 33 halvings, then the fit stops
    evaluations, make = [], logit._evaluator

    def falling(*args):
        evaluate = make(*args)

        def worse(beta, rows):
            loglik, score, info = evaluate(beta, rows)
            evaluations.append(len(rows))
            return loglik if len(evaluations) == 1 else loglik - np.inf, score, info
        return worse

    message = "^step-halving found no non-decreasing step at iteration 1$"
    with mock.patch.object(logit, "_evaluator", falling):
        with pytest.raises(ConvergenceError, match=message):
            fit_logit(small_dataset(n=400, seed=3))
    assert evaluations == [1] * 35


def test_fit_is_pinned_bit_for_bit():
    # the digest was taken when the evaluator held the covariate pair
    # products and 1 - 2y for the whole fit; forming both per evaluation
    # must not move a bit.  It is tied to numpy's vector exp and LAPACK,
    # which may round differently on another build.
    design = SimDesign(
        p=2, q=3, psi_true=StructuralParams(np.log([2.0, 3.0, 1.5]), 2),
        kappa_true=np.array([-0.5, 0.4, -0.3, 0.2]),
        exposure_probs=np.full(2, 0.4), n0=1500, n1=1500, seed=31,
        z_models=(ConfounderModel.normal(),) * 3,
    )
    fit = fit_logit(simulate(design))
    digest = hashlib.sha256()
    for array in (fit.params.psi.psi, fit.sigma_psi, [fit.loglik, fit.iterations]):
        digest.update(np.asarray(array, dtype="<f8").tobytes())
    assert digest.hexdigest() == (
        "8c55029ac58ffdffd56e05b8f1196df5bc15a1771ae6355cfd044ef4d2c853c4"
    )


@pytest.mark.parametrize("q", [1, 2, 8])
def test_fit_memory_grows_linearly_in_q(q):
    # the records are held once and each covariate pair product is formed
    # as it is summed; a table of all q(q+1)/2 products would break the bound
    n = 20_000
    rng = np.random.default_rng(60 + q)
    data = CaseControlDataset(
        rng.integers(0, 2, size=(n, 2)), rng.normal(size=(n, q)),
        rng.integers(0, 2, size=n),
    )
    tracemalloc.start()
    try:
        fit_logit(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * q + 8) * n


def test_sigma_psi_is_block_of_full_inverse():
    data = small_dataset(n=800, seed=15)
    fit = fit_logit(data)
    _, _, info = loglik_and_derivatives(fit.params, data)
    full_inverse = np.linalg.inv(info)
    npsi = 3
    expected = full_inverse[1 : npsi + 1, 1 : npsi + 1]
    assert np.allclose(fit.sigma_psi, expected, rtol=1e-8, atol=1e-12)
    # inverting only the psi sub-block would drop the nuisance adjustment
    sub_inverse = np.linalg.inv(info[1 : npsi + 1, 1 : npsi + 1])
    assert not np.allclose(sub_inverse, fit.sigma_psi, rtol=1e-3)
    eigenvalues = np.linalg.eigvalsh(fit.sigma_psi)
    assert eigenvalues.min() >= -1e-8 * np.trace(fit.sigma_psi)


def test_fit_params_follow_the_design_column_order():
    # fit_design reads [kappa0, psi..., kappa1..q] off fit_batch's vector,
    # the order of the design columns [1, downset indicators, covariates]
    data = small_dataset(n=600, seed=19, q=2, kappa=np.array([-0.5, 0.4, -0.3]))
    masks, z, y = data.exposure_masks, data.covariates, data.outcome
    fit = fit_design(masks, z, y, 2)
    beta = fit_batch(masks, z, y, 2, np.ones((1, data.n))).beta[0]
    assert fit.params.kappa.tolist() == [beta[0], *beta[4:]]
    assert fit.params.psi.psi.tolist() == beta[1:4].tolist()
    assert design_vector(fit.params).tolist() == beta.tolist()
    assert fit.params.q == 2 and len(beta) == 6


# ------------------------------------------------------- weighted fit, oracle


def collapsed_cells(data):
    """Distinct (exposure mask, covariates, outcome) cells and their counts."""
    cells, counts = np.unique(
        np.column_stack([data.exposure_masks, data.covariates, data.outcome]),
        axis=0,
        return_counts=True,
    )
    return cells[:, 0].astype(np.int64), cells[:, 1:-1], cells[:, -1], counts


@pytest.mark.parametrize("p", [1, 2, 3])
def test_fit_matches_closed_form_saturated_mle(p):
    rng = np.random.default_rng(40 + p)
    n = 3000
    v = rng.integers(0, 2, size=(n, p))
    y = rng.random(n) < 1.0 / (1.0 + np.exp(0.5 - 0.4 * v.sum(axis=1)))
    data = CaseControlDataset(v, np.zeros((n, 0)), y.astype(np.int8))
    _, psi, sigma = saturated_mle_loop(data.exposures, data.outcome)

    fit = fit_logit(data)
    assert np.max(np.abs(fit.params.psi.psi - psi)) <= 1e-6
    assert np.max(np.abs(fit.sigma_psi - sigma)) <= 1e-6

    masks, z, y_cells, counts = collapsed_cells(data)
    assert len(counts) == 2 << p
    beta, weighted_sigma, _ = weighted_fit(masks, z, y_cells, p, counts)
    assert np.max(np.abs(beta[1 : 1 << p] - psi)) <= 1e-6
    assert np.max(np.abs(weighted_sigma - sigma)) <= 1e-6


# today's Newton loop stops short of the MLE: these bound its distance
Q0_PSI_TOL = 1e-5  # unit-floor relative
Q0_SIGMA_TOL = 1e-6  # relative to sigma_psi's largest entry


def q0_dataset(p, balanced, n=20_000):
    """No covariates; every cell holds cases and controls."""
    rng = np.random.default_rng(100 * p + balanced)
    if balanced:  # n / 2^p records per cell
        masks = np.arange(n) % (1 << p)
        v = (masks[:, None] >> np.arange(p)) & 1
    else:  # factor j is on with probability 0.2 up to 0.6
        v = (rng.random((n, p)) < np.linspace(0.2, 0.6, p)).astype(int)
        masks = v @ (1 << np.arange(p))
    eta = rng.uniform(-1.0, 1.0, 1 << p)[masks]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    return CaseControlDataset(v, np.zeros((n, 0)), y)


def assert_meets_the_q0_oracle(psi, sigma_psi, want_psi, want_sigma):
    assert unit_floor_error(psi, want_psi) <= Q0_PSI_TOL
    assert np.max(np.abs(sigma_psi - want_sigma)) <= Q0_SIGMA_TOL * np.max(np.abs(want_sigma))


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_q0_fit_meets_the_exact_oracle(p, balanced):
    data = q0_dataset(p, balanced)
    intercept, psi, sigma = saturated_mle_loop(data.exposures, data.outcome)
    score = saturated_score_loop(data.exposures, data.outcome, intercept, psi)
    assert np.max(np.abs(score)) <= 1e-10
    fit = fit_logit(data)
    assert_meets_the_q0_oracle(fit.params.psi.psi, fit.sigma_psi, psi, sigma)


def test_weighted_q0_refit_meets_the_exact_oracle():
    data = q0_dataset(5, False)
    weights = np.random.default_rng(5).integers(0, 3, size=data.n).astype(float)
    weights[:3] = 0.5, 1.25, 2.75  # fractional frequency weights
    intercept, psi, sigma = saturated_mle_loop(data.exposures, data.outcome, weights)
    score = saturated_score_loop(data.exposures, data.outcome, intercept, psi, weights)
    assert np.max(np.abs(score)) <= 1e-10
    beta, sigma_psi, _ = weighted_fit(
        data.exposure_masks, data.covariates, data.outcome, 5, weights)
    assert abs(beta[0] - intercept) <= Q0_PSI_TOL * max(1.0, abs(intercept))
    assert_meets_the_q0_oracle(beta[1:32], sigma_psi, psi, sigma)


def test_weighted_fit_equals_fit_on_repeated_records():
    data = small_dataset(n=300, seed=16)
    counts = np.random.default_rng(16).integers(1, 4, size=data.n)
    rows = np.repeat(np.arange(data.n), counts)
    masks, z, y = data.exposure_masks, data.covariates, data.outcome
    repeated = fit_design(masks[rows], z[rows], y[rows], 2)
    beta, sigma_psi, loglik = weighted_fit(masks, z, y, 2, counts)
    assert np.allclose(beta, design_vector(repeated.params), rtol=0, atol=1e-9)
    assert np.allclose(sigma_psi, repeated.sigma_psi, rtol=0, atol=1e-12)
    assert loglik == pytest.approx(repeated.loglik, rel=1e-12)


def test_batch_weights_must_be_non_negative_one_row_per_fit():
    data = small_dataset(n=100, seed=17)
    masks, z, y = data.exposure_masks, data.covariates, data.outcome
    with pytest.raises(ValueError, match="weights"):
        fit_batch(masks, z, y, 2, np.r_[-1.0, np.ones(data.n - 1)][None])
    for bad in (np.inf, np.nan):  # one weight of the second fit of two
        weights = np.ones((2, data.n))
        weights[1, 0] = bad
        with pytest.raises(ValueError, match="^weights must be finite and non-negative"):
            fit_batch(masks, z, y, 2, weights)
    with pytest.raises(ValueError, match="weights"):
        fit_batch(masks, z, y, 2, np.ones((1, data.n - 1)))
    with pytest.raises(ValueError, match="weights"):
        fit_batch(masks, z, y, 2, np.ones(data.n))
    # a zero weight leaves its record out of the fit, bit for bit
    dropped = fit_batch(masks, z, y, 2, np.r_[0.0, np.ones(data.n - 1)][None])
    kept = fit_batch(masks[1:], z[1:], y[1:], 2, np.ones((1, data.n - 1)))
    assert dropped.errors == kept.errors == [None]
    assert np.array_equal(dropped.beta, kept.beta)
    assert np.array_equal(dropped.info, kept.info)


def test_a_start_that_is_not_finite_is_refused():
    data = small_dataset(n=100, seed=17)
    masks, z, y = data.exposure_masks, data.covariates, data.outcome
    message = "^start entries must all be finite$"
    with pytest.raises(ValueError, match=message):
        fit_design(masks, z, y, 2, start=[np.nan, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=message):
        fit_batch(masks, z, y, 2, np.ones((1, data.n)), start=[[np.inf, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match=message):  # one entry of the second fit of two
        fit_batch(masks, z, y, 2, np.ones((2, data.n)),
                  start=np.r_[np.zeros(9), -np.inf].reshape(2, 5))
    assert fit_design(masks, z, y, 2, start=np.full(5, 0.1)).converged


def test_weighted_record_count_and_class_checks():
    # design rows [1, 0, 0], [1, 1, 0] and [1, 0, 1]
    masks, z = np.array([0, 1, 0]), np.array([[0.0], [0.0], [1.0]])
    # three rows are too few for three coefficients, nine weighted ones are not
    with pytest.raises(ValueError, match="got 3"):
        fit_design(masks, z, np.array([0.0, 1.0, 1.0]), 1)
    with pytest.raises(EmptyClassError):
        weighted_fit(masks, z, np.ones(3), 1, np.full(3, 3.0))


def test_fractional_case_weights_are_not_an_empty_class():
    # the 300 cases weigh 0.9 in all: a count that rounds weights down
    # would see no case.  With no covariates the model is saturated, so
    # scaling the case weights by c moves only the intercept, by log c.
    data = small_dataset(n=600, seed=18, q=0)
    masks, z, y = data.exposure_masks, data.covariates, data.outcome
    c = 0.9 / data.n1
    beta, _, _ = weighted_fit(masks, z, y, 2, np.where(y == 1, c, 1.0))
    fit = fit_logit(data)
    assert np.allclose(beta[1:], design_vector(fit.params)[1:], rtol=0, atol=1e-7)
    assert beta[0] == pytest.approx(fit.params.kappa[0] + np.log(c), abs=1e-7)


# ------------------------------------------------- condition certificate


def eigvalsh_verdicts(info):
    """Condition numbers and ridge tests read from every eigenvalue."""
    eig = np.linalg.eigvalsh(info)
    size = np.abs(eig)
    cond = np.full(len(info), np.inf)
    np.divide(size.max(1), size.min(1), out=cond, where=size.min(1) > 0)
    return cond, eig[:, 0] <= 0.0


def with_spectrum(rng, eigenvalues):
    """A symmetric matrix with the given eigenvalues, in a random basis."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues),) * 2))
    m = (q * eigenvalues) @ q.T
    return 0.5 * (m + m.T)


def certificate_stacks(k=9):
    """Named stacks of k x k matrices and the cap each is checked against."""
    rng = np.random.default_rng(70)
    spd = []
    for _ in range(12):
        g = rng.normal(size=(k, k))
        spd.append(g @ g.T + k * np.eye(k))
    cap = 1e12

    def conditioned(c):
        return with_spectrum(rng, np.geomspace(1.0, 1.0 / c, k))

    near_cap = [conditioned(cap * f) for f in (1 - 1e-3, 1 + 1e-3, 0.5)]
    low = with_spectrum(rng, np.r_[np.geomspace(1.0, 1e-3, k - 1), 0.0])
    indefinite = with_spectrum(rng, np.r_[np.geomspace(1.0, 1e-3, k - 1), -1e-12])
    zero_diagonal = spd[0].copy()
    zero_diagonal[3, :] = zero_diagonal[:, 3] = 0.0
    scale = np.geomspace(1.0, 1e7, k)
    wide = spd[1] * scale * scale[:, None]  # diagonal ratio about 1e14
    unit = np.eye(k)  # unit diagonal, a candidate, but not positive definite
    unit[0, 1] = unit[1, 0] = 1.5
    return {
        "random_spd": (np.array(spd), cap),
        "near_cap": (np.array(near_cap), cap),
        "singular_and_indefinite": (np.array([low, indefinite, spd[2]]), cap),
        "zero_diagonal": (np.array([zero_diagonal, spd[3]]), cap),
        "huge_diagonal_ratio": (np.array([wide, spd[4]]), cap),
        "user_cap_10": (np.array(spd[:4] + [conditioned(9.0), conditioned(11.0)]), 10.0),
        "one_row_fails_the_stack": (np.array(spd[5:9] + [unit] + spd[9:]), cap),
        "no_cap": (np.array(spd[:3] + [zero_diagonal, wide]), np.inf),
    }


# rows the certificate must clear (True) or send to eigvalsh (False)
CLEARED = {
    "random_spd": [True] * 12,
    "near_cap": [False] * 3,
    "singular_and_indefinite": [False] * 3,  # their Cholesky fails the stack
    "zero_diagonal": [False, True],
    "huge_diagonal_ratio": [False, True],
    "user_cap_10": [False] * 6,
    "one_row_fails_the_stack": [False] * 8,
    "no_cap": [True, True, True, False, False],
}


@pytest.mark.parametrize("name", list(CLEARED))
def test_certificate_decides_as_eigvalsh(name):
    info, cap = certificate_stacks()[name]
    assert logit._cleared(info, cap).tolist() == CLEARED[name]
    cond, ridge = logit._conditioning(info, cap)
    expected_cond, expected_ridge = eigvalsh_verdicts(info)
    assert ((cond > cap) == (expected_cond > cap)).all()
    assert (ridge == expected_ridge).all()
    cleared = np.isnan(cond)
    assert cleared.tolist() == CLEARED[name]
    # what eigvalsh computes, it computes as on the whole stack
    assert np.array_equal(cond[~cleared], expected_cond[~cleared])
    assert (expected_cond[cleared] <= cap / 2).all()
    assert not expected_ridge[cleared].any()


def test_ridge_fallback_touches_only_the_marked_matrices():
    info, _ = certificate_stacks()["singular_and_indefinite"]
    before = info.copy()
    used = np.array([True, True, False])
    ridged = logit._ridged(info, used)
    assert info.tobytes() == before.tobytes()  # the input is not written
    assert ridged[2].tobytes() == info[2].tobytes()
    k = info.shape[-1]
    for b in (0, 1):
        expected = info[b] + 1e-10 * np.trace(info[b]) / k * np.eye(k)
        assert ridged[b].tobytes() == expected.tobytes()
        assert np.linalg.eigvalsh(ridged[b])[0] > 0
    assert logit._ridged(info, np.zeros(3, dtype=bool)) is info


def separating_batch():
    """Two ordinary fits and one whose records separate on v1.

    The separating fit holds only records whose second covariate is tiny,
    so its information exceeds the condition cap at the first iteration.
    """
    rng = np.random.default_rng(0)
    n = 400
    v = (rng.random((n, 2)) < 0.4).astype(np.int8)
    y = np.repeat([0, 1], n // 2)
    tiny = rng.random(n) < 0.5
    z = np.column_stack(
        [rng.normal(size=n), np.where(tiny, 1e-6, 1.0) * rng.normal(size=n)]
    )
    weights = np.ones((3, n))
    weights[1] = rng.integers(0, 3, n)
    weights[2] = tiny
    weights[2, (v[:, 0] == 1) & (y == 0)] = 0
    return v[:, 0] + 2 * v[:, 1], z, y, 2, weights


def boot_batch():
    """The first batch bootstrap_replicates fits on a discrete confounder."""
    design = SimDesign(
        p=3, q=1, psi_true=StructuralParams(np.log([1.8] * 3 + [1.3] * 3 + [1.0]), 3),
        kappa_true=np.array([-2.0, 0.4]),
        exposure_probs=np.array([0.40, 0.35, 0.30]), n0=1000, n1=1000, seed=20,
        z_models=(ConfounderModel.discrete([0.0, 1.0], [0.5, 0.5]),),
    )
    batches = []
    with mock.patch.object(
        inference, "fit_batch", lambda *args: batches.append(args) or fit_batch(*args)
    ):
        inference.bootstrap_replicates(simulate(design), 200, seed=3)
    return batches[0]


def sweep_fit():
    """A p = 5 fit shaped like the Monte Carlo sweep's, as a batch of one."""
    design = SimDesign(
        p=5, q=1, psi_true=StructuralParams(np.full(31, 0.1), 5),
        kappa_true=np.array([-2.5, 0.3]), exposure_probs=np.full(5, 0.45),
        n0=2000, n1=2000, seed=30, z_models=(ConfounderModel.normal(),),
    )
    data = simulate(design)
    return (data.exposure_masks, data.covariates, data.outcome, 5,
            np.ones((1, data.n)))


@pytest.mark.parametrize("make", [boot_batch, separating_batch, sweep_fit])
def test_certificate_leaves_every_fit_bit_for_bit(make, monkeypatch):
    args = make()
    cleared = []
    real = logit._cleared

    def counting(info, cap):
        clear = real(info, cap)
        cleared.append(int(clear.sum()))
        return clear

    monkeypatch.setattr(logit, "_cleared", counting)
    fast = fit_batch(*args)
    fast_design = fit_design(*args[:4]) if make is sweep_fit else None
    assert sum(cleared) > 0  # the certificate did clear fits
    monkeypatch.setattr(logit, "_cleared", lambda info, cap: np.zeros(len(info), bool))
    slow = fit_batch(*args)
    for field in ("beta", "loglik", "score", "info", "iterations", "ridge_used"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert [(type(e), str(e)) for e in fast.errors] == [
        (type(e), str(e)) for e in slow.errors
    ]
    if make is separating_batch:
        assert fast.errors[:2] == [None, None]
        assert re.match(
            r"information matrix condition number \S+ exceeds 1e\+12; separation "
            r"suspected; only cases have exposure patterns v1, v1:v2$",
            str(fast.errors[2]),
        )
    if fast_design is not None:
        slow_design = fit_design(*args[:4])
        assert fast_design.sigma_psi.tobytes() == slow_design.sigma_psi.tobytes()
        assert fast_design.ridge_used == slow_design.ridge_used
