from unittest import mock

import numpy as np
import pytest

from interodds.errors import (
    ConvergenceError,
    EmptyClassError,
    SeparationError,
    SingularDesignError,
)
from interodds.logit import (
    CaseControlDataset,
    FitOptions,
    FullParams,
    _evaluator,
    fit_design,
    fit_logit,
)
from interodds.measures import StructuralParams
from interodds.patterns import pattern_index
from interodds.simulate import ConfounderModel, SimDesign, simulate

from oracles import downset_indicator


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
        params.to_vector(), design_matrix(data), data.outcome.astype(float)
    )


def pattern_loglik_score_info(beta, data, weights=None):
    """The fit's own evaluation, which never builds the design."""
    weights = np.ones(data.n) if weights is None else np.asarray(weights, float)
    evaluate = _evaluator(
        data.exposure_masks, np.ascontiguousarray(data.covariates.T),
        data.outcome.astype(float), weights, data.p,
    )
    return evaluate(beta)


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
    start = fit.params.to_vector() + 0.1 * rng.normal(size=4 + data.q)
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


def test_condition_cap_reads_the_information_eigenvalues():
    data = small_dataset()
    info = np.linalg.inv(fit_logit(data).sigma_psi)  # symmetric positive definite
    eig = np.linalg.eigvalsh(info)
    assert np.isclose(eig.max() / eig.min(), np.linalg.cond(info), rtol=1e-9)
    with pytest.raises(
        SeparationError, match=r"condition number \S+ exceeds 1e\+00; separation"
    ):
        fit_logit(data, FitOptions(cond_cap=1.0))
    # a zero eigenvalue is an infinite condition number, not a division error
    with mock.patch.object(np.linalg, "eigvalsh", lambda a: np.zeros(len(a))):
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
    with pytest.raises(ConvergenceError):
        fit_logit(data, options=FitOptions(max_iter=1, score_tol=1e-14, step_tol=0.0))


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


def test_full_params_vector_round_trip():
    psi = StructuralParams(np.array([0.1, -0.2, 0.3]), 2)
    params = FullParams(psi=psi, kappa=np.array([-1.0, 0.5, 0.25]))
    vec = params.to_vector()
    assert vec.tolist() == [-1.0, 0.1, -0.2, 0.3, 0.5, 0.25]
    back = FullParams.from_vector(vec, 2, 2)
    assert np.allclose(back.psi.psi, psi.psi)
    assert np.allclose(back.kappa, params.kappa)


# ------------------------------------------------------- weighted fit, oracle


def collapsed_cells(data):
    """Distinct (exposure mask, covariates, outcome) cells and their counts."""
    cells, counts = np.unique(
        np.column_stack([data.exposure_masks, data.covariates, data.outcome]),
        axis=0,
        return_counts=True,
    )
    return cells[:, 0].astype(np.int64), cells[:, 1:-1], cells[:, -1], counts


def saturated_mle(data):
    """Closed-form MLE of psi and its covariance for q = 0.

    The saturated model fits every exposure cell's log odds exactly, so
    psi is the Moebius inversion of the cell log odds log(a / b), and the
    covariance is M diag(1/a + 1/b) M' for the inversion matrix M.
    """
    masks = data.exposure_masks
    a = np.bincount(masks[data.outcome == 1], minlength=1 << data.p)
    b = np.bincount(masks[data.outcome == 0], minlength=1 << data.p)
    M = np.zeros((len(pattern_index(data.p).masks), 1 << data.p))
    for row, m in enumerate(pattern_index(data.p).masks.tolist()):
        for u in range(1 << data.p):
            if u & ~m == 0:
                M[row, u] = (-1) ** (bin(m).count("1") - bin(u).count("1"))
    return M @ np.log(a / b), (M * (1.0 / a + 1.0 / b)) @ M.T


@pytest.mark.parametrize("p", [1, 2, 3])
def test_fit_matches_closed_form_saturated_mle(p):
    rng = np.random.default_rng(40 + p)
    n = 3000
    v = rng.integers(0, 2, size=(n, p))
    y = rng.random(n) < 1.0 / (1.0 + np.exp(0.5 - 0.4 * v.sum(axis=1)))
    data = CaseControlDataset(v, np.zeros((n, 0)), y.astype(np.int8))
    psi, sigma = saturated_mle(data)

    fit = fit_logit(data)
    assert np.max(np.abs(fit.params.psi.psi - psi)) <= 1e-6
    assert np.max(np.abs(fit.sigma_psi - sigma)) <= 1e-6

    masks, z, y_cells, counts = collapsed_cells(data)
    assert len(counts) == 2 << p
    weighted = fit_design(masks, z, y_cells, p, weights=counts)
    assert np.max(np.abs(weighted.params.psi.psi - psi)) <= 1e-6
    assert np.max(np.abs(weighted.sigma_psi - sigma)) <= 1e-6


def test_weighted_fit_equals_fit_on_repeated_records():
    data = small_dataset(n=300, seed=16)
    counts = np.random.default_rng(16).integers(1, 4, size=data.n)
    rows = np.repeat(np.arange(data.n), counts)
    masks, z, y = data.exposure_masks, data.covariates, data.outcome
    repeated = fit_design(masks[rows], z[rows], y[rows], 2)
    weighted = fit_design(masks, z, y, 2, weights=counts)
    assert np.allclose(weighted.params.to_vector(), repeated.params.to_vector(),
                       rtol=0, atol=1e-9)
    assert np.allclose(weighted.sigma_psi, repeated.sigma_psi, rtol=0, atol=1e-12)
    assert weighted.loglik == pytest.approx(repeated.loglik, rel=1e-12)


def test_weights_must_be_positive_one_per_row():
    data = small_dataset(n=100, seed=17)
    masks, z, y = data.exposure_masks, data.covariates, data.outcome
    with pytest.raises(ValueError, match="weights"):
        fit_design(masks, z, y, 2, weights=np.r_[0.0, np.ones(data.n - 1)])
    with pytest.raises(ValueError, match="weights"):
        fit_design(masks, z, y, 2, weights=np.ones(data.n - 1))


def test_weighted_record_count_and_class_checks():
    # design rows [1, 0, 0], [1, 1, 0] and [1, 0, 1]
    masks, z = np.array([0, 1, 0]), np.array([[0.0], [0.0], [1.0]])
    # three rows are too few for three coefficients, nine weighted ones are not
    with pytest.raises(ValueError, match="got 3"):
        fit_design(masks, z, np.array([0.0, 1.0, 1.0]), 1)
    with pytest.raises(EmptyClassError):
        fit_design(masks, z, np.ones(3), 1, weights=np.full(3, 3.0))
