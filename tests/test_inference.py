import hashlib
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from itertools import combinations
from math import sqrt
from statistics import NormalDist

import numpy as np
import pytest

import interodds.inference as inference
import interodds.measures as measures
from interodds.errors import (
    BootstrapFailureError,
    InterOddsError,
    NegativeVarianceError,
    TransformRangeError,
    UndefinedSynergyError,
)
from interodds.inference import (
    BootstrapReplicates,
    bootstrap_ci,
    bootstrap_replicates,
    delta_ci,
    normal_quantile,
)
from interodds.logit import (
    CaseControlDataset,
    FitResult,
    FullParams,
    fit_design,
    fit_logit,
)
from interodds.measures import (
    KINDS,
    MeasureSpec,
    StructuralParams,
    measure,
    measure_parts,
    measure_value,
    spec_plan,
)
from interodds.patterns import downset_rows, pattern_index
from interodds.selfcheck import (
    _fd,
    _gradient_points,
    gradient_fd_error,
    iter_splits,
    rel_err,
)
from interodds.simulate import ConfounderModel, SimDesign, simulate

from oracles import (
    bootstrap_ci_per_replicate,
    ci_transform,
    delta_ci_reference,
    downset_indicator,
    measure_gradient,
    parts_gradients,
)

RUN2 = StructuralParams(np.log([2.0, 3.0, 1.5]), 2)


def make_fit(psi, sigma, q=0, kappa=None):
    psi = psi if isinstance(psi, StructuralParams) else StructuralParams(psi, 2)
    kappa = np.zeros(q + 1) if kappa is None else kappa
    return FitResult(
        params=FullParams(psi=psi, kappa=kappa),
        sigma_psi=np.asarray(sigma, dtype=float),
        loglik=-100.0,
        iterations=3,
        converged=True,
        gradient_norm=1e-12,
    )


# ------------------------------------------------------------------ gradients


def test_joint_gradient_at_null_is_all_ones():
    g = parts_gradients(StructuralParams.zeros(3), MeasureSpec(p=3, kind="OR"))
    assert g.joint.tolist() == [1.0] * 7


def test_baseline_gradient_vanishes_without_held_factors():
    g = parts_gradients(RUN2, MeasureSpec(p=2, kind="EOR", order=2))
    assert g.baseline.tolist() == [0.0, 0.0, 0.0]


def test_predicted_gradient_running_example():
    g = parts_gradients(RUN2, MeasureSpec(p=2, kind="EOR", order=2))
    assert np.allclose(g.predicted, [2.0, 3.0, 0.0], rtol=1e-12)


def test_measure_gradient_running_examples():
    d_or = measure_gradient(RUN2, MeasureSpec(p=2, kind="OR"))
    assert np.allclose(d_or, [9.0, 9.0, 9.0], rtol=1e-12)
    d_eor = measure_gradient(RUN2, MeasureSpec(p=2, kind="EOR", order=2))
    assert np.allclose(d_eor, [7.0, 6.0, 9.0], rtol=1e-12)


def test_measure_gradient_null_interaction_coordinate_only():
    d = measure_gradient(StructuralParams.zeros(2), MeasureSpec(p=2, kind="EOR", order=2))
    assert np.allclose(d, [0.0, 0.0, 1.0], rtol=1e-12)


def test_gradients_match_finite_differences():
    assert gradient_fd_error(points=30, seed=77) <= 1e-6


def test_part_and_measure_gradients_match_finite_differences():
    # the oracle gradients, at the points where `check --full` checks delta_ci
    worst = 0.0
    for params, spec, fd_measure, _ in _gradient_points(100, 20170322, (2, 3, 4), 1e-5):
        g = parts_gradients(params, spec)
        for name in ("joint", "predicted", "baseline"):
            fd_part = _fd(lambda pr: getattr(measure_parts(pr, spec), name), params, 1e-5)
            worst = max(worst, rel_err(getattr(g, name), fd_part).max())
        worst = max(worst, rel_err(measure_gradient(params, spec), fd_measure).max())
    assert worst <= 1e-6


def test_joint_and_baseline_gradients_nonnegative():
    rng = np.random.default_rng(19)
    for _ in range(20):
        psi = StructuralParams(rng.uniform(-1.0, 1.0, 7), 3)
        spec = MeasureSpec(p=3, kind="AP", order=2, fixed={1: int(rng.integers(2))})
        g = parts_gradients(psi, spec)
        assert np.all(g.joint >= 0.0)
        assert np.all(g.baseline >= 0.0)
        assert np.all(np.isfinite(measure_gradient(psi, spec)))


def test_si_gradient_undefined_where_measure_is():
    psi = StructuralParams(np.log([0.5, 0.6, 1.01]), 2)
    with pytest.raises(UndefinedSynergyError):
        measure_gradient(psi, MeasureSpec(p=2, kind="SI", order=2))


def test_predicted_gradient_matches_double_sum_form():
    """Closed-form prediction gradient vs its double-sum origin.

    Summing each increment's gradient (an alternating sum of OR times
    downset indicator) over every subpattern below the truncation order
    must reproduce the binomial-coefficient form after the interchange of
    summation.
    """
    from interodds.measures import odds_ratio

    rng = np.random.default_rng(23)
    for _ in range(10):
        p = int(rng.integers(2, 5))
        psi = StructuralParams(rng.uniform(-0.8, 0.8, (1 << p) - 1), p)
        while True:
            kmask = int(rng.integers(1 << p))
            if kmask.bit_count() < p:
                break
        fixed = {j: int(rng.integers(2)) for j in range(p) if (kmask >> j) & 1}
        varying = [j for j in range(p) if j not in fixed]
        nj = len(varying)
        order = int(rng.integers(1, nj + 1))
        spec = MeasureSpec(p=p, kind="AP", order=order, fixed=fixed)
        g = parts_gradients(psi, spec)

        expected = np.zeros((1 << p) - 1)
        for u in range(1 << nj):
            if u.bit_count() > order - 1:
                continue
            for w in range(1 << nj):
                if w & ~u:
                    continue
                bits = [0] * p
                for j, level in fixed.items():
                    bits[j] = level
                for i, j in enumerate(varying):
                    bits[j] = (w >> i) & 1
                sign = (-1.0) ** (u.bit_count() - w.bit_count())
                expected = expected + sign * odds_ratio(psi, bits) * downset_indicator(bits)
        assert np.allclose(g.predicted, expected, rtol=1e-10, atol=1e-12)


def test_delta_ci_or_se_is_classic_log_or_se():
    """Joint-OR SE on the log scale is the downset quadratic form."""
    rng = np.random.default_rng(24)
    psi = StructuralParams(rng.uniform(-0.5, 0.5, 7), 3)
    root = rng.normal(0, 0.1, (7, 7))
    sigma = root @ root.T
    fit = make_fit(psi, sigma)
    rep = delta_ci(fit, MeasureSpec(p=3, kind="OR"))
    ones = np.ones(7)
    assert np.isclose(rep.se_transformed, np.sqrt(ones @ sigma @ ones), rtol=1e-12)


# ----------------------------------------------------------------- transforms


def test_transform_shapes():
    ap = ci_transform("AP")
    assert ap.apply(0.0) == 0.0
    assert np.isclose(ap.apply(0.5), np.log(3.0), rtol=1e-15)
    si = ci_transform("SI")
    assert si.apply(1.0) == 0.0
    assert ci_transform("EOR").name == "identity"
    assert ci_transform("OR").name == "log"
    assert {k: ci_transform(k).name for k in KINDS} == inference.TRANSFORM_NAMES


@pytest.mark.parametrize(
    "kind,values",
    [
        ("EOR", np.linspace(-30, 30, 13)),
        ("AP", np.linspace(-0.999, 0.999, 13)),
        ("SI", np.geomspace(1e-4, 1e4, 13)),
        ("OR", np.geomspace(1e-4, 1e4, 13)),
    ],
)
def test_transform_round_trip(kind, values):
    tr = ci_transform(kind)
    for x in values:
        assert abs(tr.invert(tr.apply(float(x))) - x) <= 1e-12 * max(1.0, abs(x))
        assert tr.derivative(float(x)) > 0.0


def test_transform_range_errors():
    with pytest.raises(TransformRangeError):
        ci_transform("AP").apply(1.0)
    with pytest.raises(TransformRangeError):
        ci_transform("AP").apply(-1.5)
    with pytest.raises(TransformRangeError):
        ci_transform("SI").apply(0.0)
    with pytest.raises(TransformRangeError):
        ci_transform("SI").apply(-2.0)


def test_transform_is_shared_per_kind():
    assert ci_transform("AP") is ci_transform("ap")
    for kind in ("OR", "EOR", "AP", "SI"):
        assert ci_transform(kind) is ci_transform(kind.lower())


def test_normal_quantile():
    assert abs(normal_quantile(0.975) - 1.959963984540054) < 1e-9
    assert abs(normal_quantile(0.5)) < 1e-12
    assert abs(normal_quantile(0.025) + normal_quantile(0.975)) < 1e-12
    with pytest.raises(ValueError):
        normal_quantile(1.0)


# ------------------------------------------------------------------- delta CI


def test_delta_ci_collapses_with_zero_variance():
    fit = make_fit(RUN2, np.zeros((3, 3)))
    rep = delta_ci(fit, MeasureSpec(p=2, kind="AP", order=2))
    assert rep.ci_low == rep.point == rep.ci_high
    assert rep.se_transformed == 0.0
    assert rep.method == "DELTA"


def test_delta_ci_requires_converged_fit():
    fit = replace(make_fit(RUN2, np.eye(3)), converged=False)
    with pytest.raises(ValueError):
        delta_ci(fit, MeasureSpec(p=2, kind="AP", order=2))


def test_delta_ci_negative_variance_detected():
    fit = make_fit(RUN2, -np.eye(3))
    with pytest.raises(NegativeVarianceError):
        delta_ci(fit, MeasureSpec(p=2, kind="EOR", order=2))


def test_delta_ci_ordering_and_ranges():
    rng = np.random.default_rng(21)
    for _ in range(25):
        psi = StructuralParams(rng.uniform(0.1, 0.8, 3), 2)
        root = rng.normal(0, 0.2, (3, 3))
        fit = make_fit(psi, root @ root.T)
        for kind, order in (("OR", None), ("EOR", 2), ("AP", 2), ("SI", 2)):
            spec = MeasureSpec(p=2, kind=kind, order=order)
            rep = delta_ci(fit, spec)
            assert rep.ci_low <= rep.point <= rep.ci_high
            if kind == "AP":
                assert -1.0 <= rep.ci_low <= rep.ci_high <= 1.0
            if kind in ("SI", "OR"):
                assert rep.ci_low > 0.0
            assert rep.se_transformed >= 0.0


def test_delta_ci_si_log_scale_equivariance():
    rng = np.random.default_rng(22)
    psi = StructuralParams(rng.uniform(0.2, 0.7, 3), 2)
    root = rng.normal(0, 0.15, (3, 3))
    fit = make_fit(psi, root @ root.T)
    rep = delta_ci(fit, MeasureSpec(p=2, kind="SI", order=2), alpha=0.05)
    z = normal_quantile(0.975)
    center = float(np.log(rep.point))
    assert rep.ci_low == float(np.exp(center - z * rep.se_transformed))
    assert rep.ci_high == float(np.exp(center + z * rep.se_transformed))


def test_delta_ci_notes_ap_tie():
    # psi = 0 ties joint and predicted at 1 for order 1
    fit = make_fit(StructuralParams.zeros(2), 0.01 * np.eye(3))
    rep = delta_ci(fit, MeasureSpec(p=2, kind="AP", order=1))
    assert rep.note is not None
    rep2 = delta_ci(fit, MeasureSpec(p=2, kind="AP", order=2))
    assert rep2.note is not None


def test_delta_ci_names_the_negative_prediction_behind_ap_out_of_range():
    # OR(1,0) = OR(0,1) = 0.3, so the order-2 prediction is 0.3 + 0.3 - 1
    fit = make_fit(np.log([0.3, 0.3, 12.0]), 0.01 * np.eye(3))
    with pytest.raises(TransformRangeError) as info:
        delta_ci(fit, MeasureSpec(p=2, kind="AP", order=2))
    assert str(info.value) == (
        "attributable proportion 1.37037 is outside (-1, 1): the predicted "
        "odds ratio -0.4 is not positive (joint odds ratio 1.08)"
    )


def all_specs(p):
    """Every valid (kind, order, held set, held level) spec for ``p`` factors."""
    specs = []
    for k in range(p):
        for held in combinations(range(p), k):
            for levels in range(1 << k):
                fixed = {j: (levels >> i) & 1 for i, j in enumerate(held)}
                specs.append(MeasureSpec(p=p, kind="OR", fixed=fixed))
                for kind, first in (("EOR", 1), ("AP", 1), ("SI", 2)):
                    specs.extend(
                        MeasureSpec(p=p, kind=kind, order=order, fixed=fixed)
                        for order in range(first, p - k + 1)
                    )
    return specs


def _oracle_transform(kind):
    """The transforms written out as closures: (apply, invert, derivative)."""

    def unit(x):
        if not -1.0 < x < 1.0:
            raise TransformRangeError(f"{x} outside (-1, 1)")
        return x

    def positive(x):
        if not x > 0.0:
            raise TransformRangeError(f"{x} outside (0, inf)")
        return x

    if kind == "EOR":
        return (lambda x: x), (lambda y: y), (lambda x: 1.0)
    if kind == "AP":
        return (
            lambda x: float(np.log((1.0 + unit(x)) / (1.0 - x))),
            lambda y: float(np.tanh(0.5 * y)),
            lambda x: 2.0 / (1.0 - unit(x) ** 2),
        )
    return (
        lambda x: float(np.log(positive(x))),
        lambda y: float(np.exp(y)),
        lambda x: 1.0 / positive(x),
    )


def oracle_delta_ci(fit, spec, alpha=0.05):
    """The delta interval in two steps: part gradients, then the chain rule."""
    psi = fit.params.psi
    parts = measure_parts(psi, spec)
    point = measure_value(spec.kind, *parts)
    g = parts_gradients(psi, spec)
    a, b, c = parts.joint, parts.predicted, parts.baseline
    if spec.kind == "OR":
        grad = g.joint / c - a / c**2 * g.baseline
    elif spec.kind == "EOR":
        grad = (g.joint - g.predicted) / c - (a - b) / c**2 * g.baseline
    elif spec.kind == "AP" and a >= b:
        grad = b / a**2 * g.joint - g.predicted / a
    elif spec.kind == "AP":
        grad = g.joint / b - a / b**2 * g.predicted
    else:
        d = b - c
        grad = (
            g.joint / d - (a - c) / d**2 * g.predicted + (a - b) / d**2 * g.baseline
        )
    var = float(grad @ fit.sigma_psi @ grad)
    if var < -1e-10:
        raise NegativeVarianceError(f"variance {var}")
    apply, invert, derivative = _oracle_transform(spec.kind)
    se_t = derivative(point) * sqrt(max(var, 0.0))
    if se_t == 0.0:
        return point, se_t, point, point
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    center = apply(point)
    low = min(invert(center - z * se_t), point)
    high = max(invert(center + z * se_t), point)
    return point, se_t, low, high


def random_fit(p, rng, scale):
    k = (1 << p) - 1
    root = rng.normal(0.0, 0.1, (k, k))
    return make_fit(
        StructuralParams(rng.uniform(-scale, scale, k), p), root @ root.T
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except InterOddsError as exc:
        return type(exc)


def test_delta_ci_matches_two_step_oracle_on_every_p5_spec():
    specs = all_specs(5)
    assert len(specs) == 1215
    rng = np.random.default_rng(2017)
    errors = set()
    for scale in (0.3, 0.8, 1.5):
        fit = random_fit(5, rng, scale)
        for spec in specs:
            expected = outcome(oracle_delta_ci, fit, spec)
            got = outcome(delta_ci, fit, spec)
            if isinstance(expected, type):
                assert got is expected, spec
                errors.add(expected)
                continue
            got = (got.point, got.se_transformed, got.ci_low, got.ci_high)
            for x, y in zip(got, expected):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y)), (spec, got)
    # both error branches were compared, not only the intervals
    assert errors == {UndefinedSynergyError, TransformRangeError}


def test_delta_se_is_the_quadratic_form_of_measure_gradient():
    rng = np.random.default_rng(2018)
    fit = random_fit(5, rng, 0.5)
    checked = 0
    for spec in all_specs(5):
        rep = outcome(delta_ci, fit, spec)
        if isinstance(rep, type):
            continue
        g = measure_gradient(fit.params.psi, spec)
        sigma = sqrt(g @ fit.sigma_psi @ g)
        se = rep.se_transformed / ci_transform(spec.kind).derivative(rep.point)
        assert abs(se - sigma) <= 1e-12 * sigma, spec
        checked += 1
    assert checked > 1000


def bits(fn, *args):
    """Every report field as (type, repr), or the error's class and message.

    ``repr`` tells every float apart, the sign of a zero included.
    """
    try:
        report = fn(*args)
    except (InterOddsError, ValueError) as exc:
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in vars(report).values()]


def sweep_fits():
    """The fits of the Monte Carlo sweep's 16 designs: p=5, q=1, 2,000 + 2,000."""
    sizes = [bin(int(m)).count("1") for m in pattern_index(5).masks]
    psi = np.log([{1: 1.5, 2: 1.2}.get(k, 1.0) for k in sizes])
    return [
        fit_logit(simulate(SimDesign(
            p=5, q=1, psi_true=StructuralParams(psi, 5),
            kappa_true=np.array([-2.5, 0.3]), exposure_probs=np.full(5, 0.45),
            n0=2_000, n1=2_000, seed=30_000 + seed,
            z_models=(ConfounderModel.normal(),),
        )))
        for seed in range(16)
    ]


def test_delta_ci_is_the_reference_bit_for_bit():
    specs = all_specs(5)
    rng = np.random.default_rng(2017)
    fits = [random_fit(5, rng, scale) for scale in (0.3, 0.8, 1.5)]
    indefinite = random_fit(5, rng, 0.5)
    indefinite = replace(indefinite, sigma_psi=-indefinite.sigma_psi)
    fits += [indefinite, random_fit(5, rng, 0.0), *sweep_fits()]
    fits[-1] = replace(fits[-1], sigma_psi=np.zeros((31, 31)))
    fits += [random_fit(6, rng, scale) for scale in (0.5, 1.0)]  # up to 32 plans a pass
    specs = {5: specs, 6: all_specs(6)}
    seen = set()
    for fit in fits:
        for alpha in (0.05, 0.2):
            for spec in specs[fit.params.psi.p]:
                expected = bits(delta_ci_reference, fit, spec, alpha)
                assert bits(delta_ci, fit, spec, alpha) == expected, spec
                seen.add(expected[0] if isinstance(expected, tuple) else "DELTA")
    assert seen == {"DELTA", UndefinedSynergyError, TransformRangeError,
                    NegativeVarianceError}


def test_delta_ci_bits_do_not_depend_on_call_order_or_repetition():
    specs = all_specs(5)
    rng = np.random.default_rng(2019)
    fit = random_fit(5, rng, 1.0)
    order = rng.permutation(len(specs))
    for i in order:
        expected = bits(delta_ci_reference, fit, specs[i])
        assert bits(delta_ci, fit, specs[i]) == expected, specs[i]
        assert bits(delta_ci, fit, specs[i]) == expected, specs[i]


def test_part_covariance_is_formed_once_per_fit_and_plan(monkeypatch):
    specs = all_specs(4)
    plans = {id(spec_plan(4, spec)) for spec in specs}
    formed = []
    real = inference.fsum  # the predicted part's sum, once per formed entry
    monkeypatch.setattr(inference, "fsum", lambda terms: formed.append(1) or real(terms))
    for seed in (5, 6):
        fit = random_fit(4, np.random.default_rng(seed), 0.5)
        formed.clear()
        delta_ci(fit, specs[0])  # varies all four factors: orders 1..4
        assert len(formed) == len(fit._delta) == 4
        first = [bits(delta_ci, fit, spec) for spec in specs]
        y, entries = fit.or_covariance, dict(fit._delta)
        assert len(formed) == len(entries) == len(plans) < len(specs)
        assert [bits(delta_ci, fit, spec) for spec in specs] == first
        assert len(formed) == len(plans)  # the second pass formed nothing
        assert fit.or_covariance is y
        assert all(fit._delta[key] is entry for key, entry in entries.items())


def test_specs_compile_nothing_and_an_interval_forms_its_varying_set(monkeypatch):
    compiled = []
    real_terms = measures._spec_terms
    monkeypatch.setattr(measures, "_spec_terms",
                        lambda *key: compiled.append(key) or real_terms(*key))
    specs = all_specs(5)
    assert compiled == []  # making a spec compiles no plan
    formed = []
    real = inference.fsum  # the predicted part's sum, once per formed entry
    monkeypatch.setattr(inference, "fsum", lambda terms: formed.append(1) or real(terms))
    fit = random_fit(5, np.random.default_rng(31), 0.5)
    delta_ci(fit, MeasureSpec(p=5, kind="AP", order=1, fixed={0: 1, 3: 0}))
    # every held-level mask of factors 0 and 3, and every order of J = (1, 2, 4)
    assert sorted(fit._delta) == [(5, (1, 2, 4), mask, order)
                                  for mask in (0, 1, 8, 9) for order in (1, 2, 3)]
    assert len(formed) == 12
    for spec in specs:
        before, nj = len(fit._delta), len(spec.varying)
        assert bits(delta_ci, fit, spec) == bits(delta_ci_reference, fit, spec), spec
        assert len(fit._delta) - before in (0, (1 << (5 - nj)) * nj)
    assert len(formed) == len(fit._delta) == 405


def test_stacked_pass_makeup_does_not_change_bits(monkeypatch):
    # fit A forms each varying set's plans in one pass; fit B, the same
    # numbers in new objects, forms each plan alone, in random order
    specs = all_specs(5)
    rng = np.random.default_rng(29)
    a = random_fit(5, rng, 0.8)
    b = make_fit(StructuralParams(a.params.psi.psi.copy(), 5), a.sigma_psi.copy())
    alphas = (0.05, 0.2)
    expected = [[bits(delta_ci, a, spec, alpha) for alpha in alphas] for spec in specs]
    assert len(a._delta) == 405
    family, wanted = inference._family, []

    def one_plan(p, varying):
        keys, starts, joint, baseline, rows, masks, coef = family(p, varying)
        k = keys.index(wanted[-1])
        s, e = starts[k], starts[k + 1]
        return ((keys[k],), (0, e - s), joint[k : k + 1], baseline[k : k + 1],
                rows[s:e] - k, masks[s:e], coef[s:e])

    monkeypatch.setattr(inference, "_family", one_plan)
    for i in rng.permutation(len(specs)):
        spec = specs[i]
        wanted.append((5, spec.varying, spec.fixed_mask, spec.effective_order))
        formed = len(b._delta)
        assert [bits(delta_ci, b, spec, alpha) for alpha in alphas] == expected[i], spec
        assert len(b._delta) - formed in (0, 1)
    assert len(b._delta) == 405


def test_cached_part_covariance_never_answers_for_another_plan():
    # an unpickled fit keeps its cache: the entries of the varying set it
    # holds answer, and another set's plans miss and are formed then
    fit = random_fit(2, np.random.default_rng(3), 0.5)
    first = MeasureSpec(p=2, kind="EOR", order=1)
    other = MeasureSpec(p=2, kind="EOR", order=1, fixed={1: 1})
    delta_ci(fit, first)
    saved = pickle.dumps(fit)
    loaded = pickle.loads(saved)
    assert list(loaded._delta) == [(2, (0, 1), 0, 1), (2, (0, 1), 0, 2)]
    for spec in (first, other):
        assert bits(delta_ci, loaded, spec) == bits(delta_ci, fit, spec)
    assert bits(delta_ci, fit, other) != bits(delta_ci, fit, first)
    # entries are keyed by plan value, so the order in which a fit meets
    # the specs does not matter
    specs = all_specs(2)
    expected = [bits(delta_ci, fit, spec) for spec in specs]
    loaded = pickle.loads(saved)
    for i in reversed(range(len(specs))):
        assert bits(delta_ci, loaded, specs[i]) == expected[i], specs[i]
    assert loaded._delta == fit._delta


def test_cached_odds_ratio_covariance_is_read_only():
    fit = random_fit(3, np.random.default_rng(4), 0.5)
    delta_ci(fit, MeasureSpec(p=3, kind="AP", order=2))
    y = fit.or_covariance
    assert y.shape == (8, 8) and not y.flags.writeable
    with pytest.raises(ValueError):
        y[0, 0] = 1.0


def test_odds_ratio_covariance_is_formed_once_and_pickled_with_the_fit():
    fit = random_fit(3, np.random.default_rng(4), 0.5)
    y = fit.or_covariance
    assert fit.or_covariance is y
    jac = downset_rows(3, np.arange(8)) * fit.params.psi.or_table[:, None]
    assert y.tobytes() == jac.dot(fit.sigma_psi).dot(jac.T).tobytes()
    loaded = pickle.loads(pickle.dumps(fit))
    assert vars(loaded)["or_covariance"].tobytes() == y.tobytes()
    assert not loaded.or_covariance.flags.writeable


def test_fits_and_replicates_are_frozen_and_own_their_arrays():
    sigma = np.eye(3)
    fit = make_fit(RUN2, sigma)
    replicates = BootstrapReplicates(200, np.zeros((200, 3)), [None] * 200)
    data = CaseControlDataset(np.array([[0, 1], [1, 0]]), np.zeros((2, 0)),
                              np.array([0, 1]))
    for value in (RUN2, fit.params, fit, replicates, data):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
    sigma[0, 0] = 2.0  # the fit holds its own copy
    assert fit.sigma_psi[0, 0] == 1.0
    replicates.or_tables  # filled before pickling
    loaded = pickle.loads(pickle.dumps((fit, replicates, data)))
    for fit, replicates, data in ((fit, replicates, data), loaded):
        arrays = [fit.sigma_psi, fit.params.kappa, fit.params.psi.psi, replicates.psi,
                  replicates.or_tables, data.exposures, data.outcome]
        assert not any(array.flags.writeable for array in arrays)
        assert not data.covariates.flags.writeable


def test_replicate_errors_cannot_change():
    # a replicate's error is read by or_tables, which is cached: an error
    # changed after it was filled would count a refit its tables still use
    replicates = BootstrapReplicates(200, np.zeros((200, 3)), [None] * 200)
    assert replicates.or_tables.shape == (200, 4)
    with pytest.raises(TypeError):
        replicates.errors[0] = "SeparationError"
    report = bootstrap_ci(make_fit(RUN2, np.eye(3)), replicates,
                          MeasureSpec(p=2, kind="EOR", order=2))
    assert report.n_failed == 0 and replicates.errors == (None,) * 200


def test_a_replaced_fit_forms_its_own_intervals():
    rng = np.random.default_rng(8)
    fit, other = random_fit(5, rng, 0.5), random_fit(5, rng, 0.5)
    spec = MeasureSpec(p=5, kind="EOR", order=2, fixed={4: 1})
    before = delta_ci(fit, spec)
    scaled = replace(fit, sigma_psi=4.0 * fit.sigma_psi)
    rep = delta_ci(scaled, spec)
    assert rep.point == before.point
    assert rep.se_transformed == pytest.approx(2.0 * before.se_transformed, rel=1e-12)
    assert bits(delta_ci, scaled, spec) == bits(delta_ci_reference, scaled, spec)
    moved = replace(fit, params=other.params)
    assert bits(delta_ci, moved, spec) == bits(delta_ci, make_fit(
        other.params.psi, fit.sigma_psi), spec)
    assert bits(delta_ci, fit, spec) == bits(delta_ci_reference, fit, spec)


def test_delta_ci_or_interval_overflows_to_inf_without_a_warning():
    # the upper log-scale bound passes 709.78, where exp overflows
    fit = make_fit(RUN2, 1e5 * np.eye(3))
    rep = delta_ci(fit, MeasureSpec(p=2, kind="OR"))
    assert rep.ci_high == np.inf
    assert 0.0 <= rep.ci_low <= rep.point


def test_delta_ci_rejects_spec_with_other_factor_count():
    fit = make_fit(RUN2, np.eye(3) * 0.01)
    # the fit now holds cached plans; a p=3 spec that holds factor 3 at 0
    # has the varying factors, fixed levels and order of the p=2 EOR:2
    delta_ci(fit, MeasureSpec(p=2, kind="OR"))
    delta_ci(fit, MeasureSpec(p=2, kind="EOR", order=2))
    for spec in (MeasureSpec(p=3, kind="OR"),
                 MeasureSpec(p=3, kind="EOR", order=2, fixed={2: 0})):
        for call in (delta_ci, lambda fit, spec: measure_parts(fit.params.psi, spec),
                     lambda fit, spec: measure_gradient(fit.params.psi, spec)):
            with pytest.raises(ValueError, match="3 risk factors.*have 2"):
                call(fit, spec)


def test_delta_ci_alpha_validation():
    fit = make_fit(RUN2, np.eye(3) * 0.01)
    with pytest.raises(ValueError):
        delta_ci(fit, MeasureSpec(p=2, kind="AP", order=2), alpha=1.2)
    replicates = BootstrapReplicates(200, np.zeros((200, 3)), [None] * 200)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\)"):
            bootstrap_ci(fit, replicates, MeasureSpec(p=2, kind="AP", order=2), alpha)


# ----------------------------------------------------------------- bootstrap


def boot_dataset(seed=0, n0=400, n1=400):
    design = SimDesign(
        p=2,
        q=1,
        psi_true=RUN2,
        kappa_true=np.array([-0.6, 0.3]),
        exposure_probs=np.array([0.4, 0.35]),
        n0=n0,
        n1=n1,
        seed=seed,
        z_models=(ConfounderModel.normal(),),
    )
    return simulate(design)


def test_bootstrap_deterministic_given_seed():
    data = boot_dataset()
    fit = fit_logit(data)
    spec = MeasureSpec(p=2, kind="AP", order=2)
    rep1 = bootstrap_ci(fit, bootstrap_replicates(data, 200, seed=42), spec)
    rep2 = bootstrap_ci(fit, bootstrap_replicates(data, 200, seed=42), spec)
    assert (rep1.ci_low, rep1.ci_high, rep1.point) == (
        rep2.ci_low,
        rep2.ci_high,
        rep2.point,
    )
    rep3 = bootstrap_ci(fit, bootstrap_replicates(data, 200, seed=43), spec)
    assert (rep1.ci_low, rep1.ci_high) != (rep3.ci_low, rep3.ci_high)


def test_bootstrap_requires_enough_replicates():
    data = boot_dataset()
    with pytest.raises(ValueError):
        bootstrap_replicates(data, 100)


def test_bootstrap_report_fields():
    data = boot_dataset(seed=5)
    fit = fit_logit(data)
    spec = MeasureSpec(p=2, kind="OR")
    rep = bootstrap_ci(fit, bootstrap_replicates(data, 200, seed=1), spec)
    assert rep.method == "BOOTSTRAP_PERCENTILE"
    assert rep.n_boot == 200
    assert rep.n_failed == 0
    assert rep.ci_low <= rep.point <= rep.ci_high
    from interodds.measures import measure

    assert rep.point == measure(fit.params.psi, spec)


def test_bootstrap_rejects_spec_with_other_factor_count():
    data = boot_dataset(seed=5)
    replicates = bootstrap_replicates(data, 200, seed=1)
    with pytest.raises(ValueError, match="3 risk factors.*have 2"):
        bootstrap_ci(fit_logit(data), replicates, MeasureSpec(p=3, kind="OR"))


def degenerate_dataset():
    # one exposed record per class: resamples that drop either one give a
    # zero cell, the coefficient diverges, and the replicate fails
    n_half = 15
    y = np.repeat([0, 1], n_half).astype(np.int8)
    v = np.zeros(2 * n_half, dtype=np.int8)
    v[0] = 1
    v[n_half] = 1
    return CaseControlDataset(v.reshape(-1, 1), np.zeros((2 * n_half, 0)), y)


def test_bootstrap_too_many_failures():
    data = degenerate_dataset()
    fit = fit_logit(data)
    with pytest.raises(BootstrapFailureError):
        replicates = bootstrap_replicates(data, 200, seed=3)
        bootstrap_ci(fit, replicates, MeasureSpec(p=1, kind="EOR", order=1))


def test_bootstrap_too_many_failures_with_shared_replicates():
    data = degenerate_dataset()
    fit = fit_logit(data)
    replicates = bootstrap_replicates(data, 200, 3)
    # refitting stops at the first refit failure past the limit
    assert np.isnan(replicates.psi).all(1).sum() == 21
    failures = Counter(filter(None, replicates.errors))
    assert sum(failures.values()) == 21
    for kind in ("OR", "EOR"):
        spec = MeasureSpec(p=1, kind=kind, order=1)
        with pytest.raises(BootstrapFailureError, match="^21 of 200 ") as info:
            bootstrap_ci(fit, replicates, spec)
        assert info.value.failures == failures


def test_bootstrap_ci_refuses_when_no_refit_succeeded():
    fit = fit_logit(degenerate_dataset())
    replicates = BootstrapReplicates(
        200, np.full((21, 1), np.nan), ["SeparationError"] * 21
    )
    assert replicates.or_tables.shape == (0, 2)
    with pytest.raises(BootstrapFailureError, match="^21 of 200 ") as info:
        bootstrap_ci(fit, replicates, MeasureSpec(p=1, kind="OR"))
    assert info.value.failures == {"SeparationError": 21}


def resampled_rows(data, n_boot, seed):
    """Each replicate's stratified draw, written out independently."""
    cases = np.flatnonzero(data.outcome == 1)
    controls = np.flatnonzero(data.outcome == 0)
    for child in np.random.SeedSequence(seed).spawn(n_boot):
        rng = np.random.default_rng(child)
        yield np.concatenate(
            [
                cases[rng.integers(0, len(cases), size=len(cases))],
                controls[rng.integers(0, len(controls), size=len(controls))],
            ]
        )


def gathered_refit(data, rows):
    """The refit on the drawn records themselves, one record each."""
    return fit_design(
        data.exposure_masks[rows], data.covariates[rows], data.outcome[rows],
        data.p,
    )


def gathered_errors(data, n_boot, seed):
    """Each replicate's refit error class on its drawn records, or None."""
    errors = []
    for rows in resampled_rows(data, n_boot, seed):
        try:
            gathered_refit(data, rows)
            errors.append(None)
        except InterOddsError as exc:
            errors.append(type(exc).__name__)
    return errors


def test_bootstrap_records_each_failed_refit_by_error_class():
    data = degenerate_dataset()
    replicates = bootstrap_replicates(data, 200, 3)
    expected = gathered_errors(data, 200, 3)[: len(replicates.errors)]
    assert list(replicates.errors) == expected
    assert [e is None for e in expected] == np.isfinite(replicates.psi).all(1).tolist()
    # a resample without either exposed record has a constant column; one
    # without the exposed case or the exposed control separates
    assert set(expected) == {None, "SingularDesignError", "SeparationError"}


@pytest.mark.parametrize("make_data, seed, expected", [
    # one batch of 200 refits, all converged
    (lambda: discrete_dataset(seed=21), 9,
     "6d9f6322010ec7370186967948b4ad7573ceaa2f1bc8cb12cff671c36a18da16"),
    # refits ending in SingularDesignError and SeparationError, up to the
    # failure that crosses the limit
    (degenerate_dataset, 3,
     "e28672b7ab879c951bfedffe8244c4f17ea1bc23fcc0291ba48758fc91e0e03b"),
], ids=["converged", "failing"])
def test_refits_are_pinned_bit_for_bit(make_data, seed, expected):
    # tied to numpy's vector exp and LAPACK, which may round differently
    # on another build
    replicates = bootstrap_replicates(make_data(), 200, seed)
    digest = hashlib.sha256(np.asarray(replicates.psi, dtype="<f8").tobytes())
    digest.update(repr(list(replicates.errors)).encode())
    assert digest.hexdigest() == expected


def discrete_dataset(seed=0, n0=400, n1=400, p=2):
    design = SimDesign(
        p=p,
        q=1,
        psi_true=RUN2 if p == 2 else StructuralParams(np.linspace(0.6, -0.1, 7), 3),
        kappa_true=np.array([-0.6, 0.3]),
        exposure_probs=np.array([0.4, 0.35, 0.3][:p]),
        n0=n0,
        n1=n1,
        seed=seed,
        z_models=(ConfounderModel.discrete([0.0, 1.0], [0.5, 0.5]),),
    )
    return simulate(design)


@pytest.mark.parametrize(
    "make_data, max_rows",
    [(discrete_dataset, 16), (boot_dataset, 800)],
    ids=["discrete_confounder", "normal_confounder"],
)
def test_replicate_refit_on_cells_matches_gathered_refit(
    make_data, max_rows, monkeypatch
):
    data = make_data(seed=21)
    batches = []  # the (replicates, cells) weight shape of each batch
    cells_fitted = []  # cells with a positive weight, per replicate
    real = inference.fit_batch

    def recording_fit(masks, covariates, outcome, p, weights, *args, **kwargs):
        batches.append(weights.shape)
        cells_fitted.extend((weights > 0).sum(1).tolist())
        return real(masks, covariates, outcome, p, weights, *args, **kwargs)

    monkeypatch.setattr(inference, "fit_batch", recording_fit)
    replicates = bootstrap_replicates(data, 200, seed=9)
    assert replicates.psi.shape == (200, 3) and np.isfinite(replicates.psi).all()
    # every replicate is fitted exactly once
    assert sum(rows for rows, _ in batches) == len(cells_fitted) == 200
    # 2 x 2 exposure cells x 2 confounder levels x 2 outcomes at most; a
    # normal confounder leaves one cell per distinct drawn record
    assert max(cells for _, cells in batches) <= max_rows
    if make_data is boot_dataset:
        assert min(cells_fitted) > 16
    for b, rows in zip(range(5), resampled_rows(data, 200, seed=9)):
        expected = gathered_refit(data, rows).params.psi.psi
        assert np.max(np.abs(replicates.psi[b] - expected)) <= 1e-9


def replicate_values(replicates):
    return [
        None if error else row.tolist()
        for row, error in zip(replicates.psi, replicates.errors, strict=True)
    ]


def test_bootstrap_replicates_must_match_n_boot_and_seed():
    data = discrete_dataset(seed=4)
    replicates = bootstrap_replicates(data, 300, seed=6)
    assert replicates.n_boot == len(replicates.psi) == 300
    # the seed alone fixes the draws
    again = bootstrap_replicates(data, 300, seed=6)
    assert replicate_values(again) == replicate_values(replicates)
    other = bootstrap_replicates(data, 300, seed=7)
    assert replicate_values(other) != replicate_values(replicates)
    rep = bootstrap_ci(fit_logit(data), replicates, MeasureSpec(p=2, kind="OR"))
    assert rep.n_boot == 300
    with pytest.raises(ValueError, match="200"):
        bootstrap_replicates(data, 199, seed=6)


def cell_count_dataset(case_counts, control_counts):
    """p = 2, q = 0 records with the given counts in cells 00, 10, 01, 11."""
    patterns = [(0, 0), (1, 0), (0, 1), (1, 1)]
    v, y = [], []
    for outcome, counts in ((1, case_counts), (0, control_counts)):
        for pattern, count in zip(patterns, counts):
            v += [pattern] * count
            y += [outcome] * count
    return CaseControlDataset(np.array(v), np.zeros((len(v), 0)), np.array(y))


def test_bootstrap_failures_counted_per_spec():
    # three controls in cell 11: resamples without any of them separate;
    # psi_1 + psi_2 about two standard errors above 0: resamples below it
    # leave the synergy index undefined
    data = cell_count_dataset((60, 40, 40, 12), (80, 34, 34, 3))
    specs = [MeasureSpec(p=2, kind=k, order=2) for k in ("EOR", "AP", "SI")]
    si = specs[2]
    refit_failed = si_undefined = 0
    for rows in resampled_rows(data, 200, seed=2):
        try:
            psi = gathered_refit(data, rows).params.psi
        except InterOddsError:
            refit_failed += 1
            continue
        try:
            measure(psi, si)
        except InterOddsError:
            si_undefined += 1
    assert refit_failed > 0 and si_undefined > 0
    assert refit_failed + si_undefined <= 20

    replicates = bootstrap_replicates(data, 200, seed=2)
    fit = fit_logit(data)
    reports = {spec.kind: bootstrap_ci(fit, replicates, spec) for spec in specs}
    assert {kind: rep.n_failed for kind, rep in reports.items()} == {
        "EOR": refit_failed,
        "AP": refit_failed,
        "SI": refit_failed + si_undefined,
    }
    refit_errors = gathered_errors(data, 200, seed=2)
    assert list(replicates.errors) == refit_errors
    refit_classes = Counter(filter(None, refit_errors))
    assert reports["EOR"].failures == reports["AP"].failures == refit_classes
    assert reports["SI"].failures == refit_classes + Counter(
        UndefinedSynergyError=si_undefined
    )


def every_spec(p):
    for fixed in iter_splits(p):
        nj = p - len(fixed)
        yield MeasureSpec(p=p, kind="OR", fixed=fixed)
        for kind, first in (("EOR", 1), ("AP", 1), ("SI", 2)):
            for order in range(first, nj + 1):
                yield MeasureSpec(p=p, kind=kind, order=order, fixed=fixed)


@pytest.mark.parametrize(
    "make_data, refused",
    [
        (lambda: discrete_dataset(seed=4), 0),
        # longer predictions; two synergy indices are undefined too often
        (lambda: discrete_dataset(seed=4, p=3), 2),
        # refits that separate, and synergy indices left undefined
        (lambda: cell_count_dataset((60, 40, 40, 12), (80, 34, 34, 3)), 0),
        # the synergy index crosses the limit before the last failed refit
        (lambda: cell_count_dataset((60, 36, 36, 12), (80, 34, 34, 3)), 1),
        # refitting stops at the limit, so every measure is refused
        (degenerate_dataset, 3),
    ],
    ids=["discrete_confounder", "three_factors", "failing_refits", "si_cutoff",
         "degenerate"],
)
def test_bootstrap_ci_matches_the_per_replicate_loop(make_data, refused):
    data = make_data()
    fit = fit_logit(data)
    replicates = bootstrap_replicates(data, 200, seed=2)
    kept = [psi for psi, error in zip(replicates.psi, replicates.errors) if not error]
    assert len(replicates.or_tables) == len(kept)
    for row, psi in zip(replicates.or_tables, kept):
        assert np.array_equal(row, StructuralParams(psi, data.p).or_table)
    raised = 0
    for spec in every_spec(data.p):
        try:
            expected = bootstrap_ci_per_replicate(fit, replicates, spec)
        except BootstrapFailureError as exc:
            raised += 1
            with pytest.raises(BootstrapFailureError) as info:
                bootstrap_ci(fit, replicates, spec)
            assert str(info.value) == str(exc)
            assert list(info.value.failures.items()) == list(exc.failures.items())
            continue
        report = bootstrap_ci(fit, replicates, spec)
        assert report == expected, spec
        assert list(report.failures.items()) == list(expected.failures.items())
    assert raised == refused


def same_replicates(a, b):
    kept = [error is None for error in a.errors]
    return (
        a.errors == b.errors
        and a.psi.shape == b.psi.shape
        and np.array_equal(a.psi[kept], b.psi[kept])
    )


@pytest.mark.parametrize(
    "make_data, batches",
    [
        (lambda: discrete_dataset(seed=4), 1),
        (lambda: cell_count_dataset((60, 40, 40, 12), (80, 34, 34, 3)), 1),
        # 800 cells: batches of 10 replicates, each missing a third of them
        (lambda: boot_dataset(seed=4), 20),
    ],
    ids=["discrete_confounder", "failing_refits", "normal_confounder"],
)
def test_bootstrap_replicates_do_not_depend_on_batching(
    make_data, batches, monkeypatch
):
    data = make_data()
    batch_sizes = []
    real = inference.fit_batch

    def recording_fit(*args, **kwargs):
        fits = real(*args, **kwargs)
        batch_sizes.append(len(fits.errors))
        return fits

    monkeypatch.setattr(inference, "fit_batch", recording_fit)
    batched = bootstrap_replicates(data, 200, seed=2)
    assert batch_sizes == [200 // batches] * batches
    monkeypatch.setattr(inference, "BUDGET", 1)  # one replicate per batch
    alone = bootstrap_replicates(data, 200, seed=2)
    assert batch_sizes[batches:] == [1] * len(alone.psi)
    assert same_replicates(batched, alone)
    if data.q == 0:  # the cell-count data has failing refits
        assert any(batched.errors)


def test_bootstrap_refits_read_the_drawn_covariates_in_place(monkeypatch):
    data = simulate(SimDesign(
        p=2, q=2, psi_true=RUN2, kappa_true=np.array([-0.6, 0.3, -0.2]),
        exposure_probs=np.array([0.4, 0.35]), n0=300, n1=300, seed=5,
        z_models=(ConfounderModel.discrete([0.0, 1.0], [0.5, 0.5]),
                  ConfounderModel.normal()),
    ))
    real = inference.fit_batch
    copies = []

    def checking_fit(masks, covariates, *args):
        # fit_batch reads the covariates as rows, through their transpose
        rows = np.ascontiguousarray(covariates.T)
        copies.append(not np.shares_memory(rows, covariates))
        return real(masks, covariates, *args)

    def row_major_fit(masks, covariates, *args):
        return real(masks, np.ascontiguousarray(covariates), *args)

    monkeypatch.setattr(inference, "fit_batch", checking_fit)
    in_place = bootstrap_replicates(data, 200, seed=2)
    assert len(copies) > 1 and not any(copies)
    monkeypatch.setattr(inference, "fit_batch", row_major_fit)
    assert same_replicates(in_place, bootstrap_replicates(data, 200, seed=2))


def test_first_replicates_do_not_depend_on_n_boot():
    data = discrete_dataset(seed=4)
    more = bootstrap_replicates(data, 400, seed=6)
    fewer = bootstrap_replicates(data, 200, seed=6)
    assert len(more.psi) == 400
    first = BootstrapReplicates(200, more.psi[:200], more.errors[:200])
    assert same_replicates(first, fewer)
