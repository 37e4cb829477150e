import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interodds import measures
from interodds.errors import OrderRangeError, UndefinedSynergyError
from interodds.measures import (
    MeasureSpec,
    StructuralParams,
    excess_or,
    measure,
    measure_parts,
    odds_ratio,
    or_increment,
    predicted_or,
    predicted_or_increments,
)
from interodds.patterns import MAX_FACTORS, PatternIndex, subpatterns
from interodds.selfcheck import (
    expansion_identity_error,
    iter_splits,
    prediction_equivalence_error,
    random_params,
    rel_err,
)

from oracles import (
    downset_indicator,
    excess_or_explicit,
    excess_oracle_error,
    increment_sum_terms_loop,
    increment_terms_loop,
    prediction_terms_loop,
    spec_terms_loop,
)

# the worked two-factor example used throughout: marginal odds ratios 2 and
# 3, interaction odds ratio 1.5
RUN2 = StructuralParams(np.log([2.0, 3.0, 1.5]), 2)


def close(x, y, tol=1e-12):
    return rel_err(x, y) <= tol


# ---------------------------------------------------------------- odds ratio


def test_odds_ratio_zero_params_is_one():
    psi = StructuralParams.zeros(3)
    for v in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        assert odds_ratio(psi, v) == 1.0


def test_odds_ratio_running_example():
    assert close(odds_ratio(RUN2, (1, 1)), 9.0)
    assert close(odds_ratio(RUN2, (1, 0)), 2.0)
    assert close(odds_ratio(RUN2, (0, 1)), 3.0)
    assert odds_ratio(RUN2, (0, 0)) == 1.0


def test_odds_ratio_matches_direct_subset_sum():
    rng = np.random.default_rng(5)
    for p in (1, 2, 3, 4):
        params = random_params(p, rng)
        for m in range(1 << p):
            v = tuple((m >> j) & 1 for j in range(p))
            direct = float(np.exp(params.psi[downset_indicator(v) == 1].sum()))
            assert close(odds_ratio(params, v), direct)


def test_odds_ratio_rejects_wrong_length():
    with pytest.raises(ValueError):
        odds_ratio(RUN2, (1, 0, 1))


def test_measure_rejects_spec_with_other_factor_count():
    with pytest.raises(ValueError, match="3 risk factors.*have 2"):
        measure(RUN2, MeasureSpec(p=3, kind="OR"))


def test_structural_params_validation():
    with pytest.raises(ValueError):
        StructuralParams(np.zeros(2), 2)  # needs 3 entries
    with pytest.raises(ValueError):
        StructuralParams(np.array([np.inf, 0.0, 0.0]), 2)


@pytest.mark.parametrize("p", [0, -1, MAX_FACTORS + 1])
def test_factor_count_is_refused_before_anything_is_sized(p):
    makers = [PatternIndex, lambda p: StructuralParams(np.zeros(1), p),
              lambda p: MeasureSpec(p=p, kind="OR")]
    if p > 0:  # a pattern of p factors
        makers.append(lambda p: subpatterns((0,) * p))
    tracemalloc.start()
    try:
        for make in makers:
            with pytest.raises(ValueError, match=re.escape(
                    f"factor count must be in 1..{MAX_FACTORS}, got {p}")):
                make(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 21-factor table alone is 16 MB


# ----------------------------------------------------------------- increments


def test_increment_order_zero_is_baseline():
    assert or_increment(RUN2, (0, 0), {}) == 1.0
    psi3 = StructuralParams(np.log([2, 3, 1.5, 1, 1, 1, 1]), 3)
    assert close(or_increment(psi3, (0, 0), {2: 1}), odds_ratio(psi3, (0, 0, 1)))


def test_increment_running_example():
    assert close(or_increment(RUN2, (1, 1), {}), 5.0)
    assert or_increment(RUN2, (1, 1)) == or_increment(RUN2, (1, 1), {})


def test_increment_zero_params_cancels():
    psi = StructuralParams.zeros(2)
    assert or_increment(psi, (1, 1), {}) == 0.0


def test_single_factor_increment_is_exact_difference():
    rng = np.random.default_rng(17)
    for p in (2, 3, 4):
        params = random_params(p, rng)
        for fixed in iter_splits(p):
            varying = [j for j in range(p) if j not in fixed]
            if len(varying) != 1:
                continue
            j = varying[0]
            on = [fixed.get(k, 0) for k in range(p)]
            on[j] = 1
            off = list(on)
            off[j] = 0
            got = or_increment(params, (1,), fixed)
            assert got == odds_ratio(params, on) - odds_ratio(params, off)


# ----------------------------------------------------------------- prediction


def test_prediction_running_example():
    assert close(predicted_or(RUN2, (1, 1), {}, 1), 4.0)
    assert close(predicted_or(RUN2, (1, 1), {}, 2), 9.0)


def test_prediction_at_full_order_is_odds_ratio_exactly():
    rng = np.random.default_rng(3)
    for p in (1, 2, 3, 4):
        params = random_params(p, rng)
        v = (1,) * p
        assert predicted_or(params, v, {}, p) == odds_ratio(params, v)


def test_prediction_at_order_zero_is_baseline():
    psi3 = StructuralParams(np.log([2, 3, 1.5, 1.2, 0.8, 1.1, 1.05]), 3)
    assert predicted_or(psi3, (1, 1), {0: 1}, 0) == odds_ratio(psi3, (1, 0, 0))


def test_prediction_rejects_bad_order():
    with pytest.raises(OrderRangeError):
        predicted_or(RUN2, (1, 1), {}, 3)
    with pytest.raises(OrderRangeError):
        predicted_or(RUN2, (1, 1), {}, -1)
    with pytest.raises(OrderRangeError):
        predicted_or_increments(RUN2, (1, 1), {}, 3)


def test_prediction_paths_agree_small_grid():
    assert prediction_equivalence_error(p_values=(1, 2, 3, 4), draws=10) <= 1e-12


def test_expansion_identity_small_grid():
    assert expansion_identity_error(p_values=(1, 2, 3, 4), draws=10) <= 1e-12


# --------------------------------------------------------------------- excess


def test_excess_running_example():
    assert close(excess_or(RUN2, {}, 2), 5.0)
    assert close(excess_or(RUN2, {}, 1), 8.0)


def test_excess_is_the_eor_spec_parts_difference():
    params = random_params(3, np.random.default_rng(11))
    for fixed in iter_splits(3):
        nj = 3 - len(fixed)
        for order in range(1, nj + 1):
            a, b, _ = measure_parts(
                params, MeasureSpec(p=3, kind="EOR", order=order, fixed=fixed)
            )
            got = excess_or(params, fixed, order)
            assert type(got) is float and got.hex() == (a - b).hex()
        for order in (0, nj + 1):
            with pytest.raises(
                OrderRangeError, match=rf"^EOR requires order in 1\.\.{nj}, got {order}$"
            ):
                excess_or(params, fixed, order)
    assert excess_or(params, None, 2) == excess_or(params, {}, 2)


def test_excess_multiplicative_margins_still_positive():
    psi = StructuralParams(np.log([2.0, 3.0, 1.0]), 2)
    assert close(excess_or(psi, {}, 2), 2.0)


def test_excess_matches_hand_formulas():
    assert excess_oracle_error(p_values=(1, 2, 3, 4), draws=10) <= 1e-12


def test_excess_explicit_three_factor_order_two_doubles_baseline():
    rng = np.random.default_rng(9)
    params = random_params(3, rng)
    got = excess_or_explicit(params, {}, 2)
    expected = (
        odds_ratio(params, (1, 1, 1))
        - odds_ratio(params, (1, 0, 0))
        - odds_ratio(params, (0, 1, 0))
        - odds_ratio(params, (0, 0, 1))
        + 2.0 * odds_ratio(params, (0, 0, 0))
    )
    assert close(got, expected)


def test_excess_explicit_rejects_many_factors():
    params = StructuralParams.zeros(4)
    with pytest.raises(ValueError):
        excess_or_explicit(params, {}, 1)


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def test_compiled_plans_match_the_loop_oracle_bit_for_bit():
    for p in range(1, 7):
        for fixed in iter_splits(p):
            spec = MeasureSpec(p=p, kind="EOR", order=1, fixed=fixed)
            varying, fixed_mask = spec.varying, spec.fixed_mask
            for vj in range(1 << len(varying)):
                d = vj.bit_count()
                on = tuple(j for i, j in enumerate(varying) if vj >> i & 1)
                got = measures._increment_terms(on, fixed_mask)
                for g, w in zip(got, increment_terms_loop(varying, vj, fixed_mask),
                                strict=True):
                    same_bytes(g, w)
                for order in range(d):
                    got = measures._prediction_terms(on, fixed_mask, order)
                    want = prediction_terms_loop(varying, vj, fixed_mask, order)
                    for g, w in zip(got, want, strict=True):
                        same_bytes(g, w)
            for order in range(1, len(varying) + 1):
                spec = MeasureSpec(p=p, kind="EOR", order=order, fixed=fixed)
                joint, baseline, *terms = measures.spec_plan(p, spec)
                want = spec_terms_loop(varying, fixed_mask, order)
                assert (joint, baseline) == want[:2]
                for g, w in zip(terms, want[2:], strict=True):
                    same_bytes(g, w)


def test_increment_sum_is_the_sliced_reference_bit_for_bit():
    # the sum of increments, formed from the loop oracle's concatenated
    # terms and slices: an fsum of each increment's own fsum
    rng = np.random.default_rng(20)
    for p in range(1, 6):
        for params in [random_params(p, rng) for _ in range(3)]:
            for fixed in iter_splits(p):
                spec = MeasureSpec(p=p, kind="EOR", order=1, fixed=fixed)
                nj = len(spec.varying)
                for vj in range(1 << nj):
                    v_bits = tuple((vj >> i) & 1 for i in range(nj))
                    for order in range(vj.bit_count() + 1):
                        masks, signs, slices = increment_sum_terms_loop(
                            spec.varying, vj, spec.fixed_mask, order)
                        terms = (signs * params.or_table[masks]).tolist()
                        want = fsum(fsum(terms[s]) for s in slices)
                        got = predicted_or_increments(params, v_bits, fixed, order)
                        assert got == want


@pytest.mark.parametrize("func", [or_increment, predicted_or, predicted_or_increments],
                         ids=lambda func: func.__name__)
def test_pattern_arguments_raise_the_same_errors(func):
    params = StructuralParams.zeros(3)

    def call(v_j, fixed, order=0):
        if func is or_increment:
            return func(params, v_j, fixed)
        return func(params, v_j, fixed, order)

    with pytest.raises(ValueError, match=r"^fixed factor 5 outside 0\.\.2$"):
        call((1, 1, 0), {5: 0})
    with pytest.raises(ValueError, match=r"^fixed level for factor 2 must be 0 or 1$"):
        call((1, 1), {2: 3})
    with pytest.raises(ValueError,
                       match=r"^expected 2 levels for the varying factors, got 3$"):
        call((1, 1, 0), {2: 0})
    with pytest.raises(ValueError, match=r"^levels must be 0 or 1, got \(1, 2\)$"):
        call((1, 2), {2: 0})
    if func is not or_increment:
        with pytest.raises(OrderRangeError,
                           match=r"^prediction order must be in 0\.\.1, got 2$"):
            call((1, 0), {2: 0}, 2)
        with pytest.raises(OrderRangeError,
                           match=r"^prediction order must be in 0\.\.2, got -1$"):
            call((1, 1), {2: 0}, -1)


# -------------------------------------------------------------------- measure


def test_measure_parts_running_example():
    spec = MeasureSpec(p=2, kind="EOR", order=2)
    parts = measure_parts(RUN2, spec)
    assert close(parts.joint, 9.0)
    assert close(parts.predicted, 4.0)
    assert parts.baseline == 1.0


def test_measure_parts_zero_params():
    spec = MeasureSpec(p=2, kind="AP", order=2)
    parts = measure_parts(StructuralParams.zeros(2), spec)
    assert (parts.joint, parts.predicted, parts.baseline) == (1.0, 1.0, 1.0)


def test_measure_parts_single_factor():
    psi = StructuralParams(np.array([0.7]), 1)
    parts = measure_parts(psi, MeasureSpec(p=1, kind="AP", order=1))
    assert close(parts.joint, float(np.exp(0.7)))
    assert parts.predicted == 1.0
    assert parts.baseline == 1.0


def test_measure_values_running_example():
    assert close(measure(RUN2, MeasureSpec(p=2, kind="EOR", order=2)), 5.0)
    assert close(measure(RUN2, MeasureSpec(p=2, kind="AP", order=2)), 5.0 / 9.0)
    assert close(measure(RUN2, MeasureSpec(p=2, kind="SI", order=2)), 8.0 / 3.0)
    assert close(measure(RUN2, MeasureSpec(p=2, kind="OR")), 9.0)


def test_measure_ap_antagonism_stays_above_minus_one():
    psi = StructuralParams(np.log([2.0, 3.0, 0.25]), 2)
    got = measure(psi, MeasureSpec(p=2, kind="AP", order=2))
    assert close(got, -0.625)


def test_measure_zero_params_no_effect():
    psi = StructuralParams.zeros(2)
    assert measure(psi, MeasureSpec(p=2, kind="EOR", order=2)) == 0.0
    assert measure(psi, MeasureSpec(p=2, kind="AP", order=1)) == 0.0


def test_si_undefined_when_joint_below_baseline():
    psi = StructuralParams(np.log([0.5, 0.6, 1.01]), 2)
    with pytest.raises(UndefinedSynergyError):
        measure(psi, MeasureSpec(p=2, kind="SI", order=2))


def test_si_undefined_when_only_one_side_positive():
    # joint effect positive but the additive prediction dips to the baseline
    psi = StructuralParams(np.log([0.5, 0.5, 10.0]), 2)
    parts = measure_parts(psi, MeasureSpec(p=2, kind="SI", order=2))
    assert parts.joint > parts.baseline
    assert parts.predicted <= parts.baseline
    with pytest.raises(UndefinedSynergyError):
        measure(psi, MeasureSpec(p=2, kind="SI", order=2))


def test_spec_order_bounds():
    with pytest.raises(OrderRangeError):
        MeasureSpec(p=2, kind="SI", order=1)
    with pytest.raises(OrderRangeError):
        MeasureSpec(p=3, kind="AP", order=4)
    with pytest.raises(OrderRangeError):
        MeasureSpec(p=2, kind="EOR", order=0)
    with pytest.raises(OrderRangeError):
        MeasureSpec(p=2, kind="EOR")  # order required
    MeasureSpec(p=2, kind="OR")  # order optional for the joint odds ratio


@pytest.mark.parametrize("kind, order, fixed, message", [
    ("OR", 0, {}, "order 0 outside 1..3 for kind OR"),
    ("OR", 4, {}, "order 4 outside 1..3 for kind OR"),
    ("OR", 3, {1: 0}, "order 3 outside 1..2 for kind OR"),
    ("EOR", None, {}, "EOR requires order in 1..3, got None"),
    ("EOR", 0, {}, "EOR requires order in 1..3, got 0"),
    ("EOR", 4, {}, "EOR requires order in 1..3, got 4"),
    ("AP", None, {}, "AP requires order in 1..3, got None"),
    ("AP", 0, {}, "AP requires order in 1..3, got 0"),
    ("AP", 3, {0: 1}, "AP requires order in 1..2, got 3"),
    ("SI", None, {}, "SI requires order in 2..3, got None"),
    ("SI", 1, {}, "SI requires order in 2..3, got 1"),
    ("SI", 4, {}, "SI requires order in 2..3, got 4"),
])
def test_spec_order_messages(kind, order, fixed, message):
    with pytest.raises(OrderRangeError, match=f"^{re.escape(message)}$"):
        MeasureSpec(p=3, kind=kind, order=order, fixed=fixed)
    nj = 3 - len(fixed)
    for good in ([None, 1, nj] if kind == "OR" else [2 if kind == "SI" else 1, nj]):
        assert MeasureSpec(p=3, kind=kind, order=good, fixed=fixed).order == good


def test_spec_fixed_validation():
    with pytest.raises(ValueError):
        MeasureSpec(p=2, kind="AP", order=1, fixed={0: 1, 1: 0})  # nothing varies
    with pytest.raises(ValueError):
        MeasureSpec(p=2, kind="AP", order=1, fixed={3: 1})
    with pytest.raises(ValueError):
        MeasureSpec(p=2, kind="AP", order=1, fixed={0: 2})
    spec = MeasureSpec(p=3, kind="AP", order=2, fixed={1: 0})
    assert spec.varying == (0, 2)


def test_spec_is_frozen_and_validated_once():
    fixed = {1: 0, 3: 1}
    spec = MeasureSpec(p=4, kind="ap", order=2, fixed=fixed)
    for name, value in (
        ("p", 3), ("kind", "OR"), ("order", 1), ("fixed", {}),
        ("varying", (0,)), ("fixed_mask", 0),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(spec, name, value)
    fixed[0] = 1  # the spec holds its own copy
    assert spec.fixed == {1: 0, 3: 1}
    assert (spec.kind, spec.varying, spec.fixed_mask) == ("AP", (0, 2), 0b1000)
    assert MeasureSpec(p=3, kind="OR").varying == (0, 1, 2)
    assert MeasureSpec(p=3, kind="SI", order=2, fixed={2: 1}).varying == (0, 1)


def test_params_are_frozen_and_a_replaced_copy_has_fresh_tables():
    params = StructuralParams.zeros(2)
    spec = MeasureSpec(p=2, kind="OR")
    assert measure(params, spec) == 1.0  # fills the cached odds-ratio table
    with pytest.raises(FrozenInstanceError):
        params.psi = np.log([2.0, 3.0, 1.0])
    with pytest.raises(ValueError):
        params.psi[0] = 1.0
    assert measure(params, spec) == 1.0
    changed = replace(params, psi=np.log([2.0, 3.0, 1.0]))
    assert measure(changed, spec) == pytest.approx(6.0, rel=1e-15)


def test_equal_specs_hash_equal():
    spec = MeasureSpec(p=3, kind="EOR", order=2, fixed={0: 1})
    same = MeasureSpec(p=3, kind="eor", order=2, fixed={0: 1})
    other_level = MeasureSpec(p=3, kind="EOR", order=2, fixed={0: 0})
    assert spec == same and hash(spec) == hash(same)
    assert spec != other_level
    held_two = [MeasureSpec(p=4, kind="AP", order=1, fixed=f)
                for f in ({1: 0, 3: 1}, {3: 1, 1: 0})]
    assert held_two[0] == held_two[1] and hash(held_two[0]) == hash(held_two[1])
    assert len({spec, same, other_level, *held_two}) == 3
    assert {spec: "x"}[same] == "x"


def test_kind_aliases():
    assert MeasureSpec(p=2, kind="or_joint").kind == "OR"
    with pytest.raises(ValueError):
        MeasureSpec(p=2, kind="RERI", order=1)


psi_st = st.integers(0, 2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), psi_st)
def test_ap_bound_characterization(p, seed):
    """AP respects [-1, 1] exactly when the truncated prediction is >= 0.

    The normalized denominator max(joint, predicted) caps |AP| at 1 as
    long as both arguments are nonnegative; a negative prediction (deep
    antagonism) is the one and only way out of the interval.
    """
    rng = np.random.default_rng(seed)
    params = random_params(p, rng, scale=1.5)
    for fixed in iter_splits(p):
        nj = p - len(fixed)
        for order in range(1, nj + 1):
            spec = MeasureSpec(p=p, kind="AP", order=order, fixed=fixed)
            ap = measure(params, spec)
            predicted = measure_parts(params, spec).predicted
            if predicted >= 0.0:
                assert -1.0 <= ap <= 1.0
            else:
                assert ap > 1.0
            exc = excess_or(params, fixed, order)
            assert np.sign(ap) == np.sign(exc) or abs(exc) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), psi_st)
def test_si_one_iff_no_excess_and_sign_sharing(p, seed):
    rng = np.random.default_rng(seed)
    params = random_params(p, rng, scale=1.0)
    for fixed in iter_splits(p):
        nj = p - len(fixed)
        for order in range(2, nj + 1):
            spec = MeasureSpec(p=p, kind="SI", order=order, fixed=fixed)
            try:
                si = measure(params, spec)
            except UndefinedSynergyError:
                continue
            exc = excess_or(params, fixed, order)
            eor = measure(params, MeasureSpec(p=p, kind="EOR", order=order, fixed=fixed))
            ap = measure(params, MeasureSpec(p=p, kind="AP", order=order, fixed=fixed))
            for other in (exc, eor, ap):
                assert np.sign(si - 1.0) == np.sign(other) or abs(other) < 1e-12


def test_ap_zero_iff_excess_zero():
    psi = StructuralParams.zeros(3)
    for order in (1, 2, 3):
        spec = MeasureSpec(p=3, kind="AP", order=order)
        assert measure(psi, spec) == 0.0
        assert excess_or(psi, {}, order) == 0.0
