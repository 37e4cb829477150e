import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interodds.patterns import (
    MAX_FACTORS,
    alternating_binomial_sum,
    as_bits,
    as_mask,
    pattern_index,
    subpatterns,
)

from oracles import downset_indicator


def pattern_tuples(p):
    """All nonzero patterns as tuples, in coordinate order."""
    return [as_bits(int(m), p) for m in pattern_index(p).masks]


def alternating_sign(v, w) -> int:
    """Inclusion-exclusion sign ``(-1)^(|v| - |w|)`` for ``w <= v``."""
    v_mask, w_mask = as_mask(v), as_mask(w)
    if len(tuple(v)) != len(tuple(w)):
        raise ValueError("patterns must have equal length")
    if w_mask & ~v_mask:
        raise ValueError(f"w={tuple(w)} is not a subpattern of v={tuple(v)}")
    return -1 if (v_mask.bit_count() - w_mask.bit_count()) % 2 else 1


patterns_st = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple)


def brute_force_below(v):
    """Oracle: enumerate all length-p patterns, keep the componentwise-<= ones."""
    p = len(v)
    out = []
    for m in range(1 << p):
        w = tuple((m >> j) & 1 for j in range(p))
        if all(wj <= vj for wj, vj in zip(w, v)):
            out.append(w)
    return out


def test_subpatterns_single_factor():
    assert subpatterns((1, 0)) == [(0, 0), (1, 0)]


def test_subpatterns_full_square():
    assert subpatterns((1, 1)) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_subpatterns_skips_held_zero_position():
    got = subpatterns((1, 0, 1))
    assert sorted(got) == sorted(brute_force_below((1, 0, 1)))
    assert len(got) == 4
    assert all(w[1] == 0 for w in got)


@given(patterns_st)
def test_subpatterns_count_and_membership(v):
    got = subpatterns(v)
    assert len(got) == 2 ** sum(v)
    assert got[0] == (0,) * len(v)
    assert v in got
    assert sorted(got) == sorted(brute_force_below(v))


def test_subpatterns_canonical_order():
    got = subpatterns((1, 1, 1))
    cards = [sum(w) for w in got]
    assert cards == sorted(cards)
    # within a cardinality level, one-positions sort lexicographically
    assert got[1:4] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert got[4:7] == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_alternating_sign_values():
    assert alternating_sign((1, 1), (1, 1)) == 1
    assert alternating_sign((1, 1), (1, 0)) == -1
    assert alternating_sign((1, 1, 1), (0, 0, 0)) == -1
    assert alternating_sign((1, 1, 1), (1, 0, 0)) == 1


def test_alternating_sign_rejects_non_subpattern():
    with pytest.raises(ValueError):
        alternating_sign((1, 0), (0, 1))
    with pytest.raises(ValueError):
        alternating_sign((1, 0), (1, 0, 0))


def test_downset_indicator_examples():
    assert downset_indicator((1, 1)).tolist() == [1, 1, 1]
    # canonical coordinate order for p = 2 is (1,0), (0,1), (1,1)
    assert downset_indicator((1, 0)).tolist() == [1, 0, 0]
    assert downset_indicator((0, 0)).tolist() == [0, 0, 0]


@given(patterns_st)
def test_downset_indicator_ones_count(u):
    assert int(downset_indicator(u).sum()) == 2 ** sum(u) - 1


def test_pattern_index_canonical_order():
    assert pattern_tuples(2) == [(1, 0), (0, 1), (1, 1)]
    assert pattern_tuples(3)[:3] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert pattern_tuples(3)[-1] == (1, 1, 1)
    for p in range(1, 11):
        # the definitional key: cardinality, then the one-positions
        key = lambda w: (sum(w), tuple(j for j in range(p) if w[j]))
        nonzero = [as_bits(m, p) for m in range(1, 1 << p)]
        assert pattern_tuples(p) == sorted(nonzero, key=key)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_pattern_index_bijection(p):
    idx = pattern_index(p)
    assert idx.size == 2**p - 1
    coord = {int(m): c for c, m in enumerate(idx.masks)}
    patterns = pattern_tuples(p)
    for c in range(idx.size):
        assert coord[as_mask(patterns[c])] == c
    assert len(set(patterns)) == idx.size


def test_factor_count_cap():
    with pytest.raises(ValueError):
        as_mask((0,) * (MAX_FACTORS + 1))
    with pytest.raises(ValueError):
        pattern_index(MAX_FACTORS + 1)
    with pytest.raises(ValueError):
        pattern_index(0)
    pattern_index(MAX_FACTORS)  # at the cap is fine


def test_as_mask_rejects_non_binary():
    with pytest.raises(ValueError):
        as_mask((0, 2))


def test_as_bits_round_trip():
    for p in (1, 3, 6):
        for m in range(1 << p):
            assert as_mask(as_bits(m, p)) == m


@settings(max_examples=40)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_inclusion_exclusion_inversion(p, seed):
    """Signed sums below v invert the plain sums below v, for any f."""
    rng = np.random.default_rng(seed)
    f = {w: rng.normal() for w in subpatterns((1,) * p)}
    g = {
        v: sum(alternating_sign(v, w) * f[w] for w in subpatterns(v))
        for v in subpatterns((1,) * p)
    }
    for v in subpatterns((1,) * p):
        back = sum(g[w] for w in subpatterns(v))
        assert abs(back - f[v]) < 1e-10


def test_alternating_binomial_examples():
    assert alternating_binomial_sum(1, 0) == 1
    assert alternating_binomial_sum(3, 1) == -2
    assert alternating_binomial_sum(4, 2) == 3


def test_alternating_binomial_full_range():
    from math import comb

    for n in range(1, 13):
        for m in range(n):
            direct = sum((-1) ** l * comb(n, l) for l in range(m + 1))
            assert alternating_binomial_sum(n, m) == direct
            assert direct == (-1) ** m * comb(n - 1, m)


def test_alternating_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        alternating_binomial_sum(3, 3)
    with pytest.raises(ValueError):
        alternating_binomial_sum(-1, 0)
    with pytest.raises(ValueError):
        alternating_binomial_sum(3, -1)
