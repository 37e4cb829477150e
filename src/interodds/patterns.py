"""Binary exposure patterns and the combinatorics on their subset lattice.

An exposure pattern is a length-``p`` vector of 0/1 entries, one per risk
factor, ordered so that ``w <= v`` holds componentwise.  The nonzero
patterns index the structural log-odds-ratio coordinates; their canonical
order is:

    sorted by cardinality (number of ones) ascending, then
    lexicographically by the positions of the ones.

For ``p = 2`` this gives ``(1,0), (0,1), (1,1)``: marginal effects first,
then interactions of increasing order.  All functions here accept patterns
as any sequence of 0/1 ints and return them as tuples.

Internally patterns are integer bitmasks (factor ``j`` is bit ``j``), which
makes the componentwise ``<=`` test a single mask operation.
"""

from functools import lru_cache
from math import comb

import numpy as np

# 2^p parameters blow up quickly; real case-control analyses use a handful
# of factors, so anything past this is almost certainly a mistake.
MAX_FACTORS = 20


def _check_factor_count(p: int) -> None:
    """Refuse a factor count outside ``1..MAX_FACTORS`` before it sizes anything."""
    if not 1 <= p <= MAX_FACTORS:
        raise ValueError(f"factor count must be in 1..{MAX_FACTORS}, got {p}")


def as_mask(bits) -> int:
    """Pack a 0/1 sequence into a bitmask (factor j -> bit j)."""
    bits = tuple(map(int, bits))
    _check_factor_count(len(bits))
    if not {0, 1}.issuperset(bits):
        raise ValueError(f"pattern entries must be 0 or 1, got {bits}")
    mask = 0
    for j, b in enumerate(bits):
        mask |= b << j
    return mask


def as_masks(exposures) -> np.ndarray:
    """Pack each row of an (n, p) 0/1 array into a bitmask, as :func:`as_mask`.

    Shifts and ors in one column at a time, with no int64 copy of the array.
    """
    masks = np.zeros(len(exposures), dtype=np.int64)
    for column in exposures.T[::-1]:
        masks <<= 1
        masks |= column
    return masks


def as_bits(mask: int, p: int) -> tuple:
    """Unpack a bitmask into a length-``p`` tuple of 0/1 ints."""
    return tuple((mask >> j) & 1 for j in range(p))


def _canonical_masks(p: int) -> np.ndarray:
    """All 2^p masks in canonical order (cardinality, then one-positions).

    Within a cardinality level, comparing one-positions lexicographically
    is comparing the bit-reversed masks in descending order: the first
    differing position is set in the earlier pattern only.
    """
    masks = np.arange(1 << p, dtype=np.int64)
    reversed_bits = np.zeros_like(masks)
    for j in range(p):
        reversed_bits |= ((masks >> j) & 1) << (p - 1 - j)
    return masks[np.lexsort((-reversed_bits, np.bitwise_count(masks)))]


class PatternIndex:
    """Bijection between nonzero patterns and coordinates 0..2^p - 2.

    ``masks[c]`` is the bitmask of the pattern at coordinate ``c``.
    Instances are cached per ``p`` via :func:`pattern_index` and shared
    freely (all state is read-only).
    """

    def __init__(self, p: int):
        _check_factor_count(p)
        self.p = p
        self.masks = _canonical_masks(p)[1:]  # drop the zero pattern
        self.masks.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.masks)

    def label(self, coord: int, names=None) -> str:
        """Human-readable name like ``v1:v3`` for the pattern at ``coord``."""
        mask = int(self.masks[coord])
        names = names or [f"v{j + 1}" for j in range(self.p)]
        return ":".join(names[j] for j in range(self.p) if (mask >> j) & 1)


@lru_cache(maxsize=None)
def pattern_index(p: int) -> PatternIndex:
    return PatternIndex(p)


def subpatterns(v) -> list:
    """All patterns ``w <= v`` in canonical order, zero pattern included.

    The result has exactly ``2^|v|`` entries and always contains the zero
    pattern and ``v`` itself.
    """
    bits = tuple(int(b) for b in v)
    mask, masks = as_mask(bits), _canonical_masks(len(bits))  # checks, then sizes
    return [as_bits(m, len(bits)) for m in masks[(masks & ~mask) == 0].tolist()]


def downset_rows(p: int, masks) -> np.ndarray:
    """Boolean indicator rows of ``w <= u`` over the canonical coordinates.

    Entry ``[i, c]`` is true when the pattern at coordinate ``c`` lies
    below ``masks[i]``; a scalar mask gives a single row.  Row ``i`` has
    exactly ``2^|masks[i]| - 1`` true entries (every nonzero subpattern).
    """
    masks = np.asarray(masks, dtype=np.int64)
    return (pattern_index(p).masks & ~masks[..., None]) == 0


def lattice_sums(table: np.ndarray, up: bool = False) -> np.ndarray:
    """Sum a C-contiguous table over the subset lattice, in place.

    Along the last axis (``2^p`` entries, indexed by bitmask), entry ``m``
    becomes the sum of the entries at the masks below ``m`` (at the masks
    above ``m`` when ``up``): Yates's algorithm, one pass per factor, from
    the highest bit down.  Every entry sums in the same order whatever the
    leading axes hold.  Returns ``table``.
    """
    *lead, size = table.shape
    bit = size >> 1
    while bit:
        # no -1 here: it is undetermined when a leading axis is empty
        pairs = table.reshape(*lead, size // (2 * bit), 2, bit)
        if up:
            pairs[..., 0, :] += pairs[..., 1, :]
        else:
            pairs[..., 1, :] += pairs[..., 0, :]
        bit >>= 1
    return table


def alternating_binomial_sum(n: int, m: int) -> int:
    """Truncated alternating binomial sum ``sum_{l=0}^{m} (-1)^l C(n, l)``.

    Requires ``0 <= m < n``.  Returns the closed form ``(-1)^m C(n-1, m)``;
    the identity suites compare it with the direct sum.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")
    if m >= n:
        raise ValueError(f"require m < n, got n={n}, m={m}")
    return (-1) ** m * comb(n - 1, m)
