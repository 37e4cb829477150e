"""Odds ratios and additive odds-scale measures of joint effects.

The structural parameters are the ``2^p - 1`` log odds ratios of a
logistic model saturated in ``p`` binary risk factors.  The odds ratio at
an exposure pattern ``v`` is ``exp`` of the sum of the parameters over the
nonzero subpatterns of ``v``; everything else in this module is built from
alternating-sign combinations of those odds ratios over sublattices:

* :func:`or_increment` -- the inclusion-exclusion increment of the odds
  ratio over the cube below a pattern; order >= 2 increments quantify
  additive interaction.
* :func:`predicted_or` -- the odds ratio reconstructed from increments of
  order at most ``i`` (a truncated expansion).
* :func:`measure` -- the joint odds ratio, excess odds ratio, attributable
  proportion and synergy index, all functions of the triple
  (joint OR, predicted OR, baseline OR).  The excess odds ratio is what
  the truncation leaves unexplained, joint minus predicted, over the
  baseline.

A measure always concerns a set J of varying factors; the remaining
factors K are held fixed at user-chosen levels, so every odds ratio here
is evaluated at a full pattern assembled from (levels over J, fixed levels
over K).
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress
from math import fsum
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import OrderRangeError, UndefinedSynergyError
from .patterns import (
    _check_factor_count,
    alternating_binomial_sum,
    as_mask,
    lattice_sums,
    pattern_index,
)

KINDS = ("OR", "EOR", "AP", "SI")

_KIND_ALIASES = {
    "OR": "OR",
    "OR_JOINT": "OR",
    "EOR": "EOR",
    "AP": "AP",
    "SI": "SI",
}


def canonical_kind(kind: str) -> str:
    """Normalize a measure-kind token ('or', 'OR_JOINT', ...) to KINDS."""
    try:
        return _KIND_ALIASES[str(kind).strip().upper()]
    except KeyError:
        raise ValueError(f"unknown measure kind {kind!r}; expected one of {KINDS}")


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only: cached tables are shared by every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


class _ReadOnly:
    """A value whose read-only arrays, which numpy unpickles writeable, stay read-only."""

    def __getstate__(self):
        return vars(self), [k for k, v in vars(self).items()
                            if isinstance(v, np.ndarray) and not v.flags.writeable]

    def __setstate__(self, state):
        self.__dict__.update(state[0])
        _frozen(*map(state[0].get, state[1]))


@dataclass(frozen=True, eq=False)
class StructuralParams(_ReadOnly):
    """The log odds-ratio parameters of the saturated factor model.

    Parameters
    ----------
    psi : array_like
        Length ``2^p - 1`` vector on the log odds-ratio scale, indexed by
        the canonical pattern order of :mod:`interodds.patterns`.
    p : int
        Number of binary risk factors.

    The parameters are immutable (:func:`dataclasses.replace` makes a
    changed copy), and the odds-ratio tables are computed on first use.
    """

    psi: np.ndarray
    p: int

    def __post_init__(self):
        _check_factor_count(self.p)
        psi = np.array(self.psi, dtype=float)
        if psi.shape != ((1 << self.p) - 1,):
            raise ValueError(
                f"psi must have length 2^{self.p} - 1 = {(1 << self.p) - 1}, "
                f"got shape {psi.shape}"
            )
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi entries must all be finite")
        object.__setattr__(self, "psi", _frozen(psi)[0])

    @classmethod
    def zeros(cls, p: int) -> "StructuralParams":
        return cls(np.zeros((1 << p) - 1), p)

    @cached_property
    def log_or_table(self) -> np.ndarray:
        """Log odds ratios for all 2^p exposure patterns, indexed by bitmask.

        See :func:`log_or_tables`.  Entry 0 is exactly 0.
        """
        return _frozen(log_or_tables(self.psi))[0]

    @cached_property
    def or_table(self) -> np.ndarray:
        """Odds ratios for all 2^p exposure patterns, indexed by bitmask.

        ``exp`` of :attr:`log_or_table`; every odds-ratio lookup after the
        first is O(1).  Entry 0 is exactly 1.
        """
        return _frozen(np.exp(self.log_or_table))[0]


def log_or_tables(psi: np.ndarray) -> np.ndarray:
    """Log odds ratios at all 2^p patterns, by bitmask, for each row of ``psi``.

    The subset-sum dynamic program: one pass per factor, ``p * 2^p``
    additions per row, summed in the same order in every row.
    """
    p = psi.shape[-1].bit_length()
    s = np.zeros((*psi.shape[:-1], 1 << p))
    s[..., pattern_index(p).masks] = psi
    return lattice_sums(s)


@dataclass(frozen=True)
class MeasureSpec:
    """Which measure to compute, for which factors, at which order.

    ``fixed`` maps factor positions (0-based) to the 0/1 level they are
    held at; the varying set J is everything else.  ``order`` is the
    smallest interaction order the measure charges: 1 targets the joint
    effect of all of J, ``len(J)`` targets only the highest-order
    interaction.  The joint odds ratio ("OR") does not use an order.

    A spec is immutable and validated once: ``fixed`` is a copy of the
    mapping passed in, and ``varying`` (J, ascending) and ``fixed_mask``
    (the factors held at level 1) are made with the spec, which compiles
    nothing (see :func:`spec_plan`).  Specs hash by these two in place of
    the dict, so equal specs hash equal and a spec can key a dict.
    """

    p: int
    kind: str
    order: Optional[int] = None
    fixed: Mapping[int, int] = field(default_factory=dict, hash=False)
    varying: tuple = field(init=False, repr=False, compare=False, hash=True)
    fixed_mask: int = field(init=False, repr=False, compare=False, hash=True)

    def __post_init__(self):
        _check_factor_count(self.p)
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        fixed = dict(self.fixed)
        varying, fixed_mask = _validate_fixed(self.p, fixed)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "varying", varying)
        object.__setattr__(self, "fixed_mask", fixed_mask)
        nj = len(varying)
        low = 2 if self.kind == "SI" else 1  # SI quantifies interaction only
        order = 1 if self.kind == "OR" and self.order is None else self.order
        if order is None or not low <= order <= nj:
            raise OrderRangeError(
                f"order {order} outside 1..{nj} for kind OR" if self.kind == "OR"
                else f"{self.kind} requires order in {low}..{nj}, got {order}"
            )

    @property
    def effective_order(self) -> int:
        return 1 if self.order is None else self.order


class MeasureParts(NamedTuple):
    """The three odds ratios every measure is built from."""

    joint: float  # OR with every varying factor on
    predicted: float  # reconstruction from increments below the target order
    baseline: float  # OR with every varying factor off


def kind_value(kind: str, a, b, c, maximum=max):
    """A measure of canonical ``kind`` from its joint, predicted and baseline parts.

    The parts are floats, or arrays with ``maximum=np.maximum``.  A synergy
    index is computed whether or not :func:`si_defined` holds.
    """
    if kind == "OR":
        return a / c
    if kind == "EOR":
        return (a - b) / c
    if kind == "AP":
        return (a - b) / maximum(a, b)
    return (a - c) / (b - c)


def si_defined(a, b, c):
    """Whether the synergy index is defined: strict comparisons, no tolerance."""
    return (a > c) & (b > c)


def measure_value(kind: str, a: float, b: float, c: float) -> float:
    """:func:`kind_value` on floats, raising where the synergy index is undefined."""
    if kind == "SI" and not si_defined(a, b, c):
        raise UndefinedSynergyError(
            "synergy index needs the joint and predicted odds ratios to "
            f"exceed the baseline; got joint={a:.6g}, predicted={b:.6g}, "
            f"baseline={c:.6g}"
        )
    return kind_value(kind, a, b, c)


def _validate_fixed(p: int, fixed) -> tuple:
    """Return (varying factors tuple, bitmask of fixed-at-1 factors)."""
    held_mask = 0
    level_mask = 0
    for j, level in (fixed or {}).items():
        if not (isinstance(j, (int, np.integer)) and 0 <= j < p):
            raise ValueError(f"fixed factor {j!r} outside 0..{p - 1}")
        held_mask |= 1 << j
        if level == 1:
            level_mask |= 1 << j
        elif level != 0:
            raise ValueError(f"fixed level for factor {j} must be 0 or 1")
    return _varying_of(p, held_mask), level_mask


@lru_cache(maxsize=100_000)
def _varying_of(p, held_mask):
    varying = tuple(j for j in range(p) if not (held_mask >> j) & 1)
    if not varying:
        raise ValueError("at least one factor must vary")
    return varying


def _pattern(p: int, v_j, fixed, order=None) -> tuple:
    """``(on, fixed_mask)``: the factors ``v_j`` turns on; ``order`` in ``0..|on|``."""
    varying, fixed_mask = _validate_fixed(p, fixed)
    if len(v_j) != len(varying):
        raise ValueError(
            f"expected {len(varying)} levels for the varying factors, got {len(v_j)}"
        )
    bits = tuple(v_j)
    if bits.count(0) + bits.count(1) != len(bits):
        raise ValueError(f"levels must be 0 or 1, got {bits}")
    on = tuple(compress(varying, bits))
    if order is not None and not 0 <= order <= len(on):
        raise OrderRangeError(f"prediction order must be in 0..{len(on)}, got {order}")
    return on, fixed_mask


@lru_cache(maxsize=100_000)
def _sublattice(factors, fixed_mask):
    """The ``(full, size)`` table of every pattern of ``factors``.

    Entry ``w`` belongs to the mask ``w`` over ``factors``: ``full`` is its
    full-pattern mask, with the other factors at their ``fixed_mask``
    levels, and ``size`` its count of factors on.
    """
    local = np.arange(1 << len(factors), dtype=np.int64)
    full = np.full(len(local), fixed_mask, dtype=np.int64)
    for i, j in enumerate(factors):
        full |= (local >> i & 1) << j
    return _frozen(full, np.bitwise_count(local).astype(np.int64))


@lru_cache(maxsize=100_000)
def _increment_terms(on, fixed_mask):
    """Gather masks and signs for one alternating-sign increment."""
    masks, size = _sublattice(on, fixed_mask)
    return _frozen(masks, np.where((len(on) - size) & 1, -1.0, 1.0))


@lru_cache(maxsize=100_000)
def _prediction_terms(on, fixed_mask, order):
    """Gather masks and closed-form coefficients for a truncated prediction.

    The coefficient of the odds ratio at subpattern w (|w| <= order < |v_J|)
    is ``(-1)^(order - |w|) * C(|v_J| - 1 - |w|, order - |w|)``, the
    :func:`~interodds.patterns.alternating_binomial_sum` of
    ``C(|v_J| - |w|, l)`` over ``l <= order - |w|``.
    """
    full, size = _sublattice(on, fixed_mask)
    keep = size <= order
    coeffs = [alternating_binomial_sum(len(on) - k, order - k)
              for k in size[keep].tolist()]
    return _frozen(full[keep], np.array(coeffs, dtype=float))


def odds_ratio(params: StructuralParams, v) -> float:
    """Odds ratio of exposure pattern ``v`` against the all-zero pattern.

    Equals ``exp`` of the sum of ``psi`` over the nonzero subpatterns of
    ``v``; exactly 1.0 when ``v`` is the zero pattern.
    """
    bits = tuple(map(int, v))
    if len(bits) != params.p:
        raise ValueError(f"pattern length {len(bits)} != p = {params.p}")
    return float(params.or_table[as_mask(bits)])


def or_increment(params: StructuralParams, v_j, fixed=None) -> float:
    """Alternating-sign increment of the odds ratio at ``v_j``.

    Parameters
    ----------
    v_j : sequence of 0/1
        Levels of the varying factors (ascending factor order).
    fixed : mapping, optional
        Levels at which the remaining factors are held.

    Returns
    -------
    float
        ``sum over w <= v_j of (-1)^(|v_j| - |w|) OR(w, fixed)``.  At the
        zero pattern this is the baseline odds ratio; for a single factor
        it is a plain difference of odds ratios; for two or more factors
        it measures additive interaction net of all lower orders.
    """
    masks, signs = _increment_terms(*_pattern(params.p, v_j, fixed))
    # alternating sums cancel heavily; fsum keeps the increment correctly
    # rounded instead of accumulating error term by term
    return fsum((signs * params.or_table[masks]).tolist())


def predicted_or(params: StructuralParams, v_j, fixed, order: int) -> float:
    """Odds ratio at ``v_j`` predicted from increments of order <= ``order``.

    Uses the closed-form coefficients over the subpatterns with at most
    ``order`` active factors (the fast path); at ``order == |v_j|`` the
    truncation is vacuous and the exact odds ratio is returned.
    """
    on, fixed_mask = _pattern(params.p, v_j, fixed, order)
    if order == len(on):
        return float(params.or_table[_sublattice(on, fixed_mask)[0][-1]])
    masks, coeffs = _prediction_terms(on, fixed_mask, order)
    return fsum((coeffs * params.or_table[masks]).tolist())


@lru_cache(maxsize=100_000)
def _spec_terms(p, varying, fixed_mask, order):
    """The compiled plan of a measure spec: which odds ratios, with which weights.

    A plan is ``(joint, baseline, masks, coef)``: two patterns, then the
    prediction terms of order below ``order`` and their weights in the
    predicted part.
    """
    masks, coef = _prediction_terms(varying, fixed_mask, order - 1)
    return int(_sublattice(varying, fixed_mask)[0][-1]), int(fixed_mask), masks, coef


@lru_cache(maxsize=100_000)
def _family(p, varying):
    """Every plan of the varying set J: one per held-level mask and order.

    That is ``2^(p - |J|) * |J| <= 2^p`` plans.  Returns their values ``(p,
    varying, fixed_mask, order)``, where each plan's terms start, its joint
    and baseline masks, then each term's plan, mask and weight, flat.
    """
    held = tuple(j for j in range(p) if j not in varying)
    keys = tuple((p, varying, mask, order) for mask in _sublattice(held, 0)[0].tolist()
                 for order in range(1, len(varying) + 1))
    joint, baseline, masks, coef = zip(*(_spec_terms(*key) for key in keys))
    counts = [len(m) for m in masks]
    return keys, (0, *np.cumsum(counts).tolist()), *_frozen(
        np.array(joint), np.array(baseline), np.repeat(np.arange(len(keys)), counts),
        np.concatenate(masks), np.concatenate(coef))


def spec_plan(p: int, spec: MeasureSpec) -> tuple:
    """The plan of ``spec`` for ``p`` factors, compiled on first use."""
    if p != spec.p:
        raise ValueError(
            f"spec has {spec.p} risk factors but the parameters have {p}"
        )
    return _spec_terms(spec.p, spec.varying, spec.fixed_mask, spec.effective_order)


def _plan_parts(or_tables: np.ndarray, plan: tuple) -> tuple:
    """``(joint, predicted, baseline)`` of a plan at each odds-ratio table.

    ``or_tables`` has any leading axes, and so has each part.  The
    predicted part is the ``fsum`` of the plan's weights times the odds
    ratios at its masks.
    """
    joint, baseline, masks, coef = plan
    terms = coef * or_tables.take(masks, -1)
    sums = [fsum(row) for row in terms.reshape(-1, len(coef)).tolist()]
    predicted = np.array(sums).reshape(terms.shape[:-1])
    return or_tables[..., joint], predicted, or_tables[..., baseline]


def measure_parts(params: StructuralParams, spec: MeasureSpec) -> MeasureParts:
    """The (joint, predicted, baseline) odds-ratio triple for a spec."""
    parts = _plan_parts(params.or_table, spec_plan(params.p, spec))
    return MeasureParts(*map(float, parts))


def measure(params: StructuralParams, spec: MeasureSpec) -> float:
    """Evaluate the measure named by ``spec`` at the given parameters.

    * ``OR``: joint / baseline, the adjusted odds ratio of all varying
      factors together.  Range (0, inf); 1 means no effect.
    * ``EOR``: (joint - predicted) / baseline.  Range (-inf, inf); 0
      means no effect.
    * ``AP``: (joint - predicted) / max(joint, predicted); 0 means no
      effect.  The max-normalized denominator keeps the value inside
      [-1, 1] whenever the prediction is nonnegative (it always is for
      realistic effect sizes; a negative prediction needs extreme
      antagonism and pushes AP above 1).
    * ``SI``: (joint - baseline) / (predicted - baseline).  Defined only
      when both numerator and denominator effects are positive; range
      (0, inf); 1 means no effect.

    Raises
    ------
    UndefinedSynergyError
        For SI when joint <= baseline or predicted <= baseline (strict
        comparisons, no tolerance).
    ValueError
        ``spec`` and ``params`` disagree on the number of risk factors.
    """
    return measure_value(spec.kind, *measure_parts(params, spec))
