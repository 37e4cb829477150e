"""Odds ratios decompose additively into marginal and interaction increments.

A two-factor model with marginal odds ratios 2 and 3 and an interaction
odds ratio of 1.5 serves as the running example: the joint odds ratio is
2 * 3 * 1.5 = 9 on the multiplicative scale, and this script shows how the
same 9 splits additively into a baseline, two marginal increments and one
interaction increment.
"""

import numpy as np

from interodds import StructuralParams, odds_ratio, or_increment

psi = StructuralParams(np.log([2.0, 3.0, 1.5]), p=2)
patterns = ((0, 0), (1, 0), (0, 1), (1, 1))  # every pattern below (1, 1)

print("odds ratios by exposure pattern")
for v in patterns:
    print(f"  OR{v} = {odds_ratio(psi, v):.4g}")

print("\nadditive increments (baseline, factor 1, factor 2, interaction)")
total = 0.0
for v in patterns:
    inc = or_increment(psi, v)
    total += inc
    print(f"  increment{v} = {inc:+.4g}")

print(f"\nincrements sum back to the joint odds ratio: {total:.6g} "
      f"(direct: {odds_ratio(psi, (1, 1)):.6g})")

# the interaction increment is what multiplicative thinking misses: with a
# *null* multiplicative interaction (1.5 -> 1.0) the additive increment is
# still positive, because 2 * 3 > 2 + 3 - 1
mult = StructuralParams(np.log([2.0, 3.0, 1.0]), p=2)
print(f"\npurely multiplicative margins still interact additively: "
      f"increment(1,1) = {or_increment(mult, (1, 1)):+.4g}")
