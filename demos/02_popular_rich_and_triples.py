"""Popular values, rich elements, refinement, and the exact triple counts.

The printed inequalities hold for every finite set, with the stated
constants; this script evaluates both sides on a seeded random set so the
slack is visible.
"""

import math
from fractions import Fraction

from sumsetlab import (
    FamilySpec,
    count_popular_difference_triples,
    count_popular_sum_triples,
    dominant_dyadic_class,
    energy,
    gen_family,
    popular_difference_mass,
    popular_sums,
    projection_count,
    refine_rich_core,
    rep_fn,
    rich_difference_elements,
    rich_sum_elements,
)


def main():
    n = 120
    A = gen_family(FamilySpec.random_subset(4 * n * n, n, seed=42))
    print(f"A: {n} random integers in [1, {4 * n * n}]")

    print("\n-- difference side --")
    P, mass = popular_difference_mass(A)
    print(f"  popular differences: {len(P)} values carrying mass {mass}")
    print(f"  mass bound  : {mass} >= (10/11) n^2 = {10 * n * n / 11:.1f}")
    R = rich_difference_elements(A)
    print(f"  rich size   : {len(R)} > n/2 = {n / 2:.0f}")
    t = count_popular_difference_triples(A)
    print(f"  triples     : {t} >= (3/22) n^3 = {3 * n ** 3 / 22:.0f}")
    e3 = energy(rep_fn(A, A, "diff"), 3).exact
    proj = projection_count(P, P)
    print(f"  collisions  : t^2 = {t * t} <= E_3 * proj = {e3 * proj}")
    print(f"  composed    : (9/484) n^6 = {9 * n ** 6 / 484:.3e} <= {float(e3 * proj):.3e}")

    print("\n-- sum side --")
    B, trace = refine_rich_core(A)
    print(f"  refinement stops: {trace.stop_reason} after {len(trace.iterates)} iterate(s), |B| = {len(B)}")
    PS = popular_sums(B, n)
    RS = rich_sum_elements(B, PS)
    print(f"  popular sums: {len(PS)}; rich: {len(RS)} >= (1 - 1/(2 ln n))|B| = "
          f"{(1 - 1 / (2 * math.log(n))) * len(B):.1f}")
    cls = dominant_dyadic_class(rep_fn(RS, RS, "diff"), Fraction(12, 7))
    print(f"  dominant dyadic class: level {cls.level}, {len(cls.members)} members, "
          f"12/7-mass {cls.weighted_mass.approx:.1f}")
    count, level, cls_size = count_popular_sum_triples(B, n)
    print(f"  sum triples : {count} >= level*class*|B|/2 = {level * cls_size * len(B) / 2:.0f}")
    proj_s = projection_count(PS, cls.members)
    e3b = energy(rep_fn(B, B, "diff"), 3).exact
    lhs = (level * cls_size * len(B) / 2) ** 2
    print(f"  composed    : (level*class*|B|/2)^2 = {lhs:.3e} <= E_3(B)*proj = {float(e3b * proj_s):.3e}")


if __name__ == "__main__":
    main()
