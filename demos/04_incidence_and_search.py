"""Incidence counting on grids and hill-climb search for small theorem ratios."""

import math

from sumsetlab import (
    CurveTranslate,
    FamilySpec,
    count_incidences_curve,
    count_incidences_grid,
    gen_family,
    make_set,
    search_extremal,
    st_ratio,
)


def main():
    print("-- grid incidences: [1..n]^2 against y = mx + b, m <= ceil(sqrt n), b <= n --")
    for n in (32, 64, 128, 256):
        A = make_set(range(1, n + 1))
        slopes = math.isqrt(n - 1) + 1
        count = count_incidences_grid(A, A, slopes, n)
        ratio = st_ratio(count, n * n, slopes * n)
        print(f"  n={n:4d}: |L|={slopes * n:5d} incidences={count:6d} ratio={ratio:.4f}")
    print("  the ratio is the measured implied constant of the (|P||L|)^(2/3) + |L| bound")

    print("\n-- translates of a convex curve --")
    squares = gen_family(FamilySpec.convex_power(2, 12))
    B = make_set([v - 3 for v in squares])
    translates = [CurveTranslate(squares, h, 3) for h in range(-2, 3)]
    count = count_incidences_curve(12, B, translates)
    print(f"  5 translates of the square table against a 12-point column: {count} incidences")

    print("\n-- extremal search: minimize |A-A| / n^(8/5 + 1/3440) --")
    for seed in (0, 1):
        res = search_extremal("thm_cdiff", 16, budget=1500, seed=seed)
        print(f"  seed {seed}: best ratio {res.ratio:.4f} "
              f"(start was {res.trajectory[0]:.4f}), best set {res.best}")


if __name__ == "__main__":
    main()
