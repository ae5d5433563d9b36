"""The benchmark's own oracles: plain-Python counts made apart from sumsetlab.

Nothing here imports the package under test.  Every function enumerates
pairs with `collections.Counter` or loops over explicit tuples, so a fault
in a numpy kernel, a dispatch threshold or a cache of the program cannot
also hide in the value it is checked against.  Thresholds are decided in
exact integer or `Fraction` arithmetic; the one irrational threshold (the
popular-sum density, which divides by a natural logarithm) is decided with
`decimal` at 60 digits, a different library from the program's `mpmath`.

Elements are Python ints or `fractions.Fraction`s (an integral Fraction
compares and hashes equal to its int, so either form works).
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

# Theorem exponents of the paper, written out again rather than imported.
EXP_SP = 4.0 / 3.0 + 10.0 / 4407.0
EXP_CSUM = 46.0 / 29.0
EXP_CDIFF = 8.0 / 5.0 + 1.0 / 3440.0

TWELVE_SEVENTHS = Fraction(12, 7)


def pair_counts(A, B, op: str) -> Counter:
    """Counter of a op b over all ordered pairs (a, b) in A x B."""
    if op == "sum":
        return Counter(a + b for a in A for b in B)
    if op == "diff":
        return Counter(a - b for a in A for b in B)
    if op == "prod":
        return Counter(a * b for a in A for b in B)
    raise ValueError(f"unknown op {op!r}")


def count_histogram(counts: Counter) -> Counter:
    """{count: number of values with that count} of a value -> count Counter."""
    return Counter(counts.values())


def energy_exact(hist, k: int) -> int:
    """sum of count**k over all values, for an integer k, from a count histogram."""
    return sum(m * c ** k for c, m in hist.items())


def energy_float(hist, k) -> float:
    """sum of count**k for a fractional k, from a count histogram; one rounding
    per distinct count, then an exact sum."""
    kf = float(k)
    return math.fsum(m * float(c) ** kf for c, m in hist.items())


def popular_differences(A, d: Counter | None = None) -> tuple[set, int]:
    """Differences with 11 * count * |A-A| >= |A|^2, and their total count.

    `d` is A's difference Counter when the caller already has it.
    """
    if d is None:
        d = pair_counts(A, A, "diff")
    n2, size = len(A) ** 2, len(d)
    popular = {v for v, c in d.items() if 11 * c * size >= n2}
    return popular, sum(d[v] for v in popular)


def rich_differences(A, P) -> list:
    """x in A with |(x - A) & P| >= 2|A|/sqrt(11), tested as 11 c^2 >= 4 |A|^2."""
    n = len(A)
    out = []
    for x in A:
        c = sum(1 for b in A if x - b in P)
        if 11 * c * c >= 4 * n * n:
            out.append(x)
    return out


def projection(P, Q) -> int:
    """#{(p1, p2, q) in P x P x Q : p1 - p2 = q}, as sum over q of #{p : p + q in P}.

    Rationals are first scaled to integers (`common_integers`), so the loop
    runs on ints rather than Fractions.
    """
    P, Q = common_integers(P, Q)
    members = set(P)
    return sum(1 for q in Q for p in P if p + q in members)


def common_integers(*sets) -> list[list[int]]:
    """The sets scaled by one common factor, the lcm of all denominators.

    Every count here (pair counts, popular and rich sets, triples,
    projections) is unchanged by scaling all sets by one factor.
    """
    scale = 1
    for x in (x for xs in sets for x in xs):
        if isinstance(x, Fraction):
            scale = math.lcm(scale, x.denominator)
    if scale == 1:
        return [[int(x) for x in xs] for xs in sets]
    return [[int(x * scale) for x in xs] for xs in sets]


def popular_sums(X, ambient: int) -> set:
    """Sums with count >= |X|^2 / (8 |X+X| ln ambient).

    The test 8 * count * |X+X| * ln(ambient) >= |X|^2 is decided in 60-digit
    decimal arithmetic; ln of an integer >= 3 is irrational, so no count sits
    on the threshold exactly and 60 digits separate any desk-scale case.
    """
    s = pair_counts(X, X, "sum")
    n2, size = len(X) ** 2, len(s)
    with localcontext() as ctx:
        ctx.prec = 60
        ln_m = Decimal(ambient).ln()
        return {v for v, c in s.items() if 8 * c * size * ln_m >= n2}


def rich_sums(X, P) -> list:
    """x in X with |(X + x) & P| >= (3/4)|X|, tested as 4c >= 3|X|."""
    n = len(X)
    return [x for x in X if 4 * sum(1 for b in X if x + b in P) >= 3 * n]


def dominant_dyadic_class(counts: Counter, k=TWELVE_SEVENTHS) -> tuple[int, set]:
    """(level, values) of the dyadic class [2^j, 2^(j+1)) of largest k-th moment.

    Ties go to the smaller level.  The class moment is a correctly rounded
    float sum, which the program computes differently; two classes whose
    moments agree to 1e-12 would make the choice ambiguous, and `ambiguous`
    reports that case rather than guessing.
    """
    classes: dict[int, list] = {}
    for v, c in counts.items():
        classes.setdefault(c.bit_length() - 1, []).append(v)
    kf = float(k)
    masses = {j: math.fsum(float(counts[v]) ** kf for v in vals) for j, vals in classes.items()}
    best = max(masses.values())
    best_j = min(j for j, m in masses.items() if m == best)
    return 1 << best_j, set(classes[best_j])


def dyadic_choice_ambiguous(counts: Counter, k=TWELVE_SEVENTHS) -> bool:
    """True when two dyadic classes' moments agree to 1e-12 (relative)."""
    kf = float(k)
    masses = Counter()
    for c in counts.values():
        masses[c.bit_length() - 1] += float(c) ** kf
    top = sorted(masses.values(), reverse=True)
    return len(top) > 1 and top[0] - top[1] <= 1e-12 * top[0]


def refine(A) -> tuple[list, str]:
    """The iterated rich-sum refinement, stopped as the paper's proof does.

    X -> rich_sums(X, popular_sums(X, |A|)) until E_{12/7}(rich(X)) >=
    E_{12/7}(X) / ln|A|, at most floor(ln|A|) times, and early when an
    iterate falls to half of |A|.  Returns (core, stop reason); the reason
    is "ambiguous" when the two moments agree to 1e-9, where a float sum in
    another order could decide the other way.
    """
    n = len(A)
    log_n = math.log(n)
    guard = math.floor(log_n)
    X = list(A)
    for step in range(guard + 1):
        R = rich_sums(X, popular_sums(X, n))
        e_right = energy_float(count_histogram(pair_counts(X, X, "diff")), TWELVE_SEVENTHS) / log_n
        e_rich = energy_float(count_histogram(pair_counts(R, R, "diff")), TWELVE_SEVENTHS)
        if abs(e_rich - e_right) <= 1e-9 * max(e_rich, e_right):
            return X, "ambiguous"
        if e_rich >= e_right:
            return X, "energy-criterion-met"
        if step == guard:
            return X, "iteration-guard"
        X = R
        if 2 * len(X) <= n:
            return X, "set-too-small"
    raise RuntimeError("unreachable")


def difference_triples(A) -> int:
    """#{(r, a1, a2) in R x A x A : r-a1, r-a2, a1-a2 all popular differences}."""
    P, _ = popular_differences(A)
    R = rich_differences(A, P)
    total = 0
    for r in R:
        hits = [a for a in A if r - a in P]
        total += sum(1 for a1 in hits for a2 in hits if a1 - a2 in P)
    return total


def sum_triples(B, ambient: int) -> tuple[int, int, int] | None:
    """(count, level, class size) of the sum-side triple count.

    count = #{(r1, r2, b) in R x R x B : r1+b, r2+b popular sums and r1-r2 in
    the dominant 12/7-weighted dyadic class of R's difference counts}.
    None when that class is ambiguous (see `dyadic_choice_ambiguous`).
    """
    P = popular_sums(B, ambient)
    R = rich_sums(B, P)
    counts = pair_counts(R, R, "diff")
    if dyadic_choice_ambiguous(counts):
        return None
    level, cls = dominant_dyadic_class(counts)
    hits = {r: {b for b in B if r + b in P} for r in R}
    count = sum(len(hits[r1] & hits[r2]) for r1 in R for r2 in R if r1 - r2 in cls)
    return count, level, len(cls)


def line_incidences(A, B, lines) -> int:
    """#{(a, b, (m, c)) : a in A, b in B, b = m a + c} for lines given as (m, c)."""
    members = set(B)
    return sum(1 for m, c in lines for a in A if m * a + c in members)


def integer_lines(slopes: int, intercepts: int) -> list[tuple[int, int]]:
    """The lines y = m x + c with m in 1..slopes and c in 1..intercepts."""
    return [(m, c) for m in range(1, slopes + 1) for c in range(1, intercepts + 1)]


def geometric_closed_forms(n: int) -> dict:
    """Pair-set sizes and energies of a geometric progression GP(a, r), r > 1 rational.

    For a != 0 and rational r = p/q > 1 in lowest terms, all sums a r^i + a r^j
    (i <= j) and all nonzero differences a r^i - a r^j are distinct: clearing
    denominators, a coincidence becomes an integer identity between sums of
    terms p^i q^(m-i), and comparing the p-adic valuations of its smallest
    terms (q-adic when p is the larger prime power) rules it out.  Hence the
    counts below.  They fail for negative ratios: GP(1,-2) has
    1 + 1 = -2 + 4 and 4 - 1 = 1 - (-2).
    """
    return {
        "sumset": n * (n + 1) // 2,
        "diffset": n * n - n + 1,
        "prodset": 2 * n - 1,
        "E2_sum": 2 * n * n - n,
        "E2_diff": 2 * n * n - n,
        "E3_diff": n ** 3 + n * n - n,
    }


def geometric_histograms(n: int) -> tuple[Counter, Counter]:
    """Count histograms of GP(a, r)'s differences and sums, r > 1 rational.

    By the distinctness above: the difference 0 has count n and the other
    n^2 - n differences count 1; the n sums 2 a r^i count 1 and the other
    n(n-1)/2 count 2.
    """
    diff, sums = Counter({n: 1}), Counter({1: n})
    diff[1] += n * n - n
    sums[2] += n * (n - 1) // 2
    return +diff, +sums
