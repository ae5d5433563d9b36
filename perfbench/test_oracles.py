"""The benchmark's oracles against brute-force enumeration at small n.

Run with `python3 -m pytest perfbench/test_oracles.py`.  Each reference here
enumerates tuples literally (triples, quadruples, sextuples), so it shares
no shortcut with the oracle it checks.
"""

import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import oracles

RNG_SEEDS = range(12)


def _random_set(rng, n, lo=-40, hi=40, rational=False):
    vals = rng.sample(range(lo, hi), n)
    if rational:
        return sorted({Fraction(v, rng.choice((1, 2, 3, 7))) for v in vals})
    return sorted(vals)


def _gp(a, r, n):
    return [a * r ** i for i in range(n)]


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_pair_counts_sizes_and_energies(seed):
    rng = random.Random(seed)
    A = _random_set(rng, rng.randint(1, 6), rational=seed % 2 == 1)
    d = oracles.pair_counts(A, A, "diff")
    s = oracles.pair_counts(A, A, "sum")
    dh, sh = oracles.count_histogram(d), oracles.count_histogram(s)
    assert sum(dh.values()) == len(d) and sum(c * m for c, m in dh.items()) == len(A) ** 2
    assert len(d) == len({a - b for a in A for b in A})
    assert len(s) == len({a + b for a in A for b in A})
    assert len(oracles.pair_counts(A, A, "prod")) == len({a * b for a in A for b in A})
    quads = list(itertools.product(A, repeat=4))
    e2 = sum(1 for a1, b1, a2, b2 in quads if a1 - b1 == a2 - b2)
    assert oracles.energy_exact(dh, 2) == e2
    assert oracles.energy_exact(sh, 2) == sum(1 for a1, b1, a2, b2 in quads if a1 + b1 == a2 + b2)
    e3 = sum(1 for a1, b1, a2, b2, a3, b3 in itertools.product(A, repeat=6)
             if a1 - b1 == a2 - b2 == a3 - b3)
    assert oracles.energy_exact(dh, 3) == e3
    for k in (Fraction(3, 2), Fraction(12, 7), Fraction(12, 5)):
        direct = sum(float(sum(1 for a, b in itertools.product(A, A) if a - b == x)) ** float(k)
                     for x in {a - b for a in A for b in A})
        assert math.isclose(oracles.energy_float(dh, k), direct, rel_tol=1e-12)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_popular_and_rich_differences(seed):
    rng = random.Random(seed)
    A = _random_set(rng, rng.randint(2, 12), rational=seed % 3 == 0)
    n = len(A)
    diffs = [a - b for a in A for b in A]
    size = len(set(diffs))
    threshold = Fraction(n * n, 11 * size)
    P = {x for x in set(diffs) if diffs.count(x) >= threshold}
    got, mass = oracles.popular_differences(A)
    assert got == P
    assert mass == sum(1 for x in diffs if x in P)
    with localcontext() as ctx:
        ctx.prec = 50
        bound = 2 * n / Decimal(11).sqrt()
        rich = [x for x in A if sum(1 for b in A if x - b in P) >= bound]
    assert oracles.rich_differences(A, P) == rich


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_projection(seed):
    rng = random.Random(seed)
    P = _random_set(rng, rng.randint(1, 10), rational=seed % 2 == 0)
    Q = _random_set(rng, rng.randint(1, 10), rational=seed % 4 == 0)
    brute = sum(1 for p1, p2, q in itertools.product(P, P, Q) if p1 - p2 == q)
    assert oracles.projection(P, Q) == brute


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_popular_rich_sums_and_sum_triples(seed):
    rng = random.Random(seed)
    B = _random_set(rng, rng.randint(3, 10), lo=1, hi=30)
    n = len(B)
    ambient = n + seed
    ambient = max(ambient, 3)
    sums = [a + b for a in B for b in B]
    thr = n * n / (8 * len(set(sums)) * math.log(ambient))
    if any(abs(sums.count(x) - thr) < 1e-9 * thr for x in set(sums)):
        pytest.skip("a count sits at the float threshold")
    P = {x for x in set(sums) if sums.count(x) >= thr}
    assert oracles.popular_sums(B, ambient) == P
    R = [x for x in B if 4 * sum(1 for b in B if x + b in P) >= 3 * n]
    assert oracles.rich_sums(B, P) == R
    rdiffs = [r1 - r2 for r1 in R for r2 in R]
    counts = {x: rdiffs.count(x) for x in set(rdiffs)}
    level, cls = _brute_dyadic(counts)
    brute = sum(1 for r1, r2, b in itertools.product(R, R, B)
                if r1 + b in P and r2 + b in P and r1 - r2 in cls)
    assert oracles.sum_triples(B, ambient) == (brute, level, len(cls))


def _brute_dyadic(counts):
    best = None
    level = 1
    while level <= max(counts.values()):
        members = {x for x, c in counts.items() if level <= c < 2 * level}
        if members:
            mass = sum(float(counts[x]) ** (12 / 7) for x in members)
            if best is None or mass > best[0] * (1 + 1e-12):
                best = (mass, level, members)
        level *= 2
    return best[1], best[2]


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_dominant_dyadic_class(seed):
    rng = random.Random(seed)
    counts = {i: rng.choice((1, 1, 2, 3, 4, 5, 8, 9, 17)) for i in range(rng.randint(1, 30))}
    if oracles.dyadic_choice_ambiguous(counts):
        pytest.skip("two classes tie")
    assert oracles.dominant_dyadic_class(counts) == _brute_dyadic(counts)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_difference_triples(seed):
    rng = random.Random(seed)
    A = _random_set(rng, rng.randint(1, 10), rational=seed % 2 == 1)
    P, _ = oracles.popular_differences(A)
    R = oracles.rich_differences(A, P)
    brute = sum(1 for r, a1, a2 in itertools.product(R, A, A)
                if r - a1 in P and r - a2 in P and a1 - a2 in P)
    assert oracles.difference_triples(A) == brute


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_line_incidences(seed):
    rng = random.Random(seed)
    A = _random_set(rng, rng.randint(1, 8), rational=seed % 2 == 0)
    B = _random_set(rng, rng.randint(1, 8))
    lines = oracles.integer_lines(3, 5) + [(Fraction(1, 2), -1), (-2, Fraction(7, 3))]
    brute = sum(1 for (m, c), a, b in itertools.product(lines, A, B)
                if Fraction(b) == Fraction(m) * a + c)
    assert oracles.line_incidences(A, B, lines) == brute
    assert len(oracles.integer_lines(3, 5)) == 15


@pytest.mark.parametrize("a, r", [(1, Fraction(2)), (1, Fraction(3)), (3, Fraction(5, 2)),
                                  (-2, Fraction(3, 2)), (Fraction(1, 5), Fraction(7, 3))])
def test_geometric_closed_forms(a, r):
    for n in range(1, 13):
        A = _gp(a, r, n)
        d = oracles.pair_counts(A, A, "diff")
        s = oracles.pair_counts(A, A, "sum")
        got = oracles.geometric_closed_forms(n)
        dh, sh = oracles.count_histogram(d), oracles.count_histogram(s)
        assert got == {
            "sumset": len(s),
            "diffset": len(d),
            "prodset": len(oracles.pair_counts(A, A, "prod")),
            "E2_sum": oracles.energy_exact(sh, 2),
            "E2_diff": oracles.energy_exact(dh, 2),
            "E3_diff": oracles.energy_exact(dh, 3),
        }
        assert oracles.geometric_histograms(n) == (dh, sh)


def test_geometric_closed_forms_fail_for_negative_ratio():
    A = _gp(1, -2, 4)
    got = oracles.geometric_closed_forms(4)
    assert len(oracles.pair_counts(A, A, "sum")) < got["sumset"]
    assert len(oracles.pair_counts(A, A, "diff")) < got["diffset"]


def test_common_integers_keeps_counts():
    A = [Fraction(1, 3), Fraction(5, 7), 2]
    (scaled,) = oracles.common_integers(A)
    assert scaled == [7, 15, 42]
    assert sorted(oracles.pair_counts(A, A, "diff").values()) == \
        sorted(oracles.pair_counts(scaled, scaled, "diff").values())


def test_refine_on_progressions_meets_the_energy_criterion():
    for n in (16, 32, 64):
        core, reason = oracles.refine(list(range(1, n + 1)))
        assert reason == "energy-criterion-met"
        assert set(core) <= set(range(1, n + 1)) and 2 * len(core) > n
