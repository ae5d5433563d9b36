"""Shared brute-force oracles and hypothesis strategies.

Every oracle here is deliberately naive (explicit loops over tuples,
membership by linear scans or in Python sets, which the library never
builds) so it shares no code path with the library kernels it is checking
against.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from sumsetlab import make_set


def oracle_rep_counts(A, B, op):
    out = Counter()
    for a in A:
        for b in B:
            if op == "sum":
                out[a + b] += 1
            elif op == "diff":
                out[a - b] += 1
            elif op == "prod":
                out[a * b] += 1
            else:
                out[Fraction(a) / b] += 1
    return {k if not (isinstance(k, Fraction) and k.denominator == 1) else int(k): v
            for k, v in out.items()}


def oracle_energy2(A, B):
    """Quadruple enumeration of #{a1 - b1 = a2 - b2}."""
    pairs = [a - b for a in A for b in B]
    return sum(1 for x in pairs for y in pairs if x == y)


def oracle_energy_k(A, B, k):
    counts = Counter(a - b for a in A for b in B)
    return sum(c ** k for c in counts.values())


def oracle_projection(P, Q):
    qs = list(Q)
    total = 0
    for p1 in P:
        for p2 in P:
            d = p1 - p2
            for q in qs:
                if d == q:
                    total += 1
                    break
    return total


def oracle_triples_diff(A, P):
    """The triples over R, the elements x of A with 11 #{a : x - a in P}^2
    >= 4 |A|^2, by their definition."""
    Pm = set(P)
    n = len(A)
    R = [x for x in A if 11 * sum(1 for a in A if (x - a) in Pm) ** 2 >= 4 * n * n]
    total = 0
    for r in R:
        for a1 in A:
            for a2 in A:
                if (r - a1) in Pm and (r - a2) in Pm and (a1 - a2) in Pm:
                    total += 1
    return total


def oracle_incidences(A, B, lines):
    """Each slope * a + intercept, made once per (line, a), is looked up in
    a Python set of B: the library never hashes an element."""
    Bm = set(B)
    total = 0
    for line in lines:
        for a in A:
            if Fraction(line.slope) * a + line.intercept in Bm:
                total += 1
    return total


# -- strategies --------------------------------------------------------------

small_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)
int_sets = st.lists(st.integers(-80, 80), min_size=1, max_size=14).map(make_set)
rational_sets = st.lists(small_rationals, min_size=1, max_size=10).map(make_set)
positive_int_sets = st.lists(
    st.integers(1, 120), min_size=1, max_size=14
).map(make_set)


@pytest.fixture
def tmp_text(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    return write
