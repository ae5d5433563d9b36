"""Products and ratios past int64 over a pairwise-coprime base.

Each nonzero scaled integer of a set is a sign and an exponent vector over a
pairwise-coprime base (`sets.coprime_exponents`); a product or ratio table
is then counted from packed vector sums or differences.  These tests hold
that kernel to the brute-force oracle and to `_sorted_rep`, which sorts
the exact pair values, field by field, on geometric, negated, mixed-sign and
zero-holding sets, on two sets with disjoint bases, and where it must give
way: past the base cap and where a key would not fit int64.
"""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sumsetlab import ExactnessError, FamilySpec, gen_family, make_set, pair_set_size, rep_fn
from sumsetlab.sets import coprime_exponents
from conftest import oracle_rep_counts

en = importlib.import_module("sumsetlab.energy")
sets_module = importlib.import_module("sumsetlab.sets")


def gp(a, r, n):
    return gen_family(FamilySpec.gp(a, r, n))


def negated(A):
    return make_set(-x for x in A)


def _assert_same_table(f, g):
    assert f.op == g.op and (f.left_size, f.right_size) == (g.left_size, g.right_size)
    assert f.scaled_values.dtype == g.scaled_values.dtype
    assert f.scaled_values.tolist() == g.scaled_values.tolist()
    assert f.counts_array.dtype == g.counts_array.dtype == np.int64
    assert np.array_equal(f.counts_array, g.counts_array)
    assert f.scale == g.scale
    assert f.pair_pos is None and g.pair_pos is None


def _assert_coprime_table(A, B, op):
    """The coprime kernel gives `_sorted_rep`'s table and the oracle's counts;
    rep_fn and pair_set_size take it wherever the values pass int64."""
    f = en._coprime_rep(A, B, op)
    assert f is not None
    g = en._sorted_rep(A, B, op)
    _assert_same_table(f, g)
    assert f.counts == oracle_rep_counts(A.elements, B.elements, op)
    if en._outer_int64(A, B, op) is None:
        _assert_same_table(rep_fn(A, B, op), g)
    assert pair_set_size(A, B, op) == f.size


_starts = st.sampled_from([1, -1, 3, Fraction(1, 7), 1 << 64, -(3 ** 41), Fraction(5, 1 << 70)])
_ratios = st.sampled_from([2, 3, -2, Fraction(5, 2), Fraction(10, 3), Fraction(1, 6)])
_gp_sets = st.builds(gp, _starts, _ratios, st.integers(1, 36))


@st.composite
def _structured_sets(draw):
    """A geometric progression, maybe negated, maybe joined by a second
    one of the other sign, maybe holding 0."""
    A = draw(_gp_sets)
    if draw(st.booleans()):
        A = negated(A)
    if draw(st.booleans()):
        A = make_set(A.elements + negated(draw(_gp_sets)).elements)
    if draw(st.booleans()):
        A = make_set(A.elements + (0,))
    return A


G12, G13 = gp(1, 2, 40), gp(1, 3, 36)


@settings(max_examples=60, deadline=None)
@given(_structured_sets(), _structured_sets(), st.sampled_from(["prod", "ratio"]), st.booleans())
@example(A=G12, B=G12, op="prod", same=True)
@example(A=G13, B=G13, op="prod", same=True)
@example(A=gp(3, Fraction(5, 2), 30), B=gp(3, Fraction(5, 2), 30), op="prod", same=True)
@example(A=gp(7, Fraction(10, 3), 30), B=gp(7, Fraction(10, 3), 30), op="prod", same=True)
@example(A=negated(G12), B=G12, op="prod", same=False)
@example(A=make_set(G12.elements + negated(G13).elements), B=G13, op="prod", same=True)
@example(A=make_set(G12.elements + (0,)), B=make_set(G13.elements + (0,)), op="prod",
         same=False)
@example(A=G12, B=G13, op="prod", same=False)
@example(A=G12, B=G13, op="ratio", same=False)
@example(A=make_set(negated(G13).elements + (0,)), B=G12, op="ratio", same=False)
@example(A=gp(7, Fraction(10, 3), 30), B=gp(3, Fraction(5, 2), 30), op="ratio", same=True)
# an empty base (units and 0 only), and a set that is {0}
@example(A=make_set([-1, 0, 1]), B=make_set([0]), op="prod", same=True)
@example(A=make_set([0]), B=make_set([-1, 1]), op="ratio", same=False)
def test_coprime_table_matches_oracle_and_sorted_rep(A, B, op, same):
    if same:
        B = A
    assume(op != "ratio" or 0 not in B)
    _assert_coprime_table(A, B, op)


def test_the_base_of_a_union_covers_disjoint_bases():
    assert G12.int_view.coprime()[0] == (2,) and G13.int_view.coprime()[0] == (3,)
    ea, eb = en._coprime_pair(G12, G13)
    assert ea.shape == (40, 2) and eb.shape == (36, 2)
    keys, _, zeros = en._coprime_keys(G12, G13, "prod", False)
    # 2**i 3**j: every product is distinct
    assert zeros == 0 and len(set(keys.tolist())) == keys.size == 40 * 36


def test_past_the_base_cap_the_residue_path_answers(monkeypatch):
    monkeypatch.setattr(sets_module, "_COPRIME_CAP", 1)
    # fresh sets: each view caches its base
    G5, A, B = gp(3, Fraction(5, 2), 30), gp(1, 2, 40), gp(1, 3, 36)
    assert G5.int_view.coprime() is None
    assert A.int_view.coprime() is not None and B.int_view.coprime() is not None
    for X, Y in ((G5, G5), (A, B), (G5, A)):
        for op in ("prod", "ratio"):
            assert en._coprime_keys(X, Y, op, False) is None
            assert en._coprime_rep(X, Y, op) is None
            _assert_same_table(rep_fn(X, Y, op), en._sorted_rep(X, Y, op))
            want = oracle_rep_counts(X.elements, Y.elements, op)
            assert rep_fn(X, Y, op).counts == want
            assert pair_set_size(X, Y, op) == len(want)


def test_a_key_past_int64_gives_way_to_the_residue_path():
    # p and p**E for five primes: in a product each exponent runs over
    # 0 .. 2E, so the packed key needs 2 * (2E + 1)**5 > 2**63 values
    E = 1 << 14
    A = make_set([1] + [p ** k for p in (2, 3, 5, 7, 11) for k in (1, E)])
    assert A.int_view.coprime()[0] == (2, 3, 5, 7, 11)
    for op in ("prod", "ratio"):
        assert en._coprime_keys(A, A, op, False) is None
        assert en._coprime_rep(A, A, op) is None
        f = rep_fn(A, A, op)
        _assert_same_table(f, en._sorted_rep(A, A, op))
        assert f.counts == oracle_rep_counts(A.elements, A.elements, op)
        assert pair_set_size(A, A, op) == f.size
    # four primes fit the count's key but not the pair index of a table's
    B = make_set([1] + [p ** k for p in (2, 3, 5, 7) for k in (1, E)])
    assert en._coprime_keys(B, B, "prod", False) is not None
    assert en._coprime_keys(B, B, "prod", True) is None
    want = oracle_rep_counts(B.elements, B.elements, "prod")
    assert pair_set_size(B, B, "prod") == rep_fn(B, B, "prod").size == len(want)


def test_products_and_ratios_past_int64_never_group_by_residues(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the residue-keyed kernel ran")

    monkeypatch.setattr(en, "_PairGroups", refuse)
    n = 768
    A = gp(1, 2, n)
    assert pair_set_size(A, A, "prod") == 2 * n - 1
    f = rep_fn(A, A, "ratio")
    assert f.size == 2 * n - 1 and f.scale == 1 << (n - 1)
    # 2**i / 2**j = 2**d for n - |d| pairs
    assert f.counts_array.tolist() == [n - abs(d) for d in range(-(n - 1), n)]
    assert f.scaled_values.dtype == object
    assert f.scaled_values.tolist() == [1 << (d + n - 1) for d in range(-(n - 1), n)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 1), st.lists(st.integers(0, 12), min_size=4,
                                                       max_size=4)),
                min_size=1, max_size=12))
def test_coprime_exponents_reproduce_every_number(terms):
    # products of powers of 6, 10, 15 and 7: 6, 10 and 15 share factors
    numbers = [sign * 6 ** a * 10 ** b * 15 ** c * 7 ** d
               for sign, (a, b, c, d) in terms]
    base, exps = coprime_exponents(numbers)
    assert all(math.gcd(u, v) == 1 for i, u in enumerate(base) for v in base[i + 1:])
    assert min(base, default=2) > 1
    assert exps.shape == (len(numbers), len(base)) and exps.dtype == np.int64
    for x, row in zip(numbers, exps.tolist()):
        assert math.prod(u ** e for u, e in zip(base, row)) == (abs(x) if x else 1)
        assert x or not any(row)


def test_coprime_exponents_give_up_past_the_cap():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert len(coprime_exponents(primes[:16])[0]) == 16
    assert coprime_exponents(primes) is None
    # a random wide set gives up within its first elements
    R = gen_family(FamilySpec.random_subset(1 << 200, 400, seed=3))
    assert R.int_view.coprime() is None and R.int_view.coprime() is None


def test_an_uncovered_number_raises(monkeypatch):
    # a refinement that forgets a factor must not yield a wrong vector
    monkeypatch.setattr(sets_module, "_refine", lambda base, x: True)
    with pytest.raises(ExactnessError):
        coprime_exponents([3, 5])
