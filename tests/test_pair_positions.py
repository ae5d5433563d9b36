"""Past int64, rich differences are read from the difference table's pair positions.

A same-set difference table past int64 places every positive-difference
pair of a set at its exact table entry (`RepFn.pair_pos`).  Rich elements
and the difference-side triple count read the popular mask at those entries
instead of looking each pair value up in the popular differences.
`SetCore.pair_size` reads the size of a table already built: for A with
itself the one kept on A, for a distinct B its own memo.  These tests hold
the table path to the `pair_membership` path and to brute-force oracles,
also when every residue key group of a lookup is a forced collision, and
count the calls the table path saves.
"""

import importlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from sumsetlab import (
    DomainError,
    FamilySpec,
    count_popular_difference_triples,
    gen_family,
    make_set,
    pair_set_size,
    popular_difference_mass,
    rep_fn,
    rich_difference_elements,
)
from sumsetlab.energy import pair_membership
from sumsetlab.verifier import SetCore, run_check_suite
from conftest import oracle_rep_counts, oracle_triples_diff

en = importlib.import_module("sumsetlab.energy")
sets_module = importlib.import_module("sumsetlab.sets")

PAST_INT64 = {
    "GP(1,2)": lambda: gen_family(FamilySpec.gp(1, 2, 70)),
    "GP(1,3)": lambda: gen_family(FamilySpec.gp(1, 3, 45)),
    "GP(3,5/2)": lambda: gen_family(FamilySpec.gp(3, Fraction(5, 2), 30)),
    "rational": lambda: make_set([Fraction(k, 7) for k in range(-30, 31, 2)]
                                 + [Fraction(1 << 70, 3), -(1 << 66), 5 << 64]),
}


@pytest.fixture(params=[False, True], ids=["keyed", "forced-collisions"])
def collide(request, monkeypatch):
    if request.param:
        # with primes 3 and 5 nearly every key group holds distinct values
        monkeypatch.setattr(en, "_KEY_PRIMES", (3, 5))
        monkeypatch.setattr(en, "_CHECK_CHUNK", 7)
    return request.param


def _oracle_popular_and_rich(A):
    """P and R by their definitions, from brute-force difference counts."""
    counts = oracle_rep_counts(A.elements, A.elements, "diff")
    n = len(A)
    P = {d for d, c in counts.items() if 11 * c * len(counts) >= n * n}
    return P, [x for x in A.elements
               if 11 * sum((x - a) in P for a in A.elements) ** 2 >= 4 * n * n]


@pytest.mark.parametrize("name", sorted(PAST_INT64))
def test_table_path_matches_membership_and_oracle(name, collide):
    A = PAST_INT64[name]()
    d = rep_fn(A, A, "diff")
    assert not d.is_numpy and d.pair_pos.dtype == np.int32
    assert d.pair_pos.size == len(A) * (len(A) - 1) // 2
    P, _ = popular_difference_mass(A)
    want_P, want_R = _oracle_popular_and_rich(A)
    assert set(P.elements) == want_P

    rich = rich_difference_elements(A)
    n = len(A)
    c = pair_membership(A, A, "diff", P, per_row=True)
    assert rich.elements == tuple(x for x, k in zip(A.elements, c.tolist()) if 11 * k * k >= 4 * n * n)
    assert list(rich.elements) == want_R

    popular = 11 * d.counts_array * d.size >= len(A) ** 2
    assert np.array_equal(d.pair_mask(popular), pair_membership(A, A, "diff", P))
    # every entry on: each pair lands on the entry of its own value
    values = d.support().elements
    placed = [values[k] for k in d.pair_pos.tolist()]
    lower = zip(*np.tril_indices(len(A), -1))
    assert placed == [A.elements[i] - A.elements[j] for i, j in lower]


def test_int64_tables_carry_no_positions():
    A = gen_family(FamilySpec.gp(1, 2, 40))
    d = rep_fn(A, A, "diff")
    assert d.is_numpy and d.pair_pos is None
    assert rep_fn(*(PAST_INT64["GP(1,2)"](),) * 2, "sum").pair_pos is None
    with pytest.raises(DomainError):
        d.pair_mask(np.ones(d.size, dtype=bool))


@pytest.mark.parametrize("n", [8, 20, 40])
def test_difference_triples_take_the_table_on_int64_sets(n):
    A = gen_family(FamilySpec.gp(1, 2, n))
    P, _ = popular_difference_mass(A)
    want = oracle_triples_diff(A, P)
    assert count_popular_difference_triples(A) == want
    # again, from the difference table A now keeps
    assert count_popular_difference_triples(A) == want


def test_difference_triples_past_int64_read_the_positions(monkeypatch, collide):
    A = PAST_INT64["rational"]()
    P, _ = popular_difference_mass(A)
    want = oracle_triples_diff(A, P)

    def no_lookup(*args, **kwargs):
        raise AssertionError("pair values were looked up in P")

    monkeypatch.setattr(sys.modules["sumsetlab.constructions"], "pair_membership", no_lookup)
    assert count_popular_difference_triples(A) == want
    assert count_popular_difference_triples(make_set(A.elements)) == want


def test_default_suite_past_int64_looks_up_no_pair_and_keys_nothing(monkeypatch):
    A = gen_family(FamilySpec.gp(1, 2, 80))
    lookups = []
    keyed = []
    original = sets_module._IntView.residues

    def residues(self, modulus):
        keyed.append(self)
        return original(self, modulus)

    monkeypatch.setattr(en, "_residue_lookup", lambda *a: lookups.append(a))
    monkeypatch.setattr(sets_module._IntView, "residues", residues)
    results = run_check_suite(A)
    assert not any(r.failed for r in results)
    assert lookups == []
    assert keyed == []


@pytest.mark.parametrize("spec", [
    FamilySpec.random_subset(4 * 40 * 40, 40, seed=7),
    FamilySpec.gp(1, 2, 70),
], ids=["int64", "past-int64"])
def test_pair_size_reads_a_built_table(spec, monkeypatch):
    A = gen_family(spec)  # fresh: a set keeps the tables built for it
    verifier = sys.modules["sumsetlab.verifier"]
    calls = []

    def counted(X, Y, op):
        calls.append(op)
        return pair_set_size(X, Y, op)

    monkeypatch.setattr(verifier, "pair_set_size", counted)
    run_check_suite(A)
    assert calls == []
    core = SetCore(A)
    core.rep("sum")
    assert core.pair_size("sum") == pair_set_size(A, A, "sum") and calls == []
    assert core.pair_size("prod") == pair_set_size(A, A, "prod") and calls == ["prod"]


@pytest.mark.parametrize("spec", [
    FamilySpec.random_subset(4 * 40 * 40, 40, seed=7),
    FamilySpec.gp(1, 2, 70),
], ids=["int64", "past-int64"])
def test_a_self_pair_reads_the_tables_kept_on_the_set(spec, monkeypatch):
    A = gen_family(spec)
    verifier = sys.modules["sumsetlab.verifier"]
    calls = []

    def counted(X, Y, op):
        calls.append(op)
        return pair_set_size(X, Y, op)

    monkeypatch.setattr(verifier, "pair_set_size", counted)
    core = SetCore(A)
    table = core.rep("diff")
    assert table is rep_fn(A, A, "diff") is A.int_view.kept("diff")
    # a built op is read from the set's table, with no pair_set_size
    assert core.pair_size("diff") == table.size and calls == []
    # an op not built is counted and builds no table
    assert core.pair_size("sum") == pair_set_size(A, A, "sum") and calls == ["sum"]
    assert A.int_view.kept("sum") is None
    assert not any(isinstance(key, tuple) and key[0] == "rep" for key in core._c)
    # only a distinct B keeps its table in the memo
    B = gen_family(spec)
    pair = SetCore(A, B)
    assert pair.rep("sum") is pair.rep("sum") and ("rep", "sum") in pair._c
    assert pair.pair_size("sum") == pair.rep("sum").size and calls == ["sum"]
