"""A set keeps its own tables: `rep_fn` builds the table of A op A once per
set object and keeps it on the set for as long as the set lives.

The constructions and the checks all read their tables through `rep_fn`, so
nothing hands a table on.  These tests count the table builds of whole runs
at the private builder (`energy._build_rep`), on sets made fresh in each
test; check that a table already built gives the same results as one built
afresh; and check the lifetime, sharing and pickling of the kept tables.
"""

import gc
import json
import pickle
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sumsetlab import (
    FamilySpec,
    count_popular_difference_triples,
    count_popular_sum_triples,
    dominant_dyadic_class,
    energy,
    gen_family,
    make_set,
    popular_difference_mass,
    popular_sums,
    projection_count,
    refine_rich_core,
    rep_fn,
    rich_sum_elements,
    run_check,
)
from sumsetlab.cli import main
from sumsetlab.constructions import TWELVE_SEVENTHS
from sumsetlab.energy import to_float
from sumsetlab.verifier import DEFAULT_PAIR_BUDGET, DEFAULT_VERIFY_CHECKS, run_check_suite

en = sys.modules["sumsetlab.energy"]


@pytest.fixture
def table_builds(monkeypatch):
    """A Counter of (A, B, op) over every table built, counted at the
    private builder, so a table `rep_fn` returns from a set is not counted."""
    builds = Counter()
    original = en._build_rep

    def counted(A, B, op):
        builds[(A.elements, B.elements, op)] += 1
        return original(A, B, op)

    monkeypatch.setattr(en, "_build_rep", counted)
    return builds


def _key(A, op):
    return (A.elements, A.elements, op)


@pytest.mark.parametrize("spec", [
    FamilySpec.random_subset(4 * 40 * 40, 40, seed=7),
    FamilySpec.gp(1, 2, 70),
    FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 30),
], ids=lambda sp: sp.label())
def test_default_suite_builds_the_diff_and_sum_tables_once(spec, table_builds):
    A = gen_family(spec)
    results = run_check_suite(A)
    assert len(results) == len(DEFAULT_VERIFY_CHECKS)
    assert not any(r.failed for r in results)
    assert table_builds == Counter({_key(A, "diff"): 1, _key(A, "sum"): 1})


@pytest.mark.parametrize("spec", [
    FamilySpec.ap(1, 1, 64),
    FamilySpec.convex_power(2, 48),
    FamilySpec.random_subset(4 * 50 * 50, 50, seed=2),
    FamilySpec.perturbed(FamilySpec.ap(1, 1, 24), 24, seed=4),
], ids=lambda sp: sp.label())
def test_sum_proj_builds_each_table_once(spec, table_builds):
    A = gen_family(spec)
    assert run_check("sum_proj", A).verdict == "pass"
    assert table_builds and max(table_builds.values()) == 1
    assert table_builds[_key(A, "diff")] == 1


def test_cli_stats_builds_each_table_once(table_builds, capsys):
    assert main(["stats", "--family", "RandomSubset(10000)", "--n", "40",
                 "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n"] == 40
    assert sorted(op for _, _, op in table_builds) == ["diff", "ratio"]
    assert max(table_builds.values()) == 1


@pytest.mark.parametrize("spec", [
    FamilySpec.ap(1, 1, 64),
    FamilySpec.convex_power(2, 48),
    FamilySpec.random_subset(4 * 50 * 50, 50, seed=2),
    FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 40),
    FamilySpec.perturbed(FamilySpec.ap(1, 1, 32), 32, seed=4),
], ids=lambda sp: sp.label())
def test_a_sum_chain_round_builds_each_table_once(spec, table_builds):
    # the calls of one item of the sum-chain benchmark workload
    A = gen_family(spec)
    assert run_check("sum_proj", A).verdict == "pass"
    count_popular_sum_triples(A, len(A))
    count_popular_difference_triples(A)
    assert max(table_builds.values()) == 1
    assert table_builds[_key(A, "diff")] == table_builds[_key(A, "sum")] == 1


# -- a table already built gives what a fresh build gives ------------------------

CASES = {
    "ap": lambda: gen_family(FamilySpec.ap(1, 1, 64)),
    "rational-ap": lambda: gen_family(FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 48)),
    "perturbed": lambda: gen_family(
        FamilySpec.perturbed(FamilySpec.convex_power(2, 24), 24, seed=5)),
    "gp-past-int64": lambda: gen_family(FamilySpec.gp(1, 2, 72)),
    "two-steps": lambda: make_set(list(range(1, 65)) + [10 ** 6]),
}


@pytest.fixture(params=sorted(CASES))
def case(request, monkeypatch):
    if request.param == "two-steps":
        # With the natural log the first step meets the energy criterion on
        # every set of a size this suite can afford: at most |A|/(2 log|A|)
        # elements fail to be rich, too few to carry a log|A| share of the
        # energy.  With log pinned to 1 any proper rich subset fails it.
        # The outlier's sums are not popular, so the first step drops it;
        # the second step keeps the whole progression and stops.
        monkeypatch.setattr(sys.modules["sumsetlab.constructions"], "ambient_log",
                            lambda m: 1.0)
    return request.param, CASES[request.param]()


def test_popular_difference_mass_with_and_without_table(case):
    # A with its difference table built, against an equal set without one
    _, A = case
    rep_fn(A, A, "diff")
    assert popular_difference_mass(A) == popular_difference_mass(make_set(A.elements))


def test_refine_rich_core_with_and_without_table(case, table_builds):
    name, A = case
    rep_fn(A, A, "diff")
    B, trace = refine_rich_core(A)
    B2, trace2 = refine_rich_core(make_set(A.elements))
    assert (B2, trace2) == (B, trace)
    assert len(trace.iterates) == (2 if name == "two-steps" else 1)
    assert trace.stop_reason == "energy-criterion-met"
    for X, t in ((B, trace), (B2, trace2)):
        # the last step ran on X, with the ambient size |A|, and built the
        # difference tables of X and of its rich subset
        assert t.popular == popular_sums(X, len(A))
        assert t.rich == rich_sum_elements(X, t.popular)
        built = sum(table_builds.values())
        kept = [rep_fn(Y, Y, "diff") for Y in (X, t.rich)]
        assert sum(table_builds.values()) == built
        for Y, f in zip((X, t.rich), kept):
            assert f.counts == rep_fn(Y, make_set(Y.elements), "diff").counts


def test_sum_proj_matches_explicit_recomputation(case):
    _, A = case
    B, _ = refine_rich_core(A)
    pop = popular_sums(B, len(A))
    rich = rich_sum_elements(B, pop)
    dclass = dominant_dyadic_class(rep_fn(rich, rich, "diff"), TWELVE_SEVENTHS)
    proj = projection_count(pop, dclass.members, budget=DEFAULT_PAIR_BUDGET)
    e3 = energy(rep_fn(B, B, "diff"), 3).exact
    lhs = Fraction(dclass.level * len(dclass.members) * len(B), 2) ** 2
    rhs = e3 * proj

    r = run_check("sum_proj", A)
    assert r.inputs_desc == (f"|A|={len(A)},|B|={len(B)},level={dclass.level},"
                             f"class={len(dclass.members)}")
    assert (r.lhs, r.rhs) == (to_float(lhs), to_float(rhs))
    assert r.verdict == ("pass" if lhs <= rhs else "fail") == "pass"


# -- a kept table: read-only, as long-lived as its set, never pickled --------------

SETS = {
    "int64": lambda: gen_family(FamilySpec.random_subset(10_000, 40, seed=3)),
    "past-int64": lambda: gen_family(FamilySpec.gp(1, 2, 70)),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_a_kept_table_is_read_only(name):
    A = SETS[name]()
    for op in ("sum", "diff"):
        f = rep_fn(A, A, op)
        arrays = [a for a in (f.counts_array, f.scaled_values, f.pair_pos) if a is not None]
        assert len(arrays) == (3 if name == "past-int64" and op == "diff" else 2)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1
            with pytest.raises(ValueError):
                a += 1


def test_a_kept_table_lives_as_long_as_its_set():
    A = SETS["int64"]()
    f = rep_fn(A, A, "diff")
    assert rep_fn(A, A, "diff") is f
    table = weakref.ref(f)
    del A, f
    gc.collect()
    assert table() is None


def test_a_pickled_set_carries_no_tables(table_builds):
    A = SETS["past-int64"]()
    rep_fn(A, A, "diff")
    assert pickle.dumps(A) == pickle.dumps(make_set(A.elements))
    B = pickle.loads(pickle.dumps(A))
    assert B == A and B is not A
    assert rep_fn(B, B, "diff").counts == rep_fn(A, A, "diff").counts
    assert table_builds == Counter({_key(A, "diff"): 2})


def test_an_equal_but_distinct_set_builds_and_keeps_nothing(table_builds):
    A = SETS["int64"]()
    twin = make_set(A.elements)
    f = rep_fn(A, twin, "sum")
    assert rep_fn(A, twin, "sum") is not f
    assert table_builds == Counter({_key(A, "sum"): 2})
    kept = rep_fn(A, A, "sum")
    assert kept is not f and kept.counts == f.counts
    assert rep_fn(A, A, "sum") is kept
    assert table_builds == Counter({_key(A, "sum"): 3})
