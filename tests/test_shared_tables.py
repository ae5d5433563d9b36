"""Each table of a set is built once and handed on.

The checks of one set share a `SetCore`; the constructions take the
difference table their caller holds; `refine_rich_core` hands back the
tables of its last step, which `sum_proj` reads.  These tests count the
`rep_fn` calls of whole runs, and check that a passed-in table gives the
same results as one the construction builds itself.
"""

import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from sumsetlab import (
    FamilySpec,
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


@pytest.fixture
def table_builds(monkeypatch):
    """A Counter of (A, B, op) over every rep_fn call made through a package
    module that binds the name (the verifier and the constructions).

    Modules come from sys.modules: the attribute `sumsetlab.energy` is the
    function `energy`, not its module."""
    builds = Counter()
    energy_module = sys.modules["sumsetlab.energy"]
    original = energy_module.rep_fn

    def counted(A, B, op):
        builds[(A.elements, B.elements, op)] += 1
        return original(A, B, op)

    for name, module in list(sys.modules.items()):
        if (name.startswith("sumsetlab.") and module is not energy_module
                and getattr(module, "rep_fn", None) is original):
            monkeypatch.setattr(module, "rep_fn", counted)
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


# -- a passed-in table changes nothing -------------------------------------------

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
    _, A = case
    assert popular_difference_mass(A, table=rep_fn(A, A, "diff")) == popular_difference_mass(A)


def test_refine_rich_core_with_and_without_table(case):
    name, A = case
    B, trace = refine_rich_core(A)
    B2, trace2 = refine_rich_core(A, table=rep_fn(A, A, "diff"))
    assert (B2, trace2) == (B, trace)
    assert len(trace.iterates) == (2 if name == "two-steps" else 1)
    assert trace.stop_reason == "energy-criterion-met"
    for t in (trace, trace2):
        # the last step ran on B, with the ambient size |A|
        assert t.popular == popular_sums(B, len(A))
        assert t.rich == rich_sum_elements(B, t.popular)
        assert t.table.counts == rep_fn(B, B, "diff").counts
        assert t.rich_table.counts == rep_fn(t.rich, t.rich, "diff").counts


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
