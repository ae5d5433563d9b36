from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumsetlab import (
    FamilySpec,
    FiniteSet,
    UnknownCheckError,
    check_ids,
    gen_family,
    make_set,
    pair_set_size,
    run_check,
    run_scan,
    search_extremal,
)
from sumsetlab import verifier
from sumsetlab.verifier import (
    DEFAULT_VERIFY_CHECKS,
    REGISTRY,
    run_check_suite,
    scan_rows_to_csv,
    scan_rows_to_json,
)
from conftest import int_sets

A123 = make_set([1, 2, 3])
ALL_ASSERT_IDS = [cid for cid, cdef in REGISTRY.items() if cdef.kind == "assert"]
ALL_RATIO_IDS = [cid for cid, cdef in REGISTRY.items() if cdef.kind == "ratio"]


def test_registry_covers_documented_ids():
    assert set(check_ids()) == {
        "cs_energy", "cs_proj", "popular_mass", "rich_size", "diff_proj",
        "sum_proj", "e127_trivial", "holder_s", "e2_interp", "e32_interp",
        "e2_lower", "convex_e3", "convex_es", "prop_ea", "rs_prop",
        "lemma6_e3", "thm_sp", "thm_csum", "thm_cdiff", "st_measure",
    }


def test_unknown_check_raises():
    with pytest.raises(UnknownCheckError):
        run_check("nope", A123)
    with pytest.raises(UnknownCheckError):
        run_check("holder_s[s:3/2]", A123)


@pytest.mark.parametrize("check, params", [
    ("holder_s", {"s": "x"}),
    ("convex_es", {"s": "1/0"}),
    ("popular_mass", {"const_scale": "1/0"}),
    ("e2_interp", {"const_scale": 1.5}),
    ("diff_proj", {"budget": "x"}),
    ("rs_prop", {"size_guard": "1/2"}),
    ("st_measure", {"slopes": "x"}),
    ("st_measure", {"intercepts": None}),
])
def test_malformed_check_parameter_raises_domain_error(check, params):
    from sumsetlab import DomainError

    (name, raw), = params.items()
    A = gen_family(FamilySpec.convex_power(2, 8))
    with pytest.raises(DomainError, match=f"check {check}: malformed parameter {name}="):
        run_check(check, A, params=params)
    if isinstance(raw, str):
        inline = f"{check}[{name}={raw}]"
        with pytest.raises(DomainError, match=f"malformed parameter {name}="):
            run_check(inline, A)
        with pytest.raises(DomainError, match=f"malformed parameter {name}="):
            run_scan([FamilySpec.convex_power(2, 1)], [8], [inline])


def test_theorem_ratios_read_the_objective_tables(monkeypatch):
    from sumsetlab.verifier import SetCore

    A = gen_family(FamilySpec.convex_power(2, 12))
    asked = []
    real = SetCore.pair_size
    monkeypatch.setattr(SetCore, "pair_size",
                        lambda self, op: asked.append(op) or real(self, op))
    exps = {"thm_sp": 4 / 3 + 10 / 4407, "thm_csum": 46 / 29, "thm_cdiff": 8 / 5 + 1 / 3440}
    ops = {"thm_sp": ("sum", "prod"), "thm_csum": ("sum",), "thm_cdiff": ("diff",)}
    for check, exp in exps.items():
        asked.clear()
        r = run_check(check, A)
        want = max(pair_set_size(A, A, op) for op in ops[check])
        assert asked == list(ops[check])
        assert (r.lhs, r.rhs, r.verdict) == (want, 12.0 ** exp, "ratio-report")
        assert r.inputs_desc == "|A|=12"


def test_diff_proj_frozen_example():
    r = run_check("diff_proj", A123)
    assert r.verdict == "pass"
    assert r.lhs == pytest.approx(9 * 3 ** 6 / 484)  # 13.5558...
    assert r.rhs == 45 * 19


def test_cs_energy_frozen_example():
    r = run_check("cs_energy", A123)
    assert (r.lhs, r.rhs, r.verdict) == (81.0, 95.0, "pass")
    r_sum = run_check("cs_energy", A123, params={"op": "sum"})
    assert (r_sum.lhs, r_sum.rhs, r_sum.verdict) == (81.0, 95.0, "pass")


def test_e127_trivial_singleton_tight():
    r = run_check("e127_trivial", make_set([5]))
    assert r.verdict == "pass"
    assert r.lhs == pytest.approx(1.0)


def test_thm_sp_frozen_example():
    r = run_check("thm_sp", gen_family(FamilySpec.gp(1, 2, 4)))
    assert r.verdict == "ratio-report"
    assert r.lhs == 10  # sums of {1,2,4,8}
    assert r.ratio == pytest.approx(10 / 4 ** (4 / 3 + 10 / 4407), rel=1e-12)


@pytest.mark.parametrize("cid", DEFAULT_VERIFY_CHECKS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_suite_on_random_sets(cid, seed):
    n = 3 + 37 * (seed + 1)
    A = gen_family(FamilySpec.random_subset(4 * n * n, n, seed=seed))
    assert run_check(cid, A).verdict == "pass"


@pytest.mark.parametrize("cid", DEFAULT_VERIFY_CHECKS)
def test_default_suite_on_adversarial_sets(cid):
    for A in (make_set([7]), make_set([0, 1]), make_set([-4, 0, 4]),
              make_set([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])):
        r = run_check(cid, A)
        assert r.verdict == "pass", (cid, A.elements, r.verdict)


def test_forced_failure_via_constant_override():
    ok = run_check("popular_mass", A123)
    assert ok.verdict == "pass"
    bad = run_check("popular_mass", A123, params={"const_scale": "100"})
    assert bad.verdict == "fail"
    bad_float = run_check("e2_interp", A123, params={"const_scale": 50})
    assert bad_float.verdict == "fail"


def test_convexity_skips():
    r = run_check("thm_csum", A123)  # equal gaps: not convex
    assert r.verdict == "skipped(not-convex)"
    r2 = run_check("thm_csum", gen_family(FamilySpec.convex_power(2, 16)))
    assert r2.verdict == "ratio-report"
    assert r2.lhs == 122  # distinct sums of two squares up to 16^2
    assert r2.ratio > 1


def test_budget_skip_on_big_geometric():
    A = gen_family(FamilySpec.gp(1, 2, 60))
    r = run_check("diff_proj", A, params={"budget": 100_000})
    assert r.verdict == "skipped(budget)"


@pytest.mark.parametrize("suite", [
    ["diff_proj[budget=10]", "diff_proj"],
    ["sum_proj[budget=10]", "sum_proj", "diff_proj[budget=10]", "cs_proj"],
])
def test_inline_budget_stays_with_its_check(suite):
    # a check's inline budget must not reach later checks on the same set
    A = gen_family(FamilySpec.random_subset(1 << 40, 30, seed=3))
    alone = {cid: run_check(cid, A).verdict for cid in suite}
    assert alone["diff_proj[budget=10]"] == "skipped(budget)"
    for order in (suite, suite[::-1]):
        assert {r.check_id: r.verdict for r in run_check_suite(A, order)} == alone
        rows = run_scan([FamilySpec.random_subset(1 << 40, 1, seed=3)], [30], order)
        assert {r.check_id: r.verdict for r in rows} == alone


def test_sum_proj_pass_and_guard():
    r = run_check("sum_proj", gen_family(FamilySpec.ap(1, 1, 64)))
    assert r.verdict == "pass"
    tiny = run_check("sum_proj", make_set([1, 2]))
    assert tiny.verdict == "skipped(guard:too-small)"


@pytest.mark.parametrize("seed", range(12))
def test_sum_proj_on_random_sets(seed):
    n = 3 + (seed * 37) % 198
    A = gen_family(FamilySpec.random_subset(4 * n * n, n, seed=seed))
    r = run_check("sum_proj", A)
    assert r.verdict in ("pass",) or r.verdict.startswith("skipped(guard")


def test_sum_proj_collision_half_decomposes():
    # the actual triple count also satisfies the collision-side inequality
    from fractions import Fraction as F

    from sumsetlab import (
        count_popular_sum_triples,
        dominant_dyadic_class,
        energy,
        popular_sums,
        projection_count,
        rep_fn,
        rich_sum_elements,
    )

    for n, seed in ((40, 1), (80, 2)):
        B = gen_family(FamilySpec.random_subset(4 * n * n, n, seed=seed))
        count, level, cls_size = count_popular_sum_triples(B, n)
        P = popular_sums(B, n)
        R = rich_sum_elements(B, P)
        cls = dominant_dyadic_class(rep_fn(R, R, "diff"), F(12, 7))
        proj = projection_count(P, cls.members)
        e3 = energy(rep_fn(B, B, "diff"), 3).exact
        assert 2 * count >= level * cls_size * n
        assert count * count <= e3 * proj


def test_rs_prop_reports_quantile():
    A = gen_family(FamilySpec.random_subset(900, 30, seed=2))
    r = run_check("rs_prop", A)
    assert r.verdict == "ratio-report"
    assert "q64" in r.inputs_desc
    big = gen_family(FamilySpec.random_subset(400_000, 300, seed=2))
    assert run_check("rs_prop", big).verdict == "skipped(budget)"
    withzero = make_set([0, 1, 2, 3, 4])
    assert run_check("rs_prop", withzero).verdict == "skipped(zero-in-set)"


def test_holder_requires_s_in_range():
    from sumsetlab import DomainError

    with pytest.raises(DomainError):
        run_check("holder_s[s=3]", A123)


@settings(max_examples=20, deadline=None)
@given(int_sets)
def test_assert_suite_property(A):
    for r in run_check_suite(A):
        assert r.verdict == "pass", (r.check_id, A.elements)


def test_ratio_checks_never_fail():
    for cid in ALL_RATIO_IDS:
        for A in (A123, gen_family(FamilySpec.convex_power(2, 12)),
                  gen_family(FamilySpec.random_subset(500, 20, seed=1))):
            r = run_check(cid, A)
            assert r.verdict != "fail"
            assert r.verdict == "ratio-report" or r.verdict.startswith("skipped")


def test_check_results_expose_ratio():
    r = run_check("cs_energy", A123)
    assert r.ratio == pytest.approx(r.lhs / r.rhs)


# -- scans -------------------------------------------------------------------------

def test_scan_single_cell():
    rows = run_scan([FamilySpec.parse("AP(1,1)")], [5], ["cs_energy"])
    assert len(rows) == 1
    assert rows[0].family == "AP(1,1)" and rows[0].n == 5
    assert rows[0].verdict == "pass"


def test_scan_ordering_and_cardinality():
    rows = run_scan(
        [FamilySpec.parse("GP(1,2)"), FamilySpec.parse("AP(1,1)")],
        [16, 8],
        ["thm_sp", "cs_energy"],
    )
    assert len(rows) == 8
    keys = [(r.family, r.n, r.check_id) for r in rows]
    assert keys == sorted(keys)


def test_scan_isolates_failures_and_errors():
    rows = run_scan(
        [FamilySpec.parse("AP(1,1)"), FamilySpec.parse("RandomSubset(4)")],
        [10],
        ["popular_mass[const_scale=100]", "cs_energy"],
    )
    verdicts = {(r.family, r.check_id): r.verdict for r in rows}
    assert verdicts[("AP(1,1)", "cs_energy")] == "pass"
    assert verdicts[("AP(1,1)", "popular_mass[const_scale=100]")] == "fail"
    # RandomSubset(4) cannot produce 10 elements: every cell skips, scan survives
    assert verdicts[("RandomSubset(4)", "cs_energy")].startswith("skipped(gen-error")


def test_scan_determinism_and_serialization():
    fams = [FamilySpec.parse("AP(1,1)"), FamilySpec.parse("RandomSubset(4000)")]
    rows1 = run_scan(fams, [8, 16], ["cs_energy", "thm_sp", "lemma6_e3"], seed=5)
    rows2 = run_scan(fams, [8, 16], ["cs_energy", "thm_sp", "lemma6_e3"], seed=5)
    assert scan_rows_to_csv(rows1) == scan_rows_to_csv(rows2)
    csv_text = scan_rows_to_csv(rows1)
    header = csv_text.splitlines()[0]
    assert header == "family,n,check_id,lhs,rhs,ratio,verdict,elapsed_s"
    js = scan_rows_to_json(rows1)
    import json

    payload = json.loads(js)
    assert len(payload) == len(rows1)
    assert set(payload[0]) == {"family", "n", "check_id", "lhs", "rhs", "ratio",
                               "verdict", "elapsed_s"}


def test_scan_jobs_agree_with_serial():
    fams = [FamilySpec.parse("AP(1,1)"), FamilySpec.parse("ConvexPower(2)")]
    serial = run_scan(fams, [8, 16], ["cs_energy", "thm_sp"], seed=1, jobs=1)
    parallel = run_scan(fams, [8, 16], ["cs_energy", "thm_sp"], seed=1, jobs=4)
    assert scan_rows_to_csv(serial) == scan_rows_to_csv(parallel)


def test_scan_validates_ids_upfront():
    with pytest.raises(UnknownCheckError):
        run_scan([FamilySpec.parse("AP(1,1)")], [4], ["bogus"])


def test_gp_thm_sp_ratio_grows_with_n():
    # |A+A| = n(n+1)/2 for powers of two while the exponent sits below 2
    rows = run_scan([FamilySpec.parse("GP(1,2)")], [8, 16, 32, 64], ["thm_sp"])
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios)
    assert ratios[0] > 1


def test_scan_derived_companion_is_deterministic():
    from sumsetlab.verifier import _derived_b

    fams = [FamilySpec.parse("ConvexPower(2)")]
    r1 = run_scan(fams, [32], ["convex_e3"], seed=9)
    r2 = run_scan(fams, [32], ["convex_e3"], seed=9)
    assert r1[0].lhs == r2[0].lhs and r1[0].ratio == r2[0].ratio
    # the companion set is a pure function of (seed, family, n, check)
    assert _derived_b(9, "ConvexPower(2)", 32, "convex_e3") == \
        _derived_b(9, "ConvexPower(2)", 32, "convex_e3")
    assert _derived_b(9, "ConvexPower(2)", 32, "convex_e3") != \
        _derived_b(10, "ConvexPower(2)", 32, "convex_e3")


# -- extremal search -----------------------------------------------------------------

def test_search_budget_one_returns_start():
    res = search_extremal("thm_sp", 8, 1, seed=0)
    ap = make_set(range(1, 9))
    want = max(pair_set_size(ap, ap, "sum"), pair_set_size(ap, ap, "prod"))
    assert res.best == ap
    assert res.ratio == want / 8 ** (4 / 3 + 10 / 4407)
    assert len(res.trajectory) == 1


# n distinct integers in [1, 4n^2], the search's states
search_states = st.integers(4, 40).flatmap(
    lambda n: st.lists(st.integers(1, 4 * n * n), min_size=n, max_size=n, unique=True))


@settings(max_examples=60, deadline=None)
@given(search_states)
@example([1, 2, 3, 64])
# the int32/int64 rule for products: 4n^2 in the set, on either side of n = 107
@example(list(range(1, 107)) + [4 * 107 ** 2])
@example(list(range(1, 108)) + [4 * 108 ** 2])
# in int32, 65536 * 65537 = 2^32 + 65536 would wrap onto 1 * 65536
@example(list(range(1, 127)) + [65536, 65537, 4 * 129 ** 2])
def test_search_objective_counts_match_pair_set_size_and_brute_force(values):
    n = len(values)
    A = make_set(values)
    got = {}
    for objective in ("thm_sp", "thm_csum", "thm_cdiff"):
        got.update(zip(verifier._OBJECTIVE_OPS[objective],
                       verifier._Objective(objective, n).sizes(values)))
    for op, size in got.items():
        assert size == pair_set_size(A, A, op), op
    if n <= 12:
        assert got == {"sum": len({a + b for a in values for b in values}),
                       "diff": len({a - b for a in values for b in values}),
                       "prod": len({a * b for a in values for b in values})}


def test_search_builds_no_set_per_evaluation(monkeypatch):
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return FiniteSet(*args, **kwargs)

    monkeypatch.setattr(verifier, "FiniteSet", spy)
    counts = []
    for budget in (30, 300):
        built.clear()
        search_extremal("thm_sp", 16, budget, seed=1)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 1


def test_search_refuses_an_n_whose_products_pass_int64(monkeypatch):
    from sumsetlab import DomainError

    def allocate(*args):
        raise AssertionError("the objective's tables were allocated")

    # 16 n^4 >= 2^63 from n = 27 555 on; raised before any table is allocated
    monkeypatch.setattr(verifier, "_Objective", allocate)
    for objective in ("thm_sp", "thm_csum", "thm_cdiff"):
        for n in (27_555, 10 ** 6):
            with pytest.raises(DomainError, match=r"2\^63"):
                search_extremal(objective, n, 10)


def test_search_dominates_its_start():
    res = search_extremal("thm_sp", 8, 400, seed=3)
    start = search_extremal("thm_sp", 8, 1, seed=3)
    assert res.ratio <= start.ratio
    assert res.ratio > 0
    assert len(res.best) == 8
    assert all(1 <= x <= 4 * 64 for x in res.best)


def test_search_trajectory_monotone_and_deterministic():
    r1 = search_extremal("thm_cdiff", 10, 300, seed=7)
    r2 = search_extremal("thm_cdiff", 10, 300, seed=7)
    assert r1.best == r2.best and r1.trajectory == r2.trajectory
    for a, b in zip(r1.trajectory, r1.trajectory[1:]):
        assert b <= a


def test_search_argument_validation():
    from sumsetlab import DomainError

    with pytest.raises(DomainError):
        search_extremal("thm_sp", 3, 10)
    with pytest.raises(DomainError):
        search_extremal("thm_sp", 8, 0)
    with pytest.raises(DomainError):
        search_extremal("nope", 8, 10)


# -- the judge: one verdict rule for every check -----------------------------

def test_exact_assert_passes_at_its_boundary_and_fails_just_above():
    A = gen_family(FamilySpec.random_subset(400, 20, seed=4))
    r = run_check("rich_size", A)
    lhs, rhs = Fraction(int(r.lhs)), Fraction(int(r.rhs))
    assert r.verdict == "pass" and lhs < rhs
    at = rhs / lhs
    assert run_check("rich_size", A, params={"const_scale": str(at)}).verdict == "pass"
    above = at * (1 + Fraction(1, 10 ** 20))  # below float resolution
    assert run_check("rich_size", A, params={"const_scale": str(above)}).verdict == "fail"


def test_float_assert_allows_the_relative_slack_and_no_more():
    A = gen_family(FamilySpec.random_subset(400, 20, seed=4))
    r = run_check("e2_interp", A)
    assert r.verdict == "pass" and 1 < r.lhs < r.rhs
    tight = Fraction(r.rhs) / Fraction(r.lhs)
    inside = tight * (1 + Fraction(1, 10 ** 10))
    outside = tight * (1 + Fraction(1, 10 ** 7))
    assert run_check("e2_interp", A, params={"const_scale": str(inside)}).verdict == "pass"
    assert run_check("e2_interp", A, params={"const_scale": str(outside)}).verdict == "fail"


def test_const_scale_is_read_only_for_a_measured_assert_check():
    # a ratio check never reads it, and a skipped check stops before its verdict
    bad = {"const_scale": "x"}
    assert run_check("thm_sp", A123, params=bad).verdict == "ratio-report"
    r = run_check("sum_proj", make_set([1, 2]), params=bad)
    assert r.verdict == "skipped(guard:too-small)"
    assert run_check("e127_trivial", make_set([]), params=bad).verdict == "skipped(guard:empty)"
    from sumsetlab import DomainError

    with pytest.raises(DomainError, match="malformed parameter const_scale="):
        run_check("cs_energy", A123, params=bad)
