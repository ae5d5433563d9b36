import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    FiniteSet,
    BudgetExceededError,
    DomainError,
    FamilySpec,
    ambient_log,
    count_popular_difference_triples,
    count_popular_sum_triples,
    dominant_dyadic_class,
    energy,
    gen_family,
    make_set,
    popular_difference_mass,
    popular_differences,
    popular_sums,
    projection_count,
    refine_rich_core,
    rep_fn,
    rich_difference_elements,
    rich_sum_elements,
    transform,
)
from conftest import int_sets, oracle_triples_diff

A123 = make_set([1, 2, 3])


# -- popular differences -------------------------------------------------------

def test_popular_differences_examples():
    assert popular_differences(A123).elements == (-2, -1, 0, 1, 2)
    assert popular_differences(make_set([7])).elements == (0,)
    assert 0 in popular_differences(gen_family(FamilySpec.gp(1, 2, 8)))
    # at the threshold |A|^2 / (11 |A-A|): 4096 / (11 * 127) = 2.93 for
    # {0..63}, where only the counts 64 - |x| >= 3 are popular, and exactly
    # 1089 / (11 * 99) = 1 for {0..31, 49}, where every difference is
    assert popular_differences(make_set(range(64))).elements == tuple(range(-61, 62))
    A = make_set(list(range(32)) + [49])
    assert popular_differences(A) == rep_fn(A, A, "diff").support()
    assert rep_fn(A, A, "diff").size == 99


@settings(max_examples=60, deadline=None)
@given(int_sets)
def test_popular_mass_bound(A):
    P, mass = popular_difference_mass(A)
    assert 11 * mass >= 10 * len(A) ** 2
    d = rep_fn(A, A, "diff")
    assert mass == sum(d.counts[x] for x in P.elements)


@pytest.mark.parametrize("n", [3, 10, 64, 200])
@pytest.mark.parametrize("kind", ["ap", "gp", "cp"])
def test_popular_mass_bound_families(kind, n):
    spec = {"ap": FamilySpec.ap(1, 1, n),
            "gp": FamilySpec.gp(1, 2, n),
            "cp": FamilySpec.convex_power(2, n)}[kind]
    A = gen_family(spec)
    _, mass = popular_difference_mass(A)
    assert 11 * mass >= 10 * n * n


# -- rich difference elements ----------------------------------------------------

def test_rich_difference_examples():
    assert rich_difference_elements(A123) == A123
    lone = make_set([4])
    assert rich_difference_elements(lone) == lone


@settings(max_examples=60, deadline=None)
@given(int_sets)
def test_rich_size_exceeds_half(A):
    R = rich_difference_elements(A)
    assert 2 * len(R) > len(A)


@settings(max_examples=40, deadline=None)
@given(int_sets)
def test_per_rich_element_pair_bound(A):
    # every rich r admits at least (4/11)|A|^2 pairs with both shifts popular
    P = popular_differences(A)
    n = len(A)
    for r in rich_difference_elements(A):
        hits = sum(1 for a in A if (r - a) in P)
        assert 11 * hits * hits >= 4 * n * n


# -- popular sums / rich sum elements -------------------------------------------

def test_popular_sums_examples():
    ps = popular_sums(A123, 3)
    assert ps.elements == (2, 3, 4, 5, 6)  # threshold ~0.205 keeps everything
    assert popular_sums(make_set([7]), 10).elements == (14,)


@settings(max_examples=40, deadline=None)
@given(int_sets, st.integers(3, 500))
def test_popular_sums_subset_of_sumset(X, ambient):
    from sumsetlab import pair_set

    ps = popular_sums(X, ambient)
    assert set(ps) <= set(pair_set(X, X, "sum"))


def test_popular_sums_ambient_domain():
    with pytest.raises(DomainError):
        popular_sums(A123, 2)


def test_rich_sum_examples():
    ps = popular_sums(A123, 3)
    assert rich_sum_elements(A123, ps) == A123
    lone = make_set([9])
    assert rich_sum_elements(lone, popular_sums(lone, 10)) == lone


@settings(max_examples=40, deadline=None)
@given(int_sets, st.integers(3, 200))
def test_rich_sum_size_bound(X, ambient):
    R = rich_sum_elements(X, popular_sums(X, ambient))
    assert len(R) >= (1 - 1 / (2 * ambient_log(ambient))) * len(X)


def test_popular_sums_threshold_matches_exact_arithmetic():
    # recompute the float-thresholded selection with exact high-precision cuts
    import mpmath

    for seed in range(8):
        X = gen_family(FamilySpec.random_subset(300, 20, seed=seed))
        m = 40
        s = rep_fn(X, X, "sum")
        with mpmath.workdps(80):
            thr = mpmath.mpf(len(X) ** 2) / (8 * s.size * mpmath.log(m))
            want = {x for x, c in s.counts.items() if mpmath.mpf(c) >= thr}
        assert set(popular_sums(X, m)) == want


def test_sum_popular_mask_decides_counts_next_to_a_large_threshold(monkeypatch):
    # n = 10**6, support 1, ambient 3: the threshold 10**12 / (8 ln 3) is
    # about 1.14e11, and counts at its floor and ceiling lie within the 1e-9
    # float window, so the exact decimal comparison decides them
    import mpmath
    from sumsetlab import constructions as C

    n, support, ambient = 10 ** 6, 1, 3
    with mpmath.workdps(100):
        thr = mpmath.mpf(n * n) / (8 * support * mpmath.log(ambient))
        floor = int(mpmath.floor(thr))
        counts = [floor - 1, floor, floor + 1, floor + 2]
        want = [mpmath.mpf(c) >= thr for c in counts]
    assert want == [False, False, True, True]
    calls = []
    exact = C._meets_log_threshold
    monkeypatch.setattr(C, "_meets_log_threshold", lambda *a: calls.append(a) or exact(*a))
    got = C._sum_popular_mask(np.array(counts, dtype=np.int64), n, support, ambient)
    assert got.tolist() == want
    assert len(calls) == len(counts)
    # 10**40 ln 3 next to an integer: 32 digits cannot decide, 64 can
    with mpmath.workdps(100):
        edge = int(mpmath.floor(mpmath.mpf(10) ** 40 * mpmath.log(3)))
    assert exact(10 ** 40, edge, 1, 3) and not exact(10 ** 40, edge + 1, 1, 3)


# -- refinement ------------------------------------------------------------------

def test_refine_examples():
    B, trace = refine_rich_core(A123)
    assert B == A123
    assert trace.stop_reason == "energy-criterion-met"
    assert trace.iterates[0] == A123


def test_refine_requires_three_elements():
    with pytest.raises(DomainError):
        refine_rich_core(make_set([1, 2]))


@pytest.mark.parametrize("n", [3, 8, 33, 64, 128])
@pytest.mark.parametrize("kind", ["ap", "cp", "rand"])
def test_refine_contract(kind, n):
    spec = {"ap": FamilySpec.ap(1, 1, n),
            "cp": FamilySpec.convex_power(2, n),
            "rand": FamilySpec.random_subset(4 * n * n, n, seed=n)}[kind]
    A = gen_family(spec)
    B, trace = refine_rich_core(A)
    assert len(trace.iterates) <= math.floor(ambient_log(n)) + 1
    for big, small in zip(trace.iterates, trace.iterates[1:]):
        assert set(small) <= set(big)
    if trace.stop_reason == "energy-criterion-met":
        assert 2 * len(B) >= len(A)


# -- dyadic classes ----------------------------------------------------------------

def test_dominant_dyadic_class_frozen_example():
    d = rep_fn(A123, A123, "diff")
    cls = dominant_dyadic_class(d, 3)
    assert cls.level == 2
    assert cls.members.elements == (-1, 0, 1)
    assert cls.weighted_mass.exact == 43  # 8 + 27 + 8


def test_dominant_dyadic_class_singleton():
    f = rep_fn(make_set([0]), make_set([0]), "diff")
    cls = dominant_dyadic_class(f, Fraction(12, 7))
    assert cls.level == 1
    assert cls.members.elements == (0,)


def test_dominant_dyadic_class_empty_rejected():
    f = rep_fn(make_set([]), make_set([]), "sum")
    with pytest.raises(DomainError):
        dominant_dyadic_class(f, 2)


@settings(max_examples=50, deadline=None)
@given(int_sets, st.sampled_from([Fraction(12, 7), 2, 3]))
def test_dyadic_pigeonhole_guarantee(A, k):
    d = rep_fn(A, A, "diff")
    cls = dominant_dyadic_class(d, k)
    # members really live in [level, 2*level)
    for x in cls.members:
        assert cls.level <= d.counts[x] < 2 * cls.level
    n_classes = max(c.bit_length() for c in d.counts.values())
    assert cls.weighted_mass.approx * n_classes >= energy(d, k).approx * (1 - 1e-9)


@settings(max_examples=30, deadline=None)
@given(int_sets)
def test_e127_trivial_bounds(Z):
    e = energy(rep_fn(Z, Z, "diff"), Fraction(12, 7)).approx
    n = len(Z)
    assert n * n <= e * (1 + 1e-9)
    assert e <= n ** 3 * (1 + 1e-9)


# -- triple counts ------------------------------------------------------------------

def test_triple_count_diff_examples():
    assert count_popular_difference_triples(A123) == 27
    assert count_popular_difference_triples(make_set([9])) == 1


def test_triple_count_diff_guard():
    A = gen_family(FamilySpec.ap(1, 1, 30))
    with pytest.raises(BudgetExceededError):
        count_popular_difference_triples(A, size_guard=10)
    # override lets it run
    assert count_popular_difference_triples(A, size_guard=30) > 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=18).map(make_set))
def test_triple_count_diff_matches_bruteforce(A):
    got = count_popular_difference_triples(A)
    assert got == oracle_triples_diff(A, popular_differences(A))


@settings(max_examples=25, deadline=None)
@given(int_sets)
def test_triple_count_diff_lower_bound(A):
    # inclusion-exclusion constant: (10/11 + 4/11 - 1) * |R| > 3/22 |A|^3
    got = count_popular_difference_triples(A)
    assert 22 * got >= 3 * len(A) ** 3


def test_triple_count_diff_rational_path_agrees():
    # scaling by 1/7 forces the big-integer fallback; counts are scale-invariant
    for seed in (0, 1, 2):
        A = gen_family(FamilySpec.random_subset(900, 21, seed=seed))
        S = transform(A, Fraction(1, 7), Fraction(2, 3))
        assert count_popular_difference_triples(A) == count_popular_difference_triples(S)


def test_triple_count_sum_frozen_example():
    count, level, cls_size = count_popular_sum_triples(A123, 3)
    # brute recount: popular sums = all of A+A, rich = A, class = {-1,0,1}
    assert (count, level, cls_size) == (21, 2, 3)
    assert count >= level * cls_size * len(A123) / 2
    assert count <= len(A123) ** 3


def test_triple_count_sum_singleton():
    count, level, cls_size = count_popular_sum_triples(make_set([4]), 5)
    assert (count, level, cls_size) == (1, 1, 1)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=14).map(make_set),
       st.integers(3, 60))
def test_triple_count_sum_matches_bruteforce(B, ambient):
    count, level, cls_size = count_popular_sum_triples(B, ambient)
    P = popular_sums(B, ambient)
    R = rich_sum_elements(B, P)
    cls = dominant_dyadic_class(rep_fn(R, R, "diff"), Fraction(12, 7))
    want = 0
    for r1 in R:
        for r2 in R:
            if (r1 - r2) not in cls.members:
                continue
            for b in B:
                if (r1 + b) in P and (r2 + b) in P:
                    want += 1
    assert count == want
    assert 2 * count >= level * cls_size * len(B)
    assert count <= len(B) ** 3


@pytest.mark.parametrize("n", [48, 96])
def test_sum_triple_bound_midsize(n):
    B = gen_family(FamilySpec.random_subset(4 * n * n, n, seed=n))
    count, level, cls_size = count_popular_sum_triples(B, n)
    assert 2 * count >= level * cls_size * n


# -- cross-checks of the composed inequalities --------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-200, 200), min_size=1, max_size=22).map(make_set))
def test_projection_chain_on_triples(A):
    # the collision argument: triples^2 <= E_3(A) * proj(P, P)
    P = popular_differences(A)
    t = count_popular_difference_triples(A)
    e3 = energy(rep_fn(A, A, "diff"), 3).exact
    assert t * t <= e3 * projection_count(P, P)


def test_fiber_enumeration_matches_collision_bound():
    # enumerate the triple set, its image, and its collisions explicitly
    A = make_set([0, 1, 3, 7, 12])
    P = popular_differences(A)
    R = rich_difference_elements(A)
    S = [
        (r, a1, a2)
        for r in R for a1 in A for a2 in A
        if (r - a1) in P and (r - a2) in P and (a1 - a2) in P
    ]
    image = {}
    for (r, a1, a2) in S:
        image.setdefault((r - a2, r - a1), 0)
        image[(r - a2, r - a1)] += 1
    collisions = sum(v * v for v in image.values())
    assert len(S) ** 2 <= len(image) * collisions
    e3 = energy(rep_fn(A, A, "diff"), 3).exact
    assert collisions <= e3
    assert len(S) == count_popular_difference_triples(A)


def _dyadic_reference(f, k):
    # one boolean mask per occupied level, as a direct reading of the
    # definition; ties go to the smaller level
    counts = f.counts_array
    levels = [c.bit_length() - 1 for c in counts.tolist()]
    best = None
    for level in sorted(set(levels)):
        mask = np.array([l == level for l in levels])
        sel = counts[mask]
        if isinstance(k, int):
            exact = sum(int(c) ** k for c in sel.tolist())
            mass = (float(exact), exact)
        else:
            mass = (float(np.sum(np.power(sel.astype(np.float64), float(k)))), None)
        if best is None or mass[0] > best[1][0]:
            best = (level, mass, mask)
    return best


@settings(max_examples=60, deadline=None)
@given(int_sets, st.sampled_from([Fraction(12, 7), Fraction(1, 2), 2, 3]),
       st.sampled_from(["diff", "sum"]))
def test_dominant_dyadic_class_matches_per_level_masks(A, k, op):
    f = rep_fn(A, A, op)
    level, (mass_f, exact), mask = _dyadic_reference(f, k)
    cls = dominant_dyadic_class(f, k)
    assert cls.level == 1 << level
    assert cls.members == f.select(mask)
    assert cls.weighted_mass.approx == mass_f  # the same float, bit for bit
    assert cls.weighted_mass.exact == exact


def test_dominant_dyadic_class_tie_goes_to_smaller_level():
    h = rep_fn(make_set([0, 1]), make_set([0, 1, 10, 20, 21, 30, 31, 32]), "sum")
    # eight sums have count 1 and four have count 2: at k = 1 both levels
    # weigh 8, and the class of counts in [1, 2) wins
    assert sorted(h.counts.values()) == [1] * 8 + [2] * 4
    assert dominant_dyadic_class(h, 1).level == 1


@pytest.mark.parametrize("spec", [
    FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 30),
    FamilySpec.random_subset(4000, 40, seed=3),
    FamilySpec.gp(1, 2, 40),  # past int64: no int64 view to carry
    FamilySpec.perturbed(FamilySpec.convex_power(2, 24), 24, seed=5),
])
def test_popular_and_rich_sets_match_definitions_and_fresh_views(spec):
    A = gen_family(spec)
    n = len(A)

    def same_as_fresh(S):
        fresh = FiniteSet(S.elements)
        assert S == fresh and S.int_view.scale == fresh.int_view.scale
        assert S.int_view.arr.dtype == fresh.int_view.arr.dtype
        assert S.int_view.arr.tolist() == fresh.int_view.arr.tolist()

    P = popular_differences(A)
    members = set(P.elements)
    want = [x for x in A if 11 * sum(x - a in members for a in A) ** 2 >= 4 * n * n]
    R = rich_difference_elements(A)
    assert R.elements == tuple(want)
    S = popular_sums(A, 100)
    members = set(S.elements)
    want = [x for x in A if 4 * sum(x + a in members for a in A) >= 3 * n]
    T = rich_sum_elements(A, S)
    assert T.elements == tuple(want)
    for built in (P, R, S, T):
        same_as_fresh(built)


# -- table selections build their exact elements only when read ---------------

def _oracle_differences(A):
    counts = {}
    for a in A.elements:
        for b in A.elements:
            counts[a - b] = counts.get(a - b, 0) + 1
    return counts


def _popular_case(spec):
    def make():
        A = gen_family(spec)
        counts = _oracle_differences(A)
        n, size = len(A), len(counts)
        want = [x for x, c in counts.items() if 11 * c * size >= n * n]
        return A, popular_differences(A), want
    return make


def _even_case(shift):
    # a table at scale 6 whose picked values are all even: the set's scale
    # drops to 3
    def make():
        A = make_set([shift + x for x in (0, Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(7, 2))])
        d = rep_fn(A, A, "diff")
        assert d.scale == 6
        picked = d.select(np.array([v % 2 == 0 for v in d.scaled_values]))
        assert picked.int_view.scale == 3
        return A, picked, [x for x in _oracle_differences(A) if (6 * x) % 2 == 0]
    return make


_SELECTION_CASES = {
    "int64": _popular_case(FamilySpec.random_subset(4000, 20, seed=3)),
    "past-int64": _popular_case(FamilySpec.gp(1, 2, 14)),
    "rational-int64": _popular_case(FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 20)),
    "rational-past-int64": _popular_case(FamilySpec.gp(3, Fraction(5, 2), 14)),
    "scale-6-even-int64": _even_case(0),
    "scale-6-even-past-int64": _even_case(1 << 70),
}


@pytest.mark.parametrize("case", list(_SELECTION_CASES), ids=list(_SELECTION_CASES))
def test_table_selections_build_their_elements_only_when_read(case):
    import copy
    import pickle

    from sumsetlab.energy import pair_membership, pair_set_size

    A, P, want = _SELECTION_CASES[case]()
    assert P._elements is None and len(P) == len(want)
    members = set(want)
    projections = sum(1 for p in want for q in want if p - q in members)
    assert projection_count(P, P) == pair_membership(P, P, "diff", P).sum() == projections
    assert pair_set_size(P, P, "sum") == len({p + q for p in want for q in want})
    # rich elements are measured against A's own popular differences
    counts = _oracle_differences(A)
    n, size = len(A), len(counts)
    popular = {x for x, c in counts.items() if 11 * c * size >= n * n}
    R = rich_difference_elements(A)
    assert list(R.elements) == [
        x for x in A if 11 * sum(x - a in popular for a in A) ** 2 >= 4 * n * n]
    assert P._elements is None
    # once read, the elements and every copy are those of a fresh set
    fresh = FiniteSet(want)
    assert P.elements == fresh.elements and hash(P) == hash(fresh)
    assert P == fresh and fresh == P
    copies = [pickle.loads(pickle.dumps(P, protocol=proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.copy(P), copy.deepcopy(P)]:
        assert back == fresh and fresh == back and hash(back) == hash(fresh)
        assert back.elements == fresh.elements
        assert back.int_view.arr.dtype == P.int_view.arr.dtype
        assert back.int_view.arr.tolist() == P.int_view.arr.tolist()
        assert back.int_view.scale == P.int_view.scale
