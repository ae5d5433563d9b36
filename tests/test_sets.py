from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    FamilySpec,
    FiniteSet,
    DomainError,
    InfeasibleSpecError,
    InvalidScaleError,
    gen_family,
    intersect_dilate,
    is_convex,
    make_set,
    read_set_file,
    transform,
    write_set_file,
)
from sumsetlab.energy import dump_repfn_csv, load_repfn_csv, rep_fn
from sumsetlab.sets import as_rational, format_rational
from conftest import rational_sets


def test_make_set_dedup_and_sort():
    assert make_set([3, 1, 2, 2]).elements == (1, 2, 3)


def test_make_set_empty():
    assert len(make_set([])) == 0


def test_make_set_canonical_rational_equality():
    assert make_set([Fraction(1, 2), Fraction(2, 4)]).elements == (Fraction(1, 2),)


def test_make_set_rejects_floats():
    with pytest.raises(TypeError):
        make_set([0.5])


def test_membership_is_exact():
    A = make_set([Fraction(1, 3), 2])
    assert Fraction(1, 3) in A
    assert Fraction(2, 6) in A
    assert 2 in A
    assert Fraction(1, 2) not in A


def test_transform_dilation():
    assert transform(make_set([1, 2, 3]), 2, 0).elements == (2, 4, 6)


def test_transform_translation():
    assert transform(make_set([1, 2, 3]), 1, -2).elements == (-1, 0, 1)


def test_transform_negation():
    assert transform(make_set([1, 2, 3]), -1, 0).elements == (-3, -2, -1)


def test_transform_zero_scale_rejected():
    with pytest.raises(InvalidScaleError):
        transform(make_set([1]), 0, 1)


@settings(max_examples=60, deadline=None)
@given(rational_sets, st.fractions(max_denominator=6).filter(lambda s: s != 0),
       st.fractions(max_denominator=6))
def test_transform_is_a_bijection(A, s, t):
    out = transform(A, s, t)
    assert len(out) == len(A)
    back = transform(out, Fraction(1) / s, -Fraction(t) / s)
    assert back == A


@settings(max_examples=40, deadline=None)
@given(rational_sets, st.fractions(min_value="1/5", max_value=9, max_denominator=5),
       st.fractions(max_denominator=5))
def test_convexity_invariant_under_positive_affine(A, s, t):
    assert is_convex(transform(A, s, t)) == is_convex(A)


def test_intersect_dilate_examples():
    assert intersect_dilate(make_set([1, 2, 4]), 2).elements == (1, 2)
    assert intersect_dilate(make_set([1, 3]), 2).elements == ()
    A = make_set([1, 5, 11])
    assert intersect_dilate(A, 1) == A
    with pytest.raises(InvalidScaleError):
        intersect_dilate(A, 0)


def test_is_convex_examples():
    assert is_convex(make_set([1, 4, 9, 16]))
    assert not is_convex(make_set([1, 2, 3]))
    assert is_convex(make_set([5]))
    assert is_convex(make_set([]))
    assert is_convex(make_set([2, 7]))


# -- families ----------------------------------------------------------------

def test_ap_family():
    assert gen_family(FamilySpec.ap(1, 1, 3)).elements == (1, 2, 3)
    assert gen_family(FamilySpec.ap(5, -2, 3)).elements == (1, 3, 5)


def test_gp_family():
    assert gen_family(FamilySpec.gp(1, 2, 4)).elements == (1, 2, 4, 8)
    assert len(gen_family(FamilySpec.gp(3, Fraction(1, 2), 5))) == 5


def test_convex_power_family():
    A = gen_family(FamilySpec.convex_power(2, 4))
    assert A.elements == (1, 4, 9, 16)
    assert is_convex(A)


@pytest.mark.parametrize("n", [2, 5, 17, 64])
def test_convex_power_is_convex(n):
    for k in (2, 3):
        assert is_convex(gen_family(FamilySpec.convex_power(k, n)))


def test_convex_custom_family():
    A = gen_family(FamilySpec.convex_custom(7, 30))
    assert len(A) == 30
    assert is_convex(A)
    assert A == gen_family(FamilySpec.convex_custom(7, 30))


def test_random_subset_contract():
    spec = FamilySpec.random_subset(1000, 40, seed=3)
    A = gen_family(spec)
    assert len(A) == 40
    assert all(isinstance(x, int) and 1 <= x <= 1000 for x in A)
    assert A == gen_family(spec)
    assert A != gen_family(FamilySpec.random_subset(1000, 40, seed=4))


def test_random_subset_exhaustive_range():
    # N == n forces the rejection sampler to hit every value
    assert gen_family(FamilySpec.random_subset(6, 6, seed=0)).elements == tuple(range(1, 7))


def test_random_subset_infeasible():
    with pytest.raises(InfeasibleSpecError):
        gen_family(FamilySpec.random_subset(5, 9))


def test_perturbed_family():
    base = FamilySpec.ap(1, 1, 12)
    spec = FamilySpec.perturbed(base, 12, seed=1)
    A = gen_family(spec)
    assert len(A) == 12
    assert A == gen_family(spec)
    ints = gen_family(base)
    # each element moved by less than a quarter gap, order undisturbed
    for orig, moved in zip(ints.elements, A.elements):
        assert 0 <= moved - orig < Fraction(1, 4)


def test_family_spec_validation():
    with pytest.raises(DomainError):
        FamilySpec.ap(1, 0, 5)
    with pytest.raises(DomainError):
        FamilySpec.gp(1, 1, 5)
    with pytest.raises(DomainError):
        FamilySpec.gp(0, 2, 5)
    with pytest.raises(DomainError):
        FamilySpec.convex_power(1, 5)
    with pytest.raises(DomainError):
        FamilySpec("AP", (1, 1), 0)


@pytest.mark.parametrize(
    "label",
    ["AP(1,1)", "GP(2,-3)", "ConvexPower(2)", "ConvexCustom(9)",
     "RandomSubset(400,7)", "Perturbed(GP(1,2),5)", "AP(1/2,3/4)"],
)
def test_family_spec_parse_roundtrip(label):
    spec = FamilySpec.parse(label, 8)
    assert spec.label() == label
    assert FamilySpec.parse(spec.label(), 8) == spec


def test_family_spec_parse_rejects_garbage():
    with pytest.raises(DomainError):
        FamilySpec.parse("Fibonacci(1,1)", 4)
    with pytest.raises(DomainError):
        FamilySpec.parse("AP(1)", 4)


@pytest.mark.parametrize(
    "text", ["AP(1,x)", "ConvexPower()", "Perturbed()", "RandomSubset(1/0)",
             "AP(1)", "AP(1,0)", "GP(1,2,3)"]
)
def test_family_spec_parse_names_malformed_arguments(text):
    with pytest.raises(DomainError, match=r"\(") as info:
        FamilySpec.parse(text, 4)
    assert repr(text) in str(info.value)


# -- files -------------------------------------------------------------------

def test_set_file_roundtrip(tmp_path):
    A = make_set([Fraction(-3, 4), 0, 5, Fraction(22, 7)])
    path = tmp_path / "a.txt"
    write_set_file(A, path)
    assert read_set_file(path) == A


def test_set_file_roundtrip_past_the_int_str_digit_limit(tmp_path):
    # GP(1,2)'s top elements at n = 15 000 have up to 4 516 digits, past the
    # 4 300 that str() and int() accept by default
    top = gen_family(FamilySpec.parse("GP(1,2)", 15_000)).elements[-4:]
    A = make_set([*top, -top[-1], Fraction(top[-1], 3), 7])
    assert len(format_rational(top[-1])) == 4_516
    for x in A.elements:
        assert as_rational(format_rational(x)) == x
    assert as_rational(f" +{format_rational(top[0])}\n") == top[0]
    path = tmp_path / "top.txt"
    write_set_file(A, path)
    assert read_set_file(path) == A
    f = rep_fn(make_set(top), make_set([1, 2]), "diff")
    csv_path = tmp_path / "rep.csv"
    dump_repfn_csv(f, csv_path)
    assert load_repfn_csv(csv_path) == f.counts
    assert repr(A).startswith(f"FiniteSet({{-{format_rational(top[-1])}, ")


@pytest.mark.parametrize("text", ["1/0", "12" * 400 + "/0"])
def test_set_file_zero_denominator_is_a_bad_line(tmp_text, text):
    p = tmp_text("bad.txt", f"1\n{text}\n")
    with pytest.raises(DomainError, match=":2"):
        read_set_file(p)


def test_set_file_comments_and_blanks(tmp_text):
    p = tmp_text("s.txt", "# header\n1\n\n2/4\n# trailing\n-3\n")
    assert read_set_file(p).elements == (-3, Fraction(1, 2), 1)


def test_set_file_bad_line_reports_position(tmp_text):
    p = tmp_text("bad.txt", "1\nnope\n")
    with pytest.raises(DomainError, match=":2"):
        read_set_file(p)


def test_finiteset_pickles_and_hashes():
    import pickle

    A = make_set([1, Fraction(1, 2)])
    B = pickle.loads(pickle.dumps(A))
    assert B == A and hash(B) == hash(A)
    assert FiniteSet([2, 1]) == FiniteSet([1, 2, 2])


@pytest.mark.parametrize("values, scale", [
    ([3, 1 << 62], 1),  # 2**62 is past INT64_SAFE: no int64 array
    ([-(1 << 62) + 1, 0, (1 << 62) - 1], 1),
    ([1 << 62], 2),  # divides out to 2**61, which fits
    ([-6, 4, 10], 6),  # gcd 2: scale 3
    ([-14, 0, 7, 21], 21),  # every element an integer: scale 1
    ([], 5),
    ([-(1 << 62), 5], 1),  # -2**62 is past INT64_SAFE too
    ([(1 << 63) - 1], 1),
    ([-(1 << 62), (1 << 63) - 2], 2),  # divides out to both ends below 2**62
])
def test_from_scaled_matches_fresh_set(values, scale):
    import pickle

    S = FiniteSet.from_scaled(np.array(values, dtype=np.int64), scale)
    fresh = FiniteSet(Fraction(v, scale) for v in values)
    assert S.elements == fresh.elements and S == fresh and hash(S) == hash(fresh)
    got, want = S.int_view, fresh.int_view
    assert got.arr.tolist() == want.arr.tolist() and got.scale == want.scale
    assert got.arr.dtype == want.arr.dtype == _width(want.arr.tolist())
    back = pickle.loads(pickle.dumps(S))
    assert back == S and back.int_view.scale == want.scale
    assert back.int_view.arr.dtype == want.arr.dtype
    assert back.int_view.arr.tolist() == want.arr.tolist()


def _width(ints):
    """The dtype of an int view of these sorted integers."""
    return np.int64 if max(map(abs, ints[:1] + ints[-1:]), default=0) < 1 << 62 else object


_BOUNDARY_VALUES = {
    "below": [-(1 << 62) + 1, 0, (1 << 62) - 1],
    "low-end-at": [-(1 << 62), 0, (1 << 62) - 1],
    "high-end-at": [-(1 << 62) + 1, 0, 1 << 62],
    "int64-max": [-(1 << 62) + 1, (1 << 63) - 1],
    "wide-gcd-below": [-(1 << 62), 6, (1 << 63) - 2],  # scale 2: gcd 2
}


@pytest.mark.parametrize("kind", ["values", "int64", "object", "list", "numpy-scalars"])
@pytest.mark.parametrize("case", list(_BOUNDARY_VALUES))
def test_a_view_is_int64_exactly_when_both_ends_lie_below_int64_safe(case, kind):
    values = _BOUNDARY_VALUES[case]
    scale = 2 if case == "wide-gcd-below" else 1
    if kind == "values":
        S = FiniteSet(Fraction(v, scale) for v in values)
    else:
        make = {"int64": lambda v: np.array(v, dtype=np.int64),
                "object": lambda v: np.array(v, dtype=object), "list": list,
                "numpy-scalars": lambda v: [np.int64(x) for x in v]}[kind]
        S = FiniteSet.from_scaled(make(values), scale)
    view = S.int_view
    ints = [v // scale for v in values]
    assert view.scale == 1 and view.arr.tolist() == ints
    assert view.arr.dtype == (object if case in ("low-end-at", "high-end-at", "int64-max")
                              else np.int64)
    assert all(type(v) is int for v in view.arr.tolist())
    assert S == FiniteSet(ints) and S.elements == tuple(ints)


# -- membership by bisection, and copies of sets -------------------------------

# GP(1,2) values past 2**61 share Python's int hash with smaller powers
# (hash(2**k) == 2**(k % 61)), so a hash-based lookup would compare them
_membership_values = st.one_of(
    st.integers(0, 140).map(lambda k: 1 << k),
    st.integers(0, 140).map(lambda k: -(1 << k) + 1),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_membership_values, max_size=12), st.lists(_membership_values, max_size=12),
       st.booleans())
def test_membership_matches_python_set(values, probes, with_zero):
    A = make_set(values + [0] if with_zero else [v for v in values if v != 0])
    members = set(A.elements)
    for x in probes + list(A.elements) + [0] + [2 * x + 1 for x in A.elements]:
        assert (x in A) == (x in members)


@pytest.mark.parametrize("make", [
    lambda: FiniteSet.from_scaled(np.array([-3, 0, 5, 1 << 61], dtype=np.int64), 1),
    lambda: FiniteSet.from_scaled(np.array([-6, 4, 10], dtype=np.int64), 6),
    lambda: FiniteSet.from_scaled(np.array([], dtype=np.int64), 5),
    lambda: make_set([1 << k for k in range(0, 130, 7)]),
    lambda: make_set([Fraction(1, 3), -2, Fraction(7, 4), 0]),
    lambda: make_set([]),
], ids=["scaled-int", "scaled-rational", "scaled-empty", "fresh-bigint",
        "fresh-rational", "fresh-empty"])
def test_copies_keep_equality_hash_and_int_view(make):
    import copy
    import pickle

    S = make()
    view = S.int_view
    copies = [pickle.loads(pickle.dumps(S, protocol=proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(S), copy.deepcopy(S)]
    for back in copies:
        assert back == S and hash(back) == hash(S) and back.elements == S.elements
        got = back.int_view
        assert got.arr.dtype == view.arr.dtype and got.arr.tolist() == view.arr.tolist()
        assert got.scale == view.scale


# -- sets made from scaled integers build their elements on first read ---------

def _deferred(values, scale):
    if max(map(abs, values), default=0) < 1 << 62:
        values = np.array(values, dtype=np.int64)
    return FiniteSet.from_scaled(values, scale)


@pytest.mark.parametrize("values, scale", [
    ([-3, 0, 5, 1 << 61], 1),
    ([3, 1 << 62], 1),  # an int64 array past INT64_SAFE
    ([-6, 4, 10], 6),  # gcd 2: scale 3
    ([-(1 << 80), 0, 3 << 70], 1),
    ([-(1 << 80), 6, 4 << 70], 4),  # gcd 2: scale 2
    ([5, 7 << 90], 35),
    ([-(1 << 62) + 1, (1 << 62) - 1], 1),
    ([(1 << 63) - 1], 1),
])
def test_a_set_from_a_python_int_list_matches_one_from_an_array(values, scale):
    listed = FiniteSet.from_scaled(list(values), scale)
    fresh = FiniteSet(Fraction(v, scale) for v in values)
    assert len(listed) == len(fresh) and listed._elements is None
    got, want = listed.int_view, fresh.int_view
    assert got.arr.dtype == want.arr.dtype and got.arr.tolist() == want.arr.tolist()
    assert got.scale == want.scale
    if max(abs(v) for v in values) < 1 << 63:
        arrayed = FiniteSet.from_scaled(np.array(values, dtype=np.int64), scale)
        assert arrayed == listed and arrayed._elements is None and listed._elements is None
    assert listed.elements == fresh.elements


@pytest.mark.parametrize("left, right, scale", [
    ([1, 2, 3], [1, 2, 4], 1),
    ([1, 2, 3], [1, 2, 3], 2),  # {1/2, 1, 3/2} against itself at scale 2
    ([1 << 70, 1 << 71], [1 << 70, 3 << 70], 1),
    ([1 << 70, 1 << 71], [1, 2], 3),  # one view past int64, one not
])
def test_equality_of_deferred_sets_reads_their_views(left, right, scale):
    A, B = _deferred(left, scale), _deferred(right, scale)
    assert (A == B) == (B == A) == (left == right)
    assert A._elements is None and B._elements is None
    # equal length and scale, different values; equal values at another scale
    other = _deferred([2 * v for v in right], 2 * scale)
    assert (A == other) == (left == right)
    assert not A == _deferred(left, scale + 2) and not A == _deferred(left[:1], scale)
    assert A._elements is None and other._elements is None
    fresh = FiniteSet(Fraction(v, scale) for v in left)
    assert A == fresh and fresh == A and hash(A) == hash(fresh)
