import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    CurveTranslate,
    DivisionDomainError,
    DomainError,
    FamilySpec,
    FiniteSet,
    Line,
    count_incidences_curve,
    count_incidences_grid,
    count_incidences_lines,
    gen_family,
    integer_line_family,
    make_set,
    read_lines_csv,
    run_check,
    st_ratio,
    transform,
    write_lines_csv,
)
from conftest import oracle_incidences
from sumsetlab.sets import INT64_SAFE

A123 = make_set([1, 2, 3])


def test_line_rejects_zero_slope():
    with pytest.raises(DivisionDomainError):
        Line(0, 3)


def test_diagonal_line_example():
    assert count_incidences_lines(A123, A123, [Line(1, 0)]) == 3


def test_two_line_example():
    # y = 2x only passes through (1, 2) on the 3x3 grid
    assert count_incidences_lines(A123, A123, [Line(1, 0), Line(2, 0)]) == 4


def test_no_lines_no_incidences():
    assert count_incidences_lines(A123, A123, []) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=12).map(make_set),
       st.lists(st.integers(-30, 30), min_size=1, max_size=12).map(make_set),
       st.lists(
           st.tuples(st.integers(-5, 5).filter(bool), st.integers(-40, 40)),
           max_size=25,
       ))
def test_integer_lines_match_oracle(A, B, raw):
    lines = [Line(m, c) for m, c in raw]
    assert count_incidences_lines(A, B, lines) == oracle_incidences(A, B, lines)


def test_rational_lines_match_oracle():
    rng = random.Random(11)
    for _ in range(20):
        A = make_set([Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(10)])
        B = make_set([Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(10)])
        lines = [
            Line(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            for _ in range(12)
        ]
        assert count_incidences_lines(A, B, lines) == oracle_incidences(A, B, lines)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=15).map(make_set),
       st.lists(st.integers(-50, 50), min_size=1, max_size=15).map(make_set))
def test_trivial_incidence_upper_bound(A, B):
    lines = integer_line_family(4, 5)
    count = count_incidences_lines(A, B, lines)
    assert count <= len(lines) * min(len(A), len(B))


def test_incidence_dilation_invariance():
    A = make_set([1, 3, 4, 7])
    B = make_set([2, 5, 6, 9, 11])
    lines = [Line(2, 1), Line(-1, 8), Line(Fraction(1, 2), 3)]
    base = count_incidences_lines(A, B, lines)
    alpha, beta = Fraction(3), Fraction(5, 2)
    scaled_lines = [Line(l.slope * beta / alpha, l.intercept * beta) for l in lines]
    got = count_incidences_lines(
        transform(A, alpha, 0), transform(B, beta, 0), scaled_lines
    )
    assert got == base


def test_int64_and_generic_paths_agree():
    A = make_set(range(1, 30))
    B = make_set(range(1, 30))
    lines = integer_line_family(5, 29)
    fast = count_incidences_lines(A, B, lines)
    # shifting one set off the integers forces the generic loop
    A2 = transform(A, 1, Fraction(0))
    frac_lines = [Line(Fraction(l.slope), Fraction(l.intercept)) for l in lines]
    A_frac = make_set([Fraction(x) for x in A])
    assert count_incidences_lines(A_frac, B, frac_lines) == fast
    assert fast == oracle_incidences(A, B, lines)


# -- curve translates -----------------------------------------------------------

def test_curve_requires_convex_table():
    with pytest.raises(DomainError):
        CurveTranslate(make_set([1, 2, 3]), 0, 0)


def test_curve_translate_examples():
    squares = make_set([1, 4, 9])
    B = make_set([1, 4, 9])
    assert count_incidences_curve(3, B, [CurveTranslate(squares, 0, 0)]) == 3
    assert count_incidences_curve(3, B, [CurveTranslate(squares, 1, 0)]) == 2
    assert count_incidences_curve(3, B, []) == 0


def test_curve_translate_vertical_shift():
    squares = make_set([1, 4, 9, 16])
    B = make_set([0, 3, 8, 15])
    t = CurveTranslate(squares, 0, 1)  # y = x^2 - 1
    assert count_incidences_curve(4, B, [t]) == 4
    assert count_incidences_curve(2, B, [t]) == 2


def test_curve_out_of_range_arguments_do_not_count():
    squares = make_set([1, 4, 9])
    B = make_set([1, 4, 9])
    assert count_incidences_curve(10, B, [CurveTranslate(squares, 7, 0)]) == 3
    assert count_incidences_curve(10, B, [CurveTranslate(squares, 40, 0)]) == 0


# -- st ratio ---------------------------------------------------------------------

def test_st_ratio_example():
    assert st_ratio(3, 9, 1) == pytest.approx(0.5631953303613992, rel=1e-12)
    assert st_ratio(0, 100, 10) == 0.0


def test_st_ratio_domain():
    with pytest.raises(DomainError):
        st_ratio(1, 0, 5)
    with pytest.raises(DomainError):
        st_ratio(1, 5, 0)


def test_st_ratio_matches_naive_configuration():
    n = 12
    A = make_set(range(1, n + 1))
    fam = integer_line_family(3, n)
    count = count_incidences_lines(A, A, fam)
    assert count == oracle_incidences(A, A, fam)
    denom = (n * n * len(fam)) ** (2 / 3) + len(fam)
    assert st_ratio(count, n * n, len(fam)) == pytest.approx(count / denom)


# -- line files --------------------------------------------------------------------

def test_lines_csv_roundtrip(tmp_path):
    lines = [Line(1, 2), Line(Fraction(-3, 4), Fraction(1, 6))]
    p = tmp_path / "lines.csv"
    write_lines_csv(lines, p)
    assert read_lines_csv(p) == lines


def test_lines_csv_zero_slope_reports_line_number(tmp_text):
    p = tmp_text("z.csv", "slope,intercept\n1,2\n0,5\n")
    with pytest.raises(DivisionDomainError, match=":3"):
        read_lines_csv(p)


def test_lines_csv_bad_entry_reports_line_number(tmp_text):
    p = tmp_text("bad.csv", "2,x\n")
    with pytest.raises(DomainError, match=":1"):
        read_lines_csv(p)


def test_rational_grid_counts_without_a_python_loop_per_point(monkeypatch):
    # AP(1/3, 2/7) has scale 21, which the old integer grid path refused;
    # the counts are the ones the per-point loop gave
    A = make_set([Fraction(1, 3) + j * Fraction(2, 7) for j in range(64)])
    family = integer_line_family(8, 64)
    rational = [Line(Fraction(s, 2), Fraction(c, 7)) for s in (1, 2, 3, -4)
                for c in range(-20, 21)] + [Line(1, 0), Line(1, 0)]

    def no_element_lookup(self, x):
        raise AssertionError("membership went through a per-element lookup")

    monkeypatch.setattr(FiniteSet, "__contains__", no_element_lookup)
    assert count_incidences_lines(A, A, family) == 366
    assert count_incidences_lines(A, A, rational) == 1378
    monkeypatch.undo()
    assert count_incidences_lines(A, A, rational) == oracle_incidences(A, A, rational)


# -- the integer line family counted as ranges -------------------------------------

def _grid_agrees(A, B, S, K):
    """count_incidences_grid against the naive oracle and the explicit family."""
    family = integer_line_family(S, K)
    got = count_incidences_grid(A, B, S, K)
    assert got == oracle_incidences(A, B, family)
    assert got == count_incidences_lines(A, B, family)
    return got


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=12).map(make_set),
       st.lists(st.integers(-40, 40), max_size=12).map(make_set),
       st.integers(-2, 6), st.integers(-2, 30))
def test_grid_count_matches_oracle_on_integer_sets(A, B, S, K):
    _grid_agrees(A, B, S, K)


def test_grid_count_across_scales():
    rng = random.Random(5)
    for den_a, den_b in ((3, 7), (1, 7), (3, 1), (21, 21)):
        for _ in range(8):
            A = make_set([Fraction(rng.randint(-60, 60), den_a) for _ in range(10)])
            B = make_set([Fraction(rng.randint(-60, 60), den_b) for _ in range(10)])
            _grid_agrees(A, B, 5, 12)
    # the pinned count of test_rational_grid_counts_without_a_python_loop_per_point
    A = make_set([Fraction(1, 3) + j * Fraction(2, 7) for j in range(64)])
    assert count_incidences_grid(A, A, 8, 64) == 366


def test_grid_count_past_int64_takes_python_ints():
    A = gen_family(FamilySpec.parse("GP(1,2)", 66))
    assert A.elements[-1] > INT64_SAFE
    assert _grid_agrees(A, A, 3, 8) > 0
    B = make_set([x + 1 for x in A] + [3 * x + 5 for x in A])
    # every a lies on y = x + 1 and on y = 3x + 5, small a on more lines
    assert _grid_agrees(A, B, 3, 5) >= 2 * len(A)


def test_grid_count_empty_sets_and_empty_families():
    assert count_incidences_grid(make_set([]), A123, 3, 3) == 0
    assert count_incidences_grid(A123, make_set([]), 3, 3) == 0
    for S, K in ((0, 5), (5, 0), (-1, 5), (5, -1), (-2, -3)):
        assert count_incidences_grid(A123, A123, S, K) == 0


@pytest.mark.parametrize("x, dtype", [(1 << 58, "int64"), (1 << 61, "object")],
                         ids=["int64", "object"])
def test_grid_count_on_both_sides_of_the_int64_bound(monkeypatch, x, dtype):
    seen = set()
    searchsorted = np.searchsorted

    def spy(keys, *args, **kwargs):
        seen.add(keys.dtype.name)
        return searchsorted(keys, *args, **kwargs)

    A = make_set([x, x + 2])
    B = make_set([x + 1, 2 * x + 3, 2 * x + 7, -x])
    monkeypatch.setattr(np, "searchsorted", spy)
    got = count_incidences_grid(A, B, 2, 3)
    monkeypatch.undo()
    assert seen == {dtype}
    # (x, x+1) on y = x + 1, (x, 2x+3) on y = 2x + 3, (x+2, 2x+7) on y = 2x + 3
    assert got == _grid_agrees(A, B, 2, 3) == 3


def test_grid_count_with_an_intercept_count_past_int64():
    A, B = make_set([-3, 1, 2]), make_set([-5, 10, 20])
    for K in ((1 << 63) - 5, 1 << 70):
        expected = sum(1 <= b - m * a <= K for m in (1, 2) for a in A for b in B)
        assert count_incidences_grid(A, B, 2, K) == expected


def test_st_measure_builds_no_line_and_tests_no_pair(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("st_measure built a Line or called pair_membership")

    monkeypatch.setattr(Line, "__post_init__", forbidden)
    monkeypatch.setattr(sys.modules["sumsetlab.energy"], "pair_membership", forbidden)
    monkeypatch.setattr(sys.modules["sumsetlab.incidence"], "pair_membership", forbidden)
    A = make_set(range(1, 13))
    r = run_check("st_measure", A)
    monkeypatch.undo()
    assert r.verdict == "ratio-report"
    assert r.lhs == count_incidences_lines(A, A, integer_line_family(4, 12))
