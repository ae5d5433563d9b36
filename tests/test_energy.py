import contextlib
import importlib
import pickle
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis import assume

from sumsetlab import (
    BudgetExceededError,
    DivisionDomainError,
    ExactnessError,
    FamilySpec,
    FiniteSet,
    dump_repfn_csv,
    energy,
    gen_family,
    load_repfn_csv,
    make_set,
    pair_membership,
    pair_set,
    pair_set_size,
    projection_count,
    rep_fn,
    transform,
)
from sumsetlab import DomainError, RepFn, as_rational
from conftest import (
    int_sets,
    oracle_energy2,
    oracle_energy_k,
    oracle_projection,
    oracle_rep_counts,
    rational_sets,
)
from sumsetlab.energy import _fft_projection, _loop_projection
from sumsetlab.sets import INT64_SAFE

A123 = make_set([1, 2, 3])


def test_pair_set_examples():
    assert pair_set(A123, A123, "sum").elements == (2, 3, 4, 5, 6)
    assert pair_set(A123, A123, "prod").elements == (1, 2, 3, 4, 6, 9)
    assert pair_set(make_set([7]), make_set([3]), "diff").elements == (4,)


def test_pair_set_ratio_zero_divisor_rejected():
    with pytest.raises(DivisionDomainError):
        pair_set(A123, make_set([0, 1]), "ratio")
    with pytest.raises(DivisionDomainError):
        rep_fn(A123, make_set([0, 1]), "ratio")


def test_rep_fn_examples():
    d = rep_fn(A123, A123, "diff")
    assert d.counts == {0: 3, 1: 2, -1: 2, 2: 1, -2: 1}
    s = rep_fn(A123, A123, "sum")
    assert s.counts == {2: 1, 3: 2, 4: 3, 5: 2, 6: 1}
    lone = rep_fn(make_set([5]), make_set([5]), "diff")
    assert lone.counts == {0: 1}


@settings(max_examples=60, deadline=None)
@given(rational_sets, rational_sets, st.sampled_from(["sum", "diff", "prod"]))
def test_rep_fn_matches_oracle_and_mass(A, B, op):
    f = rep_fn(A, B, op)
    assert f.counts == oracle_rep_counts(A.elements, B.elements, op)
    assert sum(f.counts.values()) == len(A) * len(B)
    assert f.support() == pair_set(A, B, op)


@settings(max_examples=30, deadline=None)
@given(rational_sets.filter(lambda s: 0 not in s), rational_sets)
def test_rep_fn_ratio_matches_oracle(B, A):
    f = rep_fn(A, B, "ratio")
    assert f.counts == oracle_rep_counts(A.elements, B.elements, "ratio")
    assert f.mass == len(A) * len(B)


@settings(max_examples=50, deadline=None)
@given(int_sets)
def test_difference_counts_are_symmetric(A):
    d = rep_fn(A, A, "diff")
    for x, c in d.counts.items():
        assert d.counts[-x] == c


def test_sum_counts_symmetric_for_symmetric_set():
    A = make_set([-5, -2, 0, 2, 5])  # symmetric about 0
    s = rep_fn(A, A, "sum")
    for x, c in s.counts.items():
        assert s.counts[-x] == c


def test_energy_examples():
    d = rep_fn(A123, A123, "diff")
    assert energy(d, 2).exact == 19
    assert energy(d, 3).exact == 45
    assert energy(d, 1).exact == 9
    assert energy(d, 0).exact == 5  # support size


def test_energy_fractional_matches_direct_float_sum():
    d = rep_fn(A123, A123, "diff")
    want = sum(c ** (12 / 7) for c in d.counts.values())
    assert energy(d, Fraction(12, 7)).approx == pytest.approx(want, rel=1e-14)
    assert energy(d, Fraction(12, 7)).exact is None


def test_energy_value_float_mirror():
    d = rep_fn(A123, A123, "diff")
    ev = energy(d, 3)
    assert ev.approx == float(ev.exact)
    assert float(ev) == ev.approx


def test_fractional_energy_meets_error_target():
    # documented contract: relative error <= 1e-12 for fractional exponents
    import mpmath
    import numpy as np

    A = gen_family(FamilySpec.random_subset(4 * 2000 * 2000, 2000, seed=13))
    d = rep_fn(A, A, "diff")
    got = energy(d, Fraction(12, 7)).approx
    uniq, mult = np.unique(d.counts_array, return_counts=True)
    with mpmath.workdps(40):
        ref = sum(int(m) * mpmath.mpf(int(u)) ** (mpmath.mpf(12) / 7)
                  for u, m in zip(uniq.tolist(), mult.tolist()))
        rel = abs(mpmath.mpf(got) - ref) / ref
        assert rel < 1e-12, mpmath.nstr(rel, 5)


def test_energy_rejects_negative_exponent():
    from sumsetlab import DomainError

    with pytest.raises(DomainError):
        energy(rep_fn(A123, A123, "diff"), -1)


@settings(max_examples=40, deadline=None)
@given(int_sets)
def test_energy_monotone_in_exponent(A):
    d = rep_fn(A, A, "diff")
    es = [energy(d, k).approx for k in (1, Fraction(3, 2), Fraction(12, 7), 2, Fraction(12, 5), 3)]
    for lo, hi in zip(es, es[1:]):
        assert lo <= hi * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=8).map(make_set),
       st.lists(st.integers(-40, 40), min_size=1, max_size=8).map(make_set))
def test_energy2_matches_quadruple_enumeration(A, B):
    got = energy(rep_fn(A, B, "diff"), 2).exact
    assert got == oracle_energy2(A.elements, B.elements)


def test_energy2_oracle_at_size_thirty():
    import random

    rng = random.Random(30)
    A = make_set(rng.sample(range(-300, 300), 30))
    B = make_set(rng.sample(range(-300, 300), 30))
    assert energy(rep_fn(A, B, "diff"), 2).exact == oracle_energy2(A.elements, B.elements)


def test_energy2_oracle_on_rationals():
    A = make_set([Fraction(1, 3), Fraction(1, 2), 2, 3])
    B = make_set([Fraction(-1, 6), 1, Fraction(5, 2)])
    assert energy(rep_fn(A, B, "diff"), 2).exact == oracle_energy2(A.elements, B.elements)
    assert energy(rep_fn(A, B, "diff"), 3).exact == oracle_energy_k(A.elements, B.elements, 3)


@settings(max_examples=40, deadline=None)
@given(int_sets, st.integers(-20, 20).filter(lambda s: s != 0), st.integers(-30, 30),
       st.sampled_from([2, 3, Fraction(12, 7)]))
def test_energy_dilation_invariance(A, s, t, k):
    before = energy(rep_fn(A, A, "diff"), k)
    TA = transform(A, s, t)
    after = energy(rep_fn(TA, TA, "diff"), k)
    if before.exact is not None:
        assert before.exact == after.exact
    else:
        assert before.approx == pytest.approx(after.approx, rel=1e-12)


# -- projection counts --------------------------------------------------------

def test_projection_count_examples():
    P = make_set([-2, -1, 0, 1, 2])
    assert projection_count(P, P) == 19
    Q0 = make_set([0])
    A = make_set([3, 9, 17, 40])
    assert projection_count(A, Q0) == len(A)
    assert projection_count(make_set([0, 1]), make_set([5])) == 0


@settings(max_examples=40, deadline=None)
@given(int_sets, int_sets)
def test_projection_count_matches_oracle(P, Q):
    want = oracle_projection(P.elements, Q.elements)
    assert projection_count(P, Q) == want
    assert _loop_projection(P, Q) == want
    assert _fft_projection(P, Q) == want


@settings(max_examples=25, deadline=None)
@given(rational_sets, rational_sets)
def test_projection_count_rational_strategies_agree(P, Q):
    want = oracle_projection(P.elements, Q.elements)
    assert _loop_projection(P, Q) == want
    assert _fft_projection(P, Q) == want


def test_projection_count_budget_guard():
    A = gen_family(FamilySpec.gp(1, 2, 40))  # big ints: no polynomial path
    from sumsetlab import popular_differences

    P = popular_differences(A)
    with pytest.raises(BudgetExceededError):
        projection_count(P, P, budget=1000)


def test_projection_count_poly_handles_negatives_and_scales():
    P = make_set([Fraction(-7, 3), Fraction(1, 3), 4, Fraction(9, 2)])
    Q = make_set([Fraction(-8, 3), 0, Fraction(13, 6)])
    want = oracle_projection(P.elements, Q.elements)
    assert _fft_projection(P, Q) == want


def _count_kernel_calls(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")
    calls = []
    kernel = en._difference_counts_fft
    monkeypatch.setattr(en, "_difference_counts_fft",
                        lambda p_ints, top: calls.append(len(p_ints)) or kernel(p_ints, top))
    return calls


def test_projection_count_auto_takes_fft_kernel_on_pinned_case(monkeypatch):
    # |P| = 500 puts the loop at 250 000 pair operations, past the 200 000
    # below which projection_count always loops; the span (29 888) puts the
    # FFT on 30 000 points, whose N log2 N work is below the model's charge
    # for the loop.  The test pins that choice of the cost model, not the
    # faster kernel: on this set the loop takes 0.5-0.6 ms against 1.2-1.3 ms
    # for the FFT (best of 20, 2-core x86-64, numpy 2.4).
    rng = random.Random(20261018)
    P = make_set(rng.sample(range(-15_000, 15_000), 500))
    Q = make_set(rng.sample(range(-3_000, 3_000), 700))
    calls = _count_kernel_calls(monkeypatch)
    for R in (P, Q):
        want = _loop_projection(P, R)
        assert want > 0
        assert projection_count(P, R) == want
        assert _fft_projection(P, R) == want
    assert calls == [500] * 4


def test_projection_count_auto_loops_over_sparse_wide_sets(monkeypatch):
    # 460 points over a span near _POLY_SPAN_LIMIT: the loop (211 600 pair
    # operations) beats FFTs on 2**22 points, unless a budget forbids it
    rng = random.Random(463)
    P = make_set(rng.sample(range(4_000_000), 460))
    calls = _count_kernel_calls(monkeypatch)
    want = _loop_projection(P, P)
    assert projection_count(P, P) == want
    assert calls == []
    assert projection_count(P, P, budget=200_000) == want
    assert calls == [460]


def _fft_table(en, P, top=None):
    """The kernel's difference table out to lag `top` (the span by
    default), joined from its blocks."""
    span = int(P[-1]) - int(P[0])
    return np.concatenate(list(en._difference_counts_fft(P, span if top is None else top)))


@settings(max_examples=40, deadline=None)
@given(int_sets)
def test_fft_difference_table_matches_oracle(P):
    en = importlib.import_module("sumsetlab.energy")

    counts = _fft_table(en, list(P.elements))
    assert counts.size == P.elements[-1] - P.elements[0] + 1
    assert counts.dtype == np.int64
    want = oracle_rep_counts(P.elements, P.elements, "diff")
    got = {s * d: int(c) for d, c in enumerate(counts.tolist()) if c for s in (1, -1)}
    assert got == want


def _buffer(blocks, t, b):
    """Buffer t of the kernel on 2b points, U_t = R_t + R_{t+1} shifted by
    b, counted pair by pair from the blocks' positions within each block."""
    m = 2 * b
    u = np.zeros(m)
    for lag, shift in ((t, 0), (t + 1, b)):
        for i in range(len(blocks) - lag):
            for hi in blocks[i + lag]:
                for lo in blocks[i]:
                    u[(hi - lo - shift) % m] += 1
    return u


def _certify(en, u, blocks, t):
    """Run the certifier over buffer t, `u`, of the set cut into `blocks`."""
    cert = en._TableCertifier([len(x) for x in blocks], [sum(x) for x in blocks], u.size)
    return cert.round(u, np.empty(u.size + 2), t, u.size)


# P = [0, 1, 3, 7, 12] in blocks of 8 points, transformed on 16
_BLOCKS = [[0, 1, 3, 7], [4]]


def test_fft_certification_raises_on_each_perturbed_check():
    en = importlib.import_module("sumsetlab.energy")

    P = [0, 1, 3, 7, 12]
    diffs = oracle_rep_counts(P, P, "diff")
    for t in (0, 1):
        u = _buffer(_BLOCKS, t, 8)
        # the head of U_t is block t of the table
        assert u[:8].tolist() == [diffs.get(8 * t + e, 0) for e in range(8)]
        assert _certify(en, u.copy(), _BLOCKS, t).tolist() == u.tolist()
    cases = [
        (0, {3: 0.3}, ["from the nearest integer"]),
        (0, {0: 1.0}, ["zero-lag count", "mass"]),
        (1, {0: 1.0}, ["mass"]),
        (0, {3: 1.0}, ["mass", "first moment"]),
        (1, {3: 1.0, 5: -1.0}, ["first moment", "negative entry"]),
        (0, {11: 1.0}, ["mass", "first moment"]),
        (1, {4: 1.0, 12: 1.0}, ["mass"]),
        # +2, -2 at entries 8 apart keeps the moment mod 16, and a count of
        # 3 at lag 12 where the oracle gives 1: only the sign shows it
        (1, {4: 2.0, 12: -2.0}, ["negative entry"]),
    ]
    for t, deltas, checks in cases:
        bad = _buffer(_BLOCKS, t, 8)
        for index, delta in deltas.items():
            bad[index] += delta
        with pytest.raises(ExactnessError) as info:
            _certify(en, bad, _BLOCKS, t)
        assert f"in block {t}: " in str(info.value)
        failed = str(info.value).split(": ", 1)[1].split("; ")
        assert len(failed) == len(checks)
        for check in checks:
            assert any(check in f for f in failed)


@pytest.mark.parametrize("deltas", [
    {3: 1.0, 5: -1.0},     # the head, which the table yields
    {6: 1.0, 7: -1.0},     # adjacent entries
    {1: 1.0, 12: -1.0},    # across the halves
    {9: 1.0, 15: -1.0},    # the upper half, which it never yields
])
def test_fft_moment_check_reads_rows_and_tail(deltas):
    # the first moment is read mod M over all M entries of a buffer, as
    # the rows and columns of a grid: a shift of one count that keeps the
    # mass fails the moment check, wherever it falls in either buffer, and
    # besides it only the sign check where the -1 takes a zero count
    en = importlib.import_module("sumsetlab.energy")
    for t in (0, 1):
        u = _buffer(_BLOCKS, t, 8)
        assert _certify(en, u.copy(), _BLOCKS, t).tolist() == u.tolist()
        for index, delta in deltas.items():
            u[index] += delta
        negative = ["a negative entry -1"] if u.min() < 0 else []
        with pytest.raises(ExactnessError) as info:
            _certify(en, u, _BLOCKS, t)
        failed = str(info.value).split(": ", 1)[1].split("; ")
        assert failed[0].startswith("first moment") and failed[1:] == negative


def test_fft_kernel_refuses_outside_its_error_allowance(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")

    # inside the span limit the allowance is tiny
    limit = en._POLY_SPAN_LIMIT
    assert en._fft_correlation_error_bound(limit + 1, limit.bit_length()) < 1e-6
    # the spectrum sums S_t +- S_{t+1} add up to 2K - 1 products, charged
    # ceil(log2(2K - 1)) stages on top of M's own: 2 at K = 2 (M = 1000,
    # 15 stages), 5 at K = 16 (M = 506 250, 29 stages), where the bound
    # peaks within the span limit
    assert en._block_layout(990) == (2, 1000, 15 + 2)
    assert en._block_layout(4_049_999) == (16, 506_250, 29 + 5)
    assert 1e-6 < en._fft_correlation_error_bound(4_050_000, 34) < 1.05e-6
    # a palindrome mirrored at span 4 049 998 is charged one stage more
    assert 1.05e-6 < en._fft_correlation_error_bound(4_049_999, 35) < 1.07e-6
    # a coarser arithmetic pushes the same small set past the 1/4 threshold
    monkeypatch.setattr(en, "_FFT_EPS", 1e-4)
    P = make_set(range(0, 1000, 10))
    assert en._fft_correlation_error_bound(len(P), (990).bit_length()) >= 0.25
    with pytest.raises(ExactnessError, match="error allowance"):
        _fft_projection(P, P)
    assert _loop_projection(P, P) == oracle_projection(P.elements, P.elements)


def _radix_stages(n):
    """Sum of (r - 1) over the prime factors r of n, or None when a prime
    other than 2, 3 and 5 divides n."""
    stages = 0
    for r in (2, 3, 5):
        while n % r == 0:
            n //= r
            stages += r - 1
    return stages if n == 1 else None


def _check_fft_length(span, n, stages):
    assert n % 2 == 0 and n > span
    assert _radix_stages(n) == stages
    assert n <= 1 << span.bit_length()


def test_fft_length_is_least_even_5_smooth_above_span():
    en = importlib.import_module("sumsetlab.energy")
    top = 20_000
    smooth = [k for k in range(2, 2 * top + 2, 2) if _radix_stages(k) is not None]
    i = 0
    for span in range(1, top + 1):
        while smooth[i] <= span:
            i += 1
        n, stages = en._fft_length(span)
        assert n == smooth[i], span
        _check_fft_length(span, n, stages)
    limit = en._POLY_SPAN_LIMIT
    for base in (1 << 21, 1 << 22, limit):
        for span in (base - 2, base - 1, base, base + 1):
            want = span + 1
            while want % 2 or _radix_stages(want) is None:
                want += 1
            n, stages = en._fft_length(span)
            assert n == want, span
            _check_fft_length(span, n, stages)


@pytest.mark.parametrize("n", [64, 4096, 96, 4374, 80, 6250, 120, 3600])
def test_fft_kernel_on_pinned_lengths(monkeypatch, n):
    # n is a pure 2**a, a 2**a 3**b, a 2**a 5**c or a 2**a 3**b 5**c; span
    # n - 1 fills the top slot of the second half, span n moves past n
    en = importlib.import_module("sumsetlab.energy")
    lengths = []
    for name in ("rfft", "irfft"):
        transform_fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, m, f=transform_fn, **kw:
                            lengths.append(m) or f(a, m, **kw))
    rng = random.Random(n)
    for span in (n - 1, n):
        P = sorted({0, span, n // 2 - 1, n // 2, *rng.sample(range(span), min(150, span // 2))})
        P = [p - 7 for p in P]
        lengths.clear()
        counts = _fft_table(en, P)
        want = oracle_rep_counts(P, P, "diff")
        got = {s * d: int(c) for d, c in enumerate(counts.tolist()) if c for s in (1, -1)}
        assert got == want
        size = en._fft_length(span)[0]
        assert size == n if span < n else size > n
        assert lengths == [size] * 4
        assert all(_radix_stages(m) is not None for m in lengths)


def test_fft_kernel_on_dense_verify_shaped_set(monkeypatch):
    lengths = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, m, **kw: lengths.append(m) or rfft(a, m, **kw))
    # the set itself, and its popular differences, which diff_proj counts
    from sumsetlab import popular_differences

    n = 120
    A = gen_family(FamilySpec.random_subset(4 * n * n, n, seed=5))
    for P in (A, popular_differences(A)):
        assert _fft_projection(P, P) == _loop_projection(P, P)
    # two blocks of A, one of its popular differences, which mirror
    assert len(lengths) == 3
    assert all(m % 2 == 0 and _radix_stages(m) is not None for m in lengths)


def _check_difference_table(en, P):
    counts = _fft_table(en, P)
    assert counts.dtype == np.int64 and counts.size == P[-1] - P[0] + 1
    want = oracle_rep_counts(P, P, "diff")
    got = {s * d: int(c) for d, c in enumerate(counts.tolist()) if c for s in (1, -1)}
    assert got == want


@pytest.mark.parametrize("block", [8, 13, 64])
def test_fft_block_layout_at_block_boundaries(block):
    # a small _FFT_BLOCK gives small sets K = 2 .. 47 blocks of b points; the
    # spans K*b - 1, K*b and K*b + 1 fill the last block's top slot, then
    # spill into a new one (b is rounded up to a smooth length, so for an
    # odd block K*b - 1 already takes more than K blocks)
    en = importlib.import_module("sumsetlab.energy")
    rng = random.Random(block)
    with mock.patch.object(en, "_FFT_BLOCK", block):
        seen = set()
        for blocks in (2, 3, 7, 40):
            k, m, _ = en._block_layout(blocks * block - 1)
            b = m // 2
            for span in (blocks * block - 1, k * b - 1, k * b, k * b + 1):
                k_span, m_span, _ = en._block_layout(span)
                seen.add(k_span)
                b_span = m_span // 2
                first = rng.sample(range(1, b_span), min(20, b_span - 1))
                # the block holding the span's top point (rounding M up to a
                # smooth length can leave the K-th block past the span)
                top = range(max(1, span // b_span * b_span), span)
                last = rng.sample(top, min(20, len(top)))
                spread = rng.sample(range(1, span), min(60, span - 1))
                for inner in (first, last, spread, []):
                    P = sorted({0, span, *inner})
                    _check_difference_table(en, [p - 5 for p in P])
                    S = make_set(P)
                    assert _fft_projection(S, S) == _loop_projection(S, S)
        assert {2, 3, 7, 40} <= seen


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 13, 32, 64]),
       st.lists(st.integers(0, 400), min_size=1, max_size=40),
       st.sampled_from([0, -700, 2 ** 70, -(2 ** 90)]))
def test_fft_block_layout_matches_oracle(block, values, shift):
    # Python ints past int64 with a small span take the list path
    en = importlib.import_module("sumsetlab.energy")
    P = sorted({v + shift for v in values})
    with mock.patch.object(en, "_FFT_BLOCK", block):
        _check_difference_table(en, P)
        S = make_set(P)
        Q = make_set([P[0] - P[-1], 0, 1, (P[-1] - P[0]) // 2, P[-1] - P[0] + 1])
        for R in (S, Q):
            assert _fft_projection(S, R) == _loop_projection(S, R)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3, 7, 12]), st.data())
def test_streamed_projection_count_at_edge_lags(blocks, data):
    # the FFT kernel reads each block's lags from two sorted runs of |q|;
    # both kernels and the oracle agree on Q holding q and -q, the lags 0 and
    # +-span, lags past the span and a Q that the span filter empties, over
    # int64 sets and over rationals past int64 (the Python-int list path)
    en = importlib.import_module("sumsetlab.energy")
    block = 8
    span = data.draw(st.integers(block * (blocks - 1), block * blocks - 1))
    inner = data.draw(st.lists(st.integers(1, span - 1), max_size=24))
    offsets = sorted({0, span, *inner})
    lags = data.draw(st.lists(st.integers(-span, span), max_size=10))
    past = data.draw(st.lists(st.integers(span + 1, 3 * span), min_size=1, max_size=4))
    den = data.draw(st.sampled_from([1, 3]))
    shift = data.draw(st.sampled_from([0, -700, 2 ** 70, -(2 ** 90)]))
    P = make_set(Fraction(p + shift, den) for p in offsets)
    cases = {
        "both signs": [s * q for q in lags for s in (1, -1)],
        "ends": [0, span, -span, *lags],
        "past": [span + 1, -span - 1, *past, *(-q for q in past), *lags],
        "emptied": [*past, *(-q for q in past)],
    }
    with mock.patch.object(en, "_FFT_BLOCK", block):
        assert en._block_layout(span)[0] == blocks
        for name, qs in cases.items():
            if not qs:
                continue
            Q = make_set(Fraction(q, den) for q in qs)
            want = oracle_projection(P.elements, Q.elements)
            if name == "emptied":
                assert want == 0
            assert _fft_projection(P, Q) == want, name
            assert _loop_projection(P, Q) == want, name


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 7, 12]), st.data())
def test_truncated_fft_table_at_block_edges(blocks, data):
    # the kernel inverts only the buffers up to Q's largest |q|: that lag
    # at t*b - 1, t*b and t*b + 1 ends the table just before, at and just
    # after a block's first entry; at the span it takes every block, and
    # past the span the next |q| within it decides
    en = importlib.import_module("sumsetlab.energy")
    with mock.patch.object(en, "_FFT_BLOCK", 8):
        span = data.draw(st.integers(8 * (blocks - 1) + 1, 8 * blocks - 1))
        k, m, _ = en._block_layout(span)
        b = m // 2
        assert k == blocks
        inner = data.draw(st.lists(st.integers(1, span - 1), max_size=30))
        P = sorted({0, span, *inner})
        t = data.draw(st.integers(1, span // b))
        top = data.draw(st.sampled_from([t * b - 1, t * b, t * b + 1, span,
                                         span + data.draw(st.integers(1, 2 * span))]))
        sign = data.draw(st.sampled_from([1, -1]))
        rest = data.draw(st.lists(st.integers(-min(top, span), min(top, span)), max_size=8))
        Q = make_set([sign * top, *rest])
        want = oracle_projection(P, Q.elements)
        S = make_set(P)
        assert _fft_projection(S, Q) == want
        assert _loop_projection(S, Q) == want
        shift = data.draw(st.sampled_from([0, -700, 2 ** 70]))
        table = _fft_table(en, [p + shift for p in P], top)
        diffs = oracle_rep_counts(P, P, "diff")
        assert table.tolist() == [diffs.get(d, 0) for d in range(min(top, span) + 1)]


def _count_transforms(monkeypatch):
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        transform_fn = getattr(np.fft, name)

        def counted(*args, _name=name, _f=transform_fn, **kw):
            counts[_name] += 1
            return _f(*args, **kw)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize("blocks, half, span", [(2, 1, 60), (9, 5, 280)])
def test_fft_transform_counts_follow_the_largest_lag(monkeypatch, blocks, half, span):
    # P = -P is a palindrome, mirrored: ceil(K/2) forward transforms; it
    # asks for lags up to span / 2: span / 2 // b + 1 inverses, and a Q
    # holding the span takes all K.  P with one point more is no palindrome
    # and takes K forward transforms.
    en = importlib.import_module("sumsetlab.energy")
    monkeypatch.setattr(en, "_FFT_BLOCK", 32)
    assert en._block_layout(span)[:2] == (blocks, 64)
    rng = random.Random(span)
    h = span // 2
    P = make_set({s * x for x in (0, h, *rng.sample(range(1, h), 20)) for s in (1, -1)})
    Q = make_set([*P.elements, span])
    lone = make_set([*P.elements, min(set(range(1, h)) - set(P.elements))])
    counts = _count_transforms(monkeypatch)
    mirrored = -(-blocks // 2)
    cases = [(P, P, mirrored, half), (P, Q, mirrored, blocks), (lone, lone, blocks, half)]
    for S, R, forward, inverses in cases:
        counts.update(rfft=0, irfft=0)
        want = oracle_projection(S.elements, R.elements)
        assert _fft_projection(S, R) == want
        assert counts == {"rfft": forward, "irfft": inverses}
    # no lag within the span: no table at all
    counts.update(rfft=0, irfft=0)
    assert _fft_projection(P, make_set([span + 1])) == 0
    assert counts == {"rfft": 0, "irfft": 0}


def _palindrome(span, inner):
    """The offsets 0, span and each x of `inner` with its mirror span - x."""
    return sorted({0, span, *inner, *(span - x for x in inner)})


@contextlib.contextmanager
def _counted_rfft():
    """Count the forward transforms run inside the block."""
    count = [0]
    rfft = np.fft.rfft

    def counted(*args, **kw):
        count[0] += 1
        return rfft(*args, **kw)

    with mock.patch.object(np.fft, "rfft", counted):
        yield count


def _mirrored_layout(en, span):
    """K, b and whether a palindrome of this span is mirrored: K*b - span
    even, its lead pad (K*b - span) / 2 putting the centre on K*b."""
    k, m, _ = en._block_layout(span)
    b = m // 2
    return k, b, (k * b - span) % 2 == 0


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 7, 12]), st.data())
def test_mirrored_fft_table_matches_oracle(blocks, data):
    # a palindrome whose span has the parity of K*b transforms ceil(K/2)
    # blocks and reads the others' spectra off their mirrors; the other
    # parity transforms all K.  Points on the padded block edges make the
    # scalar terms x_i[0] and x_{i+1}[0] one.  Tables and projection counts
    # agree with the oracle and the loop, past int64 and over rationals too.
    en = importlib.import_module("sumsetlab.energy")
    with mock.patch.object(en, "_FFT_BLOCK", 8):
        span = data.draw(st.integers(8 * (blocks - 1), 8 * blocks - 1))
        k, b, mirrored = _mirrored_layout(en, span)
        assert k == blocks
        pad = (k * b - span) // 2
        edges = [j * b - pad for j in range(1, k) if 0 < j * b - pad < span]
        inner = data.draw(st.lists(st.integers(1, span - 1), max_size=20))
        if mirrored:
            inner += data.draw(st.lists(st.sampled_from(edges), max_size=k))
        offsets = _palindrome(span, inner)
        shift = data.draw(st.sampled_from([0, -700, 2 ** 70, -(2 ** 90)]))
        den = data.draw(st.sampled_from([1, 3]))
        forward = -(-k // 2) if mirrored else k
        diffs = oracle_rep_counts(offsets, offsets, "diff")
        with _counted_rfft() as count:
            table = _fft_table(en, [p + shift for p in offsets])
        assert count == [forward]
        assert table.tolist() == [diffs.get(d, 0) for d in range(span + 1)]
        P = make_set(Fraction(p + shift, den) for p in offsets)
        lags = data.draw(st.lists(st.integers(-span - 2, span + 2), max_size=10))
        # P as its own Q has lags within the span only when not shifted
        for Q in (make_set(Fraction(q, den) for q in [span, *lags]), P)[:2 - bool(shift)]:
            want = oracle_projection(P.elements, Q.elements)
            with _counted_rfft() as count:
                assert _fft_projection(P, Q) == want
            # a den dividing every offset and lag leaves a smaller span
            scaled = en._operands(P, Q, "diff")[0]
            k, _, mirrored = _mirrored_layout(en, int(scaled[-1]) - int(scaled[0]))
            assert count == [-(-k // 2) if mirrored else k]
            assert _loop_projection(P, Q) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 7, 12]), st.data())
def test_near_palindromes_are_not_mirrored(blocks, data):
    # one point off a mirrored palindrome (moved by one, dropped or added,
    # the span kept) transforms all K blocks, and its table is exact
    en = importlib.import_module("sumsetlab.energy")
    with mock.patch.object(en, "_FFT_BLOCK", 8):
        span = data.draw(st.integers(8 * (blocks - 1), 8 * blocks - 1))
        k, _, mirrored = _mirrored_layout(en, span)
        assume(mirrored)
        inner = data.draw(st.lists(st.integers(1, span - 1), max_size=20))
        palindrome = _palindrome(span, inner)
        x = data.draw(st.integers(1, span - 1))
        near = set(palindrome)
        how = data.draw(st.sampled_from(["move", "toggle"]))
        if how == "move":
            assume(x in near and x + 1 not in near and x + 1 < span)
            near ^= {x, x + 1}
        else:
            near ^= {x}
        near = sorted(near)
        assume(near != _palindrome(span, near[1:-1]))
        assert not en._is_palindrome(np.array(near) - near[0])
        diffs = oracle_rep_counts(near, near, "diff")
        with _counted_rfft() as count:
            table = _fft_table(en, near)
        assert count == [k]
        assert table.tolist() == [diffs.get(d, 0) for d in range(span + 1)]


@pytest.mark.parametrize("offsets, forward", [
    ([0], 1),               # span 0: the one point is block 1's head
    ([0, 1], 2),            # K*b - span = 1, odd
    ([0, 2], 1),
    ([0, 3], 2),            # an odd span, K*b - span = 1
    ([0, 1, 2], 1),
    ([0, 2, 4], 1),         # the centre point heads block 1
    ([0, 1, 3, 4], 1),
    ([0, 1, 3], 2),         # no palindrome
    ([0, 3, 4], 2),         # pairs of the ends agree, the middle does not
])
def test_mirror_on_small_sets(offsets, forward):
    en = importlib.import_module("sumsetlab.energy")
    span = offsets[-1]
    assert _mirrored_layout(en, span)[0] == 2
    diffs = oracle_rep_counts(offsets, offsets, "diff")
    for shift in (0, -5, 2 ** 70):
        with _counted_rfft() as count:
            table = _fft_table(en, [p + shift for p in offsets])
        assert count == [forward]
        assert table.tolist() == [diffs.get(d, 0) for d in range(span + 1)]


def _corrupt_irfft(monkeypatch, row, deltas, half=1):
    # add deltas[j] at entry j of the upper (half = 1) or lower (half = 0)
    # half of inverse transform `row`, buffer U_row: its lower half is block
    # row of the table, its upper half is never yielded
    calls = []
    irfft = np.fft.irfft

    def patched(a, m, **kw):
        out = irfft(a, m, **kw)
        if len(calls) == row:
            for lag, delta in deltas.items():
                out[half * (m // 2) + lag] += delta
        calls.append(m)
        return out

    monkeypatch.setattr(np.fft, "irfft", patched)
    return calls


@pytest.mark.parametrize("deltas", [
    {5: 1.0},                              # one lag: mass
    {3: 1.0, 9: -1.0},                     # mass kept: first moment
    {j: 1.0 for j in range(2, 12)},        # a band: mass and moment
    {j: 0.3 for j in range(4, 8)},         # a band off the integers
])
@pytest.mark.parametrize("row", [1, 2, 6])
def test_fft_certification_covers_every_block(monkeypatch, row, deltas):
    en = importlib.import_module("sumsetlab.energy")
    monkeypatch.setattr(en, "_FFT_BLOCK", 32)
    rng = random.Random(row)
    P = sorted({0, 250, *rng.sample(range(250), 90)})
    k, m, _ = en._block_layout(P[-1])
    assert k > row
    _check_difference_table(en, P)
    calls = _corrupt_irfft(monkeypatch, row, deltas)
    with pytest.raises(ExactnessError, match="failed certification"):
        _fft_table(en, P)
    # a buffer is certified before its block is yielded: the bad one stops
    # the table
    assert calls == [m] * (row + 1)


@pytest.mark.parametrize("deltas", [
    {5: 1.0},                              # one lag: mass
    {3: 1.0, 9: -1.0},                     # mass kept: first moment
    {j: 1.0 for j in range(2, 12)},        # a band: mass and moment
    {j: 0.3 for j in range(4, 8)},         # a band off the integers
])
@pytest.mark.parametrize("half", [0, 1])
def test_fft_certification_covers_truncated_last_block(monkeypatch, half, deltas):
    # a table cut at lag 100 (block 3 of 8) inverts 4 buffers; the last is
    # certified whole, the lags it yields, those past the cut and its upper
    # half alike
    en = importlib.import_module("sumsetlab.energy")
    monkeypatch.setattr(en, "_FFT_BLOCK", 32)
    rng = random.Random(half)
    P = sorted({0, 250, *rng.sample(range(250), 90)})
    k, m, _ = en._block_layout(P[-1])
    assert (k, m) == (8, 64)
    diffs = oracle_rep_counts(P, P, "diff")
    assert _fft_table(en, P, 100).tolist() == [diffs.get(d, 0) for d in range(101)]
    calls = _corrupt_irfft(monkeypatch, 3, deltas, half)
    with pytest.raises(ExactnessError, match="failed certification in block 3"):
        _fft_table(en, P, 100)
    assert calls == [m] * 4


def _streamed_peak(en, P, lags):
    """Peak numpy memory (tracemalloc) while P's difference table streams
    past, the number of lags it covers, and its counts at `lags`, read from
    each block as it passes."""
    import tracemalloc

    got = {}
    tracemalloc.start()
    try:
        lo = 0
        for block in en._difference_counts_fft(P, int(P[-1]) - int(P[0])):
            assert block.dtype == np.int64
            for lag in lags:
                if lo <= lag < lo + block.size:
                    got[lag] = int(block[lag - lo])
            lo += block.size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, lo, got


@pytest.mark.parametrize("lag", [1, 9, 17, 30])
def test_fft_symmetry_check_reads_all_of_r0(monkeypatch, lag):
    # R_0's negative lags share buffer U_0's upper half with R_1's lags
    # 0..b-1 and enter no block of the table; only the certificate's mass
    # and moment read them: a delta anywhere in that half must be seen
    en = importlib.import_module("sumsetlab.energy")
    monkeypatch.setattr(en, "_FFT_BLOCK", 32)
    rng = random.Random(lag)
    P = sorted({0, 250, *rng.sample(range(250), 90)})
    k, m, _ = en._block_layout(P[-1])
    assert m // 2 == 32 and k > 2
    calls = _corrupt_irfft(monkeypatch, 0, {lag: 1.0})
    with pytest.raises(ExactnessError) as info:
        _fft_table(en, P)
    failed = str(info.value).split(": ", 1)[1].split("; ")
    assert [f.split(" ")[0] for f in failed] == ["mass", "first"]
    assert calls == [m]


def test_fft_kernel_peak_memory_per_span_point():
    # the two-halves kernel peaked at 34.4 bytes of numpy memory per span
    # point; blocks of a large span free each spectrum once inverted
    en = importlib.import_module("sumsetlab.energy")
    rng = np.random.default_rng(21)
    span = (1 << 21) + 12_345
    P = np.unique(np.concatenate(([0, span], rng.integers(0, span, 20_000))))
    assert en._block_layout(span)[0] > 2
    peak, size, counts = _streamed_peak(en, P, [0, span])
    assert size == span + 1 and counts == {0: P.size, span: 1}
    assert peak < 34.4 * span


def test_fft_kernel_rounds_its_table_in_place():
    # two blocks: rounding into fresh float and int64 tables peaked at
    # 34 bytes per span point, rounding in place at 27-27.4
    en = importlib.import_module("sumsetlab.energy")
    rng = np.random.default_rng(21)
    span = 300_000
    P = np.unique(np.concatenate(([0, span], rng.integers(0, span, 20_000))))
    assert en._block_layout(span)[0] == 2
    lags = [0, 1, span] + rng.integers(2, span, 40).tolist()
    peak, size, counts = _streamed_peak(en, P, lags)
    assert size == span + 1
    for lag in lags:
        assert counts[lag] == np.intersect1d(P, P + lag).size
    assert peak < 28 * span


@pytest.mark.parametrize("span, blocks, limit", [
    ((1 << 21) + 12_345, 9, 20),
    (700_000, 3, 25),
])
def test_fft_kernel_streams_its_table(span, blocks, limit):
    # at its peak the kernel holds its K spectrum rows and one spare
    # buffer, never the whole table: about 16 + 16/K bytes per span point
    # (18.0 at K = 9 and 21.6 at K = 3; keeping the float table next to the
    # spectra peaked at 26.0 and 29.5)
    en = importlib.import_module("sumsetlab.energy")
    rng = np.random.default_rng(span)
    P = np.unique(np.concatenate(([0, span], rng.integers(0, span, 20_000))))
    assert en._block_layout(span)[0] == blocks
    lags = [0, 1, span] + rng.integers(2, span, 20).tolist()
    peak, size, counts = _streamed_peak(en, P, lags)
    assert size == span + 1
    for lag in lags:
        assert counts[lag] == np.intersect1d(P, P + lag).size
    assert peak < limit * span


@pytest.mark.parametrize("span, blocks, limit", [
    (300_000, 2, 28),
    ((1 << 21) + 12_346, 9, 20),
])
def test_mirrored_fft_kernel_stays_within_its_memory(span, blocks, limit):
    # a palindrome derives the spectra of its upper blocks in their own
    # rows: the bounds of the unmirrored kernel at K = 2 and K = 9 hold
    en = importlib.import_module("sumsetlab.energy")
    rng = np.random.default_rng(span)
    half = rng.integers(1, span // 2, 10_000)
    P = np.unique(np.concatenate(([0, span], half, span - half)))
    k, _, mirrored = _mirrored_layout(en, span)
    assert k == blocks and mirrored
    lags = [0, 1, span] + rng.integers(2, span, 20).tolist()
    with _counted_rfft() as count:
        peak, size, counts = _streamed_peak(en, P, lags)
    assert count == [-(-blocks // 2)]
    assert size == span + 1
    for lag in lags:
        assert counts[lag] == np.intersect1d(P, P + lag).size
    assert peak < limit * span


# -- pair set sizes ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(rational_sets, rational_sets, st.sampled_from(["sum", "diff", "prod"]))
def test_pair_set_size_agrees_with_materialized(A, B, op):
    assert pair_set_size(A, B, op) == len(pair_set(A, B, op))


def test_pair_set_size_big_geometric():
    # powers of two: sums of pairs are distinct, products collapse to 2n-1
    A = gen_family(FamilySpec.gp(1, 2, 40))
    n = len(A)
    assert pair_set_size(A, A, "sum") == n * (n + 1) // 2
    assert pair_set_size(A, A, "prod") == 2 * n - 1
    assert pair_set_size(A, A, "diff") == n * (n - 1) + 1


def test_pair_set_size_fingerprint_path_matches_set_path():
    from sumsetlab.energy import _distinct_count_fingerprint

    A = gen_family(FamilySpec.random_subset(10_000, 150, seed=9))
    B = gen_family(FamilySpec.random_subset(10_000, 140, seed=10))
    for op in ("sum", "diff", "prod"):
        want = len({
            {"sum": lambda a, b: a + b,
             "diff": lambda a, b: a - b,
             "prod": lambda a, b: a * b}[op](a, b)
            for a in A for b in B
        })
        assert _distinct_count_fingerprint(A, B, op) == want
        same_want = len({
            {"sum": lambda a, b: a + b,
             "diff": lambda a, b: a - b,
             "prod": lambda a, b: a * b}[op](a, b)
            for a in A for b in A
        })
        assert _distinct_count_fingerprint(A, A, op) == same_want


_PY_OPS = {
    "sum": lambda a, b: a + b,
    "diff": lambda a, b: a - b,
    "prod": lambda a, b: a * b,
    "ratio": lambda a, b: Fraction(a) / b,
}
# elements past int64 (beyond 2**62) mixed with small ones and rationals
_huge_elements = st.one_of(
    st.integers(-50, 50),
    st.integers(1 << 62, 1 << 90),
    st.integers(-(1 << 90), -(1 << 62)),
    st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 9)),
)
_huge_sets = st.lists(_huge_elements, min_size=1, max_size=12).map(make_set)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_sets, _huge_sets), st.one_of(rational_sets, _huge_sets),
       st.sampled_from(sorted(_PY_OPS)), st.booleans())
def test_fingerprint_counter_matches_python_set(A, B, op, same):
    from sumsetlab.energy import _distinct_count_fingerprint

    if same:
        B = A
    assume(op != "ratio" or 0 not in B)
    want = len({_PY_OPS[op](a, b) for a in A for b in B})
    assert _distinct_count_fingerprint(A, B, op) == want
    assert pair_set_size(A, B, op) == want


def test_fingerprint_counter_resolves_forced_collisions(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")

    # with primes 3 and 5 every pair falls into one of 15 key groups, so
    # counts above 15 are right only if mixed groups are resolved exactly;
    # a tiny chunk makes groups straddle chunk boundaries
    monkeypatch.setattr(en, "_KEY_PRIMES", (3, 5))
    monkeypatch.setattr(en, "_CHECK_CHUNK", 7)
    G = gen_family(FamilySpec.gp(1, 2, 40))
    R = gen_family(FamilySpec.random_subset(10_000, 30, seed=4))
    Q = make_set([Fraction(k, 3) for k in range(-20, 21, 3)] + [1 << 70])
    for A, B in ((G, G), (G, R), (R, R), (R, Q), (Q, Q), (Q, G)):
        for op in ("sum", "diff", "prod", "ratio"):
            if op == "ratio" and 0 in B:
                continue
            want = len({_PY_OPS[op](a, b) for a in A for b in B})
            assert en._distinct_count_fingerprint(A, B, op) == want
    n = len(G)
    assert en._distinct_count_fingerprint(G, G, "sum") == n * (n + 1) // 2 > 15


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_sets, _huge_sets), st.one_of(rational_sets, _huge_sets),
       st.sampled_from(sorted(_PY_OPS)), st.booleans())
def test_rep_fn_table_matches_oracle_past_int64(A, B, op, same):
    if same:
        B = A
    assume(op != "ratio" or 0 not in B)
    want = oracle_rep_counts(A.elements, B.elements, op)
    f = rep_fn(A, B, op)
    assert f.counts == want
    assert list(f.counts) == sorted(want)
    assert f.size == len(want) == pair_set_size(A, B, op)
    assert all(f.get(x) == c for x, c in want.items())
    assert f.support() == pair_set(A, B, op)
    assert f.support().elements == tuple(sorted(want))
    mask = f.counts_array >= 2
    assert f.select(mask).elements == tuple(sorted(x for x, c in want.items() if c >= 2))


# elements on both sides of INT64_SAFE = 2**62: a set's view may be int64
# while another's, or its pair values', is an object array
_straddling_sets = st.lists(
    st.one_of(st.integers(-3, 3).map(lambda k: INT64_SAFE + k),
              st.integers(-3, 3).map(lambda k: -INT64_SAFE + k),
              st.integers(-6, 6),
              st.fractions(min_value=-3, max_value=3, max_denominator=2)),
    min_size=1, max_size=8).map(make_set)


@settings(max_examples=80, deadline=None)
@given(_straddling_sets, _straddling_sets, _straddling_sets, st.sampled_from(sorted(_PY_OPS)))
def test_kernels_match_oracles_on_sets_straddling_int64_safe(A, B, P, op):
    if op != "ratio" or 0 not in B:
        want = oracle_rep_counts(A.elements, B.elements, op)
        f = rep_fn(A, B, op)
        assert f.counts == want and pair_set_size(A, B, op) == len(want)
        # a table's support carries its scaled integers as its view
        S = f.support()
        assert pair_set_size(S, P, "diff") == len({s - p for s in want for p in P})
    if op != "ratio":
        members = P.elements
        assert pair_membership(A, B, op, P).tolist() == [
            [_PY_OPS[op](a, b) in members for b in B.elements] for a in A.elements]
    assert projection_count(P, A) == oracle_projection(P.elements, A.elements)
    assert projection_count(A, A) == oracle_projection(A.elements, A.elements)


@pytest.mark.parametrize("shift", [-INT64_SAFE, INT64_SAFE - 40, INT64_SAFE])
def test_fft_projection_on_a_set_straddling_int64_safe(shift):
    P = make_set(shift + 3 * k for k in range(-20, 27))
    Q = make_set(list(range(-150, 150, 7)) + [INT64_SAFE, -INT64_SAFE])
    assert _fft_projection(P, Q) == oracle_projection(P.elements, Q.elements)


def test_grouped_table_resolves_forced_collisions(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")

    # with primes 3 and 5 nearly every residue key group holds distinct
    # values; a table past int64 sorts the exact values and is left exact
    monkeypatch.setattr(en, "_KEY_PRIMES", (3, 5))
    monkeypatch.setattr(en, "_CHECK_CHUNK", 7)
    G = gen_family(FamilySpec.gp(1, 2, 40))
    R = gen_family(FamilySpec.random_subset(10_000, 30, seed=4))
    Q = make_set([Fraction(k, 3) for k in range(-20, 21, 3)] + [1 << 70])
    for A, B in ((G, G), (G, R), (R, R), (R, Q), (Q, Q), (Q, G)):
        for op in ("sum", "diff", "prod", "ratio"):
            if op == "ratio" and 0 in B:
                continue
            want = oracle_rep_counts(A.elements, B.elements, op)
            assert rep_fn(A, B, op).counts == want
            f = en._sorted_rep(A, B, op)
            values, counts, scale = f.scaled_values, f.counts_array, f.scale
            got = dict(zip((as_rational(Fraction(v, scale)) for v in values), counts.tolist()))
            assert got == want and list(got) == sorted(want)


_huge_or_empty_sets = st.one_of(rational_sets, _huge_sets, st.lists(_huge_elements, max_size=1).map(make_set))


@settings(max_examples=80, deadline=None)
@given(_huge_or_empty_sets, _huge_or_empty_sets, st.sampled_from(sorted(_PY_OPS)),
       st.sampled_from(["same", "copy", "other"]))
@example(A=make_set([]), B=make_set([]), op="diff", pairing="same")
@example(A=make_set([0]), B=make_set([1 << 70]), op="prod", pairing="other")
@example(A=make_set([-(1 << 70), 0, Fraction(1, 3), 1 << 64]), B=make_set([]), op="ratio",
         pairing="copy")
def test_sorted_table_matches_oracle(A, B, op, pairing):
    # the builder itself, so products and ratios skip the coprime base as
    # they do past its cap
    en = importlib.import_module("sumsetlab.energy")
    if pairing != "other":
        B = A if pairing == "same" else make_set(A.elements)
    assume(op != "ratio" or 0 not in B)
    want = oracle_rep_counts(A.elements, B.elements, op)
    f = en._sorted_rep(A, B, op)
    assert not f.is_numpy and f.counts == want and list(f.counts) == sorted(want)
    assert f.counts_array.dtype == np.int64 and int(f.counts_array.sum()) == f.mass
    if op == "diff" and A == B and len(A):  # a drawn B may equal A too
        assert f.pair_pos.dtype == np.int32
        values = f.support().elements
        placed = [values[k] for k in f.pair_pos.tolist()]
        assert placed == [A.elements[i] - A.elements[j] for i, j in zip(*np.tril_indices(len(A), -1))]
    else:
        assert f.pair_pos is None


@pytest.mark.parametrize("A", [
    make_set([1 << 70]),
    make_set([0, 1 << 70]),
    gen_family(FamilySpec.ap(1 << 63, 1, 40)),
    gen_family(FamilySpec.ap(Fraction(1 << 64, 3), Fraction(2, 5), 30)),
    make_set([-(1 << 66), -3, 0, Fraction(1, 7), 5, 1 << 66, (1 << 67) + 5]),
], ids=["singleton", "with-0", "AP", "rational-AP", "symmetric"])
def test_sorted_difference_table_places_each_pair_at_its_value(A):
    # each positive difference repeats in an AP: runs of many pairs share an entry
    f = rep_fn(A, A, "diff")
    assert not f.is_numpy and f.pair_pos.size == len(A) * (len(A) - 1) // 2
    values = f.support().elements
    placed = [values[k] for k in f.pair_pos.tolist()]
    assert placed == [A.elements[i] - A.elements[j] for i, j in zip(*np.tril_indices(len(A), -1))]
    assert f.counts == oracle_rep_counts(A.elements, A.elements, "diff")


def test_sum_and_difference_tables_past_int64_compute_no_residue_key(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")
    sets_module = importlib.import_module("sumsetlab.sets")

    def refuse(*args, **kwargs):
        raise AssertionError("a residue key was computed")

    monkeypatch.setattr(en, "_PairGroups", refuse)
    monkeypatch.setattr(sets_module._IntView, "residues", refuse)
    G = gen_family(FamilySpec.gp(1, 2, 70))
    Q = make_set([Fraction(k, 3) for k in range(-20, 21, 3)] + [1 << 70])
    for A, B in ((G, G), (G, make_set(G.elements)), (G, Q), (Q, Q)):
        for op in ("sum", "diff"):
            assert rep_fn(A, B, op).counts == oracle_rep_counts(A.elements, B.elements, op)


def test_repfn_select_dict_mode():
    A = gen_family(FamilySpec.gp(1, 2, 70))
    f = rep_fn(A, A, "diff")
    assert not f.is_numpy
    mask = np.arange(f.size) % 3 == 0
    assert f.select(mask).elements == tuple(sorted(f.counts)[::3])
    assert f.select(f.counts_array >= 2).elements == (0,)
    assert f.support() == pair_set(A, A, "diff")


def test_repfn_select_numpy_mode_with_scale():
    A = gen_family(FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 20))
    f = rep_fn(A, A, "sum")
    assert f.is_numpy and A.int_view.scale == 21
    mask = f.counts_array >= 5
    want = sorted(v for v, c in oracle_rep_counts(A.elements, A.elements, "sum").items()
                  if c >= 5)
    assert f.select(mask).elements == tuple(want)
    assert any(isinstance(v, Fraction) for v in want)
    assert f.support() == pair_set(A, A, "sum")


def test_repfn_rejects_mass_beyond_int64():
    RepFn("sum", 1 << 32, (1 << 31) - 1)
    with pytest.raises(DomainError):
        RepFn("sum", 1 << 32, 1 << 31)


# -- the int64 table kernel: one in-place sort ----------------------------------

def _assert_int64_table(A, B, op):
    """rep_fn's int64 table of A op B against the naive oracle, and every
    reading of it (get, select, pair_set_size) against the table."""
    f = rep_fn(A, B, op)
    want = oracle_rep_counts(A.elements, B.elements, op)
    assert f.is_numpy
    assert list(f.counts.items()) == sorted(want.items())
    vals = f.scaled_values
    assert isinstance(vals, np.ndarray) and np.issubdtype(vals.dtype, np.integer)
    assert vals.size == f.size == len(want)
    assert bool(np.all(vals[1:] > vals[:-1]))
    assert [as_rational(Fraction(int(v), f.scale)) for v in vals] == sorted(want)
    assert f.counts_array.dtype == np.int64 and int(f.counts_array.sum()) == f.mass
    for x, c in want.items():
        assert f.get(x) == c
    lo, hi = min(want), max(want)
    for x in (lo - 1, hi + 1, Fraction(lo + hi, 2) + Fraction(1, 1009)):
        assert f.get(x) == want.get(x, 0)
    popular = f.counts_array >= 2
    assert f.select(popular).elements == tuple(sorted(x for x, c in want.items() if c >= 2))
    assert f.support().elements == tuple(sorted(want))
    assert pair_set_size(A, B, op) == f.size


def _pinned_span_sets(na, nb, span, offset, rng):
    """Sets of sizes na and nb whose sums and differences span exactly
    `span`: A's width plus B's width; A starts at `offset`, B at 0."""
    wa = rng.randint(na - 1, span - (nb - 1))
    wb = span - wa
    A = [offset, offset + wa] + [offset + x for x in rng.sample(range(1, wa), na - 2)]
    B = [0, wb] + rng.sample(range(1, wb), nb - 2)
    return make_set(A), make_set(B)


@st.composite
def _int64_table_operands(draw):
    """(A, B) pairs whose int64 tables sit on both sides of the former
    histogram rule (span <= 16 * pairs and <= 2**24) and on both sides of
    the int32 downcast of sum and difference values."""
    kind = draw(st.sampled_from(["ap", "ap21", "pinned", "wide24", "wide40"]))
    same = draw(st.booleans())
    if kind in ("ap", "ap21"):
        # span far below the pair count
        a, d = (Fraction(1, 3), Fraction(2, 7)) if kind == "ap21" else (
            draw(st.integers(-50, 50)), draw(st.integers(1, 9)))
        A = gen_family(FamilySpec.ap(a, d, draw(st.integers(1, 30))))
        B = gen_family(FamilySpec.ap(a, d * 2, draw(st.integers(1, 30))))
    elif kind == "pinned":
        na, nb = draw(st.integers(2, 9)), draw(st.integers(2, 9))
        extra = draw(st.sampled_from([0, 1]))
        offset = draw(st.sampled_from([0, -(1 << 31), 1 << 40]))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        if same:
            # A - A and A + A span twice A's width: 16|A|**2 and 16|A|**2 + 2
            width = 8 * na * na + extra
            A = B = make_set([offset, offset + width]
                             + [offset + x for x in rng.sample(range(1, width), na - 2)])
        else:
            A, B = _pinned_span_sets(na, nb, 16 * na * nb + extra, offset, rng)
    else:
        bound = 1 << (25 if kind == "wide24" else 40)
        elems = st.lists(st.integers(-bound, bound), min_size=1, max_size=12)
        A, B = make_set(draw(elems)), make_set(draw(elems))
    return A, (A if same else B)


@settings(max_examples=120, deadline=None)
@given(_int64_table_operands(), st.sampled_from(["sum", "diff", "prod"]))
def test_int64_table_matches_oracle_across_span_regimes(AB, op):
    A, B = AB
    # products of values near 2**31 and beyond leave int64
    assume(importlib.import_module("sumsetlab.energy")._outer_int64(A, B, op) is not None)
    _assert_int64_table(A, B, op)


@pytest.mark.parametrize("offset, dtype", [(0, np.int32), (1 << 40, np.int64)])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("op", ["sum", "diff"])
def test_int64_table_pinned_at_former_histogram_rule(offset, dtype, extra, op):
    # spans 16 * pairs (the histogram took it) and 16 * pairs + 1 (it did not)
    en = importlib.import_module("sumsetlab.energy")
    A, B = _pinned_span_sets(7, 5, 16 * 7 * 5 + extra, offset, random.Random(extra))
    flat, scale = en._outer_int64(A, B, op)
    assert flat.dtype == dtype and scale == 1
    assert int(flat.max()) - int(flat.min()) == 16 * flat.size + extra
    _assert_int64_table(A, B, op)
    _assert_int64_table(A, A, op)


def test_int64_table_past_histogram_span_limit():
    # a span past 2**24 with int32 values, and the scale-21 rational AP
    A = make_set([-(1 << 25), -7, 0, 3, 11, 1 << 25])
    for op in ("sum", "diff", "prod"):
        _assert_int64_table(A, A, op)
    R = gen_family(FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 25))
    assert R.int_view.scale == 21
    for op in ("sum", "diff", "prod"):
        _assert_int64_table(R, R, op)
        _assert_int64_table(R, A, op)


_EXACT_OPS = {"sum": lambda x, y: x + y, "diff": lambda x, y: x - y,
              "prod": lambda x, y: x * y}


def _check_operands(A, B, op, scale=1):
    """Check `_operands(A, B, op, scale)`: every scaled pair value is exact,
    and int64 arrays come exactly when the largest pair value the operands'
    magnitudes allow, and each operand, lies below INT64_SAFE.  Returns
    that largest pair value."""
    en = importlib.import_module("sumsetlab.energy")
    a, b, s = en._operands(A, B, op, scale)
    assert s % scale == 0
    want = [[s * _EXACT_OPS[op](x, y) for y in B.elements] for x in A.elements]
    big_a, big_b = (max(abs(int(v)) for v in ops) for ops in (a, b))
    largest = big_a * big_b if op == "prod" else big_a + big_b
    fits = max(big_a, big_b, largest) < INT64_SAFE
    if fits:
        assert a.dtype == b.dtype == np.int64
        # int64 arithmetic, so a wrapped value would differ
        assert en._PAIR_FUNCS[op][0].outer(a, b).tolist() == want
    else:
        assert all(type(v) is int for v in (*a, *b))
        assert [[_EXACT_OPS[op](x, y) for y in b] for x in a] == want
    return largest


@st.composite
def _operand_sets(draw):
    # int64 sets, rationals and sets past int64, near the fit boundary
    bits = draw(st.sampled_from([4, 30, 31, 32, 60, 61, 62, 63, 70]))
    den = draw(st.sampled_from([1, 1, 3, 7]))
    nums = draw(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=1, max_size=6))
    return make_set(Fraction(v, den) for v in nums)


@settings(max_examples=200, deadline=None)
@given(_operand_sets(), _operand_sets(), st.sampled_from(["sum", "diff", "prod"]),
       st.sampled_from([1, 2, 21]))
# products with 0 all fit, but the operand 2**70 does not
@example(make_set([0]), make_set([1 << 70]), "prod", 1)
def test_operands_are_exact_and_int64_exactly_when_they_fit(A, B, op, scale):
    _check_operands(A, B, op, scale)


@pytest.mark.parametrize("op, A, B", [
    # the largest pair value is L, with the operands scaled by 3, 1 and 10
    ("sum", lambda L: [Fraction(1, 3), Fraction(L - 5, 3)], lambda L: [Fraction(5, 3)]),
    ("diff", lambda L: [1, L - 5], lambda L: [-5]),
    # INT64_SAFE - 1 = (2**31 - 1)(2**31 + 1) and INT64_SAFE = 2**31 * 2**31
    ("prod", lambda L: [Fraction(3, 2), Fraction(2 ** 31 - L % 2, 2)],
     lambda L: [Fraction(2 ** 31 + L % 2, 5)]),
], ids=["sum", "diff", "prod"])
def test_operands_pinned_at_the_int64_bound(op, A, B):
    assert INT64_SAFE == 1 << 62
    for largest in (INT64_SAFE - 1, INT64_SAFE):
        assert _check_operands(make_set(A(largest)), make_set(B(largest)), op) == largest


def test_empty_sets():
    E = make_set([])
    assert pair_set(E, A123, "sum") == E
    assert pair_set_size(A123, E, "diff") == 0
    assert rep_fn(E, E, "sum").counts == {}
    assert projection_count(E, A123) == 0


# -- csv dump ------------------------------------------------------------------

def test_repfn_csv_roundtrip(tmp_path):
    f = rep_fn(make_set([Fraction(1, 2), 1, 3]), make_set([1, 2]), "diff")
    p = tmp_path / "rep.csv"
    dump_repfn_csv(f, p)
    text = p.read_text()
    assert text.splitlines()[0] == "value,count"
    assert load_repfn_csv(p) == f.counts


def test_repfn_csv_rejects_wrong_header(tmp_text):
    p = tmp_text("bad.csv", "a,b\n1,2\n")
    from sumsetlab import DomainError

    with pytest.raises(DomainError):
        load_repfn_csv(p)


# -- sorted membership ---------------------------------------------------------

def _membership_target(X, Y, op, kind):
    if kind == "x":
        return X
    values = pair_set(X, Y, op).elements
    return make_set(values[::2] + (Fraction(1, 7),))  # hits and misses


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_sets, _huge_sets), st.one_of(rational_sets, _huge_sets),
       st.sampled_from(["sum", "diff", "prod"]), st.booleans(),
       st.sampled_from(["x", "half", "other"]), st.one_of(rational_sets, _huge_sets))
def test_pair_membership_matches_python_set(X, Y, op, same, kind, other):
    if same:
        Y = X
    P = other if kind == "other" else _membership_target(X, Y, op, kind)
    members = set(P.elements)
    want = [[_PY_OPS[op](x, y) in members for y in Y] for x in X]
    assert pair_membership(X, Y, op, P).tolist() == want
    assert pair_membership(X, Y, op, P, per_row=True).tolist() == [sum(r) for r in want]


def test_pair_membership_resolves_forced_collisions(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")

    # with primes 3 and 5 every value shares its key with many others, so a
    # key hit proves nothing and P repeats keys; a tiny chunk splits rows
    monkeypatch.setattr(en, "_KEY_PRIMES", (3, 5))
    monkeypatch.setattr(en, "_MEMBERSHIP_CHUNK", 7)
    G = gen_family(FamilySpec.gp(1, 2, 70))
    R = gen_family(FamilySpec.random_subset(10_000, 30, seed=4))
    Q = make_set([Fraction(k, 3) for k in range(-20, 21, 3)] + [1 << 70])
    hits = 0
    for X, Y in ((G, G), (G, R), (R, Q), (Q, Q), (Q, G)):
        for op in ("sum", "diff", "prod"):
            for kind in ("x", "half"):
                P = _membership_target(X, Y, op, kind)
                members = set(P.elements)
                want = [[_PY_OPS[op](x, y) in members for y in Y] for x in X]
                got = en.pair_membership(X, Y, op, P)
                assert got.tolist() == want
                hits += int(got.sum())
    assert hits > 1000


def _int32_edge_sets():
    # elements near +-2**30: the largest |a| + |b| falls on either side of
    # 2**31, where the int64 outer array is downcast to int32
    near = st.integers(-40, 40).map(lambda d: (1 << 30) + d)
    elements = st.one_of(near, near.map(lambda v: -v), st.integers(-40, 40))
    return st.lists(elements, min_size=1, max_size=12).map(make_set)


@settings(max_examples=80, deadline=None)
@given(_int32_edge_sets(), _int32_edge_sets(), st.sampled_from(["sum", "diff"]), st.booleans())
def test_sort_based_pair_set_size_near_int32_downcast(A, B, op, same):
    if same:
        B = A
    assert pair_set_size(A, B, op) == len({_PY_OPS[op](a, b) for a in A for b in B})


@pytest.mark.parametrize("top", [(1 << 30) - 1, 1 << 30])
def test_sort_based_pair_set_size_pinned_at_int32_downcast(top):
    # top + top is 2**31 - 2 (int32 path) or 2**31 (stays int64)
    A = make_set([-top, -7, 0, 5, top - 3, top])
    for op in ("sum", "diff"):
        assert pair_set_size(A, A, op) == len({_PY_OPS[op](a, b) for a in A for b in A})
        assert pair_set_size(A, A, op) == rep_fn(A, A, op).size


# -- occupancy lookup in pair_membership -----------------------------------------

# integers across a few thousand, some negative, for widths near the rule's cap
_wide_int_sets = st.lists(st.integers(-3000, 3000), min_size=1, max_size=14).map(make_set)


def _literal_membership(X, Y, op, P):
    members = set(P.elements)
    return [[_PY_OPS[op](x, y) in members for y in Y] for x in X]


def _forced_occupancy(on):
    # on: an exact table while it stays small enough to build in a test;
    # off: the hashed table of P's values, however narrow the range
    rule = (lambda width, pairs, size: width <= 1 << 20) if on else (lambda *args: False)
    en = importlib.import_module("sumsetlab.energy")
    return mock.patch.object(en, "_occupancy_fits", rule)


@pytest.mark.parametrize("on", [True, False])
@settings(max_examples=60, deadline=None)
@given(st.one_of(int_sets, rational_sets, _wide_int_sets),
       st.one_of(int_sets, rational_sets, _wide_int_sets),
       st.sampled_from(["sum", "diff", "prod"]), st.booleans(),
       st.sampled_from(["x", "half", "other"]), st.one_of(int_sets, rational_sets))
def test_pair_membership_occupancy_forced_on_and_off(on, X, Y, op, same, kind, other):
    if same:
        Y = X
    P = other if kind == "other" else _membership_target(X, Y, op, kind)
    want = _literal_membership(X, Y, op, P)
    with _forced_occupancy(on):
        assert pair_membership(X, Y, op, P).tolist() == want
        assert pair_membership(X, Y, op, P, per_row=True).tolist() == [sum(r) for r in want]


def _spy_tables(monkeypatch):
    """A list that gets, for each int64 lookup, the arguments `_occupancy_fits`
    was asked with and the table then built: "exact", or "hashed" when P's
    values went through `_hash_slots`."""
    en = importlib.import_module("sumsetlab.energy")
    rule, hash_slots, tables = en._occupancy_fits, en._hash_slots, []

    def fits(*args):
        tables.append([args, "exact"])
        return rule(*args)

    def slots(v, k):
        # only a hashed lookup hashes, and it does so after its rule call
        tables[-1][1] = "hashed"
        return hash_slots(v, k)

    monkeypatch.setattr(en, "_occupancy_fits", fits)
    monkeypatch.setattr(en, "_hash_slots", slots)
    return tables


@pytest.mark.parametrize("extra", [0, 1])
def test_pair_membership_pinned_at_width_factor_cap(monkeypatch, extra):
    # pair sums in [0, 2] and P = {0, top}: width top + 1 against the cap
    # 8 * (|X||Y| + |P|) = 8 * (4 + 2) = 48; one past it, the hashed table
    en = importlib.import_module("sumsetlab.energy")
    cap = en._OCCUPANCY_WIDTH_FACTOR * (4 + 2)
    X = make_set([0, 1])
    P = make_set([0, cap - 1 + extra])
    tables = _spy_tables(monkeypatch)
    for per_row in (False, True):
        got = pair_membership(X, X, "sum", P, per_row=per_row).tolist()
        assert got == ([1, 0] if per_row else [[True, False], [False, False]])
    assert tables == [[(cap + extra, 4, 2), "hashed" if extra else "exact"]] * 2


@pytest.mark.parametrize("extra", [0, 1])
def test_pair_membership_pinned_at_bincount_span_limit(monkeypatch, extra):
    # 2**21 pairs put the factor cap above the span limit, which decides
    en = importlib.import_module("sumsetlab.energy")
    limit = en._BINCOUNT_SPAN_LIMIT
    X, Y = make_set(range(2048)), make_set(range(1024))
    tables = _spy_tables(monkeypatch)
    # sums in [0, 3070]: only 0 + 0 lies in P
    P = make_set([0, 5000, limit - 1 + extra])
    assert pair_membership(X, Y, "sum", P, per_row=True).tolist() == [1] + [0] * 2047
    # differences in [-1023, 2047], so the range starts at -1023
    P = make_set([-1023, 0, limit - 1024 + extra])
    assert pair_membership(X, Y, "diff", P, per_row=True).tolist() \
        == [2] + [1] * 1023 + [0] * 1024
    assert tables == [[(limit + extra, 2048 * 1024, 3), "hashed" if extra else "exact"]] * 2


# -- the hashed table: one element of P per slot, or a sentinel ------------------

# sparse sets spanning about 2**40, with negative values; products of two of
# them leave int64, so "prod" pairs one with small factors
_sparse_wide_sets = st.lists(st.integers(-(1 << 39), 1 << 40), min_size=1,
                             max_size=20).map(make_set)
_small_factor_sets = st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1,
                              max_size=12).map(make_set)


@settings(max_examples=80, deadline=None)
@given(_sparse_wide_sets, st.data(), st.sampled_from(["sum", "diff", "prod"]),
       st.sampled_from(["x", "half", "other"]), _sparse_wide_sets)
def test_pair_membership_coarse_table_matches_literal(X, data, op, kind, other):
    # the ranges are far too wide for an exact table: the hashed one decides
    Y = data.draw(_small_factor_sets if op == "prod" else _sparse_wide_sets)
    P = other if kind == "other" else _membership_target(X, Y, op, kind)
    want = _literal_membership(X, Y, op, P)
    assert pair_membership(X, Y, op, P).tolist() == want
    assert pair_membership(X, Y, op, P, per_row=True).tolist() == [sum(r) for r in want]


def _hash_multiplier(m):
    en = importlib.import_module("sumsetlab.energy")
    return mock.patch.object(en, "_HASH_MULT", np.uint64(m))


def test_pair_membership_coarse_table_with_p_in_one_bucket(monkeypatch):
    # a multiplier of 2**54 makes a value's slot (v mod 2**10) << (k - 10)
    # on 2**k >= 2**10 slots: all of P shares slot 0, which holds the
    # several-sentinel, and so does each pair sum that is a multiple of
    # 2**10; the others miss on an empty slot.  One far element keeps the
    # range too wide for an exact table.
    step = 1 << 10
    X = make_set([step * k for k in range(-6, 7)] + [step * k + 5 for k in range(6)] + [1 << 40])
    P = make_set([step * k for k in range(0, 12, 2)] + [(1 << 40) + step])
    en = importlib.import_module("sumsetlab.energy")
    with _hash_multiplier(1 << 54):
        assert not en._hash_slots(P.int_view.arr.copy(), 10).any()
        tables = _spy_tables(monkeypatch)
        got = pair_membership(X, X, "sum", P)
    assert [t for _, t in tables] == ["hashed"]
    want = _literal_membership(X, X, "sum", P)
    assert got.tolist() == want
    # 196 of the 400 pair sums are multiples of 2**10 and searched; 50 hit
    assert sum(map(sum, want)) == 50


@pytest.mark.parametrize("op", ["sum", "diff", "prod"])
@pytest.mark.parametrize("chunk", [3, 1 << 15])
def test_pair_membership_hashed_table_full_collision(monkeypatch, op, chunk):
    # a multiplier of 0 sends every value to slot 0: all of P shares it, and
    # every pair value is searched in P
    en = importlib.import_module("sumsetlab.energy")
    monkeypatch.setattr(en, "_MEMBERSHIP_CHUNK", chunk)
    rng = random.Random(25)
    X = make_set(rng.sample(range(-(1 << 40), 1 << 40), 30))
    # products stay below INT64_SAFE / 7: P's element 1/7 scales them by 7
    Y = make_set(rng.sample(range(-(1 << 16), 1 << 16), 20)) if op == "prod" else X
    P = _membership_target(X, Y, op, "half")
    tables = _spy_tables(monkeypatch)
    want = _literal_membership(X, Y, op, P)
    with _hash_multiplier(0):
        assert pair_membership(X, Y, op, P).tolist() == want
        assert pair_membership(X, Y, op, P, per_row=True).tolist() == [sum(r) for r in want]
    assert [t for _, t in tables] == ["hashed"] * 2
    assert sum(map(sum, want)) > 100


@pytest.mark.parametrize("op", ["sum", "diff"])
@pytest.mark.parametrize("mult", [None, 0, 1])
def test_pair_membership_hashed_table_at_int64_safe_edges(monkeypatch, op, mult):
    # pair values out to +-(INT64_SAFE - 1), the widest an int64 lookup
    # takes (|x| + |y| stays below INT64_SAFE); the sentinels are -2**63 and
    # -2**63 + 1.  Multiplier 1 makes a slot a value's top bits, 0 sends
    # every value to one slot; the slot arithmetic wraps past the sentinels,
    # which must not read as a hit.
    edge = INT64_SAFE - 1
    near = [edge - 1, edge - 2, edge - 3, 1 - edge, 2 - edge, 3 - edge]
    X = make_set([0, 1, -1])
    Y = make_set(near if op == "sum" else [-v for v in near])
    P = make_set([edge, -edge, edge - 2, 5])
    tables = _spy_tables(monkeypatch)
    want = _literal_membership(X, Y, op, P)
    with contextlib.nullcontext() if mult is None else _hash_multiplier(mult):
        assert pair_membership(X, Y, op, P).tolist() == want
        assert pair_membership(Y, X, op, P).tolist() == _literal_membership(Y, X, op, P)
    assert [t for _, t in tables] == ["hashed"] * 2
    # edge and -edge are hit once each, edge - 2 three times
    assert sum(map(sum, want)) == 5


@pytest.mark.parametrize("op", ["sum", "diff", "prod"])
@pytest.mark.parametrize("base, top", [
    (0, (1 << 40) - 5), (-(1 << 39), (1 << 40) - 5), (5 << 38, (1 << 40) - 5),
    # the widest int64 range: P's ends are -(INT64_SAFE - 1) and INT64_SAFE - 1
    (1 - INT64_SAFE, 2 * INT64_SAFE - 2),
])
def test_pair_membership_coarse_table_at_bucket_edges(monkeypatch, op, base, top):
    # P's ends fix the range [base, base + top]; the pair values x op y
    # (x = 0, or 1 for "prod") come in runs of three consecutive values
    # across the range, each run with one member of P, so neighbouring
    # values in and out of P fall in the hashed table's slots side by side
    step = top // 11
    pairs, size = 30, 12
    values = [base + k * step + d for k in range(1, 11) for d in (-1, 0, 1)]
    assert max(values) < base + top
    x, ys = (1, values) if op == "prod" else (0, values if op == "sum" else [-v for v in values])
    P = make_set([base, base + top] + values[0::3][:5] + values[1::3][5:])
    X, Y = make_set([x]), make_set(ys)
    assert len(P) == size and len(X) * len(Y) == pairs
    tables = _spy_tables(monkeypatch)
    want = _literal_membership(X, Y, op, P)
    assert pair_membership(X, Y, op, P).tolist() == want
    assert sum(map(sum, want)) == 10
    assert [t for _, t in tables] == ["hashed"]


@settings(max_examples=40, deadline=None)
@given(_sparse_wide_sets, _sparse_wide_sets, st.sampled_from(["sum", "diff"]),
       st.sampled_from(["x", "half"]))
def test_pair_membership_coarse_table_per_row_in_tiny_blocks(X, Y, op, kind):
    en = importlib.import_module("sumsetlab.energy")
    P = _membership_target(X, Y, op, kind)
    want = [sum(r) for r in _literal_membership(X, Y, op, P)]
    with mock.patch.object(en, "_MEMBERSHIP_CHUNK", 3):
        assert pair_membership(X, Y, op, P, per_row=True).tolist() == want


def test_projection_count_on_a_wide_set_uses_the_coarse_table(monkeypatch):
    # the name is from the coarse occupancy table the hashed one replaced
    A = gen_family(FamilySpec.random_subset(1 << 40, 40, seed=3))
    P = make_set(sorted({a - b for a in A for b in A if a != b})[::7])
    tables = _spy_tables(monkeypatch)
    want = sum(map(sum, _literal_membership(P, P, "diff", P)))
    assert want > 0
    assert projection_count(P, P) == want
    assert [t for _, t in tables] == ["hashed"]


def test_pair_membership_coarse_table_memory():
    # about 6 M pair sums over a span near 2**41: the hashed table (2**16
    # int64 slots for |P| = 2450) and at most two blocks of int64 pair
    # values are live at once
    en = importlib.import_module("sumsetlab.energy")
    P = gen_family(FamilySpec.random_subset(1 << 40, 2450, seed=0))
    a = P.int_view.arr
    tracemalloc.start()
    try:
        got = pair_membership(P, P, "sum", P, per_row=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << 16) + 2 * 8 * en._MEMBERSHIP_CHUNK
    want = [int(np.isin(a[i] + a, a).sum()) for i in range(a.size)]
    assert got.tolist() == want


# -- a same-set loop projection looks up each unordered pair once ----------------

# progressions with one far element: wide enough for the hashed table, with
# many sums in the set
_wide_progressions = st.builds(lambda d, n, far: make_set([d * k for k in range(n)] + [far]),
                               st.integers(1, 1000), st.integers(1, 15),
                               st.integers(1 << 38, 1 << 40))
_projection_sets = st.one_of(int_sets, _wide_int_sets, rational_sets, _sparse_wide_sets,
                             _wide_progressions, _huge_sets)


@settings(max_examples=80, deadline=None)
@given(_projection_sets, st.sampled_from(["drawn", "with 0", "without 0", "symmetric"]),
       st.sampled_from([1, 3, 40, None]), st.sampled_from([None, 0]))
def test_same_set_loop_projection_matches_literal(P, shape, chunk, mult):
    # P with and without 0, P = -P or as drawn (rarely symmetric), rational
    # or past int64; tiny blocks cut rows and the diagonal's corner often,
    # and a hash multiplier of 0 has every pair of a hashed lookup searched
    en = importlib.import_module("sumsetlab.energy")
    values = set(P.elements)
    if shape == "with 0":
        values.add(0)
    elif shape == "without 0":
        values.discard(0)
    elif shape == "symmetric":
        values |= {-v for v in values}
    assume(values)
    P = make_set(values)
    want = oracle_projection(P.elements, P.elements)
    with mock.patch.object(en, "_MEMBERSHIP_CHUNK", chunk or en._MEMBERSHIP_CHUNK), \
            contextlib.nullcontext() if mult is None else _hash_multiplier(mult):
        assert _loop_projection(P, P) == want
        assert _loop_projection(P, FiniteSet(P.elements)) == want
        assert projection_count(P, P) == want


@pytest.mark.parametrize("far", [[], [1 << 40], [1 << 70]], ids=["exact", "hashed", "residue"])
def test_same_set_loop_projection_looks_up_the_upper_triangle(monkeypatch, far):
    # n = 399 or 400, each lookup path: the row blocks cover the pairs j >= i
    # and the lower-triangle corner of each block, about 0.64 n**2 pairs in
    # all (the last block is a square of 66 rows), not n**2
    en = importlib.import_module("sumsetlab.energy")
    P = make_set(list(range(-1990, 2000, 10)) + far)
    looked = []
    make_block = en._membership_block

    def spy(*args):
        block = make_block(*args)
        return lambda *rows: looked.append(block(*rows)) or looked[-1]

    monkeypatch.setattr(en, "_membership_block", spy)
    n = len(P)
    for Q in (P, FiniteSet(P.elements)):  # the same set, then an equal copy
        looked.clear()
        got = _loop_projection(P, Q)
        assert n * (n + 1) // 2 <= sum(h.size for h in looked) < 0.65 * n * n
    assert got == int(pair_membership(P, P, "sum", P, per_row=True).sum())
    assert got == sum(map(sum, _literal_membership(P, P, "sum", P)))


@pytest.mark.parametrize("X, Y, P, want", [
    ([1, 1 << 70], [0], [0, 5], [[True], [True]]),
    ([0], [1, 1 << 70], [0, 5], [[True, True]]),
    ([0, 1], [0], [0, 1 << 70], [[True], [True]]),
    ([-(1 << 70), 3], [0, 2], [0, 6], [[True, False], [True, True]]),
])
def test_pair_membership_prod_of_zero_and_value_past_int64(X, Y, P, want):
    X, Y, P = make_set(X), make_set(Y), make_set(P)
    assert _literal_membership(X, Y, "prod", P) == want
    assert pair_membership(X, Y, "prod", P).tolist() == want
    assert pair_membership(X, Y, "prod", P, per_row=True).tolist() == [sum(r) for r in want]


def test_projection_count_poly_on_values_past_int64():
    # a span of 3 000 far past int64: the FFT path works on offsets
    base = 1 << 70
    P = make_set([base + 3 * k for k in range(1000)] + [base + 2999])
    Q = make_set([-6, -1, 0, 3, 2999, 1 << 65])
    want = _loop_projection(P, Q)
    assert want == 2 * (1000 - 2) + 1001 + 2
    assert _fft_projection(P, Q) == want
    assert projection_count(P, Q) == want


# -- sets built by RepFn.select carry their int64 view ---------------------------------

def _assert_same_as_fresh(S):
    fresh = FiniteSet(S.elements)
    assert S.elements == fresh.elements
    got, want = S.int_view, fresh.int_view
    assert got.arr.tolist() == want.arr.tolist() and got.scale == want.scale
    assert got.arr.dtype == want.arr.dtype == np.int64
    assert S == fresh and hash(S) == hash(fresh)
    back = pickle.loads(pickle.dumps(S))
    assert back == S and back.int_view.scale == want.scale
    assert back.int_view.arr.tolist() == want.arr.tolist()


def test_repfn_select_carries_exact_int_view():
    # differences k * 2/7 on a scale-21 table: integers where 7 divides k
    A = gen_family(FamilySpec.ap(Fraction(1, 3), Fraction(2, 7), 20))
    f = rep_fn(A, A, "diff")
    assert f.is_numpy and f.scale == 21
    integral = np.array([isinstance(v, int) for v in f.counts])
    assert f.select(integral).elements == (-4, -2, 0, 2, 4)
    assert f.select(integral).int_view.scale == 1
    assert f.select(~integral).int_view.scale == 7
    for mask in (integral, ~integral, f.counts_array >= 5, np.zeros(f.size, dtype=bool)):
        _assert_same_as_fresh(f.select(mask))
    _assert_same_as_fresh(f.support())
    assert len(f.select(np.zeros(f.size, dtype=bool))) == 0
    # an int32 outer array (small sums) still gives int64 views
    B = make_set(range(-40, 40, 3))
    _assert_same_as_fresh(rep_fn(B, B, "diff").support())
    _assert_same_as_fresh(rep_fn(B, B, "prod").support())


# -- residue keys computed once per set -----------------------------------------

def test_residues_computed_once_per_set(monkeypatch):
    se = importlib.import_module("sumsetlab.sets")
    from sumsetlab.constructions import popular_differences, rich_difference_elements

    real = se._IntView.residues
    seen: dict = {}  # (view, modulus) -> the residue arrays handed out
    keep = []  # holds every view and array, so no id is reused

    def spy(self, modulus):
        r = real(self, modulus)
        keep.append((self, r))
        seen.setdefault((id(self), modulus), set()).add(id(r))
        return r

    monkeypatch.setattr(se._IntView, "residues", spy)
    A = gen_family(FamilySpec.gp(1, 2, 64))  # sums and products pass int64
    for op in ("sum", "diff", "prod", "ratio"):
        rep_fn(A, A, op)
        pair_set_size(A, A, op)
    P = popular_differences(A)
    rich_difference_elements(A, P)
    projection_count(P, P)
    assert seen and all(len(ids) == 1 for ids in seen.values())
    assert len(keep) > 2 * len(seen)  # the cached residues are read again


def test_residue_cache_follows_the_key_primes(monkeypatch):
    # residues are cached per modulus: after the primes change, the same set
    # is keyed afresh, and forced collisions still give exact tables
    en = importlib.import_module("sumsetlab.energy")
    A = gen_family(FamilySpec.gp(1, 2, 66))
    want = {op: (rep_fn(A, A, op).counts, pair_set_size(A, A, op))
            for op in ("sum", "diff", "prod", "ratio")}
    monkeypatch.setattr(en, "_KEY_PRIMES", (3, 5))
    for op, (counts, size) in want.items():
        assert rep_fn(A, A, op).counts == counts
        assert pair_set_size(A, A, op) == size == len(counts)
