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
                        lambda p_ints: calls.append(len(p_ints)) or kernel(p_ints))
    return calls


def test_projection_count_auto_takes_fft_kernel_on_pinned_case(monkeypatch):
    # |P| = 500 puts the loop at 250 000 pair operations, past the 200 000
    # below which projection_count always loops; the span (29 888) puts the
    # FFT on 30 000 points, whose N log2 N work is below the model's charge
    # for the loop.  Timed on this set the loop is faster, so the test pins
    # the cost model's choice, not the cheaper path.
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


def _fft_table(en, P):
    """The kernel's whole difference table, joined from its blocks."""
    return np.concatenate(list(en._difference_counts_fft(P)))


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


def _certify(en, raw, even, P, b):
    """Run the streamed certifier over `raw` in blocks of b, with R_0 `even`."""
    cert = en._TableCertifier(en._offsets(P))
    spare = np.empty(even.size)
    cert.check_symmetry(even, spare)
    blocks = [cert.round(raw[lo:lo + b], spare) for lo in range(0, raw.size, b)]
    cert.close()
    return np.concatenate(blocks)


def test_fft_certification_raises_on_each_perturbed_check():
    en = importlib.import_module("sumsetlab.energy")

    # the kernel's layout for this set: 16 transform points, halves of 8
    P = [0, 1, 3, 7, 12]
    diffs = oracle_rep_counts(P, P, "diff")
    raw = np.array([diffs.get(d, 0) for d in range(16)], dtype=float)
    halves = ([p for p in P if p < 8], [p - 8 for p in P if p >= 8])
    even_counts = [oracle_rep_counts(x, x, "diff") for x in halves]
    even = np.array([sum(c.get(d if d < 8 else d - 16, 0) for c in even_counts)
                     for d in range(16)], dtype=float)
    assert _certify(en, raw.copy(), even, P, 8).tolist() == raw.tolist()
    cases = [
        ({3: 0.3}, {}, ["from the nearest integer"]),
        ({0: 1.0}, {}, ["zero-lag count", "mass"]),
        ({3: 1.0}, {}, ["mass", "first moment"]),
        ({3: 1.0, 5: -1.0}, {}, ["first moment"]),
        ({}, {3: 1.0}, ["not symmetric"]),
    ]
    for raw_deltas, even_deltas, checks in cases:
        bad_raw, bad_even = raw.copy(), even.copy()
        for index, delta in raw_deltas.items():
            bad_raw[index] += delta
        for index, delta in even_deltas.items():
            bad_even[index] += delta
        with pytest.raises(ExactnessError) as info:
            _certify(en, bad_raw, bad_even, P, 8)
        failed = str(info.value).split(": ", 1)[1].split("; ")
        assert len(failed) == len(checks)
        for check in checks:
            assert any(check in f for f in failed)


@pytest.mark.parametrize("deltas", [
    {3: 1.0, 5: -1.0},     # the full rows of block 0
    {6: 1.0, 7: -1.0},     # the tail of block 0
    {1: 1.0, 12: -1.0},    # across the blocks
    {9: 1.0, 15: -1.0},    # the rows and the tail of block 1
])
def test_fft_moment_check_reads_rows_and_tail(monkeypatch, deltas):
    # a block's first moment is read as rows of _MOMENT_ROW counts and a
    # tail: with rows of 3, blocks of 8 have both; a mass-preserving shift
    # of one count fails the moment check alone
    en = importlib.import_module("sumsetlab.energy")
    monkeypatch.setattr(en, "_MOMENT_ROW", 3)
    P = [0, 1, 3, 7, 12]
    diffs = oracle_rep_counts(P, P, "diff")
    raw = np.array([diffs.get(d, 0) for d in range(16)], dtype=float)
    even = np.array([diffs.get(d if d < 8 else 16 - d, 0) for d in range(16)], dtype=float)
    assert _certify(en, raw.copy(), even, P, 8).tolist() == raw.tolist()
    for index, delta in deltas.items():
        raw[index] += delta
    with pytest.raises(ExactnessError) as info:
        _certify(en, raw, even, P, 8)
    assert str(info.value).split(": ", 1)[1] == "first moment differs from sum(p1 - p2) mod 2**64"


def test_fft_kernel_refuses_outside_its_error_allowance(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")

    # inside the span limit the allowance is tiny
    limit = en._POLY_SPAN_LIMIT
    assert en._fft_correlation_error_bound(limit + 1, limit.bit_length()) < 1e-6
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
    assert len(lengths) == 4
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


def _corrupt_irfft(monkeypatch, row, deltas):
    # add deltas[j] at negative lag j - b of the inverse transform of S_row,
    # whose lags -b..-1 land in block row - 1 of the table
    calls = []
    irfft = np.fft.irfft

    def patched(a, m, **kw):
        out = irfft(a, m, **kw)
        if len(calls) == row:
            for lag, delta in deltas.items():
                out[m // 2 + lag] += delta
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
    assert calls == [m] * k


def _streamed_peak(en, P, lags):
    """Peak numpy memory (tracemalloc) while P's difference table streams
    past, the number of lags it covers, and its counts at `lags`, read from
    each block as it passes."""
    import tracemalloc

    got = {}
    tracemalloc.start()
    try:
        lo = 0
        for block in en._difference_counts_fft(P):
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
    # R_0's negative lags enter no block of the table; only the symmetry
    # check reads them, and lag j of the inverse transform's upper half
    # pairs with d = b - j: a delta anywhere in that half must be seen
    en = importlib.import_module("sumsetlab.energy")
    monkeypatch.setattr(en, "_FFT_BLOCK", 32)
    rng = random.Random(lag)
    P = sorted({0, 250, *rng.sample(range(250), 90)})
    k, m, _ = en._block_layout(P[-1])
    assert m // 2 == 32 and k > 2
    calls = _corrupt_irfft(monkeypatch, 0, {lag: 1.0})
    with pytest.raises(ExactnessError) as info:
        _fft_table(en, P)
    assert str(info.value).split(": ", 1)[1] == "table is not symmetric"
    assert calls == [m] * k


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
    # (18.1 at K = 9 and 21.9 at K = 3; keeping the float table next to the
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


def test_grouped_table_resolves_forced_collisions(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")

    # with primes 3 and 5 every group of more than one value is split by
    # the weighted tally, also in same-set tables that are then mirrored
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
            f = en._grouped_rep(A, B, op)
            values, counts, scale = f.scaled_values, f.counts_array, f.scale
            got = dict(zip((as_rational(Fraction(v, scale)) for v in values), counts.tolist()))
            assert got == want and list(got) == sorted(want)


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
    # off: a one-bucket coarse table, so every pair value is searched in P
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


def _spy_occupancy_rule(monkeypatch):
    en = importlib.import_module("sumsetlab.energy")
    rule, decisions = en._occupancy_fits, []
    monkeypatch.setattr(en, "_occupancy_fits",
                        lambda *args: decisions.append((args, rule(*args))) or decisions[-1][1])
    return decisions


def _chosen_shifts(decisions):
    # a lookup asks the rule at shifts 0, 1, ... and takes the first it allows
    shifts, s = [], 0
    for _, fits in decisions:
        if fits:
            shifts.append(s)
        s = 0 if fits else s + 1
    return shifts


@pytest.mark.parametrize("extra", [0, 1])
def test_pair_membership_pinned_at_width_factor_cap(monkeypatch, extra):
    # pair sums in [0, 2] and P = {0, top}: width top + 1 against the cap
    # 8 * (|X||Y| + |P|) = 8 * (4 + 2) = 48; one past it, a 2-value bucket
    en = importlib.import_module("sumsetlab.energy")
    cap = en._OCCUPANCY_WIDTH_FACTOR * (4 + 2)
    X = make_set([0, 1])
    P = make_set([0, cap - 1 + extra])
    decisions = _spy_occupancy_rule(monkeypatch)
    for per_row in (False, True):
        got = pair_membership(X, X, "sum", P, per_row=per_row).tolist()
        assert got == ([1, 0] if per_row else [[True, False], [False, False]])
    assert _chosen_shifts(decisions) == [extra] * 2
    assert decisions[0] == ((cap + extra, 4, 2), extra == 0)


@pytest.mark.parametrize("extra", [0, 1])
def test_pair_membership_pinned_at_bincount_span_limit(monkeypatch, extra):
    # 2**21 pairs put the factor cap above the span limit, which decides
    en = importlib.import_module("sumsetlab.energy")
    limit = en._BINCOUNT_SPAN_LIMIT
    X, Y = make_set(range(2048)), make_set(range(1024))
    decisions = _spy_occupancy_rule(monkeypatch)
    # sums in [0, 3070]: only 0 + 0 lies in P
    P = make_set([0, 5000, limit - 1 + extra])
    assert pair_membership(X, Y, "sum", P, per_row=True).tolist() == [1] + [0] * 2047
    # differences in [-1023, 2047], so the range starts at -1023
    P = make_set([-1023, 0, limit - 1024 + extra])
    assert pair_membership(X, Y, "diff", P, per_row=True).tolist() \
        == [2] + [1] * 1023 + [0] * 1024
    assert _chosen_shifts(decisions) == [extra] * 2
    assert decisions[0] == ((limit + extra, 2048 * 1024, 3), extra == 0)


# -- the coarse occupancy table: buckets of 2**s values, hits confirmed ----------

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
    Y = data.draw(_small_factor_sets if op == "prod" else _sparse_wide_sets)
    P = other if kind == "other" else _membership_target(X, Y, op, kind)
    want = _literal_membership(X, Y, op, P)
    assert pair_membership(X, Y, op, P).tolist() == want
    assert pair_membership(X, Y, op, P, per_row=True).tolist() == [sum(r) for r in want]


def test_pair_membership_coarse_table_with_p_in_one_bucket(monkeypatch):
    # one far element widens the range; P and nearly every pair sum share
    # one bucket (the range starts at 0), so nearly every pair is confirmed
    # by search
    X = make_set(list(range(0, 90, 3)) + [1 << 40])
    P = make_set(range(0, 180, 2))
    decisions = _spy_occupancy_rule(monkeypatch)
    got = pair_membership(X, X, "sum", P)
    assert got.tolist() == _literal_membership(X, X, "sum", P)
    s, = _chosen_shifts(decisions)
    assert s > 0 and len({p >> s for p in P.elements}) == 1
    assert int(got.sum()) == 450


@pytest.mark.parametrize("op", ["sum", "diff", "prod"])
@pytest.mark.parametrize("base, top", [
    (0, (1 << 40) - 5), (-(1 << 39), (1 << 40) - 5), (5 << 38, (1 << 40) - 5),
    # the widest int64 range: P's ends are -(INT64_SAFE - 1) and INT64_SAFE - 1
    (1 - INT64_SAFE, 2 * INT64_SAFE - 2),
])
def test_pair_membership_coarse_table_at_bucket_edges(monkeypatch, op, base, top):
    # P's ends fix the range [base, base + top]; the pair values x op y
    # (x = 0, or 1 for "prod") sit on each side of bucket edges base + k 2**s
    en = importlib.import_module("sumsetlab.energy")
    pairs, size = 30, 12
    s = 0
    while not en._occupancy_fits((top >> s) + 1, pairs, size):
        s += 1
    assert s > 0
    values = [base + k * (1 << s) + d for k in range(1, 11) for d in (-1, 0, 1)]
    assert max(values) < base + top
    x, ys = (1, values) if op == "prod" else (0, values if op == "sum" else [-v for v in values])
    P = make_set([base, base + top] + values[0::3][:5] + values[1::3][5:])
    X, Y = make_set([x]), make_set(ys)
    assert len(P) == size and len(X) * len(Y) == pairs
    decisions = _spy_occupancy_rule(monkeypatch)
    want = _literal_membership(X, Y, op, P)
    assert pair_membership(X, Y, op, P).tolist() == want
    assert sum(map(sum, want)) == 10
    assert _chosen_shifts(decisions) == [s]


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
    A = gen_family(FamilySpec.random_subset(1 << 40, 40, seed=3))
    P = make_set(sorted({a - b for a in A for b in A if a != b})[::7])
    decisions = _spy_occupancy_rule(monkeypatch)
    want = sum(map(sum, _literal_membership(P, P, "diff", P)))
    assert want > 0
    assert projection_count(P, P) == want
    s, = _chosen_shifts(decisions)
    assert s > 0


def test_pair_membership_coarse_table_memory():
    # about 6 M pair sums over a span near 2**41: the table and at most two
    # blocks of int64 pair values are live at once
    en = importlib.import_module("sumsetlab.energy")
    P = gen_family(FamilySpec.random_subset(1 << 40, 2450, seed=0))
    a = P.int_view.arr
    tracemalloc.start()
    try:
        got = pair_membership(P, P, "sum", P, per_row=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < en._BINCOUNT_SPAN_LIMIT + 2 * 8 * en._MEMBERSHIP_CHUNK
    want = [int(np.isin(a[i] + a, a).sum()) for i in range(a.size)]
    assert got.tolist() == want


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
    assert got.ints == want.ints and got.scale == want.scale
    if want.arr is None:
        assert got.arr is None
    else:
        assert got.arr.dtype == np.int64 and got.arr.tolist() == want.arr.tolist()
    assert S == fresh and hash(S) == hash(fresh)
    back = pickle.loads(pickle.dumps(S))
    assert back == S and back.int_view.scale == want.scale and back.int_view.ints == want.ints


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
