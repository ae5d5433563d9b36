"""Pair sets, representation functions, moment energies, projection counts.

All counting here is exact.  The workhorse layout: a set's scaled-integer
view (see `sets._IntView`) lets the common all-integer case run through
int64 numpy kernels.  Ratios and values past int64 (geometric families
reach 2**n) take the kernels of the next paragraph.  Counting is O(|A||B|)
vector accumulation, because every downstream inequality check treats
these counts as exact combinatorial quantities.

Products and ratios first try a coprime base (`_coprime_keys`): each
nonzero scaled integer is a sign and an int64 exponent vector over
pairwise-coprime integers b_1 .. b_k (`sets.coprime_exponents`), so a
product is a vector sum and a ratio a difference, packed into one int64
key per pair and counted by one sort, as int64 values are.  The keys are
exact: if prod b_i**e_i = prod b_i**f_i, a prime dividing b_i divides no
other b_j, so e_i = f_i; equal keys are equal values and no key group is
checked.  Where the base would pass a cap of members or a key would not fit
int64, and for sums and differences, a table is `_sorted_rep`: the exact
pair values in one numpy object array, one stable argsort, a count of the
runs.  A pair-set size there is `_distinct_count_fingerprint`, which sorts
int64 residue keys (`_PairGroups`) and checks every key group exactly.

Sort, never hash or histogram: a representation table or pair-set size is
one sort of the |A||B| pair values (in place, int32 when they fit, for
int64 values), then a count of the runs.  Membership of whole blocks of
pair values in a set goes through `pair_membership`.  When the pair values
and the set fit int64, it reads a 0/1 occupancy table indexed by value
minus the range's start, a direct-address table, if the range is narrow
enough; over a wider range it reads a hashed table of the set's own
values (a multiplicative hash, one element or a sentinel per slot), and
only a pair value whose slot several elements share is searched in the
sorted set.  Past int64 it looks residue keys up in sorted arrays.  No
counting kernel here builds a Python set or dict.  A same-set
difference table past int64 records each pair's table entry
(`RepFn.pair_pos`), so whether a pair's difference lies in a selection of
that table, such as its popular differences, is read from the table
(`RepFn.pair_mask`) and needs no lookup at all.

`projection_count` has two kernels.  `_loop_projection` is the
membership loop of `pair_membership`, under a work budget; for P with
itself it looks up each unordered pair once.  The one
floating-point path is the other, `_fft_projection`, for sets of moderate
scaled span: the difference-count function of a set is the
autocorrelation of its 0/1 indicator vector, computed with float64 real
FFTs and rounded to the nearest integers, and built only out to the largest
lag a query asks for.  The vector is cut into K >= 2 blocks of at most
about `_FFT_BLOCK` points, so that one transform stays in cache; each block
is transformed on the least even length of the form 2**a 3**b 5**c at or
above twice its length.  A palindrome (P - min P symmetric about its
centre, as every set of popular differences is) whose span has the parity
of K times the block length has only ceil(K/2) blocks transformed; each
other spectrum is read off its mirror block's.  The K spectra are combined
pointwise so that one inverse transform gives one block of the table, and
only the blocks up to the largest query lag are inverted, each written into
a spare buffer or the buffer of a spectrum already inverted.  The table is
streamed: each block of it is formed, rounded and certified in one of those
buffers, and `_fft_projection` adds up the block's counts at its query lags
there, so no table of the whole span is ever allocated.  Its exactness rests on two
things (see `_difference_counts_fft`): Percival's rounding-error bound for FFT
convolution, proved for a complex radix-2 transform and carried over to
numpy's mixed-radix real transforms without a proof (each radix-r pass
counted as r - 1 radix-2 stages, the sums of up to 2K - 1 spectrum products
as ceil(log2(2K - 1)) more, and one more for a mirrored spectrum), under
which the kernel refuses operands whose error could reach 1/4; and a
certification of every inverted buffer (its integrality, no negative
entry, its exact mass and first moment, the zero lag), which raises
on any failed check before a count is returned.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, DivisionDomainError, DomainError, ExactnessError
from .sets import (
    INT64_SAFE,
    FiniteSet,
    Rational,
    abs_bound,
    as_rational,
    coprime_exponents,
    format_rational,
)

__all__ = [
    "PAIR_OPS",
    "RepFn",
    "EnergyValue",
    "pair_set",
    "pair_set_size",
    "pair_membership",
    "rep_fn",
    "energy",
    "moment",
    "projection_count",
    "dump_repfn_csv",
    "load_repfn_csv",
]

PAIR_OPS = ("sum", "diff", "prod", "ratio")

# Up to this scaled span the FFT correlation path runs (at the limit: 17
# blocks, each transformed on 497 664 = 2**11 3**5 float64 points, 3.8 MiB
# per working array, about 25 bytes per span point in all); above it the
# membership loop (with budget) takes over.
_POLY_SPAN_LIMIT = 4_194_304
# Block length of the FFT path (see `_difference_counts_fft`): a span of L
# points is cut into max(2, ceil(L / _FFT_BLOCK)) blocks, each transformed on
# about twice its length, so transforms stay near 2**19 points, where
# pocketfft's cost per point has not yet doubled.  Spans below 2**19 keep the
# two-halves layout.  Swept over 2**14 .. 2**19 on random sets with spans
# 3e4 .. 4e6 (2-core x86-64, 4 MiB L2, numpy 2.4): see CHANGES.md.
_FFT_BLOCK = 1 << 18
# `projection_count`'s cost model: the FFT path's work is N*log2(N) for
# transforms on N points (`_fft_length`), the membership loop's is its pair
# operations, and one pair operation is charged 2 units of FFT work.  It was
# calibrated on the two-halves kernel, which transformed every span on N
# points; past 2 * _FFT_BLOCK the blocked kernel is cheaper than N*log2(N)
# predicts, so the model there favours the loop slightly more than it
# should.  Timing
# both paths forced, best of 3-5, on random sets P = Q with spans 12 288,
# 49 152, 196 608 and 786 432 (N = 12 500, 50 000, 196 830, 787 320;
# 2-core x86-64, numpy 2.4) at 0.7 and 1.4 times the break-even |P| the
# model predicts gave 2.2-4.8 ns per pair (the loop reads an occupancy table
# there) against 3.1-7.2 ns per unit, a ratio of 0.40-1.09, and the loop won
# all 16 cases at both 4 and 2 units per pair.  The ratio calls for about 1/2; the
# constant stays at 2 because below about 1.8 the set pinned in
# test_projection_count_auto_takes_fft_kernel_on_pinned_case (|P| = 500,
# N = 30 000) would leave the FFT.  The model charges the whole span even
# though the kernel inverts only the blocks up to Q's largest lag (about
# half of them for P = Q = -P); it is left so, and the dispatch with it,
# until the layer timings of both paths are rerun.  For the same reason it
# still charges every forward transform, on purpose, though a palindromic
# P (any P = -P) transforms only ceil(K/2) of its K blocks.
_FFT_WORK_PER_PAIR = 2


def _require_op(op: str) -> None:
    if op not in PAIR_OPS:
        raise DomainError(f"op must be one of {PAIR_OPS}, got {op!r}")


class RepFn:
    """Representation function of a pair-set operation.

    counts(x) = number of ordered pairs (a, b) in A x B with a op b = x.
    Total mass is always |A| * |B|.  One layout: `scaled_values`, the
    support as integers scaled by `scale` in increasing order, with aligned
    int64 `counts_array`.  The scaled values are an int32 or int64 array
    when they fit int64 (`is_numpy`) and an object array of Python ints past
    int64.  Exact values are unscaled only for what `counts`, `items`,
    `select` and `support` return.

    A same-set difference table past int64 (built by `_sorted_rep`) also
    carries `pair_pos`: for each pair i > j of
    the set's sorted elements, in the order of np.tril_indices(|A|, -1),
    the int32 index of a_i - a_j in `counts_array`.  `pair_mask` reads it.
    It is None for every other table, int64 ones included.  A table is
    shared by everyone who asks for it (see `rep_fn`): its arrays are read-only.
    """

    __slots__ = ("op", "left_size", "right_size", "scale", "scaled_values",
                 "counts_array", "pair_pos", "_dict", "__weakref__")

    def __init__(self, op, left_size, right_size, *, values=None, scale=1,
                 counts=None, pair_pos=None):
        if left_size * right_size >= 1 << 63:
            raise DomainError(
                f"pair mass {left_size} * {right_size} does not fit int64 counts"
            )
        self.op = op
        self.left_size = left_size
        self.right_size = right_size
        self.scale = scale
        self.scaled_values = values
        self.counts_array = counts
        self.pair_pos = pair_pos
        self._dict = None
        for arr in (values, counts, pair_pos):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    # -- basic shape ---------------------------------------------------------

    @property
    def is_numpy(self) -> bool:
        """True when the scaled values are an int array, not an object array."""
        return self.scaled_values.dtype != object

    @property
    def size(self) -> int:
        """Support size: |A op B|."""
        return len(self.counts_array)

    @property
    def mass(self) -> int:
        return self.left_size * self.right_size

    @property
    def counts(self) -> dict:
        """Exact value -> count mapping in increasing value order (built lazily)."""
        if self._dict is None:
            self._dict = dict(zip(self.support().elements, self.counts_array.tolist()))
        return self._dict

    def get(self, x) -> int:
        """Count for one value (0 when outside the support)."""
        sx = as_rational(as_rational(x) * self.scale)
        if not isinstance(sx, int):
            return 0
        vals = self.scaled_values
        if not len(vals) or not int(vals[0]) <= sx <= int(vals[-1]):
            return 0
        i = int(np.searchsorted(vals, sx))
        return int(self.counts_array[i]) if vals[i] == sx else 0

    def items(self) -> Iterator[tuple[Rational, int]]:
        return iter(self.counts.items())

    def select(self, mask: np.ndarray) -> FiniteSet:
        """The support values where the boolean `mask`, aligned with
        `counts_array`, is true, as a FiniteSet of exact values."""
        return FiniteSet.from_scaled(self.scaled_values[mask], self.scale)

    def support(self) -> FiniteSet:
        """The pair set itself, as a FiniteSet."""
        return self.select(np.ones(self.size, dtype=bool))

    def pair_mask(self, mask: np.ndarray) -> np.ndarray:
        """The |A| x |A| boolean matrix whose [i, j] is the boolean `mask`,
        aligned with `counts_array`, at the entry of a_i - a_j; read from
        `pair_pos`, so no pair value is computed or looked up."""
        if self.pair_pos is None:
            raise DomainError("only a same-set difference table with pair positions has a pair mask")
        n = self.left_size
        zero = self.size // 2  # the table is symmetric about 0
        lower = np.tril_indices(n, -1)
        hit = np.empty((n, n), dtype=bool)
        hit[lower] = mask[self.pair_pos]
        hit[lower[::-1]] = mask[2 * zero - self.pair_pos]
        np.fill_diagonal(hit, mask[zero])
        return hit


# each pair operation as a numpy ufunc and on exact Python values
_PAIR_FUNCS = {
    "sum": (np.add, operator.add),
    "diff": (np.subtract, operator.sub),
    "prod": (np.multiply, operator.mul),
}


def _exact(iv, m: int) -> np.ndarray:
    """m times the integers of the int view `iv`, as an object array of
    Python ints."""
    v = iv.arr.astype(object, copy=False)
    return v * m if m != 1 else v


def _pair_factors(A: FiniteSet, B: FiniteSet, op: str, scale: int = 1):
    """(ma, mb, s): a multiple s of `scale` and multipliers of the scaled
    integers a of A and b of B with (ma*a) op (mb*b) = s * (A op B), for op
    sum, diff or prod."""
    sa, sb = A.int_view.scale, B.int_view.scale
    if op == "prod":
        s = math.lcm(sa * sb, scale)
        return s // (sa * sb), 1, s
    s = math.lcm(sa, sb, scale)
    return s // sa, s // sb, s


def _operands(A: FiniteSet, B: FiniteSet, op: str, scale: int = 1):
    """(a, b, s): the scaled operands of A op B and a multiple s of `scale`
    with a[i] op b[j] = s * (A[i] op B[j]), for op sum, diff or prod.

    a and b are int64 arrays (the sets' int64 views, scaled) when every
    operand and every pair value lies below `INT64_SAFE` in absolute value,
    as bounded by the operands' largest magnitudes; object arrays of Python
    ints (`_exact`) otherwise.
    """
    ma, mb, s = _pair_factors(A, B, op, scale)
    iva, ivb = A.int_view, B.int_view
    ba, bb = abs_bound(iva.arr) * ma, abs_bound(ivb.arr) * mb
    if max(ba, bb, ba * bb if op == "prod" else ba + bb) < INT64_SAFE:
        return iva.arr * ma if ma != 1 else iva.arr, ivb.arr * mb if mb != 1 else ivb.arr, s
    return _exact(iva, ma), _exact(ivb, mb), s


def _outer_int64(A: FiniteSet, B: FiniteSet, op: str):
    """All |A||B| values of a op b as one fresh flat scaled int array.

    Returns (values, scale), or None when the values may not fit int64, and
    always for ratios.  Sums and differences whose values fit int32 come as
    int32: half the memory traffic in the sort.
    """
    if op == "ratio":
        return None
    a, b, s = _operands(A, B, op)
    if a.dtype == object:
        return None
    if op != "prod" and abs_bound(a) + abs_bound(b) < (1 << 31):
        a = a.astype(np.int32)
        b = b.astype(np.int32)
    return _PAIR_FUNCS[op][0].outer(a, b).ravel(), s


def _run_heads(x: np.ndarray) -> np.ndarray:
    """Boolean mask of the first position of each run of equal values in x."""
    head = np.empty(x.size, dtype=bool)
    head[:1] = True
    np.not_equal(x[1:], x[:-1], out=head[1:])
    return head


def distinct_count(values: np.ndarray) -> int:
    """The number of distinct values in an integer array, which it sorts in
    place: one sort, then a count of the breaks between runs."""
    values.sort()
    return int(np.count_nonzero(values[1:] != values[:-1])) + (values.size > 0)


def rep_fn(A: FiniteSet, B: FiniteSet, op: str) -> RepFn:
    """Representation function of A op B.

    counts(x) = #{(a, b) in A x B : a op b = x}; sum of counts is |A||B|.
    The table of A op A is built once per set object and kept on A's int
    view for as long as A lives; any other pair, B an equal copy of A
    included, is built on each call and not kept.

    At every width the table is the pair values sorted, then run-length
    encoded: values that fit int64 in an int array; sums, differences and
    products or ratios that the coprime keys do not cover in a numpy object
    array of Python ints (`_sorted_rep`), whose same-set difference tables
    carry each pair's entry (`RepFn.pair_pos`).  Products and ratios past
    int64 are counted over a coprime base (`_coprime_rep`), whose keys are
    equal exactly for equal values; it gives `_sorted_rep`'s very table.
    """
    _require_op(op)
    if B is A:
        return A.int_view.table(op, lambda: _build_rep(A, A, op))
    return _build_rep(A, B, op)


def _build_rep(A: FiniteSet, B: FiniteSet, op: str) -> RepFn:
    """The table of A op B, built afresh (see `rep_fn`)."""
    outer = _outer_int64(A, B, op)
    if outer is not None:
        flat, scale = outer
        flat.sort()
        starts = np.flatnonzero(_run_heads(flat))
        return RepFn(op, len(A), len(B), values=flat[starts], scale=scale,
                     counts=np.diff(starts, append=flat.size))
    if op == "ratio" and 0 in B:
        raise DivisionDomainError("ratio set requires 0 not in divisor set")
    if op in ("prod", "ratio") and len(A) and len(B):
        f = _coprime_rep(A, B, op)
        if f is not None:
            return f
    return _sorted_rep(A, B, op)


def pair_set(A: FiniteSet, B: FiniteSet, op: str) -> FiniteSet:
    """The exact set {a op b : a in A, b in B} (materialized)."""
    return rep_fn(A, B, op).support()


def _pair_index(A: FiniteSet, B: FiniteSet, op: str):
    """(A, B, op, same, ii, jj): the pairs of A op B as int32 indices ii
    into A's sorted elements and jj into B's, with a ratio taken as the
    product with B = {1/b : b in B}.  When A and B are the same set
    (`same`, never for a ratio), sums and products enumerate pairs j <= i
    only and differences j < i, the positive differences."""
    same = A is B or A == B
    if op == "ratio":
        B = FiniteSet(Fraction(1, b) for b in B.elements)
        op, same = "prod", False
    if same:
        # j < i gives the positive differences: A is sorted
        ii, jj = (x.astype(np.int32) for x in np.tril_indices(len(A), -1 if op == "diff" else 0))
    else:
        ii = np.repeat(np.arange(len(A), dtype=np.int32), len(B))
        jj = np.tile(np.arange(len(B), dtype=np.int32), len(A))
    return A, B, op, same, ii, jj


def _sorted_rep(A: FiniteSet, B: FiniteSet, op: str) -> RepFn:
    """The representation function of A op B, for values that need not fit
    int64: scaled values in a sorted object array of Python ints.

    The exact scaled values of the pairs of `_pair_index` go into one numpy
    object array, which one stable argsort orders; the runs of equal values
    are the table's entries.  For the same set each pair i > j of a sum or
    product stands also for (j, i), and the positive difference table is
    mirrored, with count |A| at 0, and each positive-difference pair's
    table entry, the rank of its own value, recorded in `pair_pos`.
    """
    if len(A) == 0 or len(B) == 0:
        return RepFn(op, len(A), len(B), values=np.zeros(0, dtype=object),
                     counts=np.zeros(0, dtype=np.int64))
    X, Y, pair_op, same, ii, jj = _pair_index(A, B, op)
    ma, mb, scale = _pair_factors(X, Y, pair_op)
    vals = _PAIR_FUNCS[pair_op][0](_exact(X.int_view, ma)[ii], _exact(Y.int_view, mb)[jj])
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    head = _run_heads(vals)
    starts = np.flatnonzero(head)
    if same and pair_op != "diff":  # pair (i, j), j < i, stands also for (j, i)
        counts = np.add.reduceat(np.where(ii[order] != jj[order], 2, 1), starts)
    else:
        counts = np.diff(starts, append=vals.size)
    values = vals[starts]
    pair_pos = None
    if same and pair_op == "diff":
        # the mirrored table puts the positive entries after 0
        pair_pos = np.empty(order.size, dtype=np.int32)
        pair_pos[order] = np.cumsum(head, dtype=np.int32) + len(values)
        values = np.concatenate((-values[::-1], np.zeros(1, dtype=object), values))
        counts = np.concatenate((counts[::-1], [len(A)], counts))
    return RepFn(op, len(A), len(B), values=values, scale=scale, counts=counts,
                 pair_pos=pair_pos)


# Two safe primes below 2**31 (p and (p - 1)/2 both prime).  Modulo each,
# every residue other than +-1 has multiplicative order at least (p - 1)/2,
# so powers of one base spread over many residues: geometric sums and
# differences, and products past the coprime-base cap, rarely collide.  A
# Mersenne prime would not do, as 2**k mod 2**31 - 1 takes only 31 values.
_KEY_PRIMES = (2147483579, 2147483123)
# pair values held at once while `_PairGroups.mixed_groups` checks groups
_CHECK_CHUNK = 1 << 15


def _key_parts(iv, m: int) -> list[np.ndarray]:
    """Residue key parts of m times the integers of the int view `iv`:
    int64 values modulo each of the `_KEY_PRIMES`, from the view's cached
    residues mod their product (a residue and m mod p are below 2**31, so
    each product fits int64)."""
    p1, p2 = _KEY_PRIMES
    r = iv.residues(p1 * p2)
    return [r % p * (m % p) % p for p in (p1, p2)]


class _PairGroups:
    """The pairs of A op B (`_pair_index`) grouped by an int64 key of their
    exact values, for `_distinct_count_fingerprint`.

    Each pair gets a key from its value's residues modulo the two
    `_KEY_PRIMES`, so equal values always share a key; `order` sorts the
    pairs by key and `head` marks the first sorted position of each key
    group.  Sums and differences use both sets' integers at a common
    denominator, products each set's own scaled integers.
    """

    def __init__(self, A: FiniteSet, B: FiniteSet, op: str):
        A, B, op, same, ii, jj = _pair_index(A, B, op)
        ma, mb, _ = _pair_factors(A, B, op)
        a, ka = _exact(A.int_view, ma), _key_parts(A.int_view, ma)
        b, kb = (a, ka) if same else (_exact(B.int_view, mb), _key_parts(B.int_view, mb))
        self.op, self.same = op, same
        self.a, self.b, self.ii, self.jj = a, b, ii, jj

        # key = (v mod p1) * 2**31 + (v mod p2), from the operands' residues
        self._ufunc = ufunc = _PAIR_FUNCS[op][0]

        def residues(k: int) -> np.ndarray:
            r = ka[k][ii]
            ufunc(r, kb[k][jj], out=r)
            r %= _KEY_PRIMES[k]
            return r

        key = residues(0)
        key <<= 31
        key += residues(1)
        self.order = np.argsort(key)
        self.head = _run_heads(key[self.order])

    def values(self, sorted_pos: np.ndarray) -> np.ndarray:
        """Exact integer values of the pairs at these sorted positions, as
        an object array."""
        src = self.order[sorted_pos]
        return self._ufunc(self.a[self.ii[src]], self.b[self.jj[src]])

    def mixed_groups(self) -> list[tuple[int, int]]:
        """(start, end) sorted positions of the key groups that hold
        distinct values.  Only groups of two or more pairs are evaluated:
        each member against its group's first, `_CHECK_CHUNK` at a time."""
        head = self.head
        # a group's later members, and first members followed by one
        later = ~head
        pos = np.flatnonzero(later | np.append(later[1:], False))
        mixed = []
        first = first_val = None
        for c in range(0, pos.size, _CHECK_CHUNK):
            chunk = pos[c : c + _CHECK_CHUNK]
            for p, starts_group, v in zip(chunk.tolist(), head[chunk].tolist(), self.values(chunk)):
                if starts_group:
                    first, first_val = p, v
                elif v != first_val and (not mixed or mixed[-1] != first):
                    mixed.append(first)
        if not mixed:
            return []
        starts = np.append(np.flatnonzero(head), head.size)
        return [(p, int(starts[np.searchsorted(starts, p, side="right")])) for p in mixed]


def _distinct_count_fingerprint(A: FiniteSet, B: FiniteSet, op: str) -> int:
    """Exact |A op B| for ratios and values past int64.

    Counts the key groups of `_PairGroups` and, in each group that holds
    distinct values, the distinct values beyond one (`distinct_count` on an
    object array), so the count is exact whatever the primes; no singleton
    group is evaluated.  For the same set, differences count
    2 * #distinct positive differences + 1.
    """
    if len(A) == 0 or len(B) == 0:
        return 0
    g = _PairGroups(A, B, op)
    distinct = int(np.count_nonzero(g.head))
    for start, end in g.mixed_groups():
        distinct += distinct_count(g.values(np.arange(start, end))) - 1
    return 2 * distinct + 1 if g.same and g.op == "diff" else distinct


def pair_set_size(A: FiniteSet, B: FiniteSet, op: str) -> int:
    """|A op B| without materializing the pair set.

    When the values fit int64 it sorts them in place and counts the breaks.
    Otherwise (ratios, and big values such as geometric families reaching
    2**n) products and ratios count the distinct coprime-base keys
    (`_coprime_keys`, exact without any check), and the rest uses the exact
    residue-keyed counter `_distinct_count_fingerprint`.
    """
    _require_op(op)
    if len(A) == 0 or len(B) == 0:
        return 0
    if op == "ratio" and 0 in B:
        raise DivisionDomainError("ratio set requires 0 not in divisor set")
    outer = _outer_int64(A, B, op)
    if outer is not None:
        flat, zeros = outer[0], 0
    else:
        keys = _coprime_keys(A, B, op, False) if op in ("prod", "ratio") else None
        if keys is None:
            return _distinct_count_fingerprint(A, B, op)
        flat, _, zeros = keys
    return distinct_count(flat) + (zeros > 0)


# ---------------------------------------------------------------------------
# Products and ratios over a coprime base
# ---------------------------------------------------------------------------

def _coprime_pair(A: FiniteSet, B: FiniteSet):
    """Exponent matrices of A's and B's scaled integers over one
    pairwise-coprime base (`sets.coprime_exponents`), or None.

    Each set's base and matrix are cached on its int view.  Two different
    sets take the base of their union, which is the coprime base of their
    two bases: each member of either base is a product of powers of the
    union's members, so a matrix maps over by one integer matrix product.
    """
    ca = A.int_view.coprime()
    if ca is None:
        return None
    if A is B or A == B:
        return ca[1], ca[1]
    cb = B.int_view.coprime()
    if cb is None:
        return None
    union = coprime_exponents(ca[0] + cb[0])
    if union is None:
        return None
    to_union = union[1]
    k = len(ca[0])
    return ca[1] @ to_union[:k], cb[1] @ to_union[k:]


def _coprime_keys(A: FiniteSet, B: FiniteSet, op: str, indexed: bool):
    """(keys, shift, zeros): one int key per pair (a, b) of nonzero elements
    of A x B, op "prod" or "ratio", with equal keys exactly for equal values;
    or None when the sets need more than the cap of coprime bases or a key
    would not fit int64.

    With each nonzero scaled integer written as a sign and an exponent
    vector over a pairwise-coprime base (`_coprime_pair`), a product is the
    vector sum and a ratio the difference, up to the constant factor of the
    scales.  Two rationals prod b_j**e_j and prod b_j**f_j are equal only if
    e = f (a prime dividing b_j divides no other member), so a key packs
    the vector in mixed radix over each entry's range, above a sign bit, and
    no key group needs an exact check.  The keys are int32 when they fit.
    Row i (of the nonzero elements of A in order) holds the pairs
    (a_i, b_0), (a_i, b_1), ...; with `indexed`, the low `shift` bits of a
    key are that flat pair index.  `zeros` counts the pairs whose value is 0.
    """
    pair = _coprime_pair(A, B)
    if pair is None:
        return None
    parts = []
    for iv, e in zip((A.int_view, B.int_view), pair):
        neg = int(np.searchsorted(iv.arr, 0))
        has_zero = neg < len(iv) and iv.arr[neg] == 0
        parts.append((np.delete(e, neg, axis=0) if has_zero else e, neg, has_zero))
    (ea, nega, za), (eb, negb, zb) = parts
    na, nb = len(ea), len(eb)
    zeros = za * len(B) + zb * len(A) - za * zb if op == "prod" else za * len(B)
    if op == "ratio":
        eb = -eb
    if not (na and nb):
        return np.zeros(0, dtype=np.int64), 0, zeros
    lo_a, lo_b = ea.min(axis=0), eb.min(axis=0)
    radix, size = [], 2
    for w in (ea.max(axis=0) - lo_a + eb.max(axis=0) - lo_b + 1).tolist():
        radix.append(size)
        size *= w
    shift = (na * nb - 1).bit_length() if indexed else 0
    if size << shift > 1 << 63:
        return None
    radix = np.array(radix, dtype=np.int64)
    ka = (ea - lo_a) @ radix << shift
    kb = ((eb - lo_b) @ radix + (np.arange(nb) < negb)) << shift
    if indexed:
        ka += np.arange(0, na * nb, nb)
        kb += np.arange(nb)
    dtype = np.int32 if size << shift <= 1 << 31 else np.int64
    keys = np.add.outer(ka.astype(dtype), kb.astype(dtype))
    keys[:nega] ^= 1 << shift  # a negative a flips the sign bit
    return keys.ravel(), shift, zeros


def _coprime_rep(A: FiniteSet, B: FiniteSet, op: str) -> RepFn | None:
    """`_sorted_rep(A, B, op)` for op "prod" or "ratio", the very same
    table, counted from `_coprime_keys`; None where those are None.

    One sort of the indexed keys gives each distinct value's count and one
    pair that takes it, whose exact value is the product of the operands
    `_sorted_rep` uses: the scaled integers of A, and of B for a product or
    of {1/b : b in B} for a ratio.  The support is then ordered by one
    stable argsort of those values in an object array.
    """
    keys = _coprime_keys(A, B, op, True)
    if keys is None:
        return None
    flat, shift, zeros = keys
    flat.sort()
    starts = np.flatnonzero(_run_heads(flat >> shift))
    pos = flat[starts] & ((1 << shift) - 1)
    a, b = (v[v != 0] for v in (_exact(A.int_view, 1), _exact(B.int_view, 1)))
    scale = A.int_view.scale * B.int_view.scale
    if op == "ratio":
        # the int view of {1/b}: 1/b = s_B / b, and s_B / b is in lowest
        # terms over |b| / gcd(s_B, b); s is the lcm of those denominators
        sb = B.int_view.scale
        s = int(np.lcm.reduce(np.abs(b) // np.gcd(b, sb)))
        b = sb * s // b
        scale = A.int_view.scale * s
    rows, cols = np.divmod(pos, len(b))
    vals = a[rows] * b[cols]
    cnt = np.diff(starts, append=flat.size)
    if zeros:
        vals = np.append(vals, np.zeros(1, dtype=object))
        cnt = np.append(cnt, zeros)
    order = np.argsort(vals, kind="stable")
    return RepFn(op, len(A), len(B), values=vals[order], scale=scale, counts=cnt[order])


# pair values held at once by `pair_membership`
_MEMBERSHIP_CHUNK = 1 << 15
# widest 0/1 occupancy table `pair_membership` builds (16 MiB of bool)
_BINCOUNT_SPAN_LIMIT = 16_777_216
# `pair_membership`'s exact occupancy table has at most this many times
# |X||Y| + |P| entries (and at most `_BINCOUNT_SPAN_LIMIT`); wider ranges
# take the hashed table.  Timing both forced on P + P in P for random P
# (|P| = 100-2000, 2-core x86-64, numpy 2.4), the exact table was 1.1-2
# times faster up to 8 times, about even at 16-32 times (64-256 for
# |P| = 100) and at the 2**24-entry limit, and slower past that; 8 keeps
# its byte per entry within an int64 copy of the pairs.
_OCCUPANCY_WIDTH_FACTOR = 8
# the hashed table has 2**k int64 slots, k = ceil(log2(16 |P|)) clamped to
# these bounds: at most 1/16 of the slots hold an element of P until |P|
# passes 2**17, and the table takes 8 KiB to 16 MiB.  A floor of 2**16
# slots timed the same on the loop projections of random sets over 2**40
# (|P| = 381-2451), but its 512 KiB tables for small P raised a long
# sum-chain run's peak RSS by 0.9 MB
_HASH_BITS = (10, 21)
# Fibonacci hashing: a slot is the top k bits of v * _HASH_MULT mod 2**64
# (2**64 over the golden ratio, odd), which spreads runs and multiples
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
# slot contents other than an element of P: no element, or two or more.  No
# pair value equals either, since every one lies below INT64_SAFE = 2**62
_EMPTY = np.int64(-(1 << 63))
_SEVERAL = np.int64(-(1 << 63) + 1)


def _occupancy_fits(width: int, pairs: int, size: int) -> bool:
    """Whether `pair_membership` tests `pairs` pair values against a set of
    `size` values through an exact occupancy table of `width` entries."""
    return width <= _BINCOUNT_SPAN_LIMIT and width <= _OCCUPANCY_WIDTH_FACTOR * (pairs + size)


def _hash_slots(v: np.ndarray, k: int) -> np.ndarray:
    """The slots of the int64 values v in a hashed table of 2**k slots,
    written over v and returned."""
    h = v.view(np.uint64)
    h *= _HASH_MULT
    h >>= np.uint64(64 - k)
    return v


def _int64_lookup(x: np.ndarray, y: np.ndarray, op: str, p: np.ndarray):
    """block(r0, r1, c0=0): whether x[i] op y[j] lies in the sorted int64
    array p, for rows r0 <= i < r1 of x and columns j >= c0 of y, with every
    pair value known to fit int64.

    All pair values and p lie in [base, base + top]: the bounds are the
    corner values of x op y and the ends of p.  Where `_occupancy_fits`
    allows a table of top + 1 entries, value v is entry v - base of a 0/1
    occupancy table, a direct-address table, and a block is one gather.
    Otherwise slot `_hash_slots(v)` of a hashed table holds the one element
    of p that hashes there, `_EMPTY` or `_SEVERAL`: a pair value is in p
    exactly when its slot holds it, and only a value whose slot holds
    `_SEVERAL` is searched in p.
    """
    ufunc, f = _PAIR_FUNCS[op]
    ends = [f(int(u), int(v)) for u in (x[0], x[-1]) for v in (y[0], y[-1])]
    ends += [int(p[0]), int(p[-1])]
    base = min(ends)
    top = max(ends) - base
    if _occupancy_fits(top + 1, x.size * y.size, p.size):
        occ = np.zeros(top + 1, dtype=bool)
        occ[p - base] = True
        if op == "prod":
            def block(r0, r1, c0=0):
                v = ufunc.outer(x[r0:r1], y[c0:])
                v -= base
                return occ.take(v)
            return block
        # (x - base) op y = (x op y) - base for a sum or a difference
        shifted = x - base
        return lambda r0, r1, c0=0: occ.take(ufunc.outer(shifted[r0:r1], y[c0:]))

    lo, hi = _HASH_BITS
    k = min(max((16 * p.size - 1).bit_length(), lo), hi)
    slots = _hash_slots(p.copy(), k)
    table = np.full(1 << k, _EMPTY)
    table[slots] = p
    slots.sort()
    shared = slots[1:][slots[1:] == slots[:-1]]
    table[shared] = _SEVERAL
    several = shared.size > 0
    if op == "prod":
        def subtract(a, r0, r1, c0):
            a -= ufunc.outer(x[r0:r1], y[c0:])
    else:
        # (slot - x) -/+ y is 0 exactly where slot = x op y: int64 arithmetic
        # wraps modulo 2**64, which keeps a sentinel apart from every value
        after = np.subtract if op == "sum" else np.add

        def subtract(a, r0, r1, c0):
            a -= x[r0:r1, None]
            after(a, y[c0:], out=a)

    def block(r0, r1, c0=0):
        # each entry's slot is gathered over its own hash (an unbuffered
        # take reads an index before it writes that entry), so a block
        # holds one int64 array at a time
        a = _hash_slots(ufunc.outer(x[r0:r1], y[c0:]), k)
        table.take(a, out=a, mode="clip")
        odd = np.flatnonzero(a == _SEVERAL) if several else ()
        subtract(a, r0, r1, c0)
        hit = a == 0
        del a
        if len(odd):
            i, j = np.divmod(odd, hit.shape[1])
            w = ufunc(x[r0 + i], y[c0 + j])
            idx = np.searchsorted(p, w)
            np.minimum(idx, p.size - 1, out=idx)
            hit.ravel()[odd] = p[idx] == w
        return hit
    return block


def _residue_lookup(op: str, scaled):
    """block(r0, r1, c0=0): whether x[i] op y[j] lies in the sorted p, for
    rows r0 <= i < r1 and columns j >= c0, with values that need not fit
    int64; `scaled` holds the int views of X, Y and P with the multipliers
    that make x, y and p.

    Each pair's residue key (as in `_PairGroups`) is looked up in p's sorted
    keys; a key hit names one element of p with that key, which is compared
    exactly, and p itself is searched only when they differ (p may repeat a
    key).  x, y and p are object arrays of Python ints.
    """
    p1, p2 = _KEY_PRIMES
    ufunc = _PAIR_FUNCS[op][0]
    x, y, p = (_exact(iv, m) for iv, m in scaled)
    (x1, x2), (y1, y2), (t1, t2) = (_key_parts(iv, m) for iv, m in scaled)
    table = (t1 << 31) + t2
    by_key = np.argsort(table)
    table = table[by_key]

    def block(r0, r1, c0=0):
        v = ufunc.outer(x1[r0:r1], y1[c0:]) % p1
        v <<= 31
        v += ufunc.outer(x2[r0:r1], y2[c0:]) % p2
        idx = np.searchsorted(table, v)
        np.minimum(idx, table.size - 1, out=idx)
        hit = table[idx] == v
        ii, jj = np.nonzero(hit)
        w = ufunc(x[ii + r0], y[jj + c0])
        same = w == p[by_key[idx[ii, jj]]]
        odd = np.flatnonzero(~same)
        if odd.size:
            i = np.minimum(np.searchsorted(p, w[odd]), p.size - 1)
            same[odd] = p[i] == w[odd]
        hit[hit] = same
        return hit
    return block


def _membership_block(X: FiniteSet, Y: FiniteSet, op: str, P: FiniteSet):
    """The block function of `_int64_lookup` or `_residue_lookup` for
    whether x op y lies in P, over nonempty X, Y and P brought to one
    denominator."""
    x, y, s = _operands(X, Y, op, P.int_view.scale)
    ivp = P.int_view
    mp = s // ivp.scale
    if x.dtype != object and abs_bound(ivp.arr) * mp < INT64_SAFE:
        return _int64_lookup(x, y, op, ivp.arr * mp if mp != 1 else ivp.arr)
    mx, my, _ = _pair_factors(X, Y, op, s)
    return _residue_lookup(op, ((X.int_view, mx), (Y.int_view, my), (ivp, mp)))


def pair_membership(X: FiniteSet, Y: FiniteSet, op: str, P: FiniteSet, *,
                    per_row: bool = False) -> np.ndarray:
    """Whether x op y lies in P, for every pair (x, y) in X x Y.

    Returns a |X| x |Y| boolean matrix, or with `per_row` the int64 number
    of hits in each row; op is "sum", "diff" or "prod".  X op Y and P are
    brought to one denominator.  When the operands, the pair values and P
    all fit int64, the sets' int64 views are used as they are.  Over a
    range of at most `_OCCUPANCY_WIDTH_FACTOR` times |X||Y| + |P| values
    (and at most `_BINCOUNT_SPAN_LIMIT`), pair values are looked up in an
    exact 0/1 occupancy table, a direct-address table.  Over a wider range
    they are looked up in a hashed table of P's own values, whose slot
    holds the one element of P that hashes there or a sentinel; only a
    pair value whose slot is shared by several elements is searched in P's
    sorted values.  Past int64, a pair's residue key (as in `_PairGroups`)
    is looked up in P's sorted keys, and a key hit is compared exactly.
    Rows go a block of about `_MEMBERSHIP_CHUNK` pair values at a time.
    """
    if op not in _PAIR_FUNCS:
        raise DomainError(f"op must be one of {tuple(_PAIR_FUNCS)}, got {op!r}")
    hits = np.zeros(len(X) if per_row else (len(X), len(Y)),
                    dtype=np.int64 if per_row else bool)
    if not (len(X) and len(Y) and len(P)):
        return hits
    block = _membership_block(X, Y, op, P)
    rows = max(1, _MEMBERSHIP_CHUNK // len(Y))
    for r0 in range(0, len(X), rows):
        hit = block(r0, r0 + rows)
        hits[r0 : r0 + rows] = np.count_nonzero(hit, axis=1) if per_row else hit
    return hits


# ---------------------------------------------------------------------------
# Moment energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyValue:
    """A moment energy: exact integer when the exponent is integral, plus a
    float image (nearest representable, inf on overflow)."""

    exact: int | None
    approx: float

    def __float__(self) -> float:
        return self.approx


def to_float(x: int) -> float:
    """float(x), or inf when x is too large for a float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def moment(counts: np.ndarray, k) -> EnergyValue:
    """sum(counts ** k) over a count array.

    Integer k: exact big-integer arithmetic.  Fractional k: float64 powers
    with pairwise summation (relative error far below the documented 1e-9
    relative slack, `verifier.REL_SLACK`, at desk scale).
    """
    kr = as_rational(k) if not isinstance(k, float) else k
    if isinstance(kr, float):
        if kr < 0:
            raise DomainError("energy exponent must be >= 0")
        if kr.is_integer():
            kr = int(kr)
    elif kr < 0:
        raise DomainError("energy exponent must be >= 0")
    if isinstance(kr, int):
        uniq, mult = np.unique(counts, return_counts=True)
        total = sum(int(m) * int(u) ** kr for u, m in zip(uniq.tolist(), mult.tolist()))
        return EnergyValue(total, to_float(total))
    return EnergyValue(None, float(np.sum(np.power(counts.astype(np.float64), float(kr)))))


def energy(f: RepFn, k) -> EnergyValue:
    """k-th moment of the representation function: sum of counts(x)**k,
    computed by `moment`.  k = 1 recovers |A||B|; a ratio-op RepFn yields
    the multiplicative energies.
    """
    return moment(f.counts_array, k)


# ---------------------------------------------------------------------------
# Projection counts  #{(p1, p2, q) in P x P x Q : p1 - p2 = q}
# ---------------------------------------------------------------------------

# Percival's FFT-convolution bound in double precision: unit roundoff, and an
# assumed allowance (8 ulp) for the error of pocketfft's roots of unity.
_FFT_EPS = 2.0 ** -53
_FFT_BETA = 2.0 ** -50
# refusal threshold for that allowance: rounding to the nearest integer needs
# an error below 1/2; this keeps a factor-two margin
_FFT_ERROR_LIMIT = 0.25


@functools.lru_cache(maxsize=256)
def _fft_length(span: int) -> tuple[int, int]:
    """Transform length and stage count for `_difference_counts_fft`.

    N is the least even number above `span` of the form 2**a 3**b 5**c, a
    length pocketfft transforms with its radix-2/3/4/5 passes alone; it never
    exceeds the least power of two above `span`.  `stages` = a + 2b + 4c
    counts each radix-r factor as r - 1 radix-2 stages, the count that
    `_fft_correlation_error_bound` takes.
    """
    target = span + 1
    best = None
    three, b = 1, 0
    while three <= target:
        odd, c = three, 0
        while odd <= target:
            a = max(1, (-(-target // odd) - 1).bit_length())
            if best is None or odd << a < best[0]:
                best = (odd << a, a + 2 * b + 4 * c)
            odd *= 5
            c += 1
        three *= 3
        b += 1
    return best


def _fft_correlation_error_bound(size: int, stages: int) -> float:
    """Rounding-error allowance for one entry of the table that
    `_difference_counts_fft` builds from `size` points with transforms of
    `stages` radix-2-equivalent stages (see `_fft_length`; 2**m points take
    m).  The bound is proved for a radix-2 transform; counting a radix-r pass
    as r - 1 stages is conservative (it exceeds log2 r) but carried over to
    mixed-radix transforms without a proof, like the bound itself (see
    `_difference_counts_fft` for what it does and does not cover).
    """
    m = stages
    growth = math.expm1(
        3 * m * math.log1p(_FFT_EPS)
        + (3 * m + 1) * math.log1p(_FFT_EPS * math.sqrt(5))
        + 3 * m * math.log1p(_FFT_BETA)
    )
    return 2 * size * growth


def _offsets(p_ints) -> np.ndarray:
    """p - min(p) as a fresh int64 array, for a sorted integer array or
    sequence whose span fits int64 (the values themselves need not)."""
    return (np.asarray(p_ints) - p_ints[0]).astype(np.int64, copy=False)


def _is_palindrome(pos: np.ndarray) -> bool:
    """Whether the sorted offsets `pos` (pos[0] = 0) of a set are symmetric
    about half its span: pos[j] + pos[-1 - j] = span for every j.  The
    second pair from the ends rejects most sets before the O(|P|) pass."""
    span = pos[-1]
    if pos.size > 2 and pos[1] + pos[-2] != span:
        return False
    return bool((pos + pos[::-1] == span).all())


class _TableCertifier:
    """The checks of `_difference_counts_fft`'s inverted buffers for a set
    P cut into blocks of b points, transformed on M = 2b, given each
    block's point count n_i and the sum s_i of its points' positions within
    the block.

    Buffer t is U_t = R_t + R_{t+1} shifted by b (see
    `_difference_counts_fft`): its entry e counts the pairs (p1, p2) of P,
    p1 in block i + t or i + t + 1 and p2 in block i, whose positions
    within their blocks differ by e, or by e - b for the second, mod M.
    `round(u, scratch, t, head)` rounds buffer t in place and returns the
    int64 view of its first `head` entries, or raises ExactnessError naming
    every failed check unless all M entries, both halves, pass five: each
    lies within 1/4 of an integer; their sum is the exact mass
    sum_i n_{i+t} n_i + sum_i n_{i+t+1} n_i; their first moment
    sum_e e * U_t[e] is, mod M,
    sum_i (s_{i+t} n_i - n_{i+t} s_i) + (s_{i+t+1} n_i - n_{i+t+1} s_i + b n_{i+t+1} n_i);
    U_0[0], the zero lag, is |P|; and none rounds below zero.  Mass and
    moment together catch an error confined to one entry, and an error +c,
    -c at two entries d apart unless M divides c * d (so never for c = 1);
    the sign check catches such a pair too when the true count under the
    -c is below c, but not otherwise.  The moment is read from the buffer
    as a grid of rows of w entries, w a divisor of M near its square root:
    sum_e e * U[e] = w sum_r r * row_r + sum_j j * column_j.
    `scratch` is a float64 buffer the kernel lends, at least M long, for
    the rounded values, so the certificate's own temporaries are the row
    and column sums.
    """

    def __init__(self, counts: list[int], sums: list[int], m: int):
        self.n, self.s, self.m = counts, sums, m
        self.size = sum(counts)
        self.width = 1
        for r in (2, 3, 5):
            while m % (self.width * r) == 0 and (self.width * r) ** 2 <= m:
                self.width *= r

    def _want(self, t: int) -> tuple[int, int]:
        """Mass and first moment mod M of buffer t."""
        n, s = self.n, self.s
        mass = moment = 0
        for lag, shift in ((t, 0), (t + 1, self.m // 2)):
            for i in range(len(n) - lag):
                mass += n[i + lag] * n[i]
                moment += s[i + lag] * n[i] - n[i + lag] * s[i] + shift * n[i + lag] * n[i]
        return mass, moment % self.m

    def round(self, u: np.ndarray, scratch: np.ndarray, t: int, head: int) -> np.ndarray:
        m, w = self.m, self.width
        rounded = np.rint(u, out=scratch[:m])
        u -= rounded
        err = float(np.abs(u, out=u).max())
        counts = u.view(np.int64)
        counts[:] = rounded
        low = int(counts.min())
        # reduced mod m, the dots stay below m**3 / w**2 + m * w**2, far
        # inside int64 for any m this kernel transforms on
        grid = counts.reshape(-1, w)
        rows, columns = grid.sum(axis=1), grid.sum(axis=0)
        mass = int(rows.sum())
        moment = (w * int(np.dot(rows % m, np.arange(rows.size)))
                  + int(np.dot(columns % m, np.arange(w)))) % m
        want_mass, want_moment = self._want(t)
        problems = []
        if not err < _FFT_ERROR_LIMIT:
            problems.append(f"an entry lies {err:.3g} from the nearest integer")
        if mass != want_mass:
            problems.append(f"mass {mass} != {want_mass}")
        if moment != want_moment:
            problems.append(f"first moment {moment} != {want_moment} mod {m}")
        if t == 0 and counts[0] != self.size:
            problems.append(f"zero-lag count {counts[0]} != |P| = {self.size}")
        if low < 0:
            problems.append(f"a negative entry {low}")
        if problems:
            raise ExactnessError(
                f"difference-count table failed certification in block {t}: "
                + "; ".join(problems)
            )
        return counts[:head]


def _block_layout(span: int) -> tuple[int, int, int]:
    """Block count K, transform length M and stage count of
    `_difference_counts_fft` for a set of span `span`.

    The span + 1 = L points are cut into K = max(2, ceil(L / `_FFT_BLOCK`))
    blocks of M/2 points, M the least even 2**a 3**b 5**c at or above
    2 ceil(L / K) (`_fft_length`).  `stages` is M's radix-2-equivalent stage
    count plus ceil(log2(2K - 1)) for the sums of block spectra: S_t +- S_{t+1}
    adds up to 2(K - t) - 1 products.
    """
    length = span + 1
    k = max(2, -(-length // _FFT_BLOCK))
    m, stages = _fft_length(2 * -(-length // k) - 1)
    return k, m, stages + (2 * k - 2).bit_length()


def _correlate_spectra(rows: list, count: int) -> None:
    """Replace block spectra X_0 .. X_{K-1} in place: row t < `count` by
    V_t[j] = S_t[j] + (-1)**j S_{t+1}[j], where
    S_t = sum_i X_{i+t} conj(X_i) (S_0 = sum_i |X_i|**2) and S_K = 0.  Rows
    from `count` on are left as scratch.

    Only S_0 .. S_count are formed.  Row t is overwritten in increasing t;
    its own term X_t conj(X_0) comes first, and the later rows it reads are
    still unchanged, so only the conjugates of rows 1 .. K-2 are copied.
    S_{t+1} is added into row t before row t + 1 changes again.  For K > 2
    this runs one column tile of _FFT_BLOCK / 4 complex points over all K
    rows (1 MiB at 2**18) at a time, so that a tile stays in cache while
    each row is read K times; for K = 2 nothing is copied and the rows are
    taken whole.
    """
    k = len(rows)
    width = rows[0].size
    formed = min(count + 1, k)
    tile = width if k == 2 else max(1, _FFT_BLOCK // (4 * k))
    for lo in range(0, width, tile):
        x = [row[lo:lo + tile] for row in rows]
        power = np.square(x[0].real)
        power += np.square(x[0].imag)
        for xi in x[1:]:
            power += np.square(xi.real)
            power += np.square(xi.imag)
        conj = [np.conjugate(xi) for xi in x[1:k - 1]]
        np.conjugate(x[0], out=x[0])
        term = np.empty_like(x[0]) if conj else None
        for t in range(1, formed):
            x[t] *= x[0]
            for i in range(1, k - t):
                x[t] += np.multiply(x[i + t], conj[i - 1], out=term)
        x[0][:] = power
        # frequency lo + j is even where j has lo's parity
        even, odd = lo % 2, 1 - lo % 2
        for t in range(formed - 1):
            x[t][even::2] += x[t + 1][even::2]
            x[t][odd::2] -= x[t + 1][odd::2]


def _difference_counts_fft(p_ints, top: int) -> Iterator[np.ndarray]:
    """Exact difference counts of a sorted integer set for lags 0 .. `top`,
    streamed block by block.

    The set `p_ints` is a sorted integer array or sequence; `top` is
    clamped to its span, max(P) - min(P).

    Yields T + 1 int64 blocks, T = top // b (b from `_block_layout`), block
    t holding lags t*b to t*b + b - 1 and the last one cut at `top`, whose
    concatenation is counts, with
    counts[d] = #{(p1, p2) in P x P : p1 - p2 = d} for d = 0..top; the count
    at -d is the one at d.  Each block is certified before it is yielded.
    A block is a read-only view of the kernel's buffer, whose later steps
    leave it as it is; a caller that keeps one keeps that buffer alive.

    Layout (`_block_layout`): the indicator vector x of P - min(P), of
    L = span + 1 points, is cut into K = max(2, ceil(L / `_FFT_BLOCK`))
    blocks x_0 .. x_{K-1} of b points each, where 2b = M is the least even
    number of the form 2**i 3**j 5**l at or above 2 ceil(L / K)
    (`_fft_length`; over spans 1 000 .. `_POLY_SPAN_LIMIT` it averages 1.007
    times that, where a power of two averages 1.39 times).  The last block
    may run past the span; its tail is zero.  With
    (u*v)[e] = sum_j u[j + e] v[j], whose
    lags -b < e < b fit a cyclic correlation on M points without
    wrap-around, and R_t = sum_i x_{i+t}*x_i,

        counts[t*b + e] = R_t[e] + R_{t+1}[e - b],  0 <= e < b, R_K = 0.

    On M = 2b points, shifting R_{t+1} by b multiplies its spectrum by
    (-1)**j at frequency j.  So each block is transformed once with rfft on
    M points, the spectra are combined pointwise into
    V_t = S_t + (-1)**j S_{t+1}, S_t = sum_i X_{i+t} conj(X_i), in place
    (`_correlate_spectra`, which forms only S_0 .. S_{T+1}), and each V_t,
    t <= T, is inverted with one irfft into U_t, whose first b entries are
    block t of the table: K forward (ceil(K/2) for a mirrored palindrome,
    below) and T + 1 inverse transforms on M points.  A full table
    (top = span) takes at most K inverses; a set with P = -P queried at
    lags up to span / 2 about half as many.  K = 2 is the
    two-halves layout (spans below 2 * `_FFT_BLOCK`); larger spans take more
    blocks, so that one transform stays in cache instead of growing with the
    span (pocketfft's cost per point doubles past about 2**20 points).  No
    table of the whole span is ever allocated.  The K spectra are the rows
    of one K x (b + 1) complex array, 16 bytes per block point each.  U_0
    goes into one spare buffer of M floats and each later U_t into the head
    of row t - 1, whose spectrum is inverted by then.  (Written over its own
    input, a transform would first copy that input to a temporary of the
    same size.)  U_t is rounded and certified in place (`_TableCertifier`,
    whose temporaries go to row t, free once inverted) and its head
    yielded.  Peak numpy memory is the K rows and the spare buffer, about
    16 + 16/K bytes per span point (under tracemalloc 18.0 bytes at K = 9,
    21.6 at K = 3 and 24.4 at K = 2, where the whole float table kept next
    to the spectra peaked at 26.0, 29.5 and 27-29.5).  One array for all
    the spectra also spares the allocator: with a fresh buffer for each
    inverse, a round of the benchmark's `sum-chain` workload took 86 000
    minor page faults instead of 33 000.

    Mirrored blocks.  When P - min(P) is a palindrome, x[j] = x[span - j]
    (`_is_palindrome`, O(|P|)), and K*b - span is even, the positions get a
    lead pad of (K*b - span) / 2, which moves no difference, so that the
    mirror centre falls on K*b: x_{K-1-i}[n] = x_i[b - n] for 0 < n < b and
    x_{K-1-i}[0] = x_{i+1}[0].  On M = 2b points that gives

        X_{K-1-i}[j] = (-1)**j (conj X_i[j] - x_i[0]) + x_{i+1}[0],

    so only blocks 0 .. ceil(K/2) - 1 are transformed, and each
    X_{K-1-i} is written into its own row from X_i: one conjugate, a sign
    flip of the odd frequencies and one real scalar per parity.  When
    K*b - span is odd (K and b both odd, as at M = 2 * 3**4 * 5**5 with
    K = 7), the centre falls on K*b - 1 and X_{K-1-i} is
    w**(-(b - 1) j) conj X_i, w = exp(2 pi i / M): a twiddle, not a sign.
    Such a table transforms every block rather than build that twiddle.
    The certifier reads its counts and sums from the padded positions.

    Rounding each entry to the nearest integer is exact when its error is
    below 1/2.  The refusal threshold uses Percival's FFT-convolution bound
    (Brent & Zimmermann, Modern Computer Arithmetic, section 3.3),

        ||z_hat - z||_inf < ||x|| ||y||
            ((1+eps)^(3m) (1+eps*sqrt5)^(3m+1) (1+beta)^(3m) - 1),

    with eps = 2**-53 and beta = 2**-50 an assumed allowance for the error
    of the roots of unity, and ||x|| ||y|| replaced by 2|P|: by
    Cauchy-Schwarz sum_i ||x_{i+t}|| ||x_i|| <= sum_i ||x_i||**2 = |P|
    bounds the norms that R_t sums, and an entry of U_t adds two of them.
    m is the radix-2-equivalent stage count of `_fft_length` for M, which
    counts each radix-r pass as r - 1 stages, plus ceil(log2(2K - 1))
    stages for the sums V_t of up to 2K - 1 products, plus one for a
    mirrored layout.  A mirrored spectrum X_{K-1-i} carries the transform
    error of X_i and one rounding of the scalar it adds (conjugation and
    negation are exact), charged as that one stage; the norms charged for
    the mirrored pairs, those of x_i, still sum in square to at most |P|,
    since ||x_i||**2 - ||x_{K-1-i}||**2 = x_i[0] - x_{i+1}[0] telescopes
    to x_0[0] - x_{K//2}[0] and the pad leaves x_0[0] = 0.  That bound is proved
    for a complex radix-2 transform.  numpy's rfft/irfft are pocketfft's
    real FFTPACK-style radix-2/3/4/5 passes with a real-to-complex
    post-twiddle, and the bound, the stage count and the charge for the
    spectrum sums are carried over to them without a proof.  Within
    `_POLY_SPAN_LIMIT` its largest value, 1.06e-6, falls on a palindrome of
    span 4 049 998 (K = 16, M = 2 * 3**4 * 5**5, m = 29 + 5 + 1,
    |P| <= 4 049 999), and without a mirror 1.03e-6 on span 4 049 999
    (m = 29 + 5).  The kernel raises ExactnessError before any transform
    when it reaches 1/4 (possible only when a caller forces this path past
    the span limit).  Exactness rests also on `_TableCertifier`, which
    checks all M entries of every inverted buffer, the half never yielded
    too, and raises ExactnessError on any failure before the block is
    yielded.
    """
    span = int(p_ints[-1]) - int(p_ints[0])
    size = len(p_ints)
    k, m, stages = _block_layout(span)
    b = m // 2
    pos = _offsets(p_ints)
    mirror = (k * b - span) % 2 == 0 and _is_palindrome(pos)
    stages += mirror
    bound = _fft_correlation_error_bound(size, stages)
    if not bound < _FFT_ERROR_LIMIT:
        raise ExactnessError(
            f"FFT correlation of {size} points in {k} blocks on {m} ({stages} "
            f"radix-2 stages) has error allowance {bound:.3g}, not below "
            f"{_FFT_ERROR_LIMIT}"
        )
    top = min(top, span)
    last = top // b
    if mirror:
        # the lead pad puts the palindrome's centre at K*b
        pos += (k * b - span) // 2
    forward = (k + 1) // 2 if mirror else k
    cuts = [0, *np.searchsorted(pos, b * np.arange(1, k)).tolist(), pos.size]
    counts, sums, heads = [], [], []
    # row t holds X_t, then V_t
    spectra = np.empty((k, b + 1), dtype=complex)
    x = np.zeros(b)
    for i in range(k):
        part = pos[cuts[i]:cuts[i + 1]]
        part -= i * b
        counts.append(part.size)
        sums.append(int(part.sum()))
        heads.append(int(part.size > 0 and part[0] == 0))
        if i < forward:
            x[part] = 1.0
            np.fft.rfft(x, m, out=spectra[i])
            x[part] = 0.0
    del pos, x, part
    for i in range(k - forward):
        # X_{K-1-i} = (-1)**j (conj X_i - x_i[0]) + x_{i+1}[0]
        row = np.conjugate(spectra[i], out=spectra[k - 1 - i])
        np.negative(row[1::2], out=row[1::2])
        if heads[i + 1] != heads[i]:
            row.real[::2] += heads[i + 1] - heads[i]
        if heads[i + 1] or heads[i]:
            row.real[1::2] += heads[i + 1] + heads[i]
    cert = _TableCertifier(counts, sums, m)
    _correlate_spectra(list(spectra), last + 1)
    for t in range(last + 1):
        # U_0 goes to a spare buffer and U_t to the head of row t - 1, so no
        # transform writes over its input; row t, once inverted, is scratch
        u = np.empty(m) if t == 0 else spectra[t - 1].view(np.float64)[:m]
        np.fft.irfft(spectra[t], m, out=u)
        block = cert.round(u, spectra[t].view(np.float64), t, min(b, top + 1 - t * b))
        block.flags.writeable = False
        yield block


def projection_count(P: FiniteSet, Q: FiniteSet, *, budget: int | None = None) -> int:
    """Exact #{(p1, p2, q) in P x P x Q : p1 - p2 = q}.

    Equivalently the total count of P-differences landing in Q.  One of two
    kernels runs, chosen from the inputs alone: the FFT correlation
    `_fft_projection` when the membership loop `_loop_projection`
    would take more than 200 000 pair operations, P's span at the common
    denominator of P and Q is at most `_POLY_SPAN_LIMIT`, and the
    `_FFT_WORK_PER_PAIR` cost model finds the FFT cheaper or the loop would
    exceed `budget`; the loop otherwise.  A `budget` caps the loop's pair
    operations; exceeding it raises BudgetExceededError.  The FFT raises
    ExactnessError on any failed certification.
    """
    if not (len(P) and len(Q)):
        return 0
    loop_cost = len(P) * min(len(P), len(Q))
    over_budget = budget is not None and loop_cost > budget
    if loop_cost > 200_000:
        p_ints = _operands(P, Q, "diff")[0]
        span = int(p_ints[-1]) - int(p_ints[0])
        if span <= _POLY_SPAN_LIMIT:
            n, _ = _fft_length(span)
            if over_budget or n * math.log2(n) <= _FFT_WORK_PER_PAIR * loop_cost:
                return _fft_projection(P, Q)
    if over_budget:
        raise BudgetExceededError(
            f"projection_count needs {loop_cost} pair operations, budget {budget}"
        )
    return _loop_projection(P, Q)


def _loop_projection(P: FiniteSet, Q: FiniteSet) -> int:
    """`projection_count` by `pair_membership`: over p2 + q in P when
    |Q| <= |P|, over p1 - p2 in Q otherwise.  When Q equals P, p2 + q in P
    is symmetric in (p2, q), so the row blocks look up only the pairs
    j >= i of P's sorted elements and a hit off the diagonal counts twice."""
    if Q is P or Q == P:
        block = _membership_block(P, P, "sum", P)
        n, total, r0 = len(P), 0, 0
        while r0 < n:
            r1 = min(n, r0 + max(1, _MEMBERSHIP_CHUNK // (n - r0)))
            hit = block(r0, r1, r0)
            # columns r0 .. r1 - 1 of the block hold its pairs j <= i
            corner = hit[:, : r1 - r0]
            upper = np.count_nonzero(hit) - np.count_nonzero(np.tril(corner))
            total += 2 * upper + np.count_nonzero(corner.diagonal())
            r0 = r1
        return total
    if len(Q) <= len(P):
        return int(pair_membership(P, Q, "sum", P, per_row=True).sum())
    return int(pair_membership(P, P, "diff", Q, per_row=True).sum())


def _fft_projection(P: FiniteSet, Q: FiniteSet) -> int:
    """`projection_count` of nonempty P and Q, read off the certified table
    of `_difference_counts_fft` at Q's lags, built only out to the largest
    |q| within P's span (no table at all when no q lies there); raises
    ExactnessError where that kernel does."""
    # p1 - p2 = q exactly when s*p1 - s*p2 = s*q
    p_ints, q_ints, _ = _operands(P, Q, "diff")
    # the sorted lags in [-span, span] give |q| as two ascending runs, so
    # block t's lags t*b .. t*b + b - 1 are a slice of each run, cut once
    # for all blocks (q and -q both count)
    span = int(p_ints[-1]) - int(p_ints[0])
    lags = q_ints[np.searchsorted(q_ints, -span):
                  np.searchsorted(q_ints, span, "right")].astype(np.int64, copy=False)
    if not lags.size:
        return 0
    top = max(-int(lags[0]), int(lags[-1]))
    mid = int(np.searchsorted(lags, 0))
    k, m, _ = _block_layout(span)
    b = m // 2
    starts = b * np.arange(k + 1)
    runs = [(run % b, run.searchsorted(starts).tolist())
            for run in (-lags[:mid][::-1], lags[mid:])]
    total = 0
    for t, block in enumerate(_difference_counts_fft(p_ints, top)):
        for within, cuts in runs:
            if cuts[t] < cuts[t + 1]:
                total += int(block[within[cuts[t]:cuts[t + 1]]].sum())
    return total


# ---------------------------------------------------------------------------
# RepFn CSV dump (debug/test format): header "value,count"
# ---------------------------------------------------------------------------

def dump_repfn_csv(f: RepFn, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value", "count"])
        for v, c in f.items():
            w.writerow([format_rational(v), c])


def load_repfn_csv(path) -> dict:
    """Read a RepFn dump back into a value -> count dict."""
    out: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != ["value", "count"]:
            raise DomainError(f"{path}: expected header 'value,count'")
        for row in r:
            if not row:
                continue
            out[as_rational(row[0])] = int(row[1])
    return out
