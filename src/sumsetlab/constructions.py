"""Popular/rich subset constructions and the triple counts they control.

The machinery here is the combinatorial core: density-threshold subsets of
difference and sum sets ("popular" values), the elements whose translates
hit those subsets in many points ("rich" elements), an iterated refinement
that stabilizes a fractional moment energy, dyadic level classes of a count
function, and two exact triple counts whose lower bounds carry explicit
constants derived from the inclusion-exclusion steps of the proofs they
implement:

  * difference side: popular threshold |A|^2 / (11 |A-A|), rich threshold
    2|A|/sqrt(11); popular mass >= (10/11)|A|^2, rich size > |A|/2,
    per-rich-element pair count >= (4/11)|A|^2, and the triple count
    >= (10/11 + 4/11 - 1) |A|^2 * |R| > (3/22)|A|^3.

  * sum side: popular threshold |X|^2 / (8 |X+X| log m) with m the ambient
    size, rich threshold (3/4)|X|; rich size >= (1 - 1/(2 log m))|X|, and
    triple count >= Delta * |P_Delta| * |B| / 2 from 3/4 + 3/4 - 1 = 1/2.

"log" always means the natural logarithm; nothing here depends on the base
except through absorbed constants, and `ambient_log` is the single place
that pins the convention.

Every function reads the tables of its sets through `rep_fn`, which builds
the table of A op A once per set object.  Past int64 A's difference table
knows the entry of every pair (`RepFn.pair_pos`), and rich elements and the
triple count read which pairs have popular differences from it instead of
looking each pair value up in P.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, DomainError
from .sets import FiniteSet
from .energy import EnergyValue, RepFn, energy, moment, pair_membership, rep_fn

__all__ = [
    "ambient_log",
    "popular_differences",
    "popular_difference_mass",
    "rich_difference_elements",
    "popular_sums",
    "rich_sum_elements",
    "RefinementTrace",
    "refine_rich_core",
    "DyadicClass",
    "dominant_dyadic_class",
    "count_popular_difference_triples",
    "count_popular_sum_triples",
]

TWELVE_SEVENTHS = Fraction(12, 7)


def ambient_log(m: int | float) -> float:
    """Natural logarithm; the canonical 'log' for every threshold here."""
    return math.log(m)


# ---------------------------------------------------------------------------
# Popular values and rich elements
# ---------------------------------------------------------------------------

def popular_difference_mass(A: FiniteSet) -> tuple[FiniteSet, int]:
    """Popular differences together with their exact total count mass.

    Popular means count at least |A|^2 / (11 |A-A|); the comparison is the
    exact integer test 11 * count * |A-A| >= |A|^2, so no rounding can
    misclassify a value.  The returned mass is always >= (10/11)|A|^2.
    """
    if len(A) == 0:
        raise DomainError("popular_differences needs a nonempty set")
    d = rep_fn(A, A, "diff")
    mask = _popular_mask(d)
    return d.select(mask), int(d.counts_array[mask].sum())


def _popular_mask(d: RepFn) -> np.ndarray:
    """Where the counts of the difference table `d` of A are popular."""
    # counts <= |A| and |A-A| <= |A|^2 keep this far inside int64
    return 11 * d.counts_array * d.size >= d.left_size ** 2


def popular_differences(A: FiniteSet) -> FiniteSet:
    """Differences with count at least |A|^2 / (11 |A-A|)."""
    return popular_difference_mass(A)[0]


def rich_difference_elements(A: FiniteSet, P: FiniteSet) -> FiniteSet:
    """Elements x of A with |(x - A) & P| >= 2|A|/sqrt(11).

    The irrational threshold is tested by squaring: 11 c^2 >= 4 |A|^2
    (both sides nonnegative, boundary counted as rich).  When A's difference
    table carries pair positions (values past int64, see `RepFn.pair_pos`)
    and P is its popular selection, as it is for P = popular_differences(A),
    each count is read from the popular mask at the table entries of the
    pairs: no pair value is computed or looked up.  Otherwise every pair
    value is looked up in P by `pair_membership`.
    """
    d = rep_fn(A, A, "diff")
    if d.pair_pos is not None and _is_selection(d, mask := _popular_mask(d), P):
        c = np.count_nonzero(d.pair_mask(mask), axis=1)
    else:
        c = pair_membership(A, A, "diff", P, per_row=True)
    return _elements_where(A, _is_rich(c, len(A)))


def _is_rich(c: np.ndarray, n: int) -> np.ndarray:
    return 11 * c * c >= 4 * n * n


def _is_selection(d: RepFn, mask: np.ndarray, P: FiniteSet) -> bool:
    """Whether P is the set of values of the table `d` where `mask` is true,
    compared exactly at the table's scale s: by P's int view at scale t (a
    picked v is an int of P times s / t) when P carries it, as a table's
    selection does, else without building it.  Then at s = 1 the picked
    values are P's elements (no Fraction in lowest terms equals an int);
    otherwise a picked v is x = p/q in P when q divides s and v = p * (s/q)."""
    if len(P) != int(np.count_nonzero(mask)):
        return False
    picked = d.scaled_values[mask]
    s, quotients, iv = d.scale, {}, P.kept_int_view()
    if iv is not None:
        m, r = divmod(s, iv.scale)
        ints = iv.arr.tolist()
        return not r and picked.tolist() == (ints if m == 1 else [x * m for x in ints])
    picked = picked.tolist()
    if s == 1:
        return tuple(picked) == P.elements
    for v, x in zip(picked, P.elements):
        q = x.denominator
        if q not in quotients:
            quotients[q] = s // q if s % q == 0 else None
        m = quotients[q]
        if m is None or v != x.numerator * m:
            return False
    return True


def _elements_where(A: FiniteSet, keep: np.ndarray) -> FiniteSet:
    """The elements of A where the boolean `keep` is true: A itself when it
    keeps them all, else a new set made from A's scaled integers."""
    if keep.all():
        return A
    iv = A.int_view
    return FiniteSet.from_scaled(iv.arr[keep], iv.scale)


def _sum_popular_mask(counts: np.ndarray, n: int, support: int, ambient: int):
    """Boolean mask of sigma counts meeting n^2 / (8 support log ambient).

    Float comparison with an exact fallback (`_meets_log_threshold`)
    whenever a count sits within 1e-9 (relative) of the threshold.
    """
    thr = n * n / (8.0 * support * ambient_log(ambient))
    c = counts.astype(np.float64)
    mask = c >= thr
    near = np.abs(c - thr) <= 1e-9 * max(1.0, thr)
    for i in np.flatnonzero(near):
        mask[i] = _meets_log_threshold(int(counts[i]), n * n, 8 * support, ambient)
    return mask


def _meets_log_threshold(c: int, num: int, den: int, m: int) -> bool:
    """Exactly whether c >= num / (den ln m), i.e. c den ln m >= num, for m >= 2.

    `decimal`'s ln is correctly rounded, so at p digits ln m lies within one
    unit in the last place of the result; the precision doubles until that
    interval decides the comparison, which it does because ln m is
    irrational.
    """
    digits = 32
    while True:
        ln = decimal.Context(prec=digits).ln(m)
        ulp = Fraction(10) ** (ln.adjusted() - digits + 1)
        if c * den * (Fraction(ln) - ulp) >= num:
            return True
        if c * den * (Fraction(ln) + ulp) < num:
            return False
        digits *= 2


def popular_sums(X: FiniteSet, ambient_size: int) -> FiniteSet:
    """Sums with count at least |X|^2 / (8 |X+X| log(ambient_size))."""
    if ambient_size < 3:
        raise DomainError("ambient size must be >= 3 so that log exceeds 1")
    if len(X) == 0:
        raise DomainError("popular_sums needs a nonempty set")
    s = rep_fn(X, X, "sum")
    return s.select(_sum_popular_mask(s.counts_array, len(X), s.size, ambient_size))


def rich_sum_elements(X: FiniteSet, P: FiniteSet) -> FiniteSet:
    """Elements x of X with |(X + x) & P| >= (3/4)|X| (exact test 4c >= 3|X|)."""
    n = len(X)
    return _elements_where(X, 4 * pair_membership(X, X, "sum", P, per_row=True) >= 3 * n)


# ---------------------------------------------------------------------------
# Iterated refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefinementTrace:
    """Audit trail of the refinement: nested iterates plus why it stopped,
    with the last step's popular sums and rich subset, for reuse; each set
    keeps the tables built for it (see `rep_fn`).  The last step ran on the
    returned set, except after "set-too-small", which returns its subset."""

    iterates: tuple[FiniteSet, ...]
    stop_reason: str  # "energy-criterion-met" | "iteration-guard" | "set-too-small"
    popular: FiniteSet = field(compare=False, repr=False)
    rich: FiniteSet = field(compare=False, repr=False)


def refine_rich_core(A: FiniteSet) -> tuple[FiniteSet, RefinementTrace]:
    """Iterate X -> rich_sum_elements(X) until the 12/7 moment stabilizes.

    Returns the first iterate B whose rich refinement satisfies
    E_{12/7}(rich(B)) >= E_{12/7}(B) / log|A|.  The criterion is guaranteed
    only for large ambient sets, so two guards keep small inputs
    well-defined: at most floor(log|A|) refinements (stop reason
    "iteration-guard", returning the last iterate), and an early stop if an
    iterate falls to at most half of |A| ("set-too-small").
    """
    n = len(A)
    if n < 3:
        raise DomainError("refinement requires |A| >= 3")
    log_n = ambient_log(n)
    guard = math.floor(log_n)
    iterates = [A]
    X = A
    e_x = energy(rep_fn(A, A, "diff"), TWELVE_SEVENTHS).approx
    for step in range(guard + 1):
        P = popular_sums(X, n)
        R = rich_sum_elements(X, P)
        e_rich = energy(rep_fn(R, R, "diff"), TWELVE_SEVENTHS).approx
        if e_rich >= e_x / log_n:
            return X, RefinementTrace(tuple(iterates), "energy-criterion-met", P, R)
        if step == guard:
            return X, RefinementTrace(tuple(iterates), "iteration-guard", P, R)
        # the next step refines R, whose E_{12/7} is known
        X, e_x = R, e_rich
        iterates.append(X)
        if 2 * len(X) <= n:
            return X, RefinementTrace(tuple(iterates), "set-too-small", P, R)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Dyadic level classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicClass:
    """One dyadic level of a count function: values with count in [level, 2*level).

    level is a power of two (classes are anchored at 2**0) and weighted_mass
    is the k-th moment restricted to the class.  The selected class always
    satisfies weighted_mass * (number of occupied levels) >= E_k.
    """

    level: int
    members: FiniteSet
    weighted_mass: EnergyValue
    exponent: float

    @property
    def size(self) -> int:
        return len(self.members)


def dominant_dyadic_class(f: RepFn, k) -> DyadicClass:
    """The level class maximizing its k-weighted mass (ties: smaller level).

    Classes are [2^j, 2^{j+1}) for j >= 0; every support value lies in
    exactly one, and there are at most floor(log2(max count)) + 1 of them,
    which yields the pigeonhole guarantee quoted above.
    """
    if f.size == 0:
        raise DomainError("dyadic class selection needs a nonempty count function")
    counts = f.counts_array
    # counts stay below 2^53, so float log2 followed by floor is exact; the
    # levels fit uint8, whose stable sort is one radix pass
    j = np.floor(np.log2(counts.astype(np.float64))).astype(np.uint8)
    best_j, best_mass = -1, None
    # the levels in increasing order, each one's counts in table order, so a
    # float moment sums the same array as a mask of the level would
    order = np.argsort(j, kind="stable")
    for sel in np.split(counts[order], np.flatnonzero(np.diff(j[order])) + 1):
        mass = moment(sel, k)
        if best_mass is None or mass.approx > best_mass.approx:
            best_j, best_mass = int(sel[0]).bit_length() - 1, mass
    return DyadicClass(
        level=1 << best_j,
        members=f.select(j == best_j),
        weighted_mass=best_mass,
        exponent=float(Fraction(k)),
    )


# ---------------------------------------------------------------------------
# Exact triple counts
# ---------------------------------------------------------------------------

def _masked_product_sum(left: np.ndarray, right: np.ndarray, mask: np.ndarray) -> int:
    """sum((left @ right) * mask) for 0/1 matrices by float64 matmul, exact
    while every partial sum is an integer below 2**53 (n**3 under the guards)."""
    inner = left.astype(np.float64) @ right.astype(np.float64)
    return int(round(float(np.sum(inner * mask))))


def count_popular_difference_triples(A: FiniteSet, *, size_guard: int = 1000) -> int:
    """#{(r, a1, a2) in R x A x A : r-a1, r-a2, a1-a2 all popular differences}.

    R is the rich-difference subset.  Cubic cost, so guarded by size;
    override size_guard to push past the default 1000.  One matrix of
    popular pairs decides everything: it is read from A's difference table
    when that carries pair positions (see `rich_difference_elements`), else
    looked up by one `pair_membership` call; its rows count the rich
    elements, and the rich rows are R's shifts.
    """
    n = len(A)
    if n > size_guard:
        raise BudgetExceededError(
            f"|A| = {n} exceeds the cubic-count size guard {size_guard}"
        )
    if n == 0:
        raise DomainError("triple count needs a nonempty set")
    d = rep_fn(A, A, "diff")
    mask = _popular_mask(d)
    # [a1, a2]: a1 - a2 popular
    if d.pair_pos is None:
        pair_ok = pair_membership(A, A, "diff", d.select(mask))
    else:
        pair_ok = d.pair_mask(mask)
    shift_ok = pair_ok[_is_rich(np.count_nonzero(pair_ok, axis=1), n)]  # [r, a]: r - a popular
    return _masked_product_sum(shift_ok, pair_ok, shift_ok)


def count_popular_sum_triples(
    B: FiniteSet, ambient_size: int, *, size_guard: int = 1000
) -> tuple[int, int, int]:
    """Exact sum-side triple count together with its dyadic class data.

    Returns (count, level, class_size) where (level, class_size) come from
    the dominant 12/7-weighted dyadic class of the rich subset's difference
    counts, and count = #{(r1, r2, b) in R x R x B : r1+b and r2+b popular
    sums, r1-r2 in the class}.
    """
    n = len(B)
    if n > size_guard:
        raise BudgetExceededError(
            f"|B| = {n} exceeds the cubic-count size guard {size_guard}"
        )
    if n == 0:
        raise DomainError("triple count needs a nonempty set")
    P = popular_sums(B, ambient_size)
    R = rich_sum_elements(B, P)
    dclass = dominant_dyadic_class(rep_fn(R, R, "diff"), TWELVE_SEVENTHS)
    hit = pair_membership(R, B, "sum", P)  # [r, b]: r + b popular
    in_class = pair_membership(R, R, "diff", dclass.members)  # [r1, r2]: r1 - r2 in class
    total = _masked_product_sum(hit, hit.T, in_class)
    return total, dclass.level, len(dclass.members)
