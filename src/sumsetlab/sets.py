"""Exact finite subsets of the rationals, family generators, and transforms.

Every element is an arbitrary-precision rational (`fractions.Fraction`,
collapsed to a plain `int` when the denominator is 1).  Set membership,
ordering, pair-set sizes, and representation counts are exact combinatorial
quantities here, so floating point never participates in an equality or
ordering decision.  Floats are rejected outright at the boundary: a caller
holding measured data must convert to an explicit rational first.

The module also provides the set-family generators used by the scan
harness (arithmetic/geometric progressions, convex families, seeded random
subsets) and the element-per-line file format.
"""

from __future__ import annotations

import bisect
import io
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ExactnessError, InfeasibleSpecError, InvalidScaleError

__all__ = [
    "Rational",
    "as_rational",
    "as_int",
    "FiniteSet",
    "make_set",
    "transform",
    "intersect_dilate",
    "is_convex",
    "FamilySpec",
    "gen_family",
    "read_set_file",
    "read_utf8_text",
    "write_set_file",
    "parse_rational",
    "format_rational",
    "split_top_level",
    "sorted_contains",
]

Rational = int | Fraction

# Beyond this magnitude an element no longer fits the int64 kernels and the
# pure-Python big-integer paths take over.
INT64_SAFE = 1 << 62


# Decimal text of integers is read and written in chunks of this many digits.
# 640 is the least value that sys.set_int_max_str_digits accepts, so below
# it no setting of that process-wide limit (4 300 digits by default) refuses
# an element: GP(1,2) at n = 15 000 reaches 4 516 digits.
_DECIMAL_CHUNK = 600
_DECIMAL_BASE = 10 ** _DECIMAL_CHUNK
_LONG_RATIONAL = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")
# Decimal text with an exponent beyond this is refused: Fraction would build
# 10**exponent, which for '1e999999999' does not finish.
_MAX_EXPONENT = 100_000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


def _int_text(v: int) -> str:
    if -_DECIMAL_BASE < v < _DECIMAL_BASE:
        return str(v)
    chunks = []
    q = abs(v)
    while q >= _DECIMAL_BASE:
        q, r = divmod(q, _DECIMAL_BASE)
        chunks.append(str(r).zfill(_DECIMAL_CHUNK))
    chunks.append(str(q))
    return ("-" if v < 0 else "") + "".join(reversed(chunks))


def _int_from_digits(digits: str) -> int:
    head = len(digits) % _DECIMAL_CHUNK or _DECIMAL_CHUNK
    v = int(digits[:head])
    for lo in range(head, len(digits), _DECIMAL_CHUNK):
        v = v * _DECIMAL_BASE + int(digits[lo:lo + _DECIMAL_CHUNK])
    return v


def format_rational(x: Rational) -> str:
    """Decimal text 'p' or 'p/q' of an exact rational, the text str() gives,
    for integers of any length (`as_rational` reads it back)."""
    if isinstance(x, Fraction):
        return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"
    return _int_text(x)


def as_rational(x) -> Rational:
    """Normalize a value to canonical exact form (int, or Fraction in lowest terms).

    Floats are refused: silently accepting them would smuggle binary rounding
    into exact set membership.  Text is read as `Fraction` reads it; text
    of the form 'p' or 'p/q' longer than `_DECIMAL_CHUNK` is read in chunks,
    so that integers past Python's int/str digit limit parse.  An exponent
    larger than `_MAX_EXPONENT` in absolute value raises ValueError.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a rational element")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, str):
        text = x.strip()
        m = _LONG_RATIONAL.fullmatch(text) if len(text) > _DECIMAL_CHUNK else None
        if m is None:
            e = _EXPONENT.search(text)
            if e is not None and abs(int(e.group(1))) > _MAX_EXPONENT:
                raise ValueError(f"exponent of {text[:40]!r} exceeds {_MAX_EXPONENT}")
            return as_rational(Fraction(text))
        sign, num, den = m.groups()
        v = _int_from_digits(num)
        v = -v if sign == "-" else v
        return v if den is None else as_rational(Fraction(v, _int_from_digits(den)))
    if isinstance(x, float):
        raise TypeError(
            "float elements are not exact; pass Fraction(...) or a 'p/q' string"
        )
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


def as_int(x) -> int:
    """An int that is not a bool, or its decimal text, as an integer; any
    other value (2.5, 3.0, True, "abc") raises TypeError or ValueError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        return int(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an integer")


def parse_rational(text: str) -> Rational:
    """Parse 'p' or 'p/q' (base 10) into canonical exact form."""
    return as_rational(text)


# `coprime_exponents` gives up on numbers that need more bases than this.
# It reaches the cap within a few dozen elements of a set without
# multiplicative structure, so giving up stays cheap.
_COPRIME_CAP = 16


def _strip(x: int, ladder: list[int]) -> tuple[int, int]:
    """(e, x // b**e) for the largest e with b**e dividing x > 0, where
    ladder[i] = b**(2**i), b >= 2.

    The ladder is extended in place past x, so it serves every later call
    with the same b; then x is divided by its powers from the top down, so
    e takes about log2(e) divisions."""
    if x % ladder[0]:
        return 0, x
    while ladder[-1] <= x:
        ladder.append(ladder[-1] * ladder[-1])
    e = 0
    for i in range(len(ladder) - 2, -1, -1):
        if ladder[i] <= x:
            q, r = divmod(x, ladder[i])
            if not r:
                x = q
                e += 1 << i
    return e, x


def _refine(base: dict[int, list[int]], x: int) -> bool:
    """Refine the pairwise-coprime members > 1 of `base` (each keyed to its
    `_strip` ladder) in place so that x, and every number they covered, is a
    product of powers of them; False once there would be more than
    `_COPRIME_CAP`.

    A member b that shares a factor g > 1 with the rest of x is replaced by
    g and b / g, and x by x / g, until every part is coprime to every
    member.  D. J. Bernstein, "Factoring into coprimes in essentially linear
    time", J. Algorithms 54 (2005), does this in essentially linear time;
    a capped base needs no more than this quadratic splitting.  Each split
    divides the product of all parts by g, so it ends.
    """
    pending = [x]
    while pending:
        x = pending.pop()
        for ladder in base.values():
            x = _strip(x, ladder)[1]
        if x == 1:
            continue
        for b in base:
            g = math.gcd(x, b)
            if g > 1:
                del base[b]
                pending += (g, b // g, x // g)
                break
        else:
            if len(base) == _COPRIME_CAP:
                return False
            base[x] = [x]
    return True


def coprime_exponents(numbers: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray] | None:
    """(base, exps): pairwise-coprime integers base[j] > 1 and an int64
    matrix with |numbers[i]| = prod_j base[j] ** exps[i, j] for every
    nonzero numbers[i] (the rows of 0 are zero), or None when the base would
    pass `_COPRIME_CAP` members.

    Such exponent vectors are unique: a prime q dividing base[j] divides no
    other member, so the power of q in the product fixes exps[i, j].  Each
    number is stripped of the members found so far and, when more is left,
    the base is refined to cover the rest; rows made before the last
    refinement are then made again.
    """
    base: dict[int, list[int]] = {}
    rows = []
    stale = 0  # rows below this were made against an older base
    for i, x in enumerate(numbers):
        x = abs(x)
        row = []
        if x:
            for ladder in base.values():
                e, x = _strip(x, ladder)
                row.append(e)
            if x != 1:
                if not _refine(base, x):
                    return None
                stale = i + 1
        rows.append(row or [0] * len(base))
    for i in range(stale):
        x, rows[i] = abs(numbers[i]), [0] * len(base)
        for j, ladder in enumerate(base.values() if x else ()):
            rows[i][j], x = _strip(x, ladder)
        if x > 1:
            raise ExactnessError(f"coprime base {list(base)} does not cover {numbers[i]}")
    exps = np.array(rows, dtype=np.int64).reshape(len(numbers), len(base))
    return tuple(base), exps


_UNSET = object()


class _IntView:
    """Scaled-integer image of a set: ints[i] = scale * elements[i].

    `scale` is the positive lcm of all denominators, so the ints carry the
    full additive structure of the set; at scale 1 `ints` is the set's own
    element tuple.  `arr` is an int64 numpy mirror when every scaled value
    fits, else None (big-integer fallbacks take over).
    """

    __slots__ = ("ints", "scale", "arr", "_mods", "_coprime", "_tables")

    def __init__(self, ints: Sequence[int], scale: int, arr: np.ndarray | None = None):
        self.ints = ints
        self.scale = scale
        if ints and max(abs(ints[0]), abs(ints[-1])) < INT64_SAFE:
            self.arr = np.array(ints, dtype=np.int64) if arr is None else arr
        else:
            self.arr = np.array([], dtype=np.int64) if not ints else None
        self._mods: dict[int, np.ndarray] = {}
        self._coprime = _UNSET
        self._tables: dict | None = None

    def table(self, op: str, build):
        """The set's table of `op`: `build()` once, kept as long as the view."""
        if self._tables is None:
            self._tables = {}
        if op not in self._tables:
            self._tables[op] = build()
        return self._tables[op]

    def kept(self, op: str):
        """The set's table of `op` if it is built, else None; builds nothing."""
        return None if self._tables is None else self._tables.get(op)

    def coprime(self) -> tuple[tuple[int, ...], np.ndarray] | None:
        """`coprime_exponents` of ints, computed once."""
        if self._coprime is _UNSET:
            self._coprime = coprime_exponents(self.ints)
        return self._coprime

    def residues(self, modulus: int) -> np.ndarray:
        """ints mod `modulus` (at most 2**63) as int64, computed once per modulus."""
        if modulus not in self._mods:
            self._mods[modulus] = np.fromiter((x % modulus for x in self.ints),
                                              dtype=np.int64, count=len(self.ints))
        return self._mods[modulus]


class FiniteSet:
    """Canonical sorted, duplicate-free collection of exact rationals.

    Immutable after construction; safe to share between workers.  The sorted
    element tuple is the only copy of the values: membership is a binary
    search in it (exact comparisons, no hash).
    """

    __slots__ = ("elements", "_iv")

    def __init__(self, values: Iterable = ()):
        self.elements: tuple[Rational, ...] = tuple(
            sorted({as_rational(v) for v in values})
        )
        self._iv = None

    @classmethod
    def _from_sorted(cls, elements: Sequence[Rational]) -> "FiniteSet":
        # Internal fast path: caller guarantees strictly increasing canonical values.
        obj = cls.__new__(cls)
        obj.elements = tuple(elements)
        obj._iv = None
        return obj

    @classmethod
    def from_scaled(cls, values: np.ndarray, scale: int) -> "FiniteSet":
        """The set {v / scale : v in values}, for a strictly increasing
        integer array and a positive integer scale.

        The scaled-integer view comes with it, as `int_view` would compute
        it: the scale drops to the least common denominator of the elements
        (the gcd of `scale` and all values is divided out), and the int64
        array is the one handed in when nothing divides out.
        """
        arr = np.asarray(values, dtype=np.int64)
        g = math.gcd(scale, int(np.gcd.reduce(arr))) if arr.size else scale
        if g != 1:
            arr = arr // g
            scale //= g
        ints = arr.tolist()
        obj = cls._from_sorted(
            ints if scale == 1 else [as_rational(Fraction(v, scale)) for v in ints]
        )
        obj._iv = _IntView(obj.elements if scale == 1 else ints, scale, arr)
        return obj

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __contains__(self, x) -> bool:
        return sorted_contains(self.elements, as_rational(x))

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(map(format_rational, self.elements))
        else:
            head = ", ".join(map(format_rational, self.elements[:3]))
            tail = ", ".join(map(format_rational, self.elements[-2:]))
            body = f"{head}, ... {tail}"
        return f"FiniteSet({{{body}}}, n={len(self)})"

    # -- views ---------------------------------------------------------------

    @property
    def int_view(self) -> _IntView:
        """Scaled-integer image (cached). See _IntView."""
        if self._iv is None:
            scale = 1
            for x in self.elements:
                if not isinstance(x, int):
                    scale = scale * x.denominator // math.gcd(scale, x.denominator)
            if scale == 1:
                ints = self.elements
            else:
                ints = [
                    x * scale if isinstance(x, int)
                    else x.numerator * (scale // x.denominator)
                    for x in self.elements
                ]
            self._iv = _IntView(ints, scale)
        return self._iv

    def __reduce__(self):
        return (FiniteSet._from_sorted, (self.elements,))


def make_set(values: Iterable) -> FiniteSet:
    """Build a canonical FiniteSet: duplicates collapsed, order normalized."""
    return FiniteSet(values)


def transform(A: FiniteSet, scale, shift=0) -> FiniteSet:
    """Affine image {scale*a + shift : a in A}; a bijection on elements.

    scale must be nonzero, so |result| = |A| always.
    """
    scale = as_rational(scale)
    shift = as_rational(shift)
    if scale == 0:
        raise InvalidScaleError("transform scale must be nonzero")
    mapped = [as_rational(scale * a + shift) for a in A.elements]
    if scale < 0:
        mapped.reverse()
    return FiniteSet._from_sorted(mapped)


def intersect_dilate(A: FiniteSet, lam) -> FiniteSet:
    """A intersected with its dilate A/lam, i.e. {x in A : lam*x in A}."""
    lam = as_rational(lam)
    if lam == 0:
        raise InvalidScaleError("dilation parameter must be nonzero")
    if lam == 1:
        return A
    e = A.elements
    return FiniteSet._from_sorted([x for x in e if sorted_contains(e, as_rational(lam * x))])


def sorted_contains(values: Sequence, v) -> bool:
    """v in values, for a sorted sequence: exact comparisons, no hash."""
    i = bisect.bisect_left(values, v)
    return i < len(values) and values[i] == v


def is_convex(A: FiniteSet) -> bool:
    """True iff consecutive gaps strictly increase (vacuously for |A| <= 2)."""
    e = A.elements
    if len(e) <= 2:
        return True
    prev_gap = e[1] - e[0]
    for i in range(2, len(e)):
        gap = e[i] - e[i - 1]
        if gap <= prev_gap:
            return False
        prev_gap = gap
    return True


# ---------------------------------------------------------------------------
# Set families
# ---------------------------------------------------------------------------

_FAMILY_KINDS = ("AP", "GP", "ConvexPower", "ConvexCustom", "RandomSubset", "Perturbed")


@dataclass(frozen=True)
class FamilySpec:
    """Description of a generated set family.

    kind/args:
      AP(a, d)            arithmetic progression, d != 0
      GP(a, r)            geometric progression, a != 0, r not in {0, 1, -1}
      ConvexPower(k)      {j**k : j in 1..n}, integer k >= 2
      ConvexCustom(seed)  seeded strictly-increasing random gap sequence
      RandomSubset(N[, seed])  n distinct uniform draws from [1, N]
                          (rejection sampling without replacement)
      Perturbed(base[, seed])  base family plus a small positive rational
                          jitter below a quarter of the minimum gap

    The size n is carried alongside so a spec is a complete generation
    recipe; `with_n` rebinds it for sweeps.
    """

    kind: str
    args: tuple
    n: int

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError("family size n must be a positive integer")
        k, a = self.kind, self.args
        if k == "AP":
            if len(a) != 2 or a[1] == 0:
                raise DomainError("AP requires (start, step) with step != 0")
        elif k == "GP":
            if len(a) != 2 or a[0] == 0 or a[1] in (0, 1, -1):
                raise DomainError("GP requires (start != 0, ratio not in {0, 1, -1})")
        elif k == "ConvexPower":
            if len(a) != 1 or not isinstance(a[0], int) or a[0] < 2:
                raise DomainError("ConvexPower requires an integer exponent >= 2")
        elif k == "ConvexCustom":
            if len(a) != 1 or not isinstance(a[0], int):
                raise DomainError("ConvexCustom requires an integer gap seed")
        elif k == "RandomSubset":
            if len(a) not in (1, 2) or not all(isinstance(v, int) for v in a):
                raise DomainError("RandomSubset requires (range N[, seed])")
            if a[0] < 1:
                raise DomainError("RandomSubset range must be >= 1")
        elif k == "Perturbed":
            if len(a) not in (1, 2) or not isinstance(a[0], FamilySpec):
                raise DomainError("Perturbed requires (base FamilySpec[, seed])")

    # -- constructors --------------------------------------------------------

    @classmethod
    def ap(cls, a, d, n: int) -> "FamilySpec":
        return cls("AP", (as_rational(a), as_rational(d)), n)

    @classmethod
    def gp(cls, a, r, n: int) -> "FamilySpec":
        return cls("GP", (as_rational(a), as_rational(r)), n)

    @classmethod
    def convex_power(cls, k: int, n: int) -> "FamilySpec":
        return cls("ConvexPower", (k,), n)

    @classmethod
    def convex_custom(cls, seed: int, n: int) -> "FamilySpec":
        return cls("ConvexCustom", (seed,), n)

    @classmethod
    def random_subset(cls, N: int, n: int, seed: int = 0) -> "FamilySpec":
        return cls("RandomSubset", (N, seed), n)

    @classmethod
    def perturbed(cls, base: "FamilySpec", n: int, seed: int = 0) -> "FamilySpec":
        return cls("Perturbed", (base, seed), n)

    def with_n(self, n: int) -> "FamilySpec":
        return FamilySpec(self.kind, self.args, n)

    def label(self) -> str:
        """Canonical text form, without the size (scans carry n separately)."""
        if self.kind == "Perturbed":
            inner = self.args[0].label()
            rest = "".join(f",{v}" for v in self.args[1:])
            return f"Perturbed({inner}{rest})"
        return f"{self.kind}({','.join(str(v) for v in self.args)})"

    @classmethod
    def parse(cls, text: str, n: int = 1) -> "FamilySpec":
        """Parse the label grammar, e.g. 'AP(1,1)' or 'Perturbed(GP(1,2),7)'."""
        text = text.strip()
        m = re.fullmatch(r"([A-Za-z]+)\((.*)\)", text)
        if not m:
            raise DomainError(f"cannot parse family spec {text!r}")
        kind = m.group(1)
        parts = split_top_level(m.group(2))

        def rat_arg(p: str) -> Rational:
            try:
                return as_rational(p)
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"bad number {p!r} in family spec {text!r}") from None

        def int_arg(p: str) -> int:
            v = rat_arg(p)
            if not isinstance(v, int):
                raise DomainError(f"integer argument expected, got {p!r}")
            return v

        if kind in ("AP", "GP"):
            if len(parts) != 2:
                raise DomainError(f"{kind} takes two arguments, got {text!r}")
            return cls(kind, (rat_arg(parts[0]), rat_arg(parts[1])), n)
        if kind in ("ConvexPower", "ConvexCustom") and len(parts) != 1:
            raise DomainError(f"{kind} takes one argument, got {text!r}")
        if kind in ("ConvexPower", "ConvexCustom", "RandomSubset"):
            return cls(kind, tuple(int_arg(p) for p in parts), n)
        if kind == "Perturbed":
            if not parts:
                raise DomainError(f"Perturbed needs a base family, got {text!r}")
            base = cls.parse(parts[0], n)
            rest = tuple(int_arg(p) for p in parts[1:])
            return cls(kind, (base,) + rest, n)
        raise DomainError(f"unknown family kind {kind!r}")


def split_top_level(text: str) -> list[str]:
    """Split a comma list outside parentheses and brackets,
    'AP(1,1),GP(1,2)' or 'cs_energy,st_measure[slopes=3,intercepts=10]' into
    two pieces; pieces are stripped and empty ones dropped."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        cur += ch
    parts.append(cur)
    return [p.strip() for p in parts if p.strip()]


def gen_family(spec: FamilySpec, n: int | None = None) -> FiniteSet:
    """Generate the set described by `spec` (size override via `n`).

    Deterministic: identical spec (including any seed) gives an identical
    set.  RandomSubset uses rejection sampling without replacement, which is
    part of the external contract for reproducibility.
    """
    if n is None:
        n = spec.n
    elif n != spec.n:
        spec = spec.with_n(n)
    k, a = spec.kind, spec.args

    if k == "AP":
        start, step = a
        return make_set([start + j * step for j in range(n)])
    if k == "GP":
        start, ratio = a
        vals = []
        cur = start
        for _ in range(n):
            vals.append(cur)
            cur = cur * ratio
        return make_set(vals)
    if k == "ConvexPower":
        (exp,) = a
        return FiniteSet._from_sorted([j ** exp for j in range(1, n + 1)])
    if k == "ConvexCustom":
        (seed,) = a
        rng = random.Random(seed)
        gap = rng.randint(1, 3)
        vals = [1]
        for _ in range(n - 1):
            vals.append(vals[-1] + gap)
            gap += rng.randint(1, 4)  # keeps the gap sequence strictly increasing
        return FiniteSet._from_sorted(vals)
    if k == "RandomSubset":
        N = a[0]
        seed = a[1] if len(a) > 1 else 0
        if N < n:
            raise InfeasibleSpecError(
                f"cannot draw {n} distinct values from [1, {N}]"
            )
        rng = random.Random(seed)
        seen: set[int] = set()
        while len(seen) < n:
            seen.add(rng.randint(1, N))
        return make_set(seen)
    if k == "Perturbed":
        base = a[0]
        seed = a[1] if len(a) > 1 else 0
        base_set = gen_family(base, n)
        rng = random.Random(seed)
        elems = base_set.elements
        if len(elems) >= 2:
            min_gap = min(elems[i + 1] - elems[i] for i in range(len(elems) - 1))
        else:
            min_gap = 1
        # jitter in [0, min_gap/4): order and cardinality are preserved exactly
        denom = 1 << 20
        out = [
            as_rational(x + Fraction(rng.randrange(denom), 4 * denom) * min_gap)
            for x in elems
        ]
        return FiniteSet._from_sorted(out)
    raise DomainError(f"unknown family kind {k!r}")


# ---------------------------------------------------------------------------
# Set literal files: one element per line, 'p' or 'p/q', '#' comments
# ---------------------------------------------------------------------------

def read_utf8_text(path, newline=None) -> io.StringIO:
    """File `path` decoded as UTF-8, read back as `open(path,
    encoding="utf-8", newline=newline)` would read it.  A byte that is not
    UTF-8 raises DomainError naming the file and the line that holds it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        raise DomainError(
            f"{path}:{lineno}: not UTF-8 text (byte {data[exc.start]:#04x})"
        ) from exc
    return io.StringIO(text, newline=newline)


def read_set_file(path) -> FiniteSet:
    vals = []
    with read_utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(as_rational(line))
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise DomainError(f"{path}:{lineno}: bad rational {line!r}") from exc
    return make_set(vals)


def write_set_file(A: FiniteSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x in A.elements:
            fh.write(f"{format_rational(x)}\n")
