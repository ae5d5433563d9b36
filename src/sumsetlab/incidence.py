"""Exact incidence counting for Cartesian grids against lines and convex-curve translates.

Points are A x B for finite rational sets A, B.  Lines must have finite
nonzero slope (a zero-slope line meets a Cartesian grid in |A| points and
breaks the incidence regime being measured, so it is rejected).  An
explicit family of `Line`s (from a file or the caller) is counted by
`count_incidences_lines`; the integer family y = m x + c, 1 <= m <= S,
1 <= c <= K, is counted by `count_incidences_grid` as ranges of slopes and
intercepts, with two binary searches per (slope, a) and no `Line` built.  Convex
curves are evaluated as lookup tables over integer arguments only: a
translate of the interpolant of a convex set touches the grid exactly where
table[x - h] - v lands in B, so no smooth interpolation is needed.

The point/line incidence bound itself carries an unknown absolute constant;
`st_ratio` therefore reports the measured ratio against
(|P| |L|)^(2/3) + |L| and is never asserted.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .energy import pair_membership
from .errors import DivisionDomainError, DomainError
from .sets import (
    INT64_SAFE,
    FiniteSet,
    Rational,
    as_rational,
    is_convex,
    read_utf8_text,
    transform,
)

__all__ = [
    "Line",
    "CurveTranslate",
    "count_incidences_lines",
    "count_incidences_grid",
    "count_incidences_curve",
    "st_ratio",
    "integer_line_family",
    "read_lines_csv",
    "write_lines_csv",
]


@dataclass(frozen=True)
class Line:
    """y = slope * x + intercept with finite nonzero rational slope."""

    slope: Rational
    intercept: Rational

    def __post_init__(self):
        object.__setattr__(self, "slope", as_rational(self.slope))
        object.__setattr__(self, "intercept", as_rational(self.intercept))
        if self.slope == 0:
            raise DivisionDomainError("line slope must be nonzero")


@dataclass(frozen=True)
class CurveTranslate:
    """A translate y = table(x - h_shift) - v_shift of a convex lookup table.

    `base` holds the table values (index j -> base[j-1], 1-based arguments);
    arguments outside [1, len(base)] yield no incidence.
    """

    base: FiniteSet
    h_shift: int
    v_shift: Rational

    def __post_init__(self):
        object.__setattr__(self, "v_shift", as_rational(self.v_shift))
        if not is_convex(self.base):
            raise DomainError("curve table must come from a convex set")


def count_incidences_lines(A: FiniteSet, B: FiniteSet, lines) -> int:
    """Exact #{(a, b, line) : a in A, b in B, b = slope*a + intercept}.

    Per slope m, `pair_membership` tests c + m*a in B for every distinct
    intercept c; a hit counts once per line that carries c.
    """
    lines = list(lines)
    for l in lines:
        if l.slope == 0:
            raise DivisionDomainError("line slope must be nonzero")
    if not lines or len(A) == 0 or len(B) == 0:
        return 0
    total = 0
    # sorting, not hashing, groups equal slopes and equal intercepts
    lines.sort(key=lambda l: (l.slope, l.intercept))
    for m, group in itertools.groupby(lines, key=lambda l: l.slope):
        runs = [(c, len(list(g))) for c, g in itertools.groupby(l.intercept for l in group)]
        icpts = FiniteSet(c for c, _ in runs)
        hits = pair_membership(icpts, transform(A, m), "sum", B, per_row=True)
        total += int(np.dot(hits, [k for _, k in runs]))
    return total


# Queries per pair of binary searches in count_incidences_grid: a block of
# slopes times |A| stays near this many.
_GRID_BLOCK = 1 << 16


def count_incidences_grid(A: FiniteSet, B: FiniteSet, slope_count: int,
                          intercept_count: int) -> int:
    """Exact #{(a, b, m, c) : a in A, b in B, 1 <= m <= S, 1 <= c <= K,
    b = m*a + c} for S = slope_count, K = intercept_count: the incidences of
    A x B with `integer_line_family(S, K)`, counted without building it.

    On one denominator s (alpha = s*a, beta = s*b) the point lies on the line
    exactly when beta = m*alpha + c*s.  Each beta is keyed
    (beta mod s)*W + (beta div s - qmin), W = qmax - qmin + 1, and the keys
    are sorted once.  For m*alpha = q*s + r the hits are then the keys in
    [r*W + q + 1 - qmin, r*W + q + K - qmin], clipped to residue r's block
    of W keys: two binary searches, S*|A|*log|B| work in all against the
    S*K*|A| pair tests of the explicit family.  The key arithmetic runs on
    int64 when a bound on every key, query and m*alpha stays below
    INT64_SAFE, and on Python ints (object arrays) past it.
    """
    S, K = slope_count, intercept_count
    if S <= 0 or K <= 0 or len(A) == 0 or len(B) == 0:
        return 0
    iva, ivb = A.int_view, B.int_view
    s = math.lcm(iva.scale, ivb.scale)
    ma, mb = s // iva.scale, s // ivb.scale
    b0, b1 = int(ivb.arr[0]) * mb, int(ivb.arr[-1]) * mb
    qmin = b0 // s
    width = b1 // s - qmin + 1
    amax = max(abs(int(iva.arr[0])), abs(int(iva.arr[-1]))) * ma
    bound = max(abs(b0), abs(b1)) + s * width + S * amax + K + abs(qmin) + 1
    dtype = np.int64 if bound < INT64_SAFE else object
    alpha = iva.arr.astype(dtype) * ma
    beta = ivb.arr.astype(dtype) * mb
    keys = np.sort((beta % s) * width + (beta // s - qmin))
    step = max(1, _GRID_BLOCK // len(alpha))
    total = 0
    for m0 in range(1, S + 1, step):
        prod = np.arange(m0, min(m0 + step, S + 1)).astype(dtype)[:, None] * alpha
        q, base = prod // s, (prod % s) * width
        lo = base + np.maximum(q + 1 - qmin, 0)
        hi = base + np.minimum(q + K - qmin, width - 1)
        hits = np.searchsorted(keys, hi, "right") - np.searchsorted(keys, lo, "left")
        total += int(np.maximum(hits, 0).sum())
    return total


def count_incidences_curve(x_range: int, B: FiniteSet, translates) -> int:
    """Exact solution count of table(x - h) - v = b over x in [1, x_range].

    Table lookups only: x - h outside the table's 1-based index range
    contributes nothing.  Each translate tests its table against B at once
    through `pair_membership`.
    """
    if x_range < 0:
        raise DomainError("x_range must be nonnegative")
    total = 0
    for t in translates:
        lo = max(1, 1 + t.h_shift)
        hi = min(x_range, len(t.base) + t.h_shift)
        if lo <= hi:
            # [j, 0]: base[j] - v in B, for the table entries x - h - 1 = j
            hit = pair_membership(t.base, FiniteSet([t.v_shift]), "diff", B)
            total += int(np.count_nonzero(hit[lo - t.h_shift - 1 : hi - t.h_shift]))
    return total


def st_ratio(incidences: int, points: int, lines: int) -> float:
    """Measured incidence ratio against (points*lines)^(2/3) + lines.

    A diagnostic for the hidden constant of the incidence bound; reported,
    never asserted.
    """
    if points < 1 or lines < 1:
        raise DomainError("st_ratio needs points >= 1 and lines >= 1")
    return incidences / ((points * lines) ** (2.0 / 3.0) + lines)


def integer_line_family(slope_count: int, intercept_count: int) -> list[Line]:
    """{y = m x + b : m in 1..slope_count, b in 1..intercept_count}, as one
    `Line` per line: for files and callers that need the lines themselves.
    `count_incidences_grid` counts this family's incidences as ranges,
    without building it."""
    return [
        Line(m, b)
        for m in range(1, slope_count + 1)
        for b in range(1, intercept_count + 1)
    ]


# ---------------------------------------------------------------------------
# Line family files: CSV rows "slope,intercept" with rational entries
# ---------------------------------------------------------------------------

def read_lines_csv(path) -> list[Line]:
    """Lines from a CSV file of 'slope,intercept' rows, with an optional
    header of those two names and '#' comment rows.  A row with other than
    two fields, a field that is not a rational, or text the CSV reader
    refuses (a field past its size limit) raises DomainError naming the file and line."""
    with read_utf8_text(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            return [line for row in rows
                    if (line := _csv_line(path, rows.line_num, row)) is not None]
        except csv.Error as exc:
            raise DomainError(f"{path}:{rows.line_num}: {exc}") from exc


def _csv_line(path, lineno: int, row: list[str]) -> Line | None:
    """The line of one CSV row, or None for a blank, comment or header row."""
    if not row or row[0].strip().startswith("#"):
        return None
    if [c.strip().lower() for c in row] == ["slope", "intercept"]:
        return None  # optional header
    if len(row) != 2:
        raise DomainError(f"{path}:{lineno}: expected 'slope,intercept', got {len(row)} fields")
    try:
        slope = as_rational(row[0])
        icpt = as_rational(row[1])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"{path}:{lineno}: bad rational in {row!r}") from exc
    if slope == 0:
        raise DivisionDomainError(f"{path}:{lineno}: zero slope rejected")
    return Line(slope, icpt)


def write_lines_csv(lines, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slope", "intercept"])
        for l in lines:
            w.writerow([str(l.slope), str(l.intercept)])
