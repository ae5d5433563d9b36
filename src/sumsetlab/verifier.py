"""Registry of named inequality checks, the scan harness, and extremal search.

A check only measures: it returns the two sides of its statement (and the
text it adds to the inputs description).  `run_check` alone judges the
measurement, by the check's registered kind:

  * assert: an inequality that holds exactly for every finite set, with
    the constant extracted from the proof chain it implements.  The verdict
    is "pass" when lhs * const_scale <= rhs.  Integer and rational sides
    are compared in exact arithmetic; whenever a fractional-power energy
    (a float) appears on either side, the comparison allows a 1e-9 relative
    slack (no inequality in the suite is tighter than that away from
    degenerate inputs, and the degenerate ones evaluate exactly).

  * ratio: an asymptotic claim whose constant is unknown.  The verdict is
    "ratio-report": lhs/rhs is a measurement and can never fail.

Checks are addressed by stable string ids (the external interface of the
scan CSV and the CLI).  A parametrized id may carry its parameters inline,
e.g. "holder_s[s=12/5]".
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    DivisionDomainError,
    DomainError,
    UnknownCheckError,
)
from .sets import (
    FamilySpec, FiniteSet, as_int, as_rational, gen_family, intersect_dilate, is_convex,
)
from .energy import distinct_count, energy, pair_set_size, projection_count, rep_fn, to_float
from .constructions import (
    TWELVE_SEVENTHS,
    dominant_dyadic_class,
    popular_difference_mass,
    refine_rich_core,
    rich_difference_elements,
)
from .incidence import count_incidences_grid, st_ratio

__all__ = [
    "CheckResult",
    "ScanRow",
    "SearchResult",
    "DEFAULT_VERIFY_CHECKS",
    "check_ids",
    "run_check",
    "run_check_suite",
    "run_scan",
    "search_extremal",
    "scan_rows_to_csv",
    "scan_rows_to_json",
    "json_text",
    "SetCore",
]

REL_SLACK = 1e-9

# Theorem exponents under ratio scan:  4/3 + 10/4407,  46/29,  8/5 + 1/3440.
EXP_SP = 4.0 / 3.0 + 10.0 / 4407.0
EXP_CSUM = 46.0 / 29.0
EXP_CDIFF = 8.0 / 5.0 + 1.0 / 3440.0
_OBJECTIVE_EXPONENTS = {
    "thm_sp": EXP_SP,
    "thm_csum": EXP_CSUM,
    "thm_cdiff": EXP_CDIFF,
}
# pair operations whose largest set size each theorem divides by n**exponent
_OBJECTIVE_OPS = {"thm_sp": ("sum", "prod"), "thm_csum": ("sum",), "thm_cdiff": ("diff",)}

# Default cap on pair operations in the membership loop of projection counts.
DEFAULT_PAIR_BUDGET = 8_000_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one inequality/ratio evaluation."""

    check_id: str
    inputs_desc: str
    lhs: float
    rhs: float
    ratio: float
    # "pass" | "fail" | "ratio-report" | "skipped(<reason>)" | "error(<exception type>)"
    verdict: str

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"

    @property
    def skipped(self) -> bool:
        return self.verdict.startswith("skipped")

    @classmethod
    def unmeasured(cls, check_id: str, inputs_desc: str, verdict: str) -> "CheckResult":
        """A skipped or faulted evaluation: no sides, no ratio."""
        return cls(check_id, inputs_desc, math.nan, math.nan, math.nan, verdict)


@dataclass(frozen=True)
class ScanRow:
    family: str
    n: int
    check_id: str
    lhs: float
    rhs: float
    ratio: float
    verdict: str
    elapsed: float


class _Skip(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _fraction(x) -> Fraction:
    return Fraction(as_rational(x))


# how each check parameter is read from its text (inline) or JSON value
_PARAM_KINDS = {
    "s": _fraction,
    "const_scale": _fraction,
    "budget": as_int,
    "size_guard": as_int,
    "slopes": as_int,
    "intercepts": as_int,
}


def _param(check: str, params: dict, name: str, default=None):
    """Check parameter `name` read by its `_PARAM_KINDS` entry, or `default`
    when it is absent; a malformed value raises DomainError naming the check
    and the parameter."""
    if name not in params:
        return default
    raw = params[name]
    try:
        return _PARAM_KINDS[name](raw)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise DomainError(f"check {check}: malformed parameter {name}={raw!r}") from exc


def _safe_ratio(lhs: float, rhs: float) -> float:
    if rhs == 0:
        return math.inf if lhs > 0 else 0.0
    if math.isinf(lhs) or math.isinf(rhs):
        return math.nan if math.isinf(lhs) and math.isinf(rhs) else (0.0 if math.isinf(rhs) else math.inf)
    return lhs / rhs


# ---------------------------------------------------------------------------
# Cached per-set quantities
# ---------------------------------------------------------------------------

class SetCore:
    """Lazily cached quantities of A, or of the pair (A, B), shared by every
    check on them; A's own tables live on A itself (see `rep_fn`).

    `budget` caps the pair operations of projection counts for evaluations
    that name no budget of their own.
    """

    def __init__(self, A: FiniteSet, B: FiniteSet | None = None,
                 budget: int | None = DEFAULT_PAIR_BUDGET):
        self.A = A
        self.B = A if B is None else B
        self.budget = budget
        self._c: dict = {}

    def _memo(self, key, fn):
        if key not in self._c:
            self._c[key] = fn()
        return self._c[key]

    def rep(self, op: str):
        # A's own tables are kept on A; only a distinct B needs the memo
        if self.B is self.A:
            return rep_fn(self.A, self.A, op)
        return self._memo(("rep", op), lambda: rep_fn(self.A, self.B, op))

    def E(self, k, op: str = "diff"):
        return self._memo(("E", op, str(k)), lambda: energy(self.rep(op), k))

    def pair_size(self, op: str) -> int:
        # a table already built knows its support size
        built = self.A.int_view.kept(op) if self.B is self.A else self._c.get(("rep", op))
        if built is not None:
            return built.size
        return self._memo(("psize", op), lambda: pair_set_size(self.A, self.B, op))

    # the rest concerns A alone

    def _popular(self) -> tuple[FiniteSet, int]:
        return self._memo("P", lambda: popular_difference_mass(self.A))

    def popular_diff(self) -> FiniteSet:
        return self._popular()[0]

    def popular_diff_mass(self) -> int:
        return self._popular()[1]

    def rich_diff(self) -> FiniteSet:
        return self._memo("R", lambda: rich_difference_elements(self.A))

    def proj_popular_diff(self, budget: int | None) -> int:
        P = self.popular_diff()
        return self._memo(("projPP", budget), lambda: projection_count(P, P, budget=budget))

    def refinement(self):
        return self._memo("refine", lambda: refine_rich_core(self.A))


class EvalContext:
    """One evaluation of the check `check`: the SetCore of A, the SetCore of
    the pair (A, B) (`core` itself when B is A or omitted), the parameters
    and the budget."""

    def __init__(self, check: str, core: SetCore, B: FiniteSet | None, params: dict):
        self.check = check
        self.core = core
        self.A = core.A
        if B is None or B is core.A or B == core.A:
            self.pair = core
        else:
            self.pair = SetCore(core.A, B)
        self.B = self.pair.B
        self.params = params
        self.budget = self.param("budget", core.budget)

    def param(self, name: str, default):
        """The parameter `name`, read as `_param` reads it."""
        return _param(self.check, self.params, name, default)

    def desc(self, extra: str = "") -> str:
        d = f"|A|={len(self.A)}"
        if self.pair is not self.core:
            d += f",|B|={len(self.B)}"
        if extra:
            d += "," + extra
        return d


@dataclass(frozen=True)
class Measurement:
    """What a check measured: the two sides of its statement (int, Fraction
    or float), the text it appends to `EvalContext.desc`, and its ratio
    when it computes lhs/rhs itself (in log space, say)."""

    lhs: object
    rhs: object
    desc: str = ""
    ratio: float | None = None


# ---------------------------------------------------------------------------
# Assert-type checks
# ---------------------------------------------------------------------------

def _chk_cs_energy(ctx: EvalContext) -> Measurement:
    op = ctx.params.get("op", "diff")
    if op not in ("sum", "diff"):
        raise DomainError("cs_energy op must be 'sum' or 'diff'")
    e2 = ctx.pair.E(2).exact  # sum of squared counts; equal for sum and diff
    lhs = (len(ctx.A) * len(ctx.B)) ** 2
    rhs = ctx.pair.pair_size(op) * e2
    return Measurement(lhs, rhs, f"op={op}")


def _chk_cs_proj(ctx: EvalContext) -> Measurement:
    # collision bound for the map (a, b) -> a op b on the domain A x B
    op = ctx.params.get("op", "sum")
    collisions = ctx.pair.E(2, op).exact
    lhs = (len(ctx.A) * len(ctx.B)) ** 2
    rhs = ctx.pair.rep(op).size * collisions
    return Measurement(lhs, rhs, f"op={op}")


def _chk_popular_mass(ctx: EvalContext) -> Measurement:
    n = len(ctx.A)
    return Measurement(Fraction(10, 11) * n * n, ctx.core.popular_diff_mass())


def _chk_rich_size(ctx: EvalContext) -> Measurement:
    # strict half bound: |R| > |A|/2, i.e. |R| >= floor(|A|/2) + 1 over ints
    return Measurement(len(ctx.A) // 2 + 1, len(ctx.core.rich_diff()))


def _chk_diff_proj(ctx: EvalContext) -> Measurement:
    e3 = ctx.core.E(3).exact
    proj = ctx.core.proj_popular_diff(ctx.budget)
    return Measurement(Fraction(9, 484) * len(ctx.A) ** 6, e3 * proj)


def _chk_sum_proj(ctx: EvalContext) -> Measurement:
    if len(ctx.A) < 3:
        raise _Skip("guard:too-small")
    core_set, trace = ctx.core.refinement()
    if trace.stop_reason != "energy-criterion-met":
        raise _Skip(f"guard:{trace.stop_reason}")
    # the refinement's last step ran on core_set with ambient size |A|
    dclass = dominant_dyadic_class(rep_fn(trace.rich, trace.rich, "diff"), TWELVE_SEVENTHS)
    proj = projection_count(trace.popular, dclass.members, budget=ctx.budget)
    e3 = energy(rep_fn(core_set, core_set, "diff"), 3).exact
    prod = dclass.level * len(dclass.members) * len(core_set)
    return Measurement(Fraction(prod, 2) ** 2, e3 * proj,
                       f"|B|={len(core_set)},level={dclass.level},class={len(dclass.members)}")


def _chk_e127_trivial(ctx: EvalContext) -> Measurement:
    n = len(ctx.A)
    if n == 0:
        raise _Skip("guard:empty")
    e = ctx.core.E(TWELVE_SEVENTHS).approx
    lo_violation = (n * n) / e if e > 0 else math.inf
    hi_violation = e / float(n) ** 3
    return Measurement(max(lo_violation, hi_violation), 1.0, f"E12/7={e:.6g}")


def _chk_holder_s(ctx: EvalContext) -> Measurement:
    s = ctx.param("s", Fraction(3, 2))
    if not (1 < s < 3):
        raise DomainError("holder_s requires s strictly between 1 and 3")
    es = ctx.pair.E(s).approx
    e3 = ctx.pair.E(3).approx
    mass = len(ctx.A) * len(ctx.B)
    exp1 = float((s - 1) / 2)
    exp2 = float((3 - s) / 2)
    return Measurement(es, e3 ** exp1 * float(mass) ** exp2, f"s={s}")


def _chk_e2_interp(ctx: EvalContext) -> Measurement:
    e2 = float(ctx.core.E(2).approx)
    rhs = ctx.core.E(TWELVE_SEVENTHS).approx ** (7.0 / 9.0) * ctx.core.E(3).approx ** (2.0 / 9.0)
    return Measurement(e2, rhs)


def _chk_e32_interp(ctx: EvalContext) -> Measurement:
    n = len(ctx.A)
    lhs = ctx.core.E(Fraction(3, 2)).approx ** (2.0 / 3.0)
    rhs = float(n) ** 0.4 * ctx.core.E(TWELVE_SEVENTHS).approx ** (7.0 / 15.0)
    return Measurement(lhs, rhs)


def _chk_e2_lower(ctx: EvalContext) -> Measurement:
    return Measurement(len(ctx.A) ** 4, ctx.core.pair_size("sum") * ctx.core.E(2).exact)


# ---------------------------------------------------------------------------
# Ratio-report checks
# ---------------------------------------------------------------------------

def _chk_convex_e3(ctx: EvalContext) -> Measurement:
    lhs = float(ctx.pair.E(3).approx)
    rhs = float(len(ctx.A)) * float(len(ctx.B)) ** 2
    return Measurement(lhs, rhs)


def _chk_convex_es(ctx: EvalContext) -> Measurement:
    s = ctx.param("s", Fraction(3, 2))
    if not (1 < s < 3):
        raise DomainError("convex_es requires s strictly between 1 and 3")
    lhs = ctx.pair.E(s).approx
    rhs = float(len(ctx.A)) * float(len(ctx.B)) ** float((s + 1) / 2)
    return Measurement(lhs, rhs, f"s={s}")


def _chk_prop_ea(ctx: EvalContext) -> Measurement:
    n = len(ctx.A)
    lhs = ctx.core.E(Fraction(12, 5)).approx
    rhs = float(n) ** (38.0 / 15.0) * float(ctx.core.pair_size("diff")) ** (4.0 / 45.0)
    return Measurement(lhs, rhs)


def _chk_rs_prop(ctx: EvalContext) -> Measurement:
    n = len(ctx.A)
    guard = ctx.param("size_guard", 200)
    if n > guard:
        raise _Skip("budget")
    if 0 in ctx.A:
        raise _Skip("zero-in-set")
    r = ctx.core.rep("ratio")
    cls = dominant_dyadic_class(r, 2)
    lam_values = cls.members
    sizes = sorted(
        (pair_set_size(ctx.A, intersect_dilate(ctx.A, lam), "prod") for lam in lam_values),
        reverse=True,
    )
    lhs = float(sizes[0])
    s_sz = len(lam_values)
    q_idx = max(0, math.ceil(s_sz / 64) - 1)
    quantile = sizes[q_idx]
    log_rhs = (
        18 * math.log(n)
        - 0.5 * math.log(s_sz)
        - 4 * math.log(ctx.core.pair_size("prod"))
        - 8 * math.log(ctx.core.pair_size("sum"))
    )
    rhs = math.exp(log_rhs) if log_rhs < 700 else math.inf
    ratio = math.exp(math.log(lhs) - log_rhs)
    q_ratio = math.exp(math.log(quantile) - log_rhs)
    return Measurement(lhs, rhs, f"|S|={s_sz},q64={quantile},q64_ratio={q_ratio:.4g}", ratio)


def _chk_lemma6_e3(ctx: EvalContext) -> Measurement:
    n = len(ctx.A)
    e3 = ctx.pair.E(3).approx
    log_rhs = (
        2 * math.log(len(ctx.B))
        + 17.5 * math.log(ctx.core.pair_size("prod"))
        + 24 * math.log(ctx.core.pair_size("sum"))
        - 54 * math.log(n)
    )
    rhs = math.exp(log_rhs) if log_rhs < 700 else math.inf
    ratio = math.exp(math.log(e3) - log_rhs) if e3 > 0 else 0.0
    return Measurement(e3, rhs, ratio=ratio)


def _chk_theorem_ratio(ctx: EvalContext) -> Measurement:
    # the largest of the theorem's pair sets against n**exponent
    big = max(ctx.core.pair_size(op) for op in _OBJECTIVE_OPS[ctx.check])
    rhs = float(len(ctx.A)) ** _OBJECTIVE_EXPONENTS[ctx.check]
    return Measurement(big, rhs)


def _chk_st_measure(ctx: EvalContext) -> Measurement:
    n = len(ctx.A)
    if n == 0:
        raise _Skip("guard:empty")
    slopes = ctx.param("slopes", math.isqrt(n - 1) + 1)
    intercepts = ctx.param("intercepts", n)
    count = count_incidences_grid(ctx.A, ctx.A, slopes, intercepts)
    lines = slopes * intercepts if slopes > 0 and intercepts > 0 else 0
    points = n * n
    ratio = st_ratio(count, points, lines)  # a 0-line family is a usage error
    denom = (points * lines) ** (2.0 / 3.0) + lines
    return Measurement(count, denom, f"|L|={lines},I={count}", ratio)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    fn: object
    kind: str  # "assert" | "ratio"
    needs_convex: bool = False
    derived_b: bool = False  # scan harness supplies a seeded random B
    doc: str = ""


REGISTRY: dict[str, CheckDef] = {
    "cs_energy": CheckDef(_chk_cs_energy, "assert",
                          doc="(|A||B|)^2 <= |A op B| * E(A,B), op in {sum,diff}"),
    "cs_proj": CheckDef(_chk_cs_proj, "assert",
                        doc="collision bound |X|^2 <= |Y| * #{f(x1)=f(x2)} for f = pair op"),
    "popular_mass": CheckDef(_chk_popular_mass, "assert",
                             doc="popular differences carry >= 10/11 of the |A|^2 mass"),
    "rich_size": CheckDef(_chk_rich_size, "assert",
                          doc="rich-difference subset exceeds half of A"),
    "diff_proj": CheckDef(_chk_diff_proj, "assert",
                          doc="(9/484)|A|^6 <= E_3(A) * proj(P, P)"),
    "sum_proj": CheckDef(_chk_sum_proj, "assert",
                         doc="(level*class*|B|/2)^2 <= E_3(B) * proj(popular sums, class)"),
    "e127_trivial": CheckDef(_chk_e127_trivial, "assert",
                             doc="|Z|^2 <= E_{12/7}(Z) <= |Z|^3"),
    "holder_s": CheckDef(_chk_holder_s, "assert",
                         doc="E_s <= E_3^{(s-1)/2} (|A||B|)^{(3-s)/2}, 1 < s < 3"),
    "e2_interp": CheckDef(_chk_e2_interp, "assert",
                          doc="E <= E_{12/7}^{7/9} E_3^{2/9}"),
    "e32_interp": CheckDef(_chk_e32_interp, "assert",
                           doc="E_{3/2}^{2/3} <= |B|^{2/5} E_{12/7}^{7/15}"),
    "e2_lower": CheckDef(_chk_e2_lower, "assert",
                         doc="E(B) >= |B|^4 / |B+B|"),
    "convex_e3": CheckDef(_chk_convex_e3, "ratio", needs_convex=True, derived_b=True,
                          doc="E_3(A,B) vs |A||B|^2 for convex A"),
    "convex_es": CheckDef(_chk_convex_es, "ratio", needs_convex=True, derived_b=True,
                          doc="E_s(A,B) vs |A||B|^{(s+1)/2} for convex A"),
    "prop_ea": CheckDef(_chk_prop_ea, "ratio", needs_convex=True,
                        doc="E_{12/5}(A) vs |A|^{38/15} |A-A|^{4/45} for convex A"),
    "rs_prop": CheckDef(_chk_rs_prop, "ratio",
                        doc="max |A * (A cap A/lam)| over the dominant ratio class vs "
                            "|A|^18 / (|S|^{1/2} |AA|^4 |A+A|^8)"),
    "lemma6_e3": CheckDef(_chk_lemma6_e3, "ratio", derived_b=True,
                          doc="E_3(A,B) vs |B|^2 |AA|^{35/2} |A+A|^{24} / |A|^54"),
    "thm_sp": CheckDef(_chk_theorem_ratio, "ratio",
                       doc="max(|A+A|,|AA|) vs |A|^{4/3 + 10/4407}"),
    "thm_csum": CheckDef(_chk_theorem_ratio, "ratio", needs_convex=True,
                         doc="|A+A| vs |A|^{46/29} for convex A"),
    "thm_cdiff": CheckDef(_chk_theorem_ratio, "ratio", needs_convex=True,
                          doc="|A-A| vs |A|^{8/5 + 1/3440} for convex A"),
    "st_measure": CheckDef(_chk_st_measure, "ratio",
                           doc="incidences of A x A with an integer line family vs "
                               "(|P||L|)^{2/3} + |L|"),
}

# The default assert suite run by `verify` (ratio reports are opt-in).
DEFAULT_VERIFY_CHECKS: tuple[str, ...] = (
    "cs_energy",
    "cs_proj",
    "popular_mass",
    "rich_size",
    "diff_proj",
    "e127_trivial",
    "holder_s[s=3/2]",
    "holder_s[s=12/7]",
    "holder_s[s=12/5]",
    "e2_interp",
    "e32_interp",
    "e2_lower",
)


def check_ids() -> list[str]:
    return sorted(REGISTRY)


def parse_check_id(check_id: str) -> tuple[str, dict]:
    """Split 'holder_s[s=12/5]' into ('holder_s', {'s': '12/5'}).

    A malformed value of a known parameter raises DomainError (see `_param`).
    """
    base, sep, rest = check_id.partition("[")
    base = base.strip()
    if base not in REGISTRY:
        raise UnknownCheckError(f"unknown check id {base!r}")
    params: dict = {}
    if sep:
        if not rest.endswith("]"):
            raise UnknownCheckError(f"malformed check id {check_id!r}")
        for piece in rest[:-1].split(","):
            if not piece.strip():
                continue
            k, eq, v = piece.partition("=")
            if not eq:
                raise UnknownCheckError(f"malformed check parameter {piece!r}")
            params[k.strip()] = v.strip()
    for name in params:
        if name in _PARAM_KINDS:
            _param(base, params, name)
    return base, params


def run_check(
    check_id: str,
    A: FiniteSet,
    B: FiniteSet | None = None,
    params: dict | None = None,
    *,
    core: SetCore | None = None,
) -> CheckResult:
    """Evaluate one registered check on A (and B where the check uses a pair).

    The check measures and `_judge` gives the verdict.  Budget and guard
    trips surface as skipped verdicts, never exceptions.  An unknown id
    (UnknownCheckError) and malformed parameters (DomainError) raise, and so
    does a program fault, which `run_check_suite` and `run_scan` turn into
    an "error(<type>)" verdict.
    """
    base, inline = parse_check_id(check_id)
    merged = dict(inline)
    if params:
        merged.update(params)
    cdef = REGISTRY[base]
    if core is None:
        core = SetCore(A)
    if cdef.needs_convex and not is_convex(A):
        return CheckResult.unmeasured(check_id, f"|A|={len(A)}", "skipped(not-convex)")
    ctx = EvalContext(base, core, B, merged)
    try:
        measured = cdef.fn(ctx)
    except (_Skip, BudgetExceededError, DivisionDomainError) as exc:
        reason = (exc.reason if isinstance(exc, _Skip)
                  else "budget" if isinstance(exc, BudgetExceededError) else "zero-in-set")
        return CheckResult.unmeasured(check_id, ctx.desc(), f"skipped({reason})")
    return _judge(check_id, cdef.kind, ctx, measured)


def _judge(check_id: str, kind: str, ctx: EvalContext, m: Measurement) -> CheckResult:
    """The verdict on a measurement: "ratio-report" for a ratio check; for an
    assert check "pass" when lhs * const_scale <= rhs, in exact rational
    arithmetic unless either side is a float (a fractional-power energy),
    which is allowed the relative slack REL_SLACK."""
    lhs, rhs = m.lhs, m.rhs
    if kind == "ratio":
        verdict = "ratio-report"
    else:
        # harness self-test hook: scales the lhs before comparison
        scale = ctx.param("const_scale", Fraction(1))
        if isinstance(lhs, float) or isinstance(rhs, float):
            holds = lhs * float(scale) <= rhs + REL_SLACK * max(abs(lhs), abs(rhs), 1.0)
        else:
            holds = Fraction(lhs) * scale <= Fraction(rhs)
        verdict = "pass" if holds else "fail"
    lf, rf = to_float(lhs), to_float(rhs)
    ratio = _safe_ratio(lf, rf) if m.ratio is None else m.ratio
    return CheckResult(check_id, ctx.desc(m.desc), lf, rf, ratio, verdict)


# errors that name a bad request rather than a fault of the program
_USAGE_ERRORS = (DomainError, UnknownCheckError)


def _run_isolated(check_id: str, A: FiniteSet, B: FiniteSet | None, params: dict | None,
                  core: SetCore, where: str) -> CheckResult:
    """`run_check`, with a program fault turned into the verdict
    "error(<exception type>)" and its traceback written to stderr, headed by
    `where`, so the checks after it still run.  Usage errors raise."""
    try:
        return run_check(check_id, A, B, params, core=core)
    except _USAGE_ERRORS:
        raise
    except Exception as exc:  # a fault in one check must not stop the others
        sys.stderr.write(f"error in {check_id} on {where}:\n{traceback.format_exc()}")
        return CheckResult.unmeasured(check_id, f"|A|={len(A)}", f"error({type(exc).__name__})")


def run_check_suite(
    A: FiniteSet,
    checks=DEFAULT_VERIFY_CHECKS,
    B: FiniteSet | None = None,
    params: dict | None = None,
    budget: int | None = DEFAULT_PAIR_BUDGET,
) -> list[CheckResult]:
    """Run several checks on one set, sharing all cached quantities.

    A program fault in one check gives it the verdict "error(<type>)" (see
    `_run_isolated`); usage errors raise as in `run_check`.
    """
    core = SetCore(A, budget=budget)
    return [_run_isolated(cid, A, B, params, core, f"|A|={len(A)}") for cid in checks]


# ---------------------------------------------------------------------------
# Scan harness
# ---------------------------------------------------------------------------

def _derived_b(seed: int, label: str, n: int, check_id: str) -> FiniteSet:
    """Deterministic equal-size companion set for two-set ratio checks."""
    digest = hashlib.sha256(f"{seed}|{label}|{n}|{check_id}|B".encode()).digest()
    sub_seed = int.from_bytes(digest[:8], "big")
    return gen_family(FamilySpec.random_subset(4 * n * n, n, seed=sub_seed))


def _eval_cell_group(args) -> list[ScanRow]:
    spec, n, checks, seed, budget = args
    label = spec.label()
    rows = []
    try:
        A = gen_family(spec, n)
    except Exception as exc:  # infeasible spec, etc: isolate, never abort
        reason = type(exc).__name__
        return [
            ScanRow(label, n, cid, math.nan, math.nan, math.nan,
                    f"skipped(gen-error:{reason})", 0.0)
            for cid in checks
        ]
    core = SetCore(A, budget=budget)
    for cid in checks:
        t0 = time.perf_counter()
        base, _ = parse_check_id(cid)
        B = None
        if REGISTRY[base].derived_b:
            B = _derived_b(seed, label, n, cid)
        res = _run_isolated(cid, A, B, None, core, f"{label} n={n}")
        rows.append(ScanRow(label, n, cid, res.lhs, res.rhs, res.ratio, res.verdict,
                            time.perf_counter() - t0))
    return rows


def run_scan(
    families,
    sizes,
    checks,
    seed: int = 0,
    *,
    jobs: int = 1,
    budget: int | None = DEFAULT_PAIR_BUDGET,
) -> list[ScanRow]:
    """Evaluate every (family, size, check) cell.

    Rows come back in lexicographic (family label, n, check id) order no
    matter how many workers ran.  A family that cannot be generated gives
    "skipped(gen-error:<type>)" rows, and a program fault in a cell the
    verdict "error(<type>)" (see `_run_isolated`); usage errors raise.
    """
    checks = list(checks)
    for cid in checks:
        parse_check_id(cid)  # validates
    tasks = [
        (spec, n, checks, seed, budget)
        for spec in families
        for n in sizes
    ]
    if jobs > 1 and len(tasks) > 1:
        # imported here: concurrent.futures and multiprocessing cost every
        # single-process run about 20 ms of import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(_eval_cell_group, tasks))
    else:
        groups = [_eval_cell_group(t) for t in tasks]
    rows = [row for grp in groups for row in grp]
    rows.sort(key=lambda r: (r.family, r.n, r.check_id))
    return rows


def scan_rows_to_csv(rows) -> str:
    """Canonical scan artifact. elapsed_s is fixed at 0 in serialized output
    so that identical configurations produce byte-identical files regardless
    of wall-clock jitter or worker count; live timings stay on the row
    objects."""
    out = ["family,n,check_id,lhs,rhs,ratio,verdict,elapsed_s"]
    for r in rows:
        out.append(
            f"{r.family},{r.n},{r.check_id},{r.lhs!r},{r.rhs!r},{r.ratio!r},{r.verdict},0.000000"
        )
    return "\n".join(out) + "\n"


def json_text(records) -> str:
    """The JSON array of the dicts `records`, indented, with each non-finite
    float written as its text ("nan", "inf"), which JSON has no number for."""
    payload = [
        {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in rec.items()}
        for rec in records
    ]
    return json.dumps(payload, indent=2) + "\n"


def scan_rows_to_json(rows) -> str:
    return json_text(
        {
            "family": r.family,
            "n": r.n,
            "check_id": r.check_id,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "ratio": r.ratio,
            "verdict": r.verdict,
            "elapsed_s": 0.0,
        }
        for r in rows
    )


# ---------------------------------------------------------------------------
# Extremal search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    best: FiniteSet
    ratio: float
    trajectory: tuple[float, ...]


class _Objective:
    """The search's ratio on n distinct integers in [1, 4n^2], set up once
    per run: `sizes` counts the distinct values of `ufunc.outer` of the
    sorted values on and above its diagonal, in int32 when they fit (strictly
    above for differences: d distinct negative ones, |A - A| = 2d + 1)."""

    def __init__(self, objective: str, n: int):
        hi = 4 * n * n
        self.denom = float(n) ** _OBJECTIVE_EXPONENTS[objective]
        self.plans = []
        r = np.arange(n)
        for op in _OBJECTIVE_OPS[objective]:
            ufunc = {"sum": np.add, "diff": np.subtract, "prod": np.multiply}[op]
            tri = np.flatnonzero(r[:, None] < r if op == "diff" else r[:, None] <= r)
            fits32 = (hi * hi if op == "prod" else 2 * hi) < 1 << 31
            self.plans.append((ufunc, tri, np.int32 if fits32 else np.int64))

    def sizes(self, values) -> list[int]:
        """|A op A| for each op of the objective, in `_OBJECTIVE_OPS` order."""
        vals = sorted(values)
        out = []
        for ufunc, tri, dtype in self.plans:
            a = np.array(vals, dtype)
            d = distinct_count(ufunc.outer(a, a).ravel().take(tri))
            out.append(2 * d + 1 if ufunc is np.subtract else d)
        return out

    def ratio(self, values) -> float:
        return max(self.sizes(values)) / self.denom


def search_extremal(objective: str, n: int, budget: int, seed: int = 0) -> SearchResult:
    """Hill-climb toward sets minimizing a theorem ratio.

    States are n distinct integers in [1, 4n^2]; moves replace one element;
    stagnation triggers a seeded restart.  `budget` counts objective
    evaluations, so budget=1 returns the start configuration (an arithmetic
    progression, which every run therefore weakly improves on).  An
    evaluation counts pair values in a plain int array (`_Objective`), not
    a `FiniteSet`; products reach 16n^4, which must stay below 2^63.
    """
    if objective not in _OBJECTIVE_EXPONENTS:
        raise DomainError(f"objective must be one of {sorted(_OBJECTIVE_EXPONENTS)}")
    if n < 4:
        raise DomainError("search requires n >= 4")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if 16 * n ** 4 >= 1 << 63:
        raise DomainError("search requires 16 n^4 < 2^63, so that pair values fit int64")
    objective_ratio = _Objective(objective, n).ratio
    hi = 4 * n * n
    rng = random.Random(seed)

    cur = list(range(1, n + 1))
    cur_set = set(cur)
    cur_ratio = objective_ratio(cur)
    evals = 1
    best = sorted(cur)
    best_ratio = cur_ratio
    traj = [best_ratio]
    stagnation = 0
    stall_limit = max(50, 2 * n)

    while evals < budget:
        if stagnation >= stall_limit:
            cur = sorted(rng.sample(range(1, hi + 1), n))
            cur_set = set(cur)
            cur_ratio = objective_ratio(cur)
            evals += 1
            stagnation = 0
        else:
            i = rng.randrange(n)
            while True:
                v = rng.randint(1, hi)
                if v not in cur_set:
                    break
            cand = cur.copy()
            old = cand[i]
            cand[i] = v
            cand_ratio = objective_ratio(cand)
            evals += 1
            if cand_ratio < cur_ratio:
                cur = cand
                cur_set.discard(old)
                cur_set.add(v)
                cur_ratio = cand_ratio
                stagnation = 0
            else:
                stagnation += 1
        if cur_ratio < best_ratio:
            best_ratio = cur_ratio
            best = sorted(cur)
        traj.append(best_ratio)
    return SearchResult(FiniteSet(best), best_ratio, tuple(traj))
