"""The four workloads: inputs made from a seed, the timed call, and its checks.

A workload is a fixed list of items.  `setup(seed)` builds the list (this is
where the program's set generators run); `prepare(item)` does the untimed
work before one timed call, such as building a fresh `FiniteSet`, so every
item pays the per-set caches (`members`, `int_view`) as a user does;
`call(prepared)` is the timed call and returns the program's outputs as
plain data; `check(item, output)` compares them with the benchmark's own
oracles and returns the problems found.

Every check is made against `oracles` (plain-Python counts), closed forms
or properties the method must have, never against stored output.
"""

from __future__ import annotations

import importlib
import math
import os
import random
import re
from fractions import Fraction

import oracles

S = importlib.import_module("sumsetlab")
cli = importlib.import_module("sumsetlab.cli")
verifier = importlib.import_module("sumsetlab.verifier")

# Relative tolerance for values that pass through a fractional-power energy,
# which the program sums in float64 in another order than `math.fsum`.
FLOAT_RTOL = 1e-9

# Exact projection counts are recomputed only while |P| * |Q| stays below
# this; above it the pure-Python count would take longer than the item.
ORACLE_PAIRS = 1_000_000


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def _compare(problems: list, where: str, got: float, want, exact: bool) -> None:
    want_f = float(want)
    if (got != want_f) if exact else not _close(got, want_f):
        problems.append(f"{where}: got {got!r}, expected {want_f!r}")


def _suite_expectations(n: int, dh, sh, proj):
    """check id -> (lhs, rhs, exact) of the default assert suite from oracle counts.

    `dh` and `sh` are the count histograms of the set's differences and sums
    (see `oracles.count_histogram`), and `proj` the projection count
    proj(P, P) of its popular differences, or None when it was not recomputed.
    """
    n2 = n * n
    E2 = oracles.energy_exact(dh, 2)
    E3 = oracles.energy_exact(dh, 3)
    e127 = oracles.energy_float(dh, oracles.TWELVE_SEVENTHS)
    e3f = float(E3)
    exp = {
        "cs_energy": (n2 * n2, sum(dh.values()) * E2, True),
        "cs_proj": (n2 * n2, sum(sh.values()) * oracles.energy_exact(sh, 2), True),
        "e127_trivial": (max(n2 / e127, e127 / float(n) ** 3), 1.0, False),
        "e2_interp": (float(E2), e127 ** (7.0 / 9.0) * e3f ** (2.0 / 9.0), False),
        "e32_interp": (oracles.energy_float(dh, Fraction(3, 2)) ** (2.0 / 3.0),
                       float(n) ** 0.4 * e127 ** (7.0 / 15.0), False),
        "e2_lower": (n2 * n2, sum(sh.values()) * E2, True),
    }
    for sv in ("3/2", "12/7", "12/5"):
        k = Fraction(sv)
        rhs = e3f ** float((k - 1) / 2) * float(n2) ** float((3 - k) / 2)
        exp[f"holder_s[s={sv}]"] = (oracles.energy_float(dh, k), rhs, False)
    if proj is not None:
        exp["diff_proj"] = (Fraction(9, 484) * n2 ** 3, E3 * proj, True)
    return exp


def _check_suite_rows(problems, label, rows, exp):
    for cid, lhs, rhs in rows:
        if cid in exp:
            want_l, want_r, exact = exp[cid]
            _compare(problems, f"{label} {cid} lhs", lhs, want_l, exact)
            _compare(problems, f"{label} {cid} rhs", rhs, want_r, exact)


# ---------------------------------------------------------------------------
# verify-int: the default assert suite on seeded integer RandomSubset sets
# ---------------------------------------------------------------------------

class VerifyInt:
    """`run_check_suite` on 100 seeded integer sets.

    Dense sets (N = 4n^2) run from n = 8 to 520, so items sit on both sides
    of projection_count's 200 000 pair-operation floor (n = 22) and its
    FFT-vs-loop cost model, and the largest ones transform on 2^21 (n = 380,
    470) and 2^22 points (n = 520); their difference tables take rep_fn's
    bincount kernel.  Sparse-wide sets (N = 2*10^6) take the int32 sort
    kernel and sets with N = 2^40 the int64 one.
    """

    name = "verify-int"

    # (range N as a function of n, sizes)
    PLAN = (
        (lambda n: 4 * n * n, list(range(8, 82))),
        (lambda n: 4 * n * n, list(range(88, 297, 16))),
        (lambda n: 4 * n * n, [380, 470, 520]),
        (lambda n: 2_000_000, [20, 30, 40, 48]),
        (lambda n: 1 << 40, [10, 20, 30, 40, 50]),
    )

    def setup(self, seed: int) -> list:
        rng = random.Random(f"verify-int/{seed}")
        items = []
        for n_range, sizes in self.PLAN:
            for n in sizes:
                spec = S.FamilySpec.random_subset(n_range(n), n, seed=rng.randrange(1 << 32))
                items.append((spec.label() + f"/n={n}", S.gen_family(spec).elements))
        return items

    def prepare(self, item):
        return S.FiniteSet(item[1])

    def call(self, A):
        return [(r.check_id, r.inputs_desc, r.lhs, r.rhs, r.ratio, r.verdict)
                for r in verifier.run_check_suite(A)]

    def check(self, item, output) -> list[str]:
        label, elements = item
        problems = [f"{label} {cid}: {v}" for cid, _, _, _, _, v in output if v != "pass"]
        d = oracles.pair_counts(elements, elements, "diff")
        s = oracles.pair_counts(elements, elements, "sum")
        P, mass = oracles.popular_differences(elements, d)
        n = len(elements)
        proj = oracles.projection(P, P) if len(P) ** 2 <= ORACLE_PAIRS else None
        exp = _suite_expectations(n, oracles.count_histogram(d), oracles.count_histogram(s), proj)
        exp["popular_mass"] = (Fraction(10, 11) * n * n, mass, True)
        exp["rich_size"] = (n // 2 + 1, len(oracles.rich_differences(elements, P)), True)
        _check_suite_rows(problems, label, [(r[0], r[2], r[3]) for r in output], exp)
        if len(output) != len(verifier.DEFAULT_VERIFY_CHECKS):
            problems.append(f"{label}: {len(output)} results")
        return problems


# ---------------------------------------------------------------------------
# scan-bigint: CLI scans of geometric progressions
# ---------------------------------------------------------------------------

class ScanBigint:
    """In-process `sumsetlab scan` calls, one per (family, n), on GP sets.

    Geometric elements reach 2^n, past int64, so rep_fn's dict mode,
    pair_set_size's set and fingerprint paths and the Python membership
    loops do the work.  thm_sp alone at n = 768 (589 824 pairs per pair
    set) takes the fingerprint path; the suites below n = 708 the set path.
    """

    name = "scan-bigint"

    FAMILIES = (("GP(1,2)", 1, Fraction(2)), ("GP(1,3)", 1, Fraction(3)),
                ("GP(3,5/2)", 3, Fraction(5, 2)))
    # Many mid-sized suites keep the median item among items of close times:
    # with a dozen items it was one item that jumped between its neighbours.
    SUITE_SIZES = {"GP(1,2)": (32, 64, 80, 96, 112, 128, 144, 160, 192, 256),
                   "GP(1,3)": (32, 64, 80, 96, 112, 128, 144, 160, 192, 256),
                   "GP(3,5/2)": (16, 64, 96)}
    THM_SP_ALONE = ("GP(1,2)", "GP(1,3)")
    THM_SP_SIZE = 768

    def __init__(self):
        self.out_dir = None  # set by the runner to a scratch directory

    def setup(self, seed: int) -> list:
        suite = list(verifier.DEFAULT_VERIFY_CHECKS) + ["thm_sp"]
        items = []
        for fam, a, r in self.FAMILIES:
            for n in self.SUITE_SIZES[fam]:
                items.append((fam, a, r, n, suite, seed))
            if fam in self.THM_SP_ALONE:
                items.append((fam, a, r, self.THM_SP_SIZE, ["thm_sp"], seed))
        return items

    def prepare(self, item):
        fam, _, _, n, checks, seed = item
        out = f"{self.out_dir}/{re.sub(r'[^0-9A-Za-z]', '_', fam)}-{n}-{len(checks)}.csv"
        return out, ["scan", "--families", fam, "--sizes", str(n), "--checks",
                     ",".join(checks), "--seed", str(seed), "--jobs", "1", "--out", out]

    def call(self, prepared):
        out, argv = prepared
        rc = cli.main(argv)
        with open(out, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.unlink(out)  # a later round must not read this one's file
        return rc, text

    def check(self, item, output) -> list[str]:
        fam, a, r, n, checks, _ = item
        rc, text = output
        label = f"{fam}/n={n}"
        problems = [] if rc == 0 else [f"{label}: exit code {rc}"]
        lines = text.splitlines()
        if not lines or lines[0] != "family,n,check_id,lhs,rhs,ratio,verdict,elapsed_s":
            return problems + [f"{label}: bad header"]
        # the family label holds commas, so split from the right
        rows = [line.rsplit(",", 7) for line in lines[1:]]
        if sorted(row[2] for row in rows) != sorted(checks):
            problems.append(f"{label}: checks {[row[2] for row in rows]}")
        closed = oracles.geometric_closed_forms(n)
        elements = [a * r ** i for i in range(n)]
        if r.denominator == 1:
            elements = [int(x) for x in elements]
        proj = None
        if closed["diffset"] ** 2 <= ORACLE_PAIRS:
            P, _ = oracles.popular_differences(elements)
            proj = oracles.projection(P, P)
        exp = {"thm_sp": (max(closed["sumset"], closed["prodset"]),
                          float(n) ** oracles.EXP_SP, True)}
        if len(checks) > 1:
            exp.update(_suite_expectations(n, *oracles.geometric_histograms(n), proj))
            exp["popular_mass"] = (Fraction(10, 11) * n * n, n * n, True)
            exp["rich_size"] = (n // 2 + 1, n, True)
        for fam_got, n_got, cid, lhs, rhs, _, verdict, elapsed in rows:
            where = f"{label} {cid}"
            if fam_got != fam or n_got != str(n) or elapsed != "0.000000":
                problems.append(f"{where}: row {fam_got},{n_got},...,{elapsed}")
            want = "ratio-report" if cid == "thm_sp" else "pass"
            if cid == "diff_proj" and verdict == "skipped(budget)" and proj is None:
                continue
            if verdict != want:
                problems.append(f"{where}: {verdict}")
        _check_suite_rows(problems, label,
                          [(row[2], float(row[3]), float(row[4])) for row in rows], exp)
        return problems


# ---------------------------------------------------------------------------
# sum-chain: the sum side of the constructions, with the incidence count
# ---------------------------------------------------------------------------

class SumChain:
    """sum_proj, both triple counts and st_measure on one fresh set per item.

    AP, ConvexPower(2), ConvexCustom and integer RandomSubset sets at
    n = 64..512, the rational AP(1/3,2/7) (scale 21) and perturbed sets of
    n <= 32, whose projection counts run the hash loop over Fractions.
    """

    name = "sum-chain"

    def setup(self, seed: int) -> list:
        rng = random.Random(f"sum-chain/{seed}")
        F = S.FamilySpec
        specs = []
        for n in (64, 128, 256, 512):
            specs += [F.ap(1, 1, n), F.convex_power(2, n),
                      F.convex_custom(rng.randrange(1 << 32), n),
                      F.random_subset(4 * n * n, n, seed=rng.randrange(1 << 32))]
        specs += [F.ap(Fraction(1, 3), Fraction(2, 7), n) for n in (64, 96)]
        specs += [F.perturbed(F.convex_power(2, 24), 24, seed=rng.randrange(1 << 32)),
                  F.perturbed(F.ap(1, 1, 32), 32, seed=rng.randrange(1 << 32)),
                  F.perturbed(F.convex_custom(rng.randrange(1 << 32), 16), 16,
                              seed=rng.randrange(1 << 32))]
        return [(f"{sp.label()}/n={sp.n}", S.gen_family(sp).elements) for sp in specs]

    def prepare(self, item):
        return S.FiniteSet(item[1])

    def call(self, A):
        n = len(A)
        sp = S.run_check("sum_proj", A)
        sum_tri = S.count_popular_sum_triples(A, n)
        diff_t = S.count_popular_difference_triples(A)
        st = S.run_check("st_measure", A)
        return ((sp.inputs_desc, sp.lhs, sp.rhs, sp.verdict), sum_tri, diff_t,
                (st.inputs_desc, st.lhs, st.verdict))

    def check(self, item, output) -> list[str]:
        label, elements = item
        (_, sp_lhs, sp_rhs, sp_verdict), sum_tri, diff_t, st = output
        n = len(elements)
        problems = []
        # sum_proj passes only when the refinement met its energy criterion
        if sp_verdict != "pass":
            problems.append(f"{label} sum_proj: {sp_verdict}")
        if not 22 * diff_t >= 3 * n ** 3:
            problems.append(f"{label}: 22 t < 3 n^3 for difference triples t = {diff_t}")
        count, level, cls_size = sum_tri
        if not 2 * count >= level * cls_size * n:
            problems.append(f"{label}: sum triples {sum_tri} below level*class*n/2")
        if st[2] != "ratio-report":
            problems.append(f"{label} st_measure: {st[2]}")
        if n <= 128:
            lines = oracles.integer_lines(math.isqrt(n - 1) + 1, n)
            _compare(problems, f"{label} incidences", st[1],
                     oracles.line_incidences(elements, elements, lines), True)
        if n <= 64:
            # counts are invariant under scaling, and ints are faster than Fractions
            (elements,) = oracles.common_integers(elements)
            if diff_t != oracles.difference_triples(elements):
                problems.append(f"{label}: difference triples {diff_t}")
            want = oracles.sum_triples(elements, n)
            if want is not None and sum_tri != want:
                problems.append(f"{label}: sum triples {sum_tri}, oracle {want}")
            problems += self._check_sum_proj(label, elements, sp_lhs, sp_rhs)
        return problems

    @staticmethod
    def _check_sum_proj(label, elements, lhs, rhs) -> list[str]:
        n = len(elements)
        core, reason = oracles.refine(elements)
        if reason == "ambiguous":
            return []
        if reason != "energy-criterion-met":
            return [f"{label}: oracle refinement stops at {reason}"]
        pop = oracles.popular_sums(core, n)
        rich = oracles.rich_sums(core, pop)
        counts = oracles.pair_counts(rich, rich, "diff")
        if oracles.dyadic_choice_ambiguous(counts):
            return []
        level, cls = oracles.dominant_dyadic_class(counts)
        problems = []
        _compare(problems, f"{label} sum_proj lhs", lhs,
                 Fraction(level * len(cls) * len(core), 2) ** 2, True)
        if len(pop) * len(cls) <= ORACLE_PAIRS:
            e3 = oracles.energy_exact(
                oracles.count_histogram(oracles.pair_counts(core, core, "diff")), 3)
            _compare(problems, f"{label} sum_proj rhs", rhs,
                     e3 * oracles.projection(pop, cls), True)
        return problems


# ---------------------------------------------------------------------------
# search: the extremal hill-climb
# ---------------------------------------------------------------------------

class Search:
    """`search_extremal` for the three objectives at n = 16..64, 1000 evaluations."""

    name = "search"

    BUDGET = 1000
    OBJECTIVES = ("thm_sp", "thm_csum", "thm_cdiff")
    SIZES = (16, 32, 48, 64)

    def setup(self, seed: int) -> list:
        rng = random.Random(f"search/{seed}")
        return [(obj, n, self.BUDGET, rng.randrange(1 << 32))
                for obj in self.OBJECTIVES for n in self.SIZES]

    def prepare(self, item):
        return item

    def call(self, item):
        res = S.search_extremal(*item)
        return res.best.elements, res.ratio, res.trajectory

    def check(self, item, output) -> list[str]:
        objective, n, budget, seed = item
        best, ratio, traj = output
        label = f"{objective}/n={n}/seed={seed}"
        problems = []
        if len(best) != n or len(set(best)) != n or not all(1 <= x <= 4 * n * n for x in best):
            problems.append(f"{label}: returned set is not n distinct values in [1, 4n^2]")
        if len(traj) != budget or traj[-1] != ratio:
            problems.append(f"{label}: trajectory of {len(traj)} ends at {traj[-1]!r}")
        if any(b > a for a, b in zip(traj, traj[1:])):
            problems.append(f"{label}: trajectory increases")
        start = list(range(1, n + 1))
        if traj[0] != _search_ratio(objective, start):
            problems.append(f"{label}: start ratio {traj[0]!r}")
        if ratio != _search_ratio(objective, best):
            problems.append(f"{label}: ratio {ratio!r} != {_search_ratio(objective, best)!r}")
        return problems


def _search_ratio(objective: str, A) -> float:
    n = len(A)
    if objective == "thm_sp":
        big = max(len({a + b for a in A for b in A}), len({a * b for a in A for b in A}))
        return big / float(n) ** oracles.EXP_SP
    if objective == "thm_csum":
        return len({a + b for a in A for b in A}) / float(n) ** oracles.EXP_CSUM
    return len({a - b for a in A for b in A}) / float(n) ** oracles.EXP_CDIFF


WORKLOADS = {w.name: w for w in (VerifyInt(), ScanBigint(), SumChain(), Search())}


def warm_up() -> None:
    """Finish the program's lazy imports (numpy.fft, mpmath) before timing."""
    import mpmath
    import numpy as np

    np.fft.irfft(np.fft.rfft(np.zeros(8)), 8)
    mpmath.mpf(1)
