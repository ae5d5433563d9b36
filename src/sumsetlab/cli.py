"""Command-line front end.

Subcommands: gen, stats, verify, scan, incidence, search.  Exit codes:
0 ok, 1 at least one assert-type check failed, 2 usage error, 3 I/O error,
4 program fault (a check or scan cell with verdict error(<type>)), which
takes precedence over 1.
Config precedence is CLI flags > JSON config file > built-in defaults, and
every command is deterministic given its full configuration (the default
seed is 0 so bare invocations reproduce).  Output files are written
atomically (temp file + rename), so an interrupted scan never leaves a
truncated artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from .errors import SumsetLabError, UnknownCheckError
from .sets import (
    FamilySpec,
    FiniteSet,
    as_int,
    format_rational,
    gen_family,
    is_convex,
    read_set_file,
    read_utf8_text,
    split_top_level,
)
from .incidence import count_incidences_grid, count_incidences_lines, read_lines_csv, st_ratio
from .verifier import (
    DEFAULT_VERIFY_CHECKS,
    SetCore,
    json_text,
    run_check_suite,
    run_scan,
    scan_rows_to_csv,
    scan_rows_to_json,
    search_extremal,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FAULT = 4


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sumsetlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with read_utf8_text(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _opt(args, cfg: dict, key: str, default):
    """CLI flag > config file > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _list_opt(args, cfg: dict, key: str) -> list[str] | None:
    """A list-valued option as a list of texts: comma-list text from a flag
    or the config file, split by `split_top_level`, or the items of a JSON
    list from the config file; None when it is not given."""
    val = _opt(args, cfg, key, None)
    if isinstance(val, str):
        return split_top_level(val)
    if isinstance(val, list):
        return [str(v) for v in val]
    if val is None:
        return None
    raise UsageError(f"{key} must be a comma list or a JSON list, got {val!r}")


def _as_int(key: str, val) -> int:
    """`val` read by `sets.as_int`; anything else from a flag or a config
    file (2.5, true, "abc") is a usage error naming its key."""
    try:
        return as_int(val)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {val!r}") from None


def _int_opt(args, cfg: dict, key: str, default):
    val = _opt(args, cfg, key, default)
    return val if val is None else _as_int(key, val)


def _resolve_set(args, cfg) -> FiniteSet:
    infile = _opt(args, cfg, "infile", None)
    family = _opt(args, cfg, "family", None)
    if (infile is None) == (family is None):
        raise UsageError("supply exactly one set source: --family or --in")
    if infile is not None:
        return read_set_file(infile)
    n = _int_opt(args, cfg, "n", None)
    if n is None:
        raise UsageError("--family needs --n")
    spec = _reseed(FamilySpec.parse(family, n), _int_opt(args, cfg, "seed", 0))
    return gen_family(spec)


def _reseed(spec: FamilySpec, seed: int) -> FamilySpec:
    """Fill the seed slot of seedable family kinds when none was given."""
    if spec.kind in ("RandomSubset", "Perturbed") and len(spec.args) == 1:
        return FamilySpec(spec.kind, (spec.args[0], seed), spec.n)
    return spec


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen(args, cfg) -> int:
    family = _opt(args, cfg, "family", None)
    n = _int_opt(args, cfg, "n", None)
    if family is None or n is None:
        raise UsageError("gen requires --family and --n")
    spec = _reseed(FamilySpec.parse(family, n), _int_opt(args, cfg, "seed", 0))
    A = gen_family(spec)
    lines = "".join(f"{format_rational(x)}\n" for x in A.elements)
    _emit(lines, _opt(args, cfg, "out", None))
    return EXIT_OK


_STAT_ENERGY_KS = (Fraction(3, 2), Fraction(12, 7), 2, Fraction(12, 5), 3)


def _compute_stats(A: FiniteSet) -> dict:
    core = SetCore(A)
    # sizes read off the tables of A - A and A / A, which the energies need
    stats: dict = {
        "n": len(A),
        "sumset": core.pair_size("sum"),
        "diffset": core.rep("diff").size,
        "is_convex": is_convex(A),
    }
    if 0 in A:
        stats["prodset"] = "n/a(0 in A)"
        stats["ratioset"] = "n/a(0 in A)"
        stats["E2_mult"] = "n/a(0 in A)"
    else:
        stats["prodset"] = core.pair_size("prod")
        stats["ratioset"] = core.rep("ratio").size
        stats["E2_mult"] = core.E(2, "ratio").exact
    for k in _STAT_ENERGY_KS:
        ev = core.E(k)
        stats[f"E{k}"] = ev.exact if ev.exact is not None else ev.approx
    stats["popular_diffs"] = len(core.popular_diff())
    stats["popular_mass"] = core.popular_diff_mass()
    stats["rich_elements"] = len(core.rich_diff())
    return stats


def _cmd_stats(args, cfg) -> int:
    A = _resolve_set(args, cfg)
    stats = _compute_stats(A)
    fmt = _opt(args, cfg, "format", "text")
    if fmt == "json":
        text = json.dumps(stats, indent=2, default=str) + "\n"
    else:
        width = max(len(k) for k in stats)
        text = "".join(f"{k:<{width}}  {v}\n" for k, v in stats.items())
    _emit(text, _opt(args, cfg, "out", None))
    return EXIT_OK


def _results_table(results, fmt: str) -> str:
    if fmt == "json":
        return json_text(dataclasses.asdict(r) for r in results)
    lines = ["check_id,inputs_desc,lhs,rhs,ratio,verdict"]
    for r in results:
        check_id = r.check_id
        # a parameterized check id, such as st_measure[a=1,b=2], may hold a comma
        if "," in check_id or '"' in check_id:
            check_id = '"' + check_id.replace('"', '""') + '"'
        lines.append(
            f"{check_id},\"{r.inputs_desc}\",{r.lhs!r},{r.rhs!r},{r.ratio!r},{r.verdict}"
        )
    return "\n".join(lines) + "\n"


def _cmd_verify(args, cfg) -> int:
    A = _resolve_set(args, cfg)
    check_list = _list_opt(args, cfg, "checks")
    if check_list is None:
        check_list = list(DEFAULT_VERIFY_CHECKS)
    params = None
    raw_params = _opt(args, cfg, "check_params", None)
    if raw_params:
        params = json.loads(raw_params) if isinstance(raw_params, str) else raw_params
    budget = _int_opt(args, cfg, "budget", None)
    kwargs = {} if budget is None else {"budget": budget}
    results = run_check_suite(A, check_list, params=params, **kwargs)
    for r in results:
        sys.stderr.write(f"{r.check_id}: {r.verdict}\n")
    text = _results_table(results, _opt(args, cfg, "format", "csv"))
    _emit(text, _opt(args, cfg, "out", None))
    return _exit_code(results)


def _exit_code(results) -> int:
    """EXIT_FAULT on any error verdict, else EXIT_CHECK_FAILED on any
    failure, else EXIT_OK."""
    if any(r.verdict.startswith("error(") for r in results):
        return EXIT_FAULT
    if any(r.verdict == "fail" for r in results):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_scan(args, cfg) -> int:
    families_raw = _list_opt(args, cfg, "families")
    sizes_raw = _list_opt(args, cfg, "sizes")
    checks = _list_opt(args, cfg, "checks")
    if not families_raw or not sizes_raw or not checks:
        raise UsageError("scan requires --families, --sizes, and --checks")
    seed = _int_opt(args, cfg, "seed", 0)
    families = [_reseed(FamilySpec.parse(f, 1), seed) for f in families_raw]
    sizes = [_as_int("sizes", s) for s in sizes_raw]
    jobs = _int_opt(args, cfg, "jobs", 1)
    budget = _int_opt(args, cfg, "budget", None)
    kwargs = {} if budget is None else {"budget": budget}
    rows = run_scan(families, sizes, checks, seed=seed, jobs=jobs, **kwargs)
    fmt = _opt(args, cfg, "format", "csv")
    text = scan_rows_to_json(rows) if fmt == "json" else scan_rows_to_csv(rows)
    _emit(text, _opt(args, cfg, "out", None))
    n_fail = sum(1 for r in rows if r.verdict == "fail")
    if n_fail:
        sys.stderr.write(f"{n_fail} failing cells\n")
    return _exit_code(rows)


def _cmd_incidence(args, cfg) -> int:
    n = _int_opt(args, cfg, "grid", None)
    lines_file = _opt(args, cfg, "lines", None)
    if n is not None:
        A = B = FiniteSet(range(1, n + 1))
    else:
        xset = _opt(args, cfg, "xset", None)
        yset = _opt(args, cfg, "yset", None)
        if not xset or not lines_file:
            raise UsageError("incidence requires --grid N or (--xset FILE --lines FILE)")
        A = read_set_file(xset)
        B = read_set_file(yset) if yset else A
    if lines_file:
        lines = read_lines_csv(lines_file)
        count, n_lines = count_incidences_lines(A, B, lines), len(lines)
    else:
        # the integer family y = m x + c, counted as slope and intercept ranges
        slopes = _int_opt(args, cfg, "slopes", math.isqrt(max(n - 1, 0)) + 1)
        count = count_incidences_grid(A, B, slopes, n)
        n_lines = slopes * n if slopes > 0 and n > 0 else 0
    points = len(A) * len(B)
    report = {
        "incidences": count,
        "points": points,
        "lines": n_lines,
        "st_ratio": st_ratio(count, points, n_lines) if points and n_lines else 0.0,
    }
    fmt = _opt(args, cfg, "format", "text")
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = "".join(f"{k}  {v}\n" for k, v in report.items())
    _emit(text, _opt(args, cfg, "out", None))
    return EXIT_OK


def _cmd_search(args, cfg) -> int:
    objective = _opt(args, cfg, "objective", None)
    n = _int_opt(args, cfg, "n", None)
    if objective is None or n is None:
        raise UsageError("search requires --objective and --n")
    budget = _int_opt(args, cfg, "budget", 1000)
    seed = _int_opt(args, cfg, "seed", 0)
    result = search_extremal(str(objective), n, budget, seed)
    out = _opt(args, cfg, "out", None)
    body = "".join(f"{format_rational(x)}\n" for x in result.best.elements)
    _emit(body, out)
    traj_path = _opt(args, cfg, "trajectory", None)
    if traj_path:
        rows = ["eval,best_ratio"]
        rows += [f"{i},{r!r}" for i, r in enumerate(result.trajectory)]
        _atomic_write(traj_path, "\n".join(rows) + "\n")
    sys.stderr.write(f"best ratio {result.ratio!r} after {len(result.trajectory)} evals\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and its program name is fixed, so `main` calls share it."""
    p = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Exact sumset statistics, inequality verification, and ratio scans.",
    )
    p.add_argument("--config", help="JSON config file; flags override its keys")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, *, seed=True, out=True, fmt=None):
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="RNG seed (default 0; all commands are deterministic)")
        if out:
            sp.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            sp.add_argument("--format", choices=fmt, default=None)

    sp = sub.add_parser("gen", help="generate a set family and print/write it")
    sp.add_argument("--family", default=None, help="e.g. 'AP(1,1)', 'RandomSubset(1000)'")
    sp.add_argument("--n", type=int, default=None)
    add_common(sp)

    sp = sub.add_parser("stats", help="sizes, energies, popular/rich statistics")
    sp.add_argument("--family", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--in", dest="infile", default=None, help="set file (one element per line)")
    add_common(sp, fmt=("text", "json"))

    sp = sub.add_parser("verify", help="run assert-type checks; exit 1 on any failure")
    sp.add_argument("--family", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--checks", default=None,
                    help="comma list of check ids (default: the assert suite)")
    sp.add_argument("--check-params", dest="check_params", default=None,
                    help="JSON object of parameter overrides, e.g. '{\"const_scale\": 2}'")
    sp.add_argument("--budget", type=int, default=None,
                    help="pair-operation budget for quadratic-cost counts")
    add_common(sp, fmt=("csv", "json"))

    sp = sub.add_parser("scan", help="sweep families x sizes x checks into CSV/JSON")
    sp.add_argument("--families", default=None, help="comma list, e.g. 'AP(1,1),GP(1,2)'")
    sp.add_argument("--sizes", default=None, help="comma list, e.g. '16,32,64'")
    sp.add_argument("--checks", default=None)
    sp.add_argument("--jobs", type=int, default=None, help="worker processes (default 1)")
    sp.add_argument("--budget", type=int, default=None)
    add_common(sp, fmt=("csv", "json"))

    sp = sub.add_parser("incidence", help="count point-line incidences on a grid")
    sp.add_argument("--grid", type=int, default=None, help="use the grid [1..N] x [1..N]")
    sp.add_argument("--slopes", type=int, default=None,
                    help="integer slopes 1..K for the default family (default ceil(sqrt(N)))")
    sp.add_argument("--xset", default=None, help="x-coordinate set file")
    sp.add_argument("--yset", default=None, help="y-coordinate set file (default: --xset)")
    sp.add_argument("--lines", default=None, help="CSV line family 'slope,intercept'")
    add_common(sp, seed=False, fmt=("text", "json"))

    sp = sub.add_parser("search", help="hill-climb for small theorem ratios")
    sp.add_argument("--objective", choices=("thm_sp", "thm_csum", "thm_cdiff"), default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--trajectory", default=None, help="write best-ratio trajectory CSV here")
    add_common(sp)

    return p


_COMMANDS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "incidence": _cmd_incidence,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg_all = _load_config(args.config)
        cfg = cfg_all.get(args.command, cfg_all)  # flat or per-command sections
        if not isinstance(cfg, dict):
            raise UsageError(f"config section {args.command!r} must be a JSON object")
        return _COMMANDS[args.command](args, cfg)
    except (UsageError, UnknownCheckError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SumsetLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"usage error: bad JSON ({exc})\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
