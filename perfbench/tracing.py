"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced public function with a timing wrapper
in every `sumsetlab` module that binds it.  The modules import each other's
functions by name (`verifier`, `constructions`, `cli` and the package all
bind `rep_fn`), so wrapping only the defining module would miss their
calls.  Modules are looked up in `sys.modules`: the package re-exports the
function `energy`, so the attribute `sumsetlab.energy` (and hence
`import sumsetlab.energy as m`) is that function, not the module.

Per-element helpers such as `as_rational` are not wrapped: one verify round
calls them millions of times and the wrapper would cost more than they do.

Each call becomes a span (id, name, start, end, parent span id, item) kept
in memory and written out by `write_spans` when the run ends.  A span's
self time is its duration less the durations of its direct wrapped
children.  Untraced runs never construct a Tracer, so they run the
program's own functions.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run
TRACED = (
    ("sets", "gen_family"),
    ("energy", "rep_fn"),
    ("energy", "pair_set_size"),
    ("energy", "energy"),
    ("energy", "projection_count"),
    ("constructions", "popular_difference_mass"),
    ("constructions", "rich_difference_elements"),
    ("constructions", "refine_rich_core"),
    ("constructions", "popular_sums"),
    ("constructions", "rich_sum_elements"),
    ("constructions", "dominant_dyadic_class"),
    ("constructions", "count_popular_sum_triples"),
    ("constructions", "count_popular_difference_triples"),
    ("incidence", "count_incidences_lines"),
    ("verifier", "run_check"),
    ("verifier", "run_scan"),
    ("verifier", "search_extremal"),
    ("cli", "main"),
)

# The FFT kernel behind projection_count's "poly" path.  It is counted, not
# timed, to tell the hash loop's pair operations apart; without it every
# completed projection_count call counts as a loop call.
_FFT_KERNEL = ("energy", "_difference_counts_fft")

# Stats reported per traced function; "s" is inclusive time, "self_s" the
# time less wrapped callees.  Extra counters are filled by the hooks below.
REPORTED = {
    "sets.gen_family": ("calls", "s"),
    "energy.rep_fn": ("calls", "s", "pairs", "dict_calls", "dict_s", "repeat_calls"),
    "energy.pair_set_size": ("calls", "s", "pairs"),
    "energy.energy": ("calls", "s"),
    "energy.projection_count": ("calls", "s", "loop_pairs", "budget_trips"),
    "constructions.popular_difference_mass": ("calls", "self_s"),
    "constructions.rich_difference_elements": ("calls", "self_s"),
    "constructions.refine_rich_core": ("calls", "self_s", "iterates"),
    "constructions.popular_sums": ("calls", "self_s"),
    "constructions.rich_sum_elements": ("calls", "self_s"),
    "constructions.dominant_dyadic_class": ("calls", "self_s"),
    "constructions.count_popular_sum_triples": ("calls", "self_s"),
    "constructions.count_popular_difference_triples": ("calls", "self_s"),
    "incidence.count_incidences_lines": ("calls", "s"),
    "verifier.run_check": ("calls", "self_s", "skipped"),
    "verifier.run_scan": ("self_s",),
    "verifier.search_extremal": ("calls", "s", "evals"),
    "cli.main": ("calls", "self_s"),
}

TIME_STATS = ("s", "self_s", "dict_s")


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return [f"{fn}.{stat}" for fn, stats in REPORTED.items() for stat in stats]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sumsetlab" or name.startswith("sumsetlab."))]


class Tracer:
    """Wraps the traced functions and accumulates spans and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.item = "setup"
        self._stack: list[list] = []  # [span id, child time] of open spans
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._fft_calls = 0
        self._seen_reps: set = set()
        self._restore: list[tuple] = []
        # phase -> "module.function.stat" -> value
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        self._budget_error = sys.modules["sumsetlab.errors"].BudgetExceededError
        fft_owner = sys.modules["sumsetlab." + _FFT_KERNEL[0]]
        if hasattr(fft_owner, _FFT_KERNEL[1]):
            self._replace(modules, getattr(fft_owner, _FFT_KERNEL[1]),
                          self._count_fft(getattr(fft_owner, _FFT_KERNEL[1])))
        else:
            sys.stderr.write("trace: no FFT kernel found; all projection pairs count as loop pairs\n")
            self._fft_calls = None
        for mod, fname in TRACED:
            orig = getattr(sys.modules["sumsetlab." + mod], fname)
            self._replace(modules, orig, self._wrap(f"{mod}.{fname}", orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _replace(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, orig))

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._fft_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            outer = self._depth[name] == 0
            self._depth[name] += 1
            fft_before = self._fft_calls
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                self._depth[name] -= 1
                self._stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                self.spans.append((span_id, name, t0, t1,
                                   parent[0] if parent is not None else None, self.item))
                tot = self.totals[self.phase]
                tot[name + ".calls"] += 1
                if outer:
                    tot[name + ".s"] += dur
                tot[name + ".self_s"] += dur - frame[1]
                if hook is not None:
                    hook(tot, name, dur, args, kwargs, result, exc, fft_before)
        return wrapper

    # -- counters --------------------------------------------------------------

    def start_item(self, phase: str, item: str) -> None:
        self.phase, self.item = phase, item
        self._seen_reps.clear()

    def _hook_rep_fn(self, tot, name, dur, args, kwargs, result, exc, fft_before):
        A, B, op = _bind(args, kwargs, ("A", "B", "op"))
        tot[name + ".pairs"] += len(A) * len(B)
        if result is not None and not result.is_numpy:
            tot[name + ".dict_calls"] += 1
            tot[name + ".dict_s"] += dur
        key = (A.elements, B.elements, op)
        if key in self._seen_reps:
            tot[name + ".repeat_calls"] += 1
        self._seen_reps.add(key)

    def _hook_pair_set_size(self, tot, name, dur, args, kwargs, result, exc, fft_before):
        A, B = _bind(args, kwargs, ("A", "B"))
        tot[name + ".pairs"] += len(A) * len(B)

    def _hook_projection_count(self, tot, name, dur, args, kwargs, result, exc, fft_before):
        if exc is not None:
            if isinstance(exc, self._budget_error):
                tot[name + ".budget_trips"] += 1
            return
        if self._fft_calls is not None and self._fft_calls != fft_before:
            return
        P, Q = _bind(args, kwargs, ("P", "Q"))
        tot[name + ".loop_pairs"] += len(P) * min(len(P), len(Q))

    def _hook_refine_rich_core(self, tot, name, dur, args, kwargs, result, exc, fft_before):
        if result is not None:
            tot[name + ".iterates"] += len(result[1].iterates)

    def _hook_run_check(self, tot, name, dur, args, kwargs, result, exc, fft_before):
        if result is not None and result.skipped:
            tot[name + ".skipped"] += 1

    def _hook_search_extremal(self, tot, name, dur, args, kwargs, result, exc, fft_before):
        if result is not None:
            tot[name + ".evals"] += len(result.trajectory)

    # -- reporting -------------------------------------------------------------

    def metrics(self, rounds: list[str]) -> dict[str, float]:
        """Each stat as set-up total plus the median over rounds of the round total."""
        setup = self.totals.get("setup", {})
        out = {}
        for full in metric_names():
            per_round = [self.totals.get(r, {}).get(full, 0.0) for r in rounds]
            value = setup.get(full, 0.0) + (statistics.median(per_round) if per_round else 0.0)
            stat = full.rsplit(".", 1)[1]
            out[full] = float(value) if stat in TIME_STATS else int(round(value))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")


def _bind(args, kwargs, names):
    """The first len(names) arguments of a call, positional or by keyword."""
    return tuple(args[i] if i < len(args) else kwargs[n] for i, n in enumerate(names))
