"""sumsetlab benchmark: one workload in a fresh process, checked against oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-int --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from --seed, then repeats the
workload's fixed item list in whole rounds until --seconds have passed, and
checks the first round's outputs against the benchmark's own oracles (later
rounds must repeat them exactly).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (wall_s, item_p50_s, setup_s,
peak_rss_mb); --trace 1 wraps the program's public functions from outside
(see tracing.py), reports the per-layer metrics, writes the spans to
perfbench/out/, and runs one more untraced round whose outputs must equal
the traced ones.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS/OpenMP thread, set before numpy loads: the float matmul in
# count_popular_difference_triples would otherwise use both cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is measured in this many fresh interpreters per untraced run.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

# The speed probe's median time on the reference machine (see README.md):
# times are reported at the speed at which one probe takes this long.
PROBE_REF_S = 0.009


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: do the set-up alone and print the monotonic clock when done
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import sumsetlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sumsetlab", "__init__.py")):
        raise SystemExit(f"benchmark: no sumsetlab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import sumsetlab

    if not os.path.abspath(sumsetlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: sumsetlab imported from {sumsetlab.__file__}")
    import workloads

    return workloads


def _setup_samples(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading at the end of its set-up is comparable with ours at the spawn.
    """
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ready, probe_s = (float(v) for v in proc.stdout.split()[-2:])
        samples.append((ready - t0) * PROBE_REF_S / probe_s)
    return samples


class SpeedProbe:
    """A fixed mix of interpreter and numpy work whose time tracks machine speed.

    The machine this benchmark was tuned on changes speed by up to 1.8x over
    tens of seconds (other tenants share its cores), and every item slows
    with it.  A probe run between consecutive items measures the speed
    around each item; item times are rescaled by PROBE_REF_S / probe time.
    """

    def __init__(self):
        self._data = np.random.default_rng(20261018).integers(0, 1 << 30, 20_000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        a = self._data.copy()
        a.sort()
        np.unique(a)
        return time.perf_counter() - t0


def _digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def _run_round(wl, items, tracer, phase, probe):
    """One pass over the item list, with a speed probe before each item and
    after the last: (outputs, item seconds, probe seconds, failed item indices)."""
    gc.collect()
    outputs, times, probes, failed = [], [], [], set()
    for i, item in enumerate(items):
        prepared = wl.prepare(item)
        probes.append(probe())
        if tracer is not None:
            tracer.start_item(phase, f"{phase}:{i}")
        t0 = time.perf_counter()
        try:
            out = wl.call(prepared)
        except Exception as exc:  # an item that raises counts as failed
            failed.add(i)
            out = repr(exc)
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    probes.append(probe())
    return outputs, times, probes, failed


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"one of {sorted(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        workloads.warm_up()
        wl.setup(args.seed)
        ready = time.perf_counter()
        probe = SpeedProbe()
        print(repr(ready), repr(statistics.median(probe() for _ in range(3))))
        return 0

    setup_s = None if args.trace else statistics.median(_setup_samples(args))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl.out_dir = scratch
        workloads.warm_up()
        items = wl.setup(args.seed)

        probe = SpeedProbe()
        rounds, raw_round_s, round_s, digests = [], [], [], []
        item_s = [[] for _ in items]  # per item, its time in each round
        attempted = failed = 0
        first_outputs = first_failed = None
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            phase = f"round{len(rounds)}"
            outputs, times, probes, failed_items = _run_round(wl, items, tracer, phase, probe)
            rounds.append(phase)
            # the round's speed: its median probe, against the reference
            scale = PROBE_REF_S / statistics.median(probes)
            raw_round_s.append(sum(times))
            round_s.append(sum(times) * scale)
            for per_round, t in zip(item_s, times):
                per_round.append(t * scale)
            digests.append(_digest(outputs))
            attempted += len(items)
            failed += len(failed_items)
            if first_outputs is None:
                first_outputs, first_failed = outputs, failed_items
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = []
        if len(set(digests)) != 1:
            problems.append("rounds gave different outputs")
        if tracer is not None:
            tracer.uninstall()
            untraced = _run_round(wl, items, None, "untraced", probe)[0]
            if _digest(untraced) != digests[0]:
                problems.append("traced and untraced outputs differ")
        for i, (item, out) in enumerate(zip(items, first_outputs)):
            if i not in first_failed:
                problems += wl.check(item, out)
    for line in problems:
        sys.stderr.write(f"check: {line}\n")
    sys.stderr.write(f"rounds: {len(rounds)}; seconds each, raw: "
                     f"{' '.join(f'{t:.3f}' for t in raw_round_s)}; at reference speed: "
                     f"{' '.join(f'{t:.3f}' for t in round_s)}\n")

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(round_s), "s"),
            "item_p50_s": (statistics.median(statistics.median(ts) for ts in item_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: (value, "s" if name.rsplit(".", 1)[1] in tracing.TIME_STATS
                          else "count")
                   for name, value in tracer.metrics(rounds).items()}
        metrics["trace.wall_s"] = (statistics.median(round_s), "s")
        tracer.write_spans(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
