"""Golden artifacts: the byte-identical outputs of seven fixed CLI commands.

Each case is a `sumsetlab` command line.  Its artifacts are its stdout,
its stderr, its exit code and every file it writes; they live in
`tests/golden/<case>/` as `stdout`, `stderr`, `exit` and the written files
under their own names.  `tests/test_golden.py` runs every case and compares
the artifacts byte for byte.  Float fields are reprs of libm results, so
`VERSIONS` records the Python and numpy versions the corpus was made with.

Regenerate the corpus (and `VERSIONS`) with

    PYTHONPATH=src python tests/golden/regen.py

and list every changed line, with its cause, in CHANGES.md.  With `--check`
the script writes nothing: it runs every case, names each case and artifact
that differs from the corpus, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import platform
import shutil
import sys
import tempfile

import numpy as np

from sumsetlab import cli
from sumsetlab.verifier import DEFAULT_VERIFY_CHECKS

HERE = os.path.dirname(os.path.abspath(__file__))

# case name -> argv; "{name}" stands for the path of a written file `name`
CASES = {
    "scan_gp": ["scan", "--families", "GP(1,2),GP(1,3),GP(3,5/2)", "--sizes", "16,64,200",
                "--checks", ",".join(DEFAULT_VERIFY_CHECKS + ("thm_sp",)),
                "--out", "{scan.csv}"],
    "scan_refinement": ["scan", "--families", "AP(1,1),ConvexPower(2),RandomSubset(100000)",
                        "--sizes", "64,128", "--checks", "sum_proj,rich_size,diff_proj,st_measure",
                        "--out", "{scan.csv}"],
    "verify_gp": ["verify", "--family", "GP(1,2)", "--n", "80"],
    "stats_gp": ["stats", "--family", "GP(1,2)", "--n", "64", "--format", "json"],
    "usage_error": ["scan", "--families", "AP(1,1)", "--sizes", "16"],
    # the determinism scan of acceptance criterion 7, at one job
    "scan_criterion7": ["scan", "--families", "AP(1,1),GP(1,2),RandomSubset(8000)",
                        "--sizes", "16,32", "--checks", "cs_energy,diff_proj,thm_sp",
                        "--seed", "11", "--jobs", "1", "--out", "{scan.csv}"],
    # four blocked FFT tables (K = 5), two of them with Q != P
    "scan_fft": ["scan", "--families", "RandomSubset(600000)", "--sizes", "300,400",
                 "--checks", "diff_proj,sum_proj", "--out", "{scan.csv}"],
}


def versions() -> str:
    return f"python {platform.python_version()}\nnumpy {np.__version__}\n"


def run_case(argv: list[str]) -> dict[str, bytes]:
    """The artifacts of one command, run in-process: name -> bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        written = [a[1:-1] for a in argv if a.startswith("{") and a.endswith("}")]
        args = [os.path.join(tmp, a[1:-1]) if a[1:-1] in written else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        artifacts = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode(),
                     "exit": f"{code}\n".encode()}
        for name in written:
            with open(os.path.join(tmp, name), "rb") as fh:
                artifacts[name] = fh.read()
    return artifacts


def stored(case: str) -> dict[str, bytes]:
    """The committed artifacts of one case: name -> bytes."""
    folder = os.path.join(HERE, case)
    artifacts = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            artifacts[name] = fh.read()
    return artifacts


def case_differences(case: str) -> list[str]:
    """The artifacts of one case that differ from the corpus, each marked
    when it is missing from the run or new to it; [] when all are equal."""
    got = run_case(CASES[case])
    want = stored(case) if os.path.isdir(os.path.join(HERE, case)) else {}
    return [name + ("" if name in got and name in want
                    else " (missing)" if name in want else " (new)")
            for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)]


def differences() -> list[str]:
    """One line per case whose artifacts differ from the corpus."""
    lines = []
    for case in CASES:
        bad = case_differences(case)
        if bad:
            lines.append(f"{case}: " + ", ".join(bad))
    return lines


def regenerate() -> None:
    for case, argv in CASES.items():
        folder = os.path.join(HERE, case)
        shutil.rmtree(folder, ignore_errors=True)
        os.makedirs(folder)
        for name, data in run_case(argv).items():
            with open(os.path.join(folder, name), "wb") as fh:
                fh.write(data)
    with open(os.path.join(HERE, "VERSIONS"), "w", encoding="utf-8") as fh:
        fh.write(versions())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden corpus.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; name every case and artifact that differs")
    args = parser.parse_args(argv)
    if not args.check:
        regenerate()
        sys.stdout.write(f"wrote {len(CASES)} cases to {HERE}\n")
        return 0
    lines = differences()
    for line in lines:
        sys.stdout.write(line + "\n")
    if lines:
        with open(os.path.join(HERE, "VERSIONS"), encoding="utf-8") as fh:
            made_with = fh.read()
        if made_with != versions():
            sys.stdout.write(f"the corpus was made with {made_with!r}, "
                             f"this run has {versions()!r}\n")
        return 1
    sys.stdout.write(f"all {len(CASES)} cases are byte-identical\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
