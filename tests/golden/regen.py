"""Golden artifacts: the byte-identical outputs of five fixed CLI commands.

Each case is a `sumsetlab` command line.  Its artifacts are its stdout,
its stderr, its exit code and every file it writes; they live in
`tests/golden/<case>/` as `stdout`, `stderr`, `exit` and the written files
under their own names.  `tests/test_golden.py` runs every case and compares
the artifacts byte for byte.  Float fields are reprs of libm results, so
`VERSIONS` records the Python and numpy versions the corpus was made with.

Regenerate the corpus (and `VERSIONS`) with

    PYTHONPATH=src python tests/golden/regen.py

and list every changed line, with its cause, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import shutil
import sys
import tempfile

import numpy as np

from sumsetlab.cli import main
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
            code = main(args)
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


if __name__ == "__main__":
    regenerate()
    sys.stdout.write(f"wrote {len(CASES)} cases to {HERE}\n")
