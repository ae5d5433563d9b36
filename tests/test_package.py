import ast
import os
import subprocess
import sys
from pathlib import Path

import sumsetlab

PACKAGE_DIR = Path(sumsetlab.__file__).parent


def test_package_has_no_bare_assert():
    # runtime invariants must raise: `python -O` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_hash_based_unique():
    # numpy's np.unique without return_counts takes a hash-table path that
    # is an order of magnitude slower than a sort; count distinct values by
    # sorting instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "unique" and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in ("np", "numpy"):
                counts = [kw for kw in node.keywords if kw.arg == "return_counts"]
                if not (counts and isinstance(counts[0].value, ast.Constant)
                        and counts[0].value.value is True):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_has_no_bincount():
    # tables and cardinalities sort in place: a histogram costs 8 bytes per
    # unit of value span, and measured 3-8x slower than the sort on
    # difference tables whose span is about 2-8 times the pair count
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "bincount" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert found == []


def test_finite_set_keeps_no_hash_table():
    # a FiniteSet answers membership by bisection on its sorted elements;
    # no module builds a frozenset copy of a set's values
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "frozenset" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert found == []
    assert not hasattr(sumsetlab.FiniteSet, "members")
    assert not hasattr(sumsetlab.make_set([1, 2]), "members")


def test_package_does_not_import_mpmath():
    # mpmath is a test-only oracle; the exact threshold fallback uses decimal
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath")
    ]
    assert found == []


def test_import_leaves_out_the_process_pool():
    # concurrent.futures (and multiprocessing with it) loads only when a scan
    # runs on more than one worker; every other run is spared its import time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, sumsetlab, sumsetlab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_only_the_judge_decides_a_verdict():
    # checks measure and `run_check` judges: the verdicts a measurement can
    # earn are named, and a CheckResult is built, only in run_check and its
    # judging helper.  CheckResult's own properties read a verdict, and its
    # `unmeasured` constructor carries a skip or fault verdict it is handed.
    judges = {"run_check", "_judge"}
    tree = ast.parse((PACKAGE_DIR / "verifier.py").read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in judges:
            continue
        if isinstance(top, ast.ClassDef) and top.name == "CheckResult":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in ("pass", "fail", "ratio-report"):
                found.append(f"{getattr(top, 'name', type(top).__name__)}:{node.lineno}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "CheckResult":
                found.append(f"{getattr(top, 'name', type(top).__name__)}:{node.lineno}")
    assert found == []
    assert {name for name in judges
            if any(isinstance(t, ast.FunctionDef) and t.name == name for t in tree.body)} == judges
