"""The golden corpus: five CLI commands give byte-identical artifacts.

`tests/golden/regen.py` holds the commands and regenerates the corpus; see
its docstring for the layout.
"""

import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(os.path.dirname(__file__), "golden", "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_artifacts_are_byte_identical(case):
    got = regen.run_case(regen.CASES[case])
    want = regen.stored(case)
    assert sorted(got) == sorted(want)
    with open(os.path.join(regen.HERE, "VERSIONS"), encoding="utf-8") as fh:
        made_with = fh.read()
    for name in sorted(want):
        assert got[name] == want[name], (
            f"{case}/{name} differs; the corpus was made with {made_with!r}, "
            f"this run has {regen.versions()!r}")
