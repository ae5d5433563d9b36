"""The golden corpus: seven CLI commands give byte-identical artifacts.

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
    with open(os.path.join(regen.HERE, "VERSIONS"), encoding="utf-8") as fh:
        made_with = fh.read()
    assert regen.case_differences(case) == [], (
        f"{case} differs; the corpus was made with {made_with!r}, "
        f"this run has {regen.versions()!r}")


def test_check_writes_nothing_and_names_each_differing_artifact(monkeypatch, capsys):
    monkeypatch.setattr(regen, "CASES", {"usage_error": regen.CASES["usage_error"]})
    monkeypatch.setattr(regen, "regenerate", lambda: pytest.fail("--check wrote the corpus"))
    assert regen.main(["--check"]) == 0
    stored = regen.stored
    monkeypatch.setattr(regen, "stored",
                        lambda case: {**stored(case), "stderr": b"changed\n", "extra": b""})
    assert regen.main(["--check"]) == 1
    assert "usage_error: extra (missing), stderr\n" in capsys.readouterr().out
