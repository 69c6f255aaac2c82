"""The suite's own pytest settings keep a failing property test a plain
failure. Every warning is an error there, and hypothesis's failure report
imports a module that warns; unless that one warning is ignored, the report
becomes an INTERNALERROR that stops the run before the later tests."""

import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    lines = "".join(f"    {rule}\n" for rule in options["filterwarnings"])
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings =\n{lines}")
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_pair.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
