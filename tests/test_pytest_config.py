"""The test settings report a failing Hypothesis test and run on.

``pyproject.toml`` turns every warning into an error.  A warning raised
while Hypothesis writes its failure report must not end the session in
an ``INTERNALERROR`` that hides the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_next():
    print("the next test ran")
'''


def test_failing_hypothesis_test_is_reported_and_the_session_runs_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "Falsifying example" in out
    assert "the next test ran" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
