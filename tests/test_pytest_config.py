"""The repository's pytest configuration reports every failure of a session.

``filterwarnings = ["error"]`` turns any warning into an error, including
one raised inside a plugin's hook.  Here a child pytest runs with the
repository's configuration on a file whose first test is a failing
Hypothesis test: the session must report its falsifying example and go on
to the tests after it, not end with an INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_given_fails(x):
    assert x < 5


def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_FILE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_given_fails(" in out
    assert "2 failed, 1 passed" in out
    assert run.returncode == 1   # tests failed; 3 would be an internal error
