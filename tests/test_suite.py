"""The test suite's own configuration: every failure is reported."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_given_test_fails(n):
    assert n < 0


def test_a_later_test_fails():
    assert False
'''


def test_a_failing_given_test_stops_no_later_test(tmp_path):
    """Under the repository's pyproject.toml, whose filterwarnings turns every warning into
    an error, and this conftest.py, a failing @given test and a later failing test are
    both reported, and pytest ends without INTERNALERROR."""
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout
