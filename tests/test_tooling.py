"""The test suite's own configuration: how pytest treats warnings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_SUITE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 10


def test_a_stray_warning():
    warnings.warn("stray", DeprecationWarning)


def test_a_passing_test():
    pass
'''


def test_a_failing_property_is_reported_and_every_other_warning_still_fails(tmp_path):
    # Reporting a failed property imports libcst, which warns about
    # mypy_extensions.TypedDict; under a blanket "error" filter that aborts the run.
    (tmp_path / "test_suite.py").write_text(_SUITE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_suite.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "FAILED test_suite.py::test_a_failing_property" in done.stdout
    assert "FAILED test_suite.py::test_a_stray_warning" in done.stdout
    assert "2 failed, 1 passed" in done.stdout
