"""The pytest configuration in ``pyproject.toml``: a failing test ends only itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # with warnings as errors, the DeprecationWarning hypothesis's failure
    # patch raises once made the run an INTERNALERROR before test_passes ran
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
