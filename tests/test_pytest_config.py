"""The pytest configuration in ``pyproject.toml``: a failing test ends only itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def run_failing_property_test(tmp_path) -> str:
    """The output of a run of ``FAILING_PROPERTY_THEN_PASSING`` beside the suite's conftest."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    return output


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # with warnings as errors, the DeprecationWarning hypothesis's failure
    # patch raises once made the run an INTERNALERROR before test_passes ran
    output = run_failing_property_test(tmp_path)
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_failing_property_test_prints_the_draw_that_replays_it(tmp_path):
    assert "@reproduce_failure(" in run_failing_property_test(tmp_path)
