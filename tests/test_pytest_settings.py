"""The repository's pytest settings report a failing property test.

`pyproject.toml` turns every warning into an error.  When a property test
fails, hypothesis's report hook touches the deprecated
`mypy_extensions.TypedDict`; as an error, that warning ended the session in
an INTERNALERROR that hid the falsifying example and ran no later test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_test_shows_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(_TESTS)
    argv = ["-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, *argv, "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
