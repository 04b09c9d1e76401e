"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_is_one_failure(tmp_path):
    # hypothesis's plugin warns while it reports a falsifying example, and
    # filterwarnings = ["error"] alone would turn that into an INTERNALERROR
    # that ends the session
    (tmp_path / "test_property.py").write_text(ONE_FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in done.stdout, output
    assert "INTERNALERROR" not in output
