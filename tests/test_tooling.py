"""The test suite's own settings: how pytest reports a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_hypothesis_test_shows_its_falsifying_example(tmp_path):
    # Under the suite's ini every warning is an error; a failing property
    # test must still end as a plain failure that names its example, not
    # as an INTERNALERROR raised while hypothesis reports it.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output
