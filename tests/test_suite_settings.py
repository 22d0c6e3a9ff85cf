import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parents[1]


def test_failing_property_reports_its_example(tmp_path):
    # with warnings as errors, a failing @given test must still be
    # reported with its example, and the run go on to the next test
    (tmp_path / "test_example.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(REPO), "-p", "no:cacheprovider",
         str(tmp_path / "test_example.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout
