import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_demo_prints_every_strategy_row():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "quick_demo.py"),
                           "--budget", "400"],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.splitlines() if line.endswith(" 400")]
    assert len(rows) == 5


FAILING_GIVEN_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_is_an_ordinary_failure(tmp_path):
    # Under the project's warning filters, reporting a failing @given example
    # must not abort the session: pytest exits 1 and the next test still runs.
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN_THEN_PASSING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                           "test_given.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, f"exit {done.returncode}: {done.stdout[-3000:]}"
    assert "1 failed, 1 passed" in done.stdout
