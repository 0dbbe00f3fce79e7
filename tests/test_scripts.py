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
