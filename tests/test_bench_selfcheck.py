"""The benchmark's fast self-check runs clean against the package, so the
public names the benchmark calls cannot be renamed or removed unnoticed."""

import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parents[1] / "perfbench" / "selfcheck.py"


def test_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFCHECK)],
        cwd=SELFCHECK.parents[1],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selfcheck: ok" in proc.stdout
