"""The benchmark's tracer self-test, run as part of the suite."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selftest_fires_every_span():
    # a change in the package that leaves a benchmark span or ring counter
    # unfired on the self-test points fails here, not only in a traced run
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest: PASS" in proc.stderr
