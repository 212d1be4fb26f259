"""The narrative demos run from a fresh checkout with ``PYTHONPATH=src``.

Demo 01 round-trips a signal through the STFT and ISTFT; demo 05 runs
adaptive enhancement across a noise level step.  Neither writes files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_stft_round_trip.py", "05_noise_tracking.py"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
