"""The narrative demos and the README quickstart run from a fresh checkout
with ``PYTHONPATH=src``.

Demo 01 round-trips a signal through the STFT and ISTFT, demo 02 builds a
labeled corpus, demo 03 trains both models, demo 04 enhances and scores an
utterance and demo 05 runs adaptive enhancement across a noise level step.
Demo 04 writes WAV files next to itself, so it runs from a copy in a
temporary directory.  Together with the quickstart they import names
through ``nnmm`` only, so they guard the package's ``__all__``; demo 04 is
the one that imports ``write_wav`` and ``log_spectral_distance``.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", ["01_stft_round_trip.py", "02_synthetic_corpus.py",
                                  "03_train_models.py", "05_noise_tracking.py"])
def test_demo_exits_cleanly(demo):
    result = run_python([str(ROOT / "demos" / demo)])
    assert result.returncode == 0, result.stderr


def test_enhance_demo_writes_its_wavs(tmp_path):
    demo = tmp_path / "04_enhance.py"
    shutil.copy(ROOT / "demos" / "04_enhance.py", demo)
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr
    assert "default run:" in result.stdout
    assert (tmp_path / "noisy.wav").exists() and (tmp_path / "enhanced.wav").exists()


def test_readme_quickstart_runs():
    """The first python block under "Library quickstart" runs as written."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert "->" in result.stdout
