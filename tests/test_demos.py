import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_hnn_demo_golden():
    # The whole output of the HNN walkthrough: normal forms, stable-letter counts, equalities, twists.
    script = DEMO_DIR / "04_hnn_britton_twists.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DATA / "demo_04_hnn_britton_twists.txt").read_text()
