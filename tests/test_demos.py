"""Each demo script runs to completion against the public API and draws its chart.

The chart must match, byte for byte, the one committed under ``demos/out``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_writes_svg(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    charts = list(tmp_path.glob("*.svg"))
    assert charts
    for chart in charts:
        assert chart.read_bytes() == (ROOT / "demos" / "out" / chart.name).read_bytes(), chart.name
