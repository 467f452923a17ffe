"""Smoke runs of the experiment scripts at their default parameter point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        ("symmetric_quench.py", ["--t-max", "200"], ["dynamics.csv"]),
        ("droplet_survey.py", [], ["spectrum.csv", "pair_corr.csv"]),
    ],
)
def test_script_runs(tmp_path, script, args, outputs):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    for name in outputs:
        assert (tmp_path / name).read_text().count("\n") > 1
