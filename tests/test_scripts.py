"""Smoke runs of the sweep scripts at their smallest sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SWEEPS = [
    (
        "robustness_sweep.py",
        ["--n", "500", "--exact-n", "64", "--mus", "0.0", "0.5", "--trials", "1"],
        "robustness_sweep.csv",
        5,
    ),
    (
        "round_complexity_sweep.py",
        ["--ns", "1000", "--eps", "0.1", "--trials", "1"],
        "round_complexity.csv",
        2,
    ),
]


@pytest.mark.parametrize("script,args,csv_name,lines", SWEEPS)
def test_sweep_writes_csv(tmp_path, script, args, csv_name, lines):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / csv_name).read_text().splitlines()
    assert rows[0].startswith("experiment,n,phi,eps,mu,seed,")
    assert len(rows) == lines
