"""The example scripts run end to end and write the CSV headers they document."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIX_HEADER = "end_date,six,estimator,n_window"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def header(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def test_rolling_six_demo(tmp_path):
    proc = run_script("rolling_six_demo.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert header(tmp_path / "prices.csv") == "date,AAA,BBB,CCC,INDEX"
    assert header(tmp_path / "six_raw.csv") == SIX_HEADER
    assert header(tmp_path / "six_detrended.csv") == SIX_HEADER


def test_rhix_vs_six_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("rhix_vs_six_sweep.py", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    levels = ["0.25", "0.5", "0.75"]
    expected = ["sigma"] + [f"rhix_{r}" for r in levels] + [f"six_{r}" for r in levels]
    assert header(out) == ",".join(expected)
    assert len(out.read_text().splitlines()) == 1 + 50  # sigma 0.1 to 5.0 by 0.1
