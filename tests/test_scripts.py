"""The example scripts and the README's library quick start run end to end;
the scripts write the CSV headers they document, and the rolling SIX demo
writes the bytes ``wcm six`` prints for its prices."""

import os
import subprocess
import sys
from pathlib import Path

from wcm.indices import gaussian_spearman

ROOT = Path(__file__).resolve().parents[1]
SIX_HEADER = "end_date,six,estimator,n_window"


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=src_env(), timeout=120)


def header(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def test_rolling_six_demo(tmp_path):
    proc = run_script("rolling_six_demo.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert header(tmp_path / "prices.csv") == "date,AAA,BBB,CCC,INDEX"
    assert header(tmp_path / "six_raw.csv") == SIX_HEADER
    assert header(tmp_path / "six_detrended.csv") == SIX_HEADER
    argv = [sys.executable, "-m", "wcm.cli", "six", str(tmp_path / "prices.csv"),
            "--window", "84", "--step", "5", "--index-column", "INDEX"]
    for name, extra in (("six_raw.csv", []), ("six_detrended.csv", ["--detrend"])):
        cli = subprocess.run(argv + extra, capture_output=True, env=src_env(), timeout=120)
        assert cli.returncode == 0, cli.stderr
        assert (tmp_path / name).read_bytes() == cli.stdout, name


def test_rhix_vs_six_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("rhix_vs_six_sweep.py", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    levels = ["0.25", "0.5", "0.75"]
    expected = ["sigma"] + [f"rhix_{r}" for r in levels] + [f"six_{r}" for r in levels]
    assert header(out) == ",".join(expected)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 50  # sigma 0.1 to 5.0 by 0.1
    # the copula never changes along the sweep, so each SIX column is one float
    for k, level in enumerate(levels):
        assert {row[1 + len(levels) + k] for row in rows} == {repr(gaussian_spearman(float(level)))}


def test_readme_library_quick_start_runs():
    # The block calls the package as a reader would, so it fails when a name it
    # cites is removed or renamed.
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
