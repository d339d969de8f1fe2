"""Smoke tests of the benchmark at a tiny size.

Every workload passes its checks, the traced run reports its layers without
changing any output, and a corrupted output is counted as failed.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

# The program reports the halted ticker's dropped pairs as a warning.
pytestmark = pytest.mark.filterwarnings("ignore:dropped constant-column pairs")

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from panel import PanelSpec  # noqa: E402
from spans import Hook, Recorder, covered  # noqa: E402

TINY = {
    "six-rank": dataclasses.replace(
        workloads.SIX_RANK,
        panel=PanelSpec(tickers=4, kept_rows=90, malformed_rows=5, halt_start=2, halt_rows=86)),
    "six-lognormal": dataclasses.replace(
        workloads.SIX_LOGNORMAL,
        panel=PanelSpec(tickers=5, kept_rows=127, malformed_rows=5, halt_start=3, halt_rows=90,
                        index_column="MKT")),
    # Two batches, so --threads 2 really splits the work.
    "mc-bounds": dataclasses.replace(workloads.MC_BOUNDS, draws=2**18 + 2**12),
    "sample-csv": dataclasses.replace(workloads.SAMPLE_CSV, rows=300),
}


def make(name, tmp_path, seed=7):
    return workloads.make(name, seed, tmp_path, TINY[name])


def failures(checks):
    return [name for name, ok in checks if not ok]


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_every_check(name, tmp_path):
    wl = make(name, tmp_path)
    checks = wl.check(wl.iterate())
    assert len(checks) >= 5
    assert failures(checks) == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_iteration_keeps_outputs_and_repeats_counts(name, tmp_path):
    wl = make(name, tmp_path)
    plain = wl.iterate()
    calls = wl.iterate(trace=True, run="a")
    metrics = wl.layer_metrics(calls)
    again = wl.layer_metrics(wl.iterate(trace=True, run="b"))
    assert {k: c.digest for k, c in calls.items()} == {k: c.digest for k, c in plain.items()}
    assert all(c.code == 0 for c in calls.values())
    assert metrics["cli.main_s"] > 0.0
    counts = [k for k in metrics if "_s" not in k and "speedup" not in k]
    assert counts and {k: metrics[k] for k in counts} == {k: again[k] for k in counts}


def test_every_call_runs_cold_in_its_own_process(tmp_path):
    wl = make("six-rank", tmp_path)
    (one,), (two,) = wl.iterate().values(), wl.iterate().values()
    assert one.import_s > 0.0 and two.import_s > 0.0
    assert one.digest == two.digest


def test_six_layer_counts_match_the_generator(tmp_path):
    wl = make("six-rank", tmp_path)
    metrics = wl.layer_metrics(wl.iterate(trace=True))
    spec = TINY["six-rank"].panel
    assert metrics["data.rows_read"] == spec.kept_rows + spec.malformed_rows
    assert metrics["data.rows_dropped"] == spec.malformed_rows
    assert metrics["data.windows"] == wl.items == 6
    assert metrics["data.pairs_dropped"] == wl.pairs_dropped == 2 * (spec.tickers - 1)


def test_six_stages_time_the_calls_the_program_makes(tmp_path):
    (tmp_path / "rank").mkdir()
    (tmp_path / "lognormal").mkdir()
    rank = make("six-rank", tmp_path / "rank")
    lognormal = make("six-lognormal", tmp_path / "lognormal")
    for wl, stage, other in ((rank, "indices.spearman_matrix", "indices.gaussian_spearman"),
                             (lognormal, "indices.gaussian_spearman", "indices.spearman_matrix")):
        calls = wl.iterate(trace=True)
        spans = calls["main"].spans
        (rolling,) = [s for s in spans if s.name == "data.rolling_six"]
        inner = [s for s in spans if s.name == stage]
        assert inner and all(s.parent == rolling.id for s in inner)
        assert not [s for s in spans if s.name == other]
        metrics = wl.layer_metrics(calls)
        assert 0.0 < metrics["data.rolling_six_self_s"] < metrics["data.rolling_six_s"]
        assert metrics[f"{stage}_s"] > 0.0


def test_pool_thread_spans_nest_under_mc_variance(tmp_path):
    wl = make("mc-bounds", tmp_path)
    calls = wl.iterate(trace=True, run="t")
    metrics = wl.layer_metrics(calls)
    two = calls["2t"].spans
    assert all(s.run == "t/2t" for s in two)
    (mc,) = [s for s in two if s.name == "bounds.mc_variance"]
    samples = [s for s in two if s.name == "copula.sample"]
    assert len(samples) == metrics["bounds.batches"] == 2
    assert all(s.parent == mc.id for s in samples)


def test_perturbed_six_value_fails(tmp_path):
    wl = make("six-rank", tmp_path)
    first = wl.iterate()
    path = first["main"].files[0]
    payload = json.loads(path.read_text())
    payload["entries"][0]["six"] += 1e-9
    path.write_text(json.dumps(payload))
    assert failures(wl.check(first)) == ["six-rank.reference[0]"]


def test_row_off_the_support_fails(tmp_path):
    wl = make("sample-csv", tmp_path)
    first = wl.iterate()
    path = first["main"].files[0]
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) * 0.5)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert set(failures(wl.check(first))) == {
        "sample-csv.check_wcm", "sample-csv.support", "sample-csv.digest"}


def test_estimates_differing_between_thread_counts_fail(tmp_path):
    wl = make("mc-bounds", tmp_path)
    first = wl.iterate()
    payload = json.loads(first["2t"].stdout)
    payload["mc"]["estimate"] *= 1.0 + 2**-50
    first["2t"].stdout = json.dumps(payload)
    assert failures(wl.check(first)) == ["mc-bounds.threads_identical"]


def test_covered_merges_overlapping_children():
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 6.5) == pytest.approx(3.5)


def test_parse_importtime_charges_each_module_without_nested_wcm():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |        900 |       numpy",
        "import time:        10 |         10 |         wcm.weights",
        "import time:        30 |         40 |       wcm.copula",
        "import time:        20 |        960 |     wcm.bounds",
        "import time:         5 |        965 |   wcm",
        "import time:         7 |        972 | wcm.cli",
    ])
    got = run.parse_importtime(text)
    assert got == pytest.approx({"weights": 10e-6, "copula": 30e-6, "bounds": 920e-6,
                                 "cli": 7e-6})


def test_a_missing_hook_target_raises():
    with pytest.raises(KeyError):
        with Recorder().patched([Hook("wcm.data", "no_such_function", "data.none")]):
            pass


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "six-rank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
