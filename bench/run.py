"""Benchmark of the wcm command line: seeded inputs, timed calls, checked outputs.

    python3 bench/run.py --workload six-rank --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from a checkout: the program is imported from ``src/`` beside this
directory.  Each CLI call runs cold, in a fresh process of its own
(``worker.py``), one after another for ``--seconds``.  With ``--trace 0`` a
run prints the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it alternates untraced and traced calls and prints the per-layer metrics.
The last line of stdout is one JSON object; the lines before it give each
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import dump

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("six-rank", "six-lognormal", "mc-bounds", "sample-csv")
# Fresh interpreters that report each module's import time for the traced run.
IMPORTTIME_CHILDREN = 3
MODULES = ("weights", "copula", "bounds", "indices", "data", "cli")


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds to import each ``wcm.<module>``, from ``-X importtime`` output.

    A module is charged its own time plus the third-party modules it is first
    to import (scipy.stats lands on ``indices``), but not other wcm modules.
    Children are listed before their parent, one indent level deeper.
    """
    pending: dict[int, list[tuple[str, int]]] = {}
    own: dict[str, float] = {}
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the column header, or not an importtime line
        name = fields[2]
        level = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        children = pending.pop(level + 1, [])
        cumulative = int(fields[1])
        if name.startswith("wcm."):
            nested = sum(us for child, us in children if child.startswith("wcm"))
            own[name[4:]] = (cumulative - nested) / 1e6
        pending.setdefault(level, []).append((name, cumulative))
    return own


def import_seconds() -> dict[str, float]:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import wcm.cli"
    runs = [parse_importtime(subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True).stderr) for _ in range(IMPORTTIME_CHILDREN)]
    return {f"{m}.import_s": statistics.median(r.get(m, 0.0) for r in runs) for m in MODULES}


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: steadier than the median on a few samples,
    and blind to the slow outliers a shared host throws in."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def _iterations(wl, seconds: float, trace: bool, seed: int):
    """Iterations, at least one, while the next is expected to end within
    ``seconds``.  Yields the untraced calls and, when tracing, the traced
    calls made next to them, first on every other iteration: a worker that
    starts right after the parent has been busy tends to run slower."""
    start = time.perf_counter()
    i, last = 0, 0.0
    while i == 0 or time.perf_counter() - start + last < seconds:
        began = time.perf_counter()
        if trace and i % 2:
            traced = wl.iterate(True, f"{wl.name}/seed{seed}/{i}")
            yield wl.iterate(), traced
        else:
            plain = wl.iterate(labels=None if i == 0 or trace else wl.repeat)
            yield plain, (wl.iterate(True, f"{wl.name}/seed{seed}/{i}") if trace else None)
        last = time.perf_counter() - began
        i += 1


def measure(wl, seconds: float, trace: bool, seed: int) -> tuple[dict, list, list[str]]:
    calls: dict[str, list] = {label: [] for label in wl.calls()}
    checks, rows, spans, first = [], [], [], None
    for plain, traced in _iterations(wl, seconds, trace, seed):
        if first is None:
            first = plain
            checks += wl.check(first)  # before the next call overwrites the outputs
        for label, call in plain.items():
            calls[label].append(call)
            if call is not first[label]:
                checks.append((f"{wl.name}.{label}.repeatable",
                               call.code == 0 and call.digest == first[label].digest))
        if traced:
            checks += [(f"{wl.name}.{label}.trace.same_output",
                        call.code == 0 and call.digest == first[label].digest)
                       for label, call in traced.items()]
            rows.append(wl.layer_metrics(traced))
            spans += [s for call in traced.values() for s in call.spans]
    rate = calls[wl.rate_label]
    if trace:
        values = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
        values.update(import_seconds())
        untraced_s = statistics.median(c.seconds for c in rate)
        values["trace.overhead_s"] = values["cli.main_s"] - untraced_s
        values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced_s
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        dump(spans, out / f"spans-{wl.name}-seed{seed}.json")
        return values, checks, [f"traced calls  {len(rows)}; spans in {out.name}/"]

    # Each time is the interquartile mean over the run's cold calls.
    every = [c for cs in calls.values() for c in cs]

    def rate_of(label: str) -> float:
        return wl.items / interquartile_mean([c.seconds for c in calls[label]])

    values = {
        "setup_s": interquartile_mean([c.import_s for c in every]),
        "items_per_s": rate_of(wl.rate_label),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in rate),
    }
    notes = [f"{alias}  {rate_of(lbl):.6g} {wl.item}/s  ({len(calls[lbl])} calls)"
             for lbl, alias in wl.names.items()]
    notes.append("call_s  " + " ".join(f"{c.seconds:.4f}" for c in rate))
    notes.append("setup_s samples  " + " ".join(f"{c.import_s:.4f}" for c in every))
    return values, checks, notes


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    import workloads


    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    try:
        values, checks, notes = measure(workloads.make(name, seed, workdir), seconds,
                                        bool(trace), seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    # A layer the workload does not call reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    failed = [n for n, ok in checks if not ok]
    for metric, m in metrics.items():
        print(f"{name}  {metric}  {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{name}  {note}")
    print(f"{name}  fail_frac  {len(failed) / len(checks):.6g} ratio  ({len(failed)} of "
          f"{len(checks)} checks failed{': ' + ', '.join(failed[:5]) if failed else ''})",
          flush=True)
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wcm" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no program to measure: {ROOT / 'src' / 'wcm'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names}
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
