"""One cold CLI call in a fresh interpreter.

    python3 bench/worker.py WORKLOAD TRACE -- ARGV...

The worker times ``import wcm.cli`` from ``src/``, then one call of
``wcm.cli.main(ARGV)`` with nothing run before it, so the call pays every
first-call cost a command-line user pays.  Only the standard library is
imported before the call.  With TRACE 1
the calls of WORKLOAD's layers are wrapped in spans (see ``HOOKS``) and the
call itself in ``cli.main``.  The worker prints one JSON object: the times,
the exit code, what the call wrote to stdout, the peak memory and the spans.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _load_counts(series) -> dict:
    report = series.load_report
    return {"rows_read": report.rows_read, "rows_dropped": report.rows_dropped}


def _rolling_counts(rolling) -> dict:
    return {"windows": len(rolling.entries),
            "pairs_used": sum(e.n_pairs for e in rolling.entries)}


def _hooks(workload: str):
    """The calls each workload's CLI command makes, under their stage names."""
    from spans import Hook

    six = (
        Hook("wcm.cli", "load_prices", "data.load_prices", _load_counts),
        Hook("wcm.data", "log_returns", "data.log_returns"),
        Hook("wcm.cli", "rolling_six", "data.rolling_six", _rolling_counts),
    )
    draws = (
        Hook("wcm.copula:GroupedWCMCopula", "sample", "copula.sample"),
    )
    return {
        # Ranking plus the per-pair Pearson of one window.
        "six-rank": six + (
            Hook("wcm.data", "_window_pair_rhos", "indices.spearman_matrix"),),
        # One span per pair: rolling_six's own loop calls corrcoef, then this.
        "six-lognormal": six + (
            Hook("wcm.cli", "detrend_by_index", "data.detrend_by_index"),
            Hook("wcm.data", "gaussian_spearman", "indices.gaussian_spearman"),
        ),
        "mc-bounds": draws + (
            Hook("wcm.bounds", "build_grouped_wcm", "copula.build"),
            Hook("wcm.bounds", "mc_variance", "bounds.mc_variance"),
        ),
        "sample-csv": draws + (
            Hook("wcm.cli", "build_grouped_wcm", "copula.build"),
            Hook("wcm.copula:SampleMatrix", "to_csv_string", "copula.to_csv",
                 lambda text: {"csv_bytes": len(text)}),
        ),
    }[workload]


def main(argv: list[str]) -> int:
    workload, trace, sep, *cli_argv = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import wcm.cli
    import_s = time.perf_counter() - start
    if Path(wcm.cli.__file__).resolve().parent != SRC / "wcm":
        print(f"imported wcm from {wcm.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rec = patched = None
    if trace == "1":
        from spans import Recorder

        rec = Recorder()
        patched = rec.patched(_hooks(workload))
    out = io.StringIO()
    with patched or nullcontext(), redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            with rec.span("cli.main") if rec else nullcontext():
                code = wcm.cli.main(cli_argv)
        except SystemExit as exc:  # usage errors exit through argparse
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a dead run
            code = repr(exc)
        call_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps({
        "import_s": import_s, "call_s": call_s, "code": code, "stdout": out.getvalue(), "peak_rss_mb": peak_rss_mb,
        "spans": [asdict(s) for s in rec.spans] if rec else [],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
