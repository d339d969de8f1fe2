"""The benchmark's workloads.

Each workload makes its inputs from the seed and names the CLI calls of one
iteration.  Every call goes through the public entry point
``wcm.cli.main(argv)`` in a fresh worker process (``worker.py``), so it is
timed cold.  This process checks the outputs against independent references
and turns the spans of a traced call into per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import spearmanr

import wcm.data
from wcm.copula import SUPPORT_TOL, check_wcm

from panel import PanelSpec, constant_windows, make_panel, returns
from spans import Span, self_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WINDOW = 84
# A recomputed SIX must agree with the program's to this absolute tolerance.
REF_TOL = 1e-12
# Slack on the sharp SIX bounds, as the program applies it.
BOUND_SLACK = 1e-12
WORKER_TIMEOUT_S = 120


@dataclass
class Call:
    """One cold CLI call in its own process: what it cost and what it wrote."""

    code: object  # main()'s return value, SystemExit code, or the exception
    seconds: float  # the call alone
    import_s: float  # ``import wcm.cli`` before it
    peak_rss_mb: float
    stdout: str
    files: tuple[Path, ...]
    digest: str
    spans: list[Span]

    @property
    def output_bytes(self) -> int:
        return len(self.stdout.encode()) + sum(p.stat().st_size for p in self.files)


def _sha256_file(path: Path, h=None):
    h = h or hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # Load comes from one process with at most two threads, BLAS included.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "2")
    return env


def run_cli(workload: str, argv: list[str], files: tuple[Path, ...], trace: bool = False,
            run: str = "") -> Call:
    """Run ``wcm.cli.main(argv)`` once in a fresh worker process.

    The output files are removed first, so a call that writes nothing cannot
    pass on an earlier call's bytes.  Spans get the run id ``run``.
    """
    for path in files:
        path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(int(trace)), "--", *argv],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    r = json.loads(proc.stdout.splitlines()[-1])
    h = hashlib.sha256(r["stdout"].encode())
    for path in files:
        if path.exists():
            _sha256_file(path, h)
    spans = [Span(**{**span, "run": run}) for span in r["spans"]]
    return Call(r["code"], r["call_s"], r["import_s"], r["peak_rss_mb"],
                r["stdout"], files, h.hexdigest(), spans)


Checks = list[tuple[str, bool]]


def _safe(read: Callable[[], object], default=None):
    """Parse an output, or return ``default`` when it is missing or malformed;
    the checks that read it then fail."""
    try:
        return read()
    except Exception:  # any malformed output is a failed check, not a crash
        return default


def evaluate(prefix: str, items: list[tuple[str, Callable[[], bool]]]) -> Checks:
    """Run each named predicate; one that raises counts as failed."""
    results = []
    for name, predicate in items:
        try:
            ok = bool(predicate())
        except Exception:  # a malformed output fails its check
            ok = False
        results.append((f"{prefix}.{name}", ok))
    return results


def _stage_seconds(spans: list[Span], name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def _stage_count(spans: list[Span], name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _only(spans: list[Span], name: str) -> Span | None:
    found = [s for s in spans if s.name == name]
    return found[0] if found else None


def cli_metrics(spans: list[Span], call: Call) -> dict[str, float]:
    main = _only(spans, "cli.main")
    return {
        "cli.main_s": main.seconds,
        "cli.self_s": self_seconds(spans, main),
        "cli.output_bytes": call.output_bytes,
    }


class Workload:
    name = ""
    item = ""  # what one unit of items_per_s is
    names: dict[str, str] = {}  # each call's rate under the workload's own name
    rate_label = "main"  # the call whose rate is items_per_s
    items = 0  # work items per rate call
    repeat: tuple[str, ...] | None = None  # the calls an untraced run repeats; None: all

    def calls(self) -> dict[str, tuple[list[str], tuple[Path, ...]]]:
        raise NotImplementedError

    def iterate(self, trace: bool = False, run: str = "",
                labels: tuple[str, ...] | None = None) -> dict[str, Call]:
        """Each call (of ``labels``, default all) once, each in its own process."""
        return {label: run_cli(self.name, argv, files, trace, f"{run}/{label}")
                for label, (argv, files) in self.calls().items()
                if labels is None or label in labels}

    def check(self, first: dict[str, Call]) -> Checks:
        """Checks of an iteration's outputs, read before the next one runs."""
        raise NotImplementedError

    def layer_metrics(self, calls: dict[str, Call]) -> dict[str, float]:
        """Per-layer metrics from the spans of one traced iteration."""
        raise NotImplementedError


@dataclass(frozen=True)
class SixSpec:
    panel: PanelSpec
    estimator: str
    step: int
    detrend: bool


class SixWorkload(Workload):
    item = "windows"
    names = {"main": "windows_per_s"}

    def __init__(self, name: str, spec: SixSpec, seed: int, workdir: Path):
        self.name, self.spec = name, spec
        self.panel = make_panel(spec.panel, seed)
        self.csv = workdir / "panel.csv"
        self.csv.write_text(self.panel.text)
        self.out = workdir / "six.json"
        d = spec.panel.tickers
        self.pairs = d * (d - 1) // 2
        rets = returns(self.panel, spec.detrend)
        starts = range(0, len(rets) - WINDOW + 1, spec.step)
        self.blocks = []
        for s in starts:
            block = rets[s:s + WINDOW]
            self.blocks.append(block[:, np.ptp(block, axis=0) > 0.0])
        self.end_dates = [self.panel.dates[s + WINDOW] for s in starts]
        # One halted ticker costs each window wholly inside the halt its d-1
        # pairs; with d >= 3 no window is left without a pair, so none is skipped.
        self.pairs_dropped = (d - 1) * constant_windows(spec.panel, WINDOW, spec.step,
                                                        spec.detrend)
        self.items = len(self.end_dates)
        n = len(self.blocks)
        halt = [k for k, b in enumerate(self.blocks) if b.shape[1] < d]
        self.reference_windows = sorted({0, n // 3, 2 * n // 3, n - 1, *halt[:1]})

    def calls(self):
        spec = self.spec
        argv = ["six", str(self.csv), "--window", str(WINDOW), "--step", str(spec.step),
                "--estimator", spec.estimator]
        if spec.panel.index_column:
            argv += ["--index-column", spec.panel.index_column]
        if spec.detrend:
            argv.append("--detrend")
        argv += ["--json", "--out", str(self.out)]
        return {"main": (argv, (self.out,))}

    def reference_six(self, k: int) -> float:
        """SIX of window ``k`` from an independent estimator, equal weights."""
        block = self.blocks[k]
        if self.spec.estimator == "rank":
            rho = np.atleast_2d(spearmanr(block).statistic)
            if rho.shape == (1, 1):
                rho = np.array([[1.0, rho[0, 0]], [rho[0, 0], 1.0]])
        else:
            rho = (6.0 / math.pi) * np.arcsin(np.corrcoef(block, rowvar=False) / 2.0)
        upper = rho[np.triu_indices(block.shape[1], 1)]
        return math.fsum(upper) / len(upper)

    def check(self, first):
        call = first["main"]
        payload = _safe(lambda: json.loads(call.files[0].read_text()), {})
        entries = _safe(lambda: list(payload["entries"]), [])
        by_date = _safe(lambda: {e["end_date"]: e["six"] for e in entries}, {})
        spec = self.spec.panel
        lower = -1.0 / (spec.tickers - 1)  # six_bounds at equal weights, where l(w) = 0
        report = _safe(lambda: wcm.data.load_prices(self.csv, index_column=spec.index_column))
        items = [
            ("exit_code", lambda: call.code == 0),
            ("window_count", lambda: len(entries) == self.items),
            ("end_dates", lambda: [e["end_date"] for e in entries] == self.end_dates),
            ("n_window", lambda: all(e["n_window"] == WINDOW for e in entries)),
            ("skipped", lambda: len(payload["skipped"]) == 0),
            ("six_in_bounds", lambda: all(
                lower - BOUND_SLACK <= e["six"] <= 1.0 + BOUND_SLACK for e in entries)),
            ("rows_read", lambda: report.load_report.rows_read
             == spec.kept_rows + spec.malformed_rows),
            ("rows_dropped", lambda: report.load_report.rows_dropped == spec.malformed_rows),
            ("pairs_dropped", lambda: len(entries) * self.pairs
             - sum(e["n_pairs"] for e in entries) == self.pairs_dropped),
        ]
        for k in self.reference_windows:
            items.append((f"reference[{k}]", lambda k=k: abs(
                by_date[self.end_dates[k]] - self.reference_six(k)) <= REF_TOL))
        return evaluate(self.name, items)

    def layer_metrics(self, calls):
        spans = calls["main"].spans
        windows = _stage_count(spans, "data.rolling_six", "windows")
        pairs_used = _stage_count(spans, "data.rolling_six", "pairs_used")
        rolling = _only(spans, "data.rolling_six")

        def per_window(stage: str) -> float:
            return _stage_seconds(spans, stage) / windows if windows else 0.0

        return {
            **cli_metrics(spans, calls["main"]),
            "data.load_prices_s": _stage_seconds(spans, "data.load_prices"),
            "data.detrend_by_index_s": _stage_seconds(spans, "data.detrend_by_index"),
            "data.log_returns_s": _stage_seconds(spans, "data.log_returns"),
            "data.rolling_six_s": _stage_seconds(spans, "data.rolling_six"),
            "data.rolling_six_self_s": self_seconds(spans, rolling) if rolling else 0.0,
            "data.rows_read": _stage_count(spans, "data.load_prices", "rows_read"),
            "data.rows_dropped": _stage_count(spans, "data.load_prices", "rows_dropped"),
            "data.windows": windows,
            "data.pairs_used": pairs_used,
            "data.pairs_dropped": windows * self.pairs - pairs_used,
            "indices.pairs_per_window": pairs_used / windows if windows else 0.0,
            "indices.spearman_matrix_s": per_window("indices.spearman_matrix"),
            "indices.gaussian_spearman_s": per_window("indices.gaussian_spearman"),
            # rolling_six averages the pair rhos itself: the program does not
            # call six_from_matrix, so its stage reads 0.
            "indices.six_from_matrix_s": 0.0,
        }


@dataclass(frozen=True)
class McSpec:
    weights: tuple[float, ...]
    draws: int


class McWorkload(Workload):
    item = "draws"
    names = {"1t": "draws_per_s_1t", "2t": "draws_per_s"}
    # The --threads 1 call (the CLI default) is the gated rate: the 2-thread
    # call shares the second core with the host's other tenants and spreads
    # far more between runs.  It is checked and reported from a run's first
    # iteration; the repeats all go to the 1-thread rate.
    rate_label = "1t"
    repeat = ("1t",)

    def __init__(self, name: str, spec: McSpec, seed: int, workdir: Path):
        self.name, self.spec, self.seed = name, spec, seed
        self.items = spec.draws
        w = spec.weights
        self.lower = max(0.0, 2.0 * max(w) - sum(w)) ** 2 / 12.0

    def calls(self):
        base = ["bounds", *map(repr, self.spec.weights), "--mc", str(self.spec.draws),
                "--seed", str(self.seed), "--json"]
        return {f"{t}t": ([*base, "--threads", str(t)], ()) for t in (1, 2)}

    def check(self, first):
        one, two = (_safe(lambda k=k: json.loads(first[k].stdout), {}) for k in ("1t", "2t"))
        mc = two.get("mc", {})
        return evaluate(self.name, [
            ("exit_code", lambda: first["1t"].code == 0 and first["2t"].code == 0),
            ("threads_identical", lambda: one["mc"] == mc and one["lower"] == two["lower"]),
            ("lower_exact", lambda: two["lower"] == self.lower),
            ("within_5se", lambda: abs(mc["estimate"] - self.lower) <= 5.0 * mc["stderr"]),
            ("draws_and_seed", lambda: mc["n"] == self.spec.draws and mc["seed"] == self.seed),
        ])

    def layer_metrics(self, calls):
        one, two = calls["1t"].spans, calls["2t"].spans
        mc1 = _only(one, "bounds.mc_variance")
        t1, t2 = _stage_seconds(one, "bounds.mc_variance"), _stage_seconds(two, "bounds.mc_variance")
        batches = sum(1 for s in one if s.name == "copula.sample")
        return {
            **cli_metrics(one, calls["1t"]),
            "copula.build_s": _stage_seconds(one, "copula.build"),
            "copula.sample_s": _stage_seconds(one, "copula.sample") / max(batches, 1),
            "bounds.mc_variance_s_1t": t1,
            "bounds.mc_variance_s_2t": t2,
            "bounds.self_s": self_seconds(one, mc1) if mc1 else 0.0,
            "bounds.thread_speedup": t1 / t2 if t2 else 0.0,
            "bounds.batches": batches,
        }


@dataclass(frozen=True)
class SampleSpec:
    weights: tuple[float, ...]
    rows: int


class SampleWorkload(Workload):
    item = "rows"
    names = {"main": "rows_per_s"}

    def __init__(self, name: str, spec: SampleSpec, seed: int, workdir: Path):
        self.name, self.spec, self.seed = name, spec, seed
        self.items = spec.rows
        self.out = workdir / "sample.csv"
        self.manifest = workdir / "sample.csv.manifest.json"

    def calls(self):
        argv = ["sample", *map(repr, self.spec.weights), "--n", str(self.spec.rows),
                "--seed", str(self.seed), "--out", str(self.out)]
        return {"main": (argv, (self.out, self.manifest))}

    def check(self, first):
        call = first["main"]
        csv_path, manifest_path = (call.files + (None, None))[:2]
        lines = _safe(lambda: csv_path.read_text().splitlines(), [])
        d = len(self.spec.weights)
        values = _safe(lambda: np.array([ln.split(",") for ln in lines[1:]], dtype=float))
        manifest = _safe(lambda: json.loads(manifest_path.read_text()), {})
        w = np.array(self.spec.weights)
        return evaluate(self.name, [
            ("exit_code", lambda: call.code == 0),
            ("header", lambda: lines[0] == ",".join(f"u{k + 1}" for k in range(d))),
            ("row_count", lambda: values.shape == (self.spec.rows, d)),
            ("unit_cube", lambda: bool(np.all((values >= 0.0) & (values <= 1.0)))),
            ("check_wcm", lambda: check_wcm(values, self.spec.weights)[0]),
            ("support", lambda: float(np.max(np.abs(values @ w - 0.5 * w.sum()))) <= SUPPORT_TOL),
            ("digest", lambda: list(manifest["outputs"].values())
             == [_sha256_file(csv_path).hexdigest()]),
            ("manifest_seed", lambda: manifest["seed"] == self.seed),
        ])

    def layer_metrics(self, calls):
        spans = calls["main"].spans
        samples = sum(1 for s in spans if s.name == "copula.sample")
        return {
            **cli_metrics(spans, calls["main"]),
            "copula.build_s": _stage_seconds(spans, "copula.build"),
            "copula.sample_s": _stage_seconds(spans, "copula.sample") / max(samples, 1),
            "copula.to_csv_s": _stage_seconds(spans, "copula.to_csv"),
            "copula.csv_bytes": _stage_count(spans, "copula.to_csv", "csv_bytes"),
        }


SIX_RANK = SixSpec(PanelSpec(tickers=30, kept_rows=WINDOW + 60, malformed_rows=5,
                             halt_start=20, halt_rows=100), "rank", step=1, detrend=False)
SIX_LOGNORMAL = SixSpec(PanelSpec(tickers=60, kept_rows=WINDOW + 5 * 21 + 1, malformed_rows=5,
                                  halt_start=20, halt_rows=120, index_column="MKT"),
                        "lognormal", step=21, detrend=True)
MC_BOUNDS = McSpec(weights=(5.0, 1.0, 1.0), draws=20 * 2**18)
SAMPLE_CSV = SampleSpec(weights=(6.0, 5.0, 4.0, 3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0),
                        rows=20_000)

WORKLOADS = {
    "six-rank": (SixWorkload, SIX_RANK),
    "six-lognormal": (SixWorkload, SIX_LOGNORMAL),
    "mc-bounds": (McWorkload, MC_BOUNDS),
    "sample-csv": (SampleWorkload, SAMPLE_CSV),
}


def make(name: str, seed: int, workdir: Path, spec=None) -> Workload:
    cls, default = WORKLOADS[name]
    return cls(name, spec or default, seed, workdir)
