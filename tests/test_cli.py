"""Command-line surface: JSON outputs, exit codes, manifests, determinism."""

import datetime as dt
import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wcm.cli import main


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


class TestValidate:
    def test_existent(self, capsys):
        code, payload = run_json(capsys, ["validate", "5", "4", "3"])
        assert code == 0
        assert payload["exists"] is True
        assert payload["deficit"] == -2.0

    def test_nonexistent_pair(self, capsys):
        code, payload = run_json(capsys, ["validate", "2", "1"])
        assert code == 0
        assert payload["exists"] is False
        assert payload["deficit"] == 1.0

    def test_equal_quadruple(self, capsys):
        code, payload = run_json(capsys, ["validate", "1", "1", "1", "1"])
        assert code == 0
        assert payload["exists"] is True

    def test_bad_weights_exit_one(self, capsys):
        code = main(["validate", "1", "-3"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidWeightError"


class TestConstruct:
    def test_543_masses(self, capsys):
        code, payload = run_json(capsys, ["construct", "5", "4", "3"])
        assert code == 0
        masses = payload["masses"]
        assert masses["m12"] == pytest.approx(6 / 11, abs=1e-12)
        assert masses["m23"] == pytest.approx(3 / 11, abs=1e-12)
        assert masses["m31"] == pytest.approx(2 / 11, abs=1e-12)

    def test_equal_masses(self, capsys):
        _, payload = run_json(capsys, ["construct", "1", "1", "1"])
        assert list(payload["masses"].values()) == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_existence_failure(self, capsys):
        code = main(["construct", "5", "1", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ExistenceError"
        assert "2*max - sum" in err["message"]


class TestCdf:
    def test_543_point(self, capsys):
        code, payload = run_json(
            capsys, ["cdf", "5", "4", "3", "--", "1", "0.25", "0.333333333"]
        )
        assert code == 0
        assert payload["cdf"] == pytest.approx(2 / 33, abs=1e-9)

    def test_wrong_arity(self, capsys):
        assert main(["cdf", "5", "4", "3", "--", "1", "0.25"]) == 1

    def test_option_between_weights_and_point(self, capsys):
        _, between = run_json(capsys, ["cdf", "5", "4", "3", "--variant", "B", "--",
                                       "0.3", "0.6", "0.9"])
        _, first = run_json(capsys, ["cdf", "--variant", "B", "5", "4", "3", "--",
                                     "0.3", "0.6", "0.9"])
        del between["manifest"], first["manifest"]
        assert between == first
        assert between["variant"] == "B"
        assert main(["cdf", "5", "4", "3", "--variant", "B", "--", "0.3", "0.6"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["cdf", "5", "4", "3", "--variant", "B", "--", "0.3", "--bogus", "0.9"])
        assert exc.value.code == 2


class TestSample:
    def test_deterministic_outputs(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sample", "5", "4", "3", "--n", "100", "--seed", "7",
                     "--out", str(first)]) == 0
        assert main(["sample", "5", "4", "3", "--n", "100", "--seed", "7",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        manifest2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["outputs"][str(first)] == manifest2["outputs"][str(second)]
        assert manifest["seed"] == 7
        assert manifest["generator"] == "pcg64"

    def test_rows_satisfy_support(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        main(["sample", "5", "4", "3", "--n", "200", "--seed", "3", "--out", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(rows @ np.array([5.0, 4.0, 3.0]), 6.0, atol=1e-9)

    def test_auto_seed_recorded(self, capsys):
        code = main(["sample", "1", "1", "--n", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["seed"] is not None
        assert len(payload["rows"]) == 5

    def test_json_format_deterministic(self, capsys):
        argv = ["sample", "5", "4", "3", "--n", "20", "--seed", "5", "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_four_weights_uses_grouped_construction(self, capsys):
        code = main(["sample", "1", "1", "1", "1", "--n", "10", "--seed", "1",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["construction"] == "grouped"

    def test_variant_b_rejected_off_triangle(self, capsys):
        assert main(["sample", "1", "1", "1", "1", "--n", "10", "--seed", "1",
                     "--variant", "B"]) == 1


class TestGoldenOutputs:
    """Outputs recorded from the row-wise sample path that the column-wise one
    replaced; every byte must stay."""

    @pytest.mark.parametrize("argv, digest", [
        ("sample 6 5 4 3 3 2 2 2 1 1 1 1 --n 2000 --seed 1",
         "51ef4dae966226ab0e979a7dd7896b4a3f03e862e44e1581c5ba8ec02aa0c6ed"),
        ("sample 5 4 3 --variant B --n 500 --seed 4",
         "ee8b73c9feadbaad7aea7ec71af86fba0650813dbd1fd36b109cc5636c07ba78"),
    ])
    def test_sample_csv_digest(self, capsys, argv, digest):
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        ("sample 6 5 4 3 3 2 --n 300 --seed 3 --format json",
         "a23a535c47fe8d324c6718866d8b5076c92d0dc06c9b75dd8ae7eb53120581b7"),
        ("sample 5 4 3 --variant B --n 40 --seed 2 --format json",
         "ea921860b3eebf864e02193b5652c8bef53807a2f9bf903132a70bc9d80f659d"),
    ])
    def test_sample_json_digest(self, capsys, argv, digest):
        _, payload = run_json(capsys, argv.split())
        del payload["manifest"]  # carries the package version
        text = json.dumps(payload, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mc_estimate(self, capsys, threads):
        _, payload = run_json(capsys, ["bounds", "5", "1", "1", "--mc", "1000000", "--seed", "7",
                                       "--json", "--threads", threads])
        mc = payload["mc"]
        assert (mc["estimate"], mc["stderr"]) == (0.7506236055863352, 0.0006710822794497262)


class TestBounds:
    def test_json_report(self, capsys):
        code, payload = run_json(
            capsys,
            ["bounds", "5", "1", "1", "--mc", "200000", "--seed", "7", "--json"],
        )
        assert code == 0
        assert payload["lower"] == 0.75
        assert payload["upper"] == pytest.approx(49 / 12, abs=1e-12)
        assert abs(payload["mc"]["estimate"] - 0.75) < 0.0075
        assert payload["manifest"]["seed"] == 7

    def test_table_output(self, capsys):
        code = main(["bounds", "2", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lower l(w)" in out
        assert repr(1 / 12) in out

    def test_thread_count_does_not_change_output(self, capsys):
        argv = ["bounds", "5", "1", "1", "--mc", "300000", "--seed", "3", "--json"]
        _, serial = run_json(capsys, argv + ["--threads", "1"])
        _, threaded = run_json(capsys, argv + ["--threads", "4"])
        del serial["manifest"], threaded["manifest"]  # argv differs, results must not
        assert serial == threaded


class TestSixCommand:
    @pytest.fixture()
    def price_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 60
        returns = 0.02 * rng.standard_normal((n, 3))
        returns[:, 2] = returns[:, 1]  # two comoving assets
        prices = 100 * np.exp(np.vstack([np.zeros(4), np.column_stack(
            [np.cumsum(returns, axis=0), np.cumsum(0.01 * rng.standard_normal(n))]
        )]))
        path = tmp_path / "prices.csv"
        lines = ["date,AAA,BBB,CCC,IDX"]
        day = dt.date(2022, 1, 3)
        for row in prices:
            lines.append(",".join([day.isoformat()] + [repr(float(v)) for v in row]))
            day += dt.timedelta(days=1)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_csv_output(self, capsys, price_csv):
        code = main(["six", str(price_csv), "--weights", "1", "1", "1",
                     "--window", "20", "--step", "20",
                     "--index-column", "IDX"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "end_date,six,estimator,n_window"
        assert len(lines) == 4  # 60 returns, window 20, step 20

    def test_json_and_detrend(self, capsys, price_csv):
        code, payload = run_json(
            capsys,
            ["six", str(price_csv), "--window", "20", "--step", "20",
             "--index-column", "IDX", "--detrend", "--json",
             "--estimator", "lognormal"],
        )
        assert code == 0
        assert payload["estimator"] == "lognormal"
        assert payload["entries"]

    def test_json_counts_dropped_rows_and_pairs(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        prices = 100 * np.exp(np.cumsum(0.02 * rng.standard_normal((60, 3)), axis=0))
        prices[10:36, 2] = prices[10, 2]  # CCC halts: return rows 10..34 are 0
        lines = ["date,AAA,BBB,CCC"]
        day = dt.date(2022, 1, 3)
        for k, row in enumerate(prices):
            lines.append(",".join([day.isoformat()] + [repr(float(v)) for v in row]))
            day += dt.timedelta(days=1)
            if k in (5, 40):  # malformed rows: a missing cell, a negative price
                lines.append(f"{day.isoformat()},1.0,," if k == 5 else f"{day.isoformat()},1,-2,3")
                day += dt.timedelta(days=1)
        path = tmp_path / "halted.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = ["six", str(path), "--window", "10", "--step", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the counts are fields, not warnings
            code, payload = run_json(capsys, argv + ["--json"])
            assert main(argv) == 0
        assert code == 0
        assert (payload["rows_read"], payload["rows_dropped"]) == (62, 2)
        # windows [10, 20), [15, 25), [20, 30) and [25, 35) drop CCC's two pairs
        assert payload["pairs_dropped"] == 8
        assert sum(3 - e["n_pairs"] for e in payload["entries"]) == 8
        counts = {"rows_read": 62, "rows_dropped": 2, "pairs_dropped": 8, "windows_skipped": 0}
        csv_manifest = json.loads(capsys.readouterr().err)
        for manifest in (payload["manifest"], csv_manifest):
            assert {k: manifest[k] for k in counts} == counts

    def test_weights_of_any_scale(self, capsys, price_csv):
        argv = ["six", str(price_csv), "--window", "20", "--step", "20",
                "--index-column", "IDX", "--json", "--weights"]

        def entries(scale):
            code, payload = run_json(capsys, argv + [repr(scale * w) for w in (1.0, 2.0, 3.0)])
            assert code == 0
            return [(e["six"], e["within_bounds"]) for e in payload["entries"]]

        base = entries(1.0)
        # bit for bit under powers of two; equal to rounding under any other scale
        assert entries(2.0**-660) == entries(2.0**660) == base
        for scale in (1e-200, 1e200):
            assert entries(scale) == [(pytest.approx(v, abs=1e-15), w) for v, w in base]
        assert main(argv + ["1e-200"] * 3) == 0

    def test_missing_file(self, capsys, tmp_path):
        with pytest.raises(OSError):
            main(["six", str(tmp_path / "nope.csv")])


class TestCurve:
    def test_strictly_decreasing_column(self, capsys):
        code = main(["curve", "0.5", "0.1:5:0.1"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "sigma,rhix"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 50
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-5

    def test_bad_grid(self, capsys):
        assert main(["curve", "0.5", "oops"]) == 1


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["sample", "1", "1"])  # --n required
        assert err.value.code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wcm.cli", "validate", "5", "4", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["exists"] is True


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wcm.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
