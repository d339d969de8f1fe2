"""Command-line surface: JSON outputs, exit codes, manifests, determinism."""

import datetime as dt
import json
import subprocess
import sys

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
