"""Command-line surface: JSON outputs, exit codes, manifests, determinism."""

import ast
import dataclasses
import datetime as dt
import hashlib
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wcm
from wcm.cli import _dumps, main
from wcm.errors import DomainError
from wcm.indices import rhix_degeneracy_curve

SRC = Path(__file__).resolve().parents[1] / "src" / "wcm"


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def json_digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True, indent=2).encode()).hexdigest()


def assert_written(capsys, tmp_path, argv, digest):
    """``argv`` writes bytes of sha256 ``digest`` to stdout and to ``--out``, and
    each manifest records the digest of the bytes written."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert json.loads(captured.err)["outputs"] == {"-": digest}
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["outputs"] == {str(out): digest}


SIX_COUNTS = {"rows_read": 61, "rows_dropped": 0, "pairs_dropped": 0, "windows_skipped": 0}


@pytest.fixture()
def price_csv(tmp_path):
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

    @pytest.mark.parametrize("argv", [["validate", "1e308", "1e308"],
                                      ["bounds", "1.7e308", "1e308", "1e308"]])
    def test_weights_whose_sum_overflows_exit_one(self, argv):
        proc = subprocess.run([sys.executable, "-m", "wcm.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "InvalidWeightError"

    def test_largest_weight_above_half_the_float_range(self, capsys):
        assert main(["validate", "1e308", "7e307"]) == 0
        out = capsys.readouterr().out
        assert "Infinity" not in out
        payload = json.loads(out)
        assert payload["exists"] is False
        assert payload["deficit"] == pytest.approx(3e307, rel=1e-15)

    def test_out_path_that_is_a_directory_exits_one(self, capsys, tmp_path):
        assert main(["validate", "1", "1", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "IsADirectoryError"

    def test_out_file_holds_what_stdout_gets(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        argv = ["validate", "5", "4", "3"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        # the manifest records the argv, so only that field differs
        payload["manifest"]["argv"] = argv + ["--out", str(path)]
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_threads_variable_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("WCM_THREADS", "abc")
        code, payload = run_json(capsys, ["validate", "5", "4", "3"])
        assert code == 0
        assert payload["exists"] is True


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


class TestExistenceNextToTheBoundary:
    """Every command that builds a copula follows ``validate``."""

    @pytest.mark.parametrize("command, tail", [("construct", []),
                                               ("sample", ["--n", "3", "--seed", "0"]),
                                               ("cdf", ["--", "0.5", "0.5", "0.5"])])
    def test_weights_validate_rejects_do_not_build(self, capsys, command, tail):
        weights = ["1", "1", "2.0000000000001"]
        assert run_json(capsys, ["validate", *weights])[1]["exists"] is False
        assert main([command, *weights, *tail]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ExistenceError"

    @pytest.mark.parametrize("weights, command, tail", [
        (["1.0000000000000002", "8.673617379884035e-19", "1"], "construct", []),
        (["1.0000000000000002", "8.673617379884035e-19", "1"], "bounds",
         ["--mc", "100", "--seed", "1", "--json"]),
        (["4.1003319305359637e-13", "0.22539743365998377", "1.0406646288206348e-06",
          "0.22539847432502264"], "sample", ["--n", "3", "--seed", "0"]),
    ])
    def test_weights_validate_accepts_build(self, capsys, weights, command, tail):
        assert run_json(capsys, ["validate", *weights])[1]["exists"] is True
        assert main([command, *weights, *tail]) == 0


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

    @pytest.mark.parametrize("name, error", [("missing/x.csv", "FileNotFoundError"),
                                             ("dir", "IsADirectoryError")])
    def test_unwritable_out_exits_one_without_a_manifest(self, capsys, tmp_path, name, error):
        (tmp_path / "dir").mkdir()
        out = tmp_path / name
        assert main(["sample", "5", "4", "3", "--n", "3", "--seed", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == error
        assert str(out) in err["message"]
        assert not Path(str(out) + ".manifest.json").exists()

    def test_csv_is_written_without_holding_its_text(self, capsys, tmp_path):
        # The matrix, two n-length float arrays of the draw and one block of text
        # fit; the whole text (~44 MB here) does not.
        n = 200_000
        weights = ["6", "5", "4", "3", "3", "2", "2", "2", "1", "1", "1", "1"]
        tracemalloc.start()
        try:
            code = main(["sample", *weights, "--n", str(n), "--seed", "1",
                         "--out", str(tmp_path / "s.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= n * len(weights) * 8 + 2 * n * 8 + (4 << 20)

    def test_negative_seed_exits_one(self, capsys):
        assert main(["sample", "5", "4", "3", "--n", "3", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DomainError"
        assert "seed" in err["message"]


class TestGoldenOutputs:
    """Outputs recorded from the row-wise sample path that the column-wise one
    replaced, and tabular outputs recorded before the writer streamed blocks;
    every byte must stay, on stdout and in ``--out`` files alike."""

    @pytest.mark.parametrize("argv, digest", [
        ("sample 6 5 4 3 3 2 2 2 1 1 1 1 --n 2000 --seed 1",
         "51ef4dae966226ab0e979a7dd7896b4a3f03e862e44e1581c5ba8ec02aa0c6ed"),
        ("sample 5 4 3 --variant B --n 500 --seed 4",
         "ee8b73c9feadbaad7aea7ec71af86fba0650813dbd1fd36b109cc5636c07ba78"),
        ("sample 5 4 3 --n 1 --seed 9",
         "ec409bec425e73ced9c252b12e8d4e57b152787e614f873f38bd4a88582e3e4e"),
    ])
    def test_sample_csv_digest(self, capsys, tmp_path, argv, digest):
        assert_written(capsys, tmp_path, argv.split(), digest)

    @pytest.mark.parametrize("argv, digest", [
        # re-recorded when rank SIX became one normalised variance: three of the
        # nine windows moved by one ulp, each now the exact SIX correctly rounded
        ("six PRICES --window 20 --step 5",
         "a83ba881e7c50646f65f96349ea4cda5f5b6472e9f36616b04edb5e583d55f26"),
        ("curve 0.5 0.1:5:0.1",
         "f9d44118e8e6d3eb3c25ea1d469efad7f5ff009f5fdbdd2a047499a9c29b8d29"),
    ])
    def test_six_and_curve_csv_digest(self, capsys, tmp_path, price_csv, argv, digest):
        assert_written(capsys, tmp_path, argv.replace("PRICES", str(price_csv)).split(), digest)

    @pytest.mark.parametrize("argv, digest", [
        ("bounds 2 1", "a15d47109a9be38bf9a5cea82f623c727cfbffc94ba95ea38622b6d949408c4f"),
        ("bounds 5 1 1 --mc 1000 --seed 1",
         "866e94ecd66c69a2ef926c9be35e595dec8d5487cd15d10a3559d31b50dbe213"),
    ])
    def test_bounds_table_digest(self, capsys, argv, digest):
        assert main(argv.split()) == 0  # the table has no --out: that writes JSON
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert json.loads(captured.err)["outputs"] == {"-": digest}

    @pytest.mark.parametrize("argv, digest, manifest", [
        ("validate 5 4 3", "43fbe6f564583fe4c66a8d2e76266a167f748c0387b43ddc594f6284db68c8ab", {}),
        ("construct 5 4 3 --variant B",
         "f48f1c1da9bd3f157fb2d3b6fb0d73b01a3ccd595a24879521c052ef407caf3d", {}),
        ("cdf 5 4 3 -- 1 0.25 0.333",
         "6e7e0fdb8213ded0de14fa1a4b7d1932cfe90fea6661d3d22c8c1af9d505a62f", {}),
        ("bounds 5 1 1 --json", "868d47d96b5a461203f328d82a246a7e121e3b499b5ec17087af51c880895e31",
         {}),
        ("bounds 5 1 1 --mc 1000 --seed 1 --json",
         "40b8377d6aea58fccdc70249aee0fd932629fc34bfa0768af7b7576a91b459d8",
         {"seed": 1, "generator": "pcg64"}),
        ("bounds 1 1 1 --json", "28233aad56e651d2032a5a98821447eeff4320a7dff0c14637702144f407fa7e",
         {}),
        ("bounds 1 1 1 --mc 1000 --seed 1 --json",
         "1b2de4750218b1a35bb6df996b026620003af05d9c02d4408d546011912e11ee",
         {"seed": 1, "generator": "pcg64"}),
        # re-recorded when the entries lost their ``within_bounds`` key, nothing
        # else, and when rank SIX became one normalised variance: three ``six``
        # values moved by one ulp, each now the exact SIX correctly rounded
        ("six PRICES --window 20 --step 5 --json",
         "ff6fb2c679f46e0bc428a4680f57d39311eefce41d1bba0db3883a0a734fccbb", SIX_COUNTS),
        # re-recorded when lognormal SIX became 1 - q / P on 1 - S: eight of the
        # nine ``six`` values moved by one to three ulps, each within 0.5 eps of the
        # fsum average it replaced (``helpers.weighted_six``); nothing else moved
        ("six PRICES --window 20 --step 5 --estimator lognormal --index-column IDX "
         "--detrend --json",
         "bb57dc56517b977885f1b02a9654188edc076fc6d85fdf9c3bad470079beef98", SIX_COUNTS),
    ])
    def test_json_digest(self, capsys, tmp_path, price_csv, argv, digest, manifest):
        # recorded before the writers moved into ``wcm.cli``; the manifest, which
        # carries the package version and the paths, is checked field by field
        argv = argv.replace("PRICES", str(price_csv)).split()
        assert main(argv) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        written = payload.pop("manifest")
        assert json_digest(payload) == digest
        expected = {"command": argv[0], "seed": None, "generator": None, "outputs": {}, **manifest}
        assert {k: written[k] for k in expected} == expected
        assert set(written) == {*expected, "argv", "version"}
        if argv[0] in ("six", "bounds"):
            out = tmp_path / "out.json"
            assert main(argv + ["--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            # stdout's bytes, but for the argv that the manifest records
            payload["manifest"] = dict(written, argv=argv + ["--out", str(out)])
            assert out.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert not (tmp_path / "out.json.manifest.json").exists()

    @pytest.mark.parametrize("argv, digest", [
        ("sample 6 5 4 3 3 2 --n 300 --seed 3 --format json",
         "a23a535c47fe8d324c6718866d8b5076c92d0dc06c9b75dd8ae7eb53120581b7"),
        ("sample 5 4 3 --variant B --n 40 --seed 2 --format json",
         "ea921860b3eebf864e02193b5652c8bef53807a2f9bf903132a70bc9d80f659d"),
    ])
    def test_sample_json_digest(self, capsys, argv, digest):
        _, payload = run_json(capsys, argv.split())
        del payload["manifest"]  # carries the package version
        assert json_digest(payload) == digest

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mc_estimate(self, capsys, threads):
        _, payload = run_json(capsys, ["bounds", "5", "1", "1", "--mc", "1000000", "--seed", "7",
                                       "--json", "--threads", threads])
        mc = payload["mc"]
        assert (mc["estimate"], mc["stderr"]) == (0.7506231278954463, 0.0006710818242886599)


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

        argv = ["bounds", "5", "1", "1", "--mc", "1000", "--seed", "1"]
        assert main(argv) == 0
        rows = {key.strip(): value.strip() for key, value in
                (line.split("  ", 1) for line in capsys.readouterr().out.splitlines())}
        _, payload = run_json(capsys, argv + ["--json"])
        mc = payload["mc"]
        assert rows["mc estimate"] == repr(mc["estimate"])
        assert rows["mc stderr"] == repr(mc["stderr"])
        assert rows["mc n"] == repr(mc["n"]) == "1000"
        assert rows["seed"] == repr(mc["seed"]) == "1"

    def test_thread_count_does_not_change_output(self, capsys):
        argv = ["bounds", "5", "1", "1", "--mc", "300000", "--seed", "3", "--json"]
        _, serial = run_json(capsys, argv + ["--threads", "1"])
        _, threaded = run_json(capsys, argv + ["--threads", "4"])
        del serial["manifest"], threaded["manifest"]  # argv differs, results must not
        assert serial == threaded

    @pytest.mark.parametrize("weights", [["1", "1"], ["9", "2", "3", "1", "0.5", "1", "1"]])
    def test_one_segment_couplings_do_not_depend_on_the_thread_count(self, capsys, weights):
        # the countermonotonic pair, and an oversized weight among d = 7
        argv = ["bounds", *weights, "--mc", "600000", "--seed", "5", "--json"]
        _, serial = run_json(capsys, argv + ["--threads", "1"])
        _, threaded = run_json(capsys, argv + ["--threads", "2"])
        del serial["manifest"], threaded["manifest"]
        assert serial == threaded
        assert abs(serial["mc"]["estimate"] - serial["lower"]) < 5 * serial["mc"]["stderr"] + 1e-12

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_count_below_one_exits_one(self, capsys, threads):
        argv = ["bounds", "5", "1", "1", "--mc", "1000", "--seed", "1", "--threads", threads]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert "threads" in err["message"]

    def test_negative_seed_exits_one(self, capsys):
        assert main(["bounds", "5", "1", "1", "--mc", "3", "--seed", "-1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert "seed" in err["message"]

    @pytest.mark.parametrize("argv, word", [(["--threads", "0"], "threads"),
                                            (["--seed", "-1"], "seed")])
    def test_bad_threads_or_seed_exit_one_without_mc(self, capsys, argv, word):
        assert main(["bounds", "5", "1", "1", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DomainError"
        assert word in err["message"]

    @pytest.mark.parametrize("extra", [["--json"], []])
    def test_bound_that_overflows_a_float_exits_one(self, capsys, extra):
        assert main(["bounds", "1e308", "7e307"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DomainError"
        assert "overflows" in err["message"]

    def test_non_finite_estimate_is_no_json_token(self):
        # JSON has no token for inf or nan, so every writer refuses to emit one
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="non-finite"):
                _dumps({"mc": {"estimate": value, "stderr": 0.0}})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weights", [["1e154", "3e153"], ["1e-154", "3e-155"]])
    def test_mc_moments_of_huge_or_tiny_weights_stay_finite(self, capsys, weights):
        # unscaled, the fourth moment overflows (1e154) or underflows (1e-154)
        argv = ["bounds", *weights, "--mc", "1000", "--seed", "1"]
        code, payload = run_json(capsys, argv + ["--json"])
        assert code == 0
        mc = payload["mc"]
        assert 0.0 < mc["stderr"] < mc["estimate"] < math.inf
        assert abs(mc["estimate"] - payload["lower"]) < 5 * mc["stderr"]
        assert main(argv) == 0
        rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
        assert float(rows["mc estimate"]) == mc["estimate"]
        assert float(rows["mc stderr"]) == mc["stderr"]

    @pytest.mark.parametrize("mc", ["0", "-5"])
    def test_too_few_draws_with_a_seed_names_the_sample_size(self, capsys, mc):
        assert main(["bounds", "5", "1", "1", "--mc", mc, "--seed", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DimensionError"
        assert "n >= 2" in err["message"]


class TestSixCommand:
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
            return [e["six"] for e in payload["entries"]]

        base = entries(1.0)
        # bit for bit under powers of two; equal to rounding under any other scale
        assert entries(2.0**-660) == entries(2.0**660) == base
        for scale in (1e-200, 1e200):
            assert entries(scale) == [pytest.approx(v, abs=1e-15) for v in base]
        assert main(argv + ["1e-200"] * 3) == 0

    def test_weights_whose_ratio_exceeds_the_float_range_exit_one(self, capsys, tmp_path,
                                                                   price_csv):
        pair = tmp_path / "pair.csv"
        pair.write_text("".join(",".join(line.split(",")[:3]) + "\n"
                                for line in price_csv.read_text().splitlines()))
        argv = ["six", str(pair), "--window", "20", "--step", "20", "--json", "--weights", "4"]
        assert main(argv + ["1e-323"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidWeightError"
        assert "(4.0, 1e-323)" in err["message"] and "float range" in err["message"]
        # a ratio the floats hold: each SIX lies in [-1, 1], the bounds of two weights
        code, payload = run_json(capsys, argv + ["1e-300"])
        assert code == 0
        assert len(payload["entries"]) == 3
        assert all(-1.0 <= e["six"] <= 1.0 for e in payload["entries"])

    @pytest.mark.parametrize("header, extra", [
        ("date,AAA", []),
        ("date,AAA,IDX", ["--index-column", "IDX"]),
    ])
    def test_one_ticker_is_a_dimension_error(self, capsys, tmp_path, header, extra):
        path = tmp_path / "one.csv"
        rows = [f"2022-01-0{k},{100 + k}" + (f",{50 - k}" if extra else "") for k in range(1, 6)]
        path.write_text("\n".join([header] + rows) + "\n")
        assert main(["six", str(path), "--window", "2"] + extra) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DimensionError"
        assert "has 1" in err["message"]

    @pytest.mark.parametrize("option, value, message", [
        ("--window", "1", "two rows"),
        ("--window", "0", ">= 1"),
        ("--step", "0", ">= 1"),
    ])
    def test_window_below_two_rows_or_zero_step_exits_one(self, capsys, price_csv,
                                                          option, value, message):
        assert main(["six", str(price_csv), "--json", option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "DomainError"
        assert message in err["message"]

    def test_missing_file(self, capsys, tmp_path):
        assert main(["six", str(tmp_path / "nope.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "FileNotFoundError"
        assert "nope.csv" in err["message"]


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

    def test_blocks_of_a_long_grid_write_the_bytes_of_one_string(self, capsys, tmp_path,
                                                                 monkeypatch):
        grid = "0.001:2.5:0.001"
        curve = rhix_degeneracy_curve(0.5, wcm.cli._parse_grid(grid))
        assert len(curve) > 2 * wcm.cli._CURVE_BLOCK
        text = "\n".join(["sigma,rhix"] + [f"{s!r},{v!r}" for s, v in curve]) + "\n"
        sizes, write = [], wcm.cli._write_with_manifest

        def counted(blocks, *args, **kwargs):
            blocks = list(blocks)
            sizes.append(len(blocks))
            write(blocks, *args, **kwargs)

        monkeypatch.setattr(wcm.cli, "_write_with_manifest", counted)
        assert_written(capsys, tmp_path, ["curve", "0.5", grid],
                       hashlib.sha256(text.encode()).hexdigest())
        assert sizes == [1 + math.ceil(len(curve) / wcm.cli._CURVE_BLOCK)] * 2

    def test_bad_grid(self, capsys):
        assert main(["curve", "0.5", "oops"]) == 1

    def test_sigma_whose_square_is_subnormal_reads_rho(self, capsys):
        assert main(["curve", "0.5", "2.3e-162:2.3e-162:1"]) == 0
        assert capsys.readouterr().out == "sigma,rhix\n2.3e-162,0.5\n"

    @pytest.mark.parametrize("grid", ["a:1:0.1", "0:b:0.1", "nan:1:0.1", "0:1:nan", "0:inf:1",
                                      "-inf:0:1", "0:1:inf", "0:1e300:1e-300"])
    def test_grid_of_a_non_finite_or_non_numeric_part_exits_one(self, capsys, grid):
        assert main(["curve", "0.5", "--", grid]) == 1  # "--": "-inf" is no option
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"

    @pytest.mark.parametrize("grid, sigma", [("26:28:1", "27.0"),
                                             ("1e-9:2e-9:1e-10", "1.1000000000000001e-09")])
    def test_grid_the_floats_cannot_carry_exits_one(self, capsys, grid, sigma):
        # exp(sigma^2) overflows past sigma^2 ~ 709.78; the ratio rounds to rho near 0
        assert main(["curve", "0.5", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ModelError"
        assert sigma in error["message"]


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
    # ``wcm`` imports every module of the package, so no module may import scipy
    for module in ("wcm.cli", "wcm"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]", module


@pytest.mark.parametrize("workload", ["six-rank", "six-lognormal", "mc-bounds", "sample-csv"])
def test_bench_hook_targets_define_what_the_bench_patches(monkeypatch, workload):
    # The traced bench run swaps ``owner.__dict__[attr]`` for a timing wrapper,
    # so a hooked function that moved (say, into a base class) breaks only there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans
    import worker

    for hook in worker._hooks(workload):
        assert hook.attr in vars(spans._resolve(hook.target)), (hook.target, hook.attr)


def _writes_a_file(call: ast.Call) -> bool:
    """``open`` with a mode that may write, or ``Path.write_text``/``write_bytes``."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False  # "r"
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def _calls(node: ast.AST, scope: str = "<module>"):
    """Every call under ``node`` with the qualified name of the function (or
    class) that holds it, such as ``"GroupedWCMCopula.__post_init__"``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
        else:
            yield from _calls(child, scope)


def test_only_the_cli_writers_write_files_or_attach_manifests():
    # results render text or dicts; turning them into bytes and a manifest is
    # decided in one place
    found = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, call in _calls(ast.parse(path.read_text()))
        if _writes_a_file(call) or getattr(call.func, "id", None) == "_manifest"
    }
    assert found == {("cli.py", "_emit_json"), ("cli.py", "_write_with_manifest")}


def test_only_the_copula_constructor_and_the_existence_check_raise_construction_errors():
    # every copula's masses, z-values and vertices are checked where it is made,
    # and weights with no copula are refused by one check
    errors = ("MassNormalizationError", "ExistenceError")
    found = {
        (path.name, scope, call.func.id)
        for path in sorted(SRC.glob("*.py"))
        for scope, call in _calls(ast.parse(path.read_text()))
        if getattr(call.func, "id", None) in errors
    }
    assert found == {("copula.py", "GroupedWCMCopula.__post_init__", "MassNormalizationError"),
                     ("copula.py", "GroupedWCMCopula.__post_init__", "ExistenceError"),
                     ("weights.py", "require_wcm_existence", "ExistenceError")}


def test_no_module_imports_another_modules_private_names():
    # a private helper is its module's own: another module that needs it asks
    # for a public name instead
    found = [
        (path.name, node.module, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("wcm"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert found == []


def _nodes_outside_the_unit_tests():
    """Every ``ast`` node of the library (less ``__init__``), the scripts, the
    bench and the acceptance criteria."""
    root = SRC.parents[1]
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += [*sorted((root / "scripts").glob("*.py")), *sorted((root / "bench").glob("*.py")),
              root / "tests" / "test_acceptance.py"]
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text()))


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    # a name in the package namespace is used by the library, a script, the
    # bench or an acceptance criterion; a name only unit tests call is trimmed
    used = set()
    for node in _nodes_outside_the_unit_tests():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    assert sorted(set(wcm.__all__) - used) == []


def _renders_itself_with_asdict(cls) -> bool:
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
               and [getattr(a, "id", None) for a in node.args] == ["self"]
               for node in ast.walk(ast.parse(inspect.getsource(cls))))


def test_every_public_member_has_a_reader_outside_the_unit_tests():
    # so does each field, method and property of a public class: the bench
    # names its hook targets as strings, and ``asdict(self)`` reads every field
    read = set()
    for node in _nodes_outside_the_unit_tests():
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    unread = []
    for name in wcm.__all__:
        cls = getattr(wcm, name)
        if not inspect.isclass(cls):
            continue
        members = [m for m, v in vars(cls).items() if not m.startswith("_") and (
            inspect.isfunction(v) or isinstance(v, (property, classmethod, staticmethod)))]
        if dataclasses.is_dataclass(cls) and not _renders_itself_with_asdict(cls):
            members += [f.name for f in dataclasses.fields(cls)]
        unread += [f"{name}.{m}" for m in members if m not in read]
    assert unread == []
