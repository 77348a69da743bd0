import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trunca
from trunca.cli import main

CLAYTON = {
    "schema": "trunca/1",
    "kind": "archimedean",
    "generator": {"family": "clayton", "theta": 2.0},
    "d": 2,
}
MO = {"schema": "trunca/1", "kind": "marshall_olkin", "alpha1": 0.2, "alpha2": 0.7}
SURV_GUMBEL = {
    "schema": "trunca/1",
    "kind": "survival",
    "inner": {"kind": "archimedean", "generator": {"family": "gumbel", "theta": 2.0}, "d": 2},
}


@pytest.fixture
def model_file(tmp_path):
    def write(spec, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    return write


class TestSample:
    def test_writes_csv_and_meta(self, tmp_path, model_file):
        # Marshall-Olkin samples by the oracle under either method; both record the form
        for method in ("auto", "oracle"):
            out = tmp_path / f"{method}.csv"
            rc = main(
                ["sample", "--model", model_file(MO), "--t", "0.5,0.8", "--n", "5000",
                 "--seed", "42", "--method", method, "--out", str(out)]
            )
            assert rc == 0
            lines = out.read_text().splitlines()
            assert lines[0] == "u1,u2"
            assert len(lines) == 5001
            meta = json.loads((tmp_path / f"{method}.csv.meta.json").read_text())
            assert meta["seed"] == 42 and meta["t"] == [0.5, 0.8]
            assert meta["model"]["kind"] == "marshall_olkin"
            assert meta["method"] == "oracle" and meta["form"] == "marshall-olkin"

    def test_deterministic(self, tmp_path, model_file):
        spec = model_file(MO)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", "--model", spec, "--t", "0.5,0.8", "--n", "1000",
                         "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_truncation(self, tmp_path, model_file):
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", model_file(CLAYTON), "--t", "1,1", "--n", "100",
                   "--seed", "1", "--out", str(out), "--raw"])
        assert rc == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (100, 2)

    def test_raw_flag_skips_ranks(self, tmp_path, model_file):
        spec = model_file(CLAYTON)
        raw, ranked = tmp_path / "r.csv", tmp_path / "p.csv"
        main(["sample", "--model", spec, "--t", "0.5,0.5", "--n", "50", "--seed", "3",
              "--out", str(raw), "--raw"])
        main(["sample", "--model", spec, "--t", "0.5,0.5", "--n", "50", "--seed", "3",
              "--out", str(ranked)])
        x = np.loadtxt(raw, delimiter=",", skiprows=1)
        y = np.loadtxt(ranked, delimiter=",", skiprows=1)
        assert not np.allclose(x, y)
        assert set(np.round(y[:, 0] * 51).astype(int)) == set(range(1, 51))

    def test_tilted_method_on_mo_is_config_error(self, tmp_path, model_file):
        rc = main(["sample", "--model", model_file(MO), "--t", "0.5,0.8", "--n", "10",
                   "--seed", "1", "--method", "tilted", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_oracle_method(self, tmp_path, model_file):
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", model_file(CLAYTON), "--t", "0.5,0.5", "--n", "200",
                   "--seed", "1", "--method", "oracle", "--out", str(out)])
        assert rc == 0

    def test_missing_model_file(self, tmp_path):
        rc = main(["sample", "--model", str(tmp_path / "nope.json"), "--t", "0.5,0.5",
                   "--n", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_schema(self, tmp_path, model_file):
        spec = dict(CLAYTON)
        spec["schema"] = "trunca/9"
        rc = main(["sample", "--model", model_file(spec), "--t", "0.5,0.5", "--n", "10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_bad_t(self, tmp_path, model_file):
        rc = main(["sample", "--model", model_file(CLAYTON), "--t", "0.5", "--n", "10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        rc = main(["sample", "--model", model_file(CLAYTON), "--t", "0.5,1.5", "--n", "10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_sampling_failure_exit_3(self, tmp_path, model_file):
        # a frank nested stack truncates fine but has no sampler
        spec = {
            "schema": "trunca/1",
            "kind": "nested_archimedean",
            "root": {"family": "frank", "theta": 2.0},
            "sectors": [
                {"generator": {"family": "frank", "theta": 2.0}, "d": 1},
                {"generator": {"family": "frank", "theta": 5.0}, "d": 2},
            ],
        }
        rc = main(["sample", "--model", model_file(spec), "--t", "0.5,0.5,0.5", "--n", "10",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3


    def test_unknown_spec_field_is_config_error(self, tmp_path, model_file):
        spec = {**CLAYTON, "dim": 5}
        rc = main(["sample", "--model", model_file(spec), "--t", "0.5,0.5", "--n", "10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


# every command that samples, with the flags it needs besides --n
SAMPLING_COMMANDS = {
    "sample": ["--t", "0.5,0.5"],
    "kendall": ["--t", "0.5,0.5"],
    "taildep": ["--t", "0.5,0.5", "--q", "0.05"],
    "oracle-compare": ["--t", "0.5,0.5"],
    "figure-data": ["--figure", "mo"],
}


@pytest.mark.parametrize("command", list(SAMPLING_COMMANDS))
def test_zero_rows_is_config_error(tmp_path, model_file, command):
    model = [] if command == "figure-data" else ["--model", model_file(CLAYTON)]
    argv = [command, *model, *SAMPLING_COMMANDS[command], "--n", "0", "--out", str(tmp_path / "out")]
    assert main(argv) == 2


# pseudo-observations rank each column, so one row is refused before the
# model file is even read
@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--model", "missing.json", "--t", "0.5,0.5"],
        ["figure-data", "--figure", "mo"],
    ],
    ids=["sample", "figure-data"],
)
def test_ranked_output_needs_two_rows(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--n", "1", "--out", str(out)]) == 2
    assert "at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_raw_sample_of_one_row(tmp_path, model_file):
    out = tmp_path / "s.csv"
    argv = ["sample", "--model", model_file(CLAYTON), "--t", "0.5,0.5", "--n", "1", "--raw"]
    assert main([*argv, "--out", str(out)]) == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2).shape == (1, 2)


# flag values outside what the command can use, caught before sampling
@pytest.mark.parametrize(
    "argv",
    [
        ["taildep", "--t", "0.5,0.5", "--q", "0.7"],
        ["taildep", "--t", "0.5,0.5", "--q", "0.05", "--n", "500"],
        ["kendall", "--t", "0.5,0.5", "--n", "1"],
        ["kendall", "--t", "0.5,0.5", "--n", "100", "--u", "1.5"],
        ["kendall", "--t", "0.5,0.5", "--n", "100", "--u", "abc"],
        ["cdf", "--u", "1.5,0.5"],
        ["truncate-eval", "--t", "0.5,0.5", "--u", "0.5,-0.2"],
        # taildep samples only for --q, so without it these are never read
        ["taildep", "--t", "0.5,0.5", "--method", "oracle"],
        ["taildep", "--t", "0.5,0.5", "--n", "7"],
        ["taildep", "--t", "0.5,0.5", "--seed", "3"],
    ],
)
def test_out_of_range_flag_is_config_error(tmp_path, model_file, argv, capsys):
    out = tmp_path / "out.json"
    assert main([argv[0], "--model", model_file(CLAYTON), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


CLAYTON_4D = {**CLAYTON, "d": 4}


# requests the command has no analytic answer for, caught before sampling
@pytest.mark.parametrize(
    "spec, argv",
    [
        (MO, ["taildep", "--t", "0.5,0.5"]),
        (MO, ["kendall", "--t", "0.5,0.5", "--u", "0.5"]),
        (CLAYTON_4D, ["kendall", "--t", "0.5,0.5,0.5,0.5", "--u", "0.5"]),
    ],
    ids=["taildep-mo", "kendall-u-mo", "kendall-u-4d"],
)
def test_unsupported_request_is_config_error(tmp_path, model_file, spec, argv, capsys):
    out = tmp_path / "out.json"
    assert main([argv[0], "--model", model_file(spec), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# flags that cdf, truncate-eval and oracle-compare never read
@pytest.mark.parametrize(
    "argv",
    [
        ["cdf", "--u", "0.3,0.4", "--method", "oracle"],
        ["oracle-compare", "--t", "0.5,0.5", "--method", "tilted"],
        ["cdf", "--u", "0.3,0.4", "--t", "0.5,0.5"],
        ["truncate-eval", "--t", "0.5,0.5", "--u", "0.3,0.4", "--n", "5"],
        ["truncate-eval", "--t", "0.5,0.5", "--u", "0.3,0.4", "--seed", "1"],
    ],
)
def test_unread_flags_rejected(model_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--model", model_file(CLAYTON), *argv[1:]])
    assert exc.value.code == 2


def _fresh_python(code, cwd):
    src = str(Path(trunca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    proc = _fresh_python(
        "import sys, trunca.cli; print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lazy_scipy_commands_in_fresh_process(tmp_path, model_file):
    joe = model_file({"schema": "trunca/1", "kind": "archimedean",
                      "generator": {"family": "joe", "theta": 2.0}, "d": 2}, "joe.json")
    runs = [
        ["kendall", "--model", model_file(CLAYTON), "--t", "0.5,0.5", "--n", "500", "--out", "k.json"],
        ["taildep", "--model", joe, "--t", "0.5,0.5", "--n", "2000", "--q", "0.05", "--out", "td.json"],
        ["sample", "--model", joe, "--t", "0.5,0.5", "--n", "500", "--out", "s.csv"],
        ["oracle-compare", "--model", joe, "--t", "0.5,0.5", "--n", "500", "--out", "oc.json"],
    ]
    loaded = {}
    for argv in runs:
        proc = _fresh_python(
            f"import sys, trunca.cli; rc = trunca.cli.main({argv!r}); "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules)); "
            "sys.exit(rc)",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        loaded[argv[0]] = proc.stdout.strip()
    # the Sibuya laws of Joe models are drawn in numpy too
    assert loaded == dict.fromkeys(loaded, "[]")
    assert -1.0 <= json.loads((tmp_path / "k.json").read_text())["tau"][0][1] <= 1.0
    assert "empirical" in json.loads((tmp_path / "td.json").read_text())


class TestEvaluation:
    def test_cdf(self, tmp_path, model_file):
        spec = model_file({"schema": "trunca/1", "kind": "independence", "d": 2})
        out = tmp_path / "cdf.json"
        rc = main(["cdf", "--model", spec, "--u", "0.3,0.4", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["values"][0] == pytest.approx(0.12)

    def test_truncate_eval(self, tmp_path, model_file):
        out = tmp_path / "te.json"
        rc = main(["truncate-eval", "--model", model_file(CLAYTON), "--t", "0.5,0.5",
                   "--u", "0.5,0.25", "--u", "1,1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["form"] == "tilted-archimedean"
        assert payload["values"][1] == pytest.approx(1.0, abs=1e-12)

    def test_taildep_survival_gumbel(self, tmp_path, model_file):
        out = tmp_path / "td.json"
        rc = main(["taildep", "--model", model_file(SURV_GUMBEL), "--t", "0.3,0.3",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["lambda_lower"] == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-6)
        assert abs(payload["lambda_upper"]) <= 1e-6

    def test_taildep_archimedean_with_empirical(self, tmp_path, model_file):
        out = tmp_path / "td.json"
        rc = main(["taildep", "--model", model_file(CLAYTON), "--t", "0.5,0.5",
                   "--n", "20000", "--seed", "3", "--q", "0.05", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["lambda_lower"] == pytest.approx(2.0**-0.5, abs=1e-12)
        assert abs(payload["empirical"]["lambda_lower"] - 2.0**-0.5) < 0.15

    def test_taildep_reports_convergence(self, tmp_path, model_file):
        out = tmp_path / "td.json"
        rc = main(["taildep", "--model", model_file(CLAYTON), "--t", "0.5,0.5",
                   "--n", "2000", "--seed", "3", "--q", "0.05", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["empirical"]["converged"] is True

    def test_taildep_unsupported_is_config_error(self, tmp_path, model_file):
        rc = main(["taildep", "--model", model_file(MO), "--t", "0.5,0.8",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_kendall_comonotone(self, tmp_path, model_file):
        spec = model_file({"schema": "trunca/1", "kind": "comonotone", "d": 2})
        out = tmp_path / "k.json"
        rc = main(["kendall", "--model", spec, "--t", "0.8,0.8", "--n", "500",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["tau"][0][1] == pytest.approx(1.0)

    def test_kendall_distribution_values(self, tmp_path, model_file):
        out = tmp_path / "k.json"
        rc = main(["kendall", "--model", model_file(CLAYTON), "--t", "0.5,0.5",
                   "--n", "2000", "--seed", "2", "--u", "1.0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["kendall_dist"]["K"][0] == pytest.approx(1.0, abs=1e-12)


class TestOracleCompare:
    def test_pass(self, tmp_path, model_file):
        out = tmp_path / "oc.json"
        rc = main(["oracle-compare", "--model", model_file(CLAYTON), "--t", "0.5,0.5",
                   "--n", "20000", "--seed", "5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert abs(payload["accept_rate_z"]) < 4.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_threshold_scales_with_n(self, tmp_path, model_file, seed):
        # at the default n = 1000 a sup distance of 0.03-0.04 is sampling noise
        out = tmp_path / "oc.json"
        rc = main(["oracle-compare", "--model", model_file(CLAYTON), "--t", "0.5,0.5",
                   "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 1000
        assert payload["threshold"] == pytest.approx(0.015 * 10.0)
        assert payload["pass"] is True

    def test_zero_threshold_fails(self, tmp_path, model_file):
        out = tmp_path / "oc.json"
        rc = main(["oracle-compare", "--model", model_file(CLAYTON), "--t", "0.5,0.5",
                   "--n", "5000", "--seed", "5", "--threshold", "0", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["pass"] is False

    def test_no_closed_form_is_config_error(self, tmp_path, model_file):
        rc = main(["oracle-compare", "--model", model_file(MO), "--t", "0.5,0.8",
                   "--n", "1000", "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestFigureData:
    def test_panels_written(self, tmp_path):
        rc = main(["figure-data", "--figure", "mo", "--n", "200", "--seed", "1",
                   "--out", str(tmp_path / "figs")])
        assert rc == 0
        csvs = sorted((tmp_path / "figs").glob("*.csv"))
        assert len(csvs) == 4
        meta = json.loads((tmp_path / "figs" / "mo_panel1.csv.meta.json").read_text())
        assert meta["t"] == [0.5, 0.8]

    def test_nested_panels(self, tmp_path):
        rc = main(["figure-data", "--figure", "nested-clayton", "--n", "100", "--seed", "1",
                   "--out", str(tmp_path / "figs")])
        assert rc == 0
        assert len(sorted((tmp_path / "figs").glob("*.csv"))) == 3
