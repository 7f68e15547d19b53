"""Command-line surface: formats, manifests, exit codes."""

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

import haclrt.cli as cli
from haclrt.cli import RunConfig, main, rerun
from haclrt.errors import SingularSigmaError

TREE = "[[1,2],3]"


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


def _sample_file(runner, path, seed=3, theta="2.2,2.2", n=200):
    result = _invoke(runner, [
        "--seed", str(seed), "--out", str(path), "sample",
        "--tree", TREE, "--family", "gumbel", "--theta", theta, "-n", str(n),
    ])
    assert result.exit_code == 0
    return path


# --- sample ---------------------------------------------------------------


def test_sample_csv_shape_and_determinism(runner):
    args = ["--seed", "11", "sample", "--tree", TREE, "--family", "gumbel",
            "--theta", "2,3", "-n", "5"]
    out = _invoke(runner, args).output
    lines = out.strip().split("\n")
    assert lines[0] == "u1,u2,u3"
    assert len(lines) == 6
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all((vals > 0) & (vals < 1))
    assert _invoke(runner, args).output == out
    other = _invoke(runner, ["--seed", "12"] + args[2:]).output
    assert other != out


def test_sample_json_payload(runner):
    result = _invoke(runner, [
        "--seed", "1", "--format", "json", "sample", "--tree", TREE,
        "--family", "clayton", "--theta", "1.5,2.5", "-n", "4",
    ])
    doc = json.loads(result.output)
    assert doc["n"] == 4 and doc["d"] == 3
    assert doc["family"] == "clayton"
    assert len(doc["values"]) == 4
    assert doc["manifest"]["command"] == "sample"


def test_sample_cone_violation_exits_2(runner):
    result = runner.invoke(main, [
        "sample", "--tree", TREE, "--family", "gumbel",
        "--theta", "3,2", "-n", "5",
    ])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "DomainError" and err["code"] == 2
    assert "cone" in err["message"]


def test_unknown_family_exits_2(runner, tmp_path):
    data = _sample_file(runner, tmp_path / "d.csv")
    result = runner.invoke(main, [
        "fit", "--data", str(data), "--tree", TREE, "--family", "nosuch",
    ])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "UnsupportedFamilyError" and err["code"] == 2
    assert "nosuch" in err["message"]


# --- fit / test -----------------------------------------------------------


def test_fit_json_and_csv(runner, tmp_path):
    data = _sample_file(runner, tmp_path / "d.csv")
    base = ["fit", "--data", str(data), "--tree", TREE,
            "--family", "gumbel", "--hypothesis", "(0,1)=(0)"]
    doc = json.loads(_invoke(runner, ["--format", "json"] + base).output)
    assert doc["converged"] is True
    assert doc["theta"][0] == doc["theta"][1]
    assert doc["branch"] == ["(0,1)"]
    flat = dict(
        row for row in csv.reader(_invoke(runner, base).output.splitlines())
    )
    assert flat["key"] == "value"  # header row folds in; spot-check keys
    assert "theta" in flat and "loglik" in flat
    th = [float(v) for v in flat["theta"].split()]
    assert th == pytest.approx(doc["theta"])


def test_fit_pseudo_obs_handles_raw_scale(runner, tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(80, 3)) * 5.0 + 2.0
    path = tmp_path / "raw.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x1", "x2", "x3"])
        w.writerows(raw.tolist())
    args = ["--format", "json", "fit", "--data", str(path), "--tree", TREE,
            "--family", "gumbel"]
    assert runner.invoke(main, args).exit_code != 0  # not in (0,1)
    doc = json.loads(_invoke(runner, args[:2] + args[2:] + ["--pseudo-obs"]).output)
    assert doc["converged"] is True


def test_test_command_bit_exact_reruns(runner, tmp_path):
    data = _sample_file(runner, tmp_path / "d.csv", seed=5)
    args = ["--seed", "7", "--format", "json", "test", "--data", str(data),
            "--tree", TREE, "--family", "gumbel",
            "--hypothesis", "(0,1)=(0)", "--method", "mc",
            "--m", "1000", "--n-sigma", "3000"]
    first = _invoke(runner, args).output
    second = _invoke(runner, args).output
    assert first == second
    doc = json.loads(first)
    assert 0.0 <= doc["p_value"] <= 1.0
    assert doc["method"] == "mc"
    assert doc["m"] == 1000


def test_test_command_mixture_defaults(runner, tmp_path):
    data = _sample_file(runner, tmp_path / "d.csv")
    doc = json.loads(_invoke(runner, [
        "--format", "json", "test", "--data", str(data), "--tree", TREE,
        "--family", "gumbel", "--hypothesis", "(0,1)=(0)",
    ]).output)
    assert doc["setting"] == "single-tie"
    assert doc["law"]["weights"] == [0.5, 0.5]


# --- sigma / detscan / power -----------------------------------------------


def test_sigma_json_metadata(runner):
    doc = json.loads(_invoke(runner, [
        "--seed", "9", "--format", "json", "sigma", "--tree", TREE,
        "--family", "clayton", "--theta", "1.5,2.5",
        "--source", "mc", "--n-mc", "3000",
    ]).output)
    assert doc["method"] in ("analytic", "fd")
    assert doc["n_source"] == 3000
    sig = np.array(doc["sigma"])
    assert sig.shape == (2, 2)
    assert np.all(np.linalg.eigvalsh(sig) > 0)


def test_sigma_observed_requires_data(runner):
    result = runner.invoke(main, [
        "sigma", "--tree", TREE, "--family", "clayton",
        "--theta", "1.5,2.5", "--source", "observed",
    ])
    assert result.exit_code == 2
    assert "needs --data" in json.loads(result.stderr)["message"]


def test_numeric_failures_exit_3(runner, monkeypatch):
    def boom(*args, **kwargs):
        raise SingularSigmaError("covariance not positive definite")

    monkeypatch.setattr(cli, "sigma_hat", boom)
    result = runner.invoke(main, [
        "sigma", "--tree", TREE, "--family", "clayton",
        "--theta", "1.5,2.5",
    ])
    assert result.exit_code == 3
    err = json.loads(result.stderr)
    assert err["code"] == 3 and err["error"] == "SingularSigmaError"


def test_detscan_grid_csv(runner):
    out = _invoke(runner, [
        "--seed", "4", "detscan", "--family", "clayton",
        "--offsets", "0.5,1.0,1.5", "--n-mc", "1500",
    ]).output
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["theta0", "theta1", "det"]
    assert len(rows) - 1 == 6  # upper triangle of a 3-point grid
    for r in rows[1:]:
        assert float(r[0]) <= float(r[1])


def test_power_plot_csv(runner):
    out = _invoke(runner, [
        "--seed", "2", "power", "--family", "gumbel", "--tau", "0.5",
        "--h", "0,0.3", "--m", "2000", "--n-sigma", "3000",
    ]).output
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["family", "tau", "h_prime", "power", "atom_zero"]
    assert len(rows) == 3
    powers = [float(r[3]) for r in rows[1:]]
    assert all(0.0 <= p <= 1.0 for p in powers)
    assert powers[1] >= powers[0]


# --- scenario ---------------------------------------------------------------


def test_scenario_wide_and_long(runner):
    common = ["scenario", "--scenario", "I", "--cases", "a,d",
              "--data-families", "gumbel", "--model-families", "gumbel",
              "--n", "32,48", "--r", "2"]
    wide = list(csv.reader(
        _invoke(runner, ["--seed", "6"] + common).output.splitlines()
    ))
    assert wide[0] == [
        "scenario", "case", "null_true", "data_family", "model_family",
        "method", "pct_n32", "se_n32", "bad_n32", "pct_n48", "se_n48",
        "bad_n48",
    ]
    assert len(wide) - 1 == 2 * 2  # cases x methods
    for row in wide[1:]:
        assert 0 <= int(row[6]) <= 100

    long = list(csv.reader(
        _invoke(runner, ["--seed", "6"] + common + ["--long"]).output.splitlines()
    ))
    assert long[0][6:8] == ["n", "r_used"]
    assert len(long) - 1 == 2 * 2 * 2  # cases x n x methods
    for row in long[1:]:
        rec = dict(zip(long[0], row))
        assert int(rec["rate_int"]) == int(round(float(rec["rate_pct"])))
        assert int(rec["r_used"]) <= 2


def test_scenario_rejects_bad_case(runner):
    result = runner.invoke(main, [
        "scenario", "--scenario", "I", "--cases", "z", "--r", "1",
    ])
    assert result.exit_code == 2
    assert "cases" in json.loads(result.stderr)["message"]


# --- manifests ---------------------------------------------------------------


def test_out_writes_manifest(runner, tmp_path):
    out = tmp_path / "x.csv"
    _sample_file(runner, out, seed=21, n=7)
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["options"]["seed"] == 21
    assert manifest["options"]["n"] == 7
    assert "--seed" in manifest["argv"]


def test_rerun_reproduces_bit_exact(runner, tmp_path):
    out = tmp_path / "a.csv"
    _sample_file(runner, out, seed=13, n=25)
    code = rerun(tmp_path / "a.csv.manifest.json", out=str(tmp_path / "b.csv"))
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_rerun_json_payload_stable(runner, tmp_path):
    data = _sample_file(runner, tmp_path / "d.csv")
    out = tmp_path / "t1.json"
    result = _invoke(runner, [
        "--seed", "7", "--out", str(out), "--format", "json", "test",
        "--data", str(tmp_path / "d.csv"), "--tree", TREE,
        "--family", "gumbel", "--hypothesis", "(0,1)=(0)",
        "--method", "mc", "--m", "1000", "--n-sigma", "2000",
    ])
    assert result.exit_code == 0
    rerun(str(out) + ".manifest.json", out=str(tmp_path / "t2.json"))
    a = json.loads((tmp_path / "t1.json").read_text())
    b = json.loads((tmp_path / "t2.json").read_text())
    a.pop("manifest"), b.pop("manifest")  # differs in --out only
    assert a == b


def test_manifest_requires_fields(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"command": "sample"}))
    with pytest.raises(Exception, match="manifest missing"):
        RunConfig.from_manifest(bad)
