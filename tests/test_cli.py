"""Command-line surface: formats, manifests, exit codes."""

import csv
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

import haclrt.cli as cli
import haclrt.lrt as lrt
from haclrt.cli import RunConfig, main, rerun
from haclrt.errors import SingularSigmaError
from haclrt.estimate import FitConfig

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
    assert doc["law"]["dfs"] == [0, 1]
    assert doc["law"]["weights"] == [0.5, 0.5]
    assert doc["sigma_meta"] is None and not doc["conservative"]


def test_starts_help_names_the_default(runner):
    # the help text is built from FitConfig, so the two cannot drift apart
    n = FitConfig().n_perturbed + 1
    for command in ("fit", "test"):
        out = _invoke(runner, [command, "--help"]).output
        assert f"(default: N = {n})" in " ".join(out.split())


def test_pseudo_obs_help_names_the_known_margins(runner):
    for command in ("fit", "test", "sigma"):
        out = _invoke(runner, [command, "--help"]).output
        assert "assume known margins" in " ".join(out.split())


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
        "--h", "0,0.3", "--n-sigma", "3000",
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


def test_scenario_keeps_a_cell_beyond_the_sampler_budget(runner):
    # joe data at tau = 3/4 with a shifted nest needs ~8e15 compound
    # draws: every replicate fails, and both tables still come out
    common = ["--seed", "815", "scenario", "--scenario", "I", "--cases", "f",
              "--data-families", "joe", "--model-families", "gumbel",
              "--n", "32", "--r", "2", "--m", "1000", "--n-sigma", "1000"]
    wide = list(csv.reader(_invoke(runner, common).output.splitlines()))
    assert [row[5:] for row in wide[1:]] == [
        ["conditional", "", "nan", "2"], ["mixture", "", "nan", "2"]]
    long = list(csv.reader(
        _invoke(runner, common + ["--long"]).output.splitlines()))
    for row in long[1:]:
        rec = dict(zip(long[0], row))
        assert (rec["r_used"], rec["rate_int"], rec["n_failed"]) == ("0", "", "2")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_output_is_strict(runner):
    # a cell with no used replicate has no rate: null, not a bare NaN
    result = _invoke(runner, [
        "--seed", "815", "--format", "json", "scenario", "--scenario", "I",
        "--cases", "f", "--data-families", "joe", "--model-families",
        "gumbel", "--n", "32", "--r", "2", "--m", "1000", "--n-sigma", "1000",
    ])
    assert result.exit_code == 0
    doc = json.loads(result.output, parse_constant=_no_constant)
    assert [(row["rate_pct"], row["se_pct"]) for row in doc["table"]] == [
        (None, None), (None, None)]


@pytest.mark.parametrize("flag,value,message", [
    ("--m", "500", "m must be at least 1000"),
    ("--n-sigma", "0", "n_sigma must be positive"),
])
def test_scenario_rejects_bad_counts_up_front(runner, monkeypatch, flag,
                                             value, message):
    def never(*args, **kwargs):
        raise AssertionError("ran a replicate")

    monkeypatch.setattr(cli, "run_scenario", never)
    result = runner.invoke(main, ["scenario", "--scenario", "IV", "--r", "1",
                                  flag, value])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["message"] == message


@pytest.mark.parametrize("flag,value,message", [
    ("--m", "10", "m must be at least 1000"),
    ("--alpha", "5.0", "alpha must be in (0, 1)"),
])
def test_test_rejects_bad_choices_before_fitting(runner, tmp_path,
                                                 monkeypatch, flag, value,
                                                 message):
    def never(*args, **kwargs):
        raise AssertionError("fitted a model")

    data = _sample_file(runner, tmp_path / "d.csv")
    monkeypatch.setattr(lrt, "mle", never)
    result = runner.invoke(main, ["test", "--data", str(data), "--tree", TREE,
                                  "--family", "gumbel", "--hypothesis",
                                  "(0,1)=(0)", flag, value])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["message"] == message


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


# one cheap run of each command, with most of its options set away from
# their defaults
COMMAND_RUNS = {
    "sample": ["--tree", TREE, "--family", "clayton", "--theta", "1.5,2.5",
               "--n", "6"],
    "fit": ["--data", "{data}", "--tree", TREE, "--family", "gumbel",
            "--hypothesis", "(0,1)=(0)", "--pseudo-obs", "--starts", "2"],
    "test": ["--data", "{data}", "--tree", TREE, "--family", "gumbel",
             "--hypothesis", "(0,1)=(0)", "--method", "mc", "--alpha", "0.1",
             "--sigma-source", "observed", "--sigma-at", "full",
             "--m", "1000", "--exact", "--ridge", "--starts", "1"],
    "sigma": ["--tree", TREE, "--family", "clayton", "--theta", "1.5,2.5",
              "--data", "{data}", "--source", "observed", "--method", "fd",
              "--atoms", "(0,1)=(0)", "--delta-tau", "0.02", "--ridge"],
    "power": ["--family", "gumbel", "--tau", "0.5", "--h-max", "0.3",
              "--h-points", "2", "--alpha", "0.1", "--n-sigma", "400"],
    "detscan": ["--family", "clayton", "--offsets", "0.5,1.0",
                "--n-mc", "300", "--tree", TREE, "--delta-tau", "0.02"],
    "scenario": ["--scenario", "I", "--cases", "a",
                 "--data-families", "gumbel", "--model-families", "gumbel",
                 "--n", "32", "--r", "1", "--m", "1000", "--n-sigma", "300",
                 "--sigma-variants", "null:mc", "--long"],
}


@pytest.mark.parametrize("command", COMMAND_RUNS)
def test_manifest_covers_every_option_and_reruns(runner, tmp_path, command):
    data = str(_sample_file(runner, tmp_path / "d.csv", n=120))
    args = [a.format(data=data) for a in COMMAND_RUNS[command]]
    out = tmp_path / "a.csv"
    result = _invoke(runner, ["--seed", "5", "--out", str(out), command]
                     + args)
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    declared = [
        next(o for o in p.opts if o.startswith("--"))
        for p in main.commands[command].params
    ]
    assert list(manifest["options"]) == ["seed", "jobs", "format", "out"] + [
        flag[2:].replace("-", "_") for flag in declared
    ]
    for flag in args:
        if flag.startswith("-"):
            assert flag in manifest["argv"]
    code = rerun(tmp_path / "a.csv.manifest.json", out=str(tmp_path / "b.csv"))
    assert code == 0
    assert out.read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_manifest_requires_fields(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"command": "sample"}))
    with pytest.raises(Exception, match="manifest missing"):
        RunConfig.from_manifest(bad)


def test_scenario_defaults_are_the_spec_defaults(runner, monkeypatch):
    seen = []

    def fake_run(spec, jobs=1):
        seen.append(spec)
        return []

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    result = _invoke(runner, ["scenario", "--scenario", "II"])
    assert result.exit_code == 0
    [spec] = seen
    default = cli.ScenarioSpec("II")
    for field in ("data_families", "model_families", "n_values", "r",
                  "alpha", "m", "n_sigma", "sigma_variants"):
        assert getattr(spec, field) == getattr(default, field), field


def _readme_commands():
    """Each `haclrt ...` command of the README's sh blocks, continuations
    joined, split into words."""
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        "utf-8")
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["haclrt"]:
                out.append(words)
    return out


def test_readme_command_lines_use_declared_options():
    commands = _readme_commands()
    assert len(commands) >= 9
    group = {o: p for p in main.params for o in p.opts + p.secondary_opts}
    for words in commands:
        i = 1
        while words[i].startswith("-"):       # group options come first
            param = group[words[i]]
            i += 1 if param.is_flag else 2
        assert words[i] in main.commands, words
        declared = {o for p in main.commands[words[i]].params
                    for o in p.opts + p.secondary_opts}
        for word in words[i + 1:]:
            if word.startswith("-"):
                assert word in declared, (word, words)
