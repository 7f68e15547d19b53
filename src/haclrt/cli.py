"""Command-line surface.

Thin wrappers over the library: sampling, fitting, testing, covariance
estimation, power curves, determinant scans, and the scenario harness.
Every run resolves its options into a manifest; rerunning from a
manifest reproduces the outputs bit-exactly.  Errors leave as JSON on
stderr with exit code 2 (domain) or 3 (numerics).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from .errors import DomainError, NumericError
from .estimate import FitConfig, mle
from .fisher import (
    DELTA_TAU,
    SCAN_DRAWS,
    SIGMA_DRAWS,
    determinant_scan,
    sigma_hat,
)
from .lrt import NULL_DRAWS, power_curve, run_test
from .sampler import pseudo_obs, sample
from .scenarios import ScenarioSpec, rejection_table, run_scenario
from .tree import HacTree, Hypothesis

__all__ = ["main", "RunConfig", "rerun"]


# --------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: enough to repeat a run exactly."""

    command: str
    argv: tuple[str, ...]
    options: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "options": self.options,
            "version": self.version,
        }

    @classmethod
    def from_manifest(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        for key in ("command", "argv", "options"):
            if key not in raw:
                raise DomainError(f"manifest missing {key!r}")
        return cls(
            command=raw["command"],
            argv=tuple(raw["argv"]),
            options=raw["options"],
            version=raw.get("version", "unknown"),
        )


@dataclass
class _Ctx:
    seed: int
    jobs: int
    out: str | None
    fmt: str


def _f17(x) -> str:
    return f"{float(x):.17g}"


def _cell(v) -> str:
    if isinstance(v, bool) or v is None:
        return json.dumps(v)
    if isinstance(v, float) or isinstance(v, np.floating):
        return _f17(v)
    return str(v)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _flatten(obj, prefix=""):
    """Dotted key/value pairs for the CSV view of a nested result."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
        return
    key = prefix[:-1]
    if isinstance(obj, (list, tuple)):
        flat = np.asarray(obj, dtype=object).ravel().tolist()
        if all(isinstance(x, (int, float, np.floating)) for x in flat):
            yield key, " ".join(_cell(x) for x in flat)
        else:
            yield key, json.dumps(obj)
    else:
        yield key, _cell(obj)


def _argv_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _build_argv(ctx: _Ctx, command: str, opts: dict) -> tuple[str, ...]:
    argv = [
        "--seed", str(ctx.seed),
        "--jobs", str(ctx.jobs),
        "--format", ctx.fmt,
    ]
    if ctx.out is not None:
        argv += ["--out", ctx.out]
    argv.append(command)
    for flag, value in opts.items():
        if value is None or value is False:
            continue
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, _argv_value(value)]
    return tuple(argv)


def _finish(ctx: _Ctx, payload, header=None, rows=None):
    """Emit the result and, when writing to a file, the manifest.

    JSON output is strict: a non-finite float is written as null.  The
    manifest records every option of the running command, keyed by
    its ``--`` flag, in the order the command declares them.
    """
    click_ctx = click.get_current_context()
    command = click_ctx.command.name
    opts = {
        next(o for o in param.opts if o.startswith("--")):
            click_ctx.params[param.name]
        for param in click_ctx.command.params
    }
    cfg = RunConfig(
        command=command,
        argv=_build_argv(ctx, command, opts),
        options={"seed": ctx.seed, "jobs": ctx.jobs, "format": ctx.fmt,
                 "out": ctx.out, **{k.lstrip("-").replace("-", "_"): v
                                    for k, v in opts.items()}},
    )
    if ctx.fmt == "json":
        # JSON has no NaN or inf: the round trip writes each as null
        doc = json.loads(json.dumps({**payload, "manifest": cfg.to_dict()}),
                         parse_constant=lambda _: None)
        text = json.dumps(doc, indent=2, allow_nan=False)
        text += "\n"
    elif rows is not None:
        text = _csv_text(header, rows)
    else:
        text = _csv_text(("key", "value"), list(_flatten(payload)))
    if ctx.out is None:
        click.echo(text, nl=False)
    else:
        with open(ctx.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(ctx.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(cfg.to_dict(), fh, indent=2)
            fh.write("\n")


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DomainError as exc:
            _fail(exc, 2)
        except NumericError as exc:
            _fail(exc, 3)

    return wrapper


def _fail(exc, code):
    click.echo(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc), "code": code}
        ),
        err=True,
    )
    sys.exit(code)


# --------------------------------------------------------------------
# input parsing
# --------------------------------------------------------------------

def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise DomainError(f"bad numeric list {text!r}: {exc}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise DomainError(f"bad integer list {text!r}: {exc}") from None


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _read_data(path: str, rank: bool) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DomainError(f"{path}: empty data file")
    body = rows[1:]  # header row is part of the format
    try:
        data = np.array([[float(v) for v in row] for row in body])
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from None
    if data.ndim != 2 or data.shape[0] == 0:
        raise DomainError(f"{path}: no data rows")
    return pseudo_obs(data) if rank else data


_PSEUDO_OBS_HELP = ("Rank-transform the input columns first.  P-values and "
                    "covariances still assume known margins.")

_STARTS_HELP = ("At most N: the Kendall-tau start, then up to N-1 perturbed "
                "starts if it fails "
                f"(default: N = {FitConfig().n_perturbed + 1}).")


def _fit_config(ctx: _Ctx, starts: int | None) -> FitConfig:
    if starts is None:
        return FitConfig(seed=ctx.seed)
    if starts < 1:
        raise DomainError("--starts must be at least 1")
    return FitConfig(n_perturbed=starts - 1, seed=ctx.seed)


# --------------------------------------------------------------------
# commands
# --------------------------------------------------------------------

@click.group()
@click.version_option(__version__)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Master seed; all randomness descends from it.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for replicate grids.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file; stdout when omitted.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.pass_context
def main(ctx, seed, jobs, out, fmt):
    """Structure tests for hierarchical Archimedean copulas."""
    ctx.obj = _Ctx(seed=seed, jobs=jobs, out=out, fmt=fmt)


@main.command("sample")
@click.option("--tree", "tree_text", required=True,
              help='Nesting as JSON, e.g. "[[1,2],3]".')
@click.option("--family", required=True)
@click.option("--theta", "theta_text", required=True,
              help="Comma-separated parameters, top-down.")
@click.option("-n", "--n", "n", type=int, required=True)
@click.pass_obj
@_guard
def cmd_sample(ctx, tree_text, family, theta_text, n):
    """Draw n rows from a nested model."""
    tree = HacTree.from_json(tree_text)
    theta = _parse_floats(theta_text)
    batch = sample(tree, theta, family, n, seed=ctx.seed)
    vals = batch.values
    header = [f"u{j}" for j in range(1, vals.shape[1] + 1)]
    payload = {"n": int(vals.shape[0]), "d": int(vals.shape[1]),
               "family": family, "values": vals.tolist()}
    _finish(ctx, payload, header=header, rows=vals)


@main.command("fit")
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--tree", "tree_text", required=True)
@click.option("--family", required=True)
@click.option("--hypothesis", "hyp_text", default=None,
              help='Constrain the fit, e.g. "(0,1)=(0)".')
@click.option("--pseudo-obs", "rank", is_flag=True, help=_PSEUDO_OBS_HELP)
@click.option("--starts", type=int, default=None, help=_STARTS_HELP)
@click.pass_obj
@_guard
def cmd_fit(ctx, data_path, tree_text, family, hyp_text, rank, starts):
    """Maximum-likelihood fit, optionally under a constraint."""
    tree = HacTree.from_json(tree_text)
    data = _read_data(data_path, rank)
    hyp = Hypothesis.parse(hyp_text) if hyp_text else None
    fit = mle(data, tree, family, hypothesis=hyp,
              config=_fit_config(ctx, starts))
    _finish(ctx, fit.to_dict())


@main.command("test")
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--tree", "tree_text", required=True)
@click.option("--family", required=True)
@click.option("--hypothesis", "hyp_text", required=True)
@click.option("--method",
              type=click.Choice(["mixture", "mc", "conditional", "hybrid"]),
              default="mixture", show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--sigma-source", type=click.Choice(["observed", "mc"]),
              default="mc", show_default=True)
@click.option("--sigma-at", type=click.Choice(["null", "full"]),
              default="null", show_default=True)
@click.option("--m", type=int, default=NULL_DRAWS, show_default=True,
              help="Monte Carlo null replicates.")
@click.option("--n-sigma", type=int, default=SIGMA_DRAWS, show_default=True,
              help="Model draws behind a Monte Carlo covariance.")
@click.option("--exact", is_flag=True,
              help="Conditional test at the exact adjusted level.")
@click.option("--ridge", is_flag=True,
              help="Regularize a near-singular covariance.")
@click.option("--pseudo-obs", "rank", is_flag=True, help=_PSEUDO_OBS_HELP)
@click.option("--starts", type=int, default=None, help=_STARTS_HELP)
@click.pass_obj
@_guard
def cmd_test(ctx, data_path, tree_text, family, hyp_text, method, alpha,
             sigma_source, sigma_at, m, n_sigma, exact, ridge, rank, starts):
    """Likelihood-ratio test of a structural hypothesis."""
    tree = HacTree.from_json(tree_text)
    data = _read_data(data_path, rank)
    result = run_test(
        data, tree, family, hyp_text,
        method=method, alpha=alpha, sigma_source=sigma_source,
        sigma_at=sigma_at, n_sigma=n_sigma, m=m, seed=ctx.seed,
        config=_fit_config(ctx, starts), exact=exact, ridge=ridge,
    )
    _finish(ctx, result.to_dict())


@main.command("sigma")
@click.option("--tree", "tree_text", required=True)
@click.option("--family", required=True)
@click.option("--theta", "theta_text", required=True)
@click.option("--data", "data_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Required when --source observed.")
@click.option("--source", type=click.Choice(["observed", "mc"]),
              default="mc", show_default=True)
@click.option("--method", type=click.Choice(["analytic", "fd"]),
              default="analytic", show_default=True)
@click.option("--n-mc", type=int, default=SIGMA_DRAWS, show_default=True)
@click.option("--atoms", "atoms_text", default=None,
              help='Tied nests whose rows are averaged, e.g. "(0,1)=(0)".')
@click.option("--delta-tau", type=float, default=DELTA_TAU,
              show_default=True)
@click.option("--ridge", is_flag=True)
@click.option("--pseudo-obs", "rank", is_flag=True, help=_PSEUDO_OBS_HELP)
@click.pass_obj
@_guard
def cmd_sigma(ctx, tree_text, family, theta_text, data_path, source, method,
              n_mc, atoms_text, delta_tau, ridge, rank):
    """Asymptotic covariance of the parameter estimates."""
    tree = HacTree.from_json(tree_text)
    theta = _parse_floats(theta_text)
    if source == "observed" and data_path is None:
        raise DomainError("--source observed needs --data")
    data = _read_data(data_path, rank) if data_path else None
    atoms = ()
    if atoms_text:
        branches = Hypothesis.parse(atoms_text).branches
        if len(branches) != 1:
            raise DomainError("--atoms takes a single conjunction")
        atoms = branches[0]
    est = sigma_hat(
        data, tree, family, theta,
        source=source, method=method, n_mc=n_mc, seed=ctx.seed,
        atoms=atoms, ridge=ridge, delta_tau=delta_tau,
    )
    _finish(ctx, est.to_dict())


@main.command("power")
@click.option("--family", required=True)
@click.option("--tau", type=float, required=True)
@click.option("--h", "h_text", default=None,
              help="Comma-separated local shifts; overrides the grid.")
@click.option("--h-max", type=float, default=0.5, show_default=True)
@click.option("--h-points", type=int, default=26, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--n-sigma", type=int, default=SIGMA_DRAWS, show_default=True)
@click.pass_obj
@_guard
def cmd_power(ctx, family, tau, h_text, h_max, h_points, alpha, n_sigma):
    """Local power curve of the single-tie test; plot-ready CSV."""
    if h_text is not None:
        h_values = _parse_floats(h_text)
    else:
        h_values = np.linspace(0.0, h_max, h_points)
    curve = power_curve(
        family, tau, h_values,
        alpha=alpha, n_sigma=n_sigma, seed=ctx.seed,
    )
    header = ["family", "tau", "h_prime", "power", "atom_zero"]
    rows = [[r[k] for k in header] for r in curve.rows()]
    _finish(ctx, curve.to_dict(), header=header, rows=rows)


@main.command("detscan")
@click.option("--family", required=True)
@click.option("--offsets", "offsets_text", default=None,
              help="Comma-separated offsets from the domain edge.")
@click.option("--n-mc", type=int, default=SCAN_DRAWS, show_default=True)
@click.option("--tree", "tree_text", default=None)
@click.option("--delta-tau", type=float, default=DELTA_TAU,
              show_default=True)
@click.pass_obj
@_guard
def cmd_detscan(ctx, family, offsets_text, n_mc, tree_text, delta_tau):
    """det(sigma) on a parameter grid hugging the cone origin."""
    offsets = _parse_floats(offsets_text) if offsets_text else None
    tree = HacTree.from_json(tree_text) if tree_text else None
    scan = determinant_scan(
        family, offsets=offsets, n_mc=n_mc, seed=ctx.seed, tree=tree,
        delta_tau=delta_tau,
    )
    rows = list(scan.rows())
    payload = {
        "family": scan.family,
        "origin": scan.origin,
        "offsets": np.asarray(scan.offsets).tolist(),
        "n_mc": scan.n_mc,
        "all_positive": scan.all_positive,
        "rows": [list(r) for r in rows],
    }
    _finish(ctx, payload, header=["theta0", "theta1", "det"], rows=rows)


@main.command("scenario")
@click.option("--scenario", "which", required=True,
              type=click.Choice(["I", "II", "III", "IV"]))
@click.option("--cases", "cases_text", default=None,
              help="Comma-separated case labels; default all.")
@click.option("--data-families", "df_text",
              default=",".join(ScenarioSpec.data_families), show_default=True)
@click.option("--model-families", "mf_text",
              default=",".join(ScenarioSpec.model_families), show_default=True)
@click.option("--n", "n_text",
              default=",".join(map(str, ScenarioSpec.n_values)),
              show_default=True)
@click.option("--r", type=int, default=ScenarioSpec.r, show_default=True,
              help="Replications per cell.")
@click.option("--alpha", type=float, default=ScenarioSpec.alpha,
              show_default=True)
@click.option("--m", type=int, default=ScenarioSpec.m, show_default=True)
@click.option("--n-sigma", type=int, default=ScenarioSpec.n_sigma,
              show_default=True)
@click.option("--sigma-variants", "variants_text",
              default=",".join(map(":".join, ScenarioSpec.sigma_variants)),
              show_default=True,
              help="Comma-separated at:source pairs (scenario II).")
@click.option("--long", "long_form", is_flag=True,
              help="One row per cell instead of the wide layout.")
@click.pass_obj
@_guard
def cmd_scenario(ctx, which, cases_text, df_text, mf_text, n_text, r, alpha,
                 m, n_sigma, variants_text, long_form):
    """Empirical rejection rates over a replication grid."""
    variants = []
    for pair in _parse_names(variants_text):
        at, _, source = pair.partition(":")
        variants.append((at, source))
    spec = ScenarioSpec(
        which,
        cases=_parse_names(cases_text) if cases_text else (),
        data_families=_parse_names(df_text),
        model_families=_parse_names(mf_text),
        n_values=_parse_ints(n_text),
        r=r,
        alpha=alpha,
        seed=ctx.seed,
        m=m,
        n_sigma=n_sigma,
        sigma_variants=tuple(variants),
    )
    table = rejection_table(run_scenario(spec, jobs=ctx.jobs))
    if long_form:
        header = ["scenario", "case", "null_true", "data_family",
                  "model_family", "method", "n", "r_used", "rate_pct",
                  "rate_int", "se_pct", "n_singular", "n_failed"]
        rows = [
            [row[k] if k != "rate_int" else _rate_int(row["rate_pct"])
             for k in header]
            for row in table
        ]
    else:
        header, rows = _wide_table(table, spec.n_values)
    payload = {"spec": {"scenario": which, "cases": list(spec.cases),
                        "data_families": list(spec.data_families),
                        "model_families": list(spec.model_families),
                        "n_values": list(spec.n_values), "r": r,
                        "alpha": alpha},
               "table": table}
    _finish(ctx, payload, header=header, rows=rows)


def _rate_int(rate_pct):
    # a cell whose every replicate failed has no rate
    return int(round(rate_pct)) if math.isfinite(rate_pct) else ""


def _wide_table(table, n_values):
    """Blocks of cases, one row per model family, columns per n.

    Rates are rounded to integer percent; exact standard errors and
    failure counts ride along per column.
    """
    header = ["scenario", "case", "null_true", "data_family",
              "model_family", "method"]
    for n in n_values:
        header += [f"pct_n{n}", f"se_n{n}", f"bad_n{n}"]
    cells = {}
    order = []
    for row in table:
        key = (row["scenario"], row["case"], row["data_family"],
               row["model_family"], row["method"])
        if key not in cells:
            cells[key] = dict(row)
            order.append(key)
        cells[key][row["n"]] = row
    out = []
    for key in order:
        scenario, case, df, mf, method = key
        base = cells[key]
        line = [scenario, case, base["null_true"], df, mf, method]
        for n in n_values:
            row = base.get(n)
            if row is None:
                line += ["", "", ""]
            else:
                line += [
                    _rate_int(row["rate_pct"]),
                    row["se_pct"],
                    row["n_singular"] + row["n_failed"],
                ]
        out.append(line)
    return header, out


# --------------------------------------------------------------------
# manifests
# --------------------------------------------------------------------

def rerun(manifest_path, out=None) -> int:
    """Re-execute a recorded run; returns the exit code."""
    cfg = RunConfig.from_manifest(manifest_path)
    argv = list(cfg.argv)
    if out is not None:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = out
        else:
            i = argv.index(cfg.command)
            argv[i:i] = ["--out", out]
    try:
        main.main(args=argv, standalone_mode=False)
    except SystemExit as exc:  # raised by _fail
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    main()
