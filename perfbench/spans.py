"""Spans and counters at haclrt's layer boundaries, for the traced run.

The tracer replaces a module attribute (say ``haclrt.lrt.mle``) with a
wrapper for the duration of the traced ops, so every call that looks the
name up in that module opens a span.  Spans are kept in memory; the
per-layer metrics are computed from them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from haclrt.lrt import ATOM_TOL


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[i]
        )
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Span stack for one thread; ``op`` tags the spans of the current op."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def open(self, name: str, layer: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, layer, self.clock(), math.nan, parent, self.op,
                 attrs if attrs is not None else {})
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def wrapper(self, fn, name: str, layer: str, describe=None, inspect_=None):
        """fn wrapped in a span; describe(args) and inspect_(result, attrs)
        run outside the span, so their cost is not charged to the layer."""
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"caller": sys._getframe(1).f_code.co_name}
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs.update(describe(bound.arguments))
            idx = tracer.open(name, layer, attrs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(idx)
            if inspect_ is not None:
                inspect_(result, attrs)
            return result

        return traced

    @contextmanager
    def installed(self, points):
        """Wrap every (module, attr, layer, describe, inspect_) point.

        A point whose attribute no longer exists is skipped and named in
        ``missing``, so a refactor shows as absent spans, not a crash.
        """
        saved = []
        try:
            for module, attr, layer, describe, inspect_ in points:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(f"{module.__name__}.{attr}")
                    continue
                short = module.__name__.rsplit(".", 1)[-1]
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrapper(
                    fn, f"{short}.{attr}", layer, describe, inspect_))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# --------------------------------------------------------------------
# the haclrt boundaries
# --------------------------------------------------------------------

def _rows(u) -> int:
    arr = np.asarray(u)
    return 1 if arr.ndim < 2 else int(arr.shape[0])


def _density(order):
    def describe(a):
        return {
            "rows": _rows(a["u"]),
            "order": a["order"] if order is None else order,
            "family": a["spec"].family.name,
        }
    return describe


def _density_result(result, attrs):
    # the estimate objective returns its penalty exactly when the
    # log-density (or, at order 1, the score) has a non-finite entry
    if isinstance(result, tuple):
        ld, sc = result[0], result[1]
        bad = not np.all(np.isfinite(ld)) or (
            sc is not None and not np.all(np.isfinite(sc)))
    else:
        bad = not np.all(np.isfinite(result))
    attrs["nonfinite"] = bool(bad)


def _sample(a):
    return {"rows": int(a["n"]), "family": str(a["family"])}


def _mle(a):
    # a fit that raises has lost every start of its config
    return {"kind": "full" if a["hypothesis"] is None else "null",
            "family": a["family"], "starts": 1 + a["config"].n_perturbed,
            "starts_ok": 0}


def _mle_result(fit, attrs):
    attrs.update(loglik=float(fit.loglik), converged=bool(fit.converged),
                 starts=int(fit.n_starts), starts_ok=len(fit.start_logliks))


def _sigma(a):
    return {"source": a["source"], "family": a["family"]}


def _null_stats(a):
    nulls = a["null_cones"]
    nulls = (nulls,) if hasattr(nulls, "faces") else tuple(nulls)
    return {"m": int(a["m"]),
            "faces": len(a["cone"].faces())
            + sum(len(c.faces()) for c in nulls)}


def _replicate_result(records, attrs):
    attrs["errors"] = [r["error"] for r in records if r["error"] is not None]


def haclrt_points():
    """The wrapped attributes, each at the module its caller looks in."""
    from haclrt import estimate, fisher, lrt, scenarios

    return [
        (lrt, "run_test", "lrt", None, None),
        (lrt, "mle", "estimate", _mle, _mle_result),
        (lrt, "sigma_hat", "fisher", _sigma, None),
        (lrt, "null_statistics", "lrt", _null_stats, None),
        (fisher, "sample", "sampler", _sample, None),
        (fisher, "hessian", "density", _density(2), _density_result),
        (fisher, "log_density", "density", _density(0), _density_result),
        (estimate, "log_density", "density", _density(0), _density_result),
        (estimate, "log_density_and_derivs", "density", _density(None),
         _density_result),
        (estimate, "kendalltau", "estimate", None, None),
        (scenarios, "run_replicate", "scenarios", None, _replicate_result),
        (scenarios, "mle", "estimate", _mle, _mle_result),
        (scenarios, "sigma_hat", "fisher", _sigma, None),
        (scenarios, "sample", "sampler", _sample, None),
    ]


# --------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------

SCENARIO_ERRORS = ("fit-numeric", "fit-domain", "sigma-singular",
                   "sigma-domain")

# (name, unit); every traced run reports all of them, with 0 where the
# workload never enters the layer
LAYER_METRICS = (
    ("sampler.calls_per_op", "1/op"),
    ("sampler.rows_per_s", "rows/s"),
    ("sampler.frank.rows_per_s", "rows/s"),
    ("sampler.self_s_per_op", "s/op"),
    ("density.order0.rows_per_s", "rows/s"),
    ("density.order1.rows_per_s", "rows/s"),
    ("density.order2.rows_per_s", "rows/s"),
    ("density.calls_per_op", "1/op"),
    ("density.raised", "1/op"),
    ("density.self_s_per_op", "s/op"),
    ("estimate.fits_per_op", "1/op"),
    ("estimate.fit_s", "s"),
    ("estimate.obj_evals_per_fit", "1/fit"),
    ("estimate.penalty_frac", "ratio"),
    ("estimate.nonconverged_frac", "ratio"),
    ("estimate.start_fail_frac", "ratio"),
    ("estimate.kendalltau_calls_per_op", "1/op"),
    ("estimate.self_s_per_op", "s/op"),
    ("fisher.sigma_mc_s", "s"),
    ("fisher.sigma_observed_s", "s"),
    ("fisher.sigma_calls_per_op", "1/op"),
    ("fisher.singular_frac", "ratio"),
    ("fisher.self_s_per_op", "s/op"),
    ("lrt.null_stats_s_per_1000_draws", "s"),
    ("lrt.faces_per_call", "count"),
    ("lrt.null_stats_calls_per_op", "1/op"),
    ("lrt.stat_raised", "1/op"),
    ("lrt.self_s_per_op", "s/op"),
    ("scenarios.self_s_per_op", "s/op"),
    *((f"scenarios.error.{k}", "1/op") for k in SCENARIO_ERRORS),
    ("errors.haclrt", "1/op"),
    ("errors.foreign", "1/op"),
    ("trace.overhead_s", "s"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(spans, **match) -> float:
    sel = [s for s in spans
           if all(s.attrs.get(k) == v for k, v in match.items())]
    return _ratio(sum(s.attrs["rows"] for s in sel),
                  sum(s.end - s.start for s in sel))


def stat_raised(spans: list[Span]) -> int:
    """Full/null fit pairs within one op where the full fit ends lower."""
    count = 0
    pending: dict[tuple, Span] = {}
    for s in spans:
        if s.layer != "estimate" or "loglik" not in s.attrs:
            continue
        other = "null" if s.attrs["kind"] == "full" else "full"
        mate = pending.pop((s.op, other), None)
        if mate is None:
            pending[(s.op, s.attrs["kind"])] = s
            continue
        full, null = (s, mate) if other == "null" else (mate, s)
        # the slack lrt_statistic allows before it raises
        if 2.0 * (full.attrs["loglik"] - null.attrs["loglik"]) < -ATOM_TOL:
            count += 1
    return count


def layer_metrics(spans: list[Span], outcomes, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run.

    outcomes holds one dict per traced op with its "errors" (scenario
    error kinds) and "raised" ("haclrt", "foreign" or None).
    """
    ops = len(outcomes)
    own = self_times(spans)

    def self_per_op(layer):
        return _ratio(sum(t for s, t in zip(spans, own) if s.layer == layer),
                      ops)

    by = {}
    for s in spans:
        by.setdefault(s.name.split(".", 1)[1], []).append(s)
    samples = by.get("sample", [])
    density = [s for s in spans if s.layer == "density"]
    fits = by.get("mle", [])
    done = [s for s in fits if "loglik" in s.attrs]
    objective = [s for s in density
                 if s.name.startswith("estimate.")
                 and s.attrs["caller"] != "loglik"]
    sigmas = by.get("sigma_hat", [])
    nulls = by.get("null_statistics", [])
    failed_starts = sum(s.attrs["starts"] - s.attrs["starts_ok"]
                        for s in fits)
    all_starts = sum(s.attrs["starts"] for s in fits)
    errors = [e for o in outcomes for e in o["errors"]]
    raised = [o["raised"] for o in outcomes]

    values = {
        "sampler.calls_per_op": _ratio(len(samples), ops),
        "sampler.rows_per_s": _rate(samples),
        "sampler.frank.rows_per_s": _rate(samples, family="frank"),
        "sampler.self_s_per_op": self_per_op("sampler"),
        "density.order0.rows_per_s": _rate(density, order=0),
        "density.order1.rows_per_s": _rate(density, order=1),
        "density.order2.rows_per_s": _rate(density, order=2),
        "density.calls_per_op": _ratio(len(density), ops),
        "density.raised": _ratio(
            sum("raised" in s.attrs for s in density), ops),
        "density.self_s_per_op": self_per_op("density"),
        "estimate.fits_per_op": _ratio(len(fits), ops),
        "estimate.fit_s": _median([s.end - s.start for s in fits]),
        "estimate.obj_evals_per_fit": _ratio(len(objective), len(fits)),
        "estimate.penalty_frac": _ratio(
            sum("raised" in s.attrs or s.attrs.get("nonfinite", False)
                for s in objective), len(objective)),
        "estimate.nonconverged_frac": _ratio(
            sum(not s.attrs["converged"] for s in done), len(done)),
        "estimate.start_fail_frac": _ratio(failed_starts, all_starts),
        "estimate.kendalltau_calls_per_op": _ratio(
            len(by.get("kendalltau", [])), ops),
        "estimate.self_s_per_op": self_per_op("estimate"),
        "fisher.sigma_mc_s": _median(
            [s.end - s.start for s in sigmas if s.attrs["source"] == "mc"]),
        "fisher.sigma_observed_s": _median(
            [s.end - s.start for s in sigmas
             if s.attrs["source"] == "observed"]),
        "fisher.sigma_calls_per_op": _ratio(len(sigmas), ops),
        "fisher.singular_frac": _ratio(
            sum(s.attrs.get("raised") == "SingularSigmaError"
                for s in sigmas), len(sigmas)),
        "fisher.self_s_per_op": self_per_op("fisher"),
        "lrt.null_stats_s_per_1000_draws": _ratio(
            sum(s.end - s.start for s in nulls),
            sum(s.attrs["m"] for s in nulls) / 1000.0),
        "lrt.faces_per_call": _ratio(
            sum(s.attrs["faces"] for s in nulls), len(nulls)),
        "lrt.null_stats_calls_per_op": _ratio(len(nulls), ops),
        "lrt.stat_raised": _ratio(stat_raised(spans), ops),
        "lrt.self_s_per_op": self_per_op("lrt"),
        "scenarios.self_s_per_op": self_per_op("scenarios"),
        **{f"scenarios.error.{k}": _ratio(errors.count(k), ops)
           for k in SCENARIO_ERRORS},
        "errors.haclrt": _ratio(raised.count("haclrt"), ops),
        "errors.foreign": _ratio(raised.count("foreign"), ops),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_METRICS}


def op_breakdown(spans: list[Span]) -> dict:
    """Share of op time spent under each call the op makes directly.

    A direct call counts with everything below it, so "fisher" holds the
    sampler and density time that sigma_hat causes; "self" is the op's
    own time outside those calls.
    """
    top = {i for i, s in enumerate(spans) if s.parent is None}
    total = sum(spans[i].end - spans[i].start for i in top)
    shares = {"self": total}
    for s in spans:
        if s.parent in top:
            shares[s.layer] = shares.get(s.layer, 0.0) + s.end - s.start
            shares["self"] -= s.end - s.start
    return {k: _ratio(v, total) for k, v in sorted(shares.items())}
