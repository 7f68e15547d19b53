"""Simulation harness: rejection rates over the four test settings.

Each scenario fixes a structure and a hypothesis, crosses data and
model families over a grid of sample sizes, and repeats the chosen
tests over seeded replicates.  Parameters follow the common recipe
theta_k = tau_inv(tau) + delta_k with tau in {1/4, 1/2, 3/4} and
delta_k in {0, 1/10}; nonzero offsets create departures from the null.

Settings:
  I    [[1,2],3], tie the single nest; mixture and conditional tests.
  II   [[1,2],[3,4]], tie both nests; twin-pair mixture with a choice
       of covariance estimator.
  III  same data, either-nest union; half/half mixture, a conservative
       bound where both branches hold at the fitted null.
  IV   same data, tie the first nest only; hybrid Monte Carlo null
       plus the simplified variant that assumes the nuisance nest
       collapses into the root.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, NumericError, SingularSigmaError,
                     UnsupportedNestingError)
from .estimate import FitConfig, _lazy_taus
from .fisher import SIGMA_DRAWS
from .lrt import NULL_DRAWS, _check_draws, fit_pair, run_fitted
from .sampler import _seed_sequence, sample
from .tree import HacTree, Hypothesis, holding_branches, quotient

__all__ = [
    "CaseSpec",
    "ScenarioSpec",
    "SCENARIOS",
    "TAU_LEVELS",
    "DELTA",
    "scenario_tree",
    "scenario_hypothesis",
    "scenario_cases",
    "case_theta",
    "run_replicate",
    "run_scenario",
    "rejection_table",
]

SCENARIOS = ("I", "II", "III", "IV")
TAU_LEVELS = (0.25, 0.5, 0.75)
DELTA = 0.1
FAMILIES = ("gumbel", "clayton", "frank")

_TREE2 = [[1, 2], 3]
_TREE3 = [[1, 2], [3, 4]]

_CASE_LETTERS = "abcdefghijkl"


@dataclass(frozen=True)
class CaseSpec:
    """One data-generating configuration of a scenario."""

    label: str
    tau: float
    deltas: tuple[float, ...]   # parameter-scale offsets, one per theta
    null_true: bool


@dataclass(frozen=True)
class ScenarioSpec:
    """A runnable slice of one scenario's full grid."""

    scenario: str
    cases: tuple[str, ...] = ()            # empty means all
    data_families: tuple[str, ...] = FAMILIES
    model_families: tuple[str, ...] = FAMILIES
    n_values: tuple[int, ...] = (32, 128, 512)
    r: int = 500
    alpha: float = 0.05
    seed: int = 7_2021
    m: int = NULL_DRAWS                    # MC null replicates
    n_sigma: int = SIGMA_DRAWS             # model draws behind sigma
    sigma_variants: tuple[tuple[str, str], ...] = (("null", "mc"),)
    fit_config: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise DomainError(f"unknown scenario {self.scenario!r}")
        if self.r < 1:
            raise DomainError("r must be positive")
        if not 0.0 < self.alpha < 0.5:
            raise DomainError("alpha must be in (0, 0.5)")
        _check_draws(self.m)
        _seed_sequence(self.seed)
        if self.n_sigma < 1:
            raise DomainError("n_sigma must be positive")
        known = {c.label for c in scenario_cases(self.scenario)}
        cases = tuple(self.cases) or tuple(sorted(known))
        bad = [c for c in cases if c not in known]
        if bad:
            raise DomainError(f"unknown cases {bad} for scenario {self.scenario}")
        object.__setattr__(self, "cases", cases)
        for fam_list in (self.data_families, self.model_families):
            for f in fam_list:
                if f not in FAMILIES + ("joe",):
                    raise DomainError(f"unknown family {f!r}")
        for at, source in self.sigma_variants:
            if at not in ("null", "full") or source not in ("observed", "mc"):
                raise DomainError(f"bad sigma variant ({at!r}, {source!r})")


def scenario_tree(scenario: str) -> HacTree:
    return HacTree(_TREE2 if scenario == "I" else _TREE3)


def scenario_hypothesis(scenario: str) -> Hypothesis:
    if scenario in ("I", "IV"):
        return Hypothesis.parse("(0,1)=(0)")
    if scenario == "II":
        return Hypothesis.parse("(0,1)=(0) & (0,2)=(0)")
    return Hypothesis.parse("(0,1)=(0) | (0,2)=(0)")


def _delta_patterns(scenario: str) -> tuple[tuple[float, ...], ...]:
    if scenario == "I":
        return ((0.0, 0.0), (0.0, DELTA))
    # cases a-c all tied; d-f free upper nest; g-i both nests shifted
    return ((0.0, 0.0, 0.0), (0.0, 0.0, DELTA), (0.0, DELTA, DELTA))


def scenario_cases(scenario: str) -> tuple[CaseSpec, ...]:
    if scenario not in SCENARIOS:
        raise DomainError(f"unknown scenario {scenario!r}")
    tree, hyp = scenario_tree(scenario), scenario_hypothesis(scenario)
    out = []
    k = 0
    for deltas in _delta_patterns(scenario):
        for tau in TAU_LEVELS:
            out.append(
                CaseSpec(
                    label=_CASE_LETTERS[k],
                    tau=tau,
                    deltas=deltas,
                    # the offsets are theta less a common base, so they
                    # hold the same ties
                    null_true=bool(holding_branches(tree, hyp, deltas)),
                )
            )
            k += 1
    return tuple(out)


def case_theta(case: CaseSpec, family: str) -> np.ndarray:
    """Data-generating parameter vector for one case and family."""
    from .generators import tau_inv

    base = tau_inv(family, case.tau)
    return np.array([base + d for d in case.deltas])


def _case_by_label(scenario: str, label: str) -> CaseSpec:
    for c in scenario_cases(scenario):
        if c.label == label:
            return c
    raise DomainError(f"unknown case {label!r} for scenario {scenario}")


# --------------------------------------------------------------------
# one replicate
# --------------------------------------------------------------------

def _record(base, method, statistic=None, p_value=None, reject=None,
            error=None):
    rec = dict(base)
    rec.update(
        method=method,
        statistic=statistic,
        p_value=p_value,
        reject=reject,
        error=error,
    )
    return rec


def _plan(spec: ScenarioSpec):
    """Structures to fit, each with its (record name, method, sigma
    variant index) triples, in record order."""
    scenario = spec.scenario
    tree = scenario_tree(scenario)
    hyp = scenario_hypothesis(scenario)
    if scenario == "I":
        return [(tree, hyp, [("mixture", "mixture", 0),
                             ("conditional", "conditional", 0)])]
    if scenario == "II":
        return [(tree, hyp, [(f"mixture[{at},{source}]", "mixture", i)
                             for i, (at, source)
                             in enumerate(spec.sigma_variants)])]
    if scenario == "III":
        return [(tree, hyp, [("mixture", "mixture", 0)])]
    # IV, plus the simplified test that assumes the nuisance nest
    # collapses into the root, [[1,2],3,4]: the half/half mixture
    wide = quotient(tree, [((), (2,))])[0]
    return [(tree, hyp, [("hybrid", "hybrid", 0)]),
            (wide, hyp, [("simplified", "mixture", 0)])]


def run_replicate(
    spec: ScenarioSpec,
    case_label: str,
    data_family: str,
    model_family: str,
    n: int,
    rep: int,
) -> list[dict]:
    """All test records for one seeded dataset under one model family.

    The data seed depends on the scenario, case, data family, sample
    size, and replicate index, but not on the model family, so the
    same dataset is refit under every candidate model.  A failed fit
    marks its own methods and every later one with the fit's error.  A
    data draw beyond the frailty sampler's budget marks every method
    ``sampler-budget``; a covariance's draw beyond it marks its method.
    """
    scenario = spec.scenario
    case = _case_by_label(scenario, case_label)
    key = (
        SCENARIOS.index(scenario),
        _CASE_LETTERS.index(case.label),
        FAMILIES.index(data_family) if data_family in FAMILIES else 3,
        n,
        rep,
    )
    children = np.random.SeedSequence(spec.seed, spawn_key=key).spawn(8)
    base = {
        "scenario": scenario,
        "case": case.label,
        "data_family": data_family,
        "model_family": model_family,
        "n": n,
        "rep": rep,
        "null_true": case.null_true,
    }
    plan = _plan(spec)

    def failed(k, kind):
        # every method of the plan from structure k on
        return [_record(base, name, error=kind)
                for _, _, later in plan[k:] for name, _, _ in later]

    theta = case_theta(case, data_family)
    try:
        data = sample(scenario_tree(scenario), theta, data_family, n,
                      seed=children[0]).values
    except UnsupportedNestingError:
        return failed(0, "sampler-budget")

    records = []
    taus = _lazy_taus(data)     # one Kendall-tau matrix for every structure
    for k, (tree, hyp, methods) in enumerate(plan):
        try:
            pair = fit_pair(data, tree, model_family, hyp,
                            config=spec.fit_config, _taus=taus)
        except (DomainError, NumericError) as exc:
            kind = ("fit-domain" if isinstance(exc, DomainError)
                    else "fit-numeric")
            return records + failed(k, kind)
        for name, method, i in methods:
            at, source = spec.sigma_variants[i]
            try:
                result = run_fitted(
                    pair, method, children[2 + i], children[1],
                    alpha=spec.alpha, sigma_source=source, sigma_at=at,
                    n_sigma=spec.n_sigma, m=spec.m,
                )
            except (DomainError, NumericError) as exc:
                kind = ("sigma-singular" if isinstance(exc, SingularSigmaError)
                        else "sampler-budget"
                        if isinstance(exc, UnsupportedNestingError)
                        else "sigma-domain")
                records.append(_record(base, name, pair.statistic,
                                       error=kind))
            else:
                p = result.p_value
                records.append(_record(base, name, pair.statistic, p,
                                       p < spec.alpha))
    return records


# --------------------------------------------------------------------
# the grid
# --------------------------------------------------------------------

def _tasks(spec: ScenarioSpec):
    for case in spec.cases:
        for df in spec.data_families:
            for mf in spec.model_families:
                for n in spec.n_values:
                    for rep in range(spec.r):
                        yield (spec, case, df, mf, n, rep)


def _run_task(args):
    return run_replicate(*args)


def run_scenario(spec: ScenarioSpec, jobs: int = 1) -> list[dict]:
    """All records of the grid, in deterministic task order."""
    tasks = list(_tasks(spec))
    if jobs <= 1:
        chunks = [run_replicate(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_task, tasks, chunksize=8))
    return [rec for chunk in chunks for rec in chunk]


def rejection_table(records) -> list[dict]:
    """Aggregate records into rejection rates with binomial errors.

    Failed replicates (no p-value) are excluded from the rate and
    counted separately, split into singular-covariance failures and
    everything else.
    """
    cells = {}
    for rec in records:
        key = (rec["scenario"], rec["case"], rec["data_family"],
               rec["model_family"], rec["n"], rec["method"])
        cell = cells.setdefault(
            key,
            {"used": 0, "rejects": 0, "singular": 0, "failed": 0,
             "null_true": rec["null_true"]},
        )
        if rec["error"] is None:
            cell["used"] += 1
            cell["rejects"] += bool(rec["reject"])
        elif rec["error"] == "sigma-singular":
            cell["singular"] += 1
        else:
            cell["failed"] += 1
    rows = []
    for key in sorted(cells, key=lambda k: tuple(map(str, k))):
        scenario, case, df, mf, n, method = key
        cell = cells[key]
        used = cell["used"]
        rate = 100.0 * cell["rejects"] / used if used else float("nan")
        se = (
            100.0 * float(np.sqrt((rate / 100.0) * (1.0 - rate / 100.0) / used))
            if used
            else float("nan")
        )
        rows.append(
            {
                "scenario": scenario,
                "case": case,
                "data_family": df,
                "model_family": mf,
                "n": n,
                "method": method,
                "null_true": cell["null_true"],
                "r_used": used,
                "rate_pct": rate,
                "se_pct": se,
                "n_singular": cell["singular"],
                "n_failed": cell["failed"],
            }
        )
    return rows
