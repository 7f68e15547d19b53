"""The benchmark's workloads: op kinds, seeded inputs and output checks.

Each workload cycles through a fixed list of op kinds.  The order of
the list is shuffled once with a constant, so every run and every
commit sees the same kinds in the same order; the workload seed changes
only the data and the Monte Carlo seeds.  Inputs are generated before
an op starts and are not part of its time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import haclrt
from haclrt import lrt, scenarios
from haclrt.errors import HaclrtError

FAMILIES = ("gumbel", "clayton", "frank")
TWIN_TREE = haclrt.HacTree([[1, 2], [3, 4]])
WIDE_TREE = haclrt.HacTree([[2 * k + 1, 2 * k + 2] for k in range(6)])
TWIN_PAIR = "(0,1)=(0) & (0,2)=(0)"
NUISANCE = "(0,1)=(0)"
WIDE_TIE = " & ".join(f"(0,{k})=(0)" for k in range(1, 7))
WIDE_TAU = 0.5
# fixes the order of the kinds, never the data
ORDER_SEED = 2411
# input of the untimed warm-up op; the index is outside the range of
# measured ops
WARMUP_SEED = 0
WARMUP_INDEX = 10**6
# the run length `typical_ops` is set for
REFERENCE_SECONDS = 25.0


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    # make(kind, seed, i) builds op i's inputs and returns the timed call
    make: Callable[[tuple, int, int], Callable[[], object]]
    # ops that take about 25 seconds at the commit that defined the
    # benchmark; fixes the op count of a run and the op_tail_s
    # percentile, so a parent and a change run the same ops and compare
    # the same percentile
    typical_ops: int

    @property
    def tail_pct(self) -> float:
        return tail_pct_for(self.typical_ops)

    def ops_for(self, seconds: float) -> int:
        """Ops one run makes: `typical_ops` scaled to `seconds`.

        The count depends on `seconds` alone, never on how fast the ops
        run, so two runs with the same seed attempt the same ops and
        fail the same ones.
        """
        return max(1, round(self.typical_ops * seconds / REFERENCE_SECONDS))


def tail_pct_for(n_ops: int, beyond: int = 10) -> float:
    """Highest whole percentile with at least `beyond` of n_ops above it.

    Never below the median: with fewer than 2 * beyond ops the tail is
    the median and fewer ops lie beyond it.
    """
    return max(50.0, float(math.floor(100.0 * (1.0 - beyond / n_ops))))


def _ordered(kinds) -> tuple:
    kinds = list(kinds)
    order = np.random.default_rng(ORDER_SEED).permutation(len(kinds))
    return tuple(kinds[j] for j in order)


def _case(scenario: str, label: str):
    return next(c for c in scenarios.scenario_cases(scenario)
                if c.label == label)


def _op_seeds(seed: int, i: int):
    data_ss, test_ss = np.random.SeedSequence([seed, i]).spawn(2)
    return data_ss, int(test_ss.generate_state(1)[0])


# --- test-twin ------------------------------------------------------------

def _twin_kinds():
    # twin-pair mixture on scenario II cases; hybrid nuisance test on
    # scenario IV cases, the nuisance nest shifted under the null
    for (scenario, hyp, method), family, k in itertools.product(
            (("II", TWIN_PAIR, "mixture"), ("IV", NUISANCE, "hybrid")),
            FAMILIES, range(3)):
        null, alt = ("abc", "ghi") if scenario == "II" else ("def", "ghi")
        for label in (null[k], alt[k]):
            yield (scenario, label, family, hyp, method)


@functools.lru_cache(maxsize=64)
def _twin_data(seed: int, cycle: int, label: str, family: str) -> np.ndarray:
    # scenarios II and IV share their cases, so within one pass over the
    # kinds a case's dataset is drawn once and tested under both
    # hypotheses; drawing shifted frank nests at tau 3/4 takes seconds
    theta = scenarios.case_theta(_case("II", label), family)
    data_ss = np.random.SeedSequence([seed, cycle, ord(label),
                                      FAMILIES.index(family)])
    data = haclrt.sample(TWIN_TREE, theta, family, 512, seed=data_ss).values
    data.flags.writeable = False
    return data


TWIN_KINDS = _ordered(_twin_kinds())


def _twin_op(kind, seed, i):
    scenario, label, family, hyp, method = kind
    data = _twin_data(seed, i // len(TWIN_KINDS), label, family)
    _, test_seed = _op_seeds(seed, i)
    return lambda: lrt.run_test(data, TWIN_TREE, family, hyp, method=method,
                                config=haclrt.FitConfig(), seed=test_seed)


# --- scenario-fit ---------------------------------------------------------

def _fit_kinds():
    for scenario, (null, alt) in (("I", ("abc", "def")),
                                  ("III", ("abc", "ghi"))):
        for k, df, mf, n in itertools.product(range(3), FAMILIES, FAMILIES,
                                              (128, 512)):
            for label in (null[k], alt[k]):
                yield (scenario, label, df, mf, n)


def _fit_op(kind, seed, i):
    scenario, label, df, mf, n = kind
    spec = scenarios.ScenarioSpec(scenario=scenario, r=1, seed=seed,
                                  fit_config=haclrt.FitConfig())
    return lambda: scenarios.run_replicate(spec, label, df, mf, n, i)


# --- wide-mc --------------------------------------------------------------

def _wide_kinds():
    for family, shifted in itertools.product(FAMILIES, (False, True)):
        yield (family, shifted)


def _wide_op(kind, seed, i):
    family, shifted = kind
    data_ss, test_seed = _op_seeds(seed, i)
    base = haclrt.tau_inv(family, WIDE_TAU)
    theta = [base] + [base + (scenarios.DELTA if shifted else 0.0)] * 6
    data = haclrt.sample(WIDE_TREE, theta, family, 256, seed=data_ss).values
    return lambda: lrt.run_test(data, WIDE_TREE, family, WIDE_TIE,
                                method="mc", sigma_source="observed",
                                m=50_000, config=haclrt.FitConfig(),
                                seed=test_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("test-twin", TWIN_KINDS, _twin_op, 30),
        Workload("scenario-fit", _ordered(_fit_kinds()), _fit_op, 55),
        Workload("wide-mc", _ordered(_wide_kinds()), _wide_op, 16),
    )
}


# --- outcomes -------------------------------------------------------------

def classify(exc: BaseException) -> str:
    """'haclrt' for the library's own errors, 'foreign' for the rest."""
    return "haclrt" if isinstance(exc, HaclrtError) else "foreign"


def _check_stat_p(statistic, p_value, where) -> list[str]:
    out = []
    if not (isinstance(statistic, float) and math.isfinite(statistic)
            and statistic >= 0.0):
        out.append(f"{where}: statistic {statistic!r} not finite and >= 0")
    if p_value is not None and not 0.0 <= p_value <= 1.0:
        out.append(f"{where}: p-value {p_value!r} outside [0, 1]")
    return out


def check(result) -> list[str]:
    """Problems with one successful op's output; empty when it is sound.

    A run_test result is checked directly.  A scenario replicate exposes
    no fits, so there the statistic being present is the evidence that
    the full fit did not end below the null fit.
    """
    if isinstance(result, lrt.LrtResult):
        out = _check_stat_p(result.statistic, result.p_value, "run_test")
        if result.p_value is None:
            out.append("run_test: no p-value")
        gap = result.fit_full.loglik - result.fit_null.loglik
        if not 2.0 * gap >= -lrt.ATOM_TOL:
            out.append(f"run_test: full loglik below null by {-gap:.3g}")
        if result.sigma is not None:
            sigma = np.asarray(result.sigma.sigma, dtype=float)
            if not (np.all(np.isfinite(sigma))
                    and np.allclose(sigma, sigma.T)
                    and np.linalg.eigvalsh(sigma)[0] > 0.0):
                out.append("run_test: sigma is not positive definite")
        return out
    out = []
    for rec in result:
        where = f"replicate {rec['method']}"
        if rec["statistic"] is not None:
            out += _check_stat_p(rec["statistic"], rec["p_value"], where)
        if rec["error"] is None and rec["p_value"] is None:
            out.append(f"{where}: no p-value and no error")
    return out


def errors_of(result) -> list[str]:
    """Error kinds a scenario replicate reports in its records."""
    if isinstance(result, lrt.LrtResult):
        return []
    return [rec["error"] for rec in result if rec["error"] is not None]


def fingerprint(result) -> list:
    """The numbers a fixed seed pins, exactly as computed."""
    if isinstance(result, lrt.LrtResult):
        return [repr(result.statistic), repr(result.p_value)]
    return [[rec["method"], repr(rec["statistic"]), repr(rec["p_value"]),
             rec["error"]] for rec in result]
