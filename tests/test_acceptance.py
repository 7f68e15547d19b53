"""End-to-end statistical validation at desk scale.

Each test checks one release gate: derivative correctness, the
closed-form mixture laws against brute-force cone projection, the
simulation harness against its expected operating characteristics,
and the supporting diagnostics (power ordering, determinant scans).
Scenario cells run at R = 500 replications; the whole file is a few
minutes of Monte Carlo on one core.
"""

import numpy as np
import pytest
from scipy import stats

from haclrt.density import log_density, log_density_and_derivs, two_level_spec
from haclrt.estimate import FitConfig
from haclrt.fisher import determinant_scan
from haclrt.generators import get_family
from haclrt.lrt import LimitLaw, null_statistics, power_curve
from haclrt.scenarios import ScenarioSpec, rejection_table, run_scenario
from haclrt.tree import Cone, HacTree

pytestmark = pytest.mark.slow

TREE3 = HacTree([[1, 2], 3])
CFG = FitConfig(n_perturbed=2)


# --- 1. analytic derivatives ------------------------------------------------


@pytest.mark.parametrize("family", ["clayton", "gumbel"])
def test_analytic_derivatives_match_central_differences(family):
    """Score and Hessian vs central differences at 200 interior points."""
    fam = get_family(family)
    rng = np.random.default_rng({"clayton": 101, "gumbel": 202}[family])
    lo = fam.domain.lo
    worst_score, worst_hess = 0.0, 0.0
    for _ in range(200):
        th0 = lo + 0.3 + 2.0 * rng.random()
        th1 = th0 + 0.2 + 1.5 * rng.random()
        theta = np.array([th0, th1])
        u = 0.05 + 0.9 * rng.random((1, 3))

        spec = two_level_spec(TREE3, family, theta)
        _, score, hess = log_density_and_derivs(spec, u, order=2)

        def f(t):
            return float(log_density(two_level_spec(TREE3, family, t), u)[0])

        h = 6e-6 * np.maximum(1.0, np.abs(theta))
        fd_score = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h[k]
            fd_score[k] = (f(theta + e) - f(theta - e)) / (2 * h[k])
        hh = 1e-4 * np.maximum(1.0, np.abs(theta))
        fd_hess = np.zeros((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = hh[k]
            fd_hess[k, k] = (f(theta + e) - 2 * f(theta) + f(theta - e)) / hh[k] ** 2
        e0 = np.array([hh[0], 0.0])
        e1 = np.array([0.0, hh[1]])
        fd_hess[0, 1] = fd_hess[1, 0] = (
            f(theta + e0 + e1) - f(theta + e0 - e1)
            - f(theta - e0 + e1) + f(theta - e0 - e1)
        ) / (4 * hh[0] * hh[1])

        worst_score = max(
            worst_score,
            np.linalg.norm(score[0] - fd_score) / np.linalg.norm(fd_score),
        )
        worst_hess = max(
            worst_hess,
            np.linalg.norm(hess[0] - fd_hess) / np.linalg.norm(fd_hess),
        )
    assert worst_score <= 1e-6
    assert worst_hess <= 1e-4


# --- 2. half-space/line limit law -------------------------------------------


def test_half_space_line_law_is_half_chisq():
    """Atom 0.5 +- 0.01 and chi-squared(1) positive part, 10 random Sigma."""
    cone = Cone(2, ineq=np.array([[1.0, -1.0]]))
    line = Cone(2, eq=np.array([[1.0, -1.0]]))
    rng = np.random.default_rng(2024)
    for k in range(10):
        w = rng.normal(size=(2, 2))
        sigma = w @ w.T + 0.3 * np.eye(2)
        draws = null_statistics(sigma, cone, (line,), m=100_000, seed=100 + k)
        atom = float(np.mean(draws == 0.0))
        assert atom == pytest.approx(0.5, abs=0.01)
        ks = stats.kstest(draws[draws > 0.0], stats.chi2(1).cdf)
        assert ks.pvalue > 0.01


# --- 3. three-parameter mixture weights -------------------------------------


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_projection_region_frequencies_match_weights(beta):
    """Empirical region frequencies vs the closed-form weight triples."""
    s12 = 3.0 * min(beta, 1.0 - 1e-9) - 1.0
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, s12], [0.0, s12, 2.0]])
    cone = Cone(3, ineq=np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]))
    nulls = {
        "twin-pair": Cone(3, eq=np.array([[1.0, -1.0, 0.0],
                                          [1.0, 0.0, -1.0]])),
        "tied-nuisance": Cone(3, eq=np.array([[1.0, -1.0, 0.0]]),
                              ineq=np.array([[1.0, 0.0, -1.0]])),
    }
    for setting, null_cone in nulls.items():
        law = LimitLaw.closed_form(cone, null_cone, sigma)
        _, det = null_statistics(sigma, cone, (null_cone,), m=100_000,
                                 seed=int(beta * 40) + 7, details=True)
        for k, weight in zip((0, 1, 2), law.weights):
            freq = float(np.mean(det["nu"] == k))
            assert freq == pytest.approx(weight, abs=0.01), (setting, k)


# --- 4-6. scenario I operating characteristics ------------------------------


def _one_cell(scenario, case, df, mf, **kw):
    spec = ScenarioSpec(
        scenario, cases=(case,), data_families=(df,), model_families=(mf,),
        n_values=(512,), r=500, seed=815, fit_config=CFG, **kw,
    )
    return run_scenario(spec)


@pytest.fixture(scope="module")
def scenario_i_gumbel():
    return _one_cell("I", "a", "gumbel", "gumbel")


def _rate(records, method):
    rows = [r for r in rejection_table(records) if r["method"] == method]
    assert len(rows) == 1 and rows[0]["r_used"] == 500
    return rows[0]["rate_pct"]


def test_scenario_i_size_gumbel_and_clayton(scenario_i_gumbel):
    # sizes land near 4% and 6% here; +-3% binomial tolerance at R=500
    assert 1.0 <= _rate(scenario_i_gumbel, "mixture") <= 7.0
    clayton = _one_cell("I", "a", "clayton", "clayton")
    assert 3.0 <= _rate(clayton, "mixture") <= 9.0


def test_scenario_i_conditional_size_and_dominance(scenario_i_gumbel):
    # conditioning halves the effective level, so the rate sits near
    # 2%; and the conditional test cannot out-reject the unconditional
    # one on any shared replicate
    assert 0.5 <= _rate(scenario_i_gumbel, "conditional") <= 3.5
    by_rep = {}
    for rec in scenario_i_gumbel:
        by_rep.setdefault(rec["rep"], {})[rec["method"]] = rec["reject"]
    assert all(
        d["conditional"] <= d["mixture"] for d in by_rep.values()
    )


def test_misspecified_model_rejects_structure():
    # clayton fit to strongly dependent gumbel data: far above nominal
    records = _one_cell("I", "c", "gumbel", "clayton")
    assert _rate(records, "mixture") >= 30.0


# --- 7. power ordering across families --------------------------------------


def test_power_ordering_joe_gumbel_clayton_frank():
    """Local power at tau=1/3, h'=0.1 orders the four families.

    One common small covariance step: the joe tie-point information
    is step-regularized (it grows as the step shrinks), and by 0.001
    the ordering is stable.  The power is closed form given sigma, so
    the 0.003 margin covers only sigma's Monte Carlo error.
    """
    power = {}
    for family in ("joe", "gumbel", "clayton", "frank"):
        curve = power_curve(family, 1.0 / 3.0, [0.1], alpha=0.05,
                            n_sigma=100_000, seed=33,
                            delta_tau=0.001)
        power[family] = curve.power[0]
    order = ("joe", "gumbel", "clayton", "frank")
    for hi, lo in zip(order, order[1:]):
        assert power[hi] - power[lo] > 0.003, power


# --- 8. information determinant scans ----------------------------------------


@pytest.mark.parametrize("family", ["clayton", "gumbel"])
def test_determinant_scan_positive_near_origin(family):
    scan = determinant_scan(family, n_mc=10_000, seed=4)
    assert scan.offsets.shape == (8,)
    tri = [d for _, _, d in scan.rows()]
    assert len(tri) == 36
    assert np.all(np.isfinite(tri))
    assert scan.all_positive


# --- 9. hybrid test with a nuisance nest -------------------------------------


@pytest.fixture(scope="module")
def scenario_iv_cells():
    spec = ScenarioSpec(
        "IV", cases=("a", "d"), data_families=("gumbel",),
        model_families=("gumbel",), n_values=(512,), r=500, seed=815,
        n_sigma=20_000, m=3000, fit_config=CFG,
    )
    return rejection_table(run_scenario(spec))


def test_hybrid_null_size(scenario_iv_cells):
    rows = {(r["case"], r["method"]): r for r in scenario_iv_cells}
    size_a = rows[("a", "hybrid")]
    assert size_a["r_used"] + size_a["n_singular"] + size_a["n_failed"] == 500
    assert 1.0 <= size_a["rate_pct"] <= 7.0
    # null still true in case d (only the nuisance nest moved); the
    # hybrid shift absorbs it, while the collapsed variant need not
    assert rows[("d", "hybrid")]["rate_pct"] <= 8.0


# --- 10. harness emits the complete grid -------------------------------------


STRUCTURE = {
    "I": (6, ("mixture", "conditional")),
    "II": (9, ("mixture[null,mc]",)),
    "III": (9, ("mixture",)),
    "IV": (9, ("hybrid", "simplified")),
}


@pytest.mark.parametrize("scenario", ["I", "II", "III", "IV"])
def test_harness_emits_complete_table_structure(scenario):
    n_cases, methods = STRUCTURE[scenario]
    spec = ScenarioSpec(scenario, r=1, seed=5, n_sigma=1500, m=1200,
                        fit_config=FitConfig(n_perturbed=1))
    rows = rejection_table(run_scenario(spec))
    seen = {(r["case"], r["data_family"], r["model_family"], r["n"],
             r["method"]) for r in rows}
    assert len(rows) == len(seen) == n_cases * 3 * 3 * 3 * len(methods)
    for row in rows:
        assert row["n"] in (32, 128, 512)
        assert row["method"] in methods
        assert row["r_used"] + row["n_singular"] + row["n_failed"] == 1
        if row["r_used"]:
            assert 0.0 <= row["rate_pct"] <= 100.0


def test_harness_replication_count_configurable():
    for r in (2, 3):
        spec = ScenarioSpec("III", cases=("a",), data_families=("gumbel",),
                            model_families=("gumbel",), n_values=(48,), r=r,
                            seed=5, fit_config=FitConfig(n_perturbed=1))
        rows = rejection_table(run_scenario(spec))
        assert rows[0]["r_used"] + rows[0]["n_singular"] + rows[0]["n_failed"] == r
