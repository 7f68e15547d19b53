"""Scenario harness: case tables, seeding, and aggregation."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

import haclrt.estimate as estimate_module
import haclrt.lrt as lrt_module
import haclrt.scenarios as scenarios_module
from haclrt.errors import (
    DomainError,
    SingularSigmaError,
    UnsupportedNestingError,
)
from haclrt.estimate import FitConfig
from haclrt.generators import tau_inv
from haclrt.scenarios import (
    DELTA,
    SCENARIOS,
    TAU_LEVELS,
    CaseSpec,
    ScenarioSpec,
    case_theta,
    rejection_table,
    run_replicate,
    run_scenario,
    scenario_cases,
    scenario_hypothesis,
    scenario_tree,
)
from haclrt.tree import HacTree, holding_branches

CFG = FitConfig(n_perturbed=1, seed=3)


# --- case tables ----------------------------------------------------------


def test_case_counts():
    assert len(scenario_cases("I")) == 6
    for s in ("II", "III", "IV"):
        assert len(scenario_cases(s)) == 9


def test_case_labels_and_taus():
    cases = scenario_cases("II")
    assert [c.label for c in cases] == list("abcdefghi")
    assert [c.tau for c in cases] == [0.25, 0.5, 0.75] * 3


def test_case_delta_patterns():
    one = {c.label: c.deltas for c in scenario_cases("I")}
    assert one["a"] == (0.0, 0.0)
    assert one["f"] == (0.0, DELTA)
    four = {c.label: c.deltas for c in scenario_cases("IV")}
    assert four["b"] == (0.0, 0.0, 0.0)
    assert four["e"] == (0.0, 0.0, DELTA)
    assert four["h"] == (0.0, DELTA, DELTA)


def test_null_flags_per_scenario():
    flags = lambda s: {c.label: c.null_true for c in scenario_cases(s)}
    assert flags("I") == dict(a=True, b=True, c=True, d=False, e=False, f=False)
    two = flags("II")
    assert all(two[k] for k in "abc") and not any(two[k] for k in "defghi")
    three = flags("III")
    assert all(three[k] for k in "abcdef") and not any(three[k] for k in "ghi")
    assert flags("IV") == three


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_null_flags_are_the_holding_rule(scenario):
    # a case's null is true exactly where some branch holds at its theta
    tree, hyp = scenario_tree(scenario), scenario_hypothesis(scenario)
    for case in scenario_cases(scenario):
        for family in ("gumbel", "clayton", "frank", "joe"):
            held = holding_branches(tree, hyp, case_theta(case, family))
            assert case.null_true == bool(held), (case.label, family)


def test_case_theta_values():
    # gumbel tau_inv(1/4) = 4/3; offset applied on the parameter scale
    d = [c for c in scenario_cases("I") if c.label == "d"][0]
    np.testing.assert_allclose(case_theta(d, "gumbel"), [4.0 / 3.0, 4.0 / 3.0 + 0.1])
    # clayton tau_inv(1/2) = 2
    h = [c for c in scenario_cases("II") if c.label == "h"][0]
    np.testing.assert_allclose(case_theta(h, "clayton"), [2.0, 2.1, 2.1])
    e = [c for c in scenario_cases("III") if c.label == "e"][0]
    base = tau_inv("frank", 0.5)
    np.testing.assert_allclose(case_theta(e, "frank"), [base, base, base + 0.1])


def test_structures_and_hypotheses():
    assert scenario_tree("I").d == 3 and scenario_tree("I").p == 2
    for s in ("II", "III", "IV"):
        assert scenario_tree(s).d == 4 and scenario_tree(s).p == 3
    assert len(scenario_hypothesis("II").branches) == 1
    assert len(scenario_hypothesis("II").branches[0]) == 2
    assert len(scenario_hypothesis("III").branches) == 2
    assert scenario_hypothesis("IV").branches == (((1,),),)
    # the simplified test of IV refits the tree with its nuisance nest
    # contracted into the root
    structures = [tree for tree, _, _ in scenarios_module._plan(
        ScenarioSpec("IV"))]
    assert structures == [scenario_tree("IV"), HacTree([[1, 2], 3, 4])]


def test_spec_validation():
    with pytest.raises(DomainError, match="scenario"):
        ScenarioSpec("V")
    with pytest.raises(DomainError, match="cases"):
        ScenarioSpec("I", cases=("z",))
    with pytest.raises(DomainError, match="family"):
        ScenarioSpec("I", data_families=("gaussian",))
    with pytest.raises(DomainError, match="variant"):
        ScenarioSpec("II", sigma_variants=(("prior", "mc"),))
    with pytest.raises(DomainError, match="alpha"):
        ScenarioSpec("I", alpha=0.6)
    with pytest.raises(DomainError, match="r must"):
        ScenarioSpec("I", r=0)
    # counts that no replicate could use fail before any fit, in every
    # scenario, whether or not it simulates
    with pytest.raises(DomainError, match="m must be at least 1000"):
        ScenarioSpec("IV", seed=6, r=1, m=500, n_sigma=2000)
    with pytest.raises(DomainError, match="m must be at least 1000"):
        ScenarioSpec("I", m=999)
    with pytest.raises(DomainError, match="n_sigma must be positive"):
        ScenarioSpec("II", n_sigma=0)
    assert ScenarioSpec("I", m=lrt_module.MIN_NULL_DRAWS, n_sigma=1).m == 1000
    assert ScenarioSpec("I").cases == tuple("abcdef")
    assert ScenarioSpec("III", cases=("c", "a")).cases == ("c", "a")


# --- replicates -----------------------------------------------------------


def _tiny(scenario, **kw):
    kw.setdefault("cases", ("a",))
    kw.setdefault("data_families", ("gumbel",))
    kw.setdefault("model_families", ("gumbel",))
    kw.setdefault("n_values", (48,))
    kw.setdefault("r", 2)
    kw.setdefault("n_sigma", 4000)
    kw.setdefault("m", 2000)
    kw.setdefault("fit_config", CFG)
    return ScenarioSpec(scenario, **kw)


RECORD_KEYS = {
    "scenario", "case", "data_family", "model_family", "n", "rep",
    "null_true", "method", "statistic", "p_value", "reject", "error",
}


def test_replicate_deterministic_and_complete():
    spec = _tiny("I")
    a = run_replicate(spec, "a", "gumbel", "gumbel", 48, 0)
    b = run_replicate(spec, "a", "gumbel", "gumbel", 48, 0)
    assert a == b
    assert [r["method"] for r in a] == ["mixture", "conditional"]
    for rec in a:
        assert set(rec) == RECORD_KEYS
        assert rec["error"] is None
        assert 0.0 <= rec["p_value"] <= 1.0
        assert rec["statistic"] >= 0.0


def test_replicate_data_shared_across_models():
    # same seed key regardless of model family: a perfectly specified
    # and a misspecified fit see the same statistic ordering per rep
    spec = _tiny("I", model_families=("gumbel", "clayton"))
    g = run_replicate(spec, "a", "gumbel", "gumbel", 48, 1)
    c = run_replicate(spec, "a", "gumbel", "clayton", 48, 1)
    assert g[0]["statistic"] != c[0]["statistic"]  # different models
    assert g[0]["rep"] == c[0]["rep"] == 1


def test_scenario_ii_variant_records():
    spec = _tiny("II", sigma_variants=(("null", "mc"), ("full", "observed")))
    recs = run_replicate(spec, "a", "gumbel", "gumbel", 48, 0)
    assert [r["method"] for r in recs] == [
        "mixture[null,mc]", "mixture[full,observed]",
    ]
    # both variants test the same statistic
    assert recs[0]["statistic"] == recs[1]["statistic"]


def test_scenario_iv_computes_one_tau_matrix_per_replicate(monkeypatch):
    # the hybrid and the simplified structure fit the same dataset
    calls = []
    real = estimate_module._tau_matrix

    def counted(u):
        calls.append(1)
        return real(u)

    monkeypatch.setattr(estimate_module, "_tau_matrix", counted)
    recs = run_replicate(_tiny("IV"), "e", "gumbel", "gumbel", 48, 0)
    assert [r["method"] for r in recs] == ["hybrid", "simplified"]
    assert len(calls) == 1


def test_scenario_iv_methods_and_simplified_rule():
    spec = _tiny("IV", cases=("i",), n_values=(128,), r=3)
    recs = run_scenario(spec)
    assert {r["method"] for r in recs} == {"hybrid", "simplified"}
    c_alpha = stats.chi2.ppf(1.0 - 2.0 * spec.alpha, 1)
    for rec in recs:
        if rec["method"] == "simplified" and rec["error"] is None:
            assert rec["reject"] == (rec["statistic"] > c_alpha)
            # decision agrees with the half/half mixture p-value
            assert rec["reject"] == (rec["p_value"] < spec.alpha)


def test_run_scenario_grid_shape():
    spec = _tiny("III", cases=("a", "g"), n_values=(32, 48), r=2)
    recs = run_scenario(spec)
    # cases x families x n x reps x methods
    assert len(recs) == 2 * 1 * 1 * 2 * 2 * 1
    seen = {(r["case"], r["n"], r["rep"]) for r in recs}
    assert len(seen) == 8
    null_by_case = {r["case"]: r["null_true"] for r in recs}
    assert null_by_case == {"a": True, "g": False}


def test_run_scenario_parallel_matches_sequential():
    spec = _tiny("I", cases=("a", "d"), r=2)
    assert run_scenario(spec, jobs=2) == run_scenario(spec, jobs=1)


def test_run_scenario_reproducible():
    spec = _tiny("III")
    assert run_scenario(spec) == run_scenario(spec)


# --- error kinds ----------------------------------------------------------


@pytest.mark.parametrize("exc, kind", [
    (SingularSigmaError, "sigma-singular"),
    (DomainError, "sigma-domain"),
    (UnsupportedNestingError, "sampler-budget"),
])
@pytest.mark.parametrize("scenario", ["II", "IV"])
def test_sigma_failures_keep_the_statistic(monkeypatch, scenario, exc, kind):
    spec = _tiny(scenario,
                 sigma_variants=(("null", "mc"), ("full", "observed")))
    clean = run_replicate(spec, "a", "gumbel", "gumbel", 48, 0)

    def boom(*args, **kwargs):
        raise exc("forced covariance failure")

    monkeypatch.setattr(lrt_module, "sigma_hat", boom)
    recs = run_replicate(spec, "a", "gumbel", "gumbel", 48, 0)
    assert [r["method"] for r in recs] == [r["method"] for r in clean]
    for rec, ref in zip(recs, clean):
        assert ref["error"] is None
        if rec["method"] == "simplified":     # needs no covariance
            assert rec == ref
            continue
        assert rec["error"] == kind
        assert rec["statistic"] == ref["statistic"]
        assert rec["p_value"] is None and rec["reject"] is None


def test_data_draw_beyond_the_sampler_budget_fails_every_method():
    # joe data at tau = 3/4 with a shifted nest: the compound inner
    # frailty needs ~8e15 draws
    spec = ScenarioSpec("I", cases=("f",), data_families=("joe",),
                        model_families=("gumbel",), n_values=(32,), r=2,
                        seed=815, m=1000, n_sigma=1000)
    recs = run_scenario(spec)
    assert [(r["method"], r["error"]) for r in recs] == [
        ("mixture", "sampler-budget"), ("conditional", "sampler-budget")] * 2
    assert all(r["statistic"] is None and r["p_value"] is None for r in recs)
    for row in rejection_table(recs):
        assert (row["r_used"], row["n_failed"]) == (0, 2)


def test_sigma_draw_beyond_the_sampler_budget_is_not_a_domain_error():
    # the hybrid test's frank-model covariance draws need ~1e9 compound
    # draws; the simplified test needs no covariance
    spec = ScenarioSpec("IV", seed=815, r=1, n_sigma=20_000, m=2000)
    hybrid, simplified = run_replicate(spec, "c", "gumbel", "frank", 128, 0)
    assert hybrid["error"] == "sampler-budget"
    assert hybrid["statistic"] is not None and hybrid["p_value"] is None
    assert simplified["error"] is None
    assert rejection_table([hybrid])[0]["n_failed"] == 1


@pytest.mark.parametrize("scenario, methods", [
    ("I", ["mixture", "conditional"]),
    ("II", ["mixture[null,mc]"]),
    ("III", ["mixture"]),
    ("IV", ["hybrid", "simplified"]),
])
def test_full_fit_below_null_fails_every_method(monkeypatch, scenario,
                                                methods):
    real_mle = lrt_module.mle
    calls = []

    def low_full(data, tree, family, hypothesis=None, config=FitConfig(),
                 start=None, **private):
        calls.append((hypothesis, start is not None))
        fit = real_mle(data, tree, family, hypothesis=hypothesis,
                       config=config, start=start, **private)
        if hypothesis is not None:
            return fit
        return dataclasses.replace(fit, loglik=fit.loglik - 1e6)

    monkeypatch.setattr(lrt_module, "mle", low_full)
    recs = run_replicate(_tiny(scenario), "a", "gumbel", "gumbel", 48, 0)
    assert [r["method"] for r in recs] == methods
    for rec in recs:
        assert rec["error"] == "fit-numeric"
        assert rec["statistic"] is None and rec["p_value"] is None
    # one fit pair, whose full refit from the null optimum is lowered
    # too: scenario IV never refits the collapsed structure
    assert [(h is None, warm) for h, warm in calls] == [
        (True, False), (False, False), (True, True)]


def test_full_fit_refit_from_null_optimum(monkeypatch):
    # the Kendall-tau starts of this replicate's full fit stall at a
    # cusp of the clayton density at the tie, below the null fit
    spec = ScenarioSpec("I", cases=("c",), data_families=("gumbel",),
                        model_families=("clayton",), n_values=(512,),
                        r=500, seed=815, fit_config=FitConfig(n_perturbed=2))
    pairs = []
    real_fit_pair = scenarios_module.fit_pair

    def recorded(*args, **kwargs):
        pairs.append(real_fit_pair(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(scenarios_module, "fit_pair", recorded)
    recs = run_replicate(spec, "c", "gumbel", "clayton", 512, 461)
    (pair,) = pairs
    assert pair.fit_full.loglik >= pair.fit_null.loglik
    assert pair.fit_full.warm and not pair.fit_null.warm
    assert pair.fit_full.n_starts == len(pair.fit_full.start_logliks) == 1
    assert [r["method"] for r in recs] == ["mixture", "conditional"]
    for rec in recs:
        assert rec["error"] is None and rec["p_value"] is not None
        assert rec["statistic"] == pytest.approx(25.870151016532645,
                                                 rel=1e-9)


# --- aggregation ----------------------------------------------------------


def _fake_record(reject, error=None, **kw):
    rec = dict(
        scenario="II", case="a", data_family="gumbel",
        model_family="gumbel", n=128, rep=0, null_true=True,
        method="mixture[null,mc]", statistic=1.0,
        p_value=None if error else (0.01 if reject else 0.5),
        reject=None if error else reject, error=error,
    )
    rec.update(kw)
    return rec


def test_rejection_table_rates_and_errors():
    recs = (
        [_fake_record(True, rep=i) for i in range(3)]
        + [_fake_record(False, rep=3 + i) for i in range(5)]
        + [_fake_record(None, error="sigma-singular", rep=8)]
        + [_fake_record(None, error="fit-numeric", rep=9)]
    )
    rows = rejection_table(recs)
    assert len(rows) == 1
    row = rows[0]
    assert row["r_used"] == 8
    assert row["rate_pct"] == pytest.approx(100.0 * 3 / 8)
    p = 3 / 8
    assert row["se_pct"] == pytest.approx(100.0 * np.sqrt(p * (1 - p) / 8))
    assert row["n_singular"] == 1
    assert row["n_failed"] == 1
    assert row["null_true"] is True


def test_rejection_table_groups_cells():
    recs = [
        _fake_record(True),
        _fake_record(False, n=512),
        _fake_record(False, method="mixture[full,mc]"),
    ]
    rows = rejection_table(recs)
    assert len(rows) == 3
    assert [r["rate_pct"] for r in rows] == [0.0, 100.0, 0.0]
    keys = [(r["n"], r["method"]) for r in rows]
    assert keys == sorted(keys, key=lambda k: tuple(map(str, k)))


def test_rejection_table_from_run():
    spec = _tiny("I", cases=("a",), r=3)
    rows = rejection_table(run_scenario(spec))
    assert len(rows) == 2  # mixture + conditional
    for row in rows:
        assert 0.0 <= row["rate_pct"] <= 100.0
        assert row["r_used"] + row["n_singular"] + row["n_failed"] == spec.r
