"""Scenario harness: case tables, seeding, and aggregation."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

import haclrt.lrt as lrt_module
from haclrt.errors import DomainError, SingularSigmaError
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


@pytest.mark.parametrize("exc, kind", [(SingularSigmaError, "sigma-singular"),
                                       (DomainError, "sigma-domain")])
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

    def low_full(data, tree, family, hypothesis=None, config=FitConfig()):
        calls.append(hypothesis)
        fit = real_mle(data, tree, family, hypothesis=hypothesis,
                       config=config)
        if hypothesis is not None:
            return fit
        return dataclasses.replace(fit, loglik=fit.loglik - 1e6)

    monkeypatch.setattr(lrt_module, "mle", low_full)
    recs = run_replicate(_tiny(scenario), "a", "gumbel", "gumbel", 48, 0)
    assert [r["method"] for r in recs] == methods
    for rec in recs:
        assert rec["error"] == "fit-numeric"
        assert rec["statistic"] is None and rec["p_value"] is None
    # one fit pair: scenario IV never refits the collapsed structure
    assert len(calls) == 2


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
