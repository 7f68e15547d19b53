import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import kendalltau

from haclrt import estimate
from haclrt.density import (
    hessian,
    log_density,
    log_density_and_derivs,
    two_level_spec,
)
from haclrt.errors import DomainError
from haclrt.estimate import FitConfig, loglik, mle
from haclrt.lrt import fit_pair
from haclrt.generators import Clayton, Gumbel, get_family, tau_inv
from haclrt.sampler import sample
from haclrt.tree import HacTree, Hypothesis, check_theta

TREE3 = HacTree([[1, 2], 3])
TREE4 = HacTree([[1, 2], [3, 4]])


# --- the gap map ----------------------------------------------------------


def test_gap_gradient_chain_rule():
    t = HacTree([1, [2, [3, 4]], [5, 6]])
    gaps = estimate._Gaps(t)
    rng = np.random.default_rng(2)
    x = np.abs(rng.normal(size=t.p)) + 0.5
    np.testing.assert_allclose(gaps.to_x(gaps.from_x(x)), x, rtol=0, atol=1e-14)
    grad_theta = rng.normal(size=t.p)
    # numeric Jacobian of x -> theta, then chain rule
    J = np.empty((t.p, t.p))
    h = 1e-6
    for j in range(t.p):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (gaps.from_x(xp) - gaps.from_x(xm)) / (2 * h)
    want = J.T @ grad_theta
    got = gaps.grad_to_x(grad_theta)
    np.testing.assert_allclose(got, want, atol=1e-8)


# --- a branch is the free fit of the collapsed tree -------------------------

SIX = HacTree([[2 * k + 1, 2 * k + 2] for k in range(6)])

# tree, hypothesis, the tree it collapses to, and the preorder position
# in that tree of each original node's parameter
COLLAPSES = {
    "single": (TREE3, "(0,1)=(0)", [1, 2, 3], [0, 0]),
    "first": (TREE4, "(0,1)=(0)", [1, 2, [3, 4]], [0, 0, 1]),
    "second": (TREE4, "(0,2)=(0)", [[1, 2], 3, 4], [0, 1, 0]),
    "both": (TREE4, "(0,1)=(0) & (0,2)=(0)", [1, 2, 3, 4], [0, 0, 0]),
    "six": (SIX, " & ".join(f"(0,{k})=(0)" for k in range(1, 7)),
            list(range(1, 13)), [0] * 7),
}


@pytest.mark.parametrize("case", COLLAPSES)
@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_null_fit_is_the_free_fit_of_the_collapsed_tree(fam, case):
    tree, text, flat, pos = COLLAPSES[case]
    theta = [tau_inv(fam, 0.3)] + [tau_inv(fam, 0.4)] * (tree.p - 1)
    u = sample(tree, theta, fam, 60 if case == "six" else 150, seed=11).values
    null = mle(u, tree, fam, hypothesis=Hypothesis.parse(text))
    free = mle(u, HacTree(flat), fam)
    assert np.array_equal(null.theta, free.theta[pos])
    assert null.start_logliks == free.start_logliks
    assert (null.converged, null.n_starts) == (free.converged, free.n_starts)


@pytest.mark.parametrize("u3,want", [(1e-4, 164.8416), (1e-6, 132.8791)])
def test_null_fit_at_a_corner_row_reaches_the_collapsed_fit(u3, want):
    # at the tie this row's node scores are +-4e19 (+-4e31 at u3 = 1e-6);
    # summed per node they cancel, so a fit of the tied tree that adds
    # them stops far short, while the collapsed tree has a score of its own
    u = sample(TREE3, (6.0, 6.0), "clayton", 100, seed=1).values
    u = np.vstack([u, [[0.3, 0.35, u3]]])
    null = mle(u, TREE3, "clayton", hypothesis=Hypothesis.parse("(0,1)=(0)"))
    free = mle(u, HacTree([1, 2, 3]), "clayton")
    assert null.loglik == pytest.approx(free.loglik, rel=1e-9)
    assert free.loglik == pytest.approx(want, abs=1e-4)
    assert null.converged and null.n_starts == 1


# --- loglik ---------------------------------------------------------------


def test_loglik_single_row_and_additivity():
    spec = two_level_spec(TREE3, "clayton", (0.8, 1.6))
    u = sample(TREE3, (0.8, 1.6), "clayton", 20, seed=3).values
    assert loglik(u[:1], TREE3, "clayton", (0.8, 1.6)) == pytest.approx(
        float(log_density(spec, u[0]))
    )
    a = loglik(u[:12], TREE3, "clayton", (0.8, 1.6))
    b = loglik(u[12:], TREE3, "clayton", (0.8, 1.6))
    assert loglik(u, TREE3, "clayton", (0.8, 1.6)) == pytest.approx(a + b)


def test_loglik_independence_is_zero():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.05, 0.95, size=(50, 3))
    assert loglik(u, TREE3, "gumbel", (1.0, 1.0)) == pytest.approx(0.0, abs=1e-10)


# --- mle ------------------------------------------------------------------


def _observed_se(u, tree, family, theta):
    spec = two_level_spec(tree, family, theta)
    info = -hessian(spec, u).sum(axis=0)
    return np.sqrt(np.diag(np.linalg.inv(info)))


def test_mle_recovers_clayton_example():
    theta = (tau_inv("clayton", 0.25), tau_inv("clayton", 0.5))
    u = sample(TREE3, theta, "clayton", 512, seed=7).values
    fit = mle(u, TREE3, "clayton")
    assert fit.converged
    se = _observed_se(u, TREE3, "clayton", fit.theta)
    assert np.all(np.abs(fit.theta - theta) <= 3.0 * se)
    check_theta(TREE3, "clayton", fit.theta)


def test_mle_feasible_and_dominates_starts():
    u = sample(TREE3, (1.4, 2.1), "gumbel", 300, seed=11).values
    fit = mle(u, TREE3, "gumbel")
    assert fit.theta[1] >= fit.theta[0] - 1e-10
    # the Kendall-tau start converges, so no perturbed start runs
    assert fit.n_starts == 1
    assert fit.loglik >= max(fit.start_logliks) - 1e-6
    assert fit.grad_norm <= 1e-4
    assert fit.loglik >= mle(u, TREE3, "gumbel", start=(1.4, 2.1)).loglik - 1e-6


def test_constrained_fit_never_beats_full():
    H = Hypothesis.parse("(0,1)=(0)")
    for seed in (1, 2, 3, 4):
        u = sample(TREE3, (1.5, 1.5), "gumbel", 200, seed=seed).values
        full = mle(u, TREE3, "gumbel")
        null = mle(u, TREE3, "gumbel", hypothesis=H)
        stat = 2.0 * (full.loglik - null.loglik)
        assert stat >= -1e-8
        assert null.theta[0] == pytest.approx(null.theta[1])


def test_tied_fit_equals_exchangeable_mle():
    u = sample(TREE3, (1.2, 1.2), "gumbel", 400, seed=3).values
    fit = mle(u, TREE3, "gumbel", hypothesis=Hypothesis.parse("(0,1)=(0)"))
    res = minimize_scalar(
        lambda th: -loglik(u, TREE3, "gumbel", (th, th)),
        bounds=(1.0, 50.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert fit.theta[0] == pytest.approx(res.x, abs=1e-6)
    assert fit.loglik == pytest.approx(-res.fun, abs=1e-8)


def test_boundary_truth_lands_on_boundary_sometimes():
    hits = 0
    for seed in range(8):
        u = sample(TREE3, (2.0, 2.0), "gumbel", 256, seed=100 + seed).values
        fit = mle(u, TREE3, "gumbel")
        hits += "(0,1)=(0)" in fit.active
        assert fit.theta[1] >= fit.theta[0] - 1e-10
    # with the truth on the face, roughly half of the fits should pin to it
    assert 1 <= hits <= 7


def test_union_fit_picks_true_branch():
    theta = [tau_inv("clayton", t) for t in (0.25, 0.5, 0.25)]
    u = sample(TREE4, theta, "clayton", 512, seed=17).values
    H = Hypothesis.parse("(0,1)=(0) | (0,2)=(0)")
    fit = mle(u, TREE4, "clayton", hypothesis=H)
    assert fit.branch == ((2,),)
    assert fit.theta[0] == pytest.approx(fit.theta[2])
    full = mle(u, TREE4, "clayton")
    assert full.loglik >= fit.loglik - 1e-8


def test_union_tie_prefers_fewer_merges():
    u = sample(TREE4, (1.5, 1.5, 1.5), "gumbel", 300, seed=19).values
    H = Hypothesis.parse("(0,1)=(0) & (0,2)=(0) | (0,1)=(0)")
    fit = mle(u, TREE4, "gumbel", hypothesis=H)
    # the one-atom branch is a superset, so it wins outright or on the tie
    assert fit.branch == ((1,),)


def test_row_permutation_invariance():
    theta = [tau_inv("clayton", t) for t in (0.25, 0.5, 0.35)]
    u = sample(TREE4, theta, "clayton", 512, seed=23).values
    perm = np.random.default_rng(5).permutation(512)
    a = mle(u, TREE4, "clayton")
    b = mle(u[perm], TREE4, "clayton")
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-8)


@pytest.mark.parametrize("instance", [Gumbel(), Clayton()], ids=["gumbel", "clayton"])
def test_family_instance_fits_like_its_name(instance):
    # a family instance fits exactly as its name does
    theta = (tau_inv(instance, 0.3), tau_inv(instance, 0.5))
    u = sample(TREE3, theta, instance.name, 300, seed=37).values
    by_name = mle(u, TREE3, instance.name)
    by_instance = mle(u, TREE3, instance)
    assert by_instance.to_dict() == by_name.to_dict()
    np.testing.assert_array_equal(by_instance.theta, by_name.theta)


@pytest.mark.parametrize("fam", ["frank", "joe"])
def test_numeric_gradient_families_fit(fam):
    theta = (tau_inv(fam, 0.25), tau_inv(fam, 0.5))
    u = sample(TREE3, theta, fam, 512, seed=29).values
    fit = mle(u, TREE3, fam)
    assert fit.converged
    f = get_family(fam)
    assert abs(f.tau(fit.theta[0]) - 0.25) < 0.08
    assert abs(f.tau(fit.theta[1]) - 0.5) < 0.08


def test_fit_result_serializes():
    u = sample(TREE3, (1.0, 2.0), "clayton", 100, seed=31).values
    fit = mle(u, TREE3, "clayton", hypothesis=Hypothesis.parse("(0,1)=(0)"))
    blob = json.loads(json.dumps(fit.to_dict()))
    assert blob["branch"] == ["(0,1)"]
    assert len(blob["theta"]) == 2
    assert blob["converged"] in (True, False)


def test_mle_input_validation():
    u = sample(TREE3, (1.0, 2.0), "clayton", 50, seed=37).values
    with pytest.raises(DomainError):
        mle(u[:, :2], TREE3, "clayton")
    bad = u.copy()
    bad[0, 0] = 1.0
    with pytest.raises(DomainError):
        mle(bad, TREE3, "clayton")
    with pytest.raises(DomainError):
        mle(u[:2], TREE3, "clayton")
    with pytest.raises(DomainError):
        mle(u, TREE3, "clayton", hypothesis=Hypothesis.parse("(1,1)=(1)"))


def test_config_is_honored():
    u = sample(TREE3, (1.0, 2.0), "clayton", 200, seed=41).values
    cfg = FitConfig(n_perturbed=0)
    fit = mle(u, TREE3, "clayton", config=cfg)
    assert fit.n_starts == 1
    assert len(fit.start_logliks) == 1


def test_config_refuses_a_negative_seed():
    with pytest.raises(DomainError, match="seed must be a nonnegative"):
        FitConfig(seed=-1)


def test_start_runs_one_descent_from_it():
    u = sample(TREE3, (1.0, 2.0), "clayton", 200, seed=41).values
    start = np.array([1.2, 1.2])
    fit = mle(u, TREE3, "clayton", start=start)
    assert fit.n_starts == 1
    assert len(fit.start_logliks) == 1
    assert fit.warm and fit.to_dict()["warm"] is True
    assert not mle(u, TREE3, "clayton").warm
    assert fit.loglik >= loglik(u, TREE3, "clayton", start)
    with pytest.raises(DomainError):
        mle(u, TREE3, "clayton", start=[2.0, 1.0])


# --- start policy -----------------------------------------------------------


def _eager_starts(data, tree, family, cfg):
    # every start made up front, as the Kendall-tau start and its
    # perturbations were before the fallback became lazy
    fam = get_family(family)
    lo = estimate._box_lo(fam)
    hi = min(fam.tau_inv(estimate.TAU_HI), estimate.THETA_HI)
    gaps = estimate._Gaps(tree)
    base = estimate._node_taus(estimate._tau_matrix(data), tree)
    rng = np.random.default_rng(cfg.seed)
    xs = []
    for r in range(1 + cfg.n_perturbed):
        taus = base if r == 0 else base + rng.normal(0.0, estimate.JITTER, tree.p)
        th = estimate._theta_from_taus(fam, taus, lo, hi, estimate.TAU_HI)
        xs.append(gaps.to_x(estimate._project_cone(gaps, th, lo, hi)))
    return xs


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank"])
def test_converged_tau_start_is_the_fit(monkeypatch, fam):
    theta = (tau_inv(fam, 0.3), tau_inv(fam, 0.5), tau_inv(fam, 0.6))
    u = sample(TREE4, theta, fam, 256, seed=53).values
    calls = []
    real = estimate._theta_from_taus

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(estimate, "_theta_from_taus", counted)
    for hyp in (None, Hypothesis.parse("(0,1)=(0)")):
        calls.clear()
        fit = mle(u, TREE4, fam, hypothesis=hyp)
        assert fit.converged
        assert fit.n_starts == len(fit.start_logliks) == 1
        assert len(calls) == 1
        assert not fit.warm


def test_converged_means_the_gradient_met_gtol():
    # scenario I, case c, clayton data and model, n = 128, rep 1, seed
    # 815: L-BFGS-B stops the null fit on its loglik change (FTOL) at a
    # projected gradient of 1.4e-5, short of the full fit's tie
    from haclrt.scenarios import case_theta, scenario_cases

    case = scenario_cases("I")[2]
    seed = np.random.SeedSequence(815, spawn_key=(0, 2, 1, 128, 1)).spawn(8)[0]
    u = sample(TREE3, case_theta(case, "clayton"), "clayton", 128,
               seed=seed).values
    null = mle(u, TREE3, "clayton", Hypothesis.parse("(0,1)=(0)"))
    assert null.grad_norm > estimate.GTOL and not null.converged
    full = mle(u, TREE3, "clayton")
    assert full.grad_norm <= estimate.GTOL and full.converged
    assert null.theta[0] < full.theta[0]


@pytest.mark.parametrize("how", ["unconverged", "raise"])
def test_failed_tau_start_falls_back_to_todays_starts(monkeypatch, how):
    theta = (tau_inv("gumbel", 0.3), tau_inv("gumbel", 0.5), tau_inv("gumbel", 0.6))
    u = sample(TREE4, theta, "gumbel", 200, seed=59).values
    cfg = FitConfig(n_perturbed=4, seed=77)
    want = _eager_starts(u, TREE4, "gumbel", cfg)
    real = estimate.minimize
    x0s = []

    def fail_first(fun, x0, **kw):
        x0s.append(np.array(x0))
        if len(x0s) == 1 and how == "raise":
            raise estimate.NumericError("forced")
        res = real(fun, x0, **kw)
        if len(x0s) == 1:
            res.success = False
        return res

    monkeypatch.setattr(estimate, "minimize", fail_first)
    fit = mle(u, TREE4, "gumbel", config=cfg)
    assert len(x0s) == fit.n_starts == 5
    for got, ref in zip(x0s, want):
        np.testing.assert_array_equal(got, ref)
    assert len(fit.start_logliks) == (5 if how == "unconverged" else 4)
    # the best finished start wins
    assert max(fit.start_logliks) == pytest.approx(fit.loglik, rel=1e-12)


def test_tau_start_on_a_gradient_lost_to_rounding_falls_back(monkeypatch):
    # where a Kendall-tau start puts a free nest on a tie, per-node scores
    # can cancel to a gradient that rounding hides; a start whose rounding
    # bound exceeds GTOL is no fit even when L-BFGS-B reports success, so
    # the perturbed starts run.  The bound is raised here by hand, since
    # a tied null fit sums no node scores (see the corner-row test)
    u = sample(TREE3, (1.4, 2.1), "gumbel", 200, seed=11).values
    real_objective, real_minimize = estimate._objective, estimate.minimize
    results = []

    def noisy(*args):
        fun = real_objective(*args)
        fun.grad_noise = lambda x: 2.0 * estimate.GTOL
        return fun

    def spy(*args, **kw):
        results.append(real_minimize(*args, **kw))
        return results[-1]

    monkeypatch.setattr(estimate, "_objective", noisy)
    monkeypatch.setattr(estimate, "minimize", spy)
    fit = mle(u, TREE3, "gumbel", config=FitConfig(n_perturbed=3))
    assert results[0].success
    assert fit.n_starts == len(fit.start_logliks) == 4
    assert fit.loglik == pytest.approx(max(fit.start_logliks), rel=1e-12)


def test_every_start_failing_names_how_many_ran(monkeypatch):
    u = sample(TREE3, (1.4, 2.1), "gumbel", 100, seed=61).values

    def fail(*args, **kw):
        raise estimate.NumericError("forced")

    monkeypatch.setattr(estimate, "minimize", fail)
    with pytest.raises(estimate.ConvergenceError, match="all 3 starts failed"):
        mle(u, TREE3, "gumbel", config=FitConfig(n_perturbed=2))
    with pytest.raises(estimate.ConvergenceError, match="all 1 starts failed"):
        mle(u, TREE3, "gumbel", start=(1.4, 2.1))


# --- once-per-dataset and once-per-fit work --------------------------------


def test_tau_matrix_computed_once_per_dataset(monkeypatch):
    # the full, null and union-branch fits of a fit_pair share one tau
    # matrix; a lone mle computes its own, once, and a fit from a given
    # start needs none
    hyp = Hypothesis.parse("(0,1)=(0) | (0,2)=(0)")
    data = [
        sample(TREE4, (1.2, 1.6, 2.0), "gumbel", 120, seed=s).values
        for s in (43, 47)
    ]
    calls = []
    real = estimate._tau_matrix

    def counted(u):
        calls.append(1)
        return real(u)

    monkeypatch.setattr(estimate, "_tau_matrix", counted)
    pairs = [fit_pair(u, TREE4, "gumbel", hyp) for u in data]
    assert len(calls) == 2
    alone = mle(data[1], TREE4, "gumbel", hypothesis=hyp)
    assert len(calls) == 3
    mle(data[1], TREE4, "gumbel", start=alone.theta)
    assert len(calls) == 3
    # the shared matrix gives the fit that a matrix of its own gives
    assert np.array_equal(alone.theta, pairs[1].fit_null.theta)
    assert alone.start_logliks == pairs[1].fit_null.start_logliks
    assert not estimate._tau_matrix(data[1]).flags.writeable


def test_objective_builds_the_spec_once_per_fit(monkeypatch):
    # every evaluation after the first swaps theta into the same spec; an
    # out-of-domain probe still gets the penalty
    u = sample(TREE4, (1.2, 1.6, 2.0), "gumbel", 80, seed=53).values
    gaps = estimate._Gaps(TREE4)
    built = []
    real = estimate.two_level_spec

    def counted(*args):
        built.append(1)
        return real(*args)

    monkeypatch.setattr(estimate, "two_level_spec", counted)
    fun = estimate._objective(u, TREE4, "gumbel", gaps)
    val, grad = fun(np.array([1.2, 0.4, 0.8]))
    assert np.isfinite(val) and np.all(np.isfinite(grad))
    assert fun(np.array([0.5, 0.4, 0.8]))[0] == estimate._PENALTY
    assert fun(np.array([1.2, 0.4, 0.8]))[0] == val
    assert len(built) == 1
    spec = real(TREE4, "gumbel", gaps.from_x([1.3, 0.2, 0.5]))
    ld, sc, _ = log_density_and_derivs(spec, u, order=1)
    val, grad = fun(np.array([1.3, 0.2, 0.5]))
    assert val == -float(np.mean(ld))
    assert np.array_equal(grad, gaps.grad_to_x(-sc.mean(axis=0)))
    # the gradient's rounding bound is known where it was last taken
    assert 0.0 < fun.grad_noise(np.array([1.3, 0.2, 0.5])) < 1e-12
    assert fun.grad_noise(np.array([1.2, 0.4, 0.8])) == np.inf


# --- the Kendall-tau matrix -------------------------------------------------


def _scipy_taus(data):
    d = data.shape[1]
    taus = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            taus[i, j] = taus[j, i] = kendalltau(
                data[:, i], data[:, j]
            ).statistic
    return taus


@pytest.mark.parametrize("n,d", [(2, 2), (33, 3), (128, 4), (256, 12),
                                 (5000, 4)])
def test_tau_matrix_equals_scipy_on_continuous_data(n, d):
    rng = np.random.default_rng(n + d)
    x = rng.random((n, d))
    x[:, 1:] += 0.7 * x[:, :1]          # dependence of either sign
    x[:, -1] -= 1.4 * x[:, 0]
    assert np.array_equal(estimate._tau_matrix(x), _scipy_taus(x))


@pytest.mark.parametrize("where", ["x", "y", "both"])
def test_tau_matrix_equals_scipy_with_ties(where):
    rng = np.random.default_rng(7)
    for n in (5, 40, 301):
        x = rng.random((n, 3))
        x[:, 1] += 0.5 * x[:, 0]
        cols = {"x": [0], "y": [1, 2], "both": [0, 1, 2]}[where]
        x[:, cols] = np.round(x[:, cols] * 4.0)
        assert np.array_equal(estimate._tau_matrix(x), _scipy_taus(x))


def test_tau_matrix_constant_column_is_nan():
    x = np.random.default_rng(8).random((50, 4))
    x[:, 2] = 0.3
    taus = estimate._tau_matrix(x)
    assert np.array_equal(taus, _scipy_taus(x), equal_nan=True)
    assert np.all(np.isnan(np.delete(taus[2], 2)))
    assert np.isfinite(taus[0, 1]) and np.isfinite(taus[1, 3])


def test_inversions_count_strict_pairs():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 5, 8, 17):
        y = rng.integers(0, n, (4, n))
        brute = [sum(r[a] > r[b] for a in range(n) for b in range(a + 1, n))
                 for r in y]
        assert estimate._inversions(y).tolist() == brute
