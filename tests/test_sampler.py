import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import kendalltau, kstest, kstwo

from haclrt import sampler
from haclrt.density import clamp_unit, log_density, two_level_spec
from haclrt.errors import DomainError, UnsupportedNestingError
from haclrt.generators import get_family, tau_inv
from haclrt.sampler import (
    _frank_inner_count,
    _log_series,
    _positive_stable,
    _sibuya,
    _tilted_stable,
    pseudo_obs,
    sample,
)
from haclrt.tree import HacTree

TREE3 = HacTree([[1, 2], 3])


def _tau_se(n):
    # upper bound on sd of the tau estimator (attained at independence)
    return math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))


# --- frailty primitives against their transforms -------------------------


def test_positive_stable_laplace_transform():
    rng = np.random.default_rng(101)
    for alpha in (0.3, 0.7, 0.95):
        s_draws = _positive_stable(rng, alpha, 200_000)
        for s in (0.5, 1.0, 2.0):
            got = np.exp(-s * s_draws)
            want = math.exp(-(s**alpha))
            se = got.std(ddof=1) / math.sqrt(got.size)
            assert abs(got.mean() - want) < 4 * se


def test_tilted_stable_laplace_transform():
    rng = np.random.default_rng(103)
    for alpha, v in [(0.4, 0.3), (0.6, 2.7), (0.8, 11.2)]:
        draws = _tilted_stable(rng, alpha, np.full(100_000, v))
        for s in (0.5, 1.5):
            got = np.exp(-s * draws)
            want = math.exp(-v * ((1.0 + s) ** alpha - 1.0))
            se = got.std(ddof=1) / math.sqrt(got.size)
            assert abs(got.mean() - want) < 4 * se + 1e-6


def test_log_series_pmf():
    rng = np.random.default_rng(107)
    m = 300_000
    for lam in (0.5, 3.0, 14.0):
        p = -math.expm1(-lam)
        draws = _log_series(rng, lam, m)
        for k in (1, 2, 3, 7):
            want = p**k / (k * lam)
            got = np.mean(draws == k)
            assert abs(got - want) < 4 * math.sqrt(want / m) + 1e-4


def test_sibuya_pmf_and_survival():
    rng = np.random.default_rng(109)
    m = 300_000
    for alpha in (0.2, 0.55, 0.9):
        draws = _sibuya(rng, alpha, m)
        assert abs(np.mean(draws == 1) - alpha) < 4 * math.sqrt(alpha / m)
        p2 = alpha * (1.0 - alpha) / 2.0
        assert abs(np.mean(draws == 2) - p2) < 4 * math.sqrt(p2 / m) + 1e-4
        for k in (5, 500, 10**5, 10**7):
            want = math.exp(
                gammaln(k + 1 - alpha) - gammaln(1 - alpha) - gammaln(k + 1)
            )
            got = np.mean(draws > k)
            assert abs(got - want) < 4 * math.sqrt(max(want, 1e-9) / m) + 1e-5


@pytest.mark.parametrize("th_parent,th_child", [(0.6, 1.4), (3.0, 5.0), (14.0, 20.0)])
def test_frank_inner_count_pmf(th_parent, th_child):
    # both rejection envelopes, checked against the pmf recurrence
    rng = np.random.default_rng(113)
    alpha = th_parent / th_child
    c1 = -math.expm1(-th_child)
    c0 = -math.expm1(-th_parent)
    m = 200_000
    draws = _frank_inner_count(rng, alpha, th_child, m)
    pk = alpha * c1 / c0
    for k in range(1, 6):
        got = np.mean(draws == k)
        assert abs(got - pk) < 5 * math.sqrt(pk / m) + 2e-4
        pk = pk * c1 * (k - alpha) / (k + 1.0)


# --- sample() contract ----------------------------------------------------


def test_fixed_seed_replays_bit_identical():
    a = sample(TREE3, (1.0, 2.0), "clayton", 200, seed=11)
    b = sample(TREE3, (1.0, 2.0), "clayton", 200, seed=11)
    assert np.array_equal(a.values, b.values)
    c = sample(TREE3, (1.0, 2.0), "clayton", 200, seed=12)
    assert not np.array_equal(a.values, c.values)
    assert a.n == 200 and a.d == 3 and a.family == "clayton"
    assert a.theta == (1.0, 2.0) and a.tree == [[1, 2], 3]


@pytest.mark.parametrize(
    "family,theta", [("frank", (3.0, 8.0)), ("frank", (0.6, 1.4)),
                     ("joe", (1.5, 3.0))],
)
def test_compound_rows_do_not_depend_on_slice_size(monkeypatch, family, theta):
    # compound levels are drawn and summed in slices of draws; slices of
    # a few draws must replay the rows that one slice of all gives
    whole = sample(TREE3, theta, family, 300, seed=21).values
    monkeypatch.setattr(sampler, "_SLICE", 7)
    sliced = sample(TREE3, theta, family, 300, seed=21).values
    assert np.array_equal(whole, sliced)


def test_gumbel_unit_parameters_sample_independently():
    u = sample(TREE3, (1.0, 1.0), "gumbel", 10_000, seed=29).values
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(kendalltau(u[:, i], u[:, j]).statistic) < 0.02


def test_clayton_tau_quarter_half_example():
    theta = (tau_inv("clayton", 0.25), tau_inv("clayton", 0.5))
    u = sample(TREE3, theta, "clayton", 10_000, seed=31).values
    assert kendalltau(u[:, 0], u[:, 1]).statistic == pytest.approx(0.5, abs=0.02)
    assert kendalltau(u[:, 0], u[:, 2]).statistic == pytest.approx(0.25, abs=0.02)
    assert kendalltau(u[:, 1], u[:, 2]).statistic == pytest.approx(0.25, abs=0.02)


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_tau_matrix_matches_lca_parameters(fam):
    tree = HacTree([[1, 2], [3, 4]])
    taus = (0.2, 0.45, 0.6)
    theta = [tau_inv(fam, t) for t in taus]
    n = 6000
    u = sample(tree, theta, fam, n, seed=37).values
    f = get_family(fam)
    for i in range(4):
        for j in range(i + 1, 4):
            lca = tree.lca(i + 1, j + 1)
            want = f.tau(theta[tree.param_pos[lca]])
            got = kendalltau(u[:, i], u[:, j]).statistic
            assert abs(got - want) < 3.0 * _tau_se(n)


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank"])
def test_three_level_nesting_tau(fam):
    tree = HacTree([1, [2, [3, 4]]])
    taus = (0.2, 0.45, 0.7)
    theta = [tau_inv(fam, t) for t in taus]
    n = 6000
    u = sample(tree, theta, fam, n, seed=41).values
    pairs = [((3, 4), 0.7), ((2, 3), 0.45), ((2, 4), 0.45), ((1, 2), 0.2), ((1, 4), 0.2)]
    for (a, b), want in pairs:
        got = kendalltau(u[:, a - 1], u[:, b - 1]).statistic
        assert abs(got - want) < 3.0 * _tau_se(n)


def test_joe_three_level_nesting_tau():
    # gentler parameters: Joe inner compounds are heavy tailed
    tree = HacTree([1, [2, [3, 4]]])
    theta = [tau_inv("joe", t) for t in (0.15, 0.3, 0.5)]
    n = 1500
    u = sample(tree, theta, "joe", n, seed=21).values
    for (a, b), want in [((3, 4), 0.5), ((2, 3), 0.3), ((1, 4), 0.15)]:
        got = kendalltau(u[:, a - 1], u[:, b - 1]).statistic
        assert abs(got - want) < 3.0 * _tau_se(n)


def test_uniform_margins_ks():
    # 0.01-level KS acceptance in at least 99 of 100 seeded runs
    crit = kstwo.ppf(0.99, 10_000)
    fails = np.zeros(3, dtype=int)
    for run in range(100):
        u = sample(TREE3, (0.8, 2.0), "clayton", 10_000, seed=1000 + run).values
        for j in range(3):
            fails[j] += kstest(u[:, j], "uniform").statistic > crit
    assert np.all(fails <= 1)


@pytest.mark.parametrize(
    "fam,th_q,th_p",
    [("gumbel", (1.3, 2.0), (1.5, 2.4)), ("clayton", (1.0, 2.0), (0.8, 2.3))],
)
def test_importance_sampling_identity(fam, th_q, th_p):
    # E_q[c_p / c_q] = 1 ties the sampler to the density module
    u = clamp_unit(sample(TREE3, th_q, fam, 100_000, seed=43).values)
    spec_q = two_level_spec(TREE3, fam, th_q)
    spec_p = two_level_spec(TREE3, fam, th_p)
    r = np.exp(log_density(spec_p, u) - log_density(spec_q, u))
    se = r.std(ddof=1) / math.sqrt(r.size)
    assert abs(r.mean() - 1.0) < 4 * se


def test_entries_strictly_inside_unit_cube():
    u = sample(TREE3, (4.0, 8.0), "gumbel", 100_000, seed=47).values
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_boundary_theta_collapses_then_samples():
    n = 6000
    u = sample(TREE3, (2.0, 2.0), "gumbel", n, seed=13).values
    want = get_family("gumbel").tau(2.0)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        got = kendalltau(u[:, i], u[:, j]).statistic
        assert abs(got - want) < 3.0 * _tau_se(n)


def test_unsupported_nesting_budget(monkeypatch):
    monkeypatch.setattr(sampler, "MAX_COMPOUND_DRAWS", 500)
    with pytest.raises(UnsupportedNestingError):
        sample(TREE3, (1.5, 3.0), "joe", 1000, seed=51)


def test_invalid_arguments_rejected():
    with pytest.raises(DomainError):
        sample(TREE3, (2.0, 1.0), "clayton", 10, seed=1)   # outside cone
    with pytest.raises(DomainError):
        sample(TREE3, (0.5, 2.0), "gumbel", 10, seed=1)    # outside domain
    with pytest.raises(DomainError):
        sample(TREE3, (1.0, 2.0), "clayton", 0, seed=1)


# --- pseudo_obs -----------------------------------------------------------


def test_pseudo_obs_reference_column():
    out = pseudo_obs(np.array([[3.2], [1.1], [5.0]]))
    assert out.ravel() == pytest.approx([0.5, 0.25, 0.75])


def test_pseudo_obs_preserves_ordering():
    rng = np.random.default_rng(53)
    x = rng.uniform(size=(40, 2))
    out = pseudo_obs(x)
    for j in range(2):
        assert np.array_equal(np.argsort(out[:, j]), np.argsort(x[:, j]))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_pseudo_obs_average_ranks_on_ties():
    out = pseudo_obs(np.array([[1.0], [2.0], [2.0], [3.0]]))
    assert out.ravel() == pytest.approx([0.2, 0.5, 0.5, 0.8])


def test_pseudo_obs_rejects_bad_input():
    with pytest.raises(DomainError):
        pseudo_obs(np.array([[1.0, 2.0]]))                  # one row
    with pytest.raises(DomainError):
        pseudo_obs(np.array([[1.0, 5.0], [1.0, 6.0]]))      # constant column
    with pytest.raises(DomainError):
        pseudo_obs(np.array([[1.0, 2.0], [np.nan, 3.0]]))
