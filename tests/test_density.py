import copy
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haclrt.density import (
    clamp_unit,
    hessian,
    log_density,
    log_density_and_derivs,
    score,
    two_level_spec,
    TwoLevelSpec,
)
from haclrt import density, generators
from haclrt.density import _bell_table, _child_table
from haclrt.errors import DomainError, NumericError
from haclrt.generators import get_family
from haclrt.sampler import sample
from haclrt.tree import HacTree

TREE3 = HacTree([[1, 2], 3])
TREE4 = HacTree([[1, 2], [3, 4]])


def _cdf(spec, u):
    fam = spec.family
    th0 = spec.theta[0]
    t = 0.0
    for s, cols in enumerate(spec.child_cols):
        ths = spec.theta[1 + s]
        ts = sum(fam.phi(ths, u[c]) for c in cols)
        t += fam.phi(th0, fam.psi(ths, ts))
    for c in spec.leaf_cols:
        t += fam.phi(th0, u[c])
    return fam.psi(th0, t)


def _cdf_mixed_fd(spec, u, h=1e-3):
    # d-fold mixed central difference of the distribution function
    d = len(u)
    total = 0.0
    for signs in itertools.product((1, -1), repeat=d):
        total += np.prod(signs) * _cdf(spec, np.asarray(u) + h * np.array(signs))
    return total / (2.0 * h) ** d


def _log_density_at(spec, theta, u):
    return log_density(spec.with_theta(theta), u)


def _fd_score(spec, u, h=1e-6, f=_log_density_at):
    th = np.array(spec.theta)
    g = np.zeros(spec.p)
    for a in range(spec.p):
        tp, tm = th.copy(), th.copy()
        tp[a] += h
        tm[a] -= h
        g[a] = (f(spec, tp, u) - f(spec, tm, u)) / (2.0 * h)
    return g


def _fd_hessian(spec, u, h=1e-4, f=_log_density_at):
    th = np.array(spec.theta)
    p = spec.p
    H = np.zeros((p, p))
    f0 = f(spec, th, u)
    for a in range(p):
        tp, tm = th.copy(), th.copy()
        tp[a] += h
        tm[a] -= h
        H[a, a] = (f(spec, tp, u) - 2.0 * f0 + f(spec, tm, u)) / h**2
        for b in range(a + 1, p):
            acc = 0.0
            for sa, sb in itertools.product((1, -1), repeat=2):
                tq = th.copy()
                tq[a] += sa * h
                tq[b] += sb * h
                acc += sa * sb * f(spec, tq, u)
            H[a, b] = H[b, a] = acc / (4.0 * h**2)
    return H


def _log_density_past_ties(spec, theta, u):
    # the analytic formula continues smoothly through theta_s = theta_0, so
    # central differences may straddle a tie, where no spec can be built:
    # copy the spec and swap its theta without the check
    past = copy.copy(spec)
    object.__setattr__(past, "theta", tuple(float(x) for x in theta))
    return density._eval(past, np.atleast_2d(u), 0)[0][0]


# high-precision reference values (50-digit arithmetic, mixed partial of
# the distribution function on the tree [[1,2],3])
LOGC_ANCHORS = [
    ("clayton", (1.0, 2.0), (0.3, 0.6, 0.5), 0.025467901299699915),
    ("gumbel", (1.5, 2.5), (0.3, 0.6, 0.5), 0.024943831359147733),
    ("gumbel", (1.0, 3.0), (1e-12, 1e-12, 1e-12), 19.580801168530206),
    ("clayton", (0.5, 4.0), (1e-10, 0.9999, 1e-6), -80.825715121002043),
    ("frank", (1.1, 3.0), (0.3, 0.6, 0.5), -0.045515393471209299),
    ("joe", (1.4, 2.2), (0.3, 0.6, 0.5), 0.10098263738436495),
]

THETA_LO = {"clayton": 0.4, "gumbel": 1.1, "frank": 0.5, "joe": 1.1}


def _random_spec(rng, fam_name, tree):
    lo = THETA_LO[fam_name]
    th0 = lo + rng.uniform(0.0, 2.0)
    gaps = rng.uniform(0.05, 2.5, tree.p - 1)
    return two_level_spec(tree, fam_name, [th0, *(th0 + gaps)])


@pytest.mark.parametrize("fam,theta,u,expected", LOGC_ANCHORS)
def test_log_density_reference_values(fam, theta, u, expected):
    spec = two_level_spec(TREE3, fam, theta)
    got = log_density(spec, np.array(u))
    assert got == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
@pytest.mark.parametrize("tree", [TREE3, TREE4], ids=["d3", "d4"])
def test_density_is_mixed_partial_of_cdf(fam, tree):
    rng = np.random.default_rng(11)
    for _ in range(4):
        spec = _random_spec(rng, fam, tree)
        u = rng.uniform(0.15, 0.85, tree.d)
        c = np.exp(log_density(spec, u))
        c_fd = _cdf_mixed_fd(spec, u)
        assert c == pytest.approx(c_fd, rel=1e-4)


def test_density_example_point_against_cdf_differences():
    spec = two_level_spec(TREE3, "clayton", (1.0, 2.0))
    u = np.array([0.3, 0.6, 0.5])
    c_fd = _cdf_mixed_fd(spec, u, h=1e-3)
    assert np.exp(log_density(spec, u)) == pytest.approx(c_fd, rel=1e-4)


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_score_matches_central_differences(fam):
    rng = np.random.default_rng(23)
    for trial in range(20):
        tree = TREE3 if trial % 2 == 0 else TREE4
        spec = _random_spec(rng, fam, tree)
        u = rng.uniform(0.05, 0.95, tree.d)
        g = score(spec, u)
        g_fd = _fd_score(spec, u)
        assert np.all(np.abs(g - g_fd) / (1.0 + np.abs(g_fd)) < 1e-6)


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_hessian_matches_central_differences(fam):
    rng = np.random.default_rng(29)
    for trial in range(20):
        tree = TREE3 if trial % 2 == 0 else TREE4
        spec = _random_spec(rng, fam, tree)
        u = rng.uniform(0.05, 0.95, tree.d)
        H = hessian(spec, u)
        H_fd = _fd_hessian(spec, u)
        assert np.all(np.abs(H - H_fd) / (1.0 + np.abs(H_fd)) < 1e-4)


def _check_score_and_hessian(spec, u, f=_log_density_at):
    g, H = score(spec, u), hessian(spec, u)
    assert np.all(np.abs(g - _fd_score(spec, u, f=f)) / (1 + np.abs(g)) < 1e-6)
    assert np.all(np.abs(H - _fd_hessian(spec, u, f=f)) / (1 + np.abs(H)) < 1e-4)


def test_score_and_hessian_on_wider_tree():
    tree = HacTree([[1, 2, 3, 4, 5], [6, 7, 8], 9, [10, 11, 12, 13]])
    rng = np.random.default_rng(31)
    for fam, theta in [("clayton", (0.6, 1.4, 2.2, 3.0)),
                       ("gumbel", (1.3, 1.9, 2.5, 3.1)),
                       ("frank", (1.5, 2.5, 3.5, 4.5)),
                       ("joe", (1.3, 1.9, 2.5, 3.1))]:
        spec = two_level_spec(tree, fam, theta)
        _check_score_and_hessian(spec, rng.uniform(0.05, 0.95, tree.d))


@pytest.mark.parametrize(
    "fam,root",
    [("clayton", 0.6), ("gumbel", 1.3), ("frank", 1.5), ("joe", 1.3)],
)
@pytest.mark.parametrize("half_tied", [False, True], ids=["interior", "half-tied"])
def test_score_and_hessian_on_six_nests(fam, root, half_tied):
    # six nests exercise every cross-child Hessian term (15 pairs); in the
    # half-tied case every other nest sits at the root parameter
    tree = HacTree([[2 * k + 1, 2 * k + 2] for k in range(6)])
    theta = (root,) + tuple(
        root if half_tied and s % 2 == 0 else root + 0.4 * (s + 1)
        for s in range(6)
    )
    spec = two_level_spec(tree, fam, theta)
    rng = np.random.default_rng(47)
    for _ in range(2):
        u = rng.uniform(0.05, 0.95, tree.d)
        _check_score_and_hessian(spec, u, f=_log_density_past_ties)


@pytest.mark.parametrize("fam", ["clayton", "gumbel"])
@pytest.mark.parametrize("tree", [TREE3, TREE4], ids=["d3", "d4"])
def test_generic_and_analytic_paths_agree(fam, tree):
    # a Clayton/Gumbel instance without its closed-form tilt takes the
    # Bell hook; log c, score and Hessian must agree with the closed form
    rng = np.random.default_rng(37)
    spec = _random_spec(rng, fam, tree)
    bell_fam = type(spec.family)()
    bell_fam.tilt = None
    bell_spec = TwoLevelSpec(
        bell_fam, spec.theta, spec.child_cols, spec.leaf_cols
    )
    U = rng.uniform(0.05, 0.95, (20, tree.d))
    lc, g, H = log_density_and_derivs(spec, U, 2)
    lb, gb, Hb = log_density_and_derivs(bell_spec, U, 2)
    assert np.max(np.abs(lc - lb)) < 1e-10
    assert np.all(np.abs(gb - g) <= 1e-8 * (1.0 + np.abs(g)))
    assert np.all(np.abs(Hb - H) <= 1e-7 * (1.0 + np.abs(H)))
    np.testing.assert_array_equal(
        log_density_and_derivs(bell_spec, U, 1)[1], gb
    )


HOOK_TREES = {
    "d3": TREE3,
    "d4": TREE4,
    "d6": HacTree([[1, 2, 3], 4, [5, 6]]),
}


@pytest.mark.parametrize("fam", ["clayton", "gumbel"])
@pytest.mark.parametrize("tree", HOOK_TREES.values(), ids=HOOK_TREES.keys())
@pytest.mark.parametrize("gap", [1.0, 1e-6], ids=["interior", "gap-1e-6"])
def test_bell_and_closed_form_child_hooks_agree(fam, tree, gap):
    # each child's h_s jet and a-table jets (the closed form's scaled
    # tables times e^omega) at orders 0, 1 and 2; near a tie the low
    # coefficients vanish like the gap, so each field is compared on the
    # scale of each row's largest coefficient of that field
    f = get_family(fam)
    th0 = THETA_LO[fam] + 0.7
    theta = [th0] + [th0 + gap * (s + 1) for s in range(tree.p - 1)]
    spec = two_level_spec(tree, fam, theta)
    U = np.random.default_rng(43).uniform(0.05, 0.95, (20, tree.d))
    tol = (1e-10, 1e-9, 1e-9, 1e-8, 1e-8, 1e-8)
    for (s, cols), order in itertools.product(
        enumerate(spec.child_cols), (0, 1, 2)
    ):
        ths, ds = spec.theta[1 + s], spec.ds[s]
        us = U[:, list(cols)]
        ts = f.phi(ths, us).sum(axis=1)[None]
        pd = f.phi_derivs(ths, us)
        tdot, tddot = (v.sum(axis=1)[None] for v in (pd.dtheta, pd.dtheta2))
        # each hook takes a size group; this one holds the single child s
        closed = _child_table(f, th0, [ths], ts, ds, tdot, tddot, order)
        bell = _bell_table(f, th0, [ths], ts, ds, tdot, tddot, order)
        assert bell.h.shape == closed.h.shape == (1, (1, 3, 6)[order], 20)
        for fld in range(bell.h.shape[1]):
            ref = closed.h[0, fld]
            err = np.abs(bell.h[0, fld] - ref) / np.abs(ref).max()
            assert np.max(err) < 1e-10, fld
        table = closed.jet[0] * np.exp(closed.omega[0])
        for fld in range(table.shape[0]):
            scale = np.abs(table[fld]).max(axis=0)
            err = np.abs(bell.jet[0, fld] - table[fld]) / scale
            assert np.max(err) < tol[fld], fld


@pytest.mark.parametrize(
    "fam,theta", [("clayton", 2.0), ("gumbel", 2.5), ("frank", 3.0), ("joe", 2.0)]
)
def test_exact_tie_reduces_to_one_level(fam, theta):
    # theta_0 = theta_1 collapses [[1,2],3] to the exchangeable copula
    spec = two_level_spec(TREE3, fam, (theta, theta))
    f = get_family(fam)
    rng = np.random.default_rng(41)
    for _ in range(50):
        u = rng.uniform(0.02, 0.98, 3)
        t = float(np.sum(f.phi(theta, u)))
        c_exch = -f.psi_t_deriv(theta, t, 3) * np.prod(
            [-f.phi_prime(theta, x) for x in u]
        )
        assert log_density(spec, u) == pytest.approx(np.log(c_exch), rel=1e-10)


@pytest.mark.parametrize("fam,theta", [("clayton", 2.0), ("gumbel", 2.5)])
def test_score_at_exact_tie_matches_one_sided_differences(fam, theta):
    spec = two_level_spec(TREE3, fam, (theta, theta))
    rng = np.random.default_rng(43)
    h = 1e-7
    for _ in range(10):
        u = rng.uniform(0.05, 0.95, 3)
        g = score(spec, u)
        f0 = log_density(spec, u)
        # root steps down, child steps up: both stay inside the cone
        g_fd = np.array(
            [
                (f0 - log_density(spec.with_theta((theta - h, theta)), u)) / h,
                (log_density(spec.with_theta((theta, theta + h)), u) - f0) / h,
            ]
        )
        assert np.all(np.abs(g - g_fd) / (1.0 + np.abs(g_fd)) < 1e-5)
        assert np.all(np.isfinite(hessian(spec, u)))


@pytest.mark.parametrize("tree", [TREE3, TREE4], ids=["d3", "d4"])
def test_gumbel_unit_parameters_give_independence(tree):
    spec = two_level_spec(tree, "gumbel", np.ones(tree.p))
    rng = np.random.default_rng(47)
    U = rng.uniform(0.01, 0.99, (50, tree.d))
    assert np.max(np.abs(log_density(spec, U))) < 1e-12


@pytest.mark.parametrize(
    "fam,theta",
    [
        ("clayton", (0.8, 1.6)),
        ("gumbel", (1.3, 2.2)),
        ("frank", (1.0, 2.5)),
        ("joe", (1.2, 2.0)),
    ],
)
def test_density_integrates_to_one(fam, theta):
    spec = two_level_spec(TREE3, fam, theta)
    rng = np.random.default_rng(53)
    U = clamp_unit(rng.uniform(size=(100_000, 3)))
    c = np.exp(log_density(spec, U))
    se = c.std(ddof=1) / np.sqrt(len(c))
    assert abs(c.mean() - 1.0) < 4.0 * se


@pytest.mark.parametrize("fam,theta", [("clayton", (1.0, 2.0)), ("gumbel", (1.4, 2.1))])
def test_bartlett_identity(fam, theta):
    # E[s s^T + H] = 0 under the model; uniform-weighted Monte Carlo
    spec = two_level_spec(TREE3, fam, theta)
    rng = np.random.default_rng(59)
    U = clamp_unit(rng.uniform(size=(200_000, 3)))
    logc, g, H = log_density_and_derivs(spec, U, order=2)
    w = np.exp(logc)[:, None, None]
    D = (g[:, :, None] * g[:, None, :] + H) * w
    se = D.std(axis=0, ddof=1) / np.sqrt(D.shape[0])
    assert np.all(np.abs(D.mean(axis=0)) < 4.0 * se)


def test_within_child_permutation_invariance():
    spec = two_level_spec(TREE4, "gumbel", (1.3, 2.0, 3.1))
    rng = np.random.default_rng(61)
    U = rng.uniform(0.05, 0.95, (30, 4))
    base = log_density(spec, U)
    assert log_density(spec, U[:, [1, 0, 2, 3]]) == pytest.approx(base, abs=1e-12)
    assert log_density(spec, U[:, [0, 1, 3, 2]]) == pytest.approx(base, abs=1e-12)


def test_equal_children_swap_invariance():
    spec = two_level_spec(TREE4, "clayton", (1.0, 2.4, 2.4))
    rng = np.random.default_rng(67)
    U = rng.uniform(0.05, 0.95, (30, 4))
    assert log_density(spec, U[:, [2, 3, 0, 1]]) == pytest.approx(
        log_density(spec, U), abs=1e-12
    )


def test_vectorized_rows_match_scalar_calls():
    spec = two_level_spec(TREE4, "gumbel", (1.2, 1.9, 2.8))
    rng = np.random.default_rng(71)
    U = rng.uniform(0.1, 0.9, (5, 4))
    logc, g, H = log_density_and_derivs(spec, U, order=2)
    for i in range(5):
        li, gi, Hi = log_density_and_derivs(spec, U[i], order=2)
        assert li == pytest.approx(logc[i], abs=1e-14)
        assert gi == pytest.approx(g[i], abs=1e-14)
        assert Hi == pytest.approx(H[i], abs=1e-14)


# --- row blocks ----------------------------------------------------------

SIX_NESTS = HacTree([[2 * k + 1, 2 * k + 2] for k in range(6)])
BLOCK_TREES = {
    "d4": TREE4,
    "d6": HacTree([[1, 2, 3], 4, [5, 6]]),
    "six-nests": SIX_NESTS,
}


@pytest.mark.parametrize("tail", [1, 2, 7])
@pytest.mark.parametrize("tree", BLOCK_TREES.values(), ids=BLOCK_TREES.keys())
@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_row_blocks_match_one_pass(monkeypatch, fam, tree, tail):
    # every row's numbers are the same whichever block evaluates it
    rng = np.random.default_rng(83 + tail)
    spec = _random_spec(rng, fam, tree)
    u = rng.uniform(0.05, 0.95, (3 * 64 + tail, tree.d))
    order = 2
    monkeypatch.setattr(density, "ROW_BLOCK", 10**9)
    whole = log_density_and_derivs(spec, u, order)
    monkeypatch.setattr(density, "ROW_BLOCK", 64)
    blocked = log_density_and_derivs(spec, u, order)
    for one, many in zip(whole, blocked):
        assert (one is None) == (many is None)
        assert one is None or np.array_equal(one, many)


def test_row_blocks_start_on_multiples_and_absorb_a_single_row(monkeypatch):
    monkeypatch.setattr(density, "ROW_BLOCK", 64)
    assert list(density._row_blocks(0)) == [(0, 0)]
    assert list(density._row_blocks(1)) == [(0, 1)]
    assert list(density._row_blocks(129)) == [(0, 64), (64, 129)]
    assert list(density._row_blocks(130)) == [(0, 64), (64, 128), (128, 130)]


# --- size groups -----------------------------------------------------------

GROUP_TREES = {
    "d3": TREE3,
    "d4": TREE4,
    "d6": HacTree([[1, 2, 3], 4, [5, 6]]),
    "d7": HacTree([[1, 2], [3, 4, 5], [6, 7]]),
    "six-nests": SIX_NESTS,
}


def _group_thetas(fam, tree, kind):
    th0 = THETA_LO[fam] + 0.6
    gaps = 0.3 * np.arange(1, tree.p)
    if kind == "tied":
        gaps[:] = 0.0
    elif kind == "half-tied":
        gaps[::2] = 0.0
    return [th0, *(th0 + gaps)]


@pytest.mark.parametrize("kind", ["interior", "tied", "half-tied"])
@pytest.mark.parametrize("tree", GROUP_TREES.values(), ids=GROUP_TREES.keys())
@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_stacked_groups_match_one_child_at_a_time(
    monkeypatch, fam, tree, kind
):
    # children of equal size are evaluated as one stacked group; taking
    # them one at a time must give the same bits
    spec = two_level_spec(tree, fam, _group_thetas(fam, tree, kind))
    u = np.random.default_rng(89).uniform(0.02, 0.98, (37, tree.d))
    orders = (0, 1, 2)
    stacked = [log_density_and_derivs(spec, u, order) for order in orders]
    monkeypatch.setattr(
        density, "_size_groups", lambda ds: [[s] for s in range(len(ds))]
    )
    for order, many in zip(orders, stacked):
        for one, got in zip(log_density_and_derivs(spec, u, order), many):
            assert (one is None) == (got is None)
            assert one is None or np.array_equal(one, got)


def test_outputs_are_row_major(monkeypatch):
    # callers average scores over rows, and numpy sums a row-major and a
    # column-major array in different orders
    theta = _group_thetas("gumbel", SIX_NESTS, "interior")
    spec = two_level_spec(SIX_NESTS, "gumbel", theta)
    monkeypatch.setattr(density, "ROW_BLOCK", 64)
    for n in (2, 5, 130):
        u = np.random.default_rng(n).uniform(0.05, 0.95, (n, 12))
        for out in log_density_and_derivs(spec, u, 2):
            assert out.flags.c_contiguous


def test_size_groups_keep_child_order():
    assert density._size_groups((2, 3, 2, 2, 3)) == [[0, 2, 3], [1, 4]]
    assert density._size_groups(()) == []


@pytest.mark.parametrize(
    "tree,n_groups",
    [(TREE3, 1), (SIX_NESTS, 1), (HacTree([[1, 2], [3, 4, 5], [6, 7]]), 2)],
    ids=["d3", "six-nests", "d7"],
)
def test_eval_builds_one_root_column_and_one_table_per_size_group(
    monkeypatch, tree, n_groups
):
    # the theta-only constants are built once per evaluation: one root
    # psi column, one s_kq table pass for it and one s_{d_s,q} table per
    # size group
    theta = _group_thetas("gumbel", tree, "interior")
    spec = two_level_spec(tree, "gumbel", theta)
    fam = spec.family
    u = np.random.default_rng(97).uniform(0.05, 0.95, (20, tree.d))
    calls = {"column": 0, "tables": 0}
    column, tables = fam.psi_column, generators.s_nk_tables

    def counted_column(theta, t, k_lo, k_hi, **kw):
        calls["column"] += 1
        return column(theta, t, k_lo, k_hi, **kw)

    def counted_tables(x, ns):
        calls["tables"] += 1
        return tables(x, ns)

    monkeypatch.setattr(fam, "psi_column", counted_column)
    monkeypatch.setattr(generators, "s_nk_tables", counted_tables)
    for order in (0, 1, 2):
        calls.update(column=0, tables=0)
        density._eval(spec, u, order)
        assert calls == {"column": 1, "tables": 1 + n_groups}


@pytest.mark.parametrize("n", [1, 2, 7, 8193])
def test_clayton_and_gumbel_theta_columns_match_scalar_calls(n):
    # the generator calls of a size group take one theta per child, and
    # each child's rows keep the bits of a one-theta call, including at
    # theta values whose powers numpy rounds by shortcut (0.5, 1, 2)
    u = np.random.default_rng(101).uniform(1e-4, 1 - 1e-4, (3, 2, n))
    for fam, thetas in (
        ("clayton", (1.0, 2.0, 0.7)),
        ("gumbel", (1.0, 2.0, 3.1)),
        ("frank", (0.5, 2.0, 7.0)),
        ("joe", (1.5, 2.0, 3.0)),
    ):
        f = get_family(fam)
        column = np.array(thetas)[:, None, None]
        names = ["phi", "phi_prime", "log_neg_phi_prime", "phi_derivs",
                 "dlog_neg_phi_prime_dtheta"]
        for name in names:
            stacked = getattr(f, name)(column, u)
            for i, th in enumerate(thetas):
                one = getattr(f, name)(th, u[i])
                if name == "phi_derivs":
                    assert np.array_equal(stacked.dtheta[i], one.dtheta)
                    assert np.array_equal(stacked.dtheta2[i], one.dtheta2)
                else:
                    assert np.array_equal(stacked[i], one), (fam, name, th)
        stacked = f.sum_d2log_neg_phi_prime_dtheta2(column, u, 1)
        for i, th in enumerate(thetas):
            one = f.sum_d2log_neg_phi_prime_dtheta2(th, u[i], 0)
            assert np.array_equal(stacked[i], one), (fam, th)


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_zero_rows_give_empty_outputs(fam):
    spec = two_level_spec(TREE4, fam, (1.5, 2.0, 2.5))
    logc, g, H = log_density_and_derivs(spec, np.empty((0, 4)), 2)
    assert logc.shape == (0,)
    assert g.shape == (0, 3) and H.shape == (0, 3, 3)


def test_numeric_error_names_the_global_row(monkeypatch):
    # give the root psi column the wrong sign on the one row whose t is
    # large, put that row at index 69, in the second 64-row block, and the
    # error must name it
    tree = HacTree([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
    spec = two_level_spec(tree, "frank", (8.0, 30.0, 40.0))
    u = np.random.default_rng(3).uniform(0.3, 0.95, (101, 12))
    u[69] = 0.02                      # t = 11.3; below 0.2 on every other row
    fam = spec.family
    column = fam.psi_column

    def wrong_sign(theta, t, k_lo, k_hi):
        col = column(theta, t, k_lo, k_hi)
        if (theta, k_lo) == (spec.theta[0], spec.K):
            for k in col.sign:
                col.sign[k] = np.where(t > 1.0, -col.sign[k], col.sign[k])
        return col

    assert np.all(np.isfinite(log_density(spec, u)))
    monkeypatch.setattr(fam, "psi_column", wrong_sign)
    monkeypatch.setattr(density, "ROW_BLOCK", 64)
    with pytest.raises(NumericError, match=r"rows \[69\]"):
        log_density(spec, u)


# mpmath at 80 digits, sharing no code with haclrt: Taylor coefficients of
# each phi_0(psi_s(.)) and of psi_0, from the closed-form generators,
# composed into the mixed partial derivative of the copula
JOE_SIX_NEST_ROWS = {
    1806: -0.5979562869831129,
    2734: 0.0260204615742987,
    5543: -1.698277874767147,
    8721: 2.9544708902047594,
    8796: -2.1265863119606423,
    12305: -1.876331511787934,
}


def test_frank_and_joe_rows_of_linear_scale_failures_evaluate():
    # the former linear-scale psi derivatives raised NumericError on 17 of
    # these 20 frank batches and on these six joe rows
    tree = HacTree([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
    spec = two_level_spec(tree, "frank", (8.0, 30.0, 40.0))
    for seed in range(20):
        with np.errstate(all="ignore"):
            draws = sample(tree, spec.theta, "frank", 100, seed=seed).values
        assert np.all(np.isfinite(log_density(spec, clamp_unit(draws))))
    spec = two_level_spec(
        SIX_NESTS, "joe", (1.3, 1.7, 2.1, 2.5, 2.9, 3.3, 3.7)
    )
    u = np.random.default_rng(20085).uniform(0.001, 0.999, (20001, 12))
    rows = list(JOE_SIX_NEST_ROWS)
    np.testing.assert_allclose(
        log_density(spec, u[rows]), list(JOE_SIX_NEST_ROWS.values()),
        rtol=0, atol=1e-12,
    )


def test_frank_rows_near_zero_evaluate():
    # every u in [1e-4, 1e-3] puts phi_0 at psi_s(t_s) near 1e-24, where
    # the former Frank phi lost its digits; it raised NumericError on all
    # five rows, free and tied.  At the tie the density is the
    # exchangeable one, checked against mpmath at 60 digits
    mp = pytest.importorskip("mpmath")
    tree = HacTree([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
    u = np.random.default_rng(0).uniform(1e-4, 1e-3, (5, 12))
    free = log_density(two_level_spec(tree, "frank", (2.0, 2.5, 3.0)), u)
    assert np.all(np.isfinite(free))
    got = log_density(two_level_spec(tree, "frank", (2.0, 2.0, 2.0)), u)
    with mp.workdps(60):
        th = mp.mpf(2)

        def psi(s):
            return -mp.log(1 - (1 - mp.exp(-th)) * mp.exp(-s)) / th

        for row, val in zip(u, got):
            us = [mp.mpf(float(x)) for x in row]
            t = sum(-mp.log(mp.expm1(-th * x) / mp.expm1(-th)) for x in us)
            ref = mp.log(abs(mp.diff(psi, t, 12))) + sum(
                mp.log(th * mp.exp(-th * x) / -mp.expm1(-th * x)) for x in us
            )
            assert abs(val - ref) <= 1e-11


def test_hessian_peak_memory_on_six_nests():
    # rows are evaluated in blocks, so no (rows x coefficients) table of
    # the whole batch is ever held
    spec = two_level_spec(
        SIX_NESTS, "gumbel", (1.3, 1.5, 1.8, 2.0, 2.4, 2.9, 3.3)
    )
    u = np.random.default_rng(61).uniform(0.05, 0.95, (100_000, 12))
    tracemalloc.start()
    try:
        H = hessian(spec, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.shape == (100_000, 7, 7)
    assert peak < 200 * 2**20


# --- argument and domain checking ---------------------------------------


def test_boundary_u_rejected():
    spec = two_level_spec(TREE3, "clayton", (1.0, 2.0))
    for bad in ([0.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, np.nan, 0.5]):
        with pytest.raises(DomainError):
            log_density(spec, np.array(bad))


def test_theta_outside_cone_rejected():
    with pytest.raises(DomainError):
        two_level_spec(TREE3, "clayton", (2.0, 1.0))
    with pytest.raises(DomainError):
        two_level_spec(TREE3, "gumbel", (0.8, 2.0))


def test_wrong_column_count_rejected():
    spec = two_level_spec(TREE3, "clayton", (1.0, 2.0))
    with pytest.raises(DomainError):
        log_density(spec, np.full(4, 0.5))


def test_three_level_tree_rejected():
    with pytest.raises(DomainError):
        two_level_spec(HacTree([1, [2, [3, 4]]]), "clayton", (1.0, 2.0, 3.0))


@pytest.mark.parametrize("fam", ["clayton", "gumbel", "frank", "joe"])
def test_every_family_gives_score_and_hessian(fam):
    # one derivative path: orders 1 and 2 exist for every family
    spec = two_level_spec(TREE4, fam, (1.5, 2.0, 2.5))
    u = np.random.default_rng(7).uniform(0.05, 0.95, (9, 4))
    for order in (1, 2):
        logc, g, H = log_density_and_derivs(spec, u, order)
        assert g.shape == (9, 3) and np.all(np.isfinite(g))
        assert (H is None) == (order == 1)
    assert H.shape == (9, 3, 3) and np.all(np.isfinite(H))
    np.testing.assert_array_equal(H, H.transpose(0, 2, 1))


def _lru_entries():
    return sum(
        obj.cache_info().currsize
        for mod in (density, generators)
        for obj in vars(mod).values()
        if hasattr(obj, "cache_info")
    )


def test_density_caches_stay_bounded_over_fresh_theta():
    # no cache may be keyed on a float parameter: it would grow with every
    # new theta an optimizer or a simulation visits
    u = clamp_unit(np.random.default_rng(4).uniform(size=(8, 4)))
    sizes = []
    for i in range(100):
        for fam, th0 in (
            ("clayton", 0.9), ("gumbel", 1.3), ("frank", 0.9), ("joe", 1.3)
        ):
            theta = (th0 + 1e-3 * i, th0 + 0.5 + 2e-3 * i, th0 + 1.0 + 3e-3 * i)
            log_density_and_derivs(two_level_spec(TREE4, fam, theta), u, 2)
        if i + 1 in (50, 100):
            sizes.append(_lru_entries())
    assert sizes[0] == sizes[1]


def test_bad_order_rejected():
    spec = two_level_spec(TREE3, "clayton", (1.0, 2.0))
    with pytest.raises(DomainError):
        log_density_and_derivs(spec, np.full(3, 0.5), order=3)


def test_clamp_unit_pins_to_open_cube():
    u = clamp_unit(np.array([0.0, 1.0, 0.5, np.nextafter(0, 1)]))
    assert np.all(u > 0) and np.all(u < 1)
    assert u[2] == 0.5


@settings(deadline=None, max_examples=40)
@given(
    fam=st.sampled_from(["clayton", "gumbel", "frank", "joe"]),
    seed=st.integers(0, 10_000),
)
def test_log_density_finite_on_interior(fam, seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, fam, TREE4)
    u = rng.uniform(1e-6, 1.0 - 1e-6, 4)
    assert np.isfinite(log_density(spec, u))


# --- Frank and Joe jets against 50-digit mpmath ----------------------------

def _mp_generators(fam, mp):
    if fam == "frank":
        def psi(th, s):
            return -mp.log(1 - (1 - mp.exp(-th)) * mp.exp(-s)) / th

        def phi(th, u):
            return -mp.log(mp.expm1(-th * u) / mp.expm1(-th))

        def dphi(th, u):
            return th * mp.exp(-th * u) / mp.expm1(-th * u)
    else:
        def psi(th, s):
            return 1 - (1 - mp.exp(-s)) ** (1 / th)

        def phi(th, u):
            return -mp.log(1 - (1 - u) ** th)

        def dphi(th, u):
            return -th * (1 - u) ** (th - 1) / (1 - (1 - u) ** th)
    return psi, phi, dphi


def _mp_log_density(fam, tree, theta, u, mp):
    # c = (-1)^d sum_k b_k psi_0^(k)(t) prod(-phi'), with b_k the
    # coefficients of prod_s sum_q a_{s,q} z^q times z^|L| and a_{s,q} the
    # partial Bell polynomials of h_s = phi_0(psi_s(.))'s derivatives at
    # t_s, all by 50-digit numerical differentiation of the closed forms
    psi, phi, dphi = _mp_generators(fam, mp)
    th0 = theta[0]
    poly = [mp.mpf(1)]
    t = mp.mpf(0)
    log_b2 = mp.mpf(0)
    for s, child in enumerate(c for c in tree.children(()) if not isinstance(c, int)):
        ths = theta[1 + s]
        cols = [u[lbl - 1] for lbl in tree.leaf_labels(child)]
        ts = sum(phi(ths, x) for x in cols)
        t += phi(th0, psi(ths, ts))
        log_b2 += sum(mp.log(-dphi(ths, x)) for x in cols)
        ds = len(cols)
        x = mp.diffs(lambda z: phi(th0, psi(ths, z)), ts, ds)
        x = list(x)[1:]
        bell = {(0, 0): mp.mpf(1)}
        for n in range(1, ds + 1):
            for k in range(1, n + 1):
                bell[n, k] = sum(
                    mp.binomial(n - 1, i - 1) * x[i - 1] * bell.get((n - i, k - 1), 0)
                    for i in range(1, n - k + 2)
                )
        a = [mp.mpf(0)] + [bell[ds, q] for q in range(1, ds + 1)]
        poly = [sum(poly[i] * a[j - i] for i in range(len(poly)) if 0 <= j - i < len(a))
                for j in range(len(poly) + ds)]
    for c in tree.children(()):
        if isinstance(c, int):
            t += phi(th0, u[c - 1])
            log_b2 += mp.log(-dphi(th0, u[c - 1]))
            poly = [mp.mpf(0)] + poly
    d = len(u)
    dpsi = list(mp.diffs(lambda z: psi(th0, z), t, d))
    total = sum(b * dpsi[k] for k, b in enumerate(poly))
    return mp.log((-1) ** d * total) + log_b2


# Frank and Joe at interior, tied and half-tied theta on trees up to d = 6
MP_TABLE = [
    ("frank", TREE3, (1.5, 3.0)),
    ("frank", TREE4, (2.0, 2.0, 4.5)),
    ("frank", HacTree([[1, 2, 3], 4, [5, 6]]), (1.2, 2.5, 1.2)),
    ("joe", TREE3, (1.4, 2.6)),
    ("joe", TREE4, (1.6, 1.6, 2.9)),
    ("joe", HacTree([[1, 2, 3], 4, [5, 6]]), (1.3, 2.2, 1.3)),
]


@pytest.mark.parametrize("fam,tree,theta", MP_TABLE)
def test_frank_and_joe_jets_match_mpmath(fam, tree, theta):
    mp = pytest.importorskip("mpmath")
    spec = two_level_spec(tree, fam, theta)
    u = np.random.default_rng(tree.d).uniform(0.1, 0.9, tree.d)
    logc, g, H = log_density_and_derivs(spec, u, 2)
    p = tree.p
    with mp.workdps(50):
        uu = [mp.mpf(float(x)) for x in u]

        def f(*th):
            return _mp_log_density(fam, tree, th, uu, mp)

        th = [mp.mpf(x) for x in theta]
        assert abs(logc - f(*th)) <= 1e-13
        for a in range(p):
            n = [int(i == a) for i in range(p)]
            ref = mp.diff(f, th, n)
            assert abs(g[a] - ref) <= 1e-12 * (1 + abs(ref)), a
            for b in range(a, p):
                nb = [k + int(i == b) for i, k in enumerate(n)]
                ref = mp.diff(f, th, nb)
                assert abs(H[a, b] - ref) <= 1e-11 * (1 + abs(ref)), (a, b)
