import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from haclrt.errors import DomainError, NumericError, SingularSigmaError
from haclrt.estimate import FitResult, FitConfig, mle
from haclrt import lrt
from haclrt.lrt import (
    FitPair,
    LimitLaw,
    LrtResult,
    conditional_test,
    lrt_statistic,
    null_statistics,
    power_curve,
    project,
    run_fitted,
    run_test,
)
from haclrt.fisher import fd_scheme
from haclrt.generators import tau_inv
from haclrt.sampler import sample
from haclrt.scenarios import ScenarioSpec, run_replicate
from haclrt.tree import (
    Cone, HacTree, Hypothesis, holding_branches, local_cones, node_name,
    tight_edges,
)

TREE3 = HacTree([[1, 2], 3])
TREE4 = HacTree([[1, 2], [3, 4]])

# half-space and its boundary line, the one-tie local geometry
CONE2 = Cone(2, ineq=np.array([[1.0, -1.0]]))
LINE2 = Cone(2, eq=np.array([[1.0, -1.0]]))
# twin geometry: z0 <= z1 and z0 <= z2
CONE3 = Cone(3, ineq=np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]))
BOTH3 = Cone(3, eq=np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]))
# one tie as equality, the other still a half-space, and its mirror
TIED3 = Cone(
    3,
    ineq=np.array([[1.0, 0.0, -1.0]]),
    eq=np.array([[1.0, -1.0, 0.0]]),
)
TIED3B = Cone(
    3,
    ineq=np.array([[1.0, -1.0, 0.0]]),
    eq=np.array([[1.0, 0.0, -1.0]]),
)


def _twin_sigma(v):
    """Sigma on TREE4's parameters whose tight rows have covariance v, with
    the root uncorrelated with them."""
    t_inv = np.linalg.inv(np.vstack([[1.0, 0.0, 0.0], CONE3.ineq]))
    return t_inv @ np.block([[np.eye(1), np.zeros((1, 2))],
                             [np.zeros((2, 1)), v]]) @ t_inv.T


def _orthant(cov):
    # P(N(0, cov) <= 0) by the arcsine formulas, for the oracles below
    k = cov.shape[0]
    if k <= 1:
        return 0.5**k
    r = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    a = [math.asin(r[i, j]) for i in range(k) for j in range(i + 1, k)]
    if k == 2:
        return 0.25 + a[0] / (2.0 * math.pi)
    return 0.125 + sum(a) / (4.0 * math.pi)


def _fit(theta, loglik, branch=None):
    return FitResult(
        theta=np.asarray(theta, dtype=float),
        loglik=loglik,
        converged=True,
        n_starts=1,
        active=(),
        grad_norm=0.0,
        branch=branch,
    )


def _pair(full, null, tree, hypothesis="(0,1)=(0)", n=100):
    """A FitPair of two given fits, with lrt_statistic's statistic."""
    return FitPair(
        rows=np.full((n, tree.d), 0.5), tree=tree, family="gumbel",
        hypothesis=Hypothesis.parse(hypothesis), fit_full=full,
        fit_null=null, statistic=lrt_statistic(null, full),
    )


# --- projection ------------------------------------------------------------


def test_project_interior_point_is_fixed():
    pr = project(np.array([1.0, 2.0]), CONE2, np.eye(2))
    assert np.allclose(pr.z_star, [1.0, 2.0])
    assert pr.q == 0.0
    assert pr.face == ()


def test_project_euclidean_halfspace():
    pr = project(np.array([2.0, 1.0]), CONE2, np.eye(2))
    assert np.allclose(pr.z_star, [1.5, 1.5])
    assert pr.q == pytest.approx(0.5, abs=1e-12)
    assert pr.face == (0,)


def test_project_point_on_null_line():
    pr = project(np.array([1.5, 1.5]), LINE2, np.eye(2))
    assert np.allclose(pr.z_star, [1.5, 1.5])
    assert pr.q == pytest.approx(0.0, abs=1e-15)


def test_project_weighted_metric():
    # with Var(z1) huge the projection moves z1, not z0
    sigma = np.diag([1e-4, 1e4])
    pr = project(np.array([2.0, 1.0]), CONE2, sigma)
    assert pr.z_star[0] == pytest.approx(2.0, abs=1e-3)
    assert pr.z_star[1] == pytest.approx(2.0, abs=1e-3)


def test_project_rejects_singular_sigma():
    with pytest.raises(SingularSigmaError):
        project(np.array([1.0, 0.0]), CONE2, np.ones((2, 2)))


def test_project_rejects_bad_shape():
    with pytest.raises(DomainError):
        project(np.array([1.0, 0.0, 3.0]), CONE2, np.eye(2))


def _random_triple(rng):
    p = int(rng.integers(2, 5))
    parents = [int(rng.integers(0, i)) for i in range(1, p)]
    edges = [(parents[i - 1], i) for i in range(1, p)]
    keep = [e for e in edges if rng.random() < 0.85]
    eq_edges = [e for e in keep if rng.random() < 0.3]
    ineq_edges = [e for e in keep if e not in eq_edges]

    def rows(pairs):
        out = np.zeros((len(pairs), p))
        for k, (a, b) in enumerate(pairs):
            out[k, a] = 1.0
            out[k, b] = -1.0
        return out

    cone = Cone(
        p,
        ineq=rows(ineq_edges) if ineq_edges else None,
        eq=rows(eq_edges) if eq_edges else None,
    )
    w = rng.standard_normal((p, p))
    sigma = w @ w.T + 0.3 * np.eye(p)
    z = 3.0 * rng.standard_normal(p)
    return p, ineq_edges, eq_edges, cone, sigma, z


def _feasible_points(rng, n, p, ineq_edges, eq_edges):
    """Random points repaired to satisfy parent <= child order constraints."""
    x = 2.0 * rng.standard_normal((n, p))
    for i in range(1, p):    # parent index < child index: one pass
        for a, b in ineq_edges:
            if b == i:
                x[:, b] = np.maximum(x[:, b], x[:, a])
        for a, b in eq_edges:
            if b == i:
                x[:, b] = x[:, a]
    return x


def test_project_beats_brute_force():
    # face enumeration must match or beat random feasible points
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        p, ineq_e, eq_e, cone, sigma, z = _random_triple(rng)
        pts = _feasible_points(rng, 1000, p, ineq_e, eq_e)
        diff = z[None, :] - pts
        q_pts = np.einsum("ni,ni->n", diff, np.linalg.solve(sigma, diff.T).T)
        pr = project(z, cone, sigma)
        tol = 1e-8 * (1.0 + float(np.abs(z).max()))
        assert cone.contains(pr.z_star, tol)
        assert pr.q >= 0.0
        assert pr.q <= q_pts.min() + 1e-7 * (1.0 + q_pts.min())


def test_project_local_mesh_optimality():
    rng = np.random.default_rng(4)
    cones = [CONE2, CONE3, TIED3]
    zs = [np.array([2.0, -1.0]), np.array([1.0, -0.5, 0.3]),
          np.array([0.8, -0.2, -0.6])]
    for cone, z in zip(cones, zs):
        w = rng.standard_normal((cone.p, cone.p))
        sigma = w @ w.T + 0.5 * np.eye(cone.p)
        pr = project(z, cone, sigma)
        sinv = np.linalg.inv(sigma)
        checked = 0
        for _ in range(400):
            d = rng.standard_normal(cone.p)
            if cone.eq.shape[0]:
                # feasible directions live in the null space of the ties
                eq = cone.eq
                d = d - eq.T @ np.linalg.solve(eq @ eq.T, eq @ d)
            step = pr.z_star + 1e-3 * d
            if not cone.contains(step, 1e-12):
                continue
            q = float((z - step) @ sinv @ (z - step))
            assert q >= pr.q - 1e-9
            checked += 1
        assert checked > 50


def test_project_rejects_asymmetric_sigma():
    # cholesky reads only the lower triangle: the draws would use the
    # identity while the face operators used the 0.9
    sigma = np.array([[1.0, 0.9], [0.0, 1.0]])
    with pytest.raises(DomainError, match="symmetric"):
        project(np.array([2.0, 1.0]), CONE2, sigma)
    with pytest.raises(DomainError, match="symmetric"):
        null_statistics(sigma, CONE2, LINE2, m=10)


def test_project_rejects_non_finite_sigma():
    sigma = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(DomainError, match="non-finite"):
        project(np.array([2.0, 1.0]), CONE2, sigma)
    with pytest.raises(DomainError, match="non-finite"):
        null_statistics(sigma, CONE2, LINE2, m=10)


def test_sigma_symmetry_check_admits_inverse_roundoff():
    # sigma_hat inverts information of condition number up to 1e10
    u, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 7)))
    info = u @ np.diag(np.logspace(0, 10, 7)) @ u.T
    sigma = np.linalg.inv(0.5 * (info + info.T))
    assert np.max(np.abs(sigma - sigma.T)) > 1e-10 * np.max(np.abs(sigma))
    cone = Cone(7, ineq=np.eye(7)[:6] - np.eye(7)[1:])
    assert null_statistics(sigma, cone, cone, m=10).shape == (10,)


# --- projection kernel against face enumeration ------------------------------


def _enumerate_q(z, cone, sigma):
    """Oracle: the least q over every face whose solution is feasible.

    Each face's equality-constrained quadratic, kept for the rows where
    its solution satisfies the face's inactive inequalities within
    1e-9 (1 + max|z|); ties keep the earlier (coarser) face.
    """
    p = cone.p
    tol = 1e-9 * (1.0 + np.max(np.abs(z), axis=1))
    best = np.full(z.shape[0], np.inf)
    best_rank = np.zeros(z.shape[0], dtype=int)
    best_face = np.zeros(z.shape[0], dtype=int)
    for i, tight in enumerate(cone.faces()):
        a = np.vstack([cone.eq, cone.ineq[list(tight)]])
        if a.shape[0]:
            m = a @ sigma @ a.T
            q_form = a.T @ np.linalg.pinv(m, hermitian=True) @ a
            rank = int(np.linalg.matrix_rank(a))
        else:
            q_form, rank = np.zeros((p, p)), 0
        proj = np.eye(p) - sigma @ q_form
        inactive = [j for j in range(cone.n_ineq) if j not in tight]
        q = lrt._quad(z, np.broadcast_to(q_form, (z.shape[0], p, p)))
        if inactive:
            slack = (z @ proj.T) @ cone.ineq[inactive].T
            q = np.where(np.all(slack <= tol[:, None], axis=1), q, np.inf)
        take = q < best
        best = np.where(take, q, best)
        best_rank = np.where(take, rank, best_rank)
        best_face = np.where(take, i, best_face)
    assert np.all(np.isfinite(best))
    return np.maximum(best, 0.0), best_rank, best_face


def _nests(k):
    nested = [[2 * i + 1, 2 * i + 2] for i in range(k)]
    return HacTree(nested + [3] if k == 1 else nested)  # root needs two


def _all_tied(k):
    return Hypothesis.parse(" & ".join(f"(0,{i})=(0)" for i in range(1, k + 1)))


def _star_cone(k):
    # k twin nests all tied to the root: k half-spaces
    return local_cones(_nests(k), _all_tied(k), np.full(k + 1, 1.5))[0]


def _chain_cone(k):
    # [[[1,2],3],...]: k nested edges, all tight
    nested = [1, 2]
    for leaf in range(3, k + 3):
        nested = [nested, leaf]
    deep = "(0" + ",1" * k + ")"
    hyp = Hypothesis.parse(f"{deep}=(0{',1' * (k - 1)})")
    return local_cones(HacTree(nested), hyp, np.full(k + 1, 1.5))[0]


def _hybrid_cone(k):
    # every other nest strictly above the root, forced tight
    theta = np.array([1.5] + [1.5 + (i % 2) for i in range(k)])
    slack = [((), (i + 1,)) for i in range(k) if i % 2]
    hyp = Hypothesis.parse("(0,1)=(0)")
    return local_cones(_nests(k), hyp, theta, assume_tight=slack)[0]


def _null_cone(k):
    # k + 1 tied nests, the first at equality: one equality row and k
    # half-spaces
    hyp = Hypothesis.parse("(0,1)=(0)")
    return local_cones(_nests(k + 1), hyp, np.full(k + 2, 1.5))[1][0]


def _spd(rng, p):
    w = rng.standard_normal((p, p))
    return w @ w.T + 0.5 * np.eye(p)


def _gauss(rng, sigma, m):
    return rng.standard_normal((m, sigma.shape[0])) @ np.linalg.cholesky(sigma).T


TREE_CONES = {
    "star": _star_cone,
    "chain": _chain_cone,
    "hybrid": _hybrid_cone,
    "null": _null_cone,
}


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("kind", sorted(TREE_CONES))
def test_batch_q_equals_face_enumeration_on_tree_cones(kind, k):
    cone = TREE_CONES[kind](k)
    assert cone.n_ineq == k
    rng = np.random.default_rng(10 * k + len(kind))
    sigma = _spd(rng, cone.p)
    z = _gauss(rng, sigma, 2000)
    q, rank, face = lrt._batch_q(z, lrt._face_ops(cone, sigma))
    q0, rank0, face0 = _enumerate_q(z, cone, sigma)
    assert np.array_equal(face, face0)
    assert np.array_equal(rank, rank0)
    assert np.array_equal(q, q0)


def _three_operand_q(z, ops, face):
    """q by the three-operand einsum, one group of draws per face."""
    q = np.empty(z.shape[0])
    for f in np.unique(face):
        rows = face == f
        q[rows] = np.einsum("ni,ij,nj->n", z[rows], ops.q_forms[f], z[rows])
    return np.maximum(q, 0.0)


def test_batch_q_agrees_with_the_three_operand_einsum():
    # the gathered pass sums in another order than the per-face einsum;
    # both are z' Q z on the same face to within roundoff
    tied = local_cones(_nests(6), _all_tied(6), np.full(7, 2.0))
    cases = [(TREE_CONES[kind](k), 0.0, f"{kind} {k}")
             for kind in sorted(TREE_CONES) for k in range(1, 9)]
    cases += [(tied[1][0], 0.0, "six equalities"),
              (tied[0], 1.0, "six-nest star, shifted")]
    for i, (cone, shift, label) in enumerate(cases):
        rng = np.random.default_rng(30 + i)
        sigma = _spd(rng, cone.p)
        h = shift * rng.standard_normal(cone.p) * np.sqrt(np.diag(sigma))
        z = _gauss(rng, sigma, 2000) + h
        ops = lrt._face_ops(cone, sigma)
        q, _, face = lrt._batch_q(z, ops)
        q3 = _three_operand_q(z, ops, face)
        assert np.all(np.abs(q - q3) <= 1e-13 * np.maximum(np.abs(q3), 1.0)), \
            label


def _spd_cond(rng, p, cond):
    u, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigma = u @ np.diag(np.logspace(0.0, math.log10(cond), p)) @ u.T
    return 0.5 * (sigma + sigma.T)


@pytest.mark.parametrize("kind", sorted(TREE_CONES))
def test_batch_q_certifies_every_draw_at_the_sigma_hat_condition_cap(kind):
    # sigma_hat admits information of condition number up to 1e10
    # (fisher.EIG_RTOL); on independent rows no draw goes uncertified
    for k in range(1, 9):
        cone = TREE_CONES[kind](k)
        rng = np.random.default_rng(100 * k + len(kind))
        sigma = _spd_cond(rng, cone.p, 1e10)
        z = _gauss(rng, sigma, 2000)
        q, _, _ = lrt._batch_q(z, lrt._face_ops(cone, sigma))
        q0, _, _ = _enumerate_q(z, cone, sigma)
        assert np.all(np.abs(q - q0) <= 1e-7 * (1.0 + q0))


def test_batch_q_refuses_non_finite_rows():
    for cone in (CONE3, BOTH3):
        z = np.array([[0.5, -1.0, 2.0], [np.nan, 0.0, 1.0]])
        with pytest.raises(NumericError):
            lrt._batch_q(z, lrt._face_ops(cone, np.eye(3)))


def test_null_statistics_equals_face_enumeration_on_six_nests():
    tree = _nests(6)
    cone, null_cones = local_cones(tree, _all_tied(6), np.full(7, 2.0))
    sigma = _spd(np.random.default_rng(6), 7)
    draws, info = null_statistics(
        sigma, cone, null_cones, m=5000, seed=17, details=True
    )
    z = _gauss(np.random.default_rng(17), sigma, 5000)
    q_full, rank_full, _ = _enumerate_q(z, cone, sigma)
    q_null, rank_null, _ = _enumerate_q(z, null_cones[0], sigma)
    assert len(null_cones) == 1
    assert np.array_equal(info["q_full"], q_full)
    assert np.array_equal(info["q_null"], q_null)
    assert np.array_equal(draws, np.maximum(q_null - q_full, 0.0))
    assert np.array_equal(info["nu"], np.maximum(rank_null - rank_full, 0))


def test_null_statistics_is_exactly_zero_where_both_faces_agree():
    # on the six-nest tie, a draw whose full projection has every
    # inequality tight lands on the null's subspace: one arithmetic for
    # both q values makes their difference exactly 0, not roundoff.  A
    # root shifted up sends a few hundred draws there.
    cone, null_cones = local_cones(_nests(6), _all_tied(6), np.full(7, 2.0))
    sigma = _spd(np.random.default_rng(0), 7)
    h = np.zeros(7)
    h[0] = 2.0 * math.sqrt(sigma[0, 0])
    draws = null_statistics(sigma, cone, null_cones, h=h, m=20_000, seed=19)
    z = _gauss(np.random.default_rng(19), sigma, 20_000) + h
    _, _, face = lrt._batch_q(z, lrt._face_ops(cone, sigma))
    both = face == 2**6 - 1
    assert np.count_nonzero(both) >= 100
    assert np.all(draws[both] == 0.0)
    assert np.all(draws[~both] > 0.0)


def test_batch_q_memory_does_not_grow_with_draws():
    # 12 half-spaces, 4096 faces: one chunk of certificate products is
    # _CERT_BUDGET floats whatever m is; the per-draw outputs and the
    # chunk's smaller arrays at m = 20,000 take under 2 MiB more
    cone = _star_cone(12)
    rng = np.random.default_rng(12)
    sigma = _spd(rng, 13)
    z = _gauss(rng, sigma, 20_000)
    ops = lrt._face_ops(cone, sigma)
    tracemalloc.start()
    try:
        q, rank, face = lrt._batch_q(z, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * lrt._CERT_BUDGET + 2 * 2**20
    q0, rank0, face0 = _enumerate_q(z[:200], cone, sigma)
    assert np.array_equal(face[:200], face0)
    assert np.array_equal(rank[:200], rank0)
    assert np.array_equal(q[:200], q0)


def test_faces_index_is_the_mask():
    # the face search flips bits of a face's index: bit i is row i tight
    for k in range(9):
        faces = Cone(k + 1, ineq=np.eye(k + 1)[:k]).faces()
        assert len(faces) == 2**k
        for mask, face in enumerate(faces):
            assert list(face) == sorted(set(face))
            assert sum(1 << i for i in face) == mask


def _face_ops_loop(cone, sigma):
    """One face at a time: the operators _face_ops stacks by face size."""
    p, k = cone.p, cone.n_ineq
    r = cone.eq.shape[0]
    faces = cone.faces()
    q_forms = np.zeros((len(faces), p, p))
    cert = np.empty((len(faces), k, p))
    for f, face in enumerate(faces):
        on = list(face)
        off = [i for i in range(k) if i not in face]
        a = np.vstack([cone.eq, cone.ineq[on]])
        if a.shape[0]:
            m = a @ sigma @ a.T
            m_pinv = np.linalg.pinv(m, hermitian=True)
            q_forms[f] = a.T @ m_pinv @ a
            cert[f, on] = -(m_pinv @ a)[r:] * np.diag(m)[r:, None]
        cert[f, off] = cone.ineq[off] @ (np.eye(p) - sigma @ q_forms[f])
    ranks = np.array([np.linalg.matrix_rank(np.vstack(
        [cone.eq, cone.ineq[list(face)]])) if cone.eq.shape[0] + len(face)
        else 0 for face in faces])
    return q_forms, cert, ranks


@pytest.mark.parametrize("kind", sorted(TREE_CONES))
def test_face_ops_stacked_equals_the_face_loop(kind):
    for k in range(1, 9):
        cone = TREE_CONES[kind](k)
        rng = np.random.default_rng(20 * k + len(kind))
        for sigma in (_spd(rng, cone.p), _spd_cond(rng, cone.p, 1e10)):
            ops = lrt._face_ops(cone, sigma)
            q_forms, cert, ranks = _face_ops_loop(cone, sigma)
            assert ops.faces == cone.faces()
            assert np.array_equal(ops.q_forms, q_forms)
            assert np.array_equal(ops.cert, cert)
            assert np.array_equal(ops.ranks, ranks)


@pytest.mark.parametrize("cond", [None, 1e10])
@pytest.mark.parametrize("kind", sorted(TREE_CONES))
def test_face_search_picks_the_enumerated_face(kind, cond):
    # shifted draws, at a random and at the sigma_hat condition cap
    for k in range(1, 9):
        cone = TREE_CONES[kind](k)
        rng = np.random.default_rng(1000 * k + len(kind))
        sigma = (_spd(rng, cone.p) if cond is None
                 else _spd_cond(rng, cone.p, cond))
        h = rng.standard_normal(cone.p) * np.sqrt(np.diag(sigma))
        z = _gauss(rng, sigma, 2000) + h
        q, rank, face = lrt._batch_q(z, lrt._face_ops(cone, sigma))
        q0, rank0, face0 = _enumerate_q(z, cone, sigma)
        assert np.array_equal(face, face0)
        assert np.array_equal(rank, rank0)
        assert np.array_equal(q, q0)


def test_face_search_leaves_active_set_cycles_by_least_index_flips():
    # the orthant {z <= 0} under a nearly rank-2 sigma: flipping every
    # failing row at once cycles on some of these draws, and the
    # least-index flips that follow reach the enumerated face
    rng = np.random.default_rng(0)
    for k in (6, 7, 8):
        cone = Cone(k, ineq=np.eye(k))
        w = rng.standard_normal((k, 2))
        sigma = w @ w.T + 0.02 * np.eye(k)
        z = _gauss(rng, sigma, 3000)
        q, rank, face = lrt._batch_q(z, lrt._face_ops(cone, sigma))
        q0, rank0, face0 = _enumerate_q(z, cone, sigma)
        assert np.array_equal(face, face0)
        assert np.array_equal(q, q0)


@pytest.mark.parametrize("kind", sorted(TREE_CONES))
def test_face_search_certifies_draws_on_face_boundaries(kind):
    # move each draw so that one certificate row of its face reads -tol/2,
    # 0 or tol/2: several faces then hold within the tolerance, and the
    # search must still end on one of them
    for k in range(1, 9):
        cone = TREE_CONES[kind](k)
        rng = np.random.default_rng(50 * k + len(kind))
        sigma = _spd(rng, cone.p)
        ops = lrt._face_ops(cone, sigma)
        z = _gauss(rng, sigma, 600)
        _, _, face = lrt._batch_q(z, ops)
        row = ops.cert[face, rng.integers(0, k, z.shape[0])]
        tol = 1e-9 * (1.0 + np.max(np.abs(z), axis=1))
        at = np.array([-0.5, 0.0, 0.5])[np.arange(z.shape[0]) % 3] * tol
        norm2 = np.einsum("np,np->n", row, row)
        z = z + ((at - np.einsum("np,np->n", row, z)) / norm2)[:, None] * row
        q, _, face = lrt._batch_q(z, ops)
        tol = 1e-9 * (1.0 + np.max(np.abs(z), axis=1))
        s = np.einsum("nkp,np->nk", ops.cert[face], z)
        assert np.all(s <= tol[:, None])
        q0, _, _ = _enumerate_q(z, cone, sigma)
        assert np.allclose(q, q0, rtol=1e-7, atol=1e-9)


# --- statistic -------------------------------------------------------------


def test_statistic_identical_fits():
    f = _fit([1.5, 2.0], -100.0)
    assert lrt_statistic(f, f) == 0.0


def test_statistic_arithmetic():
    full = _fit([1.5, 2.0], -100.0)
    null = _fit([1.7, 1.7], -101.5, branch=((1,),))
    assert lrt_statistic(null, full) == pytest.approx(3.0, abs=1e-12)


def test_statistic_clamps_roundoff():
    full = _fit([1.5, 2.0], -100.0 - 4e-9)
    null = _fit([1.7, 1.7], -100.0)
    assert lrt_statistic(null, full) == 0.0


def test_statistic_rejects_swapped_fits():
    full = _fit([1.5, 2.0], -100.0)
    null = _fit([1.7, 1.7], -101.5)
    with pytest.raises(NumericError):
        lrt_statistic(full, null)


def test_statistic_rejects_mismatched_lengths():
    with pytest.raises(DomainError):
        lrt_statistic(_fit([1.7, 1.7], -101.0), _fit([1.5, 2.0, 2.5], -100.0))


# --- Monte Carlo null ------------------------------------------------------


def test_null_draws_nonnegative_and_zero_iff_projections_agree():
    draws, info = null_statistics(
        np.eye(2), CONE2, LINE2, m=20_000, seed=11, details=True
    )
    assert np.all(draws >= 0.0)
    agree = info["q_null"] - info["q_full"] <= 1e-12
    assert np.array_equal(draws == 0.0, agree)
    assert np.all(info["q_full"] <= info["q_null"] + 1e-12)


def test_mc_pvalue_at_zero_statistic_is_one():
    law = LimitLaw.simulated(CONE2, LINE2, np.eye(2), m=2000, seed=1)
    assert law.kind == "simulated" and law.m == 2000
    assert law.sf(0.0) == 1.0
    # any positive statistic leaves out the draws at the atom: about half
    p = law.sf(5e-9)
    assert 0.45 < p < 0.55


def test_mc_pvalue_monotone_in_statistic():
    law = LimitLaw.simulated(CONE2, LINE2, np.eye(2), m=5000, seed=3)
    ps = [law.sf(l) for l in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert all(0.0 < p <= 1.0 for p in ps)


def test_mc_pvalue_reproducible():
    args = (CONE2, LINE2, np.eye(2))
    law = LimitLaw.simulated(*args, m=2000, seed=9)
    assert law.sf(1.3) == LimitLaw.simulated(*args, m=2000, seed=9).sf(1.3)
    assert law.sf(1.3) == law.sf(1.3)


def test_mc_pvalue_validates_inputs():
    with pytest.raises(DomainError):
        LimitLaw.simulated(CONE2, LINE2, np.eye(2), m=500)
    with pytest.raises(DomainError):
        LimitLaw.simulated(CONE2, LINE2, np.eye(2), m=2000).sf(-0.5)
    with pytest.raises(SingularSigmaError):
        LimitLaw.simulated(CONE2, LINE2, np.ones((2, 2)), m=2000).sf(1.0)


def test_simulated_law_refuses_a_non_integer_m():
    with pytest.raises(DomainError, match="m must be an integer"):
        LimitLaw.simulated(CONE2, LINE2, np.eye(2), m=2000.0)
    with pytest.raises(DomainError, match="m must be an integer"):
        null_statistics(np.eye(2), CONE2, LINE2, m=1000.7)


def test_null_statistics_refuses_non_finite_h_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before h was checked")

    monkeypatch.setattr(lrt.np.random, "default_rng", no_draws)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="h has non-finite entries"):
            null_statistics(np.eye(3), CONE3, BOTH3, h=[0.0, bad, 1.0],
                            m=5000)


def test_mc_pvalue_rejects_nan_statistic():
    # a NaN would count no draw >= itself: p = 1/(m+1), a false rejection
    law = LimitLaw.simulated(CONE2, LINE2, np.eye(2), m=2000)
    with pytest.raises(DomainError, match="nan"):
        law.sf(np.nan)
    p = law.sf(np.inf)
    assert p == 1.0 / 2001.0


def test_one_tie_limit_law_matches_half_half_mixture():
    # atom of mass 1/2 at zero, chi2(1) above it, for any covariance
    rng = np.random.default_rng(12)
    for k in range(10):
        w = rng.standard_normal((2, 2))
        sigma = w @ w.T + 0.2 * np.eye(2)
        draws = null_statistics(sigma, CONE2, LINE2, m=100_000, seed=500 + k)
        atom = np.mean(draws == 0.0)
        assert abs(atom - 0.5) < 0.01
        pos = np.sort(draws[draws > 0])
        emp = (np.arange(1, pos.size + 1) + (draws.size - pos.size)) / draws.size
        mix = 0.5 + 0.5 * stats.chi2.cdf(pos, 1)
        assert np.max(np.abs(emp - mix)) < 0.02


def test_twin_pair_identity_covariance_weights():
    draws, info = null_statistics(
        np.eye(3), CONE3, BOTH3, m=100_000, seed=7, details=True
    )
    freq = [np.mean(info["nu"] == k) for k in (0, 1, 2)]
    assert freq[0] == pytest.approx(1.0 / 6.0, abs=0.01)
    assert freq[1] == pytest.approx(0.5, abs=0.01)
    assert freq[2] == pytest.approx(1.0 / 3.0, abs=0.01)
    # rank-jump regions agree with the atom of the statistic
    assert np.array_equal(info["nu"] == 0, draws == 0.0)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_region_frequencies_match_closed_form(beta):
    # exchangeable covariance whose tight rows have correlation beta; the
    # laws equal the closed forms of the twin-pair and tied-nuisance nests
    s12 = 3.0 * min(beta, 1.0 - 1e-6) - 1.0
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, s12], [0.0, s12, 2.0]])
    law_pair = LimitLaw.closed_form(CONE3, BOTH3, sigma)
    law_tied = LimitLaw.closed_form(CONE3, TIED3, sigma)
    g0 = math.acos(min(beta, 1.0 - 1e-6)) / (2.0 * math.pi)
    assert law_pair.weights == pytest.approx((g0, 0.5, 0.5 - g0), abs=1e-12)
    assert law_tied.weights == pytest.approx(
        (0.25 + g0, 0.5, 0.25 - g0), abs=1e-12
    )
    for cone0, law in ((BOTH3, law_pair), (TIED3, law_tied)):
        _, info = null_statistics(
            sigma, CONE3, cone0, m=100_000, seed=7, details=True
        )
        for k, w in enumerate(law.weights):
            assert np.mean(info["nu"] == k) == pytest.approx(w, abs=0.01)


def test_union_null_takes_best_branch():
    # union of the two single-tie planes inside the twin cone
    plane1 = Cone(
        3,
        ineq=np.array([[1.0, 0.0, -1.0]]),
        eq=np.array([[1.0, -1.0, 0.0]]),
    )
    plane2 = Cone(
        3,
        ineq=np.array([[1.0, -1.0, 0.0]]),
        eq=np.array([[1.0, 0.0, -1.0]]),
    )
    sigma = np.eye(3)
    draws_union = null_statistics(
        sigma, CONE3, (plane1, plane2), m=4000, seed=21
    )
    d1 = null_statistics(sigma, CONE3, plane1, m=4000, seed=21)
    d2 = null_statistics(sigma, CONE3, plane2, m=4000, seed=21)
    assert np.allclose(draws_union, np.minimum(d1, d2))


# --- mixture laws ----------------------------------------------------------


def test_half_half_laws():
    # one tight row: the single tie, and a tie beside a free nuisance nest
    single = local_cones(TREE3, Hypothesis.parse("(0,1)=(0)"), [1.5, 1.5])
    free = local_cones(TREE4, Hypothesis.parse("(0,1)=(0)"), [1.8, 1.8, 2.6])
    for cone, nulls in (single, free):
        law = LimitLaw.closed_form(cone, nulls)        # needs no sigma
        assert law.components == ((0.5, 0), (0.5, 1))
        assert law.kind == "exact"
    law = LimitLaw.closed_form(CONE3, (TIED3, TIED3B))
    assert law.components == ((0.5, 0), (0.5, 1))
    assert law.kind == "bound"


def test_twin_pair_weights_at_beta_one():
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0 - 1e-9],
                      [0.0, 1.0 - 1e-9, 1.0]])
    law = LimitLaw.closed_form(CONE3, BOTH3, sigma)
    assert law.weights[0] == pytest.approx(0.0, abs=1e-4)
    assert law.weights[1] == 0.5
    assert law.weights[2] == pytest.approx(0.5, abs=1e-4)


def test_twin_pair_weights_at_beta_zero():
    # acos(0)/(2 pi) = 1/4; confirmed against the projection simulation
    # in test_region_frequencies_match_closed_form
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    law = LimitLaw.closed_form(CONE3, BOTH3, sigma)
    assert law.weights == pytest.approx((0.25, 0.5, 0.25))


def test_tied_nuisance_beta_zero_collapses_to_half_half():
    # at beta = 0 the tied law loses its chi2(2) part entirely and the
    # nuisance costs nothing; the projection simulation confirms
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    law = LimitLaw.closed_form(CONE3, TIED3, sigma)
    assert law.weights == pytest.approx((0.5, 0.5, 0.0))


def test_tied_nuisance_formula():
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.5, 2.0]])
    beta = (1.0 + 0.5) / 3.0
    law = LimitLaw.closed_form(CONE3, TIED3, sigma)
    g0 = 0.25 + math.acos(beta) / (2.0 * math.pi)
    assert law.weights == pytest.approx((g0, 0.5, 0.5 - g0))


def test_tied_nuisance_rejects_negative_beta():
    # rho < 0 has no closed form here: no law, so callers simulate; the
    # subspace law of the same rows has one
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.6], [0.0, -1.6, 2.0]])
    assert LimitLaw.closed_form(CONE3, TIED3, sigma) is None
    assert LimitLaw.closed_form(CONE3, BOTH3, sigma) is not None


def test_mixture_law_validates_inputs():
    with pytest.raises(DomainError):
        LimitLaw.closed_form(CONE3, "nonsense")            # not cones
    with pytest.raises(DomainError):
        LimitLaw.closed_form(CONE3, BOTH3, np.eye(2))      # wants 3x3
    with pytest.raises(DomainError):
        LimitLaw.closed_form(CONE3, BOTH3)                 # two rows read sigma
    with pytest.raises(SingularSigmaError):
        LimitLaw.closed_form(CONE3, TIED3, np.diag([1.0, 1.0, -1.0]))
    # nulls that are not the full cone's rows turned into equalities
    other = Cone(3, eq=np.array([[0.0, 1.0, -1.0]]))
    assert LimitLaw.closed_form(CONE3, other, np.eye(3)) is None
    assert LimitLaw.closed_form(CONE3, (BOTH3, TIED3), np.eye(3)) is None


def test_tied_nuisance_law_reads_rho_not_beta():
    # tight rows with variances 1:3 and correlation 1/2: the law reads
    # rho; the former beta = V12/V11 law misses the simulated regions
    c = math.sqrt(3.0) * 0.5
    sigma = _twin_sigma(np.array([[1.0, c], [c, 3.0]]))
    g0 = 0.25 + math.acos(0.5) / (2.0 * math.pi)
    g0_beta = 0.25 + math.acos(c) / (2.0 * math.pi)
    for null in (TIED3, TIED3B):
        law = LimitLaw.closed_form(CONE3, null, sigma)
        assert law.weights == pytest.approx((g0, 0.5, 0.5 - g0), abs=1e-12)
        _, info = null_statistics(
            sigma, CONE3, null, m=100_000, seed=9, details=True
        )
        freq = [np.mean(info["nu"] == j) for j in range(3)]
        assert freq == pytest.approx(law.weights, abs=0.01)
        assert abs(freq[0] - g0_beta) > 0.05


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_union_half_half_bounds_simulated_survival(rho):
    law = LimitLaw.closed_form(CONE3, (TIED3, TIED3B))
    for ratio in (1.0, 3.0):
        c = math.sqrt(ratio) * rho
        sigma = _twin_sigma(np.array([[1.0, c], [c, ratio]]))
        draws = null_statistics(
            sigma, CONE3, (TIED3, TIED3B), m=50_000, seed=13
        )
        for stat in (0.5, 2.0, 5.0):
            assert np.mean(draws >= stat) <= law.sf(stat)


def test_subspace_law_of_three_ties_matches_regions():
    # three tied nests: the weights equal the orthant sums over the face
    # certificates of the projection, and the simulated rank jumps
    tree = HacTree([[1, 2], [3, 4], [5, 6]])
    hyp = Hypothesis.parse("(0,1)=(0) & (0,2)=(0) & (0,3)=(0)")
    cone, nulls = local_cones(tree, hyp, [1.5] * 4)
    rng = np.random.default_rng(0)
    for t in range(3):
        w = rng.standard_normal((4, 4))
        sigma = w @ w.T + 0.3 * np.eye(4)
        law = LimitLaw.closed_form(cone, nulls, sigma)
        assert law.dfs == (0, 1, 2, 3)
        ops = lrt._face_ops(cone, sigma)
        oracle = np.zeros(4)
        for f, face in enumerate(ops.faces):
            cert = ops.cert[f]
            oracle[3 - len(face)] += _orthant(cert @ sigma @ cert.T)
        assert law.weights == pytest.approx(oracle, abs=1e-12)
        _, info = null_statistics(
            sigma, cone, nulls, m=100_000, seed=t, details=True
        )
        freq = [np.mean(info["nu"] == j) for j in range(4)]
        assert freq == pytest.approx(law.weights, abs=0.01)


def test_mixture_component_validation():
    with pytest.raises(DomainError):
        LimitLaw("exact", CONE2, (LINE2,), components=((0.7, 0), (0.7, 1)))
    with pytest.raises(DomainError):
        LimitLaw("exact", CONE2, (LINE2,), components=((-0.1, 0), (1.1, 1)))


# --- mixture p-values ------------------------------------------------------


def test_mixture_pvalue_half_half_anchor():
    law = LimitLaw.closed_form(CONE2, LINE2)
    assert law.sf(2.705543) == pytest.approx(0.05, abs=1e-6)


def test_mixture_pvalue_twin_pair_anchor():
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0 - 1e-9],
                      [0.0, 1.0 - 1e-9, 1.0]])
    law = LimitLaw.closed_form(CONE3, BOTH3, sigma)
    p = law.sf(5.991465)
    expect = 0.5 * stats.chi2.sf(5.991465, 1) + 0.5 * 0.05
    assert p == pytest.approx(expect, abs=1e-4)
    assert p == pytest.approx(0.0322, abs=1e-3)


def test_mixture_pvalue_zero_is_one():
    for law in (LimitLaw.closed_form(CONE2, LINE2),
                LimitLaw.closed_form(CONE3, (TIED3, TIED3B))):
        assert law.sf(0.0) == 1.0
        # P(L >= 5e-9) leaves out the atom: 1 - w0, less a chi2(1) sliver
        p = law.sf(5e-9)
        assert 1.0 - law.weights[0] - 1e-4 < p < 1.0 - law.weights[0]


def test_mixture_pvalue_strictly_decreasing():
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.5, 2.0]])
    law = LimitLaw.closed_form(CONE3, BOTH3, sigma)
    grid = np.linspace(1e-6, 12.0, 200)
    vals = [law.sf(x) for x in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # continuity toward the origin: survival tends to 1 - gamma0
    # (the chi2(1) cdf rises like sqrt(x), hence the loose tolerance)
    assert vals[0] == pytest.approx(1.0 - law.weights[0], abs=1e-3)


def test_mixture_pvalue_rejects_nan_statistic():
    law = LimitLaw.closed_form(CONE2, LINE2)
    with pytest.raises(DomainError, match="nan"):
        law.sf(float("nan"))
    assert law.sf(math.inf) == 0.0


def test_mixture_pvalue_rejects_negative():
    with pytest.raises(DomainError):
        LimitLaw.closed_form(CONE2, LINE2).sf(-0.1)


# --- conditional test ------------------------------------------------------


def test_conditional_interior_full_fit():
    full = _fit([1.5, 2.0], -100.0)
    null = _fit([1.7, 1.7], -102.5, branch=((1,),))
    res = conditional_test(_pair(full, null, TREE3), alpha=0.05)
    assert res.nu == 1
    assert res.statistic == pytest.approx(5.0)
    assert res.p_value == pytest.approx(stats.chi2.sf(5.0, 1))
    assert res.reject
    assert res.effective_size is None


def test_conditional_never_rejects_on_the_null_set():
    full = _fit([1.7, 1.7], -100.0)
    null = _fit([1.7, 1.7], -100.0, branch=((1,),))
    res = conditional_test(_pair(full, null, TREE3))
    assert res.nu == 0
    assert res.p_value == 1.0
    assert not res.reject


def test_conditional_partial_activity_counts_free_atoms():
    # twin tree with both atoms constrained but only one active
    full = _fit([1.6, 1.6, 2.4], -100.0)
    null = _fit([1.8, 1.8, 1.8], -101.0, branch=((1,), (2,)))
    res = conditional_test(_pair(full, null, TREE4, "(0,1)=(0) & (0,2)=(0)"))
    assert res.nu == 1


def test_conditional_counts_every_positive_gap_as_free():
    # only an exact zero gap is tight: a gap of 5e-6 counts toward nu
    full = _fit([1.7, 1.7 + 5e-6, 2.4], -100.0)
    null = _fit([1.8, 1.8, 1.8], -101.0, branch=((1,), (2,)))
    res = conditional_test(_pair(full, null, TREE4, "(0,1)=(0) & (0,2)=(0)"))
    assert res.nu == 2
    assert "ambiguous" not in res.to_dict()


def test_conditional_exact_variant_inflates_alpha():
    full = _fit([1.5, 2.0], -100.0)
    null = _fit([1.7, 1.7], -101.6, branch=((1,),))
    pair = _pair(full, null, TREE3)
    res = conditional_test(pair, alpha=0.05, gamma0=0.5, exact=True)
    assert res.alpha_used == pytest.approx(0.10)
    assert res.effective_size == pytest.approx(0.05)
    plain = conditional_test(pair, alpha=0.05, gamma0=0.5)
    assert plain.alpha_used == 0.05
    assert plain.effective_size == pytest.approx(0.025)
    with pytest.raises(DomainError):
        conditional_test(pair, exact=True)


def test_conditional_requires_constrained_branch():
    full = _fit([1.5, 2.0], -100.0)
    with pytest.raises(DomainError):
        conditional_test(_pair(full, _fit([1.7, 1.7], -101.0), TREE3))


def test_conditional_reads_the_pair_statistic():
    full = _fit([1.5, 2.0], -100.0)
    null = _fit([1.7, 1.7], -102.5, branch=((1,),))
    pair = replace(_pair(full, null, TREE3), statistic=3.0)
    res = conditional_test(pair)
    assert res.statistic == 3.0
    assert res.p_value == stats.chi2.sf(3.0, 1)


# --- hybrid p-value --------------------------------------------------------

HYP41 = Hypothesis.parse("(0,1)=(0)")
SIG3 = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.5, 2.0]])


def _given_sigma(monkeypatch, sigma):
    """Make run_fitted's covariance draw return sigma."""
    monkeypatch.setattr(lrt, "sigma_hat",
                        lambda *args, **kwargs: SimpleNamespace(sigma=sigma))


def test_hybrid_zero_gap_equals_tied_geometry_mc(monkeypatch):
    stat = 1.7
    full = _fit([1.9, 2.1, 2.2], -100.0)
    null = _fit([2.0, 2.0, 2.0], -100.0 - stat / 2, branch=((1,),))
    _given_sigma(monkeypatch, SIG3)
    res = run_fitted(_pair(full, null, TREE4, n=2500), "hybrid", 0, 31,
                     m=5000)
    cone, nulls = local_cones(
        TREE4, HYP41, null.theta, assume_tight=(((), (2,)),)
    )
    direct = LimitLaw.simulated(cone, nulls, SIG3, h=np.zeros(3), m=5000,
                                seed=31).sf(stat)
    assert res.p_value == direct
    assert res.law.kind == "simulated" and res.law.h.tolist() == [0.0] * 3
    assert np.array_equal(res.cones[0].ineq, cone.ineq)


def test_hybrid_large_gap_matches_free_nuisance_mixture(monkeypatch):
    stat = 1.7
    full = _fit([1.9, 2.1, 3.0], -100.0)
    # n = 2500 with a unit fitted gap puts the mean at 50
    null = _fit([2.0, 2.0, 3.0], -100.0 - stat / 2, branch=((1,),))
    _given_sigma(monkeypatch, SIG3)
    res = run_fitted(_pair(full, null, TREE4, n=2500), "hybrid", 0, 31,
                     m=100_000)
    expect = LimitLaw.closed_form(
        *local_cones(TREE4, HYP41, null.theta)).sf(stat)
    assert res.p_value == pytest.approx(expect, abs=0.01)


def test_hybrid_validates_inputs(monkeypatch):
    full = _fit([1.9, 2.1, 2.6], -100.0)
    null = _fit([2.0, 2.0, 2.6], -100.4, branch=((1,),))
    pair = _pair(full, null, TREE4)
    _given_sigma(monkeypatch, np.eye(2))        # sigma of the wrong size
    with pytest.raises(DomainError):
        run_fitted(pair, "hybrid", 0, 1)
    _given_sigma(monkeypatch, SIG3)
    with pytest.raises(DomainError):
        run_fitted(pair, "hybrid", 0, 1, m=500)


# --- power curves ----------------------------------------------------------


def test_power_theta_scales():
    sigma = np.eye(2)
    pc = power_curve("gumbel", 1.0 / 3.0, [0.0], sigma=sigma)
    assert pc.theta_scale == pytest.approx(2.25, abs=1e-12)
    pc = power_curve("clayton", 1.0 / 3.0, [0.1], sigma=sigma)
    assert pc.theta_scale * 0.1 == pytest.approx(0.45, abs=1e-12)


def test_power_curve_family_instance_matches_its_name():
    from haclrt.generators import Gumbel

    by_name = power_curve("gumbel", 0.4, [0.1], sigma=np.eye(2))
    by_obj = power_curve(Gumbel(), 0.4, [0.1], sigma=np.eye(2))
    assert by_obj.theta_scale == by_name.theta_scale == 1.0 / 0.6**2
    assert by_obj.family == "gumbel"
    assert json.dumps(by_obj.to_dict()) == json.dumps(by_name.to_dict())


def test_power_numeric_scale_matches_tau_slope():
    # the theta-scale inverts a central difference of the tau map, and it is
    # the family's dtheta_dtau; at tau = 0.999 that is 4,000,000.68, which
    # the former numeric slope of the knot-grid inverse read as 4,000,400.7
    from haclrt.generators import get_family, tau_inv

    fam = get_family("frank")
    tau0 = 0.4
    theta0 = tau_inv(fam, tau0)
    step = 1e-6 * theta0
    slope = (fam.tau(theta0 + step) - fam.tau(theta0 - step)) / (2 * step)
    pc = power_curve("frank", tau0, [0.0],
                     sigma=np.eye(2))
    assert pc.theta_scale == pytest.approx(1.0 / slope, rel=1e-4)
    pc = power_curve("frank", 0.999, [0.0], sigma=np.eye(2))
    assert pc.theta_scale == fam.dtheta_dtau(0.999)
    assert pc.theta_scale == pytest.approx(4_000_000.68, abs=0.01)


def test_power_size_point_and_monotonicity():
    sigma = np.array([[2.0, 0.8], [0.8, 1.5]])
    pc = power_curve("gumbel", 1.0 / 3.0, [0.0, 0.05, 0.1, 0.2, 0.4],
                     sigma=sigma, seed=5)
    assert pc.power[0] == pytest.approx(0.05, abs=0.01)
    assert all(a <= b + 1e-12 for a, b in zip(pc.power, pc.power[1:]))
    assert pc.c_alpha == pytest.approx(stats.chi2.ppf(0.90, 1))


def test_power_closed_form_matches_simulated_law():
    # one tie: L = max(W, 0)^2 with W ~ N(mu, 1), so the power is
    # 1 - Phi(sqrt(c_alpha) - mu); the simulated law agrees within its
    # standard error
    sigma = np.array([[2.0, 0.8], [0.8, 1.5]])
    pc = power_curve("gumbel", 1.0 / 3.0, [0.05, 0.2], sigma=sigma)
    sd = math.sqrt(sigma[0, 0] + sigma[1, 1] - 2 * sigma[0, 1])
    m = 200_000
    for h, power in zip(pc.h_values, pc.power):
        mu = 2.25 * h / sd
        assert power == pytest.approx(
            stats.norm.sf(math.sqrt(pc.c_alpha) - mu), rel=1e-12)
        draws = null_statistics(sigma, CONE2, LINE2,
                                h=np.array([0.0, 2.25 * h]), m=m, seed=8)
        se = math.sqrt(power * (1.0 - power) / m)
        assert abs(np.mean(draws > pc.c_alpha) - power) < 4.0 * se
    assert "m" not in pc.to_dict()


def test_power_atom_formula():
    sigma = np.array([[2.0, 0.8], [0.8, 1.5]])
    pc = power_curve("gumbel", 1.0 / 3.0, [0.0, 0.2], sigma=sigma)
    assert pc.atom[0] == pytest.approx(0.5)
    var = sigma[0, 0] + sigma[1, 1] - 2 * sigma[0, 1]
    shift = 2.25 * 0.2
    assert pc.atom[1] == pytest.approx(stats.norm.cdf(-shift / math.sqrt(var)))
    # the atom shrinks as the alternative moves away
    assert pc.atom[1] < pc.atom[0]


def test_power_estimates_sigma_when_missing():
    pc = power_curve("clayton", 0.5, [0.0, 0.1], n_sigma=20_000,
                     seed=17)
    assert len(pc.power) == 2
    assert 0.0 <= pc.power[0] <= 0.12


def test_power_curve_shift_invariance_in_e():
    # moving both coordinates by the same e-offset changes nothing
    sigma = np.array([[1.5, 0.3], [0.3, 1.0]])
    a = power_curve("gumbel", 0.4, [0.1, 0.3], sigma=sigma,
                    seed=3, e=(0.0, 1.0))
    b = power_curve("gumbel", 0.4, [0.1, 0.3], sigma=sigma,
                    seed=3, e=(-0.5, 0.5))
    assert a.power == pytest.approx(b.power, abs=1e-12)
    assert a.atom == pytest.approx(b.atom, abs=1e-12)


def test_power_validates_inputs():
    with pytest.raises(DomainError):
        power_curve("gumbel", 1.0 / 3.0, [0.7], sigma=np.eye(2))  # tau+h >= 1
    with pytest.raises(DomainError):
        power_curve("gumbel", 0.4, [0.1], sigma=np.eye(2), e=(0.0, 2.0))
    with pytest.raises(DomainError):
        power_curve("gumbel", 1.2, [0.1], sigma=np.eye(2))
    with pytest.raises(DomainError):
        power_curve("gumbel", 0.4, [0.1], sigma=np.eye(2), alpha=0.6)


# --- laws read off the local cones ----------------------------------------


def test_detect_one_tie_structure():
    cone, nulls = local_cones(TREE3, Hypothesis.parse("(0,1)=(0)"), [1.5, 1.5])
    assert LimitLaw.closed_form(cone, nulls).components == ((0.5, 0), (0.5, 1))


def test_detect_twin_structures():
    both = Hypothesis.parse("(0,1)=(0) & (0,2)=(0)")
    either = Hypothesis.parse("(0,1)=(0) | (0,2)=(0)")
    cone, nulls = local_cones(TREE4, both, [1.8, 1.8, 1.8])
    with pytest.raises(DomainError):
        LimitLaw.closed_form(cone, nulls)              # two tight rows read sigma
    assert LimitLaw.closed_form(cone, nulls, SIG3).dfs == (0, 1, 2)
    # both branches hold: the conservative union bound
    cone, nulls = local_cones(TREE4, either, [1.8, 1.8, 1.8])
    assert len(nulls) == 2
    assert LimitLaw.closed_form(cone, nulls).kind == "bound"
    # one branch holds: a single cone, with its exact law
    cone, nulls = local_cones(TREE4, either, [1.8, 1.8, 2.6])
    law = LimitLaw.closed_form(cone, nulls)
    assert law.components == ((0.5, 0), (0.5, 1)) and law.kind == "exact"


def test_detect_nuisance_needs_theta():
    hyp = Hypothesis.parse("(0,1)=(0)")
    free = LimitLaw.closed_form(*local_cones(TREE4, hyp, [1.8, 1.8, 2.6]))
    assert free.components == ((0.5, 0), (0.5, 1))
    cone, nulls = local_cones(TREE4, hyp, [1.8, 1.8, 1.8])
    with pytest.raises(DomainError):
        LimitLaw.closed_form(cone, nulls)
    rho = (1.0 + 0.5) / 3.0               # SIG3 is exchangeable
    g0 = 0.25 + math.acos(rho) / (2.0 * math.pi)
    assert LimitLaw.closed_form(cone, nulls, SIG3).weights == pytest.approx(
        (g0, 0.5, 0.5 - g0), abs=1e-12
    )


def test_detect_rejects_unrecognized_shapes():
    both = Hypothesis.parse("(0,1)=(0) & (0,2)=(0)")
    # nests of unequal size share the twin geometry, so they get its law
    uneven = HacTree([[1, 2], [3, 4, 5]])
    assert LimitLaw.closed_form(*local_cones(uneven, both, [1.5] * 3), SIG3)
    # one tie among three tight rows, and four tied nests: no closed form
    wide = HacTree([[1, 2], [3, 4], [5, 6]])
    one = local_cones(wide, Hypothesis.parse("(0,1)=(0)"), [1.5] * 4)
    assert LimitLaw.closed_form(*one, np.eye(4)) is None
    four = HacTree([[1, 2], [3, 4], [5, 6], [7, 8]])
    all_four = Hypothesis.parse(
        "(0,1)=(0) & (0,2)=(0) & (0,3)=(0) & (0,4)=(0)"
    )
    assert LimitLaw.closed_form(*local_cones(four, all_four, [1.5] * 5),
                       np.eye(5)) is None
    # a union of two-tie branches
    pairs = Hypothesis.parse("(0,1)=(0) & (0,2)=(0) | (0,2)=(0) & (0,3)=(0)")
    assert LimitLaw.closed_form(*local_cones(wide, pairs, [1.5] * 4),
                       np.eye(4)) is None


# --- the one boundary rule -------------------------------------------------


def _fake_mle(full, null):
    """An mle stand-in handing fit_pair two given fits."""
    def fake(rows, tree, family, hypothesis=None, config=None, start=None,
             *, _taus=None):
        return full if hypothesis is None else null
    return fake


def test_replay_record_on_the_null_branch_reads_zero():
    # the full fit ties the nest exactly, while the null fit stopped
    # short by 2.5e-7 in loglik: L_n is the atom, in both records
    records = run_replicate(ScenarioSpec("I", seed=815, r=1), "c",
                            "clayton", "clayton", 128, 1)
    assert [r["method"] for r in records] == ["mixture", "conditional"]
    for rec in records:
        assert rec["statistic"] == 0.0
        assert rec["p_value"] == 1.0


def test_union_full_fit_on_the_other_branch_reads_zero(monkeypatch):
    # the null fit picked (0,1); the full fit ties (0,2) exactly
    full = _fit([1.5, 2.0, 1.5], -100.0)
    null = _fit([1.6, 1.6, 1.9], -100.0 - 1e-7, branch=((1,),))
    monkeypatch.setattr(lrt, "mle", _fake_mle(full, null))
    rows = np.full((50, 4), 0.5)
    union = lrt.fit_pair(rows, TREE4, "gumbel",
                         Hypothesis.parse("(0,1)=(0) | (0,2)=(0)"))
    assert union.statistic == 0.0
    # off the null set, the statistic is the clamped 2 delta-l
    one = lrt.fit_pair(rows, TREE4, "gumbel", HYP41)
    assert one.statistic == lrt_statistic(null, full) > 0.0


def test_tiny_statistic_off_the_null_set_is_no_atom(monkeypatch):
    full = _fit([1.5, 2.0], -100.0)
    null = _fit([1.7, 1.7], -100.0 - 2.5e-9, branch=((1,),))
    monkeypatch.setattr(lrt, "mle", _fake_mle(full, null))
    pair = lrt.fit_pair(np.full((50, 3), 0.5), TREE3, "gumbel", HYP41)
    assert pair.statistic == pytest.approx(5e-9, rel=1e-4)
    res = run_fitted(pair, "mixture", 0, 1)
    # P(L >= 5e-9) = 1/2 P(chi2(1) >= 5e-9): about 1 - w0, not 1
    assert res.p_value == pytest.approx(0.5, abs=1e-4)
    assert res.p_value < 0.5
    cond = run_fitted(pair, "conditional", 0, 1).conditional
    assert cond.nu == 1 and cond.p_value < 1.0


@pytest.mark.parametrize("family", ["gumbel", "clayton"])
def test_every_boundary_decision_reads_tight_edges(family):
    names = {(par, ch): f"{node_name(ch)}={node_name(par)}"
             for par, ch in TREE4.constraint_pairs()}
    full_ties = 0
    for i, (tau1, tau2) in enumerate([(0.3, 0.3), (0.3, 0.5)]):
        base = tau_inv(family, 0.3)
        theta = [base, tau_inv(family, tau1), tau_inv(family, tau2)]
        rows = sample(TREE4, theta, family, 150, seed=70 + i).values
        for text in ("(0,1)=(0)", "(0,1)=(0) & (0,2)=(0)"):
            hyp = Hypothesis.parse(text)
            pair = lrt.fit_pair(rows, TREE4, family, hyp, config=CFG)
            full, null = pair.fit_full, pair.fit_null
            for fit in (full, null):
                tight = tight_edges(TREE4, fit.theta)
                # active: the tight edges between the fit's groups
                merged = {(a[:-1], a) for a in fit.branch or ()}
                assert set(fit.active) == {names[e] for e in tight
                                           if e not in merged}
            tight = tight_edges(TREE4, null.theta)
            cone, _ = local_cones(TREE4, hyp, null.theta)
            rows_of = {tuple(r) for r in cone.ineq}
            assert rows_of == {tuple(_pair_row(e)) for e in tight}
            dirs = fd_scheme(TREE4, family, null.theta).directions
            for (par, ch) in tight:
                assert dirs[TREE4.param_pos[par]] == -1
                assert dirs[TREE4.param_pos[ch]] == 1
            free = set(TREE4.internal_paths) - {
                p for e in tight for p in e}
            assert all(dirs[TREE4.param_pos[p]] == 0 for p in free)
            full_tight = tight_edges(TREE4, full.theta)
            full_ties += len(full_tight)
            nu = conditional_test(pair).nu
            assert nu == sum((a[:-1], a) not in full_tight
                             for a in null.branch)
            if all((a[:-1], a) in full_tight for a in null.branch):
                assert pair.statistic == 0.0
    assert full_ties > 0            # the grid reaches the boundary


def test_fit_pair_atom_is_the_holding_rule():
    # tied and shifted twins under the three kinds of hypothesis: L_n is
    # exactly 0 where a branch holds at the full fit, and 2 delta-l
    # (clamped) everywhere else
    held_any = held_none = 0
    for i, theta in enumerate([(1.5, 1.5, 1.5), (1.5, 1.5, 1.8)]):
        for seed in range(3):
            rows = sample(TREE4, theta, "gumbel", 120,
                          seed=90 + 3 * i + seed).values
            for text in ("(0,1)=(0)", "(0,1)=(0) & (0,2)=(0)",
                         "(0,1)=(0) | (0,2)=(0)"):
                pair = lrt.fit_pair(rows, TREE4, "gumbel",
                                    Hypothesis.parse(text), config=CFG)
                held = holding_branches(TREE4, pair.hypothesis,
                                        pair.fit_full.theta)
                if held:
                    held_any += 1
                    assert pair.statistic == 0.0
                else:
                    held_none += 1
                    assert pair.statistic == lrt_statistic(
                        pair.fit_null, pair.fit_full)
    assert held_any and held_none       # the grid meets both sides


def _pair_row(edge):
    row = np.zeros(TREE4.p)
    row[TREE4.param_pos[edge[0]]] = 1.0
    row[TREE4.param_pos[edge[1]]] = -1.0
    return row


# --- end-to-end ------------------------------------------------------------

CFG = FitConfig(n_perturbed=2, seed=5)


def _data3(n=400, theta=(1.4, 2.2), seed=60):
    return sample(TREE3, np.asarray(theta), "gumbel", n, seed=seed).values


def test_run_test_mixture_one_tie():
    res = run_test(_data3(), TREE3, "gumbel", "(0,1)=(0)",
                   method="mixture", n_sigma=20_000, seed=2, config=CFG)
    assert res.method == "mixture"
    assert res.law.components == ((0.5, 0), (0.5, 1))
    assert 0.0 <= res.p_value <= 1.0
    assert res.statistic >= 0.0
    assert res.sigma is None             # half/half law needs no sigma
    payload = json.loads(json.dumps(res.to_dict()))
    for key in ("statistic", "p_value", "method", "law", "seeds",
                "fits", "sigma_meta"):
        assert key in payload
    assert payload["law"]["weights"] == [0.5, 0.5]
    assert payload["fits"]["null"]["branch"] == ["(0,1)"]


def test_run_test_mc_matches_geometry():
    res = run_test(_data3(n=300, theta=(1.8, 1.8), seed=61), TREE3,
                   "gumbel", "(0,1)=(0)", method="mc", m=2000,
                   n_sigma=20_000, seed=4, config=CFG)
    assert res.method == "mc"
    assert res.m == 2000
    assert res.cones is not None
    assert res.sigma is not None
    assert 0.0 <= res.p_value <= 1.0


def test_run_test_mixture_reads_any_tree():
    # one nest tied beside two free ones: one tight row, the half/half law
    tree = HacTree([[1, 2], [3, 4], [5, 6]])
    theta = np.array([1.3, 2.0, 2.2, 2.4])
    data = sample(tree, theta, "gumbel", 300, seed=62).values
    res = run_test(data, tree, "gumbel", "(0,1)=(0)", method="mixture",
                   seed=6, config=CFG)
    assert res.method == "mixture"
    assert res.law.components == ((0.5, 0), (0.5, 1))
    assert res.sigma is None
    assert res.cones[0].n_ineq == 1


def test_run_test_mixture_falls_back_with_warning():
    # four tied nests: no closed form past three tight rows
    tree = HacTree([[1, 2], [3, 4], [5, 6], [7, 8]])
    theta = np.array([1.3, 2.0, 2.2, 2.4, 2.6])
    data = sample(tree, theta, "gumbel", 300, seed=62).values
    with pytest.warns(UserWarning, match="falling back"):
        res = run_test(data, tree, "gumbel",
                       "(0,1)=(0) & (0,2)=(0) & (0,3)=(0) & (0,4)=(0)",
                       method="mixture", m=1500, n_sigma=20_000,
                       seed=6, config=CFG)
    assert res.method == "mc"
    assert res.law.kind == "simulated"
    assert res.sigma is not None
    assert res.warning is not None


def test_mixture_and_mc_differ_only_in_the_closed_form():
    # the four-tied-nest geometry above has no closed form: mixture falls
    # back to the very law that mc simulates, bit for bit
    tree = HacTree([[1, 2], [3, 4], [5, 6], [7, 8]])
    theta = np.array([1.3, 2.0, 2.2, 2.4, 2.6])
    data = sample(tree, theta, "gumbel", 300, seed=62).values
    hyp = Hypothesis.parse("(0,1)=(0) & (0,2)=(0) & (0,3)=(0) & (0,4)=(0)")
    pair = lrt.fit_pair(data, tree, "gumbel", hyp, config=CFG)
    s, t = np.random.SeedSequence(6).spawn(2)
    results = {}
    for method in ("mixture", "mc", "conditional", "hybrid"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results[method] = run_fitted(pair, method, s, t, m=1500,
                                         n_sigma=20_000)
        json.dumps(results[method].to_dict(), allow_nan=False)
    assert results["mixture"].p_value == results["mc"].p_value
    assert results["mixture"].law.kind == "simulated"
    assert results["mixture"].m == results["mc"].m == 1500


@pytest.mark.parametrize("text, branch, kind", [
    ("(0,1)=(0) & (0,2)=(0)", ((1,), (2,)), "exact"),     # the twin pair
    ("(0,1)=(0) | (0,2)=(0)", ((1,),), "bound"),          # both hold
])
def test_mixture_law_kind_of_each_twin_geometry(monkeypatch, text, branch,
                                                kind):
    full = _fit([1.8, 2.0, 2.2], -100.0)
    null = _fit([1.8, 1.8, 1.8], -101.0, branch=branch)
    _given_sigma(monkeypatch, SIG3)
    res = run_fitted(_pair(full, null, TREE4, text), "mixture", 0, 1)
    assert res.law.kind == kind
    assert res.conservative == (kind == "bound")
    assert res.m is None
    assert res.p_value == res.law.sf(res.statistic)


@pytest.mark.parametrize("method", ["mixture", "mc", "conditional", "hybrid"])
def test_alpha_and_m_are_checked_before_any_fit(monkeypatch, method):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the choices were checked")

    monkeypatch.setattr(lrt, "mle", no_fit)
    monkeypatch.setattr(lrt, "sigma_hat", no_fit)
    for bad in ({"alpha": 5.0}, {"alpha": 0.0}, {"m": 10}, {"m": 2000.0},
                {"m": 1000.7}):
        with pytest.raises(DomainError):
            run_test(np.full((50, 3), 0.5), TREE3, "gumbel", "(0,1)=(0)",
                     method=method, **bad)


@pytest.mark.parametrize("method", ["mixture", "mc", "conditional", "hybrid"])
def test_negative_seed_is_refused_before_any_fit(monkeypatch, method):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the seed was checked")

    monkeypatch.setattr(lrt, "mle", no_fit)
    monkeypatch.setattr(lrt, "sigma_hat", no_fit)
    with pytest.raises(DomainError, match="seed"):
        run_test(np.full((50, 3), 0.5), TREE3, "gumbel", "(0,1)=(0)",
                 method=method, seed=-1)


def test_null_statistics_refuses_a_negative_seed():
    with pytest.raises(DomainError, match="seed must be a nonnegative"):
        null_statistics(np.eye(2), CONE2, LINE2, m=10, seed=-1)


def test_power_curve_refuses_a_negative_seed():
    # checked whether or not the seed feeds a Monte Carlo sigma
    for sigma in (None, np.eye(2)):
        with pytest.raises(DomainError, match="seed must be a nonnegative"):
            power_curve("gumbel", 0.4, [0.1], sigma=sigma, n_sigma=100,
                        seed=-1)


def test_run_test_takes_numpy_integer_m_and_seed():
    data = _data3(n=200, seed=66)
    kwargs = dict(method="mc", sigma_source="observed", config=CFG)
    res = run_test(data, TREE3, "gumbel", "(0,1)=(0)",
                   m=np.int64(1000), seed=np.int64(4), **kwargs)
    ref = run_test(data, TREE3, "gumbel", "(0,1)=(0)", m=1000, seed=4,
                   **kwargs)
    assert res.m == 1000
    assert res.p_value == ref.p_value


def test_run_test_union_flagged_conservative():
    # both branches hold at the fitted null: the half/half bound
    theta = np.array([1.3, 1.3, 1.3])
    data = sample(TREE4, theta, "gumbel", 350, seed=63).values
    res = run_test(data, TREE4, "gumbel", "(0,1)=(0) | (0,2)=(0)",
                   method="mixture", seed=8, config=CFG)
    assert len(res.cones[1]) == 2
    assert res.conservative
    assert res.law.components == ((0.5, 0), (0.5, 1))
    assert res.sigma is None


def test_run_test_union_with_one_branch_holding_is_exact():
    theta = np.array([1.3, 1.3, 2.0])
    data = sample(TREE4, theta, "gumbel", 350, seed=63).values
    res = run_test(data, TREE4, "gumbel", "(0,1)=(0) | (0,2)=(0)",
                   method="mixture", seed=8, config=CFG)
    assert res.fit_null.branch == ((1,),)
    assert len(res.cones[1]) == 1
    assert not res.conservative
    assert res.law.components == ((0.5, 0), (0.5, 1))
    assert res.sigma is None


def test_run_test_conditional():
    res = run_test(_data3(n=300, seed=64), TREE3, "gumbel", "(0,1)=(0)",
                   method="conditional", seed=10, config=CFG)
    assert res.conditional is not None
    assert res.p_value == res.conditional.p_value
    assert res.conditional.nu in (0, 1)
    # gamma0 = 1/2 known here, so the effective size is alpha/2
    assert res.conditional.effective_size == pytest.approx(0.025)


def test_run_test_hybrid():
    theta = np.array([1.4, 1.4, 2.1])
    data = sample(TREE4, theta, "gumbel", 350, seed=65).values
    res = run_test(data, TREE4, "gumbel", "(0,1)=(0)",
                   method="hybrid", m=2000, n_sigma=20_000, seed=12,
                   config=CFG)
    assert res.method == "hybrid"
    assert 0.0 <= res.p_value <= 1.0
    assert res.m == 2000


def test_run_test_rejects_unknown_method():
    with pytest.raises(DomainError):
        run_test(_data3(n=50), TREE3, "gumbel", "(0,1)=(0)",
                 method="wald")
