"""Boundary likelihood-ratio tests on the nesting cone.

The test statistic L_n = 2{l(theta_full) - l(theta_null)} has a
nonstandard limit when the null pins parameters to the boundary of the
ordering cone.  The limit is L_inf = q(Z_null) - q(Z_full), where q is
the squared Sigma-Mahalanobis distance from a Gaussian Z to its
projection onto the local cone of the alternative (Z_full) and of the
null set (Z_null).  This module computes the projections exactly:
each draw takes the face of the cone whose KKT certificate (tight
multipliers >= 0, inactive slacks <= 0) holds, tested for all faces
at once, and the equality-constrained solution on that face.  A Cone's
rows are linearly independent, so some face is certified for every
draw; the certificate is the projection's only rule.  It
simulates the limit law, and reads the chi-bar-squared mixture law off
the local cones where its weights have closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .errors import (
    DomainError,
    NumericError,
    SingularSigmaError,
)
from .estimate import FitConfig, FitResult, _lazy_taus, mle
from .fisher import DELTA_TAU, SIGMA_DRAWS, FisherEstimate, sigma_hat
from .generators import get_family, tau_inv
from .tree import (Cone, HacTree, Hypothesis, holding_branches, local_cones,
                   tight_edges)

__all__ = [
    "ATOM_TOL",
    "MIN_NULL_DRAWS",
    "NULL_DRAWS",
    "Projection",
    "MixtureLaw",
    "ConditionalResult",
    "PowerCurve",
    "LrtResult",
    "FitPair",
    "project",
    "lrt_statistic",
    "null_statistics",
    "mc_null_pvalue",
    "mixture_law",
    "mixture_pvalue",
    "conditional_test",
    "hybrid_pvalue",
    "power_curve",
    "fit_pair",
    "run_fitted",
    "run_test",
]

# loglik slack, on the statistic's scale, before a full fit below the
# null fit counts as a failed fit rather than roundoff
ATOM_TOL = 1e-8

NULL_DRAWS = 5000       # draws of the simulated limit law per p-value
MIN_NULL_DRAWS = 1000   # fewest draws behind a Monte Carlo p-value


# ====================================================================
# cone projection in the Sigma metric
# ====================================================================

@dataclass(frozen=True)
class Projection:
    """Result of projecting z onto a cone in the Sigma^{-1} metric."""

    z: np.ndarray
    z_star: np.ndarray
    q: float
    face: tuple[int, ...]   # tight inequality indices at the optimum
    rank: int               # rank of the active constraint rows


def _chol_pd(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DomainError("sigma must be a square matrix")
    if not np.all(np.isfinite(sigma)):
        raise DomainError("sigma has non-finite entries")
    # cholesky reads only the lower triangle, while the face operators
    # use the whole matrix.  The slack admits the roundoff asymmetry of
    # sigma_hat's inv(): about 1e-9 relative at the condition number
    # 1e10 it accepts (fisher.EIG_RTOL), 1e-10 already at 1e8.
    if np.max(np.abs(sigma - sigma.T)) > 1e-6 * np.max(np.abs(sigma)):
        raise DomainError("sigma is not symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise SingularSigmaError(
            "sigma is not positive definite"
        ) from None


# floats in one chunk of certificate products in _batch_q; the rows per
# chunk shrink as k * 2^k grows, so memory stays bounded in m and k
_CERT_BUDGET = 2**20


@dataclass(frozen=True)
class _FaceOps:
    """Operators of every face of a cone, in Cone.faces() order."""

    faces: list             # tight inequality indices of each face
    q_forms: np.ndarray     # (n_faces, p, p): q = z' Q z on the face
    ranks: np.ndarray       # (n_faces,): rank of the face's active rows
    cert: np.ndarray        # (k, n_faces, p): KKT certificate rows


def _face_ops(cone: Cone, sigma: np.ndarray) -> _FaceOps:
    """Per-face operators for the equality-constrained quadratics.

    Minimizing (z-y)' Sigma^{-1} (z-y) subject to B y = 0, with B the
    equalities stacked on the face's tight inequalities, gives
    y = P z with P = I - Sigma Q, Q = B' M B, M = (B Sigma B')^+, and
    objective value z' Q z.  The multipliers are M B z.  The face is the
    projection's face exactly when every tight row's multiplier is
    >= 0 and every inactive row's slack ineq_j P z is <= 0, so each
    inequality i contributes one certificate row per face: -(M B)_i
    scaled by (B Sigma B')_ii, which puts the multiplier in z's units,
    when i is tight, and ineq_i P when it is not.  A face is certified
    for z when the largest certificate row times z is <= 0.  The cone's
    rows are linearly independent, so a face's active rows have full
    row rank: the equalities plus its tight inequalities.
    """
    p, k = cone.p, cone.n_ineq
    r = cone.eq.shape[0]
    eye = np.eye(p)
    faces = cone.faces()
    q_forms = np.zeros((len(faces), p, p))
    ranks = np.array([r + len(face) for face in faces], dtype=int)
    cert = np.empty((k, len(faces), p))
    for f, face in enumerate(faces):
        on = list(face)
        off = [i for i in range(k) if i not in face]
        a = np.vstack([cone.eq, cone.ineq[on]])
        if a.shape[0]:
            m = a @ sigma @ a.T
            m_pinv = np.linalg.pinv(m, hermitian=True)
            q_forms[f] = a.T @ m_pinv @ a
            cert[on, f] = -(m_pinv @ a)[r:] * np.diag(m)[r:, None]
        cert[off, f] = cone.ineq[off] @ (eye - sigma @ q_forms[f])
    return _FaceOps(faces, q_forms, ranks, cert)


def _certified_faces(z, tol, ops: _FaceOps):
    """Index of the first face whose certificate holds, per row of z.

    -1 marks a row that no face certifies.
    """
    k, n_faces, _ = ops.cert.shape
    s = (ops.cert.reshape(k * n_faces, -1) @ z.T).reshape(k, n_faces, -1)
    held = s.max(axis=0) <= tol
    return np.where(held.any(axis=0), np.argmax(held, axis=0), -1)


def _batch_q(z, ops: _FaceOps):
    """Projection q for a batch of points, by KKT certificate.

    Each row takes the first face whose certificate holds within the
    tolerance 1e-9 (1 + max|z|); faces() yields subsets before their
    supersets, so where several hold the coarser face wins.  The rows
    are taken in chunks of _CERT_BUDGET floats of certificate products.
    On a cone's independent rows some face holds for every finite row
    in exact arithmetic; a row that none certifies (a non-finite row,
    or roundoff under a Sigma conditioned far beyond the 1e10 that
    sigma_hat admits) raises NumericError.  q is then z' Q z on each
    row's face.
    Returns (q, rank of the active rows at that face, index of the face
    in ops.faces).
    """
    n = z.shape[0]
    k, n_faces, _ = ops.cert.shape
    tol = 1e-9 * (1.0 + np.max(np.abs(z), axis=1))
    face = np.zeros(n, dtype=int)
    if k:
        step = max(1, _CERT_BUDGET // (k * n_faces))
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            face[rows] = _certified_faces(z[rows], tol[rows], ops)
    lost = np.count_nonzero(face < 0)
    if lost:
        raise NumericError(f"no face certifies {lost} of {n} points")
    q = np.empty(n)
    order = np.argsort(face, kind="stable")
    used, starts = np.unique(face[order], return_index=True)
    for f, rows in zip(used, np.split(order, starts[1:])):
        zf = z[rows]
        q[rows] = np.einsum("ni,ij,nj->n", zf, ops.q_forms[f], zf)
    if not np.all(np.isfinite(q)):
        raise NumericError("non-finite projection q for some points")
    return np.maximum(q, 0.0), ops.ranks[face], face


def project(z, cone: Cone, sigma) -> Projection:
    """Exact projection of z onto the cone under the Sigma metric.

    The batch kernel of null_statistics run on one point: the face
    whose KKT certificate holds, and the equality-constrained solution
    on it.  A Cone's rows are linearly independent, so such a face
    exists; a point that no face certifies under roundoff raises
    NumericError.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (cone.p,):
        raise DomainError(f"z must have shape ({cone.p},)")
    sigma = np.asarray(sigma, dtype=float)
    _chol_pd(sigma)
    ops = _face_ops(cone, sigma)
    q, rank, face = _batch_q(z[None, :], ops)
    proj = np.eye(cone.p) - sigma @ ops.q_forms[face[0]]
    return Projection(
        z=z,
        z_star=proj @ z,
        q=float(q[0]),
        face=tuple(ops.faces[face[0]]),
        rank=int(rank[0]),
    )


# ====================================================================
# statistic and Monte Carlo null
# ====================================================================

def lrt_statistic(fit_null: FitResult, fit_full: FitResult) -> float:
    """2(l_full - l_null), clamped at zero.

    A deficit beyond the numerical slack means the constrained fit
    beat the unconstrained one, which signals swapped arguments or a
    failed optimization rather than roundoff.
    """
    if len(fit_null.theta) != len(fit_full.theta):
        raise DomainError("fits come from different parameterizations")
    diff = 2.0 * (fit_full.loglik - fit_null.loglik)
    if diff < -ATOM_TOL:
        raise NumericError(
            f"constrained fit exceeds the full fit by {-diff:.3e}; "
            "check the argument order or refit"
        )
    return max(0.0, diff)


def _as_cones(null_cones):
    if isinstance(null_cones, Cone):
        return (null_cones,)
    cones = tuple(null_cones)
    if not cones or not all(isinstance(c, Cone) for c in cones):
        raise DomainError("null_cones must be a Cone or a sequence of Cones")
    return cones


def null_statistics(
    sigma,
    cone: Cone,
    null_cones,
    h=None,
    m: int = NULL_DRAWS,
    seed=0,
    details: bool = False,
):
    """Draws of the limit statistic L = q(Z_null) - q(Z_full).

    Z ~ N(h, sigma); q_null minimizes over the branches of the null
    set.  With details=True also returns the per-draw rank jump nu
    between the active sets of the two projections, which partitions
    the draws into the chi-squared mixture regions.
    """
    sigma = np.asarray(sigma, dtype=float)
    chol = _chol_pd(sigma)
    p = sigma.shape[0]
    if cone.p != p:
        raise DomainError("cone dimension does not match sigma")
    cones = _as_cones(null_cones)
    if any(c.p != p for c in cones):
        raise DomainError("null cone dimension does not match sigma")
    if m < 1:
        raise DomainError("m must be positive")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, p)) @ chol.T
    if h is not None:
        h = np.asarray(h, dtype=float)
        if h.shape != (p,):
            raise DomainError(f"h must have shape ({p},)")
        z = z + h

    q_full, rank_full, _ = _batch_q(z, _face_ops(cone, sigma))
    q_null = np.full(m, np.inf)
    rank_null = np.zeros(m, dtype=int)
    for c in cones:
        q_c, rank_c, _ = _batch_q(z, _face_ops(c, sigma))
        take = q_c < q_null
        q_null = np.where(take, q_c, q_null)
        rank_null = np.where(take, rank_c, rank_null)
    draws = np.maximum(q_null - q_full, 0.0)
    if not details:
        return draws
    nu = np.maximum(rank_null - rank_full, 0)
    return draws, {"nu": nu, "q_full": q_full, "q_null": q_null}


def mc_null_pvalue(
    statistic: float,
    sigma,
    cone: Cone,
    null_cones,
    h=None,
    m: int = NULL_DRAWS,
    seed=0,
) -> float:
    """Monte Carlo p-value under the simulated limit law.

    p = (1 + #{draws >= L_n}) / (m + 1); the +1 keeps the estimate
    strictly positive and finite-sample valid, and L_n = 0 gives 1.
    """
    if not statistic >= 0.0:    # NaN included; inf is a valid statistic
        raise DomainError(f"statistic must be nonnegative, got {statistic}")
    if m < MIN_NULL_DRAWS:
        raise DomainError(f"m must be at least {MIN_NULL_DRAWS}")
    draws = null_statistics(sigma, cone, null_cones, h=h, m=m, seed=seed)
    return float(1.0 + np.count_nonzero(draws >= statistic)) / (m + 1.0)


# ====================================================================
# closed-form mixture laws
# ====================================================================

@dataclass(frozen=True)
class MixtureLaw:
    """Chi-bar-squared mixture: weights over chi-squared components.

    A component with zero degrees of freedom is the point mass at 0.
    """

    components: tuple[tuple[float, int], ...]
    note: str = ""

    def __post_init__(self):
        total = 0.0
        for w, df in self.components:
            if w < -1e-12 or df < 0 or df != int(df):
                raise DomainError("invalid mixture component")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"mixture weights sum to {total}, not 1")

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.components)

    @property
    def dfs(self) -> tuple[int, ...]:
        return tuple(df for _, df in self.components)

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "dfs": list(self.dfs),
            "note": self.note,
        }


def _orthant(cov) -> float:
    """P(N(0, cov) <= 0), in closed form up to three dimensions."""
    k = cov.shape[0]
    if k <= 1:
        return 0.5**k
    d = np.diag(cov)
    r = np.clip(cov / np.sqrt(np.outer(d, d)), -1.0, 1.0)
    asin = np.arcsin(r[np.triu_indices(k, 1)])
    if k == 2:
        return 0.25 + float(asin[0]) / (2.0 * math.pi)
    return 0.125 + float(asin.sum()) / (4.0 * math.pi)


def _same_rows(cone: Cone, null: Cone) -> bool:
    """Whether null is cone with some of its rows turned into equalities."""
    rows = np.vstack([null.eq, null.ineq])
    return (
        cone.eq.shape[0] == 0
        and rows.shape == cone.ineq.shape
        and np.array_equal(np.unique(rows, axis=0),
                           np.unique(cone.ineq, axis=0))
    )


def _subspace_components(v) -> tuple[tuple[float, int], ...]:
    """Chi-bar-squared law of the orthant {w <= 0} against w = 0, for
    W ~ N(0, v) (Kudo 1963).

    The projection of W lands on the face where the rows T are tight and
    the rows O slack exactly when the multipliers inv(v_TT) W_T are >= 0
    and the slacks (covariance v_OO.T, the Schur complement) are <= 0.
    The two are independent, and L is then chi-squared(|O|).  These are
    the orthants of _face_ops's certificates, read off v: the product
    cert sigma cert' loses digits as v nears singular (8e-7 in the
    weights at correlation 1 - 1e-9).
    """
    k = v.shape[0]
    w = [0.0] * (k + 1)
    for mask in range(2**k):
        on = np.array([mask >> i & 1 for i in range(k)], dtype=bool)
        inv_on = np.linalg.inv(v[np.ix_(on, on)])
        slack = v[np.ix_(~on, ~on)] - v[np.ix_(~on, on)] @ inv_on @ v[
            np.ix_(on, ~on)
        ]
        w[int(np.count_nonzero(~on))] += _orthant(inv_on) * _orthant(slack)
    return tuple((wj, j) for j, wj in enumerate(w))


def mixture_law(cone: Cone, null_cones, sigma=None) -> MixtureLaw | None:
    """Chi-bar-squared limit law of L read off the local cones, or None.

    The law depends on the data only through sigma and the cones.  R
    holds the k tight rows of the full cone, and each null cone must
    hold the same rows with some of them as equalities (the shape
    local_cones gives); V = R sigma R'.  The rules:

    - Subspace null: one null cone with every row an equality, k <= 3.
      The weight of chi-squared(j) sums the orthant probabilities of the
      faces of the full cone with j slack rows (Kudo 1963; Silvapulle &
      Sen 2005, ch. 3).  For k <= 1 every such orthant has at most one
      dimension, and sigma is not read.
    - Tied nuisance: one null cone, k = 2, one equality.  With rho the
      correlation in V, the weights are (1/4 + acos(rho)/2pi, 1/2,
      1/4 - acos(rho)/2pi), for rho >= 0 only.
    - Union bound: two or more null cones, k = 2, one equality in each.
      The half/half law bounds the union's survival from above.

    Any other geometry returns None; use mc_null_pvalue.
    """
    cones = _as_cones(null_cones)
    k = cone.n_ineq
    if not all(_same_rows(cone, c) for c in cones):
        return None
    n_eq = {c.eq.shape[0] for c in cones}
    if len(cones) > 1:
        if k == 2 and n_eq == {1}:
            return MixtureLaw(
                ((0.5, 0), (0.5, 1)),
                note="stochastic upper bound on the union's limit law",
            )
        return None
    subspace = n_eq == {k} and k <= 3       # orthants in closed form
    if not subspace and not (k == 2 and n_eq == {1}):
        return None
    if k <= 1:
        v = np.eye(k)
    elif sigma is None:
        raise DomainError(f"the law of {k} tight rows reads sigma")
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (cone.p, cone.p):
            raise DomainError(f"sigma must be {cone.p}x{cone.p}")
        _chol_pd(sigma)
        v = cone.ineq @ sigma @ cone.ineq.T
    if subspace:
        return MixtureLaw(_subspace_components(v))
    rho = v[0, 1] / math.sqrt(v[0, 0] * v[1, 1])
    if rho < 0.0:
        return None
    gamma0 = 0.25 + math.acos(min(rho, 1.0)) / (2.0 * math.pi)
    return MixtureLaw(((gamma0, 0), (0.5, 1), (0.5 - gamma0, 2)))


def mixture_pvalue(law: MixtureLaw, statistic: float) -> float:
    """P(L >= statistic) under the mixture: 1 at the atom L = 0."""
    if not statistic >= 0.0:    # NaN included; inf is a valid statistic
        raise DomainError(f"statistic must be nonnegative, got {statistic}")
    if statistic == 0.0:
        return 1.0
    p = 0.0
    for w, df in law.components:
        if df >= 1:
            p += w * float(stats.chi2.sf(statistic, df))
    return p


# ====================================================================
# conditional and hybrid variants
# ====================================================================

@dataclass(frozen=True)
class ConditionalResult:
    """Decision of the test conditioned on where the full MLE landed."""

    statistic: float
    nu: int
    p_value: float
    reject: bool
    alpha: float
    alpha_used: float
    effective_size: float | None

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "nu": self.nu,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "alpha_used": self.alpha_used,
            "effective_size": self.effective_size,
        }


def conditional_test(
    pair: FitPair,
    alpha: float = 0.05,
    gamma0: float | None = None,
    exact: bool = False,
) -> ConditionalResult:
    """Reject based on chi-squared(nu) given the region of the full MLE.

    nu counts the atoms of the null fit's branch that are not tight
    edges at the full fit; with nu = 0 the null is never rejected.  The
    exact variant inflates alpha to alpha/(1 - gamma0).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    atoms = pair.fit_null.branch
    if atoms is None:
        raise DomainError("null fit carries no constrained branch")
    statistic = pair.statistic
    tight = tight_edges(pair.tree, pair.fit_full.theta)
    nu = sum((child[:-1], child) not in tight for child in atoms)
    if exact:
        if gamma0 is None:
            raise DomainError("exact variant needs gamma0")
        if not 0.0 <= gamma0 < 1.0:
            raise DomainError("gamma0 must be in [0, 1)")
        alpha_used = alpha / (1.0 - gamma0)
    else:
        alpha_used = alpha
    if nu == 0:
        p_value, reject = 1.0, False
    else:
        p_value = float(stats.chi2.sf(statistic, nu))
        reject = p_value < alpha_used
    effective = None if gamma0 is None else (1.0 - gamma0) * alpha_used
    return ConditionalResult(
        statistic=statistic,
        nu=nu,
        p_value=p_value,
        reject=reject,
        alpha=alpha,
        alpha_used=alpha_used,
        effective_size=effective,
    )


def hybrid_pvalue(
    pair: FitPair,
    sigma,
    m: int = NULL_DRAWS,
    seed=0,
) -> float:
    """MC p-value with nuisance gaps folded into the mean of Z.

    The nuisance nests are the non-root nodes outside the null fit's
    branch.  The mean is sqrt(n) times the fitted null gap on each
    nuisance coordinate and zero on the constrained ones, while the
    cones keep the nuisance ties in the tight set.  Large gaps push the
    nuisance constraint out of play; zero gaps recover the fully tied
    geometry.
    """
    tree, vec = pair.tree, pair.fit_null.theta
    constrained = set(pair.fit_null.branch or pair.hypothesis.branches[0])
    nuisance = [p for p in tree.internal_paths[1:] if p not in constrained]
    cone, null_cones = local_cones(
        tree, pair.hypothesis, vec,
        assume_tight=[(p[:-1], p) for p in nuisance],
    )
    h = np.zeros(tree.p)
    root_n = math.sqrt(pair.rows.shape[0])
    for p in nuisance:
        gap = vec[tree.param_pos[p]] - vec[tree.param_pos[p[:-1]]]
        h[tree.param_pos[p]] = root_n * gap
    return mc_null_pvalue(
        pair.statistic, sigma, cone, null_cones, h=h, m=m, seed=seed
    )


# ====================================================================
# local power curves
# ====================================================================

@dataclass(frozen=True)
class PowerCurve:
    """Power of the one-tie test along a grid of tau-scale shifts."""

    family: str
    tau: float
    h_values: tuple[float, ...]
    power: tuple[float, ...]
    atom: tuple[float, ...]     # exact P(L = 0) at each shift
    c_alpha: float
    alpha: float
    theta_scale: float          # d theta / d tau at tau
    seed: int

    def rows(self):
        for h, b, a in zip(self.h_values, self.power, self.atom):
            yield {
                "family": self.family,
                "tau": self.tau,
                "h_prime": h,
                "power": b,
                "atom_zero": a,
            }

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "tau": self.tau,
            "h_values": list(self.h_values),
            "power": list(self.power),
            "atom": list(self.atom),
            "c_alpha": self.c_alpha,
            "alpha": self.alpha,
            "theta_scale": self.theta_scale,
            "seed": self.seed,
        }


def _dtheta_dtau(fam, tau: float) -> float:
    """Scale mapping a tau-scale shift to the parameter scale."""
    if fam.name == "gumbel":
        return 1.0 / (1.0 - tau) ** 2
    if fam.name == "clayton":
        return 2.0 / (1.0 - tau) ** 2
    step = min(1e-5, tau / 8.0, (1.0 - tau) / 8.0)
    hi = tau_inv(fam, tau + step)
    lo = tau_inv(fam, tau - step)
    return (hi - lo) / (2.0 * step)


def power_curve(
    family: str,
    tau: float,
    h_values,
    sigma=None,
    alpha: float = 0.05,
    n_sigma: int = SIGMA_DRAWS,
    seed: int = 0,
    e=(0.0, 1.0),
    delta_tau: float = DELTA_TAU,
) -> PowerCurve:
    """Power of the single-tie test under local shifts, in closed form.

    Each tau-scale value h' maps to a mean shift h = h' (dtheta/dtau) e
    of the limiting Gaussian Z; the test rejects when L exceeds the
    (1 - 2 alpha) quantile c_alpha of chi-squared(1).  With one tie,
    L = max(W, 0)^2 for W = (Z_1 - Z_0)/sd ~ N(mu, 1), mu = h' (dtheta/dtau)
    (e_1 - e_0)/sd, so the power is 1 - Phi(sqrt(c_alpha) - mu) and the
    atom P(L = 0) is Phi(-mu).  Each tau + h' e_i must be attainable.
    When sigma is missing it is estimated from n_sigma model draws at
    the exchangeable null of the tree [[1,2],3], seeded by seed.
    delta_tau, the step of a finite-difference covariance there, acts
    only on Frank and Joe (Joe's tie-point information is unbounded, so
    its covariance is step-regularized); Clayton and Gumbel take the
    analytic Hessian, so delta_tau changes nothing for them.
    """
    fam = get_family(family)
    if not 0.0 < tau < 1.0:
        raise DomainError("tau must be in (0, 1)")
    if not 0.0 < alpha < 0.5:
        raise DomainError("alpha must be in (0, 0.5)")
    e = np.asarray(e, dtype=float)
    if e.shape != (2,) or abs(e[1] - e[0] - 1.0) > 1e-12:
        raise DomainError("e must be a pair with e[1] - e[0] = 1")
    h_values = tuple(float(h) for h in h_values)
    for h in h_values:
        for shifted in tau + h * e:
            fam._check_tau_range(float(shifted))

    if sigma is None:
        hac = HacTree([[1, 2], 3])
        theta = tau_inv(fam, tau)
        est = sigma_hat(
            None,
            hac,
            fam.name,
            np.full(2, theta),
            source="mc",
            n_mc=n_sigma,
            seed=np.random.SeedSequence(seed).spawn(1)[0],
            atoms=(hac.internal_paths[1],),
            delta_tau=delta_tau,
        )
        sigma = est.sigma
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2, 2):
        raise DomainError("sigma must be 2x2 for the power curve")

    _chol_pd(sigma)
    c_alpha = float(stats.chi2.ppf(1.0 - 2.0 * alpha, 1))
    scale = _dtheta_dtau(fam, tau)
    sd = math.sqrt(sigma[0, 0] + sigma[1, 1] - 2.0 * sigma[0, 1])
    mu = scale * np.array(h_values) * (e[1] - e[0]) / sd
    return PowerCurve(
        family=fam.name,
        tau=tau,
        h_values=h_values,
        power=tuple(stats.norm.sf(math.sqrt(c_alpha) - mu).tolist()),
        atom=tuple(stats.norm.cdf(-mu).tolist()),
        c_alpha=c_alpha,
        alpha=alpha,
        theta_scale=scale,
        seed=seed,
    )


# ====================================================================
# the orchestrated test
# ====================================================================

def _cone_dict(cone: Cone) -> dict:
    return {"ineq": cone.ineq.tolist(), "eq": cone.eq.tolist()}


@dataclass(frozen=True)
class LrtResult:
    """Full record of one boundary likelihood-ratio test."""

    statistic: float
    p_value: float
    method: str
    fit_null: FitResult
    fit_full: FitResult
    law: MixtureLaw | None = None
    sigma: FisherEstimate | None = None
    conditional: ConditionalResult | None = None
    cones: tuple[Cone, tuple[Cone, ...]] | None = None
    m: int | None = None
    seeds: dict = field(default_factory=dict)
    conservative: bool = False
    warning: str | None = None

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
            "law": None if self.law is None else self.law.to_dict(),
            "seeds": dict(self.seeds),
            "m": self.m,
            "conservative": self.conservative,
            "warning": self.warning,
            "fits": {
                "null": self.fit_null.to_dict(),
                "full": self.fit_full.to_dict(),
            },
            "sigma_meta": None if self.sigma is None else self.sigma.to_dict(),
            "conditional": None
            if self.conditional is None
            else self.conditional.to_dict(),
            "cones": None
            if self.cones is None
            else {
                "full": _cone_dict(self.cones[0]),
                "null": [_cone_dict(c) for c in self.cones[1]],
            },
        }


def _check_choices(method: str, sigma_at: str) -> None:
    if method not in ("mc", "mixture", "conditional", "hybrid"):
        raise DomainError(f"unknown method {method!r}")
    if sigma_at not in ("null", "full"):
        raise DomainError("sigma_at must be 'null' or 'full'")


@dataclass(frozen=True)
class FitPair:
    """Full and null fits of one dataset, with their LR statistic."""

    rows: np.ndarray
    tree: HacTree
    family: str
    hypothesis: Hypothesis
    fit_full: FitResult
    fit_null: FitResult
    statistic: float


def fit_pair(
    rows,
    tree: HacTree,
    family: str,
    hypothesis: Hypothesis,
    config: FitConfig = FitConfig(),
) -> FitPair:
    """Fit the full and the null model and compute the statistic.

    A full fit that ends below the null fit by more than ATOM_TOL in
    the statistic is replaced by a refit with one start at the null
    optimum: that point is feasible for the full model, and descent
    from it cannot end below it.  The statistic is exactly 0 when the
    full fit lies in the null set, where some branch holds
    (holding_branches); otherwise it is lrt_statistic's clamped 2(l_full
    - l_null), which a null fit that stopped short would leave above 0.
    """
    rows = np.asarray(rows, dtype=float)
    # the fits share one Kendall-tau matrix, computed on first use
    taus = _lazy_taus(rows)
    fit_full = mle(rows, tree, family, config=config, _taus=taus)
    fit_null = mle(rows, tree, family, hypothesis=hypothesis, config=config,
                   _taus=taus)
    if 2.0 * (fit_full.loglik - fit_null.loglik) < -ATOM_TOL:
        fit_full = mle(rows, tree, family, config=config,
                       start=fit_null.theta)
    statistic = lrt_statistic(fit_null, fit_full)
    if holding_branches(tree, hypothesis, fit_full.theta):
        statistic = 0.0
    return FitPair(
        rows=rows,
        tree=tree,
        family=family,
        hypothesis=hypothesis,
        fit_full=fit_full,
        fit_null=fit_null,
        statistic=statistic,
    )


def run_fitted(
    pair: FitPair,
    method: str,
    sigma_seed,
    mc_seed,
    alpha: float = 0.05,
    sigma_source: str = "mc",
    sigma_at: str = "null",
    n_sigma: int = SIGMA_DRAWS,
    m: int = NULL_DRAWS,
    exact: bool = False,
    ridge: bool = False,
) -> LrtResult:
    """Pick the reference law for a fitted pair and report the test.

    method "mixture" reads the closed-form law off the local cones at
    the fitted null (mixture_law) and falls back to the Monte Carlo
    null with a warning where there is none.  "mc" always simulates the
    limit law there.  "conditional" compares against chi-squared(nu)
    given where the full MLE landed, and "hybrid" folds fitted nuisance
    gaps into the mean of the simulated limit.  Sigma is drawn only
    when the chosen law or simulation reads it.  sigma_seed feeds the
    covariance draws and mc_seed the simulated null.
    """
    _check_choices(method, sigma_at)
    hac, hyp = pair.tree, pair.hypothesis
    fit_full, fit_null = pair.fit_full, pair.fit_null
    statistic = pair.statistic

    sigma_est = None

    def get_sigma() -> FisherEstimate:
        nonlocal sigma_est
        if sigma_est is None:
            at_full = sigma_at == "full"
            sigma_est = sigma_hat(
                pair.rows,
                hac,
                pair.family,
                fit_full.theta if at_full else fit_null.theta,
                at=sigma_at,
                source=sigma_source,
                n_mc=n_sigma,
                seed=sigma_seed,
                atoms=() if at_full or fit_null.branch is None
                else fit_null.branch,
                ridge=ridge,
            )
        return sigma_est

    law = None
    cones = None
    conditional = None
    warning = None
    conservative = False
    used = method
    m_used = None

    if method != "hybrid":
        cone, null_cones = local_cones(hac, hyp, fit_null.theta)
        cones = (cone, null_cones)
        # only a single null cone's law of two or more rows reads sigma
        reads_sigma = len(null_cones) == 1 and cone.n_ineq >= 2
        if method == "mixture" or (
            method == "conditional" and (exact or not reads_sigma)
        ):
            law = mixture_law(
                cone, null_cones, get_sigma().sigma if reads_sigma else None
            )
        if method == "mixture" and law is None:
            warning = (
                "no closed-form law for these local cones; "
                "falling back to the Monte Carlo null"
            )
            warnings.warn(warning)
            used = "mc"

    if used == "mixture":
        p_value = mixture_pvalue(law, statistic)
        conservative = len(null_cones) > 1
    elif used == "mc":
        p_value = mc_null_pvalue(
            statistic, get_sigma().sigma, cone, null_cones,
            m=m, seed=mc_seed,
        )
        m_used = m
    elif used == "conditional":
        conditional = conditional_test(
            pair, alpha=alpha,
            gamma0=None if law is None else law.weights[0], exact=exact,
        )
        p_value = conditional.p_value
    else:  # hybrid
        p_value = hybrid_pvalue(pair, get_sigma().sigma, m=m, seed=mc_seed)
        m_used = m

    if not 0.0 <= p_value <= 1.0:
        raise NumericError(f"p-value {p_value} outside [0, 1]")
    return LrtResult(
        statistic=statistic,
        p_value=float(p_value),
        method=used,
        fit_null=fit_null,
        fit_full=fit_full,
        law=law,
        sigma=sigma_est,
        conditional=conditional,
        cones=cones,
        m=m_used,
        conservative=conservative,
        warning=warning,
    )


def run_test(
    data,
    tree,
    family: str,
    hypothesis,
    method: str = "mixture",
    alpha: float = 0.05,
    sigma_source: str = "mc",
    sigma_at: str = "null",
    n_sigma: int = SIGMA_DRAWS,
    m: int = NULL_DRAWS,
    seed: int = 0,
    config: FitConfig = FitConfig(),
    exact: bool = False,
    ridge: bool = False,
) -> LrtResult:
    """Fit both models, pick a reference law, and report the test.

    The covariance and Monte Carlo seeds are the two children of
    SeedSequence(seed); see run_fitted for the methods.
    """
    _check_choices(method, sigma_at)
    hac = tree if isinstance(tree, HacTree) else HacTree(tree)
    hyp = (
        hypothesis
        if isinstance(hypothesis, Hypothesis)
        else Hypothesis.parse(hypothesis)
    )
    rows = np.asarray(getattr(data, "values", data), dtype=float)
    pair = fit_pair(rows, hac, family, hyp, config=config)
    sigma_seed, mc_seed = np.random.SeedSequence(seed).spawn(2)
    result = run_fitted(
        pair, method, sigma_seed, mc_seed,
        alpha=alpha, sigma_source=sigma_source, sigma_at=sigma_at,
        n_sigma=n_sigma, m=m, exact=exact, ridge=ridge,
    )
    return replace(
        result, seeds={"root": seed, "sigma": "spawn(0)", "mc": "spawn(1)"}
    )
