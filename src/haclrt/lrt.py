"""Boundary likelihood-ratio tests on the nesting cone.

The test statistic L_n = 2{l(theta_full) - l(theta_null)} has a
nonstandard limit when the null pins parameters to the boundary of the
ordering cone.  The limit is L_inf = q(Z_null) - q(Z_full), where q is
the squared Sigma-Mahalanobis distance from a Gaussian Z to its
projection onto the local cone of the alternative (Z_full) and of the
null set (Z_null).  This module computes the projections exactly:
each draw takes the face of the cone whose KKT certificate (tight
multipliers >= 0, inactive slacks <= 0) holds, and the
equality-constrained solution on that face.  A Cone's rows are
linearly independent, so some face is certified for every draw; the
certificate is the projection's only rule.  Each draw searches for
its face: an active-set walk over the face masks that tests only the
k certificate rows of its current face per round, not all 2^k faces.
A fitted pair has one LimitLaw, built from its local cones, Sigma and
the mean h of Z: the chi-bar-squared mixture where the cone geometry
gives its weights in closed form, and m simulated draws of L
everywhere else.  Its sf gives the p-value, and its kind says whether
that is exact, an upper bound, or simulated.
"""

from __future__ import annotations

import functools
import math
import numbers
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
from .fisher import SIGMA_DRAWS, FisherEstimate, sigma_hat
from .generators import get_family, tau_inv
from .tree import (Cone, HacTree, Hypothesis, holding_branches, local_cones,
                   tight_edges)

__all__ = [
    "ATOM_TOL",
    "MIN_NULL_DRAWS",
    "NULL_DRAWS",
    "Projection",
    "LimitLaw",
    "ConditionalResult",
    "PowerCurve",
    "LrtResult",
    "FitPair",
    "project",
    "lrt_statistic",
    "null_statistics",
    "conditional_test",
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


# floats of gathered certificate rows and points in one chunk of the face
# search, and of gathered q forms and their products in one chunk of the
# q pass; the rows per chunk shrink as k * p or p * p grows, so memory
# stays bounded in m and k
_CERT_BUDGET = 2**20


@dataclass(frozen=True)
class _FaceOps:
    """Operators of every face of a cone, indexed by face mask.

    Cone.faces() lists the faces in mask order, so face f has inequality
    i tight exactly when bit i of f is set.
    """

    faces: list             # tight inequality indices of each face
    q_forms: np.ndarray     # (n_faces, p, p): q = z' Q z on the face
    ranks: np.ndarray       # (n_faces,): rank of the face's active rows
    cert: np.ndarray        # (n_faces, k, p): KKT certificate rows


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
    row rank: the equalities plus its tight inequalities.  The faces
    with equally many tight rows are stacked, so each size takes one
    pinv.
    """
    p, k = cone.p, cone.n_ineq
    r = cone.eq.shape[0]
    faces = cone.faces()
    tight = np.arange(len(faces))[:, None] >> np.arange(k) & 1 == 1
    sizes = tight.sum(axis=1)
    q_forms = np.zeros((len(faces), p, p))
    cert = np.empty((len(faces), k, p))
    for size in range(k + 1):
        group = np.flatnonzero(sizes == size)
        at = group[:, None]
        on = np.nonzero(tight[group])[1].reshape(len(group), size)
        off = np.nonzero(~tight[group])[1].reshape(len(group), k - size)
        if r + size:
            a = np.concatenate(
                [np.broadcast_to(cone.eq, (len(group), r, p)),
                 cone.ineq[on]], axis=1,
            )
            m = a @ sigma @ a.transpose(0, 2, 1)
            m_pinv = np.linalg.pinv(m, hermitian=True)
            q_forms[group] = a.transpose(0, 2, 1) @ m_pinv @ a
            cert[at, on] = (-(m_pinv @ a)[:, r:]
                            * np.diagonal(m, axis1=1, axis2=2)[:, r:, None])
        cert[at, off] = cone.ineq[off] @ (np.eye(p) - sigma @ q_forms[group])
    return _FaceOps(faces, q_forms, r + sizes, cert)


def _search_faces(z, tol, ops: _FaceOps) -> np.ndarray:
    """Mask of the face whose certificate holds, per row of z.

    Each row starts from the mask of the inequalities that its
    projection onto the equalities violates, the rows whose certificate
    fails at the empty face 0 (with no equalities, the rows z itself
    violates).  A round takes the k certificate rows of the row's
    current face and flips every inequality whose certificate fails, a
    primal-dual active-set step (Hintermueller, Ito & Kunisch 2003).
    Rows still open after k + 1 rounds flip only the least failing index
    (Murty 1974), which reaches the certified face within 2^k rounds
    because V = R Sigma R' is positive definite.  A row that the cap
    leaves open (a non-finite row, or roundoff under a Sigma conditioned
    far beyond the 1e10 that sigma_hat admits) raises NumericError.  The
    gathered certificate rows and points take at most _CERT_BUDGET
    floats at a time.
    """
    n = z.shape[0]
    _, k, p = ops.cert.shape
    bit = 1 << np.arange(k)
    face = (z @ ops.cert[0].T > 0.0) @ bit
    open_rows = np.arange(n)
    step = max(1, _CERT_BUDGET // ((k + 1) * p))
    sweep = 0
    while open_rows.size:
        if sweep > k + 1 + 2**k:    # a round checks the last one's flips
            raise NumericError(
                f"no face certifies {open_rows.size} of {n} points")
        still = []
        for lo in range(0, open_rows.size, step):
            rows = open_rows[lo:lo + step]
            s = np.einsum("nkp,np->nk", ops.cert[face[rows]], z[rows])
            fail = ~(s <= tol[rows, None])
            if sweep > k:
                fail &= np.cumsum(fail, axis=1) == 1
            flip = fail @ bit
            face[rows] ^= flip
            still.append(rows[flip != 0])
        open_rows = np.concatenate(still)
        sweep += 1
    return face


def _quad(z, forms) -> np.ndarray:
    """z_n' Q_n z_n per row, with Q_n = forms[n].

    Two two-operand products, each summing in a fixed order per row, so
    a row's q depends only on its own z and Q: the same bits whether
    forms is gathered per row or one form broadcast to every row.
    """
    return np.einsum("nj,nj->n", np.einsum("ni,nij->nj", z, forms), z)


def _batch_q(z, ops: _FaceOps):
    """Projection q for a batch of points, by KKT certificate.

    Each row's face is found by _search_faces, with the tolerance
    1e-9 (1 + max|z|) on the certificate rows; on a cone's independent
    rows exactly one face holds for almost every point.  q is then one
    gathered pass over the draws: each row takes its face's form
    q_forms[face] and _quad evaluates z' Q z, in chunks whose gathered
    forms take at most _CERT_BUDGET floats.  With no inequalities the
    only face is the subspace, and its form is broadcast to every row.
    Returns (q, rank of the active rows at that face, index of the face
    in ops.faces).
    """
    n = z.shape[0]
    _, k, p = ops.cert.shape
    if not k:
        face = np.zeros(n, dtype=int)
        q = _quad(z, np.broadcast_to(ops.q_forms[0], (n, p, p)))
    else:
        # a column-wise reduce: the same maxima as max(axis=1), which
        # runs an inner loop of only p per row
        zmax = functools.reduce(np.maximum, np.abs(z).T)
        face = _search_faces(z, 1e-9 * (1.0 + zmax), ops)
        q = np.empty(n)
        step = max(1, _CERT_BUDGET // ((p + 1) * p))
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            q[rows] = _quad(z[rows], ops.q_forms[face[rows]])
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


def _check_draws(m, least: int = MIN_NULL_DRAWS) -> None:
    # numpy integers pass; a float m would reach the draws as a shape
    if not isinstance(m, numbers.Integral):
        raise DomainError(f"m must be an integer, got {m!r}")
    if m < least:
        raise DomainError(f"m must be at least {least}")


def _seed_sequence(seed) -> np.random.SeedSequence:
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise DomainError(
            f"seed must be a nonnegative integer, got {seed!r}") from None


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
    _check_draws(m, 1)
    if h is not None:
        h = np.asarray(h, dtype=float)
        if h.shape != (p,):
            raise DomainError(f"h must have shape ({p},)")
        if not np.all(np.isfinite(h)):
            raise DomainError("h has non-finite entries")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, p)) @ chol.T
    if h is not None:
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


# ====================================================================
# the limit law of a fitted pair
# ====================================================================

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


@dataclass(frozen=True, eq=False)
class LimitLaw:
    """Law of L = q(Z_null) - q(Z_full), Z ~ N(h, sigma), at a fitted null.

    kind "exact" is a chi-bar-squared mixture, and "bound" one that
    bounds the law's survival from above; their components are (weight,
    df) pairs, a df of 0 being the point mass at 0.  kind "simulated"
    holds m draws of null_statistics, seeded by seed, and draws them
    each time sf is asked.  h = None is the zero mean.  Build one with
    closed_form or simulated.
    """

    kind: str
    cone: Cone
    null_cones: tuple[Cone, ...]
    sigma: np.ndarray | None = None
    h: np.ndarray | None = None
    components: tuple[tuple[float, int], ...] = ()
    m: int | None = None
    seed: object = 0

    def __post_init__(self):
        if self.kind == "simulated":
            _check_draws(self.m)
            return
        if self.kind not in ("exact", "bound"):
            raise DomainError(f"unknown law kind {self.kind!r}")
        total = 0.0
        for w, df in self.components:
            if w < -1e-12 or df < 0 or df != int(df):
                raise DomainError("invalid mixture component")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"mixture weights sum to {total}, not 1")

    @classmethod
    def closed_form(cls, cone: Cone, null_cones,
                    sigma=None) -> LimitLaw | None:
        """The chi-bar-squared law read off the local cones, or None.

        The law depends on the data only through sigma and the cones.
        R holds the k tight rows of the full cone, and each null cone
        must hold the same rows with some of them as equalities (the
        shape local_cones gives); V = R sigma R'.  The rules:

        - Subspace null: one null cone with every row an equality,
          k <= 3.  The weight of chi-squared(j) sums the orthant
          probabilities of the faces of the full cone with j slack rows
          (Kudo 1963; Silvapulle & Sen 2005, ch. 3).  For k <= 1 every
          such orthant has at most one dimension, and sigma is not read.
        - Tied nuisance: one null cone, k = 2, one equality.  With rho
          the correlation in V, the weights are (1/4 + acos(rho)/2pi,
          1/2, 1/4 - acos(rho)/2pi), for rho >= 0 only.
        - Union bound: two or more null cones, k = 2, one equality in
          each.  The half/half law bounds the union's survival from
          above.

        Any other geometry returns None; the simulated law covers it.
        """
        cones = _as_cones(null_cones)
        k = cone.n_ineq
        if not all(_same_rows(cone, c) for c in cones):
            return None
        n_eq = {c.eq.shape[0] for c in cones}
        if len(cones) > 1:
            if k == 2 and n_eq == {1}:
                return cls("bound", cone, cones, sigma,
                           components=((0.5, 0), (0.5, 1)))
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
            return cls("exact", cone, cones, sigma,
                       components=_subspace_components(v))
        rho = v[0, 1] / math.sqrt(v[0, 0] * v[1, 1])
        if rho < 0.0:
            return None
        gamma0 = 0.25 + math.acos(min(rho, 1.0)) / (2.0 * math.pi)
        return cls("exact", cone, cones, sigma,
                   components=((gamma0, 0), (0.5, 1), (0.5 - gamma0, 2)))

    @classmethod
    def simulated(cls, cone: Cone, null_cones, sigma, h=None,
                  m: int = NULL_DRAWS, seed=0) -> LimitLaw:
        """The law of m draws of null_statistics, for any geometry."""
        return cls("simulated", cone, _as_cones(null_cones), sigma, h,
                   m=m, seed=seed)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.components)

    @property
    def dfs(self) -> tuple[int, ...]:
        return tuple(df for _, df in self.components)

    def sf(self, statistic: float) -> float:
        """P(L >= statistic), 1 at the atom L = 0.

        A simulated law reads (1 + #{draws >= statistic}) / (m + 1) off
        one call of null_statistics; the +1 keeps it strictly positive
        and finite-sample valid.
        """
        if not statistic >= 0.0:    # NaN included; inf is a valid statistic
            raise DomainError(f"statistic must be nonnegative, got {statistic}")
        if self.kind == "simulated":
            draws = null_statistics(self.sigma, self.cone, self.null_cones,
                                    h=self.h, m=self.m, seed=self.seed)
            return float(1.0 + np.count_nonzero(draws >= statistic)) / (
                self.m + 1.0)
        if statistic == 0.0:
            return 1.0
        p = 0.0
        for w, df in self.components:
            if df >= 1:
                p += w * float(stats.chi2.sf(statistic, df))
        return p

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weights": list(self.weights),
            "dfs": list(self.dfs),
            "m": self.m,
            "h": None if self.h is None else np.asarray(self.h).tolist(),
        }


# ====================================================================
# the conditional test
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


def power_curve(
    family: str,
    tau: float,
    h_values,
    sigma=None,
    alpha: float = 0.05,
    n_sigma: int = SIGMA_DRAWS,
    seed: int = 0,
    e=(0.0, 1.0),
) -> PowerCurve:
    """Power of the single-tie test under local shifts, in closed form.

    Each tau-scale value h' maps to a mean shift h = h' (dtheta/dtau) e
    of the limiting Gaussian Z; the test rejects when L exceeds the
    (1 - 2 alpha) quantile c_alpha of chi-squared(1).  With one tie,
    L = max(W, 0)^2 for W = (Z_1 - Z_0)/sd ~ N(mu, 1), mu = h' (dtheta/dtau)
    (e_1 - e_0)/sd, so the power is 1 - Phi(sqrt(c_alpha) - mu) and the
    atom P(L = 0) is Phi(-mu).  Each tau + h' e_i must be attainable.
    dtheta/dtau is the family's ``dtheta_dtau``, exact for every family.
    When sigma is missing it is estimated from n_sigma model draws at
    the exchangeable null of the tree [[1,2],3], seeded by seed, as the
    mean of the density's Hessian over them, for every family.  At that
    tie the per-row information can be heavy-tailed (Gumbel, Joe), so
    the estimate moves with the seed.
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
        )
        sigma = est.sigma
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2, 2):
        raise DomainError("sigma must be 2x2 for the power curve")

    _chol_pd(sigma)
    c_alpha = float(stats.chi2.ppf(1.0 - 2.0 * alpha, 1))
    scale = fam.dtheta_dtau(tau)
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
    law: LimitLaw | None = None
    sigma: FisherEstimate | None = None
    conditional: ConditionalResult | None = None
    cones: tuple[Cone, tuple[Cone, ...]] | None = None
    seeds: dict = field(default_factory=dict)
    warning: str | None = None

    @property
    def m(self) -> int | None:
        """Draws behind a simulated law's p-value."""
        return None if self.law is None else self.law.m

    @property
    def conservative(self) -> bool:
        """Whether the p-value is read off a bound on the law."""
        return (self.conditional is None and self.law is not None
                and self.law.kind == "bound")

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


def _check_choices(method: str, sigma_at: str, alpha: float, m: int) -> None:
    if method not in ("mc", "mixture", "conditional", "hybrid"):
        raise DomainError(f"unknown method {method!r}")
    if sigma_at not in ("null", "full"):
        raise DomainError("sigma_at must be 'null' or 'full'")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    _check_draws(m)


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
    *,
    _taus=None,
) -> FitPair:
    """Fit the full and the null model and compute the statistic.

    A full fit that ends below the null fit by more than ATOM_TOL in
    the statistic is replaced by a refit with one start at the null
    optimum: that point is feasible for the full model, and descent
    from it cannot end below it.  The statistic is exactly 0 when the
    full fit lies in the null set, where some branch holds
    (holding_branches); otherwise it is lrt_statistic's clamped 2(l_full
    - l_null), which a null fit that stopped short would leave above 0.
    The fits share one Kendall-tau matrix, computed on first use; _taus,
    as in mle, shares it with other fits of the same rows.
    """
    rows = np.asarray(rows, dtype=float)
    taus = _taus or _lazy_taus(rows)
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

    The law is built once, from the local cones at the fitted null.
    method "mixture" takes its closed form (LimitLaw.closed_form) and
    falls back to the simulated law with a warning where there is none;
    "mc" always simulates it.  "hybrid" simulates the law of cones that
    keep the nuisance nests, the non-root nodes outside the null fit's
    branch, tight, with sqrt(n) times each fitted nuisance gap as the
    mean of Z: large gaps push the nuisance constraints out of play, and
    zero gaps recover the fully tied geometry.  "conditional" compares
    against chi-squared(nu) given where the full MLE landed, and reads
    gamma0 off the closed form for its exact variant.  Sigma is drawn
    only when the chosen law reads it.  sigma_seed feeds the covariance
    draws and mc_seed the simulated law.
    """
    _check_choices(method, sigma_at, alpha, m)
    hac, hyp = pair.tree, pair.hypothesis
    fit_full, fit_null = pair.fit_full, pair.fit_null

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

    vec = fit_null.theta
    h = None
    if method == "hybrid":
        constrained = set(fit_null.branch or hyp.branches[0])
        nuisance = [p for p in hac.internal_paths[1:] if p not in constrained]
        cone, null_cones = local_cones(
            hac, hyp, vec, assume_tight=[(p[:-1], p) for p in nuisance],
        )
        h = np.zeros(hac.p)
        root_n = math.sqrt(pair.rows.shape[0])
        for p in nuisance:
            gap = vec[hac.param_pos[p]] - vec[hac.param_pos[p[:-1]]]
            h[hac.param_pos[p]] = root_n * gap
    else:
        cone, null_cones = local_cones(hac, hyp, vec)

    law = conditional = warning = None
    # only a single null cone's law of two or more rows reads sigma
    reads_sigma = len(null_cones) == 1 and cone.n_ineq >= 2
    if method == "mixture" or (
        method == "conditional" and (exact or not reads_sigma)
    ):
        law = LimitLaw.closed_form(
            cone, null_cones, get_sigma().sigma if reads_sigma else None
        )
    if method == "conditional":
        conditional = conditional_test(
            pair, alpha=alpha,
            gamma0=None if law is None else law.weights[0], exact=exact,
        )
        p_value = conditional.p_value
    else:
        if law is None:
            if method == "mixture":
                warning = (
                    "no closed-form law for these local cones; "
                    "falling back to the Monte Carlo null"
                )
                warnings.warn(warning)
                method = "mc"
            law = LimitLaw.simulated(cone, null_cones, get_sigma().sigma,
                                     h=h, m=m, seed=mc_seed)
        p_value = law.sf(pair.statistic)

    if not 0.0 <= p_value <= 1.0:
        raise NumericError(f"p-value {p_value} outside [0, 1]")
    return LrtResult(
        statistic=pair.statistic,
        p_value=float(p_value),
        method=method,
        fit_null=fit_null,
        fit_full=fit_full,
        law=law,
        sigma=sigma_est,
        conditional=conditional,
        cones=(cone, null_cones),
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
    _check_choices(method, sigma_at, alpha, m)
    sigma_seed, mc_seed = _seed_sequence(seed).spawn(2)
    hac = tree if isinstance(tree, HacTree) else HacTree(tree)
    hyp = (
        hypothesis
        if isinstance(hypothesis, Hypothesis)
        else Hypothesis.parse(hypothesis)
    )
    rows = np.asarray(getattr(data, "values", data), dtype=float)
    pair = fit_pair(rows, hac, family, hyp, config=config)
    result = run_fitted(
        pair, method, sigma_seed, mc_seed,
        alpha=alpha, sigma_source=sigma_source, sigma_at=sigma_at,
        n_sigma=n_sigma, m=m, exact=exact, ridge=ridge,
    )
    return replace(
        result, seeds={"root": seed, "sigma": "spawn(0)", "mc": "spawn(1)"}
    )
