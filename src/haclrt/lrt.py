"""Boundary likelihood-ratio tests on the nesting cone.

The test statistic L_n = 2{l(theta_full) - l(theta_null)} has a
nonstandard limit when the null pins parameters to the boundary of the
ordering cone.  The limit is L_inf = q(Z_null) - q(Z_full), where q is
the squared Sigma-Mahalanobis distance from a Gaussian Z to its
projection onto the local cone of the alternative (Z_full) and of the
null set (Z_null).  This module computes the projections exactly by
face enumeration, simulates the limit law, and provides the known
chi-bar-squared mixtures for the small structures where the weights
have closed forms.
"""

from __future__ import annotations

import json
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
from .estimate import FitConfig, FitResult, mle
from .fisher import DELTA_TAU, SIGMA_DRAWS, FisherEstimate, sigma_hat
from .generators import get_family, tau_inv
from .tree import Cone, HacTree, Hypothesis, local_cones, node_name

__all__ = [
    "ATOM_TOL",
    "NULL_DRAWS",
    "POWER_DRAWS",
    "MIXTURE_SETTINGS",
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
    "detect_setting",
    "fit_pair",
    "run_fitted",
    "run_test",
]

# statistics at or below this are the boundary atom, p-value 1
ATOM_TOL = 1e-8

NULL_DRAWS = 5000       # draws of the simulated limit law per p-value
POWER_DRAWS = 10_000    # Gaussian draws behind a power curve

MIXTURE_SETTINGS = (
    "single-tie",      # p=2, one nest tied to the root
    "twin-pair",       # p=3 twin nests, both tied (intersection)
    "twin-union",      # p=3 twin nests, either tied (union)
    "free-nuisance",   # p=3, one tie plus a strictly separated nuisance
    "tied-nuisance",   # p=3, one tie, nuisance itself at equality
)


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
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise SingularSigmaError(
            "sigma is not positive definite"
        ) from None


def _face_ops(cone: Cone, sigma: np.ndarray):
    """Per-face operators for the equality-constrained quadratics.

    Minimizing (z-y)' Sigma^{-1} (z-y) subject to A y = 0 gives
    y = P z with P = I - Sigma A' (A Sigma A')^- A and objective
    value z' Q z with Q = A' (A Sigma A')^- A.  Both are linear in z,
    so batches of draws reuse the same operators.
    """
    p = cone.p
    eye = np.eye(p)
    ops = []
    for tight in cone.faces():
        rows = [cone.eq] if cone.eq.shape[0] else []
        if tight:
            rows.append(cone.ineq[list(tight)])
        if rows:
            a = np.vstack(rows)
            m = a @ sigma @ a.T
            q_form = a.T @ np.linalg.pinv(m, hermitian=True) @ a
            proj = eye - sigma @ q_form
            rank = int(np.linalg.matrix_rank(a))
        else:
            q_form = np.zeros((p, p))
            proj = eye
            rank = 0
        inactive = [i for i in range(cone.n_ineq) if i not in tight]
        ops.append((tight, q_form, proj, cone.ineq[inactive], rank))
    return ops


def _batch_q(z, ops, tol):
    """Minimal q over feasible faces for a batch of points.

    Ties between faces keep the earlier (coarser) face; faces() yields
    subsets before their supersets, so at a tie the minimal face wins.
    Returns (q, rank of the active rows at the winning face).
    """
    n = z.shape[0]
    best = np.full(n, np.inf)
    best_rank = np.zeros(n, dtype=int)
    for _, q_form, proj, inactive, rank in ops:
        q = np.einsum("ni,ij,nj->n", z, q_form, z)
        if inactive.shape[0]:
            slack = (z @ proj.T) @ inactive.T
            q = np.where(np.all(slack <= tol[:, None], axis=1), q, np.inf)
        take = q < best
        best = np.where(take, q, best)
        best_rank = np.where(take, rank, best_rank)
    if not np.all(np.isfinite(best)):
        raise NumericError("no feasible face found for some points")
    return np.maximum(best, 0.0), best_rank


def project(z, cone: Cone, sigma) -> Projection:
    """Exact projection of z onto the cone under the Sigma metric.

    Solves the equality-constrained quadratic on every face, keeps
    the solutions feasible for the face's inactive inequalities, and
    returns the global best.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (cone.p,):
        raise DomainError(f"z must have shape ({cone.p},)")
    sigma = np.asarray(sigma, dtype=float)
    _chol_pd(sigma)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(z), initial=0.0)))
    best = None
    for tight, q_form, proj, inactive, rank in _face_ops(cone, sigma):
        y = proj @ z
        if inactive.shape[0] and np.any(inactive @ y > tol):
            continue
        q = float(z @ q_form @ z)
        if best is None or q < best[0] - 1e-15:
            best = (max(q, 0.0), y, tight, rank)
    if best is None:
        raise NumericError("no feasible face found")
    q, y, tight, rank = best
    return Projection(z=z, z_star=y, q=q, face=tuple(tight), rank=rank)


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
    tol = 1e-9 * (1.0 + np.max(np.abs(z), axis=1))

    q_full, rank_full = _batch_q(z, _face_ops(cone, sigma), tol)
    q_null = np.full(m, np.inf)
    rank_null = np.zeros(m, dtype=int)
    for c in cones:
        q_c, rank_c = _batch_q(z, _face_ops(c, sigma), tol)
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
    strictly positive and finite-sample valid.
    """
    if statistic < 0.0:
        raise DomainError("statistic must be nonnegative")
    if m < 1000:
        raise DomainError("m must be at least 1000")
    draws = null_statistics(sigma, cone, null_cones, h=h, m=m, seed=seed)
    l_n = 0.0 if statistic <= ATOM_TOL else statistic
    return float(1.0 + np.count_nonzero(draws >= l_n)) / (m + 1.0)


# ====================================================================
# closed-form mixture laws
# ====================================================================

@dataclass(frozen=True)
class MixtureLaw:
    """Chi-bar-squared mixture: weights over chi-squared components.

    A component with zero degrees of freedom is the point mass at 0.
    """

    components: tuple[tuple[float, int], ...]
    beta: float | None = None
    setting: str = ""
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
            "beta": self.beta,
            "setting": self.setting,
            "note": self.note,
        }


def _beta_from_sigma(sigma) -> float:
    # beta in terms of the components of Z itself; the differenced
    # coordinates appearing in the geometric derivation are internal
    # to the projection, not to this formula.
    s = np.asarray(sigma, dtype=float)
    var_diff = s[0, 0] - 2.0 * s[0, 1] + s[1, 1]
    if var_diff <= 0.0:
        raise DomainError("sigma implies Var(Z0 - Z1) <= 0")
    beta = (s[0, 0] - 2.0 * s[0, 1] + s[1, 2]) / var_diff
    if abs(beta) > 1.0 + 1e-6:
        raise DomainError(
            f"beta = {beta:.6g} outside [-1, 1]; sigma lacks the "
            "exchangeable-pair structure this law assumes"
        )
    return float(np.clip(beta, -1.0, 1.0))


def mixture_law(setting: str, sigma=None) -> MixtureLaw:
    """Closed-form limit law for the recognized small structures.

    single-tie and free-nuisance give the half/half mixture of a point
    mass and chi-squared(1) regardless of sigma.  twin-pair mixes in a
    chi-squared(2) with weight depending on beta computed from sigma.
    twin-union returns the half/half law as a conservative reference.
    tied-nuisance requires beta >= 0; below that the geometry has no
    closed form here, use mc_null_pvalue.
    """
    s = setting.lower().strip()
    if s not in MIXTURE_SETTINGS:
        raise DomainError(
            f"unknown setting {setting!r}; one of {MIXTURE_SETTINGS}"
        )
    dim = 2 if s == "single-tie" else 3
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (dim, dim):
            raise DomainError(
                f"setting {s!r} expects a {dim}x{dim} sigma"
            )
    if s in ("single-tie", "free-nuisance"):
        return MixtureLaw(((0.5, 0), (0.5, 1)), setting=s)
    if s == "twin-union":
        return MixtureLaw(
            ((0.5, 0), (0.5, 1)),
            setting=s,
            note="stochastic upper bound when the twin parameters "
            "are equal; exact otherwise",
        )
    if sigma is None:
        raise DomainError(f"setting {s!r} needs sigma to compute beta")
    beta = _beta_from_sigma(sigma)
    if s == "twin-pair":
        gamma0 = math.acos(beta) / (2.0 * math.pi)
    else:  # tied-nuisance
        if beta < 0.0:
            raise DomainError(
                f"tied-nuisance law requires beta >= 0, got {beta:.6g}; "
                "use mc_null_pvalue instead"
            )
        gamma0 = 0.25 + math.acos(beta) / (2.0 * math.pi)
    components = ((gamma0, 0), (0.5, 1), (0.5 - gamma0, 2))
    return MixtureLaw(components, beta=beta, setting=s)


def mixture_pvalue(law: MixtureLaw, statistic: float) -> float:
    """Survival probability of the mixture at the observed statistic."""
    if statistic < 0.0:
        raise DomainError("statistic must be nonnegative")
    if statistic <= ATOM_TOL:
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
    ambiguous: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "nu": self.nu,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "alpha_used": self.alpha_used,
            "effective_size": self.effective_size,
            "ambiguous": list(self.ambiguous),
        }


def conditional_test(
    fit_full: FitResult,
    fit_null: FitResult,
    tree: HacTree,
    alpha: float = 0.05,
    gamma0: float | None = None,
    exact: bool = False,
    tight_tol: float = 1e-6,
) -> ConditionalResult:
    """Reject based on chi-squared(nu) given the region of the full MLE.

    nu counts the null equalities not already active at the full fit;
    with nu = 0 the null is never rejected.  Gaps within a decade of
    the tolerance are reported as ambiguous and counted as active,
    which lowers nu and keeps the decision conservative.  The exact
    variant inflates alpha to alpha/(1 - gamma0).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    atoms = fit_null.branch
    if atoms is None:
        raise DomainError("null fit carries no constrained branch")
    statistic = lrt_statistic(fit_null, fit_full)
    vec = np.asarray(fit_full.theta, dtype=float)
    nu = 0
    ambiguous = []
    for child in atoms:
        gap = vec[tree.param_pos[child]] - vec[tree.param_pos[child[:-1]]]
        if gap > 10.0 * tight_tol:
            nu += 1
        elif gap > tight_tol:
            ambiguous.append(node_name(child))
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
        ambiguous=tuple(ambiguous),
    )


def _internal_nonroot(tree: HacTree):
    return tuple(p for p in tree.internal_paths if p != ())


def hybrid_pvalue(
    fit_full: FitResult,
    fit_null: FitResult,
    tree: HacTree,
    hypothesis: Hypothesis,
    sigma,
    n: int,
    nuisance=None,
    m: int = NULL_DRAWS,
    seed=0,
    tight_tol: float = 1e-6,
) -> float:
    """MC p-value with nuisance gaps folded into the mean of Z.

    The mean is sqrt(n) times the fitted null gap on each nuisance
    coordinate and zero on the constrained ones, while the cones keep
    the nuisance ties in the tight set.  Large gaps push the nuisance
    constraint out of play; zero gaps recover the fully tied geometry.
    """
    if n < 1:
        raise DomainError("n must be positive")
    statistic = lrt_statistic(fit_null, fit_full)
    vec = np.asarray(fit_null.theta, dtype=float)
    branch = fit_null.branch
    if branch is None:
        branch = hypothesis.branches[0]
    constrained = set(branch)
    if nuisance is None:
        nuisance = tuple(
            p for p in _internal_nonroot(tree) if p not in constrained
        )
    else:
        nuisance = tuple(tuple(p) for p in nuisance)
        for p in nuisance:
            if p not in tree.param_pos or p == ():
                raise DomainError(f"unknown nuisance node {p}")
            if p in constrained:
                raise DomainError(
                    f"node {node_name(p)} is constrained, not nuisance"
                )
    pairs = tuple((p[:-1], p) for p in nuisance)
    cone, null_cones = local_cones(
        tree, hypothesis, vec, tight_tol=tight_tol, assume_tight=pairs
    )
    h = np.zeros(tree.p)
    root_n = math.sqrt(n)
    for p in nuisance:
        gap = vec[tree.param_pos[p]] - vec[tree.param_pos[p[:-1]]]
        h[tree.param_pos[p]] = root_n * gap
    return mc_null_pvalue(
        statistic, sigma, cone, null_cones, h=h, m=m, seed=seed
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
    m: int
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
            "m": self.m,
            "seed": self.seed,
        }


def _dtheta_dtau(family: str, tau: float) -> float:
    """Scale mapping a tau-scale shift to the parameter scale."""
    if family == "gumbel":
        return 1.0 / (1.0 - tau) ** 2
    if family == "clayton":
        return 2.0 / (1.0 - tau) ** 2
    fam = get_family(family)
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
    tree=None,
    n_sigma: int = SIGMA_DRAWS,
    m: int = POWER_DRAWS,
    seed: int = 0,
    e=(0.0, 1.0),
    delta_tau: float = DELTA_TAU,
) -> PowerCurve:
    """Monte Carlo power of the single-tie test under local shifts.

    Each tau-scale value h' maps to a mean shift h = h' (dtheta/dtau) e
    of the limiting Gaussian; the test rejects when L exceeds the
    (1 - 2 alpha) quantile of chi-squared(1).  The standard normal
    draws are made once and reused across the grid and across families
    called with the same seed, so curves are directly comparable.
    When sigma is missing it is estimated from n_sigma model draws at
    the exchangeable null of the given tree (default [[1,2],3]);
    delta_tau is the step behind a finite-difference covariance there.
    Families whose tie-point information is unbounded (Joe) only have
    step-regularized covariances, and cross-family comparisons should
    fix a common small delta_tau.
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
    lo_tau = fam.tau(fam.domain.lo) if not fam.domain.lo_open else 0.0
    for h in h_values:
        shifted = tau + h * float(np.max(e))
        if not lo_tau <= shifted < 1.0 or tau + h * float(np.min(e)) < lo_tau:
            raise DomainError(
                f"tau shift {h} leaves the attainable range at tau={tau}"
            )

    if sigma is None:
        hac = tree if isinstance(tree, HacTree) else HacTree(tree or [[1, 2], 3])
        if hac.p != 2:
            raise DomainError("default sigma needs a two-parameter tree")
        theta = tau_inv(fam, tau)
        est = sigma_hat(
            None,
            hac,
            family,
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
    chol = _chol_pd(sigma)

    cone = Cone(2, ineq=np.array([[1.0, -1.0]]))
    null_cone = Cone(2, eq=np.array([[1.0, -1.0]]))
    ops_full = _face_ops(cone, sigma)
    ops_null = _face_ops(null_cone, sigma)
    c_alpha = float(stats.chi2.ppf(1.0 - 2.0 * alpha, 1))
    scale = _dtheta_dtau(family, tau)
    var_diff = sigma[0, 0] + sigma[1, 1] - 2.0 * sigma[0, 1]

    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, 2)) @ chol.T
    power = []
    atom = []
    for h in h_values:
        z = base + (scale * h) * e
        tol = 1e-9 * (1.0 + np.max(np.abs(z), axis=1))
        q_full, _ = _batch_q(z, ops_full, tol)
        q_null, _ = _batch_q(z, ops_null, tol)
        draws = np.maximum(q_null - q_full, 0.0)
        power.append(float(np.mean(draws > c_alpha)))
        # P(L = 0) = P(Z0 >= Z1), Gaussian with mean h1 - h0
        mean_diff = scale * h * (e[1] - e[0])
        atom.append(float(stats.norm.cdf(0.0, loc=mean_diff,
                                         scale=math.sqrt(var_diff))))
    return PowerCurve(
        family=family,
        tau=tau,
        h_values=h_values,
        power=tuple(power),
        atom=tuple(atom),
        c_alpha=c_alpha,
        alpha=alpha,
        theta_scale=scale,
        m=m,
        seed=seed,
    )


# ====================================================================
# structural detection and the orchestrated test
# ====================================================================

def detect_setting(
    tree: HacTree,
    hypothesis: Hypothesis,
    theta_null=None,
    tight_tol: float = 1e-6,
) -> str | None:
    """Match the tree and hypothesis to a known mixture setting.

    Detection is structural: a two-level tree, the count and shapes of
    the root's nests, and which ties the hypothesis demands.  The
    nuisance settings additionally need the fitted null to decide
    whether the free nest sits strictly above the root parameter;
    without theta_null they are not recognized.  Returns None when no
    closed-form law applies.
    """
    hypothesis.check_against(tree)
    if not tree.is_two_level():
        return None
    nests = tuple(
        c for c in tree.children(()) if not isinstance(c, int)
    )
    branches = hypothesis.branches
    if tree.p == 2 and len(nests) == 1:
        if len(branches) == 1 and tuple(branches[0]) == (nests[0],):
            return "single-tie"
        return None
    if tree.p != 3 or len(nests) != 2:
        return None
    first, second = nests
    twins = tree.n_leaves(first) == tree.n_leaves(second)
    both = tuple(sorted(nests))
    if len(branches) == 2 and twins:
        atom_sets = {tuple(b) for b in branches}
        if atom_sets == {(first,), (second,)}:
            return "twin-union"
        return None
    if len(branches) != 1:
        return None
    atoms = tuple(sorted(branches[0]))
    if atoms == both and twins:
        return "twin-pair"
    if len(atoms) == 1 and atoms[0] in nests:
        if theta_null is None:
            return None
        vec = np.asarray(theta_null, dtype=float)
        other = second if atoms[0] == first else first
        gap = vec[tree.param_pos[other]] - vec[tree.param_pos[()]]
        return "tied-nuisance" if gap <= tight_tol else "free-nuisance"
    return None


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
    setting: str | None = None
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
            "setting": self.setting,
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


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

    A full fit that ends below the null fit raises NumericError here,
    before any reference law is consulted.
    """
    fit_full = mle(rows, tree, family, config=config)
    fit_null = mle(rows, tree, family, hypothesis=hypothesis, config=config)
    return FitPair(
        rows=rows,
        tree=tree,
        family=family,
        hypothesis=hypothesis,
        fit_full=fit_full,
        fit_null=fit_null,
        statistic=lrt_statistic(fit_null, fit_full),
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
    nuisance=None,
    ridge: bool = False,
) -> LrtResult:
    """Pick the reference law for a fitted pair and report the test.

    method "mixture" uses the closed-form law when the structure is
    recognized and otherwise falls back to the Monte Carlo null with a
    warning.  "mc" always simulates the limit law at the fitted null.
    "conditional" compares against chi-squared(nu) given where the
    full MLE landed, and "hybrid" folds fitted nuisance gaps into the
    mean of the simulated limit.  sigma_seed feeds the covariance
    draws and mc_seed the simulated null.
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

    setting = detect_setting(hac, hyp, fit_null.theta)
    law = None
    cones = None
    conditional = None
    warning = None
    conservative = False
    used = method
    m_used = None

    if method == "mixture" and setting is None:
        warning = (
            "structure not recognized for a closed-form law; "
            "falling back to the Monte Carlo null"
        )
        warnings.warn(warning)
        used = "mc"

    if used == "mixture":
        needs_sigma = setting in ("twin-pair", "tied-nuisance")
        law = mixture_law(setting, get_sigma().sigma if needs_sigma else None)
        p_value = mixture_pvalue(law, statistic)
        conservative = setting == "twin-union"
    elif used == "mc":
        cone, null_cones = local_cones(hac, hyp, fit_null.theta)
        cones = (cone, null_cones)
        p_value = mc_null_pvalue(
            statistic, get_sigma().sigma, cone, null_cones,
            m=m, seed=mc_seed,
        )
        m_used = m
    elif used == "conditional":
        gamma0 = None
        if setting is not None and (exact or setting in
                                    ("single-tie", "free-nuisance",
                                     "twin-union")):
            needs_sigma = setting in ("twin-pair", "tied-nuisance")
            law = mixture_law(
                setting, get_sigma().sigma if needs_sigma else None
            )
            gamma0 = law.components[0][0]
        conditional = conditional_test(
            fit_full, fit_null, hac,
            alpha=alpha, gamma0=gamma0, exact=exact,
        )
        p_value = conditional.p_value
    else:  # hybrid
        p_value = hybrid_pvalue(
            fit_full, fit_null, hac, hyp, get_sigma().sigma,
            n=pair.rows.shape[0], nuisance=nuisance, m=m, seed=mc_seed,
        )
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
        setting=setting,
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
    nuisance=None,
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
        n_sigma=n_sigma, m=m, exact=exact, nuisance=nuisance, ridge=ridge,
    )
    return replace(
        result, seeds={"root": seed, "sigma": "spawn(0)", "mc": "spawn(1)"}
    )
