"""Constrained maximum-likelihood estimation over the parameter cone.

Fits run in a gap parameterization x = (theta of the root group, one
nonnegative gap per remaining group), which turns the nesting cone
theta_parent <= theta_child into a box for L-BFGS-B.  Equality
hypotheses merge nodes into groups before fitting; union hypotheses fit
each branch separately and keep the best one.

A fit descends first from the Kendall-tau start.  When that descent
converges to a gradient larger than its rounding error could hide, it
is the fit; otherwise the perturbed starts run, and the best of every
start that finished wins.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import kendalltau

from .density import (
    log_density,
    log_density_and_derivs,
    two_level_spec,
)
from .errors import ConvergenceError, DomainError, NumericError
from .generators import get_family
from .tree import (HacTree, Hypothesis, check_theta, node_name, tie_classes,
                   tight_edges)

__all__ = [
    "FitConfig",
    "FitResult",
    "ParamGroups",
    "loglik",
    "merge_groups",
    "mle",
]

Path = tuple[int, ...]

# objective value returned when the density evaluation fails; large but
# finite so the line search can recover by backtracking
_PENALTY = 1e10

MAXITER = 500
GTOL = 1e-6         # projected-gradient sup norm, mean loglik
FTOL = 1e-10        # relative loglik change
JITTER = 0.08       # tau-scale sd of the perturbed starts
THETA_HI = 1e4
TAU_HI = 0.999
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FitConfig:
    """n_perturbed counts the fallback starts, run in order only when the
    Kendall-tau start does not converge; seed fixes their draws."""

    n_perturbed: int = 4
    seed: int = 1777            # internal; refits are bit-reproducible


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    loglik: float
    converged: bool
    n_starts: int
    active: tuple[str, ...]
    grad_norm: float
    start_logliks: tuple[float, ...] = ()
    branch: tuple[Path, ...] | None = None
    warm: bool = False          # ran from a caller-given start

    def to_dict(self) -> dict:
        return {
            "theta": [float(t) for t in self.theta],
            "loglik": self.loglik,
            "converged": self.converged,
            "n_starts": self.n_starts,
            "active": list(self.active),
            "grad_norm": self.grad_norm,
            "start_logliks": list(self.start_logliks),
            "warm": self.warm,
            "branch": None
            if self.branch is None
            else [node_name(a) for a in self.branch],
        }


@dataclass(frozen=True)
class ParamGroups:
    """Partition of the internal nodes induced by equality constraints.

    Groups are connected subtrees, listed so that a group's quotient
    parent always precedes it; the root group comes first.
    """

    tree: HacTree
    groups: tuple[tuple[Path, ...], ...]
    parent: tuple[int, ...]     # quotient parent index, -1 at the root

    @property
    def g(self) -> int:
        return len(self.groups)

    def expand(self, values) -> np.ndarray:
        theta = np.empty(self.tree.p)
        for gi, members in enumerate(self.groups):
            for path in members:
                theta[self.tree.param_pos[path]] = values[gi]
        return theta

    def reduce_grad(self, grad_theta) -> np.ndarray:
        out = np.zeros(self.g)
        for gi, members in enumerate(self.groups):
            for path in members:
                out[gi] += grad_theta[self.tree.param_pos[path]]
        return out

    def from_x(self, x) -> np.ndarray:
        th = np.empty(self.g)
        for gi in range(self.g):
            p = self.parent[gi]
            th[gi] = x[gi] if p < 0 else th[p] + x[gi]
        return th

    def to_x(self, group_theta) -> np.ndarray:
        x = np.empty(self.g)
        for gi in range(self.g):
            p = self.parent[gi]
            x[gi] = group_theta[gi] if p < 0 else group_theta[gi] - group_theta[p]
        return x

    def grad_to_x(self, grad_groups) -> np.ndarray:
        # d theta_g / d x_j = 1 iff j is an ancestor-or-self of g, so the
        # x-gradient at j is the subtree sum; accumulate children upward
        out = np.array(grad_groups, dtype=float)
        for gi in range(self.g - 1, 0, -1):
            out[self.parent[gi]] += out[gi]
        return out


def merge_groups(tree: HacTree, atoms: tuple[Path, ...] = ()) -> ParamGroups:
    """Partition tying each atom node to its direct parent."""
    for child in atoms:
        if child not in tree or child[:-1] not in tree:
            raise DomainError(f"atom {node_name(child)} not an internal edge")
    top = tie_classes(tree, [(child[:-1], child) for child in atoms])
    buckets: dict[Path, list[Path]] = {}
    for p in tree.internal_paths:       # preorder, so buckets sort themselves
        buckets.setdefault(top[p], []).append(p)
    groups = tuple(tuple(v) for v in buckets.values())
    idx = {p: gi for gi, members in enumerate(groups) for p in members}
    par = tuple(
        -1 if members[0] == () else idx[members[0][:-1]] for members in groups
    )
    return ParamGroups(tree, groups, par)


def loglik(data, tree: HacTree, family: str, theta) -> float:
    """Sum of the log-density over rows."""
    spec = two_level_spec(tree, family, theta)
    return float(np.sum(log_density(spec, np.asarray(data, dtype=float))))


# --- starting values ------------------------------------------------------


def _box_lo(fam) -> float:
    return fam.domain.lo if not fam.domain.lo_open else 1e-4


def _tau_matrix(data) -> np.ndarray:
    """Kendall's tau of every pair of columns of data."""
    d = data.shape[1]
    taus = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            taus[i, j] = taus[j, i] = kendalltau(
                data[:, i], data[:, j]
            ).statistic
    taus.flags.writeable = False        # shared by the fits of one dataset
    return taus


def _lazy_taus(data):
    """A function giving data's tau matrix, computed on its first call."""
    return functools.cache(functools.partial(_tau_matrix, data))


def _group_taus(taus, tree: HacTree, pg: ParamGroups) -> np.ndarray:
    """Mean pairwise tau per group, pooling pairs with their LCA inside."""
    which = {p: gi for gi, members in enumerate(pg.groups) for p in members}
    sums = np.zeros(pg.g)
    cnts = np.zeros(pg.g)
    for a in range(1, tree.d + 1):
        for b in range(a + 1, tree.d + 1):
            t = taus[a - 1, b - 1]
            if np.isfinite(t):
                gi = which[tree.lca(a, b)]
                sums[gi] += t
                cnts[gi] += 1
    return sums / np.maximum(cnts, 1.0)


def _theta_from_taus(fam, taus_g, lo, hi, tau_hi) -> np.ndarray:
    tau_floor = fam.tau(lo)
    out = np.empty(len(taus_g))
    for gi, t in enumerate(taus_g):
        t = min(max(t, tau_floor), tau_hi)
        th = lo if t <= tau_floor else fam.tau_inv(t)
        out[gi] = min(max(th, lo), hi)
    return out


def _project_cone(pg: ParamGroups, group_theta, lo, hi) -> np.ndarray:
    th = np.clip(np.asarray(group_theta, dtype=float), lo, hi)
    for gi in range(pg.g):
        p = pg.parent[gi]
        if p >= 0 and th[gi] < th[p]:
            th[gi] = th[p]
    return th


def _starts(taus, tree, fam, pg, lo, hi, cfg: FitConfig):
    """The Kendall-tau start, then the perturbed ones, each made on demand:
    a fit whose first start converges inverts tau once per group.  taus()
    gives the data's tau matrix."""
    base = _group_taus(taus(), tree, pg)
    rng = np.random.default_rng(cfg.seed)
    for r in range(1 + cfg.n_perturbed):
        taus_g = base if r == 0 else base + rng.normal(0.0, JITTER, pg.g)
        th = _theta_from_taus(fam, taus_g, lo, hi, TAU_HI)
        yield pg.to_x(_project_cone(pg, th, lo, hi))


# --- optimizer ------------------------------------------------------------


def _objective(data, tree, family, pg, analytic):
    spec = None
    last = (None, np.inf)       # last analytic gradient's point and noise

    def fun(x):
        nonlocal spec, last
        theta = pg.expand(pg.from_x(x))
        # extreme probes overflow to non-finite logliks; the penalty
        # branch absorbs them, so mute the float warnings here
        try:
            with np.errstate(all="ignore"):
                # the tree is walked once per fit; later evaluations swap
                # in theta, which with_theta checks
                spec = (
                    two_level_spec(tree, family, theta) if spec is None
                    else spec.with_theta(theta)
                )
                if analytic:
                    ld, sc, _ = log_density_and_derivs(spec, data, order=1)
                    val = -float(np.mean(ld))
                    if not np.isfinite(val):
                        return _PENALTY, np.zeros_like(x)
                    g = pg.reduce_grad(-sc.mean(axis=0))
                    if not np.all(np.isfinite(g)):
                        return _PENALTY, np.zeros_like(x)
                    scale = pg.reduce_grad(np.abs(sc).mean(axis=0))
                    last = (x.copy(), _EPS * float(pg.grad_to_x(scale).max()))
                    return val, pg.grad_to_x(g)
                val = -float(np.mean(log_density(spec, data)))
                return val if np.isfinite(val) else _PENALTY
        except (DomainError, NumericError):
            return (_PENALTY, np.zeros_like(x)) if analytic else _PENALTY

    def grad_noise(x) -> float:
        """Rounding bound on the gradient's sup norm at x: the scores
        summed into it, times the unit roundoff.  Known only where the
        last analytic gradient was taken (inf elsewhere); numeric
        gradients count as exact."""
        if not analytic:
            return 0.0
        return last[1] if np.array_equal(last[0], x) else np.inf

    fun.grad_noise = grad_noise
    return fun


def _projected_sup_norm(grad, at_lo, at_hi) -> float:
    """Sup norm of the gradient left after projecting onto the box: a
    coordinate on its lower (upper) bound counts only a descent
    direction that points into the box."""
    return float(np.max(np.where(
        at_lo, np.maximum(-grad, 0.0),
        np.where(at_hi, np.maximum(grad, 0.0), np.abs(grad)),
    )))


def _fit_branch(data, tree, family, atoms, cfg: FitConfig, start, taus):
    pg = merge_groups(tree, atoms)
    fam = get_family(family)
    lo = _box_lo(fam)
    hi = min(fam.tau_inv(TAU_HI), THETA_HI)
    analytic = fam.analytic
    fun = _objective(data, tree, family, pg, analytic)
    bounds = [(lo, hi)] + [(0.0, hi - lo)] * (pg.g - 1)

    if start is None:
        x0s = _starts(taus, tree, fam, pg, lo, hi, cfg)
    else:
        x0s = [pg.to_x([start[tree.param_pos[m[0]]] for m in pg.groups])]
    fits, fails = [], []
    for r, x0 in enumerate(x0s):
        try:
            res = minimize(
                fun,
                x0,
                jac=True if analytic else None,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": MAXITER, "ftol": FTOL, "gtol": GTOL},
            )
        except (DomainError, NumericError, FloatingPointError) as err:
            fails.append(str(err))
            continue
        if not np.isfinite(res.fun) or res.fun >= 0.5 * _PENALTY:
            fails.append(str(res.message))
            continue
        fits.append(res)
        # the Kendall-tau start is the fit once it converges to a gradient
        # that rounding cannot hide: at a tie, huge per-node scores can
        # cancel to a zero gradient far from the optimum
        if r == 0 and res.success and fun.grad_noise(res.x) <= GTOL:
            break
    n_starts = len(fits) + len(fails)
    if not fits:
        raise ConvergenceError(f"all {n_starts} starts failed: {fails}")

    best = min(fits, key=lambda r: r.fun)
    theta = pg.expand(pg.from_x(best.x))
    # a group is on its lower bound when theta sits on the domain edge
    # (the root group) or its top node's edge is tight
    tight = tight_edges(tree, theta)
    tops = [members[0] for members in pg.groups]
    at_lo = [best.x[0] <= lo] + [(top[:-1], top) in tight for top in tops[1:]]
    grad = np.atleast_1d(np.asarray(best.jac, dtype=float))
    gnorm = _projected_sup_norm(grad, at_lo, best.x >= [b[1] for b in bounds])
    active = [
        f"{node_name(top)}=lo" if gi == 0
        else f"{node_name(top)}={node_name(top[:-1])}"
        for gi, top in enumerate(tops) if at_lo[gi]
    ]
    ll = loglik(data, tree, family, theta)
    start_lls = tuple(
        float(-r.fun * data.shape[0]) for r in fits
    )
    return FitResult(
        theta=theta,
        loglik=ll,
        converged=bool(best.success) and gnorm <= GTOL,
        n_starts=n_starts,
        active=tuple(active),
        grad_norm=gnorm,
        start_logliks=start_lls,
        branch=tuple(atoms) if atoms else None,
        warm=start is not None,
    )


def mle(
    data,
    tree: HacTree,
    family: str,
    hypothesis: Hypothesis | None = None,
    config: FitConfig = FitConfig(),
    start=None,
    *,
    _taus=None,
) -> FitResult:
    """Best local maximum of the likelihood over Theta (or its subset).

    With a hypothesis, equality atoms are substituted by parameter
    merging; union branches are solved independently and the best
    branch wins, ties broken toward fewer merges.  Each fit runs
    L-BFGS-B from the Kendall-tau start and stops there when it
    converges (to a gradient its rounding error cannot hide); otherwise
    the config's perturbed starts run in turn and the best start that
    finished wins.  start, a parameter vector in
    Theta (``tree.check_theta``), replaces all of them with one start
    there (the result is marked warm); each group starts at the value of
    its top node.  A fit counts as converged when L-BFGS-B reports
    success and its projected gradient is within GTOL.

    The Kendall-tau matrix is computed at most once per call; fit_pair
    hands its fits one function, _taus, that computes it once for all.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != tree.d:
        raise DomainError(
            f"data must be (n, {tree.d}), got {data.shape}"
        )
    if not np.all((data > 0.0) & (data < 1.0)):
        raise DomainError("data rows must lie strictly inside the unit cube")
    if data.shape[0] < tree.p + 1:
        raise DomainError(
            f"need at least p+1 = {tree.p + 1} rows, got {data.shape[0]}"
        )
    if start is not None:
        start = check_theta(tree, family, start)
    taus = _taus or _lazy_taus(data)
    if hypothesis is None:
        return _fit_branch(data, tree, family, (), config, start, taus)

    hypothesis.check_against(tree)
    results = [
        _fit_branch(data, tree, family, branch, config, start, taus)
        for branch in hypothesis.branches
    ]
    best_ll = max(r.loglik for r in results)
    tol = 1e-9 * (1.0 + abs(best_ll))
    tied = [r for r in results if r.loglik >= best_ll - tol]
    return min(tied, key=lambda r: len(r.branch))
