"""Constrained maximum-likelihood estimation over the parameter cone.

Fits run in a gap parameterization x = (theta of the root, one
nonnegative gap per remaining node), which turns the nesting cone
theta_parent <= theta_child into a box for L-BFGS-B.  A hypothesis
branch is fitted as the collapsed tree: a nest tied to its parent is
that parent with the nest's children attached (``tree.quotient``), so
the branch is the free model of that smaller tree, and its score comes
straight from the density.  Union hypotheses fit each branch
separately and keep the best one.

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

from .density import (
    log_density,
    log_density_and_derivs,
    two_level_spec,
)
from .errors import ConvergenceError, DomainError, NumericError
from .generators import get_family
from .sampler import _seed_sequence
from .tree import (HacTree, Hypothesis, check_theta, node_name, quotient,
                   tie_classes, tight_edges)

__all__ = [
    "FitConfig",
    "FitResult",
    "loglik",
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

    def __post_init__(self):
        _seed_sequence(self.seed)


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


class _Gaps:
    """The gap map of a tree: x holds the root's theta, then
    theta_child - theta_parent for every other node, in preorder."""

    def __init__(self, tree: HacTree):
        self.up = tuple(
            tree.param_pos[p[:-1]] if p else -1 for p in tree.internal_paths
        )
        self.p = tree.p

    def from_x(self, x) -> np.ndarray:
        th = np.empty(self.p)
        for i, par in enumerate(self.up):
            th[i] = x[i] if par < 0 else th[par] + x[i]
        return th

    def to_x(self, theta) -> np.ndarray:
        x = np.empty(self.p)
        for i, par in enumerate(self.up):
            x[i] = theta[i] if par < 0 else theta[i] - theta[par]
        return x

    def grad_to_x(self, grad_theta) -> np.ndarray:
        # d theta_i / d x_j = 1 iff j is an ancestor-or-self of i, so the
        # x-gradient at j is the subtree sum; accumulate children upward
        out = np.array(grad_theta, dtype=float)
        for i in range(self.p - 1, 0, -1):
            out[self.up[i]] += out[i]
        return out


def loglik(data, tree: HacTree, family: str, theta) -> float:
    """Sum of the log-density over rows."""
    spec = two_level_spec(tree, family, theta)
    return float(np.sum(log_density(spec, np.asarray(data, dtype=float))))


# --- starting values ------------------------------------------------------


def _box_lo(fam) -> float:
    return fam.domain.lo if not fam.domain.lo_open else 1e-4


def _tied_pairs(s) -> np.ndarray:
    """Pairs of equal entries in each row of s, whose rows are sorted."""
    idx = np.arange(s.shape[1])
    new = np.ones(s.shape, dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    start = np.maximum.accumulate(np.where(new, idx, 0), axis=1)
    return (idx - start).sum(axis=1)


def _inversions(y) -> np.ndarray:
    """Strict inversions, pairs a < b with y_a > y_b, in each row of y.

    y holds ranks below its row length n.  The rows are padded with the
    rank n, which is never above a later entry, and cut into blocks of
    at most 16 whose inversions are counted by comparing all their
    pairs.  Bottom-up merge levels follow: at each, a right block's
    count is its left partner's size minus the left entries <= each of
    its entries, found by one searchsorted over all left blocks at once,
    whose entries are made one sorted array by adding (n + 1) times the
    block index.
    """
    rows, n = y.shape
    levels = max(0, (n - 1).bit_length() - 4)
    w = -(-n // 2**levels)                  # bottom block length
    size = w << levels
    blocks = np.full((rows, size), n, dtype=np.int64)
    blocks[:, :n] = y
    bottom = blocks.reshape(rows, -1, w)
    later = np.triu(np.ones((w, w), dtype=bool), 1)
    dis = ((bottom[..., :, None] > bottom[..., None, :]) & later).sum(
        axis=(1, 2, 3))
    blocks = np.sort(bottom, axis=-1).reshape(rows, size)
    for level in range(levels):
        if level:       # merge the sorted halves of each block
            blocks = np.sort(blocks.reshape(rows, -1, w), axis=-1,
                             kind="stable").reshape(rows, size)
        nb = size // (2 * w)
        pair = blocks.reshape(rows, nb, 2, w)
        block = np.arange(rows * nb, dtype=np.int64).reshape(rows, nb, 1)
        left = (pair[:, :, 0] + block * (n + 1)).ravel()
        right = (pair[:, :, 1] + block * (n + 1)).ravel()
        le = np.searchsorted(left, right, side="right").reshape(rows, nb, w)
        dis += nb * w * w - (le - block * w).sum(axis=(1, 2))
        w *= 2
    return dis


def _tau_matrix(data) -> np.ndarray:
    """Kendall's tau-b of every pair of columns of data, in one pass.

    Each column is ranked once, as dense ranks.  For every pair (i, j)
    the rows are ordered by (x_i, x_j), and the discordant pairs are the
    strict inversions of x_j's ranks in that order.  The tau is formed
    as scipy.stats.kendalltau forms it, so the two agree bit for bit,
    ties included: (tot - xtie - ytie + ntie - 2 dis), over
    sqrt(tot - xtie) and then sqrt(tot - ytie), clipped to [-1, 1]; a
    constant column gives NaN.
    """
    n, d = data.shape
    order = np.argsort(data, axis=0)
    ordered = np.take_along_axis(data, order, axis=0)
    new = np.ones((n, d), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    dense = np.cumsum(new, axis=0) - 1      # dense ranks, in column order
    ranks = np.empty((n, d), dtype=np.int64)
    np.put_along_axis(ranks, order, dense, axis=0)
    ties = _tied_pairs(dense.T)
    i, j = np.triu_indices(d, 1)
    # rows in x_i order, so the stable sort only orders the ties in x_i
    by_i = order[:, i]
    keys = np.sort((ranks[by_i, i] * n + ranks[by_i, j]).T, axis=1,
                   kind="stable")
    dis = _inversions(keys % n)
    tot = n * (n - 1) // 2
    x_pairs, y_pairs = tot - ties[i], tot - ties[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = ((x_pairs + y_pairs - tot + _tied_pairs(keys)
                - 2 * dis).astype(float)
               / np.sqrt(x_pairs.astype(float))
               / np.sqrt(y_pairs.astype(float)))
    tau = np.clip(tau, -1.0, 1.0)
    tau[(x_pairs == 0) | (y_pairs == 0)] = np.nan
    taus = np.zeros((d, d))
    taus[i, j] = taus[j, i] = tau
    taus.flags.writeable = False        # shared by the fits of one dataset
    return taus


def _lazy_taus(data):
    """A function giving data's tau matrix, computed on its first call."""
    return functools.cache(functools.partial(_tau_matrix, data))


def _node_taus(taus, tree: HacTree) -> np.ndarray:
    """Mean pairwise tau per node, pooling the pairs whose LCA it is."""
    sums = np.zeros(tree.p)
    cnts = np.zeros(tree.p)
    for a in range(1, tree.d + 1):
        for b in range(a + 1, tree.d + 1):
            t = taus[a - 1, b - 1]
            if np.isfinite(t):
                i = tree.param_pos[tree.lca(a, b)]
                sums[i] += t
                cnts[i] += 1
    return sums / np.maximum(cnts, 1.0)


def _theta_from_taus(fam, node_taus, lo, hi, tau_hi) -> np.ndarray:
    tau_floor = fam.tau(lo)
    out = np.empty(len(node_taus))
    for i, t in enumerate(node_taus):
        t = min(max(t, tau_floor), tau_hi)
        th = lo if t <= tau_floor else fam.tau_inv(t)
        out[i] = min(max(th, lo), hi)
    return out


def _project_cone(gaps: _Gaps, theta, lo, hi) -> np.ndarray:
    th = np.clip(np.asarray(theta, dtype=float), lo, hi)
    for i, par in enumerate(gaps.up):
        if par >= 0 and th[i] < th[par]:
            th[i] = th[par]
    return th


def _starts(taus, tree, fam, gaps, lo, hi, cfg: FitConfig):
    """The Kendall-tau start, then the perturbed ones, each made on demand:
    a fit whose first start converges inverts tau once per node.  taus()
    gives the data's tau matrix."""
    base = _node_taus(taus(), tree)
    rng = np.random.default_rng(cfg.seed)
    for r in range(1 + cfg.n_perturbed):
        node_taus = base if r == 0 else base + rng.normal(0.0, JITTER, tree.p)
        th = _theta_from_taus(fam, node_taus, lo, hi, TAU_HI)
        yield gaps.to_x(_project_cone(gaps, th, lo, hi))


# --- optimizer ------------------------------------------------------------


def _objective(data, tree, family, gaps):
    spec = None
    last = (None, np.inf)       # last gradient's point and noise

    def fun(x):
        nonlocal spec, last
        theta = gaps.from_x(x)
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
                ld, sc, _ = log_density_and_derivs(spec, data, order=1)
                val = -float(np.mean(ld))
                if not np.isfinite(val):
                    return _PENALTY, np.zeros_like(x)
                g = -sc.mean(axis=0)
                if not np.all(np.isfinite(g)):
                    return _PENALTY, np.zeros_like(x)
                scale = np.abs(sc).mean(axis=0)
                last = (x.copy(), _EPS * float(gaps.grad_to_x(scale).max()))
                return val, gaps.grad_to_x(g)
        except (DomainError, NumericError):
            return _PENALTY, np.zeros_like(x)

    def grad_noise(x) -> float:
        """Rounding bound on the gradient's sup norm at x: the scores
        summed into it, times the unit roundoff.  Known only where the
        last gradient was taken (inf elsewhere)."""
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
    # the branch is the free model of the tree with its atoms contracted
    edges = [(child[:-1], child) for child in atoms]
    ctree, keep = quotient(tree, edges)
    gaps = _Gaps(ctree)
    fam = get_family(family)
    lo = _box_lo(fam)
    hi = min(fam.tau_inv(TAU_HI), THETA_HI)
    fun = _objective(data, ctree, family, gaps)
    bounds = [(lo, hi)] + [(0.0, hi - lo)] * (ctree.p - 1)

    if start is None:
        x0s = _starts(taus, ctree, fam, gaps, lo, hi, cfg)
    else:
        x0s = [gaps.to_x(start[[tree.param_pos[k] for k in keep]])]
    fits, fails = [], []
    for r, x0 in enumerate(x0s):
        try:
            res = minimize(
                fun,
                x0,
                jac=True,
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
        # that rounding cannot hide: where a start puts a free nest on a
        # tie, huge per-node scores can cancel to a zero gradient far from
        # the optimum
        if r == 0 and res.success and fun.grad_noise(res.x) <= GTOL:
            break
    n_starts = len(fits) + len(fails)
    if not fits:
        raise ConvergenceError(f"all {n_starts} starts failed: {fails}")

    best = min(fits, key=lambda r: r.fun)
    ctheta = gaps.from_x(best.x)
    # a node is on its lower bound when theta sits on the domain edge
    # (the root) or its edge is tight
    tight = tight_edges(ctree, ctheta)
    at_lo = [best.x[0] <= lo] + [
        (q[:-1], q) in tight for q in ctree.internal_paths[1:]
    ]
    grad = np.atleast_1d(np.asarray(best.jac, dtype=float))
    gnorm = _projected_sup_norm(grad, at_lo, best.x >= [b[1] for b in bounds])
    active = [
        f"{node_name(k)}=lo" if i == 0
        else f"{node_name(k)}={node_name(k[:-1])}"
        for i, k in enumerate(keep) if at_lo[i]
    ]
    top = tie_classes(tree, edges)
    theta = ctheta[[keep.index(top[p]) for p in tree.internal_paths]]
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

    With a hypothesis, each union branch is fitted as the free model of
    the tree with the branch's atoms contracted (``tree.quotient``), and
    its estimate is mapped back to one parameter per original node; the
    best branch wins, ties broken toward fewer atoms.  Each fit runs
    L-BFGS-B from the Kendall-tau start and stops there when it
    converges (to a gradient its rounding error cannot hide); otherwise
    the config's perturbed starts run in turn and the best start that
    finished wins.  start, a parameter vector in
    Theta (``tree.check_theta``), replaces all of them with one start
    there (the result is marked warm); each contracted node starts at the
    value of its topmost original node.  A fit counts as converged when L-BFGS-B reports
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
