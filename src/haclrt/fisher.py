"""Fisher information: analytic, finite-difference, and Monte Carlo routes.

The finite-difference scheme works on the Kendall scale: each node gets
a step delta* = tau_inv(tau(theta) - delta_tau) - theta, and directions
are chosen per node so every stencil point stays inside the parameter
cone (backward on parents of tight constraints, forward on children,
central where there is room on both sides).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .density import (
    clamp_unit,
    hessian,
    log_density,
    two_level_spec,
)
from .errors import DomainError, NumericError, SchemeError, SingularSigmaError
from .generators import get_family
from .sampler import sample
from .tree import HacTree, check_theta, node_name, tie_classes, tight_edges

__all__ = [
    "DELTA_TAU",
    "SCAN_DRAWS",
    "SIGMA_DRAWS",
    "DetScan",
    "FdScheme",
    "FisherEstimate",
    "determinant_scan",
    "fd_hessian",
    "fd_hessian_fn",
    "fd_scheme",
    "kendall_step",
    "sigma_hat",
]

Path = tuple[int, ...]

EIG_RTOL = 1e-10        # smallest/largest eigenvalue cutoff for inversion
RIDGE_SCALE = 1e-8      # optional ridge, times trace/p
DELTA_TAU = 0.005       # Kendall-scale finite-difference step
SIGMA_DRAWS = 100_000   # model draws behind a Monte Carlo covariance
SCAN_DRAWS = 10_000     # model draws per determinant-scan cell


def kendall_step(
    family: str, theta: float, delta_tau: float = DELTA_TAU
) -> float:
    """Negative-side theta step matching a delta_tau drop in Kendall tau;
    tau_inv raises past the attainable range."""
    fam = get_family(family)
    if delta_tau == 0.0:
        return 0.0
    return float(fam.tau_inv(fam.tau(theta) - delta_tau) - theta)


def _step_magnitude(fam, theta: float, delta_tau: float) -> float:
    try:
        return abs(kendall_step(fam.name, theta, delta_tau))
    except DomainError:
        # at the lower tau edge only the upward map is available
        return float(fam.tau_inv(fam.tau(theta) + delta_tau) - theta)


@dataclass(frozen=True)
class FdScheme:
    steps: np.ndarray        # positive step magnitudes, one per node
    directions: np.ndarray   # -1 backward, 0 central, +1 forward
    labels: tuple[str, ...]


def fd_scheme(
    tree: HacTree,
    family: str,
    theta,
    delta_tau: float = DELTA_TAU,
) -> FdScheme:
    if delta_tau <= 0.0:
        raise DomainError("delta_tau must be positive")
    fam = get_family(family)
    vec = check_theta(tree, fam, theta)
    p = tree.p
    steps = np.array([_step_magnitude(fam, v, delta_tau) for v in vec])

    lock_down = np.zeros(p, dtype=bool)
    lock_up = np.zeros(p, dtype=bool)
    for par, ch in tight_edges(tree, vec):
        lock_up[tree.param_pos[par]] = True
        lock_down[tree.param_pos[ch]] = True
    lock_down |= vec <= fam.domain.lo

    down = np.empty(p)
    up = np.empty(p)
    for path, i in tree.param_pos.items():
        floor = fam.domain.lo
        if len(path) > 0:
            floor = max(floor, vec[tree.param_pos[path[:-1]]])
        down[i] = vec[i] - floor
        kids = [
            vec[tree.param_pos[c]]
            for c in tree.children(path)
            if not isinstance(c, int)
        ]
        up[i] = min(kids) - vec[i] if kids else math.inf

    # steps are capped at half the free margin so every stencil point,
    # including the 2h diagonal reach and paired central offsets, lands
    # inside the closed cone (worst case exactly on a tie)
    directions = np.zeros(p, dtype=int)
    for i, path in enumerate(tree.internal_paths):
        if lock_down[i] and lock_up[i]:
            raise SchemeError(
                f"node {node_name(path)} is pinned on both sides; "
                "shift the evaluation point first"
            )
        if lock_down[i]:
            directions[i] = 1
            steps[i] = min(steps[i], up[i] / 2.0)
        elif lock_up[i]:
            directions[i] = -1
            steps[i] = min(steps[i], down[i] / 2.0)
        else:
            directions[i] = 0
            steps[i] = min(steps[i], down[i] / 2.0, up[i] / 2.0)
        if not steps[i] > 0.0:
            raise SchemeError(
                f"node {node_name(path)} has no room for a difference step"
            )
    labels = tuple(node_name(path) for path in tree.internal_paths)
    return FdScheme(steps, directions, labels)


def fd_hessian_fn(fn, theta, scheme: FdScheme, feasible=None) -> np.ndarray:
    """Second-difference Hessian of a scalar function of theta.

    Off-diagonals are products of one-sided or central first differences
    (the four-point mixed stencil); diagonals use the matching
    three-point second difference in the same direction.
    """
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    cache: dict[tuple, float] = {}

    def ev(x, who):
        key = tuple(x)
        if key not in cache:
            if feasible is not None and not feasible(x):
                raise SchemeError(
                    f"evaluation point for node {who} leaves the parameter space"
                )
            cache[key] = float(fn(x))
        return cache[key]

    ops = []
    for j in range(p):
        s, d = float(scheme.steps[j]), int(scheme.directions[j])
        if d > 0:
            ops.append(((s, 1.0 / s), (0.0, -1.0 / s)))
        elif d < 0:
            ops.append(((0.0, 1.0 / s), (-s, -1.0 / s)))
        else:
            ops.append(((s, 0.5 / s), (-s, -0.5 / s)))

    H = np.empty((p, p))
    for i in range(p):
        s, d = float(scheme.steps[i]), int(scheme.directions[i])
        who = scheme.labels[i]
        x = theta.copy()
        if d == 0:
            x[i] = theta[i] + s
            hi = ev(x, who)
            x[i] = theta[i] - s
            lo = ev(x, who)
            H[i, i] = (hi - 2.0 * ev(theta, who) + lo) / s**2
        else:
            sg = s if d > 0 else -s
            x[i] = theta[i] + 2.0 * sg
            far = ev(x, who)
            x[i] = theta[i] + sg
            near = ev(x, who)
            H[i, i] = (far - 2.0 * near + ev(theta, who)) / s**2
    for i in range(p):
        for j in range(i + 1, p):
            who = f"{scheme.labels[i]}/{scheme.labels[j]}"
            acc = 0.0
            for ai, wi in ops[i]:
                for aj, wj in ops[j]:
                    x = theta.copy()
                    x[i] += ai
                    x[j] += aj
                    acc += wi * wj * ev(x, who)
            H[i, j] = H[j, i] = acc
    return H


def fd_hessian(
    data,
    tree: HacTree,
    family: str,
    theta,
    delta_tau: float = DELTA_TAU,
    scheme: FdScheme | None = None,
) -> np.ndarray:
    """Mean over rows of the second-difference log-density Hessian."""
    rows = np.asarray(getattr(data, "values", data), dtype=float)
    vec = check_theta(tree, family, theta)
    if scheme is None:
        scheme = fd_scheme(tree, family, vec, delta_tau)

    def fn(th):
        spec = two_level_spec(tree, family, th)
        return float(np.mean(log_density(spec, rows)))

    def feasible(th):
        try:
            check_theta(tree, family, th)
        except DomainError:
            return False
        return True

    return fd_hessian_fn(fn, vec, scheme, feasible=feasible)


# --- sigma ---------------------------------------------------------------


@dataclass(frozen=True)
class FisherEstimate:
    info: np.ndarray
    sigma: np.ndarray
    at: str
    source: str
    n_source: int
    method: str
    steps: tuple[float, ...] | None
    cond: float
    ridged: bool = False

    def to_dict(self) -> dict:
        return {
            "info": self.info.tolist(),
            "sigma": self.sigma.tolist(),
            "at": self.at,
            "source": self.source,
            "n_source": self.n_source,
            "method": self.method,
            "steps": None if self.steps is None else list(self.steps),
            "cond": self.cond,
            "ridged": self.ridged,
        }


def _subtree_shape(tree: HacTree, path: Path):
    return tuple(
        0 if isinstance(c, int) else _subtree_shape(tree, c)
        for c in tree.children(path)
    )


def _sibling_swaps(tree: HacTree, atoms) -> list[tuple[int, ...]]:
    """Parameter permutations swapping tied, same-shape sibling subtrees."""
    top = tie_classes(tree, [(a[:-1], a) for a in atoms])
    swaps = []
    for parent in tree.internal_paths:
        internal_kids = [
            c for c in tree.children(parent) if not isinstance(c, int)
        ]
        for a, b in combinations(internal_kids, 2):
            if _subtree_shape(tree, a) != _subtree_shape(tree, b):
                continue
            sub_a = [p for p in tree.internal_paths if p[: len(a)] == a]
            pairs = [(q, b + q[len(a):]) for q in sub_a]
            if any(top[q] != top[q2] for q, q2 in pairs):
                continue
            perm = list(range(tree.p))
            for q, q2 in pairs:
                i, j = tree.param_pos[q], tree.param_pos[q2]
                perm[i], perm[j] = j, i
            swaps.append(tuple(perm))
    return swaps


def _enforce_equalities(info: np.ndarray, tree: HacTree, atoms) -> np.ndarray:
    """Average info over the group the sibling swaps generate.

    The group average of entry (i, j) is its mean over its orbit, the
    pairs (g_i, g_j) the group maps it to.  Every swap is its own inverse,
    so spreading the smallest flat index i*p + j along the swaps until
    nothing changes labels the orbits without listing the group.
    """
    swaps = _sibling_swaps(tree, atoms)
    if not swaps:
        return info
    p = tree.p
    g = np.asarray(swaps)
    moves = (g[:, :, None] * p + g[:, None, :]).reshape(len(swaps), -1)
    label, last = np.arange(p * p), None
    while not np.array_equal(label, last):
        last = label
        for mv in moves:
            label = np.minimum(label, label[mv])
    orbit = np.unique(label, return_inverse=True)[1]
    mean = np.bincount(orbit, weights=info.ravel()) / np.bincount(orbit)
    return mean[orbit].reshape(info.shape)


def sigma_hat(
    data,
    tree: HacTree,
    family: str,
    theta,
    at: str = "bullet",
    source: str = "observed",
    method: str | None = None,
    n_mc: int = SIGMA_DRAWS,
    seed: int = 0,
    atoms: tuple[Path, ...] = (),
    ridge: bool = False,
    delta_tau: float = DELTA_TAU,
) -> FisherEstimate:
    """Estimated information and its inverse at a fitted point.

    source "observed" averages over the data rows; "mc" draws n_mc fresh
    rows from the model at theta.  With atoms set (evaluation under the
    merged null), entry equalities implied by swapping tied same-shape
    sibling subtrees are enforced by group averaging.  theta, and atoms as
    nesting edges, are checked before any draw or stencil.
    """
    vec = check_theta(tree, family, theta)
    tie_classes(tree, [(a[:-1], a) for a in atoms])     # checks the atoms
    fam = get_family(family)
    if method is None:
        method = "analytic" if fam.analytic else "fd"
    if method not in ("analytic", "fd"):
        raise DomainError(f"unknown method {method!r}")
    if source == "mc":
        rows = clamp_unit(sample(tree, vec, family, n_mc, seed=seed).values)
    elif source == "observed":
        rows = np.asarray(getattr(data, "values", data), dtype=float)
        if rows.ndim != 2 or rows.shape[1] != tree.d:
            raise DomainError(f"data must be (n, {tree.d}), got {rows.shape}")
    else:
        raise DomainError(f"unknown source {source!r}")

    steps = None
    if method == "analytic":
        if not fam.analytic:
            raise DomainError(
                f"{fam.name}: no analytic hessian; use method='fd'"
            )
        spec = two_level_spec(tree, family, vec)
        mean_hess = hessian(spec, rows).mean(axis=0)
    else:
        scheme = fd_scheme(tree, family, vec, delta_tau)
        steps = tuple(float(s) for s in scheme.steps)
        mean_hess = fd_hessian(rows, tree, family, vec, scheme=scheme)

    info = -0.5 * (mean_hess + mean_hess.T)
    if atoms:
        info = _enforce_equalities(info, tree, atoms)

    ridged = False
    w = np.linalg.eigvalsh(info)
    if w[0] <= EIG_RTOL * max(w[-1], 0.0):
        if not ridge:
            raise SingularSigmaError(
                f"information is not positive definite (eig {w[0]:.3g} "
                f"vs {w[-1]:.3g})"
            )
        info = info + np.eye(tree.p) * RIDGE_SCALE * np.trace(info) / tree.p
        ridged = True
        w = np.linalg.eigvalsh(info)
        if w[0] <= EIG_RTOL * max(w[-1], 0.0):
            raise SingularSigmaError("information singular even after ridge")
    sigma = np.linalg.inv(info)
    return FisherEstimate(
        info=info,
        sigma=sigma,
        at=at,
        source="mc" if source == "mc" else "observed",
        n_source=rows.shape[0],
        method=method,
        steps=steps,
        cond=float(w[-1] / w[0]),
        ridged=ridged,
    )


# --- determinant scan -----------------------------------------------------


@dataclass(frozen=True)
class DetScan:
    family: str
    origin: float
    offsets: np.ndarray
    dets: np.ndarray        # dets[i, j] at theta = (o + off[i], o + off[j])
    n_mc: int

    @property
    def all_positive(self) -> bool:
        vals = self.dets[np.isfinite(self.dets)]
        return bool(vals.size and np.all(vals > 0.0))

    def rows(self):
        for i, x0 in enumerate(self.offsets):
            for j, x1 in enumerate(self.offsets):
                if j >= i:
                    yield (
                        self.origin + float(x0),
                        self.origin + float(x1),
                        float(self.dets[i, j]),
                    )


def determinant_scan(
    family: str,
    offsets=None,
    n_mc: int = SCAN_DRAWS,
    seed: int = 0,
    tree: HacTree | None = None,
    delta_tau: float = DELTA_TAU,
) -> DetScan:
    """det(sigma) on a grid hugging the cone origin, fd + Monte Carlo."""
    fam = get_family(family)
    if offsets is None:
        offsets = np.linspace(0.25, 2.0, 8)
    offsets = np.asarray(offsets, dtype=float)
    tree = tree if tree is not None else HacTree([[1, 2], 3])
    if tree.p != 2:
        raise DomainError("the scan grid is over two-parameter trees")
    o = fam.domain.lo
    m = offsets.size
    dets = np.full((m, m), np.nan)
    for i, x0 in enumerate(offsets):
        for j, x1 in enumerate(offsets):
            if x1 < x0:
                continue
            th = (o + float(x0), o + float(x1))
            cell_seed = np.random.SeedSequence(seed, spawn_key=(i, j))
            try:
                rows = clamp_unit(
                    sample(tree, th, family, n_mc, seed=cell_seed).values
                )
                mean_hess = fd_hessian(
                    rows, tree, family, th, delta_tau=delta_tau
                )
            except (SchemeError, NumericError):
                continue
            info = -0.5 * (mean_hess + mean_hess.T)
            det_info = float(np.linalg.det(info))
            # det(sigma) = 1/det(info); sign kept so failures are visible
            dets[i, j] = 1.0 / det_info if det_info != 0.0 else np.nan
    return DetScan(
        family=family,
        origin=o,
        offsets=offsets,
        dets=dets,
        n_mc=n_mc,
    )
