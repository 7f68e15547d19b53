"""Exact sampling from HACs through the nested frailty construction.

The root frailty V_0 has the Laplace transform psi_0 (Gamma for Clayton,
positive stable for Gumbel, logarithmic for Frank, Sibuya for Joe).  Each
internal child of a node with frailty V draws an inner frailty whose
conditional Laplace transform is exp(-V * phi_parent(psi_child(t))), and
leaves attached to a node with frailty V set U = psi_node(E / V) with
unit exponentials E.

Frank and Joe inner frailties are integer compounds: a sum of V i.i.d.
counts, each drawn exactly by rejection (Frank) or by inverting the
Sibuya survival function (Joe).  The number of summands is random with a
heavy tail, so compound sampling enforces a realized-draw budget and
raises UnsupportedNestingError instead of approximating when a
configuration blows past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln
from scipy.stats import rankdata

from .errors import DomainError, UnsupportedNestingError
from .generators import _log1mexp, get_family
from .tree import HacTree, check_theta, collapse

__all__ = ["SampleBatch", "sample", "pseudo_obs", "MAX_COMPOUND_DRAWS"]

# realized-draw budget for one compound level across all rows
MAX_COMPOUND_DRAWS = 200_000_000


@dataclass(frozen=True)
class SampleBatch:
    """Rows from C_theta together with the provenance needed to replay them."""

    values: np.ndarray
    seed: object
    family: str
    tree: list
    theta: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


# ====================================================================
# elementary frailty distributions
# ====================================================================

def _positive_stable(rng, alpha: float, size: int) -> np.ndarray:
    """One-sided stable S with E exp(-s S) = exp(-s^alpha), Kanter's method."""
    if alpha >= 1.0:
        return np.ones(size)
    u = np.clip(rng.random(size), 1e-16, 1.0 - 1e-16)
    e = rng.exponential(size=size)
    pu = math.pi * u
    log_a = (
        np.log(np.sin((1.0 - alpha) * pu))
        + alpha / (1.0 - alpha) * np.log(np.sin(alpha * pu))
        - 1.0 / (1.0 - alpha) * np.log(np.sin(pu))
    )
    return np.exp((1.0 - alpha) / alpha * (log_a - np.log(e)))


def _tilted_stable(rng, alpha: float, v: np.ndarray) -> np.ndarray:
    """Entrywise draw with Laplace transform exp(-v ((1+s)^alpha - 1)).

    Chunked rejection: v splits into ceil(v) pieces so each chunk's
    acceptance probability exp(-(v/m)) stays above 1/e.
    """
    if alpha >= 1.0:
        return np.array(v, dtype=float)
    v = np.asarray(v, dtype=float)
    m = np.maximum(1, np.ceil(v)).astype(np.int64)
    scale = np.repeat((v / m) ** (1.0 / alpha), m)
    row = np.repeat(np.arange(v.size), m)
    out = np.empty(scale.size)
    pending = np.arange(scale.size)
    while pending.size:
        cand = scale[pending] * _positive_stable(rng, alpha, pending.size)
        keep = rng.random(pending.size) <= np.exp(-cand)
        out[pending[keep]] = cand[keep]
        pending = pending[~keep]
    return np.bincount(row, weights=out, minlength=v.size)


def _log_series(rng, lam: float, size: int) -> np.ndarray:
    """Logarithmic(p) with p = 1 - exp(-lam); Kemp's second generator.

    Returns float counts: beyond 2^53 the count only ever feeds a
    frailty ratio, and the compound budget rejects it long before.
    """
    p = -math.expm1(-lam)
    u = np.clip(rng.random(size), 1e-300, 1.0)
    out = np.ones(size)
    go = u <= p
    ngo = int(go.sum())
    if ngo:
        v = rng.random(ngo)
        with np.errstate(divide="ignore"):
            lnq = _log1mexp(v * lam)          # log(1 - (1-p)^v) < 0
            lnu = np.log(u[go])
            k = np.ones(ngo)
            small = lnu < 2.0 * lnq
            k[small] = np.floor(1.0 + lnu[small] / lnq[small])
        k[(~small) & (lnu <= lnq)] = 2.0
        out[go] = k
    return out


_SIBUYA_TABLE_SIZE = 1 << 16

# draws per slice of a large compound level: bounds the temporaries of
# one level at a few slices instead of several arrays of every draw
_SLICE = 1 << 20


@lru_cache(maxsize=16)
def _sibuya_log_surv_table(alpha: float) -> np.ndarray:
    k = np.arange(1, _SIBUYA_TABLE_SIZE + 1, dtype=float)
    return gammaln(k + 1.0 - alpha) - gammaln(1.0 - alpha) - gammaln(k + 1.0)


def _sibuya(rng, alpha: float, size: int) -> np.ndarray:
    """Sibuya(alpha) by exact inversion of the survival function.

    P(K > k) = Gamma(k+1-alpha) / (Gamma(1-alpha) Gamma(k+1)) is
    inverted against a precomputed table for the bulk, integer bisection
    above it, and the asymptotic inverse beyond 2^53 where it is exact
    to double precision.  The uniforms are drawn in slices, which leaves
    the stream (and so every draw) as one call would give it.
    """
    if alpha >= 1.0:
        return np.ones(size)
    neg_table = -_sibuya_log_surv_table(alpha)   # ascending in k
    out = np.empty(size)
    for lo in range(0, size, _SLICE):
        lnw = np.log(np.clip(rng.random(min(_SLICE, size - lo)), 1e-300, 1.0))
        idx = np.searchsorted(neg_table, -lnw, side="left")
        piece = out[lo:lo + lnw.size]
        piece[:] = idx + 1
        tail = idx == neg_table.size
        if tail.any():
            piece[tail] = _sibuya_tail(alpha, lnw[tail])
    return out


def _sibuya_tail(alpha: float, lnw: np.ndarray) -> np.ndarray:
    lgn = gammaln(1.0 - alpha)

    def log_surv(k):
        return gammaln(k + 1.0 - alpha) - lgn - gammaln(k + 1.0)

    cap = float(2**53)
    guess = np.exp(np.minimum(-(lnw + lgn) / alpha, math.log(cap)))
    hi = np.minimum(np.maximum(float(_SIBUYA_TABLE_SIZE) * 2.0, np.ceil(guess)), cap)
    grow = np.arange(lnw.size)
    while grow.size:
        need = (log_surv(hi[grow]) > lnw[grow]) & (hi[grow] < cap)
        grow = grow[need]
        hi[grow] = np.minimum(hi[grow] * 4.0, cap)
    asym = log_surv(hi) > lnw
    lo = np.where(asym, hi, float(_SIBUYA_TABLE_SIZE) + 1.0)
    open_ = np.where(lo < hi)[0]
    while open_.size:
        mid = np.floor((lo[open_] + hi[open_]) / 2.0)
        le = log_surv(mid) <= lnw[open_]
        hi[open_[le]] = mid[le]
        lo[open_[~le]] = mid[~le] + 1.0
        open_ = open_[lo[open_] < hi[open_]]
    return np.where(asym, np.exp(-(lnw + lgn) / alpha), lo)


def _frank_inner_count(rng, alpha: float, th_child: float, size: int) -> np.ndarray:
    """One summand of the Frank inner compound.

    pmf proportional to the Sibuya(alpha) pmf damped by c^k with
    c = 1 - exp(-th_child).  Two exact rejection envelopes: a
    logarithmic envelope accepted with the Sibuya survival ratio (good
    for small parent parameters), or a Sibuya envelope accepted with
    probability c^K (acceptance 1 - exp(-th_parent), good for large).
    """
    lnc = float(_log1mexp(np.asarray(th_child)))
    use_sibuya = alpha * th_child > 1.0
    lgn = gammaln(1.0 - alpha)
    out = None
    pending = None                  # None: every entry, in the first round
    k = size
    while k:
        if use_sibuya:
            cand = _sibuya(rng, alpha, k)
        else:
            cand = _log_series(rng, th_child, k)
        keep = np.empty(k, dtype=bool)
        for lo in range(0, k, _SLICE):
            c = cand[lo:lo + _SLICE]
            if use_sibuya:
                lacc = c * lnc
            else:
                lacc = gammaln(c - alpha) - lgn - gammaln(c)
            with np.errstate(divide="ignore"):
                keep[lo:lo + c.size] = np.log(rng.random(c.size)) <= lacc
        if pending is None:
            out = cand
            pending = np.flatnonzero(~keep)
        else:
            out[pending[keep]] = cand[keep]
            pending = pending[~keep]
        k = pending.size
    return np.empty(0) if out is None else out


def _compound(rng, v, draw_one, what: str) -> np.ndarray:
    """Sum of v i.i.d. counts per entry, within MAX_COMPOUND_DRAWS."""
    v = np.asarray(v, dtype=float)
    total = float(v.sum())
    if not np.isfinite(total) or total > MAX_COMPOUND_DRAWS:
        raise UnsupportedNestingError(
            f"{what}: compound inner frailty needs ~{total:.3g} draws, "
            f"over the budget of {MAX_COMPOUND_DRAWS}; this nesting cannot "
            "be sampled exactly at this parameter value"
        )
    counts = v.astype(np.int64)
    xs = draw_one(rng, int(counts.sum()))
    # sum the draws of whole entries, about one slice at a time: each
    # entry's sum is then added left to right, as one bincount over all
    # draws would add it
    ends = np.cumsum(counts)
    out = np.zeros(v.size)
    lo = start = 0
    while lo < v.size:
        hi = max(int(np.searchsorted(ends, start + _SLICE, side="right")),
                 lo + 1)
        row = np.repeat(np.arange(hi - lo), counts[lo:hi])
        out[lo:hi] = np.bincount(row, weights=xs[start:ends[hi - 1]],
                                 minlength=hi - lo)
        lo, start = hi, int(ends[hi - 1])
    return out


# ====================================================================
# nested construction
# ====================================================================

def _root_frailty(fam_name: str, theta: float, n: int, rng) -> np.ndarray:
    if fam_name == "clayton":
        return np.maximum(rng.gamma(1.0 / theta, size=n), 1e-308)
    if fam_name == "gumbel":
        return _positive_stable(rng, 1.0 / theta, n)
    if fam_name == "frank":
        return _log_series(rng, theta, n)
    return _sibuya(rng, 1.0 / theta, n)


def _inner_frailty(fam_name, th_parent, th_child, v, rng):
    alpha = th_parent / th_child
    if fam_name == "gumbel":
        return v ** (1.0 / alpha) * _positive_stable(rng, alpha, v.shape[0])
    if fam_name == "clayton":
        return _tilted_stable(rng, alpha, v)
    if fam_name == "frank":
        return _compound(
            rng, v, lambda r, m: _frank_inner_count(r, alpha, th_child, m),
            "frank",
        )
    return _compound(rng, v, lambda r, m: _sibuya(r, alpha, m), "joe")


def sample(
    tree,
    theta,
    family,
    n: int,
    seed,
) -> SampleBatch:
    """n i.i.d. rows from the HAC C_theta; columns follow leaf labels.

    theta may sit on the boundary of the parameter cone: tied nodes are
    collapsed before sampling.  Reproducible given (seed, tree, theta, n).
    """
    fam = get_family(family)
    tree = tree if isinstance(tree, HacTree) else HacTree(tree)
    vec = check_theta(tree, fam, theta)
    if n < 1:
        raise DomainError("need n >= 1 rows")

    ctree, cvec = collapse(tree, vec)
    theta_of = dict(zip(ctree.internal_paths, cvec))
    rng = np.random.default_rng(seed)
    out = np.empty((n, tree.d))

    def walk(path, frailty):
        th = theta_of[path]
        for child in ctree.children(path):
            if isinstance(child, int):
                e = rng.exponential(size=n)
                with np.errstate(divide="ignore", over="ignore"):
                    out[:, child - 1] = fam.psi(th, e / frailty)
            else:
                inner = _inner_frailty(
                    fam.name, th, theta_of[child], frailty, rng
                )
                walk(child, inner)

    walk((), _root_frailty(fam.name, float(cvec[0]), n, rng))
    np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=out)
    return SampleBatch(
        values=out,
        seed=seed,
        family=fam.name,
        tree=tree.to_nested(),
        theta=tuple(float(x) for x in vec),
    )


def pseudo_obs(data) -> np.ndarray:
    """Column-wise average ranks over (n+1); the margins-free ingest path."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DomainError("need a 2-d array with at least two rows")
    if not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    for j in range(x.shape[1]):
        if np.all(x[:, j] == x[0, j]):
            raise DomainError(f"column {j} is constant; ranks are undefined")
    return rankdata(x, axis=0, method="average") / (x.shape[0] + 1)
