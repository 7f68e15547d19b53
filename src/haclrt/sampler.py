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
configuration blows past it.  Most summands are 1: one streaming pass
per rejection round draws them in slices and keeps only the summands
above 1, so the time of a level still grows with its number of
summands, but its memory grows only with the summands above 1.
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


def _seed_sequence(seed, spawn_key=()) -> np.random.SeedSequence:
    """SeedSequence(seed, spawn_key): the one check of a seed's value.

    A seed numpy refuses (negative, fractional, not a number) raises
    DomainError.
    """
    try:
        return np.random.SeedSequence(seed, spawn_key=spawn_key)
    except (TypeError, ValueError):
        raise DomainError(
            f"seed must be a nonnegative integer, got {seed!r}") from None


def _rng(seed) -> np.random.Generator:
    """default_rng(seed), through _seed_sequence unless seed is already a
    Generator, BitGenerator or SeedSequence; the stream is the same."""
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator,
                         np.random.SeedSequence)):
        return np.random.default_rng(seed)
    return np.random.default_rng(_seed_sequence(seed))


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


# ====================================================================
# integer counts, streamed: a count level keeps only its draws above 1
# ====================================================================

_SIBUYA_TABLE_SIZE = 1 << 16

# uniforms per slice of a large count level: a slice is the largest
# temporary of a level, whatever its number of draws
_SLICE = 1 << 20

# floats add integers exactly below 2^53
_EXACT = 2.0**53

# relative distance from a log comparison's threshold beyond which a
# uniform is on a known side of it: np.log errs by a few ulp, far less
_MARGIN = 2.0**-30


def _uniform_slices(rng, size: int):
    """(lo, w) for rng.random(size) taken in slices of at most _SLICE.

    The slices consume the stream as one call would.  w is a view of one
    buffer that the next slice overwrites.
    """
    buf = np.empty(min(size, _SLICE))
    for lo in range(0, size, _SLICE):
        w = buf[:min(_SLICE, size - lo)]
        rng.random(out=w)
        yield lo, w


def _joined(pos: list, val: list) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated (positions, values), in ascending position."""
    if not pos:
        return np.empty(0, dtype=np.int64), np.empty(0)
    pos, val = np.concatenate(pos), np.concatenate(val)
    order = np.argsort(pos, kind="stable")
    return pos[order], val[order]


def _dense(size: int, sparse) -> np.ndarray:
    out = np.ones(size)
    pos, val = sparse
    out[pos] = val
    return out


def _log_series_sparse(rng, lam: float, size: int):
    """The draws above 1 of `size` Logarithmic(p) draws, p = 1 - exp(-lam).

    Kemp's second generator: one uniform u per draw, then one uniform v
    per draw with u <= p, the rest being 1.  Returns ascending positions
    and float counts: beyond 2^53 a count only ever feeds a frailty
    ratio, and the compound budget rejects it long before.
    """
    p = -math.expm1(-lam)
    go, lnu = [], []
    for lo, u in _uniform_slices(rng, size):
        g = np.flatnonzero(u <= p)
        go.append(g + lo)
        lnu.append(np.log(np.clip(u[g], 1e-300, 1.0)))
    go, lnu = _joined(go, lnu)
    pos, val = [], []
    for lo, v in _uniform_slices(rng, go.size):
        ln_u = lnu[lo:lo + v.size]
        with np.errstate(divide="ignore"):
            lnq = _log1mexp(v * lam)          # log(1 - (1-p)^v) < 0
            k = np.ones(v.size)
            small = ln_u < 2.0 * lnq
            k[small] = np.floor(1.0 + ln_u[small] / lnq[small])
        k[(~small) & (ln_u <= lnq)] = 2.0
        more = np.flatnonzero(k > 1.0)
        pos.append(go[lo + more])
        val.append(k[more])
    return _joined(pos, val)


def _log_series(rng, lam: float, size: int) -> np.ndarray:
    """Logarithmic(p) with p = 1 - exp(-lam), as float counts."""
    return _dense(size, _log_series_sparse(rng, lam, size))


@lru_cache(maxsize=16)
def _sibuya_log_surv_table(alpha: float) -> np.ndarray:
    k = np.arange(1, _SIBUYA_TABLE_SIZE + 1, dtype=float)
    return gammaln(k + 1.0 - alpha) - gammaln(1.0 - alpha) - gammaln(k + 1.0)


def _sibuya_sparse(rng, alpha: float, size: int):
    """The draws above 1 of `size` Sibuya(alpha) draws, by exact inversion.

    P(K > k) = Gamma(k+1-alpha) / (Gamma(1-alpha) Gamma(k+1)) is
    inverted against a precomputed table for the bulk, integer bisection
    above it, and the asymptotic inverse beyond 2^53 where it is exact
    to double precision.  A draw is 1 when -log w <= table[0]; a uniform
    w at or above `sure` is on that side, so only the draws below it are
    logged and looked up.  Returns ascending positions and values.
    """
    if alpha >= 1.0:
        return _joined([], [])
    neg_table = -_sibuya_log_surv_table(alpha)   # ascending in k
    sure = math.exp(-neg_table[0]) * (1.0 + _MARGIN)
    pos, val = [], []
    for lo, w in _uniform_slices(rng, size):
        near = np.flatnonzero(w < sure)
        lnw = np.log(np.clip(w[near], 1e-300, 1.0))
        idx = np.searchsorted(neg_table, -lnw, side="left")
        more = np.flatnonzero(idx)
        k = idx[more] + 1.0
        tail = idx[more] == neg_table.size
        if tail.any():
            k[tail] = _sibuya_tail(alpha, lnw[more[tail]])
        pos.append(near[more] + lo)
        val.append(k)
    return _joined(pos, val)


def _sibuya(rng, alpha: float, size: int) -> np.ndarray:
    """Sibuya(alpha) draws, 1 for alpha >= 1."""
    return _dense(size, _sibuya_sparse(rng, alpha, size))


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


def _frank_sparse(rng, alpha: float, th_child: float, size: int):
    """The summands above 1 of `size` summands of the Frank inner compound.

    pmf proportional to the Sibuya(alpha) pmf damped by c^k with
    c = 1 - exp(-th_child).  Two exact rejection envelopes: a
    logarithmic envelope accepted with the Sibuya survival ratio (good
    for small parent parameters), or a Sibuya envelope accepted with
    probability c^K (acceptance 1 - exp(-th_parent), good for large).
    Each round draws a candidate for every pending summand, then one
    acceptance uniform each; the rejected ones are pending in the next
    round, in ascending order.  A candidate of 1 is accepted when
    log w <= log c (Sibuya envelope) or log w <= 0 (logarithmic), so
    only its uniforms near that threshold are logged.
    """
    lnc = float(_log1mexp(np.asarray(th_child)))
    use_sibuya = alpha * th_child > 1.0
    lgn = gammaln(1.0 - alpha)
    lacc_one = lnc if use_sibuya else 0.0
    sure = math.exp(lacc_one) * (1.0 - _MARGIN)
    pos, val = [], []
    pending = None                  # None: every summand, in the first round
    k = size
    while k:
        if use_sibuya:
            cpos, cval = _sibuya_sparse(rng, alpha, k)
            lacc = cval * lnc
        else:
            cpos, cval = _log_series_sparse(rng, th_child, k)
            lacc = gammaln(cval - alpha) - lgn - gammaln(cval)
        keep = np.empty(cpos.size, dtype=bool)
        rejected = []
        for lo, w in _uniform_slices(rng, k):
            a, b = np.searchsorted(cpos, (lo, lo + w.size))
            mine = cpos[a:b] - lo
            with np.errstate(divide="ignore"):
                keep[a:b] = np.log(w[mine]) <= lacc[a:b]
            w[mine] = 0.0           # spent: the scan for rejected 1s skips them
            ones = np.flatnonzero(w >= sure)
            rejected.append(ones[np.log(w[ones]) > lacc_one] + lo)
        rejected = np.sort(np.concatenate([cpos[~keep], *rejected]))
        pos.append(cpos[keep] if pending is None else pending[cpos[keep]])
        val.append(cval[keep])
        pending = rejected if pending is None else pending[rejected]
        k = pending.size
    return _joined(pos, val)


def _ordered_sum(off: np.ndarray, x: np.ndarray, count: int) -> float:
    """The left-to-right float sum of `count` summands, each 1 but x at
    the ascending offsets off, as one bincount over them all adds it.

    Partial sums are exact integers until one reaches 2^53.  Ones added
    to a partial sum below 2^53 stop at 2^53; from 2^53 on, a run of ones
    moves it by its first addition at most (s + 1 rounds to even, and
    then back).
    """
    cum = np.cumsum(x - 1.0)
    part = off + 1.0 + cum              # the sum through each x
    over = np.flatnonzero(part >= _EXACT)
    if not over.size:
        return _EXACT                   # the trailing ones reach 2^53
    j = over[0]
    seq = np.empty(2 * (x.size - j) + 1)
    seq[0] = min(off[j] + (cum[j - 1] if j else 0.0), _EXACT)
    seq[1::2] = x[j:]
    seq[2::2] = np.diff(off[j:], append=count) > 1
    return float(np.cumsum(seq)[-1])    # cumsum adds in order


def _compound(rng, v, draw_sparse, what: str) -> np.ndarray:
    """Sum of v i.i.d. counts per entry, within MAX_COMPOUND_DRAWS.

    draw_sparse(rng, m) gives the counts above 1 of m draws, as ascending
    positions and values.  Draw i belongs to the entry whose cumulative
    count first exceeds i.  Each entry is its number of counts plus
    sum(value - 1) over its counts above 1: integers, so this is the
    left-to-right float sum while it stays below 2^53.  An entry that
    reaches 2^53 is summed in order by _ordered_sum.
    """
    v = np.asarray(v, dtype=float)
    total = float(v.sum())
    if not np.isfinite(total) or total > MAX_COMPOUND_DRAWS:
        raise UnsupportedNestingError(
            f"{what}: compound inner frailty needs ~{total:.3g} draws, "
            f"over the budget of {MAX_COMPOUND_DRAWS}; this nesting cannot "
            "be sampled exactly at this parameter value"
        )
    counts = v.astype(np.int64)
    pos, val = draw_sparse(rng, int(counts.sum()))
    ends = np.cumsum(counts)
    entry = np.searchsorted(ends, pos, side="right")
    out = counts + np.bincount(entry, weights=val - 1.0, minlength=v.size)
    for i in np.flatnonzero(out >= _EXACT):
        a, b = np.searchsorted(entry, (i, i + 1))
        out[i] = _ordered_sum(pos[a:b] - (ends[i] - counts[i]), val[a:b],
                              int(counts[i]))
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
            rng, v, lambda r, m: _frank_sparse(r, alpha, th_child, m), "frank"
        )
    return _compound(rng, v, lambda r, m: _sibuya_sparse(r, alpha, m), "joe")


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
    rng = _rng(seed)
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
    """Column-wise average ranks over (n+1); the margins-free ingest path.

    The tests' p-values and covariances still assume known margins.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DomainError("need a 2-d array with at least two rows")
    if not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    for j in range(x.shape[1]):
        if np.all(x[:, j] == x[0, j]):
            raise DomainError(f"column {j} is constant; ranks are undefined")
    return rankdata(x, axis=0, method="average") / (x.shape[0] + 1)
