"""Two-level HAC log-density with exact gradient and Hessian in theta.

The density of a two-level HAC with root generator psi_0 and non-leaf
children s = 1..m is

    c(u) = (-1)^d { sum_k b_k(t(u)) psi_0^(k)(t(u)) } B2(u),
    b_k(t) = sum_{q in Q} prod_s a_{s,q_s}(t_s),
    B2(u)  = prod_s prod_j (-phi_s'(u_sj)) * prod_l (-phi_0'(u_l)),

where t_s sums phi_s over child s's coordinates, t(u) sums the
child-to-root reparameterizations h_s(t_s) = phi_0(psi_s(t_s)) plus the
root-leaf phi_0 terms, and k runs from the root's child count K to d.

One evaluation, ``_eval``, serves every family.  Per child it computes
t_s and the B2 factors; a child hook, the only family-specific step,
then returns h_s and the child's a-table.  For Clayton and Gumbel,
``_child_table`` gives a_{s,q}(t) = s_{d_s,q}(x_s) (gamma^theta_s + t)^e
with x_s = theta_0/theta_s and e = q x_s - d_s, and its theta-derivatives,
on log scale with one scale factor omega_s per child.  Every score and
Hessian term is then a ratio of same-sign scaled sums, which stays finite
and correct at exact parameter ties (x_s = 1, where a_{s,q} = 0 for
q < d_s).  Other families (Frank, Joe) use ``_bell_table``: h_s
derivatives by implicit recursion and a_{s,q} as partial Bell
polynomials, values only, so "analytic" names the Clayton/Gumbel
theta-suite.  All children then enter B = prod_s a_s with its first and
second theta-derivatives, one forward product of second-order jets
(``_b_jet``); the root's log-scale psi_0^(k) column is read once, and
``_psi_sum`` does the per-row shift, the compensated sum over k and the
sign check.  Every generator formula comes from the family object in
``generators``.

Every per-row polynomial table (the a-tables and their jets, B and its
derivatives) is stored coefficient-major, as an (L, n) array with one
contiguous row per coefficient, so each coefficient update is one
contiguous pass.  ``log_density_and_derivs`` evaluates the rows in blocks
of ``ROW_BLOCK`` and concatenates the results, which keeps those tables
cache-sized.  Two rules keep every row's numbers bit-identical to one
pass over all rows: no block holds a single row (a trailing one joins
the block before it), and every block starts at a multiple of
``ROW_BLOCK``.  Both exist for the matrix-vector products of Gumbel's psi
column: BLAS takes another path for a single row, and its unrolled
kernels group rows by offset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .generators import GeneratorFamily, get_family, s_nk_table
from .tree import HacTree

__all__ = [
    "TwoLevelSpec",
    "two_level_spec",
    "log_density",
    "score",
    "hessian",
    "log_density_and_derivs",
    "clamp_unit",
    "UNIT_CLAMP",
]

UNIT_CLAMP = 1e-12
# rows evaluated together; every block starts at a multiple of this
ROW_BLOCK = 8192


@dataclass(frozen=True)
class TwoLevelSpec:
    """Two-level structure: root over non-leaf child blocks plus raw leaves.

    theta is ordered (theta_0, theta_1, ..., theta_m) matching the tree's
    preorder; child_cols[s] gives the 0-based data columns of child s+1,
    leaf_cols the columns attached directly to the root.
    """

    family: GeneratorFamily
    theta: tuple[float, ...]
    child_cols: tuple[tuple[int, ...], ...]
    leaf_cols: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.leaf_cols) + sum(len(c) for c in self.child_cols)

    @property
    def m(self) -> int:
        return len(self.child_cols)

    @property
    def p(self) -> int:
        return 1 + self.m

    @property
    def K(self) -> int:
        return len(self.leaf_cols) + len(self.child_cols)

    @property
    def ds(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.child_cols)

    def with_theta(self, theta) -> "TwoLevelSpec":
        theta = tuple(float(x) for x in np.asarray(theta, dtype=float))
        return TwoLevelSpec(self.family, theta, self.child_cols, self.leaf_cols)


def two_level_spec(tree: HacTree, family, theta) -> TwoLevelSpec:
    """Build a TwoLevelSpec from a tree whose depth is at most two."""
    if not tree.is_two_level():
        raise DomainError("density formulas cover two-level trees only")
    fam = get_family(family)
    vec = tree.theta_vector(theta)
    _check_theta(fam, vec)
    child_cols = []
    leaf_cols = []
    for child in tree.children(()):
        if isinstance(child, int):
            leaf_cols.append(child - 1)
        else:
            child_cols.append(tuple(lbl - 1 for lbl in tree.leaf_labels(child)))
    return TwoLevelSpec(
        fam, tuple(float(x) for x in vec), tuple(child_cols), tuple(leaf_cols)
    )


def _check_theta(fam, vec):
    for th in vec:
        if not fam.domain.contains(float(th)):
            raise DomainError(f"{fam.name}: theta={th} outside domain")
    root = vec[0]
    for th in vec[1:]:
        if th < root:
            raise DomainError(
                f"child parameter {th} below root parameter {root}"
            )


def clamp_unit(u) -> np.ndarray:
    """Clamp Monte Carlo draws into the open cube before evaluation."""
    return np.clip(np.asarray(u, dtype=float), UNIT_CLAMP, 1.0 - UNIT_CLAMP)


def _as_rows(spec: TwoLevelSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    squeeze = u.ndim == 1
    rows = np.atleast_2d(u)
    if rows.shape[1] != spec.d:
        raise DomainError(f"expected {spec.d} columns, got {rows.shape[1]}")
    if not np.all(np.isfinite(rows)) or np.any((rows <= 0) | (rows >= 1)):
        raise DomainError("u must lie strictly inside the unit cube")
    return (rows, squeeze)


# ====================================================================
# compositions as polynomial convolutions
# ====================================================================

def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # per-column polynomial product; row index = exponent
    la, n = a.shape
    lb = b.shape[0]
    out = np.zeros((la + lb - 1, n))
    for i in range(lb):
        bi = b[i]
        if not bi.any():
            continue
        out[i : i + la] += a * bi
    return out


def _polyunit(n: int) -> np.ndarray:
    return np.ones((1, n))


# ====================================================================
# per-child hooks: h_s and the a-table
# ====================================================================

@dataclass
class _ChildJet:
    """Child s's term h_s of t and a-table jet, padded to exponents 0..d_s.

    Row q of ``a`` holds a_{s,q} (row 0 is zero); ``ar``/``ac`` are
    its derivatives in r = theta_0 and c = theta_s, and ``arr``, ``arc``,
    ``acc`` the second derivatives.  Derivatives in theta_s are total:
    t_s moves with theta_s.  Entries are the true quantities times
    exp(-omega) with the per-row scale omega fixed at the evaluation
    point, so derivative rows share the value row's scaling.  The closed
    form keeps lbeta = log(gamma^theta_s + t_s) and E = e^(x_s lbeta).
    """

    h: np.ndarray
    omega: np.ndarray | float
    a: np.ndarray
    lbeta: np.ndarray | None = None
    E: np.ndarray | None = None
    ar: np.ndarray | None = None
    ac: np.ndarray | None = None
    arr: np.ndarray | None = None
    arc: np.ndarray | None = None
    acc: np.ndarray | None = None


def _pad(cols: np.ndarray) -> np.ndarray:
    # child coefficient rows live at exponents 1..d_s
    out = np.zeros((cols.shape[0] + 1, cols.shape[1]))
    out[1:] = cols
    return out


def _child_table(fam, th0, ths, ts, ds, tdot, tddot, order):
    """Closed-form (Clayton/Gumbel) child jet up to ``order``.

    h_s = (gamma^theta_s + t_s)^x - gamma^theta_0; tdot and tddot are the
    first two theta_s-derivatives of t_s.
    """
    x = th0 / ths
    lbeta = np.log1p(ts) if fam.tilt == 1.0 else np.log(ts)
    E = np.exp(x * lbeta)                       # (gamma^th_s + t_s)^x
    h = E - (1.0 if fam.tilt == 1.0 else 0.0)
    j = np.arange(1, ds + 1, dtype=float)
    e = j * x - ds                              # (ds,)
    elb = e[:, None] * lbeta[None, :]           # (ds, n)
    omega = elb.max(axis=0)
    xi = np.exp(elb - omega)
    sp0, sp1, sp2 = s_nk_table(x, ds)[:, 1:]    # s_{d_s,q}(x), q = 1..d_s
    v = xi * sp0[:, None]
    jet = _ChildJet(h, omega, _pad(v), lbeta, E)
    if order == 0:
        return jet
    beta_inv = np.exp(-lbeta)
    e = e[:, None]
    zeta = (j / ths)[:, None] * lbeta
    xi_sp1 = xi * sp1[:, None]

    # partials at fixed t (dt, dr, dc, ...), composed into total
    # theta_s-derivatives through tdot and tddot
    dt = e * beta_inv * v
    dr = zeta * v + xi_sp1 / ths
    dc = -x * zeta * v - xi_sp1 * th0 / ths**2
    jet.ar = _pad(dr)
    jet.ac = _pad(dc + dt * tdot)
    if order == 1:
        return jet
    xi_sp2 = xi * sp2[:, None]
    dtt = (e - 1.0) * beta_inv * dt
    drt = beta_inv * ((j / ths)[:, None] * v + e * dr)
    dct = beta_inv * ((-j * th0 / ths**2)[:, None] * v + e * dc)
    drr = zeta * (dr + xi_sp1 / ths) + xi_sp2 / ths**2
    drc = (
        -(zeta / ths) * v
        - x * zeta**2 * v
        - 2.0 * (th0 / ths**2) * zeta * xi_sp1
        - (th0 / ths**3) * xi_sp2
        - xi_sp1 / ths**2
    )
    dcc = (
        2.0 * (th0 / ths**2) * zeta * v
        - x * zeta * dc
        + (th0**2 / ths**3) * zeta * xi_sp1
        + 2.0 * (th0 / ths**3) * xi_sp1
        + (th0**2 / ths**4) * xi_sp2
    )
    jet.arr = _pad(drr)
    jet.arc = _pad(drc + drt * tdot)
    jet.acc = _pad(
        dcc + 2.0 * dct * tdot + dtt * tdot**2 + dt * tddot
    )
    return jet


class _BellMemo:
    """Partial Bell polynomials B_{n,k}(x_1, ...) over a growing x-list.

    B_{n,k} only reads x_1..x_{n-k+1}, so cached entries stay valid as
    derivatives are appended during the implicit h-recursion.
    """

    def __init__(self, shape):
        self.x: list[np.ndarray] = []
        self._memo = {(0, 0): np.ones(shape)}
        self._zero = np.zeros(shape)

    def append(self, xi):
        self.x.append(xi)

    def __call__(self, n: int, k: int) -> np.ndarray:
        if n == 0 or k == 0:
            return self._memo.get((n, k), self._zero)
        if k == 1:
            return self.x[n - 1]
        got = self._memo.get((n, k))
        if got is None:
            acc = np.zeros_like(self._zero)
            for i in range(1, n - k + 2):
                acc += math.comb(n - 1, i - 1) * self.x[i - 1] * self(n - i, k - 1)
            self._memo[(n, k)] = got = acc
        return got


def _bell_table(fam, th0, ths, ts, ds):
    """Value-only child jet for any family, with h_s = phi_0(psi_s(t_s)).

    h_s's t-derivatives come from implicit differentiation of
    psi_s = psi_0 . h_s, and a_{s,q} = B_{d_s,q}(h_s', h_s'', ...) is a
    partial Bell polynomial; the table is unscaled (omega = 0).
    """
    n = ts.shape[0]
    h = fam.phi(th0, fam.psi(ths, ts))
    col_h = fam.psi_column(th0, h, 1, ds)
    col_s = fam.psi_column(ths, ts, 1, ds)
    psi0_at_h = {r: col_h.value(r) for r in range(1, ds + 1)}
    bell = _BellMemo(n)
    for i in range(1, ds + 1):
        rhs = col_s.value(i)
        for r in range(2, i + 1):
            rhs = rhs - psi0_at_h[r] * bell(i, r)
        bell.append(rhs / psi0_at_h[1])
    a = np.zeros((ds + 1, n))
    for q in range(1, ds + 1):
        a[q] = bell(ds, q)
    return _ChildJet(h, 0.0, a)


# ====================================================================
# t(u) chain: total theta-derivatives
# ====================================================================

@dataclass
class _TChain:
    T0: np.ndarray            # dt/d theta_0
    Ts: list                  # per child: dt/d theta_s (total)
    T00: np.ndarray
    T0s: list
    Tss: list


def _t_chain(spec: TwoLevelSpec, rows, jets, tdot, tddot):
    # differentiates the closed-form h_s = E_s - gamma^theta_0 of each jet
    fam = spec.family
    th0 = spec.theta[0]
    n = rows.shape[0]
    T0 = np.zeros(n)
    T00 = np.zeros(n)
    Ts, T0s, Tss = [], [], []

    for s, jet in enumerate(jets):
        ths = spec.theta[1 + s]
        x = th0 / ths
        E, lb = jet.E, jet.lbeta
        beta_inv = np.exp(-lb)
        T0 += E * lb / ths
        T00 += E * (lb / ths) ** 2
        F = beta_inv * tdot[s] - lb / ths
        Edot = E * x * F                      # total d E/d theta_s
        Ts.append(x * E * F)
        T0s.append(Edot * lb / ths + E * beta_inv * tdot[s] / ths - E * lb / ths**2)
        dF = (
            -(beta_inv**2) * tdot[s] ** 2
            + beta_inv * tddot[s]
            - beta_inv * tdot[s] / ths
            + lb / ths**2
        )
        Tss.append(x * E * (-F / ths + x * F**2 + dF))

    if spec.leaf_cols:
        pd = fam.phi_derivs(th0, rows[:, list(spec.leaf_cols)])
        T0 += pd.dtheta.sum(axis=1)
        T00 += pd.dtheta2.sum(axis=1)
    return _TChain(T0, Ts, T00, T0s, Tss)


# ====================================================================
# main evaluation
# ====================================================================

def log_density_and_derivs(spec: TwoLevelSpec, u, order: int = 0):
    """(log c, score, hessian) up to the requested order, vectorized.

    order 0 returns (logc, None, None); order 1 adds the (n, p) score;
    order 2 adds the (n, p, p) Hessian.  Scores and Hessians require the
    Clayton or Gumbel analytic suite.
    """
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    fam = spec.family
    _check_theta(fam, spec.theta)
    rows, squeeze = _as_rows(spec, u)
    if order > 0 and not fam.analytic:
        raise DomainError(
            f"{fam.name}: analytic score/hessian unavailable; "
            "use finite differences on the log-density"
        )
    parts = [
        _eval(spec, rows[lo:hi], order, lo)
        for lo, hi in _row_blocks(rows.shape[0])
    ]
    out = tuple(
        None if parts[0][i] is None else np.concatenate([q[i] for q in parts])
        for i in range(3)
    )
    if squeeze:
        out = tuple(None if o is None else o[0] for o in out)
    return out


def _row_blocks(n: int):
    # ROW_BLOCK-row ranges; a trailing single row joins the block before
    # it, and zero rows still make one (empty) block
    starts = list(range(0, n, ROW_BLOCK)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def log_density(spec: TwoLevelSpec, u):
    return log_density_and_derivs(spec, u, order=0)[0]


def score(spec: TwoLevelSpec, u):
    return log_density_and_derivs(spec, u, order=1)[1]


def hessian(spec: TwoLevelSpec, u):
    return log_density_and_derivs(spec, u, order=2)[2]


def _eval(spec: TwoLevelSpec, rows, order: int, first: int = 0):
    fam = spec.family
    th0 = spec.theta[0]
    n, d = rows.shape
    m = spec.m
    want = order > 0

    # per-child ingredients; the child hook adds h_s to t and builds the
    # child's a-table
    t = np.zeros(n)
    log_b2 = np.zeros(n)
    tdot, tddot = [None] * m, [None] * m
    g_sums = [None] * (m + 1)
    jets = []
    for s in range(m):
        ths = spec.theta[1 + s]
        ds = spec.ds[s]
        us = rows[:, list(spec.child_cols[s])]
        ts = fam.phi(ths, us).sum(axis=1)
        log_b2 += fam.log_neg_phi_prime(ths, us).sum(axis=1)
        if want:
            pd = fam.phi_derivs(ths, us)
            tdot[s] = pd.dtheta.sum(axis=1)
            tddot[s] = pd.dtheta2.sum(axis=1)
            g_sums[1 + s] = fam.dlog_neg_phi_prime_dtheta(ths, us).sum(axis=1)
        if fam.analytic:
            jet = _child_table(fam, th0, ths, ts, ds, tdot[s], tddot[s], order)
        else:
            jet = _bell_table(fam, th0, ths, ts, ds)
        t += jet.h
        jets.append(jet)
    if spec.leaf_cols:
        ul = rows[:, list(spec.leaf_cols)]
        t += fam.phi(th0, ul).sum(axis=1)
        log_b2 += fam.log_neg_phi_prime(th0, ul).sum(axis=1)
        if want:
            g_sums[0] = fam.dlog_neg_phi_prime_dtheta(th0, ul).sum(axis=1)
    elif want:
        g_sums[0] = np.zeros(n)
    omega = np.sum([jet.omega for jet in jets], axis=0) if m else np.zeros(n)

    # B-polynomials: coefficient index = sum of q_s, valid range m..d-|L|
    n_leaf = len(spec.leaf_cols)
    k_lo, k_hi = spec.K, d
    B, B_grads, B_hess = _b_jet(jets, n, order)

    psi_col = (
        fam.psi_column(th0, t, k_lo, k_hi, ratios=True) if want
        else fam.psi_column(th0, t, k_lo, k_hi)
    )
    psi_hat, D, log_sum = _psi_sum(spec, psi_col, B, omega, first)
    logc = log_sum + log_b2
    if order == 0:
        return logc, None, None

    # score: S_a = sum_k (B^a + B * R_a) psi_hat / D
    chain = _t_chain(spec, rows, jets, tdot, tddot)
    p = spec.p
    R1 = _psi_ratios_first(psi_col, chain, k_lo, k_hi, p)
    S = np.zeros((n, p))
    for a in range(p):
        acc = np.zeros(n)
        for k in range(k_lo, k_hi + 1):
            j = k - n_leaf
            acc += (B_grads[a][j] + B[j] * R1[a][k]) * psi_hat[k]
        S[:, a] = acc / D
    grad = S.copy()
    grad[:, 0] += g_sums[0]
    for s in range(m):
        grad[:, 1 + s] += g_sums[1 + s]
    if order == 1:
        return logc, grad, None

    R2 = _psi_ratios_second(psi_col, chain, k_lo, k_hi, p)
    hess = np.zeros((n, p, p))
    for a in range(p):
        for b in range(a, p):
            acc = np.zeros(n)
            for k in range(k_lo, k_hi + 1):
                j = k - n_leaf
                acc += (
                    B_hess[(a, b)][j]
                    + B_grads[a][j] * R1[b][k]
                    + B_grads[b][j] * R1[a][k]
                    + B[j] * R2[(a, b)][k]
                ) * psi_hat[k]
            hess[:, a, b] = acc / D - S[:, a] * S[:, b]
            hess[:, b, a] = hess[:, a, b]
    hess[:, 0, 0] -= (n_leaf / th0**2) if n_leaf else 0.0
    for s in range(m):
        hess[:, 1 + s, 1 + s] -= spec.ds[s] / spec.theta[1 + s] ** 2
    return logc, grad, hess


def _psi_sum(spec, psi_col, B, omega, first):
    """D = sum_{k=K..d} B_{k-|L|} psi_hat[k], psi_hat = psi_0^(k)(t)/e^shift.

    shift is each row's largest log|psi_0^(k)|; B may carry a per-row
    scale e^-omega.  Returns psi_hat, D and shift + omega + log((-1)^d D),
    or fails the block naming the global rows where (-1)^d D is not
    finite and positive.
    """
    k_lo, k_hi = spec.K, spec.d
    n_leaf = len(spec.leaf_cols)
    shift = functools.reduce(
        np.maximum, [psi_col.logmag[k] for k in range(k_lo, k_hi + 1)]
    )
    # compensated sum over k, in place; comp carries the lost low bits
    D, tnew, comp, y = (np.zeros(shift.shape) for _ in range(4))
    psi_hat = {}
    for k in range(k_lo, k_hi + 1):
        psi_hat[k] = ph = psi_col.logmag[k] - shift
        np.exp(ph, out=ph)
        ph *= psi_col.sign[k]
        np.multiply(B[k - n_leaf], ph, out=y)
        y -= comp
        np.add(D, y, out=tnew)
        np.subtract(tnew, D, out=comp)
        comp -= y
        D, tnew = tnew, D
    sD = (-1.0) ** spec.d * D
    ok = (sD > 0.0) & (sD < np.inf)
    if not ok.all():
        bad = first + np.flatnonzero(~ok)[:5]
        raise NumericError(
            f"density sign/finiteness check failed on rows {bad.tolist()}"
        )
    return psi_hat, D, shift + omega + np.log(sD)


def _b_jet(jets, n, order):
    """B, dB/dtheta_a and d2B/dtheta_a dtheta_b (a <= b) in one pass.

    B is the product of the children's a-tables.  Multiplying the running
    jet (V, G, H) by child c = 1+s's jet applies the product rule once:
    every entry is multiplied by a, and the terms that differentiate the
    new factor are added from the old V and G.  Index j of each
    coefficient array corresponds to k = j + #root-leaves.
    """
    V = _polyunit(n)
    G = [np.zeros((1, n))]
    H = {(0, 0): np.zeros((1, n))}
    for s, jet in enumerate(jets):
        c = 1 + s
        a = jet.a
        if order > 1:
            H = {key: _polymul(h, a) for key, h in H.items()}
            # (X + 2Y) + Z, not X += 2Y + Z: the order fixes the last bits
            H[(0, 0)] = (
                H[(0, 0)]
                + 2.0 * _polymul(G[0], jet.ar)
                + _polymul(V, jet.arr)
            )
            for t in range(1, c):
                H[(0, t)] += _polymul(G[t], jet.ar)
                H[(t, c)] = _polymul(G[t], jet.ac)
            H[(0, c)] = _polymul(G[0], jet.ac) + _polymul(V, jet.arc)
            H[(c, c)] = _polymul(V, jet.acc)
        if order > 0:
            G = [_polymul(g, a) for g in G]
            G[0] += _polymul(V, jet.ar)
            G.append(_polymul(V, jet.ac))
        V = _polymul(V, a) if s else a      # V is 1 before the first child
    return V, (G if order > 0 else None), (H if order > 1 else None)


def _psi_ratios_first(psi_col, chain, k_lo, k_hi, p):
    R = [dict() for _ in range(p)]
    for k in range(k_lo, k_hi + 1):
        R[0][k] = psi_col.fr[k] + chain.T0 * psi_col.ft[k]
        for s in range(p - 1):
            R[1 + s][k] = chain.Ts[s] * psi_col.ft[k]
    return R


def _psi_ratios_second(psi_col, chain, k_lo, k_hi, p):
    R = {}
    for a in range(p):
        for b in range(a, p):
            R[(a, b)] = {}
    for k in range(k_lo, k_hi + 1):
        ft, ftt = psi_col.ft[k], psi_col.ftt[k]
        frt, frr = psi_col.frt[k], psi_col.frr[k]
        R[(0, 0)][k] = (
            frr
            + 2.0 * chain.T0 * frt
            + chain.T0**2 * ftt
            + chain.T00 * ft
        )
        for s in range(p - 1):
            R[(0, 1 + s)][k] = (
                chain.Ts[s] * frt
                + chain.T0 * chain.Ts[s] * ftt
                + chain.T0s[s] * ft
            )
            R[(1 + s, 1 + s)][k] = (
                chain.Ts[s] ** 2 * ftt + chain.Tss[s] * ft
            )
            for r in range(s + 1, p - 1):
                R[(1 + s, 1 + r)][k] = chain.Ts[s] * chain.Ts[r] * ftt
    return R
