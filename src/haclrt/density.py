"""Two-level HAC log-density with exact gradient and Hessian in theta.

The density of a two-level HAC with root generator psi_0 and non-leaf
children s = 1..m is

    c(u) = (-1)^d { sum_k b_k(t(u)) psi_0^(k)(t(u)) } B2(u),
    b_k(t) = sum_{q in Q} prod_s a_{s,q_s}(t_s),
    B2(u)  = prod_s prod_j (-phi_s'(u_sj)) * prod_l (-phi_0'(u_l)),

where t_s sums phi_s over child s's coordinates, t(u) sums the
child-to-root reparameterizations h_s(t_s) = phi_0(psi_s(t_s)) plus the
root-leaf phi_0 terms, and k runs from the root's child count K to d.

For Clayton and Gumbel, a_{s,q}(t) = s_{d_s,q}(x_s) (gamma^theta_s + t)^e
with x_s = theta_0/theta_s and e = q x_s - d_s, which this module
evaluates on log scale with one scale factor omega_s per child and one
per-row shift for the psi_0^(k) column.  Every score and Hessian term is
then a ratio of same-sign scaled sums, which stays finite and correct at
exact parameter ties (x_s = 1, where a_{s,q} = 0 for q < d_s).

Frank and Joe get density values through a generic nested-differentiation
path (h_s derivatives by implicit recursion, a_{s,q} as partial Bell
polynomials); their analytic theta-derivatives are not provided.

This module holds the family-agnostic algebra only: the a-tables, the
B-convolutions, the t-chain and the generic path.  Every generator formula
it evaluates (the psi_0^(k) column with its derivative ratios, the s_nk
polynomials, the theta-derivatives of phi) comes from the family object in
``generators``.
"""

from __future__ import annotations

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


def clamp_unit(u, eps: float = UNIT_CLAMP) -> np.ndarray:
    """Clamp Monte Carlo draws into the open cube before evaluation."""
    return np.clip(np.asarray(u, dtype=float), eps, 1.0 - eps)


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
    # row-wise polynomial product; coefficient index = exponent
    n, la = a.shape
    lb = b.shape[1]
    out = np.zeros((n, la + lb - 1))
    for i in range(lb):
        bi = b[:, i : i + 1]
        if np.all(bi == 0.0):
            continue
        out[:, i : i + la] += a * bi
    return out


def _polyunit(n: int) -> np.ndarray:
    return np.ones((n, 1))


# ====================================================================
# per-child a-tables (Clayton/Gumbel analytic path)
# ====================================================================

@dataclass
class _ChildTable:
    """Scaled a_{s,q} rows and their partial derivatives, q = 1..d_s.

    All arrays have shape (n, d_s); entries are the true quantities times
    exp(-omega) with the per-row scale omega fixed at the evaluation
    point, so derivative rows share the value row's scaling.
    """

    omega: np.ndarray
    v: np.ndarray
    dt: np.ndarray
    dtt: np.ndarray
    dr: np.ndarray       # d/d theta_0
    dc: np.ndarray       # d/d theta_s at fixed t
    drr: np.ndarray
    drc: np.ndarray
    dcc: np.ndarray
    drt: np.ndarray      # d^2/(d theta_0 dt)
    dct: np.ndarray


def _child_table(th0, ths, ds, lbeta, want_derivs):
    x = th0 / ths
    j = np.arange(1, ds + 1, dtype=float)
    e = j * x - ds                              # (ds,)
    elb = e[None, :] * lbeta[:, None]           # (n, ds)
    omega = elb.max(axis=1)
    xi = np.exp(elb - omega[:, None])
    sp0, sp1, sp2 = s_nk_table(x, ds)[:, 1:]    # s_{d_s,q}(x), q = 1..d_s
    v = xi * sp0[None, :]
    beta_inv = np.exp(-lbeta)[:, None]
    dt = e[None, :] * beta_inv * v
    if not want_derivs:
        z = None
        return _ChildTable(omega, v, dt, z, z, z, z, z, z, z, z)
    zeta = (j / ths)[None, :] * lbeta[:, None]
    xi_sp1 = xi * sp1[None, :]
    xi_sp2 = xi * sp2[None, :]

    dtt = (e[None, :] - 1.0) * beta_inv * dt
    dr = zeta * v + xi_sp1 / ths
    dc = -x * zeta * v - xi_sp1 * th0 / ths**2
    drt = beta_inv * ((j / ths)[None, :] * v + e[None, :] * dr)
    dct = beta_inv * ((-j * th0 / ths**2)[None, :] * v + e[None, :] * dc)
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
    return _ChildTable(omega, v, dt, dtt, dr, dc, drr, drc, dcc, drt, dct)


# ====================================================================
# t(u) chain: value and total theta-derivatives
# ====================================================================

@dataclass
class _TChain:
    t: np.ndarray
    T0: np.ndarray            # dt/d theta_0
    Ts: list                  # per child: dt/d theta_s (total)
    T00: np.ndarray
    T0s: list
    Tss: list


def _t_chain(spec: TwoLevelSpec, rows, lbeta, tdot, tddot, want_derivs):
    fam = spec.family
    th0 = spec.theta[0]
    n = rows.shape[0]
    gamma_pow = 1.0 if fam.tilt == 1.0 else 0.0  # gamma**theta_0

    t = np.zeros(n)
    T0 = np.zeros(n) if want_derivs else None
    T00 = np.zeros(n) if want_derivs else None
    Ts, T0s, Tss = [], [], []

    for s in range(spec.m):
        ths = spec.theta[1 + s]
        x = th0 / ths
        E = np.exp(x * lbeta[s])              # (gamma^th_s + t_s)^x
        t += E - gamma_pow
        if not want_derivs:
            continue
        beta_inv = np.exp(-lbeta[s])
        lb = lbeta[s]
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
        ul = rows[:, list(spec.leaf_cols)]
        t += fam.phi(th0, ul).sum(axis=1)
        if want_derivs:
            pd = fam.phi_derivs(th0, ul)
            T0 += pd.dtheta.sum(axis=1)
            T00 += pd.dtheta2.sum(axis=1)
    return _TChain(t, T0, Ts, T00, T0s, Tss)


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
    if fam.analytic:
        out = _eval_analytic(spec, rows, order)
    else:
        out = (_log_density_generic(spec, rows), None, None)
    if squeeze:
        out = tuple(
            None if o is None else (o[0] if o.ndim else o) for o in out
        )
        out = (out[0], out[1], out[2])
    return out


def log_density(spec: TwoLevelSpec, u):
    return log_density_and_derivs(spec, u, order=0)[0]


def score(spec: TwoLevelSpec, u):
    return log_density_and_derivs(spec, u, order=1)[1]


def hessian(spec: TwoLevelSpec, u):
    return log_density_and_derivs(spec, u, order=2)[2]


def _eval_analytic(spec: TwoLevelSpec, rows, order: int):
    fam = spec.family
    th0 = spec.theta[0]
    n, d = rows.shape
    m = spec.m
    want = order > 0

    # per-child ingredients
    lbeta, tdot, tddot = [], [], []
    log_b2 = np.zeros(n)
    g_sums = [None] * (m + 1)
    for s in range(m):
        ths = spec.theta[1 + s]
        us = rows[:, list(spec.child_cols[s])]
        phis = fam.phi(ths, us)
        ts = phis.sum(axis=1)
        lbeta.append(np.log1p(ts) if fam.tilt == 1.0 else np.log(ts))
        log_b2 += fam.log_neg_phi_prime(ths, us).sum(axis=1)
        if want:
            pd = fam.phi_derivs(ths, us)
            tdot.append(pd.dtheta.sum(axis=1))
            tddot.append(pd.dtheta2.sum(axis=1))
            g_sums[1 + s] = fam.dlog_neg_phi_prime_dtheta(ths, us).sum(axis=1)
    if spec.leaf_cols:
        ul = rows[:, list(spec.leaf_cols)]
        log_b2 += fam.log_neg_phi_prime(th0, ul).sum(axis=1)
        if want:
            g_sums[0] = fam.dlog_neg_phi_prime_dtheta(th0, ul).sum(axis=1)
    elif want:
        g_sums[0] = np.zeros(n)

    chain = _t_chain(spec, rows, lbeta, tdot, tddot, want)

    tables = [
        _child_table(th0, spec.theta[1 + s], spec.ds[s], lbeta[s], want)
        for s in range(m)
    ]
    omega = (
        np.sum([tb.omega for tb in tables], axis=0) if m else np.zeros(n)
    )

    # B-polynomials: coefficient index = sum of q_s, valid range m..d-|L|
    n_leaf = len(spec.leaf_cols)
    k_lo, k_hi = spec.K, d
    B, B_grads, B_hess = _b_tables(spec, tables, chain, tdot, tddot, order)

    psi_col = fam.psi_column(th0, chain.t, k_lo, k_hi, ratios=want)
    shift = np.max(
        np.stack([psi_col.logmag[k] for k in range(k_lo, k_hi + 1)]), axis=0
    )

    sign_d = (-1.0) ** d
    D = np.zeros(n)
    comp = np.zeros(n)  # compensated accumulation over k
    psi_hat = {}
    for k in range(k_lo, k_hi + 1):
        psi_hat[k] = psi_col.sign[k] * np.exp(psi_col.logmag[k] - shift)
        term = B[:, k - n_leaf] * psi_hat[k]
        y = term - comp
        tnew = D + y
        comp = (tnew - D) - y
        D = tnew
    if np.any(~np.isfinite(D)) or np.any(sign_d * D <= 0.0):
        bad = np.where(~(sign_d * D > 0.0))[0][:5]
        raise NumericError(
            f"density sign/finiteness check failed on rows {bad.tolist()}"
        )
    logc = shift + omega + np.log(sign_d * D) + log_b2
    if order == 0:
        return logc, None, None

    # score: S_a = sum_k (B^a + B * R_a) psi_hat / D
    p = spec.p
    R1 = _psi_ratios_first(psi_col, chain, k_lo, k_hi, p)
    S = np.zeros((n, p))
    for a in range(p):
        acc = np.zeros(n)
        for k in range(k_lo, k_hi + 1):
            j = k - n_leaf
            acc += (B_grads[a][:, j] + B[:, j] * R1[a][k]) * psi_hat[k]
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
                    B_hess[(a, b)][:, j]
                    + B_grads[a][:, j] * R1[b][k]
                    + B_grads[b][:, j] * R1[a][k]
                    + B[:, j] * R2[(a, b)][k]
                ) * psi_hat[k]
            hess[:, a, b] = acc / D - S[:, a] * S[:, b]
            hess[:, b, a] = hess[:, a, b]
    hess[:, 0, 0] -= (n_leaf / th0**2) if n_leaf else 0.0
    for s in range(m):
        hess[:, 1 + s, 1 + s] -= spec.ds[s] / spec.theta[1 + s] ** 2
    return logc, grad, hess


def _b_tables(spec, tables, chain, tdot, tddot, order):
    """Convolution tables B, dB/dtheta_a, d2B/dtheta_a dtheta_b.

    Index j of each coefficient array corresponds to k = j + #root-leaves.
    Derivatives in theta_s are total (the t_s argument moves with theta_s).
    """
    n = chain.t.shape[0]
    m = spec.m
    d_minus_l = sum(spec.ds)

    def pad(arr_cols):
        # child coefficient rows live at exponents 1..d_s
        out = np.zeros((n, arr_cols.shape[1] + 1))
        out[:, 1:] = arr_cols
        return out

    vals = []
    d_root = []
    d_root2 = []
    tot_c = []
    tot_cc = []
    tot_rc = []
    for s, tb in enumerate(tables):
        vals.append(pad(tb.v))
        if order > 0:
            d_root.append(pad(tb.dr))
            tc = tb.dc + tb.dt * tdot[s][:, None]
            tot_c.append(pad(tc))
        if order > 1:
            d_root2.append(pad(tb.drr))
            tot_rc.append(pad(tb.drc + tb.drt * tdot[s][:, None]))
            tot_cc.append(
                pad(
                    tb.dcc
                    + 2.0 * tb.dct * tdot[s][:, None]
                    + tb.dtt * tdot[s][:, None] ** 2
                    + tb.dt * tddot[s][:, None]
                )
            )

    # forward pass for (V, V_r, V_rr)
    V = _polyunit(n)
    Vr = np.zeros((n, 1)) if order > 0 else None
    Vrr = np.zeros((n, 1)) if order > 1 else None
    prefixes = [(V, Vr, Vrr)]
    for s in range(m):
        a, ar, arr = vals[s], None, None
        if order > 0:
            ar = d_root[s]
        if order > 1:
            arr = d_root2[s]
        V2 = _polymul(V, a)
        Vr2 = _polymul(Vr, a) + _polymul(V, ar) if order > 0 else None
        Vrr2 = (
            _polymul(Vrr, a) + 2.0 * _polymul(Vr, ar) + _polymul(V, arr)
            if order > 1
            else None
        )
        V, Vr, Vrr = V2, Vr2, Vrr2
        prefixes.append((V, Vr, Vrr))
    B = V
    if order == 0:
        return B, None, None

    # suffix pass
    sufV = [None] * (m + 1)
    sufVr = [None] * (m + 1)
    sufV[m] = _polyunit(n)
    sufVr[m] = np.zeros((n, 1))
    for s in range(m - 1, -1, -1):
        sufV[s] = _polymul(vals[s], sufV[s + 1])
        if order > 1:
            sufVr[s] = _polymul(d_root[s], sufV[s + 1]) + _polymul(
                vals[s], sufVr[s + 1]
            )

    def except_s(s):
        return _polymul(prefixes[s][0], sufV[s + 1])

    B_grads = [None] * spec.p
    B_grads[0] = Vr
    for s in range(m):
        B_grads[1 + s] = _resize(_polymul(except_s(s), tot_c[s]), B.shape[1])
    B_grads[0] = _resize(B_grads[0], B.shape[1])
    if order == 1:
        return B, B_grads, None

    B_hess = {}
    B_hess[(0, 0)] = _resize(Vrr, B.shape[1])
    for s in range(m):
        exc = except_s(s)
        exc_r = _polymul(prefixes[s][1], sufV[s + 1]) + _polymul(
            prefixes[s][0], sufVr[s + 1]
        )
        B_hess[(0, 1 + s)] = _resize(
            _polymul(exc, tot_rc[s]) + _polymul(exc_r, tot_c[s]), B.shape[1]
        )
        B_hess[(1 + s, 1 + s)] = _resize(
            _polymul(exc, tot_cc[s]), B.shape[1]
        )
        for r in range(s + 1, m):
            middle = _polyunit(n)
            for w in range(s + 1, r):
                middle = _polymul(middle, vals[w])
            both = _polymul(
                _polymul(prefixes[s][0], middle), sufV[r + 1]
            )
            B_hess[(1 + s, 1 + r)] = _resize(
                _polymul(_polymul(both, tot_c[s]), tot_c[r]), B.shape[1]
            )
    return B, B_grads, B_hess


def _resize(arr, width):
    if arr.shape[1] == width:
        return arr
    if arr.shape[1] > width:
        return arr[:, :width]
    out = np.zeros((arr.shape[0], width))
    out[:, : arr.shape[1]] = arr
    return out


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


# ====================================================================
# generic value-only path (all families)
# ====================================================================

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
        got = self._memo.get((n, k))
        if got is None:
            acc = np.zeros_like(self._zero)
            for i in range(1, n - k + 2):
                acc += math.comb(n - 1, i - 1) * self.x[i - 1] * self(n - i, k - 1)
            self._memo[(n, k)] = got = acc
        return got


def _log_density_generic(spec: TwoLevelSpec, rows) -> np.ndarray:
    fam = spec.family
    th0 = spec.theta[0]
    n, d = rows.shape
    n_leaf = len(spec.leaf_cols)

    log_b2 = np.zeros(n)
    t = np.zeros(n)
    child_polys = []
    for s in range(spec.m):
        ths = spec.theta[1 + s]
        ds = spec.ds[s]
        us = rows[:, list(spec.child_cols[s])]
        ts = fam.phi(ths, us).sum(axis=1)
        log_b2 += fam.log_neg_phi_prime(ths, us).sum(axis=1)
        h_val = fam.phi(th0, fam.psi(ths, ts))
        t += h_val
        # h-derivatives by implicit differentiation of psi_s = psi_0 . h
        psi0_at_h = [None] + [
            np.asarray(fam.psi_t_deriv(th0, h_val, r)) for r in range(1, ds + 1)
        ]
        bell = _BellMemo(n)
        for i in range(1, ds + 1):
            rhs = np.asarray(fam.psi_t_deriv(ths, ts, i))
            for r in range(2, i + 1):
                rhs = rhs - psi0_at_h[r] * bell(i, r)
            bell.append(rhs / psi0_at_h[1])
        coeffs = np.zeros((n, ds + 1))
        for q in range(1, ds + 1):
            coeffs[:, q] = bell(ds, q)
        child_polys.append(coeffs)
    if spec.leaf_cols:
        ul = rows[:, list(spec.leaf_cols)]
        t += fam.phi(th0, ul).sum(axis=1)
        log_b2 += fam.log_neg_phi_prime(th0, ul).sum(axis=1)

    B = _polyunit(n)
    for coeffs in child_polys:
        B = _polymul(B, coeffs)
    total = np.zeros(n)
    comp = np.zeros(n)
    sign_d = (-1.0) ** d
    for j in range(B.shape[1]):
        k = j + n_leaf
        col = B[:, j]
        if not np.any(col):
            continue
        term = col * np.asarray(fam.psi_t_deriv(th0, t, k))
        y = term - comp
        tot = total + y
        comp = (tot - total) - y
        total = tot
    val = sign_d * total
    if np.any(~np.isfinite(val)) or np.any(val <= 0.0):
        bad = np.where(~(val > 0.0))[0][:5]
        raise NumericError(
            f"generic density evaluation failed on rows {bad.tolist()}"
        )
    return np.log(val) + log_b2
