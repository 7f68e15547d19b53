"""Two-level HAC log-density with exact gradient and Hessian in theta.

The density of a two-level HAC with root generator psi_0 and non-leaf
children s = 1..m is

    c(u) = (-1)^d { sum_k b_k(t(u)) psi_0^(k)(t(u)) } B2(u),
    b_k(t) = sum_{q in Q} prod_s a_{s,q_s}(t_s),
    B2(u)  = prod_s prod_j (-phi_s'(u_sj)) * prod_l (-phi_0'(u_l)),

where t_s sums phi_s over child s's coordinates, t(u) sums the
child-to-root reparameterizations h_s(t_s) = phi_0(psi_s(t_s)) plus the
root-leaf phi_0 terms, and k runs from the root's child count K to d.

One evaluation, ``_eval``, serves every family.  It takes the children
in size groups (``_size_groups``): the children of one size d_s, stacked
along a leading group axis, so each generator call and each table below
runs once per group, with one theta_s per child broadcast over the group
axis; a lone child is a group of one.  Per group it computes t_s and the
B2 factors; a child hook, the only family-specific step, then returns
the group's h_s and a-tables, each as a theta-jet: the value with its
first and second derivatives in (theta_0, theta_s).  A family with a
closed-form a-function base (``tilt``: Clayton, Gumbel) takes
``_child_table``, which gives a_{s,q}(t) = s_{d_s,q}(x_s)
(gamma^theta_s + t)^e with x_s = theta_0/theta_s and e = q x_s - d_s,
on log scale with one scale factor omega_s per child; the
s_{d_s,q}(x_s) of the whole group come from one table pass.  Every
score and Hessian term is then a ratio of same-sign scaled sums, which
stays finite and correct at exact parameter ties (x_s = 1, where
a_{s,q} = 0 for q < d_s).  The other families (Frank, Joe) take
``_bell_table``: h_s's t-derivatives by the implicit recursion and
a_{s,q} as partial Bell polynomials, both solved in jets, one child of
the group at a time.  ``_t_chain`` sums the hooks' h_s jets with the
root-leaf phi_0 terms.  All children then enter B = prod_s a_s, in child order,
with its first and second theta-derivatives, one forward product of
second-order jets (``_b_jet``) whose derivative entries are stacked
arrays.  The root's log-scale psi_0^(k) column is read once, its s_kq
tables built in one pass over every k it needs, and ``_psi_sum`` does
the per-row shift, the compensated sum over k and the sign check.  The
score and Hessian then sum over k in k order, each step one product over
all theta indices or pairs.  Every generator formula comes from the
family object in ``generators``.

Stacking changes no arithmetic: every elementwise expression, every
per-child float constant and every sum order is that of a one-child
evaluation, so each row's numbers do not depend on the grouping.

Every per-row polynomial table (the a-tables and their jets, B and its
derivatives) is stored coefficient-major, with one contiguous row of n
values per coefficient, and holds only the band of exponents that can be
nonzero.  ``log_density_and_derivs`` evaluates the rows in blocks of
``ROW_BLOCK`` and concatenates the results, which keeps those tables
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
from .tree import HacTree, check_theta

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
    leaf_cols the columns attached directly to the root.  Building a
    spec, ``with_theta`` too, checks theta with ``tree.check_theta``.
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

    def __post_init__(self):
        check_theta(None, self.family, self.theta)

    def with_theta(self, theta) -> "TwoLevelSpec":
        theta = tuple(float(x) for x in np.asarray(theta, dtype=float))
        return TwoLevelSpec(self.family, theta, self.child_cols, self.leaf_cols)


def two_level_spec(tree: HacTree, family, theta) -> TwoLevelSpec:
    """Build a TwoLevelSpec from a tree whose depth is at most two."""
    if not tree.is_two_level():
        raise DomainError("density formulas cover two-level trees only")
    fam = get_family(family)
    vec = check_theta(tree, fam, theta)
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


def clamp_unit(u) -> np.ndarray:
    """Clamp Monte Carlo draws into the open cube before evaluation."""
    return np.clip(np.asarray(u, dtype=float), UNIT_CLAMP, 1.0 - UNIT_CLAMP)


def _as_rows(spec: TwoLevelSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    squeeze = u.ndim == 1
    rows = np.atleast_2d(u)
    if rows.shape[1] != spec.d:
        raise DomainError(f"expected {spec.d} columns, got {rows.shape[1]}")
    # a NaN or an infinity fails both comparisons
    if not np.all((rows > 0.0) & (rows < 1.0)):
        raise DomainError("u must lie strictly inside the unit cube")
    return (rows, squeeze)


# ====================================================================
# compositions as polynomial convolutions
# ====================================================================

def _polymul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    # per-column polynomial products along axis -2, leading axes broadcast;
    # a and b hold bands of consecutive coefficient rows, and out (zero on
    # entry) gets the band from the sum of their lowest exponents
    la, lb = a.shape[-2], b.shape[-2]
    if out is None:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.zeros(lead + (la + lb - 1, a.shape[-1]))
    for i in range(lb):
        out[..., i : i + la, :] += a * b[..., i : i + 1, :]
    return out


def _polyunit(n: int) -> np.ndarray:
    return np.ones((1, n))


def _size_groups(ds) -> list[list[int]]:
    # children of equal size, each list in child order; ``_eval`` stacks
    # every group into one array
    groups: dict[int, list[int]] = {}
    for s, size in enumerate(ds):
        groups.setdefault(size, []).append(s)
    return list(groups.values())


@functools.lru_cache(maxsize=None)
def _pairs(p: int):
    # the pairs a <= b of theta indices in column order (b, then a), the
    # order in which ``_b_jet`` appends them
    pairs = [(a, b) for b in range(p) for a in range(b + 1)]
    ia, ib = (np.array(v) for v in zip(*pairs))
    for v in (ia, ib):
        v.flags.writeable = False
    return ia, ib


# ====================================================================
# per-group hooks: h_s and the a-table jets
# ====================================================================

@dataclass
class _GroupJet:
    """A size group's terms h_s of t and a-table jets, one row per child.

    Fields run over (value, r, c, rr, rc, cc): a quantity and its
    derivatives in r = theta_0 and c = theta_s, first then second; an
    evaluation of order 0, 1 or 2 builds the first 1, 3 or 6 of them.
    Derivatives in theta_s are total: t_s moves with theta_s.
    ``h[i, f]`` is child i's h_s jet.  ``jet[i, f]`` is its a-table: row
    q - 1 holds a_{s,q}, q = 1..d_s (a_{s,0} = 0 is not stored).  Table
    entries are the true quantities times exp(-omega) with the per-row
    scale omega fixed at the evaluation point, so derivative rows share
    the value row's scaling.
    """

    h: np.ndarray                   # (g, fields, n)
    omega: np.ndarray | float       # (g, n), or 0 for unscaled tables
    jet: np.ndarray                 # (g, fields, d_s, n)


def _consts(rows, ndim):
    """Per-child float constants, one tuple of them per child.

    A lone child keeps its floats, which broadcast like the arrays of a
    one-child evaluation; a larger group gets one (g, 1, ..., 1) column
    with ndim axes per constant.  Either way each child's arithmetic is
    that of its own floats.
    """
    if len(rows) == 1:
        return rows[0]
    cols = np.array(rows).T
    return cols.reshape(cols.shape + (1,) * (ndim - 1))


def _child_table(fam, th0, ths, ts, ds, tdot, tddot, order):
    """Closed-form (Clayton/Gumbel) jets of one size group up to ``order``.

    ths lists the group's theta_s; ts, tdot and tddot are (g, n): t_s and
    its first two theta_s-derivatives.  h_s = E - gamma^theta_0 with E =
    (gamma^theta_s + t_s)^x.  Each per-child constant is the float
    expression a one-child evaluation uses: a float for a lone child,
    else a (g, 1, 1) column.  Per-child rows are (g, 1, n),
    per-coefficient ones (g, d_s, n).
    """
    xs = [th0 / th for th in ths]
    (x,) = _consts([(xv,) for xv in xs], 3)
    ts = ts[:, None, :]
    lbeta = np.log1p(ts) if fam.tilt == 1.0 else np.log(ts)
    E = np.exp(x * lbeta)                       # (gamma^th_s + t_s)^x
    h = E - (1.0 if fam.tilt == 1.0 else 0.0)
    j = np.arange(1, ds + 1, dtype=float)[:, None]
    e = j * x - ds                              # q x_s - d_s
    elb = e * lbeta
    omega = elb.max(axis=1, keepdims=True)
    xi = elb
    xi -= omega
    np.exp(xi, out=xi)
    # s_{d_s,q}(x), q = 1..d_s, one table for the group: (g, ds, 1) each
    sp0, sp1, sp2 = s_nk_table(np.array(xs), ds)[:, 1:].transpose(0, 2, 1)[
        ..., None
    ]
    nf = (1, 3, 6)[order]
    jet = np.empty((len(ths), nf, ds, ts.shape[2]))
    v = np.multiply(xi, sp0, out=jet[:, 0])
    hj = np.empty((len(ths), nf, ts.shape[2]))
    hj[:, 0] = h[:, 0]
    out = _GroupJet(hj, omega[:, 0], jet)
    if order == 0:
        return out
    thc, ths2, c2, c3, c23, c3b, c24 = _consts(
        [
            (
                th,
                th**2,
                2.0 * (th0 / th**2),
                th0 / th**3,
                th0**2 / th**3,
                2.0 * (th0 / th**3),
                th0**2 / th**4,
            )
            for th in ths
        ],
        3,
    )
    beta_inv = np.exp(-lbeta)
    j_ths = j / thc                             # j / theta_s
    zeta = j_ths * lbeta
    xi_sp1 = xi * sp1
    tdot = tdot[:, None, :]
    # h_s: dE/d theta_0 = E lbeta/theta_s, and the total theta_s-derivative
    # through F = d(x lbeta)/d theta_s / x
    F = beta_inv * tdot - lbeta / thc
    hj[:, 1] = (E * lbeta / thc)[:, 0]
    hj[:, 2] = (x * E * F)[:, 0]

    # partials at fixed t (dt, dr, dc, ...), composed into total
    # theta_s-derivatives through tdot and tddot
    dt = e * beta_inv * v
    dr = zeta * v + xi_sp1 / thc
    dc = -x * zeta * v - xi_sp1 * th0 / ths2
    jet[:, 1] = dr
    np.add(dc, dt * tdot, out=jet[:, 2])
    if order == 1:
        return out
    xi_sp2 = xi * sp2
    dtt = (e - 1.0) * beta_inv * dt
    drt = beta_inv * (j_ths * v + e * dr)
    dct = beta_inv * ((-j * th0 / ths2) * v + e * dc)
    drr = zeta * (dr + xi_sp1 / thc) + xi_sp2 / ths2
    drc = (
        -(zeta / thc) * v
        - x * zeta**2 * v
        - c2 * zeta * xi_sp1
        - c3 * xi_sp2
        - xi_sp1 / ths2
    )
    dcc = (
        c2 * zeta * v
        - x * zeta * dc
        + c23 * zeta * xi_sp1
        + c3b * xi_sp1
        + c24 * xi_sp2
    )
    tddot = tddot[:, None, :]
    Edot = E * x * F
    dF = (
        -(beta_inv**2) * tdot**2
        + beta_inv * tddot
        - beta_inv * tdot / thc
        + lbeta / ths2
    )
    hj[:, 3] = (E * (lbeta / thc) ** 2)[:, 0]
    hj[:, 4] = (
        Edot * lbeta / thc + E * beta_inv * tdot / thc - E * lbeta / ths2
    )[:, 0]
    hj[:, 5] = (x * E * (-F / thc + x * F**2 + dF))[:, 0]
    jet[:, 3] = drr
    np.add(drc, drt * tdot, out=jet[:, 4])
    np.add(
        dcc + 2.0 * dct * tdot + dtt * tdot**2,
        dt * tddot,
        out=jet[:, 5],
    )
    return out


def _jet_mul(a, b):
    """Product of two jets, fields on axis 0 (see ``_GroupJet``)."""
    if len(a) == 1:
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[0] = a[0] * b[0]
    out[1] = a[1] * b[0] + a[0] * b[1]
    out[2] = a[2] * b[0] + a[0] * b[2]
    if len(out) > 3:
        out[3] = a[3] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[3]
        out[4] = a[4] * b[0] + a[1] * b[2] + a[2] * b[1] + a[0] * b[4]
        out[5] = a[5] * b[0] + 2.0 * a[2] * b[2] + a[0] * b[5]
    return out


def _jet_div(a, b):
    """Quotient a/b of two jets, by the product rule on a = q b."""
    if len(a) == 1:
        return a / b
    q = np.empty_like(a)
    q[0] = a[0] / b[0]
    q[1] = (a[1] - q[0] * b[1]) / b[0]
    q[2] = (a[2] - q[0] * b[2]) / b[0]
    if len(q) > 3:
        q[3] = (a[3] - 2.0 * q[1] * b[1] - q[0] * b[3]) / b[0]
        q[4] = (a[4] - q[1] * b[2] - q[2] * b[1] - q[0] * b[4]) / b[0]
        q[5] = (a[5] - 2.0 * q[2] * b[2] - q[0] * b[5]) / b[0]
    return q


def _psi_jet(col, k, X, own):
    """Jet of psi^(k)(X; theta) from col's ratio rows (k_lo = 1).

    X is the argument's jet and own (1 for theta_0, 2 for theta_s) the
    field of psi's own parameter: the chain rule for f(X, theta).
    """
    f = col.value(k)
    if len(X) == 1:
        return f[None]
    out = np.empty(X.shape)
    out[0] = f
    i = k - 1
    ft, fr = col.ft[i], col.fr[i]
    other = 3 - own
    out[own] = f * (fr + ft * X[own])
    out[other] = f * ft * X[other]
    if len(X) == 3:
        return out
    ftt, frt = col.ftt[i], col.frt[i]
    oo, pp = (3, 5) if own == 1 else (5, 3)
    out[oo] = f * (col.frr[i] + 2.0 * frt * X[own]
                   + ftt * X[own] ** 2 + ft * X[oo])
    out[4] = f * (frt * X[other] + ftt * X[1] * X[2] + ft * X[4])
    out[pp] = f * (ftt * X[other] ** 2 + ft * X[pp])
    return out


class _BellMemo:
    """Partial Bell polynomials B_{n,k}(x_1, ...) over a growing x-list.

    The x_i are jets (``_GroupJet``'s fields on axis 0), so each
    B_{n,k} carries its theta-derivatives.  B_{n,k} only reads
    x_1..x_{n-k+1}, so cached entries stay valid as derivatives are
    appended during the implicit h-recursion.
    """

    def __init__(self, shape):
        self.x: list[np.ndarray] = []
        one = np.zeros(shape)
        one[0] = 1.0
        self._memo = {(0, 0): one}
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
                acc += _jet_mul(
                    math.comb(n - 1, i - 1) * self.x[i - 1], self(n - i, k - 1)
                )
            self._memo[(n, k)] = got = acc
        return got


def _bell_table(fam, th0, ths, ts, ds, tdot, tddot, order):
    """Jets of one size group up to ``order`` for any family.

    h_s = phi_0(v) with v = psi_s(t_s).  Its t-derivatives x_k solve the
    implicit recursion psi_s^(k)(t_s) = sum_r psi_0^(r)(h_s) B_{k,r}(x_1,
    ...), and a_{s,q} = B_{d_s,q}(x_1, ...) is a partial Bell polynomial.
    Solved in jets, with both sides' theta-derivatives from the columns'
    ratio rows, the recursion gives every field of the a-table.  h_s's
    own jet comes first: h_r and h_rr are phi_0's theta-derivatives at v,
    and with D = dt_s/d theta_s - phi_s,theta(v), h_c = x_1 D, where
    x_1 = psi_s'(t_s)/psi_0'(h_s) moves with theta_0 and theta_s as its
    two columns' ratio rows say.  The tables are unscaled (omega = 0).
    The children of the group are taken one at a time.
    """
    g, n = ts.shape
    nf = (1, 3, 6)[order]
    hj = np.empty((g, nf, n))
    jet = np.empty((g, nf, ds, n))
    kw = {"ratios": True} if order else {}
    for i, th in enumerate(ths):
        v = fam.psi(th, ts[i])
        H = hj[i]
        H[0] = fam.phi(th0, v)
        col_h = fam.psi_column(th0, H[0], 1, ds, **kw)
        col_s = fam.psi_column(th, ts[i], 1, ds, **kw)
        if order:
            x1 = col_s.value(1) / col_h.value(1)
            pd0, pds = fam.phi_derivs(th0, v), fam.phi_derivs(th, v)
            D = tdot[i] - pds.dtheta
            H[1] = pd0.dtheta
            H[2] = x1 * D
        if order == 2:
            H[3] = pd0.dtheta2
            H[4] = -x1 * (col_h.fr[0] + col_h.ft[0] * H[1]) * D
            x1c = x1 * (col_s.fr[0] + col_s.ft[0] * tdot[i]
                        - col_h.ft[0] * H[2])
            Dc = (tddot[i] - pds.dtheta2
                  - fam.dlog_neg_phi_prime_dtheta(th, v) * D)
            H[5] = x1c * D + x1 * Dc
        # t_s moves with theta_s only: its jet is (t_s, 0, tdot, 0, 0, tddot)
        T = np.zeros((nf, n))
        T[0] = ts[i]
        if order:
            T[2] = tdot[i]
        if order == 2:
            T[5] = tddot[i]
        psi0 = [None] + [_psi_jet(col_h, r, H, 1) for r in range(1, ds + 1)]
        bell = _BellMemo((nf, n))
        for k in range(1, ds + 1):
            rhs = _psi_jet(col_s, k, T, 2)
            for r in range(2, k + 1):
                rhs = rhs - _jet_mul(psi0[r], bell(k, r))
            bell.append(_jet_div(rhs, psi0[1]))
        for q in range(1, ds + 1):
            jet[i, :, q - 1] = bell(ds, q)
    return _GroupJet(hj, 0.0, jet)


@dataclass
class _Group:
    """One size group of an evaluation: its children, jets and sums."""

    idx: np.ndarray                # child indices s, in child order
    ths: list[float]
    jet: _GroupJet
    log_b2: np.ndarray             # (g, n): sum_j log(-phi_s'(u_sj))
    g_sums: np.ndarray | None      # (g, n): sum_j dlog(-phi_s')/dtheta_s
    g2_sums: np.ndarray | None     # (g, n): its theta_s-derivative


# ====================================================================
# t(u) chain: total theta-derivatives
# ====================================================================

@dataclass
class _TChain:
    T0: np.ndarray            # dt/d theta_0
    T00: np.ndarray | None
    Ts: np.ndarray            # (m, n): dt/d theta_s (total), child order
    T0s: np.ndarray | None
    Tss: np.ndarray | None


def _t_chain(spec: TwoLevelSpec, rows, groups, m, order):
    # sums the hooks' h_s jets, in child order, with the root-leaf phi_0
    # terms; T holds dt/d theta_0 and, at order 2, its second derivative
    n = rows.shape[0]
    hs = np.empty((m, (1, 3, 6)[order], n))
    for grp in groups:
        hs[grp.idx] = grp.jet.h
    fields = [1, 3][:order]
    T = np.zeros((order, n))
    for h in hs:
        T += h[fields]
    if spec.leaf_cols:
        pd = spec.family.phi_derivs(
            spec.theta[0], rows[:, list(spec.leaf_cols)]
        )
        T += np.stack([pd.dtheta, pd.dtheta2][:order]).sum(axis=2)
    if order == 1:
        return _TChain(T[0], None, hs[:, 2], None, None)
    return _TChain(T[0], T[1], hs[:, 2], hs[:, 4], hs[:, 5])


# ====================================================================
# main evaluation
# ====================================================================

def log_density_and_derivs(spec: TwoLevelSpec, u, order: int = 0):
    """(log c, score, hessian) up to the requested order, vectorized.

    order 0 returns (logc, None, None); order 1 adds the (n, p) score;
    order 2 adds the (n, p, p) Hessian.
    """
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    rows, squeeze = _as_rows(spec, u)
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

    # per size group: t_s and the B2 factors of its children as (g, n)
    # rows, then the child hook, which gives h_s and the a-table jets.
    # Each sum over a child's coordinates runs over the outer axis of a
    # (g, d_s, n) array, so it adds them in coordinate order
    groups, at = [], [None] * m
    sizes = spec.ds
    for idx in _size_groups(sizes):
        ds = sizes[idx[0]]
        ths = [spec.theta[1 + s] for s in idx]
        # the generators take a float, or a column over the group axis
        (thc,) = _consts([(th,) for th in ths], 3)
        us = rows.T[[spec.child_cols[s] for s in idx]]   # (g, ds, n)
        ts = fam.phi(thc, us).sum(axis=1)
        tdot = tddot = gs = gss = None
        if want:
            pd = fam.phi_derivs(thc, us)
            tdot, tddot = pd.dtheta.sum(axis=1), pd.dtheta2.sum(axis=1)
            gs = fam.dlog_neg_phi_prime_dtheta(thc, us).sum(axis=1)
        if order == 2:
            gss = fam.sum_d2log_neg_phi_prime_dtheta2(thc, us, 1)
        # the family's closed-form a-function base, or the Bell recursion
        hook = _bell_table if fam.tilt is None else _child_table
        jet = hook(fam, th0, ths, ts, ds, tdot, tddot, order)
        b2 = fam.log_neg_phi_prime(thc, us).sum(axis=1)
        grp = _Group(np.array(idx), ths, jet, b2, gs, gss)
        groups.append(grp)
        for i, s in enumerate(idx):
            at[s] = (grp, i)

    # children enter t, B2, omega and B in child order
    t = np.zeros(n)
    log_b2 = np.zeros(n)
    omegas, jets = [], []
    for grp, i in at:
        t += grp.jet.h[i, 0]
        log_b2 += grp.log_b2[i]
        omega = grp.jet.omega
        omegas.append(omega if isinstance(omega, float) else omega[i])
        jets.append(grp.jet.jet[i])
    g_sums = np.zeros((1 + m, n)) if want else None
    if spec.leaf_cols:
        ul = rows[:, list(spec.leaf_cols)]
        t += fam.phi(th0, ul).sum(axis=1)
        log_b2 += fam.log_neg_phi_prime(th0, ul).sum(axis=1)
        if want:
            g_sums[0] = fam.dlog_neg_phi_prime_dtheta(th0, ul).sum(axis=1)
    omega = np.sum(omegas, axis=0) if m else np.zeros(n)

    # B-polynomials: coefficient index = sum of q_s, whose band m..d-|L|
    # holds the coefficients of k = K..d
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

    # score: S_a = sum_k (B^a + B * R_a) psi_hat / D over (theta, k, row)
    # arrays, summed in k order; each step is one product over all theta
    chain = _t_chain(spec, rows, groups, m, order)
    for grp in groups:
        g_sums[1 + grp.idx] = grp.g_sums
    p = spec.p
    R1 = np.empty((p,) + psi_col.ft.shape)
    R1[0] = psi_col.fr + chain.T0 * psi_col.ft
    R1[1:] = chain.Ts[:, None, :] * psi_col.ft
    acc = np.zeros((p, n))
    for i, ph in enumerate(psi_hat):
        acc += (B_grads[:, i] + B[i] * R1[:, i]) * ph
    S = acc / D
    # C order, as callers' reductions over rows depend on the layout
    grad = (S + g_sums).T.copy()
    if order == 1:
        return logc, grad, None

    ia, ib = _pairs(p)
    R2 = _psi_ratios_second(psi_col, chain, ia, ib)
    acc = np.zeros((len(ia), n))
    for i, ph in enumerate(psi_hat):
        G, R = B_grads[:, i], R1[:, i]
        acc += (
            B_hess[:, i] + G[ia] * R[ib] + G[ib] * R[ia] + B[i] * R2[:, i]
        ) * ph
    hv = acc / D - S[ia] * S[ib]
    hess = np.empty((n, p, p))
    hess[:, ia, ib] = hv.T
    hess[:, ib, ia] = hv.T
    # B2's second theta-derivatives: theta_0's from the root leaves,
    # theta_s's from child s's coordinates
    if spec.leaf_cols:
        hess[:, 0, 0] += fam.sum_d2log_neg_phi_prime_dtheta2(th0, ul, 1)
    for grp in groups:
        for i, s in enumerate(grp.idx):
            hess[:, 1 + s, 1 + s] += grp.g2_sums[i]
    return logc, grad, hess


def _psi_sum(spec, psi_col, Bk, omega, first):
    """D = sum_{k=K..d} B_{k-|L|} psi_hat[k], psi_hat = psi_0^(k)(t)/e^shift.

    Bk holds the B rows of k = K..d.  shift is each row's largest
    log|psi_0^(k)|; B may carry a per-row scale e^-omega.  Returns
    psi_hat as a (k, n) array, D and shift + omega + log((-1)^d D), or
    fails the block naming the global rows where (-1)^d D is not finite
    and positive.
    """
    ks = range(spec.K, spec.d + 1)
    shift = functools.reduce(np.maximum, [psi_col.logmag[k] for k in ks])
    psi_hat = np.empty((len(ks),) + shift.shape)
    for ph, k in zip(psi_hat, ks):
        np.subtract(psi_col.logmag[k], shift, out=ph)
        np.exp(ph, out=ph)
        ph *= psi_col.sign[k]
    # compensated sum over k, in place; comp carries the lost low bits
    D, tnew, comp = (np.zeros(shift.shape) for _ in range(3))
    for y in Bk * psi_hat:
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
    new factor are added from the old V and G.  G stacks dB/dtheta_a for
    a = 0..c, and H stacks the pairs a <= b in column order (``_pairs``),
    so each child appends its own column of pairs; each product is one
    ``_polymul`` over a stack.  Every entry holds the band of exponents
    c..(d_1 + ... + d_c), below which all coefficients are zero, so the
    final band holds the coefficients of k = K..d.
    """
    V = _polyunit(n)
    G = np.zeros((1, 1, n))
    H = np.zeros((1, 1, n))
    for s, jet in enumerate(jets):
        c = 1 + s
        a = jet[0]
        band = (V.shape[0] + a.shape[0] - 1, n)
        if order > 0:
            # V times every field; V is 1 before the first child
            VJ = _polymul(V, jet) if s else jet + 0.0
        if order > 1:
            Gr = _polymul(G, jet[1])
            Hn = np.zeros((len(H) + c + 1,) + band)
            _polymul(H, a, out=Hn[: len(H)])
            # (X + 2Y) + Z, not X += 2Y + Z: the order fixes the last bits
            Hn[0] = Hn[0] + 2.0 * Gr[0] + VJ[3]
            Hn[[t * (t + 1) // 2 for t in range(1, c)]] += Gr[1:]
            new = Hn[len(H) : -1]                 # pairs (t, c), t < c
            _polymul(G, jet[2], out=new)
            new[0] += VJ[4]
            Hn[-1] = VJ[5]
            H = Hn
        if order > 0:
            Gn = np.zeros((c + 1,) + band)
            _polymul(G, a, out=Gn[:c])
            Gn[0] += VJ[1]
            Gn[c] = VJ[2]
            G = Gn
        if s == 0:
            V = a
        else:
            V = VJ[0] if order > 0 else _polymul(V, a)
    return V, (G if order > 0 else None), (H if order > 1 else None)


def _psi_ratios_second(psi_col, chain, ia, ib):
    # R2 for every pair (ia, ib), a (pairs, k, n) array
    ft, ftt = psi_col.ft, psi_col.ftt
    frt, frr = psi_col.frt, psi_col.frr
    T0, Ts = chain.T0, chain.Ts
    R = np.empty((len(ia),) + ft.shape)
    R[0] = frr + 2.0 * T0 * frt + T0**2 * ftt + chain.T00 * ft
    top = (ia == 0) & (ib > 0)
    R[top] = (
        Ts[:, None] * frt
        + (T0 * Ts)[:, None] * ftt
        + chain.T0s[:, None] * ft
    )
    kids = ia > 0
    R[kids] = (Ts[ia[kids] - 1] * Ts[ib[kids] - 1])[:, None] * ftt
    R[kids & (ia == ib)] += chain.Tss[:, None] * ft
    return R
