"""Archimedean generator families and their derivative suites.

Each family bundles the generator psi, its inverse phi, the derivative
formulas needed by the two-level density, and the Kendall's tau map,
exact with no quadrature: ``tau`` and ``dtheta_dtau`` are closed forms
(Frank's Debye integral through Li2, Joe's digamma difference), with
series where those cancel, and Newton on the exact slope gives
its inverse.  Every family has ``psi_column``, log|psi^(k)(t)| and its
sign for k in a range, summed from same-sign terms (Eulerian polynomials
for Frank, Stirling numbers for Joe); ``psi_t_deriv`` is one k of it.
Every family also carries the theta-derivative suite, and each of its
formulas lives here once:

- the ratio rows of ``psi_column``: first and second t- and
  theta-derivatives of psi^(k);
- ``phi_derivs``: the first two theta-derivatives of phi;
- ``log_neg_phi_prime``, ``dlog_neg_phi_prime_dtheta`` and
  ``sum_d2log_neg_phi_prime_dtheta2``: log(-phi') and its first two
  theta-derivatives, the second summed over a block of coordinates;
- ``s_nk_table``: the polynomials s_nk(x) with their first two
  x-derivatives, used by the density's closed-form (Clayton, Gumbel)
  a-tables; ``s_nk_tables`` builds them for several n in one pass, for
  the Gumbel column.

The per-u methods that the density calls (``phi``, ``phi_prime``,
``log_neg_phi_prime``, ``phi_derivs`` and the log(-phi') derivatives)
take theta as a float, or as an array of one theta per entry of u's
leading axis, shaped to broadcast over u (such as (g, 1, 1)).  Each
entry then gets the bits of a call with that float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError

MAX_DIM = 32

__all__ = [
    "MAX_DIM",
    "UnsupportedFamilyError",
    "ThetaDomain",
    "PhiDerivs",
    "PsiColumn",
    "GeneratorFamily",
    "Clayton",
    "Gumbel",
    "Frank",
    "Joe",
    "get_family",
    "psi",
    "phi",
    "phi_prime",
    "phi_derivs",
    "psi_t_deriv",
    "tau",
    "tau_inv",
    "stirling_s",
    "stirling_S",
    "s_nk_table",
    "s_nk_tables",
]


class UnsupportedFamilyError(DomainError):
    """Requested operation has no implementation for this family."""


# ====================================================================
# Stirling-number machinery
# ====================================================================

def _check_dim(n: int) -> None:
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    if n > MAX_DIM:
        raise DomainError(
            f"order {n} exceeds the configured maximum {MAX_DIM}"
        )


@lru_cache(maxsize=None)
def _stirling_first_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # signed Stirling numbers of the first kind, exact integers
    rows = [(1,)]
    for m in range(1, n + 1):
        prev = rows[m - 1]
        row = []
        for k in range(m + 1):
            val = 0
            if k > 0:
                val += prev[k - 1]
            if k <= m - 1:
                val -= (m - 1) * prev[k]
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _stirling_second_rows(n: int) -> tuple[tuple[int, ...], ...]:
    rows = [(1,)]
    for m in range(1, n + 1):
        prev = rows[m - 1]
        row = []
        for k in range(m + 1):
            val = 0
            if k > 0:
                val += prev[k - 1]
            if k <= m - 1:
                val += k * prev[k]
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def stirling_s(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    _check_dim(n)
    if k < 0 or k > n:
        return 0
    return _stirling_first_rows(n)[n][k]


def stirling_S(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    _check_dim(n)
    if k < 0 or k > n:
        return 0
    return _stirling_second_rows(n)[n][k]


@lru_cache(maxsize=None)
def _s_nk_coeffs(n: int) -> np.ndarray:
    # [order, k, j]: coefficient of x^(j - order) in the order-th
    # x-derivative of s_nk(x) = sum_j x^j s(n,j) S(j,k); exact integer
    # products rounded once to float
    out = np.zeros((3, n + 1, n + 1))
    for k in range(n + 1):
        for j in range(n + 1):
            c = stirling_s(n, j) * stirling_S(j, k)
            out[:, k, j] = (float(c), float(c * j), float(c * j * (j - 1)))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _s_nk_coeff_stack(ns: tuple[int, ...]) -> np.ndarray:
    # [top - j, i, order, k]: _s_nk_coeffs(ns[i])[order, k, j], zero-padded
    # to the largest n, with the powers j from the top down
    top = max(ns)
    out = np.zeros((len(ns), 3, top + 1, top + 1))
    for i, n in enumerate(ns):
        out[i, :, : n + 1, : n + 1] = _s_nk_coeffs(n)
    out = np.ascontiguousarray(out[..., ::-1].transpose(3, 0, 1, 2))
    out.flags.writeable = False
    return out


def s_nk_tables(x, ns) -> np.ndarray:
    """``s_nk_table(x, n)`` for every n in ns, in one pass over x's powers.

    Entry i of the (len(ns), 3, N + 1, *x.shape) result, N = max(ns), is
    the table of n = ns[i], zero-padded in k up to N.  Every sum starts at
    zero and adds its terms from the highest power down; a padded or
    missing term adds +0, so each entry keeps the bits of its own one-n
    table.  Not cached: a table costs O(N^2) flops, and its argument x is
    a float that rarely repeats.
    """
    ns = tuple(int(n) for n in ns)
    for n in ns:
        _check_dim(n)
    x = np.asarray(x, dtype=float)
    top = max(ns)
    powers = [x**j for j in range(top + 1)]
    # pw[top - j, order] = x^(j - order), zero for j < order
    pw = np.zeros((top + 1, 3) + x.shape)
    for order in range(min(top, 2) + 1):
        pw[: top + 1 - order, order] = powers[top - order :: -1]
    terms = _s_nk_coeff_stack(ns).reshape(
        (top + 1, len(ns), 3, top + 1) + (1,) * x.ndim
    ) * pw[:, None, :, None]
    return np.add.reduce(terms, axis=0, initial=0.0)


def s_nk_table(x, n: int) -> np.ndarray:
    """s_nk(x) for k = 0..n with its first two x-derivatives.

    Entry [order, k] of the (3, n + 1, *x.shape) result is the order-th
    x-derivative of sum_{j=k}^n x^j s(n,j) S(j,k), summed from the highest
    power down.  An array x gives one table per entry.
    """
    return s_nk_tables(x, (n,))[0]


# ====================================================================
# Families
# ====================================================================

@dataclass(frozen=True)
class ThetaDomain:
    lo: float
    lo_open: bool

    def contains(self, theta: float) -> bool:
        if not math.isfinite(theta):
            return False
        return theta > self.lo if self.lo_open else theta >= self.lo

    def __str__(self):
        return f"{'(' if self.lo_open else '['}{self.lo}, inf)"


@dataclass(frozen=True)
class PhiDerivs:
    """Derivative suite of the inverse generator at (theta, u)."""

    dtheta: np.ndarray         # d phi / dtheta
    dtheta2: np.ndarray        # d2 phi / dtheta2


@dataclass
class PsiColumn:
    """log|psi^(k)(t)| and its sign for k = k_lo..k_hi, plus ratio rows.

    Every family's ``psi_column(theta, t, k_lo, k_hi, ratios=False)``
    returns one for 1-d t and 1 <= k_lo <= k_hi.

    The ratio rows are taken with respect to f = psi^(k) as a function of
    (t, theta): ft = f_t/f, ftt = f_tt/f, fr = f_theta/f,
    frr = f_theta,theta/f and frt = f_theta,t/f.  ``logmag`` and ``sign``
    map k to an (n,) row (a sign may be a float); each ratio field is one
    (k_hi - k_lo + 1, n) array whose row i belongs to k = k_lo + i, and
    stays None unless requested.
    """

    logmag: dict = field(default_factory=dict)
    sign: dict = field(default_factory=dict)
    ft: np.ndarray | None = None
    ftt: np.ndarray | None = None
    fr: np.ndarray | None = None
    frr: np.ndarray | None = None
    frt: np.ndarray | None = None

    def value(self, k: int) -> np.ndarray:
        out = np.exp(self.logmag[k])
        out *= self.sign[k]
        return out


def _validate_theta(fam: "GeneratorFamily", theta) -> None:
    # a float, or every entry of a theta column
    for th in theta.ravel() if isinstance(theta, np.ndarray) else (theta,):
        if not fam.domain.contains(th):
            raise DomainError(
                f"{fam.name}: theta={th} outside domain {fam.domain}"
            )


def _per_theta(f, theta):
    """The scalar function f at a float theta, or at each entry of a column.

    A per-child constant such as log(theta) keeps the bits of its scalar
    evaluation (``math.log`` may round differently from ``np.log``).
    """
    if not isinstance(theta, np.ndarray) or theta.ndim == 0:
        return f(theta)
    return np.array([f(float(t)) for t in theta.ravel()]).reshape(theta.shape)


def _pow_theta(base, expo):
    """base ** expo, with expo a float or one exponent per leading entry.

    numpy's ``**`` rounds a scalar exponent of 2, 0.5 or -1 as square,
    sqrt or reciprocal, which ``np.power`` with an array exponent does
    not, so each entry of a column takes the scalar operator.
    """
    if not isinstance(expo, np.ndarray) or expo.ndim == 0:
        return base ** expo
    return np.stack([b ** float(e) for b, e in zip(base, expo.ravel())])


def _ratio_rows(col, k_lo, k_hi, fr, frr):
    """Fill col's ratio rows from log|psi^(k)| for k = k_lo..k_hi + 2,
    fr for k = k_lo..k_hi + 1 and frr for k = k_lo..k_hi, then drop the
    two extra k: ft and ftt are ratios of neighbouring psi^(k), and
    frt = f_theta,t/f is ft times the next k's fr."""
    lm = np.array([col.logmag[k] for k in range(k_lo, k_hi + 3)])
    sg = np.array([col.sign[k] for k in range(k_lo, k_hi + 3)])[:, None]
    col.ft = sg[1:-1] * sg[:-2] * np.exp(lm[1:-1] - lm[:-2])
    col.ftt = sg[2:] * sg[:-2] * np.exp(lm[2:] - lm[:-2])
    col.fr = fr[:-1]
    col.frr = frr
    col.frt = col.ft * fr[1:]
    for k in (k_hi + 1, k_hi + 2):
        del col.logmag[k], col.sign[k]
    return col


def _as_nonneg(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("t must be non-negative")
    return t


def _as_unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u > 1)):
        raise DomainError("u must lie in (0, 1]")
    return u


_LN2 = math.log(2.0)


def _log1mexp(x):
    """log(1 - exp(-x)) for x >= 0 without cancellation on either side."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    hi = flat > _LN2
    i = np.flatnonzero(hi)
    out[i] = np.log1p(-np.exp(-flat[i]))
    i = np.flatnonzero(~hi)
    with np.errstate(divide="ignore"):
        out[i] = np.log(-np.expm1(-flat[i]))
    return out.reshape(x.shape)


class GeneratorFamily:
    """Base class; subclasses fill in the family-specific formulas."""

    name: str = ""
    domain: ThetaDomain = ThetaDomain(0.0, True)
    # gamma in the closed-form a-function base gamma**theta + t; None for
    # a family whose a-tables come from the implicit (Bell) recursion
    tilt: float | None = None
    tau_lo_attainable: bool = False   # is tau = 0 reached at the domain edge?

    # -- generator values ------------------------------------------------

    def psi(self, theta: float, t):
        raise NotImplementedError

    def phi(self, theta: float, u):
        raise NotImplementedError

    def phi_prime(self, theta: float, u):
        raise NotImplementedError

    def log_neg_phi_prime(self, theta: float, u):
        raise NotImplementedError

    # -- higher derivatives ----------------------------------------------

    def psi_t_deriv(self, theta: float, t, k: int):
        """k-th t-derivative of psi: psi itself, or one k of psi_column."""
        _validate_theta(self, theta)
        _check_dim(k)
        t = _as_nonneg(t)
        if k == 0:
            return self.psi(theta, t)
        col = self.psi_column(theta, np.atleast_1d(t).ravel(), k, k)
        out = col.value(k).reshape(t.shape)
        return out if out.ndim else float(out)

    def phi_derivs(self, theta: float, u) -> PhiDerivs:
        raise NotImplementedError

    def dlog_neg_phi_prime_dtheta(self, theta: float, u):
        raise NotImplementedError

    def sum_d2log_neg_phi_prime_dtheta2(self, theta: float, u, axis: int):
        """Second theta-derivative of log(-phi'(u)), summed over u's axis.

        Summed because Clayton's and Gumbel's term, -1/theta^2 per
        coordinate, then is one quotient -n/theta^2 for n coordinates.
        """
        raise NotImplementedError

    # -- Kendall's tau -----------------------------------------------------

    def tau(self, theta: float) -> float:
        _validate_theta(self, theta)
        return float(self._tau_jet(theta)[0])

    def tau_inv(self, tau_val: float) -> float:
        """theta with tau(theta) = tau_val, by Newton on the exact slope.

        ``_tau_jet(theta)`` gives tau, 1 - tau and d tau/d theta, each to
        full relative accuracy, also on the domain's edge.  tau is
        increasing and concave, so Newton from that edge rises monotonically
        onto the root.  Above tau = 1/2 the residual is taken in 1 - tau.
        """
        self._check_tau_range(tau_val)
        s, theta = 1.0 - tau_val, self.domain.lo
        for _ in range(100):
            tau, co, slope = self._tau_jet(theta)
            step = (tau_val - tau if tau_val <= 0.5 else co - s) / slope
            if step <= 0.0:
                break
            theta += step
            if step <= 1e-9 * theta:         # the error left is about step^2
                break
        return float(theta)

    def dtheta_dtau(self, tau_val: float) -> float:
        """d theta / d tau at tau_val, the reciprocal slope of the tau map."""
        return float(1.0 / self._tau_jet(self.tau_inv(tau_val))[2])

    def _check_tau_range(self, tau_val: float) -> None:
        lo_ok = tau_val >= 0.0 if self.tau_lo_attainable else tau_val > 0.0
        if not (lo_ok and tau_val < 1.0):
            raise DomainError(
                f"{self.name}: tau={tau_val} outside the attainable range"
            )


class Clayton(GeneratorFamily):
    name = "clayton"
    domain = ThetaDomain(0.0, True)
    tilt = 1.0
    tau_lo_attainable = False

    def psi(self, theta, t):
        _validate_theta(self, theta)
        t = _as_nonneg(t)
        out = np.exp(-np.log1p(t) / theta)
        return out if out.ndim else float(out)

    def phi(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        out = np.expm1(-theta * np.log(u))
        return out if out.ndim else float(out)

    def phi_prime(self, theta, u):
        u = _as_unit(u)
        out = -theta * _pow_theta(u, -theta - 1.0)
        return out if out.ndim else float(out)

    def log_neg_phi_prime(self, theta, u):
        u = _as_unit(u)
        return _per_theta(math.log, theta) - (theta + 1.0) * np.log(u)

    def psi_column(self, theta, t, k_lo, k_hi, ratios=False):
        # psi^(k)(t) = (nu)_k (1 + t)^(nu - k) with nu = -1/theta
        # the ratio rows of every k at once, from per-k constants held as
        # (K, 1) columns
        col = PsiColumn()
        nu = -1.0 / theta
        L = np.log1p(t)
        ks = range(k_lo, k_hi + 1)
        sums = [
            _falling_log_sums(nu, k, ratios)
            for k in range(k_lo, k_hi + (2 if ratios else 1))
        ]
        for k, (logff, _, _) in zip(ks, sums):
            col.logmag[k] = logff + (nu - k) * L
            col.sign[k] = float((-1.0) ** k)
        if not ratios:
            return col
        nu_k, s1, ftt_k, s2_k = np.array([
            (nu - k, s1, (nu - k) * (nu - k - 1.0), s2 / theta**4)
            for k, (_, s1, s2) in zip(ks, sums)
        ]).T[:, :, None]
        einv = np.exp(-L)
        col.ft = nu_k * einv
        col.ftt = ftt_k * einv**2
        col.fr = fr = (s1 + L) / theta**2
        col.frr = fr**2 - s2_k - 2.0 * (s1 + L) / theta**3
        s1n = np.array([sums[i + 1][1] for i in range(len(ks))])[:, None]
        col.frt = col.ft * (s1n + L) / theta**2
        return col

    def phi_derivs(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        lu = np.log(u)
        dtheta = _pow_theta(u, -theta) * (-lu)
        dtheta2 = dtheta * (-lu)
        return PhiDerivs(dtheta, dtheta2)

    def dlog_neg_phi_prime_dtheta(self, theta, u):
        u = _as_unit(u)
        return 1.0 / theta - np.log(u)

    def sum_d2log_neg_phi_prime_dtheta2(self, theta, u, axis):
        # -1/theta^2 per coordinate, so the sum is one quotient, broadcast
        # over u's other axes (a theta column loses the summed axis too)
        u = _as_unit(u)
        n = u.shape[axis]
        if isinstance(theta, np.ndarray) and theta.ndim:
            theta = np.squeeze(theta, axis)
        total = _per_theta(lambda th: -(n / th**2), theta)
        return np.broadcast_to(total, np.delete(u.shape, axis))

    def tau(self, theta):
        _validate_theta(self, theta)
        return theta / (theta + 2.0)

    def tau_inv(self, tau_val):
        self._check_tau_range(tau_val)
        return 2.0 * tau_val / (1.0 - tau_val)

    def dtheta_dtau(self, tau_val):
        return 2.0 / (1.0 - tau_val) ** 2


class Gumbel(GeneratorFamily):
    name = "gumbel"
    domain = ThetaDomain(1.0, False)
    tilt = 0.0
    tau_lo_attainable = True

    def psi(self, theta, t):
        _validate_theta(self, theta)
        t = _as_nonneg(t)
        with np.errstate(divide="ignore"):
            out = np.exp(-np.exp(np.log(t) / theta))
        out = np.where(t == 0.0, 1.0, out)
        return out if out.ndim else float(out)

    def phi(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        with np.errstate(divide="ignore"):
            out = np.exp(theta * np.log(-np.log(u)))
        out = np.where(u == 1.0, 0.0, out)
        return out if out.ndim else float(out)

    def phi_prime(self, theta, u):
        u = _as_unit(u)
        ml = -np.log(u)
        out = -theta / u * _pow_theta(ml, theta - 1.0)
        return out if out.ndim else float(out)

    def log_neg_phi_prime(self, theta, u):
        u = _as_unit(u)
        return (
            _per_theta(math.log, theta)
            - np.log(u)
            + (theta - 1.0) * np.log(-np.log(u))
        )

    def psi_t_deriv(self, theta, t, k):
        if np.any(np.asarray(t, dtype=float) <= 0):
            raise DomainError("t must be positive for Gumbel derivatives")
        return super().psi_t_deriv(theta, t, k)

    def psi_column(self, theta, t, k_lo, k_hi, ratios=False):
        # psi^(k)(t) = psi(t) sum_q (-1)^q s_kq(y) t^(q y - k) with y = 1/theta;
        # for theta >= 1 every summand shares the sign (-1)^k, so each sum
        # is taken after a per-row shift m_k without cancellation (k >= 1).
        # The q-terms of every k sit side by side in one (n, sum of k)
        # array, and each k's sums are matrix-vector products on its own
        # columns, with the s_kq read from one table pass
        col = PsiColumn()
        y = 1.0 / theta
        L = np.log(t)
        r = np.exp(y * L)                     # t**(1/theta)
        ks = list(range(k_lo, k_hi + (3 if ratios else 1)))
        lo = np.cumsum([0] + ks)              # k's columns are lo[i]:lo[i + 1]
        q = np.concatenate([np.arange(k) for k in ks])        # q - 1
        c = (q + 1.0) * y - np.repeat(np.array(ks, dtype=float), ks)
        base = c * L[:, None]                 # (q y - k) log t
        # m_k, the largest of k's exponents: q = k where log t > 0, else 1
        m = np.where(L > 0.0, c[lo[1:] - 1, None] * L, c[lo[:-1], None] * L)
        base -= np.repeat(m.T, ks, axis=1)
        np.exp(base, out=base)
        sk = s_nk_tables(y, ks)[:, :, 1:]     # s_kq(y) and its y-derivatives
        sgn = np.array([(-1.0) ** q for q in range(1, ks[-1] + 1)])
        w0 = sgn * sk[:, 0]

        def sums(terms, vec, count):
            out = np.empty((count, len(t)))
            for i in range(count):
                cols = slice(lo[i], lo[i + 1])
                np.matmul(terms[:, cols], vec[i, : ks[i]], out=out[i])
            return out

        def times_base(f, width):
            # base times f(q, row) on the columns of k < k_lo + width
            out = np.take(f, q[: lo[width]], axis=1)
            out *= base[:, : lo[width]]
            return out

        S0 = sums(base, w0, len(ks))
        n_k = k_hi - k_lo + 1
        col.logmag = dict(zip(ks, -r + m[:n_k] + np.log(np.abs(S0[:n_k]))))
        col.sign = dict(zip(ks, np.sign(S0[:n_k])))
        if not ratios:
            return col
        psir_r = r * L / theta**2             # psi_dot/psi
        psirr_r = psir_r * ((r - 1.0) * L / theta**2 - 2.0 / theta)
        jL = np.arange(1.0, k_hi + 2.0) * L[:, None]         # q log t
        S1 = sums(times_base(-jL / theta**2, n_k + 1), w0, n_k + 1) + sums(
            base, sgn * (-sk[:, 1] / theta**2), n_k + 1
        )
        jL = jL[:, :k_hi]
        S2 = (
            sums(
                times_base((jL / theta**2) ** 2 + 2.0 * jL / theta**3, n_k),
                w0,
                n_k,
            )
            + sums(times_base(2.0 * jL / theta**4, n_k), sgn * sk[:, 1], n_k)
            + sums(
                base,
                sgn * (sk[:, 2] / theta**4 + 2.0 * sk[:, 1] / theta**3),
                n_k,
            )
        )
        q1 = S1 / S0[: n_k + 1]
        col.fr = psir_r + q1[:n_k]
        col.frr = psirr_r + 2.0 * psir_r * q1[:n_k] + S2 / S0[:n_k]
        col.ft = np.exp(m[1 : n_k + 1] - m[:n_k]) * S0[1 : n_k + 1] / S0[:n_k]
        col.ftt = np.exp(m[2:] - m[:n_k]) * S0[2:] / S0[:n_k]
        col.frt = col.ft * (psir_r + q1[1:])
        return col

    def phi_derivs(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        ml = -np.log(u)
        lml = np.log(ml)
        ph = _pow_theta(ml, theta)
        dtheta = ph * lml
        dtheta2 = dtheta * lml
        return PhiDerivs(dtheta, dtheta2)

    def dlog_neg_phi_prime_dtheta(self, theta, u):
        u = _as_unit(u)
        return 1.0 / theta + np.log(-np.log(u))

    sum_d2log_neg_phi_prime_dtheta2 = Clayton.sum_d2log_neg_phi_prime_dtheta2

    def tau(self, theta):
        _validate_theta(self, theta)
        return 1.0 - 1.0 / theta

    def tau_inv(self, tau_val):
        self._check_tau_range(tau_val)
        return 1.0 / (1.0 - tau_val)

    def dtheta_dtau(self, tau_val):
        return 1.0 / (1.0 - tau_val) ** 2


def _falling_log_sums(nu: float, k: int, ratios: bool):
    # log|(nu)_k| and, for the ratio rows, the first two log-derivative
    # sums in nu
    idx = np.arange(k, dtype=float)
    logmag = float(np.sum(np.log(np.abs(nu - idx)))) if k else 0.0
    if not ratios:
        return logmag, None, None
    r = 1.0 / (nu - idx)
    return logmag, float(r.sum()), float((r * r).sum())


class Frank(GeneratorFamily):
    name = "frank"
    domain = ThetaDomain(0.0, True)
    tau_lo_attainable = False

    def psi(self, theta, t):
        _validate_theta(self, theta)
        out = -_frank_log1mw(theta, _as_nonneg(t)) / theta
        return out if out.ndim else float(out)

    def phi(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        # -log(r) with r = expm1(-theta u)/expm1(-theta), exact for small u,
        # plus the rounding error of r, (r - 1) - x with x = r - 1 in the
        # difference form exp(-theta u) expm1(-theta(1-u))/c0, which keeps
        # the digits of phi as u -> 1; for r <= 1/2 it is below an ulp
        c0 = -_per_theta(math.expm1, -theta)
        ntu = -theta * u
        r = np.expm1(ntu) / -c0
        x = np.exp(ntu) * np.expm1(-theta * (1.0 - u)) / c0
        with np.errstate(divide="ignore"):
            out = (r - 1.0) - x - np.log(r)
        return out if out.ndim else float(out)

    def _phi_prime_parts(self, theta, u):
        # -theta u and -expm1(-theta u) > 0, exact as u -> 0, where
        # e^(-theta u) - 1 would cancel
        u = _as_unit(u)
        ntu = -theta * u
        return u, ntu, -np.expm1(ntu)

    def phi_prime(self, theta, u):
        _, ntu, m = self._phi_prime_parts(theta, u)
        out = -theta * np.exp(ntu) / m
        return out if out.ndim else float(out)

    def log_neg_phi_prime(self, theta, u):
        _, ntu, m = self._phi_prime_parts(theta, u)
        return _per_theta(math.log, theta) + ntu - np.log(m)

    def phi_derivs(self, theta, u):
        # phi_theta = 1/expm1(theta) - u/expm1(theta u), each quotient in
        # its e^-x/(1 - e^-x) form, which cannot overflow
        _validate_theta(self, theta)
        u, ntu, m = self._phi_prime_parts(theta, u)
        c1 = _per_theta(lambda th: math.exp(-th) / -math.expm1(-th), theta)
        c2 = _per_theta(
            lambda th: math.exp(-th) / math.expm1(-th) ** 2, theta
        )
        ue_m = u * np.exp(ntu) / m
        return PhiDerivs(c1 - ue_m, u * ue_m / m - c2)

    def dlog_neg_phi_prime_dtheta(self, theta, u):
        u, _, m = self._phi_prime_parts(theta, u)
        return 1.0 / theta - u / m

    def sum_d2log_neg_phi_prime_dtheta2(self, theta, u, axis):
        u, ntu, m = self._phi_prime_parts(theta, u)
        return (u * u * np.exp(ntu) / (m * m) - 1.0 / theta**2).sum(axis=axis)

    def psi_column(self, theta, t, k_lo, k_hi, ratios=False):
        # (-1)^k psi^(k)(t) = w A_{k-1}(w) / (theta (1 - w)^k) with the
        # Eulerian polynomial A_n: every term is positive.  log(1 - w) is
        # needed to absolute accuracy only, so 1 - w is the sum of the
        # positive -expm1(-t) and e^-t e^-theta, good to about an ulp, with
        # psi's log-scale form only where that sum nears underflow.
        # theta moves w = (1 - e^-theta) e^-t as -c1 d/dt does, c1 =
        # 1/expm1(theta), so with f = psi^(k) = G(w)/theta the ratio rows
        # are f_theta/f = -c1 ft - 1/theta and f_theta,theta/f =
        # c1 (1 + c1) ft + c1^2 ftt + 2 c1 ft/theta + 2/theta^2
        col = PsiColumn()
        e = np.exp(-t)
        w = -math.expm1(-theta) * e
        one_m_w = e * math.exp(-theta)
        one_m_w -= np.expm1(-t)
        with np.errstate(divide="ignore"):
            log1mw = np.log(one_m_w)
        if one_m_w.min(initial=1.0) < 1e-290:
            tiny = np.flatnonzero(one_m_w < 1e-290)
            log1mw[tiny] = _frank_log1mw(theta, t[tiny])
        base = math.log(-math.expm1(-theta) / theta) - t      # log(w/theta)
        for k in range(k_lo, k_hi + (3 if ratios else 1)):
            col.logmag[k] = lm = base - k * log1mw
            a = _eulerian_row(k - 1)
            if len(a) > 1:
                acc = w * a[-1]
                for c in a[-2:0:-1]:
                    acc += c
                    acc *= w
                acc += a[0]
                lm += np.log(acc)
            col.sign[k] = float((-1.0) ** k)
        if not ratios:
            return col
        c1 = math.exp(-theta) / -math.expm1(-theta)
        lm = np.array([col.logmag[k] for k in range(k_lo, k_hi + 3)])
        ft = -np.exp(lm[1:] - lm[:-1])            # k = k_lo..k_hi + 1
        ftt = ft[:-1] * ft[1:]
        fr = -c1 * ft - 1.0 / theta
        frr = (c1 * (1.0 + c1) * ft[:-1] + c1 * c1 * ftt
               + 2.0 * c1 * ft[:-1] / theta + 2.0 / theta**2)
        return _ratio_rows(col, k_lo, k_hi, fr, frr)

    def _tau_jet(self, theta):
        # tau = 1 - 4/theta + 4 I/theta^2, I = int_0^theta t/(e^t - 1) dt
        # = pi^2/6 - Li2(e^-theta) + theta log(1 - e^-theta) (Debye); below
        # theta = 2, where that cancels, tau's Bernoulli series
        if theta < 2.0:
            c, dc = _tau_series()[:2]
            tau = theta * _polyval(c, theta * theta)
            return tau, 1.0 - tau, _polyval(dc, theta * theta)
        e = math.exp(-theta)
        debye = (math.pi**2 / 6.0 - special.spence(-math.expm1(-theta))
                 + theta * math.log1p(-e))
        co = 4.0 / theta * (1.0 - debye / theta)
        slope = 4.0 / theta**2 * (1.0 + theta * e / -math.expm1(-theta)
                                  - 2.0 * debye / theta)
        return 1.0 - co, co, slope


class Joe(GeneratorFamily):
    name = "joe"
    domain = ThetaDomain(1.0, False)
    tau_lo_attainable = True

    def psi(self, theta, t):
        _validate_theta(self, theta)
        t = _as_nonneg(t)
        out = -np.expm1(_log1mexp(t) / theta)
        return out if out.ndim else float(out)

    def phi(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        # -log(1 - (1-u)^theta) with the power kept on log scale
        with np.errstate(divide="ignore"):
            out = -_log1mexp(-theta * np.log1p(-u))
        return out if out.ndim else float(out)

    def _phi_prime_parts(self, theta, u):
        # L = log(1 - u), theta L and 1 - (1 - u)^theta > 0, exact as
        # u -> 0, where 1 - w (1 - u) would cancel
        u = _as_unit(u)
        L = np.log1p(-u)
        tL = theta * L
        return L, tL, -np.expm1(tL)

    def phi_prime(self, theta, u):
        L, _, m = self._phi_prime_parts(theta, u)
        out = -theta * np.exp((theta - 1.0) * L) / m
        return out if out.ndim else float(out)

    def log_neg_phi_prime(self, theta, u):
        L, _, m = self._phi_prime_parts(theta, u)
        return _per_theta(math.log, theta) + (theta - 1.0) * L - np.log(m)

    def phi_derivs(self, theta, u):
        _validate_theta(self, theta)
        L, tL, m = self._phi_prime_parts(theta, u)
        dtheta = L * np.exp(tL) / m
        return PhiDerivs(dtheta, dtheta * L / m)

    def dlog_neg_phi_prime_dtheta(self, theta, u):
        L, _, m = self._phi_prime_parts(theta, u)
        return 1.0 / theta + L / m

    def sum_d2log_neg_phi_prime_dtheta2(self, theta, u, axis):
        L, tL, m = self._phi_prime_parts(theta, u)
        return (L * L * np.exp(tL) / (m * m) - 1.0 / theta**2).sum(axis=axis)

    def psi_column(self, theta, t, k_lo, k_hi, ratios=False):
        # (-1)^k psi^(k)(t) = alpha sum_j c_kj v^alpha y^j with alpha =
        # 1/theta, v = 1 - e^-t, y = e^-t/v and the positive coefficients
        # c_kj = S(k,j) (1-alpha)(2-alpha)...(j-1-alpha).  The polynomial in
        # y is evaluated in y where y <= 1, and in 1/y after the per-row
        # shift y^k elsewhere, so no power overflows.  log v is needed to
        # absolute accuracy only, which log(-expm1(-t)) has for every t.
        # theta enters through alpha only; the alpha-derivatives of the
        # coefficients have one sign each (ff' <= 0 <= ff''), so the
        # polynomial's derivatives P' and P'' are same-sign sums too
        col = PsiColumn()
        alpha = 1.0 / theta
        with np.errstate(divide="ignore"):
            lv = np.log(-np.expm1(-t))
        z = -t - lv                                # log y
        up = z > 0.0
        ys = np.exp(-np.abs(z))
        base = math.log(alpha) + alpha * lv
        top = k_hi + (2 if ratios else 0)
        # ff[j - 1] = (1-alpha)...(j-1-alpha) with its alpha-derivatives
        ff, d1, d2 = [1.0], [0.0], [0.0]
        for i in range(1, top):
            d2.append(d2[-1] * (i - alpha) - 2.0 * d1[-1])
            d1.append(d1[-1] * (i - alpha) - ff[-1])
            ff.append(ff[-1] * (i - alpha))

        def poly(c, k):
            acc = np.where(up, c[0], c[-1])
            for i in range(1, k):
                acc *= ys
                acc += np.where(up, c[i], c[-1 - i])
            return acc

        fr, frr = [], []
        for k in range(k_lo, top + 1):
            S = [stirling_S(k, j) for j in range(1, k + 1)]
            acc = poly([s * f for s, f in zip(S, ff)], k)
            col.logmag[k] = base + np.maximum(z, k * z) + np.log(acc)
            col.sign[k] = float((-1.0) ** k)
            if not ratios or k > k_hi + 1:
                continue
            # log f = log alpha + alpha lv + log P: Pa = P'/P, a1 = (log
            # f)' in alpha; theta-derivatives by d alpha/d theta = -alpha^2
            pa = poly([s * f for s, f in zip(S, d1)], k) / acc
            a1 = theta + lv + pa
            fr.append(-alpha * alpha * a1)
            if k > k_hi:
                continue
            paa = poly([s * f for s, f in zip(S, d2)], k) / acc
            f_aa = paa + 2.0 * (lv + pa) * theta + lv * (lv + 2.0 * pa)
            frr.append(alpha**4 * f_aa + 2.0 * alpha**3 * a1)
        if not ratios:
            return col
        return _ratio_rows(col, k_lo, k_hi, np.array(fr), np.array(frr))

    def _tau_jet(self, theta):
        # tau = 1 + a g(a), a = 2/theta, g = (psi(2) - psi(1 + a))/(a - 1)
        # summing Joe's series; g is its Taylor series about the removable
        # theta = 2, convergent for theta >= 1.  Near theta = 1, where tau
        # -> 0 cancels, tau = 2 (theta - 1) T(b)/(2 - theta), b = 2 - a
        g_c, dg_c, t_c = _tau_series()[2:]
        a = 2.0 / theta
        g = _polyval(g_c, 1.0 - a)
        slope = -0.5 * a * a * (g + a * _polyval(dg_c, 1.0 - a))
        if theta < 1.15:
            b = 2.0 * (theta - 1.0) / theta
            tau = 2.0 * (theta - 1.0) * _polyval(t_c, b) / (2.0 - theta)
            return tau, 1.0 - tau, slope
        return 1.0 + a * g, -a * g, slope


# ---- Frank helpers ----------------------------------------------------

def _frank_log1mw(theta: float, t: np.ndarray) -> np.ndarray:
    """log(1 - w) with w = (1 - e^-theta) e^-t, which is -theta psi(t).

    Where w <= 1/2, log1p keeps it accurate; elsewhere 1 - w is the sum of
    -expm1(-t) and exp(-t - theta), both positive, added on log scale so
    that neither underflows as t -> 0 or theta grows.  Each form runs on
    its own elements only.
    """
    w = (-math.expm1(-theta) * np.exp(-t)).ravel()
    out = np.empty_like(w)
    lo = w <= 0.5
    i = np.flatnonzero(lo)
    out[i] = np.log1p(-w[i])
    i = np.flatnonzero(~lo)
    ti = t.ravel()[i]
    with np.errstate(divide="ignore"):
        out[i] = np.logaddexp(np.log(-np.expm1(-ti)), -ti - theta)
    return out.reshape(t.shape)


@lru_cache(maxsize=None)
def _eulerian_row(n: int) -> tuple[float, ...]:
    # Eulerian numbers A(n, 0..n-1), the coefficients of A_n; A_0 = 1
    row = [1]
    for m in range(2, n + 1):
        new = []
        for i in range(m):
            left = row[i] if i < len(row) else 0
            right = row[i - 1] if i - 1 >= 0 else 0
            new.append((i + 1) * left + (m - i) * right)
        row = new
    return tuple(float(a) for a in row)


# ---- Kendall's tau series ---------------------------------------------

@lru_cache(maxsize=None)
def _tau_series() -> tuple[tuple[float, ...], ...]:
    """Coefficients, highest power first: Frank's tau/theta and slope in
    theta^2, c_k = 4 B_2k/((2k+1)(2k)!) = 8 (-1)^(k+1) zeta(2k)/((2k+1)
    (2 pi)^2k); Joe's g = -sum_n zeta(n+1, 2) (1-a)^(n-1) and g' (terms
    below 2^-n), and T(b) = 2 zeta(2, 3) - 1/2 + sum_n (2 zeta(n+2, 3)
    - zeta(n+1, 3)) b^n, with psi^(n)(q) = (-1)^(n+1) n! zeta(n+1, q)."""
    k = np.arange(20.0, 0.0, -1.0)
    c = 8.0 * (-1.0) ** (k + 1) * special.zeta(2.0 * k) / (
        (2.0 * k + 1.0) * (2.0 * math.pi) ** (2.0 * k)
    )
    t = 2.0 * special.zeta(k + 1.0, 3.0) - special.zeta(k, 3.0)
    t[-1] = 2.0 * special.zeta(2.0, 3.0) - 0.5
    n = np.arange(64.0, 0.0, -1.0)
    return tuple(tuple(v.tolist()) for v in (c, c * (2.0 * k - 1.0),
                 -special.zeta(n + 1.0, 2.0), n * special.zeta(n + 2.0, 2.0), t))


def _polyval(coeffs, x: float) -> float:
    # np.polyval on Python floats, without numpy's per-term scalar cost
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


# ====================================================================
# Registry and functional front-end
# ====================================================================

_FAMILIES: dict[str, GeneratorFamily] = {
    f.name: f for f in (Clayton(), Gumbel(), Frank(), Joe())
}


def get_family(family) -> GeneratorFamily:
    if isinstance(family, GeneratorFamily):
        return family
    try:
        return _FAMILIES[str(family).lower()]
    except KeyError:
        raise UnsupportedFamilyError(f"unknown family {family!r}") from None


def psi(family, theta: float, t):
    """Generator value psi_theta(t)."""
    return get_family(family).psi(theta, t)


def phi(family, theta: float, u):
    """Inverse generator value phi_theta(u)."""
    return get_family(family).phi(theta, u)


def phi_prime(family, theta: float, u):
    """First derivative of the inverse generator in u (all families)."""
    return get_family(family).phi_prime(theta, u)


def phi_derivs(family, theta: float, u) -> PhiDerivs:
    """First two theta-derivatives of the inverse generator."""
    return get_family(family).phi_derivs(theta, u)


def psi_t_deriv(family, theta: float, t, k: int):
    """k-th derivative of psi in t, one k of the family's psi_column."""
    return get_family(family).psi_t_deriv(theta, t, k)


def tau(family, theta: float) -> float:
    """Kendall's tau of the bivariate Archimedean copula with this generator."""
    return get_family(family).tau(theta)


def tau_inv(family, tau_val: float) -> float:
    """Inverse of the tau map; errors if tau is outside the attainable range."""
    return get_family(family).tau_inv(tau_val)
