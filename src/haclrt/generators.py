"""Archimedean generator families and their derivative suites.

Each family bundles the generator psi, its inverse phi, the derivative
formulas needed by the two-level density (t-derivatives of every order,
first and second parameter derivatives of the inverse generator), and
the Kendall's tau map with its inverse.  Clayton and Gumbel carry the full
analytic suite; Frank and Joe provide values, first t-derivatives of any
order, and tau maps, which is what sampling, generic density evaluation
and finite-difference information estimates require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize

from .errors import DomainError

MAX_DIM = 32

__all__ = [
    "MAX_DIM",
    "UnsupportedFamilyError",
    "ThetaDomain",
    "PhiDerivs",
    "TauGrid",
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
    "s_nk",
    "falling_factorial",
]


class UnsupportedFamilyError(DomainError):
    """Requested operation has no implementation for this family."""


# ====================================================================
# Stirling-number machinery
# ====================================================================

def _check_dim(n: int, max_dim: int) -> None:
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    if n > max_dim:
        raise DomainError(
            f"order {n} exceeds the configured maximum {max_dim}"
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


def stirling_s(n: int, k: int, max_dim: int = MAX_DIM) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    _check_dim(n, max_dim)
    if k < 0 or k > n:
        return 0
    return _stirling_first_rows(n)[n][k]


def stirling_S(n: int, k: int, max_dim: int = MAX_DIM) -> int:
    """Stirling number of the second kind S(n, k)."""
    _check_dim(n, max_dim)
    if k < 0 or k > n:
        return 0
    return _stirling_second_rows(n)[n][k]


@lru_cache(maxsize=None)
def _s_nk_coeffs(n: int, k: int) -> tuple[int, ...]:
    # coefficient of x^j in s_nk(x) = sum_j x^j s(n,j) S(j,k), j = 0..n
    return tuple(
        stirling_s(n, j) * stirling_S(j, k) for j in range(n + 1)
    )


def s_nk(x, n: int, k: int, order: int = 0, max_dim: int = MAX_DIM):
    """Polynomial sum_{j=k}^n x^j s(n,j) S(j,k), or its derivative in x.

    `order` 0, 1 or 2 selects the value, first or second derivative.
    Accepts scalar or array x.
    """
    _check_dim(n, max_dim)
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    coeffs = _s_nk_coeffs(n, k)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(n, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        if order == 0:
            out = out + float(c) * x**j
        elif order == 1:
            if j >= 1:
                out = out + float(c * j) * x ** (j - 1)
        else:
            if j >= 2:
                out = out + float(c * j * (j - 1)) * x ** (j - 2)
    return out if out.ndim else float(out)


def falling_factorial(x, n: int, order: int = 0, max_dim: int = MAX_DIM):
    """Falling factorial (x)_n = x(x-1)...(x-n+1) and its x-derivatives."""
    _check_dim(n, max_dim)
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    x = np.asarray(x, dtype=float)
    if n == 0:
        val = np.ones_like(x)
        out = val if order == 0 else np.zeros_like(x)
        return out if out.ndim else float(out)
    if order == 0:
        out = np.ones_like(x)
        for i in range(n):
            out = out * (x - i)
        return out if out.ndim else float(out)
    rows = _stirling_first_rows(n)[n]
    out = np.zeros_like(x)
    for j in range(n, 0, -1):
        c = rows[j]
        if c == 0:
            continue
        if order == 1 and j >= 1:
            out = out + float(c * j) * x ** (j - 1)
        elif order == 2 and j >= 2:
            out = out + float(c * j * (j - 1)) * x ** (j - 2)
    return out if out.ndim else float(out)


# ====================================================================
# Families
# ====================================================================

@dataclass(frozen=True)
class ThetaDomain:
    lo: float
    lo_open: bool

    def contains(self, theta: float) -> bool:
        if not np.isfinite(theta):
            return False
        return theta > self.lo if self.lo_open else theta >= self.lo


@dataclass(frozen=True)
class PhiDerivs:
    """Derivative suite of the inverse generator at (theta, u)."""

    dtheta: np.ndarray         # d phi / dtheta
    dtheta2: np.ndarray        # d2 phi / dtheta2


@dataclass(frozen=True)
class TauGrid:
    """Monotone (theta, tau) knot table used to bracket tau inversion."""

    family: str
    thetas: tuple[float, ...]
    taus: tuple[float, ...]
    tol: float = 1e-12


def _validate_theta(fam: "GeneratorFamily", theta: float) -> None:
    if not fam.domain.contains(theta):
        lo = fam.domain.lo
        op = "(" if fam.domain.lo_open else "["
        raise DomainError(
            f"{fam.name}: theta={theta} outside domain {op}{lo}, inf)"
        )


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
    out = np.empty_like(x)
    hi = x > _LN2
    out[hi] = np.log1p(-np.exp(-x[hi]))
    with np.errstate(divide="ignore"):
        out[~hi] = np.log(-np.expm1(-x[~hi]))
    return out


class GeneratorFamily:
    """Base class; subclasses fill in the family-specific formulas."""

    name: str = ""
    domain: ThetaDomain = ThetaDomain(0.0, True)
    tilt: float = 0.0          # gamma in the a-function base gamma**theta + t
    tau_lo_attainable: bool = False   # is tau = 0 reached at the domain edge?

    # -- generator values ------------------------------------------------

    def psi(self, theta: float, t):
        raise NotImplementedError

    def phi(self, theta: float, u):
        raise NotImplementedError

    def phi_prime(self, theta: float, u):
        raise NotImplementedError

    def log_neg_phi_prime(self, theta: float, u):
        u = _as_unit(u)
        return np.log(-self.phi_prime(theta, u))

    # -- higher derivatives ----------------------------------------------

    def psi_t_deriv(self, theta: float, t, k: int):
        raise UnsupportedFamilyError(
            f"{self.name}: analytic psi derivatives are not available"
        )

    def phi_derivs(self, theta: float, u) -> PhiDerivs:
        raise UnsupportedFamilyError(
            f"{self.name}: analytic theta derivatives are not available"
        )

    def dlog_neg_phi_prime_dtheta(self, theta: float, u):
        raise UnsupportedFamilyError(
            f"{self.name}: analytic theta derivatives are not available"
        )

    # -- Kendall's tau -----------------------------------------------------

    def tau(self, theta: float) -> float:
        raise NotImplementedError

    def tau_inv(self, tau_val: float) -> float:
        raise NotImplementedError

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
        out = -theta * u ** (-theta - 1.0)
        return out if out.ndim else float(out)

    def log_neg_phi_prime(self, theta, u):
        u = _as_unit(u)
        return math.log(theta) - (theta + 1.0) * np.log(u)

    def psi_t_deriv(self, theta, t, k):
        _validate_theta(self, theta)
        _check_dim(k, MAX_DIM)
        t = _as_nonneg(t)
        ff = falling_factorial(-1.0 / theta, k)
        out = ff * np.exp((-1.0 / theta - k) * np.log1p(t))
        return out if out.ndim else float(out)

    def phi_derivs(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        lu = np.log(u)
        dtheta = u ** (-theta) * (-lu)
        dtheta2 = dtheta * (-lu)
        return PhiDerivs(dtheta, dtheta2)

    def dlog_neg_phi_prime_dtheta(self, theta, u):
        u = _as_unit(u)
        return 1.0 / theta - np.log(u)

    def tau(self, theta):
        _validate_theta(self, theta)
        return theta / (theta + 2.0)

    def tau_inv(self, tau_val):
        self._check_tau_range(tau_val)
        return 2.0 * tau_val / (1.0 - tau_val)


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
        out = -theta / u * ml ** (theta - 1.0)
        return out if out.ndim else float(out)

    def log_neg_phi_prime(self, theta, u):
        u = _as_unit(u)
        return math.log(theta) - np.log(u) + (theta - 1.0) * np.log(-np.log(u))

    def psi_t_deriv(self, theta, t, k):
        _validate_theta(self, theta)
        _check_dim(k, MAX_DIM)
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("t must be positive for Gumbel derivatives")
        logmag, sign = _gumbel_psi_k_logsign(theta, t, k)
        out = sign * np.exp(logmag)
        return out if out.ndim else float(out)

    def phi_derivs(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        ml = -np.log(u)
        lml = np.log(ml)
        ph = ml**theta
        dtheta = ph * lml
        dtheta2 = dtheta * lml
        return PhiDerivs(dtheta, dtheta2)

    def dlog_neg_phi_prime_dtheta(self, theta, u):
        u = _as_unit(u)
        return 1.0 / theta + np.log(-np.log(u))

    def tau(self, theta):
        _validate_theta(self, theta)
        return 1.0 - 1.0 / theta

    def tau_inv(self, tau_val):
        self._check_tau_range(tau_val)
        return 1.0 / (1.0 - tau_val)


def _gumbel_psi_k_logsign(theta: float, t: np.ndarray, k: int):
    """log-magnitude and sign of the k-th Gumbel generator derivative.

    The derivative equals psi(t) * sum_j t**(j/theta - k) (-1)**j s_kj(1/theta);
    for theta >= 1 every summand shares the sign (-1)**k, so the sum is done
    on log scale without cancellation.
    """
    if k == 0:
        lp = -np.exp(np.log(t) / theta)
        return lp, np.ones_like(t)
    x = 1.0 / theta
    L = np.log(t)
    shift = np.maximum((x - k) * L, (k * x - k) * L)
    acc = np.zeros_like(t)
    for j in range(1, k + 1):
        w = float((-1) ** j) * s_nk(x, k, j)
        acc = acc + w * np.exp((j * x - k) * L - shift)
    sign = np.sign(acc)
    with np.errstate(divide="ignore"):
        logmag = -np.exp(L / theta) + shift + np.log(np.abs(acc))
    return logmag, sign


class Frank(GeneratorFamily):
    name = "frank"
    domain = ThetaDomain(0.0, True)
    tau_lo_attainable = False

    def psi(self, theta, t):
        _validate_theta(self, theta)
        t = _as_nonneg(t)
        # 1 - (1-e^-theta) e^-t = -expm1(-t) + exp(-t-theta), both positive
        out = -np.log(-np.expm1(-t) + np.exp(-t - theta)) / theta
        return out if out.ndim else float(out)

    def phi(self, theta, u):
        _validate_theta(self, theta)
        u = _as_unit(u)
        # log(c0/cu) with cu-c0 = exp(-theta u) expm1(-theta(1-u)); this
        # difference form stays accurate as u -> 1 where cu -> c0
        c0 = -math.expm1(-theta)
        out = -np.log1p(np.exp(-theta * u) * np.expm1(-theta * (1.0 - u)) / c0)
        return out if out.ndim else float(out)

    def phi_prime(self, theta, u):
        u = _as_unit(u)
        e = np.exp(-theta * u)
        out = theta * e / (e - 1.0)
        return out if out.ndim else float(out)

    def psi_t_deriv(self, theta, t, k):
        _validate_theta(self, theta)
        _check_dim(k, MAX_DIM)
        t = _as_nonneg(t)
        if k == 0:
            return self.psi(theta, t)
        w = -math.expm1(-theta) * np.exp(-t)
        out = ((-1.0) ** k / theta) * _polylog_neg(k - 1, w)
        return out if out.ndim else float(out)

    def tau(self, theta):
        _validate_theta(self, theta)
        return 1.0 - 4.0 / theta * (1.0 - _debye1(theta))

    def tau_inv(self, tau_val):
        self._check_tau_range(tau_val)
        return _tau_inv_bracketed(self, tau_val)


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

    def phi_prime(self, theta, u):
        u = _as_unit(u)
        w = (1.0 - u) ** (theta - 1.0)
        out = -theta * w / (1.0 - w * (1.0 - u))
        return out if out.ndim else float(out)

    def psi_t_deriv(self, theta, t, k):
        _validate_theta(self, theta)
        _check_dim(k, MAX_DIM)
        t = _as_nonneg(t)
        if k == 0:
            return self.psi(theta, t)
        v = -np.expm1(-t)
        out = -_joe_dk_v_alpha(1.0 / theta, v, k)
        return out if out.ndim else float(out)

    def tau(self, theta):
        _validate_theta(self, theta)
        if theta == 1.0:
            return 0.0
        return 1.0 + 4.0 * _joe_tau_integral(theta)

    def tau_inv(self, tau_val):
        self._check_tau_range(tau_val)
        if tau_val == 0.0:
            return 1.0
        return _tau_inv_bracketed(self, tau_val)


# ---- Frank/Joe derivative helpers ------------------------------------

@lru_cache(maxsize=None)
def _eulerian_row(n: int) -> tuple[int, ...]:
    # Eulerian numbers A(n, 0..n-1)
    row = [1]
    for m in range(2, n + 1):
        new = []
        for i in range(m):
            left = row[i] if i < len(row) else 0
            right = row[i - 1] if i - 1 >= 0 else 0
            new.append((i + 1) * left + (m - i) * right)
        row = new
    return tuple(row)


def _polylog_neg(n: int, w: np.ndarray):
    """Li_{-n}(w) for integer n >= 0 and w in (0, 1)."""
    w = np.asarray(w, dtype=float)
    if n == 0:
        return w / (1.0 - w)
    coeffs = _eulerian_row(n)
    acc = np.zeros_like(w)
    for i, a in enumerate(coeffs):
        acc = acc + float(a) * w ** (n - i)
    return acc / (1.0 - w) ** (n + 1)


def _joe_dk_v_alpha(alpha: float, v: np.ndarray, k: int):
    # d^k/dt^k v(t)**alpha with v = 1 - exp(-t): each t-derivative acts as
    # (1-v) d/dv, mapping v**b to b v**(b-1) - b v**b, so the result stays a
    # finite sum of powers v**(alpha + offset) whose coefficients we track

    coeffs = {0: 1.0}
    for _ in range(k):
        new: dict[int, float] = {}
        for off, c in coeffs.items():
            b = alpha + off
            if c == 0.0:
                continue
            new[off - 1] = new.get(off - 1, 0.0) + c * b
            new[off] = new.get(off, 0.0) - c * b
        coeffs = new
    v = np.asarray(v, dtype=float)
    acc = np.zeros_like(v)
    for off, c in sorted(coeffs.items()):
        acc = acc + c * v ** (alpha + off)
    return acc


# ---- tau helpers ------------------------------------------------------

def _debye1(theta: float) -> float:
    def f(t):
        if t < 1e-8:
            return 1.0 - t / 2.0
        if t > 700.0:
            return 0.0
        return t / math.expm1(t)

    val, _ = integrate.quad(f, 0.0, theta, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val / theta


def _joe_tau_integral(theta: float) -> float:
    # integral of phi/phi' over (0,1), written on log scale so that the
    # (1-u)**theta terms never underflow into a 0/0 for large theta
    log_th = math.log(theta)

    def f(u):
        if u <= 0.0 or u >= 1.0:
            return 0.0
        lw = math.log1p(-u)
        a = theta * lw
        lm = math.log1p(-math.exp(a)) if a <= -0.693 else math.log(-math.expm1(a))
        logphi = a if a < -30.0 else math.log(-math.log1p(-math.exp(a)))
        return -math.exp(logphi + lm + lw - a - log_th)

    val, _ = integrate.quad(
        f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400
    )
    return val


@lru_cache(maxsize=None)
def _tau_grid(fam_name: str) -> TauGrid:
    fam = get_family(fam_name)
    if fam_name == "frank":
        thetas = np.geomspace(1e-4, 5e4, 160)
    elif fam_name == "joe":
        thetas = 1.0 + np.geomspace(1e-6, 5e3, 160)
    else:
        raise UnsupportedFamilyError(fam_name)
    taus = tuple(fam.tau(float(t)) for t in thetas)
    return TauGrid(fam_name, tuple(float(t) for t in thetas), taus)


def _tau_inv_bracketed(fam: GeneratorFamily, tau_val: float) -> float:
    grid = _tau_grid(fam.name)
    taus = np.asarray(grid.taus)
    if tau_val <= taus[0]:
        lo, hi = fam.domain.lo + 1e-12, grid.thetas[0]
    elif tau_val >= taus[-1]:
        raise DomainError(f"{fam.name}: tau={tau_val} beyond tabulated range")
    else:
        i = int(np.searchsorted(taus, tau_val))
        lo, hi = grid.thetas[i - 1], grid.thetas[i]
    return float(
        optimize.brentq(
            lambda th: fam.tau(th) - tau_val, lo, hi, xtol=1e-13, rtol=1e-15
        )
    )


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
    """Full inverse-generator derivative suite (Clayton/Gumbel)."""
    return get_family(family).phi_derivs(theta, u)


def psi_t_deriv(family, theta: float, t, k: int):
    """k-th derivative of psi in t.

    Clayton and Gumbel use their closed forms; Frank and Joe use exact
    polylogarithm/recurrence representations.
    """
    return get_family(family).psi_t_deriv(theta, t, k)


def tau(family, theta: float) -> float:
    """Kendall's tau of the bivariate Archimedean copula with this generator."""
    return get_family(family).tau(theta)


def tau_inv(family, tau_val: float) -> float:
    """Inverse of the tau map; errors if tau is outside the attainable range."""
    return get_family(family).tau_inv(tau_val)
