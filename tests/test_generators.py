"""Generator-family tests.

Derivative formulas are checked against central finite differences of the
next-lower order, Stirling tables against brute-force enumeration, and tau
maps against quadrature of the defining integral.  A handful of closed-form
values are frozen as regression anchors.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haclrt import generators as G

FAMILIES = ("clayton", "gumbel", "frank", "joe")
ANALYTIC = ("clayton", "gumbel")

THETA_RANGES = {
    "clayton": (0.2, 8.0),
    "gumbel": (1.05, 8.0),
    "frank": (0.3, 12.0),
    "joe": (1.05, 8.0),
}


def _fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _fd2(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


# ---------------------------------------------------------------
# Stirling numbers and the s_nk polynomial
# ---------------------------------------------------------------

def _stirling_first_bruteforce(n):
    # expand x(x-1)...(x-n+1); coefficient of x^k is s(n,k)
    poly = [1]
    for i in range(n):
        shifted = [0] + poly
        scaled = [-i * c for c in poly] + [0]
        poly = [a + b for a, b in zip(shifted, scaled)]
    return poly


def _stirling_second_bruteforce(n, k):
    # count set partitions of {1..n} into k non-empty blocks
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for labels in itertools.product(range(k), repeat=n):
        used = set(labels)
        if len(used) != k:
            continue
        # canonical labelling: first occurrences must appear in order
        first = []
        for lab in labels:
            if lab not in first:
                first.append(lab)
        if first == sorted(first):
            count += 1
    return count


@pytest.mark.parametrize("n", range(0, 9))
def test_stirling_first_matches_polynomial_expansion(n):
    poly = _stirling_first_bruteforce(n)
    for k in range(n + 1):
        assert G.stirling_s(n, k) == poly[k]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(0, 8) for k in range(0, n + 1)])
def test_stirling_second_matches_partition_count(n, k):
    assert G.stirling_S(n, k) == _stirling_second_bruteforce(n, k)


def test_stirling_frozen_values():
    assert G.stirling_S(3, 2) == 3
    assert G.stirling_s(3, 1) == 2
    assert G.stirling_s(4, 2) == 11
    assert G.stirling_S(5, 3) == 25


def test_stirling_rejects_orders_beyond_cap():
    with pytest.raises(ValueError):
        G.stirling_s(G.MAX_DIM + 1, 1)
    with pytest.raises(ValueError):
        G.s_nk(0.5, G.MAX_DIM + 1, 1)


def test_falling_factorial_values_and_derivs():
    assert G.falling_factorial(-1.0, 2) == pytest.approx(2.0)
    assert G.falling_factorial(0.5, 3) == pytest.approx(0.5 * (-0.5) * (-1.5))
    for x in (-0.7, 0.3, 2.5):
        for n in (1, 2, 4):
            d1 = G.falling_factorial(x, n, order=1)
            d2 = G.falling_factorial(x, n, order=2)
            assert d1 == pytest.approx(
                _fd(lambda s: G.falling_factorial(s, n), x), rel=1e-6, abs=1e-8
            )
            assert d2 == pytest.approx(
                _fd2(lambda s: G.falling_factorial(s, n), x), rel=1e-4, abs=1e-5
            )


def test_s_nk_reduces_to_kronecker_at_one():
    # s_nk(1) = sum_j s(n,j) S(j,k) = delta_{nk}
    for n in range(1, 8):
        for k in range(1, n + 1):
            expected = 1.0 if n == k else 0.0
            assert G.s_nk(1.0, n, k) == pytest.approx(expected, abs=1e-12)


def test_s_nk_sign_pattern_on_unit_interval():
    # for x in (0,1], sign of s_nk(x) is (-1)^(n-k): the generator
    # derivative sums then add terms of one sign only
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(0.01, 1.0)
        n = int(rng.integers(1, 10))
        for k in range(1, n + 1):
            v = G.s_nk(x, n, k)
            assert v * (-1.0) ** (n - k) > 0.0


def test_s_nk_derivatives_match_fd():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.uniform(0.05, 1.0)
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        assert G.s_nk(x, n, k, order=1) == pytest.approx(
            _fd(lambda s: G.s_nk(s, n, k), x), rel=1e-5, abs=1e-7
        )
        assert G.s_nk(x, n, k, order=2) == pytest.approx(
            _fd2(lambda s: G.s_nk(s, n, k), x), rel=1e-3, abs=1e-4
        )


# ---------------------------------------------------------------
# Generator values, inverses, and frozen anchors
# ---------------------------------------------------------------

def test_frozen_generator_values():
    assert G.psi("clayton", 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert G.psi_t_deriv("gumbel", 1.0, 1.0, 1) == pytest.approx(
        -math.exp(-1.0), rel=1e-14
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_phi_inverts_psi(family):
    rng = np.random.default_rng(11)
    lo, hi = THETA_RANGES[family]
    for _ in range(40):
        th = rng.uniform(lo, hi)
        t = rng.uniform(1e-3, 8.0)
        u = G.psi(family, th, t)
        assert G.phi(family, th, u) == pytest.approx(t, rel=1e-9, abs=1e-9)
        v = rng.uniform(0.02, 0.99)
        assert G.psi(family, th, G.phi(family, th, v)) == pytest.approx(
            v, rel=1e-10
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_psi_boundary_values(family):
    th = 2.0
    assert G.psi(family, th, 0.0) == pytest.approx(1.0)
    assert G.phi(family, th, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert G.psi(family, th, 1e8) < 1e-3


@pytest.mark.parametrize("family", FAMILIES)
def test_theta_domain_enforced(family):
    fam = G.get_family(family)
    bad = fam.domain.lo - 0.5 if not fam.domain.lo_open else 0.0
    with pytest.raises(ValueError):
        fam.psi(bad, 1.0)
    with pytest.raises(ValueError):
        fam.psi(float("nan"), 1.0)


def test_unknown_family_rejected():
    with pytest.raises(G.UnsupportedFamilyError):
        G.get_family("amh")


# ---------------------------------------------------------------
# t-derivatives of psi: FD ladder and complete monotonicity
# ---------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_psi_t_deriv_fd_ladder(family):
    rng = np.random.default_rng(23)
    lo, hi = THETA_RANGES[family]
    for _ in range(40):
        th = rng.uniform(lo, hi)
        t = rng.uniform(0.05, 5.0)
        for k in range(1, 6):
            val = G.psi_t_deriv(family, th, t, k)
            ref = _fd(lambda s: G.psi_t_deriv(family, th, s, k - 1), t)
            assert val == pytest.approx(ref, rel=5e-4, abs=1e-7)


@pytest.mark.parametrize("family", FAMILIES)
def test_psi_t_deriv_alternates_in_sign(family):
    rng = np.random.default_rng(29)
    lo, hi = THETA_RANGES[family]
    for _ in range(30):
        th = rng.uniform(lo, hi)
        t = rng.uniform(0.05, 6.0)
        for k in range(1, 8):
            val = G.psi_t_deriv(family, th, t, k)
            assert (-1.0) ** k * val > 0.0


def test_psi_t_deriv_vectorizes():
    t = np.linspace(0.1, 4.0, 17)
    out = G.psi_t_deriv("gumbel", 2.5, t, 3)
    assert out.shape == t.shape
    singles = [G.psi_t_deriv("gumbel", 2.5, float(ti), 3) for ti in t]
    np.testing.assert_allclose(out, singles, rtol=1e-12)


# ---------------------------------------------------------------
# theta-derivatives (analytic families only)
# ---------------------------------------------------------------

@pytest.mark.parametrize("family", ANALYTIC)
def test_phi_derivs_match_fd(family):
    rng = np.random.default_rng(37)
    lo, hi = THETA_RANGES[family]
    fam = G.get_family(family)
    for _ in range(40):
        th = rng.uniform(lo, hi)
        u = rng.uniform(0.05, 0.95)
        pd = fam.phi_derivs(th, u)
        assert pd.dtheta == pytest.approx(
            _fd(lambda s: fam.phi(s, u), th), rel=1e-4, abs=1e-9
        )
        assert pd.dtheta2 == pytest.approx(
            _fd2(lambda s: fam.phi(s, u), th), rel=1e-3, abs=1e-6
        )
        assert fam.dlog_neg_phi_prime_dtheta(th, u) == pytest.approx(
            _fd(lambda s: fam.log_neg_phi_prime(s, u), th), rel=1e-5, abs=1e-8
        )


@pytest.mark.parametrize("family", ("frank", "joe"))
def test_theta_deriv_suite_unavailable_raises(family):
    fam = G.get_family(family)
    with pytest.raises(G.UnsupportedFamilyError):
        fam.phi_derivs(2.0, 0.5)


# ---------------------------------------------------------------
# Kendall's tau
# ---------------------------------------------------------------

def _tau_by_quadrature(family, theta):
    # tau = 1 + 4 * int_0^1 phi/phi' du, evaluated naively on a fine grid
    from scipy import integrate

    fam = G.get_family(family)

    def f(u):
        return float(fam.phi(theta, u) / fam.phi_prime(theta, u))

    val, _ = integrate.quad(f, 1e-12, 1.0 - 1e-12, limit=300)
    return 1.0 + 4.0 * val


@pytest.mark.parametrize(
    "family,theta",
    [
        ("clayton", 0.5),
        ("clayton", 2.0),
        ("gumbel", 1.5),
        ("gumbel", 4.0),
        ("frank", 1.0),
        ("frank", 5.0),
        ("joe", 1.5),
        ("joe", 3.0),
    ],
)
def test_tau_matches_generic_integral(family, theta):
    assert G.tau(family, theta) == pytest.approx(
        _tau_by_quadrature(family, theta), abs=1e-8
    )


def test_tau_closed_forms():
    assert G.tau("clayton", 2.0) == pytest.approx(0.5)
    assert G.tau("gumbel", 2.0) == pytest.approx(0.5)
    assert G.tau("gumbel", 1.0) == 0.0
    assert G.tau("joe", 1.0) == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_tau_roundtrip(family):
    taus = [0.05, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9]
    for tv in taus:
        th = G.tau_inv(family, tv)
        assert G.tau(family, th) == pytest.approx(tv, abs=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_tau_inv_range_errors(family):
    with pytest.raises(ValueError):
        G.tau_inv(family, 1.0)
    with pytest.raises(ValueError):
        G.tau_inv(family, -0.2)


def test_tau_inv_zero_only_where_attainable():
    assert G.tau_inv("gumbel", 0.0) == pytest.approx(1.0)
    assert G.tau_inv("joe", 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        G.tau_inv("clayton", 0.0)
    with pytest.raises(ValueError):
        G.tau_inv("frank", 0.0)


def test_frozen_kendall_steps():
    # one tau-tick of 0.005 below the working point, mapped back to theta
    step_g = G.tau_inv("gumbel", G.tau("gumbel", 2.0) - 0.005) - 2.0
    step_c = G.tau_inv("clayton", G.tau("clayton", 2.0) - 0.005) - 2.0
    assert step_g == pytest.approx(-0.019802, abs=1e-6)
    assert step_c == pytest.approx(-0.039604, abs=1e-6)


# ---------------------------------------------------------------
# property tests
# ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    theta_frac=st.floats(0.01, 0.99),
    t1=st.floats(0.01, 10.0),
    t2=st.floats(0.01, 10.0),
)
def test_psi_is_decreasing(family, theta_frac, t1, t2):
    lo, hi = THETA_RANGES[family]
    th = lo + theta_frac * (hi - lo)
    a, b = sorted((t1, t2))
    if b - a < 1e-9:
        return
    assert G.psi(family, th, a) >= G.psi(family, th, b)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    theta_frac=st.floats(0.01, 0.99),
    t=st.floats(0.0, 30.0),
)
def test_psi_in_unit_interval(family, theta_frac, t):
    lo, hi = THETA_RANGES[family]
    th = lo + theta_frac * (hi - lo)
    v = G.psi(family, th, t)
    assert 0.0 < v <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    tau_val=st.floats(0.02, 0.95),
)
def test_tau_is_increasing_in_theta(family, tau_val):
    th = G.tau_inv(family, tau_val)
    assert G.tau(family, th * 1.01 + 1e-3) > G.tau(family, th)
