"""Generator-family tests.

Derivative formulas are checked against central finite differences of the
next-lower order, Stirling tables against brute-force enumeration, and tau
maps against quadrature of the defining integral and, for Frank and Joe,
against 50-digit mpmath from tau -> 0 to tau -> 1.  A handful of
closed-form values are frozen as regression anchors.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haclrt import generators as G

FAMILIES = ("clayton", "gumbel", "frank", "joe")

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
        G.s_nk_table(0.5, G.MAX_DIM + 1)


def _s_nk_term_by_term(x, n, k, order):
    # reference: one Stirling product per term, highest power first
    out = np.zeros_like(np.asarray(x, dtype=float))
    for j in range(n, order - 1, -1):
        c = G.stirling_s(n, j) * G.stirling_S(j, k)
        if c != 0:
            out = out + float(c * math.perm(j, order)) * np.asarray(x) ** (j - order)
    return out


def test_s_nk_table_equals_term_by_term_sums():
    for n in range(1, 15):
        for x in (0.05, 0.37, 1.0 / 1.05, 1.0):
            table = G.s_nk_table(x, n)
            for order in range(3):
                for k in range(n + 1):
                    ref = _s_nk_term_by_term(x, n, k, order)
                    assert table[order, k] == ref, (n, x, order, k)


def test_s_nk_tables_match_one_n_tables():
    # one pass over the powers for many n keeps each table's bits; the
    # padding beyond k = n is zero
    ns = tuple(range(1, 21))
    for x in (1.0, 0.5, 1e-3):
        tables = G.s_nk_tables(x, ns)
        assert tables.shape == (len(ns), 3, 21)
        for i, n in enumerate(ns):
            np.testing.assert_array_equal(
                tables[i, :, : n + 1], G.s_nk_table(x, n)
            )
            assert not tables[i, :, n + 1 :].any()
    xs = np.array([1.0, 0.5, 1e-3])
    for n in (2, 7, 20):
        stacked = G.s_nk_table(xs, n)
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(stacked[..., i], G.s_nk_table(x, n))
    assert G.s_nk_tables(0.5, (3, 1))[1, 0, 1] == 0.5


def test_s_nk_reduces_to_kronecker_at_one():
    # s_nk(1) = sum_j s(n,j) S(j,k) = delta_{nk}
    for n in range(1, 8):
        for k in range(1, n + 1):
            expected = 1.0 if n == k else 0.0
            assert G.s_nk_table(1.0, n)[0, k] == pytest.approx(
                expected, abs=1e-12)


def test_s_nk_sign_pattern_on_unit_interval():
    # for x in (0,1], sign of s_nk(x) is (-1)^(n-k): the generator
    # derivative sums then add terms of one sign only
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(0.01, 1.0)
        n = int(rng.integers(1, 10))
        for k in range(1, n + 1):
            v = G.s_nk_table(x, n)[0, k]
            assert v * (-1.0) ** (n - k) > 0.0


def test_s_nk_derivatives_match_fd():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.uniform(0.05, 1.0)
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        table = G.s_nk_table(x, n)
        assert table[1, k] == pytest.approx(
            _fd(lambda s: G.s_nk_table(s, n)[0, k], x), rel=1e-5, abs=1e-7
        )
        assert table[2, k] == pytest.approx(
            _fd2(lambda s: G.s_nk_table(s, n)[0, k], x), rel=1e-3, abs=1e-4
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


@pytest.mark.parametrize(
    "family,theta",
    [("clayton", th) for th in (0.2, 2.0, 8.0)]
    + [("gumbel", th) for th in (1.05, 2.5, 8.0)]
    + [("frank", th) for th in (0.5, 5.0, 30.0, 200.0)]
    + [("joe", th) for th in (1.05, 2.5, 8.0)],
)
def test_psi_t_deriv_matches_mpmath(family, theta):
    # independent oracle: 50-digit numerical derivatives of the closed-form
    # generator, so the check shares no code with psi_column
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        th = mp.mpf(theta)
        if family == "clayton":
            def f(s):
                return (1 + s) ** (-1 / th)
        elif family == "gumbel":
            def f(s):
                return mp.exp(-(s ** (1 / th)))
        elif family == "frank":
            def f(s):
                return -mp.log(1 - (1 - mp.exp(-th)) * mp.exp(-s)) / th
        else:
            def f(s):
                return 1 - (1 - mp.exp(-s)) ** (1 / th)
        for t in (1e-4, 0.3, 5.0, 200.0):
            ref = list(mp.diffs(f, mp.mpf(t), 8))
            for k in range(1, 9):
                val = G.psi_t_deriv(family, theta, t, k)
                assert abs(mp.mpf(val) / ref[k] - 1) <= 1e-12, (t, k)


@pytest.mark.parametrize("theta", [0.5, 5.0, 14.0, 745.0, 800.0, 3998.0])
def test_frank_psi_matches_mpmath(theta):
    # 3998 is tau_inv(0.999), the fit's upper bound.  The reference is the
    # closed form -log(1 - (1 - e^-theta) e^-t)/theta; 2000 working digits
    # keep 50 correct ones in 1 - w down to w = 1 - e^-3998
    mp = pytest.importorskip("mpmath")
    ts = (0.0, 1e-300, 1e-8, 1.0, 10.0, 30.0, 36.0, 700.0)
    got = G.psi("frank", theta, np.array(ts))
    with mp.workdps(2000):
        for t, val in zip(ts, got):
            w = (1 - mp.exp(-mp.mpf(theta))) * mp.exp(-mp.mpf(t))
            ref = -mp.log(1 - w) / theta
            assert abs(mp.mpf(val) / ref - 1) <= 4e-16, t
            assert G.psi("frank", theta, t) == val


def test_frank_phi_matches_mpmath():
    # -log(expm1(-theta u)/expm1(-theta)) from u = 1e-300 to 1 - 1e-15;
    # the former difference form read inf from u = 1e-17 on
    mp = pytest.importorskip("mpmath")
    us = np.array([1e-300, 1e-100, 1e-17, 1e-16, 1e-12, 1e-8, 1e-4, 0.1,
                   0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-8, 1 - 1e-12, 1 - 1e-15])
    with mp.workdps(50):
        for theta in (1e-3, 0.5, 2.0, 8.0, 40.0):
            got = G.phi("frank", theta, us)
            for u, val in zip(us, got):
                th, uu = mp.mpf(theta), mp.mpf(float(u))
                ref = -mp.log(mp.expm1(-th * uu) / mp.expm1(-th))
                assert abs(mp.mpf(val) / ref - 1) <= 4e-15, (theta, u)
                assert G.phi("frank", theta, float(u)) == val


@pytest.mark.parametrize("theta", [700.0, 740.0])
def test_frank_psi_column_log_scale_fallback_matches_mpmath(theta):
    # 1 - w = e^-t e^-theta - expm1(-t) is below 1e-290 here, so log(1 - w)
    # comes from psi's log-scale form; at t = 1e-320 the sum is subnormal
    # and keeps only a few digits.  Reference: central differences of
    # log(1 - w) with a step 1e-10 t, at 400 digits
    mp = pytest.importorskip("mpmath")
    t = np.array([1e-300, 1e-295, 1e-320])
    assert np.all(np.exp(-t) * math.exp(-theta) - np.expm1(-t) < 1e-290)
    col = G.get_family("frank").psi_column(theta, t, 1, 4)
    with mp.workdps(400):
        th = mp.mpf(theta)

        def f(s):
            return -mp.log(1 - (1 - mp.exp(-th)) * mp.exp(-s)) / th

        for i, ti in enumerate(t):
            s = mp.mpf(float(ti))
            for k in range(1, 5):
                ref = mp.diff(f, s, k, h=s * mp.mpf(1e-10))
                assert col.sign[k] == (1 if ref > 0 else -1)
                assert abs(col.logmag[k][i] - mp.log(abs(ref))) <= 1e-12, (ti, k)


def test_log1mexp_matches_mpmath_on_arrays_and_scalars():
    # both forms, at their ln 2 seam, at the t = 0 pole and deep in the
    # tail (400 digits keep 1 - e^-700 apart from 1); scalars, flat and
    # 2-d arrays give the same bits
    mp = pytest.importorskip("mpmath")
    ln2 = math.log(2.0)
    xs = np.array([0.0, 1e-300, 1e-8, np.nextafter(ln2, 0.0), ln2,
                   np.nextafter(ln2, 1.0), 1.0, 36.0, 700.0])
    got = G._log1mexp(xs)
    assert got[0] == -np.inf
    with mp.workdps(400):
        for x, val in zip(xs[1:], got[1:]):
            ref = mp.log(-mp.expm1(-mp.mpf(float(x))))
            assert abs(mp.mpf(val) / ref - 1) <= 4e-16, x
    for x, val in zip(xs, got):
        assert G._log1mexp(x) == val
    np.testing.assert_array_equal(
        G._log1mexp(xs.reshape(3, 3)), got.reshape(3, 3)
    )


def test_psi_column_rows_match_one_k_calls():
    t = np.array([1e-3, 0.4, 3.0, 50.0])
    for family, th in (
        ("clayton", 1.7), ("gumbel", 2.2), ("frank", 6.0), ("joe", 2.4)
    ):
        col = G.get_family(family).psi_column(th, t, 2, 6)
        for k in range(2, 7):
            np.testing.assert_array_equal(
                col.value(k), G.psi_t_deriv(family, th, t, k)
            )


def test_psi_t_deriv_vectorizes():
    t = np.linspace(0.1, 4.0, 17)
    out = G.psi_t_deriv("gumbel", 2.5, t, 3)
    assert out.shape == t.shape
    singles = [G.psi_t_deriv("gumbel", 2.5, float(ti), 3) for ti in t]
    np.testing.assert_allclose(out, singles, rtol=1e-12)


# ---------------------------------------------------------------
# theta-derivatives
# ---------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
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
        got = fam.sum_d2log_neg_phi_prime_dtheta2(th, np.array([u]), 0)
        assert float(got) == pytest.approx(
            _fd(lambda s: fam.dlog_neg_phi_prime_dtheta(s, u), th),
            rel=1e-5, abs=1e-8,
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_sum_d2log_neg_phi_prime_is_the_coordinate_sum(family):
    # one theta column over a (g, d, n) block, summed over the coordinates
    fam = G.get_family(family)
    lo = THETA_RANGES[family][0]
    u = np.random.default_rng(5).uniform(0.01, 0.99, (2, 3, 4))
    thetas = np.array([lo + 0.5, lo + 2.0])
    got = fam.sum_d2log_neg_phi_prime_dtheta2(thetas[:, None, None], u, 1)
    assert got.shape == (2, 4)
    for i, th in enumerate(thetas):
        per_u = fam.sum_d2log_neg_phi_prime_dtheta2(th, u[i][..., None], -1)
        np.testing.assert_allclose(got[i], per_u.sum(axis=0), rtol=1e-14)


@pytest.mark.parametrize("family", ("frank", "joe"))
def test_frank_and_joe_phi_prime_exact_near_zero(family):
    # theta e^(-theta u)/expm1(-theta u) (Frank) and -theta e^((theta-1) L)
    # /(-expm1(theta L)), L = log1p(-u) (Joe) keep every digit at small u,
    # where the former forms cancelled (1.5e-5 off at the clamp 1e-12)
    mp = pytest.importorskip("mpmath")
    fam = G.get_family(family)
    us = np.array([1e-16, 1e-12, 1e-8, 1e-4, 0.5, 1 - 1e-8])
    with mp.workdps(50):
        for theta in (1.5, 2.0, 8.0):
            th = mp.mpf(theta)
            pp = fam.phi_prime(theta, us)
            lp = fam.log_neg_phi_prime(theta, us)
            for u, p_val, l_val in zip(us, pp, lp):
                x = mp.mpf(float(u))
                if family == "frank":
                    ref = th * mp.exp(-th * x) / mp.expm1(-th * x)
                else:
                    ref = -th * (1 - x) ** (th - 1) / (1 - (1 - x) ** th)
                assert abs(mp.mpf(p_val) / ref - 1) <= 1e-14, (theta, u)
                assert abs(mp.mpf(l_val) / mp.log(-ref) - 1) <= 1e-14, (
                    theta, u)


def _psi_mp(family, th, s, mp):
    if family == "clayton":
        return (1 + s) ** (-1 / th)
    if family == "gumbel":
        return mp.exp(-(s ** (1 / th)))
    if family == "frank":
        return -mp.log(1 - (1 - mp.exp(-th)) * mp.exp(-s)) / th
    return 1 - (1 - mp.exp(-s)) ** (1 / th)


@pytest.mark.parametrize("family", FAMILIES)
def test_psi_column_ratio_rows_match_mpmath(family):
    # f = psi^(k)(t; theta): ft = f_t/f, ftt, fr = f_theta/f, frr and frt,
    # against 50-digit numerical derivatives of the closed-form generator
    mp = pytest.importorskip("mpmath")
    fam = G.get_family(family)
    t = np.array([1e-3, 0.3, 2.0, 15.0])
    lo = THETA_RANGES[family][0]
    for theta in (lo + 0.4, 2.0, 8.0):
        col = fam.psi_column(theta, t, 1, 3, ratios=True)
        assert sorted(col.logmag) == [1, 2, 3]
        with mp.workdps(50):
            th = mp.mpf(theta)
            for i, ti in enumerate(t):
                s = mp.mpf(float(ti))
                for k in range(1, 4):
                    def dk(a, j=k):
                        return mp.diff(lambda x: _psi_mp(family, a, x, mp), s, j)
                    f = dk(th)
                    refs = {
                        "ft": dk(th, k + 1) / f,
                        "ftt": dk(th, k + 2) / f,
                        "fr": mp.diff(dk, th) / f,
                        "frr": mp.diff(dk, th, 2) / f,
                        "frt": mp.diff(lambda a: dk(a, k + 1), th) / f,
                    }
                    for name, ref in refs.items():
                        got = getattr(col, name)[k - 1, i]
                        assert abs(got - ref) <= 1e-11 * (1 + abs(ref)), (
                            theta, ti, k, name)


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


# Kendall's tau of Frank and Joe in mpmath: Frank's Debye integral through
# Li2, Joe's series through digamma, with the removable theta = 2 taken as
# its limit.  100 working digits leave 50 after the cancellations near
# theta -> 0 (Frank) and theta -> 1, 2 (Joe) and in ``mp.diff``, whose
# step of 1e-30 theta never lands on theta = 2.

def _frank_tau_mp(mp, th):
    th = mp.mpf(th)
    debye = (mp.pi**2 / 6 - mp.polylog(2, mp.exp(-th))
             + th * mp.log(-mp.expm1(-th)))
    return mp.re(1 - 4 / th + 4 * debye / th**2)


def _joe_tau_mp(mp, th):
    th = mp.mpf(th)
    if th == 2:
        return 2 - mp.pi**2 / 6
    return 1 + 2 * (mp.digamma(2) - mp.digamma(1 + 2 / th)) / (2 - th)


_TAU_MP = {"frank": _frank_tau_mp, "joe": _joe_tau_mp}


def _slope_mp(mp, family, th):
    th = mp.mpf(th)
    return mp.diff(lambda x: _TAU_MP[family](mp, x), th, h=th * mp.mpf(1e-30))


_TAU_GRIDS = {
    "frank": list(np.geomspace(1e-8, 5e4, 300)) + [2.0 * math.pi],
    "joe": list(1.0 + np.geomspace(1e-9, 5e3, 300))
    + [2.0, 2.0 + 1e-9, 2.0 - 1e-9, 2.0 + 5e-4, 2.0 - 5e-4],
}


@pytest.mark.parametrize("family", ("frank", "joe"))
def test_tau_and_slope_match_mpmath(family):
    # every branch of the closed form, its series and Taylor pieces; the
    # former quadrature read Frank tau(1e-8) = -3.8e-8 against 1.1e-9
    mp = pytest.importorskip("mpmath")
    fam = G.get_family(family)
    with mp.workdps(100):
        for th in _TAU_GRIDS[family]:
            th = float(th)
            ref = _TAU_MP[family](mp, th)
            slope = _slope_mp(mp, family, th)
            assert abs(fam.tau(th) / ref - 1) <= 1e-12, th
            assert abs(slope / fam._tau_jet(th)[2] - 1) <= 1e-11, th
    # tau is concave, which tau_inv's Newton from the domain's edge needs
    slopes = [fam._tau_jet(float(th))[2] for th in _TAU_GRIDS[family][:300]]
    assert np.all(np.diff(slopes) <= 0.0)


@pytest.mark.parametrize("family", ("frank", "joe"))
def test_tau_inv_matches_mpmath_root(family):
    # tau_inv and dtheta_dtau against the 50-digit root, from tau -> 0 to
    # tau -> 1; the former knot grid ended below tau = 0.99992 (Frank) and
    # 0.9996 (Joe)
    mp = pytest.importorskip("mpmath")
    fam = G.get_family(family)
    f = _TAU_MP[family]
    with mp.workdps(100):
        for t in (1e-9, 1e-6, 0.25, 0.5, 0.75, 0.999, 0.99999, 1.0 - 2.0**-40):
            th = fam.tau_inv(t)
            root = mp.findroot(
                lambda x: f(mp, x) - t,
                (mp.mpf(th) * (1 - mp.mpf(1e-9)), mp.mpf(th) * (1 + mp.mpf(1e-9))),
                solver="anderson",
            )
            slope = _slope_mp(mp, family, root)
            assert abs(th / root - 1) <= 1e-12, t
            assert abs(fam.dtheta_dtau(t) * slope - 1) <= 1e-11, t


def test_dtheta_dtau_closed_forms():
    # Clayton's and Gumbel's scales are their closed forms, bit for bit
    for t in (0.1, 0.4, 0.999):
        assert G.get_family("clayton").dtheta_dtau(t) == 2.0 / (1.0 - t) ** 2
        assert G.get_family("gumbel").dtheta_dtau(t) == 1.0 / (1.0 - t) ** 2


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
