import itertools

import numpy as np
import pytest

import haclrt.fisher as fisher_module
from haclrt.density import hessian, two_level_spec
from haclrt.errors import DomainError, SchemeError, SingularSigmaError
from haclrt.fisher import (
    FdScheme,
    determinant_scan,
    fd_hessian,
    fd_hessian_fn,
    fd_scheme,
    kendall_step,
    sigma_hat,
    _enforce_equalities,
)
from haclrt.generators import Gumbel, tau_inv
from haclrt.sampler import sample
from haclrt.tree import HacTree

TREE3 = HacTree([[1, 2], 3])
TREE4 = HacTree([[1, 2], [3, 4]])
CHAIN = HacTree([1, [2, [3, 4]]])


# --- kendall_step ----------------------------------------------------------


def test_kendall_step_reference_values():
    assert kendall_step("gumbel", 2.0) == pytest.approx(-0.019802, abs=1e-6)
    assert kendall_step("clayton", 2.0) == pytest.approx(-0.039604, abs=1e-6)


def test_kendall_step_zero_delta():
    assert kendall_step("gumbel", 2.0, delta_tau=0.0) == 0.0


def test_kendall_step_underflow():
    with pytest.raises(DomainError):
        kendall_step("clayton", 0.008)     # tau(0.008) < 0.005
    with pytest.raises(DomainError):
        kendall_step("gumbel", 1.0)        # tau = 0 exactly


# --- stencils --------------------------------------------------------------


def test_bilinear_hook():
    sch = FdScheme(np.array([0.01, 0.02]), np.array([0, 0]), ("a", "b"))
    H = fd_hessian_fn(lambda th: th[0] * th[1], np.array([1.3, 2.2]), sch)
    assert H[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert H[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert abs(H[0, 0]) < 1e-9 and abs(H[1, 1]) < 1e-9


@pytest.mark.parametrize("dirs", [[1, -1, 0], [0, 0, 0], [-1, 1, 1], [1, 1, -1]])
def test_quadratic_exact_for_every_direction_mix(dirs):
    A = np.array([[2.0, 0.7, -0.3], [0.7, 1.5, 0.4], [-0.3, 0.4, 3.0]])
    b = np.array([0.1, -0.2, 0.3])
    sch = FdScheme(
        np.array([0.4, 0.3, 0.5]), np.array(dirs), ("a", "b", "c")
    )
    H = fd_hessian_fn(
        lambda th: 0.5 * th @ A @ th + b @ th, np.array([1.0, 2.0, 3.0]), sch
    )
    np.testing.assert_allclose(H, A, atol=1e-12)


def test_feasibility_callback_names_node():
    sch = FdScheme(np.array([0.5]), np.array([1]), ("(0,1)",))
    with pytest.raises(SchemeError, match=r"\(0,1\)"):
        fd_hessian_fn(
            lambda th: th[0] ** 2,
            np.array([1.0]),
            sch,
            feasible=lambda th: th[0] < 1.6,
        )


# --- scheme selection ------------------------------------------------------


def test_scheme_interior_is_central():
    sch = fd_scheme(TREE3, "clayton", (0.8, 2.1))
    assert list(sch.directions) == [0, 0]
    assert np.all(sch.steps > 0.01)


def test_scheme_tie_backward_forward():
    sch = fd_scheme(TREE3, "gumbel", (2.0, 2.0))
    assert list(sch.directions) == [-1, 1]
    assert sch.steps[0] == pytest.approx(0.019802, abs=1e-6)
    assert sch.labels == ("(0)", "(0,1)")


def test_scheme_domain_edge_forward():
    sch = fd_scheme(TREE3, "gumbel", (1.0, 1.5))
    assert sch.directions[0] == 1


def test_scheme_pinned_middle_raises():
    with pytest.raises(SchemeError, match=r"\(0,2\)"):
        fd_scheme(CHAIN, "gumbel", (2.0, 2.0, 2.0))


def test_scheme_rejects_nonpositive_delta():
    with pytest.raises(DomainError):
        fd_scheme(TREE3, "gumbel", (1.5, 2.0), delta_tau=0.0)


def test_tie_stencil_points_all_feasible():
    # the whole point of the one-sided pattern: evaluable at the face
    H = fd_hessian(
        sample(TREE3, (2.0, 2.0), "gumbel", 500, seed=7).values,
        TREE3,
        "gumbel",
        (2.0, 2.0),
    )
    assert np.all(np.isfinite(H))
    assert H[0, 1] == H[1, 0]


def test_fd_matches_analytic_hessian_interior():
    for fam, th in [("clayton", (0.8, 2.1)), ("gumbel", (1.5, 2.5)),
                    ("frank", (2.0, 5.0)), ("joe", (1.4, 2.5))]:
        u = sample(TREE3, th, fam, 4000, seed=5).values
        fd = fd_hessian(u, TREE3, fam, th)
        spec = two_level_spec(TREE3, fam, th)
        an = hessian(spec, u).mean(axis=0)
        assert np.abs(fd - an).max() / np.abs(an).max() < 1e-3


def test_fd_accepts_sample_batch():
    batch = sample(TREE3, (0.8, 2.1), "clayton", 500, seed=13)
    H1 = fd_hessian(batch, TREE3, "clayton", (0.8, 2.1))
    H2 = fd_hessian(batch.values, TREE3, "clayton", (0.8, 2.1))
    np.testing.assert_array_equal(H1, H2)


# --- sigma_hat -------------------------------------------------------------


def test_sigma_analytic_observed_is_inverse_mean_hessian():
    th = (0.667, 2.0)
    u = sample(TREE3, th, "clayton", 2000, seed=17).values
    est = sigma_hat(u, TREE3, "clayton", th, at="bullet")
    spec = two_level_spec(TREE3, "clayton", th)
    info = -hessian(spec, u).mean(axis=0)
    np.testing.assert_allclose(est.info, info, atol=1e-12)
    np.testing.assert_allclose(est.sigma @ est.info, np.eye(2), atol=1e-10)
    assert est.method == "analytic" and est.source == "observed"
    assert np.abs(est.info - est.info.T).max() < 1e-8


def test_sigma_family_instance_takes_analytic_route():
    th = (1.5, 2.5)
    u = sample(TREE3, th, "gumbel", 500, seed=19).values
    by_name = sigma_hat(u, TREE3, "gumbel", th)
    by_instance = sigma_hat(u, TREE3, Gumbel(), th)
    assert by_instance.method == "analytic"
    np.testing.assert_array_equal(by_instance.info, by_name.info)
    explicit = sigma_hat(u, TREE3, Gumbel(), th, method="analytic")
    np.testing.assert_array_equal(explicit.sigma, by_name.sigma)


def test_sigma_fd_close_to_analytic_interior():
    for fam, th in [("clayton", (0.667, 2.0)), ("gumbel", (1.5, 2.5)),
                    ("frank", (2.0, 5.0)), ("joe", (1.4, 2.5))]:
        u = sample(TREE3, th, fam, 20000, seed=11).values
        ea = sigma_hat(u, TREE3, fam, th, method="analytic")
        ef = sigma_hat(u, TREE3, fam, th, method="fd")
        assert np.abs((ef.sigma - ea.sigma) / ea.sigma).max() < 1e-3
        assert ef.steps is not None and ea.steps is None


def test_sigma_observed_vs_mc_sources_agree():
    th = (2.0, 2.0)
    uo = sample(TREE3, th, "clayton", 100_000, seed=51).values
    eo = sigma_hat(uo, TREE3, "clayton", th, source="observed")
    em = sigma_hat(None, TREE3, "clayton", th, source="mc", seed=52)
    assert np.abs((em.sigma - eo.sigma) / eo.sigma).max() < 0.03
    assert em.n_source == 100_000


def test_sigma_mc_seed_dispersion_small():
    th = (2.0, 2.0)
    vals = [
        sigma_hat(
            None, TREE3, "clayton", th, source="mc", seed=100 + s
        ).sigma[0, 0]
        for s in range(5)
    ]
    assert max(vals) / min(vals) - 1.0 < 0.05


def test_sigma_null_enforcement_exact_equalities():
    th = (1.8, 1.8, 1.8)
    u = sample(TREE4, th, "gumbel", 3000, seed=9).values
    est = sigma_hat(u, TREE4, "gumbel", th, at="circ", atoms=((1,), (2,)))
    assert est.info[1, 1] == est.info[2, 2]
    assert est.info[0, 1] == est.info[0, 2]
    assert est.sigma[1, 1] == pytest.approx(est.sigma[2, 2], rel=1e-12)
    # without atoms the raw estimate has no reason to tie exactly
    raw = sigma_hat(u, TREE4, "gumbel", th, at="bullet")
    assert raw.info[1, 1] != raw.info[2, 2]


def _nests(k):
    return HacTree([[2 * i + 1, 2 * i + 2] for i in range(k)])


def _group_average(info, perms):
    return sum(info[np.ix_(g, g)] for g in perms) / len(perms)


def test_orbit_mean_is_the_group_average():
    # all nests of six tied twin nests are interchangeable: 720 swaps of
    # the parameters 1..6, listed here and averaged entry by entry
    rng = np.random.default_rng(17)
    tree = _nests(6)
    atoms = tuple((k,) for k in range(1, 7))
    a = rng.standard_normal((7, 7))
    info = a @ a.T
    perms = [(0, *g) for g in itertools.permutations(range(1, 7))]
    np.testing.assert_allclose(
        _enforce_equalities(info, tree, atoms), _group_average(info, perms),
        rtol=1e-13, atol=0,
    )
    # a twin tree's group is one swap, and the two averages share every bit
    info = info[:3, :3]
    assert np.array_equal(
        _enforce_equalities(info, TREE4, ((1,), (2,))),
        _group_average(info, [(0, 1, 2), (0, 2, 1)]),
    )


def test_sigma_on_seven_tied_nests():
    # a symmetry group of 7! = 5040 elements, never listed
    tree = _nests(7)
    th = (1.6,) * 8
    u = sample(tree, th, "gumbel", 400, seed=3).values
    est = sigma_hat(u, tree, "gumbel", th, at="circ",
                    atoms=tuple((k,) for k in range(1, 8)))
    info = est.info
    for k in range(2, 8):
        assert info[k, k] == info[1, 1] and info[0, k] == info[0, 1]
        assert info[1, k] == info[1, 2] == info[k - 1, k]
    assert np.all(np.isfinite(est.sigma))


def test_sigma_mc_scale_with_n():
    # entry sd across seeds should shrink like 1/sqrt(n)
    th = (2.0, 2.0)

    def spread(n, base):
        vals = [
            sigma_hat(
                None, TREE3, "clayton", th, source="mc", n_mc=n, seed=base + i
            ).sigma[0, 0]
            for i in range(80)
        ]
        return np.std(vals, ddof=1)

    ratio = spread(1000, 3000) / spread(2000, 7000)
    assert 1.3 <= ratio <= 1.6


def test_sigma_singular_detection():
    u1 = sample(TREE3, (2.0, 2.0), "clayton", 1, seed=45).values
    with pytest.raises(SingularSigmaError):
        sigma_hat(u1, TREE3, "clayton", (2.0, 2.0))
    # the flagged ridge cannot rescue an indefinite matrix either
    with pytest.raises(SingularSigmaError):
        sigma_hat(u1, TREE3, "clayton", (2.0, 2.0), ridge=True)


def test_sigma_rejects_bad_arguments():
    u = sample(TREE3, (1.0, 2.0), "clayton", 50, seed=3).values
    with pytest.raises(DomainError):
        sigma_hat(u, TREE3, "clayton", (1.0, 2.0), source="bootstrap")
    with pytest.raises(DomainError):
        sigma_hat(u, TREE3, "clayton", (1.0, 2.0), method="exact")
    with pytest.raises(DomainError):
        sigma_hat(u[:, :2], TREE3, "clayton", (1.0, 2.0))


@pytest.mark.parametrize("fam", ["frank", "joe"])
def test_sigma_defaults_to_the_analytic_hessian_for_frank_and_joe(fam):
    # the default method is the density's Hessian for every family
    th = (1.5, 3.0)
    u = sample(TREE3, th, fam, 500, seed=3).values
    est = sigma_hat(u, TREE3, fam, th)
    assert est.method == "analytic" and est.steps is None
    info = -hessian(two_level_spec(TREE3, fam, th), u).mean(axis=0)
    np.testing.assert_allclose(est.info, info, atol=1e-12)


@pytest.mark.parametrize("source", ["mc", "observed"])
def test_sigma_rejects_a_bad_atom_before_any_draw(monkeypatch, source):
    # (0,3) is a leaf of [[1,2],3], so no nest can tie there
    def never(*args, **kwargs):
        raise AssertionError("drew or differentiated before the check")

    monkeypatch.setattr(fisher_module, "sample", never)
    monkeypatch.setattr(fisher_module, "hessian", never)
    u = np.full((10, 3), 0.5)
    with pytest.raises(DomainError, match="not a nesting edge"):
        sigma_hat(u, TREE3, "clayton", (2.0, 2.0), source=source,
                  atoms=((3,),))


def test_sigma_serializes():
    u = sample(TREE3, (1.0, 2.0), "clayton", 200, seed=3).values
    est = sigma_hat(u, TREE3, "clayton", (1.0, 2.0), method="fd")
    d = est.to_dict()
    assert len(d["sigma"]) == 2 and len(d["steps"]) == 2
    assert d["method"] == "fd" and d["ridged"] is False


# --- determinant scan ------------------------------------------------------


def test_determinant_scan_small_clayton_grid():
    scan = determinant_scan(
        "clayton", offsets=np.linspace(0.3, 1.2, 3), n_mc=3000, seed=1
    )
    assert scan.dets.shape == (3, 3)
    assert np.all(np.isnan(scan.dets[np.tril_indices(3, -1)]))
    assert scan.all_positive
    rows = list(scan.rows())
    assert len(rows) == 6
    th0, th1, _ = rows[0]
    assert th0 == pytest.approx(0.3) and th1 == pytest.approx(0.3)


def test_determinant_scan_single_point():
    scan = determinant_scan("gumbel", offsets=[0.5], n_mc=2000, seed=2)
    assert scan.dets.shape == (1, 1)
    assert np.isfinite(scan.dets[0, 0])
    assert scan.origin == 1.0


def test_determinant_scan_rejects_bad_grid():
    with pytest.raises(DomainError):
        determinant_scan("clayton", offsets=[0.0, 0.5], n_mc=100)
    with pytest.raises(DomainError):
        determinant_scan("clayton", tree=HacTree([[1, 2], [3, 4]]), n_mc=100)
