"""Tree construction, hypotheses, collapse, and local-cone geometry."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from haclrt.errors import DomainError, HypothesisError
from haclrt.tree import (
    Cone,
    HacTree,
    Hypothesis,
    check_theta,
    collapse,
    local_cones,
    node_name,
    parse_node_name,
    tie_classes,
    tight_edges,
)


# ---------------------------------------------------------------
# construction and indexing
# ---------------------------------------------------------------

def test_two_level_tree_shape():
    t = HacTree([[1, 2], 3])
    assert t.d == 3
    assert t.p == 2
    assert t.internal_paths == ((), (1,))
    assert t.leaf_labels(()) == (1, 2, 3)
    assert t.leaf_labels((1,)) == (1, 2)
    assert t.n_leaves((1,)) == 2
    assert t.is_two_level()


def test_twin_cluster_tree():
    t = HacTree([[1, 2], [3, 4]])
    assert t.p == 3
    assert t.internal_paths == ((), (1,), (2,))
    assert t.constraint_pairs() == (((), (1,)), ((), (2,)))


def test_three_level_tree():
    t = HacTree([1, [2, [3, 4]]])
    assert t.internal_paths == ((), (2,), (2, 2))
    assert t.constraint_pairs() == (((), (2,)), ((2,), (2, 2)))
    assert not t.is_two_level()


def test_preorder_positions():
    t = HacTree([[1, 2], [3, [4, 5]], 6])
    assert t.param_pos[()] == 0
    assert t.param_pos[(1,)] == 1
    assert t.param_pos[(2,)] == 2
    assert t.param_pos[(2, 2)] == 3


@pytest.mark.parametrize(
    "bad",
    [
        [1],                  # K < 2
        [[1, 2], [3, 1]],     # duplicate label
        [[1, 2], 4],          # labels not 1..d
        [1.5, 2],             # non-integer leaf
        [[1], 2, 3],          # inner node with one child
        5,                    # not a list
    ],
)
def test_malformed_trees_rejected(bad):
    with pytest.raises(DomainError):
        HacTree(bad)


def test_json_round_trip():
    t = HacTree.from_json("[[1,2],[3,4]]")
    assert t.to_nested() == [[1, 2], [3, 4]]
    with pytest.raises(DomainError):
        HacTree.from_json("[[1,2],")


def test_node_names():
    assert node_name(()) == "(0)"
    assert node_name((1,)) == "(0,1)"
    assert node_name((2, 1)) == "(0,2,1)"
    assert parse_node_name("(0)") == ()
    assert parse_node_name("( 0 , 2 , 1 )") == (2, 1)
    with pytest.raises(DomainError):
        parse_node_name("(1,2)")
    with pytest.raises(DomainError):
        parse_node_name("0,1")


def test_theta_vector_coercion():
    t = HacTree([[1, 2], 3])
    v = t.theta_vector({"(0)": 1.0, "(0,1)": 2.0})
    np.testing.assert_array_equal(v, [1.0, 2.0])
    v2 = t.theta_vector({(): 1.0, (1,): 2.0})
    np.testing.assert_array_equal(v2, [1.0, 2.0])
    with pytest.raises(DomainError):
        t.theta_vector({"(0)": 1.0})
    with pytest.raises(DomainError):
        t.theta_vector({"(0)": 1.0, "(0,1)": 2.0, "(0,2)": 3.0})
    with pytest.raises(DomainError):
        t.theta_vector([1.0])


# ---------------------------------------------------------------
# hypothesis mini-language
# ---------------------------------------------------------------

def test_parse_single_atom():
    h = Hypothesis.parse("(0,1)=(0)")
    assert h.branches == (((1,),),)


def test_parse_reversed_atom():
    assert Hypothesis.parse("(0)=(0,1)") == Hypothesis.parse("(0,1)=(0)")


def test_parse_intersection_and_union():
    h = Hypothesis.parse("(0,1)=(0) & (0,2)=(0)")
    assert h.branches == (((1,), (2,)),)
    hu = Hypothesis.parse("(0,1)=(0) | (0,2)=(0)")
    assert hu.branches == (((1,),), ((2,),))


def test_parse_precedence():
    h = Hypothesis.parse("(0,1)=(0) & (0,2)=(0) | (0,1)=(0)")
    assert h.branches == (((1,), (2,)), ((1,),))


def test_hypothesis_str_round_trip():
    for text in ["(0,1)=(0)", "(0,1)=(0) & (0,2)=(0)", "(0,1)=(0) | (0,2)=(0)"]:
        h = Hypothesis.parse(text)
        assert Hypothesis.parse(str(h)) == h


@pytest.mark.parametrize(
    "bad", ["", "(0,1)", "(0,1)=(0,2)", "(0,1) = (0,1,1,1)", "x=(0)"]
)
def test_bad_hypotheses_rejected(bad):
    with pytest.raises(DomainError):
        Hypothesis.parse(bad)


def test_hypothesis_checked_against_tree():
    t = HacTree([[1, 2], 3])
    Hypothesis.parse("(0,1)=(0)").check_against(t)
    with pytest.raises(DomainError):
        Hypothesis.parse("(0,2)=(0)").check_against(t)


# ---------------------------------------------------------------
# check_theta
# ---------------------------------------------------------------

def test_validate_interior():
    t = HacTree([[1, 2], 3])
    vec = check_theta(t, "clayton", {"(0,1)": 2.0, "(0)": 1.0})
    np.testing.assert_array_equal(vec, [1.0, 2.0])
    assert tight_edges(t, [1.0, 2.0]) == ()


def test_validate_boundary():
    # a gap of exactly zero lies in the parameter space
    t = HacTree([[1, 2], 3])
    np.testing.assert_array_equal(check_theta(t, "clayton", [2.0, 2.0]), 2.0)
    assert tight_edges(t, [2.0, 2.0]) == (((), (1,)),)


def test_tight_edges_are_the_gaps_of_at_most_zero():
    t = HacTree([[1, 2], [3, [4, 5]]])
    # a gap of one ulp or 1e-300 is slack; zero and negative gaps are tight
    theta = [1.0, np.nextafter(1.0, 2.0), 1.5, 1.5]
    assert tight_edges(t, theta) == (((2,), (2, 2)),)
    assert tight_edges(t, [1e-300, 2e-300, 0.5, 0.4]) == (((2,), (2, 2)),)
    assert tight_edges(t, [1.0, 1.0, 1.0, 1.0]) == t.constraint_pairs()


def test_validate_outside_cone():
    t = HacTree([[1, 2], 3])
    for theta in ([3.0, 2.0], [2.0, np.nextafter(2.0, 0.0)]):
        with pytest.raises(DomainError, match=r"theta\(0,1\)=.* is below theta\(0\)"):
            check_theta(t, "clayton", theta)
        with pytest.raises(DomainError, match="below"):
            check_theta(t, None, theta)


def test_validate_outside_domain():
    t = HacTree([[1, 2], 3])
    with pytest.raises(
        DomainError, match=r"gumbel: theta\(0\)=0.5 outside domain \[1.0, inf\)"
    ):
        check_theta(t, "gumbel", [0.5, 2.0])
    # without a family only finiteness and the cone count
    np.testing.assert_array_equal(check_theta(t, None, [0.5, 2.0]), [0.5, 2.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match=r"theta\(0,1\)=.* is not finite"):
            check_theta(t, None, [0.5, bad])


def _entry_points():
    """Every caller of check_theta, as theta -> result, on [[1,2],3]."""
    from haclrt.density import two_level_spec
    from haclrt.estimate import mle
    from haclrt.fisher import fd_hessian, fd_scheme, sigma_hat
    from haclrt.sampler import sample

    t = HacTree([[1, 2], 3])
    u = sample(t, [2.0, 3.0], "clayton", 64, seed=5).values
    spec = two_level_spec(t, "clayton", [2.0, 3.0])
    hyp = Hypothesis.parse("(0,1)=(0)")
    return t, {
        "two_level_spec": lambda th: two_level_spec(t, "clayton", th),
        "with_theta": spec.with_theta,
        "sample": lambda th: sample(t, th, "clayton", 8, seed=1),
        "mle_start": lambda th: mle(u, t, "clayton", start=th),
        "sigma_hat": lambda th: sigma_hat(u, t, "clayton", th),
        "sigma_hat_fd": lambda th: sigma_hat(u, t, "clayton", th, method="fd"),
        "sigma_hat_mc": lambda th: sigma_hat(
            None, t, "clayton", th, source="mc", n_mc=500),
        "fd_scheme": lambda th: fd_scheme(t, "clayton", th),
        "fd_hessian": lambda th: fd_hessian(u, t, "clayton", th),
        "local_cones": lambda th: local_cones(t, hyp, th),
    }


THETA_CASES = {
    "nan": [2.0, np.nan],
    "domain": [0.0, 2.0],           # clayton's domain edge is open
    "gap-5e-10": [2.0, 2.0 - 5e-10],
    "gap-1": [3.0, 2.0],
    "gap-0": [2.0, 2.0],
}


@pytest.mark.parametrize("case", list(THETA_CASES))
@pytest.mark.parametrize("entry", list(_entry_points()[1]))
def test_every_entry_point_runs_the_one_check(entry, case):
    t, calls = _entry_points()
    theta = THETA_CASES[case]
    if case == "domain" and entry == "local_cones":
        # local_cones has no family, so Clayton's open edge passes it
        local_cones(t, Hypothesis.parse("(0,1)=(0)"), [0.0, 0.0])
        return
    if case == "gap-0":
        calls[entry](theta)
        return
    # a spec keeps no node paths, so it names nodes by position
    with pytest.raises(DomainError) as want:
        check_theta(None if entry == "with_theta" else t,
                    None if entry == "local_cones" else "clayton", theta)
    with pytest.raises(DomainError) as got:
        calls[entry](theta)
    assert type(got.value) is DomainError
    assert str(got.value) == str(want.value)


def test_tie_classes_map_to_the_topmost_node():
    t = HacTree([[1, 2], [3, [4, [5, 6]]]])
    top = tie_classes(t, [((2, 2), (2, 2, 2)), ((), (2,))])
    assert top == {(): (), (1,): (1,), (2,): (), (2, 2): (2, 2),
                   (2, 2, 2): (2, 2)}
    assert tie_classes(t, []) == {p: p for p in t.internal_paths}


# ---------------------------------------------------------------
# collapse
# ---------------------------------------------------------------

def test_collapse_tie_merges_to_exchangeable():
    t = HacTree([[1, 2], 3])
    t2, th2 = collapse(t, [2.0, 2.0])
    assert t2.to_nested() == [1, 2, 3]
    np.testing.assert_array_equal(th2, [2.0])


def test_collapse_interior_is_identity():
    t = HacTree([[1, 2], 3])
    t2, th2 = collapse(t, [1.0, 2.0])
    assert t2.to_nested() == [[1, 2], 3]
    np.testing.assert_array_equal(th2, [1.0, 2.0])


def test_collapse_preserves_child_order():
    t = HacTree([1, [2, 3], 4])
    t2, th2 = collapse(t, [1.5, 1.5])
    assert t2.to_nested() == [1, 2, 3, 4]


def test_collapse_chain_transitive():
    t = HacTree([1, [2, [3, 4]]])
    t2, th2 = collapse(t, [1.0, 1.0, 1.0])
    assert t2.to_nested() == [1, 2, 3, 4]
    np.testing.assert_array_equal(th2, [1.0])


def test_collapse_partial_chain():
    t = HacTree([1, [2, [3, 4]]])
    t2, th2 = collapse(t, [1.0, 1.0, 2.0])
    assert t2.to_nested() == [1, 2, [3, 4]]
    np.testing.assert_array_equal(th2, [1.0, 2.0])


def test_collapse_deep_splice_in_place():
    t = HacTree([[1, 2], [3, [4, 5]]])
    theta = [1.0, 2.0, 1.0, 3.0]  # (0,2) ties the root
    t2, th2 = collapse(t, theta)
    assert t2.to_nested() == [[1, 2], 3, [4, 5]]
    np.testing.assert_array_equal(th2, [1.0, 2.0, 3.0])


def test_collapse_idempotent():
    rng = np.random.default_rng(5)
    t = HacTree([[1, 2], [3, [4, 5]], 6])
    for _ in range(20):
        base = rng.uniform(1.0, 2.0)
        theta = np.array(
            [base, base + rng.choice([0.0, 0.5]), base + rng.choice([0.0, 0.5]), 0.0]
        )
        theta[3] = theta[2] + rng.choice([0.0, 0.4])
        t1, th1 = collapse(t, theta)
        t2, th2 = collapse(t1, th1)
        assert t1.to_nested() == t2.to_nested()
        np.testing.assert_array_equal(th1, th2)


def test_collapse_result_in_cone():
    # only the exact tie merges; a gap of 5e-9 keeps its nest
    t = HacTree([[1, 2], [3, [4, 5]]])
    t2, th2 = collapse(t, [1.0, 1.0 + 5e-9, 1.5, 1.5])
    assert t2.to_nested() == [[1, 2], [3, 4, 5]]
    check_theta(t2, "clayton", th2)


# ---------------------------------------------------------------
# cones
# ---------------------------------------------------------------

def test_cone_basics():
    c = Cone(2, ineq=np.array([[1.0, -1.0]]))
    assert c.contains([0.0, 0.0])
    assert c.contains([-1.0, 2.0])
    assert not c.contains([2.0, 1.0])
    assert c.faces() == [(), (0,)]
    assert c.eq.shape[0] == 0


def _dependent_cones(rng):
    rows3 = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    yield dict(p=3, ineq=rows3[[0, 0, 1]])                  # duplicate row
    yield dict(p=3, ineq=np.vstack([2.0 * rows3[0], rows3[1]]),
               eq=rows3[:1])                                # inside span(eq)
    yield dict(p=3, ineq=rows3, eq=rows3[2:] + rows3[:1])   # dependent ties
    yield dict(p=2, ineq=np.array([[1.0, -1.0], [1.0, 0.0], [0.0, -1.0]]))
    for _ in range(6):                                      # k > p
        yield dict(p=3, ineq=rng.standard_normal((6, 3)))


def test_cone_refuses_dependent_rows():
    for rows in _dependent_cones(np.random.default_rng(21)):
        with pytest.raises(DomainError, match="independent"):
            Cone(**rows)
    with pytest.raises(DomainError, match="finite"):
        Cone(2, ineq=np.array([[1.0, np.nan]]))


def test_cone_scaling_invariance():
    rng = np.random.default_rng(2)
    c = Cone(3, ineq=np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]))
    for _ in range(50):
        z = rng.normal(size=3)
        if not c.contains(z):
            z = np.array([min(z), max(z), max(z)])
        for lam in (0.5, 2.0, 10.0):
            assert c.contains(lam * z, tol=1e-8)
    assert c.contains([0.0, 0.0, 0.0])


def test_local_cones_single_tie_geometry():
    t = HacTree([[1, 2], 3])
    h = Hypothesis.parse("(0,1)=(0)")
    A, A0 = local_cones(t, h, [2.0, 2.0])
    np.testing.assert_array_equal(A.ineq, [[1.0, -1.0]])
    assert A.eq.shape[0] == 0
    assert len(A0) == 1
    np.testing.assert_array_equal(A0[0].eq, [[1.0, -1.0]])
    assert A0[0].n_ineq == 0


def test_local_cones_intersection_geometry():
    t = HacTree([[1, 2], [3, 4]])
    h = Hypothesis.parse("(0,1)=(0) & (0,2)=(0)")
    A, A0 = local_cones(t, h, [2.0, 2.0, 2.0])
    assert A.n_ineq == 2
    assert A0[0].eq.shape[0] == 2


def test_local_cones_interior_full_space():
    t = HacTree([[1, 2], 3])
    h = Hypothesis.parse("(0,1)=(0)")
    with pytest.raises(HypothesisError):
        local_cones(t, h, [1.0, 2.0])
    # but a union with one satisfied branch works
    t4 = HacTree([[1, 2], [3, 4]])
    hu = Hypothesis.parse("(0,1)=(0) | (0,2)=(0)")
    A, A0 = local_cones(t4, hu, [1.0, 1.0, 2.5])
    assert A.n_ineq == 1  # only the tied pair is tight
    assert len(A0) == 1
    np.testing.assert_array_equal(A0[0].eq, [[1.0, -1.0, 0.0]])


def test_local_cones_union_both_branches():
    t = HacTree([[1, 2], [3, 4]])
    hu = Hypothesis.parse("(0,1)=(0) | (0,2)=(0)")
    A, A0 = local_cones(t, hu, [2.0, 2.0, 2.0])
    assert len(A0) == 2
    assert A.n_ineq == 2
    # each branch keeps the other tight pair as an inequality
    assert all(c.n_ineq == 1 and c.eq.shape[0] == 1 for c in A0)


def test_local_cones_nuisance_assume_tight():
    t = HacTree([[1, 2], [3, 4]])
    h = Hypothesis.parse("(0,1)=(0)")
    theta = [1.0, 1.0, 1.8]  # nuisance strictly above the root
    A, A0 = local_cones(t, h, theta)
    assert A.n_ineq == 1
    A2, A02 = local_cones(t, h, theta, assume_tight=[((), (2,))])
    assert A2.n_ineq == 2
    assert A02[0].n_ineq == 1 and A02[0].eq.shape[0] == 1


def test_local_cones_infeasible_theta_rejected():
    t = HacTree([[1, 2], 3])
    h = Hypothesis.parse("(0,1)=(0)")
    with pytest.raises(DomainError):
        local_cones(t, h, [3.0, 2.0])


# ---------------------------------------------------------------
# property tests
# ---------------------------------------------------------------

@st.composite
def random_tree_spec(draw, max_depth=3, max_children=4):
    counter = {"next": 1}

    def gen(depth):
        if depth >= max_depth or (depth > 0 and draw(st.booleans())):
            label = counter["next"]
            counter["next"] += 1
            return label
        k = draw(st.integers(2, max_children))
        return [gen(depth + 1) for _ in range(k)]

    spec = [gen(1) for _ in range(draw(st.integers(2, max_children)))]
    return spec


@settings(max_examples=50, deadline=None)
@given(spec=random_tree_spec())
def test_random_trees_build_consistently(spec):
    t = HacTree(spec)
    assert t.n_leaves(()) == t.d
    for path in t.internal_paths:
        node = t.node(path)
        assert len(node.children) >= 2
        child_sum = sum(
            1 if isinstance(c, int) else t.n_leaves(c) for c in node.children
        )
        assert child_sum == node.n_leaves
    assert sorted(t.leaf_labels(())) == list(range(1, t.d + 1))


@settings(max_examples=50, deadline=None)
@given(spec=random_tree_spec(), data=st.data())
def test_collapse_idempotent_random(spec, data):
    t = HacTree(spec)
    gaps = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.3]), min_size=t.p, max_size=t.p
        )
    )
    theta = np.empty(t.p)
    theta[0] = 1.0
    for path, i in t.param_pos.items():
        if path == ():
            continue
        theta[i] = theta[t.param_pos[path[:-1]]] + gaps[i]
    t1, th1 = collapse(t, theta)
    t2, th2 = collapse(t1, th1)
    assert t1.to_nested() == t2.to_nested()
    np.testing.assert_array_equal(th1, th2)
    check_theta(t1, "clayton", th1)


@st.composite
def tied_hypothesis(draw, tree):
    """A hypothesis on tree's edges: a union of intersections of atoms."""
    edges = [ch for _, ch in tree.constraint_pairs()]
    atom = st.sampled_from(edges)
    branches = draw(st.lists(st.lists(atom, min_size=1, max_size=3),
                             min_size=1, max_size=3))
    return Hypothesis(tuple(tuple(sorted(set(b))) for b in branches))


@settings(max_examples=50, deadline=None)
@given(spec=random_tree_spec(), data=st.data())
def test_local_cones_have_independent_rows(spec, data):
    # random ties, unions, intersections and forced-tight pairs: every
    # cone local_cones builds has independent rows, as Cone requires
    t = HacTree(spec)
    assume(t.p >= 2)
    pairs = t.constraint_pairs()
    hyp = data.draw(tied_hypothesis(t))
    tied = {a for branch in hyp.branches for a in branch}
    gaps = {ch: 0.0 if ch in tied else data.draw(st.sampled_from([0.0, 0.3]))
            for _, ch in pairs}
    theta = np.empty(t.p)
    for path, i in t.param_pos.items():
        theta[i] = 1.0 if path == () else (
            theta[t.param_pos[path[:-1]]] + gaps[path])
    forced = data.draw(st.lists(st.sampled_from(pairs), max_size=3))
    cone, null_cones = local_cones(t, hyp, theta, assume_tight=forced)
    for c in (cone, *null_cones):
        rows = np.vstack([c.eq, c.ineq])
        assert np.linalg.matrix_rank(rows) == rows.shape[0]


def test_lca_depth_two():
    t = HacTree([[1, 2], 3])
    assert t.lca(1, 2) == (1,)
    assert t.lca(1, 3) == ()
    assert t.lca(3, 2) == ()


def test_lca_nested_chain():
    t = HacTree([1, [2, [3, 4]]])
    assert t.lca(3, 4) == (2, 2)
    assert t.lca(2, 4) == (2,)
    assert t.lca(1, 3) == ()


def test_lca_rejects_bad_labels():
    t = HacTree([[1, 2], 3])
    for a, b in [(1, 1), (0, 2), (1, 4)]:
        with pytest.raises(DomainError):
            t.lca(a, b)
