"""HAC tree structures, the cone parameter space, hypotheses, and local cones.

A tree is given as nested lists of 1-based leaf labels, e.g. [[1, 2], 3].
Internal nodes are addressed by paths: the root is (), its k-th child (k,),
and so on (printed as "(0)", "(0,k)", ... with the conventional leading 0).
The parameter space Theta holds the vectors, one parameter per internal
node in preorder, whose entries lie in the family's domain and which lie
in the cone {theta: theta_parent <= theta_child}; ``check_theta`` is the
one test of membership, ``tight_edges`` the one test of a tie, and
``holding_branches`` the one test of which hypothesis branches hold.  A
tie contracts its edge: ``quotient`` gives the tree a tie reduces to.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, HypothesisError
from .generators import get_family

Path = tuple[int, ...]
NestedSpec = Union[int, list]

__all__ = [
    "Path",
    "HacTree",
    "Hypothesis",
    "Cone",
    "node_name",
    "parse_node_name",
    "check_theta",
    "collapse",
    "holding_branches",
    "local_cones",
    "quotient",
    "tie_classes",
    "tight_edges",
]

MAX_FACE_CONSTRAINTS = 16


def node_name(path: Path) -> str:
    return "(" + ",".join(["0", *map(str, path)]) + ")"


_NODE_RE = re.compile(r"^\(\s*0\s*((?:,\s*\d+\s*)*)\)$")


def parse_node_name(text: str) -> Path:
    m = _NODE_RE.match(text.strip())
    if m is None:
        raise DomainError(f"bad node name {text!r}; expected like (0) or (0,1)")
    rest = m.group(1).replace(" ", "")
    if not rest:
        return ()
    parts = tuple(int(x) for x in rest.strip(",").split(","))
    if any(k < 1 for k in parts):
        raise DomainError(f"child indices are 1-based in {text!r}")
    return parts


@dataclass(frozen=True)
class _Internal:
    path: Path
    children: tuple  # ints (leaf labels) and Paths (internal children)
    n_leaves: int


class HacTree:
    """Immutable rooted tree; leaves carry distinct labels 1..d."""

    def __init__(self, spec: NestedSpec):
        if not isinstance(spec, list):
            raise DomainError("tree root must be a list of children")
        self._internal: dict[Path, _Internal] = {}
        self._build((), spec)
        labels = sorted(self.leaf_labels(()))
        self.d = len(labels)
        if labels != list(range(1, self.d + 1)):
            raise DomainError(
                f"leaf labels must be exactly 1..d, got {labels}"
            )
        # preorder = document order: lexicographic tuple order puts every
        # prefix before its extensions
        self.internal_paths: tuple[Path, ...] = tuple(sorted(self._internal))
        self.p = len(self.internal_paths)
        self.param_pos: dict[Path, int] = {
            path: i for i, path in enumerate(self.internal_paths)
        }
        self._nested = spec

    def _build(self, path: Path, spec: list) -> int:
        if len(spec) < 2:
            raise DomainError(
                f"internal node {node_name(path)} needs at least 2 children"
            )
        children: list = []
        n_leaves = 0
        for k, child in enumerate(spec, start=1):
            if isinstance(child, bool) or not isinstance(child, (int, list)):
                raise DomainError(
                    f"child {k} of {node_name(path)} must be an int or a list"
                )
            if isinstance(child, int):
                if child < 1:
                    raise DomainError(f"leaf labels are positive, got {child}")
                children.append(child)
                n_leaves += 1
            else:
                child_path = path + (k,)
                n_leaves += self._build(child_path, child)
                children.append(child_path)
        seen_labels = [c for c in children if isinstance(c, int)]
        if len(set(seen_labels)) != len(seen_labels):
            raise DomainError("duplicate leaf label")
        node = _Internal(path, tuple(children), n_leaves)
        if path in self._internal:
            raise DomainError("duplicate node path")
        self._internal[path] = node
        all_labels = self.leaf_labels(path)
        if len(set(all_labels)) != len(all_labels):
            raise DomainError("duplicate leaf label across subtrees")
        return n_leaves

    # -- queries ---------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "HacTree":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"tree is not valid JSON: {exc}") from None
        return cls(spec)

    def to_nested(self) -> list:
        return self._nested

    def node(self, path: Path) -> _Internal:
        try:
            return self._internal[path]
        except KeyError:
            raise DomainError(f"no internal node {node_name(path)}") from None

    def __contains__(self, path: Path) -> bool:
        return path in self._internal

    def children(self, path: Path) -> tuple:
        return self.node(path).children

    def n_leaves(self, path: Path) -> int:
        return self.node(path).n_leaves

    def leaf_labels(self, path: Path) -> tuple[int, ...]:
        out: list[int] = []
        for child in self.node(path).children:
            if isinstance(child, int):
                out.append(child)
            else:
                out.extend(self.leaf_labels(child))
        return tuple(out)

    def constraint_pairs(self) -> tuple[tuple[Path, Path], ...]:
        """(parent, child) pairs of internal nodes: theta_p <= theta_c."""
        pairs = []
        for path in self.internal_paths:
            for child in self._internal[path].children:
                if not isinstance(child, int):
                    pairs.append((path, child))
        return tuple(pairs)

    def lca(self, a: int, b: int) -> Path:
        """Deepest internal node whose leaf set contains both labels."""
        if a == b or not (1 <= a <= self.d and 1 <= b <= self.d):
            raise DomainError(f"need two distinct leaf labels, got ({a}, {b})")
        best = ()
        for path in self.internal_paths:
            labels = self.leaf_labels(path)
            if a in labels and b in labels and len(path) >= len(best):
                best = path
        return best

    def is_two_level(self) -> bool:
        root = self.node(())
        for child in root.children:
            if isinstance(child, int):
                continue
            if any(not isinstance(g, int) for g in self.node(child).children):
                return False
        return True

    def theta_vector(self, theta) -> np.ndarray:
        """Coerce a dict keyed by path (or name) or a sequence to preorder."""
        if isinstance(theta, dict):
            vec = np.empty(self.p)
            keyed = {
                (parse_node_name(k) if isinstance(k, str) else tuple(k)): v
                for k, v in theta.items()
            }
            extra = set(keyed) - set(self.internal_paths)
            if extra:
                raise DomainError(
                    f"parameter for missing node {node_name(sorted(extra)[0])}"
                )
            for path, i in self.param_pos.items():
                if path not in keyed:
                    raise DomainError(f"missing parameter for {node_name(path)}")
                vec[i] = keyed[path]
            return vec
        vec = np.asarray(theta, dtype=float)
        if vec.shape != (self.p,):
            raise DomainError(
                f"expected {self.p} parameters (preorder), got shape {vec.shape}"
            )
        return vec.copy()

    def __repr__(self):
        return f"HacTree({self._nested!r})"

    def __eq__(self, other):
        return isinstance(other, HacTree) and self._nested == other._nested

    def __hash__(self):
        return hash(json.dumps(self._nested))


# ====================================================================
# Hypotheses
# ====================================================================

@dataclass(frozen=True)
class Hypothesis:
    """Union of intersections of atoms; each atom ties a node to its parent.

    Atoms are stored as the child's path (the parent is implied).  Built
    from strings like "(0,1)=(0)", "(0,1)=(0) & (0,2)=(0)", or
    "(0,1)=(0) | (0,2)=(0)"; "&" binds tighter than "|".
    """

    branches: tuple[tuple[Path, ...], ...]

    @classmethod
    def parse(cls, text: str) -> "Hypothesis":
        if not text or not text.strip():
            raise DomainError("empty hypothesis")
        branches = []
        for branch_text in text.split("|"):
            atoms = []
            for atom_text in branch_text.split("&"):
                atoms.append(_parse_atom(atom_text))
            branches.append(tuple(sorted(set(atoms))))
        uniq = tuple(dict.fromkeys(branches))
        return cls(uniq)

    def check_against(self, tree: HacTree) -> None:
        """Raise DomainError unless every atom is a nesting edge of tree."""
        tie_classes(tree, [(c[:-1], c) for b in self.branches for c in b])

    def __str__(self):
        parts = []
        for branch in self.branches:
            parts.append(
                " & ".join(
                    f"{node_name(c)}={node_name(c[:-1])}" for c in branch
                )
            )
        return " | ".join(parts)


def _parse_atom(text: str) -> Path:
    sides = text.split("=")
    if len(sides) != 2:
        raise DomainError(f"atom {text!r} must be of the form (i,k)=(i)")
    a = parse_node_name(sides[0])
    b = parse_node_name(sides[1])
    if a[:-1] == b and len(a) == len(b) + 1:
        return a
    if b[:-1] == a and len(b) == len(a) + 1:
        return b
    raise DomainError(
        f"atom {text!r} must relate a node to its direct parent"
    )


# ====================================================================
# The parameter space, ties and collapse
# ====================================================================

def check_theta(tree: HacTree | None, family, theta) -> np.ndarray:
    """theta as a preorder vector, checked to lie in Theta.

    Theta: every entry finite and inside the family's ThetaDomain (family
    None skips the domain), and no gap theta_child - theta_parent below
    zero; a gap of exactly zero, a tie, is inside.  With tree None, theta
    is a two-level vector whose edges run root -> child, and its nodes
    are named by position.  Raises one DomainError naming the node and
    both values.
    """
    fam = None if family is None else get_family(family)
    if tree is None:
        vec = np.asarray(theta, dtype=float)
        up = [0] * vec.size
    else:
        vec = tree.theta_vector(theta)
        up = [tree.param_pos[p[:-1]] if p else 0 for p in tree.internal_paths]

    def name(i):
        return f"[{i}]" if tree is None else node_name(tree.internal_paths[i])

    vals = vec.tolist()
    # one pass in preorder checks every parent before its children; the
    # root is its own "parent", at a gap of zero
    for i, th in enumerate(vals):
        if not math.isfinite(th):
            raise DomainError(f"theta{name(i)}={th!r} is not finite")
        if fam is not None and not fam.domain.contains(th):
            raise DomainError(
                f"{fam.name}: theta{name(i)}={th!r} outside domain {fam.domain}"
            )
        if th - vals[up[i]] < 0.0:
            raise DomainError(
                f"theta{name(i)}={th!r} is below "
                f"theta{name(up[i])}={vals[up[i]]!r} of its parent, outside "
                "the nesting cone"
            )
    return vec


def tie_classes(tree: HacTree, edges) -> dict[Path, Path]:
    """Union-find over (parent, child) nesting edges: each internal node
    maps to the topmost node of the subtree the edges tie it into.
    Raises DomainError on a pair that is not a nesting edge of tree."""
    up = {p: p for p in tree.internal_paths}

    def find(p: Path) -> Path:
        while up[p] != p:
            up[p] = up[up[p]]
            p = up[p]
        return p

    for par, ch in edges:
        if ch not in tree or ch[:-1] != par:
            raise DomainError(f"{node_name(ch)}={node_name(par)} is not a "
                              "nesting edge of the tree")
        up[find(ch)] = find(par)
    return {p: find(p) for p in tree.internal_paths}


def tight_edges(tree: HacTree, theta) -> tuple[tuple[Path, Path], ...]:
    """The (parent, child) nesting edges with theta_child - theta_parent <= 0.

    This is the one test of tightness.  A fitted tie is a gap of exactly
    zero: a contracted atom, or a gap the optimizer left on its bound.
    Every other fitted gap sits far above rounding, so no tolerance is
    needed.
    """
    vec = tree.theta_vector(theta)
    return tuple(
        (par, ch) for par, ch in tree.constraint_pairs()
        if vec[tree.param_pos[ch]] - vec[tree.param_pos[par]] <= 0.0
    )


def holding_branches(tree: HacTree, hypothesis: Hypothesis, theta):
    """The branches of hypothesis that hold at theta: those whose every
    atom is a tight_edges edge there.  This is the one holding rule."""
    tight = tight_edges(tree, theta)
    return tuple(
        branch for branch in hypothesis.branches
        if all((ch[:-1], ch) in tight for ch in branch)
    )


def quotient(tree: HacTree, edges) -> tuple[HacTree, tuple[Path, ...]]:
    """The tree with the given (parent, child) nesting edges contracted,
    and the original path of each of its internal nodes (the topmost node
    of each tie class) in its preorder.  An absorbed node's children are
    spliced into its place, so the survivors keep their order."""
    top = tie_classes(tree, edges)

    def build(path: Path) -> tuple[list, list[Path]]:
        spec: list = []
        order: list[Path] = [path]
        for child in tree.children(path):
            if isinstance(child, int):
                spec.append(child)
                continue
            child_spec, child_order = build(child)
            if top[child] == top[path]:
                spec.extend(child_spec)
                order.extend(child_order[1:])  # drop the absorbed node
            else:
                spec.append(child_spec)
                order.extend(child_order)
        return spec, order

    spec, order = build(())
    return HacTree(spec), tuple(order)


def collapse(tree: HacTree, theta):
    """Contract the tight edges at theta (``quotient``).

    Returns (new_tree, new_theta_vector); each surviving node keeps the
    parameter of its topmost representative.
    """
    vec = tree.theta_vector(theta)
    new_tree, keep = quotient(tree, tight_edges(tree, vec))
    return new_tree, vec[[tree.param_pos[p] for p in keep]]


# ====================================================================
# Cones
# ====================================================================

@dataclass(frozen=True)
class Cone:
    """Polyhedral cone {z: ineq @ z <= 0, eq @ z = 0} in R^p.

    The rows of eq and ineq together must be linearly independent.  The
    local cones of a nesting tree satisfy this, since their rows are
    distinct tree edges e_parent - e_child.  On such rows every point
    has a face whose KKT certificate holds, which is the only rule the
    projection in haclrt.lrt uses.
    """

    p: int
    ineq: np.ndarray = field(default=None)  # (m, p)
    eq: np.ndarray = field(default=None)    # (r, p)

    def __post_init__(self):
        ineq = np.zeros((0, self.p)) if self.ineq is None else np.atleast_2d(
            np.asarray(self.ineq, dtype=float)
        )
        eq = np.zeros((0, self.p)) if self.eq is None else np.atleast_2d(
            np.asarray(self.eq, dtype=float)
        )
        if ineq.size == 0:
            ineq = ineq.reshape(0, self.p)
        if eq.size == 0:
            eq = eq.reshape(0, self.p)
        if ineq.shape[1] != self.p or eq.shape[1] != self.p:
            raise DomainError("constraint rows must have length p")
        if ineq.shape[0] > MAX_FACE_CONSTRAINTS:
            raise DomainError(
                f"too many inequality constraints ({ineq.shape[0]}) "
                f"for face enumeration"
            )
        rows = np.vstack([eq, ineq])
        if not np.all(np.isfinite(rows)):
            raise DomainError("constraint rows must be finite")
        if np.linalg.matrix_rank(rows) < rows.shape[0]:
            raise DomainError(
                "constraint rows must be linearly independent"
            )
        ineq.setflags(write=False)
        eq.setflags(write=False)
        object.__setattr__(self, "ineq", ineq)
        object.__setattr__(self, "eq", eq)

    @property
    def n_ineq(self) -> int:
        return self.ineq.shape[0]

    def faces(self):
        """All faces as tuples of tight inequality indices (0..m-1)."""
        m = self.n_ineq
        out = []
        for mask in range(2**m):
            out.append(tuple(i for i in range(m) if mask >> i & 1))
        return out

    def contains(self, z, tol: float = 1e-9) -> bool:
        z = np.asarray(z, dtype=float)
        ok_ineq = self.n_ineq == 0 or bool(np.all(self.ineq @ z <= tol))
        ok_eq = self.eq.shape[0] == 0 or bool(
            np.all(np.abs(self.eq @ z) <= tol)
        )
        return ok_ineq and ok_eq


def _pair_row(tree: HacTree, par: Path, ch: Path) -> np.ndarray:
    row = np.zeros(tree.p)
    row[tree.param_pos[par]] = 1.0
    row[tree.param_pos[ch]] = -1.0
    return row


def local_cones(
    tree: HacTree,
    hypothesis: Hypothesis,
    theta0,
    assume_tight: Sequence[tuple[Path, Path]] = (),
):
    """Local cones (A, A_null) of the parameter space and the null set.

    A collects the tight_edges at theta0, and the assume_tight pairs, as
    half-spaces {z_parent - z_child <= 0}; slack constraints vanish in the
    local limit.  A_null is a tuple of cones, one per branch that holds at
    theta0 (holding_branches): the branch atoms become equalities,
    remaining tight constraints stay half-spaces.  theta0 must be finite
    and in the cone (check_theta with no family).
    """
    hypothesis.check_against(tree)
    vec = check_theta(tree, None, theta0)
    tight = tight_edges(tree, vec)
    forced = {(tuple(a), tuple(b)) for a, b in assume_tight}
    tight_pairs = [
        pair for pair in tree.constraint_pairs()
        if pair in tight or pair in forced
    ]

    A = Cone(
        tree.p,
        ineq=np.array([_pair_row(tree, p_, c_) for p_, c_ in tight_pairs])
        if tight_pairs
        else None,
    )

    null_cones = []
    for branch in holding_branches(tree, hypothesis, vec):
        branch_pairs = {(ch[:-1], ch) for ch in branch}
        eq_rows = [_pair_row(tree, p_, c_) for p_, c_ in sorted(branch_pairs)]
        ineq_rows = [
            _pair_row(tree, p_, c_)
            for p_, c_ in tight_pairs
            if (p_, c_) not in branch_pairs
        ]
        null_cones.append(
            Cone(
                tree.p,
                ineq=np.array(ineq_rows) if ineq_rows else None,
                eq=np.array(eq_rows),
            )
        )
    if not null_cones:
        raise HypothesisError(f"no branch of {hypothesis} holds at theta0")
    return A, tuple(null_cones)
