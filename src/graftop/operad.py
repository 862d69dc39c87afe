"""Deformed compositions and grafting products on weighted labeled trees.

The partial composition substitutes a tree T for a vertex v of a host S
whose weight matches T's total weight, then sums over every way of
reattaching v's child branches to vertices of T.  Each term t is weighted
by the deformation parameter raised to E(t) - E(S) - E(T), the potential
energy the reattachment adds: the height-weighted sum of the branches'
total weights, so the parameter measures how far below the graft point
the branches sink.  Setting the parameter to 0 keeps only the root
reattachment; setting it to 1 flattens all the coefficients to 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .algebra import TreeCombination, accumulate, monomial
from .errors import TreeError
from .trees import UNLABELED, VertexRef, WeightedTree, _owned, relabel, reweight


def unit(weight: int, label: str = UNLABELED) -> WeightedTree:
    """The one-vertex tree of the given weight."""
    return WeightedTree(label, weight)


class UnitFamily:
    """The graded unit, one single-vertex tree per weight, built lazily."""

    def __init__(self, label: str = UNLABELED):
        self.label = label

    def __getitem__(self, weight: int) -> WeightedTree:
        return unit(weight, self.label)


UNIT = UnitFamily()


@dataclass(frozen=True)
class GraftMap:
    """Assignment of the child edges of the substituted vertex to vertices
    of the inserted tree, aligned with the canonical edge order."""

    targets: tuple[VertexRef, ...]

    @classmethod
    def root_map(cls, S: WeightedTree, v: VertexRef, T: WeightedTree) -> "GraftMap":
        """The minimal map sending every edge to the root of T."""
        _owned(S, v)
        return cls((VertexRef(T, ()),) * len(v.node.children))

    @classmethod
    def from_labels(
        cls, S: WeightedTree, v: VertexRef, T: WeightedTree, mapping: Mapping[str, str]
    ) -> "GraftMap":
        """Build a map from branch-root labels to target labels in T."""
        _owned(S, v)
        branch_labels = [c.label for c in v.node.children]
        if set(mapping) != set(branch_labels):
            raise TreeError(
                f"graft map domain {sorted(mapping)} does not match branches {sorted(branch_labels)}"
            )
        return cls(tuple(T.ref(mapping[lab]) for lab in branch_labels))


def iter_graft_maps(S: WeightedTree, v: VertexRef, T: WeightedTree) -> Iterator[GraftMap]:
    """All maps from the child edges of v into the vertices of T."""
    _owned(S, v)
    k = len(v.node.children)
    for targets in itertools.product(T.vertices(), repeat=k):
        yield GraftMap(targets)


def _spine(node: WeightedTree, path: tuple) -> tuple[list, WeightedTree]:
    """The root-to-``path`` spine of ``node``, deepest level first (per
    level the ancestor's label and weight and the siblings left and right
    of the path), and the vertex at ``path``."""
    spine = []
    for i in path:
        kids = node.children
        spine.append((node.label, node.weight, kids[:i], kids[i + 1:]))
        node = kids[i]
    spine.reverse()
    return spine, node


def _respine(spine: list, new: WeightedTree) -> WeightedTree:
    """``new`` hung in place of the vertex at the bottom of ``spine``, whose
    levels are rebuilt bottom-up with the trusted constructor: the caller
    has checked that ``new`` brings no label of the tree other than the
    replaced vertex's."""
    for label, weight, left, right in spine:
        new = WeightedTree._node(label, weight, left + (new,) + right)
    return new


def _replace_at(node: WeightedTree, path: tuple, new: WeightedTree) -> WeightedTree:
    """``node`` with its vertex at ``path`` replaced by the subtree ``new``;
    only the vertices along the path are rebuilt."""
    return _respine(_spine(node, path)[0], new)


def _graft(tree: WeightedTree, path: tuple, node: WeightedTree, *branches) -> WeightedTree:
    """``tree`` with ``branches`` hung as new children of ``node``, the vertex
    at ``path``: the graft kernel.  Only ``node`` and its ancestors are
    rebuilt, with the trusted constructor: the caller has checked that the
    branches and ``tree`` are label-disjoint (or all unlabeled)."""
    kids = node.children + branches
    return _replace_at(tree, path, WeightedTree._node(node.label, node.weight, kids))


def _placements(x: WeightedTree, hung: tuple, memo: dict) -> list:
    """Every way to hang the branches ``hung`` below the vertices of ``x``,
    one each: the branches are distributed among x and its children, each
    child recursing with its share.  Memoized in ``memo`` for one call on
    the identities of x and the branches, read first, so each distinct
    rebuilt subtree is one object and a subtree that receives no branch is
    x's own.  Recurses once per level of ``x``, and has ``_graft``'s
    precondition.

    A share is a bitmask over ``hung``.  The children are folded in one at
    a time: after each, ``partial`` maps the mask of the branches sent
    below so far to the tuples of child trees that send them; the branches
    outside the final mask stay at x."""
    key = (id(x), *map(id, hung))
    if key in memo:
        return memo[key]
    kids = x.children
    if not kids:
        out = [WeightedTree._node(x.label, x.weight, hung)]
    else:
        shares = [()]  # per mask: its branches in order
        for branch in hung:
            shares += [s + (branch,) for s in shares]
        full = len(shares) - 1
        partial = {0: [()]}
        for kid in kids:
            folded: dict[int, list] = {}
            below = {0: (kid,)}  # per share: the kid's placements of it
            for sent, rows in partial.items():
                free = full ^ sent
                share = free
                while True:  # every share of the free branches, the empty one last
                    placed = below.get(share)
                    if placed is None:
                        placed = below[share] = _placements(kid, shares[share], memo)
                    folded.setdefault(sent | share, []).extend(
                        [trees + (t,) for trees in rows for t in placed]
                    )
                    if not share:
                        break
                    share = (share - 1) & free
            partial = folded
        node = WeightedTree._node
        label, weight = x.label, x.weight
        out = [
            node(label, weight, trees + shares[full ^ sent])
            for sent, rows in partial.items()
            for trees in rows
        ]
    memo[key] = out
    return out


def _check_compose_args(S: WeightedTree, v: VertexRef, T: WeightedTree) -> None:
    _owned(S, v)
    if S.label == UNLABELED or T.label == UNLABELED:
        raise TreeError("composition requires labeled trees")
    clash = (S.labels & T.labels) - {v.label}
    if clash:
        raise TreeError(f"label clash between host and inserted tree: {sorted(clash)}")


def compose_with_map(
    S: WeightedTree, v: VertexRef, T: WeightedTree, f: GraftMap
) -> WeightedTree:
    """Substitute T for vertex v of S, reattaching each child branch of v at
    the vertex of T chosen by f.

    T's root inherits v's parent edge (or becomes the root when v was the
    root); the result has S.size + T.size - 1 vertices.  Only the root-to-v
    spine of S and the ancestors of the targets in T are new trees; every
    other subtree, the moved branches included, is shared with S and T.
    """
    _check_compose_args(S, v, T)
    branches = v.node.children
    if len(f.targets) != len(branches):
        raise TreeError(f"graft map has {len(f.targets)} targets for {len(branches)} edges")
    for r in f.targets:
        if r.tree != T:
            raise TreeError("graft map target does not belong to the inserted tree")
    # Each target receives all its branches in one graft.  A graft re-sorts
    # siblings, which moves the paths below its target, so every target
    # after the first is found again by label.
    by_target: dict[tuple, tuple] = {}
    for r, branch in zip(f.targets, branches):
        by_target[r.path] = by_target.get(r.path, ()) + (branch,)
    tree = T
    for path, hung in by_target.items():
        node = T.node_at(path)
        if tree is not T:
            x = tree.ref(node.label)
            path, node = x.path, x.node
        tree = _graft(tree, path, node, *hung)
    return _replace_at(S, v.path, tree)


def compose_lambda(S: WeightedTree, v: VertexRef, T: WeightedTree) -> TreeCombination:
    """Graded partial composition of T into vertex v of S.

    Zero when T's total weight differs from v's weight.  Otherwise one
    term per reattachment map; the term t carries coefficient
    L**(E(t) - E(S) - E(T)), E the potential energy.  T's root takes v's
    height, so E(S) + E(T) is the energy of the all-at-the-root term, the
    minimum, and the exponent is the sum, over v's child branches, of the
    height of the branch's target in T times the branch's total weight.

    Base cases: with no branch T itself is inserted, and one branch is
    grafted at each vertex of T by ``_graft``; two or more go through
    ``_placements``.  The root-to-v spine of S is read once by ``_spine``
    and each term is built up from it by ``_respine``.
    """
    _check_compose_args(S, v, T)
    spine, node = _spine(S, v.path)
    if T.total_weight != node.weight:
        return TreeCombination.zero()
    branches = node.children
    if not branches:
        placed = (T,)
    elif len(branches) == 1:
        b = branches[0]
        placed = [_graft(T, path, x, b) for path, x in T.walk()]
    else:
        placed = _placements(T, branches, {})
    base = S.energy + T.energy
    terms = (_respine(spine, tree) for tree in placed)
    # Distinct maps give each moved branch root a distinct parent label, so
    # the terms never collide.
    return TreeCombination._raw({t: monomial(t.energy - base) for t in terms})


def _as_combination(x) -> TreeCombination:
    if isinstance(x, TreeCombination):
        return x
    if isinstance(x, WeightedTree):
        return TreeCombination._raw({x: monomial(0)})
    raise TypeError(f"expected a tree or tree combination, got {type(x).__name__}")


def _pairs(x, y):
    """``(cx * cy, s, t)`` for every term s of x and t of y, each a tree or
    a tree combination: the one loop of every bilinear extension."""
    ys = _as_combination(y)._terms.items()
    for s, cx in _as_combination(x)._terms.items():
        for t, cy in ys:
            yield cx * cy, s, t


def compose_at_label(x, label: str, y) -> TreeCombination:
    """Bilinear extension of compose_lambda, slot selected by label in every
    term of x."""
    return TreeCombination._sum((c, compose_lambda(s, s.ref(label), t)) for c, s, t in _pairs(x, y))


def _fresh_label(taken, base="u"):
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def compose_unit_left(n: int, T: WeightedTree) -> TreeCombination:
    """Compose the weight-n unit with T: the identity on weight-n trees,
    zero otherwise."""
    return TreeCombination.of(T) if T.total_weight == n else TreeCombination.zero()


def compose_unit_right(S: WeightedTree, v: VertexRef) -> TreeCombination:
    """Compose S at v with the unit of matching weight: always S itself."""
    _owned(S, v)
    return TreeCombination.of(S)


def gamma(a: WeightedTree, parts: Mapping[str, WeightedTree]) -> TreeCombination:
    """Global composition: plug one tree into every vertex of a.

    Slots are consumed in descending label order; by the associativity
    laws any admissible order agrees.  A weight mismatch at any slot makes
    the whole result zero.
    """
    if set(parts) != set(a.labels):
        raise TreeError(
            f"gamma needs one part per vertex; got {sorted(parts)} for {sorted(a.labels)}"
        )
    acc = TreeCombination.of(a)
    for label in sorted(a.labels, reverse=True):
        acc = compose_at_label(acc, label, parts[label])
        if not acc:
            return acc
    return acc


def compose_positional(S: WeightedTree, i: int, T: WeightedTree) -> TreeCombination:
    """Classical position-indexed composition for trees labeled 1..n.

    Relabels so the inserted tree occupies positions i..i+m-1 and the
    host's higher labels shift up by m-1, then defers to the label-keyed
    composition.
    """
    n, m = S.size, T.size
    if S.labels != {str(k) for k in range(1, n + 1)}:
        raise TreeError("positional composition requires host labels 1..n")
    if T.labels != {str(k) for k in range(1, m + 1)}:
        raise TreeError("positional composition requires inserted labels 1..m")
    if not 1 <= i <= n:
        raise TreeError(f"position {i} out of range 1..{n}")
    host_map = {
        str(k): str(k if k < i else k + m - 1) if k != i else str(i)
        for k in range(1, n + 1)
    }
    inner_map = {str(j): str(j + i - 1) for j in range(1, m + 1)}
    S2 = relabel(S, host_map)
    T2 = relabel(T, inner_map)
    return compose_lambda(S2, S2.ref(str(i)), T2)


def graft_at(T: WeightedTree, v: VertexRef, S: WeightedTree) -> WeightedTree:
    """Graft S as a new child branch of vertex v of T."""
    _owned(T, v)
    _check_graft_args(T, S)
    return _graft(T, v.path, v.node, S)


def _check_graft_args(T: WeightedTree, S: WeightedTree) -> None:
    if T.is_labeled != S.is_labeled:
        raise TreeError("cannot graft across labeled and unlabeled trees")
    if T.is_labeled and T.labels & S.labels:
        raise TreeError(f"label clash when grafting: {sorted(T.labels & S.labels)}")


def arrow_lambda(x, y) -> TreeCombination:
    """Deformed grafting product: graft y below every vertex of x, the term
    at a vertex of height h weighted by L**(weight(y) * h).

    Extends bilinearly when either argument is a combination.
    """
    acc: dict = {}
    for coeff, t, s in _pairs(x, y):
        _check_graft_args(t, s)
        w = s.total_weight
        for path, node in t.walk():
            accumulate(acc, _graft(t, path, node, s), coeff * monomial(w * len(path)))
    return TreeCombination._raw(acc)


star_lambda = arrow_lambda


def butcher_product(T: WeightedTree, S: WeightedTree) -> WeightedTree:
    """Root graft: S attached as a new child of T's root."""
    return graft_at(T, VertexRef(T, ()), S)


def circ_sum(T, S) -> TreeCombination:
    """Sum of the graded compositions of S into every vertex of T; only
    vertices whose weight equals S's total weight contribute."""
    return TreeCombination._sum(
        (c, compose_lambda(t, v, s)) for c, t, s in _pairs(T, S) for v in t.vertices()
    )


def nap_compose(S: WeightedTree, v: VertexRef, T: WeightedTree) -> WeightedTree:
    """Root-only composition: the single term surviving at parameter 0."""
    _owned(S, v)
    if T.total_weight != v.weight:
        raise TreeError(
            f"weight mismatch: inserted tree weighs {T.total_weight}, slot weighs {v.weight}"
        )
    return nap_compose_classical(S, v, T)


def pre_lie_compose(S: WeightedTree, v: VertexRef, T: WeightedTree) -> TreeCombination:
    """Classical composition ignoring weights: the plain sum over all
    reattachment maps, each with coefficient 1."""
    return TreeCombination((compose_with_map(S, v, T, f), 1) for f in iter_graft_maps(S, v, T))


def nap_compose_classical(S: WeightedTree, v: VertexRef, T: WeightedTree) -> WeightedTree:
    """Classical root-only composition ignoring weights."""
    return compose_with_map(S, v, T, GraftMap.root_map(S, v, T))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The ordered ways to write ``total`` as ``parts`` positive integers,
    in lexicographic order: one per choice of ``parts - 1`` cut points."""
    if total < parts:
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _weightings(tree: WeightedTree, max_total: int) -> Iterator[dict]:
    for total in range(tree.size, max_total + 1):
        yield from _weightings_exact(tree, total)


def _weightings_exact(tree: WeightedTree, total: int) -> Iterator[dict]:
    labels = sorted(tree.labels)
    for vec in _compositions(total, len(labels)):
        yield dict(zip(labels, vec))


def _morphism_check(
    S: WeightedTree, T: WeightedTree, v: VertexRef, weight_bound: int, value: int, compose
) -> bool:
    """Truncated morphism equality from a classical composition, all-maps
    for ``value`` 1 and root-only for 0, into the graded composition
    ``compose`` specialized at ``value``.  Both sides are expanded over
    every weight assignment with total at most weight_bound and compared
    exactly."""
    _owned(S, v)
    if S.labels & T.labels:
        raise TreeError("morphism check requires label-disjoint trees")
    if value:
        classical = pre_lie_compose(S, v, T)
    else:
        classical = TreeCombination.of(nap_compose_classical(S, v, T))
    lhs: dict = {}
    for u, c in classical._terms.items():
        for assignment in _weightings(u, weight_bound):
            accumulate(lhs, reweight(u, assignment), c)
    rhs = TreeCombination._sum(
        (monomial(0), compose(Sa, Sa.ref(v.label), reweight(T, beta)).specialize(value))
        for alpha in _weightings(S, weight_bound)
        for Sa in (reweight(S, alpha),)
        for beta in _weightings_exact(T, alpha[v.label])
    )
    return lhs == rhs._terms


def morphism_i_check(S: WeightedTree, T: WeightedTree, v: VertexRef, weight_bound: int) -> bool:
    """Truncated morphism equality from the classical all-maps composition
    into the parameter-1 graded composition (see ``_morphism_check``)."""
    return _morphism_check(S, T, v, weight_bound, 1, compose_lambda)


def morphism_j_check(S: WeightedTree, T: WeightedTree, v: VertexRef, weight_bound: int) -> bool:
    """Truncated morphism equality from the classical root-only composition
    into the parameter-0 graded composition (see ``_morphism_check``)."""
    return _morphism_check(S, T, v, weight_bound, 0, compose_lambda)
