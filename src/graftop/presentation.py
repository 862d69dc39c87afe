"""Bracket-expression presentation: fully parenthesized binary products of
weighted generators, the four-term deformed relation, and the evaluation
map phi / rewriting map psi that translate between bracket expressions and
tree combinations.

phi evaluates a bracket through the deformed grafting product, one graft
per product node.  psi inverts it one root branch at a time: the graft of
the first branch onto the rest of the tree is the tree itself plus lower
terms, so psi of the tree is the product of the two parts' psi minus psi of
those terms.  The two maps are mutually inverse through phi: phi(psi(T)) is
exactly T with coefficient 1.
"""

from __future__ import annotations

import re
from operator import attrgetter

from .algebra import Combination, LambdaPoly, TreeCombination
from .errors import TreeError
from .operad import arrow_lambda
from .trees import _LABEL_CLASS, UNLABELED, WeightedTree, _check_weight, _is_label, _Scanner

# A generator, ``label_weight``, is one run of label characters.  The empty
# run is accepted too, so a match always exists.
_WORD = re.compile(_LABEL_CLASS + "*")


class _Bracket:
    """Equality, hashing and printing of bracket expressions, by ``encoding``.
    Every field is a read-only property over a slot that only ``__init__``
    writes, so assigning to any attribute raises ``AttributeError``."""

    __slots__ = ("_encoding", "_labels")

    encoding = property(attrgetter("_encoding"))
    labels = property(attrgetter("_labels"))

    def __eq__(self, other):
        return isinstance(other, _Bracket) and self._encoding == other._encoding

    def __hash__(self):
        return hash(self._encoding)

    def __repr__(self):
        return f"<bracket {self._encoding}>"

    def __str__(self):
        return self._encoding


class Generator(_Bracket):
    """A generator leaf: one label with one weight."""

    __slots__ = ("_label", "_weight")

    label = property(attrgetter("_label"))
    weight = property(attrgetter("_weight"))

    def __init__(self, label: str, weight: int):
        if label == UNLABELED or not _is_label(label):
            raise TreeError(f"invalid generator label {label!r}")
        _check_weight(weight, "generator")
        self._label, self._weight = label, weight
        self._encoding, self._labels = f"{label}_{weight}", frozenset((label,))


class Pair(_Bracket):
    """An ordered binary product of two bracket expressions."""

    __slots__ = ("_left", "_right")

    left = property(attrgetter("_left"))
    right = property(attrgetter("_right"))

    def __init__(self, left: BracketExpr, right: BracketExpr):
        clash = left.labels & right.labels
        if clash:
            raise TreeError(f"repeated generator labels {sorted(clash)} in one expression")
        self._left, self._right = left, right
        self._encoding, self._labels = f"({left.encoding} {right.encoding})", left.labels | right.labels


BracketExpr = Generator | Pair


class BracketCombination(Combination):
    """Formal linear combination of bracket expressions."""

    __slots__ = ()

    def _validate(self, acc: dict) -> None:
        for term in acc:
            if not isinstance(term, (Generator, Pair)):
                raise TreeError(f"bracket combination term must be a bracket expression, got {term!r}")


def bracket_mul(a: BracketCombination, b: BracketCombination) -> BracketCombination:
    """Bilinear extension of the binary product to combinations."""
    bs = b._terms.items()
    return BracketCombination(
        (Pair(ea, eb), ca * cb) for ea, ca in a._terms.items() for eb, cb in bs
    )


def corolla_decomposition(tree: WeightedTree) -> tuple[Generator, tuple[WeightedTree, ...]]:
    """Split a tree into its root generator and the multiset of branches
    (in canonical order); the induction scaffold for the rewriting map."""
    if not tree.is_labeled:
        raise TreeError("corolla decomposition needs a labeled tree")
    return Generator(tree.label, tree.weight), tree.children


def corolla_assemble(root: Generator, branches) -> WeightedTree:
    """Inverse of corolla_decomposition: hang the branches under the root."""
    return WeightedTree(root.label, root.weight, tuple(branches))


def relation_r(k: int, l: int, m: int, labels=("x", "y", "z")) -> BracketCombination:
    """The four-term deformed relation on three generators of weights
    k, l, m: coefficients +1, -L^m, -1, +L^l."""
    x, y, z = labels
    if len({x, y, z}) != 3:
        raise TreeError("relation needs three distinct labels")
    xk, yl, zm = Generator(x, k), Generator(y, l), Generator(z, m)
    return BracketCombination(
        (
            (Pair(Pair(xk, yl), zm), LambdaPoly.one()),
            (Pair(xk, Pair(yl, zm)), LambdaPoly.monomial(m, -1)),
            (Pair(Pair(xk, zm), yl), LambdaPoly.constant(-1)),
            (Pair(xk, Pair(zm, yl)), LambdaPoly.monomial(l)),
        )
    )


# psi on trees and phi on product nodes, for the life of the process;
# threads share them, and a race only stores an equal value twice.
_PSI_MEMO: dict = {}
_PHI_MEMO: dict = {}


def phi(x) -> TreeCombination:
    """Evaluate bracket expressions into tree combinations: a generator
    becomes its one-vertex tree, a product becomes the deformed graft of
    the right factor onto the left.  Linear in combinations."""
    return _evaluate(x, arrow_lambda, _PHI_MEMO)


def _evaluate(x, arrow, memo: dict) -> TreeCombination:
    """phi with the grafting product ``arrow``, keeping the value of every
    product node in ``memo``."""
    if isinstance(x, BracketCombination):
        return TreeCombination._sum(
            (coeff, _evaluate(expr, arrow, memo)) for expr, coeff in x._terms.items()
        )
    if isinstance(x, Generator):
        return TreeCombination.of(WeightedTree(x.label, x.weight))
    if isinstance(x, Pair):
        hit = memo.get(x)
        if hit is None:
            stack = [x]  # products to evaluate, each after its factors: depth is no limit
            while stack:
                todo = [f for f in (stack[-1].left, stack[-1].right) if isinstance(f, Pair) and f not in memo]
                stack += todo
                if not todo:
                    node = stack.pop()
                    memo[node] = arrow(_evaluate(node.left, arrow, memo), _evaluate(node.right, arrow, memo))
            hit = memo[x]
        return hit
    raise TypeError(f"expected a bracket expression or combination, got {type(x).__name__}")


def psi(x, branch_order: tuple[int, ...] | None = None) -> BracketCombination:
    """Rewrite a tree (or tree combination, linearly) into brackets.

    A single vertex is its generator.  Otherwise peel the first branch
    B1 off the root, leaving ``head``: the graft ``head <- B1`` is T plus
    lower terms, where B1 hangs deeper, so psi(T) is (psi(head) psi(B1))
    minus psi of the lower terms, with their coefficients.  Branches are
    taken in canonical order; ``branch_order`` permutes them at this call only.
    """
    if isinstance(x, TreeCombination):
        if branch_order is not None:
            raise TreeError("branch_order applies to a single tree")
        return BracketCombination._sum((coeff, psi(tree)) for tree, coeff in x._terms.items())
    if not isinstance(x, WeightedTree):
        raise TypeError(f"expected a tree or tree combination, got {type(x).__name__}")
    if not x.is_labeled:
        raise TreeError("bracket rewriting needs labeled trees")

    if branch_order is None:
        hit = _PSI_MEMO.get(x)
        if hit is not None:
            return hit

    root, branches = corolla_decomposition(x)
    if branch_order is not None:
        if sorted(branch_order) != list(range(len(branches))):
            raise TreeError(f"branch_order must permute 0..{len(branches) - 1}")
        branches = tuple(branches[i] for i in branch_order)

    if not branches:
        result = BracketCombination.of(root)
    else:
        first_branch = branches[0]
        head = corolla_assemble(root, branches[1:])
        # Recursion descends: head and first_branch lose vertices, the
        # lower terms keep the size but lose one root branch.
        lower = arrow_lambda(head, first_branch)._terms.items()
        product = bracket_mul(psi(head), psi(first_branch))
        result = BracketCombination._sum(
            ((-coeff, psi(t)) for t, coeff in lower if t != x), dict(product._terms)
        )

    if branch_order is None:
        _PSI_MEMO[x] = result
    return result


def psi_order_independence_check(
    tree: WeightedTree, order1: tuple[int, ...], order2: tuple[int, ...]
) -> bool:
    """True when the two root branch orders give the same evaluation back
    through phi (the observable shadow of equality in the quotient)."""
    return phi(psi(tree, order1)) == phi(psi(tree, order2))


class _BracketParser(_Scanner):
    def top(self) -> BracketExpr:
        # Each open product, the list of its factors read so far, is kept on
        # a stack, so nesting depth is not bounded by recursion.
        stack = []
        while True:
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                stack.append([])
                continue
            expr = self.generator()
            # Hand the expression just read to the open product; each ')'
            # that then closes one hands that product to the next.
            while stack:
                factors = stack[-1]
                factors.append(expr)
                self.skip_ws()
                if len(factors) == 1:
                    break
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
                stack.pop()
                expr = self.make(Pair, *factors)
            if not stack:
                return expr

    def generator(self) -> Generator:
        start = self.pos
        word = _WORD.match(self.text, start)[0]
        if not word:
            self.error("expected a generator or '('")
        label, _, w = word.rpartition("_")
        if not label or not w.isdigit():
            self.error(f"bad generator {word!r}, expected label_weight")
        self.pos = start + len(word)
        return self.make(Generator, label, int(w))


def parse_bracket(text: str) -> BracketExpr:
    """Parse ``((x_1 z_1) y_1)`` style bracket expressions."""
    return _BracketParser.parse(text)
