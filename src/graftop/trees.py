"""Weighted labeled rooted trees: construction, canonical form, structural
queries, parsing/printing, and exhaustive enumeration.

Trees are immutable.  Children are kept in a fixed canonical order (sorted
by subtree encoding), so branch order never matters for equality, hashing,
or printing.  A tree is either labeled (all vertex labels pairwise
distinct) or unlabeled (every vertex labeled ``_``), in which case equality
is equality up to isomorphism.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

from .errors import ParseError, TreeError

UNLABELED = "_"

_LABEL_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)
# The characters of _LABEL_CHARS as a regular-expression class: labels,
# vertex heads and bracket generators are all read with it.
_LABEL_CLASS = "[0-9A-Za-z_]"
_LABEL = re.compile(_LABEL_CLASS + "+")
# A vertex head, ``label:weight``, with the whitespace around it: the label
# from _LABEL_CLASS and the weight from ASCII digits.  Every part may be
# empty, so it always matches, and an empty part is where a malformed head
# fails.  ``\s`` and ``str.isspace`` agree on every character.
_HEAD = re.compile(rf"\s*({_LABEL_CLASS}*)\s*(:?)\s*([0-9]*)\s*")

_BY_ENCODING = attrgetter("encoding")
_new = object.__new__


def _check_weight(weight, owner: str = "vertex") -> None:
    if type(weight) is bool or not isinstance(weight, int) or weight < 1:
        raise TreeError(f"{owner} weight must be a positive integer, got {weight!r}")


def _is_label(label) -> bool:
    """A nonempty string of ASCII letters, digits and ``_`` (the characters
    of ``_LABEL_CHARS``)."""
    return isinstance(label, str) and _LABEL.fullmatch(label) is not None


def _check_label(label) -> None:
    if not _is_label(label):
        raise TreeError(f"invalid label {label!r}")


class WeightedTree:
    """A rooted tree whose vertices carry a label and a weight >= 1.

    ``encoding`` is the canonical textual form (``a:1[b:3[c:2,d:1]]``);
    two trees are equal exactly when their encodings coincide.  Instances
    are value objects: treat them as immutable and never assign to their
    attributes.

    ``encoding``, ``total_weight``, ``energy`` (potential energy) and
    ``size`` (vertex count) are computed at construction.  ``labels``, the
    set of vertex labels, is computed on first read and then kept.

    The constructor validates its input: weights, labels, and that a tree
    is either labeled with distinct labels or unlabeled throughout.
    ``WeightedTree._node`` is the trusted constructor for trees assembled
    from parts of trees that already exist: one body, which ``__init__``
    runs after its checks, computes the same fields, but checks nothing,
    so its caller must guarantee that the weight and label are valid and
    that the children's labels are disjoint from each other and from
    ``label`` (or that all are ``_``).  The operations in ``operad`` and
    ``relabel``/``reweight``/``strip_labels`` call it only after their
    argument checks have established that, ``enumerate_unlabeled_trees``
    only with ``_`` over trees it built itself, and the shrinker in
    ``verify`` only for its reductions (drop a leaf, lower a weight above
    1), which keep a valid tree valid.
    """

    __slots__ = (
        "label",
        "weight",
        "children",
        "encoding",
        "total_weight",
        "energy",
        "size",
        "_labels",
    )

    def __init__(self, label: str, weight: int, children: tuple = ()):
        _check_weight(weight)
        _check_label(label)
        WeightedTree._node(label, weight, children if type(children) is tuple else tuple(children), self)
        labs = {label}
        for c in self.children:
            labs |= c.labels
        self._labels = labs = frozenset(labs)
        if label == UNLABELED:
            if labs != {UNLABELED}:
                raise TreeError("unlabeled trees must use '_' on every vertex")
        else:
            if UNLABELED in labs:
                raise TreeError("cannot mix labeled and unlabeled vertices")
            if len(labs) != self.size:
                raise TreeError(f"duplicate labels in {self.encoding}")

    @staticmethod
    def _node(label: str, weight: int, kids: tuple, node=None) -> "WeightedTree":
        """Trusted constructor: allocates with ``object.__new__`` (or fills
        ``node``, which only ``__init__`` passes), validates nothing and
        builds no label set; see the class docstring for the precondition."""
        if node is None:
            node = _new(WeightedTree)
        node.label = label
        node.weight = weight
        node._labels = None
        if len(kids) == 1:
            c = kids[0]
            node.encoding = f"{label}:{weight}[{c.encoding}]"
            node.total_weight = weight + c.total_weight
            # Hanging a branch one level down adds its full weight.
            node.energy = c.energy + c.total_weight
            node.size = 1 + c.size
        elif len(kids) == 2:
            a, b = kids
            if b.encoding < a.encoding:  # strict, so equal siblings keep their order as in sorted
                a, b = kids = b, a
            node.encoding = f"{label}:{weight}[{a.encoding},{b.encoding}]"
            node.total_weight = weight + a.total_weight + b.total_weight
            node.energy = a.energy + b.energy + a.total_weight + b.total_weight
            node.size = 1 + a.size + b.size
        else:
            total, energy, size = weight, 0, 1
            if kids:
                kids = tuple(sorted(kids, key=_BY_ENCODING))
                for c in kids:
                    total += c.total_weight
                    energy += c.energy + c.total_weight
                    size += c.size
                node.encoding = f"{label}:{weight}[" + ",".join([c.encoding for c in kids]) + "]"
            else:
                node.encoding = f"{label}:{weight}"
            node.total_weight, node.energy, node.size = total, energy, size
        node.children = kids
        return node

    @property
    def labels(self) -> frozenset:
        """The set of vertex labels, computed bottom-up on first read; the
        walk is iterative and reuses the sets already cached below.
        Invariant: once a node's set is cached, so are all its descendants'
        (``__init__`` and this walk fill children first; ``_node`` leaves
        only the new node's set empty)."""
        if self._labels is None:
            order = [self]
            for node in order:  # breadth-first: every parent precedes its children
                order.extend([c for c in node.children if c._labels is None])
            for node in reversed(order):
                labs = {node.label}
                for c in node.children:
                    labs |= c._labels
                node._labels = frozenset(labs)
        return self._labels

    def __eq__(self, other):
        return isinstance(other, WeightedTree) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __repr__(self):
        return f"WeightedTree({self.encoding!r})"

    def __str__(self):
        return self.encoding

    @property
    def is_labeled(self) -> bool:
        return self.label != UNLABELED

    def node_at(self, path: Sequence[int]) -> "WeightedTree":
        node = self
        for i in path:
            try:
                node = node.children[i]
            except IndexError:
                raise TreeError(f"no vertex at path {tuple(path)!r} in {self.encoding}")
        return node

    def walk(self):
        """Yield ``(path, node)`` for every vertex, root first, preorder in
        canonical child order; iterative, so depth is not limited."""
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            kids = node.children
            for i in range(len(kids) - 1, -1, -1):
                stack.append((path + (i,), kids[i]))

    def vertices(self) -> tuple["VertexRef", ...]:
        """All vertices as refs, in ``walk`` order."""
        return tuple(VertexRef(self, path) for path, _ in self.walk())

    def ref(self, label: str) -> "VertexRef":
        """The vertex carrying ``label`` (labeled trees only), found by
        descent through the cached child label sets (the invariant at ``labels``)."""
        if label in self.labels:
            path = []
            node = self
            while node.label != label:
                for i, c in enumerate(node.children):
                    if label in c._labels:
                        path.append(i)
                        node = c
                        break
            return VertexRef(self, tuple(path))
        raise TreeError(f"no vertex labeled {label!r} in {self.encoding}")


class VertexRef:
    """Handle to one vertex inside one tree, as a root path of child indices.

    A ref is only meaningful against the tree it was issued from;
    operations reject refs whose ``tree`` does not match.

    An immutable value, equal and hashed by ``(tree, path)``: ``tree`` and
    ``path`` are read-only properties and there is no instance dict, so
    assigning to them or to a new attribute raises ``AttributeError``.
    Plain slots behind the properties keep construction cheap, since refs
    are built per vertex; nothing writes the slots after ``__init__``.
    """

    __slots__ = ("_tree", "_path")

    def __init__(self, tree: WeightedTree, path: tuple = ()):
        self._tree = tree
        self._path = path

    tree = property(attrgetter("_tree"))
    path = property(attrgetter("_path"))

    def __eq__(self, other):
        if other.__class__ is not VertexRef:
            return NotImplemented
        return (self._tree, self._path) == (other._tree, other._path)

    def __hash__(self):
        return hash((self._tree, self._path))

    def __repr__(self):
        return f"VertexRef(tree={self._tree!r}, path={self._path!r})"

    @property
    def node(self) -> WeightedTree:
        return self._tree.node_at(self._path)

    @property
    def label(self) -> str:
        return self.node.label

    @property
    def weight(self) -> int:
        return self.node.weight

    @property
    def height(self) -> int:
        return len(self._path)


@dataclass(frozen=True)
class Edge:
    """Tree edge oriented child -> parent; identified with its child branch."""

    child: VertexRef
    parent: VertexRef

    @property
    def branch(self) -> WeightedTree:
        return self.child.node


def _owned(tree: WeightedTree, v: VertexRef) -> None:
    if not isinstance(v, VertexRef) or (v.tree is not tree and v.tree != tree):
        raise TreeError("vertex ref does not belong to this tree")


def weight(tree: WeightedTree) -> int:
    """Total weight: the sum of all vertex weights."""
    return tree.total_weight


def height(tree: WeightedTree, v: VertexRef) -> int:
    """Edge count of the root-to-v path; the root has height 0."""
    _owned(tree, v)
    return len(v.path)


def potential_energy(tree: WeightedTree) -> int:
    """Sum over vertices of weight times height."""
    return tree.energy


def incoming_edges(tree: WeightedTree, v: VertexRef) -> tuple[Edge, ...]:
    """The edges arriving at v, one per direct child, in canonical order."""
    _owned(tree, v)
    return tuple(
        Edge(VertexRef(tree, v.path + (i,)), v) for i in range(len(v.node.children))
    )


def canonicalize(tree: WeightedTree) -> WeightedTree:
    """Return the canonical form of ``tree``.

    Construction already sorts children at every vertex, so every tree in
    the system is canonical and this is the identity; it is kept as the
    named contract point.
    """
    return tree


def _rebuild(tree: WeightedTree, label_of, weight_of) -> WeightedTree:
    """``tree`` with every vertex relabeled by ``label_of(node)`` and
    reweighted by ``weight_of(node)``, built bottom-up with the trusted
    constructor; iterative, so depth is not limited.  The caller has checked
    that the new labels and weights make a valid tree."""
    order = [tree]
    first = []  # first[i]: the index in ``order`` of node i's first child
    for node in order:  # breadth-first: a node's children are consecutive
        first.append(len(order))
        order.extend(node.children)
    new = [None] * len(order)
    node_ = WeightedTree._node
    for i in range(len(order) - 1, -1, -1):
        node, k = order[i], first[i]
        new[i] = node_(label_of(node), weight_of(node), tuple(new[k:k + len(node.children)]))
    return new[0]


def relabel(tree: WeightedTree, mapping: Mapping[str, str]) -> WeightedTree:
    """Rename vertices through a bijection on the label set; weights travel
    with their vertices."""
    if not tree.is_labeled:
        raise TreeError("cannot relabel an unlabeled tree")
    labels = tree.labels
    missing = labels.difference(mapping)
    if missing:
        raise TreeError(f"relabel map misses labels {sorted(missing)}")
    image = [mapping[lab] for lab in labels]
    if len(set(image)) != len(image):
        raise TreeError("relabel map is not injective on the label set")
    if UNLABELED in image:
        raise TreeError("relabel target '_' is reserved for unlabeled trees")
    for lab in image:
        _check_label(lab)
    return _rebuild(tree, lambda node: mapping[node.label], attrgetter("weight"))


def reweight(tree: WeightedTree, weights: Mapping[str, int]) -> WeightedTree:
    """Replace vertex weights, keyed by label (labeled trees only)."""
    if not tree.is_labeled:
        raise TreeError("cannot reweight an unlabeled tree by label")
    labels = tree.labels
    missing = labels.difference(weights)
    if missing:
        raise TreeError(f"weight map misses labels {sorted(missing)}")
    for lab in labels:
        _check_weight(weights[lab])
    return _rebuild(tree, attrgetter("label"), lambda node: weights[node.label])


def strip_labels(tree: WeightedTree) -> WeightedTree:
    """Forget labels: the unlabeled (isomorphism-class) form."""
    return _rebuild(tree, lambda node: UNLABELED, attrgetter("weight"))


def enumerate_labeled_trees(
    n: int,
    weights: Sequence[int],
    labels: Sequence[str] | None = None,
) -> list[WeightedTree]:
    """All labeled rooted trees on n vertices, vertex i carrying weights[i].

    Keeps the (root, parent map) pairs whose walk up from every vertex
    reaches the root within n steps; there are n**(n-1) of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = list(weights)
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    labels = list(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError("labels must be n distinct strings")

    weight_of = dict(zip(labels, weights))
    out = []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        for choice in itertools.product(range(n), repeat=n - 1):
            parent = [*choice[:root], root, *choice[root:]]  # the root its own parent
            for start in others:
                cur = start
                for _ in range(n):
                    cur = parent[cur]
                if cur != root:
                    break
            else:
                parents = {labels[root]: None}
                parents.update((labels[c], labels[p]) for c, p in enumerate(parent) if c != root)
                out.append(_tree_of_parents(parents, weight_of))
    return out


def _tree_of_parents(parents: Mapping, weights: Mapping) -> WeightedTree:
    """The tree in which vertex ``lab`` has parent ``parents[lab]`` (``None``
    at the root, the first such key) and weight ``weights[lab]``, built
    bottom-up with the validating constructor, each vertex's children in the
    order of ``parents``.  Iterative, so depth is not limited: the stack
    visits children last to first, so the reversed visit order is the
    post-order, the order in which a recursive build would meet errors."""
    root = next(lab for lab, par in parents.items() if par is None)
    kids: dict = {lab: [] for lab in parents}
    for lab, par in parents.items():
        if lab != root:
            kids[par].append(lab)
    order, stack = [], [root]
    while stack:
        lab = stack.pop()
        order.append(lab)
        stack += kids[lab]
    built = {}
    for lab in reversed(order):
        built[lab] = WeightedTree(lab, weights[lab], tuple([built[c] for c in kids[lab]]))
    return built[root]


def enumerate_unlabeled_trees(n: int, max_weight: int) -> list[WeightedTree]:
    """All unlabeled trees with exactly n vertices and weights in 1..max_weight,
    sorted by encoding.  Built size by size: a tree of size m is a root over a
    multiset of smaller trees whose sizes sum to m - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    trees, forests = [None], [{()}]  # by size k: every tree; every multiset of trees, encoding-sorted
    for m in range(1, n + 1):
        if m > 1:
            forests.append({tuple(sorted(f + (t,), key=_BY_ENCODING))
                            for k in range(1, m) for t in trees[k] for f in forests[m - 1 - k]})
        trees.append([WeightedTree._node(UNLABELED, w, f) for w in range(1, max_weight + 1) for f in forests[-1]])
    return sorted(trees[n], key=_BY_ENCODING)


class _Scanner:
    """A cursor over parser input; a subclass's ``top`` reads one item."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @classmethod
    def parse(cls, text: str):
        """``top`` read from ``text``, which may end only in whitespace."""
        p = cls(text)
        item = p.top()
        p.skip_ws()
        if p.pos != len(text):
            p.error("unexpected trailing input")
        return item

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def make(self, cls, *args):
        """``cls(*args)``, a ``TreeError`` raised as a ``ParseError`` at the cursor."""
        try:
            return cls(*args)
        except TreeError as exc:
            raise ParseError(str(exc), self.pos) from exc

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""


class _TreeParser(_Scanner):
    def head(self) -> tuple[str, int]:
        """The label and weight of the vertex at the cursor, with the
        whitespace around them consumed."""
        m = _HEAD.match(self.text, self.pos)
        label, colon, digits = m.groups()
        if not label:
            raise ParseError("expected a label", m.start(1))
        if not colon:
            raise ParseError("expected ':'", m.start(2))
        if not digits:
            raise ParseError("expected a weight", m.start(3))
        self.pos = m.end()
        return label, int(digits)

    def top(self) -> WeightedTree:
        # The open vertices above the cursor, (label, weight, children read
        # so far), are kept on a stack, so nesting depth is not bounded by
        # recursion.
        stack = []
        while True:
            label, w = self.head()
            if self.peek() == "[":
                self.pos += 1
                stack.append((label, w, []))
                continue
            kids = ()
            # Build the vertex just read, then each open vertex whose ']'
            # follows, until a ',' starts a sibling.
            while True:
                tree = self.make(WeightedTree, label, w, kids)
                if not stack:
                    return tree
                label, w, children = stack[-1]
                children.append(tree)
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                if self.peek() != "]":
                    self.error("expected ',' or ']'")
                self.pos += 1
                stack.pop()
                kids = tuple(children)


def parse_tree(text: str) -> WeightedTree:
    """Parse ``label:weight[child,...]`` notation (whitespace insignificant)."""
    return _TreeParser.parse(text)
