"""Tree structure, canonical form, enumeration, and grammar round trips."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graftop import (
    Generator,
    ParseError,
    TreeError,
    VertexRef,
    WeightedTree,
    arrow_lambda,
    canonicalize,
    circ_sum,
    compose_lambda,
    enumerate_labeled_trees,
    enumerate_unlabeled_trees,
    height,
    incoming_edges,
    parse_tree,
    potential_energy,
    relabel,
    reweight,
    strip_labels,
    weight,
)
from graftop.trees import _LABEL_CHARS, _is_label, _tree_of_parents
from graftop.verify import Universe, _decrement_at, _delete_at

CAYLEY = {1: 1, 2: 2, 3: 9, 4: 64, 5: 625, 6: 7776}


def ladder(n, weights=None, prefix="v"):
    weights = weights or [1] * n
    tree = WeightedTree(f"{prefix}{n}", weights[n - 1])
    for i in range(n - 1, 0, -1):
        tree = WeightedTree(f"{prefix}{i}", weights[i - 1], (tree,))
    return tree


@st.composite
def random_trees(draw, max_size=6, max_weight=3, labeled=True, prefix="n"):
    n = draw(st.integers(1, max_size))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    weights = [draw(st.integers(1, max_weight)) for _ in range(n)]
    kids = {i: [] for i in range(n)}
    for child, parent in enumerate(parents, start=1):
        kids[parent].append(child)

    def make(i):
        label = f"{prefix}{i}" if labeled else "_"
        return WeightedTree(label, weights[i], tuple(make(j) for j in kids[i]))

    return make(0)


# --- weight -----------------------------------------------------------------

def test_weight_single_vertex():
    assert weight(WeightedTree("a", 5)) == 5


def test_weight_direct_sum():
    t = parse_tree("a:2[b:1,c:3]")
    assert weight(t) == 6


@given(random_trees())
def test_weight_matches_traversal_oracle(t):
    total = 0
    stack = [t]
    while stack:
        node = stack.pop()
        total += node.weight
        stack.extend(node.children)
    assert weight(t) == total


# --- height -----------------------------------------------------------------

def test_height_root_and_child():
    t = parse_tree("a:1[b:2]")
    assert height(t, t.ref("a")) == 0
    assert height(t, t.ref("b")) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_height_ladder_matches_bfs_oracle(n):
    t = ladder(n)
    # BFS from the root over an explicit parent map
    dist = {t.label: 0}
    frontier = [t]
    while frontier:
        node = frontier.pop()
        for c in node.children:
            dist[c.label] = dist[node.label] + 1
            frontier.append(c)
    deepest = t.ref(f"v{n}")
    assert height(t, deepest) == n - 1 == dist[f"v{n}"]
    for v in t.vertices():
        assert height(t, v) == dist[v.label]


def test_height_foreign_ref_rejected():
    t1 = parse_tree("a:1[b:2]")
    t2 = parse_tree("c:1[d:2]")
    with pytest.raises(TreeError):
        height(t1, t2.ref("d"))


# --- potential energy ---------------------------------------------------------

def test_energy_single_vertex_is_zero():
    assert potential_energy(WeightedTree("a", 7)) == 0


def test_energy_two_vertex_chain():
    assert potential_energy(parse_tree("r:1[c:3]")) == 3


def branch_weight_oracle(t):
    # Each vertex at height h sits below h edges, so the energy equals the
    # sum over edges of the weight hanging below that edge.
    total = 0
    for v in t.vertices():
        for e in incoming_edges(t, v):
            total += e.branch.total_weight
    return total


def test_energy_equals_branch_weight_sum_exhaustive():
    for n in range(1, 5):
        shapes = enumerate_labeled_trees(n, [1] * n)
        for shape in shapes:
            for vec in itertools.product((1, 2, 3), repeat=n):
                t = reweight(shape, dict(zip(map(str, range(1, n + 1)), vec)))
                assert potential_energy(t) == branch_weight_oracle(t)


@given(random_trees(max_size=7))
def test_energy_equals_branch_weight_sum_random(t):
    assert potential_energy(t) == branch_weight_oracle(t)


# --- incoming edges -----------------------------------------------------------

def test_incoming_edges_leaf_and_root():
    t = parse_tree("a:1[b:1,c:1,d:1]")
    assert incoming_edges(t, t.ref("b")) == ()
    assert len(incoming_edges(t, t.ref("a"))) == 3


@given(random_trees())
def test_incoming_edge_handshake(t):
    assert sum(len(incoming_edges(t, v)) for v in t.vertices()) == t.size - 1


# --- canonical form -----------------------------------------------------------

@given(random_trees())
def test_canonicalize_idempotent(t):
    assert canonicalize(canonicalize(t)) == canonicalize(t) == t


def test_children_order_is_immaterial():
    b = parse_tree("b:1")
    c = parse_tree("c:2[d:1]")
    assert WeightedTree("a", 1, (b, c)) == WeightedTree("a", 1, (c, b))


def test_unlabeled_two_vertex_labelings_coincide():
    t1 = strip_labels(parse_tree("a:1[b:2]"))
    t2 = strip_labels(parse_tree("b:1[a:2]"))
    assert t1 == t2 == parse_tree("_:1[_:2]")


def test_unlabeled_isomorphic_shapes_coincide():
    left = parse_tree("_:1[_:1[_:2],_:1]")
    right = WeightedTree(
        "_", 1, (WeightedTree("_", 1), WeightedTree("_", 1, (WeightedTree("_", 2),)))
    )
    assert left == right


def test_mode_mixing_rejected():
    with pytest.raises(TreeError):
        WeightedTree("a", 1, (WeightedTree("_", 1),))
    with pytest.raises(TreeError):
        WeightedTree("_", 1, (WeightedTree("a", 1),))


@given(st.one_of(st.text(max_size=6), st.sampled_from(["_", "a_1", "Z9", "x y", "\u00e9", "\u0663"])))
def test_label_check_matches_the_label_alphabet(label):
    # reference: every character drawn from the label alphabet
    valid = bool(label) and set(label) <= _LABEL_CHARS
    assert _is_label(label) == valid
    if not valid:
        with pytest.raises(TreeError, match="invalid label"):
            WeightedTree(label, 1)


def test_non_string_labels_rejected():
    assert not _is_label(5) and not _is_label(None)
    with pytest.raises(TreeError, match="invalid label"):
        WeightedTree(5, 1)
    with pytest.raises(TreeError, match="invalid generator label"):
        Generator(5, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: relabel(parse_tree("_:1"), {}), "cannot relabel an unlabeled tree"),
        (lambda: reweight(parse_tree("_:1"), {}), "cannot reweight an unlabeled tree by label"),
    ],
)
def test_unlabeled_rejection_messages(call, message):
    with pytest.raises(TreeError) as caught:
        call()
    assert str(caught.value) == message


def test_duplicate_labels_rejected():
    with pytest.raises(TreeError):
        WeightedTree("a", 1, (WeightedTree("a", 2),))
    with pytest.raises(ParseError):
        parse_tree("a:1[a:2]")


def test_bad_weight_rejected():
    with pytest.raises(TreeError):
        WeightedTree("a", 0)


def test_bool_weights_rejected():
    # True is an int, but "a:True" is not a tree the parser reads back
    with pytest.raises(TreeError, match="vertex weight must be a positive integer"):
        WeightedTree("a", True)
    with pytest.raises(TreeError, match="vertex weight must be a positive integer"):
        reweight(parse_tree("a:1[b:1]"), {"a": 1, "b": True})
    with pytest.raises(TreeError, match="generator weight must be a positive integer"):
        Generator("x", True)


# --- enumeration ---------------------------------------------------------------

@pytest.mark.parametrize("n", sorted(CAYLEY))
def test_enumeration_matches_cayley_count(n):
    trees = enumerate_labeled_trees(n, [1] * n)
    assert len(trees) == CAYLEY[n]
    assert len(set(trees)) == CAYLEY[n]
    for t in trees:
        assert t.size == n
        assert t.labels == {str(i) for i in range(1, n + 1)}


def test_enumeration_carries_weights():
    trees = enumerate_labeled_trees(3, [5, 1, 2])
    assert len(trees) == 9
    for t in trees:
        assert t.ref("1").weight == 5
        assert t.ref("2").weight == 1
        assert t.ref("3").weight == 2


def test_enumeration_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_labeled_trees(0, [])


def test_unlabeled_enumeration_counts():
    # 1 shape of size 1, 1 of size 2, 2 of size 3; times weight choices
    assert len(enumerate_unlabeled_trees(1, 2)) == 2
    assert len(enumerate_unlabeled_trees(2, 2)) == 4
    assert len(enumerate_unlabeled_trees(3, 1)) == 2
    assert len(enumerate_unlabeled_trees(3, 2)) == 8 + 6


def _unlabeled_by_labeled_detour(n, max_weight):
    """Reference: every labeled shape on n vertices under every weight
    vector, its labels stripped, deduplicated and sorted by encoding."""
    order = [str(i + 1) for i in range(n)]
    seen = set()
    for shape in enumerate_labeled_trees(n, [1] * n):
        for vec in itertools.product(range(1, max_weight + 1), repeat=n):
            seen.add(strip_labels(reweight(shape, dict(zip(order, vec)))))
    return sorted(seen, key=lambda t: t.encoding)


@pytest.mark.parametrize(
    "n, max_weight", [(n, w) for n in range(1, 6) for w in range(1, 4)] + [(6, 1)]
)
def test_unlabeled_enumeration_matches_the_labeled_detour(n, max_weight):
    assert enumerate_unlabeled_trees(n, max_weight) == _unlabeled_by_labeled_detour(n, max_weight)


@pytest.mark.parametrize(
    "max_weight, counts",
    [
        (1, [1, 1, 2, 4, 9, 20, 48, 115]),  # OEIS A000081
        (2, [2, 4, 14, 52, 214, 916, 4116]),  # OEIS A038055
    ],
)
def test_unlabeled_enumeration_counts_match_oeis(max_weight, counts):
    for n, count in enumerate(counts, start=1):
        trees = enumerate_unlabeled_trees(n, max_weight)
        encodings = [t.encoding for t in trees]
        assert len(trees) == count
        assert encodings == sorted(set(encodings))  # sorted, no repeats
        assert all(t.size == n and t.labels == {"_"} for t in trees)


def test_unlabeled_enumeration_rejections():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        enumerate_unlabeled_trees(0, 1)
    with pytest.raises(TypeError):
        enumerate_unlabeled_trees(2.5, 1)


def test_labeled_enumeration_rejects_bad_weights_and_labels():
    with pytest.raises(ValueError, match="^expected 2 weights, got 1$"):
        enumerate_labeled_trees(2, [1])
    with pytest.raises(ValueError, match="^labels must be n distinct strings$"):
        enumerate_labeled_trees(2, [1, 1], ["a", "a"])


def labeled_trees_validated(n, weights, labels=None):
    """Reference: the labeled enumeration with every tree built by the
    validating constructor, each parent map found by the same walk."""
    labels = [str(i + 1) for i in range(n)] if labels is None else list(labels)
    weight_of = dict(zip(labels, weights))
    out = []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        for choice in itertools.product(range(n), repeat=n - 1):
            parent = [*choice[:root], root, *choice[root:]]
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


@pytest.mark.parametrize(
    "n, weights, labels",
    [(n, [1] * n, None) for n in range(1, 6)]
    + [
        (3, [5, 1, 2], None),
        (4, [2, 1, 3, 1], ["d", "c", "b", "a"]),
        (5, [1, 3, 1, 2, 2], ["x10", "x9", "y", "_1", "Z"]),
        (1, [4], ["_"]),
    ],
)
def test_labeled_enumeration_is_unchanged(n, weights, labels):
    trees = enumerate_labeled_trees(n, weights, labels)
    assert [t.encoding for t in trees] == [t.encoding for t in labeled_trees_validated(n, weights, labels)]
    for t in trees:
        assert_matches_validated(t)


@pytest.mark.parametrize(
    "n, weights, labels",
    [
        (3, [1, 0, 2], None),
        (3, [True, 1, 1], None),
        (3, [1, 2, 3], ["a", "b-", "c"]),
        (3, [0, 1, 1], ["a", "b", "c-"]),  # vertex 2's label is checked before vertex 0's weight
        (2, [1, 1], ["_", "a"]),
        (2, [1, 1], ["a", "_"]),
        (2, [1, 1], [1, 2]),
    ],
)
def test_labeled_enumeration_rejects_as_the_validated_build(n, weights, labels):
    with pytest.raises(TreeError) as want:
        labeled_trees_validated(n, weights, labels)
    with pytest.raises(TreeError) as got:
        enumerate_labeled_trees(n, weights, labels)
    assert str(got.value) == str(want.value)


# --- relabel / reweight ----------------------------------------------------------

def test_relabel_identity():
    t = parse_tree("a:1[b:3[c:2,d:1]]")
    assert relabel(t, {lab: lab for lab in t.labels}) == t


@given(random_trees(max_size=5))
def test_relabel_roundtrip(t):
    mapping = {lab: f"r_{lab}" for lab in t.labels}
    inverse = {v: k for k, v in mapping.items()}
    assert relabel(relabel(t, mapping), inverse) == t


@given(random_trees(max_size=5))
def test_relabel_preserves_weight_multiset(t):
    mapping = {lab: f"q{i}" for i, lab in enumerate(sorted(t.labels))}
    out = relabel(t, mapping)
    def weights(tree):
        return sorted(w.node.weight for w in tree.vertices())
    assert weights(out) == weights(t)


def test_relabel_covariant_with_canonical_form():
    t = parse_tree("a:1[b:1,c:1[d:2]]")
    mapping = {"a": "z", "b": "y", "c": "x", "d": "w"}
    assert canonicalize(relabel(t, mapping)) == relabel(canonicalize(t), mapping)


def test_relabel_rejects_non_bijection():
    t = parse_tree("a:1[b:2]")
    with pytest.raises(TreeError, match="not injective"):
        relabel(t, {"a": "x", "b": "x"})
    with pytest.raises(TreeError, match=r"relabel map misses labels \['b'\]"):
        relabel(t, {"a": "x"})


def test_rebuild_rejections_keep_their_messages():
    t = parse_tree("a:1[b:2]")
    with pytest.raises(TreeError, match="'_' is reserved"):
        relabel(t, {"a": "x", "b": "_"})
    with pytest.raises(TreeError, match="invalid label 'x y'"):
        relabel(t, {"a": "x y", "b": "z"})
    with pytest.raises(TreeError, match=r"weight map misses labels \['a'\]"):
        reweight(t, {"b": 1})
    with pytest.raises(TreeError, match="vertex weight must be a positive integer, got 0"):
        reweight(t, {"a": 1, "b": 0})


def test_rebuilds_on_deep_chain_do_not_recurse():
    # built bottom-up, deeper than the default recursion limit
    n = 1200
    chain = ladder(n)
    renamed = relabel(chain, {f"v{i}": f"w{i}" for i in range(1, n + 1)})
    assert renamed == ladder(n, prefix="w")
    heavy = reweight(chain, {f"v{i}": 2 for i in range(1, n + 1)})
    assert heavy == ladder(n, [2] * n)
    bare = WeightedTree("_", 1)
    for _ in range(n - 1):
        bare = WeightedTree("_", 1, (bare,))
    assert strip_labels(chain) == bare
    assert (renamed.size, heavy.total_weight, heavy.energy) == (n, 2 * n, n * (n - 1))


def test_structural_queries_invariant_under_canonicalize():
    t = parse_tree("a:1[b:3[c:2,d:1],e:1]")
    c = canonicalize(t)
    assert (weight(t), potential_energy(t), t.size) == (weight(c), potential_energy(c), c.size)


# --- grammar -------------------------------------------------------------------

def test_parse_print_examples():
    text = "a:1[b:3[c:2,d:1]]"
    assert parse_tree(text).encoding == text
    assert parse_tree("  a : 1 [ b:3[ c:2 , d:1 ] ] ").encoding == text


@given(random_trees(max_size=6))
def test_parse_print_roundtrip(t):
    assert parse_tree(t.encoding) == t


@given(random_trees(max_size=4, labeled=False))
def test_parse_print_roundtrip_unlabeled(t):
    assert parse_tree(t.encoding) == t


@pytest.mark.parametrize(
    "bad, pos",
    [
        ("", 0),
        ("a", 1),
        ("a:", 2),
        ("a:0", 3),
        ("a:1[", 4),
        ("a:1[b:2", 7),
        ("a:1]", 3),
        ("a:1[b:2,]", 8),
        # non-ASCII digits are not weights
        ("a:\u00b2", 2),
        ("a:1[b:\u0663]", 6),
        # a missing head part fails where it should start, after any whitespace
        (" a :", 4),
        ("a : ", 4),
        ("  ", 2),
        ("a:1[ b : x]", 9),
        (" a b:1", 3),
        ("a:1[b:1, ]", 9),
    ],
)
def test_parse_errors_carry_positions(bad, pos):
    with pytest.raises(ParseError) as err:
        parse_tree(bad)
    assert err.value.position == pos


@pytest.mark.parametrize(
    "bad, message",
    [
        ("a:1[b:1,b:1]", "duplicate labels in a:1[b:1,b:1] (at position 12)"),
        ("a:1[b:1[c:1]x]", "expected ',' or ']' (at position 12)"),
        ("a:1[b:1[c:1,_:1]]", "cannot mix labeled and unlabeled vertices (at position 16)"),
        ("a:1[ b:2 [c:1 , d:1 ] , e:x]", "expected a weight (at position 26)"),
        ("a:1[b:1[c:1,d:1]", "expected ',' or ']' (at position 16)"),
        ("a:1[b:1[c:1,a:2]]  ", "duplicate labels in a:1[b:1[a:2,c:1]] (at position 17)"),
    ],
)
def test_parse_errors_in_nested_input_keep_message_and_position(bad, message):
    with pytest.raises(ParseError) as err:
        parse_tree(bad)
    assert str(err.value) == message


def test_parse_skips_any_unicode_whitespace():
    # the same characters str.isspace accepts, between every token
    assert parse_tree("\u2003a\x1c:\u00a01 [ b\n:\t2\u3000]\u2029").encoding == "a:1[b:2]"


def test_parse_deep_chain_does_not_recurse():
    # deeper than the default recursion limit
    n = 1500
    text = "".join(f"v{i}:1[" for i in range(n - 1)) + f"v{n - 1}:1" + "]" * (n - 1)
    chain = WeightedTree(f"v{n - 1}", 1)
    for i in range(n - 2, -1, -1):
        chain = WeightedTree(f"v{i}", 1, (chain,))
    assert parse_tree(text) == chain
    with pytest.raises(ParseError) as err:
        parse_tree(text[:-1])
    assert err.value.position == len(text) - 1


def test_vertex_ref_accessors():
    t = parse_tree("a:1[b:3[c:2]]")
    c = t.ref("c")
    assert isinstance(c, VertexRef)
    assert c.weight == 2 and c.label == "c" and c.height == 2
    assert c.node == parse_tree("c:2")


def test_vertex_ref_is_an_immutable_value():
    t = parse_tree("a:1[b:3[c:2]]")
    c = t.ref("c")
    # equal and hashed by (tree, path); the tree compares by encoding
    twin = VertexRef(parse_tree("a:1[b:3[c:2]]"), (0, 0))
    assert c == twin and hash(c) == hash(twin) == hash((t, (0, 0)))
    assert c != VertexRef(t, (0,)) and c != (t, (0, 0))
    assert len({c, twin, t.ref("b")}) == 2
    assert repr(c) == "VertexRef(tree=WeightedTree('a:1[b:3[c:2]]'), path=(0, 0))"
    for name in ("tree", "path", "label", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    assert c.tree is t and c.path == (0, 0)


def oracle_fields(tree):
    """Encoding, total weight, energy and size by a plain recursion over the
    children, which sorts their encodings itself."""
    kids = [oracle_fields(c) for c in tree.children]
    encoding = f"{tree.label}:{tree.weight}"
    if kids:
        encoding += "[" + ",".join(sorted(k[0] for k in kids)) + "]"
    total = tree.weight + sum(k[1] for k in kids)
    energy = sum(k[2] + k[1] for k in kids)
    return encoding, total, energy, 1 + sum(k[3] for k in kids)


def assert_two_child_node(label, weight, a, b):
    node = WeightedTree._node(label, weight, (a, b))
    reference = parse_tree(node.encoding)
    for field in ("label", "weight", "encoding", "total_weight", "energy", "size", "labels"):
        assert getattr(node, field) == getattr(reference, field), field
    assert node.children == reference.children
    assert (node.encoding, node.total_weight, node.energy, node.size) == oracle_fields(node)
    # the children are the objects passed in, in sorted's (stable) order
    expected = tuple(sorted((a, b), key=lambda c: c.encoding))
    assert all(x is y for x, y in zip(node.children, expected))
    return node


def test_two_child_node_matches_the_parser_in_either_order():
    a, b = parse_tree("b:2[c:1]"), parse_tree("d:1[e:3,f:1]")
    for x, y in ((a, b), (b, a)):
        node = assert_two_child_node("r", 4, x, y)
        assert node.encoding == "r:4[b:2[c:1],d:1[e:3,f:1]]"
        assert node.children[0] is a and node.children[1] is b
    for x, y in itertools.permutations(enumerate_unlabeled_trees(3, 2), 2):
        assert_two_child_node("_", 1, x, y)


def test_two_child_node_keeps_equal_unlabeled_siblings_in_order():
    # equal encodings, distinct objects: the first one passed stays first
    x, y = parse_tree("_:1[_:2]"), parse_tree("_:1[_:2]")
    node = assert_two_child_node("_", 3, x, y)
    assert node.children[0] is x and node.children[1] is y
    node = assert_two_child_node("_", 3, y, x)
    assert node.children[0] is y and node.children[1] is x


def recursive_preorder(tree, path=()):
    # independent reference: the plain recursive walk
    out = [(path, tree)]
    for i, child in enumerate(tree.children):
        out += recursive_preorder(child, path + (i,))
    return out


@given(st.booleans().flatmap(lambda labeled: random_trees(max_size=8, labeled=labeled)))
def test_vertices_match_recursive_preorder(t):
    expected = recursive_preorder(t)
    assert [(path, node) for path, node in t.walk()] == expected
    assert [v.path for v in t.vertices()] == [path for path, _ in expected]
    assert all(v.tree is t for v in t.vertices())
    if t.is_labeled:
        assert all(t.ref(node.label).path == path for path, node in expected)
    else:
        assert t.ref("_").path == ()


def walk_ref_path(tree, label):
    """The path of ``label`` by a full walk: the reference for ``ref``."""
    return next(path for path, node in tree.walk() if node.label == label)


def assert_ref_matches_walk(tree):
    for _, node in tree.walk():
        assert tree.ref(node.label).path == walk_ref_path(tree, node.label)
        assert tree.ref(node.label).node is node
    with pytest.raises(TreeError) as missing:
        tree.ref("zz")
    assert str(missing.value) == f"no vertex labeled 'zz' in {tree.encoding}"


@given(random_trees(max_size=7), st.integers(0, 6))
def test_ref_matches_a_walk_on_every_kind_of_tree(t, pick):
    # built by __init__, every label set cached bottom-up
    assert_ref_matches_walk(t)
    # built by _node: compose terms, no label set cached until ref reads one
    S = WeightedTree("r", 1, (WeightedTree("v", t.total_weight, (WeightedTree("b", 2),)),))
    for term in compose_lambda(S, S.ref("v"), t).support():
        assert_ref_matches_walk(term)
    # built by _node, with one subtree's label set read before the root's
    renamed = relabel(t, {lab: f"q{lab}" for lab in t.labels})
    subtrees = [node for _, node in renamed.walk()]
    subtrees[pick % len(subtrees)].labels
    assert_ref_matches_walk(renamed)


def test_ref_on_deep_chain_does_not_recurse():
    # twice the default recursion limit, built bottom-up; a 5,000-vertex
    # chain would work too but costs about 0.7 GB, since every vertex keeps
    # the set of labels below it
    n = 2000
    chain = WeightedTree(f"v{n - 1}", 1)
    for i in range(n - 2, -1, -1):
        chain = WeightedTree(f"v{i}", 1, (chain,))
    deepest = chain.ref(f"v{n - 1}")
    assert deepest.path == (0,) * (n - 1) and deepest.label == f"v{n - 1}"
    assert chain.ref("v0").path == ()
    assert len(chain.vertices()) == n
    with pytest.raises(TreeError):
        chain.ref("w")


# --- trusted constructor against the validating one -------------------------------

def assert_matches_validated(tree):
    """``tree`` agrees at every vertex with the same text rebuilt by the
    validating constructor, and its lazy label set matches a walk."""
    ref = parse_tree(tree.encoding)
    assert ref == tree
    for (_, node), (_, want) in zip(tree.walk(), ref.walk()):
        assert (node.label, node.weight, node.total_weight, node.energy, node.size) == (
            want.label, want.weight, want.total_weight, want.energy, want.size
        )
        assert [c.encoding for c in node.children] == [c.encoding for c in want.children]
    labels = tree.labels
    assert labels == {node.label for _, node in tree.walk()}
    assert tree.labels is labels


def test_compose_terms_match_validated_trees():
    uni = Universe(3, 3)
    ts = {}
    for t in uni.trees("t"):
        ts.setdefault(t.total_weight, []).append(t)
    terms = 0
    for S in uni.trees("s"):
        for v in S.vertices():
            for T in ts.get(v.weight, ()):
                for tree in compose_lambda(S, v, T).support():
                    assert_matches_validated(tree)
                    terms += 1
    assert terms > 1000


@given(
    st.booleans().flatmap(
        lambda labeled: st.tuples(
            random_trees(max_size=5, labeled=labeled),
            random_trees(max_size=3, labeled=labeled, prefix="m"),
        )
    )
)
def test_arrow_and_circ_sum_terms_match_validated_trees(pair):
    x, y = pair
    for tree in arrow_lambda(x, y).support():
        assert_matches_validated(tree)
    if x.is_labeled:
        for tree in circ_sum(x, y).support():
            assert_matches_validated(tree)


@given(random_trees(max_size=7))
def test_rebuilt_trees_match_validated_trees(t):
    order = sorted(t.labels)
    assert_matches_validated(relabel(t, {lab: f"q{len(order) - i}" for i, lab in enumerate(order)}))
    assert_matches_validated(reweight(t, {lab: 1 + i % 3 for i, lab in enumerate(order)}))
    assert_matches_validated(strip_labels(t))
    # the shrinker's reductions: drop a leaf, lower a weight above 1
    for path, node in t.walk():
        if path and not node.children:
            assert_matches_validated(_delete_at(t, path))
        if node.weight > 1:
            assert_matches_validated(_decrement_at(t, path))
