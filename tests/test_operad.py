"""Graded composition, grafting products, units, and morphism truncations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftop import (
    LAMBDA,
    GraftMap,
    LambdaPoly,
    TreeCombination,
    TreeError,
    UnitFamily,
    WeightedTree,
    arrow_lambda,
    butcher_product,
    circ_sum,
    compose_at_label,
    compose_lambda,
    compose_positional,
    compose_unit_left,
    compose_unit_right,
    compose_with_map,
    gamma,
    graft_at,
    incoming_edges,
    iter_graft_maps,
    morphism_i_check,
    morphism_j_check,
    nap_compose,
    parse_tree,
    pre_lie_compose,
    relabel,
    specialize,
    unit,
)
from graftop.operad import _compositions, _fresh_label
from graftop.trees import _tree_of_parents
from graftop.verify import (
    Universe,
    _oracle_substitutions,
    _parent_map,
    oracle_compose_root,
    oracle_compose_terms,
)

S_EX = parse_tree("a:1[b:3[c:2,d:1]]")
T_EX = parse_tree("e:2[h:1]")


def mono(exp):
    return LambdaPoly.monomial(exp)


# --- compose_with_map ------------------------------------------------------------

def test_compose_replacing_the_unique_vertex():
    S = parse_tree("a:3")
    out = compose_with_map(S, S.ref("a"), T_EX, GraftMap(()))
    assert out == T_EX


def test_compose_leaf_replacement():
    S = parse_tree("a:1[b:3]")
    out = compose_with_map(S, S.ref("b"), T_EX, GraftMap(()))
    assert out == parse_tree("a:1[e:2[h:1]]")


def test_compose_with_map_shares_unchanged_subtrees():
    S = parse_tree("r:1[v:4[c:2,d:1],z:2[y:1]]")
    T = parse_tree("e:1[h:1,k:1[m:1]]")
    v = S.ref("v")
    out = compose_with_map(S, v, T, GraftMap.from_labels(S, v, T, {"c": "h", "d": "e"}))
    assert out == parse_tree("r:1[e:1[d:1,h:1[c:2],k:1[m:1]],z:2[y:1]]")
    for label in ("c", "d", "z"):
        assert out.ref(label).node is S.ref(label).node
    assert out.ref("k").node is T.ref("k").node


def test_compose_with_map_reference_instance():
    f = GraftMap.from_labels(S_EX, S_EX.ref("b"), T_EX, {"c": "h", "d": "h"})
    out = compose_with_map(S_EX, S_EX.ref("b"), T_EX, f)
    assert out == parse_tree("a:1[e:2[h:1[c:2,d:1]]]")
    assert out.size == S_EX.size + T_EX.size - 1


def test_compose_label_clash_rejected():
    S = parse_tree("a:1[b:3]")
    T = parse_tree("a:2[h:1]")
    with pytest.raises(TreeError):
        compose_with_map(S, S.ref("b"), T, GraftMap(()))


def test_graft_map_domain_validated():
    with pytest.raises(TreeError):
        GraftMap.from_labels(S_EX, S_EX.ref("b"), T_EX, {"c": "h"})
    with pytest.raises(TreeError):
        compose_with_map(S_EX, S_EX.ref("b"), T_EX, GraftMap(()))


# --- compose_lambda ---------------------------------------------------------------

def test_reference_composition_coefficients():
    combo = compose_lambda(S_EX, S_EX.ref("b"), T_EX)
    expected = TreeCombination(
        (
            (parse_tree("a:1[e:2[c:2,d:1,h:1]]"), mono(0)),
            (parse_tree("a:1[e:2[c:2,h:1[d:1]]]"), mono(1)),
            (parse_tree("a:1[e:2[d:1,h:1[c:2]]]"), mono(2)),
            (parse_tree("a:1[e:2[h:1[c:2,d:1]]]"), mono(3)),
        )
    )
    assert combo == expected
    # the root map is the exponent-0 term
    f0 = GraftMap.root_map(S_EX, S_EX.ref("b"), T_EX)
    assert combo.coefficient(compose_with_map(S_EX, S_EX.ref("b"), T_EX, f0)) == mono(0)


def test_weight_mismatch_is_zero_not_error():
    S = parse_tree("a:1[b:2]")
    assert compose_lambda(S, S.ref("b"), T_EX) == TreeCombination.zero()


def test_term_count_is_maps_count():
    combo = compose_lambda(S_EX, S_EX.ref("b"), T_EX)
    maps = list(iter_graft_maps(S_EX, S_EX.ref("b"), T_EX))
    assert len(maps) == T_EX.size ** len(incoming_edges(S_EX, S_EX.ref("b")))
    assert len(combo) == len(maps)  # labeled terms never collide


def exponent_formula(S, v, T, f):
    # sum over moved edges of (height of the target in T) x (branch weight)
    total = 0
    for edge, target in zip(incoming_edges(S, v), f.targets):
        total += len(target.path) * edge.branch.total_weight
    return total


def test_exponents_match_height_times_branch_weight_formula():
    uni = Universe(3, 3)
    ts = {}
    for t in uni.trees("t"):
        ts.setdefault(t.total_weight, []).append(t)
    seen = 0
    for S in uni.trees("s"):
        for v in S.vertices():
            for T in ts.get(v.weight, ()):
                combo = compose_lambda(S, v, T)
                for f in iter_graft_maps(S, v, T):
                    tree = compose_with_map(S, v, T, f)
                    exp = exponent_formula(S, v, T, f)
                    assert exp >= 0
                    assert combo.coefficient(tree) == mono(exp)
                    seen += 1
    assert seen > 1000


def test_exponent_formula_on_four_vertex_hosts():
    S = parse_tree("r:1[x:2[y:1],z:3]")
    T = parse_tree("e:1[f:1,g:1]")
    v = S.ref("z")
    combo = compose_lambda(S, v, T)
    for f in iter_graft_maps(S, v, T):
        tree = compose_with_map(S, v, T, f)
        assert combo.coefficient(tree) == mono(exponent_formula(S, v, T, f))


def _oracle_compose_cases():
    uni = Universe(3, 3)
    ts = {}
    for t in uni.trees("t"):
        ts.setdefault(t.total_weight, []).append(t)
    for S in uni.trees("s"):
        for v in S.vertices():
            for T in ts.get(v.weight, ()):
                yield S, v, T
    # five branches into a five-vertex tree, three into a seven-vertex one
    S = parse_tree("r:1[v:6[b1:1,b2:2,b3:1[b6:1],b4:3,b5:1],z:2]")
    yield S, S.ref("v"), parse_tree("t1:1[t2:1[t3:2],t4:1[t5:1]]")
    S = parse_tree("r:2[q:1[v:10[b1:2,b2:1[b4:3],b3:1]],z:1]")
    yield S, S.ref("v"), parse_tree("t1:1[t2:2[t3:1[t4:1]],t5:1[t6:3,t7:1]]")
    # three branches into a tree whose root has three children
    S = parse_tree("r:1[v:7[b1:1,b2:2[b4:1],b3:1]]")
    yield S, S.ref("v"), parse_tree("t1:2[t2:1,t3:1[t5:1],t4:2]")
    # four branches into a one-vertex tree
    S = parse_tree("r:1[v:3[b1:1,b2:1,b3:2,b4:1]]")
    yield S, S.ref("v"), parse_tree("t1:3")
    # a slot at depth 3
    S = parse_tree("r:1[a:1[c:2[v:3[b1:1,b2:1[b3:1]]]],z:1]")
    yield S, S.ref("v"), parse_tree("t1:1[t2:2]")


def test_compose_matches_parent_map_oracle_and_constructor_energies():
    # Terms come from the parent-map oracle, and exponents from the energies
    # the validating constructor gives the oracle's trees, above the oracle's
    # root-map term.  compose_lambda applies the same energy rule, so
    # criterion 2's height-weighted branch sum is the independent check.
    cases = 0
    for S, v, T in _oracle_compose_cases():
        combo = compose_lambda(S, v, T)
        terms = list(oracle_compose_terms(S, v.label, T))
        assert combo.support() == set(terms)
        d0 = oracle_compose_root(S, v.label, T).energy
        for term in terms:
            assert combo.coefficient(term) == mono(term.energy - d0)
        cases += 1
    assert cases > 1000


def test_compose_lambda_matches_per_map_path_in_every_slot_class():
    # Every slot of two universes, against the per-map reference path with
    # exponents from constructor energies and against the parent-map oracle,
    # counted by slot class: a single map, or one or more branches moved
    # into a T of two or more vertices.
    classes = {"one map": 0, "one branch": 0, "two or more branches": 0}
    for uni in (Universe(3, 3), Universe(4, 2)):
        ts = {}
        for t in uni.trees("t"):
            ts.setdefault(t.total_weight, []).append(t)
        for S in uni.trees("s"):
            for v in S.vertices():
                for T in ts.get(v.weight, ()):
                    combo = compose_lambda(S, v, T)
                    d0 = compose_with_map(S, v, T, GraftMap.root_map(S, v, T)).energy
                    reference = {}
                    for f in iter_graft_maps(S, v, T):
                        tree = compose_with_map(S, v, T, f)
                        reference[tree] = mono(tree.energy - d0)
                    assert combo == TreeCombination(reference)
                    assert combo.support() == set(oracle_compose_terms(S, v.label, T))
                    k = len(v.node.children)
                    if k == 0 or T.size == 1:
                        classes["one map"] += 1
                    else:
                        classes["one branch" if k == 1 else "two or more branches"] += 1
    assert min(classes.values()) >= 500, classes


@pytest.mark.parametrize(
    "host, inserted",
    [
        # five branches into five-vertex trees with a three-child vertex
        ("r:1[v:7[b1:1,b2:2[c1:1],b3:1,b4:3,b5:1],z:2]", "t1:2[t2:1,t3:1[t5:1],t4:2]"),
        ("r:1[v:7[b1:1,b2:2[c1:1],b3:1,b4:3,b5:1]]", "t1:2[t2:1[t3:1,t4:2,t5:1]]"),
        # four branches into a seven-vertex tree
        ("r:2[q:1[v:10[b1:2,b2:1[b5:3],b3:1,b4:1]],z:1]", "t1:1[t2:2[t3:1[t4:1]],t5:1[t6:3,t7:1]]"),
    ],
    ids=["5-into-5-root-fan", "5-into-5-inner-fan", "4-into-7"],
)
def test_compose_lambda_matches_per_map_path_on_wide_shapes(host, inserted):
    # the shapes of the largest benchmark requests, term by term against the
    # per-map reference path with exponents from constructor energies
    S, T = parse_tree(host), parse_tree(inserted)
    v = S.ref("v")
    combo = compose_lambda(S, v, T)
    d0 = compose_with_map(S, v, T, GraftMap.root_map(S, v, T)).energy
    reference = {}
    for f in iter_graft_maps(S, v, T):
        tree = compose_with_map(S, v, T, f)
        reference[tree] = mono(tree.energy - d0)
    assert len(reference) == T.size ** len(v.node.children)
    assert combo == TreeCombination(reference)


def test_compose_lambda_shares_rebuilt_subtrees():
    S = parse_tree("r:1[v:6[b1:1,b2:2[b4:1],b3:1]]")
    T = parse_tree("t1:1[t2:1[t3:1],t4:1[t5:1,t6:1]]")
    v = S.ref("v")
    branch_labels = {b.label for b in v.node.children}
    combo = compose_lambda(S, v, T)
    assert len(combo) == T.size ** len(branch_labels)
    rebuilt = {}
    for term, _ in combo.terms():
        for _, node in term.node_at(v.path).walk():
            if node.label not in T.labels:
                continue
            if not node.labels & branch_labels:
                # receives no branch: T's own subtree
                assert node is T.ref(node.label).node
            elif node.label != "t1":
                rebuilt.setdefault(node.encoding, set()).add(id(node))
    assert len(rebuilt) > 10
    assert all(len(ids) == 1 for ids in rebuilt.values())


def test_compose_at_deepest_vertex_of_deep_chain_does_not_recurse():
    # built bottom-up, deeper than the default recursion limit; the slot
    # v1199 weighs 2 and has the single child v1200
    n = 1200

    def chain(bottom):
        tree = bottom
        for i in range(n - 2, 0, -1):
            tree = WeightedTree(f"v{i}", 1, (tree,))
        return tree

    S = chain(WeightedTree(f"v{n - 1}", 2, (WeightedTree(f"v{n}", 1),)))
    v = S.ref(f"v{n - 1}")
    T = parse_tree("x:1[y:1]")
    leaf = WeightedTree(f"v{n}", 1)
    at_root = chain(WeightedTree("x", 1, (leaf, WeightedTree("y", 1))))
    below = chain(WeightedTree("x", 1, (WeightedTree("y", 1, (leaf,)),)))
    combo = compose_lambda(S, v, T)
    assert combo == TreeCombination(((at_root, 1), (below, LAMBDA)))
    assert nap_compose(S, v, T) == at_root


def test_graft_at_deepest_vertex_of_deep_chain_does_not_recurse():
    # built bottom-up, deeper than the default recursion limit
    n = 1200

    def chain(bottom):
        tree = bottom
        for i in range(n - 1, 0, -1):
            tree = WeightedTree(f"v{i}", 1, (tree,))
        return tree

    T = chain(WeightedTree(f"v{n}", 1))
    S = parse_tree("x:2[y:1]")
    grafted = graft_at(T, T.ref(f"v{n}"), S)
    assert grafted == chain(WeightedTree(f"v{n}", 1, (S,)))
    assert (grafted.size, grafted.total_weight) == (n + 2, n + 3)


def test_compose_with_map_at_bottom_of_deep_inserted_tree_does_not_recurse():
    # T is a chain deeper than the default recursion limit; the map sends b
    # to T's bottom vertex and c to T's root
    n = 1500
    T = WeightedTree(f"t{n}", 1)
    for i in range(n - 1, 0, -1):
        T = WeightedTree(f"t{i}", 1, (T,))
    S = parse_tree(f"r:1[v:{n}[b:1,c:2]]")
    v = S.ref("v")
    out = compose_with_map(S, v, T, GraftMap.from_labels(S, v, T, {"b": f"t{n}", "c": "t1"}))
    expected = WeightedTree(f"t{n}", 1, (WeightedTree("b", 1),))
    for i in range(n - 1, 0, -1):
        expected = WeightedTree(f"t{i}", 1, (expected, WeightedTree("c", 2)) if i == 1 else (expected,))
    assert out == WeightedTree("r", 1, (expected,))
    # b sinks n - 1 levels below the root map's place
    assert out.energy - nap_compose(S, v, T).energy == n - 1


def test_minimality_of_root_map():
    combo = compose_lambda(S_EX, S_EX.ref("b"), T_EX)
    zero_exponent_terms = [
        t for t, c in combo.terms() if c.coefficient(0) and c.degree == 0
    ]
    assert len(zero_exponent_terms) == 1


# --- units -----------------------------------------------------------------------

def test_unit_family_indexing():
    fam = UnitFamily("u")
    assert fam[3] == parse_tree("u:3")
    assert unit(2) == parse_tree("_:2")


def test_left_unit_examples():
    assert compose_unit_left(3, T_EX) == TreeCombination.of(T_EX)
    assert compose_unit_left(2, T_EX) == TreeCombination.zero()


def test_unit_wrappers_on_unlabeled_trees():
    T = parse_tree("_:1[_:2]")
    assert compose_unit_left(3, T) == TreeCombination.of(T)
    assert compose_unit_left(2, T) == TreeCombination.zero()
    for v in T.vertices():
        assert compose_unit_right(T, v) == TreeCombination.of(T)


def test_right_unit_exhaustive_small():
    for n in range(1, 5):
        from graftop import enumerate_labeled_trees

        for shape in enumerate_labeled_trees(n, [1 + (i % 2) for i in range(n)]):
            for v in shape.vertices():
                assert compose_unit_right(shape, v) == TreeCombination.of(shape)
            assert compose_unit_left(shape.total_weight, shape) == TreeCombination.of(shape)


# --- gamma -----------------------------------------------------------------------

def test_gamma_on_a_single_slot_is_identity():
    a = parse_tree("p:3")
    assert gamma(a, {"p": T_EX}) == TreeCombination.of(T_EX)
    assert gamma(parse_tree("p:2"), {"p": T_EX}) == TreeCombination.zero()


def test_gamma_ladder_reproduces_arrow():
    T = parse_tree("t1:1[t2:2]")
    S = parse_tree("s1:1[s2:1]")
    ladder = parse_tree(f"p:{T.total_weight}[q:{S.total_weight}]")
    assert gamma(ladder, {"p": T, "q": S}) == arrow_lambda(T, S)


def test_gamma_slot_coverage_validated():
    with pytest.raises(TreeError):
        gamma(parse_tree("p:1[q:1]"), {"p": parse_tree("x:1")})


def test_gamma_evaluation_orders_agree():
    rng = random.Random(7)
    hosts = [parse_tree("p:2[q:1,r:3]"), parse_tree("p:1[q:2[r:2]]")]
    pool = {
        1: [parse_tree("x:1"), parse_tree("x1:1")],
        2: [parse_tree("x:2"), parse_tree("x1:1[x2:1]")],
        3: [parse_tree("x:3"), parse_tree("x1:1[x2:1,x3:1]"), parse_tree("x1:2[x2:1]")],
    }
    for host in hosts:
        for _ in range(6):
            parts = {}
            taken = set(host.labels)
            ok = True
            for v in host.vertices():
                options = [t for t in pool[v.weight]]
                pick = rng.choice(options)
                mapping = {lab: f"{v.label}{lab}" for lab in pick.labels}
                if any(m in taken for m in mapping.values()):
                    ok = False
                    break
                pick = relabel(pick, mapping)
                taken |= pick.labels
                parts[v.label] = pick
            if not ok:
                continue
            # iterated composition in the reference slot order
            expected = gamma(host, parts)
            # independent order: ascending labels
            acc = TreeCombination.of(host)
            for label in sorted(host.labels):
                acc = compose_at_label(acc, label, parts[label])
            assert acc == expected


# --- arrow -----------------------------------------------------------------------

def test_arrow_single_vertex_host():
    out = arrow_lambda(parse_tree("r:1"), parse_tree("s:2"))
    assert out == TreeCombination.of(parse_tree("r:1[s:2]"))


def test_arrow_ladder_example():
    out = arrow_lambda(parse_tree("r:1[c:1]"), parse_tree("s:1"))
    expected = TreeCombination(
        (
            (parse_tree("r:1[c:1,s:1]"), mono(0)),
            (parse_tree("r:1[c:1[s:1]]"), mono(1)),
        )
    )
    assert out == expected


def test_arrow_exponent_is_weight_times_height():
    from graftop import enumerate_labeled_trees

    S = parse_tree("g:2[h:1]")
    for n in range(1, 5):
        for T in enumerate_labeled_trees(n, [1] * n):
            out = arrow_lambda(T, S)
            expected = {}
            for v in T.vertices():
                tree = graft_at(T, v, S)
                expected[tree] = expected.get(tree, LambdaPoly.zero()) + mono(
                    S.total_weight * len(v.path)
                )
            assert out == TreeCombination(tuple(expected.items()))


def bilinear(op, x, y):
    """Sum of ``cx * cy * op(s, t)`` over the terms of x and y, built with
    ``+`` and ``scale`` only."""
    out = TreeCombination.zero()
    for s, cs in x.terms():
        for t, ct in y.terms():
            out = out + op(s, t).scale(cs * ct)
    return out


def test_arrow_bilinear_over_combinations():
    a = TreeCombination(((parse_tree("a:1"), LAMBDA),))
    b = TreeCombination(((parse_tree("b:2"), mono(2)),))
    assert arrow_lambda(a, b) == TreeCombination.of(parse_tree("a:1[b:2]"), mono(3))
    # L^2*(1+L) * _:1[_:1[_:1]] from the first pair cancels against
    # -L*(1+L) * L * _:1[_:1[_:1]] from the second; the symmetric leaves of
    # _:1[_:1,_:1] make _:1[_:1,_:1[_:1]] twice per graft of _:1
    x = TreeCombination(
        ((parse_tree("_:1"), mono(2)), (parse_tree("_:1[_:1]"), -LAMBDA),
         (parse_tree("_:1[_:1,_:1]"), 3))
    )
    y = TreeCombination(((parse_tree("_:1[_:1]"), 1 + LAMBDA), (parse_tree("_:1"), 1 + LAMBDA)))
    out = arrow_lambda(x, y)
    assert out == bilinear(arrow_lambda, x, y)
    assert parse_tree("_:1[_:1[_:1]]") not in out.support()
    # -L*(1+L) from the second pair, 3*(1+L) * 2L from the two leaves
    assert out.coefficient(parse_tree("_:1[_:1,_:1[_:1]]")) == 5 * (LAMBDA + mono(2))
    assert len(out) == 7


def test_arrow_unlabeled_collects_symmetric_grafts():
    host = parse_tree("_:1[_:1,_:1]")
    out = arrow_lambda(host, parse_tree("_:2"))
    # grafting below either leaf gives the same unlabeled tree
    assert out.coefficient(parse_tree("_:1[_:1,_:1[_:2]]")) == mono(2) + mono(2)
    assert out.coefficient(parse_tree("_:1[_:1,_:1,_:2]")) == mono(0)


def test_arrow_label_clash_rejected():
    with pytest.raises(TreeError):
        arrow_lambda(parse_tree("a:1"), parse_tree("a:2"))


# --- circ_sum / butcher / nap -------------------------------------------------------

def test_circ_sum_unit_cases():
    assert circ_sum(parse_tree("u:3"), T_EX) == TreeCombination.of(T_EX)
    assert circ_sum(parse_tree("u:2"), T_EX) == TreeCombination.zero()


def test_circ_sum_bilinear_over_combinations():
    # r:1[x:2] and r:1[x:1[y:1]] come from slot a of the first host and
    # slot c of the second, with opposite coefficients
    T = TreeCombination(
        ((parse_tree("r:1[a:2]"), LAMBDA), (parse_tree("r:1[c:2]"), -LAMBDA),
         (parse_tree("a:2[b:1]"), mono(2)))
    )
    S = TreeCombination(((parse_tree("x:2"), 1 + LAMBDA), (parse_tree("x:1[y:1]"), 2 - LAMBDA)))
    out = circ_sum(T, S)
    assert out == bilinear(circ_sum, T, S)
    assert not {parse_tree("r:1[x:2]"), parse_tree("r:1[x:1[y:1]]")} & out.support()
    assert len(out) == 3


def test_circ_sum_classical_two_vertex_case():
    T = parse_tree("t1:1[t2:1]")
    S = parse_tree("s:1")
    out = specialize(circ_sum(T, S), 1)
    oracle = TreeCombination.zero()
    for v in T.vertices():
        for term in oracle_compose_terms(T, v.label, S):
            oracle = oracle + TreeCombination.of(term)
    assert len(out) == 2
    assert out == oracle


def test_butcher_product_examples():
    a, b = parse_tree("a:2"), parse_tree("b:5")
    assert butcher_product(a, b) == parse_tree("a:2[b:5]")
    t = butcher_product(S_EX, T_EX)
    assert t.size == S_EX.size + T_EX.size
    # equals the root term of the grafting product
    assert arrow_lambda(S_EX, T_EX).coefficient(t) == mono(0)


def test_nap_compose_is_parameter_zero():
    uni = Universe(3, 2)
    ts = {}
    for t in uni.trees("t"):
        ts.setdefault(t.total_weight, []).append(t)
    for S in uni.trees("s"):
        for v in S.vertices():
            for T in ts.get(v.weight, ()):
                assert specialize(compose_lambda(S, v, T), 0) == TreeCombination.of(
                    nap_compose(S, v, T)
                )


def test_nap_compose_reference_instance():
    out = nap_compose(S_EX, S_EX.ref("b"), T_EX)
    assert out == parse_tree("a:1[e:2[c:2,d:1,h:1]]")
    assert out == oracle_compose_root(S_EX, "b", T_EX)


def test_nap_leaf_substitution_matches_empty_map():
    S = parse_tree("a:1[b:3]")
    assert nap_compose(S, S.ref("b"), T_EX) == compose_with_map(
        S, S.ref("b"), T_EX, GraftMap(())
    )


def test_nap_compose_weight_mismatch_raises():
    S = parse_tree("a:1[b:2]")
    with pytest.raises(TreeError):
        nap_compose(S, S.ref("b"), T_EX)


# --- equivariance -------------------------------------------------------------------

def test_composition_equivariance_random_relabelings():
    rng = random.Random(11)
    uni = Universe(3, 2)
    ts = {}
    for t in uni.trees("t"):
        ts.setdefault(t.total_weight, []).append(t)
    hosts = list(uni.trees("s"))
    for _ in range(60):
        S = rng.choice(hosts)
        v = rng.choice(S.vertices())
        pool = ts.get(v.weight)
        if not pool:
            continue
        T = rng.choice(pool)
        names = rng.sample([f"m{i}" for i in range(30)], len(S.labels) + len(T.labels))
        sigma = dict(zip(sorted(S.labels), names[: len(S.labels)]))
        tau = dict(zip(sorted(T.labels), names[len(S.labels):]))
        S2, T2 = relabel(S, sigma), relabel(T, tau)
        lhs = compose_lambda(S2, S2.ref(sigma[v.label]), T2)
        combined = {**{k: w for k, w in sigma.items() if k != v.label}, **tau}
        rhs = TreeCombination(
            tuple((relabel(t, combined), c) for t, c in compose_lambda(S, v, T).terms())
        )
        assert lhs == rhs


# --- positional adapter ----------------------------------------------------------------

def test_positional_composition_matches_label_keyed():
    S = parse_tree("1:1[2:3[3:2,4:1]]")
    T = parse_tree("1:2[2:1]")
    out = compose_positional(S, 2, T)
    # same instance as the reference example, with shifted integer labels
    renamed = compose_lambda(S_EX, S_EX.ref("b"), T_EX)
    mapping = {"a": "1", "e": "2", "h": "3", "c": "4", "d": "5"}
    expected = TreeCombination(
        tuple((relabel(t, mapping), c) for t, c in renamed.terms())
    )
    assert out == expected


def test_positional_requires_integer_ranges():
    with pytest.raises(TreeError):
        compose_positional(S_EX, 1, T_EX)


# --- morphism truncations ----------------------------------------------------------------

@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_compositions_are_the_ordered_sums_in_lexicographic_order(parts):
    # the weight vectors of the morphism checks; none when total < parts
    for total in range(9):
        want = [
            c for c in itertools.product(range(1, total + 1), repeat=parts) if sum(c) == total
        ]
        assert list(_compositions(total, parts)) == want


def test_morphism_single_vertex_trivial():
    S = parse_tree("s:1")
    T = parse_tree("t:1[u:1]")
    assert morphism_i_check(S, T, S.ref("s"), 6)
    assert morphism_j_check(S, T, S.ref("s"), 6)


def test_morphism_exhaustive_small():
    from graftop import enumerate_labeled_trees

    shapes_s = [
        t
        for n in (1, 2)
        for t in enumerate_labeled_trees(n, [1] * n, [f"s{i}" for i in range(1, n + 1)])
    ]
    shapes_t = [
        t
        for n in (1, 2)
        for t in enumerate_labeled_trees(n, [1] * n, [f"t{i}" for i in range(1, n + 1)])
    ]
    for S in shapes_s:
        for T in shapes_t:
            for v in S.vertices():
                assert morphism_i_check(S, T, v, 6)
                assert morphism_j_check(S, T, v, 6)


def test_compose_at_label_is_bilinear():
    S = parse_tree("a:2[b:1]")
    T1 = parse_tree("x:2")
    combo = TreeCombination(((T1, LAMBDA),))
    direct = compose_lambda(S, S.ref("a"), T1)
    assert compose_at_label(S, "a", combo) == LAMBDA * direct
    # Distinct pairs of label-compatible terms give distinct trees, so no
    # term cancels; z:1 weighs too little for every slot.
    x = TreeCombination(((S, 1 + LAMBDA), (parse_tree("r:1[a:2[b:1]]"), -mono(2))))
    y = TreeCombination(
        ((T1, LAMBDA), (parse_tree("x:1[y:1]"), 2 - LAMBDA), (parse_tree("z:1"), 3))
    )
    out = compose_at_label(x, "a", y)
    assert out == bilinear(lambda s, t: compose_lambda(s, s.ref("a"), t), x, y)
    assert len(out) == 6


# --- classical derivation relations ---------------------------------------------------
#
# On the label-forgetting quotient, the sum-composition acts as a derivation
# of the grafting product (all-maps flavor) and of the root-graft product
# (root-only flavor).  Both sides are computed as integer multisets of
# unlabeled trees.

from graftop import enumerate_labeled_trees, nap_compose_classical, strip_labels


def _counter_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
        if not out[k]:
            del out[k]
    return out


def _stripped(combo):
    out = {}
    for term, coeff in combo.terms():
        key = strip_labels(term)
        out[key] = out.get(key, 0) + int(coeff.coefficient(0))
        if not out[key]:
            del out[key]
    return out


def _sub_all(T, U):
    # classical sum-composition over every slot, on the quotient
    out = {}
    for v in T.vertices():
        out = _counter_add(out, _stripped(pre_lie_compose(T, v, U)))
    return out


def _sub_root(T, U):
    out = {}
    for v in T.vertices():
        key = strip_labels(nap_compose_classical(T, v, U))
        out[key] = out.get(key, 0) + 1
    return out


def _graft_all(T, U):
    return _stripped(specialize(arrow_lambda(T, U), 1))


def _graft_root(T, U):
    return {strip_labels(butcher_product(T, U)): 1}


def _lift(counter, op, other, flip=False):
    # apply a labeled binary op under an unlabeled integer combination
    out = {}
    for shape, n in counter.items():
        labeled = _label_shape(shape, "w")
        inner = op(labeled, other) if not flip else op(other, labeled)
        for k, v in inner.items():
            out[k] = out.get(k, 0) + n * v
            if not out[k]:
                del out[k]
    return out


def _label_shape(shape, prefix):
    counter = [0]

    def rebuild(node):
        counter[0] += 1
        from graftop import WeightedTree

        return WeightedTree(
            f"{prefix}{counter[0]}", node.weight, tuple(rebuild(c) for c in node.children)
        )

    return rebuild(shape)


def _shapes(max_size, prefix):
    return [
        t
        for n in range(1, max_size + 1)
        for t in enumerate_labeled_trees(n, [1] * n, [f"{prefix}{i}" for i in range(1, n + 1)])
    ]


@pytest.mark.parametrize(
    "sub, graft",
    [(_sub_all, _graft_all), (_sub_root, _graft_root)],
    ids=["all-maps", "root-only"],
)
def test_classical_derivation_relation(sub, graft):
    ts = _shapes(3, "t")
    ss = _shapes(3, "s")
    us = _shapes(2, "u")
    for T in ts:
        for S in ss:
            for U in us:
                lhs = _lift(graft(T, S), sub, U)
                rhs = _counter_add(
                    _lift(sub(T, U), graft, S), _lift(sub(S, U), graft, T, flip=True)
                )
                assert lhs == rhs, (T.encoding, S.encoding, U.encoding)


# --- closed forms on random trees ---------------------------------------------------
#
# A term's exponent is the potential energy its reattachment adds, so the
# coefficients of a product sum to a closed form in the depths of the host's
# vertices.  These reach past the bounded universes: hosts of up to about 30
# vertices and up to 5 moved branches.

def _random_tree(draw, prefix, n, extra=None):
    """A random labeled tree on ``n`` vertices; ``extra`` maps a vertex index
    to subtrees also hung there."""
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    weights = [draw(st.integers(1, 3)) for _ in range(n)]
    kids = [list((extra or {}).get(i, ())) for i in range(n)]
    for i in range(n - 1, -1, -1):  # every child is built before its parent
        kids[i] = WeightedTree(f"{prefix}{i}", weights[i], tuple(kids[i]))
        if i:
            kids[parents[i - 1]].append(kids[i])
    return kids[0]


def _depth_sum(T, w):
    """The sum over the vertices u of T of L**(w * depth(u))."""
    return sum((mono(w * len(path)) for path, _ in T.walk()), LambdaPoly.zero())


def _coefficient_sum(combination):
    return sum((c for _, c in combination.terms()), LambdaPoly.zero())


@settings(deadline=None)
@given(st.data())
def test_arrow_coefficients_sum_to_the_depth_closed_form(data):
    T = _random_tree(data.draw, "t", data.draw(st.integers(1, 30)))
    S = _random_tree(data.draw, "s", data.draw(st.integers(1, 5)))
    assert _coefficient_sum(arrow_lambda(T, S)) == _depth_sum(T, S.total_weight)


def _random_slot(draw, terms=1000):
    """A random host S with a slot ``v`` of 0 to 5 branches, and a random T
    of v's weight: |T|**k terms, at most 30 vertices in T, and about
    ``terms`` terms."""
    k = draw(st.integers(0, 5))
    T = _random_tree(draw, "t", draw(st.integers(1, min(30, round(terms ** (1 / k))) if k else 30)))
    branches = [_random_tree(draw, f"b{i}x", draw(st.integers(1, 4))) for i in range(k)]
    v = WeightedTree("v", T.total_weight, tuple(branches))
    if draw(st.booleans()):
        return v, T
    n = draw(st.integers(1, 10))
    return _random_tree(draw, "s", n, {draw(st.integers(0, n - 1)): (v,)}), T


@settings(deadline=None)
@given(st.data())
def test_compose_coefficients_sum_to_the_product_closed_form(data):
    S, T = _random_slot(data.draw)
    v = S.ref("v")
    expected = LambdaPoly.one()
    for b in v.node.children:
        expected = expected * _depth_sum(T, b.total_weight)
    assert _coefficient_sum(compose_lambda(S, v, T)) == expected


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_compose_terms_carry_their_energy_above_the_root_map(data):
    # Per term: coefficient exactly L**(E(t) - E0), E0 the energy of the
    # root-map term, one term per map, and the oracle's support.  Each
    # exponent is also criterion 2's height-weighted branch sum, read off
    # the oracle's parent maps: the total weight of every moved branch times
    # the height in T of its new parent.  The oracle builds every term as a
    # validated tree, so this draws fewer cases than the closed forms above.
    S, T = _random_slot(data.draw)
    v = S.ref("v")
    combo = compose_lambda(S, v, T)
    e0 = oracle_compose_root(S, "v", T).energy
    assert e0 == S.energy + T.energy
    assert len(combo) == T.size ** len(v.node.children)
    assert all(coeff == mono(term.energy - e0) for term, coeff in combo.terms())
    t_map = _parent_map(T)
    height = lambda lab: 0 if t_map[0][lab] is None else 1 + height(t_map[0][lab])
    terms = set()
    for parents, weights in _oracle_substitutions(_parent_map(S), "v", t_map, False):
        term = _tree_of_parents(parents, weights)
        exponent = sum(b.total_weight * height(parents[b.label]) for b in v.node.children)
        assert combo.coefficient(term) == mono(exponent)
        terms.add(term)
    assert combo.support() == terms


def _energy(parents, weights):
    """The potential energy of the tree with these parent and weight maps:
    every vertex adds its weight once per ancestor."""
    total = 0
    for lab, w in weights.items():
        par = parents[lab]
        while par is not None:
            total += w
            par = parents[par]
    return total


@settings(deadline=None)
@given(st.data())
def test_arrow_terms_carry_their_energy_above_the_graft(data):
    # Per term: one term per vertex u of T, the parent-map graft of S's root
    # under u, with the coefficient exactly L**(E(t) - E(T) - E(S) - w(S)),
    # every energy read off parent maps.
    T = _random_tree(data.draw, "t", data.draw(st.integers(1, 30)))
    S = _random_tree(data.draw, "s", data.draw(st.integers(1, 5)))
    (tp, tw), (sp, sw) = _parent_map(T), _parent_map(S)
    base = _energy(tp, tw) + _energy(sp, sw) + S.total_weight
    weights = {**tw, **sw}
    expected = {}
    for u in tp:
        parents = {**tp, **sp, S.label: u}
        expected[_tree_of_parents(parents, weights)] = mono(_energy(parents, weights) - base)
    combo = arrow_lambda(T, S)
    assert len(combo) == T.size
    assert combo == TreeCombination(expected)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_compose_specializes_to_powers_of_the_added_energy(data):
    # At a rational parameter q outside {0, 1}, which the specializations
    # check does not reach: each oracle term f with the coefficient
    # q**(E(f) - E(S) - E(T)), every energy read off parent maps.
    S, T = _random_slot(data.draw, 300)
    q = data.draw(st.sampled_from([Fraction(-3), Fraction(-1), Fraction(1, 2), Fraction(2, 5)]))
    base = _energy(*_parent_map(S)) + _energy(*_parent_map(T))
    expected = TreeCombination(
        (f, q ** (_energy(*_parent_map(f)) - base)) for f in oracle_compose_terms(S, "v", T)
    )
    assert compose_lambda(S, S.ref("v"), T).specialize(q) == expected


# --- rejections -------------------------------------------------------------------

LEAF = parse_tree("_:1")


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: compose_lambda(LEAF, LEAF.vertices()[0], LEAF),
            "composition requires labeled trees",
        ),
        (
            lambda: compose_with_map(
                S_EX, S_EX.ref("b"), T_EX, GraftMap((parse_tree("z:2").ref("z"),) * 2)
            ),
            "graft map target does not belong to the inserted tree",
        ),
        (
            lambda: graft_at(S_EX, S_EX.ref("b"), LEAF),
            "cannot graft across labeled and unlabeled trees",
        ),
        (
            lambda: morphism_i_check(S_EX, parse_tree("a:1"), S_EX.ref("b"), 5),
            "morphism check requires label-disjoint trees",
        ),
        (
            lambda: compose_positional(parse_tree("1:1[2:1]"), 1, parse_tree("2:1")),
            "positional composition requires inserted labels 1..m",
        ),
        (
            lambda: compose_positional(parse_tree("1:1[2:1]"), 3, parse_tree("1:1")),
            "position 3 out of range 1..2",
        ),
        (lambda: S_EX.node_at((0, 2)), "no vertex at path (0, 2) in a:1[b:3[c:2,d:1]]"),
    ],
)
def test_rejection_messages(call, message):
    with pytest.raises(TreeError) as caught:
        call()
    assert str(caught.value) == message


def test_fresh_label_skips_taken_labels():
    assert _fresh_label(set()) == "u0"
    assert _fresh_label({"u0", "u1", "u3"}) == "u2"


def test_bilinear_products_reject_non_tree_operands():
    with pytest.raises(TypeError, match="^expected a tree or tree combination, got int$"):
        arrow_lambda(5, T_EX)
