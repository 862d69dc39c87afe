"""Bracket expressions, the deformed relation, and the phi/psi pair."""

import itertools
import re
import sys
import threading

import pytest

from graftop import (
    LAMBDA,
    BracketCombination,
    Generator,
    LambdaPoly,
    Pair,
    ParseError,
    TreeCombination,
    TreeError,
    bracket_mul,
    enumerate_labeled_trees,
    parse_bracket,
    parse_tree,
    phi,
    psi,
    psi_order_independence_check,
    relation_r,
    reweight,
)
from graftop import presentation
from graftop.verify import Universe


def mono(exp, coeff=1):
    return LambdaPoly.monomial(exp, coeff)


def brack(text):
    return parse_bracket(text)


# --- expressions ------------------------------------------------------------------

def test_expression_print_parse_roundtrip():
    for text in ["x_1", "(x_1 y_2)", "((x_1 z_1) y_1)", "(x_2 (y_10 z_3))"]:
        assert brack(text).encoding == text


def test_expression_accepts_underscored_labels():
    g = brack("x_1_2")
    assert g == Generator("x_1", 2)


def test_repeated_labels_rejected():
    with pytest.raises(TreeError):
        Pair(Generator("x", 1), Generator("x", 2))
    with pytest.raises(ParseError):
        brack("(x_1 x_2)")


# each rejected bracket text and its exact message, position included
PARSE_ERRORS = {
    "": "expected a generator or '(' (at position 0)",
    "(": "expected a generator or '(' (at position 1)",
    "(x_1": "expected a generator or '(' (at position 4)",
    " (x_1 )": "expected a generator or '(' (at position 6)",
    "(x_1 y_1": "expected ')' (at position 8)",
    "  ( x_1 y_1 z_1)": "expected ')' (at position 12)",
    "x": "bad generator 'x', expected label_weight (at position 0)",
    "x_": "bad generator 'x_', expected label_weight (at position 0)",
    "_1": "bad generator '_1', expected label_weight (at position 0)",
    "(x_1 y_1))": "unexpected trailing input (at position 9)",
    "(x_0 y_1)": "generator weight must be a positive integer, got 0 (at position 4)",
    "(__1 y_1)": "invalid generator label '_' (at position 4)",
    "(x_1 x_2)": "repeated generator labels ['x'] in one expression (at position 9)",
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        brack(bad)
    assert str(err.value) == PARSE_ERRORS[bad]


def _deep_bracket(n, left):
    """A product of n + 1 generators g0_1 .. gn_1, nested n deep on one side."""
    if left:
        return "(" * n + "g0_1" + "".join(f" g{i}_1)" for i in range(1, n + 1))
    return "".join(f"(g{i}_1 " for i in range(n)) + f"g{n}_1" + ")" * n


@pytest.mark.parametrize("left", [True, False])
def test_parse_deep_bracket_does_not_recurse(left):
    # deeper than the default recursion limit
    n = 3000
    text = _deep_bracket(n, left)
    expr = parse_bracket(text)
    assert expr.encoding == text and len(expr.labels) == n + 1
    # Every product keeps its encoding and label set, hundreds of MB here:
    # free them, and bind no exception info, whose traceback would keep the
    # failed parse's products alive in a cycle through this frame.
    del expr
    with pytest.raises(ParseError, match=re.escape(f"expected ')' (at position {len(text) - 1})")):
        parse_bracket(text[:-1])


def test_bracket_mul_is_bilinear():
    a = BracketCombination(((Generator("x", 1), LAMBDA),))
    b = BracketCombination(
        ((Generator("y", 1), mono(0)), (brack("(u_1 z_1)"), mono(2)))
    )
    out = bracket_mul(a, b)
    assert out.coefficient(brack("(x_1 y_1)")) == LAMBDA
    assert out.coefficient(brack("(x_1 (u_1 z_1))")) == mono(3)


# --- the relation -----------------------------------------------------------------

def test_relation_coefficients_read_off():
    r = relation_r(1, 2, 3)
    assert r.coefficient(brack("((x_1 y_2) z_3)")) == mono(0)
    assert r.coefficient(brack("(x_1 (y_2 z_3))")) == mono(3, -1)
    assert r.coefficient(brack("((x_1 z_3) y_2)")) == mono(0, -1)
    assert r.coefficient(brack("(x_1 (z_3 y_2))")) == mono(2)
    assert len(r) == 4


def test_relation_unit_weights_at_one_is_associator_antisymmetry():
    r = relation_r(1, 1, 1).specialize(1)
    # ((xy)z) - (x(yz)) antisymmetric under swapping y and z
    assert r.coefficient(brack("((x_1 y_1) z_1)")) == mono(0)
    assert r.coefficient(brack("(x_1 (y_1 z_1))")) == mono(0, -1)
    assert r.coefficient(brack("((x_1 z_1) y_1)")) == mono(0, -1)
    assert r.coefficient(brack("(x_1 (z_1 y_1))")) == mono(0)


def test_relation_requires_distinct_labels():
    with pytest.raises(TreeError):
        relation_r(1, 1, 1, labels=("x", "x", "z"))


def test_psi_rejects_a_branch_order_on_a_combination():
    combo = TreeCombination.of(parse_tree("x:1[y:1,z:1]"))
    with pytest.raises(TreeError) as caught:
        psi(combo, (1, 0))
    assert str(caught.value) == "branch_order applies to a single tree"


def test_phi_annihilates_relation_small_weights():
    for k, l, m in itertools.product((1, 2), repeat=3):
        assert phi(relation_r(k, l, m)) == TreeCombination.zero()


# --- phi ---------------------------------------------------------------------------

def test_phi_generator():
    assert phi(Generator("x", 2)) == TreeCombination.of(parse_tree("x:2"))


def test_phi_two_vertex_pair():
    assert phi(brack("(x_3 y_5)")) == TreeCombination.of(parse_tree("x:3[y:5]"))


def test_phi_left_nested_triple_expansion():
    # ((x1 y1) z1): graft z onto the 2-chain at the root (exponent 0) or at
    # the leaf (exponent 1)
    out = phi(brack("((x_1 y_1) z_1)"))
    expected = TreeCombination(
        (
            (parse_tree("x:1[y:1,z:1]"), mono(0)),
            (parse_tree("x:1[y:1[z:1]]"), mono(1)),
        )
    )
    assert out == expected


def test_phi_right_nested_triple_expansion():
    out = phi(brack("(x_1 (y_1 z_1))"))
    assert out == TreeCombination.of(parse_tree("x:1[y:1[z:1]]"))


def test_phi_linear_over_combinations():
    c = BracketCombination(((brack("(x_1 y_1)"), LAMBDA),))
    assert phi(c) == TreeCombination.of(parse_tree("x:1[y:1]"), LAMBDA)
    # phi(((x_1 z_1) y_1)) = x:1[y:1,z:1] + L * x:1[z:1[y:1]] and
    # phi((x_1 (z_1 y_1))) = x:1[z:1[y:1]]: the second tree cancels
    exprs = [brack("((x_1 z_1) y_1)"), brack("(x_1 (z_1 y_1))"), brack("((x_1 y_1) z_2)")]
    coeffs = [1 + LAMBDA, -(LAMBDA + mono(2)), mono(2)]
    out = phi(BracketCombination(zip(exprs, coeffs)))
    reference = TreeCombination.zero()
    for e, c in zip(exprs, coeffs):
        reference = reference + phi(e).scale(c)
    assert out == reference
    assert parse_tree("x:1[z:1[y:1]]") not in out.support()
    assert len(out) == 3


# --- psi ---------------------------------------------------------------------------

def test_psi_single_vertex():
    assert psi(parse_tree("x:4")) == BracketCombination.of(Generator("x", 4))


def test_psi_chain():
    assert psi(parse_tree("x:2[y:3]")) == BracketCombination.of(brack("(x_2 y_3)"))


def test_psi_corolla_reference_value():
    out = psi(parse_tree("x:1[y:1,z:1]"))
    expected = BracketCombination(
        (
            (brack("((x_1 z_1) y_1)"), mono(0)),
            (brack("(x_1 (z_1 y_1))"), mono(1, -1)),
        )
    )
    assert out == expected
    assert phi(out) == TreeCombination.of(parse_tree("x:1[y:1,z:1]"))


def test_psi_corolla_alternative_order_same_tree_through_phi():
    corolla = parse_tree("x:1[y:1,z:1]")
    assert phi(psi(corolla, (1, 0))) == TreeCombination.of(corolla)
    assert psi_order_independence_check(corolla, (0, 1), (1, 0))


def test_psi_roundtrip_small_universe():
    for n in range(1, 5):
        shapes = enumerate_labeled_trees(n, [1] * n, [f"x{i}" for i in range(1, n + 1)])
        for shape in shapes:
            for vec in itertools.product((1, 2), repeat=n):
                t = reweight(shape, dict(zip(sorted(shape.labels), vec)))
                assert phi(psi(t)) == TreeCombination.of(t)


def test_psi_order_independence_exhaustive_small():
    for n in range(1, 5):
        for t in enumerate_labeled_trees(n, [1] * n, [f"x{i}" for i in range(1, n + 1)]):
            p = len(t.children)
            if p < 2:
                assert psi_order_independence_check(t, tuple(range(p)), tuple(range(p)))
                continue
            reference = TreeCombination.of(t)
            for order in itertools.permutations(range(p)):
                assert phi(psi(t, order)) == reference


def test_psi_three_branch_corolla_transposed_orders():
    t = parse_tree("r:1[a:1,b:1,c:1]")
    assert psi_order_independence_check(t, (0, 1, 2), (1, 0, 2))
    assert psi_order_independence_check(t, (0, 1, 2), (2, 1, 0))


def test_psi_linear_over_combinations():
    t1 = parse_tree("x:1[y:1]")
    t2 = parse_tree("z:2")
    c = TreeCombination(((t1, LAMBDA), (t2, mono(0, 3))))
    assert psi(c) == LAMBDA * psi(t1) + 3 * psi(t2)
    # psi(x:1[y:1,z:1]) = ((x_1 z_1) y_1) - L * (x_1 (z_1 y_1)) and
    # psi(x:1[z:1[y:1]]) = (x_1 (z_1 y_1)): the second bracket cancels
    t3, t4 = parse_tree("x:1[y:1,z:1]"), parse_tree("x:1[z:1[y:1]]")
    c = TreeCombination(((t3, 1 + LAMBDA), (t4, LAMBDA + mono(2)), (t1, mono(3))))
    out = psi(c)
    assert out == psi(t3).scale(1 + LAMBDA) + psi(t4).scale(LAMBDA + mono(2)) + psi(t1).scale(mono(3))
    assert brack("(x_1 (z_1 y_1))") not in out.support()
    assert len(out) == 2


def test_psi_rejects_unlabeled():
    with pytest.raises(TreeError):
        psi(parse_tree("_:1[_:1]"))


def test_psi_bad_branch_order_rejected():
    with pytest.raises(TreeError):
        psi(parse_tree("x:1[y:1,z:1]"), (0,))


def test_corolla_decomposition_roundtrip():
    from graftop import corolla_assemble, corolla_decomposition

    for text in ["x:4", "x:2[y:3]", "a:1[b:3[c:2,d:1],e:1]"]:
        t = parse_tree(text)
        root, branches = corolla_decomposition(t)
        assert root == Generator(t.label, t.weight)
        assert corolla_assemble(root, branches) == t
    with pytest.raises(TreeError):
        corolla_decomposition(parse_tree("_:1"))


def test_psi_coefficient_degree_stays_bounded():
    # the rewriting of a 5-vertex comb stays a finite combination with
    # parameter degree no larger than its potential energy
    t = parse_tree("a:1[b:1[c:1],d:1[e:1]]")
    out = psi(t)
    assert len(out) > 1
    assert max(c.degree for _, c in out.terms()) <= t.energy
    assert phi(out) == TreeCombination.of(t)


def test_psi_phi_memos_shared_by_threads_give_the_serial_results(monkeypatch):
    # The psi and phi memos are module-level dicts that every thread reads
    # and fills; four threads starting from empty memos must agree with a
    # serial run that starts from empty memos too.
    trees = Universe(4, 1).trees("x")

    def roundtrip(order):
        return {t: (str(psi(t)), phi(psi(t))) for t in order}

    monkeypatch.setattr(presentation, "_PSI_MEMO", {})
    monkeypatch.setattr(presentation, "_PHI_MEMO", {})
    serial = roundtrip(trees)
    assert all(back == TreeCombination.of(t) for t, (_, back) in serial.items())

    monkeypatch.setattr(presentation, "_PSI_MEMO", {})
    monkeypatch.setattr(presentation, "_PHI_MEMO", {})
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        barrier.wait(timeout=60)
        # each thread walks the universe from its own starting point
        start = i * len(trees) // 4
        results[i] = roundtrip(trees[start:] + trees[:start])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 4
