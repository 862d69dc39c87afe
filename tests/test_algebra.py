"""Polynomial ring exactness and linear-combination laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftop import (
    LAMBDA,
    BracketCombination,
    Generator,
    LambdaPoly,
    ParseError,
    TreeCombination,
    TreeError,
    combo_add,
    combo_scale,
    combo_sub,
    parse_bracket,
    parse_poly,
    parse_tree,
    poly_eval,
    specialize,
)
from graftop.algebra import Combination, accumulate, monomial

fractions = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
)

polys = st.builds(
    LambdaPoly,
    st.lists(st.tuples(st.integers(0, 8), fractions), max_size=5).map(tuple),
)


def horner(p, x):
    # independent evaluation oracle
    acc = Fraction(0)
    dense = [Fraction(0)] * (p.degree + 1 if p.degree >= 0 else 0)
    for e, c in p.terms():
        dense[e] = c
    for c in reversed(dense):
        acc = acc * x + c
    return acc


def dense_convolve(p, q):
    # independent multiplication oracle
    if not p or not q:
        return LambdaPoly.zero()
    a = [Fraction(0)] * (p.degree + 1)
    b = [Fraction(0)] * (q.degree + 1)
    for e, c in p.terms():
        a[e] = c
    for e, c in q.terms():
        b[e] = c
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return LambdaPoly(tuple(enumerate(out)))


# --- evaluation ---------------------------------------------------------------

def test_eval_examples():
    p = LambdaPoly(((0, Fraction(1)), (3, Fraction(2))))
    assert poly_eval(p, 0) == 1
    assert poly_eval(p, 1) == 3


@given(polys)
def test_eval_matches_horner_at_two(p):
    assert poly_eval(p, 2) == horner(p, Fraction(2))


@given(polys, fractions)
def test_eval_matches_horner_anywhere(p, x):
    assert poly_eval(p, x) == horner(p, x)


# --- ring axioms ----------------------------------------------------------------

@given(polys, polys, polys)
def test_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_mul_commutative_and_matches_convolution(p, q):
    assert p * q == q * p
    assert p * q == dense_convolve(p, q)


@given(polys)
def test_additive_group(p):
    assert p + LambdaPoly.zero() == p
    assert p - p == LambdaPoly.zero()
    assert p * LambdaPoly.one() == p


def test_zero_coefficients_pruned():
    p = LambdaPoly(((2, Fraction(1)), (2, Fraction(-1)), (0, Fraction(3))))
    assert p.terms() == ((0, Fraction(3)),)
    assert p.degree == 0


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        LambdaPoly(((-1, Fraction(1)),))


# --- printing / parsing ------------------------------------------------------------

@pytest.mark.parametrize(
    "p, text",
    [
        (LambdaPoly.zero(), "0"),
        (LambdaPoly.one(), "1"),
        (LAMBDA, "L"),
        (LambdaPoly.monomial(2), "L^2"),
        (LambdaPoly.monomial(3, 2), "2*L^3"),
        (LambdaPoly.monomial(1, Fraction(-1, 2)), "-1/2*L"),
        (LambdaPoly(((0, Fraction(1)), (3, Fraction(2)))), "1 + 2*L^3"),
        (LambdaPoly(((1, Fraction(-1)), (2, Fraction(1)))), "-L + L^2"),
    ],
)
def test_poly_format(p, text):
    assert str(p) == text
    assert parse_poly(text) == p


def test_poly_parse_accepts_unicode_lambda():
    assert parse_poly("1 + 2*λ^3") == parse_poly("1 + 2*L^3")


@pytest.mark.parametrize("text, offset", [("1/0", 0), ("3/0*L^2", 0), ("L + 2/00*L", 3)])
def test_poly_parse_rejects_zero_denominator(text, offset):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert info.value.position == offset


# Each parser's grammar characters, plus a superscript digit and a
# non-ASCII letter that string predicates such as isdigit() accept.
PARSER_ALPHABETS = [
    (parse_tree, "ab_19:0[], ²é"),
    (parse_bracket, "xy_190() ²é"),
    (parse_poly, "0123/+*-L^λ ²"),
]


@pytest.mark.parametrize("parse, alphabet", PARSER_ALPHABETS)
def test_parsers_raise_only_parse_error(parse, alphabet):
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=alphabet, max_size=40))
    def check(text):
        try:
            parse(text)
        except ParseError:
            pass

    check()


@given(polys)
def test_poly_print_parse_roundtrip(p):
    assert parse_poly(str(p)) == p


# --- combinations ----------------------------------------------------------------

T1 = parse_tree("a:1[b:2]")
T2 = parse_tree("c:3")


def test_combo_identity_and_cancellation():
    x = TreeCombination.of(T1)
    zero = TreeCombination.zero()
    assert combo_add(x, zero) == x
    assert combo_sub(x, x) == zero
    assert not combo_sub(x, x)


def test_combo_collects_coefficients():
    c = combo_add(
        TreeCombination.of(T1, LAMBDA), TreeCombination.of(T1, LambdaPoly.monomial(2))
    )
    assert len(c) == 1
    assert c.coefficient(T1) == LAMBDA + LambdaPoly.monomial(2)


def test_combo_module_action_associates():
    c = TreeCombination(((T1, LAMBDA), (T2, LambdaPoly.one())))
    p = parse_poly("1 + L")
    q = parse_poly("2*L^2")
    assert combo_scale(p * q, c) == combo_scale(p, combo_scale(q, c))


def test_mixed_modes_rejected():
    with pytest.raises(TreeError):
        TreeCombination(((T1, LambdaPoly.one()), (parse_tree("_:1"), LambdaPoly.one())))


def test_specialize_examples():
    c = TreeCombination(((T1, LAMBDA), (T2, LambdaPoly.one())))
    assert specialize(c, 0) == TreeCombination.of(T2)
    gone = TreeCombination.of(T1, parse_poly("1 + -1*L"))
    assert specialize(gone, 1) == TreeCombination.zero()


@given(st.integers(0, 4), st.integers(0, 4), fractions)
def test_specialize_commutes_with_add(e1, e2, x):
    a = TreeCombination.of(T1, LambdaPoly.monomial(e1))
    b = TreeCombination(((T1, LambdaPoly.monomial(e2)), (T2, LambdaPoly.one())))
    assert specialize(a + b, x) == specialize(a, x) + specialize(b, x)


@pytest.mark.parametrize("value", [0, 1, -1, Fraction(1, 2), 3])
def test_specialize_matches_evaluate_term_by_term(value):
    polys = [
        LambdaPoly.monomial(0), LambdaPoly.monomial(3), LambdaPoly.monomial(2, -4),
        LambdaPoly.monomial(1, Fraction(-3, 4)), LambdaPoly.constant(Fraction(5, 2)),
        parse_poly("1 + -1*L"), parse_poly("2 + -3*L^2 + L^4"), parse_poly("1/2 + L + -3/2*L^3"),
    ]
    shared = LambdaPoly.monomial(2)
    terms = [(parse_tree(f"x{i}:1"), p) for i, p in enumerate(polys)]
    terms += [(parse_tree("y:1"), shared), (parse_tree("z:2"), shared)]
    c = TreeCombination(terms)
    out = c.specialize(value)
    for tree, p in terms:
        # the slow path and an independent sum over the terms
        expected = p.evaluate(value)
        assert expected == sum(Fraction(k) * Fraction(value) ** e for e, k in p.terms())
        if expected:
            got = out.coefficient(tree).terms()
            assert got == ((0, expected),)
            assert type(got[0][1]) is (int if expected.denominator == 1 else Fraction)
        else:
            assert tree not in out.support()
    assert len(out) == sum(1 for _, p in terms if p.evaluate(value))


def test_combination_print_order_and_format():
    c = TreeCombination(((T2, LAMBDA + LambdaPoly.one()), (T1, LambdaPoly.one())))
    assert str(c) == "1 * a:1[b:2] + (1 + L) * c:3"
    assert str(TreeCombination.zero()) == "0"


def test_combination_print_with_a_shared_multi_term_coefficient():
    shared = parse_poly("1 + -1/2*L^2")
    c = TreeCombination((
        (T1, shared), (T2, LAMBDA), (parse_tree("d:1"), shared), (parse_tree("e:2[f:1]"), -2 * LAMBDA**3),
    ))
    assert c.coefficient(T1) is c.coefficient(parse_tree("d:1"))
    assert str(c) == (
        "(1 + -1/2*L^2) * a:1[b:2] + L * c:3 + (1 + -1/2*L^2) * d:1 + -2*L^3 * e:2[f:1]"
    )


# --- coefficient representation ---------------------------------------------------

def _normalized(p):
    # integral coefficients are ints, the others Fractions in lowest terms
    return all(
        c and type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        for _, c in p.terms()
    )


def test_coefficients_are_int_unless_fractional():
    p = parse_poly("2 + -3*L^2") * parse_poly("1/2*L")
    assert p.terms() == ((1, 1), (3, Fraction(-3, 2)))
    assert [type(c) for _, c in p.terms()] == [int, Fraction]
    c = TreeCombination.of(T1, parse_poly("1 + L"))
    assert c.specialize(Fraction(1, 2)).coefficient(T1).terms() == ((0, Fraction(3, 2)),)
    assert type(c.specialize(Fraction(1)).coefficient(T1).coefficient(0)) is int
    assert type(poly_eval(parse_poly("1 + L"), 1)) is Fraction


@given(polys, polys)
def test_arithmetic_keeps_coefficients_normalized(p, q):
    for r in (p, -p, p + q, p - q, p * q, p**2):
        assert _normalized(r)


def test_unit_denominator_fraction_equals_int():
    for exp in (0, 1, 3):
        a = LambdaPoly(((exp, Fraction(4, 2)),))
        b = LambdaPoly(((exp, 2),))
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert type(a.coefficient(exp)) is int
    assert LambdaPoly.constant(Fraction(4, 2)) == 2 and hash(LambdaPoly.constant(2)) == hash(2)


def test_missing_coefficient_is_zero():
    assert parse_poly("1 + L^2").coefficient(1) == 0
    assert LambdaPoly.zero().coefficient(0) == 0


def test_adding_labeled_and_unlabeled_combinations_rejected():
    with pytest.raises(TreeError):
        TreeCombination.of(T1) + TreeCombination.of(parse_tree("_:1"))


def test_accumulate_prunes_cancelled_terms():
    acc = {}
    accumulate(acc, T1, LAMBDA)
    accumulate(acc, T2, LambdaPoly.one())
    accumulate(acc, T1, -LAMBDA)
    accumulate(acc, T1, LambdaPoly.zero())
    assert acc == {T2: LambdaPoly.one()}
    x = TreeCombination(((T1, LAMBDA), (T2, LambdaPoly.one())))
    assert (x + TreeCombination.of(T1, -LAMBDA)).support() == {T2}
    assert not x - x and not x.scale(0) and len(x.scale(LAMBDA)) == 2


@given(st.integers(0, 12), st.integers(0, 12))
def test_unit_monomial_products_are_the_shared_monomials(a, b):
    product = monomial(a) * monomial(b)
    assert product is monomial(a + b)
    # the general product, through a two-term factor
    general = monomial(a) * (monomial(b) + monomial(b + 1)) - monomial(a + b + 1)
    assert product == general == LambdaPoly(((a + b, 1),))


@given(st.integers(0, 8), st.integers(0, 8), fractions, fractions)
def test_other_monomial_products_unchanged(a, b, c1, c2):
    product = LambdaPoly.monomial(a, c1) * LambdaPoly.monomial(b, c2)
    assert product == LambdaPoly(((a + b, c1 * c2),))
    if c1 * c2 != 1:
        assert product is not monomial(a + b)


units = st.sampled_from([monomial(0), LambdaPoly.one(), LambdaPoly.constant(Fraction(2, 2))])
combinations = st.lists(st.tuples(st.sampled_from([T1, T2, parse_tree("d:1[e:1,f:1]")]), polys), max_size=3).map(
    TreeCombination
)


@given(st.lists(st.tuples(st.one_of(units, polys), combinations), max_size=4))
def test_sum_with_unit_and_other_coefficients_matches_add_and_scale(parts):
    expected = TreeCombination.zero()
    for coeff, combo in parts:
        expected = expected + combo.scale(coeff)
    assert TreeCombination._sum(parts) == expected


# --- protocol arms and public rejections -------------------------------------------

FOREIGN = object()  # an operand no graftop type knows


def test_poly_operators_defer_on_foreign_operands():
    p = parse_poly("1 + L")
    assert p.__eq__(FOREIGN) is NotImplemented and p != FOREIGN
    for op in (lambda: p + FOREIGN, lambda: p - FOREIGN, lambda: FOREIGN - p):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_poly_hash_and_protocol_values():
    assert hash(LambdaPoly.zero()) == hash(0)
    p = parse_poly("1/2 + 3*L^2")
    assert repr(p) == "LambdaPoly.parse('1/2 + 3*L^2')"
    assert LambdaPoly.parse("1/2 + 3*L^2") == p


@pytest.mark.parametrize("n", [-1, 1.5])
def test_poly_power_rejects_bad_exponents(n):
    with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
        LAMBDA ** n


def test_evaluate_rejects_inexact_values():
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        LAMBDA.evaluate(0.5)


def test_combination_protocol_values():
    combo = TreeCombination(((T2, LAMBDA), (T1, 2)))
    assert list(combo) == combo.terms() == [(T1, LambdaPoly.constant(2)), (T2, LAMBDA)]
    assert repr(combo) == "<TreeCombination 2 * a:1[b:2] + L * c:3>"


def test_combination_base_class_has_no_term_type():
    with pytest.raises(NotImplementedError):
        Combination()


def test_combination_operators_defer_on_foreign_operands():
    trees = TreeCombination.of(T1)
    brackets = BracketCombination.of(Generator("x", 1))
    for op in (lambda: trees + brackets, lambda: trees - brackets, lambda: trees * FOREIGN):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_tree_combination_rejects_non_tree_terms():
    with pytest.raises(TreeError, match="^tree combination term must be a WeightedTree, got 'x'$"):
        TreeCombination.of("x")
