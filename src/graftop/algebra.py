"""Exact coefficient arithmetic: rationals, sparse polynomials in the
deformation parameter (printed ``L``), and formal linear combinations of
canonical trees.

Coefficients stay symbolic polynomials by default; specializing the
parameter to a concrete rational is always an explicit step.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ParseError, TreeError
from .trees import WeightedTree

Rational = Fraction


def _as_coeff(x):
    """An exact coefficient in normal form: an ``int`` when integral,
    otherwise a ``Fraction``."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _poly(terms: tuple) -> "LambdaPoly":
    """Wrap an already-normalized sorted term tuple without validation."""
    out = object.__new__(LambdaPoly)
    out._terms = terms
    return out


def _sum_terms(a, b) -> tuple:
    """The sorted term tuple of the sum of two sequences of ``(exp, coeff)``
    pairs with exact coefficients, normalized and with zero sums pruned."""
    acc = dict(a)
    for exp, coeff in b:
        total = acc.pop(exp, 0) + coeff
        if type(total) is not int:
            total = _as_coeff(total)
        if total:
            acc[exp] = total
    return tuple(sorted(acc.items()))


class LambdaPoly:
    """Sparse univariate polynomial with exact rational coefficients and
    nonnegative integer exponents.

    Coefficients are ``int`` whenever they are integral and ``Fraction``
    only otherwise.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for exp, coeff in items:
            if not isinstance(exp, int) or exp < 0:
                raise ValueError(f"exponent must be a nonnegative integer, got {exp!r}")
            checked.append((exp, _as_coeff(coeff)))
        self._terms = _sum_terms((), checked)

    @classmethod
    def zero(cls) -> "LambdaPoly":
        return cls()

    @classmethod
    def one(cls) -> "LambdaPoly":
        return cls(((0, 1),))

    @classmethod
    def constant(cls, value) -> "LambdaPoly":
        return cls(((0, value),))

    @classmethod
    def monomial(cls, exp: int, coeff=1) -> "LambdaPoly":
        return cls(((exp, coeff),))

    def terms(self) -> tuple[tuple[int, int | Fraction], ...]:
        return self._terms

    def coefficient(self, exp: int) -> int | Fraction:
        for e, c in self._terms:
            if e == exp:
                return c
        return 0

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self._terms[-1][0] if self._terms else -1

    def evaluate(self, value) -> Fraction:
        return Fraction(self._at(_as_coeff(value)))

    def _at(self, value):
        """The normalized coefficient at a normalized parameter value."""
        if len(self._terms) == 1:
            (e, c), = self._terms
            c *= value**e
            return c if type(c) is int else _as_coeff(c)
        return _as_coeff(sum(c * value**e for e, c in self._terms))

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # constants hash like their value, matching the coercing __eq__
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and self._terms[0][0] == 0:
            return hash(self._terms[0][1])
        return hash(self._terms)

    def __neg__(self):
        return _poly(tuple((e, -c) for e, c in self._terms))

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(_sum_terms(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self._terms) == 1 and len(other._terms) == 1:
            (e1, c1), = self._terms
            (e2, c2), = other._terms
            if c1 == 1 and c2 == 1:
                return monomial(e1 + e2)
            c = c1 * c2
            return _poly(((e1 + e2, c if type(c) is int else _as_coeff(c)),))
        return _poly(_sum_terms((), [
            (e1 + e2, c1 * c2) for e1, c1 in self._terms for e2, c2 in other._terms
        ]))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = LambdaPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e, c in self._terms:
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("L" if e == 1 else f"L^{e}")
            elif c == -1:
                parts.append("-L" if e == 1 else f"-L^{e}")
            else:
                parts.append(f"{c}*L" if e == 1 else f"{c}*L^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LambdaPoly.parse({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "LambdaPoly":
        return parse_poly(text)


LAMBDA = LambdaPoly.monomial(1)

_MONOMIALS: dict[int, LambdaPoly] = {}


def monomial(exp: int) -> LambdaPoly:
    """Shared unit-coefficient monomials (hot path of the compositions), the
    products of two of them included."""
    hit = _MONOMIALS.get(exp)
    if hit is None:
        hit = LambdaPoly.monomial(exp)
        _MONOMIALS[exp] = hit
    return hit


def _coerce_poly(x):
    if isinstance(x, LambdaPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LambdaPoly.constant(x)
    return NotImplemented


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:\s*/\s*\d+)?)?\s*"
    r"(?:(?(coeff)\*\s*)?(?P<neg>-)?L(?:\^(?P<exp>\d+))?)?\s*$"
)


def parse_poly(text: str) -> LambdaPoly:
    """Parse ``1 + 2*L^3`` style polynomial text; lambda may be written L."""
    text = text.replace("λ", "L")
    if text.strip() == "0":
        return LambdaPoly.zero()
    terms: list[tuple[int, Fraction]] = []
    offset = 0
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        stripped = chunk.strip()
        if not stripped or m is None or (m.group("coeff") is None and "L" not in chunk):
            raise ParseError(f"bad polynomial term {stripped!r}", offset)
        try:
            coeff = Fraction(m.group("coeff").replace(" ", "")) if m.group("coeff") else 1
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in polynomial term {stripped!r}", offset) from None
        if m.group("neg"):
            coeff = -coeff
        if "L" in chunk:
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        terms.append((exp, coeff))
        offset += len(chunk) + 1
    return LambdaPoly(terms)


def poly_eval(p: LambdaPoly, value) -> Fraction:
    """Exact evaluation of p at a rational value of the parameter."""
    return p.evaluate(value)


def accumulate(acc: dict, term, poly: LambdaPoly) -> None:
    """Add ``poly * term`` into the term dict ``acc`` in place, pruning a
    term whose coefficient cancels to zero."""
    prev = acc.get(term)
    if prev is not None:
        poly = prev + poly
        if not poly:
            del acc[term]
            return
    elif not poly:
        return
    acc[term] = poly


class Combination:
    """Finite formal sum of hashable terms with LambdaPoly coefficients.

    Zero coefficients are pruned eagerly; instances are immutable.
    Subclasses pin down the admissible term type; every term carries an
    ``encoding``, which orders and prints it.
    """

    __slots__ = ("_terms",)

    def __init__(self, data: Mapping | Iterable[tuple] = ()):
        items = data.items() if isinstance(data, Mapping) else data
        acc: dict = {}
        for term, coeff in items:
            poly = coeff if isinstance(coeff, LambdaPoly) else LambdaPoly.constant(coeff)
            accumulate(acc, term, poly)
        self._validate(acc)
        self._terms = acc

    def _validate(self, acc: dict) -> None:
        raise NotImplementedError

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap an already-normalized term dict without copying or
        validation; internal fast path, the dict must not be shared."""
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def _sum(cls, parts, acc: dict | None = None):
        """Sum ``coeff * combo`` over the ``(coeff, combo)`` pairs of ``parts``
        into the term dict ``acc`` (a new one by default), which the result
        owns; an unvalidated fast path like ``_raw``, for LambdaPoly coeffs."""
        acc = {} if acc is None else acc
        for coeff, combo in parts:
            for term, c in combo._terms.items():
                accumulate(acc, term, coeff * c)
        return cls._raw(acc)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, term, coeff=1):
        return cls(((term, coeff),))

    def terms(self) -> list[tuple]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].encoding)

    def coefficient(self, term) -> LambdaPoly:
        return self._terms.get(term, LambdaPoly.zero())

    def support(self) -> set:
        return set(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self.terms())

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms

    def __neg__(self):
        return self._raw({t: -c for t, c in self._terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for term, coeff in other._terms.items():
            accumulate(acc, term, coeff)
        self._validate(acc)
        return self._raw(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        poly = coeff if isinstance(coeff, LambdaPoly) else LambdaPoly.constant(coeff)
        # exact coefficients have no zero divisors: only a zero factor prunes
        return self._raw({t: poly * c for t, c in self._terms.items()} if poly else {})

    def __mul__(self, coeff):
        if isinstance(coeff, (int, Fraction, LambdaPoly)):
            return self.scale(coeff)
        return NotImplemented

    __rmul__ = __mul__

    def specialize(self, value) -> "Combination":
        """Evaluate every coefficient at a rational parameter value."""
        value = _as_coeff(value)
        out, consts = {}, {}  # one constant poly per distinct value
        for term, poly in self._terms.items():
            c = poly._at(value)
            if c:
                const = consts.get(c)
                if const is None:
                    const = consts[c] = _poly(((0, c),))
                out[term] = const
        return self._raw(out)

    def __str__(self):
        if not self._terms:
            return "0"
        parts, shown = [], {}  # each distinct coefficient object formatted once
        for term, poly in self.terms():
            ps = shown.get(id(poly))
            if ps is None:
                ps = shown[id(poly)] = f"({poly})" if len(poly) > 1 else str(poly)
            parts.append(f"{ps} * {term.encoding}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class TreeCombination(Combination):
    """Formal linear combination of canonical weighted trees."""

    __slots__ = ()

    def _validate(self, acc: dict) -> None:
        modes = set()
        for term in acc:
            if not isinstance(term, WeightedTree):
                raise TreeError(f"tree combination term must be a WeightedTree, got {term!r}")
            modes.add(term.is_labeled)
        if len(modes) > 1:
            raise TreeError("cannot mix labeled and unlabeled trees in one combination")


def combo_add(a: Combination, b: Combination) -> Combination:
    return a + b


def combo_sub(a: Combination, b: Combination) -> Combination:
    return a - b


def combo_scale(coeff, c: Combination) -> Combination:
    return c.scale(coeff)


def specialize(c: Combination, value) -> Combination:
    return c.specialize(value)
