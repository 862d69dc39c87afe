"""Independent expected answers for the benchmark's requests.

The check compares the text a CLI user would see.  Compositions are
expanded with the parent-map oracles in ``graftop.verify`` and weighted by
this module's own weight x depth sum; grafting products and canonical
encodings come from this module's own parser and tree model.  No
production composition, product or coefficient code is used.
"""

from __future__ import annotations

from fractions import Fraction

from graftop.trees import WeightedTree
from graftop.verify import oracle_compose_root, oracle_compose_terms

from inputs import total_weight


def parse(source: str):
    """Parse the tree grammar into ``(label, weight, children)`` nodes."""
    pos = 0

    def node():
        nonlocal pos
        colon = source.index(":", pos)
        label = source[pos:colon]
        end = colon + 1
        while end < len(source) and source[end].isdigit():
            end += 1
        weight = int(source[colon + 1:end])
        pos = end
        kids = []
        if pos < len(source) and source[pos] == "[":
            pos += 1
            kids.append(node())
            while source[pos] == ",":
                pos += 1
                kids.append(node())
            pos += 1  # the closing "]"
        return (label, weight, kids)

    tree = node()
    if pos != len(source):
        raise ValueError(f"trailing input in {source!r}")
    return tree


def encode(node) -> str:
    """Canonical encoding: children ordered by their own encodings."""
    label, w, kids = node
    if not kids:
        return f"{label}:{w}"
    return f"{label}:{w}[" + ",".join(sorted(encode(c) for c in kids)) + "]"


def _weighted(node) -> WeightedTree:
    label, w, kids = node
    return WeightedTree(label, w, tuple(_weighted(c) for c in kids))


def energy(tree: WeightedTree, depth: int = 0) -> int:
    """Sum over vertices of weight times depth."""
    return tree.weight * depth + sum(energy(c, depth + 1) for c in tree.children)


def _add(acc: dict, encoding: str, exponent: int, count: int = 1) -> None:
    poly = acc.setdefault(encoding, {})
    poly[exponent] = poly.get(exponent, 0) + count


def compose_terms(host, v_label: str, inserted, acc: dict | None = None) -> dict:
    """encoding -> {exponent: multiplicity} of the graded composition."""
    acc = {} if acc is None else acc
    S, T = _weighted(host), _weighted(inserted)
    base = energy(oracle_compose_root(S, v_label, T))
    for tree in oracle_compose_terms(S, v_label, T):
        _add(acc, tree.encoding, energy(tree) - base)
    return acc


def _vertices(node, depth=0):
    yield node, depth
    for c in node[2]:
        yield from _vertices(c, depth + 1)


def circ_sum_terms(host, inserted) -> dict:
    acc: dict = {}
    w = total_weight(inserted)
    for (label, weight, _), _ in _vertices(host):
        if weight == w:
            compose_terms(host, label, inserted, acc)
    return acc


def _graft_below(node, target, branch):
    label, w, kids = node
    kids = [_graft_below(c, target, branch) for c in kids]
    if node is target:
        kids.append(branch)
    return (label, w, kids)


def arrow_terms(x, y) -> dict:
    """Graft y below every vertex of x, weighted by L^(weight(y) * depth)."""
    acc: dict = {}
    w = total_weight(y)
    for vertex, depth in _vertices(x):
        _add(acc, encode(_graft_below(x, vertex, y)), w * depth)
    return acc


def _poly_text(poly: dict) -> str:
    parts = []
    for e, c in sorted(poly.items()):
        if e == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append("L" if e == 1 else f"L^{e}")
        else:
            parts.append(f"{c}*L" if e == 1 else f"{c}*L^{e}")
    return " + ".join(parts)


def render(terms: dict, lam) -> str:
    """The CLI text of a tree combination with nonnegative integer
    coefficients, optionally specialized at L = lam."""
    if lam is not None:
        terms = {
            enc: {0: sum(c * Fraction(lam) ** e for e, c in poly.items())}
            for enc, poly in terms.items()
        }
    parts = []
    for enc in sorted(terms):
        poly = {e: c for e, c in terms[enc].items() if c}
        if not poly:
            continue
        text = _poly_text(poly)
        parts.append(f"({text}) * {enc}" if len(poly) > 1 else f"{text} * {enc}")
    return " + ".join(parts) if parts else "0"


def expected_output(request) -> str:
    """The text the request must print."""
    kind = request[0]
    if kind == "compose":
        _, host, v_label, inserted, lam = request
        return render(compose_terms(parse(host), v_label, parse(inserted)), lam)
    if kind == "arrow":
        _, x, y, lam = request
        return render(arrow_terms(parse(x), parse(y)), lam)
    if kind == "circsum":
        _, t, s, lam = request
        return render(circ_sum_terms(parse(t), parse(s)), lam)
    raise ValueError(f"unknown request kind {kind!r}")
