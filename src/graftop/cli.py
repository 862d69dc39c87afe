"""Command-line front end: parse trees and bracket expressions, run the
compositions and products, list basis trees, and drive the verification
suites.

Exit codes: 0 success (including weight-mismatch compositions, which print
``0``), 1 verification failure, 2 parse or usage error, 3 unexpected
internal error (for example ``psi`` of a 2,000-vertex chain, which recurses
too deeply).  A reader that closes stdout early is no error: the
run ends quietly, with the code it has when it stops printing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .errors import ParseError, TreeError
from .operad import arrow_lambda, butcher_product, circ_sum, compose_lambda, nap_compose
from .presentation import parse_bracket, phi, psi
from .trees import _labeled_trees, parse_tree

SUITE_CHOICES = ("all", "assoc", "deform", "spec", "iso", "morph")  # "all", *verify.SUITES


def _parse_lambda(text: str) -> Fraction | None:
    if text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}", 0)


def _slot(args):
    """The host ``-S``, its vertex labeled ``-v`` and the inserted tree ``-T``."""
    S, T = parse_tree(args.S), parse_tree(args.T)
    return S, S.ref(args.vertex), T


def _cmd_combination(args) -> int:
    """Print the combination ``args.compute(args)``, specialized at
    ``--lambda``, each term's text under ``args.key`` in the JSON form."""
    lam = _parse_lambda(args.lam)
    combo = args.compute(args)
    if lam is not None:
        combo = combo.specialize(lam)
    if args.json:
        terms = [
            {
                "coeff": [[e, c.numerator, c.denominator] for e, c in poly.terms()],
                args.key: str(term),
            }
            for term, poly in combo.terms()
        ]
        print(json.dumps({"terms": terms}))
    else:
        print(str(combo))
    return 0


def _cmd_butcher(args) -> int:
    tree = butcher_product(parse_tree(args.T), parse_tree(args.S))
    print(json.dumps({"tree": tree.encoding}) if args.json else tree.encoding)
    return 0


def _cmd_nap(args) -> int:
    S, v, T = _slot(args)
    if T.total_weight != v.weight:
        print(json.dumps({"terms": []}) if args.json else "0")
        return 0
    tree = nap_compose(S, v, T)
    print(json.dumps({"tree": tree.encoding}) if args.json else tree.encoding)
    return 0


def _cmd_enumerate(args) -> int:
    weights = args.weights or [1] * args.n
    if len(weights) != args.n:
        raise ParseError(f"expected {args.n} weights, got {len(weights)}", 0)
    trees = _labeled_trees(args.n, weights)
    if args.json:  # json.dumps's layout, each tree printed as it is built
        print('{"trees": [', end="")
        for i, t in enumerate(trees):
            print(", " * (i > 0) + json.dumps(t.encoding), end="")
        print("]}")
    else:
        for t in trees:
            print(t.encoding)
    return 0


@contextlib.contextmanager
def _exact_int_text():
    """Lift the interpreter's limit on int-to-text digits (Python 3.11, and
    3.10 from 3.10.7) for the block, and restore it after."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


@_exact_int_text()
def _cmd_dims(args) -> int:
    dim = args.n ** (args.n - 1)
    if args.json:
        payload = {"n": args.n, "dim": dim}
        if args.wmax:
            payload["by_total_weight"] = _dims_by_weight(args.n, args.wmax, dim)
        print(json.dumps(payload))
        return 0
    print(dim)
    if args.wmax:
        for total, count in _dims_by_weight(args.n, args.wmax, dim):
            print(f"total={total} dim={count}")
    return 0


def _dims_by_weight(n: int, wmax: int, dim: int) -> list[tuple[int, int]]:
    """``(total, count * dim)`` per total weight, where count, the number of
    weight vectors in {1..wmax}^n with that total, is a coefficient of (x + ... + x**wmax)**n."""
    counts = [1]  # coefficient of x**(rounds + i) at index i
    for _ in range(n):
        product = [0] * (len(counts) + wmax - 1)
        for i, c in enumerate(counts):
            for j in range(i, i + wmax):
                product[j] += c
        counts = product
    return [(n + i, c * dim) for i, c in enumerate(counts)]


def _cmd_check(args) -> int:
    from .verify import Universe, reports_to_json, run_suite  # only check loads verify
    universe = None
    if args.nmax is not None or args.wmax is not None:
        universe = Universe(
            3 if args.nmax is None else args.nmax, 3 if args.wmax is None else args.wmax
        )
    reports = run_suite(args.suite, universe, weight_bound=args.weight_bound)
    # set before printing, so that a reader closing the pipe cannot change it
    args.status = 0 if all(r.ok for r in reports) else 1
    if args.json:
        print(reports_to_json(reports))
    else:
        for report in reports:
            print(report.summary())
    return args.status


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _weight_list(text: str) -> list[int]:
    return [_positive_int(w) for w in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graftop",
        description="Exact compositions, grafting products, and bracket "
        "conversions on weighted rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lambda(p):
        p.add_argument(
            "--lambda",
            dest="lam",
            default="symbolic",
            help="specialize the deformation parameter to a rational (default: symbolic)",
        )

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def prints_combination(p, compute, key="tree"):
        add_lambda(p)
        add_json(p)
        p.set_defaults(handler=_cmd_combination, compute=compute, key=key)

    p = sub.add_parser("compose", help="graded partial composition at a labeled vertex")
    p.add_argument("-S", required=True, help="host tree")
    p.add_argument("-v", dest="vertex", required=True, help="label of the slot vertex")
    p.add_argument("-T", required=True, help="inserted tree")
    prints_combination(p, lambda a: compose_lambda(*_slot(a)))

    p = sub.add_parser("arrow", help="deformed grafting product T <- S")
    p.add_argument("-T", required=True)
    p.add_argument("-S", required=True)
    prints_combination(p, lambda a: arrow_lambda(parse_tree(a.T), parse_tree(a.S)))

    p = sub.add_parser("circsum", help="sum of compositions over all slots of T")
    p.add_argument("-T", required=True)
    p.add_argument("-S", required=True)
    prints_combination(p, lambda a: circ_sum(parse_tree(a.T), parse_tree(a.S)))

    p = sub.add_parser("butcher", help="root graft of S onto T")
    p.add_argument("-T", required=True)
    p.add_argument("-S", required=True)
    add_json(p)
    p.set_defaults(handler=_cmd_butcher)

    p = sub.add_parser("nap", help="root-only composition at a labeled vertex")
    p.add_argument("-S", required=True)
    p.add_argument("-v", dest="vertex", required=True)
    p.add_argument("-T", required=True)
    add_json(p)
    p.set_defaults(handler=_cmd_nap)

    p = sub.add_parser("psi", help="rewrite a tree into bracket expressions")
    p.add_argument("-T", required=True)
    prints_combination(p, lambda a: psi(parse_tree(a.T)), key="expr")

    p = sub.add_parser("phi", help="evaluate a bracket expression into trees")
    p.add_argument("-e", dest="expr", required=True)
    prints_combination(p, lambda a: phi(parse_bracket(a.expr)))

    p = sub.add_parser("enumerate", help="all labeled trees on n vertices")
    p.add_argument("-n", type=_positive_int, required=True)
    p.add_argument(
        "--weights", type=_weight_list, help="comma-separated weights a1,..,an (default all 1)"
    )
    add_json(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("dims", help="basis counts for n-vertex components")
    p.add_argument("-n", type=_positive_int, required=True)
    p.add_argument("--wmax", type=_positive_int, help="also tabulate counts by total weight")
    add_json(p)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=SUITE_CHOICES,
    )
    p.add_argument("--nmax", type=_positive_int, help="universe vertex bound")
    p.add_argument("--wmax", type=_positive_int, help="universe weight bound")
    p.add_argument("--weight-bound", type=_positive_int, default=5, help="morphism truncation bound")
    add_json(p)
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early, which is no failure here.  Point
        # stdout at devnull so that the flush at exit does not raise again
        # (the recipe in the Python docs' note on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return getattr(args, "status", 0)
    except (ParseError, TreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
