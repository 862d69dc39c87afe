"""Exhaustive property suites over bounded tree universes, with independent
brute-force oracles and deliberate fault injection to guard against vacuous
passes.

Each check walks every instance in its universe, compares exact symbolic
results, and reports shrunk counterexamples in the tree grammar.  The
oracles here deliberately avoid the production composition engine: trees
are torn down to parent maps or nested shape tuples and reassembled by
separate code.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
import time
from collections import Counter, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .algebra import LambdaPoly, TreeCombination, monomial
from .errors import TreeError
from .operad import (
    GraftMap,
    _fresh_label,
    _morphism_check,
    _pairs,
    _replace_at,
    arrow_lambda,
    compose_lambda,
    compose_with_map,
    iter_graft_maps,
    nap_compose,
    unit,
)
from .presentation import _evaluate, phi, psi
from .trees import (
    WeightedTree,
    _check_label,
    _parent_maps,
    _tree_of_parents,
    enumerate_unlabeled_trees,
    relabel,
    reweight,
)

_EXAMPLE_CAP = 3
_FAILURE_SCAN_CAP = 25


class Universe(namedtuple("Universe", "n_max w_max")):
    """Bounded tree universe: every tree with at most n_max vertices and
    vertex weights in 1..w_max."""

    __slots__ = ()

    @lru_cache(maxsize=None)
    def trees(self, prefix: str = "a") -> tuple[WeightedTree, ...]:
        """Every labeled tree, vertices labeled ``prefix1``, ``prefix2``, ...,
        by size, then weight vector, then ``enumerate_labeled_trees``'s order.
        Equal subtrees are one object, known by its label, its weight and
        its children's identities, which ``_tree_of_parents`` passes in
        label order."""
        labels = [f"{prefix}{i + 1}" for i in range(self.n_max)]
        for label in labels:
            _check_label(label)
        nodes: dict = {}

        def make(label, weight, kids):
            key = (label, weight, *map(id, kids))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = WeightedTree._node(label, weight, kids)
            return node

        out = []
        for n in range(1, self.n_max + 1):
            maps = list(_parent_maps(labels[:n]))
            for vec in itertools.product(range(1, self.w_max + 1), repeat=n):
                weights = dict(zip(labels, vec))
                out.extend(_tree_of_parents(parents, weights, make) for parents in maps)
        return tuple(out)

    def shapes(self, prefix: str = "a") -> tuple[WeightedTree, ...]:
        """All-1-weight labeled trees, one per labeled shape."""
        return Universe(self.n_max, 1).trees(prefix)

    @lru_cache(maxsize=None)
    def unlabeled_trees(self) -> tuple[WeightedTree, ...]:
        return tuple(t for n in range(1, self.n_max + 1) for t in enumerate_unlabeled_trees(n, self.w_max))


DEFAULT_TRIPLE_UNIVERSE = Universe(3, 3)
DEFAULT_PAIR_UNIVERSE = Universe(4, 2)


class CheckReport(namedtuple("CheckReport", "name instances failure_count counterexamples seconds")):
    """Outcome of one check: instance count, failures, wall time."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        """Passed: at least one instance ran and none failed."""
        return self.instances > 0 and self.failure_count == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "failures": self.failure_count,
            "counterexamples": list(self.counterexamples),
            "seconds": round(self.seconds, 3),
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        line = f"{status} {self.name}: {self.instances} instances, {self.failure_count} failures ({self.seconds:.2f}s)"
        if self.counterexamples:
            line += "\n      e.g. " + self.counterexamples[0]
        return line


# ---------------------------------------------------------------------------
# Check runner.

_CHUNK = 32  # instances per unit of work when a check is sharded


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run(name: str, instances, shard: bool = True) -> CheckReport:
    """Run one check over ``instances``, a stream that yields, per instance,
    the lazy iterable of that instance's failure descriptions.  Keeps the
    first ``_EXAMPLE_CAP`` descriptions and stops after the instance that
    brings the failure count to ``_FAILURE_SCAN_CAP``.

    With ``shard`` set, the parent pulls the first ``_CHUNK`` instances per
    available CPU, unscanned; if the stream goes on past them, forked
    children, one per CPU, each walk their own copy of the pulled
    instances and the rest of the stream and scan their share of its
    chunks of ``_CHUNK`` instances, while the parent only merges.  The
    report is the in-process scan's apart from ``seconds``.  The scan stays
    in-process with one CPU, without ``os.fork``, while another thread is
    alive, or on a stream that ends, or raises, among the pulled instances.
    A fault gate passes ``shard=False``: it stops within a few dozen
    instances, while every child would scan on to its own cap."""
    start = time.perf_counter()
    shards = _cpus() if shard and hasattr(os, "fork") and threading.active_count() == 1 else 1
    if shards > 1:
        head, rest = _pull(instances, shards * _CHUNK)
        instances = itertools.chain(head, rest)
        if len(head) < shards * _CHUNK:
            shards = 1
    records = _forked(instances, shards) if shards > 1 else _scan(instances)
    count = failures = 0
    examples: list[str] = []
    for index, found in records:
        if found is None:
            count = index
            break
        if isinstance(found, Exception):
            raise found
        failures += len(found)
        examples += found[: _EXAMPLE_CAP - len(examples)]
        if failures >= _FAILURE_SCAN_CAP:
            count = index + 1
            break
    return CheckReport(name, count, failures, tuple(examples), time.perf_counter() - start)


def _pull(instances, n: int):
    """The first ``n`` instances of the stream as a list, and the rest of
    it; if pulling them raises, the rest raises that when read, so a scan
    meets the exception at its index."""
    instances, head = iter(instances), []
    try:
        for found in itertools.islice(instances, n):
            head.append(found)
    except Exception as exc:
        instances = _raising(exc)
    return head, instances


def _raising(exc: Exception):
    """A stream that raises ``exc`` at its first item."""
    yield from ()
    raise exc


def _scan(instances, shard: int = 0, shards: int = 1):
    """Scan the chunks ``shard``, ``shard + shards``, ... of ``instances``
    and skip the others unread; with ``shards`` 1, scan the whole stream.
    Yields ``(index, descriptions)`` for each failing instance, this scan's
    first ``_EXAMPLE_CAP`` as text, the only ones a report can show, and
    the rest as ``None``; stops after the instance that brings this scan's
    failure count to ``_FAILURE_SCAN_CAP``.  An instance that raises, in
    the stream or in its own scan, yields ``(index, exception)`` and ends
    the scan.  A scan that runs out yields ``(number of instances, None)``.

    Sharded scans stop no earlier than the serial one: a shard reaches its
    own cap at or after the instance where all shards together reach it."""
    failures = index = 0
    try:
        for found in instances:
            if index // _CHUNK % shards == shard:
                descriptions = list(found)
                if descriptions:
                    shown = _EXAMPLE_CAP - failures
                    yield index, [str(d) if i < shown else None for i, d in enumerate(descriptions)]
                    failures += len(descriptions)
                    if failures >= _FAILURE_SCAN_CAP:
                        return
            index += 1
    except Exception as exc:
        yield index, exc
        return
    yield index, None


def _forked(instances, shards: int) -> list:
    """The records of ``_scan`` over ``instances`` in index order, shard k
    scanned in the k-th of ``shards`` forked children.  A child sends its
    records back pickled through a pipe and leaves through ``os._exit``, so
    it neither flushes the stdio buffers it inherited nor runs exit hooks;
    every child is waited for, whatever happens in the parent."""
    import pickle

    children = []  # [pid, read end of its pipe]
    results = []
    try:
        for shard in range(shards):
            read, write = os.pipe()
            children.append([0, read])
            try:
                pid = os.fork()
                if pid == 0:
                    _child(instances, shard, shards, write)
            finally:
                os.close(write)
            children[-1][0] = pid
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                results.append(pipe.read())
    finally:
        for pid, read in children:
            os.close(read)
            if pid:
                os.waitpid(pid, 0)
    if not all(results):
        raise RuntimeError("a check worker exited without sending its results")
    records = [record for data in results for record in pickle.loads(data)]
    records.sort(key=lambda record: record[0])
    return records


def _child(instances, shard: int, shards: int, write: int) -> None:
    """Scan one shard, write its pickled records to ``write`` and exit; a
    child that cannot send them exits with nothing written."""
    import pickle

    status = 1
    try:
        records = pickle.dumps(list(_scan(instances, shard, shards)))
        with open(write, "wb") as pipe:
            pipe.write(records)
        status = 0
    finally:
        os._exit(status)


class _Counterexample:
    """A failing instance of a law, shrunk and described only when read
    through ``str()``: each tree named by the matching letter of ``names``."""

    def __init__(self, trees: tuple, holds, names: str):
        self.trees, self.holds, self.names = trees, holds, names

    def __str__(self) -> str:
        small = shrink_instance(self.trees, lambda c: not self.holds(*c))
        return " ".join(f"{n}={t.encoding}" for n, t in zip(self.names, small))


def _law(holds, names: str):
    """The failures of a law on one instance, a tuple of trees: none when
    ``holds(*trees)``, else one ``_Counterexample``."""

    def failures(trees):
        if not holds(*trees):
            yield _Counterexample(trees, holds, names)

    return failures


# ---------------------------------------------------------------------------
# Fault injection (harness only): the production operations with their
# exponents raised.  Each suite gets the smallest exponent-style bug it can
# actually observe.

def _raised(combo: TreeCombination, root: int, rest: int) -> TreeCombination:
    """``combo`` with its constant-coefficient term, the root map of a
    composition or the root graft of a grafting, times L**root and every
    other term times L**rest."""
    return TreeCombination._raw(
        {t: c * monomial(root if c.degree == 0 else rest) for t, c in combo._terms.items()}
    )


def _faulty_compose(root: int, rest):
    """compose_lambda with the root-map exponent raised by ``root`` and
    every other exponent by ``rest(S)`` for the host S."""
    return lambda S, v, T: _raised(compose_lambda(S, v, T), root, rest(S))


def _faulty_arrow(x, y) -> TreeCombination:
    """arrow_lambda, applied to each pair of terms, with every graft below
    the root raised by one power of L."""
    return TreeCombination._sum((c, _raised(arrow_lambda(t, s), 0, 1)) for c, t, s in _pairs(x, y))


# ---------------------------------------------------------------------------
# Independent oracles.

def _parent_map(tree: WeightedTree):
    parents: dict[str, str | None] = {}
    weights: dict[str, int] = {}
    stack = [(tree, None)]
    while stack:
        node, par = stack.pop()
        parents[node.label] = par
        weights[node.label] = node.weight
        for child in node.children:
            stack.append((child, node.label))
    return parents, weights


def _oracle_substitutions(s_map, v_label: str, t_map, root_only: bool):
    """The ``(parents, weights)`` maps of ``oracle_compose_terms``, one per
    reattachment and in its order, from the ``_parent_map`` of S and of T;
    ``root_only`` reattaches at T's root alone."""
    (sp, sw), (tp, tw) = s_map, t_map
    targets = [lab for lab, par in tp.items() if par is None] if root_only else sorted(tp)
    moved = sorted(lab for lab, par in sp.items() if par == v_label)
    base = {lab: par for lab, par in sp.items() if lab != v_label}
    weights = {lab: w for lab, w in sw.items() if lab != v_label}
    for lab, par in tp.items():
        base[lab] = par if par is not None else sp[v_label]
        weights[lab] = tw[lab]
    for assignment in itertools.product(targets, repeat=len(moved)):
        parents = dict(base)
        parents.update(zip(moved, assignment))
        yield parents, weights


def oracle_compose_terms(S: WeightedTree, v_label: str, T: WeightedTree) -> Iterator[WeightedTree]:
    """All substitution results of T for the vertex v_label of S, one per
    reattachment of v's children, by direct parent-map surgery; a lazy
    stream that builds each tree, validated, only when it is reached."""
    maps = _oracle_substitutions(_parent_map(S), v_label, _parent_map(T), False)
    return itertools.starmap(_tree_of_parents, maps)


def oracle_compose_root(S: WeightedTree, v_label: str, T: WeightedTree) -> WeightedTree:
    """The substitution that reattaches every moved branch at T's root."""
    maps = _oracle_substitutions(_parent_map(S), v_label, _parent_map(T), True)
    return _tree_of_parents(*next(maps))


def _matches_oracle(combo: TreeCombination, s_map, v_label: str, t_map, root_only: bool) -> bool:
    """Whether ``combo`` is the sum, each with coefficient 1, of the oracle's
    substitutions, compared as sets of ``(label, parent, weight)``."""
    vertex_sets = lambda maps: {frozenset(zip(p, p.values(), map(w.__getitem__, p))) for p, w in maps}
    want = vertex_sets(_oracle_substitutions(s_map, v_label, t_map, root_only))
    if len(combo) != len(want) or any(c != 1 for c in combo._terms.values()):
        return False
    return vertex_sets(map(_parent_map, combo._terms)) == want


Shape = tuple  # (weight, tuple of child shapes), recursively


def tree_shape(tree: WeightedTree) -> Shape:
    return (tree.weight, tuple(sorted(tree_shape(c) for c in tree.children)))


def oracle_graft_counts(t: Shape, s: Shape) -> Counter:
    """Graft s below every vertex of t, counted with multiplicity, on bare
    nested shape tuples."""
    counts = Counter([(t[0], tuple(sorted(t[1] + (s,))))])
    for i, child in enumerate(t[1]):
        for grafted, n in oracle_graft_counts(child, s).items():
            kids = t[1][:i] + (grafted,) + t[1][i + 1:]
            counts[(t[0], tuple(sorted(kids)))] += n
    return counts


def oracle_graft_product(x: dict, y: dict) -> Counter:
    """Extend the shape graft bilinearly to integer combinations of shapes."""
    out: Counter = Counter()
    for (a, m), (b, n) in itertools.product(x.items(), y.items()):
        out.update({shape: m * n * k for shape, k in oracle_graft_counts(a, b).items()})
    return out


# ---------------------------------------------------------------------------
# Shrinking.

def _delete_at(tree: WeightedTree, path) -> WeightedTree:
    """``tree`` without the leaf at ``path``."""
    node, i = tree.node_at(path[:-1]), path[-1]
    kids = node.children[:i] + node.children[i + 1:]
    return _replace_at(tree, path[:-1], WeightedTree._node(node.label, node.weight, kids))


def _decrement_at(tree: WeightedTree, path) -> WeightedTree:
    """``tree`` with the weight at ``path``, which is above 1, lowered by 1."""
    node = tree.node_at(path)
    return _replace_at(tree, path, WeightedTree._node(node.label, node.weight - 1, node.children))


def _reductions(tree: WeightedTree):
    for path, node in tree.walk():
        if path and not node.children:
            yield _delete_at(tree, path)
    for path, node in tree.walk():
        if node.weight > 1:
            yield _decrement_at(tree, path)


def shrink_instance(trees: tuple, still_fails) -> tuple:
    """Greedy minimization: drop leaves and decrement weights while the
    failure persists."""
    current = tuple(trees)
    while True:
        candidates = (
            current[:i] + (smaller,) + current[i + 1:]
            for i, t in enumerate(current)
            for smaller in _reductions(t)
        )
        for candidate in candidates:
            try:
                if still_fails(candidate):
                    current = candidate
                    break
            except TreeError:
                continue
        else:
            return current


# ---------------------------------------------------------------------------
# Checks.

def _group_by_weight(trees):
    grouped: dict[int, list[WeightedTree]] = {}
    for t in trees:
        grouped.setdefault(t.total_weight, []).append(t)
    return grouped


def _slots(universe: Universe):
    """Every (S, v, T): a host, one of its vertices and an inserted tree
    whose total weight is that vertex's weight."""
    ts = _group_by_weight(universe.trees("t"))
    return (
        (S, v, T) for S in universe.trees("s") for v in S.vertices() for T in ts.get(v.weight, ())
    )


def _shape_slots(universe: Universe):
    """Every (S, T, v) over the all-1-weight shapes: host, inserted tree and
    a vertex of the host."""
    t_shapes = universe.shapes("t")
    return ((S, T, v) for S in universe.shapes("s") for T in t_shapes for v in S.vertices())


def _into_terms(compose, combo: TreeCombination, label: str, X: WeightedTree) -> TreeCombination:
    """``compose(term, term.ref(label), X)`` summed over the terms of
    ``combo``, each with its coefficient."""
    return TreeCombination._sum(
        (coeff, compose(term, term.ref(label), X)) for term, coeff in combo._terms.items()
    )


def _per_pair(compose):
    """``outer(S, T)``: ``(v, compose(S, v, T))`` for every slot v of S that
    fits T, kept for the last (S, T) pair only.  The nested law's stream
    visits every U of one pair in a row, so it composes S with T once per
    pair; the disjoint law's stream meets a T once per U weight of the
    host, with other T's in between, so it composes S with T once per
    (S, T, U weight) group."""
    last = [None, None, None]

    def outer(S, T):
        if last[0] is not S or last[1] is not T:
            last[:] = S, T, [(v, compose(S, v, T)) for v in S.vertices() if v.weight == T.total_weight]
        return last[2]

    return outer


def check_nested_associativity(universe: Universe | None = None, fault: bool = False) -> CheckReport:
    """Composing into a slot of the inserted tree agrees with composing the
    inserted tree first, exhaustively over weight-compatible triples."""
    universe = universe or DEFAULT_TRIPLE_UNIVERSE
    compose = _faulty_compose(0, lambda S: 1) if fault else compose_lambda
    outer = _per_pair(compose)

    def holds(S, T, U):
        for v, st in outer(S, T):
            for w in T.vertices():
                if U.total_weight != w.weight:
                    continue
                lhs = _into_terms(compose, st, w.label, U)
                rhs = TreeCombination._sum(
                    (coeff, compose(S, v, term)) for term, coeff in compose(T, w, U)._terms.items()
                )
                if lhs != rhs:
                    return False
        return True

    ts = _group_by_weight(universe.trees("t"))
    us = _group_by_weight(universe.trees("u"))
    triples = (
        (S, T, U)
        for S in universe.trees("s")
        for wt in {node.weight for _, node in S.walk()}
        for T in ts.get(wt, ())
        for wu in {node.weight for _, node in T.walk()}
        for U in us.get(wu, ())
    )
    return _run("nested-associativity", map(_law(holds, "STU"), triples), shard=not fault)


def check_disjoint_associativity(universe: Universe | None = None, fault: bool = False) -> CheckReport:
    """Composing into two different slots of the same host commutes,
    exhaustively over weight-compatible triples."""
    universe = universe or DEFAULT_TRIPLE_UNIVERSE
    # A plain +1 on non-root maps is provably invisible to the disjoint law
    # (the pairing of maps preserves per-map minimality), so this bug scales
    # with the host size instead.
    compose = _faulty_compose(0, lambda S: S.size - 1) if fault else compose_lambda
    outer = _per_pair(compose)

    def holds(S, T, U):
        # Every ordered pair of distinct slots, T into v and U into w.
        into_u: dict = {}
        for v, st in outer(S, T):
            for w in S.vertices():
                if w.path == v.path or U.total_weight != w.weight:
                    continue
                su = into_u.get(w.path)
                if su is None:
                    su = into_u[w.path] = compose(S, w, U)
                if _into_terms(compose, st, w.label, U) != _into_terms(compose, su, v.label, T):
                    return False
        return True

    ts = _group_by_weight(universe.trees("t"))
    us = _group_by_weight(universe.trees("u"))
    triples = (
        (S, T, U)
        for S in universe.trees("s")
        if S.size >= 2
        for wt, wu in itertools.combinations_with_replacement(
            sorted({node.weight for _, node in S.walk()}), 2
        )
        for T in ts.get(wt, ())
        for U in us.get(wu, ())
    )
    return _run("disjoint-associativity", map(_law(holds, "STU"), triples), shard=not fault)


def check_unit_laws(universe: Universe | None = None, fault: bool = False) -> CheckReport:
    """One-vertex trees of matching weight act as left and right identity."""
    universe = universe or DEFAULT_TRIPLE_UNIVERSE
    compose = _faulty_compose(1, lambda S: 1) if fault else compose_lambda

    def failures(T):
        u = unit(T.total_weight, _fresh_label(T.labels))
        if compose(u, u.ref(u.label), T) != TreeCombination.of(T):
            yield f"left unit on T={T.encoding}"
        heavy = unit(T.total_weight + 1, u.label)
        if compose(heavy, heavy.ref(u.label), T):
            yield f"weight-mismatched left unit not zero on T={T.encoding}"
        for v in T.vertices():
            if compose(T, v, unit(v.weight, v.label)) != TreeCombination.of(T):
                yield f"right unit on T={T.encoding} at v={v.label}"

    return _run("unit-laws", map(failures, universe.trees("a")), shard=not fault)


def check_equivariance(
    universe: Universe | None = None, fault: bool = False, seed: int = 0
) -> CheckReport:
    """Relabeling commutes with composition: rename first or compose first."""
    universe = universe or DEFAULT_TRIPLE_UNIVERSE
    rng = random.Random(seed)
    pool = [f"p{i}" for i in range(40)]

    def failures(S, v, T, names):
        sigma = dict(zip(sorted(S.labels), names[: len(S.labels)]))
        tau = dict(zip(sorted(T.labels), names[len(S.labels):]))
        S2 = relabel(S, sigma)
        T2 = relabel(T, tau)
        left = compose_lambda(S2, S2.ref(sigma[v.label]), T2)
        combined = {**{k: w for k, w in sigma.items() if k != v.label}, **tau}
        if fault:
            # relabel-bookkeeping bug: two renamed vertices swapped
            keys = sorted(combined)
            if len(keys) >= 2:
                a, b = keys[0], keys[1]
                combined[a], combined[b] = combined[b], combined[a]
        base = compose_lambda(S, v, T)
        right = TreeCombination(
            tuple((relabel(term, combined), coeff) for term, coeff in base.terms())
        )
        if left != right:
            yield f"S={S.encoding} v={v.label} T={T.encoding}"

    # The names are drawn in the stream, in instance order, so that every
    # process that scans a share of it sees the same draws.
    instances = (
        (S, v, T, rng.sample(pool, len(S.labels) + len(T.labels))) for S, v, T in _slots(universe)
    )
    return _run("equivariance", itertools.starmap(failures, instances), shard=not fault)


def check_minimality(universe: Universe | None = None, fault: bool = False) -> CheckReport:
    """Exponents are nonnegative and vanish exactly on the root map when the
    inserted tree has at least two vertices and branches actually move."""
    universe = universe or DEFAULT_TRIPLE_UNIVERSE
    bump = 1 if fault else 0

    def failures(S, v, T):
        d0 = compose_with_map(S, v, T, GraftMap.root_map(S, v, T)).energy
        zero_exponents = 0
        for f in iter_graft_maps(S, v, T):
            exp = compose_with_map(S, v, T, f).energy - d0 + bump
            if exp < 0:
                yield f"negative exponent S={S.encoding} v={v.label} T={T.encoding}"
            if exp == 0:
                zero_exponents += 1
        if T.size >= 2 and v.node.children and zero_exponents != 1:
            yield f"minimal map not unique S={S.encoding} v={v.label} T={T.encoding}"

    instances = itertools.starmap(failures, _slots(universe))
    return _run("root-map-minimality", instances, shard=not fault)


def check_deformed_identity(universe: Universe | None = None, fault: bool = False) -> CheckReport:
    """The symbolic grafting identity: the weighted associator of the graft
    product is symmetric in its last two arguments."""
    universe = universe or Universe(3, 2)
    arrow = _faulty_arrow if fault else arrow_lambda

    def associator(U, X, Y):
        return arrow(arrow(U, X), Y) - LambdaPoly.monomial(Y.total_weight) * arrow(U, arrow(X, Y))

    def holds(U, T, S):
        return associator(U, T, S) == associator(U, S, T)

    def oracle_failures(U, T, S):
        # Parameter 1, all weights 1: the classical right pre-Lie identity,
        # cross-checked against the shape oracle.
        u, t, s = tree_shape(U), tree_shape(T), tree_shape(S)
        ut = oracle_graft_counts(u, t)
        us = oracle_graft_counts(u, s)
        ts_ = oracle_graft_counts(t, s)
        st = oracle_graft_counts(s, t)
        lhs = oracle_graft_product(ut, {s: 1})
        lhs.subtract(oracle_graft_product({u: 1}, ts_))
        rhs = oracle_graft_product(us, {t: 1})
        rhs.subtract(oracle_graft_product({u: 1}, st))
        if lhs != rhs:
            yield f"oracle identity U={U.encoding} T={T.encoding} S={S.encoding}"
        lib = arrow_lambda(U, T).specialize(Fraction(1))
        lib_counts: dict = {}
        for term, coeff in lib._terms.items():
            lib_counts[tree_shape(term)] = int(coeff.coefficient(0))
        if lib_counts != ut:
            yield f"graft vs oracle U={U.encoding} T={T.encoding}"

    pool = universe.unlabeled_trees()
    stream = map(_law(holds, "UTS"), itertools.product(pool, repeat=3))
    if not fault:
        ones = [t for t in pool if t.total_weight == t.size]
        stream = itertools.chain(
            stream, itertools.starmap(oracle_failures, itertools.product(ones, repeat=3))
        )
    return _run("deformed-identity", stream, shard=not fault)


def check_specializations(universe: Universe | None = None, fault: bool = False) -> CheckReport:
    """Parameter 0 keeps exactly the root-reattachment term and parameter 1
    flattens to the classical all-maps composition, both matched against the
    parent-map oracle."""
    universe = universe or DEFAULT_PAIR_UNIVERSE
    compose = _faulty_compose(1, lambda S: 1) if fault else compose_lambda

    def failures(S, T, v):
        Sg = reweight(
            S,
            {lab: (T.total_weight if lab == v.label else 1) for lab in S.labels},
        )
        vg = Sg.ref(v.label)
        full = compose(Sg, vg, T)
        s_map, t_map = _parent_map(Sg), _parent_map(T)
        at_zero = full.specialize(Fraction(0))
        if not _matches_oracle(at_zero, s_map, v.label, t_map, True):
            yield f"parameter-0 S={Sg.encoding} v={v.label} T={T.encoding}"
        if at_zero and next(iter(at_zero._terms)) != nap_compose(Sg, vg, T):
            yield f"root-only composition S={Sg.encoding} v={v.label} T={T.encoding}"
        if not _matches_oracle(full.specialize(Fraction(1)), s_map, v.label, t_map, False):
            yield f"parameter-1 S={Sg.encoding} v={v.label} T={T.encoding}"

    def weighted_failures(S, v, T):
        # Weighted sweep: wherever a slot weight matches, parameter 0 picks
        # out exactly the root-only composition.
        at_zero = compose_lambda(S, v, T).specialize(Fraction(0))
        if at_zero != TreeCombination.of(nap_compose(S, v, T)):
            yield f"weighted parameter-0 S={S.encoding} v={v.label} T={T.encoding}"

    stream = itertools.starmap(failures, _shape_slots(universe))
    if not fault:
        stream = itertools.chain(stream, itertools.starmap(weighted_failures, _slots(universe)))
    return _run("specializations", stream, shard=not fault)


def check_roundtrip_psi_phi(universe: Universe | None = None, fault: bool = False) -> CheckReport:
    """phi inverts psi exactly, for every tree and every root branch order."""
    universe = universe or DEFAULT_PAIR_UNIVERSE
    if fault:
        # A memo of its own, so the faulty products never reach phi's.
        memo: dict = {}
        evaluate = lambda combo: _evaluate(combo, _faulty_arrow, memo)
    else:
        evaluate = phi

    def failures(T):
        expected = TreeCombination.of(T)
        if evaluate(psi(T)) != expected:
            yield f"roundtrip T={T.encoding}"
            return
        p = len(T.children)
        if p >= 2:
            for order in itertools.permutations(range(p)):
                if evaluate(psi(T, order)) != expected:
                    yield f"branch order {order} on T={T.encoding}"
                    return

    return _run("bracket-roundtrip", map(failures, universe.trees("x")), shard=not fault)


def check_morphisms_i_j(
    universe: Universe | None = None, weight_bound: int = 5, fault: bool = False
) -> CheckReport:
    """Truncated morphism equalities for the classical-to-graded embeddings,
    checked both for the all-maps and the root-only composition."""
    universe = universe or Universe(3, 1)
    compose = _faulty_compose(1, lambda S: 1) if fault else compose_lambda

    def failures(S, T, v):
        if not _morphism_check(S, T, v, weight_bound, 1, compose):
            yield f"all-maps morphism S={S.encoding} v={v.label} T={T.encoding}"
        if not _morphism_check(S, T, v, weight_bound, 0, compose):
            yield f"root-only morphism S={S.encoding} v={v.label} T={T.encoding}"

    instances = itertools.starmap(failures, _shape_slots(universe))
    return _run("morphism-truncations", instances, shard=not fault)


SUITES = {
    "assoc": (
        check_nested_associativity,
        check_disjoint_associativity,
        check_unit_laws,
        check_equivariance,
        check_minimality,
    ),
    "deform": (check_deformed_identity,),
    "spec": (check_specializations,),
    "iso": (check_roundtrip_psi_phi,),
    "morph": (check_morphisms_i_j,),
}


def run_suite(
    name: str,
    universe: Universe | None = None,
    weight_bound: int = 5,
    fault: bool = False,
) -> list[CheckReport]:
    """Run one named suite (or ``all``) and return its reports."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    kwargs = {check_morphisms_i_j: {"weight_bound": weight_bound}}
    return [
        check(universe, fault=fault, **kwargs.get(check, {}))
        for key in SUITES
        if name in ("all", key)
        for check in SUITES[key]
    ]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2)
