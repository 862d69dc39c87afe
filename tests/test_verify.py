"""Verification harness: universes, reports, oracles, shrinking, faults."""

import itertools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from graftop import (
    LambdaPoly,
    TreeCombination,
    TreeError,
    WeightedTree,
    arrow_lambda,
    compose_lambda,
    enumerate_labeled_trees,
    nap_compose,
    parse_tree,
    psi,
    reweight,
    verify,
)
from graftop.operad import GraftMap
from graftop.trees import _tree_of_parents
from graftop.verify import (
    CheckReport,
    Universe,
    check_deformed_identity,
    check_disjoint_associativity,
    check_equivariance,
    check_minimality,
    check_morphisms_i_j,
    check_nested_associativity,
    check_roundtrip_psi_phi,
    check_specializations,
    check_unit_laws,
    oracle_compose_root,
    oracle_compose_terms,
    oracle_graft_counts,
    reports_to_json,
    run_suite,
    shrink_instance,
    tree_shape,
)
from test_operad import _oracle_compose_cases
from test_trees import assert_matches_validated

SMALL = Universe(2, 2)
TRIPLE = Universe(3, 2)


def test_universe_counts_match_cayley_times_weights():
    # n-vertex layer holds n^(n-1) shapes times w_max^n weight vectors
    trees = Universe(3, 2).trees("a")
    assert len(trees) == 1 * 2 + 2 * 4 + 9 * 8
    assert len(set(trees)) == len(trees)


def universe_trees_by_reweighting(universe, prefix):
    """Reference: every weight vector applied to every all-1 labeled shape
    through ``reweight``, by size, then by weight vector, then by shape."""
    out = []
    for n in range(1, universe.n_max + 1):
        labels = [f"{prefix}{i + 1}" for i in range(n)]
        shapes = enumerate_labeled_trees(n, [1] * n, labels)
        for vec in itertools.product(range(1, universe.w_max + 1), repeat=n):
            assignment = dict(zip(labels, vec))
            out.extend(reweight(shape, assignment) for shape in shapes)
    return tuple(out)


@pytest.mark.parametrize(
    "universe", [Universe(n, w) for n in range(1, 5) for w in range(1, 4)] + [Universe(5, 1)]
)
def test_universe_trees_equal_the_reweighted_shapes(universe):
    for prefix in ("a", "q7_"):
        trees = universe.trees(prefix)
        assert [t.encoding for t in trees] == [
            t.encoding for t in universe_trees_by_reweighting(universe, prefix)
        ]
        for t in trees[:: max(1, len(trees) // 40)]:
            assert_matches_validated(t)


@pytest.mark.parametrize("universe", [Universe(1, 1), Universe(3, 2)])
@pytest.mark.parametrize("prefix", ["a-", " ", "x:"])
def test_universe_rejects_a_bad_prefix_as_before(universe, prefix):
    with pytest.raises(TreeError) as want:
        universe_trees_by_reweighting(universe, prefix)
    with pytest.raises(TreeError) as got:
        universe.trees(prefix)
    assert str(got.value) == str(want.value) == f"invalid label {prefix + '1'!r}"


def traced(run):
    """``run()``'s result, the peak of the memory it traced and the memory
    still traced when it returned, both above what was traced when it
    started."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        kept, peak = tracemalloc.get_traced_memory()
        return result, peak - before, kept - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_universe_builds_no_shape_copies():
    # Built straight from parent maps, Universe(5, 1) peaks at about 0.74 MB
    # traced; built as validated shapes copied through reweight, at 2.04 MB.
    trees, peak, _ = traced(lambda: Universe(5, 1).trees("fresh"))  # a prefix no other test builds
    assert len(trees) == 1 + 2 + 9 + 64 + 625
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("universe", [Universe(4, 2), Universe(5, 1)], ids=["4-2", "5-1"])
def test_universe_shares_equal_subtrees(universe):
    # One node object per distinct subtree, across sizes, parent maps and
    # weight vectors: Universe(5, 1) has 3,413 vertices and 1,060 subtrees.
    for prefix in ("a", "sh"):
        nodes = [node for t in universe.trees(prefix) for _, node in t.walk()]
        assert len({id(node) for node in nodes}) == len({node.encoding for node in nodes})


def test_universe_keeps_its_trees_in_shared_nodes():
    # With shared subtrees, Universe(5, 1) keeps about 0.31 MB traced; with
    # a node of its own for every vertex of every tree, 0.65 MB.
    trees, _, kept = traced(lambda: Universe(5, 1).trees("kept"))  # a prefix no other test builds
    assert len(trees) == 701
    assert kept < 400_000, kept


def test_universe_unlabeled_counts():
    assert len(Universe(3, 2).unlabeled_trees()) == 2 + 4 + 14


def test_oracle_composer_agrees_on_reference_instance():
    S = parse_tree("a:1[b:3[c:2,d:1]]")
    T = parse_tree("e:2[h:1]")
    terms = list(oracle_compose_terms(S, "b", T))
    assert len(terms) == 4
    assert oracle_compose_root(S, "b", T) == parse_tree("a:1[e:2[c:2,d:1,h:1]]")
    assert parse_tree("a:1[e:2[h:1[c:2,d:1]]]") in terms


def test_oracle_composer_on_deep_host_does_not_recurse():
    # the host is a chain deeper than the default recursion limit, its slot
    # at the bottom
    n = 1500
    S = WeightedTree(f"s{n - 1}", 2, (WeightedTree(f"s{n}", 1),))
    for i in range(n - 2, 0, -1):
        S = WeightedTree(f"s{i}", 1, (S,))
    T = parse_tree("x:1[y:1]")
    combo = compose_lambda(S, S.ref(f"s{n - 1}"), T)
    assert sorted(oracle_compose_terms(S, f"s{n - 1}", T), key=str) == sorted(combo.support(), key=str)
    assert oracle_compose_root(S, f"s{n - 1}", T) == nap_compose(S, S.ref(f"s{n - 1}"), T)


def oracle_substitutions_as_list(S, v_label, T, root_only):
    """Reference: the parent-map oracle as it was before it streamed, every
    substitution built as a validated tree and kept in a list."""
    sp, sw = verify._parent_map(S)
    tp, tw = verify._parent_map(T)
    targets = [lab for lab, par in tp.items() if par is None] if root_only else sorted(tp)
    moved = sorted(lab for lab, par in sp.items() if par == v_label)
    base = {lab: par for lab, par in sp.items() if lab != v_label}
    weights = {lab: w for lab, w in sw.items() if lab != v_label}
    for lab, par in tp.items():
        base[lab] = par if par is not None else sp[v_label]
        weights[lab] = tw[lab]
    out = []
    for assignment in itertools.product(targets, repeat=len(moved)):
        parents = dict(base)
        parents.update(zip(moved, assignment))
        out.append(_tree_of_parents(parents, weights))
    return out


def test_oracle_stream_yields_the_listed_trees_in_order():
    cases = 0
    for S, v, T in itertools.chain(verify._slots(TRIPLE), _oracle_compose_cases()):
        listed = oracle_substitutions_as_list(S, v.label, T, False)
        assert list(oracle_compose_terms(S, v.label, T)) == listed
        assert oracle_compose_root(S, v.label, T) == oracle_substitutions_as_list(S, v.label, T, True)[0]
        cases += 1
    assert cases > 1000


def test_oracle_stream_holds_one_substitution_at_a_time():
    # The CI's five-branch composition, 6**5 substitutions: listed, they
    # peaked at about 50 MB traced.
    S = parse_tree("r:1[v:7[b1:1,b2:2[c:1],b3:1,b4:3,b5:1]]")
    T = parse_tree("x:2[y:1[z:1],w:1[q:1],p:1]")
    count, peak, _ = traced(lambda: sum(1 for _ in oracle_compose_terms(S, "v", T)))
    assert count == 7776
    assert peak < 1_000_000, peak


def test_oracle_graft_counts_symmetric_host():
    host = tree_shape(parse_tree("_:1[_:1,_:1]"))
    leaf = tree_shape(parse_tree("_:1"))
    counts = oracle_graft_counts(host, leaf)
    # root graft once, and the two identical leaves collapse to one shape
    assert counts[tree_shape(parse_tree("_:1[_:1,_:1,_:1]"))] == 1
    assert counts[tree_shape(parse_tree("_:1[_:1,_:1[_:1]]"))] == 2


@pytest.mark.parametrize(
    "check",
    [
        check_nested_associativity,
        check_disjoint_associativity,
        check_unit_laws,
        check_equivariance,
        check_minimality,
    ],
)
def test_axiom_checks_pass_on_small_universe(check):
    report = check(SMALL)
    assert report.ok
    assert report.instances > 0
    assert report.counterexamples == ()


def test_specialization_and_iso_checks_pass_small():
    assert check_specializations(SMALL).ok
    assert check_roundtrip_psi_phi(SMALL).ok
    assert check_deformed_identity(SMALL).ok
    assert check_morphisms_i_j(Universe(2, 1), weight_bound=4).ok


@pytest.mark.parametrize(
    "check, universe",
    [
        # the nested fault needs weight-3 slots before a non-minimal map can
        # appear on both composition stages
        (check_nested_associativity, Universe(3, 3)),
        (check_disjoint_associativity, TRIPLE),
        (check_unit_laws, SMALL),
        (check_equivariance, SMALL),
        (check_minimality, SMALL),
        (check_specializations, SMALL),
        (check_deformed_identity, SMALL),
        (check_roundtrip_psi_phi, Universe(3, 2)),
    ],
)
def test_fault_injection_is_detected(check, universe):
    report = check(universe, fault=True)
    assert report.failure_count >= 1
    assert report.counterexamples


# Each gate that injects an exponent fault, the production operation it
# perturbs, and a universe where the fault shows.
PRODUCTION_FAULTS = [
    (check_nested_associativity, Universe(3, 3), "compose_lambda"),
    (check_disjoint_associativity, TRIPLE, "compose_lambda"),
    (check_unit_laws, SMALL, "compose_lambda"),
    (check_specializations, SMALL, "compose_lambda"),
    (check_deformed_identity, SMALL, "arrow_lambda"),
    (check_roundtrip_psi_phi, Universe(3, 2), "arrow_lambda"),
    (check_morphisms_i_j, Universe(2, 1), "compose_lambda"),
]


@pytest.mark.parametrize("check, universe, operation", PRODUCTION_FAULTS)
def test_fault_gates_perturb_the_production_operation(monkeypatch, check, universe, operation):
    original = getattr(verify, operation)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, operation, counting)
    report = check(universe, fault=True)
    assert calls, f"{check.__name__} fault gate never called {operation}"
    assert report.failure_count >= 1 and report.counterexamples


@pytest.mark.parametrize("check", [check for check, _, _ in PRODUCTION_FAULTS])
def test_fault_gates_pass_without_the_raised_exponents(monkeypatch, check):
    # with the perturbation removed, a fault gate runs the clean operation
    monkeypatch.setattr(verify, "_raised", lambda combo, root, rest: combo)
    report = check(SMALL, fault=True)
    assert report.ok, report.summary()


# Each fault gate's report on its universe from acceptance criterion 8.
FAULT_REPORTS = [
    (check_nested_associativity, Universe(3, 3), {}, 351, 25, (
        "S=s2:3[s1:1] T=t1:1[t2:2] U=u1:1[u2:1]",
        "S=s2:3[s1:1] T=t1:1[t2:2] U=u2:1[u1:1]",
        "S=s2:3[s1:1] T=t2:2[t1:1] U=u1:1[u2:1]",
    )),
    (check_disjoint_associativity, Universe(3, 3), {}, 536, 25, (
        "S=s1:2[s2:2] T=t1:1[t2:1] U=u1:1[u2:1]",
        "S=s1:2[s2:2] T=t1:1[t2:1] U=u2:1[u1:1]",
        "S=s1:2[s2:2] T=t2:1[t1:1] U=u1:1[u2:1]",
    )),
    (check_unit_laws, Universe(3, 3), {}, 10, 27, (
        "left unit on T=a1:1", "right unit on T=a1:1 at v=a1", "left unit on T=a1:2",
    )),
    (check_equivariance, Universe(3, 3), {}, 29, 25, (
        "S=s1:2 v=s1 T=t1:1[t2:1]", "S=s1:2 v=s1 T=t2:1[t1:1]", "S=s1:3 v=s1 T=t1:1[t2:2]",
    )),
    (check_minimality, Universe(3, 3), {}, 100, 25, (
        "minimal map not unique S=s2:2[s1:1] v=s2 T=t1:1[t2:1]",
        "minimal map not unique S=s2:2[s1:1] v=s2 T=t2:1[t1:1]",
        "minimal map not unique S=s2:3[s1:1] v=s2 T=t1:1[t2:2]",
    )),
    (check_specializations, TRIPLE, {}, 25, 25, (
        "parameter-0 S=s1:1 v=s1 T=t1:1",
        "parameter-0 S=s1:2 v=s1 T=t1:1[t2:1]",
        "parameter-0 S=s1:2 v=s1 T=t2:1[t1:1]",
    )),
    (check_deformed_identity, TRIPLE, {}, 27, 25, (
        "U=_:1 T=_:1 S=_:2", "U=_:1 T=_:1 S=_:1[_:1]", "U=_:1 T=_:1 S=_:1[_:1]",
    )),
    (check_roundtrip_psi_phi, TRIPLE, {}, 82, 24, (
        "roundtrip T=x1:1[x2:1,x3:1]", "roundtrip T=x2:1[x1:1,x3:1]", "roundtrip T=x3:1[x1:1,x2:1]",
    )),
    (check_morphisms_i_j, Universe(2, 1), {"weight_bound": 4}, 15, 15, (
        "root-only morphism S=s1:1 v=s1 T=t1:1",
        "root-only morphism S=s1:1 v=s1 T=t1:1[t2:1]",
        "root-only morphism S=s1:1 v=s1 T=t2:1[t1:1]",
    )),
]


@pytest.mark.parametrize("check, universe, kwargs, instances, failures, examples", FAULT_REPORTS)
def test_fault_reports(monkeypatch, check, universe, kwargs, instances, failures, examples):
    # Only the counterexamples a report shows are shrunk; shrinking every
    # failure took 25 shrinks in each gate that checks a law.
    shrunk = []
    shrink = verify.shrink_instance
    monkeypatch.setattr(verify, "shrink_instance", lambda *args: shrunk.append(args) or shrink(*args))
    report = check(universe, fault=True, **kwargs)
    assert (report.instances, report.failure_count, report.counterexamples) == (
        instances, failures, examples
    )
    assert len(shrunk) <= len(examples)


def _without_top_term(S, v, T):
    """compose_lambda without its highest-degree term, when it has two or more."""
    combo = compose_lambda(S, v, T)
    if len(combo) < 2:
        return combo
    top, _ = max(combo.terms(), key=lambda term: term[1].degree)
    return TreeCombination((t, c) for t, c in combo.terms() if t != top)


def _heavy_root_nap(S, v, T):
    """nap_compose with its root weight raised by 1."""
    tree = nap_compose(S, v, T)
    return WeightedTree(tree.label, tree.weight + 1, tree.children)


def _lifted_psi(x, branch_order=None):
    """psi times L whenever the branch order starts with a nonzero index."""
    combo = psi(x, branch_order)
    return combo * LambdaPoly.monomial(1) if branch_order and branch_order[0] else combo


class _DeepestRootMap(GraftMap):
    """A GraftMap whose root map sends every edge to a deepest vertex of T."""

    @classmethod
    def root_map(cls, S, v, T):
        deepest = max(T.vertices(), key=lambda r: r.height)
        return cls((deepest,) * len(v.node.children))


def _root_graft_counts(t, s):
    """oracle_graft_counts grafting s at the root of t only."""
    return Counter([(t[0], tuple(sorted(t[1] + (s,))))])


# A bug in one operation that a clean check's failure description, which no
# fault gate reaches, catches: the operation patched into verify, its
# replacement, the check, its universe and keyword arguments, and the
# report's instances, failures and first counterexample's prefix.
CLEAN_CHECK_BUGS = [
    ("compose_lambda", _without_top_term, check_morphisms_i_j, Universe(2, 1),
     {"weight_bound": 4}, 15, 4, "all-maps morphism "),
    ("compose_lambda", _without_top_term, check_specializations, SMALL, {}, 51, 4, "parameter-1 "),
    ("nap_compose", _heavy_root_nap, check_specializations, SMALL, {}, 25, 25,
     "root-only composition "),
    ("compose_lambda", lambda S, v, T: compose_lambda(S, v, T) or TreeCombination.of(T),
     check_unit_laws, SMALL, {}, 10, 10, "weight-mismatched left unit not zero "),
    ("arrow_lambda", lambda x, y: arrow_lambda(x, y) * 2, check_deformed_identity, SMALL, {},
     224, 8, "graft vs oracle "),
    ("psi", _lifted_psi, check_roundtrip_psi_phi, Universe(3, 1), {}, 12, 3,
     "branch order (1, 0) "),
    ("GraftMap", _DeepestRootMap, check_minimality, SMALL, {}, 36, 8, "negative exponent "),
    ("oracle_graft_counts", _root_graft_counts, check_deformed_identity, SMALL, {}, 224, 8,
     "oracle identity "),
]


@pytest.mark.parametrize(
    "operation, bug, check, universe, kwargs, instances, failures, prefix",
    CLEAN_CHECK_BUGS,
    ids=[f"{check.__name__}-{operation}" for operation, _, check, *_ in CLEAN_CHECK_BUGS],
)
def test_clean_checks_catch_a_bug_no_fault_gate_injects(
    monkeypatch, operation, bug, check, universe, kwargs, instances, failures, prefix
):
    monkeypatch.setattr(verify, operation, bug)
    report = check(universe, **kwargs)
    assert (report.instances, report.failure_count) == (instances, failures)
    assert report.counterexamples[0].startswith(prefix), report.counterexamples


def _one_weight_raised(S, v, T):
    """compose_lambda with the root weight of its last term raised by 1."""
    terms = compose_lambda(S, v, T).terms()
    last, coeff = terms[-1]
    return TreeCombination(terms[:-1] + [(WeightedTree(last.label, last.weight + 1, last.children), coeff)])


def specializations_by_trees(universe, fault=False):
    """Reference: check_specializations as it was before it compared parent
    maps, the oracle's substitutions summed into combinations of trees."""
    compose = verify._faulty_compose(1, lambda S: 1) if fault else verify.compose_lambda

    def failures(S, T, v):
        Sg = reweight(S, {lab: (T.total_weight if lab == v.label else 1) for lab in S.labels})
        vg = Sg.ref(v.label)
        full = compose(Sg, vg, T)
        at_zero = full.specialize(Fraction(0))
        if at_zero != TreeCombination.of(oracle_substitutions_as_list(Sg, v.label, T, True)[0]):
            yield f"parameter-0 S={Sg.encoding} v={v.label} T={T.encoding}"
        if at_zero and next(iter(at_zero._terms)) != verify.nap_compose(Sg, vg, T):
            yield f"root-only composition S={Sg.encoding} v={v.label} T={T.encoding}"
        at_one = full.specialize(Fraction(1))
        terms = oracle_substitutions_as_list(Sg, v.label, T, False)
        if at_one != TreeCombination((term, 1) for term in terms):
            yield f"parameter-1 S={Sg.encoding} v={v.label} T={T.encoding}"

    def weighted_failures(S, v, T):
        at_zero = verify.compose_lambda(S, v, T).specialize(Fraction(0))
        if at_zero != TreeCombination.of(verify.nap_compose(S, v, T)):
            yield f"weighted parameter-0 S={S.encoding} v={v.label} T={T.encoding}"

    stream = itertools.starmap(failures, verify._shape_slots(universe))
    if not fault:
        stream = itertools.chain(stream, itertools.starmap(weighted_failures, verify._slots(universe)))
    return verify._run("specializations", stream, shard=not fault)


# Each bug of CLEAN_CHECK_BUGS, a production term with one vertex weight
# changed, which only the comparison of vertex sets shows, and doubled
# coefficients, which only the coefficient comparison shows; with the prefix
# of a description the clean run must give, where one is pinned.
SPECIALIZATION_BUGS = [
    pytest.param(operation, bug, None, id=f"{check.__name__}-{operation}")
    for operation, bug, check, *_ in CLEAN_CHECK_BUGS
] + [
    pytest.param("compose_lambda", _one_weight_raised, "parameter-1 ", id="one-weight-raised"),
    pytest.param("compose_lambda", lambda S, v, T: compose_lambda(S, v, T) * 2, "parameter-1 ",
                 id="doubled"),
]


@pytest.mark.parametrize("operation, bug, prefix", SPECIALIZATION_BUGS)
def test_specializations_describe_what_the_tree_comparison_did(monkeypatch, operation, bug, prefix):
    monkeypatch.setattr(verify, operation, bug)
    # every description of the run in the report, not only the first three
    monkeypatch.setattr(verify, "_EXAMPLE_CAP", 10**6)
    monkeypatch.setattr(verify, "_FAILURE_SCAN_CAP", 10**6)
    for fault in (False, True):
        want = specializations_by_trees(SMALL, fault)
        got = check_specializations(SMALL, fault=fault)
        assert (got.instances, got.failure_count, got.counterexamples) == (
            want.instances, want.failure_count, want.counterexamples
        ), fault
        if prefix and not fault:
            assert any(d.startswith(prefix) for d in want.counterexamples), want.counterexamples


def test_clean_suite_instance_counts():
    reports = run_suite("all", SMALL)
    assert [r.instances for r in reports] == [42, 72, 10, 36, 36, 224, 51, 10, 15]
    assert all(r.ok for r in reports)


def test_fault_injection_detected_by_morphisms():
    report = check_morphisms_i_j(Universe(2, 1), weight_bound=4, fault=True)
    assert report.failure_count >= 1


def test_shrinker_minimizes_to_boundary():
    # failure criterion: combined size of the pair at least 4
    def fails(trees):
        return trees[0].size + trees[1].size >= 4

    big = (parse_tree("a:2[b:1[c:1],d:2]"), parse_tree("x:1[y:3]"))
    small = shrink_instance(big, fails)
    assert fails(small)
    assert small[0].size + small[1].size == 4
    # weights got driven down too
    assert all(v.node.weight == 1 for t in small for v in t.vertices())


def test_report_json_schema():
    report = check_unit_laws(SMALL)
    payload = json.loads(reports_to_json([report]))
    assert payload[0]["name"] == "unit-laws"
    assert payload[0]["ok"] is True
    assert set(payload[0]) == {"name", "instances", "failures", "counterexamples", "seconds", "ok"}


def test_failed_report_carries_tree_grammar_counterexample():
    report = check_nested_associativity(Universe(3, 3), fault=True)
    assert not report.ok
    sample = report.counterexamples[0]
    # counterexamples are serialized in the parseable tree grammar
    for chunk in sample.split():
        _, text = chunk.split("=", 1)
        parse_tree(text)


def test_run_suite_names():
    reports = run_suite("iso", SMALL)
    assert [r.name for r in reports] == ["bracket-roundtrip"]
    with pytest.raises(ValueError):
        run_suite("nope")


def test_check_report_ok_property():
    r = CheckReport("x", 5, 0, (), 0.1)
    assert r.ok and "ok" in r.summary()
    r2 = CheckReport("x", 5, 2, ("S=a:1",), 0.1)
    assert not r2.ok and "FAIL" in r2.summary()
    # a check that ran no instance has not passed
    r3 = CheckReport("x", 0, 0, (), 0.1)
    assert not r3.ok and "FAIL" in r3.summary()
