"""The small value classes: printed form, equality, immutability, and the
modules that importing graftop loads."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import graftop
from graftop import BracketExpr, Edge, Generator, GraftMap, Pair, TreeError, incoming_edges, parse_bracket, parse_tree
from graftop.verify import CheckReport, Universe


T = parse_tree("a:1[b:2]")
(EDGE,) = incoming_edges(T, T.ref("a"))
# each record with its exact repr and an unequal twin of its class
RECORDS = [
    (Universe(3, 3), "Universe(n_max=3, w_max=3)", Universe(3, 2)),
    (
        CheckReport("x", 5, 0, (), 0.1),
        "CheckReport(name='x', instances=5, failure_count=0, counterexamples=(), seconds=0.1)",
        CheckReport("x", 5, 1, ("S=a:1",), 0.1),
    ),
    (
        GraftMap((parse_tree("x:1").ref("x"),)),
        "GraftMap(targets=(VertexRef(tree=WeightedTree('x:1'), path=()),))",
        GraftMap(()),
    ),
    (
        EDGE,
        "Edge(child=VertexRef(tree=WeightedTree('a:1[b:2]'), path=(0,)), "
        "parent=VertexRef(tree=WeightedTree('a:1[b:2]'), path=()))",
        Edge(T.ref("a"), T.ref("a")),
    ),
]


@pytest.mark.parametrize("record, text, other", RECORDS, ids=["Universe", "CheckReport", "GraftMap", "Edge"])
def test_records_print_compare_and_hash_by_value(record, text, other):
    assert repr(record) == text
    # a tree prints as WeightedTree('<text>'), which parse_tree reads back
    # read through graftop, whose vars hold the verify names only once they are first read
    names = {name: getattr(graftop, name) for name in ("Universe", "CheckReport", "GraftMap", "Edge", "VertexRef")}
    twin = eval(text, {**names, "WeightedTree": parse_tree})
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert record != other and len({record, twin, other}) == 2
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "value, fields",
    [
        (Universe(3, 3), ("n_max", "w_max")),
        (CheckReport("x", 5, 0, (), 0.1), ("name", "instances", "failure_count", "counterexamples", "seconds")),
        (GraftMap(()), ("targets",)),
        (EDGE, ("child", "parent")),
        (Generator("x", 1), ("label", "weight", "encoding", "labels")),
        (Pair(Generator("x", 1), Generator("y", 2)), ("left", "right", "encoding", "labels")),
    ],
    ids=["Universe", "CheckReport", "GraftMap", "Edge", "Generator", "Pair"],
)
def test_assigning_to_a_field_raises_attribute_error(value, fields):
    for name in (*fields, "other"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        assert getattr(value, name, None) is before


def test_brackets_keep_their_errors_and_their_union_type():
    expected = {
        lambda: Generator("", 1): "invalid generator label ''",
        lambda: Generator("x y", 1): "invalid generator label 'x y'",
        lambda: Generator("x", 0): "generator weight must be a positive integer, got 0",
        lambda: Generator("x", True): "generator weight must be a positive integer, got True",
        lambda: Pair(Generator("x", 1), Pair(Generator("y", 1), Generator("x", 2))):
            "repeated generator labels ['x'] in one expression",
    }
    for make, message in expected.items():
        with pytest.raises(TreeError) as caught:
            make()
        assert str(caught.value) == message
    assert isinstance(parse_bracket("(x_1 y_1)"), BracketExpr)
    assert isinstance(parse_bracket("x_1"), BracketExpr)
    assert not isinstance(parse_tree("x:1"), BracketExpr)
    p = Pair(Generator("x", 1), Generator("y", 2))
    assert (p.encoding, p.labels) == ("(x_1 y_2)", frozenset("xy"))
    assert p == parse_bracket("(x_1 y_2)") and hash(p) == hash(parse_bracket("(x_1 y_2)"))
    assert pickle.loads(pickle.dumps(p)) == p and pickle.loads(pickle.dumps(p)).left == p.left


def fresh_python(code):
    """Stdout of ``code`` run by ``python -S`` (site's own imports kept out,
    so only graftop's show) with this checkout's graftop first on the path."""
    src = str(Path(graftop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, sys.argv[1])\n{code}", src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


def test_importing_graftop_loads_neither_dataclasses_nor_typing():
    code = "import graftop, graftop.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    assert fresh_python(code) == "[]\n"


def test_only_the_check_command_loads_verify():
    code = """
import contextlib, io, graftop, graftop.cli
seen = ["graftop.verify" in sys.modules]
for argv in (
    ["compose", "-S", "r:1[v:2[b:1]]", "-v", "v", "-T", "x:1[y:1]"],
    ["check", "--suite", "iso", "--nmax", "2", "--wmax", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        seen += [graftop.cli.main(argv), "graftop.verify" in sys.modules]
    print(out.getvalue().splitlines()[0].split(" (")[0])
print(seen)
"""
    assert fresh_python(code).splitlines() == [
        "1 * r:1[x:1[b:1,y:1]] + L * r:1[x:1[y:1[b:1]]]",
        "ok   bracket-roundtrip: 3 instances, 0 failures",
        "[False, 0, False, 0, True]",
    ]


def test_the_verify_names_load_on_first_use():
    code = """
import graftop
print(sorted({"CheckReport", "Universe", "run_suite", "verify"} & set(vars(graftop))))
from graftop import run_suite
import graftop.verify as verify
print(graftop.Universe is verify.Universe, graftop.CheckReport is verify.CheckReport, run_suite is verify.run_suite)
print(sorted({"CheckReport", "Universe", "run_suite"} & set(vars(graftop))))
try:
    getattr(graftop, "no_such_name")
except AttributeError as exc:
    print(exc)
print(hasattr(graftop, "no_such_name"))
"""
    assert fresh_python(code).splitlines() == [
        "[]",
        "True True True",
        "['CheckReport', 'Universe', 'run_suite']",
        "module 'graftop' has no attribute 'no_such_name'",
        "False",
    ]
