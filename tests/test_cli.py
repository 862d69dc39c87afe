"""Command-line surface: golden outputs, JSON schema, exit codes."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graftop
from graftop.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose_reference_example(capsys):
    code, out, _ = run(
        capsys, "compose", "-S", "a:1[b:3[c:2,d:1]]", "-v", "b", "-T", "e:2[h:1]"
    )
    assert code == 0
    assert out.strip() == (
        "1 * a:1[e:2[c:2,d:1,h:1]]"
        " + L * a:1[e:2[c:2,h:1[d:1]]]"
        " + L^2 * a:1[e:2[d:1,h:1[c:2]]]"
        " + L^3 * a:1[e:2[h:1[c:2,d:1]]]"
    )


def test_compose_specialized(capsys):
    code, out, _ = run(
        capsys,
        "compose", "-S", "a:1[b:3[c:2,d:1]]", "-v", "b", "-T", "e:2[h:1]",
        "--lambda", "0",
    )
    assert code == 0
    assert out.strip() == "1 * a:1[e:2[c:2,d:1,h:1]]"


def test_compose_weight_mismatch_prints_zero(capsys):
    code, out, _ = run(capsys, "compose", "-S", "a:1[b:2]", "-v", "b", "-T", "e:2[h:1]")
    assert code == 0
    assert out.strip() == "0"


def test_arrow_golden(capsys):
    code, out, _ = run(capsys, "arrow", "-T", "r:1", "-S", "s:2")
    assert code == 0
    assert out.strip() == "1 * r:1[s:2]"


def test_arrow_json_schema(capsys):
    code, out, _ = run(capsys, "arrow", "-T", "r:1[c:1]", "-S", "s:1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "terms": [
            {"coeff": [[0, 1, 1]], "tree": "r:1[c:1,s:1]"},
            {"coeff": [[1, 1, 1]], "tree": "r:1[c:1[s:1]]"},
        ]
    }


def test_circsum_unit(capsys):
    code, out, _ = run(capsys, "circsum", "-T", "u:3", "-S", "e:2[h:1]")
    assert code == 0
    assert out.strip() == "1 * e:2[h:1]"


def test_butcher(capsys):
    code, out, _ = run(capsys, "butcher", "-T", "a:2", "-S", "b:5")
    assert code == 0
    assert out.strip() == "a:2[b:5]"


def test_nap_and_mismatch(capsys):
    code, out, _ = run(
        capsys, "nap", "-S", "a:1[b:3[c:2,d:1]]", "-v", "b", "-T", "e:2[h:1]"
    )
    assert code == 0
    assert out.strip() == "a:1[e:2[c:2,d:1,h:1]]"
    code, out, _ = run(capsys, "nap", "-S", "a:1[b:2]", "-v", "b", "-T", "e:2[h:1]")
    assert code == 0
    assert out.strip() == "0"


def test_psi_phi_pipe_roundtrip(capsys):
    code, out, _ = run(capsys, "psi", "-T", "x:1[y:1,z:1]")
    assert code == 0
    assert out.strip() == "1 * ((x_1 z_1) y_1) + -L * (x_1 (z_1 y_1))"
    code, out, _ = run(capsys, "phi", "-e", "((x_1 z_1) y_1)")
    assert code == 0
    assert out.strip() == "1 * x:1[y:1,z:1] + L * x:1[z:1[y:1]]"


def test_enumerate_counts_and_weights(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert len(set(lines)) == 9
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--weights", "5,7")
    assert code == 0
    assert sorted(out.split()) == ["1:5[2:7]", "2:7[1:5]"]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--json")
    assert code == 0
    assert out == '{"trees": ["1:1[2:1]", "2:1[1:1]"]}\n'


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "-n", "4")
    assert code == 0
    assert out.strip() == "64"
    # enumeration oracle for the displayed count
    from graftop import enumerate_labeled_trees

    assert len(enumerate_labeled_trees(4, [1] * 4)) == 64


def test_dims_by_total_weight(capsys):
    code, out, _ = run(capsys, "dims", "-n", "2", "--wmax", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1:] == ["total=2 dim=2", "total=3 dim=4", "total=4 dim=2"]


def test_dims_by_total_weight_matches_brute_force(capsys):
    for n in range(1, 6):
        dim = n ** (n - 1)
        for wmax in range(1, 5):
            counts = {}
            for vec in itertools.product(range(1, wmax + 1), repeat=n):
                counts[sum(vec)] = counts.get(sum(vec), 0) + 1
            table = [[total, counts[total] * dim] for total in sorted(counts)]
            code, out, _ = run(capsys, "dims", "-n", str(n), "--wmax", str(wmax))
            assert code == 0
            assert out.splitlines() == [str(dim)] + [f"total={t} dim={c}" for t, c in table]
            code, out, _ = run(capsys, "dims", "-n", str(n), "--wmax", str(wmax), "--json")
            assert code == 0
            assert json.loads(out) == {"n": n, "dim": dim, "by_total_weight": table}


def test_dims_by_total_weight_without_the_weight_vector_loop(capsys):
    # 9**14 weight vectors: counted from the generating polynomial
    code, out, _ = run(capsys, "dims", "-n", "14", "--wmax", "9", "--json")
    assert code == 0
    table = json.loads(out)["by_total_weight"]
    assert [t for t, _ in table] == list(range(14, 127))
    assert sum(c for _, c in table) == 9**14 * 14**13


def rejected(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_dims_rejects_nonpositive_n(capsys):
    code, err = rejected(capsys, "dims", "-n", "0")
    assert code == 2
    assert "must be >= 1" in err and "Traceback" not in err


def test_check_rejects_zero_wmax(capsys):
    code, err = rejected(capsys, "check", "--suite", "iso", "--wmax", "0")
    assert code == 2
    assert "--wmax" in err and "must be >= 1" in err


def test_check_rejects_negative_nmax(capsys):
    code, err = rejected(capsys, "check", "--suite", "iso", "--nmax", "-1")
    assert code == 2
    assert "--nmax" in err and "must be >= 1" in err


def test_check_with_zero_instances_fails(capsys):
    code, out, _ = run(capsys, "check", "--suite", "assoc", "--nmax", "1")
    assert code == 1
    assert "FAIL disjoint-associativity: 0 instances" in out


def test_parse_error_exits_2_with_position(capsys):
    code, out, err = run(capsys, "compose", "-S", "a:1[", "-v", "a", "-T", "b:1")
    assert code == 2
    assert not out
    assert "position 4" in err


def test_unknown_vertex_exits_2(capsys):
    code, _, err = run(capsys, "compose", "-S", "a:1", "-v", "zz", "-T", "b:1")
    assert code == 2
    assert "zz" in err


def test_bad_lambda_exits_2(capsys):
    code, _, err = run(capsys, "arrow", "-T", "r:1", "-S", "s:1", "--lambda", "q")
    assert code == 2
    assert "rational" in err


def test_bad_lambda_is_reported_before_a_malformed_tree(capsys):
    code, out, err = run(capsys, "arrow", "-T", "r:1[", "-S", "s:1", "--lambda", "q")
    assert (code, out, err) == (2, "", "error: bad rational 'q' (at position 0)\n")


def test_check_passes_on_small_universe(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "iso", "--nmax", "2", "--wmax", "2"
    )
    assert code == 0
    assert "ok" in out and "bracket-roundtrip" in out


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "morph", "--nmax", "2", "--wmax", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["name"] == "morphism-truncations"
    assert payload[0]["ok"] is True


def test_print_parse_roundtrip_through_cli(capsys):
    # combination output reparses term by term
    from graftop import parse_poly, parse_tree

    code, out, _ = run(capsys, "arrow", "-T", "r:1[c:2]", "-S", "s:3")
    assert code == 0
    for part in out.strip().split(" + "):
        coeff, tree = part.split(" * ")
        parse_poly(coeff.strip("()"))
        parse_tree(tree)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_check_rejects_nonpositive_weight_bound(capsys, value):
    code, err = rejected(capsys, "check", "--suite", "morph", "--weight-bound", value)
    assert code == 2
    assert "--weight-bound" in err and "must be >= 1" in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_dims_rejects_nonpositive_wmax(capsys, value):
    code, err = rejected(capsys, "dims", "-n", "3", "--wmax", value)
    assert code == 2
    assert "--wmax" in err and "must be >= 1" in err


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    # any exception other than rejected input is an internal error: one
    # line, no traceback
    def broken(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("graftop.cli.phi", broken)
    code, out, err = run(capsys, "phi", "-e", "(x_1 y_1)")
    assert code == 3
    assert not out
    assert err.startswith("error: internal error: RecursionError") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deep_chain_host_composes(capsys):
    # the tree parser keeps its own stack, so nesting depth is no limit
    chain = "".join(f"c{i}:1[" for i in range(1499, 0, -1)) + "c0:1" + "]" * 1499
    code, out, err = run(capsys, "compose", "-S", chain, "-v", "c0", "-T", "x:1")
    assert (code, err) == (0, "")
    assert out == "1 * " + chain.replace("c0:1", "x:1") + "\n"


def test_deep_right_nested_bracket_evaluates(capsys, monkeypatch):
    # phi evaluates the factors of a bracket from its own stack, so nesting
    # depth is no limit; a memo of its own frees the products afterwards
    monkeypatch.setattr(graftop.presentation, "_PHI_MEMO", {})
    n = 1500
    text = "".join(f"(g{i}_1 " for i in range(n)) + f"g{n}_1" + ")" * n
    code, out, err = run(capsys, "phi", "-e", text)
    assert (code, err) == (0, "")
    chain = "".join(f"g{i}:1[" for i in range(n)) + f"g{n}:1" + "]" * n
    assert out == "1 * " + chain + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "-n", "0"), "argument -n: must be >= 1"),
        (("enumerate", "-n", "2", "--weights", "1,a"), "argument --weights: expected an integer"),
    ],
)
def test_enumerate_rejects_bad_arguments(capsys, argv, message):
    code, err = rejected(capsys, *argv)
    assert code == 2
    assert f"error: {message}" in err and "Traceback" not in err


def test_enumerate_rejects_wrong_weight_count(capsys):
    code, out, err = run(capsys, "enumerate", "-n", "3", "--weights", "1,2")
    assert code == 2
    assert not out
    assert err.startswith("error: expected 3 weights, got 2") and err.count("\n") == 1


def test_bare_value_error_is_internal(capsys, monkeypatch):
    # only ParseError and TreeError are rejected input; any other ValueError
    # is a bug and must not read as exit 2
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr("graftop.cli.arrow_lambda", broken)
    code, out, err = run(capsys, "arrow", "-T", "r:1", "-S", "s:1")
    assert code == 3
    assert not out
    assert err == "error: internal error: ValueError: boom\n"


def test_dims_prints_counts_beyond_the_int_digit_limit(capsys):
    # 2000**1999 = 2**1999 * 10**5997 has 6,599 digits; the oracle's own
    # conversion stays under the interpreter's 4,300-digit limit
    expected = str(2**1999) + "0" * 5997
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "dims", "-n", "2000")
    assert (code, out) == (0, expected + "\n")
    code, out, _ = run(capsys, "dims", "-n", "2000", "--json")
    assert code == 0
    assert out == '{"n": 2000, "dim": ' + expected + "}\n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def run_with_closed_stdout(*argv):
    """Run the CLI in a child whose stdout is a pipe nobody reads: the read
    end is closed before the child starts, so its first write to stdout
    fails with a broken pipe."""
    src = str(Path(graftop.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "graftop.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv, status",
    [
        (("compose", "-S", "a:1[b:3[c:2,d:1]]", "-v", "b", "-T", "e:2[h:1]"), 0),
        (("check", "--suite", "all", "--nmax", "2", "--wmax", "2", "--json"), 0),
        # a failed check keeps its status: it is known before anything prints
        (("check", "--suite", "assoc", "--nmax", "1"), 1),
    ],
    ids=["compose", "check-ok", "check-failed"],
)
def test_closed_stdout_is_not_an_internal_error(argv, status):
    code, err = run_with_closed_stdout(*argv)
    assert (code, err) == (status, "")
