"""Tests of the benchmark's own generators, checkers and reports.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from graftop import LAMBDA, TreeCombination, operad, verify  # noqa: E402
from graftop.verify import CheckReport, Universe  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
from spans import per_layer_names  # noqa: E402

def test_same_seed_gives_byte_identical_inputs():
    first = json.dumps(inputs.compose_session(11, 2))
    assert first == json.dumps(inputs.compose_session(11, 2))
    assert first != json.dumps(inputs.compose_session(12, 2))
    assert first != json.dumps(inputs.compose_session(11, 3))


def test_sessions_hold_fixed_request_classes():
    kinds = [r[0] for r in inputs.compose_session(5, 0)]
    assert kinds.count("compose") == len(inputs.COMPOSE_CLASSES)
    assert kinds.count("arrow") == inputs.ARROWS_PER_SESSION
    assert kinds.count("circsum") == inputs.CIRC_SUMS_PER_SESSION
    assert all(m**k <= inputs.MAX_MAPS for k, m in inputs.COMPOSE_CLASSES)


def test_seed_program_answers_every_request_correctly():
    result = session.run_session("compose-wide", 3, 0, trace=False)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] == len(inputs.compose_session(3, 0))


def test_bumped_compose_exponent_is_a_failure(monkeypatch):
    original = operad.compose_lambda

    def bumped(S, v, T):
        combo = original(S, v, T)
        terms = combo.terms()
        tree, poly = terms[0]
        return TreeCombination([(tree, poly * LAMBDA)] + terms[1:])

    monkeypatch.setattr(operad, "compose_lambda", bumped)
    result = session.run_session("compose-wide", 3, 0, trace=False)
    compose_like = [r for r in inputs.compose_session(3, 0) if r[0] in ("compose", "circsum")]
    # Specializing at L = 0 or 1 can hide the bump; a symbolic answer cannot.
    assert result["failed"] >= sum(1 for r in compose_like if r[-1] is None) > 0


def _small_plan(monkeypatch, check="check_unit_laws", universe=Universe(2, 2)):
    plan = ((check, universe, {}),)
    monkeypatch.setattr(session, "CHECK_PLAN", plan)
    monkeypatch.setattr(session, "FAULT_PLAN", plan)


def test_small_check_plan_passes_on_seed_program(monkeypatch):
    _small_plan(monkeypatch)
    result = session.run_session("check-suite", 3, 0, trace=False)
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert result["instances"]["check_unit_laws"] > 0


def test_undetected_fault_gate_is_a_failure(monkeypatch):
    _small_plan(monkeypatch)
    original = verify.check_unit_laws

    def blind(universe=None, fault=False):
        return original(universe, fault=False)

    monkeypatch.setattr(verify, "check_unit_laws", blind)
    result = session.run_session("check-suite", 3, 0, trace=False)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "not detected" in result["errors"][0]


def test_roundtrip_scaled_by_lambda_is_a_failure(monkeypatch):
    _small_plan(monkeypatch, "check_roundtrip_psi_phi", Universe(3, 1))
    original = verify.phi
    depth = [0]

    def scaled(x):
        depth[0] += 1
        try:
            out = original(x)
        finally:
            depth[0] -= 1
        return out.scale(LAMBDA) if depth[0] == 0 else out

    monkeypatch.setattr(verify, "phi", scaled)
    result = session.run_session("check-suite", 3, 0, trace=False)
    assert result["failed"] == 1
    assert "clean check_roundtrip_psi_phi not ok" in result["errors"][0]


def test_clean_check_with_no_instances_is_a_failure(monkeypatch):
    _small_plan(monkeypatch)
    original = verify.check_unit_laws

    def empty(universe=None, fault=False):
        if fault:
            return original(universe, fault=True)
        return CheckReport("unit-laws", 0, 0, (), 0.0)

    monkeypatch.setattr(verify, "check_unit_laws", empty)
    result = session.run_session("check-suite", 3, 0, trace=False)
    assert result["failed"] == 1


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_back_to_back_traced_runs_repeat_counts_exactly(workload):
    first = _traced_run(workload, 7)
    assert first == _traced_run(workload, 7)
    assert first["trees.built"] > 0 and first["operad.maps"] > 0
    if workload == "compose-wide":
        assert first["presentation.psi_calls"] == 0
    if workload == "check-suite":
        assert first["presentation.psi_calls"] > 0
        instances = [v for k, v in first.items() if k.endswith("_instances")]
        assert len(instances) == 9 and all(n > 0 for n in instances)


def test_benchmark_json_matches_the_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compose-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
