"""Sharded check runs: forked children scan chunks of a check's instances,
and the report is the in-process scan's in every field apart from seconds."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import graftop
from graftop import verify
from graftop.errors import TreeError
from graftop.verify import (
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
)
from test_verify import FAULT_REPORTS

# (check, universe of the benchmark's clean plan, universe of the fault
# gates in acceptance criterion 8)
CHECKS = [
    (check_nested_associativity, Universe(3, 3), Universe(3, 3)),
    (check_disjoint_associativity, Universe(3, 2), Universe(3, 3)),
    (check_unit_laws, Universe(3, 3), Universe(3, 3)),
    (check_equivariance, Universe(3, 3), Universe(3, 3)),
    (check_minimality, Universe(3, 3), Universe(3, 3)),
    (check_specializations, Universe(3, 3), Universe(3, 2)),
    (check_deformed_identity, Universe(2, 3), Universe(3, 2)),
    (check_roundtrip_psi_phi, Universe(5, 1), Universe(3, 2)),
    (check_morphisms_i_j, Universe(3, 1), Universe(2, 1)),
]

KWARGS = {
    check_equivariance: [{"seed": 0}, {"seed": 3}],
    check_morphisms_i_j: [{"weight_bound": 3}, {"weight_bound": 4}],
}

RUNS = [
    pytest.param(
        check, fault_universe if fault else universe, kwargs, fault,
        id="-".join([check.__name__, "fault" if fault else "clean", *map(str, kwargs.values())]),
    )
    for check, universe, fault_universe in CHECKS
    for fault in (False, True)
    for kwargs in KWARGS.get(check, [{}])
]


@pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
def test_cpus_without_an_affinity_call(monkeypatch, count, cpus):
    # where os.sched_getaffinity is missing, every CPU counts, and at least one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert verify._cpus() == cpus


def with_cpus(monkeypatch, n):
    monkeypatch.setattr(verify, "_cpus", lambda: n)


def stripped(report):
    payload = report.to_json()
    del payload["seconds"]
    return payload


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("check, universe, kwargs, fault", RUNS)
def test_sharded_report_equals_serial(monkeypatch, check, universe, kwargs, fault):
    with_cpus(monkeypatch, 1)
    serial = stripped(check(universe, fault=fault, **kwargs))
    for shards in (2, 3):
        with_cpus(monkeypatch, shards)
        assert stripped(check(universe, fault=fault, **kwargs)) == serial, shards
    assert_no_child_left()


@pytest.mark.parametrize("shards", [2, 3])
def test_fault_gates_sharded_keep_their_reports(monkeypatch, shards):
    # Fault gates run in-process; forced through the sharded merge, they
    # give the reports pinned in test_verify.test_fault_reports.
    run = verify._run
    monkeypatch.setattr(verify, "_run", lambda name, instances, shard: run(name, instances))
    with_cpus(monkeypatch, shards)
    for check, universe, kwargs, instances, failures, examples in FAULT_REPORTS:
        report = check(universe, fault=True, **kwargs)
        assert (report.instances, report.failure_count, report.counterexamples) == (
            instances, failures, examples
        ), check.__name__
    assert_no_child_left()


def synthetic(failing, raising=None, n=100):
    """Instances 0..n-1: instance i has failing.get(i, 0) failures, and
    instance ``raising`` raises."""

    def instance(i):
        if i == raising:
            raise TreeError(f"instance {i} raised")
        for k in range(failing.get(i, 0)):
            yield f"{i}.{k}"

    return map(instance, range(n))


# Failures spread over the chunks of every shard; the count passes 25 at
# instance 57, partway through its three failures.
SPREAD = {i: 1 for i in range(0, 56, 3)} | {56: 4, 57: 3, 58: 1, 90: 4}


@pytest.mark.parametrize(
    "failing, raising, expected",
    [
        (SPREAD, None, (58, 26, ("0.0", "3.0", "6.0"))),
        (SPREAD, 59, (58, 26, ("0.0", "3.0", "6.0"))),  # raises after the stop
        ({}, None, (100, 0, ())),
        ({99: 1}, None, (100, 1, ("99.0",))),
        ({7: 30}, None, (8, 30, tuple(f"7.{k}" for k in range(3)))),
    ],
)
@pytest.mark.parametrize("shards", [2, 3, 5])
def test_merge_matches_the_serial_stop(monkeypatch, failing, raising, expected, shards):
    monkeypatch.setattr(verify, "_CHUNK", 4)
    serial = verify._run("x", synthetic(failing, raising), shard=False)
    assert (serial.instances, serial.failure_count, serial.counterexamples) == expected
    with_cpus(monkeypatch, shards)
    report = verify._run("x", synthetic(failing, raising))
    assert stripped(report) == stripped(serial)
    assert_no_child_left()


def stream_raising(failing, at, n=100):
    """``synthetic(failing, n=n)``, whose generation raises when it comes to
    instance ``at``."""
    for i, found in enumerate(synthetic(failing, n=n)):
        if i == at:
            raise TreeError(f"stream raised at {at}")
        yield found


# The stream raises after the serial stop: at instance 58, the one after
# it, which children that do not scan instance 57's chunk still walk into,
# or at 70.
@pytest.mark.parametrize("at", [58, 70])
@pytest.mark.parametrize("shards", [2, 3, 5])
def test_a_stream_raising_after_the_stop_keeps_the_serial_report(monkeypatch, at, shards):
    monkeypatch.setattr(verify, "_CHUNK", 4)
    serial = verify._run("x", stream_raising(SPREAD, at), shard=False)
    assert (serial.instances, serial.failure_count, serial.counterexamples) == (
        58, 26, ("0.0", "3.0", "6.0")
    )
    with_cpus(monkeypatch, shards)
    assert stripped(verify._run("x", stream_raising(SPREAD, at))) == stripped(serial)
    assert_no_child_left()


@pytest.mark.parametrize("shards", [2, 3])
def test_a_stream_raising_before_the_stop_is_raised(monkeypatch, shards):
    monkeypatch.setattr(verify, "_CHUNK", 4)
    with pytest.raises(TreeError, match="^stream raised at 41$"):
        verify._run("x", stream_raising(SPREAD, 41), shard=False)
    with_cpus(monkeypatch, shards)
    with pytest.raises(TreeError, match="^stream raised at 41$"):
        verify._run("x", stream_raising(SPREAD, 41))
    assert_no_child_left()


@pytest.mark.parametrize("cpus, pulled", [(1, 100), (2, 64), (3, 96)])
def test_the_parent_pulls_no_instance_when_sharded(monkeypatch, cpus, pulled):
    # The parent pulls no instance past one chunk per CPU, which shows that
    # the stream goes on past them; forked children walk their own copies
    # of the rest.
    pulls = []

    def counted(stream):
        for found in stream:
            pulls.append(None)
            yield found

    with_cpus(monkeypatch, cpus)
    report = verify._run("x", counted(synthetic({99: 1})))
    assert (report.instances, report.failure_count, len(pulls)) == (100, 1, pulled)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_stream_shorter_than_a_chunk_per_cpu_forks_nothing(monkeypatch, cpus):
    monkeypatch.setattr(os, "fork", no_fork)
    with_cpus(monkeypatch, cpus)
    report = verify._run("x", synthetic({40: 2}, n=2 * verify._CHUNK - 1))
    assert (report.instances, report.failure_count, report.counterexamples) == (63, 2, ("40.0", "40.1"))


def outcome(stream):
    """The report of ``_run`` over ``stream`` without its seconds, or the
    message of the exception it raised."""
    try:
        return stripped(verify._run("x", stream))
    except TreeError as exc:
        return str(exc)


# Raised among the instances the parent pulls before it would fork: after
# the serial stop, which keeps the serial report, or before it.
@pytest.mark.parametrize(
    "at, expected",
    [
        (58, {"name": "x", "instances": 58, "failures": 26, "counterexamples": ["0.0", "3.0", "6.0"], "ok": False}),
        (41, "stream raised at 41"),
    ],
)
@pytest.mark.parametrize("shards", [2, 3])
def test_a_stream_raising_while_the_parent_pulls_scans_in_process(monkeypatch, at, expected, shards):
    monkeypatch.setattr(os, "fork", no_fork)
    with_cpus(monkeypatch, 1)
    assert outcome(stream_raising(SPREAD, at)) == expected
    with_cpus(monkeypatch, shards)
    assert outcome(stream_raising(SPREAD, at)) == expected


@pytest.mark.parametrize(
    "failing, raising",
    [
        (SPREAD, 41),
        # the count reaches 25 at instance 56, the first of the chunk after
        # the raising one
        ({**SPREAD, 56: 6}, 55),
    ],
)
@pytest.mark.parametrize("shards", [2, 3])
def test_an_exception_before_the_stop_is_raised(monkeypatch, failing, raising, shards):
    monkeypatch.setattr(verify, "_CHUNK", 4)
    message = f"^instance {raising} raised$"
    with pytest.raises(TreeError, match=message):
        verify._run("x", synthetic(failing, raising), shard=False)
    with_cpus(monkeypatch, shards)
    with pytest.raises(TreeError, match=message):
        verify._run("x", synthetic(failing, raising))
    assert_no_child_left()


def test_an_operation_raising_in_a_child_surfaces_in_the_parent(monkeypatch):
    # T=a2:1[a1:1[a3:1]] is instance 6 of the unit-laws stream; with chunks
    # of 2 it falls in chunk 3, which the second of two children scans.
    monkeypatch.setattr(verify, "_CHUNK", 2)
    compose = verify.compose_lambda

    def raising(S, v, T):
        if S.encoding == "a2:1[a1:1[a3:1]]":
            raise TreeError(f"no unit at {v.label}")
        return compose(S, v, T)

    monkeypatch.setattr(verify, "compose_lambda", raising)
    assert Universe(3, 1).trees("a")[6].encoding == "a2:1[a1:1[a3:1]]"
    with_cpus(monkeypatch, 1)
    with pytest.raises(TreeError) as serial:
        check_unit_laws(Universe(3, 1))

    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    with_cpus(monkeypatch, 2)
    with pytest.raises(TreeError) as sharded:
        check_unit_laws(Universe(3, 1))
    assert len(forks) == 2
    assert str(sharded.value) == str(serial.value) == "no unit at a2"
    assert_no_child_left()


def test_a_child_that_cannot_send_its_results_fails_the_run(monkeypatch):
    class Local(Exception):
        """An exception that cannot be pickled: its class is local."""

    def instance(i):
        if i == 40:
            raise Local("unpicklable")
        yield from ()

    with_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^a check worker exited without sending its results$"):
        verify._run("x", map(instance, range(100)))
    assert_no_child_left()


def no_fork():
    raise AssertionError("forked")


def test_one_cpu_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork)
    with_cpus(monkeypatch, 1)
    assert check_unit_laws(Universe(3, 2)).ok


def test_a_second_thread_keeps_the_run_in_process(monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork)
    with_cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert check_unit_laws(Universe(3, 2)).ok
    finally:
        stop.set()
        thread.join()


def cli_env():
    """The environment with this checkout's graftop first on the path and
    stdout block-buffered on a pipe, as by default."""
    src = str(Path(graftop.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_report_lines_print_once_on_a_pipe():
    # Children leave through os._exit, so the stdout buffer they inherit is
    # never flushed a second time.
    proc = subprocess.run(
        [sys.executable, "-m", "graftop.cli", "check", "--suite", "assoc", "--nmax", "3", "--wmax", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    names = [line.split(":")[0] for line in proc.stdout.splitlines()]
    assert names == [
        "ok   nested-associativity",
        "ok   disjoint-associativity",
        "ok   unit-laws",
        "ok   equivariance",
        "ok   root-map-minimality",
    ]


def test_children_do_not_flush_the_stdout_buffer_they_inherit():
    script = (
        "from graftop.verify import Universe, check_unit_laws\n"
        "print('before')\n"
        "print(check_unit_laws(Universe(3, 2)).ok)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "before\nTrue\n")
