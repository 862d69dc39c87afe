"""One benchmark session: a fixed batch of stream requests, or the check
plan, timed and then checked against answers computed independently.

Calls go through the module attributes of ``graftop.trees``, ``operad``
and ``verify``, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import time
from fractions import Fraction
from pathlib import Path

from graftop import operad, trees, verify
from graftop.verify import Universe

import expect
import inputs
from spans import Tracer

# (check function, universe, keyword arguments): the clean plan, then the
# fault-injected gates on the universes the acceptance tests use.
CHECK_PLAN = (
    ("check_nested_associativity", Universe(3, 3), {}),
    ("check_unit_laws", Universe(3, 3), {}),
    ("check_equivariance", Universe(3, 3), {}),
    ("check_minimality", Universe(3, 3), {}),
    ("check_specializations", Universe(3, 3), {}),
    ("check_disjoint_associativity", Universe(3, 2), {}),
    ("check_deformed_identity", Universe(2, 3), {}),
    ("check_roundtrip_psi_phi", Universe(5, 1), {}),
    ("check_morphisms_i_j", Universe(3, 1), {"weight_bound": 5}),
)
FAULT_PLAN = (
    ("check_nested_associativity", Universe(3, 3), {}),
    ("check_disjoint_associativity", Universe(3, 3), {}),
    ("check_unit_laws", Universe(3, 3), {}),
    ("check_equivariance", Universe(3, 3), {}),
    ("check_minimality", Universe(3, 3), {}),
    ("check_specializations", Universe(3, 2), {}),
    ("check_deformed_identity", Universe(3, 2), {}),
    ("check_roundtrip_psi_phi", Universe(3, 2), {}),
    ("check_morphisms_i_j", Universe(2, 1), {"weight_bound": 4}),
)
MAX_ERRORS = 3
# Traced sessions leave their spans here, in the checkout.
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

STREAMS = {"compose-wide": inputs.compose_session}


def compute(request):
    """Answer one stream request the way the CLI does, before printing."""
    kind = request[0]
    if kind == "compose":
        _, host, v_label, inserted, lam = request
        S = trees.parse_tree(host)
        combo = operad.compose_lambda(S, S.ref(v_label), trees.parse_tree(inserted))
    elif kind == "arrow":
        _, x, y, lam = request
        combo = operad.arrow_lambda(trees.parse_tree(x), trees.parse_tree(y))
    else:
        _, t, s, lam = request
        combo = operad.circ_sum(trees.parse_tree(t), trees.parse_tree(s))
    if lam is not None:
        combo = combo.specialize(Fraction(lam))
    return combo


def serve(requests, tracer=None) -> tuple[list, list]:
    """Answer the requests one after another, timing each from parsing to
    rendered text.  A request that raises gets the exception as its output."""
    render = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    latencies, outputs = [], []
    for request in requests:
        start = time.perf_counter()
        try:
            combo = compute(request)
            with render("algebra.render"):
                out = str(combo)
        except Exception as exc:  # counted as a failed request by check()
            out = exc
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return latencies, outputs


def check(requests, outputs) -> list[str]:
    """One problem description per request whose output is not the
    independently computed answer."""
    problems = []
    for request, out in zip(requests, outputs):
        if isinstance(out, Exception):
            problems.append(f"{request[0]} raised {out!r}")
        elif out != expect.expected_output(request):
            problems.append(f"wrong answer for {request!r}: {out[:200]}")
    return problems


def run_checks(seed: int) -> dict:
    """Every clean check once, then every fault gate, each timed."""
    latencies, problems, instances = [], [], {}
    for fault, plan in ((False, CHECK_PLAN), (True, FAULT_PLAN)):
        for name, universe, kwargs in plan:
            if name == "check_equivariance":
                kwargs = {**kwargs, "seed": seed}
            t0 = time.perf_counter()
            try:
                report = getattr(verify, name)(universe, fault=fault, **kwargs)
            except Exception as exc:  # counted as a failed check
                latencies.append(time.perf_counter() - t0)
                problems.append(f"{name} raised {exc!r}")
                continue
            latencies.append(time.perf_counter() - t0)
            if not fault:
                instances[name] = report.instances
                if not (report.ok and report.instances > 0):
                    problems.append(f"clean {name} not ok: {report.summary()}")
            elif not (report.failure_count >= 1 and report.counterexamples):
                problems.append(f"injected fault in {name} not detected")
    return {
        "latencies": latencies,
        "instances": instances,
        "problems": problems,
    }


def digest(out) -> str:
    text = f"raised {out!r}" if isinstance(out, Exception) else out
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_session(workload: str, seed: int, session: int, trace: bool, check_answers: bool = True) -> dict:
    """Run one session.  Stream answers are checked against the oracles only
    when ``check_answers`` is set; other copies of the session are compared
    with the checked copy through the answers' digests."""
    tracer = Tracer() if trace else None
    tracing = tracer.active() if tracer else contextlib.nullcontext()
    if workload in STREAMS:
        requests = STREAMS[workload](seed, session)
        with tracing:
            latencies, outputs = serve(requests, tracer)
        result = {"latencies": latencies, "digests": [digest(out) for out in outputs]}
        start = time.perf_counter()
        problems = check(requests, outputs) if check_answers else []
        result["check_s"] = time.perf_counter() - start
    else:
        with tracing:
            result = run_checks(seed)
        problems = result.pop("problems")
        result["check_s"] = 0.0
    if tracer:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{workload}-seed{seed}-session{session}.tsv")
        result["layers"] = tracer.layer_values(result.get("instances", {}))
    result["attempted"] = len(result["latencies"])
    result["failed"] = len(problems)
    result["errors"] = problems[:MAX_ERRORS]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result
