"""graftop benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compose-wide --seed 1 --seconds 30 --trace 0

A run is a closed loop with one client: sessions run one after another,
each in a fresh interpreter (``worker.py``) so graftop's module-level caches
start empty, as they do for a CLI user.  Every session is answered in
several copies, spread over the run, and an operation's latency is its
fastest copy (see ``replayed_sessions``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs session 0
untraced and then traced, in pairs, and reports the per-layer metrics from
the traced copies together with the tracing overhead.

The report goes to stdout, one metric per line; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_names

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("compose-wide", "check-suite")
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}
# Import-only interpreters per run, after one discarded warm-up, on top of
# the sessions' own spawns; set-up time is the median of all of them.
SETUP_PROBES = 7
# Every session is answered this many times, each copy in a fresh
# interpreter, and an operation's latency is its fastest copy: background
# load on a shared machine comes and goes, while the program's own work,
# garbage collection included, repeats exactly in every copy.  The count is
# fixed, so a slow phase of the machine cannot also change the statistic.
COPIES = 2
# A run must end within this many seconds whatever --seconds says.
HARD_LIMIT_S = 170


class RunError(Exception):
    pass


class Spawner:
    """Runs workers one at a time, each within what is left of the hard limit."""

    def __init__(self):
        self.deadline = time.monotonic() + HARD_LIMIT_S

    def __call__(self, **spec) -> dict:
        spec["spawned"] = time.monotonic()
        timeout = max(1.0, self.deadline - spec["spawned"])
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"worker {spec} ran past the {HARD_LIMIT_S} s limit") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunError(f"worker {spec} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def until_budget(seconds: float, step) -> list:
    """Call step(i) for i = 0, 1, ... while another call fits in the budget,
    judged by the last call's duration; at least once."""
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(step(len(results)))
        now = time.monotonic()
        if (now - start) + (now - t0) > seconds:
            return results


def replayed_sessions(copy, seconds: float) -> list:
    """Answer sessions 0, 1, ... once each, then again in COPIES - 1 later
    rounds in the same order, so that the copies of one session lie far
    apart in time.  The first round adds sessions while the whole run fits
    in the budget, a later copy costing what the first copy cost minus its
    answer checking; there is always at least one session."""
    start = time.monotonic()
    first = []
    later = 0.0
    while True:
        t0 = time.monotonic()
        first.append(copy(len(first), 0))
        wall = time.monotonic() - t0
        replay = (COPIES - 1) * (wall - first[-1]["check_s"])
        later += replay
        if time.monotonic() - start + later + wall + replay > seconds:
            break
    rounds = [first] + [[copy(i, r) for i in range(len(first))] for r in range(1, COPIES)]
    return [merge([rnd[i] for rnd in rounds]) for i in range(len(first))]


def fastest(copies: list) -> list:
    """Each operation's latency in its fastest copy."""
    return [min(x) for x in zip(*(c["latencies"] for c in copies))]


def merge(copies: list) -> dict:
    """Fold copies of one session: an operation's latency is its fastest
    copy.  The first copy's answers were checked against the oracles; every
    other copy must give byte-identical answers."""
    first = copies[0]
    failed = sum(c["failed"] for c in copies)
    errors = [e for c in copies for e in c["errors"]]
    for c in copies[1:]:
        for i, (want, got) in enumerate(zip(first.get("digests", ()), c.get("digests", ()))):
            if want != got:
                failed += 1
                errors.append(f"request {i} answered differently in a replay")
    return {
        "latencies": fastest(copies),
        "attempted": sum(c["attempted"] for c in copies),
        "failed": failed,
        "errors": errors,
        "rss_mb": [c["rss_mb"] for c in copies],
        "setup_s": [c["setup_s"] for c in copies],
    }


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(sessions: list, latencies: list, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "verdict_s": sum(latencies) / len(sessions),
        "peak_rss_mb": statistics.median(x for s in sessions for x in s["rss_mb"]),
    }


def per_layer(untraced: list, traced: list) -> tuple[dict, bool]:
    """Per-layer values of the traced copies (times from the fastest copy,
    counts from the first) and whether every copy repeated the counts."""
    values = [t["layers"] for t in traced]
    out = {
        name: values[0][name] if layer_unit(name) == "count" else min(v[name] for v in values)
        for name in per_layer_names()
        if name in values[0]
    }
    base = sum(fastest(untraced))
    out["trace.overhead_s"] = sum(fastest(traced)) - base
    out["trace.overhead_pct"] = 100 * out["trace.overhead_s"] / base
    counts_repeat = all(
        v[name] == values[0][name] for v in values for name in v if layer_unit(name) == "count"
    )
    return out, counts_repeat


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name == "operad.us_per_map":
        return "us"
    return "count"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metadata(args) -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "graftop").rglob("*.py"))
    )
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "src_graftop_lines": src_lines,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graftop" / "__init__.py").is_file():
        print(f"error: no graftop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spawn = Spawner()

    def copy(session: int, replay: int, trace: bool = False) -> dict:
        return spawn(workload=args.workload, seed=args.seed, session=session,
                     trace=trace, check_answers=replay == 0)

    try:
        if args.trace:
            pairs = until_budget(args.seconds, lambda i: (copy(0, i), copy(0, i + 1, trace=True)))
            untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
            sessions = [merge(untraced + traced)]
            metrics, counts_repeat = per_layer(untraced, traced)
            units = {name: layer_unit(name) for name in metrics}
        else:
            spawn(probe=True)  # warm-up: byte-compiles the sources once
            setup = [spawn(probe=True)["setup_s"] for _ in range(SETUP_PROBES)]
            sessions = replayed_sessions(copy, args.seconds)
            setup += [x for s in sessions for x in s["setup_s"]]
            latencies = [x for s in sessions for x in s["latencies"]]
            metrics = end_to_end(sessions, latencies, setup)
            units = END_TO_END
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    samples = sum(len(s["latencies"]) for s in sessions)
    print("meta " + json.dumps(metadata(args)))
    print(f"sessions {len(sessions)}, latency samples {samples}")
    if args.trace:
        print(f"counts repeat exactly across traced copies: {'yes' if counts_repeat else 'no'}")
    else:
        # Too few samples lie beyond the 99th percentile for it to be a
        # bounded metric; it is printed for reference only.
        p99 = 1000 * percentile(latencies, 99)
        print(f"{'latency_p99_ms (not bounded)':36s} {p99:>16.6f} ms")
    for name, value in metrics.items():
        print(f"{name:36s} {value:>16.6f} {units[name]}")
    print(f"{'error_ratio':36s} {failed / attempted:>16.6f} ({failed} of {attempted} failed)")
    for s in sessions:
        for problem in s["errors"]:
            print(f"failure: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
