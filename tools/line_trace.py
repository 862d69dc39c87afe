"""Print the statement lines of src/graftop that no Tier-1 test runs.

    python tools/line_trace.py [pytest arguments]

Runs pytest in this process under a line tracer on graftop's frames, set
again before each test since a test may replace it (Hypothesis does).  The
process pins itself to one CPU, so clean checks scan in-process: forked
check workers leave through os._exit and record nothing.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = str(SRC / "graftop")
hits: dict[str, set[int]] = {}


def _lines(frame, event, arg):
    if event == "line":
        hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(PACKAGE) else None


class Retrace:
    def pytest_runtest_setup(self, item):
        sys.settrace(_calls)


def never_ran(path: Path, ran: set[int]) -> list[int]:
    """First lines of the statements in ``path``, docstrings left out, of
    which no line is in ``ran``; a compound statement's lines are those of
    its decorators and its header."""
    missed = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or (
            isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)
        ):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = max(start, body[0].lineno - 1 if body else node.end_lineno)
        if ran.isdisjoint(range(start, end + 1)):
            missed.append(node.lineno)
    return sorted(missed)


def main(args: list[str]) -> int:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.settrace(_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[Retrace()])
    finally:
        sys.settrace(None)
    print("statement lines of src/graftop that never ran:")
    total = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        missed = never_ran(path, hits.get(str(path), set()))
        total += len(missed)
        print(f"{path.name} ({len(missed)}): {', '.join(map(str, missed))}")
    print(f"total: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
