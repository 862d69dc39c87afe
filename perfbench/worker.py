"""Entry point of one benchmark session in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, session index and whether to trace, and
carries the monotonic time at which the parent spawned this process.  The
worker imports graftop from the checkout's ``src`` before anything else, so
spawn-to-import is the set-up time a CLI user pays.  A spec with ``probe``
set stops there.  The worker prints one JSON line.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    import graftop
    import graftop.cli  # noqa: F401  (part of what the CLI user imports)

    ready = time.monotonic()
    if not os.path.abspath(graftop.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"graftop was imported from {graftop.__file__}, not from {SRC}")
    result = {}
    if not spec.get("probe"):
        import session

        result = session.run_session(
            spec["workload"], spec["seed"], spec["session"], spec["trace"], spec["check_answers"]
        )
    result["setup_s"] = ready - spec["spawned"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
