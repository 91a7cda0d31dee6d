"""Run one attrseq CLI command under the benchmark's tracer.

Usage: cli_child.py TRACE_OUT SPAWN_TIME PARENT_SPAN ARGS...

Runs ``attrseq.cli.main(ARGS)`` with every traced call site wrapped, then
writes the tracer's state and the process start-up time (from SPAWN_TIME, the
parent's ``time.perf_counter()`` at spawn, to the start of ``main``) to
TRACE_OUT as JSON. Top-level spans take PARENT_SPAN as their parent.
``perf_counter`` reads the system-wide monotonic clock on Linux, so the two
processes' times compare. Exits with the command's own exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import attrseq.cli  # noqa: E402  (PYTHONPATH points at the checkout's src)
from tracer import Tracer  # noqa: E402


def run(argv):
    out, spawned, parent, args = argv[0], float(argv[1]), int(argv[2]), argv[3:]
    tracer = Tracer(root=parent).install()
    started = time.perf_counter()
    try:
        code = attrseq.cli.main(args)
    finally:
        tracer.uninstall()
        Path(out).write_text(json.dumps({"startup_s": started - spawned, "tracer": tracer.state()}))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
