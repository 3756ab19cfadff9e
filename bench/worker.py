"""One verb of the command line in a fresh process.

Run as ``python bench/worker.py SRC_DIR`` with ``SRC_DIR`` first on
``PYTHONPATH``.  The worker imports ``lipselect.cli``, prints ``ready`` and
then reads one JSON request from standard input:

* ``{"argv": [...], "trace": null}``: run ``lipselect.cli.main(argv)``;
* ``{"argv": [...], "trace": "spans.npz"}``: the same, with the public
  functions wrapped in spans that are written to that file afterwards.

It answers with one JSON line: exit code, wall time of the verb, the
process's peak resident set size, and the clock reading once numpy was
imported (``time.perf_counter`` is the system-wide monotonic clock on
Linux, so the runner can subtract its own reading at spawn).  The verb's
own printing is kept off the protocol stream.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    # start-up up to here is the same in every worker whatever the program
    # does, so the runner takes it as a measure of the machine's speed
    import numpy  # noqa: F401

    numpy_ready = time.perf_counter()
    import lipselect.cli

    # an installed copy elsewhere must not stand in for the checkout's code
    if src not in Path(lipselect.__file__).resolve().parents:
        print(f"lipselect was imported from {lipselect.__file__}, not {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    request = json.loads(sys.stdin.readline())
    entry = lipselect.cli.main
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)
    chatter = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(chatter):
        code = entry(request["argv"])
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.save(request["trace"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply = {"exit": code, "wall_s": wall, "peak_rss_kb": peak_kb, "numpy_ready": numpy_ready}
    print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
