"""What a verb costs in a fresh interpreter, first call against second.

For each workload of ``bench/workloads.py`` the script writes the seed's
full-size documents with ``workloads.build`` and then, for the solve verb
and for its read path (``verify`` or ``plip``), starts ``--runs`` fresh
interpreters set up like the benchmark's worker: no bytecode read or
written (``python -B`` on a copy of ``src/`` without ``__pycache__``), BLAS
on one thread, and ``numpy`` and ``lipselect.cli`` imported first.  Each
interpreter runs the verb twice through ``lipselect.cli.main`` and records,
per call, the wall time, the minor page faults (``ru_minflt``), the passes
of the cyclic collector and their time (``gc.callbacks``), and the modules
the call imported.  It prints the medians, and the modules that the first
call imported in most interpreters.

    python tools/cold_start.py --runs 9 --seed 0

With ``--against DIR`` each verb runs ``--runs`` times from this
checkout's ``src/`` and as often from ``DIR``'s, the two alternating which
starts first, on the same documents.  For each verb it prints both medians
of the first call's wall time and minor faults, and the pairs in which
each side's first call was faster: a quick A/B of two checkouts before the
benchmark's own pairs.

    python tools/cold_start.py --runs 15 --against ../parent
"""

from __future__ import annotations

import argparse
import collections
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402
from run import child_env  # noqa: E402

# the call's passes are counted as it returns: a pass that a paused
# collector owes runs at the caller's next allocation, outside the call
CHILD = """
import gc, json, resource, sys, time
import numpy
import lipselect.cli
argv, passes, began, calls = json.loads(sys.argv[1]), [], [0.0], []
gc.callbacks.append(lambda phase, info: began.__setitem__(0, time.perf_counter()) if phase == "start"
                    else passes.append(time.perf_counter() - began[0]))
for _ in range(2):
    modules, seen, faults = set(sys.modules), len(passes), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    code = lipselect.cli.main(argv)
    wall, done = time.perf_counter() - start, len(passes)
    calls.append({"exit": code, "wall_ms": 1e3 * wall,
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
                  "gc_passes": done - seen, "gc_ms": 1e3 * sum(passes[seen:done]),
                  "imported": sorted(set(sys.modules) - modules)})
print(json.dumps(calls))
"""


def cold_call(argv, src: Path) -> list:
    """``[first, second]``, the records of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, json.dumps(argv)],
                          env={**child_env(), "PYTHONPATH": str(src)}, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def paired_calls(argv, srcs: list, runs: int) -> list:
    """Per source tree, the records of ``runs`` fresh interpreters; the
    trees take turns in order, and every other round in reverse."""
    out = [[] for _ in srcs]
    for i in range(runs):
        for side in range(len(srcs))[:: -1 if i % 2 else 1]:
            out[side].append(cold_call(argv, srcs[side]))
    return out


def summary(calls: list) -> str:
    lines = []
    for i, name in enumerate(("first", "second")):
        stats = {key: statistics.median(c[i][key] for c in calls) for key in ("wall_ms", "minflt", "gc_passes", "gc_ms")}
        exits = sorted({c[i]["exit"] for c in calls})
        lines.append(f"  {name:<6} wall {stats['wall_ms']:.2f} ms, {stats['minflt']:.0f} minor faults, "
                     f"{stats['gc_passes']:.0f} collector passes in {stats['gc_ms']:.2f} ms, exit {exits}")
    imported, count = collections.Counter(tuple(c[0]["imported"]) for c in calls).most_common(1)[0]
    lines.append(f"  first call imported ({count} of {len(calls)}): {', '.join(imported) or 'nothing'}")
    return "\n".join(lines)


def comparison(here: list, there: list) -> str:
    """Both medians of the first call's wall time and minor faults, and
    the pairs whose first call each side ran faster."""
    med = {key: [statistics.median(c[0][key] for c in calls) for calls in (here, there)] for key in ("wall_ms", "minflt")}
    walls = [(a[0]["wall_ms"], b[0]["wall_ms"]) for a, b in zip(here, there)]
    won = [sum(a < b for a, b in walls), sum(b < a for a, b in walls)]
    exits = sorted({c[0]["exit"] for c in here + there})
    return (f"  first call wall {med['wall_ms'][0]:.2f} ms here, {med['wall_ms'][1]:.2f} ms against; "
            f"{med['minflt'][0]:.0f} and {med['minflt'][1]:.0f} minor faults; "
            f"faster in {won[0]} and {won[1]} of {len(walls)} pairs, exit {exits}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh interpreters per verb")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--against", type=Path, help="a checkout whose src/ each verb is compared with")
    args = parser.parse_args(argv)
    trees = [ROOT] + ([args.against] if args.against else [])
    if args.against and not (args.against / "src" / "lipselect").is_dir():
        parser.error(f"{args.against} holds no src/lipselect")
    with tempfile.TemporaryDirectory() as tmp:
        srcs = [Path(tmp) / f"src{i}" for i in range(len(trees))]
        for tree, src in zip(trees, srcs):
            shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for name in args.workload:
            inst = workloads.build(name, args.seed, Path(tmp) / name)
            solve = inst.solve_argv
            solved = paired_calls(solve, srcs, args.runs)
            report = json.loads(Path(solve[solve.index("--out") + 1]).read_text(encoding="utf-8"))
            read = inst.read_argv(report)
            for verb, calls in ((solve[0], solved), (read[0], paired_calls(read, srcs, args.runs))):
                shown = comparison(*calls) if args.against else summary(calls[0])
                print(f"{name} seed {args.seed}, {verb}:\n{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
