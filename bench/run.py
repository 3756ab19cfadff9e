"""Benchmark of the lipselect command line.

    python3 bench/run.py --workload balls --seed 0 --seconds 35 --trace 0

Generates the workload's documents from the seed, then repeats the
workload's verbs until the time is up, each verb in a fresh single-threaded
worker process, and checks every output independently.  With ``--trace 0``
it reports the end-to-end metrics, times scaled to a reference machine
speed (see ``summarize_run``), with ``--trace 1`` the per-layer ones from a
traced run.  ``--workload all`` interleaves every workload in one run.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import numpy as np

import checks
import tracing
import workloads

VERB_TIMEOUT_S = 150
# a worker's time from spawn to numpy imported, on the machine the
# benchmark was defined on (2-core Intel Xeon, Python 3.11, numpy 2.4);
# end-to-end times are scaled by it over the run's median, see summarize_run
CALIBRATION_REF_S = 0.12
READS_PER_REPEAT = 2
SUBSEEDS = 4
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "solve_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "metric.self_s": "s",
    "metric.calls": "count",
    "metric.distance_matrix_s": "s",
    "metric.hierarchy_s": "s",
    "metric.spaces_built": "count",
    "convex.self_s": "s",
    "convex.calls": "count",
    "convex.ball.project_calls": "count",
    "convex.ball.project_s": "s",
    "convex.polytope.project_calls": "count",
    "convex.polytope.project_s": "s",
    "convex.flat.project_calls": "count",
    "convex.flat.project_s": "s",
    "convex.distance_to_calls": "count",
    "convex.distance_to_s": "s",
    "correspondence.self_s": "s",
    "correspondence.calls": "count",
    "correspondence.local_strong_selection_s": "s",
    "correspondence.parse_s": "s",
    "correspondence.support_rows": "count",
    "correspondence.anchored_projections": "count",
    "correspondence.projection_use_ratio": "ratio",
    "iteration.self_s": "s",
    "iteration.calls": "count",
    "iteration.compute_delta_s": "s",
    "iteration.blend_round_s": "s",
    "iteration.anchors": "count",
    "iteration.delta_halvings": "count",
    "iteration.verify_round_properties_s": "s",
    "iteration.verify_sequence_s": "s",
    "lipschitz.self_s": "s",
    "lipschitz.calls": "count",
    "lipschitz.verify_homogeneous_plip_s": "s",
    "lipschitz.homogeneous_extension_calls": "count",
    "lipschitz.homogeneous_extension_s": "s",
    "lipschitz.plip_profile_calls": "count",
    "lipschitz.plip_profile_s": "s",
    "bartle_graves.self_s": "s",
    "bartle_graves.calls": "count",
    "bartle_graves.build_right_inverse_s": "s",
    "bartle_graves.verify_right_inverse_s": "s",
    "formats.self_s": "s",
    "formats.calls": "count",
    "formats.write_report_s": "s",
    "formats.report_bytes": "bytes",
    "formats.sequence_to_dict_s": "s",
    "formats.sequence_from_dict_s": "s",
    "cli.untraced_s": "s",
    "trace.spans": "count",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("metric", "convex", "correspondence", "iteration", "lipschitz", "bartle_graves", "formats")

# per-layer metric -> (span name, field of the span summary)
SPAN_METRICS = {
    "metric.distance_matrix_s": ("metric.distance_matrix", "total_s"),
    "metric.hierarchy_s": ("metric.build_separation_hierarchy", "total_s"),
    "metric.spaces_built": ("metric.SampledMetricSpace.__init__", "calls"),
    "convex.ball.project_calls": ("convex.Ball.project", "calls"),
    "convex.ball.project_s": ("convex.Ball.project", "total_s"),
    "convex.polytope.project_calls": ("convex.Polytope.project", "calls"),
    "convex.polytope.project_s": ("convex.Polytope.project", "total_s"),
    "convex.flat.project_calls": ("convex.AffineFlat.project", "calls"),
    "convex.flat.project_s": ("convex.AffineFlat.project", "total_s"),
    "convex.distance_to_calls": ("convex.distance_to", "calls"),
    "convex.distance_to_s": ("convex.distance_to", "total_s"),
    "correspondence.local_strong_selection_s": ("correspondence.local_strong_selection", "self_s"),
    "correspondence.parse_s": ("correspondence.Correspondence.from_json_dict", "total_s"),
    "iteration.compute_delta_s": ("iteration.compute_delta", "total_s"),
    "iteration.blend_round_s": ("iteration.blend_round", "total_s"),
    "iteration.verify_round_properties_s": ("iteration.verify_round_properties", "total_s"),
    "iteration.verify_sequence_s": ("iteration.verify_sequence", "total_s"),
    "lipschitz.verify_homogeneous_plip_s": ("lipschitz.verify_homogeneous_plip", "total_s"),
    "lipschitz.homogeneous_extension_calls": ("lipschitz.homogeneous_extension", "calls"),
    "lipschitz.homogeneous_extension_s": ("lipschitz.homogeneous_extension", "total_s"),
    "lipschitz.plip_profile_calls": ("lipschitz.plip_profile", "calls"),
    "lipschitz.plip_profile_s": ("lipschitz.plip_profile", "total_s"),
    "bartle_graves.build_right_inverse_s": ("bartle_graves.build_right_inverse", "total_s"),
    "bartle_graves.verify_right_inverse_s": ("bartle_graves.verify_right_inverse", "total_s"),
    "formats.write_report_s": ("formats.write_report", "total_s"),
    "formats.sequence_to_dict_s": ("formats.sequence_to_dict", "total_s"),
    "formats.sequence_from_dict_s": ("formats.sequence_from_dict", "total_s"),
    "cli.untraced_s": ("cli.main", "self_s"),
}


def child_env() -> Dict[str, str]:
    """The worker's environment: the checkout's sources first on the path
    and BLAS pools pinned to one thread, without touching our own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class Outcome:
    setup_s: float
    exit: Optional[int] = None
    wall_s: float = 0.0
    peak_rss_kb: int = 0
    calibration_s: float = 0.0
    report_bytes: int = 0
    error: str = ""


def run_worker(argv: List[str], workdir: Path, trace_path: Optional[Path] = None) -> Outcome:
    """Start a fresh worker, time it until ready, then run one verb."""
    request = {"argv": argv, "trace": trace_path and str(trace_path)}
    with open(workdir / "worker.stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            env=child_env(), cwd=ROOT, text=True,
        )
        try:
            ready = proc.stdout.readline()
            outcome = Outcome(setup_s=time.perf_counter() - start)
            if ready != "ready\n":
                proc.communicate(timeout=VERB_TIMEOUT_S)
            else:
                out, _ = proc.communicate(json.dumps(request) + "\n", timeout=VERB_TIMEOUT_S)
                if out:
                    reply = json.loads(out.splitlines()[-1])
                    outcome.exit = reply["exit"]
                    outcome.wall_s = reply["wall_s"]
                    outcome.peak_rss_kb = reply["peak_rss_kb"]
                    outcome.calibration_s = reply["numpy_ready"] - start
        except subprocess.TimeoutExpired:
            outcome.error = f"timed out after {VERB_TIMEOUT_S} s"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 and not outcome.error:
            err.seek(0)
            outcome.error = f"worker exited with {proc.returncode}: {err.read()[-500:]}"
    return outcome


def _out_path(argv: List[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


@dataclass
class WorkloadRun:
    """Repeats of one workload and everything measured on them.

    The repeats take turns over ``insts``, the inputs of ``SUBSEEDS``
    consecutive seeds, so that a run's medians do not hang on the work of
    one input (the Dykstra work of ``polytopes`` varies with the rotation).
    """

    insts: List[workloads.Instance]
    trace: bool
    samples: Dict[str, List[float]] = field(default_factory=dict)
    layer_samples: List[Dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    determinism: checks.Determinism = field(default_factory=checks.Determinism)
    checked: set = field(default_factory=set)
    solve_reports: Dict[int, dict] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.insts[0].name

    def _sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _verb(self, i: int, role: str, argv: Optional[List[str]], trace_path: Optional[Path] = None):
        """Run and judge one verb on input ``i``; returns its outcome and,
        if every check passed, its parsed report."""
        self.attempted += 1
        if argv is None:
            return self._fail(f"{role}: not run because the solve failed"), None
        outcome = run_worker(argv, self.insts[i].workdir, trace_path)
        self._sample("setup_s", outcome.setup_s)
        if outcome.calibration_s:
            self._sample("calibration_s", outcome.calibration_s)
        return outcome, self.judge(i, role, argv, outcome)

    def judge(self, i: int, role: str, argv: List[str], outcome: Outcome) -> Optional[dict]:
        """Count a failure on a nonzero exit, on output bytes that differ
        from the first repeat, or on a failed independent check."""
        inst = self.insts[i]
        if outcome.error or outcome.exit != 0:
            self._fail(f"seed {inst.seed} {role}: exit {outcome.exit} {outcome.error}".strip())
            return None
        try:
            data = _out_path(argv).read_bytes()
            report = json.loads(data)
            problems = self.determinism.check(f"{i} {role} report", data)
            if role == "solve" and inst.name == "bartle-graves":
                problems += self.determinism.check(f"{i} tau table", (inst.workdir / "tau.csv").read_bytes())
            # a full check once per input and role; later repeats must
            # match its bytes
            if (i, role) not in self.checked:
                self.checked.add((i, role))
                if role == "solve":
                    problems += checks.check_solve(inst, report)
                    self.solve_reports[i] = report
                else:
                    problems += checks.check_read(inst, report, self.solve_reports[i])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable or malformed output: {exc!r}"]
        if problems:
            self._fail(f"seed {inst.seed} {role}: " + "; ".join(problems))
            return None
        outcome.report_bytes = len(data)
        return report

    def _fail(self, message: str) -> Outcome:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)
        return Outcome(setup_s=0.0)

    def repeat(self, k: int) -> None:
        i, turn = k % len(self.insts), k // len(self.insts)
        if self.trace:
            self._traced_repeat(i, turn)
            return
        inst = self.insts[i]
        solve, report = self._verb(i, "solve", inst.solve_argv)
        read_argv = None if report is None else inst.read_argv(report)
        # the read path is short, so it runs more often for a steady median
        reads = [self._verb(i, "verify", read_argv) for _ in range(READS_PER_REPEAT)]
        if report is not None and all(rep is not None for _, rep in reads):
            self._sample("solve_s", solve.wall_s)
            for read, _ in reads:
                self._sample("verify_s", read.wall_s)
            peak_kb = max(o.peak_rss_kb for o in [solve] + [read for read, _ in reads])
            self._sample("peak_rss_mb", peak_kb / 1024.0)

    def _traced_repeat(self, i: int, turn: int) -> None:
        inst = self.insts[i]
        spans = [inst.workdir / "solve-spans.npz", inst.workdir / "read-spans.npz"]
        runs = [(None, "trace.untraced_solve_s"), (spans[0], "trace.solve_s")]
        solve = report = None
        for trace_path, key in runs if turn % 2 == 0 else runs[::-1]:
            outcome, rep = self._verb(i, "solve", inst.solve_argv, trace_path)
            if rep is not None:
                self._sample(key, outcome.wall_s)
                if trace_path is not None:
                    solve, report = outcome, rep
        read_argv = None if report is None else inst.read_argv(report)
        read, read_report = self._verb(i, "verify", read_argv, spans[1])
        if report is not None and read_report is not None:
            summaries = [tracing.summarize(p) for p in spans]
            self.layer_samples.append(
                layer_metrics(inst, summaries, solve.report_bytes + read.report_bytes)
            )


def delta_halvings(n: int, delta: float) -> int:
    """Halvings from the start radius ``2^-(n+1) / 2`` down to ``delta``
    (no locality radius is set through the CLI)."""
    return int(round(math.log2(2.0 ** (-(n + 2)) / delta)))


def layer_metrics(inst: workloads.Instance, summaries: List[dict], report_bytes: int) -> Dict[str, float]:
    """Per-layer numbers of one traced repeat (solve plus read path)."""
    spans: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, stats in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                acc[key] += value
    out: Dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for name, s in spans.items() if name.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
        out[f"{layer}.calls"] = sum(s["calls"] for s in mine)
    for metric, (name, key) in SPAN_METRICS.items():
        out[metric] = spans.get(name, {}).get(key, 0)
    out["formats.report_bytes"] = report_bytes
    out["trace.spans"] = sum(s["span_count"] for s in summaries)

    # counters derived from the captured rounds: anchors, delta halvings,
    # and how many anchored projections land inside a blending support
    points = inst.expect["points"]
    anchors = halvings = support_rows = 0
    for rd in summaries[0]["rounds"]:
        for b, delta in rd["deltas"]:
            anchors += 1
            halvings += delta_halvings(rd["n"], delta)
            support_rows += int(np.count_nonzero(np.linalg.norm(points - points[b], axis=1) < 2.0 * delta))
    projections = anchors * len(points)
    out["iteration.anchors"] = anchors
    out["iteration.delta_halvings"] = halvings
    out["correspondence.support_rows"] = support_rows
    out["correspondence.anchored_projections"] = projections
    out["correspondence.projection_use_ratio"] = support_rows / projections if projections else 0.0
    return out


def measure(names: List[str], seed: int, seconds: float, trace: bool,
            workdir: Path, size: str = "full") -> List[WorkloadRun]:
    """Warm up on tiny instances, then repeat every workload, rotating
    their order, until ``seconds`` are spent (at least one repeat)."""
    for name in names:
        warm = WorkloadRun([workloads.build(name, seed, workdir / f"warm-{name}", "tiny")], trace)
        warm.repeat(0)
    runs = [
        WorkloadRun([
            workloads.build(name, s, workdir / f"{name}-{s}", size)
            for s in range(seed * SUBSEEDS, (seed + 1) * SUBSEEDS)
        ], trace)
        for name in names
    ]
    start = time.perf_counter()
    durations: List[float] = []
    k = 0
    while True:
        began = time.perf_counter()
        first = k % len(runs)
        for run in runs[first:] + runs[:first]:
            run.repeat(k)
        durations.append(time.perf_counter() - began)
        k += 1
        # stop when one more repeat would end closer past the deadline
        # than the current time is before it
        if time.perf_counter() - start + statistics.median(durations) / 2 >= seconds:
            return runs


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize_run(run: WorkloadRun) -> Dict[str, float]:
    """Medians of the run's samples.  End-to-end times are scaled to the
    reference machine speed: multiplied by ``CALIBRATION_REF_S`` over the
    run's median calibration time.  Per-layer figures stay raw."""
    if run.trace:
        keys = PER_LAYER
        table = {k: [s[k] for s in run.layer_samples] for k in keys if not k.startswith("trace.")}
        table["trace.spans"] = [s["trace.spans"] for s in run.layer_samples]
        for key in ("trace.solve_s", "trace.untraced_solve_s"):
            table[key] = run.samples.get(key, [])
    else:
        keys = END_TO_END
        table = {k: run.samples.get(k, []) for k in keys}
    raw = {k: statistics.median(v) for k, v in table.items() if v}
    if run.trace and "trace.solve_s" in raw and "trace.untraced_solve_s" in raw:
        raw["trace.overhead_s"] = raw["trace.solve_s"] - raw["trace.untraced_solve_s"]
    scale = 1.0
    calibration = run.samples.get("calibration_s")
    if not run.trace and calibration:
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        q1, q3 = quartiles(calibration)
        print(f"  {'calibration_s':<42} {statistics.median(calibration):>14.6g} s      "
              f"n={len(calibration)} q1={q1:.6g} q3={q3:.6g} scale={scale:.4f}")
    values = {k: v * scale if keys[k] == "s" and not run.trace else v for k, v in raw.items()}
    for key in keys:
        samples = table.get(key)
        if samples:
            q1, q3 = quartiles(samples)
            spread = (q3 - q1) / raw[key] if raw[key] else 0.0
            print(f"  {key:<42} {values[key]:>14.6g} {keys[key]:<6} raw median={raw[key]:.6g} "
                  f"n={len(samples)} q1={q1:.6g} q3={q3:.6g} iqr/median={spread:.3f}")
        elif key in values:
            print(f"  {key:<42} {values[key]:>14.6g} {keys[key]:<6} (derived)")
    rate = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_rate':<42} {rate:>14.6g} ratio  ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    return values


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lipselect" / "cli.py").is_file():
        print(f"no lipselect sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    # on SIGTERM, unwind so that the running worker is killed and the
    # working files are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        print("machine: " + json.dumps(machine_facts()))
        runs = measure(names, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    units = PER_LAYER if args.trace else END_TO_END
    for run in runs:
        seeds = ", ".join(str(inst.seed) for inst in run.insts)
        print(f"workload {run.name} seed {args.seed} (inputs {seeds}) trace {args.trace}:")
        prefix = "" if len(runs) == 1 else run.name + "."
        for key, value in summarize_run(run).items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
