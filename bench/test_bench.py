"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Every workload must pass its checks; a forged ``select`` report and a
flipped report byte must each count as a failed operation; the metric
tables must match ``BENCHMARK.json``; and the benchmark must refuse to run
without the program's sources.
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    runs = run.measure(list(workloads.WORKLOADS), 3, 0, False, workdir, size="tiny")
    return {r.name: r for r in runs}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("traced")
    runs = run.measure(list(workloads.WORKLOADS), 3, 0, True, workdir, size="tiny")
    return {r.name: r for r in runs}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks(tiny_runs, name):
    r = tiny_runs[name]
    assert r.attempted == 1 + run.READS_PER_REPEAT and r.failed == 0, r.problems
    values = run.summarize_run(r)
    assert set(values) == set(run.END_TO_END)
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(traced_runs, name):
    r = traced_runs[name]
    assert r.failed == 0, r.problems
    values = run.summarize_run(r)
    assert set(values) == set(run.PER_LAYER)
    assert values["iteration.anchors"] > 0
    assert values["correspondence.anchored_projections"] == (
        values["iteration.anchors"] * len(r.insts[0].expect["points"])
    )


def test_times_are_scaled_by_the_calibration():
    r = run.WorkloadRun([], trace=False)
    r.samples = {
        "solve_s": [2.0, 3.0, 4.0], "verify_s": [1.0], "setup_s": [0.5],
        "peak_rss_mb": [40.0], "calibration_s": [2 * run.CALIBRATION_REF_S],
    }
    assert run.summarize_run(r) == {
        "solve_s": 1.5, "verify_s": 0.5, "setup_s": 0.25, "peak_rss_mb": 40.0,
    }


def _rejudge(r, forge):
    """Judge a rewritten copy of the run's select report as a fresh run."""
    argv = r.insts[0].solve_argv
    out = run._out_path(argv)
    report = forge(json.loads(out.read_bytes()))
    out.write_text(json.dumps(report), encoding="ascii")
    fresh = run.WorkloadRun(r.insts[:1], trace=False)
    return fresh, fresh.judge(0, "solve", argv, run.Outcome(setup_s=0.0, exit=0))


def test_forged_select_report_counts_as_failed(tiny_runs):
    def forge(report):
        seq = report["sequence"]
        f0 = seq["selections"][0]["values"]
        for rd in seq["rounds"]:
            rd.update(B=[], new=[], deltas={}, sup_change=0.0)
        for rd in seq["hierarchy"]["rounds"]:
            rd["B"] = []
        for sel in seq["selections"]:
            sel["values"] = copy.deepcopy(f0)
        return report

    fresh, report = _rejudge(tiny_runs["balls"], forge)
    assert report is None
    assert fresh.failed == 1
    assert "recomputed hierarchy" in fresh.problems[0]


def test_flipped_report_byte_counts_as_failed(tmp_path):
    inst = workloads.build("polytopes", 1, tmp_path, "tiny")
    r = run.WorkloadRun([inst], trace=False)
    outcome, report = r._verb(0, "solve", inst.solve_argv)
    assert report is not None, r.problems
    out = run._out_path(inst.solve_argv)
    data = bytearray(out.read_bytes())
    at = data.index(b'"selections"') + 40
    while not chr(data[at]).isdigit():
        at += 1
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    out.write_bytes(bytes(data))
    assert r.judge(0, "solve", inst.solve_argv, outcome) is None
    assert r.failed == 1
    assert "bytes differ" in r.problems[0]


def test_metric_tables_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in doc["workloads"]) == workloads.WORKLOADS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "balls", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
