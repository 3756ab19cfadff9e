"""SHA-256 of every file the benchmark workloads write, as JSON.

For each workload of ``bench/workloads.py``, each seed and both sizes (full
and tiny), the script writes the input documents with
``workloads.build``, runs the constructing verb and then its read path
(``verify`` or ``plip``) in-process through ``lipselect.cli.main``, and
hashes every file left in the instance's directory: inputs, reports and
tables.  Each ``select`` also writes its ``f0..fN`` CSV tables, with
``--tables-dir <instance>/tables``, and each ``plip`` its ratio profiles,
with ``--profiles-csv <instance>/profiles.csv``, so that every ratio is
compared, not only each estimate.  Every instance then runs ``separate
--rounds`` with the configured rounds on its space: for ``balls`` and
``polytopes`` the space of the correspondence, written out as
``space.json``, for ``bartle-graves`` the sphere sample ``sphere.json``.  So
the hierarchy is compared as each of its renderers writes it.  Each tiny
``balls`` and ``polytopes`` instance also runs ``select`` and ``verify`` at
``DEEP_ROUNDS`` rounds, in its ``deep/`` directory, from a copy of its
``iteration.json`` with only ``rounds`` rewritten: rounds in which no point
joins the hierarchy, and runs ``verify`` on a forged copy of its sequence,
in its ``forged/`` directory, so that the report of a failing audit is
compared too.  It also runs ``verify`` on twelve malformed copies of its
sequence, each with one field broken (bad entries in the last selection,
bad ids in the last round's ``new``, an object where ``B`` belongs, a
stored ``alpha`` beyond the doubles), in ``malformed/<case>``, and keeps
each exit, report and error line, so that a change in how a document is
rejected shows; an exception the command does not catch counts as exit 1,
the interpreter's, with its class and message as the error line.  Each
tiny ``balls`` and ``bartle-graves`` instance also runs one parameter
fault in its ``fault/`` directory, keeping its exit and error line the
same way: ``select`` with ``delta_min`` above round 1's first radius, and
``plip`` on the sphere table at a radius whose balls hold only their base.
Each tiny ``bartle-graves`` instance also runs its solve with one option
out of range, in ``fault-beta/`` a ``--beta`` of 1e308, at which ``eta = 2
beta + sup ||tau||`` overflows, and in ``fault-count/`` a ``--sphere-count``
of 1e17, whose sample no address space holds.
It imports the ``src/`` and ``bench/`` of the checkout it lives in and changes
nothing there.

    python tools/output_digests.py --out digests.json

Run it in two checkouts: the same digest for every file means the outputs
are byte-identical.  ``--against`` compares with a file written in the other
checkout, prints every file path and every instance whose exits differ,
and exits 1 if anything differs.  The seeds default to 0-9:

    python tools/output_digests.py --against parent.json

BLAS is pinned to one thread, as in the benchmark's workers, so that
reductions keep one order.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from lipselect.cli import main as cli_main  # noqa: E402

DEEP_ROUNDS = 40
# the first word of each error line the command line prints
_ERROR_PREFIXES = ("schema error:", "parameter error:", "internal error:", "uncaught ")


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


def _solve_and_read(solve_argv, read_argv) -> list:
    """The exits of the solve and of the read path ``read_argv(report)``,
    null when the solve failed."""
    solve = _run(solve_argv)
    if solve:
        return [solve, None]
    out = solve_argv[solve_argv.index("--out") + 1]
    return [solve, _run(read_argv(json.loads(Path(out).read_text(encoding="utf-8"))))]


def _with_profiles(argv, path: Path) -> list:
    """``argv``, plus ``--profiles-csv path`` when it runs ``plip``."""
    return argv + ["--profiles-csv", str(path)] if argv[0] == "plip" else argv


def _deep_exits(inst, deep: Path) -> list:
    """``[solve, read]`` exits of ``select`` and ``verify`` at ``DEEP_ROUNDS``
    rounds, every file written in ``deep``."""
    deep.mkdir()
    iteration = json.loads((inst.workdir / "iteration.json").read_text(encoding="utf-8"))
    (deep / "iteration.json").write_text(json.dumps({**iteration, "rounds": DEEP_ROUNDS}), encoding="utf-8")
    argv = list(inst.solve_argv)
    argv[argv.index("--iteration") + 1] = str(deep / "iteration.json")
    argv[argv.index("--out") + 1] = str(deep / "select.json")
    corr = argv[argv.index("--correspondence") + 1]

    def verify_argv(report):
        (deep / "sequence.json").write_text(json.dumps(report["sequence"]), encoding="utf-8")
        return ["verify", "--correspondence", corr, "--sequence", str(deep / "sequence.json"),
                "--out", str(deep / "verify.json")]

    return _solve_and_read(argv, verify_argv)


def _forged_exits(inst, forged: Path) -> list:
    """``[read]``, the exit of ``verify`` on the solve's sequence with row 0
    of ``f_1`` moved by 10 in every coordinate, off its body, every file
    written in ``forged``; null when the solve wrote no report."""
    forged.mkdir()
    report = inst.workdir / "select.json"
    if not report.exists():
        return [None]
    sequence = json.loads(report.read_text(encoding="utf-8"))["sequence"]
    values = sequence["selections"][1]["values"]
    values["0"] = [x + 10.0 for x in values["0"]]
    (forged / "sequence.json").write_text(json.dumps(sequence), encoding="utf-8")
    return [_run(["verify", "--correspondence", str(inst.workdir / "correspondence.json"),
                  "--sequence", str(forged / "sequence.json"), "--out", str(forged / "verify.json")])]


def _malformed_cases(sequence: dict) -> dict:
    """``{case: document}``, copies of ``sequence`` each with one field
    broken: an entry of row 0 of the last selection a bool, a string, null,
    NaN or 2**70, or that row one entry longer; in the last round's ``new``
    one id 2**70 or ``"5"``, or the whole list the string ``"5"``; the last
    round's ``B`` or the last hierarchy level's ``B`` an object keyed by
    its ids; the config's ``alpha`` the integer 10**400."""
    row = ("selections", -1, "values", "0")
    edits = {f"entry_{name}": (row + (0,), value) for name, value in (
        ("bool", True), ("string", "0.5"), ("null", None), ("nan", float("nan")), ("2_70", 2**70))}
    edits.update({
        "row_ragged": (row, sequence["selections"][-1]["values"]["0"] + [0.0]),
        "new_id_2_70": (("rounds", -1, "new", -1), 2**70),
        "new_id_string_5": (("rounds", -1, "new", -1), "5"),
        "new_string_5": (("rounds", -1, "new"), "5"),
        "round_B_object": (("rounds", -1, "B"), dict.fromkeys(map(str, sequence["rounds"][-1]["B"]), 1)),
        "hierarchy_B_object": (
            ("hierarchy", "rounds", -1, "B"), dict.fromkeys(map(str, sequence["hierarchy"]["rounds"][-1]["B"]), 1)),
        "config_alpha_10_400": (("config", "alpha"), 10**400),
    })
    cases = {}
    for name, (path, value) in edits.items():
        cases[name] = target = json.loads(json.dumps(sequence))
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return cases


def _case_exit(argv, case: Path) -> int:
    """The exit of ``argv``, with the error line the command printed kept
    in ``case/error.txt``; an exception the command does not catch counts as
    exit 1, the interpreter's, with its class and message as the line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception as exc:
            code = 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
    # numpy's warnings name source lines; the command's own line is kept
    lines = [line for line in err.getvalue().splitlines() if line.startswith(_ERROR_PREFIXES)]
    (case / "error.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return code


def _malformed_exits(inst, malformed: Path) -> dict:
    """``{case: [read]}``, the exit of ``verify`` on each of
    :func:`_malformed_cases` of the solve's sequence, each case's files in
    ``malformed/<case>``: the document, the report when one is written, and
    the error line the command printed, in ``error.txt``; empty when the
    solve wrote no report."""
    report = inst.workdir / "select.json"
    if not report.exists():
        return {}
    exits = {}
    cases = _malformed_cases(json.loads(report.read_text(encoding="utf-8"))["sequence"])
    for name, doc in cases.items():
        case = malformed / name
        case.mkdir(parents=True)
        (case / "sequence.json").write_text(json.dumps(doc), encoding="utf-8")
        exits[name] = [_case_exit(["verify", "--correspondence", str(inst.workdir / "correspondence.json"),
                                   "--sequence", str(case / "sequence.json"), "--out", str(case / "verify.json")], case)]
    return exits


def _fault_exits(inst, fault: Path) -> list:
    """``[solve]``, the exit of a parameter fault of the tiny ``balls`` or
    ``bartle-graves`` instance ``inst``, its documents and its error line in
    ``fault``: on ``bartle-graves``, ``plip`` on the stored sphere table at
    one radius, half the sphere's least nearest-neighbour distance, so that
    no ball holds a point besides its base; on ``balls``, ``select`` with
    ``delta_min`` 0.2, above round 1's first radius 2^-3."""
    fault.mkdir()
    if inst.name == "bartle-graves":
        points = np.array(json.loads((inst.workdir / "sphere.json").read_text(encoding="utf-8"))["points"])
        chords = np.linalg.norm(points[:, None] - points[None], axis=2)
        np.fill_diagonal(chords, np.inf)
        argv = ["plip", "--space", str(inst.workdir / "sphere.json"), "--table", str(inst.workdir / "tau.json"),
                "--radii", repr(float(chords.min()) / 2.0), "--out", str(fault / "plip.json")]
    else:
        iteration = json.loads((inst.workdir / "iteration.json").read_text(encoding="utf-8"))
        (fault / "iteration.json").write_text(json.dumps({**iteration, "delta_min": 0.2}), encoding="utf-8")
        argv = ["select", "--correspondence", str(inst.workdir / "correspondence.json"),
                "--iteration", str(fault / "iteration.json"), "--out", str(fault / "select.json")]
    return [_case_exit(argv, fault)]


def _option_fault_exits(inst, fault: Path, flag: str, value: str) -> list:
    """``[solve]``, the exit of the ``bartle-graves`` solve of ``inst`` with
    ``flag`` set to ``value``, its outputs and its error line in ``fault``."""
    fault.mkdir()
    argv = list(inst.solve_argv)
    for key, text in ((flag, value), ("--tau-csv", str(fault / "tau.csv")), ("--out", str(fault / "bartle_graves.json"))):
        argv[argv.index(key) + 1] = text
    return [_case_exit(argv, fault)]


def digests(seeds, workdir: Path) -> dict:
    """``{"files": {path: sha256}, "exits": {instance: [solve, read, separate]}}``,
    paths relative to ``workdir`` as ``workload/size/seed/file``; a read
    exit is null when the solve failed.  A deep run's exits are
    ``[solve, read]`` under ``workload/tiny/seed/deep``, a forged one's
    ``[read]`` under ``workload/tiny/seed/forged``, a malformed case's
    ``[read]`` under ``workload/tiny/seed/malformed/case``, and a fault's
    ``[solve]`` under ``workload/tiny/seed/fault``, or ``fault-beta`` and
    ``fault-count`` for the option faults of ``bartle-graves``."""
    files, exits = {}, {}
    for name in workloads.WORKLOADS:
        for size in ("full", "tiny"):
            for seed in seeds:
                tag = f"{name}/{size}/{seed}"
                inst = workloads.build(name, seed, workdir / tag, size)
                solve_argv = list(inst.solve_argv)
                if solve_argv[0] == "select":
                    solve_argv += ["--tables-dir", str(workdir / tag / "tables")]
                solve, read = _solve_and_read(solve_argv, lambda report: _with_profiles(
                    inst.read_argv(report), workdir / tag / "profiles.csv"))
                space = workdir / tag / "sphere.json"
                if name != "bartle-graves":
                    corr = json.loads((workdir / tag / "correspondence.json").read_text(encoding="utf-8"))
                    space = workdir / tag / "space.json"
                    space.write_text(json.dumps(corr["space"]), encoding="utf-8")
                separate = _run([
                    "separate", "--space", str(space), "--rounds", str(inst.expect["rounds"]),
                    "--out", str(workdir / tag / "separate.json"),
                ])
                exits[tag] = [solve, read, separate]
                if size == "tiny" and name != "polytopes":
                    exits[f"{tag}/fault"] = _fault_exits(inst, workdir / tag / "fault")
                if size == "tiny" and name == "bartle-graves":
                    for case, flag, value in (("beta", "--beta", "1e308"), ("count", "--sphere-count", "1e17")):
                        exits[f"{tag}/fault-{case}"] = _option_fault_exits(inst, workdir / tag / f"fault-{case}", flag, value)
                if size == "tiny" and name != "bartle-graves":
                    exits[f"{tag}/deep"] = _deep_exits(inst, workdir / tag / "deep")
                    exits[f"{tag}/forged"] = _forged_exits(inst, workdir / tag / "forged")
                    for case, case_exits in _malformed_exits(inst, workdir / tag / "malformed").items():
                        exits[f"{tag}/malformed/{case}"] = case_exits
                for path in sorted((workdir / tag).rglob("*")):
                    if path.is_file():
                        rel = path.relative_to(workdir).as_posix()
                        files[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"files": files, "exits": exits}


def differences(theirs: dict, ours: dict) -> list:
    """One line per file path whose digest differs or that only one side
    has, then one per instance whose exits differ."""
    lines = []
    for key, what in (("files", "file"), ("exits", "exits")):
        for name in sorted(theirs[key].keys() | ours[key].keys()):
            a, b = theirs[key].get(name), ours[key].get(name)
            if a != b:
                lines.append(f"{what} {name}: {a} -> {b}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--out", help="JSON file to write (default: standard output, unless --against)")
    parser.add_argument("--against", help="digest file to compare with; exit 1 if anything differs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        result = digests(args.seeds, Path(tmp))
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    elif not args.against:
        sys.stdout.write(text)
    if not args.against:
        return 0
    lines = differences(json.loads(Path(args.against).read_text(encoding="utf-8")), result)
    print("\n".join(lines) if lines else f"{len(result['files'])} files and the exits of {len(result['exits'])} instances match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
