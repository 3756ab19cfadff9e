import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect import errors
from lipselect.cli import VERBS, main
from lipselect.formats import (
    dumps_canonical,
    format_float,
    selection_csv_texts,
    sequence_from_dict,
    sequence_to_dict,
    tables_from_dicts,
    write_report,
)

# the root conftest.py puts bench/ on the path
import workloads
from conftest import segment_document
from test_convex import narrow_wedge, three_sided_corner

FOUR_POINT_LINE = {"metric": "l2", "points": [[0.0], [0.3], [0.6], [1.0]]}
# full-row-rank m x (m + 1) matrices, by codomain dimension m
FULL_RANK = {2: [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], 3: [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def line_doc(tmp_path):
    return write_json(tmp_path / "space.json", FOUR_POINT_LINE)


def segment_correspondence_docs(tmp_path, n_points=41):
    corr_path = write_json(tmp_path / "corr.json", segment_document(n_points))
    iter_path = write_json(
        tmp_path / "iter.json",
        {"alpha": 2.0**-0.5, "beta": 1.0, "rounds": 3},
    )
    return corr_path, iter_path


def fresh(*args, timeout=None):
    """Run a fresh interpreter with the package's ``src`` on its path:
    the root ``conftest.py`` has imported everything in this one."""
    path = [str(Path(ls.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def respell_member(spelling):
    """Corrupter naming member 5 of the last round's ``B`` as ``spelling``."""

    def corrupt(doc):
        members = doc["rounds"][-1]["B"]
        members[members.index(5)] = spelling

    return corrupt


class TestSeparate:
    def test_single_radius(self, tmp_path, line_doc, capsys):
        out = tmp_path / "report.json"
        code = main(["separate", "--space", line_doc, "--r", "0.5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["B"] == [0, 2]  # ids are row indices: coords 0.0 and 0.6
        assert report["covering_radius"] == pytest.approx(0.4, abs=1e-15)

    def test_hierarchy(self, tmp_path, line_doc):
        out = tmp_path / "report.json"
        code = main(["separate", "--space", line_doc, "--rounds", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["hierarchy"]["rounds"]) == 3
        assert all(
            c < rd["r"]
            for c, rd in zip(report["covering_radii"], report["hierarchy"]["rounds"])
        )

    @pytest.mark.parametrize("extra", [[], ["--r", "0.5"]], ids=["alone", "with_r"])
    def test_zero_rounds_is_a_parameter_error(self, line_doc, capsys, extra):
        # --rounds 0 asks for a hierarchy, whether or not --r is given
        assert main(["separate", "--space", line_doc, "--rounds", "0", *extra]) == 3
        assert "hierarchy needs at least one round" in capsys.readouterr().err

    def test_missing_space_is_schema_error(self, tmp_path):
        assert main(["separate", "--r", "0.5"]) == 2

    def test_bad_document_is_schema_error(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"points": [[0.0]]})
        assert main(["separate", "--space", bad, "--r", "0.5"]) == 2

    def test_a_hierarchy_whose_radius_underflows_exits_3(self, tmp_path, line_doc):
        # in a fresh interpreter with a timeout, so that a scan that never
        # ends fails the test instead of hanging it
        path = [str(Path(ls.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        codes = [
            subprocess.run(
                [sys.executable, "-m", "lipselect", "separate", "--space", line_doc, "--rounds", rounds,
                 "--out", str(tmp_path / "report.json")],
                env=env, capture_output=True, timeout=60,
            ).returncode
            for rounds in ("1075", "1076")
        ]
        assert codes == [0, 3]

    def test_determinism_byte_identical(self, tmp_path, line_doc):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["separate", "--space", line_doc, "--rounds", "4", "--out", str(out1)])
        main(["separate", "--space", line_doc, "--rounds", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSelectAndVerify:
    def test_select_then_verify(self, tmp_path):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out = tmp_path / "run.json"
        tables = tmp_path / "tables"
        code = main(
            [
                "select",
                "--correspondence",
                corr_path,
                "--iteration",
                iter_path,
                "--tables-dir",
                str(tables),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert (tables / "f0.csv").exists()
        assert (tables / "f3.csv").exists()

        seq_path = tmp_path / "seq.json"
        write_report(seq_path, report["sequence"])
        verify_out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--correspondence",
                corr_path,
                "--sequence",
                str(seq_path),
                "--out",
                str(verify_out),
            ]
        )
        assert code == 0
        verify_report = json.loads(verify_out.read_text())
        assert verify_report["passed"] is True

    def test_select_and_verify_render_one_audit(self, tmp_path):
        """``select`` and ``verify`` of one sequence report the same checks,
        and ``verify`` writes the audit's records, less the ``detail`` of
        the sequence checks."""
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out, seq_path, verify_out = tmp_path / "run.json", tmp_path / "seq.json", tmp_path / "verify.json"
        assert main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        write_report(seq_path, report["sequence"])
        assert main(["verify", "--correspondence", corr_path, "--sequence", str(seq_path), "--out", str(verify_out)]) == 0
        verified = json.loads(verify_out.read_text())

        rounds = {
            f"round_{r['n']}": {name: {"passed": c["passed"], "worst": c["worst"]} for name, c in r["checks"].items()}
            for r in verified["rounds"]
        }
        assert [len(checks) for checks in rounds.values()] == [4, 4, 4]
        assert report["checks"] == {**rounds, **verified["sequence_checks"]}
        assert report["passed"] is verified["passed"] is True

        phi = ls.Correspondence.from_json_dict(json.loads(open(corr_path).read()))
        audit = ls.verify_sequence(sequence_from_dict(report["sequence"], phi))
        expected = {
            "command": "verify",
            **audit,
            "sequence_checks": {
                name: {"passed": c["passed"], "worst": c["worst"]} for name, c in audit["sequence_checks"].items()
            },
        }
        assert all("detail" in c for r in audit["rounds"] for c in r["checks"].values())
        assert verify_out.read_text() == dumps_canonical(expected)

    def test_verify_detects_corruption(self, tmp_path):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out = tmp_path / "run.json"
        main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)])
        report = json.loads(out.read_text())
        seq_doc = report["sequence"]
        # push the final selection at one point off its value body
        final = seq_doc["selections"][-1]["values"]
        key = next(iter(final))
        final[key] = [final[key][0] + 0.5, final[key][1] + 0.5]
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        code = main(["verify", "--correspondence", corr_path, "--sequence", seq_path])
        assert code == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["config"].pop("rounds"),
            lambda doc: doc["rounds"][0].pop("sup_change"),
            lambda doc: doc["selections"][0].pop("round"),
            lambda doc: doc["selections"][1]["values"]["0"].append(0.0),
            lambda doc: [
                sel["values"].update({k: [0.5 * sum(v)] for k, v in sel["values"].items()})
                for sel in doc["selections"]
            ],
            lambda doc: [row.append(0.0) for sel in doc["selections"] for row in sel["values"].values()],
            lambda doc: doc["rounds"][0].update(B=[-1]),
            # a radius at a point that is not new in its round
            lambda doc: doc["rounds"][1]["deltas"].update({str(doc["rounds"][0]["new"][0]): 123.0}),
            lambda doc: doc["rounds"][1]["deltas"].update({"-1": 123.0}),
            *[respell_member(spelling) for spelling in ("05", " 5", "5.0", True, "\u0665")],
            lambda doc: [
                sel.update(round=len(doc["selections"]) - 1 - pos) for pos, sel in enumerate(doc["selections"])
            ],
            # an id list must be an array: an object or a string of its ids is not
            lambda doc: doc["rounds"][-1].update(B=dict.fromkeys(map(str, doc["rounds"][-1]["B"]), 1)),
            lambda doc: doc["hierarchy"]["rounds"][-1].update(
                B=dict.fromkeys(map(str, doc["hierarchy"]["rounds"][-1]["B"]), 1)
            ),
        ],
        ids=[
            "config.rounds", "sup_change", "selection_round", "ragged_row", "narrow_rows", "wide_rows",
            "negative_member", "delta_at_old_member", "delta_at_negative_row",
            "leading_zero", "leading_space", "decimal_point", "bool", "arabic_indic_digit",
            "selections_relabelled", "B_object", "hierarchy_B_object",
        ],
    )
    def test_malformed_sequence_is_schema_error(self, tmp_path, corrupt):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out = tmp_path / "run.json"
        main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)])
        seq_doc = json.loads(out.read_text())["sequence"]
        corrupt(seq_doc)
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        assert main(["verify", "--correspondence", corr_path, "--sequence", seq_path]) == 2

    def test_an_id_list_spelled_as_a_string_is_schema_error(self, tmp_path):
        # on nine points B_1 = new_1 = [0, 4, 8], whose ids are one digit each
        corr_path, iter_path = segment_correspondence_docs(tmp_path, n_points=9)
        out = tmp_path / "run.json"
        main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)])
        seq_doc = json.loads(out.read_text())["sequence"]
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        assert main(["verify", "--correspondence", corr_path, "--sequence", seq_path]) == 0
        assert seq_doc["rounds"][0]["new"] == seq_doc["rounds"][0]["B"] == [0, 4, 8]
        seq_doc["rounds"][0].update(B="048", new="048")
        seq_doc["hierarchy"]["rounds"][0]["B"] = "048"
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        assert main(["verify", "--correspondence", corr_path, "--sequence", seq_path]) == 2

    def test_member_spelled_as_its_key_is_accepted(self, tmp_path):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out = tmp_path / "run.json"
        main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)])
        seq_doc = json.loads(out.read_text())["sequence"]
        respell_member("5")(seq_doc)
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        assert main(["verify", "--correspondence", corr_path, "--sequence", seq_path]) == 0

    @pytest.mark.parametrize(
        "forge",
        [
            lambda doc: (
                doc["config"].update(rounds=99),
                doc["hierarchy"].update(rounds=doc["hierarchy"]["rounds"][:1]),
            ),
            lambda doc: [
                (rd.update(B=[], new=[], deltas={}), hrd.update(B=[]))
                for rd, hrd in zip(doc["rounds"], doc["hierarchy"]["rounds"])
            ]
            + [sel.update(values=doc["selections"][0]["values"]) for sel in doc["selections"]],
            lambda doc: doc["rounds"][1]["deltas"].pop(str(doc["rounds"][1]["new"].pop(0))),
            lambda doc: doc["rounds"][0]["deltas"].update(
                {k: 1.0 for k in doc["rounds"][0]["deltas"]}
            ),
            lambda doc: [rd.update(n=4 - rd["n"]) for rd in doc["rounds"]],
            # one copy of B_2 loses a member, the other stays as written
            lambda doc: doc["rounds"][1]["B"].pop(),
            lambda doc: doc["hierarchy"]["rounds"][1]["B"].pop(),
        ],
        ids=[
            "rounds_99_one_round_hierarchy", "emptied_hierarchy", "anchor_left_out_of_new", "delta_too_large",
            "rounds_reversed", "round_B_short", "hierarchy_B_short",
        ],
    )
    def test_forged_metadata_fails(self, tmp_path, forge):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out = tmp_path / "run.json"
        main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["checks"]["stored_metadata"] == {"passed": True, "worst": 0.0}
        seq_doc = report["sequence"]
        forge(seq_doc)
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        verify_out = tmp_path / "verify.json"
        code = main(
            ["verify", "--correspondence", corr_path, "--sequence", seq_path, "--out", str(verify_out)]
        )
        assert code == 1
        assert json.loads(verify_out.read_text())["sequence_checks"]["stored_metadata"]["passed"] is False

    @pytest.mark.parametrize(
        ("seed", "size", "forge", "name"),
        [
            (1, "tiny", lambda rounds: [rd.update(sup_change=1e308) for rd in rounds], "round 1"),
            (0, "full", lambda rounds: rounds[6].update(sup_change=rounds[6]["sup_change"] * (1 + 1e-7)), "round 7"),
        ],
        ids=["1e308_everywhere", "round_7_times_1_plus_1e-7"],
    )
    def test_forged_sup_change_fails(self, tmp_path, seed, size, forge, name):
        # 1e308 in every round overflows the telescoped budgets to inf, so
        # only the comparison with the recomputed displacement can tell
        inst = workloads.build("balls", seed, tmp_path, size)
        assert main(inst.solve_argv) == 0
        report = json.loads((tmp_path / "select.json").read_text())
        forge(report["sequence"]["rounds"])
        assert main(inst.read_argv(report)) == 1
        # the report file keeps the detail of a failing check only
        checks = json.loads((tmp_path / "verify.json").read_text())["sequence_checks"]
        assert checks["stored_metadata"]["passed"] is False
        assert checks["stored_metadata"]["detail"].startswith(f"{name}: sup_change differs from the recomputed")
        assert checks["support_disjointness"].keys() == {"passed", "worst"}

    def test_a_thousand_rounds_end(self, tmp_path):
        # the audit reads each round against the one before: linear in the
        # rounds but for the telescoped pairs (about 2 s on a 2-core Xeon)
        inst = workloads.build("balls", 0, tmp_path, "tiny")
        write_json(tmp_path / "iteration.json", {"alpha": 0.25, "beta": 1.25, "rounds": 1000})
        assert fresh("-m", "lipselect", *inst.solve_argv, timeout=20).returncode == 0

    @pytest.mark.parametrize("width", [1, 3])
    def test_f0_of_wrong_width_is_schema_error(self, tmp_path, width):
        corr_path, iter_path = segment_correspondence_docs(tmp_path, n_points=5)
        f0_path = write_json(
            tmp_path / "f0.json", {"values": {str(i): [0.0] * width for i in range(5)}}
        )
        code = main(
            ["select", "--correspondence", corr_path, "--iteration", iter_path, "--f0", f0_path]
        )
        assert code == 2

    def test_canonical_f0_default(self, tmp_path):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        code = main(["select", "--correspondence", corr_path, "--iteration", iter_path])
        assert code == 0

    @pytest.mark.parametrize("epsilon, n", [(5e-324, 1), (3e-12, 2)])
    def test_an_epsilon_below_the_strictness_margin_is_a_parameter_error(self, tmp_path, capsys, epsilon, n):
        # 2^-n epsilon under the margin leaves a threshold below 0, which
        # each anchor's own pair exceeds: no radius is admissible in round n
        corr_path, _ = segment_correspondence_docs(tmp_path, n_points=9)
        iter_path = write_json(tmp_path / "it.json", {"alpha": 2.0**-0.5, "beta": 1.0, "epsilon": epsilon, "rounds": 3})
        assert main(["select", "--correspondence", corr_path, "--iteration", iter_path]) == 3
        assert f"parameter error: round {n}: 2^-{n} epsilon = " in capsys.readouterr().err

    @pytest.mark.parametrize("delta_min, n", [(0.2, 1), (0.05, 3)])
    def test_a_delta_min_above_a_first_radius_is_a_parameter_error(self, tmp_path, capsys, delta_min, n):
        # the halving search of round n starts at 2^-(n+2), already below
        # delta_min: no radius is admissible
        corr_path, _ = segment_correspondence_docs(tmp_path, n_points=9)
        iter_path = write_json(
            tmp_path / "it.json", {"alpha": 2.0**-0.5, "beta": 1.0, "delta_min": delta_min, "rounds": 3}
        )
        assert main(["select", "--correspondence", corr_path, "--iteration", iter_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"parameter error: round {n}: the first radius 2^-{n + 2} is below delta_min")
        assert err.count("\n") == 1

    def test_bad_iteration_config_is_precondition_error(self, tmp_path):
        corr_path, _ = segment_correspondence_docs(tmp_path)
        iter_path = write_json(tmp_path / "it.json", {"alpha": 1.0, "beta": 0.5})
        code = main(["select", "--correspondence", corr_path, "--iteration", iter_path])
        assert code == 3


class TestPlip:
    def test_profiles(self, tmp_path):
        n = 101
        space_path = write_json(
            tmp_path / "grid.json",
            {"metric": "l2", "points": [[i / (n - 1)] for i in range(n)]},
        )
        table_path = write_json(
            tmp_path / "table.json",
            {"values": {str(i): [(i / (n - 1)) ** 2] for i in range(n)}},
        )
        out = tmp_path / "plip.json"
        csv_path = tmp_path / "profiles.csv"
        code = main(
            [
                "plip",
                "--space",
                space_path,
                "--table",
                table_path,
                "--points",
                "0",
                "--radii",
                "0.1,0.05,0.025",
                "--profiles-csv",
                str(csv_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["estimates"]["0"] == pytest.approx(0.1, abs=1e-12)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "point_id,r,ratio"
        assert len(lines) == 4

    def test_unknown_point(self, tmp_path):
        space_path = write_json(tmp_path / "s.json", FOUR_POINT_LINE)
        table_path = write_json(
            tmp_path / "t.json", {"values": {str(i): [0.0] for i in range(4)}}
        )
        # a negative row must not wrap around to the end, and a row has
        # one spelling only
        for points in ("9", "-1", "01", " 1", "1.0", "True", "\u0661"):
            code = main(["plip", "--space", space_path, "--table", table_path, "--points", points])
            assert code == 2

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_overflowing_deviations_are_a_precondition_error(self, tmp_path, capsys, big):
        """Finite values whose squared deviations overflow: no numpy warning,
        and exit 3 naming the first base point, not a report that cannot be
        written (exit 2)."""
        space_path = write_json(tmp_path / "s.json", FOUR_POINT_LINE)
        values = {"0": [big], "1": [-big], "2": [0.0], "3": [1.0]}
        table_path = write_json(tmp_path / "t.json", {"values": values})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plip", "--space", space_path, "--table", table_path]) == 3
        err = capsys.readouterr().err
        assert "the ratios at 0 overflow" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "points, argv, message",
        [
            ([[0.0], [1.0]], ["--radii", "0.5"], "no ball around 0 in the radius schedule contains another point"),
            ([[0.0]], [], "radius schedule needs at least two points"),
        ],
        ids=["radius_below_the_gap", "one_point"],
    )
    def test_a_sample_too_coarse_for_the_radii_is_a_parameter_error(self, tmp_path, capsys, points, argv, message):
        space_path = write_json(tmp_path / "s.json", {"metric": "l2", "points": points})
        table_path = write_json(tmp_path / "t.json", {"values": {str(i): [float(i)] for i in range(len(points))}})
        assert main(["plip", "--space", space_path, "--table", table_path, *argv]) == 3
        assert capsys.readouterr().err == f"parameter error: {message}\n"


class TestBartleGraves:
    def test_pipeline_report(self, tmp_path):
        matrix_path = write_json(tmp_path / "T.json", {"matrix": [[1.0, 1.0]]})
        out = tmp_path / "bg.json"
        tau_path = tmp_path / "tau.csv"
        code = main(
            [
                "bartle-graves",
                "--matrix",
                matrix_path,
                "--beta",
                "1.0",
                "--rounds",
                "4",
                "--sphere-count",
                "2",
                "--seed",
                "0",
                "--tau-csv",
                str(tau_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["gamma"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert report["passed"] is True
        assert report["checks"]["right_inverse_identity"]["passed"] is True
        assert tau_path.exists()

    def test_beta_gate_exit_code(self, tmp_path, capsys):
        matrix_path = write_json(tmp_path / "T.json", {"matrix": [[1.0, 1.0]]})
        code = main(["bartle-graves", "--matrix", matrix_path, "--beta", "0.5"])
        assert code == 3
        assert "beta" in capsys.readouterr().err

    def test_a_beta_whose_eta_overflows_is_a_parameter_error(self, tmp_path, capsys):
        """``eta = 2 beta + sup ||tau||`` overflows: exit 3 before any check
        runs, not a report that cannot be written (exit 2)."""
        matrix_path = write_json(tmp_path / "T.json", {"matrix": FULL_RANK[3]})
        out = tmp_path / "bg.json"
        assert main(["bartle-graves", "--matrix", matrix_path, "--beta", "1e308", "--sphere-count", "16",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "parameter error: beta = 1e+308 makes eta = 2 beta + sup ||tau|| overflow to inf\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("count", ["1e17", "1e18", "1e19", "1e30"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_a_sphere_count_too_large_to_allocate_is_a_parameter_error(self, tmp_path, capsys, m, count):
        """The sample's first array is larger than any address space, so its
        allocation fails at once, with a MemoryError or a ValueError by
        size: exit 3 naming the count and ``m``, not a numpy traceback."""
        matrix_path = write_json(tmp_path / "T.json", {"matrix": FULL_RANK[m]})
        out = tmp_path / "bg.json"
        assert main(["bartle-graves", "--matrix", matrix_path, "--beta", "2", "--sphere-count", count,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"parameter error: a sphere sample of count = {int(float(count))} points at m = {m} does not fit in memory\n"
        )
        assert not out.exists()

    def test_rank_deficient_exit_code(self, tmp_path):
        matrix_path = write_json(
            tmp_path / "T.json", {"matrix": [[1.0, 1.0], [1.0, 1.0]]}
        )
        code = main(["bartle-graves", "--matrix", matrix_path, "--beta", "2.0"])
        assert code == 3

    def test_determinism(self, tmp_path):
        matrix_path = write_json(
            tmp_path / "T.json", {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
        )
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "bartle-graves",
                    "--matrix",
                    matrix_path,
                    "--beta",
                    "1.5",
                    "--rounds",
                    "3",
                    "--sphere-count",
                    "24",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_every_run_field_is_recomputed_independently(self, tmp_path):
        """The run's own fields of the report, each from its definition:
        the openness constant from an SVD, tau read back from ``--tau-csv``,
        the least-norm start from ``pinv(T)``, and the dense set from
        ``separate --rounds`` on the sphere sample."""
        matrix = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]])
        beta, rounds = 2.0, 3
        out, tau_path = tmp_path / "bg.json", tmp_path / "tau.csv"
        args = ["--beta", repr(beta), "--rounds", str(rounds), "--sphere-count", "24", "--seed", "5"]
        matrix_path = write_json(tmp_path / "T.json", {"matrix": matrix.tolist()})
        assert main(["bartle-graves", "--matrix", matrix_path, *args, "--tau-csv", str(tau_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        tau = workloads.read_tau_csv(tau_path)
        sphere = ls.sphere_sample(2, 24, seed=5).coords
        gamma = float(np.linalg.svd(matrix, compute_uv=False)[-1])
        alpha = 1.0 / gamma
        assert report["gamma"] == pytest.approx(gamma, rel=1e-12)
        assert report["alpha"] == 1.0 / report["gamma"] and report["beta"] == beta
        assert report["eta"] == 2.0 * beta + np.linalg.norm(tau, axis=1).max()
        least_norm = sphere @ np.linalg.pinv(matrix).T
        assert report["pinv_gap"] == pytest.approx(np.linalg.norm(tau - least_norm, axis=1).max(), abs=1e-12)
        assert report["tail_bound"] == pytest.approx(2.0**-rounds * (beta - alpha) / 3.0, rel=1e-12)
        space = write_json(tmp_path / "sphere.json", {"metric": "l2", "points": sphere.tolist()})
        hierarchy = tmp_path / "separate.json"
        assert main(["separate", "--space", space, "--rounds", str(rounds), "--out", str(hierarchy)]) == 0
        assert report["dense_set"] == json.loads(hierarchy.read_text())["hierarchy"]["rounds"][-1]["B"]


class TestConfigMerging:
    def test_config_file_with_override(self, tmp_path, line_doc):
        config_path = write_json(
            tmp_path / "cfg.json", {"space": line_doc, "r": 0.25}
        )
        out = tmp_path / "report.json"
        code = main(
            ["separate", "--config", str(config_path), "--r", "0.5", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["r"] == 0.5  # flag overrides config file

    def test_config_out_and_unreadable_config(self, tmp_path, line_doc):
        out = tmp_path / "report.json"
        config_path = write_json(tmp_path / "cfg.json", {"space": line_doc, "r": 0.5, "out": str(out)})
        assert main(["separate", "--config", config_path]) == 0
        assert json.loads(out.read_text())["B"] == [0, 2]
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        assert main(["separate", "--config", str(binary)]) == 2
        assert main(["separate", "--space", line_doc, "--r", "0.5", "--out", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tmp_path, line_doc):
        config_path = write_json(tmp_path / "cfg.json", {"space": line_doc, "bogus": 1})
        assert main(["separate", "--config", str(config_path), "--r", "0.5"]) == 2


class TestArgvReader:
    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate", "--space", "space.json"],
            ["separate", "--space", "space.json", "--bogus", "1"],
            ["separate", "--spa", "space.json", "--r", "0.5"],
            ["separate", "--space=space.json", "--r", "0.5"],
            ["separate", "--r", "0.5", "--space"],
        ],
        ids=["unknown-verb", "unknown-flag", "abbreviated-flag", "flag=value", "flag-without-value"],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("schema error:") and err.count("\n") == 1
        assert "Traceback" not in err and not out

    def test_help_lists_every_verb_and_flag(self, capsys):
        for argv in (["--help"], ["-h"], ["select", "--correspondence", "corr.json", "--help"]):
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert not err
            for verb, (_, _, required, optional) in VERBS.items():
                assert f"  {verb} " in out
                assert all("--" + key.replace("_", "-") in out for key in (*required, *optional))

    def test_empty_argv_prints_the_usage_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert all(verb in err for verb in VERBS) and "Traceback" not in err

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["lipselect", "--help"])
        assert main() == 0
        assert "bartle-graves" in capsys.readouterr().out

    def test_negative_value_reaches_the_converter(self, line_doc, capsys):
        assert main(["separate", "--space", line_doc, "--r", "-1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parameter error:") and "Traceback" not in err

    def test_repeated_flag_takes_its_last_value(self, tmp_path, line_doc):
        out = tmp_path / "report.json"
        assert main(["separate", "--space", line_doc, "--r", "0.1", "--out", str(out), "--r", "0.5"]) == 0
        assert json.loads(out.read_text())["r"] == 0.5

    def test_cli_imports_neither_argparse_nor_gettext(self):
        probe = "import sys, lipselect.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        assert fresh("-c", probe).stdout == "[]\n"
        usage = fresh("-m", "lipselect", "--help")
        assert usage.returncode == 0 and all(verb in usage.stdout for verb in VERBS)

    def test_cli_imports_neither_dataclasses_nor_numpy_random(self):
        # every verb pays for its imports in its start-up; numpy.random is
        # loaded on first use, inside the bartle-graves solve
        probe = "import sys, lipselect.cli; print(sorted({'dataclasses', 'numpy.random'} & set(sys.modules)))"
        assert fresh("-c", probe).stdout == "[]\n"


# the exit of every class of lipselect.errors, fixed by its base class
ERROR_EXITS = {"SchemaError": 2, "PreconditionError": 3, "RateError": 3, "LipselectError": 4, "ConvergenceError": 4}
ERROR_PREFIXES = {2: "schema error:", 3: "parameter error:", 4: "internal error:"}
# the arguments after the message of the classes that carry evidence
ERROR_ARGS = {"ConvergenceError": (0.5,), "RateError": (1, 0.5)}


def raises(exc):
    def handler(opts):
        raise exc

    return handler


def read_space(opts):
    return ls.cli._load_json(opts["space"])


def decoder_message(data: bytes) -> str:
    """What reading ``data`` as UTF-8 JSON raises, as its message."""
    try:
        json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("the document decodes")


ERROR_CLASSES = [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)]
FAILURES = [
    *[pytest.param(raises(cls("boom", *ERROR_ARGS.get(cls.__name__, ()))), b"{}", ERROR_EXITS.get(cls.__name__), "boom",
                   id=cls.__name__) for cls in ERROR_CLASSES],
    pytest.param(raises(OSError("boom")), b"{}", 2, "boom", id="OSError"),
    pytest.param(raises(np.linalg.LinAlgError("boom")), b"{}", 4, "boom", id="LinAlgError"),
    # each raised in _load_json, and read with the decoder's message
    *[pytest.param(read_space, data, 2, decoder_message(data), id=name) for name, data in (
        ("JSONDecodeError", b'{"metric": '), ("UnicodeDecodeError", b'{"metric": "\xff"}'),
        ("RecursionError", b"[" * 100_000 + b"]" * 100_000), ("ValueError-digits", b"[" + b"1" * 5000 + b"]"),
    )],
]


class TestExitContract:
    """A failure's exit status and error line follow its base class."""

    def test_every_error_class_has_its_exit(self):
        assert {cls.__name__ for cls in ERROR_CLASSES} == ERROR_EXITS.keys()

    @pytest.mark.parametrize("handler, data, code, message", FAILURES)
    def test_each_failure_exits_by_its_base_class(self, tmp_path, monkeypatch, capsys, handler, data, code, message):
        monkeypatch.setitem(VERBS, "separate", (handler, *VERBS["separate"][1:]))
        (tmp_path / "doc.json").write_bytes(data)
        assert main(["separate", "--space", str(tmp_path / "doc.json")]) == code
        out, err = capsys.readouterr()
        assert err == f"{ERROR_PREFIXES[code]} {message}\n" and not out

    def test_probe_documents_exit_without_a_traceback(self, tmp_path):
        """Five documents that once ended in a traceback and exit 1, each
        in a fresh interpreter."""
        space = write_json(tmp_path / "space.json", FOUR_POINT_LINE)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        table = tmp_path / "table.json"
        table.write_text('{"values": {"0": [' + "1" * 5000 + '], "1": [0], "2": [0], "3": [0]}}', encoding="utf-8")
        corr, it = segment_correspondence_docs(tmp_path, n_points=9)
        assert main(["select", "--correspondence", corr, "--iteration", it, "--out", str(tmp_path / "run.json")]) == 0
        sequence = json.loads((tmp_path / "run.json").read_text())["sequence"]
        big = 10**400
        sequence["config"]["alpha"] = big
        probes = [
            (["separate", "--space", str(deep), "--r", "0.5"], 2, "schema error: maximum recursion depth exceeded"),
            (["plip", "--space", space, "--table", str(table)], 2, "schema error: Exceeds the limit (4300 digits)"),
            (["select", "--correspondence", corr, "--iteration",
              write_json(tmp_path / "alpha.json", {"alpha": big, "beta": 1.0})],
             3, "parameter error: iteration parameters must be finite"),
            (["verify", "--correspondence", corr, "--sequence", write_json(tmp_path / "seq.json", sequence)],
             3, "parameter error: iteration parameters must be finite"),
            (["select", "--correspondence", corr, "--iteration",
              write_json(tmp_path / "rounds.json", {"alpha": 0.5, "beta": 1.0, "rounds": big})],
             3, f"parameter error: the radius 2^-{big - 1} of round {big} underflows to 0"),
        ]
        for argv, code, line in probes:
            result = fresh("-m", "lipselect", *argv, timeout=60)
            assert (result.returncode, result.stderr.count("\n")) == (code, 1), result.stderr
            assert result.stderr.startswith(line) and "Traceback" not in result.stderr


def old_write_report(path, obj):
    """The report writer as it was before reports were written as bytes."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_canonical(obj))


def tiny_runs(tmp_path, run):
    """Every verb on the tiny ``balls`` and ``bartle-graves`` instances of
    seed 0, each output file under ``tmp_path``: ``select`` (with its
    tables), ``verify``, ``separate``, ``bartle-graves`` (with ``tau.csv``)
    and ``plip`` (with its profiles).  ``run(argv)`` runs each verb;
    returns ``[(argv, run(argv))]`` in order."""
    done = []

    def step(argv):
        done.append((argv, run(argv)))
        return json.loads(Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8"))

    balls = workloads.build("balls", 0, tmp_path / "balls", "tiny")
    report = step(balls.solve_argv + ["--tables-dir", str(balls.workdir / "tables")])
    step(balls.read_argv(report))
    space = write_json(balls.workdir / "space.json", json.loads((balls.workdir / "correspondence.json").read_text())["space"])
    step(["separate", "--space", space, "--rounds", "4", "--out", str(balls.workdir / "separate.json")])
    bg = workloads.build("bartle-graves", 0, tmp_path / "bg", "tiny")
    step(bg.read_argv(step(bg.solve_argv)) + ["--profiles-csv", str(bg.workdir / "profiles.csv")])
    return done


class TestCollectorAndOutputBytes:
    """A verb runs with the cyclic collector paused, and writes its files as
    ASCII bytes without looking up a codec."""

    def test_verbs_leave_no_cyclic_garbage(self, tmp_path, monkeypatch):
        def run(argv):
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            return code, gc.collect()

        runs = tiny_runs(tmp_path, run)
        corr = str(tmp_path / "balls" / "correspondence.json")
        sequence = json.loads((tmp_path / "balls" / "select.json").read_text())["sequence"]
        forged = copy.deepcopy(sequence)
        forged["selections"][1]["values"]["0"] = [x + 10.0 for x in forged["selections"][1]["values"]["0"]]
        sequence["selections"][-1]["values"]["0"][0] = "0.5"
        for name, doc in (("forged", forged), ("malformed", sequence)):
            runs.append((name, run(["verify", "--correspondence", corr, "--sequence", write_json(tmp_path / f"{name}.json", doc)])))
        runs.append(("beta gate", run(["bartle-graves", "--matrix", str(tmp_path / "bg" / "matrix.json"), "--beta", "0.1"])))
        # one sweep from (3, 3) certifies no projection onto the corner
        monkeypatch.setattr(ls.convex, "DYKSTRA_MAX_SWEEPS", 1)
        far_ball = {"kind": "ball", "center": [3.0, 3.0], "radius": 0.1}
        space = {"metric": "l2", "points": [[0.0], [0.1]]}
        doc = {"space": space, "bodies": {"0": far_ball, "1": three_sided_corner()}}
        it = write_json(tmp_path / "it.json", {"alpha": 10.0, "beta": 20.0, "rounds": 1})
        runs.append(("uncertified", run(["select", "--correspondence", write_json(tmp_path / "corner.json", doc), "--iteration", it])))
        assert [result for _, result in runs] == [(0, 0)] * 5 + [(1, 0), (2, 0), (3, 0), (4, 0)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_the_collector_is_paused_and_comes_back(self, line_doc, monkeypatch, enabled):
        seen = []
        handler, *rest = VERBS["separate"]

        def spy(opts):
            seen.append(gc.isenabled())
            if opts["r"] == 0.25:
                raise RuntimeError("not a documented failure")
            return handler(opts)

        monkeypatch.setitem(VERBS, "separate", (spy, *rest))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            states = []
            for r, expected in (("0.5", 0), ("-1", 3)):
                assert main(["separate", "--space", line_doc, "--r", r]) == expected
                states.append(gc.isenabled())
            with pytest.raises(RuntimeError):
                main(["separate", "--space", line_doc, "--r", "0.25"])
            states.append(gc.isenabled())
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * 3 and states == [enabled] * 3

    def test_outputs_are_the_old_bytes_and_load_no_codec(self, tmp_path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(ls.cli, "write_report", old_write_report)
            patch.setattr(Path, "write_bytes", lambda path, data: path.write_text(data.decode("ascii"), encoding="ascii"))
            old = [argv for argv, code in tiny_runs(tmp_path / "old", main) if code == 0]
        assert len(old) == 5
        workloads.build("balls", 0, tmp_path / "new" / "balls", "tiny")
        workloads.build("bartle-graves", 0, tmp_path / "new" / "bg", "tiny")
        # the inputs of the read paths, which the old runs wrote
        for name in ("balls/sequence.json", "balls/space.json", "bg/tau.json"):
            (tmp_path / "new" / name).write_bytes((tmp_path / "old" / name).read_bytes())
        new = [[arg.replace(str(tmp_path / "old"), str(tmp_path / "new")) for arg in argv] for argv in old]
        probe = (
            "import json, sys, lipselect.cli\n"
            "exits = [lipselect.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([exits, 'encodings.ascii' in sys.modules]))\n"
        )
        result = fresh("-c", probe, json.dumps(new))
        assert json.loads(result.stdout.splitlines()[-1]) == [[0] * 5, False], result.stderr

        def tree(root):
            return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        written = tree(tmp_path / "new")
        assert {"balls/tables/f4.csv", "balls/verify.json", "bg/tau.csv", "bg/profiles.csv"} <= written.keys()
        assert written == tree(tmp_path / "old")


@pytest.mark.parametrize(
    "verb, options, expected",
    [
        ("bartle-graves", {"beta": "abc"}, 2),
        ("bartle-graves", {"sphere_count": [1]}, 2),
        ("bartle-graves", {"beta": True}, 2),
        ("bartle-graves", {"rounds": 2.5}, 2),
        ("bartle-graves", {"beta": float("nan")}, 3),
        ("bartle-graves", {"seed": -1}, 3),
        ("bartle-graves", {"rounds": float("inf")}, 3),
        ("separate", {"r": "x"}, 2),
        ("separate", {"r": float("inf")}, 3),
        ("separate", {"rounds": "2"}, 0),
        ("plip", {"radii": "a,b"}, 2),
        ("plip", {"radii": [0.5, "nan"]}, 3),
        ("plip", {"radii": [0.5, 0.25], "points": [0, 1]}, 0),
    ],
)
def test_numeric_options_convert_in_one_place(tmp_path, capsys, verb, options, expected):
    """Numeric options arrive as flag text or as ``--config`` values and go
    through one converter per key: non-numbers are schema errors (2),
    non-finite or negative counts precondition errors (3)."""
    space = write_json(tmp_path / "space.json", FOUR_POINT_LINE)
    base = {
        "bartle-graves": {"matrix": write_json(tmp_path / "T.json", {"matrix": [[1.0, 1.0]]}), "beta": 1.0},
        "separate": {"space": space, "r": 0.5},
        "plip": {
            "space": space,
            "table": write_json(tmp_path / "t.json", {"values": {str(i): [0.0] for i in range(4)}}),
        },
    }[verb]
    config = write_json(tmp_path / "cfg.json", {**base, **options})
    assert main([verb, "--config", config, "--out", str(tmp_path / "out.json")]) == expected
    assert "Traceback" not in capsys.readouterr().err


def test_flag_text_goes_through_the_same_converter(tmp_path):
    space = write_json(tmp_path / "space.json", FOUR_POINT_LINE)
    table = write_json(tmp_path / "t.json", {"values": {str(i): [0.0] for i in range(4)}})
    assert main(["plip", "--space", space, "--table", table, "--radii", "a,b"]) == 2
    assert main(["separate", "--space", space, "--r", "inf"]) == 3


class TestNonFiniteInput:
    """NaN and Infinity parse as JSON numbers in Python; every document
    constructor rejects them with a documented exit code."""

    def _select(self, tmp_path, space, body):
        corr = write_json(
            tmp_path / "corr.json",
            {"space": space, "bodies": {str(i): body for i in range(len(space["points"]))}},
        )
        it = write_json(tmp_path / "it.json", {"alpha": 0.25, "beta": 1.25, "rounds": 2})
        return main(["select", "--correspondence", corr, "--iteration", it])

    def test_nan_coordinate(self, tmp_path, capsys):
        space = {"metric": "l2", "points": [[0.0], [float("nan")], [1.0]]}
        ball = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
        assert self._select(tmp_path, space, ball) in (2, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_infinite_radius(self, tmp_path, capsys):
        space = {"metric": "l2", "points": [[0.0], [1.0]]}
        ball = {"kind": "ball", "center": [0.0, 0.0], "radius": float("inf")}
        assert self._select(tmp_path, space, ball) in (2, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_matrix(self, tmp_path, capsys):
        matrix_path = write_json(tmp_path / "T.json", {"matrix": [[1.0, float("nan")]]})
        assert main(["bartle-graves", "--matrix", matrix_path, "--beta", "2.0"]) in (2, 3)
        assert "Traceback" not in capsys.readouterr().err


class TestStringsAndBooleansAreNotNumbers:
    """A JSON string or boolean where a number belongs is a schema error,
    though numpy would read ``"0.5"`` and ``true`` as numbers."""

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "ball", "center": ["0.5", True], "radius": "1e0"},
            {"kind": "ball", "center": [0.0, 0.0], "radius": True},
            {"kind": "flat", "base": [0.0, 0.0], "basis": [["1", 0.0]]},
            {"kind": "polytope", "halfspaces": [{"normal": [1.0, 0.0], "offset": False}], "witness": [0.0, 0.0]},
            {"kind": "polytope", "halfspaces": [{"normal": [1.0, 0.0], "offset": 1.0}], "witness": [" 0", 0.0]},
        ],
        ids=["ball_center_and_radius", "ball_radius", "flat_basis", "polytope_offset", "polytope_witness"],
    )
    def test_correspondence(self, tmp_path, capsys, body):
        space = {"metric": "l2", "points": [[0.0], [1.0]]}
        corr = write_json(tmp_path / "corr.json", {"space": space, "bodies": {"0": body, "1": body}})
        it = write_json(tmp_path / "it.json", {"alpha": 0.25, "beta": 1.25, "rounds": 2})
        assert main(["select", "--correspondence", corr, "--iteration", it]) == 2
        assert "must be an array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space",
        [{"metric": "l2", "points": [[0.0], ["0.5"], [1.0]]},
         {"metric": "explicit", "distances": [[0.0, True], [1.0, 0.0]]}],
        ids=["points", "distances"],
    )
    def test_space(self, tmp_path, space):
        assert main(["separate", "--space", write_json(tmp_path / "space.json", space), "--r", "0.5"]) == 2

    @pytest.mark.parametrize("value", [["0.5"], [True], "0.5"])
    def test_table(self, tmp_path, line_doc, value):
        table = write_json(tmp_path / "t.json", {"values": {"0": [0.0], "1": value, "2": [0.5], "3": [1.0]}})
        assert main(["plip", "--space", line_doc, "--table", table]) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["selections"][-1]["values"]["3"].__setitem__(0, "0.5"),
            lambda doc: doc["selections"][-1]["values"]["3"].__setitem__(0, True),
            lambda doc: doc["rounds"][1]["deltas"].update({k: "0.125" for k in doc["rounds"][1]["deltas"]}),
            lambda doc: doc["rounds"][0].update(sup_change=False),
            lambda doc: doc["rounds"][0].update(n="1"),
            lambda doc: doc["hierarchy"]["rounds"][0].update(r="1"),
            lambda doc: doc["selections"][0].update(round=False),
        ],
        ids=["row_string", "row_boolean", "delta_string", "sup_change_boolean", "round_string", "radius_string",
             "selection_round_boolean"],
    )
    def test_sequence(self, tmp_path, corrupt):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out = tmp_path / "run.json"
        assert main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)]) == 0
        seq_doc = json.loads(out.read_text())["sequence"]
        corrupt(seq_doc)
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        assert main(["verify", "--correspondence", corr_path, "--sequence", seq_path]) == 2

    @pytest.mark.parametrize("matrix", [[[1.0, "0"]], [[1.0, False]]])
    def test_matrix(self, tmp_path, matrix):
        matrix_path = write_json(tmp_path / "T.json", {"matrix": matrix})
        assert main(["bartle-graves", "--matrix", matrix_path, "--beta", "2.0"]) == 2


def test_explicit_space_breaking_the_triangle_inequality_exits_3(tmp_path, capsys):
    """d(0, 2) = 1 > d(0, 1) + d(1, 2) = 0.2: input outside the theorem is a
    precondition error wherever the space is parsed, not a failure of the
    construction (``select`` once exited 4 on overlapping supports)."""
    space = {"metric": "explicit", "distances": [[0.0, 0.1, 1.0], [0.1, 0.0, 0.1], [1.0, 0.1, 0.0]]}
    ball = {"kind": "ball", "center": [0.0], "radius": 0.5}
    corr = write_json(tmp_path / "corr.json", {"space": space, "bodies": {str(i): ball for i in range(3)}})
    it = write_json(tmp_path / "iter.json", {"alpha": 0.0, "beta": 0.3, "rounds": 3})
    assert main(["separate", "--space", write_json(tmp_path / "space.json", space), "--r", "0.5"]) == 3
    assert main(["select", "--correspondence", corr, "--iteration", it]) == 3
    err = capsys.readouterr().err
    assert err.count("triangle inequality fails on triple (0, 1, 2)") == 2 and "Traceback" not in err


class TestCanonicalJson:
    def test_float_formatting_round_trips(self):
        text = dumps_canonical({"value": 0.1 + 0.2})
        assert json.loads(text)["value"] == 0.1 + 0.2

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}).startswith('{"a":2,"b":1}')

    def test_non_finite_rejected(self):
        with pytest.raises(ls.SchemaError):
            dumps_canonical({"x": float("nan")})

    def test_strings_are_written_as_json_dumps_writes_them(self):
        texts = ['say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001d11e \ud800", ""]
        doc = {text: text for text in texts}
        expected = "{" + ",".join(f"{json.dumps(t)}:{json.dumps(t)}" for t in sorted(texts)) + "}\n"
        assert dumps_canonical(doc) == expected
        assert dumps_canonical(texts) == json.dumps(texts, separators=(",", ":")) + "\n"


# doubles that stress the 17-digit form: signed zero, the smallest
# subnormal, the largest finite values, integral values and 1e22
SPECIAL_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   1.0, -3.0, 2.0**53, 1e22, 0.1 + 0.2, 1e-7]


def generic_sequence_text(tables):
    """The report text of a sequence of the ``(T, N, d)`` stack ``tables``
    and no rounds, written by the generic emission: each table as an object
    of row lists."""
    config = ls.IterationConfig(alpha=0.0, beta=1.0)
    return dumps_canonical({
        "config": config.to_json_dict(),
        "hierarchy": {"rounds": []},
        "rounds": [],
        "selections": [
            {"round": t, "values": {str(a): row for a, row in enumerate(table.tolist())}}
            for t, table in enumerate(tables)
        ],
    })


def generic_csv_text(table):
    """The CSV text of one table, one ``format_float`` per entry."""
    header = "point_id," + ",".join(f"x{j + 1}" for j in range(table.shape[1]))
    rows = [str(a) + "," + ",".join(format_float(x) for x in row) for a, row in enumerate(table)]
    return "\n".join([header] + rows) + "\n"


def stack_sequence(tables):
    config = ls.IterationConfig(alpha=0.0, beta=1.0)
    return ls.SelectionSequence(None, config, np.zeros(tables.shape[1], dtype=np.intp), tables, [])


def random_doubles(rng, n, width, picks):
    """An ``(n, width)`` table mixing random bit patterns that are finite
    doubles with the special values and ``picks``."""
    bits = rng.integers(0, 2**64, size=(n, width), dtype=np.uint64, endpoint=False).view(np.float64)
    pool = np.array(SPECIAL_DOUBLES + picks)
    table = np.where(np.isfinite(bits), bits, 0.0)
    return np.where(rng.random((n, width)) < 0.5, pool[rng.integers(0, len(pool), size=(n, width))], table)


@seed(13)
@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 9, 10, 11, 100, 1001]),
    width=st.integers(1, 4),
    picks=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_block_emission_equals_the_generic_recursion(n, width, picks, rng_seed):
    rng = np.random.default_rng(rng_seed)
    table = random_doubles(rng, n, width, picks)
    assert dumps_canonical(sequence_to_dict(stack_sequence(table[None]))) == generic_sequence_text(table[None])
    assert selection_csv_texts(table[None]) == [generic_csv_text(table)]
    for bad in (np.nan, np.inf, -np.inf):
        broken = table.copy()
        broken[rng.integers(n), rng.integers(width)] = bad
        with pytest.raises(ls.SchemaError):
            dumps_canonical(sequence_to_dict(stack_sequence(broken[None])))
        with pytest.raises(ls.SchemaError):
            selection_csv_texts(broken[None])


@seed(17)
@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 9, 10, 11, 100]),
    width=st.integers(1, 3),
    steps=st.lists(st.sampled_from(["some", "none", "all"]), max_size=4),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_stack_emission_equals_the_per_table_emission(n, width, steps, rng_seed):
    """A stack whose later tables copy rows of the table before bit for
    bit, as a round copies the rows outside its supports, renders as each
    table on its own: a copied row whose zeros change sign is rendered
    again, and a non-finite entry of a later table is a schema error."""
    rng = np.random.default_rng(rng_seed)
    tables = [random_doubles(rng, n, width, [])]
    for step in steps:
        copied = {"some": rng.random(n) < 0.7, "none": np.ones(n, bool), "all": np.zeros(n, bool)}[step]
        table = np.where(copied[:, None], tables[-1], random_doubles(rng, n, width, []))
        if step == "some":
            # 0.0 <-> -0.0 in some copied rows: equal under ==, not in bits
            flip = copied[:, None] & (table == 0.0) & (rng.random((n, width)) < 0.5)
            table = np.where(flip, -table, table)
        tables.append(table)
    tables = np.stack(tables)
    assert dumps_canonical(sequence_to_dict(stack_sequence(tables))) == generic_sequence_text(tables)
    assert selection_csv_texts(tables) == [generic_csv_text(table) for table in tables]
    if len(tables) > 1:
        for bad in (np.nan, np.inf, -np.inf):
            broken = tables.copy()
            broken[rng.integers(1, len(tables)), rng.integers(n), rng.integers(width)] = bad
            with pytest.raises(ls.SchemaError):
                sequence_to_dict(stack_sequence(broken))
            with pytest.raises(ls.SchemaError):
                selection_csv_texts(broken)


def test_every_double_reads_back_from_a_rendered_table():
    """``%.17g`` writes negative zero as ``-0``, which a JSON reader takes
    for the integer 0; both emissions write ``-0.0``, so each double of a
    table parses back to its own bits."""
    table = np.array(SPECIAL_DOUBLES).reshape(-1, 2)
    space = ls.SampledMetricSpace("l2", coords=np.arange(len(table), dtype=float)[:, None])
    for text in (dumps_canonical(sequence_to_dict(stack_sequence(table[None]))), generic_sequence_text(table[None])):
        back = tables_from_dicts([json.loads(text)["selections"][0]], space)[0]
        assert back.tobytes() == table.tobytes()


# any JSON value that asks for no large sample: numbers at most 64, short
# strings without path separators (relative paths stay in the work dir)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(max_value=64)
    | st.floats(max_value=64)
    | st.text(alphabet="ab01.,-", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)

VERB_KEYS = {
    "separate": ("space", "r", "rounds", "out"),
    "select": ("correspondence", "iteration", "f0", "out", "tables_dir"),
    "plip": ("space", "table", "points", "radii", "out", "profiles_csv"),
    "bartle-graves": ("matrix", "beta", "rounds", "sphere_count", "seed", "out", "tau_csv"),
    "verify": ("correspondence", "sequence", "out"),
}


@pytest.fixture(scope="module")
def valid_configs(tmp_path_factory):
    """A working ``--config`` document per verb, by absolute paths."""
    root = tmp_path_factory.mktemp("fuzz")
    space = write_json(root / "space.json", FOUR_POINT_LINE)
    corr, it = segment_correspondence_docs(root, n_points=9)
    assert main(["select", "--correspondence", corr, "--iteration", it, "--out", str(root / "run.json")]) == 0
    sequence = write_json(root / "seq.json", json.loads((root / "run.json").read_text())["sequence"])
    return root, {
        "separate": {"space": space, "r": 0.5},
        "select": {"correspondence": corr, "iteration": it},
        "plip": {
            "space": space,
            "table": write_json(root / "t.json", {"values": {str(i): [i * 0.5] for i in range(4)}}),
        },
        "bartle-graves": {
            "matrix": write_json(root / "T.json", {"matrix": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]}),
            "beta": 2.0,
            "sphere_count": 8,
            "rounds": 2,
        },
        "verify": {"correspondence": corr, "sequence": sequence},
    }


@seed(11)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_config_document_ends_in_a_documented_exit_code(valid_configs, data):
    root, configs = valid_configs
    verb = data.draw(st.sampled_from(sorted(VERB_KEYS)))
    changes = data.draw(st.dictionaries(st.sampled_from(VERB_KEYS[verb]), JSON_VALUES, max_size=3))
    config = write_json(root / "cfg.json", {**configs[verb], **changes})
    # relative output paths land in a scratch directory
    work = root / "work"
    work.mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb, "--config", config])
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3, 4)


# values that have broken a document reader: integers beyond int64 and
# beyond the doubles, the largest doubles, NaN, an id spelled as a string,
# a bool, null and a nested list (local, so that the draws of the tests on
# JSON_VALUES stay as they are)
ODD_VALUES = (
    st.sampled_from([2**70, 2**1100, 1e308, -1e308, float("nan"), "5", True, None, [[1.0]]])
    | st.integers(-2, 70)
    | st.floats(-2.0, 2.0)
)


@pytest.fixture(scope="module")
def stored_sequences(tmp_path_factory):
    """``{name: (workdir, sequence)}``: the stored sequence of the tiny
    ``balls`` and ``polytopes`` instances, seed 1, beside their documents."""
    root = tmp_path_factory.mktemp("sequences")
    out = {}
    for name in ("balls", "polytopes"):
        inst = workloads.build(name, 1, root / name, "tiny")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(inst.solve_argv) == 0
        out[name] = (root / name, json.loads((root / name / "select.json").read_text())["sequence"])
    return out


def sequence_fields(doc):
    """The fields a mutation may set, as ``(container, key)`` in groups:
    the selections' ``round``, their rows, the entries of the rows, a
    round's ``B``, ``new``, ``deltas`` and ``sup_change``, the ids and
    radii in them, a hierarchy level's ``B`` and ``r``, and its ids."""
    def keys(seq):
        return range(len(seq)) if isinstance(seq, list) else list(seq) if isinstance(seq, dict) else []

    selections = doc["selections"]
    rows = [(sel["values"], k) for sel in selections for k in sel["values"]]
    levels = doc["hierarchy"]["rounds"]
    return [
        [(sel, "round") for sel in selections],
        rows,
        [(row[k], e) for row, k in rows for e in keys(row[k]) if isinstance(row[k], list)],
        [(rd, key) for rd in doc["rounds"] for key in ("B", "new", "deltas", "sup_change")],
        [(rd[key], k) for rd in doc["rounds"] for key in ("B", "new", "deltas") for k in keys(rd[key])],
        [(level, key) for level in levels for key in ("B", "r")],
        [(level["B"], k) for level in levels for k in keys(level["B"])],
    ]


@seed(11)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_sequence_document_ends_in_a_documented_exit_code(stored_sequences, data):
    workdir, sequence = stored_sequences[data.draw(st.sampled_from(["balls", "polytopes"]))]
    doc = copy.deepcopy(sequence)
    for _ in range(data.draw(st.integers(1, 2))):
        group = data.draw(st.sampled_from([group for group in sequence_fields(doc) if group]))
        container, key = data.draw(st.sampled_from(group))
        container[key] = copy.deepcopy(data.draw(ODD_VALUES))
    path = write_json(workdir / "mutated.json", doc)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["verify", "--correspondence", str(workdir / "correspondence.json"), "--sequence", path])
    assert code in (0, 1, 2, 3, 4)


class TestCorrespondenceDocument:
    BALL = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
    SPACE = {"metric": "l2", "points": [[0.0], [1.0]]}

    def _both_verbs(self, tmp_path, doc):
        corr = write_json(tmp_path / "corr.json", doc)
        it = write_json(tmp_path / "it.json", {"alpha": 0.25, "beta": 1.25, "rounds": 2})
        seq = write_json(tmp_path / "seq.json", {})
        return (
            main(["select", "--correspondence", corr, "--iteration", it]),
            main(["verify", "--correspondence", corr, "--sequence", seq]),
        )

    @pytest.mark.parametrize(
        "bodies",
        [
            5,
            [BALL, BALL],
            {"0": BALL, "1": {"kind": "polytope", "halfspaces": "x", "witness": [0.0, 0.0]}},
            {"0": BALL, "1": {"kind": "polytope", "halfspaces": [[1.0, 0.0]], "witness": [0.0, 0.0]}},
            {"0": BALL, "1": {"kind": "flat", "base": [0.0, 0.0], "basis": 5}},
            {"0": BALL, "1": {"kind": "flat", "base": [0.0, 0.0], "basis": {"a": [1.0, 0.0]}}},
            {"0": BALL, "1": {"kind": "ball", "center": [0.0, 0.0], "radius": [1.0, 2.0]}},
            {"0": BALL, "1": BALL, "7": BALL},
            {"0": BALL},
            {"0": BALL, "1": {"kind": "ball", "center": [0.0], "radius": 1.0}},
        ],
    )
    def test_malformed_bodies_are_schema_errors(self, tmp_path, capsys, bodies):
        assert self._both_verbs(tmp_path, {"space": self.SPACE, "bodies": bodies}) == (2, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, expected",
        [
            ({"kind": "ball", "center": [[0.0], 0.0], "radius": 1.0}, 2),
            ({"kind": "ball", "center": [0.0, float("nan")], "radius": 1.0}, 3),
            ({"kind": "ball", "center": [0.0, 0.0], "radius": 0.0}, 3),
            ({"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, 2),
        ],
        ids=["ragged_center", "nan_center", "zero_radius", "mixed_dimensions"],
    )
    def test_malformed_body_exit_codes(self, tmp_path, capsys, body, expected):
        assert self._both_verbs(tmp_path, {"space": self.SPACE, "bodies": {"0": self.BALL, "1": body}}) == (
            expected, expected)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space",
        [{"metric": "l2", "points": 5}, {"metric": "explicit", "distances": {}}, {"metric": "l2", "points": [[]]}],
    )
    def test_malformed_space_is_schema_error(self, tmp_path, space):
        assert self._both_verbs(tmp_path, {"space": space, "bodies": {"0": self.BALL}}) == (2, 2)

    def _anchor_onto(self, tmp_path, polytope, center):
        """``select`` over the lone anchor 0, a small ball at ``center``,
        whose value projects onto ``polytope`` at point 1, inside its open
        2^-2-ball."""
        far_ball = {"kind": "ball", "center": center, "radius": 0.1}
        space = {"metric": "l2", "points": [[0.0], [0.1]]}
        corr = write_json(tmp_path / "corr.json", {"space": space, "bodies": {"0": far_ball, "1": polytope}})
        it = write_json(tmp_path / "it.json", {"alpha": 10.0, "beta": 20.0, "rounds": 1})
        return main(["select", "--correspondence", corr, "--iteration", it])

    def test_narrow_wedge_projects_onto_its_apex(self, tmp_path, capsys):
        # Dykstra's method does not settle on the wedge; the certified
        # projection is its apex, where the strong bound at rate 10 fails
        # by |(1, 0.5)| - 10 * 0.1: the input breaks the lower pointwise
        # Lipschitz hypothesis, a precondition
        assert self._anchor_onto(tmp_path, narrow_wedge(0.003), [1.0, 0.5]) == 3
        assert f"fails at 1 by {np.hypot(1.0, 0.5) - 1.0:.3e}" in capsys.readouterr().err

    def test_uncertified_polytope_projection_exits_4(self, tmp_path, capsys, monkeypatch):
        # one sweep from (3, 3) touches only x1 <= 1, which does not hold
        # alone at the projection (1, 2): no certificate
        monkeypatch.setattr(ls.convex, "DYKSTRA_MAX_SWEEPS", 1)
        assert self._anchor_onto(tmp_path, three_sided_corner(), [3.0, 3.0]) == 4
        # the message of the ConvergenceError
        assert "polytope projection did not reach" in capsys.readouterr().err


# small coordinates from a coarse grid, so that no two halfspaces meet at a
# narrow angle and Dykstra's method stays quick
COORD = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def correspondence_documents(draw):
    """A correspondence document of at most 3 points in dimension at most
    2, whose fields (and extra body keys) may be replaced by junk."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    vector = st.lists(COORD, min_size=d, max_size=d)
    basis = st.sampled_from([[], [[1.0] + [0.0] * (d - 1)], [[0.6, 0.8][:d]], [[1.0, 0.0], [0.0, 1.0]]])
    body = st.one_of(
        st.fixed_dictionaries({"kind": st.just("ball"), "center": vector, "radius": st.sampled_from([0.25, 1.0])}),
        st.fixed_dictionaries({"kind": st.just("flat"), "base": vector, "basis": basis}),
        st.fixed_dictionaries({
            "kind": st.just("polytope"),
            "halfspaces": st.lists(
                st.fixed_dictionaries({"normal": vector, "offset": st.sampled_from([0.0, 0.5, 1.0])}),
                min_size=1, max_size=3,
            ),
            "witness": st.just([0.0] * d),
        }),
    )
    bodies = {str(i): draw(body) for i in range(n)}
    doc = {"space": {"metric": draw(st.sampled_from(["l2", "l1", "linf"])), "points": [[i * 0.5] for i in range(n)]},
           "bodies": bodies}
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([t for t in (doc, doc["space"], bodies, *bodies.values()) if isinstance(t, dict)]))
        target[draw(st.sampled_from(sorted(target) + [str(n)]))] = draw(JSON_VALUES)
    return doc


@seed(11)
@settings(max_examples=150, deadline=None)
@given(doc=correspondence_documents())
def test_any_correspondence_document_ends_in_a_documented_exit_code(tmp_path_factory, doc):
    root = tmp_path_factory.mktemp("corr", numbered=True)
    corr = write_json(root / "corr.json", doc)
    it = write_json(root / "it.json", {"alpha": 1.0, "beta": 2.0, "rounds": 2})
    out = root / "run.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["select", "--correspondence", corr, "--iteration", it, "--out", str(out)])
        assert code in (0, 1, 2, 3, 4)
        sequence = write_json(root / "seq.json", json.loads(out.read_text())["sequence"] if code < 2 else {})
        assert main(["verify", "--correspondence", corr, "--sequence", sequence]) in (0, 1, 2, 3, 4)
