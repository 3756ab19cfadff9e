import json
import os

import numpy as np
import pytest

import lipselect as ls
from lipselect.cli import main
from lipselect.formats import dumps_canonical, write_report


FOUR_POINT_LINE = {"metric": "l2", "points": [[0.0], [0.3], [0.6], [1.0]]}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def line_doc(tmp_path):
    return write_json(tmp_path / "space.json", FOUR_POINT_LINE)


def segment_correspondence_docs(tmp_path, n_points=41):
    T = ls.LinearSurjection([[1.0, 1.0]])
    half = (n_points - 1) // 2
    space = ls.SampledMetricSpace(
        range(n_points), "l2", coords=[[(i - half) / half] for i in range(n_points)]
    )
    phi = ls.inverse_image_correspondence(T, space)
    corr_path = write_json(tmp_path / "corr.json", phi.to_json_dict())
    iter_path = write_json(
        tmp_path / "iter.json",
        {"alpha": 2.0**-0.5, "beta": 1.0, "rounds": 3},
    )
    return corr_path, iter_path


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

    def test_missing_space_is_schema_error(self, tmp_path):
        assert main(["separate", "--r", "0.5"]) == 2

    def test_bad_document_is_schema_error(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"points": [[0.0]]})
        assert main(["separate", "--space", bad, "--r", "0.5"]) == 2

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
        ],
        ids=["config.rounds", "sup_change", "selection_round", "ragged_row", "narrow_rows", "wide_rows"],
    )
    def test_malformed_sequence_is_schema_error(self, tmp_path, corrupt):
        corr_path, iter_path = segment_correspondence_docs(tmp_path)
        out = tmp_path / "run.json"
        main(["select", "--correspondence", corr_path, "--iteration", iter_path, "--out", str(out)])
        seq_doc = json.loads(out.read_text())["sequence"]
        corrupt(seq_doc)
        seq_path = write_json(tmp_path / "seq.json", seq_doc)
        assert main(["verify", "--correspondence", corr_path, "--sequence", seq_path]) == 2

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
        code = main(
            ["plip", "--space", space_path, "--table", table_path, "--points", "9"]
        )
        assert code == 2


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

    def test_unknown_config_key(self, tmp_path, line_doc):
        config_path = write_json(tmp_path / "cfg.json", {"space": line_doc, "bogus": 1})
        assert main(["separate", "--config", str(config_path), "--r", "0.5"]) == 2


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


class TestCanonicalJson:
    def test_float_formatting_round_trips(self):
        text = dumps_canonical({"value": 0.1 + 0.2})
        assert json.loads(text)["value"] == 0.1 + 0.2

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}).startswith('{"a":2,"b":1}')

    def test_non_finite_rejected(self):
        with pytest.raises(ls.SchemaError):
            dumps_canonical({"x": float("nan")})
