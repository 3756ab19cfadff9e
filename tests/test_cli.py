import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
        ],
        ids=["rounds_99_one_round_hierarchy", "emptied_hierarchy", "anchor_left_out_of_new", "delta_too_large", "rounds_reversed"],
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


class TestCanonicalJson:
    def test_float_formatting_round_trips(self):
        text = dumps_canonical({"value": 0.1 + 0.2})
        assert json.loads(text)["value"] == 0.1 + 0.2

    def test_sorted_keys(self):
        assert dumps_canonical({"b": 1, "a": 2}).startswith('{"a":2,"b":1}')

    def test_non_finite_rejected(self):
        with pytest.raises(ls.SchemaError):
            dumps_canonical({"x": float("nan")})


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


def narrow_wedge(half_angle):
    """The wedge ``{x : |x_2| <= -x_1 tan(half_angle)}`` with its apex at
    the origin, as a polytope body document.  Dykstra's method zigzags
    between its two faces toward the apex, the projection of any point of
    the polar cone such as (1, 0.5)."""
    s, c = np.sin(half_angle), np.cos(half_angle)
    return {
        "kind": "polytope",
        "halfspaces": [{"normal": [s, c], "offset": 0.0}, {"normal": [s, -c], "offset": 0.0}],
        "witness": [-1.0, 0.0],
    }


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
        ],
    )
    def test_malformed_bodies_are_schema_errors(self, tmp_path, capsys, bodies):
        assert self._both_verbs(tmp_path, {"space": self.SPACE, "bodies": bodies}) == (2, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("space", [{"metric": "l2", "points": 5}, {"metric": "explicit", "distances": {}}])
    def test_malformed_space_is_schema_error(self, tmp_path, space):
        assert self._both_verbs(tmp_path, {"space": space, "bodies": {"0": self.BALL}}) == (2, 2)

    def test_dykstra_non_convergence_exits_4(self, tmp_path, capsys):
        # anchor 1 projects the ball's center (1, 0.5) onto the wedge
        far_ball = {"kind": "ball", "center": [1.0, 0.5], "radius": 0.1}
        corr = write_json(
            tmp_path / "corr.json",
            {"space": self.SPACE, "bodies": {"0": narrow_wedge(0.003), "1": far_ball}},
        )
        it = write_json(tmp_path / "it.json", {"alpha": 10.0, "beta": 20.0, "rounds": 1})
        assert main(["select", "--correspondence", corr, "--iteration", it]) == 4
        assert "did not reach" in capsys.readouterr().err


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
