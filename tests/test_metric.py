import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.errors import (
    ConfigurationError,
    IdentifierError,
    PreconditionError,
    SchemaError,
)

from conftest import line_space


def brute_force_is_maximal_separation(space, members, r):
    """Oracle: pairwise >= r, and no point of the space can be added."""
    members = set(members)
    for a, b in itertools.combinations(members, 2):
        if space.distance(a, b) < r:
            return False
    for a in range(len(space)):
        if a in members:
            continue
        if all(space.distance(a, b) >= r for b in members):
            return False
    return True


class TestDistance:
    def test_l2_pythagorean(self):
        space = ls.SampledMetricSpace("l2", coords=[[0, 0], [3, 4]])
        assert space.distance(0, 1) == 5.0

    def test_identity(self, four_point_line):
        assert four_point_line.distance(2, 2) == 0.0

    def test_l1(self):
        space = ls.SampledMetricSpace("l1", coords=[[0, 0], [3, 4]])
        assert space.distance(0, 1) == 7.0

    def test_linf(self):
        space = ls.SampledMetricSpace("linf", coords=[[0, 0], [3, 4]])
        assert space.distance(0, 1) == 4.0

    def test_unknown_id(self, four_point_line):
        # a negative row must not wrap around to the end
        for bad in ("nope", -1, 4):
            with pytest.raises(IdentifierError):
                four_point_line.distance(0, bad)

    def test_explicit_requires_matrix(self):
        with pytest.raises(ConfigurationError):
            ls.SampledMetricSpace("explicit")

    def test_explicit_lookup(self):
        mat = [[0.0, 2.0], [2.0, 0.0]]
        space = ls.SampledMetricSpace("explicit", explicit_distances=mat)
        assert space.distance(0, 1) == 2.0

    def test_explicit_asymmetric_rejected(self):
        with pytest.raises(PreconditionError):
            ls.SampledMetricSpace("explicit", explicit_distances=[[0.0, 2.0], [1.0, 0.0]])

    def test_triangle_validation(self):
        mat = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]  # 5 > 1 + 1
        space = ls.SampledMetricSpace("explicit", explicit_distances=mat)
        with pytest.raises(PreconditionError):
            space.validate_triangle_inequality()


class TestBallPoints:
    def test_closed(self, four_point_line):
        assert set(four_point_line.ball_points(0, 0.5, closed=True)) == {0, 1}

    def test_open_excludes_boundary(self, four_point_line):
        assert set(four_point_line.ball_points(0, 0.3, closed=False)) == {0}

    def test_radius_beyond_diameter(self, four_point_line):
        r = four_point_line.diameter() + 1.0
        assert set(four_point_line.ball_points(2, r, closed=True)) == {0, 1, 2, 3}


class TestGreedySeparation:
    def test_unseeded(self, four_point_line):
        members = ls.greedy_maximal_separation(four_point_line, 0.5)
        assert set(members) == {0, 2}
        assert brute_force_is_maximal_separation(four_point_line, members, 0.5)

    def test_seeded(self, four_point_line):
        members = ls.greedy_maximal_separation(four_point_line, 0.5, seed=[3])
        assert set(members) == {3, 0}
        assert brute_force_is_maximal_separation(four_point_line, members, 0.5)

    def test_radius_beyond_diameter(self, four_point_line):
        members = ls.greedy_maximal_separation(four_point_line, 2.0)
        assert members == (0,)

    def test_bad_seed(self, four_point_line):
        with pytest.raises(PreconditionError):
            ls.greedy_maximal_separation(four_point_line, 0.5, seed=[0, 1])

    def test_brute_force_all_radii(self, four_point_line):
        for r in (0.2, 0.25, 0.3, 0.35, 0.5, 0.7, 1.0):
            members = ls.greedy_maximal_separation(four_point_line, r)
            assert brute_force_is_maximal_separation(four_point_line, members, r)

    def test_determinism(self, four_point_line):
        a = ls.greedy_maximal_separation(four_point_line, 0.5, seed=[3])
        b = ls.greedy_maximal_separation(four_point_line, 0.5, seed=[3])
        assert a == b


class TestHierarchy:
    def test_four_point_round_one(self, four_point_line):
        h = ls.build_separation_hierarchy(four_point_line, 1)
        assert h.rounds[0].r == 1.0
        assert set(h.rounds[0].members) == {0, 3}

    def test_singleton(self):
        space = ls.SampledMetricSpace("l2", coords=[[0.0]])
        h = ls.build_separation_hierarchy(space, 3)
        assert all(rd.members == (0,) for rd in h.rounds)

    def test_four_point_three_rounds(self, four_point_line):
        h = ls.build_separation_hierarchy(four_point_line, 3)
        assert set(h.rounds[2].members) == {0, 1, 2, 3}

    def test_invariants(self, four_point_line):
        h = ls.build_separation_hierarchy(four_point_line, 4)
        prev = set()
        prev_cover = float("inf")
        for rd in h.rounds:
            assert rd.r == 2.0 ** (-(rd.n - 1))
            members = set(rd.members)
            assert prev <= members
            for a, b in itertools.combinations(members, 2):
                assert four_point_line.distance(a, b) >= rd.r
            cover = ls.covering_radius(four_point_line, rd.members)
            assert cover < rd.r
            assert cover <= prev_cover
            prev, prev_cover = members, cover

    def test_rounds_must_be_positive(self, four_point_line):
        with pytest.raises(PreconditionError):
            ls.build_separation_hierarchy(four_point_line, 0)


class TestCoveringRadius:
    def test_example(self, four_point_line):
        assert ls.covering_radius(four_point_line, [0, 2]) == pytest.approx(0.4, abs=1e-15)

    def test_all_points(self, four_point_line):
        assert ls.covering_radius(four_point_line, range(len(four_point_line))) == 0.0

    def test_two_point(self):
        space = line_space([0, 1.0])
        assert ls.covering_radius(space, [0]) == 1.0

    def test_empty_rejected(self, four_point_line):
        with pytest.raises(PreconditionError):
            ls.covering_radius(four_point_line, [])

    def test_brute_force(self, four_point_line):
        members = [1, 3]
        expected = max(
            min(four_point_line.distance(a, b) for b in members)
            for a in range(len(four_point_line))
        )
        assert ls.covering_radius(four_point_line, members) == expected


@seed(7)
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        ),
        min_size=1,
        max_size=24,
        unique=True,
    ),
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
)
def test_greedy_separation_properties(points, r):
    space = ls.SampledMetricSpace("l2", coords=[list(p) for p in points])
    members = ls.greedy_maximal_separation(space, r)
    for a, b in itertools.combinations(members, 2):
        assert space.distance(a, b) >= r
    assert ls.covering_radius(space, members) < r


class TestJsonRoundTrip:
    def test_coordinate_space(self):
        doc = {"metric": "l2", "points": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]}
        space = ls.SampledMetricSpace.from_json_dict(doc)
        assert len(space) == 3
        assert space.to_json_dict() == doc

    def test_explicit_space(self):
        doc = {"metric": "explicit", "distances": [[0.0, 1.5], [1.5, 0.0]]}
        space = ls.SampledMetricSpace.from_json_dict(doc)
        assert space.to_json_dict() == doc

    def test_bad_documents(self):
        with pytest.raises(SchemaError):
            ls.SampledMetricSpace.from_json_dict({"points": [[0.0]]})
        with pytest.raises(SchemaError):
            ls.SampledMetricSpace.from_json_dict({"metric": "l2"})
        with pytest.raises(SchemaError):
            ls.SampledMetricSpace.from_json_dict({"metric": "weird", "points": [[0.0]]})

    def test_hierarchy_export(self, four_point_line):
        h = ls.build_separation_hierarchy(four_point_line, 2)
        doc = h.to_json_dict()
        assert doc["rounds"][0]["n"] == 1
        assert doc["rounds"][0]["r"] == 1.0
        assert doc["rounds"][0]["B"] == [0, 3]


class TestSpaceValidation:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(PreconditionError):
            ls.SampledMetricSpace("l2", coords=[[1.0], [1.0]])

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            ls.SampledMetricSpace("l2", coords=[])
