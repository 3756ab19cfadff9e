import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.errors import (
    ConvergenceError,
    PreconditionError,
    RankDeficiencyError,
    RateError,
    SchemaError,
    ShapeError,
)

from conftest import line_space

SQRT_HALF = 2.0**-0.5


@pytest.fixture
def T_sum():
    return ls.LinearSurjection([[1.0, 1.0]])


@pytest.fixture
def two_point_codomain():
    return line_space([-1, 1])


class TestLinearSurjection:
    def test_sigma_min_oracle(self, T_sum):
        # independent route: smallest eigenvalue of T T^T
        gram = np.asarray(T_sum.matrix) @ np.asarray(T_sum.matrix).T
        assert T_sum.sigma_min == pytest.approx(np.sqrt(np.linalg.eigvalsh(gram)[0]), abs=1e-12)
        assert T_sum.sigma_min == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_minimum_norm_solution(self, T_sum):
        np.testing.assert_allclose(T_sum.minimum_norm_solution([1.0]), [0.5, 0.5], atol=1e-15)

    def test_min_norm_is_least_norm(self):
        rng = np.random.default_rng(5)
        T = ls.LinearSurjection(rng.normal(size=(2, 4)))
        y = rng.normal(size=2)
        x = T.minimum_norm_solution(y)
        np.testing.assert_allclose(T.apply(x), y, atol=1e-12)
        for _ in range(20):
            z = rng.normal(size=2)
            other = x + T.kernel_basis().T @ z
            assert np.linalg.norm(x) <= np.linalg.norm(other) + 1e-12

    def test_kernel_basis_orthonormal(self):
        T = ls.LinearSurjection([[1.0, 2.0, 3.0]])
        kb = T.kernel_basis()
        assert kb.shape == (2, 3)
        np.testing.assert_allclose(kb @ kb.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(T.matrix @ kb.T, 0.0, atol=1e-12)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            ls.LinearSurjection([[1.0, 1.0], [1.0, 1.0]])

    def test_too_many_rows(self):
        with pytest.raises(ShapeError):
            ls.LinearSurjection([[1.0], [2.0]])

    def test_json_round_trip(self, T_sum):
        back = ls.LinearSurjection.from_json_dict(T_sum.to_json_dict())
        np.testing.assert_array_equal(back.matrix, T_sum.matrix)


class TestInverseImage:
    def test_sum_map(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        body = phi.body(1)
        assert isinstance(body, ls.AffineFlat)
        np.testing.assert_allclose(body.base, [0.5, 0.5], atol=1e-15)
        # kernel direction is +-(1, -1)/sqrt(2)
        direction = body.basis[0]
        np.testing.assert_allclose(np.abs(direction), [SQRT_HALF, SQRT_HALF], atol=1e-12)
        assert direction[0] * direction[1] == pytest.approx(-0.5, abs=1e-12)

    def test_identity_degenerates_to_point(self):
        T = ls.LinearSurjection(np.eye(2))
        space = ls.SampledMetricSpace([0], "l2", coords=[[0.0, 1.0]])
        phi = ls.inverse_image_correspondence(T, space)
        body = phi.body(0)
        assert body.basis.shape == (0, 2)
        np.testing.assert_allclose(body.base, [0.0, 1.0], atol=1e-15)

    def test_kernel_through_origin(self, T_sum):
        space = ls.SampledMetricSpace([0], "l2", coords=[[0.0]])
        phi = ls.inverse_image_correspondence(T_sum, space)
        np.testing.assert_allclose(phi.body(0).base, [0.0, 0.0], atol=1e-15)

    def test_dimension_guard(self, T_sum):
        space = ls.SampledMetricSpace([0], "l2", coords=[[0.0, 1.0]])
        with pytest.raises(ShapeError):
            ls.inverse_image_correspondence(T_sum, space)

    def test_explicit_space_rejected(self, T_sum):
        space = ls.SampledMetricSpace(
            [0, 1], "explicit", explicit_distances=[[0.0, 1.0], [1.0, 0.0]]
        )
        with pytest.raises(ShapeError):
            ls.inverse_image_correspondence(T_sum, space)


class TestLowerPtlip:
    def test_parallel_flats_pass_at_rate(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        check = ls.check_lower_ptlip(phi, 1, [0.5, 0.5], SQRT_HALF)
        assert check.passed
        # distance between the flats is 2/sqrt(2) = rate * d exactly
        assert check.slack == pytest.approx(0.0, abs=1e-12)

    def test_constant_correspondence_rate_zero(self):
        space = line_space([0, 1.0])
        ball = ls.Ball([0.0, 0.0], 1.0)
        phi = ls.Correspondence(space, {0: ball, 1.0: ball}, ambient_dim=2)
        check = ls.check_lower_ptlip(phi, 0, [0.5, 0.0], 0.0)
        assert check.passed

    def test_fails_below_rate_with_witness(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        check = ls.check_lower_ptlip(phi, 1, [0.5, 0.5], 0.5)
        assert not check.passed
        assert check.witness == -1
        # 2 * 0.5 < sqrt(2): slack is sqrt(2) - 1
        assert check.slack == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)

    def test_anchor_must_be_member(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        with pytest.raises(PreconditionError):
            ls.check_lower_ptlip(phi, 1, [0.0, 0.0], 1.0)

    def test_sharpness_at_realized_ratio(self):
        # the check passes exactly at the worst realized distance ratio and
        # fails at any rate strictly below it
        rng = np.random.default_rng(17)
        T = ls.LinearSurjection(rng.normal(size=(2, 3)))
        space = ls.SampledMetricSpace(
            range(7), "l2", coords=rng.normal(size=(7, 2))
        )
        phi = ls.inverse_image_correspondence(T, space)
        b = 3
        y = T.minimum_norm_solution(space.coordinate(b))
        row = space.distance_row(b)
        realized = max(
            phi.body(a).distance_to(y) / row[i]
            for i, a in enumerate(space.point_ids)
            if a != b
        )
        assert realized <= 1.0 / T.sigma_min + 1e-12
        assert ls.check_lower_ptlip(phi, b, y, realized, tol=1e-12).passed
        assert not ls.check_lower_ptlip(phi, b, y, realized * 0.99, tol=1e-12).passed


class TestLocalStrongSelection:
    def test_projection_table(self, T_sum):
        space = line_space([-1, 0, 1])
        phi = ls.inverse_image_correspondence(T_sum, space)
        g = ls.local_strong_selection(phi, 1, [0.5, 0.5], rate=SQRT_HALF)
        # rows follow the point ids -1, 0, 1
        np.testing.assert_allclose(g[1], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(g[0], [-0.5, -0.5], atol=1e-15)
        np.testing.assert_array_equal(g[2], [0.5, 0.5])

    def test_constant_correspondence_identity(self):
        space = line_space([0, 0.5, 1.0])
        ball = ls.Ball([0.0, 0.0], 1.0)
        phi = ls.Correspondence(space, {a: ball for a in space.point_ids}, ambient_dim=2)
        y = np.array([0.25, 0.25])
        g = ls.local_strong_selection(phi, 0, y, rate=0.0)
        for row in g:
            np.testing.assert_array_equal(row, y)

    def test_anchor_inside_moving_balls(self):
        space = line_space([-1, -0.5, 0, 0.5, 1])
        bodies = {a: ls.Ball([float(a), 0.0], 1.0) for a in space.point_ids}
        phi = ls.Correspondence(space, bodies, ambient_dim=2)
        g = ls.local_strong_selection(phi, 0, [0.0, 0.0], rate=1.0)
        for row in g:
            np.testing.assert_array_equal(row, [0.0, 0.0])

    def test_strong_bound_invariants(self, T_sum):
        space = line_space([-1, -0.4, 0.2, 1])
        phi = ls.inverse_image_correspondence(T_sum, space)
        y = np.asarray(T_sum.minimum_norm_solution([0.2]))
        g = ls.local_strong_selection(phi, 0.2, y, rate=SQRT_HALF)
        anchor = g[space.index(0.2)]
        assert float(np.linalg.norm(anchor - y)) <= 1e-12
        for a, row in zip(space.point_ids, g):
            assert phi.body(a).contains(row, tol=1e-8)
            bound = SQRT_HALF * space.distance(0.2, a) + 1e-9
            assert np.linalg.norm(row - anchor) <= bound

    def test_anchor_row_is_pinned_to_y(self):
        # y sits 1e-12 outside the ball at 0, within tol: its projection
        # moves it, the anchor row does not
        space = line_space([0, 1.0])
        bodies = {0: ls.Ball([0.0, 0.0], 1.0), 1.0: ls.Ball([1.0, 0.0], 1.0)}
        phi = ls.Correspondence(space, bodies, ambient_dim=2)
        y = np.array([-(1.0 + 1e-12), 0.0])
        assert not np.array_equal(phi.project_all(y)[0], y)
        g = ls.local_strong_selection(phi, 0, y, rate=3.0)
        assert g[0].tobytes() == y.tobytes()

    def test_dykstra_non_convergence_raises(self):
        # the wedge {|x_2| <= -x_1 tan 0.003}; (1, 0.5) projects onto its
        # apex, which Dykstra's method approaches by a slow zigzag
        s, c = np.sin(0.003), np.cos(0.003)
        wedge = ls.Polytope([[s, c], [s, -c]], [0.0, 0.0], witness=[-1.0, 0.0])
        space = line_space([0, 1.0])
        phi = ls.Correspondence(space, {0: wedge, 1.0: ls.Ball([1.0, 0.5], 0.1)}, ambient_dim=2)
        with pytest.raises(ConvergenceError) as err:
            ls.local_strong_selection(phi, 1.0, [1.0, 0.5], rate=10.0)
        assert err.value.residual > ls.convex.DYKSTRA_TOL

    def test_rate_error_with_witness(self):
        space = line_space([0, 1.0])
        bodies = {0: ls.Ball([0.0, 0.0], 0.5), 1.0: ls.Ball([5.0, 0.0], 0.5)}
        phi = ls.Correspondence(space, bodies, ambient_dim=2)
        with pytest.raises(RateError) as err:
            ls.local_strong_selection(phi, 0, [0.0, 0.0], rate=1.0)
        assert err.value.witness == 1.0
        # distance to the far ball is 4.5, allowed 1.0
        assert err.value.excess == pytest.approx(3.5, abs=1e-12)


class TestCorrespondenceJson:
    def test_round_trip(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        doc = phi.to_json_dict()
        back = ls.Correspondence.from_json_dict(doc)
        # ids become indices after ingestion; bodies travel intact
        assert back.ambient_dim == 2
        np.testing.assert_allclose(
            back.body(0).base, phi.body(-1).base, atol=1e-15
        )

    def test_unknown_body_key_rejected(self, two_point_codomain):
        ball = ls.Ball([0.0], 1.0).to_json_dict()
        doc = {"space": {"metric": "l2", "points": [[0.0], [1.0]]}, "bodies": {"0": ball, "1": ball, "7": ball}}
        with pytest.raises(SchemaError, match="unknown points"):
            ls.Correspondence.from_json_dict(doc)

    def test_missing_body_rejected(self, two_point_codomain):
        ball = ls.Ball([0.0], 1.0)
        with pytest.raises(PreconditionError):
            ls.Correspondence(two_point_codomain, {-1: ball}, ambient_dim=1)


# -- batched projection ------------------------------------------------------

COORD = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def mixed_bodies(draw, dim):
    """A ball, a flat of rank 0..dim, or a bounded polytope with 2 to 4
    halfspaces in ``R^dim``; the bodies of a list rarely share a shape."""
    vector = st.lists(COORD, min_size=dim, max_size=dim).map(np.array)
    kind = draw(st.sampled_from(["ball", "flat", "polytope"]))
    if kind == "ball":
        return ls.Ball(draw(vector), draw(st.floats(0.1, 2.0)))
    if kind == "flat":
        rank = draw(st.integers(0, dim))
        q, _ = np.linalg.qr(draw(st.lists(vector, min_size=dim, max_size=dim).map(np.array)) + 3.0 * np.eye(dim))
        return ls.AffineFlat(draw(vector), q.T[:rank])
    witness = draw(vector)
    normals = np.array(draw(st.lists(vector, min_size=2, max_size=4)))
    normals = normals[np.linalg.norm(normals, axis=1) > 0.1]
    normals = np.vstack([normals, np.eye(dim)[:1]]) if len(normals) else np.eye(dim)[:1]
    offsets = normals @ witness + draw(st.lists(st.floats(0.0, 1.0), min_size=len(normals), max_size=len(normals)))
    return ls.Polytope(normals, offsets, witness)


@seed(5)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_kernels_equal_the_per_body_methods(data):
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 8))
    bodies = data.draw(st.lists(mixed_bodies(dim), min_size=n, max_size=n))
    space = ls.SampledMetricSpace(range(n), "l2", coords=[[float(i)] for i in range(n)])
    phi = ls.Correspondence(space, dict(enumerate(bodies)), ambient_dim=dim)
    y = np.array(data.draw(st.lists(COORD, min_size=dim, max_size=dim)))
    projected = phi.project_all(y)
    for body, row in zip(bodies, projected):
        assert row.tobytes() == body.project(y).tobytes()
    # queries outside, on and inside every body: projections are members
    table = np.array(data.draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=n, max_size=n)))
    for rows in (table, projected, np.array([b.canonical_point() for b in bodies])):
        got = phi.distances_to(rows)
        want = np.array([body.distance_to(row) for body, row in zip(bodies, rows)])
        assert got.tobytes() == want.tobytes()


def test_project_all_groups_by_kind_and_shape():
    space = ls.SampledMetricSpace(range(5), "l2", coords=[[float(i)] for i in range(5)])
    square = ls.Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 0.0, 1.0, 0.0], [0.5, 0.5])
    bodies = {
        0: ls.AffineFlat([0.0, 0.0], [[1.0, 0.0]]),
        1: square,
        2: ls.AffineFlat([1.0, 1.0]),
        3: ls.Polytope([[1.0, 1.0]], [0.0], [0.0, 0.0]),
        4: ls.AffineFlat([0.0, 3.0], [[0.0, 1.0]]),
    }
    phi = ls.Correspondence(space, bodies, ambient_dim=2)
    assert [rows.tolist() for rows, _, _ in phi._stacks] == [[0, 4], [1], [2], [3]]
    np.testing.assert_allclose(
        phi.project_all([2.0, 2.0]), [[2.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 2.0]], atol=1e-9
    )
    with pytest.raises(ShapeError):
        phi.project_all([2.0, 2.0, 2.0])
