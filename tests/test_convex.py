import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.convex import DYKSTRA_MAX_SWEEPS, DYKSTRA_TOL, stack_bodies
from lipselect.errors import ConvergenceError, PreconditionError, ShapeError

SQRT_HALF = 2.0**-0.5


def face_enumeration_projection(normals, offsets, y, feas_tol=1e-9):
    """Brute-force oracle: the metric projection onto an H-polytope lies on
    some face, and equals the projection of y onto the affine hull of the
    active constraints there.  Enumerate all candidate active sets, keep the
    feasible candidates, take the closest."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = normals.shape
    row_norms = np.linalg.norm(normals, axis=1)
    best, best_dist = None, np.inf
    for size in range(0, min(m, d) + 1):
        for subset in itertools.combinations(range(m), size):
            if size == 0:
                x = y.copy()
            else:
                A = normals[list(subset)]
                b = offsets[list(subset)]
                gram = A @ A.T
                rhs = b - A @ y
                w, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
                x = y + A.T @ w
                if np.linalg.norm(A @ x - b) > 1e-8 * max(1.0, np.linalg.norm(b)):
                    continue
            if np.all(normals @ x - offsets <= feas_tol * np.maximum(1.0, row_norms)):
                dist = np.linalg.norm(x - y)
                if dist < best_dist:
                    best, best_dist = x, dist
    assert best is not None, "oracle found no feasible candidate"
    return best


def scalar_dykstra(poly, y):
    """Dykstra's method on one body, halfspace by halfspace: the reference
    whose iterates the lockstep kernel must reproduce bit for bit."""
    if np.all(poly.normals @ y <= poly.offsets):
        return y.copy()
    sq_norms = np.einsum("ij,ij->i", poly.normals, poly.normals)
    x = y.copy()
    increments = np.zeros(poly.normals.shape)
    for _ in range(DYKSTRA_MAX_SWEEPS):
        previous = increments.copy()
        for i in range(len(poly.offsets)):
            v = x + increments[i]
            excess = float(poly.normals[i] @ v - poly.offsets[i])
            x = v - (excess / sq_norms[i]) * poly.normals[i] if excess > 0.0 else v
            increments[i] = v - x
        violation = max(0.0, float(((poly.normals @ x - poly.offsets) / np.sqrt(sq_norms)).max()))
        if max(float(np.sqrt(np.sum((increments - previous) ** 2))), violation) <= DYKSTRA_TOL:
            return x
    raise AssertionError("reference loop did not converge")


def narrow_wedge(half_angle):
    """``{x : |x_2| <= -x_1 tan(half_angle)}``: (1, 0.5) projects onto the
    apex, which Dykstra's method approaches by a slow zigzag."""
    s, c = np.sin(half_angle), np.cos(half_angle)
    return ls.Polytope([[s, c], [s, -c]], [0.0, 0.0], witness=[-1.0, 0.0])


def unit_square():
    return ls.Polytope(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [1.0, 0.0, 1.0, 0.0],
        witness=[0.5, 0.5],
    )


def random_bounded_polytope(rng, dim=3):
    """Box faces with randomized extents plus up to two extra cuts through a
    strictly interior witness: bounded, nonempty, at most 8 halfspaces."""
    w = rng.normal(size=dim)
    normals = []
    offsets = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        normals.append(e.copy())
        offsets.append(w[i] + rng.uniform(0.2, 1.5))
        normals.append(-e)
        offsets.append(-w[i] + rng.uniform(0.2, 1.5))
    for _ in range(rng.integers(0, 3)):
        n = rng.normal(size=dim)
        normals.append(n)
        offsets.append(float(n @ w) + rng.uniform(0.1, 1.0))
    return ls.Polytope(normals, offsets, witness=w), np.asarray(normals), np.asarray(offsets)


class TestAffineFlat:
    def test_projection_by_symmetry(self):
        flat = ls.AffineFlat([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        np.testing.assert_allclose(flat.project([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_distance_point_to_hyperplane(self):
        flat = ls.AffineFlat([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        # |0 + 0 - 1| / sqrt(2)
        assert flat.distance_to([0.0, 0.0]) == pytest.approx(SQRT_HALF, abs=1e-15)

    def test_contains_on_flat(self):
        flat = ls.AffineFlat([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        assert flat.contains([0.25, 0.75], tol=1e-12)
        assert not flat.contains([0.0, 0.0], tol=1e-12)

    def test_degenerate_point(self):
        flat = ls.AffineFlat([1.0, 2.0])
        np.testing.assert_array_equal(flat.project([5.0, 5.0]), [1.0, 2.0])

    def test_non_orthonormal_rejected(self):
        with pytest.raises(PreconditionError):
            ls.AffineFlat([0.0, 0.0], [[1.0, 1.0]])
        with pytest.raises(PreconditionError):
            ls.AffineFlat([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_dimension_mismatch(self):
        flat = ls.AffineFlat([0.0, 0.0])
        with pytest.raises(ShapeError):
            flat.project([1.0, 2.0, 3.0])


class TestBall:
    def test_radial_projection(self):
        ball = ls.Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(ball.project([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_interior_fixed(self):
        ball = ls.Ball([0.0, 0.0], 1.0)
        np.testing.assert_array_equal(ball.project([0.25, -0.25]), [0.25, -0.25])

    def test_center_fixed(self):
        ball = ls.Ball([1.0, 1.0], 0.5)
        np.testing.assert_array_equal(ball.project([1.0, 1.0]), [1.0, 1.0])

    def test_distances(self):
        ball = ls.Ball([0.0, 0.0], 1.0)
        assert ball.distance_to([1.0, 0.0]) == 0.0
        assert ball.distance_to([2.0, 0.0]) == 1.0
        assert not ball.contains([2.0, 0.0], tol=1e-12)

    def test_radius_positive(self):
        with pytest.raises(PreconditionError):
            ls.Ball([0.0], 0.0)


class TestPolytope:
    def test_corner_projection_vs_oracle(self):
        square = unit_square()
        got = square.project([2.0, 2.0])
        expected = face_enumeration_projection(square.normals, square.offsets, [2.0, 2.0])
        np.testing.assert_allclose(got, expected, atol=1e-8)
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-8)

    def test_interior_point_exact(self):
        square = unit_square()
        assert square.contains([0.5, 0.5], tol=0.0)
        np.testing.assert_array_equal(square.project([0.5, 0.5]), [0.5, 0.5])

    def test_infeasible_witness_rejected(self):
        with pytest.raises(PreconditionError):
            ls.Polytope([[1.0, 0.0]], [1.0], witness=[2.0, 0.0])

    def test_zero_normal_rejected(self):
        with pytest.raises(PreconditionError):
            ls.Polytope([[0.0, 0.0]], [1.0], witness=[0.0, 0.0])

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            poly, normals, offsets = random_bounded_polytope(rng)
            y = rng.normal(scale=2.0, size=3)
            got = poly.project(y)
            expected = face_enumeration_projection(normals, offsets, y)
            np.testing.assert_allclose(got, expected, atol=1e-7)

    def test_lockstep_reproduces_the_scalar_loop(self):
        # stacks of polytopes with equal halfspace counts, each row its own
        # query; bodies retire at different sweeps
        rng = np.random.default_rng(3)
        polys = [random_bounded_polytope(rng)[0] for _ in range(30)]
        for m in {len(p.offsets) for p in polys}:
            group = [p for p in polys if len(p.offsets) == m]
            ys = rng.normal(scale=2.0, size=(len(group), 3))
            ys[0] = group[0].witness  # one row already inside
            got = ls.Polytope.project_stack(stack_bodies(group), ys)
            for poly, y, row in zip(group, ys, got):
                want = scalar_dykstra(poly, y)
                assert row.tobytes() == want.tobytes()
                assert poly.project(y).tobytes() == want.tobytes()

    def test_non_convergence_reports_the_worst_residual(self):
        wedge = narrow_wedge(0.003)
        with pytest.raises(ConvergenceError) as lone:
            wedge.project([1.0, 0.5])
        # a quick body in the same stack retires and does not mask the slow one
        quick = ls.Polytope([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], witness=[0.0, 0.0])
        with pytest.raises(ConvergenceError) as stacked:
            ls.Polytope.project_stack(stack_bodies([quick, wedge]), np.array([[1.0, 1.0], [1.0, 0.5]]))
        assert stacked.value.residual == lone.value.residual > DYKSTRA_TOL

    def test_slow_wedge_converges_to_the_apex(self):
        np.testing.assert_allclose(narrow_wedge(0.3).project([1.0, 0.5]), [0.0, 0.0], atol=1e-9)

    def test_json_round_trip(self):
        square = unit_square()
        doc = square.to_json_dict()
        back = ls.ConvexBody.from_json_dict(doc)
        assert isinstance(back, ls.Polytope)
        np.testing.assert_array_equal(back.normals, square.normals)
        np.testing.assert_array_equal(back.witness, square.witness)


class TestBodyJson:
    def test_flat_round_trip(self):
        flat = ls.AffineFlat([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        back = ls.ConvexBody.from_json_dict(flat.to_json_dict())
        assert isinstance(back, ls.AffineFlat)
        np.testing.assert_array_equal(back.base, flat.base)

    def test_ball_round_trip(self):
        ball = ls.Ball([1.0, -1.0, 0.0], 2.5)
        back = ls.ConvexBody.from_json_dict(ball.to_json_dict())
        assert isinstance(back, ls.Ball)
        assert back.radius == 2.5

    def test_unknown_kind(self):
        with pytest.raises(ls.SchemaError):
            ls.ConvexBody.from_json_dict({"kind": "simplex"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "polytope", "halfspaces": "x", "witness": [0.0]},
            {"kind": "polytope", "halfspaces": [[1.0]], "witness": [0.0]},
            {"kind": "flat", "base": [0.0, 0.0], "basis": 5},
            {"kind": "ball", "center": [0.0], "radius": [1.0]},
        ],
    )
    def test_malformed_fields_are_schema_errors(self, doc):
        with pytest.raises((ls.SchemaError, ShapeError)):
            ls.ConvexBody.from_json_dict(doc)


def closed_form_projection(body, y):
    """The one-vector closed forms the stacked kernels must reproduce bit
    for bit: ``base + B^T (B rel)`` and the radial ball formula."""
    if isinstance(body, ls.AffineFlat):
        rel = y - body.base
        return body.base + body.basis.T @ (body.basis @ rel), float(np.linalg.norm(rel - body.basis.T @ (body.basis @ rel)))
    rel = y - body.center
    nrm = float(np.linalg.norm(rel))
    projected = y.copy() if nrm <= body.radius else body.center + (body.radius / nrm) * rel
    return projected, max(0.0, nrm - body.radius)


class TestStacks:
    def test_kernels_match_the_single_body_methods(self):
        rng = np.random.default_rng(8)
        kernel_basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:2]
        groups = [
            [ls.Ball(rng.normal(size=3), r) for r in (0.5, 1.0, 2.0)],
            # a shared basis object stacks as a broadcast view
            [ls.AffineFlat(rng.normal(size=3), kernel_basis) for _ in range(3)],
            [ls.AffineFlat(rng.normal(size=3), np.linalg.qr(rng.normal(size=(3, 3)))[0][:1]) for _ in range(3)],
        ]
        assert stack_bodies(groups[1])[1].strides[0] == 0
        for group in groups:
            kind, stack = type(group[0]), stack_bodies(group)
            ys = rng.normal(scale=2.0, size=(3, 3))
            ys[0] = kind.project_stack(stack, ys)[0]  # a row inside its body
            projected = kind.project_stack(stack, ys)
            distances = kind.distance_stack(stack, ys)
            for i, body in enumerate(group):
                assert projected[i].tobytes() == body.project(ys[i]).tobytes()
                assert distances[i] == body.distance_to(ys[i])
                want_projection, want_distance = closed_form_projection(body, ys[i])
                assert projected[i].tobytes() == want_projection.tobytes()
                assert distances[i] == want_distance
            assert distances[0] <= 1e-12


@seed(11)
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=2,
        max_size=2,
    ),
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=2,
        max_size=2,
    ),
)
def test_projection_properties(y, z):
    bodies = [
        ls.AffineFlat([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]]),
        ls.Ball([0.25, -0.5], 0.75),
        unit_square(),
    ]
    y = np.asarray(y)
    z = np.asarray(z)
    for body in bodies:
        py, pz = body.project(y), body.project(z)
        # idempotence
        assert np.linalg.norm(body.project(py) - py) <= 1e-9
        # nonexpansiveness
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-9
        # membership
        assert body.contains(py, tol=1e-8)
