import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.convex import DYKSTRA_MAX_SWEEPS, DYKSTRA_TOL, _row_norms
from lipselect.errors import ConvergenceError, PreconditionError, SchemaError

from conftest import ball_doc, correspondence, distance_one, flat_doc, polytope_doc, project_one, stack_of

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


def halfspaces(poly):
    """The normal matrix and offset vector of a polytope document."""
    return (np.array([h["normal"] for h in poly["halfspaces"]]),
            np.array([h["offset"] for h in poly["halfspaces"]]))


def scalar_dykstra(poly, y):
    """Dykstra's method on one body, halfspace by halfspace: the reference
    whose iterates the lockstep kernel must reproduce bit for bit."""
    normals, offsets = halfspaces(poly)
    if np.all(normals @ y <= offsets):
        return y.copy()
    sq_norms = np.einsum("ij,ij->i", normals, normals)
    x = y.copy()
    increments = np.zeros(normals.shape)
    for _ in range(DYKSTRA_MAX_SWEEPS):
        previous = increments.copy()
        for i in range(len(offsets)):
            v = x + increments[i]
            excess = float(normals[i] @ v - offsets[i])
            x = v - (excess / sq_norms[i]) * normals[i] if excess > 0.0 else v
            increments[i] = v - x
        violation = max(0.0, float(((normals @ x - offsets) / np.sqrt(sq_norms)).max()))
        if max(float(np.sqrt(np.sum((increments - previous) ** 2))), violation) <= DYKSTRA_TOL:
            return x
    raise AssertionError("reference loop did not converge")


def narrow_wedge(half_angle):
    """The document of ``{x : |x_2| <= -x_1 tan(half_angle)}``: (1, 0.5)
    projects onto the apex, which Dykstra's method approaches by a slow
    zigzag."""
    s, c = np.sin(half_angle), np.cos(half_angle)
    return polytope_doc([[s, c], [s, -c]], [0.0, 0.0], [-1.0, 0.0])


def three_sided_corner():
    """The document of ``-2 x1 + x2 <= 0``, ``x1 <= 1``, ``x1 - 2 x2 <=
    1``: (3, 3) projects onto the corner (1, 2) of the first two."""
    return polytope_doc([[-2.0, 1.0], [1.0, 0.0], [1.0, -2.0]], [0.0, 1.0, 1.0], [0.0, 0.0])


def unit_square():
    return polytope_doc([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 0.0, 1.0, 0.0], [0.5, 0.5])


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
    return polytope_doc(normals, offsets, w), np.asarray(normals), np.asarray(offsets)


class TestAffineFlat:
    def test_projection_by_symmetry(self):
        flat = flat_doc([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        np.testing.assert_allclose(project_one(flat, [0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_distance_point_to_hyperplane(self):
        flat = flat_doc([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        # |0 + 0 - 1| / sqrt(2)
        assert distance_one(flat, [0.0, 0.0]) == pytest.approx(SQRT_HALF, abs=1e-15)

    def test_contains_on_flat(self):
        flat = flat_doc([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        assert distance_one(flat, [0.25, 0.75]) <= 1e-12
        assert not distance_one(flat, [0.0, 0.0]) <= 1e-12

    def test_degenerate_point(self):
        flat = flat_doc([1.0, 2.0])
        np.testing.assert_array_equal(project_one(flat, [5.0, 5.0]), [1.0, 2.0])

    def test_non_orthonormal_rejected(self):
        with pytest.raises(PreconditionError):
            stack_of([flat_doc([0.0, 0.0], [[1.0, 1.0]])])
        with pytest.raises(PreconditionError):
            stack_of([flat_doc([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])])

    def test_dimension_mismatch(self):
        phi = correspondence(ls.SampledMetricSpace("l2", coords=[[0.0]]), [flat_doc([0.0, 0.0])])
        with pytest.raises(SchemaError, match=r"expected 1 queries of dimension 2, got shape \(1, 3\)"):
            phi.project([0], [[1.0, 2.0, 3.0]])


class TestBall:
    def test_radial_projection(self):
        ball = ball_doc([0.0, 0.0], 1.0)
        np.testing.assert_allclose(project_one(ball, [2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_interior_fixed(self):
        ball = ball_doc([0.0, 0.0], 1.0)
        np.testing.assert_array_equal(project_one(ball, [0.25, -0.25]), [0.25, -0.25])

    def test_center_fixed(self):
        ball = ball_doc([1.0, 1.0], 0.5)
        np.testing.assert_array_equal(project_one(ball, [1.0, 1.0]), [1.0, 1.0])

    def test_distances(self):
        ball = ball_doc([0.0, 0.0], 1.0)
        assert distance_one(ball, [1.0, 0.0]) == 0.0
        assert distance_one(ball, [2.0, 0.0]) == 1.0
        assert not distance_one(ball, [2.0, 0.0]) <= 1e-12

    def test_a_far_ball_keeps_finite_distances(self):
        # (1e200)^2 overflows; the distance to the ball and the projection do not
        ball = ball_doc([1e200, 0.0], 1.0)
        with np.errstate(all="raise"):
            assert distance_one(ball, [0.0, 0.0]) == 1e200
            np.testing.assert_array_equal(project_one(ball, [0.0, 0.0]), [1e200, 0.0])

    def test_radius_positive(self):
        with pytest.raises(PreconditionError):
            stack_of([ball_doc([0.0], 0.0)])


class TestPolytope:
    def test_corner_projection_vs_oracle(self):
        square = unit_square()
        got = project_one(square, [2.0, 2.0])
        expected = face_enumeration_projection(*halfspaces(square), [2.0, 2.0])
        np.testing.assert_allclose(got, expected, atol=1e-8)
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-8)

    def test_interior_point_exact(self):
        square = unit_square()
        assert distance_one(square, [0.5, 0.5]) <= 0.0
        np.testing.assert_array_equal(project_one(square, [0.5, 0.5]), [0.5, 0.5])

    def test_infeasible_witness_rejected(self):
        with pytest.raises(PreconditionError):
            stack_of([polytope_doc([[1.0, 0.0]], [1.0], [2.0, 0.0])])

    def test_zero_normal_rejected(self):
        with pytest.raises(PreconditionError):
            stack_of([polytope_doc([[0.0, 0.0]], [1.0], [0.0, 0.0])])

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            poly, normals, offsets = random_bounded_polytope(rng)
            y = rng.normal(scale=2.0, size=3)
            got = project_one(poly, y)
            expected = face_enumeration_projection(normals, offsets, y)
            np.testing.assert_allclose(got, expected, atol=1e-7)

    def test_lockstep_reproduces_the_scalar_loop(self):
        # stacks of polytopes with equal halfspace counts, each row its own
        # query; bodies retire at different sweeps
        rng = np.random.default_rng(3)
        polys = [random_bounded_polytope(rng)[0] for _ in range(30)]
        for m in {len(p["halfspaces"]) for p in polys}:
            group = [p for p in polys if len(p["halfspaces"]) == m]
            ys = rng.normal(scale=2.0, size=(len(group), 3))
            ys[0] = group[0]["witness"]  # one row already inside
            got = ls.Polytope.project(stack_of(group)[1], ys)
            for poly, y, row in zip(group, ys, got):
                want = scalar_dykstra(poly, y)
                assert row.tobytes() == want.tobytes()
                assert project_one(poly, y).tobytes() == want.tobytes()

    @pytest.mark.parametrize("half_angle", [0.01, 0.003])
    def test_narrow_wedge_projection_is_certified(self, half_angle):
        """Dykstra's method does not settle within its sweeps; the point on
        the two faces its last sweep touched carries the KKT certificate
        and is the oracle's apex, alone or stacked with a quick body that
        retires early."""
        wedge = narrow_wedge(half_angle)
        y = np.array([1.0, 0.5])
        lone = project_one(wedge, y)
        oracle = face_enumeration_projection(*halfspaces(wedge), y)
        np.testing.assert_allclose(lone, oracle, rtol=0.0, atol=DYKSTRA_TOL)
        quick = polytope_doc([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [0.0, 0.0])
        stacked = ls.Polytope.project(stack_of([quick, wedge])[1], np.array([[1.0, 1.0], [1.0, 0.5]]))
        assert stacked[0].tolist() == [0.0, 0.0]
        assert stacked[1].tobytes() == lone.tobytes()

    def test_uncertified_answer_reports_the_worst_residual(self, monkeypatch):
        """One sweep from (3, 3) touches only ``x1 <= 1``, and the point
        where it alone holds, (1, 3), breaks ``-2 x1 + x2 <= 0``, which
        holds too at the projection (1, 2): with a budget of one sweep the
        projection fails loudly."""
        corner = three_sided_corner()
        monkeypatch.setattr(ls.convex, "DYKSTRA_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            project_one(corner, [3.0, 3.0])
        assert err.value.residual > DYKSTRA_TOL
        monkeypatch.setattr(ls.convex, "DYKSTRA_MAX_SWEEPS", DYKSTRA_MAX_SWEEPS)
        np.testing.assert_allclose(project_one(corner, [3.0, 3.0]), [1.0, 2.0], rtol=0.0, atol=1e-9)

    def test_degenerate_polytope_projects_onto_its_corner(self):
        """Normals at multiples of 45 degrees, and a feasible set that is
        the ray ``x1 = -0.385, x2 >= 1.0807``: the query projects onto its
        end, where three halfspaces are tight.  Dykstra's method does not
        settle there, and the certified point is the oracle's.  The
        offsets are rounded, so ``(-0.385, 1.0806)``, the one point of the
        body before rounding, is no witness."""
        normals = [[0.0, -1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, -1.0], [1.0, 0.0]]
        offsets = [-1.0806, -0.5228, 0.385, -1.4657, -0.385]
        with pytest.raises(PreconditionError):
            stack_of([polytope_doc(normals, offsets, [-0.385, 1.0806])])
        poly = polytope_doc(normals, offsets, [-0.385, 1.0807])
        y = [-1.2e-7, -0.6289]
        oracle = face_enumeration_projection(normals, offsets, y)
        np.testing.assert_allclose(project_one(poly, y), oracle, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(oracle, [-0.385, 1.0807], rtol=0.0, atol=1e-12)

    def test_slow_wedge_converges_to_the_apex(self):
        np.testing.assert_allclose(project_one(narrow_wedge(0.3), [1.0, 0.5]), [0.0, 0.0], atol=1e-9)

    def test_json_round_trip(self):
        # a document's fields travel intact into its stack of one
        square = unit_square()
        kind, (normals, offsets, _, _, witnesses) = stack_of([square])
        assert kind is ls.Polytope
        np.testing.assert_array_equal(normals[0], halfspaces(square)[0])
        np.testing.assert_array_equal(offsets[0], halfspaces(square)[1])
        np.testing.assert_array_equal(witnesses[0], square["witness"])


class TestBodyJson:
    def test_flat_round_trip(self):
        flat = flat_doc([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]])
        kind, (bases, basis) = stack_of([flat])
        assert kind is ls.AffineFlat
        assert bases[0].tolist() == flat["base"] and basis[0].tolist() == flat["basis"]

    def test_ball_round_trip(self):
        ball = ball_doc([1.0, -1.0, 0.0], 2.5)
        kind, (centers, radii) = stack_of([ball])
        assert kind is ls.Ball
        assert centers[0].tolist() == ball["center"] and radii[0] == 2.5

    def test_unknown_kind(self):
        with pytest.raises(ls.SchemaError):
            stack_of([{"kind": "simplex"}])

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "polytope", "halfspaces": "x", "witness": [0.0]},
            {"kind": "polytope", "halfspaces": [[1.0]], "witness": [0.0]},
            {"kind": "flat", "base": [0.0, 0.0], "basis": 5},
            {"kind": "ball", "center": [0.0], "radius": [1.0]},
            {"kind": "ball", "center": ["0.5", True], "radius": "1e0"},
            {"kind": "flat", "base": [0.0, None], "basis": []},
        ],
    )
    def test_malformed_fields_are_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            stack_of([doc])


def closed_form_projection(body, y):
    """The one-vector closed forms the stacked kernels must reproduce bit
    for bit: ``base + B^T (B rel)`` and the radial ball formula."""
    if body["kind"] == "flat":
        base, basis = np.array(body["base"]), np.array(body["basis"])
        rel = y - base
        return base + basis.T @ (basis @ rel), float(np.linalg.norm(rel - basis.T @ (basis @ rel)))
    center, radius = np.array(body["center"]), body["radius"]
    rel = y - center
    nrm = float(np.linalg.norm(rel))
    projected = y.copy() if nrm <= radius else center + (radius / nrm) * rel
    return projected, max(0.0, nrm - radius)


class TestStacks:
    def test_kernels_match_the_single_body_methods(self):
        rng = np.random.default_rng(8)
        kernel_basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:2]
        groups = [
            [ball_doc(rng.normal(size=3), r) for r in (0.5, 1.0, 2.0)],
            [flat_doc(rng.normal(size=3), kernel_basis) for _ in range(3)],
            [flat_doc(rng.normal(size=3), np.linalg.qr(rng.normal(size=(3, 3)))[0][:1]) for _ in range(3)],
        ]
        for group in groups:
            kind, stack = stack_of(group)
            ys = rng.normal(scale=2.0, size=(3, 3))
            ys[0] = kind.project(stack, ys)[0]  # a row inside its body
            projected = kind.project(stack, ys)
            distances = kind.distance_to(stack, ys)
            for i, body in enumerate(group):
                assert projected[i].tobytes() == project_one(body, ys[i]).tobytes()
                assert distances[i] == distance_one(body, ys[i])
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
        flat_doc([0.5, 0.5], [[SQRT_HALF, -SQRT_HALF]]),
        ball_doc([0.25, -0.5], 0.75),
        unit_square(),
    ]
    y = np.asarray(y)
    z = np.asarray(z)
    for body in bodies:
        py, pz = project_one(body, y), project_one(body, z)
        # idempotence
        assert np.linalg.norm(project_one(body, py) - py) <= 1e-9
        # nonexpansiveness
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-9
        # membership
        assert distance_one(body, py) <= 1e-8


def test_row_norms_rescale_only_the_rows_whose_squares_overflow():
    """Ordinary rows keep the bits of the sum of squares' root; a finite row
    whose sum of squares overflows gets its norm from its scaled copy, with
    no floating-point warning; a row holding inf or NaN keeps its norm."""
    rng = np.random.default_rng(11)
    ordinary = rng.normal(size=(40, 4)) * 10.0 ** rng.uniform(-100, 100, size=(40, 1))
    huge = rng.normal(size=(6, 4)) * 10.0 ** rng.uniform(155, 307, size=(6, 1))
    special = np.array([[np.inf, 1.0, 0.0, 0.0], [np.nan, 1e300, 0.0, 0.0], [1e300, 0.0, 0.0, 0.0], [0.0] * 4])
    rows = np.vstack([ordinary[:20], huge, ordinary[20:], special])
    with np.errstate(all="raise"):
        got = _row_norms(rows)
        stacked = _row_norms(rows.reshape(2, -1, 4))
    assert got.tobytes() == stacked.tobytes()
    plain = np.r_[0:20, 26:46]
    assert got[plain].tobytes() == np.sqrt(np.vecdot(ordinary, ordinary)).tobytes()
    np.testing.assert_allclose(got[20:26], [math.hypot(*row) for row in huge], rtol=1e-15)
    assert got[-4] == np.inf and np.isnan(got[-3]) and got[-2] == 1e300 and got[-1] == 0.0
