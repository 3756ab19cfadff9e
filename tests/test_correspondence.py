import collections
import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.cli import main
from lipselect.errors import PreconditionError, RateError, SchemaError

# the root conftest.py puts bench/ on the path
import workloads
from conftest import (
    COORD,
    ball_doc,
    correspondence,
    distance,
    distance_one,
    flat_doc,
    least_norm,
    line_space,
    mixed_bodies,
    polytope_doc,
    project_one,
    segment_document,
    stack_of,
)

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
        # the inverse image of 1 is the flat through its least-norm solution
        phi = ls.inverse_image_correspondence(T_sum, line_space([1.0]))
        ((_, _, (bases, _)),) = phi._stacks
        np.testing.assert_allclose(bases[0], [0.5, 0.5], atol=1e-15)

    def test_min_norm_is_least_norm(self):
        rng = np.random.default_rng(5)
        T = ls.LinearSurjection(rng.normal(size=(2, 4)))
        y = rng.normal(size=2)
        ((_, _, (bases, _)),) = ls.inverse_image_correspondence(T, ls.SampledMetricSpace("l2", coords=[y]))._stacks
        x = bases[0]
        np.testing.assert_allclose(T.matrix @ x, y, atol=1e-12)
        for _ in range(20):
            z = rng.normal(size=2)
            other = x + T.kernel_basis.T @ z
            assert np.linalg.norm(x) <= np.linalg.norm(other) + 1e-12

    def test_kernel_basis_orthonormal(self):
        T = ls.LinearSurjection([[1.0, 2.0, 3.0]])
        kb = T.kernel_basis
        assert kb.shape == (2, 3)
        np.testing.assert_allclose(kb @ kb.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(T.matrix @ kb.T, 0.0, atol=1e-12)

    def test_rank_deficiency(self):
        with pytest.raises(PreconditionError, match=r"smallest singular value \S+ is below 1e-12$"):
            ls.LinearSurjection([[1.0, 1.0], [1.0, 1.0]])

    def test_too_many_rows(self):
        with pytest.raises(SchemaError, match=r"matrix has more rows \(2\) than columns \(1\); cannot be surjective"):
            ls.LinearSurjection([[1.0], [2.0]])

    def test_json_round_trip(self, T_sum):
        back = ls.LinearSurjection.from_json_dict({"matrix": T_sum.matrix.tolist()})
        np.testing.assert_array_equal(back.matrix, T_sum.matrix)


class TestInverseImage:
    def test_sum_map(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        ((_, kind, (bases, basis)),) = phi._stacks
        assert kind is ls.AffineFlat
        np.testing.assert_allclose(bases[1], [0.5, 0.5], atol=1e-15)
        # kernel direction is +-(1, -1)/sqrt(2)
        direction = basis[1][0]
        np.testing.assert_allclose(np.abs(direction), [SQRT_HALF, SQRT_HALF], atol=1e-12)
        assert direction[0] * direction[1] == pytest.approx(-0.5, abs=1e-12)

    def test_identity_degenerates_to_point(self):
        T = ls.LinearSurjection(np.eye(2))
        space = ls.SampledMetricSpace("l2", coords=[[0.0, 1.0]])
        phi = ls.inverse_image_correspondence(T, space)
        ((_, _, (bases, basis)),) = phi._stacks
        assert basis[0].shape == (0, 2)
        np.testing.assert_allclose(bases[0], [0.0, 1.0], atol=1e-15)

    def test_kernel_through_origin(self, T_sum):
        space = ls.SampledMetricSpace("l2", coords=[[0.0]])
        phi = ls.inverse_image_correspondence(T_sum, space)
        ((_, _, (bases, _)),) = phi._stacks
        np.testing.assert_allclose(bases[0], [0.0, 0.0], atol=1e-15)

    def test_one_stack_with_the_least_norm_bases(self):
        T = ls.LinearSurjection(np.random.default_rng(4).normal(size=(3, 6)))
        sphere = ls.sphere_sample(3, 48, seed=2)
        phi = ls.inverse_image_correspondence(T, sphere)
        ((rows, kind, (bases, basis)),) = phi._stacks
        assert kind is ls.AffineFlat and rows.tolist() == list(range(48))
        # the kernel basis is shared, not copied per flat
        assert basis.strides[0] == 0 and np.array_equal(basis[0], T.kernel_basis)
        for y, base in zip(sphere.coords, bases):
            assert base.tobytes() == least_norm(T, y).tobytes()

    def test_dimension_guard(self, T_sum):
        space = ls.SampledMetricSpace("l2", coords=[[0.0, 1.0]])
        with pytest.raises(SchemaError, match="sample lives in dimension 2, codomain is 1$"):
            ls.inverse_image_correspondence(T_sum, space)

    def test_explicit_space_rejected(self, T_sum):
        space = ls.SampledMetricSpace("explicit", explicit_distances=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SchemaError, match="inverse images need a coordinate sample of the codomain"):
            ls.inverse_image_correspondence(T_sum, space)


class TestLowerPtlip:
    """The lower pointwise Lipschitz check of an anchored selection on the
    whole sample: ``dist(phi(a), y) - rate * d(b, a)`` is its excess."""

    def test_parallel_flats_pass_at_rate(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        g = ls.local_strong_selection(phi, 1, [0.5, 0.5], SQRT_HALF)
        # distance between the flats is 2/sqrt(2) = rate * d exactly
        assert np.linalg.norm(g[0] - g[1]) - SQRT_HALF * 2.0 == pytest.approx(0.0, abs=1e-12)

    def test_constant_correspondence_rate_zero(self):
        space = line_space([0, 1.0])
        ball = ball_doc([0.0, 0.0], 1.0)
        phi = correspondence(space, [ball, ball])
        g = ls.local_strong_selection(phi, 0, [0.5, 0.0], 0.0)
        np.testing.assert_array_equal(g, [[0.5, 0.0], [0.5, 0.0]])

    def test_fails_below_rate_with_witness(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        with pytest.raises(RateError) as err:
            ls.local_strong_selection(phi, 1, [0.5, 0.5], 0.5)
        assert err.value.witness == 0
        # 2 * 0.5 < sqrt(2): the excess is sqrt(2) - 1
        assert err.value.excess == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)

    def test_anchor_must_be_member(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        with pytest.raises(PreconditionError):
            ls.local_strong_selection(phi, 1, [0.0, 0.0], 1.0)

    def test_sharpness_at_realized_ratio(self):
        # the check passes exactly at the worst realized distance ratio and
        # fails at any rate strictly below it
        rng = np.random.default_rng(17)
        T = ls.LinearSurjection(rng.normal(size=(2, 3)))
        space = ls.SampledMetricSpace("l2", coords=rng.normal(size=(7, 2)))
        phi = ls.inverse_image_correspondence(T, space)
        b = 3
        y = least_norm(T, space.coords[b])
        row = space.rows([b])[0]
        realized = max(phi.distances([a], y[None])[0] / row[a] for a in range(len(space)) if a != b)
        assert realized <= 1.0 / T.sigma_min + 1e-12
        ls.local_strong_selection(phi, b, y, realized, tol=1e-12)
        with pytest.raises(RateError):
            ls.local_strong_selection(phi, b, y, realized * 0.99, tol=1e-12)


class TestLocalStrongSelection:
    def test_projection_table(self, T_sum):
        space = line_space([-1, 0, 1])
        phi = ls.inverse_image_correspondence(T_sum, space)
        g = ls.local_strong_selection(phi, 2, [0.5, 0.5], rate=SQRT_HALF)
        # rows follow the coordinates -1, 0, 1
        np.testing.assert_allclose(g[1], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(g[0], [-0.5, -0.5], atol=1e-15)
        np.testing.assert_array_equal(g[2], [0.5, 0.5])

    def test_constant_correspondence_identity(self):
        space = line_space([0, 0.5, 1.0])
        ball = ball_doc([0.0, 0.0], 1.0)
        phi = correspondence(space, [ball] * len(space))
        y = np.array([0.25, 0.25])
        g = ls.local_strong_selection(phi, 0, y, rate=0.0)
        for row in g:
            np.testing.assert_array_equal(row, y)

    def test_anchor_inside_moving_balls(self):
        space = line_space([-1, -0.5, 0, 0.5, 1])
        phi = correspondence(space, [ball_doc([x, 0.0], 1.0) for x in space.coords[:, 0]])
        g = ls.local_strong_selection(phi, 2, [0.0, 0.0], rate=1.0)
        for row in g:
            np.testing.assert_array_equal(row, [0.0, 0.0])

    def test_strong_bound_invariants(self, T_sum):
        space = line_space([-1, -0.4, 0.2, 1])
        phi = ls.inverse_image_correspondence(T_sum, space)
        y = least_norm(T_sum, [0.2])
        g = ls.local_strong_selection(phi, 2, y, rate=SQRT_HALF)
        anchor = g[2]
        assert float(np.linalg.norm(anchor - y)) <= 1e-12
        for a, row in enumerate(g):
            assert phi.distances([a], row[None])[0] <= 1e-8
            bound = SQRT_HALF * distance(space, 2, a) + 1e-9
            assert np.linalg.norm(row - anchor) <= bound

    def test_anchor_row_is_pinned_to_y(self):
        # y sits 1e-12 outside the ball at 0, within tol: its projection
        # moves it, the anchor row does not
        space = line_space([0, 1.0])
        phi = correspondence(space, [ball_doc([0.0, 0.0], 1.0), ball_doc([1.0, 0.0], 1.0)])
        y = np.array([-(1.0 + 1e-12), 0.0])
        assert not np.array_equal(phi.project([0], y[None])[0], y)
        g = ls.local_strong_selection(phi, 0, y, rate=3.0)
        assert g[0].tobytes() == y.tobytes()

    def test_narrow_wedge_selection_is_the_apex(self):
        # the wedge {|x_2| <= -x_1 tan 0.003}; (1, 0.5) projects onto its
        # apex, which Dykstra's method approaches by a slow zigzag and the
        # certified projection reaches
        s, c = np.sin(0.003), np.cos(0.003)
        wedge = polytope_doc([[s, c], [s, -c]], [0.0, 0.0], [-1.0, 0.0])
        space = line_space([0, 1.0])
        phi = correspondence(space, [wedge, ball_doc([1.0, 0.5], 0.1)])
        g = ls.local_strong_selection(phi, 1, [1.0, 0.5], rate=10.0)
        np.testing.assert_allclose(g[0], [0.0, 0.0], rtol=0.0, atol=ls.convex.DYKSTRA_TOL)
        assert g[1].tolist() == [1.0, 0.5]

    def test_rate_error_with_witness(self):
        space = line_space([0, 1.0])
        phi = correspondence(space, [ball_doc([0.0, 0.0], 0.5), ball_doc([5.0, 0.0], 0.5)])
        with pytest.raises(RateError) as err:
            ls.local_strong_selection(phi, 0, [0.0, 0.0], rate=1.0)
        assert err.value.witness == 1
        # distance to the far ball is 4.5, allowed 1.0
        assert err.value.excess == pytest.approx(3.5, abs=1e-12)

    def test_rate_error_names_the_worst_point(self):
        # both far balls break rate 1; the farther one by more
        space = line_space([0, 1.0, 2.0])
        phi = correspondence(space, [ball_doc([x, 0.0], 0.5) for x in (0.0, 2.0, 5.0)])
        with pytest.raises(RateError) as err:
            ls.local_strong_selection(phi, 0, [0.0, 0.0], rate=1.0)
        assert err.value.witness == 2
        assert err.value.excess == pytest.approx(2.5, abs=1e-12)


class TestCorrespondenceJson:
    SPACE = {"metric": "l2", "points": [[-1.0], [1.0]]}

    def test_round_trip(self, T_sum, two_point_codomain):
        phi = ls.inverse_image_correspondence(T_sum, two_point_codomain)
        ((_, _, (bases, basis)),) = phi._stacks
        doc = {"space": self.SPACE, "bodies": {str(a): flat_doc(bases[a], basis[a]) for a in range(2)}}
        back = ls.Correspondence.from_json_dict(json.loads(json.dumps(doc)))
        # bodies travel intact
        assert back.ambient_dim == 2
        ((_, kind, (back_bases, back_basis)),) = back._stacks
        assert kind is ls.AffineFlat
        assert back_bases.tobytes() == bases.tobytes() and back_basis.tobytes() == basis.tobytes()

    def test_unknown_body_key_rejected(self, two_point_codomain):
        ball = ball_doc([0.0], 1.0)
        doc = {"space": self.SPACE, "bodies": {"0": ball, "1": ball, "7": ball}}
        with pytest.raises(SchemaError, match="unknown points"):
            ls.Correspondence.from_json_dict(doc)

    def test_missing_body_rejected(self, two_point_codomain):
        with pytest.raises(SchemaError):
            ls.Correspondence.from_json_dict({"space": self.SPACE, "bodies": {"0": ball_doc([0.0], 1.0)}})


# -- batched projection ------------------------------------------------------

@seed(5)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_kernels_equal_the_per_body_methods(data):
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 8))
    bodies = data.draw(st.lists(mixed_bodies(dim), min_size=n, max_size=n))
    space = ls.SampledMetricSpace("l2", coords=[[float(i)] for i in range(n)])
    phi = correspondence(space, bodies)
    # pairs in any order, a point repeated or left out, one query each
    points = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    ys = np.array(data.draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=len(points), max_size=len(points)))).reshape(-1, dim)
    projected, distances = phi.project(points, ys), phi.distances(points, ys)
    for a, y, row, dist in zip(points, ys, projected, distances):
        assert row.tobytes() == project_one(bodies[a], y).tobytes()
        assert _bits(dist) == _bits(distance_one(bodies[a], y))
    # queries outside, on and inside every body: projections are members
    table = np.array(data.draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=n, max_size=n)))
    for rows in (table, phi.project(range(n), table), phi.canonical_selection()):
        got = phi.distances(np.arange(n), rows)
        want = np.array([distance_one(body, row) for body, row in zip(bodies, rows)])
        assert got.tobytes() == want.tobytes()


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@seed(7)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_list_parsed_together_equals_each_document_parsed_alone(data):
    """Body documents parsed as one list, into one stack per kind and
    shape, equal each document parsed alone, a stack of one, bit for bit:
    every row of a stack holds its own document's kind and fields, and
    projects and measures every query to the same bits, queries on the
    coordinate axes included."""
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 8))
    docs = data.draw(st.lists(mixed_bodies(dim), min_size=n, max_size=n))
    doc = {"space": {"metric": "l2", "points": [[float(i)] for i in range(n)]},
           "bodies": {str(a): body for a, body in enumerate(docs)}}
    phi = ls.Correspondence.from_json_dict(json.loads(json.dumps(doc)))
    assert sorted(a for rows, _, _ in phi._stacks for a in rows.tolist()) == list(range(n))
    for rows, kind, stack in phi._stacks:
        for i, a in enumerate(rows):
            alone_kind, alone = stack_of([docs[a]])
            assert kind is alone_kind
            assert [(p[i : i + 1].shape, p[i : i + 1].tobytes()) for p in stack] == [(p.shape, p.tobytes()) for p in alone]
    y = np.array(data.draw(st.lists(COORD, min_size=dim, max_size=dim)))
    for y in (y, np.eye(dim)[0], np.eye(dim)[-1]):
        projected = phi.project(range(n), np.broadcast_to(y, (n, dim)))
        distances = phi.distances(np.arange(n), np.broadcast_to(y, (n, dim)))
        for a, body in enumerate(docs):
            assert _bits(project_one(body, y)) == _bits(projected[a])
            assert _bits(distance_one(body, y)) == _bits(phi.distances([a], y[None])) == _bits(distances[a])


def _counted_kernels(monkeypatch) -> collections.Counter:
    """Counters on each kind's own ``project`` and ``distance_to``, patched
    as the benchmark's tracer patches them: a classmethod stays one and
    counts under the kind it runs for, any other kernel is replaced by a
    plain function."""
    calls = collections.Counter()

    def counted(name, fn):
        def kernel(*args):
            calls[name] += 1
            return fn(*args)
        return kernel

    def counted_for_kind(attr, fn):
        def kernel(cls, *args):
            calls[f"{cls.__name__}.{attr}"] += 1
            return fn(cls, *args)
        return classmethod(kernel)

    for kind in (ls.ConvexBody, ls.AffineFlat, ls.Ball, ls.Polytope):
        for attr in ("project", "distance_to"):
            raw = kind.__dict__.get(attr)
            if isinstance(raw, classmethod):
                monkeypatch.setattr(kind, attr, counted_for_kind(attr, raw.__func__))
            elif raw is not None:
                monkeypatch.setattr(kind, attr, counted(f"{kind.__name__}.{attr}", raw))
    return calls


@pytest.mark.parametrize("instance, kind", [("balls", "Ball"), ("polytopes", "Polytope"), ("flats", "AffineFlat")])
def test_the_verbs_run_each_kinds_kernels(tmp_path, monkeypatch, capsys, instance, kind):
    """``select`` projects and measures, and ``verify`` measures, through
    the kernels of the kind of their bodies, the names the tracer wraps (a
    polytope measures through the inherited ``ConvexBody.distance_to``,
    which projects)."""
    calls = _counted_kernels(monkeypatch)
    if instance == "flats":
        corr = tmp_path / "correspondence.json"
        corr.write_text(json.dumps(segment_document(9)))
        it = tmp_path / "iteration.json"
        it.write_text(json.dumps({"alpha": 2.0**-0.5, "beta": 1.0, "rounds": 3}))
        solve = ["select", "--correspondence", str(corr), "--iteration", str(it), "--out", str(tmp_path / "select.json")]
        read = workloads._verify_read_path
    else:
        inst = workloads.build(instance, 0, tmp_path, "tiny")
        solve, read = inst.solve_argv, lambda _, report: inst.read_argv(report)
    assert main(solve) == 0
    assert calls[f"{kind}.project"] and calls[f"{kind}.distance_to"]
    calls.clear()
    assert main(read(tmp_path, json.loads((tmp_path / "select.json").read_text()))) == 0
    assert calls[f"{kind}.distance_to"]
    assert sum(calls.values()) == calls[f"{kind}.project"] + calls[f"{kind}.distance_to"]


def test_project_groups_by_kind_and_shape():
    space = ls.SampledMetricSpace("l2", coords=[[float(i)] for i in range(5)])
    square = polytope_doc([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 0.0, 1.0, 0.0], [0.5, 0.5])
    bodies = [
        flat_doc([0.0, 0.0], [[1.0, 0.0]]),
        square,
        flat_doc([1.0, 1.0]),
        polytope_doc([[1.0, 1.0]], [0.0], [0.0, 0.0]),
        flat_doc([0.0, 3.0], [[0.0, 1.0]]),
    ]
    phi = correspondence(space, bodies)
    assert [rows.tolist() for rows, _, _ in phi._stacks] == [[0, 4], [1], [2], [3]]
    np.testing.assert_allclose(
        phi.project(range(5), np.full((5, 2), 2.0)), [[2.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 2.0]], atol=1e-9
    )
    with pytest.raises(SchemaError, match=r"expected 5 queries of dimension 2, got shape \(5, 3\)"):
        phi.project(range(5), np.full((5, 3), 2.0))
