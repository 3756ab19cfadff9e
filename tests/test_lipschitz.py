import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.errors import PreconditionError, SchemaError

from conftest import (
    cantor_function,
    cantor_plateaus,
    extend_one,
    global_lipschitz_upgrade_check,
    grid_space,
    line_space,
    ray_estimates,
    sphere_table,
    worst_record,
)
from lipselect.metric import BLOCK_ROWS


def quadratic_table(space):
    return space.coords**2


def reference_profile(values, space, b, radii, closed=True):
    """The per-radius loop: one ball mask per radius, with the base masked
    out for the informative flag; the estimate is the max over the three
    smallest informative radii."""
    table = ls.as_table(values, space)
    dist_row = space.rows([b])[0]
    deviations = np.linalg.norm(table - table[b], axis=1)
    rows, informative = [], []
    for r in radii:
        mask = dist_row <= r if closed else dist_row < r
        rows.append((r, float(deviations[mask].max()) / r))
        mask_other = mask.copy()
        mask_other[b] = False
        informative.append(bool(mask_other.any()))
    smallest = [row for row, ok in zip(rows, informative) if ok][-3:]
    return tuple(rows), tuple(informative), max(ratio for _, ratio in smallest)


def profile_row(profiles, p):
    """Row ``p`` of the profile columns in the form of ``reference_profile``."""
    rows = tuple(zip(profiles.radii.tolist(), profiles.ratios[p].tolist()))
    return rows, tuple(profiles.informative[p].tolist()), float(profiles.estimates[p])


def where_ball_ratios(dist, dev, radii, closed=True):
    """The one-array form of ``_ball_ratios``: every ball of every radius
    in one ``(..., R, N)`` ``np.where`` array."""
    inside = dist[..., None, :] <= radii[..., None] if closed else dist[..., None, :] < radii[..., None]
    return np.max(np.where(inside, dev[..., None, :], 0.0), axis=-1, initial=0.0) / radii, inside.any(axis=-1)


@pytest.mark.parametrize("closed", [True, False])
def test_ball_ratios_equal_the_where_form_bitwise(closed):
    """The plip block (radii along the last axis only), the ring and probe
    shapes of ``verify_homogeneous_plip`` (one row of radii per ray, ``inf``
    where there is no ball) and the one row of the global upgrade check;
    distances sit on the radii, and some deviations overflow to ``inf``
    inside and outside the balls."""
    rng = np.random.default_rng(23)
    levels = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
    cases = [
        (rng.choice(levels, size=(64, 40)), levels[::-1][:4]),
        (rng.choice(levels, size=(7, 5)), np.sort(rng.choice(np.append(levels, np.inf), size=(7, 3)), axis=1)),
        (rng.choice(levels, size=(9, 12)), np.where(rng.uniform(size=(9, 4)) < 0.3, np.inf, rng.choice(levels, size=(9, 4)))),
        (rng.choice(levels, size=30), levels[::-1]),
    ]
    with np.errstate(invalid="ignore"):
        for dist, radii in cases:
            dev = rng.uniform(size=dist.shape) * 10.0 ** rng.integers(-3, 3, size=dist.shape)
            dev[rng.uniform(size=dist.shape) < 0.1] = np.inf
            ratios, informative = ls.lipschitz._ball_ratios(dist, dev, radii, closed)
            ref_ratios, ref_informative = where_ball_ratios(dist, dev, radii, closed)
            assert ratios.tobytes() == ref_ratios.tobytes() and not np.isfinite(ratios).all()
            assert informative.tobytes() == ref_informative.tobytes()


class TestPlipProfile:
    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_rows_equal_the_per_radius_loop(self, closed, metric):
        rng = np.random.default_rng(9)
        space = ls.SampledMetricSpace(metric, coords=rng.uniform(size=(60, 2)))
        values = rng.normal(size=(60, 3))
        for b in (0, 17, 59):
            others = np.sort(np.delete(space.rows([b])[0], b))
            # one radius exactly on a sampled distance, the last below the
            # nearest neighbor: that ball holds only the base
            radii = [float(others[40]) * 1.5, float(others[12]), float(others[3]) * 0.9, float(others[0]) / 2]
            profile = ls.plip_profile(values, space, [b], radii, closed=closed)
            assert repr(profile_row(profile, 0)) == repr(reference_profile(values, space, b, radii, closed))
            assert not profile.informative[0, -1]

    @seed(41)
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["l1", "l2", "linf"]),
        st.booleans(),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_columns_equal_the_per_radius_loop(self, metric, closed, n, dim, data):
        """Every row of the columns, bitwise, over more than one block of
        base points with repeats; a schedule without its largest radius
        raises on the first base point, in order, that it cannot resolve."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        space = ls.SampledMetricSpace(metric, coords=rng.uniform(size=(n, dim)))
        values = rng.normal(size=(n, data.draw(st.integers(1, 4))))
        point = st.integers(0, n - 1)
        points = data.draw(st.lists(point, min_size=BLOCK_ROWS + 1, max_size=3 * BLOCK_ROWS))
        sampled = np.unique(space.distance_matrix())[1:].tolist()
        # past every distance, so every ball holds another point; then
        # sampled distances (ball edges), halves of them, and one radius
        # below the nearest pair, whose balls hold only their base
        picks = data.draw(st.lists(st.sampled_from(sampled), min_size=1, max_size=3))
        radii = sorted({1.5 * sampled[-1], *picks, *(r / 2 for r in picks), sampled[0] / 2}, reverse=True)
        profiles = ls.plip_profile(values, space, points, radii, closed=closed)
        assert profiles.points.tolist() == points
        assert profiles.radii.tolist() == radii
        for p, b in enumerate(points):
            assert repr(profile_row(profiles, p)) == repr(reference_profile(values, space, b, radii, closed))

        tail = radii[1:]
        reach = [np.delete(space.rows([b])[0], b).min() for b in points]
        unresolved = [b for b, d in zip(points, reach) if not (d <= tail[0] if closed else d < tail[0])]
        if unresolved:
            message = f"no ball around {unresolved[0]} in the radius schedule contains another point$"
            with pytest.raises(PreconditionError, match=message):
                ls.plip_profile(values, space, points, tail, closed=closed)
        else:
            ls.plip_profile(values, space, points, tail, closed=closed)

    @seed(43)
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.integers(2, BLOCK_ROWS + 30), st.integers(0, 2**32 - 1))
    def test_ratios_equal_the_norm_reference_below_8_value_columns(self, width, n, table_seed):
        """Value deviations come from the distance kernel's column fold,
        bitwise ``np.linalg.norm(..., axis=-1)`` below 8 columns: every
        ratio of every base point, over more than one block, is the
        reference's, for values spread over six orders of magnitude."""
        rng = np.random.default_rng(table_seed)
        space = ls.SampledMetricSpace("l2", coords=rng.uniform(size=(n, 2)))
        values = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-3, 4, size=(n, width))
        radii = [2.0, 0.5, 0.2, 0.05]
        profiles = ls.plip_profile(values, space, range(n), radii)
        for b in range(n):
            assert profiles.ratios[b].tolist() == [ratio for _, ratio in reference_profile(values, space, b, radii)[0]]

    def test_resolution_error_names_the_first_unresolved_point(self):
        # at radius 0.2 only points 2 and 3 are alone; 3 comes first, in
        # the second block
        space = line_space([0.0, 0.1, 5.0, 10.0])
        points = [0, 1] * 35 + [3, 1, 2]
        with pytest.raises(PreconditionError, match="no ball around 3 in the radius schedule contains another point$"):
            ls.plip_profile(quadratic_table(space), space, points, [0.4, 0.2])

    def test_no_points_and_unknown_points(self):
        space = grid_space(30)
        values = quadratic_table(space)
        profiles = ls.plip_profile(values, space, [], [0.4, 0.2, 0.1])
        assert profiles.ratios.shape == profiles.informative.shape == (0, 3)
        assert profiles.estimates.shape == (0,)
        with pytest.raises(SchemaError, match="unknown point id 30$"):
            ls.plip_profile(values, space, [0, 30], [0.4, 0.2])

    def test_square_at_zero(self):
        space = grid_space(1001)
        profile = ls.plip_profile(quadratic_table(space), space, [0], [0.1, 0.05, 0.025])
        assert profile.ratios[0].tolist() == pytest.approx([0.1, 0.05, 0.025], abs=1e-12)
        assert profile.estimates[0] == pytest.approx(0.1, abs=1e-12)

    def test_square_at_one(self):
        space = grid_space(1001)
        profile = ls.plip_profile(quadratic_table(space), space, [1000], [0.1, 0.05])
        # sup |1 - a^2| over [1 - r, 1] is r (2 - r)
        assert profile.ratios[0].tolist() == pytest.approx([1.9, 1.95], abs=1e-12)
        assert profile.estimates[0] == pytest.approx(1.95, abs=1e-12)

    def test_constant_map(self):
        space = grid_space(11)
        table = np.full((len(space), 1), 3.5)
        profile = ls.plip_profile(table, space, [5], [0.4, 0.2, 0.1])
        assert all(ratio == 0.0 for ratio in profile.ratios[0])
        assert profile.estimates[0] == 0.0

    def test_informative_rule_skips_singleton_balls(self):
        space = line_space([0, 1.0])
        table = np.array([[0.0], [5.0]])
        profile = ls.plip_profile(table, space, [0], [2.0, 1.0, 0.5, 0.25])
        assert profile.informative[0].tolist() == [True, True, False, False]
        assert profile.estimates[0] == pytest.approx(5.0, abs=1e-12)

    def test_resolution_error(self):
        space = line_space([0, 1.0])
        table = np.array([[0.0], [5.0]])
        with pytest.raises(PreconditionError, match="no ball around 0 in the radius schedule contains another point$"):
            ls.plip_profile(table, space, [0], [0.5, 0.25])

    def test_radii_must_decrease(self):
        space = grid_space(11)
        with pytest.raises(PreconditionError):
            ls.plip_profile(quadratic_table(space), space, [0], [0.1, 0.2])

    def test_ball_sup_monotone_in_radius(self):
        space = grid_space(101)
        rng = np.random.default_rng(0)
        table = np.array([rng.normal(size=2) for _ in range(len(space))])
        profile = ls.plip_profile(table, space, [50], [0.4, 0.2, 0.1, 0.05])
        sups = [r * ratio for r, ratio in zip(profile.radii, profile.ratios[0])]
        assert all(s1 >= s2 - 1e-15 for s1, s2 in zip(sups, sups[1:]))

    def test_scale_equivariance_exact_for_dyadic(self):
        space = grid_space(101)
        rng = np.random.default_rng(1)
        table = np.array([rng.normal(size=2) for _ in range(len(space))])
        base = ls.plip_profile(table, space, [30], [0.2, 0.1, 0.05])
        scaled_table = 4.0 * table
        scaled = ls.plip_profile(scaled_table, space, [30], [0.2, 0.1, 0.05])
        assert scaled.estimates[0] == 4.0 * base.estimates[0]
        for r1, r2 in zip(base.ratios[0], scaled.ratios[0]):
            assert r2 == 4.0 * r1


def open_closed_agree(values, space, b, radii, rel_tol=0.05):
    """Do the open-ball and closed-ball estimates at ``b`` agree within
    ``rel_tol`` scaled by their magnitude?  Single ratios may differ where
    a radius sits exactly on a sampled distance."""
    closed_est = float(ls.plip_profile(values, space, [b], radii, closed=True).estimates[0])
    open_est = float(ls.plip_profile(values, space, [b], radii, closed=False).estimates[0])
    return abs(closed_est - open_est) <= rel_tol * max(1.0, closed_est, open_est)


class TestOpenClosedConsistency:
    def test_square_agrees(self):
        space = grid_space(1001)
        assert open_closed_agree(quadratic_table(space), space, 0, [0.1, 0.05, 0.025])

    def test_constant_agrees(self):
        space = grid_space(101)
        table = np.ones((len(space), 1))
        assert open_closed_agree(table, space, 50, [0.2, 0.1, 0.05])

    def test_step_function_straddling_radius(self):
        # dyadic grid: the straddling distance 0.125 is exactly representable
        space = ls.SampledMetricSpace("l2", coords=[[i / 256.0] for i in range(257)])
        table = np.where(space.coords < 0.5, 0.0, 1.0)
        b = 96  # x = 0.375, step at exact distance 0.125
        radii = [0.125, 0.0625, 0.03125, 0.015625]
        closed = ls.plip_profile(table, space, [b], radii, closed=True)
        opened = ls.plip_profile(table, space, [b], radii, closed=False)
        # the straddling radius (the first) sees the jump only with a closed ball
        assert closed.ratios[0, 0] == pytest.approx(8.0, abs=1e-12)
        assert opened.ratios[0, 0] == 0.0
        # but the small-radius estimates agree
        assert open_closed_agree(table, space, b, radii)


class TestHomogeneousExtension:
    def _table(self):
        directions = np.array([[0.6, 0.8], [-0.6, 0.8], [0.0, -1.0]])
        return directions

    def test_identity_extension(self):
        directions = self._table()
        values, space = sphere_table(directions, directions.copy())
        out = extend_one(values, space, [3.0, 4.0])
        np.testing.assert_allclose(out, [3.0, 4.0], atol=1e-12)

    def test_constant_extension(self):
        directions = self._table()
        c = np.array([1.5, -2.0, 0.25])
        values, space = sphere_table(directions, np.tile(c, (3, 1)))
        out = extend_one(values, space, [0.0, 2.0])
        np.testing.assert_allclose(out, 2.0 * c, atol=1e-12)

    def test_origin(self):
        directions = self._table()
        values, space = sphere_table(directions, np.ones((3, 2)))
        np.testing.assert_array_equal(
            extend_one(values, space, [0.0, 0.0]), [0.0, 0.0]
        )

    def test_empty_table(self):
        with pytest.raises(PreconditionError):
            sphere_table(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_homogeneity_exact_dyadic_scales(self):
        rng = np.random.default_rng(4)
        directions = rng.normal(size=(8, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        values, space = sphere_table(directions, rng.normal(size=(8, 2)))
        z = rng.normal(size=3)
        base = extend_one(values, space, z)
        for lam in (0.5, 2.0, 4.0, 0.25):
            np.testing.assert_array_equal(
                extend_one(values, space, lam * z), lam * base
            )

    def test_homogeneity_exact_axis_direction_any_scale(self):
        directions = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        values, space = sphere_table(directions, np.arange(8.0).reshape(4, 2))
        z = np.array([1.0, 0.0])
        base = extend_one(values, space, z)
        for lam in (0.5, 2.0, 10.0, 3.7):
            np.testing.assert_array_equal(
                extend_one(values, space, lam * z), lam * base
            )

    def test_points_whose_squared_norms_overflow_stay_finite(self):
        # (1e300)^2 overflows; the norm of each ray point does not
        rng = np.random.default_rng(10)
        directions = rng.normal(size=(16, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        values, space = sphere_table(directions, rng.normal(size=(16, 2)))
        z = rng.normal(size=(20, 3))
        far = 1e300 * z
        with np.errstate(all="raise"):
            out = ls.homogeneous_extension(values, space, far)
        near = ls.homogeneous_extension(values, space, z)
        np.testing.assert_allclose(out, 1e300 * near, rtol=1e-14)
        # each value is the norm times the nearest direction's value
        k = ls.lipschitz.nearest_direction_index(space, z)
        norms = np.array([math.hypot(*row) for row in far])
        np.testing.assert_allclose(out, norms[:, None] * values[k], rtol=1e-15)

    def test_nearest_direction_tie_breaks_low_index(self):
        directions = np.array([[1.0, 0.0], [-1.0, 0.0]])
        _, space = sphere_table(directions, np.array([[1.0], [2.0]]))
        # (0, 1) is equidistant from both samples
        assert ls.lipschitz.nearest_direction_index(space, np.array([[0.0, 1.0]])).tolist() == [0]


def extension_at(values, space, z):
    """One vector through the extension's defining formula."""
    nrm = float(np.linalg.norm(z))
    if nrm == 0.0:
        return np.zeros(values.shape[1])
    return nrm * values[int(np.argmin(np.linalg.norm(space.coords - z / nrm, axis=1)))]


def nearest_one(space, z) -> int:
    """The nearest sampled direction of the one vector ``z``, a batch of one."""
    return int(ls.lipschitz.nearest_direction_index(space, np.asarray(z, dtype=float)[None])[0])


class TestBatchedExtension:
    def _tables(self):
        rng = np.random.default_rng(6)
        # octahedron: (1, 1, 0) / sqrt(2) is equidistant from e1 and e2
        directions = np.vstack([np.eye(3), -np.eye(3)])
        yield sphere_table(directions, rng.normal(size=(6, 4))), [0.5**0.5, 0.5**0.5, 0.0]
        yield sphere_table(np.array([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8]]), rng.normal(size=(3, 2))), [0.0, -1.0]

    def test_batch_equals_row_by_row(self):
        rng = np.random.default_rng(7)
        for (values, space), tie in self._tables():
            m = space.coords.shape[1]
            z = np.vstack([rng.normal(size=(20, m)) * 10.0 ** rng.uniform(-3, 3, size=(20, 1)), np.zeros(m), tie])
            out = ls.homogeneous_extension(values, space, z)
            assert out.tobytes() == np.array([extension_at(values, space, row) for row in z]).tobytes()
            rows = np.array([extend_one(values, space, row) for row in z])
            assert out.tobytes() == rows.tobytes()
            k = ls.lipschitz.nearest_direction_index(space, z)
            assert k.tolist() == [nearest_one(space, row) for row in z]
            assert k[-1] == 0  # the tie resolves to the first index
            assert np.all(out[-2] == 0.0) and not np.signbit(out[-2]).any()

    def test_several_kernel_blocks_equal_row_by_row(self):
        rng = np.random.default_rng(8)
        directions = rng.normal(size=(40, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        values, space = sphere_table(directions, rng.normal(size=(40, 2)))
        z = rng.normal(size=(150, 3)) * 10.0 ** rng.uniform(-3, 3, size=(150, 1))
        z[::37] = 0.0
        z[5::11] = 2.5 * directions[:14]
        k = ls.lipschitz.nearest_direction_index(space, z)
        brute = [int(np.argmin(np.linalg.norm(directions - row, axis=1))) for row in z]
        assert k.tolist() == brute == [nearest_one(space, row) for row in z]
        out = ls.homogeneous_extension(values, space, z)
        assert out.tobytes() == np.array([extension_at(values, space, row) for row in z]).tobytes()
        assert out.tobytes() == np.array([extend_one(values, space, row) for row in z]).tobytes()

    def test_repeated_rows_are_searched_once(self, monkeypatch):
        rng = np.random.default_rng(9)
        directions = rng.normal(size=(30, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        values, space = sphere_table(directions, rng.normal(size=(30, 2)))
        distinct = np.vstack([rng.normal(size=(5, 3)), [0.0, 0.6, 0.8], [-0.0, 0.6, 0.8], np.eye(3)[1]])
        z = distinct[rng.integers(len(distinct), size=80)]
        z[:len(distinct)] = distinct  # every row at least once, the -0.0 twin apart from its 0.0
        searched = []
        kernel = space.distances_from
        monkeypatch.setattr(space, "distances_from", lambda x, out: searched.append(len(x)) or kernel(x, out))
        k = ls.lipschitz.nearest_direction_index(space, z)
        assert sum(searched) == len(distinct)
        ones = [nearest_one(space, row) for row in z]
        assert k.tobytes() == np.array(ones, dtype=np.intp).tobytes()
        out = ls.homogeneous_extension(values, space, z)
        assert out.tobytes() == np.array([extend_one(values, space, row) for row in z]).tobytes()
        assert ls.lipschitz.nearest_direction_index(space, z[:0]).shape == (0,)


def reference_ray_rows(values, space, beta, rays, tol=1e-9):
    """The neighbour-ray construction point by point: the sphere side is
    ``plip_profile`` over the rings; each probe ``s' d_j`` is evaluated
    through ``homogeneous_extension`` and put in its ring, and each ring's
    largest probe distance gives one closed ball, scanned probe by probe."""
    d = space.coords
    gap = min(float(np.linalg.norm(d[i + 1 :] - d[i], axis=1).min()) for i in range(len(d) - 1))
    rho = min(0.125, gap / 4.0)
    sphere_space = ls.SampledMetricSpace("l2", coords=d)
    bound = 2.0 * beta + float(np.linalg.norm(values, axis=1).max()) + tol
    rows = []
    for k, scales in rays:
        dist_row = sphere_space.rows([k])[0]
        rings = sorted({float(r) for r in np.sort(dist_row[dist_row > 0])[:3]})
        sphere_est = float(ls.plip_profile(values, sphere_space, [k], rings[::-1]).estimates[0])
        for scale in scales:
            z = scale * d[k]
            tau_z = extend_one(values, space, z)
            probes = []  # (ring, distance, deviation)
            for j in range(len(d)):
                if j != k and float(dist_row[j]) not in rings:
                    continue
                ring = 0 if j == k else rings.index(float(dist_row[j])) + 1
                for s in (scale * (1.0 - rho), scale, scale * (1.0 + rho)):
                    if j == k and s == scale:
                        continue
                    p = s * d[j]
                    dev = float(np.linalg.norm(extend_one(values, space, p) - tau_z))
                    probes.append((ring, float(np.linalg.norm(p - z)), dev))
            radii = {max(dist for ring, dist, _ in probes if ring == i) for i in range(len(rings) + 1)}
            ratios = [max([dev for _, dist, dev in probes if dist <= r], default=0.0) / r for r in radii if r > 0]
            ext_est = max(ratios)
            rows.append((k, scale, sphere_est, ext_est, bound, sphere_est <= beta + tol and ext_est <= bound))
    return rows


def loop_ray_rows(values, space, beta, rays, tol=1e-9):
    """The per-ray loop that the column pass replaced, one ray and one scale
    at a time, with the ratio kernel written out per radius, as
    ``(direction, scale, sphere estimate, extension estimate, passed)``
    rows: the column pass must match it bitwise."""
    sup = float(np.linalg.norm(values, axis=1).max())
    bound = 2.0 * beta + sup + tol
    directions = space.coords
    gap = float(space.nearest_distances().min())
    rho = min(0.125, gap / 4.0)
    factors = np.array([1.0 - rho, 1.0, 1.0 + rho])[:, None, None]
    rows = []
    for k, scales in rays:
        row = space.rows([k])[0]
        rings = sorted({float(r) for r in np.sort(row[row > 0])[:3]})
        near = np.flatnonzero((row > 0) & (row <= max(rings, default=0.0)))
        sphere_dev = np.linalg.norm(values[near] - values[k], axis=1)
        sphere_est = max(
            (float(np.max(sphere_dev[row[near] <= r], initial=0.0)) / r for r in rings[::-1]), default=0.0
        )
        cols = [k, *near.tolist()]
        masks = [row[cols] == r for r in (0.0, *rings)]
        for scale in scales:
            steps = scale * factors
            offsets = steps * directions[cols] - scale * directions[k]
            jumps = steps * values[cols] - scale * values[k]
            dist = np.sqrt(np.vecdot(offsets, offsets)).ravel()
            dev = np.sqrt(np.vecdot(jumps, jumps)).ravel()
            radii = sorted({float(dist.reshape(3, -1)[:, mask].max()) for mask in masks} - {0.0}, reverse=True)
            ext_est = max(float(np.max(dev[dist <= r], initial=0.0)) / r for r in radii)
            rows.append((k, scale, sphere_est, ext_est, sphere_est <= beta + tol and ext_est <= bound))
    return rows


@seed(31)
@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["line", "grid8", "circle", "sphere3"]),
    st.integers(1, 4),
    st.floats(min_value=0.0, max_value=3.0),
    st.lists(st.lists(st.floats(min_value=1e-3, max_value=1e3), max_size=4), min_size=1, max_size=6),
)
def test_column_pass_equals_the_ray_loop(table_seed, case, width, beta, scale_lists):
    """m = 1 to 3, the tied rings of the 8-point circle, and scale lists of
    different lengths per ray (some empty): the record is bitwise the one
    reduced from the per-ray loop's rows, and no scale at all is an
    error."""
    rng = np.random.default_rng(table_seed)
    if case == "line":
        directions = np.array([[-1.0], [1.0]])
    elif case == "grid8":
        directions = ls.sphere_sample(2, 8).coords
    else:
        directions = rng.normal(size=(int(rng.integers(3, 30)), 2 if case == "circle" else 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
    values = rng.normal(size=(len(directions), width)) * 10.0 ** rng.uniform(-2, 2, size=(len(directions), 1))
    _, space = sphere_table(directions, values)
    rays = [(int(rng.integers(len(directions))), scales) for scales in scale_lists]
    rows = loop_ray_rows(values, space, beta, rays)
    if not rows:
        with pytest.raises(PreconditionError, match="the trial set is empty: no ray scale to check$"):
            ls.verify_homogeneous_plip(values, space, beta, rays)
        return
    reference = {
        "passed": all(row[4] for row in rows),
        "bound": 2.0 * beta + float(np.linalg.norm(values, axis=1).max()) + 1e-9,
        **worst_record("worst_estimate", rows, 3),
    }
    assert repr(ls.verify_homogeneous_plip(values, space, beta, rays)) == repr(reference)


class TestVerifyHomogeneousPlip:
    @pytest.mark.parametrize("case", ["grid8", "random3"])
    def test_rows_equal_the_point_by_point_reference(self, case):
        """The table lookups agree with the extension within a few ulps
        (scaled by the probe distance), the sphere side bitwise."""
        rng = np.random.default_rng(8)
        if case == "grid8":
            # symmetric neighbours: each ring holds two directions
            directions = ls.sphere_sample(2, 8).coords
            values = np.stack([directions[:, 1], directions[:, 0] ** 2, np.abs(directions[:, 0])], axis=1)
        else:
            directions = ls.sphere_sample(3, 40, seed=2).coords
            values = rng.normal(size=(40, 4))
        _, space = sphere_table(directions, values)
        rays = [(k, (0.5, 1.0, 3.7, 10.0)) for k in range(0, len(directions), 3)]
        report = ls.verify_homogeneous_plip(values, space, 1.5, rays)
        reference = reference_ray_rows(values, space, 1.5, rays)
        assert report["passed"] is all(row[-1] for row in reference)
        assert report["bound"] == reference[0][4]
        # each pair alone: its record against the reference row
        pairs = [(k, (s,)) for k, scales in rays for s in scales]
        assert len(pairs) == len(reference)
        for (k, (s,)), (ref_k, ref_scale, _, ref_ext, bound, passed) in zip(pairs, reference):
            record = ls.verify_homogeneous_plip(values, space, 1.5, [(k, (s,))])
            assert (record["witness"], record["bound"]) == ({"direction": ref_k, "scale": ref_scale}, bound)
            assert record["passed"] is passed
            assert record["worst_estimate"] == pytest.approx(ref_ext, rel=1e-15)
        expected = worst_record("worst_estimate", reference, 3)
        assert report["witness"] == expected["witness"]
        assert report["worst_estimate"] == pytest.approx(expected["worst_estimate"], rel=1e-15)

    def _grid_table(self, values_fn, count=16):
        angles = 2.0 * np.pi * np.arange(count) / count
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        values = np.stack([values_fn(u) for u in directions])
        return sphere_table(directions, values)

    def test_constant_is_tight(self):
        c = np.array([0.7, -0.4, 1.1])
        values, space = self._grid_table(lambda u: c)
        rays = [(0, (0.5, 2.0, 10.0)), (5, (1.0, 3.0))]
        report = ls.verify_homogeneous_plip(values, space, beta=0.0, rays=rays)
        assert report["passed"] is True
        norm_c = float(np.linalg.norm(c))
        assert float(np.linalg.norm(values, axis=1).max()) == pytest.approx(norm_c, abs=1e-12)
        assert ray_estimates(values, space, 0.0, rays) == pytest.approx(np.full(5, norm_c), abs=1e-9)
        assert report["bound"] == pytest.approx(norm_c + 1e-9, abs=1e-12)

    def test_identity_within_slack_bound(self):
        values, space = self._grid_table(lambda u: u)
        report = ls.verify_homogeneous_plip(values, space, beta=1.0, rays=[(0, (1.0, 2.0))])
        assert report["passed"] is True
        assert ray_estimates(values, space, 1.0, [(0, (1.0, 2.0))]) == pytest.approx(np.ones(2), abs=1e-9)
        assert report["bound"] == pytest.approx(3.0 + 1e-9, abs=1e-12)

    def test_zero_map(self):
        values, space = self._grid_table(lambda u: np.zeros(2))
        report = ls.verify_homogeneous_plip(values, space, beta=0.0, rays=[(3, (1.0,))])
        assert report["passed"] is True
        assert report["worst_estimate"] == 0.0
        # with no slack the sphere side passes only at estimate 0
        assert ls.verify_homogeneous_plip(values, space, beta=0.0, rays=[(3, (1.0,))], tol=0.0)["passed"] is True

    def test_sphere_precondition_failure_reported(self):
        # a jumpy table is not pointwise 0-Lipschitz on the sphere sample
        values, space = self._grid_table(lambda u: np.array([np.sign(u[0])]))
        report = ls.verify_homogeneous_plip(values, space, beta=0.0, rays=[(4, (1.0,))])
        assert report["passed"] is False

    def test_ray_point_whose_probes_round_onto_it(self):
        # at the smallest subnormal scale every probe distance underflows to 0
        values, space = self._grid_table(lambda u: u)
        with pytest.raises(PreconditionError, match=r"every probe of ray point 5e-324 \* direction 3 rounds onto it$"):
            ls.verify_homogeneous_plip(values, space, beta=1.0, rays=[(0, (1.0,)), (3, (2.0, 5e-324))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_scale_is_rejected(self, bad):
        values, space = self._grid_table(lambda u: u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="ray scales must be positive and finite$"):
                ls.verify_homogeneous_plip(values, space, beta=1.0, rays=[(0, (1.0, 2.0)), (3, (0.5, bad))])


@seed(29)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(2, 30),
    st.integers(1, 4),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=3),
)
def test_ray_estimate_obeys_the_derivation(table_seed, m, n, width, scales):
    """Every ratio is at most ``sup + 2 sphere_estimate``: the derivation
    of eta, which makes a table that passes the sphere side pass the rays.
    Each ray is checked alone at ``beta`` equal to its sphere estimate."""
    rng = np.random.default_rng(table_seed)
    if m == 1:
        directions = np.array([[-1.0], [1.0]])
    else:
        directions = rng.normal(size=(n, m))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
    values = rng.normal(size=(len(directions), width)) * 10.0 ** rng.uniform(-2, 2, size=(len(directions), 1))
    _, space = sphere_table(directions, values)
    sup = float(np.linalg.norm(values, axis=1).max())
    for k in range(len(directions)):
        # beta at the ray's own sphere estimate, from the per-ray loop: the
        # ray passes when no ratio exceeds sup + 2 beta
        sphere_est = loop_ray_rows(values, space, 0.0, [(k, scales)])[0][2]
        slack = (sup + 2.0 * sphere_est) * 1e-12
        assert ls.verify_homogeneous_plip(values, space, sphere_est, [(k, scales)], tol=slack)["passed"] is True


class TestCantorFunction:
    def test_endpoints(self):
        assert cantor_function(0.0) == 0.0
        assert cantor_function(1.0) == 1.0

    def test_third_maps_to_half(self):
        assert cantor_function(1.0 / 3.0, depth=2) == 0.5
        assert cantor_function(1.0 / 3.0, depth=40) == 0.5

    def test_plateau_value_at_half(self):
        assert cantor_function(0.5, depth=2) == 0.5

    def test_power_of_three(self):
        assert cantor_function(3.0**-6) == pytest.approx(2.0**-6, abs=2.0**-40)

    def test_plateau_constancy(self):
        for x in np.linspace(0.35, 0.64, 13):
            assert cantor_function(float(x)) == 0.5

    def test_monotone(self):
        xs = np.arange(0, 244) / 243.0
        vals = [cantor_function(float(x)) for x in xs]
        assert all(v1 <= v2 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cantor_function(-0.1)
        with pytest.raises(ValueError):
            cantor_function(1.1)
        with pytest.raises(ValueError):
            cantor_function(0.5, depth=0)
        with pytest.raises(ValueError):
            cantor_function(0.5, depth=41)


class TestCantorPlateaus:
    def test_counts(self):
        plats = cantor_plateaus(6)
        assert len(plats) == 63
        assert sum(1 for k, _, _ in plats if k == 4) == 8

    def test_first_plateau(self):
        k, left, right = cantor_plateaus(1)[0]
        assert (k, left, right) == (1, pytest.approx(1 / 3), pytest.approx(2 / 3))

    def test_widths_and_constancy(self):
        for k, left, right in cantor_plateaus(5):
            assert right - left == pytest.approx(3.0**-k, rel=1e-12)
            mid = 0.5 * (left + right)
            assert cantor_function(mid) == cantor_function(mid + (right - left) / 8)


def reference_hypothesis(values, space, alpha, r0, tol=1e-9):
    """The pointwise half point by point: a sort, a running maximum and a
    binary search per base point, then one ratio per radius."""
    table = ls.as_table(values, space)
    mat = space.distance_matrix()
    gaps = np.diff(np.sort(space.coords[:, 0]))
    radii_set = {float(g) for g in gaps}
    r = float(r0)
    while r >= float(gaps.min()):
        radii_set.add(r)
        r /= 2.0
    radii = sorted(radii_set, reverse=True)
    held, worst, excess = True, (0, radii[0], 0.0), -np.inf
    for i in range(len(space)):
        dev = np.linalg.norm(table - table[i], axis=1)
        order = np.argsort(mat[i])
        sorted_d = mat[i][order]
        cummax = np.maximum.accumulate(dev[order])
        for r in radii:
            idx = int(np.searchsorted(sorted_d, r, side="right")) - 1
            ratio = float(cummax[idx]) / r
            if ratio - alpha > excess:
                excess = ratio - alpha
                worst = (i, r, ratio)
            if ratio > alpha + tol + 1e-12:
                held = False
    return held, worst


def cantor_grid(n=3**6):
    space = ls.SampledMetricSpace("l2", coords=[[i / n] for i in range(n + 1)])
    return space, np.array([[cantor_function(i / n)] for i in range(n + 1)])


class TestGlobalLipschitzUpgrade:
    @pytest.mark.parametrize("grid", ["linear", "constant", "cantor", "irregular"])
    def test_hypothesis_half_equals_the_point_by_point_search(self, grid):
        if grid == "linear":
            space = grid_space(101)
            values, alpha, r0 = space.coords.copy(), 1.0, 0.05
        elif grid == "constant":
            space = grid_space(51)
            values, alpha, r0 = np.full((51, 1), 2.0), 0.0, 0.1
        elif grid == "cantor":
            (space, values), alpha, r0 = cantor_grid(), 10.0, 0.01
        else:
            rng = np.random.default_rng(10)
            space = ls.SampledMetricSpace("l2", coords=np.sort(rng.uniform(size=(80, 1)), axis=0))
            values, alpha, r0 = rng.normal(size=(80, 2)), 3.0, 0.2
        report = global_lipschitz_upgrade_check(values, space, alpha=alpha, r0=r0)
        held, worst = reference_hypothesis(values, space, alpha, r0)
        assert report.hypothesis_held is held
        assert repr(report.hypothesis_worst) == repr(worst)

    def test_linear_passes(self):
        space = grid_space(101)
        table = space.coords.copy()
        report = global_lipschitz_upgrade_check(table, space, alpha=1.0, r0=0.05)
        assert report.passed
        assert report.hypothesis_held

    def test_constant_passes_at_zero(self):
        space = grid_space(51)
        table = np.full((len(space), 1), 2.0)
        report = global_lipschitz_upgrade_check(table, space, alpha=0.0, r0=0.1)
        assert report.passed
        assert report.hypothesis_held

    def test_hypothesis_implies_conclusion(self):
        # 0.8-Lipschitz sawtooth checked at alpha = 1
        space = grid_space(201)
        table = 0.8 * np.abs(space.coords - 0.5)
        report = global_lipschitz_upgrade_check(table, space, alpha=1.0, r0=0.05)
        assert report.hypothesis_held
        assert report.passed

    def test_cantor_fails_at_ten(self):
        space, table = cantor_grid()
        report = global_lipschitz_upgrade_check(table, space, alpha=10.0, r0=0.01)
        assert not report.passed
        assert not report.hypothesis_held
        # worst pair is an adjacent rise: ratio (3/2)^6 over scale 3^-6
        assert report.worst_ratio == pytest.approx(1.5**6, rel=1e-9)
        x, y = report.worst_pair
        assert abs(space.coords[x, 0] - space.coords[y, 0]) == pytest.approx(
            3.0**-6, rel=1e-12
        )

    def test_spacing_precondition(self):
        space = grid_space(11)
        table = np.zeros((len(space), 1))
        with pytest.raises(PreconditionError):
            global_lipschitz_upgrade_check(table, space, alpha=1.0, r0=0.05)


class TestDefaultRadii:
    def test_anchored_at_fill_distance(self):
        space = grid_space(11)  # fill distance 0.1
        radii = ls.default_radii(space)
        assert radii[-1] == pytest.approx(0.1, abs=1e-15)
        assert all(r1 == 2.0 * r2 for r1, r2 in zip(radii, radii[1:]))

    def test_four_thousand_points_keep_no_rows(self):
        coords = np.random.default_rng(5).uniform(size=(4_000, 2))
        space = ls.SampledMetricSpace("l2", coords=coords)
        tracemalloc.start()
        try:
            radii = ls.default_radii(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert radii[-1] == float(space.nearest_distances().max())
        # the 4,000 rows alone would take 128 MB; a kernel block takes 2 MB
        assert peak < 16 * 2**20


def test_plip_profile_on_four_thousand_points_keeps_no_rows():
    coords = np.random.default_rng(5).uniform(size=(4_000, 2))
    space = ls.SampledMetricSpace("l2", coords=coords)
    values = np.sin(7.0 * coords[:, :1])
    tracemalloc.start()
    try:
        profiles = ls.plip_profile(values, space, range(len(space)), [0.08, 0.04, 0.02])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not space._rows and profiles.ratios.shape == (4_000, 3)
    # a kernel block takes 2 MB, the 4,000 rows 128 MB
    assert peak < 4 * BLOCK_ROWS * len(space) * 8


@seed(23)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3**8))
def test_cantor_depth_truncation_error(k):
    x = k / 3.0**8
    coarse = cantor_function(x, depth=12)
    fine = cantor_function(x, depth=40)
    assert abs(coarse - fine) <= 2.0**-12
