import itertools
import tracemalloc

import numpy as np
import pytest

import lipselect as ls
from lipselect.errors import PreconditionError, SchemaError

from conftest import extend_one, ray_estimates, sphere_table, worst_record


def sigma_min_oracle(matrix):
    """Independent route to the openness constant: eigenvalues of T T^T."""
    matrix = np.asarray(matrix, dtype=float)
    return float(np.sqrt(np.linalg.eigvalsh(matrix @ matrix.T)[0]))


class TestOpennessConstant:
    def test_identity(self):
        T = ls.LinearSurjection(np.eye(2))
        assert T.sigma_min == 1.0

    def test_sum_matrix(self):
        T = ls.LinearSurjection([[1.0, 1.0]])
        gamma = T.sigma_min
        assert gamma == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert gamma == pytest.approx(sigma_min_oracle(T.matrix), abs=1e-10)

    def test_diagonal(self):
        T = ls.LinearSurjection([[2.0, 0.0], [0.0, 0.5]])
        assert T.sigma_min == pytest.approx(0.5, abs=1e-12)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mat = rng.normal(size=(2, 4))
            T = ls.LinearSurjection(mat)
            assert T.sigma_min == pytest.approx(
                sigma_min_oracle(mat), abs=1e-10
            )


class TestSphereSample:
    def test_zero_sphere(self):
        space = ls.sphere_sample(1, 5)
        assert space.coords.tolist() == [[-1.0], [1.0]]

    def test_quarter_grid(self):
        space = ls.sphere_sample(2, 4)
        assert space.coords.tolist() == [
            [1.0, 0.0],
            [0.0, 1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
        ]

    def test_grid_is_unit(self):
        space = ls.sphere_sample(2, 64)
        norms = np.linalg.norm(space.coords, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-15)

    def test_seeded_draws_distinct_and_deterministic(self):
        a = ls.sphere_sample(3, 200, seed=7)
        b = ls.sphere_sample(3, 200, seed=7)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert len(a) == 200
        for i in range(200):
            row = np.linalg.norm(a.coords - a.coords[i], axis=1)
            row[i] = np.inf
            assert row.min() >= 1e-6

    def test_count_validation(self):
        with pytest.raises(PreconditionError, match="sphere sample needs at least two points"):
            ls.sphere_sample(2, 1)

    def test_draw_budget(self):
        # 100 directions of R^5 pairwise 0.9 apart are not found in 100 * 100 draws
        with pytest.raises(SchemaError, match="could not draw enough distinct sphere directions"):
            ls.sphere_sample(5, 100, seed=3, dedup_tol=0.9)

    @staticmethod
    def per_pair_rule(m, count, seed, dedup_tol):
        """The rule the batched dedup replaced, one draw at a time: the kept
        rows and the number of draws they took."""
        rng = np.random.default_rng(seed)
        rows, draws = [], 0
        while len(rows) < count:
            v = rng.normal(size=m)
            v, draws = v / np.linalg.norm(v), draws + 1
            if not any(np.linalg.norm(v - w) < dedup_tol for w in rows):
                rows.append(v)
        return np.stack(rows), draws

    @pytest.mark.parametrize(
        "m, count, dedup_tol", [(3, 64, 1e-6), (3, 40, 0.35), (4, 30, 0.6), (5, 30, 0.7)]
    )
    def test_dedup_matches_the_per_pair_rule(self, m, count, dedup_tol):
        """The batched dedup takes every decision of the rule it replaced: a
        draw is skipped iff some earlier direction lies within ``dedup_tol``
        (the coarse tolerances force skips, so the draws span several
        batches).  At a tolerance equal to the chord of the closest pair of
        the first ``count`` draws that pair is kept, since the rule is
        strict; one ulp above, the later draw of the pair is skipped."""
        for seed in range(4):
            rows, draws = self.per_pair_rule(m, count, seed, dedup_tol)
            got = ls.sphere_sample(m, count, seed=seed, dedup_tol=dedup_tol).coords
            assert got.tobytes() == rows.tobytes()
            assert draws > count or dedup_tol < 1e-3
            first, _ = self.per_pair_rule(m, count, seed, 0.0)
            chords = {(i, j): np.linalg.norm(first[j] - first[i]) for i, j in itertools.combinations(range(count), 2)}
            (i, j), chord = min(chords.items(), key=lambda item: item[1])
            at = ls.sphere_sample(m, count, seed=seed, dedup_tol=chord).coords
            assert at.tobytes() == first.tobytes()
            above = ls.sphere_sample(m, count, seed=seed, dedup_tol=np.nextafter(chord, np.inf)).coords
            rows, draws = self.per_pair_rule(m, count, seed, np.nextafter(chord, np.inf))
            assert above.tobytes() == rows.tobytes() and draws > count
            assert above[:j].tobytes() == first[:j].tobytes() and above[j].tobytes() != first[j].tobytes()


class TestBuildRightInverse:
    def test_identity_pipeline(self):
        T = ls.LinearSurjection(np.eye(2))
        seq = ls.build_right_inverse(T, beta=1.5, sphere_count=32, rounds=3)
        tau = seq.tables[-1]
        # singleton inverse images: the sphere table is the sample itself
        np.testing.assert_array_equal(tau, seq.space.coords)
        report = ls.verify_right_inverse(T, seq)
        assert report["eta"] == pytest.approx(2.0 * 1.5 + 1.0, abs=1e-12)
        assert report["pinv_gap"] == 0.0
        # on sampled rays the extension reproduces the identity
        y = 10.0 * seq.space.coords[[0, 5, 17]]
        np.testing.assert_allclose(ls.homogeneous_extension(tau, seq.space, y), y, atol=1e-12)

    def test_identity_on_pythagorean_direction(self):
        # a sphere table holding the direction (0.6, 0.8) reproduces y = (6, 8)
        T = ls.LinearSurjection(np.eye(2))
        directions = np.array([[0.6, 0.8], [-0.6, 0.8], [0.0, -1.0]])
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        values, space = sphere_table(directions, directions.copy())
        out = extend_one(values, space, np.array([6.0, 8.0]))
        np.testing.assert_allclose(out, [6.0, 8.0], atol=1e-12)
        np.testing.assert_allclose(T.matrix @ out, [6.0, 8.0], atol=1e-12)

    def test_sum_matrix_two_point_sphere(self):
        T = ls.LinearSurjection([[1.0, 1.0]])
        seq = ls.build_right_inverse(T, beta=1.0, sphere_count=2, rounds=4)
        tau = seq.tables[-1]
        # least-norm values survive the iteration untouched
        np.testing.assert_allclose(tau[0], [-0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(tau[1], [0.5, 0.5], atol=1e-15)
        report = ls.verify_right_inverse(T, seq)
        assert report["pinv_gap"] == 0.0
        np.testing.assert_allclose(
            extend_one(tau, seq.space, np.array([2.0])), [1.0, 1.0], atol=1e-15
        )
        assert report["eta"] == pytest.approx(2.0 + np.sqrt(0.5), abs=1e-12)

    def test_origin_maps_to_zero(self):
        T = ls.LinearSurjection(np.eye(2))
        seq = ls.build_right_inverse(T, beta=1.5, sphere_count=8, rounds=2)
        np.testing.assert_array_equal(
            extend_one(seq.tables[-1], seq.space, np.zeros(2)), np.zeros(2)
        )

    def test_beta_gate(self):
        T = ls.LinearSurjection([[1.0, 1.0]])
        with pytest.raises(PreconditionError, match=r"beta must exceed 1/gamma = 0\.7071\d*; got beta = 0\.5$"):
            ls.build_right_inverse(T, beta=0.5)

    def test_wide_matrix_round_properties(self):
        T = ls.LinearSurjection([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        seq = ls.build_right_inverse(T, beta=1.5, sphere_count=64, rounds=4)
        for record in seq.rounds:
            checks = ls.verify_round_properties(seq, record.n)
            assert all(c["passed"] for c in checks.values())

    def test_right_inverse_identity_on_sample(self):
        rng = np.random.default_rng(11)
        T = ls.LinearSurjection(rng.normal(size=(2, 4)))
        seq = ls.build_right_inverse(T, beta=1.0 / T.sigma_min + 0.5, sphere_count=48, rounds=3)
        for a in range(len(seq.space)):
            y = seq.space.coords[a]
            residual = np.linalg.norm(T.matrix @ seq.tables[-1][a] - y)
            assert residual <= 1e-8


def dense_set(seq):
    """The final separation members of the run ``seq``."""
    return ls.round_members(seq.entry, seq.config.rounds)


def trial_directions(monkeypatch, directions):
    """Make ``directions`` the verifier's dense set, its trial directions."""
    monkeypatch.setattr(ls.bartle_graves, "round_members", lambda entry, n: np.array(directions, dtype=np.intp))


def reference_right_inverse_rows(T, seq, scales):
    """Identity, homogeneity and off-sample rows one vector at a time, as
    tuples: tau per scaled point, a second tau per scale for homogeneity,
    and one off-sample midpoint per loop turn.  Identity and off-sample
    rows end in their pass flag."""
    tau, space = seq.tables[-1], seq.space
    identity, homogeneity, off = [], [], []
    for k in dense_set(seq):
        d = space.coords[k]
        base = extend_one(tau, space, d)
        exact_coords = bool(np.all(d == np.round(d)))
        for scale in (1.0, *scales):
            y = scale * d
            residual = float(np.linalg.norm(T.matrix @ extend_one(tau, space, y) - y))
            identity.append((int(k), float(scale), residual, residual <= 1e-8))
        for scale in scales:
            lhs, rhs = extend_one(tau, space, scale * d), scale * base
            homogeneity.append(
                (int(k), float(scale), bool(np.all(lhs == rhs)), float(np.max(np.abs(lhs - rhs))), exact_coords)
            )
    coords = space.coords
    for i in range(min(8, len(coords))):
        blend = 0.75 * coords[i] + 0.25 * coords[(i + 1) % len(coords)]
        nrm = float(np.linalg.norm(blend))
        if nrm < 1e-12:
            continue
        u = blend / nrm
        if np.any(np.all(coords == u, axis=1)):
            continue
        k = int(ls.lipschitz.nearest_direction_index(space, u[None])[0])
        value = extend_one(tau, space, u)
        u_norm = float(np.linalg.norm(u))
        semantic = float(np.linalg.norm(T.matrix @ value - u_norm * space.coords[k]))
        identity_residual = float(np.linalg.norm(T.matrix @ value - u))
        off.append((tuple(float(x) for x in u), k, semantic, identity_residual, semantic <= 1e-8))
    return identity, homogeneity, off


def reference_body(T, seq, scales):
    """The report body reduced from the reference rows: each check's first
    largest value in row order with its witness, the pass flags (the
    power-of-two rule read off the mantissa loop) and the off-sample
    records.  The ray and covering checks are left out."""
    identity, homogeneity, off = reference_right_inverse_rows(T, seq, scales)
    judged = [exact_coords or mantissa_power_of_two(s) for _, s, _, _, exact_coords in homogeneity]
    return {
        "checks": {
            "right_inverse_identity": {
                "passed": all(row[-1] for row in identity + off),
                **worst_record("worst_residual", identity, 2),
            },
            "positive_homogeneity": {
                "passed": all(row[2] or not j for row, j in zip(homogeneity, judged)),
                **worst_record("worst_diff", homogeneity, 3),
            },
        },
        "off_sample_identity_residuals": [
            {"direction": list(u), "nearest_index": k, "identity_residual": identity, "semantic_residual": semantic}
            for u, k, semantic, identity, _ in off
        ],
    }


def mantissa_power_of_two(scale):
    mantissa = float(scale)
    while mantissa != int(mantissa):
        mantissa *= 2.0
    return int(mantissa) & (int(mantissa) - 1) == 0


class TestVerifyRightInverse:
    @pytest.mark.parametrize(
        "shape, count, scales",
        [
            ((2, 3), 24, (0.5, 2.0, 10.0)),
            ((2, 3), 24, (1.0,)),
            # two antipodal directions: every off-sample midpoint lands on
            # a sampled direction and is skipped
            ((2, 3), 2, (0.5, 3.0)),
            ((3, 5), 40, (0.5, 2.0, 10.0)),
            ((3, 5), 40, (1.0,)),
            ((3, 5), 40, (0.1, 3.0, 1e3)),
        ],
    )
    def test_rows_equal_the_vector_at_a_time_reference(self, shape, count, scales, monkeypatch):
        rng = np.random.default_rng(11)
        T = ls.LinearSurjection(rng.normal(size=shape))
        seq = ls.build_right_inverse(T, beta=1.0 / T.sigma_min + 0.5, sphere_count=count, rounds=3)
        monkeypatch.setattr(ls.bartle_graves, "RAY_SCALES", scales)
        report = ls.verify_right_inverse(T, seq)
        reference = reference_body(T, seq, scales)
        for name in ("right_inverse_identity", "positive_homogeneity"):
            assert repr(report["checks"][name]) == repr(reference["checks"][name])
        assert repr(report["off_sample_identity_residuals"]) == repr(reference["off_sample_identity_residuals"])
        assert (not reference["off_sample_identity_residuals"]) == (count == 2)

    @pytest.mark.parametrize("scale", [2.0**-30, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0, 1e300])
    def test_power_of_two_rule_matches_the_mantissa_loop(self, scale, monkeypatch):
        """On the identity matrix, tau(z) = z is exactly homogeneous at every
        scale; one ulp on the scaled point ``scale * d`` fails the check
        unless it is not judged: a direction with inexact coordinates at a
        scale that is not a power of two."""
        T, seq = self._identity_run()
        coords = seq.space.coords
        exact = [k for k in dense_set(seq) if np.all(coords[k] == np.round(coords[k]))]
        inexact = [k for k in dense_set(seq) if k not in exact]
        assert exact and inexact
        monkeypatch.setattr(ls.bartle_graves, "RAY_SCALES", (scale,))

        def passed(k, nudge):
            batches = []

            def extension(values, space, z):
                value = np.array(z, dtype=float)
                if nudge and not batches:
                    # the first call evaluates the trial points d_k, scale * d_k
                    value[1, 0] = np.nextafter(value[1, 0], np.inf)
                batches.append(len(value))
                return value

            trial_directions(monkeypatch, [k])
            monkeypatch.setattr(ls.bartle_graves, "homogeneous_extension", extension)
            # at 1e300 the identity and ray checks overflow; only the
            # homogeneity record is read
            with np.errstate(over="ignore", invalid="ignore"):
                report = ls.verify_right_inverse(T, seq)
            assert batches[0] == 2
            return report["checks"]["positive_homogeneity"]["passed"]

        assert passed(inexact[0], nudge=True) is not mantissa_power_of_two(scale)
        assert passed(exact[0], nudge=True) is False
        assert passed(inexact[0], nudge=False) is True

    def _identity_run(self):
        T = ls.LinearSurjection(np.eye(2))
        return T, ls.build_right_inverse(T, beta=1.5, sphere_count=32, rounds=3)

    def test_identity_pipeline_report(self):
        report = ls.verify_right_inverse(*self._identity_run())
        assert report["passed"] is True
        assert all(check["passed"] is True for check in report["checks"].values())
        assert report["checks"]["right_inverse_identity"]["worst_residual"] <= 1e-12

    def test_homogeneity_exact_for_dyadic_everywhere(self, monkeypatch):
        monkeypatch.setattr(ls.bartle_graves, "RAY_SCALES", (0.5, 2.0))
        report = ls.verify_right_inverse(*self._identity_run())
        assert report["checks"]["positive_homogeneity"]["worst_diff"] == 0.0

    def test_homogeneity_exact_for_all_scales_on_exact_directions(self, monkeypatch):
        T, seq = self._identity_run()
        coords = seq.space.coords
        exact = [k for k in dense_set(seq) if np.all(coords[k] == np.round(coords[k]))]
        inexact = [k for k in dense_set(seq) if k not in exact]
        homogeneity = {}
        for name, ks in (("exact", exact), ("inexact", inexact)):
            trial_directions(monkeypatch, ks)
            homogeneity[name] = ls.verify_right_inverse(T, seq)["checks"]["positive_homogeneity"]
        assert homogeneity["exact"]["worst_diff"] == 0.0
        assert homogeneity["inexact"]["worst_diff"] <= 1e-13

    def test_off_sample_residuals_flagged(self):
        off = ls.verify_right_inverse(*self._identity_run())["off_sample_identity_residuals"]
        assert off
        assert all(row["semantic_residual"] <= 1e-8 for row in off)  # semantic residual is tiny
        # the raw identity residual reflects the direction snap
        assert all(row["identity_residual"] > 1e-6 for row in off)

    def test_fault_injection_identity_check(self, monkeypatch):
        T, seq = self._identity_run()
        k = int(dense_set(seq)[0])
        seq.tables[-1][k] *= 1.1
        monkeypatch.setattr(ls.bartle_graves, "RAY_SCALES", (1.0,))
        trial_directions(monkeypatch, [k])
        identity = ls.verify_right_inverse(T, seq)["checks"]["right_inverse_identity"]
        assert identity["passed"] is False
        assert identity["worst_residual"] == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize(
        "rays",
        [lambda k: [], lambda k: [(k, ())]],
        ids=["no_rays", "ray_without_scales"],
    )
    def test_an_empty_trial_set_is_a_parameter_error(self, rays):
        """A check over no trial point would pass having checked nothing."""
        T, seq = self._identity_run()
        with pytest.raises(PreconditionError, match="the trial set is empty: no ray scale to check"):
            ls.verify_homogeneous_plip(seq.tables[-1], seq.space, seq.config.beta, rays=rays(int(dense_set(seq)[0])))

    def test_dense_set_rays_plip_below_eta(self):
        rng = np.random.default_rng(2)
        T = ls.LinearSurjection(rng.normal(size=(2, 3)))
        seq = ls.build_right_inverse(T, beta=1.0 / T.sigma_min + 0.4, sphere_count=40, rounds=3)
        report = ls.verify_right_inverse(T, seq)
        plip = report["checks"]["ray_plip"]
        assert plip["passed"] is True
        assert plip["worst_estimate"] <= report["eta"] + 1e-6

    def test_fault_injection_along_the_kernel_fails_the_ray_check(self, monkeypatch):
        """Moving tau at the nearest neighbour of a dense direction along
        ``ker T`` keeps ``T tau(y) = y`` everywhere: only the ray rate can
        see it, and the neighbouring probes do (9.627 against 5.218).
        Probes inside the direction's own cell would read ``||tau(d_k)||``,
        0.685 here, and pass."""
        matrix = np.random.default_rng(3).normal(size=(3, 6))
        T = ls.LinearSurjection(matrix)
        seq = ls.build_right_inverse(T, beta=1.5 / T.sigma_min, sphere_count=64, rounds=3)
        k = int(dense_set(seq)[0])
        row = seq.space.rows([k])[0]
        row[k] = np.inf
        kernel = np.linalg.svd(matrix)[2][-1]
        seq.tables[-1][int(np.argmin(row))] += 3.0 * kernel
        trial_directions(monkeypatch, [k])
        checks = ls.verify_right_inverse(T, seq)["checks"]
        assert checks["right_inverse_identity"]["passed"] is True
        plip = checks["ray_plip"]
        assert plip["passed"] is False
        estimates = ray_estimates(seq.tables[-1], seq.space, seq.config.beta, [(k, (0.5, 2.0, 10.0))])
        assert np.all(np.array(estimates) > plip["bound"])
        assert estimates == pytest.approx(np.full(3, 9.627), abs=1e-3)
        assert plip["worst_estimate"] == max(estimates)
        assert plip["bound"] == pytest.approx(5.218, abs=1e-3)


def test_verifier_memory_stays_small():
    """The verifier of a 3x6 right inverse on 256 directions keeps its
    temporaries small: tau is evaluated in 64-row blocks and the ray pass
    holds one block of its rows."""
    T = ls.LinearSurjection(np.random.default_rng(0).normal(size=(3, 6)))
    seq = ls.build_right_inverse(T, beta=1.0 / T.sigma_min + 0.5, sphere_count=256, rounds=4)
    tracemalloc.start()
    try:
        report = ls.verify_right_inverse(T, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"] is True
    assert peak <= 1.5 * 2**20
