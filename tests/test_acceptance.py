"""Acceptance suite: one test per criterion, pinned tolerances, one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.

All instances are desk scale (spaces <= 2000 points, ambient dimension
<= 5, rounds <= 8) and seeded for reproducibility.
"""

import itertools
import json

import numpy as np
import pytest

import lipselect as ls
from lipselect.cli import main
from lipselect.formats import dumps_canonical

from conftest import (
    cantor_function,
    cantor_plateaus,
    distance,
    extend_one,
    global_lipschitz_upgrade_check,
    moving_ball_instance,
    project_one,
    ray_estimates,
    segment_instance,
    sphere_table,
)
from test_convex import face_enumeration_projection, random_bounded_polytope


def announce(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status}  {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


# -- shared runs --------------------------------------------------------------


@pytest.fixture(scope="module")
def segment_run():
    _, phi, f0, config = segment_instance(n_points=201, rounds=4)
    return ls.run_iteration(phi, f0, config)


@pytest.fixture(scope="module")
def ball_runs():
    runs = []
    for seed in range(5):
        phi, f0, config = moving_ball_instance(
            seed=seed, n_points=257, rounds=4, dim=2 + seed % 2
        )
        runs.append(ls.run_iteration(phi, f0, config))
    return runs


@pytest.fixture(scope="module")
def pipeline_runs():
    rng = np.random.default_rng(11)
    wide = rng.normal(size=(2, 4))
    cases = [
        ("identity2", np.eye(2), 64),
        ("sum", [[1.0, 1.0]], 2),
        ("wide2x4", wide, 64),
    ]
    out = []
    for name, matrix, count in cases:
        T = ls.LinearSurjection(matrix)
        beta = 1.0 / T.sigma_min + 0.5
        seq = ls.build_right_inverse(T, beta=beta, sphere_count=count, seed=0, rounds=4)
        out.append((name, T, seq))
    return out


# -- criteria ------------------------------------------------------------------


def test_criterion_1_separation_suite():
    """20 seeded spaces, 6 rounds: nesting, pairwise separation, covering
    radius below the separation radius -- all exact, no tolerance."""
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(40, 180))
        dim = int(rng.integers(1, 6))
        metric = ("l1", "l2", "linf")[seed % 3]
        space = ls.SampledMetricSpace(metric, coords=rng.uniform(0.0, 1.0, size=(n, dim)))
        entry = ls.build_separation_hierarchy(space, 6)
        prev = set()
        for n in range(1, 7):
            r, members = 2.0 ** (-(n - 1)), ls.round_members(entry, n).tolist()
            if not prev <= set(members):
                failures.append((seed, n, "nesting"))
            for a, b in itertools.combinations(members, 2):
                if not distance(space, a, b) >= r:
                    failures.append((seed, n, "separation"))
                    break
            if not ls.covering_radius(space, members) < r:
                failures.append((seed, n, "covering"))
            prev = set(members)
    announce(1, not failures, f"20 spaces x 6 rounds, violations: {failures}")


def test_criterion_2_round_properties(segment_run, ball_runs):
    """Per-round guarantees on the segment instance and 5 randomized
    ball-valued correspondences: displacement bound (+1e-9), anchored strong
    bound (+1e-9), exact table coincidence near earlier anchors."""
    failures = []
    for tag, seq in [("segment", segment_run)] + [
        (f"balls{i}", run) for i, run in enumerate(ball_runs)
    ]:
        eps = seq.config.epsilon
        for record in seq.rounds:
            if not record.sup_change <= 2.0 ** (-record.n) * eps + 1e-9:
                failures.append((tag, record.n, "sup_change"))
            checks = ls.verify_round_properties(seq, record.n)
            for name, check in checks.items():
                if not check["passed"]:
                    failures.append((tag, record.n, name))
    announce(2, not failures, f"6 instances x 4 rounds, violations: {failures}")


def test_criterion_3_selection_closure_and_tail(segment_run, ball_runs):
    """Membership of every selection at 1e-8, telescoped Cauchy bounds within
    1e-12, and the geometric tail bound identity."""
    failures = []
    for tag, seq in [("segment", segment_run)] + [
        (f"balls{i}", run) for i, run in enumerate(ball_runs)
    ]:
        phi = seq.correspondence
        for n, table in enumerate(seq.tables):
            for a, x in enumerate(table):
                if not phi.distances([a], x[None])[0] <= 1e-8:
                    failures.append((tag, n, a))
                    break
        audit = ls.verify_sequence(seq)
        if not audit["sequence_checks"]["telescoping"]["passed"]:
            failures.append((tag, "telescoping"))
        n_rounds = seq.rounds[-1].n
        if seq.tail_bound != 2.0 ** (-n_rounds) * seq.config.epsilon:
            failures.append((tag, "tail_bound"))
        # recorded displacements telescope above the realized gap f_N vs f_n
        for n in range(len(seq.tables) - 1):
            direct = float(np.linalg.norm(seq.tables[-1] - seq.tables[n], axis=1).max())
            budget = sum(r.sup_change for r in seq.rounds[n:])
            if not direct <= budget + 1e-12:
                failures.append((tag, n, "telescope_gap"))
    announce(3, not failures, f"closure + tail bounds, violations: {failures}")


def test_criterion_4_limit_audit(segment_run, ball_runs):
    """Pointwise rate estimate <= beta + 1e-6 at every final separation
    member (radii below the entry adjustment radius and 2^-N), and the
    covering-radius density surrogate, exact."""
    failures = []
    worst_overall = 0.0
    for tag, seq in [("segment", segment_run)] + [
        (f"balls{i}", run) for i, run in enumerate(ball_runs)
    ]:
        space = seq.space
        beta = seq.config.beta
        n_rounds = seq.rounds[-1].n
        final_members = ls.round_members(seq.entry, n_rounds).tolist()
        for b in final_members:
            # the adjustment radius recorded when b entered the hierarchy
            cap = min(seq.rounds[seq.entry[b] - 1].deltas[b], 2.0 ** (-n_rounds))
            estimate = ls.plip_profile(
                seq.tables[-1], space, [b], [cap, cap / 2.0, cap / 4.0]
            ).estimates[0]
            worst_overall = max(worst_overall, estimate)
            if not estimate <= beta + 1e-6:
                failures.append((tag, b, estimate))
        cover = ls.covering_radius(space, final_members)
        if not cover < 2.0 ** (-(n_rounds - 1)):
            failures.append((tag, "covering", cover))
    announce(4, not failures, f"worst estimate {worst_overall:.6f}, violations: {failures}")


def test_criterion_5_homogeneous_extension_tightness():
    """Constant sphere table: ray estimate equals the sup norm within 1e-9
    (the bound with beta = 0 is tight).  Identity table: estimate 1 <= 3."""
    angles = 2.0 * np.pi * np.arange(16) / 16
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    directions /= np.linalg.norm(directions, axis=1)[:, None]

    c = np.array([0.7, -0.4, 1.1])
    const_table = sphere_table(directions, np.tile(c, (16, 1)))
    const_rays = [(0, (0.5, 2.0, 10.0)), (5, (1.0, 4.0))]
    const_report = ls.verify_homogeneous_plip(*const_table, beta=0.0, rays=const_rays)
    norm_c = float(np.linalg.norm(c))
    tight = all(abs(e - norm_c) <= 1e-9 for e in ray_estimates(*const_table, 0.0, const_rays))

    ident_table = sphere_table(directions, directions.copy())
    ident_report = ls.verify_homogeneous_plip(*ident_table, beta=1.0, rays=[(3, (1.0, 2.0))])
    ident_ok = ident_report["passed"] and ident_report["worst_estimate"] <= 3.0
    announce(
        5,
        const_report["passed"] and tight and ident_ok,
        f"constant estimate within 1e-9 of {norm_c:.6f}; identity <= 3",
    )


def test_criterion_6_right_inverse_suite(pipeline_runs):
    """identity2, [1 1], and a seeded 2x4 full-rank matrix: right-inverse
    identity within 1e-8 on sampled rays, exact positive homogeneity at
    lambda in {0.5, 2, 10}, ray estimates <= eta + 1e-6, and the openness
    constant against an independent singular-value oracle at 1e-10."""
    failures = []
    for name, T, seq in pipeline_runs:
        tau = seq.tables[-1]
        mat = np.asarray(T.matrix, dtype=float)
        oracle = float(np.sqrt(np.linalg.eigvalsh(mat @ mat.T)[0]))
        report = ls.verify_right_inverse(T, seq)
        if abs(report["gamma"] - oracle) > 1e-10:
            failures.append((name, "gamma"))
        checks = report["checks"]
        for a in range(len(seq.space)):
            y = seq.space.coords[a]
            for lam in (0.5, 2.0, 10.0):
                resid = float(
                    np.linalg.norm(T.matrix @ extend_one(tau, seq.space, lam * y) - lam * y)
                )
                if resid > 1e-8:
                    failures.append((name, "identity", a, lam))
        if not checks["right_inverse_identity"]["passed"]:
            failures.append((name, "identity_report"))
        # exact homogeneity: every power-of-two scaling, and every scale at
        # exactly representable directions (always including the first grid
        # point); remaining entries must still be exact to the last ulp or flag
        if not checks["positive_homogeneity"]["passed"]:
            failures.append((name, "homogeneity"))
        exact_directions = 0
        for k in report["dense_set"]:
            d = seq.space.coords[k]
            base = extend_one(tau, seq.space, d)
            exact = {lam: bool(np.all(extend_one(tau, seq.space, lam * d) == lam * base)) for lam in (0.5, 2.0, 10.0)}
            if not (exact[0.5] and exact[2.0]):
                failures.append((name, "homogeneity_dyadic", k))
            if np.all(d == np.round(d)):
                exact_directions += 1
                if not all(exact.values()):
                    failures.append((name, "homogeneity_exact_dir", k))
        if not exact_directions:
            failures.append((name, "no_exact_direction_tested"))
        plip = checks["ray_plip"]
        if not plip["passed"]:
            failures.append((name, "plip"))
        if not plip["worst_estimate"] <= report["eta"] + 1e-6:
            failures.append((name, "eta", plip["witness"]["direction"]))
        if not checks["dense_covering"]["passed"]:
            failures.append((name, "covering"))
    announce(6, not failures, f"3 pipelines, violations: {failures}")


def test_criterion_7_cantor_corpus():
    """50 complement points with estimate exactly 0 at radii below their
    plateau half-widths; the global check at alpha = 10 fails with an
    adjacent-rise witness at scale 3^-6 and ratio (3/2)^6."""
    plateaus = cantor_plateaus(6)[:50]
    coords = {}
    centers = []
    idx = 0
    for depth, left, right in plateaus:
        width = right - left
        center = 0.5 * (left + right)
        cluster = [center + j * width / 32.0 for j in range(-4, 5)]
        start = idx
        for x in cluster:
            coords[idx] = [x]
            idx += 1
        centers.append((start + 4, width))
    space = ls.SampledMetricSpace("l2", coords=list(coords.values()))
    table = np.array([[cantor_function(x[0], depth=40)] for x in coords.values()])
    zero_failures = []
    for b, width in centers:
        estimate = ls.plip_profile(
            table, space, [b], [width / 8.0, width / 16.0, width / 32.0]
        ).estimates[0]
        if estimate != 0.0:
            zero_failures.append((b, estimate))

    n = 3**6
    grid = ls.SampledMetricSpace("l2", coords=[[i / n] for i in range(n + 1)])
    values = np.array([[cantor_function(i / n, depth=40)] for i in range(n + 1)])
    report = global_lipschitz_upgrade_check(values, grid, alpha=10.0, r0=0.01)
    x, y = report.worst_pair
    witness_scale = abs(grid.coords[x, 0] - grid.coords[y, 0])
    global_ok = (
        not report.passed
        and not report.hypothesis_held
        and abs(report.worst_ratio - 1.5**6) <= 1e-5
        and abs(witness_scale - 3.0**-6) <= 1e-12
    )
    # the canonical pair (0, 3^-6) itself violates the bound
    rise = abs(values[1][0] - values[0][0])
    pair_ok = rise > 10.0 * (1.0 / n)
    announce(
        7,
        not zero_failures and global_ok and pair_ok,
        f"50 plateau points exact 0; worst ratio {report.worst_ratio:.6f} at scale {witness_scale:.8f}",
    )


def test_criterion_8_projection_oracle():
    """100 seeded polytopes (<= 8 halfspaces, ambient dimension 3): Dykstra
    projection within 1e-7 of exhaustive face enumeration; idempotence and
    nonexpansiveness within 1e-9 on all tested pairs."""
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    failures = []
    for case in range(100):
        poly, normals, offsets = random_bounded_polytope(rng)
        y = rng.normal(scale=2.5, size=3)
        z = rng.normal(scale=2.5, size=3)
        py, pz = project_one(poly, y), project_one(poly, z)
        oracle = face_enumeration_projection(normals, offsets, y)
        gap = float(np.linalg.norm(py - oracle))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-7:
            failures.append((case, "oracle", gap))
        if np.linalg.norm(project_one(poly, py) - py) > 1e-9:
            failures.append((case, "idempotence"))
        if np.linalg.norm(py - pz) > np.linalg.norm(y - z) + 1e-9:
            failures.append((case, "nonexpansive"))
    announce(8, not failures, f"100 instances, worst oracle gap {worst_gap:.2e}")


def test_criterion_9_determinism(tmp_path):
    """Identical seeds yield byte-identical reports, via the CLI and via the
    canonical serializer."""
    matrix_path = tmp_path / "T.json"
    matrix_path.write_text(json.dumps({"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = main(
            [
                "bartle-graves",
                "--matrix",
                str(matrix_path),
                "--beta",
                "1.5",
                "--rounds",
                "4",
                "--sphere-count",
                "32",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    cli_ok = blobs[0] == blobs[1]

    texts = []
    for _ in range(2):
        phi, f0, config = moving_ball_instance(seed=4, n_points=129, rounds=3)
        seq = ls.run_iteration(phi, f0, config)
        from lipselect.formats import sequence_to_dict

        texts.append(dumps_canonical(sequence_to_dict(seq)))
    announce(9, cli_ok and texts[0] == texts[1], "CLI and serializer byte-identical")
