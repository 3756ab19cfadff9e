import json
import math

import numpy as np
import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.errors import (
    ConvergenceError,
    LipselectError,
    PreconditionError,
    RateError,
    SchemaError,
)
from lipselect.formats import dumps_canonical, sequence_from_dict, sequence_to_dict, tables_from_dicts
from lipselect.iteration import BOUND_SLACK, MEMBERSHIP_TOL, _round_checks, changed_rows

# the root conftest.py puts bench/ on the path
import workloads
from conftest import (
    ball_doc,
    correspondence,
    distance,
    line_space,
    mixed_bodies,
    moving_ball_instance,
    seeded_separation,
    segment_instance,
)


def constant_ball_run(rounds=3):
    space = line_space([0, 0.4, 0.8])
    phi = correspondence(space, [ball_doc([1.0, 1.0], 0.5)] * len(space))
    f0 = np.tile([1.0, 1.0], (len(space), 1))
    config = ls.IterationConfig(alpha=0.0, beta=0.3, rounds=rounds)
    return phi, f0, config


def full_pairs(space, tables, radius=math.inf):
    """The anchored pairs of whole anchored tables ``{b: g_b}`` on the open
    ``radius``-balls of their anchors."""
    anchors = np.array(list(tables), dtype=np.intp)
    block = space.rows(anchors)
    owner, rows = np.nonzero(block < radius)
    values = np.array([tables[int(anchors[j])][a] for j, a in zip(owner, rows)])
    return ls.AnchoredPairs(anchors, owner, rows, block[owner, rows], values)


def bump(delta, dist):
    """The trapezoid weight ``blend_round`` gives a point at distance
    ``dist`` from an anchor of radius ``delta``: the blended value of a row
    that moves from 0 to the anchored value 1."""
    space = line_space([0.0] if dist == 0.0 else [0.0, dist])
    f = np.zeros((len(space), 1))
    return float(ls.blend_round(f, full_pairs(space, {0: np.ones_like(f)}), np.array([delta]))[-1, 0])


class TestBumpWeight:
    def test_inner_ball(self):
        assert bump(0.1, 0.05) == 1.0

    def test_affine_zone(self):
        assert bump(0.1, 0.15) == pytest.approx(0.5, abs=1e-12)

    def test_outside_support(self):
        assert bump(0.1, 0.25) == 0.0


@seed(31)
@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
)
def test_bump_weight_properties(delta, dist):
    w = bump(delta, dist)
    assert 0.0 <= w <= 1.0
    if dist <= delta:
        assert w == 1.0
    if dist >= 2.0 * delta:
        assert w == 0.0


class TestComputeDelta:
    def test_identical_tables_accept_immediately(self):
        space = line_space([0, 0.1, 0.2])
        table = np.zeros((3, 2))
        deltas = ls.compute_delta(table, full_pairs(space, {0: table.copy()}), 2, 0.1)
        assert deltas.tolist() == [2.0**-4]

    def test_halving_trace(self):
        # 1-d grid with step 0.01 on [-0.5, 0.5]; ||f - g|| = d(a, b)
        space = ls.SampledMetricSpace("l2", coords=[[(i - 50) / 100.0] for i in range(101)])
        b = 50
        f = np.array([[(i - 50) / 100.0] for i in range(101)])
        g = np.zeros((101, 1))
        # rejected at 0.125 (sup 0.24 >= 0.15), accepted at 0.0625 (sup 0.12)
        deltas = ls.compute_delta(f, full_pairs(space, {b: g}), 1, 0.3)
        assert deltas.tolist() == [0.0625]

    def test_two_point_vacuous_accept(self):
        # far-off mismatch is outside every shrinking ball: first radius wins
        space = line_space([0, 1.0])
        f = np.array([[0.0], [0.0]])
        g = np.array([[0.0], [1.0]])
        deltas = ls.compute_delta(f, full_pairs(space, {0: g}), 1, 1e-6)
        assert deltas.tolist() == [0.125]

    def test_each_anchor_its_own_radius(self):
        # the mismatch at 0.3 keeps the first radius (2 * 0.125 <= 0.3) for
        # anchor 0; the one at 0.92, 0.08 from anchor 2 at 1.0, halves the
        # radius of anchor 2 twice
        space = line_space([0, 0.3, 1.0, 0.92])
        f = np.zeros((4, 1))
        g = np.ones((4, 1))
        g[0] = g[2] = 0.0
        deltas = ls.compute_delta(f, full_pairs(space, {0: g, 2: g}), 1, 0.3)
        assert deltas.tolist() == [0.125, 0.03125]

    def test_dense_cluster_degenerates(self):
        # points arbitrarily close to b with a persistent unit mismatch
        coords = [[0.0]] + [[10.0**-i] for i in range(1, 12)] + [[5.0]]
        space = ls.SampledMetricSpace("l2", coords=coords)
        f = np.zeros((13, 1))
        g = np.ones((13, 1))
        g[0] = g[12] = 0.0
        with pytest.raises(LipselectError, match="round 1, anchor 0: no admissible radius above 1e-09$") as err:
            ls.compute_delta(f, full_pairs(space, {12: g, 0: g}), 1, 0.3, delta_min=1e-9)
        # neither a schema nor a precondition error: it exits 4
        assert err.type is LipselectError


class TestBlendRound:
    def _blend(self, f_prev, space, tables, deltas):
        return ls.blend_round(f_prev, full_pairs(space, tables), np.array(deltas))

    def test_outside_supports_identity(self):
        space = line_space([0, 1.0])
        f_prev = np.array([[0.0, 0.0], [5.0, 5.0]])
        g = np.array([[0.0, 0.0], [9.0, 9.0]])
        out = self._blend(f_prev, space, {0: g}, [0.1])
        assert out[1].tobytes() == f_prev[1].tobytes()

    def test_midpoint_convex_combination(self):
        # d(a, b) = 0.15, delta = 0.1 -> weight 0.5
        space = line_space([0, 0.15])
        f_prev = np.array([[1.0, 0.0], [0.0, 0.0]])
        g = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = self._blend(f_prev, space, {0: g}, [0.1])
        np.testing.assert_allclose(out[1], [0.5, 0.0], atol=1e-15)

    def test_inner_ball_takes_anchored_value_exactly(self):
        space = line_space([0, 0.08])
        f_prev = np.array([[1.0], [2.0]])
        g = np.array([[1.0], [7.0]])
        out = self._blend(f_prev, space, {0: g}, [0.1])
        np.testing.assert_array_equal(out[1], [7.0])

    def test_overlapping_supports_detected(self):
        space = line_space([0, 0.1, 0.2])
        g = np.ones((3, 1))
        with pytest.raises(LipselectError, match=r"adjustment supports overlap at 1: anchors \[0, 2\]$") as err:
            self._blend(np.zeros((3, 1)), space, {0: g, 2: g}, [0.1, 0.1])
        assert err.type is LipselectError


def per_anchor_run(phi, f0, config):
    """The engine anchor by anchor, as it ran before rounds were batched:
    each anchor's value projected onto every body of the sample, the
    halving loop over its whole distance row (the grid of the instances
    keeps every radius above ``delta_min``), and its own blend, over the
    chain of greedy separations each seeded with the one before.  Returns
    the tables and each round's radii."""
    space = phi.space
    tables, radii, prev = [f0], [], ()
    for n in range(1, config.rounds + 1):
        members = seeded_separation(space, 2.0 ** (-(n - 1)), seed=prev)
        f = tables[-1]
        table, deltas = f.copy(), {}
        for b in (b for b in members if b not in prev):
            g = np.array([phi.project([a], f[b][None])[0] for a in range(len(space))])
            g[b] = f[b]
            diffs = np.linalg.norm(f - g, axis=1)
            row = space.rows([b])[0]
            delta = 2.0 ** (-(n + 2))
            while diffs[row < 2.0 * delta].max() > 2.0 ** (-n) * config.epsilon - ls.iteration.STRICTNESS_MARGIN:
                delta /= 2.0
            deltas[b] = delta
            support = np.flatnonzero(row < 2.0 * delta)
            w = np.clip((2.0 * delta - row[support]) / delta, 0.0, 1.0)[:, None]
            fs, gs = f[support], g[support]
            same = np.all(fs == gs, axis=1)[:, None]
            table[support] = np.where(same, fs, np.where(w >= 1.0, gs, (1.0 - w) * fs + w * gs))
        tables.append(table)
        radii.append(deltas)
        prev = members
    return tables, radii


@st.composite
def mixed_instances(draw):
    """Up to 16 points of a 1/32 grid on [0, 1.5], under their Euclidean
    distance or, as an explicit metric, half its square root; a body of any
    kind at each, started at its canonical points, with a rate no pair can
    break.  Polytope normals come from a coarse grid, so that no two
    halfspaces meet at a narrow angle and Dykstra's method mostly stays
    quick."""
    values = sorted(draw(st.sets(st.integers(0, 48), min_size=2, max_size=16)))
    coords = np.array(values, dtype=float)[:, None] / 32.0
    if draw(st.booleans()):
        space = ls.SampledMetricSpace("explicit", explicit_distances=0.5 * np.sqrt(np.abs(coords - coords.T)))
    else:
        space = ls.SampledMetricSpace("l2", coords=coords)
    dim = draw(st.integers(1, 2))
    bodies = mixed_bodies(dim, normal=st.sampled_from([-1.0, 0.0, 1.0]))
    phi = correspondence(space, draw(st.lists(bodies, min_size=len(values), max_size=len(values))))
    epsilon = draw(st.sampled_from([1e-3, 0.5, 4.0, 100.0]))
    config = ls.IterationConfig(alpha=1e4, beta=1e4 + 4.0 * epsilon, epsilon=epsilon, rounds=3)
    return phi, phi.canonical_selection(), config


@seed(13)
@settings(max_examples=100, deadline=None)
@given(mixed_instances())
def test_batched_rounds_equal_the_per_anchor_engine(instance):
    phi, f0, config = instance
    try:
        want_tables, want_radii = per_anchor_run(phi, f0, config)
    except ConvergenceError:
        # Dykstra's method stalls in the per-anchor engine's whole-sample
        # projection: no reference run to compare with
        reject()
    seq = ls.run_iteration(phi, f0, config)
    assert [r.deltas for r in seq.rounds] == want_radii
    for table, want in zip(seq.tables, want_tables, strict=True):
        assert table.tobytes() == want.tobytes()


@seed(17)
@settings(max_examples=40, deadline=None)
@given(mixed_instances())
def test_rendered_sequence_reads_back_the_engine_run(instance):
    """``verify`` re-checks the engine's exact tables and evidence: the
    rendered sequence parses back to the same bytes and round records."""
    phi, f0, config = instance
    try:
        seq = ls.run_iteration(phi, f0, config)
    except ConvergenceError:
        reject()
    back = sequence_from_dict(json.loads(dumps_canonical(sequence_to_dict(seq))), phi)
    assert back.tables.tobytes() == seq.tables.tobytes()
    assert [(r.n, r.deltas, r.sup_change) for r in back.rounds] == [(r.n, r.deltas, r.sup_change) for r in seq.rounds]
    assert back.entry.dtype == seq.entry.dtype and back.entry.tobytes() == seq.entry.tobytes()
    assert back.metadata_problems == ()


class TestLocality:
    """The engine checks the lower pointwise Lipschitz hypothesis on the
    open 2^-(n+1)-ball of each anchor of round n, the only rows it reads."""

    # the center of the first ball is 4.5 from the second, which its anchor
    # reads 1 apart (outside the 2^-2-ball) or 0.1 apart (inside)
    BALLS = [ball_doc([0.0, 0.0], 0.5), ball_doc([5.0, 0.0], 0.5)]

    def test_failure_outside_every_ball_does_not_raise(self):
        phi = correspondence(line_space([0, 1.0]), self.BALLS)
        f0 = phi.canonical_selection()
        config = ls.IterationConfig(alpha=1.0, beta=2.0, rounds=1)
        seq = ls.run_iteration(phi, f0, config)
        assert list(seq.rounds[0].deltas) == [0, 1]
        np.testing.assert_array_equal(seq.tables[-1], f0)
        assert ls.verify_sequence(seq)["passed"]
        with pytest.raises(RateError) as err:
            ls.local_strong_selection(phi, 0, f0[0], rate=1.0)
        assert err.value.witness == 1

    def test_failure_inside_a_ball_names_round_and_anchor(self):
        phi = correspondence(line_space([0, 0.1]), self.BALLS)
        config = ls.IterationConfig(alpha=1.0, beta=2.0, rounds=1)
        with pytest.raises(RateError, match=r"^round 1, anchor 0: .* fails at 1 by 4\.400e\+00") as err:
            ls.run_iteration(phi, phi.canonical_selection(), config)
        assert err.value.witness == 1
        assert err.value.excess == pytest.approx(4.5 - 0.1, abs=1e-12)


class TestIterationConfig:
    def test_epsilon_default(self):
        config = ls.IterationConfig(alpha=0.5, beta=2.0)
        assert config.epsilon == pytest.approx(0.5, abs=1e-15)

    def test_beta_must_exceed_alpha(self):
        with pytest.raises(PreconditionError, match="beta must exceed alpha$"):
            ls.IterationConfig(alpha=1.0, beta=1.0)

    def test_epsilon_cap(self):
        with pytest.raises(PreconditionError, match=r"epsilon must lie in \(0, \(beta - alpha\)/3 = 0\.0999+\]$"):
            ls.IterationConfig(alpha=0.0, beta=0.3, epsilon=0.2)

    @pytest.mark.parametrize("alpha, beta, message", [
        (10**400, 1.0, "iteration parameters must be finite"),
        (0.0, 10**400, "iteration parameters must be finite"),
        # each a double, their difference not
        (-(10**308), 10**308, "alpha must be nonnegative"),
    ])
    def test_parameters_are_checked_before_the_cap(self, alpha, beta, message):
        # the cap of an integer beyond the doubles would overflow
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            ls.IterationConfig(alpha=alpha, beta=beta)

    def test_locality_radii_rejected(self):
        # the locality radius of round n is its 2^-(n+1), set by the
        # schedule: no r_b knob
        with pytest.raises(TypeError):
            ls.IterationConfig(alpha=0.0, beta=1.0, locality_radii={"b": 0.5})
        with pytest.raises(SchemaError):
            ls.IterationConfig.from_json_dict({"alpha": 0.0, "beta": 1.0, "locality_radii": 0.5})


class TestRunIteration:
    def test_constant_correspondence_fixed_point(self):
        phi, f0, config = constant_ball_run()
        seq = ls.run_iteration(phi, f0, config)
        for record in seq.rounds:
            assert record.sup_change == 0.0
        for table in seq.tables[1:]:
            np.testing.assert_array_equal(table, f0)

    def test_two_point_space_single_round(self):
        space = line_space([0, 1.0])
        phi = correspondence(space, [ball_doc([x, 0.0], 2.0) for x in space.coords[:, 0]])
        f0 = np.array([[x, 0.0] for x in space.coords[:, 0]])
        config = ls.IterationConfig(alpha=1.0, beta=2.0, rounds=1)
        seq = ls.run_iteration(phi, f0, config)
        record = seq.rounds[0]
        assert set(record.deltas) == {0, 1}
        f1 = seq.tables[1]
        for b in record.deltas:
            g = ls.local_strong_selection(phi, b, f0[b], rate=1.0)
            for a in range(len(space)):
                if distance(space, a, b) <= record.deltas[b]:
                    np.testing.assert_array_equal(f1[a], g[a])

    def test_segment_instance_round_properties(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        epsilon = config.epsilon
        for record in seq.rounds:
            assert record.sup_change <= 2.0 ** (-record.n) * epsilon + 1e-9
            checks = ls.verify_round_properties(seq, record.n)
            assert all(c["passed"] for c in checks.values()), {k: c["detail"] for k, c in checks.items()}
        audit = ls.verify_sequence(seq)
        assert audit["passed"]

    def test_moving_ball_instance(self):
        phi, f0, config = moving_ball_instance(seed=1, n_points=129, rounds=3)
        seq = ls.run_iteration(phi, f0, config)
        assert any(r.sup_change > 0 for r in seq.rounds)
        audit = ls.verify_sequence(seq)
        assert audit["passed"]

    def test_f0_must_be_selection(self):
        phi, f0, config = constant_ball_run()
        bad = np.full((len(phi.space), 2), 9.0)
        with pytest.raises(PreconditionError):
            ls.run_iteration(phi, bad, config)


class TestLimitSelection:
    def test_tail_bound_value(self):
        phi, f0, config = constant_ball_run(rounds=4)
        config = ls.IterationConfig(alpha=0.0, beta=1.0, epsilon=0.3, rounds=4)
        seq = ls.run_iteration(phi, f0, config)
        assert seq.tail_bound == pytest.approx(0.01875, abs=1e-15)

    def test_constant_sequence_limit_is_f0(self):
        phi, f0, config = constant_ball_run()
        seq = ls.run_iteration(phi, f0, config)
        np.testing.assert_array_equal(seq.tables[-1], f0)


class TestVerifyRoundProperties:
    def test_fault_injection_coincidence(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        # corrupt f_2 at a point protected by a round-1 anchor
        anchor = int(ls.round_members(seq.entry, 1)[0])
        target = None
        for a in range(len(phi.space)):
            if a != anchor and distance(phi.space, anchor, a) < 2.0**-2:
                target = a
                break
        assert target is not None
        seq.tables[2][target] += 1e-3
        checks = ls.verify_round_properties(seq, 2)
        assert not checks["earlier_anchor_coincidence"]["passed"]

    def test_fault_injection_anchored_bound_names_the_worst_anchor(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        record = seq.rounds[1]
        first, second = list(record.deltas)[:2]
        # push a point of each closed delta-ball away from its anchor, the
        # one of the second new anchor further
        table = seq.tables[2]
        for b, push in ((first, 1e-4), (second, 1e-3)):
            a = next(a for a in range(len(phi.space)) if a != b and distance(phi.space, a, b) <= record.deltas[b])
            away = table[a] - table[b]
            table[a] += push * away / np.linalg.norm(away)
        check = ls.verify_round_properties(seq, 2)["anchored_strong_bound"]
        assert not check["passed"]
        assert check["detail"].endswith(f"(anchor {second!r})")

    def test_anchored_bound_tie_names_the_first_anchor(self):
        # anchors 0 and 2 of a constant correspondence, each with its point
        # 1/64 away pushed by the same vector: equal excesses
        space = line_space([0, 1 / 64, 1, 1 + 1 / 64])
        phi = correspondence(space, [ball_doc([0.0, 0.0], 1.0)] * 4)
        seq = ls.run_iteration(phi, np.zeros((4, 2)), ls.IterationConfig(alpha=0.0, beta=1.0, rounds=1))
        assert list(seq.rounds[0].deltas) == [0, 2]
        seq.tables[1][[1, 3]] += [0.25, 0.0]
        check = ls.verify_round_properties(seq, 1)["anchored_strong_bound"]
        assert check["worst"] == 0.25
        assert check["detail"].endswith("(anchor 0)")

    def test_fault_injection_membership(self):
        phi, f0, config = constant_ball_run()
        seq = ls.run_iteration(phi, f0, config)
        seq.tables[1][0] += np.array([10.0, 0.0])
        checks = ls.verify_round_properties(seq, 1)
        assert not checks["selection_membership"]["passed"]

    def test_unknown_round(self):
        phi, f0, config = constant_ball_run()
        seq = ls.run_iteration(phi, f0, config)
        with pytest.raises(PreconditionError):
            ls.verify_round_properties(seq, 99)


class TestSequenceInvariants:
    def test_eventually_constant_anchors(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        for record in seq.rounds:
            for b in record.deltas:
                entry = seq.tables[record.n][b]
                for later in seq.tables[record.n + 1 :]:
                    np.testing.assert_array_equal(later[b], entry)

    def test_cauchy_telescoping(self):
        phi, f0, config = moving_ball_instance(seed=2, n_points=129, rounds=3)
        seq = ls.run_iteration(phi, f0, config)
        eps = config.epsilon
        for n in range(len(seq.tables)):
            for m in range(n + 1, len(seq.tables)):
                direct = float(np.linalg.norm(seq.tables[m] - seq.tables[n], axis=1).max())
                budget = sum(
                    2.0 ** (-j) * eps for j in range(n + 1, m + 1)
                )
                assert direct <= budget + 1e-9

    def test_support_disjointness_margin(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        for record in seq.rounds:
            pts = list(record.deltas)
            for i, b in enumerate(pts):
                assert record.deltas[b] < min(2.0 ** (-(record.n + 1)), math.inf)
                for c in pts[i + 1 :]:
                    assert distance(phi.space, b, c) >= 2.0 * (
                        record.deltas[b] + record.deltas[c]
                    )


def oracle_audit(seq):
    """``verify_sequence`` with its cross-round checks as first written,
    each over every earlier round: coincidence at round ``n`` over every
    earlier round ``k``, the telescoped bound over every pair of tables
    with its own ``sum``, and the frozen anchors record by record."""
    audit = ls.verify_sequence(seq)
    space = seq.space
    for r in audit["rounds"]:
        f_n = seq.tables[r["n"]]
        mismatches = 0
        radius = 2.0 ** (-r["n"])
        moved = np.zeros(len(space), dtype=bool)
        for k in range(r["n"] - 1, 0, -1):
            moved |= np.any(seq.tables[k] != f_n, axis=1)
            protecting = np.count_nonzero(space.rows(ls.round_members(seq.entry, k)) < radius, axis=0)
            mismatches += int(protecting[moved].sum())
        r["checks"]["earlier_anchor_coincidence"] = dict(passed=mismatches == 0, worst=float(mismatches))
        r["passed"] = all(c["passed"] for c in r["checks"].values())
    checks = audit["sequence_checks"]

    worst_gap = 0.0
    for n in range(len(seq.tables)):
        for m in range(n + 1, len(seq.tables)):
            direct = float(np.linalg.norm(seq.tables[m] - seq.tables[n], axis=1).max())
            budget = sum(seq.rounds[j - 1].sup_change for j in range(n + 1, m + 1))
            worst_gap = max(worst_gap, direct - budget)
    checks["telescoping"] = dict(passed=worst_gap <= 1e-12, worst=worst_gap)

    frozen_violations = 0
    for record in seq.rounds:
        rows = list(record.deltas)
        later = seq.tables[record.n + 1 :, rows]
        frozen_violations += int(np.count_nonzero(np.any(later != seq.tables[record.n, rows], axis=-1)))
    checks["eventually_constant_anchors"] = dict(passed=frozen_violations == 0, worst=float(frozen_violations))
    audit["passed"] = all(r["passed"] for r in audit["rounds"]) and all(c["passed"] for c in checks.values())
    return audit


def outcomes(audit):
    """Each check's ``passed`` and the bits of its ``worst``, keyed by round
    (0 for the sequence checks) and name."""
    out = {(0, name): (c["passed"], float(c["worst"]).hex()) for name, c in audit["sequence_checks"].items()}
    for r in audit["rounds"]:
        out.update({(r["n"], name): (c["passed"], float(c["worst"]).hex()) for name, c in r["checks"].items()})
    return out


def instance_run(name, rounds, workdir):
    """A run at ``rounds`` rounds of the segment instance, or of the tiny
    benchmark instance ``name`` (``balls`` or ``polytopes``, seed 0) from
    its documents."""
    if name == "segment":
        _, phi, f0, config = segment_instance(n_points=101, rounds=rounds)
        return ls.run_iteration(phi, f0, config)
    inst = workloads.build(name, 0, workdir, "tiny")
    phi = ls.Correspondence.from_json_dict(json.loads((workdir / "correspondence.json").read_text()))
    f0 = phi.canonical_selection()
    if "--f0" in inst.solve_argv:
        f0 = tables_from_dicts([json.loads((workdir / "f0.json").read_text())], phi.space)[0]
    return ls.run_iteration(phi, f0, ls.IterationConfig(alpha=0.25, beta=1.25, rounds=rounds))


@pytest.mark.parametrize("rounds", [1, 2, 3, 7, 20, 60])
@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_audit_equals_the_oracle_on_genuine_runs(tmp_path, name, rounds):
    seq = instance_run(name, rounds, tmp_path)
    audit = ls.verify_sequence(seq)
    assert audit["passed"]
    assert outcomes(audit) == outcomes(oracle_audit(seq))


def forge_rows(seq, genuine, rng, trial):
    """Set ``seq.tables`` to the 12-round ``genuine`` with one row moved by
    a tiny normal step over a span of rounds ``j..m``: an anchor of round
    ``k`` after ``k`` (odd ``trial``), or a row before it enters the
    hierarchy (even ``trial``), inside or outside the protected balls.
    Each stored ``sup_change`` becomes the forged tables' displacement."""
    entry = seq.entry
    if trial % 2:
        k = int(rng.choice(np.unique(entry[(entry > 0) & (entry < 12)])))
        p = int(rng.choice(np.flatnonzero(entry == k)))
        j = int(rng.integers(k + 1, 13))
        m = int(rng.integers(j, 13))
    else:
        p = int(rng.choice(np.flatnonzero(entry > 1)))
        j = int(rng.integers(1, entry[p]))
        m = int(rng.integers(j, entry[p]))
    seq.tables = genuine.copy()
    # far below the round bound and the membership slack
    seq.tables[j : m + 1, p] += 2.0 ** (-j) * 1e-9 * rng.normal(size=genuine.shape[2])
    for record in seq.rounds:
        record.sup_change = float(np.linalg.norm(seq.tables[record.n] - seq.tables[record.n - 1], axis=1).max())


@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_audit_agrees_with_the_oracle_on_forged_runs(tmp_path, name):
    """Forged runs: an anchor of round ``k`` moved over a span of rounds
    ``j..m`` after ``k``, or every other draw a row moved over a span of
    rounds before it enters the hierarchy, inside or outside the protected
    balls.  Each stored ``sup_change`` is the forged tables' displacement,
    so that only the guarantee checks can tell.  The verdict and the first
    failing round agree with the oracle, and every round the audit fails,
    the oracle fails too: the audit charges a protected row to the round
    that moved it, the oracle to every round after."""
    seq = instance_run(name, 12, tmp_path)
    genuine, rng = seq.tables.copy(), np.random.default_rng(5)
    verdicts = []
    for trial in range(40):
        forge_rows(seq, genuine, rng, trial)
        ours, theirs = ls.verify_sequence(seq), oracle_audit(seq)
        failing = [r["n"] for r in ours["rounds"] if not r["passed"]]
        oracle_failing = [r["n"] for r in theirs["rounds"] if not r["passed"]]
        assert ours["passed"] == theirs["passed"]
        assert failing[:1] == oracle_failing[:1]
        assert set(failing) <= set(oracle_failing)
        verdicts.append(ours["passed"])
    # the draws reach both verdicts
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_telescoping_equals_the_oracle_on_forged_budgets(tmp_path, name):
    # one stored sup_change lowered: positive gaps, which the audit must
    # measure with the oracle's sums bit for bit
    seq = instance_run(name, 12, tmp_path)
    rng = np.random.default_rng(3)
    genuine = [record.sup_change for record in seq.rounds]
    for _ in range(10):
        for record, value in zip(seq.rounds, genuine):
            record.sup_change = value
        seq.rounds[int(rng.choice(np.flatnonzero(genuine)))].sup_change *= float(rng.uniform(0.0, 0.9))
        ours = ls.verify_sequence(seq)["sequence_checks"]["telescoping"]
        theirs = oracle_audit(seq)["sequence_checks"]["telescoping"]
        assert ours["worst"] > 0.0
        assert (ours["passed"], ours["worst"].hex()) == (theirs["passed"], theirs["worst"].hex())


def assert_membership_per_table(seq):
    """The audit's membership, measured once per changed row, equals a
    per-table measure: each round's worst distance bit for bit and
    the point reported with it, every round check as
    :func:`ls.verify_round_properties` gives it from its table alone, and
    the closure over every table."""
    audit = ls.verify_sequence(seq)
    rows = np.arange(len(seq.space))
    per_table = [seq.correspondence.distances(rows, table) for table in seq.tables]
    for r in audit["rounds"]:
        member = per_table[r["n"]]
        i = int(np.argmax(member))
        check = r["checks"]["selection_membership"]
        assert check["worst"].hex() == float(member[i]).hex()
        assert check["detail"].endswith(f" at {i if member[i] > 0.0 else None!r}")
        assert r["checks"] == ls.verify_round_properties(seq, r["n"])
    closure = max(float(member.max()) for member in per_table)
    assert audit["sequence_checks"]["selection_closure"]["worst"].hex() == closure.hex()
    return audit


@pytest.mark.parametrize("rounds", [1, 7, 20])
@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_batched_membership_equals_per_table_distances(tmp_path, name, rounds):
    seq = instance_run(name, rounds, tmp_path)
    assert assert_membership_per_table(seq)["passed"]


def pushed_off(seq, p, tables):
    """``seq`` with row ``p`` of the ``tables`` moved by 10 in every
    coordinate, off its body, each by the same vector."""
    seq.tables[tables, p] += 10.0
    assert seq.correspondence.distances([p], seq.tables[tables.start, [p]])[0] > 1.0
    return seq


@pytest.mark.parametrize("rounds", [1, 7, 20])
@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_a_row_of_f1_pushed_off_and_left_fails_every_round(tmp_path, name, rounds):
    # the row changes in round 1 only, so the batch measures it once and
    # each later round carries that distance
    seq = instance_run(name, rounds, tmp_path)
    p = int(np.flatnonzero(~changed_rows(seq.tables)[2:].any(axis=0))[0])
    seq = pushed_off(seq, p, slice(1, None))
    assert changed_rows(seq.tables)[:, p].tolist() == [True, True] + [False] * (rounds - 1)
    audit = assert_membership_per_table(seq)
    for r in audit["rounds"]:
        check = r["checks"]["selection_membership"]
        assert not check["passed"] and check["detail"].endswith(f" at {p!r}")


@pytest.mark.parametrize("rounds", [7, 20])
@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_a_row_moved_out_in_round_2_and_back_in_round_4(tmp_path, name, rounds):
    seq = pushed_off(instance_run(name, rounds, tmp_path), 0, slice(2, 4))
    audit = assert_membership_per_table(seq)
    failing = [r["n"] for r in audit["rounds"] if not r["checks"]["selection_membership"]["passed"]]
    assert failing == [2, 3]


def test_the_audit_calls_the_body_kernel_once(tmp_path, monkeypatch):
    seq = instance_run("polytopes", 6, tmp_path)
    calls, kernel = [], ls.Polytope.project

    def counted(stack, ys):
        calls.append(len(ys))
        return kernel(stack, ys)

    monkeypatch.setattr(ls.Polytope, "project", staticmethod(counted))
    # a round alone measures its whole table
    ls.verify_round_properties(seq, 6)
    assert calls == [len(seq.space)]
    calls.clear()
    ls.verify_sequence(seq)
    assert calls == [int(changed_rows(seq.tables).sum())]


def oracle_round_checks(seq, n, member, moved):
    """The checks of round ``n`` as they were before the whole-run passes:
    one pass over ``f_n`` alone, given the body distance of each of its
    rows, ``member``, and the mask of the rows round ``n`` changed,
    ``moved``."""
    record = seq.rounds[n - 1]
    space = seq.space
    f_n = seq.tables[n]
    checks = {}

    i = int(np.argmax(member))
    worst_member = float(member[i])
    worst_point = i if worst_member > 0.0 else None
    checks["selection_membership"] = dict(
        passed=worst_member <= MEMBERSHIP_TOL,
        worst=worst_member,
        detail=f"max body distance {worst_member:.3e} at {worst_point!r}",
    )

    sup_change = float(np.linalg.norm(f_n[moved] - seq.tables[n - 1][moved], axis=1).max(initial=0.0))
    bound = 2.0 ** (-n) * seq.config.epsilon
    checks["sup_change_bound"] = dict(
        passed=sup_change <= bound + BOUND_SLACK,
        worst=sup_change,
        detail=f"sup displacement {sup_change:.3e} vs bound {bound:.3e}",
    )

    new = np.array(list(record.deltas), dtype=np.intp)
    radii = np.array(list(record.deltas.values()))
    block = space.rows(new)
    owner, rows = np.nonzero(block <= radii[:, None])
    excess = np.linalg.norm(f_n[rows] - f_n[new[owner]], axis=1) - seq.config.alpha * block[owner, rows]
    worst_excess, worst_anchor = 0.0, None
    if excess.size and excess.max() > 0.0:
        p = int(np.argmax(excess))
        worst_excess, worst_anchor = float(excess[p]), int(new[owner[p]])
    checks["anchored_strong_bound"] = dict(
        passed=worst_excess <= BOUND_SLACK,
        worst=worst_excess,
        detail=f"worst excess {worst_excess:.3e} (anchor {worst_anchor!r})",
    )

    protecting = space.rows(ls.round_members(seq.entry, n - 1))[:, moved]
    mismatches = int(np.count_nonzero(protecting < 2.0 ** (-n)))
    checks["earlier_anchor_coincidence"] = dict(
        passed=mismatches == 0,
        worst=float(mismatches),
        detail=f"{mismatches} table entries differ on protected balls",
    )
    return checks


def oracle_margin(seq):
    """The least support separation margin, one round at a time."""
    min_margin = math.inf
    for record in seq.rounds:
        rows = list(record.deltas)
        deltas = np.array(list(record.deltas.values()))
        i, j = np.triu_indices(len(rows), k=1)
        margins = seq.space.rows(rows)[:, rows][i, j] - 2.0 * (deltas[i] + deltas[j])
        min_margin = min(min_margin, float(margins.min(initial=math.inf)))
    return min_margin


def assert_whole_run_equals_per_round(seq):
    """The whole-run round checks equal the per-round oracle's record for
    record, each ``passed`` with its type, each ``worst`` bit for bit and
    each detail, and so does the support margin; returns the records."""
    changed = changed_rows(seq.tables)
    rows = np.arange(len(seq.space))
    member = np.array([seq.correspondence.distances(rows, table) for table in seq.tables])
    checks, margin = _round_checks(seq, member, changed)

    def bits(records):
        return [
            {name: (type(c["passed"]), c["passed"], c["worst"].hex(), c["detail"]) for name, c in r.items()}
            for r in records
        ]

    oracle = [oracle_round_checks(seq, n, member[n], changed[n]) for n in range(1, len(seq.rounds) + 1)]
    assert bits(checks) == bits(oracle)
    assert margin.hex() == oracle_margin(seq).hex()
    return checks


@pytest.mark.parametrize("rounds", [1, 2, 3, 7, 20, 60])
@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_whole_run_checks_equal_the_per_round_checks(tmp_path, name, rounds):
    checks = assert_whole_run_equals_per_round(instance_run(name, rounds, tmp_path))
    assert all(c["passed"] for r in checks for c in r.values())


@pytest.mark.parametrize("name", ["balls", "polytopes", "segment"])
def test_whole_run_checks_equal_the_per_round_checks_on_forged_runs(tmp_path, name):
    """The forgeries of :func:`forge_rows`, a row of ``f_1`` pushed off its
    body for good, one round's radii eight times too large, and one round's
    radii stored at the next rows: the same records as the oracle, so the
    same verdict and the same first failing round."""
    seq = instance_run(name, 12, tmp_path)
    genuine, rng = seq.tables.copy(), np.random.default_rng(5)
    radii = [dict(record.deltas) for record in seq.rounds]
    first_failing = set()

    def check():
        checks = assert_whole_run_equals_per_round(seq)
        failing = [n for n, r in enumerate(checks, 1) if not all(c["passed"] for c in r.values())]
        first_failing.add(failing[0] if failing else None)

    for trial in range(20):
        forge_rows(seq, genuine, rng, trial)
        check()
    seq.tables = genuine.copy()
    pushed_off(seq, int(np.argmax(changed_rows(seq.tables)[1])), slice(1, None))
    check()
    seq.tables = genuine
    for record, stored in zip(seq.rounds, radii):
        if len(stored) > 1:
            record.deltas = {b: 8.0 * d for b, d in stored.items()}
            check()
            record.deltas = {(b + 1) % len(seq.space): d for b, d in stored.items()}
            check()
            record.deltas = stored
    # the forgeries reach both verdicts, and fail first in several rounds
    assert None in first_failing and len(first_failing) > 2
