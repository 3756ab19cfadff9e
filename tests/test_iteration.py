import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lipselect as ls
from lipselect.errors import (
    DegenerateRadiusError,
    InvariantViolationError,
    ParameterError,
    PreconditionError,
    SchemaError,
)

from conftest import grid_space, line_space, moving_ball_instance, segment_instance


def constant_ball_run(rounds=3):
    space = line_space([0, 0.4, 0.8])
    ball = ls.Ball([1.0, 1.0], 0.5)
    phi = ls.Correspondence(space, [ball] * len(space))
    f0 = np.tile(ball.center, (len(space), 1))
    config = ls.IterationConfig(alpha=0.0, beta=0.3, rounds=rounds)
    return phi, f0, config


class TestBumpWeight:
    def test_inner_ball(self):
        space = line_space([0, 0.05])
        assert ls.bump_weight(0, 0.1, 1, space) == 1.0

    def test_affine_zone(self):
        space = line_space([0, 0.15])
        assert ls.bump_weight(0, 0.1, 1, space) == pytest.approx(0.5, abs=1e-12)

    def test_outside_support(self):
        space = line_space([0, 0.25])
        assert ls.bump_weight(0, 0.1, 1, space) == 0.0

    def test_delta_positive(self):
        space = line_space([0, 1.0])
        with pytest.raises(PreconditionError):
            ls.bump_weight(0, 0.0, 1, space)


@seed(31)
@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
)
def test_bump_weight_properties(delta, dist):
    if dist == 0.0:
        space = ls.SampledMetricSpace("l2", coords=[[0.0]])
        w = ls.bump_weight(0, delta, 0, space)
    else:
        space = ls.SampledMetricSpace("l2", coords=[[0.0], [dist]])
        w = ls.bump_weight(0, delta, 1, space)
    assert 0.0 <= w <= 1.0
    if dist <= delta:
        assert w == 1.0
    if dist >= 2.0 * delta:
        assert w == 0.0


class TestComputeDelta:
    def test_identical_tables_accept_immediately(self):
        space = line_space([0, 0.1, 0.2])
        table = np.zeros((3, 2))
        delta = ls.compute_delta(table, table.copy(), 0, 2, 0.1, space)
        assert delta == 2.0**-4

    def test_halving_trace(self):
        # 1-d grid with step 0.01 on [-0.5, 0.5]; ||f - g|| = d(a, b)
        space = ls.SampledMetricSpace("l2", coords=[[(i - 50) / 100.0] for i in range(101)])
        b = 50
        f = np.array([[(i - 50) / 100.0] for i in range(101)])
        g = np.zeros((101, 1))
        # rejected at 0.125 (sup 0.24 >= 0.15), accepted at 0.0625 (sup 0.12)
        delta = ls.compute_delta(f, g, b, 1, 0.3, space)
        assert delta == 0.0625

    def test_two_point_vacuous_accept(self):
        # far-off mismatch is outside every shrinking ball: first radius wins
        space = line_space([0, 1.0])
        f = np.array([[0.0], [0.0]])
        g = np.array([[0.0], [1.0]])
        delta = ls.compute_delta(f, g, 0, 1, 1e-6, space)
        assert delta == 0.125

    def test_dense_cluster_degenerates(self):
        # points arbitrarily close to b with a persistent unit mismatch
        coords = [[0.0]] + [[10.0**-i] for i in range(1, 12)]
        space = ls.SampledMetricSpace("l2", coords=coords)
        f = np.zeros((12, 1))
        g = np.ones((12, 1))
        g[0] = 0.0
        with pytest.raises(DegenerateRadiusError):
            ls.compute_delta(f, g, 0, 1, 0.3, space, delta_min=1e-9)

    def test_anchoring_precondition(self):
        space = line_space([0, 0.5])
        f = np.array([[0.0], [0.0]])
        g = np.array([[1.0], [0.0]])
        with pytest.raises(PreconditionError):
            ls.compute_delta(f, g, 0, 1, 0.3, space)


class TestBlendRound:
    def _record(self, b, delta, n=1):
        return ls.RoundRecord(n=n, members=(b,), new_points=(b,), deltas={b: delta})

    def test_outside_supports_identity(self):
        space = line_space([0, 1.0])
        f_prev = ls.Selection(np.array([[0.0, 0.0], [5.0, 5.0]]), 0)
        g = np.array([[0.0, 0.0], [9.0, 9.0]])
        out = ls.blend_round(f_prev, self._record(0, 0.1), {0: g}, space)
        assert out.table[1].tobytes() == f_prev.table[1].tobytes()

    def test_midpoint_convex_combination(self):
        # d(a, b) = 0.15, delta = 0.1 -> weight 0.5
        space = line_space([0, 0.15])
        f_prev = ls.Selection(np.array([[1.0, 0.0], [0.0, 0.0]]), 0)
        g = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = ls.blend_round(f_prev, self._record(0, 0.1), {0: g}, space)
        np.testing.assert_allclose(out.table[1], [0.5, 0.0], atol=1e-15)

    def test_inner_ball_takes_anchored_value_exactly(self):
        space = line_space([0, 0.08])
        f_prev = ls.Selection(np.array([[1.0], [2.0]]), 0)
        g = np.array([[1.0], [7.0]])
        out = ls.blend_round(f_prev, self._record(0, 0.1), {0: g}, space)
        np.testing.assert_array_equal(out.table[1], [7.0])

    def test_overlapping_supports_detected(self):
        space = line_space([0, 0.1, 0.2])
        f_prev = ls.Selection(np.zeros((3, 1)), 0)
        g = np.ones((3, 1))
        record = ls.RoundRecord(
            n=1,
            members=(0, 2),
            new_points=(0, 2),
            deltas={0: 0.1, 2: 0.1},
        )
        with pytest.raises(InvariantViolationError):
            ls.blend_round(f_prev, record, {0: g, 2: g}, space)


class TestIterationConfig:
    def test_epsilon_default(self):
        config = ls.IterationConfig(alpha=0.5, beta=2.0)
        assert config.epsilon == pytest.approx(0.5, abs=1e-15)

    def test_beta_must_exceed_alpha(self):
        with pytest.raises(ParameterError):
            ls.IterationConfig(alpha=1.0, beta=1.0)

    def test_epsilon_cap(self):
        with pytest.raises(ParameterError):
            ls.IterationConfig(alpha=0.0, beta=0.3, epsilon=0.2)

    def test_locality_radii_rejected(self):
        # anchored selections are certified on the whole sample: no r_b knob
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
        for sel in seq.selections[1:]:
            np.testing.assert_array_equal(sel.table, f0)

    def test_two_point_space_single_round(self):
        space = line_space([0, 1.0])
        phi = ls.Correspondence(space, [ls.Ball([x, 0.0], 2.0) for x in space.coords[:, 0]])
        f0 = np.array([[x, 0.0] for x in space.coords[:, 0]])
        config = ls.IterationConfig(alpha=1.0, beta=2.0, rounds=1)
        seq = ls.run_iteration(phi, f0, config)
        record = seq.rounds[0]
        assert set(record.new_points) == {0, 1}
        f1 = seq.selections[1].table
        for b in record.new_points:
            g = ls.local_strong_selection(phi, b, f0[b], rate=1.0)
            for a in range(len(space)):
                if space.distance(a, b) <= record.deltas[b]:
                    np.testing.assert_array_equal(f1[a], g[a])

    def test_segment_instance_round_properties(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        epsilon = config.epsilon
        for record in seq.rounds:
            assert record.sup_change <= 2.0 ** (-record.n) * epsilon + 1e-9
            report = ls.verify_round_properties(seq, record.n)
            assert report.passed, {k: v.detail for k, v in report.checks.items()}
        audit = ls.verify_sequence(seq)
        assert audit.passed

    def test_moving_ball_instance(self):
        phi, f0, config = moving_ball_instance(seed=1, n_points=129, rounds=3)
        seq = ls.run_iteration(phi, f0, config)
        assert any(r.sup_change > 0 for r in seq.rounds)
        audit = ls.verify_sequence(seq)
        assert audit.passed

    def test_f0_must_be_selection(self):
        phi, f0, config = constant_ball_run()
        bad = ls.Selection(np.full((len(phi.space), 2), 9.0), 0)
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
        np.testing.assert_array_equal(seq.final.table, f0)


class TestVerifyRoundProperties:
    def test_fault_injection_coincidence(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        # corrupt f_2 at a point protected by a round-1 anchor
        anchor = seq.rounds[0].members[0]
        target = None
        for a in range(len(phi.space)):
            if a != anchor and phi.space.distance(anchor, a) < 2.0**-2:
                target = a
                break
        assert target is not None
        seq.selections[2].table[target] += 1e-3
        report = ls.verify_round_properties(seq, 2)
        assert not report.checks["earlier_anchor_coincidence"].passed

    def test_fault_injection_membership(self):
        phi, f0, config = constant_ball_run()
        seq = ls.run_iteration(phi, f0, config)
        seq.selections[1].table[0] += np.array([10.0, 0.0])
        report = ls.verify_round_properties(seq, 1)
        assert not report.checks["selection_membership"].passed

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
            for b in record.new_points:
                entry = seq.selections[record.n].table[b]
                for later in seq.selections[record.n + 1 :]:
                    np.testing.assert_array_equal(later.table[b], entry)

    def test_cauchy_telescoping(self):
        phi, f0, config = moving_ball_instance(seed=2, n_points=129, rounds=3)
        seq = ls.run_iteration(phi, f0, config)
        eps = config.epsilon
        for n in range(len(seq.selections)):
            for m in range(n + 1, len(seq.selections)):
                direct = seq.selections[m].sup_distance(seq.selections[n])
                budget = sum(
                    2.0 ** (-j) * eps for j in range(n + 1, m + 1)
                )
                assert direct <= budget + 1e-9

    def test_support_disjointness_margin(self):
        _, phi, f0, config = segment_instance(n_points=101)
        seq = ls.run_iteration(phi, f0, config)
        for record in seq.rounds:
            pts = record.new_points
            for i, b in enumerate(pts):
                assert record.deltas[b] < min(2.0 ** (-(record.n + 1)), math.inf)
                for c in pts[i + 1 :]:
                    assert phi.space.distance(b, c) >= 2.0 * (
                        record.deltas[b] + record.deltas[c]
                    )
