import numpy as np
import pytest
from hypothesis import strategies as st

import lipselect as ls


def line_space(values, metric="l2"):
    """1-d space whose point ``i`` sits at ``values[i]``."""
    return ls.SampledMetricSpace(metric, coords=[[float(v)] for v in values])


def grid_space(n, lo=0.0, hi=1.0):
    """Uniform 1-d grid; coordinates are exact fractions."""
    step = (hi - lo) / (n - 1)
    return ls.SampledMetricSpace("l2", coords=[[lo + i * step] for i in range(n)])


def sphere_table(directions, values):
    """The sphere table of ``values`` on the chord space of ``directions``."""
    return ls.SphereTable(ls.SampledMetricSpace("l2", coords=directions), values)


@pytest.fixture
def four_point_line():
    return line_space([0, 0.3, 0.6, 1.0])


def segment_instance(n_points=201, rounds=4):
    """Inverse-image correspondence of [1 1] over a segment of codomain
    values, with the least-norm selection as the f0 table."""
    T = ls.LinearSurjection([[1.0, 1.0]])
    half = (n_points - 1) // 2
    space = ls.SampledMetricSpace("l2", coords=[[(i - half) / half] for i in range(n_points)])
    phi = ls.inverse_image_correspondence(T, space)
    f0 = np.array([T.minimum_norm_solution(y) for y in space.coords])
    config = ls.IterationConfig(alpha=2.0**-0.5, beta=1.0, rounds=rounds)
    return T, phi, f0, config


def moving_ball_instance(seed, n_points=257, rounds=4, dim=2):
    """Ball-valued correspondence over a 1-d segment: centers and radii move
    linearly with Lipschitz budget 0.15 + 0.10 <= alpha = 0.25."""
    rng = np.random.default_rng(seed)
    space = ls.SampledMetricSpace("l2", coords=[[i / (n_points - 1)] for i in range(n_points)])
    c0 = rng.normal(size=dim)
    v = rng.normal(size=dim)
    v *= 0.15 / np.linalg.norm(v)
    rho0 = float(rng.uniform(0.3, 0.5))
    w = float(rng.uniform(-0.1, 0.1))
    bodies = [
        ls.Ball(c0 + v * (i / (n_points - 1)), rho0 + w * (i / (n_points - 1)))
        for i in range(n_points)
    ]
    phi = ls.Correspondence(space, bodies)
    f0 = np.array([body.center for body in bodies])
    config = ls.IterationConfig(alpha=0.25, beta=1.25, rounds=rounds)
    return phi, f0, config


COORD = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def mixed_bodies(draw, dim, normal=COORD):
    """A ball, a flat of rank 0..dim, or a bounded polytope with 2 to 4
    halfspaces in ``R^dim`` whose normals have ``normal`` coordinates; the
    bodies of a list rarely share a shape."""
    vector = st.lists(COORD, min_size=dim, max_size=dim).map(np.array)
    kind = draw(st.sampled_from(["ball", "flat", "polytope"]))
    if kind == "ball":
        return ls.Ball(draw(vector), draw(st.floats(0.1, 2.0)))
    if kind == "flat":
        rank = draw(st.integers(0, dim))
        q, _ = np.linalg.qr(draw(st.lists(vector, min_size=dim, max_size=dim).map(np.array)) + 3.0 * np.eye(dim))
        return ls.AffineFlat(draw(vector), q.T[:rank])
    witness = draw(vector)
    normals = np.array(draw(st.lists(st.lists(normal, min_size=dim, max_size=dim), min_size=2, max_size=4)))
    normals = normals[np.linalg.norm(normals, axis=1) > 0.1]
    normals = np.vstack([normals, np.eye(dim)[:1]]) if len(normals) else np.eye(dim)[:1]
    offsets = normals @ witness + draw(st.lists(st.floats(0.0, 1.0), min_size=len(normals), max_size=len(normals)))
    return ls.Polytope(normals, offsets, witness)
