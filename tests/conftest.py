from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

import lipselect as ls
from lipselect.convex import stacks_from_json
from lipselect.lipschitz import _ball_ratios
from lipselect.metric import BLOCK_ROWS


def line_space(values, metric="l2"):
    """1-d space whose point ``i`` sits at ``values[i]``."""
    return ls.SampledMetricSpace(metric, coords=[[float(v)] for v in values])


def grid_space(n, lo=0.0, hi=1.0):
    """Uniform 1-d grid; coordinates are exact fractions."""
    step = (hi - lo) / (n - 1)
    return ls.SampledMetricSpace("l2", coords=[[lo + i * step] for i in range(n)])


def distance(space, a, b) -> float:
    """``d(a, b)``, read off the distance row of ``a``."""
    return float(space.rows([a])[0, space.index(b)])


def seeded_separation(space, r, seed=()) -> tuple:
    """The greedy maximal ``r``-separation containing the ``r``-separation
    ``seed``, as sorted rows: after the seed, points join in row order when
    they lie ``>= r`` from every member so far, one distance row at a time.
    Seeded with ``B_(n-1)`` at ``r_n = 2^-(n-1)`` it gives ``B_n``."""
    members = sorted(set(seed))
    min_dist = space.rows(members).min(axis=0, initial=np.inf)
    for a in range(len(space)):
        if min_dist[a] >= r:
            members.append(a)
            np.minimum(min_dist, space.rows([a])[0], out=min_dist)
    return tuple(sorted(members))


def least_norm(T, y) -> np.ndarray:
    """The least-norm ``x`` with ``T x = y``: the pseudoinverse product."""
    return np.linalg.pinv(T.matrix) @ np.asarray(y, dtype=float)


def sphere_table(directions, values):
    """``(values, space)``: the table ``values`` on the chord (``l2``) space
    of the unit ``directions``, in the order the sphere functions take."""
    return np.asarray(values, dtype=float), ls.SampledMetricSpace("l2", coords=directions)


def extend_one(values, space, z) -> np.ndarray:
    """The homogeneous extension at the one vector ``z``, a batch of one."""
    return ls.homogeneous_extension(values, space, np.asarray(z, dtype=float)[None])[0]


def ray_estimates(values, space, beta, rays):
    """The extension estimate at each ``(ray, scale)`` pair, rays in order
    and each ray's scales in the given order, each the worst estimate of a
    ray check on that pair alone."""
    return [
        ls.verify_homogeneous_plip(values, space, beta, [(k, (s,))])["worst_estimate"]
        for k, scales in rays for s in scales
    ]


def worst_record(name, rows, column):
    """The first row of ``rows`` whose ``column`` is largest, in row order,
    as the value ``name`` and the row's direction and scale (its first two
    entries) as the witness."""
    row = max(rows, key=lambda row: row[column])
    return {name: row[column], "witness": {"direction": row[0], "scale": row[1]}}


@pytest.fixture
def four_point_line():
    return line_space([0, 0.3, 0.6, 1.0])


def _floats(values) -> list:
    return np.asarray(values, dtype=float).tolist()


def ball_doc(center, radius):
    return {"kind": "ball", "center": _floats(center), "radius": float(radius)}


def flat_doc(base, basis=()):
    return {"kind": "flat", "base": _floats(base), "basis": _floats(basis)}


def polytope_doc(normals, offsets, witness):
    halfspaces = [{"normal": n, "offset": b} for n, b in zip(_floats(normals), _floats(offsets))]
    return {"kind": "polytope", "halfspaces": halfspaces, "witness": _floats(witness)}


def stack_of(docs):
    """``(kind, stack)`` of body documents of one kind and shape."""
    ((_, kind, stack),) = stacks_from_json(docs)
    return kind, stack


def project_one(doc, y) -> np.ndarray:
    """The projection of ``y`` onto the body of ``doc``, a stack of one."""
    kind, stack = stack_of([doc])
    return kind.project(stack, np.asarray(y, dtype=float)[None])[0]


def distance_one(doc, y) -> float:
    """The distance from ``y`` to the body of ``doc``, a stack of one."""
    kind, stack = stack_of([doc])
    return float(kind.distance_to(stack, np.asarray(y, dtype=float)[None])[0])


def correspondence(space, docs):
    """The correspondence of one body document per point of ``space``."""
    return ls.Correspondence(space, stacks_from_json(docs))


def segment_instance(n_points=201, rounds=4):
    """Inverse-image correspondence of [1 1] over a segment of codomain
    values, with the least-norm selection as the f0 table."""
    T = ls.LinearSurjection([[1.0, 1.0]])
    half = (n_points - 1) // 2
    space = ls.SampledMetricSpace("l2", coords=[[(i - half) / half] for i in range(n_points)])
    phi = ls.inverse_image_correspondence(T, space)
    f0 = np.array([least_norm(T, y) for y in space.coords])
    config = ls.IterationConfig(alpha=2.0**-0.5, beta=1.0, rounds=rounds)
    return T, phi, f0, config


def segment_document(n_points=41):
    """The correspondence document of :func:`segment_instance`: each flat
    through its least-norm solution along the kernel of [1 1]."""
    T = ls.LinearSurjection([[1.0, 1.0]])
    half = (n_points - 1) // 2
    points = [[(i - half) / half] for i in range(n_points)]
    bodies = {str(i): flat_doc(least_norm(T, y), T.kernel_basis) for i, y in enumerate(points)}
    return {"space": {"metric": "l2", "points": points}, "bodies": bodies}


def moving_ball_instance(seed, n_points=257, rounds=4, dim=2):
    """Ball-valued correspondence over a 1-d segment, built from its body
    documents: centers and radii move linearly with Lipschitz budget
    0.15 + 0.10 <= alpha = 0.25."""
    rng = np.random.default_rng(seed)
    space = ls.SampledMetricSpace("l2", coords=[[i / (n_points - 1)] for i in range(n_points)])
    c0 = rng.normal(size=dim)
    v = rng.normal(size=dim)
    v *= 0.15 / np.linalg.norm(v)
    rho0 = float(rng.uniform(0.3, 0.5))
    w = float(rng.uniform(-0.1, 0.1))
    centers = [c0 + v * (i / (n_points - 1)) for i in range(n_points)]
    docs = [ball_doc(c, rho0 + w * (i / (n_points - 1))) for i, c in enumerate(centers)]
    config = ls.IterationConfig(alpha=0.25, beta=1.25, rounds=rounds)
    return correspondence(space, docs), np.array(centers), config


COORD = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def mixed_bodies(draw, dim, normal=COORD):
    """The document of a ball, a flat of rank 0..dim, or a bounded polytope
    with 2 to 4 halfspaces in ``R^dim`` whose normals have ``normal``
    coordinates; the bodies of a list rarely share a shape."""
    vector = st.lists(COORD, min_size=dim, max_size=dim).map(np.array)
    kind = draw(st.sampled_from(["ball", "flat", "polytope"]))
    if kind == "ball":
        return ball_doc(draw(vector), draw(st.floats(0.1, 2.0)))
    if kind == "flat":
        rank = draw(st.integers(0, dim))
        q, _ = np.linalg.qr(draw(st.lists(vector, min_size=dim, max_size=dim).map(np.array)) + 3.0 * np.eye(dim))
        return flat_doc(draw(vector), q.T[:rank])
    witness = draw(vector)
    normals = np.array(draw(st.lists(st.lists(normal, min_size=dim, max_size=dim), min_size=2, max_size=4)))
    normals = normals[np.linalg.norm(normals, axis=1) > 0.1]
    normals = np.vstack([normals, np.eye(dim)[:1]]) if len(normals) else np.eye(dim)[:1]
    offsets = normals @ witness + draw(st.lists(st.floats(0.0, 1.0), min_size=len(normals), max_size=len(normals)))
    return polytope_doc(normals, offsets, witness)


# -- Cantor corpus and the global-upgrade check (acceptance criterion 7) -------


def cantor_function(x, depth=40):
    """Ternary-digit evaluation of the Cantor function, exact to 2^-depth.

    Digits of ``x`` are read until the first 1: preceding 2s become binary
    1s at halved place values, and the walk stops on the plateau value.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    if not 1 <= int(depth) <= 40:
        raise ValueError("depth must lie in 1..40")
    if x == 1.0:
        return 1.0
    result = 0.0
    scale = 0.5
    t = x
    for _ in range(int(depth)):
        t *= 3.0
        digit = min(int(t), 2)
        if digit == 1:
            return result + scale
        if digit == 2:
            result += scale
        scale *= 0.5
        t -= digit
    return result


def cantor_plateaus(max_depth):
    """Open intervals removed by the middle-third construction, as
    ``(depth, left, right)`` triples, depth ascending then left to right.

    At depth ``k`` the removed intervals are ``(a + 3^-k, a + 2 * 3^-k)``
    where ``a`` ranges over sums of digits 0/2 at places ``1..k-1``.
    """
    if max_depth < 1:
        raise ls.PreconditionError("max_depth must be at least 1")
    out = []
    for k in range(1, max_depth + 1):
        lefts = [0.0]
        for place in range(1, k):
            lefts = [a + d * 3.0 ** (-place) for a in lefts for d in (0.0, 2.0)]
        for a in sorted(lefts):
            out.append((k, a + 3.0 ** (-k), a + 2.0 * 3.0 ** (-k)))
    return out


def global_lipschitz_upgrade_check(values, space, alpha, r0, tol=1e-9):
    """Chain surrogate on a grid of an interval: pointwise ratio bounds at
    all sampled radii up to ``r0`` must yield the global pairwise bound
    ``||f(x) - f(y)|| <= (alpha + tol) |x - y|`` (per-step slacks telescope
    into the tolerance term).

    Both halves are evaluated and reported: ``hypothesis_held`` records the
    pointwise side, with its first largest excess ``hypothesis_worst`` as
    ``(point, radius, ratio)``; ``passed`` the global pairwise side, with
    the worst violating pair, its violation and its ratio.
    """
    if space.coords is None or space.ambient_dim != 1:
        raise ls.SchemaError("upgrade check expects a 1-d coordinate sample")
    if alpha < 0:
        raise ls.PreconditionError("alpha must be nonnegative")
    order = np.argsort(space.coords[:, 0])
    gaps = np.diff(space.coords[order, 0])
    if gaps.size == 0:
        raise ls.PreconditionError("grid needs at least two points")
    max_gap = float(gaps.max())
    if not max_gap < r0:
        raise ls.PreconditionError(f"grid spacing {max_gap} must be below the base radius {r0}")
    values_matrix = ls.as_table(values, space)
    n = len(space)

    # sampled radii: dyadic from r0 plus every realized adjacent gap, so the
    # pointwise hypothesis covers each chain step exactly
    min_gap = float(gaps.min())
    radii_set = {float(g) for g in gaps}
    r = float(r0)
    while r >= min_gap:
        radii_set.add(r)
        r /= 2.0
    radii = np.array(sorted(radii_set, reverse=True))
    ratios = np.empty((n, radii.size))
    worst_violation = -np.inf
    worst_pair = (0, 0)
    worst_ratio = 0.0
    buffer = np.empty((min(BLOCK_ROWS, n), n))
    # blocks of BLOCK_ROWS base points, each row read once and not kept
    for start in range(0, n, BLOCK_ROWS):
        rows = np.arange(start, min(start + BLOCK_ROWS, n))
        dist = space._block(rows, buffer[: len(rows)])
        dev = np.linalg.norm(values_matrix - values_matrix[rows, None], axis=-1)
        # the base is among the points; its deviation 0 changes no ratio
        ratios[rows] = _ball_ratios(dist, dev, radii)[0]
        violation = dev - (alpha + tol) * dist
        violation[rows - start, rows] = -np.inf
        # the first largest violation in row order
        i, j = np.unravel_index(np.argmax(violation), violation.shape)
        if violation[i, j] > worst_violation:
            worst_violation = float(violation[i, j])
            worst_pair = (start + int(i), int(j))
            worst_ratio = float(dev[i, j] / dist[i, j])
    # the first largest excess in point-then-radius order is the witness
    i, j = np.unravel_index(np.argmax(ratios - alpha), ratios.shape)
    return SimpleNamespace(
        passed=bool(worst_violation <= 1e-12),
        worst_pair=worst_pair,
        worst_violation=worst_violation,
        worst_ratio=worst_ratio,
        hypothesis_held=not bool(np.any(ratios > alpha + tol + 1e-12)),
        hypothesis_worst=(int(i), float(radii[j]), float(ratios[i, j])),
    )
