"""End-to-end construction of positively homogeneous right inverses.

For a full-row-rank ``T`` the pipeline is: take the openness constant
``gamma`` (the smallest singular value, so that ``gamma``-balls of the
codomain are covered by images of unit balls), sample the codomain unit
sphere, form the inverse-image correspondence over the sample, and run the
selection iteration at rate ``alpha = 1 / gamma`` starting from the
least-norm selection.  The run is the right inverse: its space is the
sphere sample, its last table tau on the sample, and tau extends
positively homogeneously (:func:`~lipselect.lipschitz.homogeneous_extension`).
The result satisfies ``T(tau(y)) = y`` on sampled rays, is exactly
homogeneous along rays, and carries the pointwise rate
``eta = 2 beta + sup ||tau||`` on rays of the final separation set, which
verification probes against the table on the neighbouring sampled rays.

Off-sample directions are evaluated through the nearest sampled direction;
the right-inverse identity there holds only against that semantics, and
verification reports those residuals separately instead of hiding them.
Verification reads the run and returns the verb's whole report body as
plain records: the run's own fields, then one record per check, each with
its pass flag and its worst value and witness, reduced from arrays over the
trial directions and scales that stay local to it.
"""

from __future__ import annotations

import numpy as np

from .convex import _matvec, _row_norms
from .correspondence import (
    LinearSurjection,
    inverse_image_correspondence,
)
from .errors import PreconditionError, SchemaError
from .iteration import IterationConfig, SelectionSequence, run_iteration
from .lipschitz import (
    homogeneous_extension,
    nearest_direction_index,
    verify_homogeneous_plip,
)
from .metric import BLOCK_ROWS, SampledMetricSpace, covering_radius, round_members

COORD_SNAP = 1e-12
# T tau(y) = y must hold to this residual; the ray rate to this slack
IDENTITY_TOL = 1e-8
PLIP_TOL = 1e-6
# the positive scalings of each dense-set direction that the checks try
RAY_SCALES = (0.5, 2.0, 10.0)


def sphere_sample(m: int, count: int, seed: int = 0, dedup_tol: float = 1e-6) -> SampledMetricSpace:
    """Deterministic sample of the unit sphere of ``R^m``, chord metric.

    ``m = 1``: the two points -1, +1.  ``m = 2``: a uniform angular grid
    (axis-aligned points snap to exact coordinates).  ``m >= 3``: seeded
    normalized Gaussian draws, deduplicated at ``dedup_tol``: a draw is
    skipped when an earlier kept direction lies within ``dedup_tol`` of it
    (:func:`_joining`).  Draws come in batches of the missing rows; a
    sample still short after ``100 * count`` draws is a
    :class:`SchemaError`.  A ``count`` whose first array cannot be
    allocated is a :class:`PreconditionError` naming ``count`` and ``m``.
    """
    if m < 1:
        raise PreconditionError("sphere dimension must be at least 1")
    if count < 2:
        raise PreconditionError("sphere sample needs at least two points")
    if m == 1:
        return SampledMetricSpace("l2", coords=np.array([[-1.0], [1.0]]))
    try:
        # the sample's first array; numpy fails at once on one larger than any address space
        first = np.arange(count) if m == 2 else np.empty((count, m))
    except (MemoryError, ValueError):
        raise PreconditionError(f"a sphere sample of count = {count} points at m = {m} does not fit in memory") from None
    if m == 2:
        angles = 2.0 * np.pi * first / count
        coords = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        coords[np.abs(coords) < COORD_SNAP] = 0.0
        coords /= np.linalg.norm(coords, axis=1)[:, None]
    else:
        rng = np.random.default_rng(seed)
        coords = first
        drawn = attempts = 0
        while drawn < count:
            # the missing rows in one draw, the same stream as one at a time
            k = min(count - drawn, 100 * count - attempts)
            if k == 0:
                raise SchemaError(
                    "could not draw enough distinct sphere directions"
                )
            attempts += k
            batch = rng.normal(size=(k, m))
            nrm = _row_norms(batch)
            batch = batch[nrm > 0.0] / nrm[nrm > 0.0, None]
            kept = batch[_joining(coords[:drawn], batch, dedup_tol)]
            coords[drawn : drawn + len(kept)] = kept
            drawn += len(kept)
    return SampledMetricSpace("l2", coords=coords)


def _joining(kept: np.ndarray, batch: np.ndarray, tol: float) -> np.ndarray:
    """Which draws of ``batch`` join the ``kept`` directions, in draw order:
    a draw is skipped when a kept direction or an earlier joining draw lies
    within ``tol`` of it.  Only pairs whose first coordinates lie within
    ``2 * tol`` are judged, found by a window search over the first
    coordinates of the kept rows and the batch in stable sorted order; they
    are judged as arrays, at most ``BLOCK_ROWS`` times the pool's rows at a
    time, by the chord ``sqrt(vecdot(gap, gap)) < tol``, bitwise the norm
    of each difference taken alone.  The draw-order rule loops only over
    draws that lie near an earlier draw of the batch and near no kept
    direction."""
    pool = np.concatenate([kept, batch])
    n0 = len(kept)
    order = np.argsort(pool[:, 0], kind="stable")
    first = pool[order, 0]
    lo = np.searchsorted(first, batch[:, 0] - 2.0 * tol, "left")
    # a window is empty, not negative, when no chord can be below tol
    counts = np.maximum(np.searchsorted(first, batch[:, 0] + 2.0 * tol, "right") - lo, 0)
    ends = np.cumsum(counts)
    # pair t of draw i has the partner order[t - shift[i]] in its window
    shift = ends - counts - lo
    keep = np.ones(len(pool), dtype=bool)
    start = 0
    while start < len(batch):
        base = ends[start] - counts[start]
        stop = int(np.searchsorted(ends, base + BLOCK_ROWS * len(pool), "right"))
        draw = np.repeat(np.arange(n0 + start, n0 + stop), counts[start:stop])
        partner = order[np.arange(base, ends[stop - 1]) - np.repeat(shift[start:stop], counts[start:stop])]
        earlier = partner < draw
        draw, partner = draw[earlier], partner[earlier]
        gap = pool[partner] - pool[draw]
        near = np.sqrt(np.vecdot(gap, gap)) < tol
        draw, partner = draw[near], partner[near]
        keep[draw[partner < n0]] = False
        inner = (partner >= n0) & keep[draw]
        draw, partner = draw[inner], partner[inner]
        # in draw order: a draw near a joining earlier one is skipped
        heads = np.flatnonzero(np.diff(draw, prepend=-1))
        for i, j, k in zip(draw[heads].tolist(), heads.tolist(), heads[1:].tolist() + [len(draw)]):
            keep[i] = not keep[partner[j:k]].any()
        start = stop
    return keep[n0:]


def build_right_inverse(
    T: LinearSurjection,
    beta: float,
    sphere_count: int = 64,
    seed: int = 0,
    rounds: int = 4,
) -> SelectionSequence:
    """Run the whole pipeline: the selection iteration over the inverse
    images of a sphere sample, at rate ``alpha = 1 / gamma`` from the
    least-norm selection.  The returned run is the right inverse: its space
    is the sphere sample, ``tables[-1]`` is tau on it and ``tables[0]`` the
    least-norm start.  ``beta`` must exceed ``1 / gamma``; the iteration
    keeps the default ``epsilon``, ``delta_min`` and ``tol``."""
    alpha = 1.0 / T.sigma_min
    if not beta > alpha:
        raise PreconditionError(
            f"beta must exceed 1/gamma = {alpha}; got beta = {beta}"
        )
    phi = inverse_image_correspondence(T, sphere_sample(T.codomain_dim, sphere_count, seed=seed))
    # the flats' bases are the least-norm solutions
    return run_iteration(phi, phi.canonical_selection(), IterationConfig(alpha=alpha, beta=beta, rounds=rounds))


def _worst(name: str, values, directions, scales) -> dict:
    """The first largest of ``values`` in row-major order, as ``name``, with
    the direction of its row and the scale of its column as the witness."""
    at = np.unravel_index(np.argmax(values), values.shape)
    return {name: float(values[at]), "witness": {"direction": int(directions[at[0]]), "scale": float(scales[at[-1]])}}


def verify_right_inverse(T: LinearSurjection, seq: SelectionSequence) -> dict:
    """The ``bartle-graves`` report body of the run ``seq`` of
    :func:`build_right_inverse`: the run's own fields, then four checks over
    the rays of the certified dense set, the final separation members, at
    the scales ``RAY_SCALES``.

    The fields are ``gamma``, ``alpha``, ``beta``, ``eta = 2 beta + sup
    ||tau||``, ``tail_bound``, ``pinv_gap`` (the largest move of tau away
    from the least-norm start) and ``dense_set``.  The checks are (i)
    ``T(tau(y)) = y`` at sampled directions and their scalings, plus
    off-sample midpoint directions checked against the nearest-direction
    semantics; (ii) positive homogeneity ``tau(scale * y) = scale *
    tau(y)`` compared bitwise; (iii) the pointwise rate ``eta`` on
    dense-set rays, probed on neighbouring sampled rays; (iv) the covering
    radius of the dense set against its separation radius.  Then come
    ``checks`` (one record per check), ``off_sample_identity_residuals``
    (reported, not judged) and ``passed``.  A ``beta`` so large that
    ``eta`` overflows is a :class:`PreconditionError`, raised before any
    check runs.
    """
    space, values, beta = seq.space, seq.tables[-1], seq.config.beta
    eta = 2.0 * beta + float(np.linalg.norm(values, axis=1).max())
    if not np.isfinite(eta):
        raise PreconditionError(f"beta = {beta} makes eta = 2 beta + sup ||tau|| overflow to {eta}")
    dense_set = round_members(seq.entry, seq.config.rounds)
    scales = np.concatenate([[1.0], RAY_SCALES])
    coords = space.coords
    # tau on every (direction, scale) point in one call, in kernel blocks;
    # column c is y = scales[c] d_k, the homogeneity columns are c >= 1
    ys = scales[:, None] * coords[dense_set, None]
    taus = homogeneous_extension(values, space, ys.reshape(-1, ys.shape[-1])).reshape(ys.shape[:2] + values.shape[1:])
    residuals = _row_norms(_matvec(T.matrix, taus) - ys)
    rhs = scales[1:, None] * taus[:, :1]
    # scaling by powers of two is exact for every direction; other scales
    # are exact whenever the scaled coordinates are themselves exactly
    # representable, which the exact-coordinate directions guarantee.
    # Remaining entries stay within a few ulps and are reported in worst_diff.
    judged = (np.frexp(scales[1:])[0] == 0.5) | np.all(coords[dense_set] == np.round(coords[dense_set]), axis=1)[:, None]

    i = np.arange(min(8, len(coords)))
    # asymmetric blend: decisively nearest to coords[i], no ties; in one
    # dimension every unit blend is a sampled direction and is dropped
    blend = 0.75 * coords[i] + 0.25 * coords[(i + 1) % len(coords)]
    nrm = _row_norms(blend)
    u = blend[nrm >= 1e-12] / nrm[nrm >= 1e-12, None]
    u = u[~np.any(np.all(coords == u[:, None], axis=2), axis=1)]
    nearest = nearest_direction_index(space, u)
    tu = _matvec(T.matrix, homogeneous_extension(values, space, u))
    # the extension returns ||u|| * table[k], so T maps it to
    # ||u|| * (nearest sampled direction), not to u itself
    semantic = _row_norms(tu - _row_norms(u)[:, None] * coords[nearest])

    checks = {
        "right_inverse_identity": {
            "passed": bool(np.all(residuals <= IDENTITY_TOL) and np.all(semantic <= IDENTITY_TOL)),
            **_worst("worst_residual", residuals, dense_set, scales),
        },
        "positive_homogeneity": {
            "passed": bool(np.all(np.all(taus[:, 1:] == rhs, axis=2) | ~judged)),
            **_worst("worst_diff", np.max(np.abs(taus[:, 1:] - rhs), axis=2), dense_set, scales[1:]),
        },
        "ray_plip": verify_homogeneous_plip(
            values, space, beta, rays=[(k, scales[1:]) for k in dense_set.tolist()], tol=PLIP_TOL
        ),
    }
    cover = covering_radius(space, dense_set)
    bound = 2.0 ** (-(seq.rounds[-1].n - 1))
    checks["dense_covering"] = {"passed": cover < bound, "covering_radius": cover, "bound": bound}
    return {
        "gamma": T.sigma_min,
        "alpha": seq.config.alpha,
        "beta": beta,
        "eta": eta,
        "tail_bound": seq.tail_bound,
        "pinv_gap": float(np.linalg.norm(values - seq.tables[0], axis=1).max()),
        "dense_set": dense_set.tolist(),
        "checks": checks,
        "off_sample_identity_residuals": [
            {"direction": d, "nearest_index": k, "identity_residual": r, "semantic_residual": s}
            for d, k, r, s in zip(u.tolist(), nearest.tolist(), _row_norms(tu - u).tolist(), semantic.tolist())
        ],
        "passed": all(check["passed"] for check in checks.values()),
    }
