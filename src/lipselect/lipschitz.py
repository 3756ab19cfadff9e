"""Pointwise Lipschitz profiling and the homogeneous-extension checks.

The pointwise Lipschitz constant of a sampled map at a base point is a
small-radius limsup; on a finite sample it is estimated from the ratios

    ratio(b, r) = max{ ||f(b) - f(a)|| : d(a, b) <= r } / r

over a decreasing radius schedule, keeping the smallest few radii whose
balls are informative (contain a point other than the base).  The caveat is
deliberate: no finite sample certifies a limsup, but the construction's
guarantees hold for all radii below a known threshold, which is what the
schedules target.

The module also houses the positively homogeneous extension of a function
sampled on a unit sphere, a table of values on the unit directions of a
chord (``l2``) space, taken as arrays in ``plip_profile``'s order (off-sample,
the nearest sampled direction by the sample's distance kernel; norms from
``convex._row_norms``), which maps a ``(P, m)`` batch row by row, and its
pointwise-rate verification on rays (probes on neighbouring sampled rays,
read off the table, for all ``(ray, scale)`` pairs in one array pass that
reports its worst estimate and witness as one plain record).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .convex import _row_norms
from .errors import PreconditionError
from .metric import BLOCK_ROWS, SampledMetricSpace, _fold, as_table

# the estimate is the max ratio over this many smallest informative radii
INFORMATIVE_COUNT = 3
RADIUS_LEVELS = 4


class PlipProfiles:
    """Ratio profiles as columns: row ``p`` of ``ratios`` and
    ``informative`` belongs to base point ``points[p]``, column ``j`` to
    ``radii[j]`` (decreasing).  ``estimates[p]`` is the max ratio over the
    smallest informative radii of row ``p`` (the small-radius limsup
    surrogate)."""

    def __init__(self, points: np.ndarray, radii: np.ndarray, ratios: np.ndarray, informative: np.ndarray,
                 estimates: np.ndarray):
        self.points = points
        self.radii = radii
        self.ratios = ratios
        self.informative = informative
        self.estimates = estimates


def _ball_ratios(dist, dev, radii, closed=True):
    """Per radius ``r``: ``max{dev : dist <= r} / r`` (``dist < r`` when
    ``closed`` is false) and whether the ball holds a given point.  The
    points exclude the base, which every ball holds with deviation 0.
    Points run along the last axis of ``dist`` and ``dev``, radii along the
    last axis of ``radii``; leading axes broadcast.  One radius at a time,
    the ball is a mask and ``dev`` times the mask, in two buffers reused
    across the radii; the max skips the NaN of ``inf * False``."""
    ratios = np.empty(np.broadcast_shapes(dist.shape[:-1], radii.shape[:-1]) + radii.shape[-1:])
    informative = np.empty(ratios.shape, dtype=bool)
    inside = np.empty(np.broadcast_shapes(dist.shape, radii.shape[:-1] + (1,)), dtype=bool)
    masked = np.empty(inside.shape)
    with np.errstate(invalid="ignore"):
        for j in range(radii.shape[-1]):
            (np.less_equal if closed else np.less)(dist, radii[..., j, None], out=inside)
            np.fmax.reduce(np.multiply(dev, inside, out=masked), axis=-1, initial=0.0, out=ratios[..., j])
            np.any(inside, axis=-1, out=informative[..., j])
    return np.divide(ratios, radii, out=ratios), informative


def plip_profile(
    values: np.ndarray,
    space: SampledMetricSpace,
    points,
    radii: Sequence[float],
    closed: bool = True,
) -> PlipProfiles:
    """Ratio profiles of a sampled map at the base ``points`` over the given
    radii, computed over blocks of ``BLOCK_ROWS`` points.  Each block's
    distance rows are read into one buffer and not kept
    (:meth:`SampledMetricSpace._block`), and its value deviations come from
    the distance kernel, folded over the value columns into another.

    ``radii`` must be strictly decreasing and positive.  Balls are closed by
    default (open with ``closed=False``); a ball holding only its base
    yields ratio 0 and is not informative.  A base point with no
    informative radius at all cannot be resolved by the sample: the first
    such point, in the order given, raises a :class:`PreconditionError`.
    The first base point whose ratios overflow to ``inf`` (values so far
    apart that a squared deviation, or its ratio, does) raises a
    :class:`PreconditionError`.
    """
    radii = np.array([float(r) for r in radii])
    if not radii.size or not np.all(radii > 0):
        raise PreconditionError("radii must be positive")
    if np.any(radii[:-1] <= radii[1:]):
        raise PreconditionError("radii must be strictly decreasing")
    table = as_table(values, space)
    points = np.array([space.index(a) for a in points], dtype=np.intp)
    ratios = np.empty((len(points), len(radii)))
    informative = np.empty(ratios.shape, dtype=bool)
    columns = np.ascontiguousarray(table.T)
    dist, dev = np.empty((2, min(BLOCK_ROWS, len(points)), len(space)))
    with np.errstate(over="ignore"):
        for i in range(0, len(points), BLOCK_ROWS):
            block = points[i : i + BLOCK_ROWS]
            k = len(block)
            space._block(block, dist[:k])
            # out of every ball: the kernel counts the base itself, as deviation 0
            dist[np.arange(k), block] = np.inf
            _fold(columns, table[block], out=dev[:k])
            ratios[i : i + k], informative[i : i + k] = _ball_ratios(dist[:k], dev[:k], radii, closed)
    finite = np.isfinite(ratios).all(axis=1)
    if not finite.all():
        a = int(points[np.argmin(finite)])
        raise PreconditionError(f"the ratios at {a!r} overflow: its values lie too far apart for the radii")
    resolved = informative.any(axis=1)
    if not resolved.all():
        a = int(points[np.argmin(resolved)])
        raise PreconditionError(f"no ball around {a!r} in the radius schedule contains another point")
    # the INFORMATIVE_COUNT smallest informative radii of each row
    smallest = informative & (np.cumsum(informative[:, ::-1], axis=1)[:, ::-1] <= INFORMATIVE_COUNT)
    estimates = np.max(ratios, axis=1, where=smallest, initial=0.0)
    return PlipProfiles(points, radii, ratios, informative, estimates)


def default_radii(space: SampledMetricSpace) -> Tuple[float, ...]:
    """Geometric schedule of ``RADIUS_LEVELS`` radii (factor 1/2)
    anchored at the sample's fill distance, the largest nearest-neighbor
    gap."""
    if len(space) < 2:
        raise PreconditionError("radius schedule needs at least two points")
    fill = float(space.nearest_distances().max())
    return tuple(fill * 2.0**k for k in reversed(range(RADIUS_LEVELS)))


# -- positively homogeneous extension ---------------------------------------


def nearest_direction_index(space: SampledMetricSpace, u: np.ndarray) -> np.ndarray:
    """Index of the sampled direction of ``space`` closest (chord distance)
    to each row of the ``(P, m)`` batch ``u``, read off kernel blocks of
    ``BLOCK_ROWS`` rows; ties resolve to the first index, keeping evaluation
    deterministic.  Each bitwise-distinct row is searched once (rows sorted
    by their bits)."""
    bits = np.ascontiguousarray(u).view(np.uint64)
    order = np.lexsort(bits.T)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
    rows = bits[order[first]].view(float)
    k = np.empty(len(rows), dtype=np.intp)
    block = np.empty((min(BLOCK_ROWS, len(rows)), len(space)))
    for i in range(0, len(rows), BLOCK_ROWS):
        chunk = rows[i : i + BLOCK_ROWS]
        np.argmin(space.distances_from(chunk, block[: len(chunk)]), axis=1, out=k[i : i + len(chunk)])
    nearest = np.empty(len(order), dtype=np.intp)
    nearest[order] = k[np.cumsum(first) - 1]
    return nearest


def homogeneous_extension(values: np.ndarray, space: SampledMetricSpace, z: np.ndarray) -> np.ndarray:
    """``||z|| * f(z / ||z||)`` at each row of the ``(P, m)`` batch ``z``,
    with ``f`` the table ``values`` on the unit directions of ``space`` read
    off the nearest sampled direction, and 0 at the origin.  Norms come
    from :func:`~lipselect.convex._row_norms`, finite for every finite row."""
    nrm = _row_norms(z)[..., None]
    k = nearest_direction_index(space, z / np.where(nrm > 0.0, nrm, 1.0))
    return np.where(nrm > 0.0, nrm * values[k], 0.0)


def ray_scales(scales) -> np.ndarray:
    """``scales`` as a float array; every scale must be positive and finite,
    and there must be one at least: a check over no ray point would pass
    having checked nothing."""
    scales = np.array(scales, dtype=float)
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise PreconditionError("ray scales must be positive and finite")
    if not scales.size:
        raise PreconditionError("the trial set is empty: no ray scale to check")
    return scales


def verify_homogeneous_plip(
    values: np.ndarray,
    space: SampledMetricSpace,
    beta: float,
    rays: Sequence[Tuple[int, Sequence[float]]],
    tol: float = 1e-9,
) -> dict:
    """Check the pointwise rate of the extension of ``values``, a table on
    the unit directions of ``space``, along rays of sampled directions.

    For each ray ``(k, scales)`` the sphere-side estimate at direction ``k``
    must not exceed ``beta + tol``, and at every ray point ``z = s d_k`` the
    extension's estimate must stay within ``eta = 2 beta + sup + tol``,
    ``sup`` the largest row norm of ``values``.
    The rings of ``k`` are its at most ``INFORMATIVE_COUNT`` smallest
    distinct chord distances, the directions on them its neighbours; the
    sphere-side estimate is the closed-ball ratio profile over the rings.
    Around ``z`` the probes are sampled rays ``s' d_j``, ``j`` being ``k``
    or a neighbour and ``s'`` one of ``s (1 - rho), s, s (1 + rho)`` with
    ``rho = min(1/8, gap/4)``, where the extension is the table lookup
    ``s' f_j``.  Each ring, and the radial probes ``j = k``, gives one
    closed ball, at the largest distance its probes realize.

    This is the derivation of ``eta``: for every probe
    ``||s' f_j - s f_k|| <= |s' - s| sup + s ||f_j - f_k||`` and
    ``s ||d_j - d_k|| <= 2 ||s' d_j - s d_k||``, so no ratio exceeds
    ``sup + 2 sphere_estimate``.  A table that passes the sphere side
    misses the bound by ``tol`` at most; one that jumps between neighbours
    fails it.

    Returns the record ``{"passed", "bound", "worst_estimate", "witness"}``:
    ``bound`` is ``eta`` plus ``tol``, and the witness is the direction and
    scale of the first largest extension estimate, rays in order and each
    ray's scales in the given order.  No ray point at all is a
    :class:`PreconditionError`.
    """
    if beta < 0:
        raise PreconditionError("beta must be nonnegative")
    ks = np.array([int(k) for k, _ in rays], dtype=int)
    scale = ray_scales([s for _, scales in rays for s in scales])
    ray = np.repeat(np.arange(len(ks)), [len(scales) for _, scales in rays])
    sup = float(np.linalg.norm(values, axis=1).max())
    bound = 2.0 * beta + sup + tol
    directions = space.coords
    gap = float(space.nearest_distances().min())
    rho = min(0.125, gap / 4.0)

    # rings: each ray's at most INFORMATIVE_COUNT smallest positive
    # distances, inf where there are fewer; neighbours: within the largest
    block = space.rows(ks)
    rings = np.where(block > 0, block, np.inf)
    rings.partition(range(min(INFORMATIVE_COUNT, block.shape[1])), axis=1)
    rings = rings[:, :INFORMATIVE_COUNT].copy()
    row, nbr = np.nonzero((block > 0) & (block <= np.max(rings, axis=1, where=np.isfinite(rings), initial=0.0)[:, None]))
    # probe columns: k, then its neighbours, padded with k (a repeated
    # radial probe changes no ball); ``ring`` is each column's distance
    counts = np.bincount(row, minlength=len(ks))
    cols = np.repeat(ks[:, None], 1 + counts.max(initial=0), axis=1)
    cols[row, 1 + np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)] = nbr
    ring = np.take_along_axis(block, cols, axis=1)
    del block  # the (R, N) rows are not read again; free them before the probes
    sphere_dev = np.linalg.norm(values[cols] - values[ks, None], axis=-1)
    sphere_est = _ball_ratios(ring, sphere_dev, rings)[0].max(axis=1, initial=0.0)[ray]

    # (P, 3, columns) probes s' d_j - z and values s' f_j - s f_k, each
    # one array subtracted in place; the probe at z itself is 0 in both and
    # changes no ratio
    steps = (scale[:, None] * np.array([1.0 - rho, 1.0, 1.0 + rho]))[:, :, None, None]
    dist = steps * directions[cols[ray]][:, None]
    dist -= (scale[:, None] * directions[ks[ray]])[:, None, None]
    dist = _row_norms(dist)
    dev = steps * values[cols[ray]][:, None]
    dev -= (scale[:, None] * values[ks[ray]])[:, None, None]
    dev = _row_norms(dev)
    # one ball per ring, the radial one (distance 0) first; a ring with no
    # probe away from z gives radius 0 and no ball
    masks = ring[ray, None, :] == np.concatenate([np.zeros((len(ks), 1)), rings], axis=1)[ray, :, None]
    radii = np.max(np.where(masks, dist.max(axis=1)[:, None, :], 0.0), axis=-1)
    ball = radii > 0
    if not ball.any(axis=1).all():
        p = int(np.argmin(ball.any(axis=1)))
        raise PreconditionError(f"every probe of ray point {scale[p]} * direction {ks[ray[p]]} rounds onto it")
    probes = (len(ray), 3 * cols.shape[1])
    ratios = _ball_ratios(dist.reshape(probes), dev.reshape(probes), np.where(ball, radii, np.inf))[0]
    ext_est = np.max(ratios, axis=1, where=ball, initial=0.0)
    # the first largest estimate over the pairs is the witness
    p = int(np.argmax(ext_est))
    return {
        "passed": bool(np.all(sphere_est <= beta + tol) and np.all(ext_est <= bound)),
        "bound": bound,
        "worst_estimate": float(ext_est[p]),
        "witness": {"direction": int(ks[ray[p]]), "scale": float(scale[p])},
    }
