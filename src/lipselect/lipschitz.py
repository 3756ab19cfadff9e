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
sampled on a unit sphere (nearest sampled direction off-sample), which
takes one vector or a ``(P, m)`` batch mapped row by row, its
pointwise-rate verification on rays (all probes of a ray point evaluated in
one batch), the Cantor function as an adversarial test corpus, and a
chain-surrogate check that pointwise bounds on a grid of an interval
upgrade to a global Lipschitz bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    ParameterError,
    PreconditionError,
    ResolutionError,
    ShapeError,
)
from .iteration import TableLike, as_table
from .metric import PointId, SampledMetricSpace

DEFAULT_INFORMATIVE_COUNT = 3


@dataclass(frozen=True)
class PlipProfile:
    """Ratio table for one base point, radii sorted decreasing.

    ``estimate`` is the max ratio over the smallest informative radii (the
    small-radius limsup surrogate); ``informative`` flags each row.
    """

    point: PointId
    rows: Tuple[Tuple[float, float], ...]
    informative: Tuple[bool, ...]
    estimate: float

    def ratio(self, r: float) -> float:
        for radius, ratio in self.rows:
            if radius == r:
                return ratio
        raise KeyError(r)


def plip_profile(
    values: TableLike,
    space: SampledMetricSpace,
    b: PointId,
    radii: Sequence[float],
    informative_count: int = DEFAULT_INFORMATIVE_COUNT,
    closed: bool = True,
) -> PlipProfile:
    """Ratio profile of a sampled map at ``b`` over the given radii.

    ``radii`` must be strictly decreasing and positive.  Balls are closed by
    default (open with ``closed=False``); a ball holding only ``b`` yields
    ratio 0 and is not informative.  With no informative radius at all the
    sample cannot resolve the base point and a :class:`ResolutionError` is
    raised.
    """
    radii = [float(r) for r in radii]
    if not radii or not all(r > 0 for r in radii):
        raise PreconditionError("radii must be positive")
    if any(r1 <= r2 for r1, r2 in zip(radii, radii[1:])):
        raise PreconditionError("radii must be strictly decreasing")
    if informative_count < 1:
        raise ParameterError("informative_count must be at least 1")
    table = as_table(values, space)
    b_index = space.index(b)
    dist_row = space.distance_row(b)
    deviations = np.linalg.norm(table - table[b_index], axis=1)
    rows: List[Tuple[float, float]] = []
    informative: List[bool] = []
    for r in radii:
        mask = dist_row <= r if closed else dist_row < r
        rows.append((r, float(deviations[mask].max()) / r))
        mask_other = mask.copy()
        mask_other[b_index] = False
        informative.append(bool(mask_other.any()))
    if not any(informative):
        raise ResolutionError(
            f"no ball around {b!r} in the radius schedule contains another point"
        )
    informative_rows = [row for row, ok in zip(rows, informative) if ok]
    smallest = informative_rows[-informative_count:]
    return PlipProfile(
        point=b,
        rows=tuple(rows),
        informative=tuple(informative),
        estimate=max(ratio for _, ratio in smallest),
    )


def open_closed_consistency(
    values: TableLike,
    space: SampledMetricSpace,
    b: PointId,
    radii: Sequence[float],
    informative_count: int = DEFAULT_INFORMATIVE_COUNT,
    rel_tol: float = 0.05,
) -> bool:
    """Do open-ball and closed-ball estimates agree at small radii?

    Individual rows may differ when a radius sits exactly on a sampled
    distance; the surrogate of ball-type irrelevance is agreement of the
    small-radius estimates within ``rel_tol`` scaled by their magnitude.
    """
    closed_est = plip_profile(values, space, b, radii, informative_count, closed=True).estimate
    open_est = plip_profile(values, space, b, radii, informative_count, closed=False).estimate
    return abs(closed_est - open_est) <= rel_tol * max(1.0, closed_est, open_est)


def default_radii(space: SampledMetricSpace, levels: int = 4) -> Tuple[float, ...]:
    """Geometric schedule (factor 1/2) anchored at the sample's fill
    distance, the largest nearest-neighbor gap."""
    mat = space.distance_matrix()
    if len(space.point_ids) < 2:
        raise ResolutionError("radius schedule needs at least two points")
    off = mat + np.diag(np.full(mat.shape[0], np.inf))
    fill = float(off.min(axis=1).max())
    return tuple(fill * 2.0 ** (levels - 1 - k) for k in range(levels))


# -- positively homogeneous extension ---------------------------------------


@dataclass(frozen=True)
class SphereTable:
    """A function sampled on unit directions: rows of ``directions`` are the
    sampled unit vectors, rows of ``values`` the images."""

    directions: np.ndarray
    values: np.ndarray
    _space: Optional[SampledMetricSpace] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "directions", np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.directions.ndim != 2 or self.values.ndim != 2:
            raise ShapeError("sphere table needs 2-d direction and value arrays")
        if self.directions.shape[0] != self.values.shape[0]:
            raise ShapeError("direction and value counts differ")
        if self.directions.shape[0]:
            norms = np.linalg.norm(self.directions, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-9:
                raise PreconditionError("sphere directions must be unit vectors")

    def __len__(self) -> int:
        return self.directions.shape[0]

    @classmethod
    def from_table(cls, space: SampledMetricSpace, values: TableLike) -> "SphereTable":
        """The table of ``values`` on the points of a coordinate space; a
        chord-metric (``l2``) space is kept as the table's :meth:`space`."""
        table = cls(directions=space.coords.copy(), values=as_table(values, space).copy())
        if space.metric_kind == "l2":
            object.__setattr__(table, "_space", space)
        return table

    def space(self) -> SampledMetricSpace:
        """The directions under the chord metric: the space the table was
        built from, else one built on first use."""
        if self._space is None:
            object.__setattr__(self, "_space", SampledMetricSpace(range(len(self)), "l2", coords=self.directions))
        return self._space

    def sup_norm(self) -> float:
        """Largest value norm over the sample (uniform norm of the table)."""
        if not len(self):
            raise ConfigurationError("sup norm of an empty sphere table")
        return float(np.linalg.norm(self.values, axis=1).max())


def _vectors(table: SphereTable, z) -> np.ndarray:
    """``z`` as one vector or a ``(P, m)`` batch in the table's dimension."""
    if not len(table):
        raise ConfigurationError("sphere table is empty")
    z = np.asarray(z, dtype=float)
    m = table.directions.shape[1]
    if z.ndim not in (1, 2) or z.shape[-1] != m:
        raise ShapeError(f"argument must be a vector or a (P, {m}) batch, got shape {z.shape}")
    return z


def nearest_direction_index(table: SphereTable, u):
    """Index of the sampled direction closest (chord distance) to ``u``, one
    per row for a ``(P, m)`` batch; ties resolve to the first index,
    keeping evaluation deterministic."""
    u = _vectors(table, u)
    k = np.argmin(np.linalg.norm(table.directions - u[..., None, :], axis=-1), axis=-1)
    return int(k) if u.ndim == 1 else k


def homogeneous_extension(table: SphereTable, z) -> np.ndarray:
    """``||z|| * f(z / ||z||)`` with ``f`` read off the nearest sampled
    direction, and 0 at the origin; a ``(P, m)`` batch maps row by row.

    Norms are row dot products, bitwise equal to ``np.linalg.norm`` of each
    row alone (a sum of squares along the axis is not)."""
    z = _vectors(table, z)
    nrm = np.sqrt(np.vecdot(z, z))[..., None]
    k = nearest_direction_index(table, z / np.where(nrm > 0.0, nrm, 1.0))
    return np.where(nrm > 0.0, nrm * table.values[k], 0.0)


@dataclass(frozen=True)
class RayPlipRow:
    direction_index: int
    scale: float
    sphere_estimate: float
    extension_estimate: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class HomogeneousPlipReport:
    sup_norm: float
    bound: float
    rows: Tuple[RayPlipRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def verify_homogeneous_plip(
    table: SphereTable,
    beta: float,
    rays: Sequence[Tuple[int, Sequence[float]]],
    tol: float = 1e-9,
    informative_count: int = DEFAULT_INFORMATIVE_COUNT,
) -> HomogeneousPlipReport:
    """Check the extension's pointwise rate along rays of sampled directions.

    For each ray ``(k, scales)`` the sphere-side estimate of the table at
    direction ``k`` must not exceed ``beta + tol``, and at every ray point
    ``scale * direction`` the extension's estimate must stay within
    ``2 beta + sup_norm + tol``.  Probe points combine radial and axis
    displacements at radii small enough to stay inside the direction's
    nearest-neighbor cell, where the guarantee applies.  Each of the three
    probe levels gives one closed-ball ratio, at the largest distance the
    level realizes, so every probe of the level (the radial one in
    particular) is in the ball.
    """
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    if informative_count < 1:
        raise ParameterError("informative_count must be at least 1")
    sup = table.sup_norm()
    bound = 2.0 * beta + sup + tol
    directions = table.directions
    m = directions.shape[1]
    sphere_space = table.space()
    mat = sphere_space.distance_matrix()
    gap = float(np.min(mat, where=~np.eye(len(table), dtype=bool), initial=np.inf))
    levels = (2.0 ** -np.arange(3.0))[:, None, None]

    rows: List[RayPlipRow] = []
    for k, scales in rays:
        k = int(k)
        others = np.sort(mat[k][mat[k] > 0])
        if others.size:
            sphere_radii = sorted({float(r) for r in others[:informative_count]}, reverse=True)
            sphere_est = plip_profile(
                table.values, sphere_space, sphere_space.point_ids[k], sphere_radii, informative_count
            ).estimate
        else:
            sphere_est = 0.0
        # radial displacements realize the norm variation exactly; axis
        # displacements probe the transversal behavior
        probe_dirs = np.vstack([directions[k], -directions[k], np.eye(m), -np.eye(m)])
        for scale in scales:
            scale = float(scale)
            if scale <= 0:
                raise ParameterError("ray scales must be positive")
            z = scale * directions[k]
            base_r = float(np.linalg.norm(z)) * min(0.125, gap / 4.0)
            probes = z + (base_r * levels) * probe_dirs
            values = homogeneous_extension(table, np.vstack([z, probes.reshape(-1, m)]))
            dist = np.linalg.norm(probes - z, axis=-1).reshape(-1)
            dev = np.linalg.norm(values[1:] - values[0], axis=-1)
            # a probe that rounds onto z holds no information
            radii = np.array(sorted({float(r) for r in dist.reshape(3, -1).max(axis=1) if r > 0}, reverse=True))
            if not radii.size:
                raise ResolutionError(f"every probe of ray point {scale} * direction {k} rounds onto it")
            ratios = np.where(dist <= radii[:, None], dev, 0.0).max(axis=1) / radii
            ext_est = float(ratios[-informative_count:].max())
            rows.append(
                RayPlipRow(
                    direction_index=k,
                    scale=scale,
                    sphere_estimate=float(sphere_est),
                    extension_estimate=ext_est,
                    bound=bound,
                    passed=bool(sphere_est <= beta + tol and ext_est <= bound),
                )
            )
    return HomogeneousPlipReport(sup_norm=sup, bound=bound, rows=tuple(rows))


# -- Cantor corpus -----------------------------------------------------------


def cantor_function(x: float, depth: int = 40) -> float:
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


def cantor_plateaus(max_depth: int) -> List[Tuple[int, float, float]]:
    """Open intervals removed by the middle-third construction, as
    ``(depth, left, right)`` triples, depth ascending then left to right.

    At depth ``k`` the removed intervals are ``(a + 3^-k, a + 2 * 3^-k)``
    where ``a`` ranges over sums of digits 0/2 at places ``1..k-1``.
    """
    if max_depth < 1:
        raise ParameterError("max_depth must be at least 1")
    out: List[Tuple[int, float, float]] = []
    for k in range(1, max_depth + 1):
        lefts = [0.0]
        for place in range(1, k):
            lefts = [a + d * 3.0 ** (-place) for a in lefts for d in (0.0, 2.0)]
        for a in sorted(lefts):
            out.append((k, a + 3.0 ** (-k), a + 2.0 * 3.0 ** (-k)))
    return out


# -- global Lipschitz upgrade -------------------------------------------------


@dataclass(frozen=True)
class LipschitzUpgradeReport:
    passed: bool
    worst_pair: Tuple[PointId, PointId]
    worst_violation: float
    worst_ratio: float
    hypothesis_held: bool
    hypothesis_worst: Tuple[PointId, float, float]


def global_lipschitz_upgrade_check(
    values: TableLike,
    space: SampledMetricSpace,
    alpha: float,
    r0: float,
    tol: float = 1e-9,
) -> LipschitzUpgradeReport:
    """Chain surrogate on a grid of an interval: pointwise ratio bounds at
    all sampled radii up to ``r0`` must yield the global pairwise bound
    ``||f(x) - f(y)|| <= (alpha + tol) |x - y|`` (per-step slacks telescope
    into the tolerance term).

    Both halves are evaluated and reported: ``hypothesis_held`` records the
    pointwise side, ``passed`` the global pairwise side with the worst
    violating pair.
    """
    if space.coords is None or space.ambient_dim != 1:
        raise ShapeError("upgrade check expects a 1-d coordinate sample")
    if alpha < 0:
        raise ParameterError("alpha must be nonnegative")
    order = np.argsort(space.coords[:, 0])
    gaps = np.diff(space.coords[order, 0])
    if gaps.size == 0:
        raise PreconditionError("grid needs at least two points")
    max_gap = float(gaps.max())
    if not max_gap < r0:
        raise PreconditionError(
            f"grid spacing {max_gap} must be below the base radius {r0}"
        )
    values_matrix = as_table(values, space)
    ids = space.point_ids
    n = len(ids)
    mat = space.distance_matrix()

    # sampled radii: dyadic from r0 plus every realized adjacent gap, so the
    # pointwise hypothesis covers each chain step exactly
    min_gap = float(gaps.min())
    radii_set = {float(g) for g in gaps}
    r = float(r0)
    while r >= min_gap:
        radii_set.add(r)
        r /= 2.0
    radii = sorted(radii_set, reverse=True)
    hypothesis_held = True
    hyp_worst = (ids[0], radii[0], 0.0)
    hyp_excess = -np.inf
    for i in range(n):
        dev = np.linalg.norm(values_matrix - values_matrix[i], axis=1)
        order = np.argsort(mat[i])
        sorted_d = mat[i][order]
        cummax = np.maximum.accumulate(dev[order])
        for r in radii:
            idx = int(np.searchsorted(sorted_d, r, side="right")) - 1
            ratio = float(cummax[idx]) / r
            if ratio - alpha > hyp_excess:
                hyp_excess = ratio - alpha
                hyp_worst = (ids[i], r, ratio)
            if ratio > alpha + tol + 1e-12:
                hypothesis_held = False

    worst_violation = -np.inf
    worst_pair = (ids[0], ids[0])
    worst_ratio = 0.0
    for i in range(n):
        dev = np.linalg.norm(values_matrix - values_matrix[i], axis=1)
        violation = dev - (alpha + tol) * mat[i]
        violation[i] = -np.inf
        j = int(np.argmax(violation))
        if violation[j] > worst_violation:
            worst_violation = float(violation[j])
            worst_pair = (ids[i], ids[j])
            worst_ratio = float(dev[j] / mat[i, j])
    return LipschitzUpgradeReport(
        passed=bool(worst_violation <= 1e-12),
        worst_pair=worst_pair,
        worst_violation=worst_violation,
        worst_ratio=worst_ratio,
        hypothesis_held=hypothesis_held,
        hypothesis_worst=hyp_worst,
    )
