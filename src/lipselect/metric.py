"""Sampled metric spaces, ball queries, and maximal-separation machinery.

A :class:`SampledMetricSpace` is the finite stand-in for a metric space
``(M, d)``: an ordered list of point identifiers together with an exact
metric oracle, either a norm on stored coordinates (``l1``, ``l2``,
``linf``) or an explicit symmetric distance matrix.  On top of it this
module builds maximal ``r``-separations by a deterministic greedy scan and
the nested separation hierarchy with radii ``r_n = 2^-(n-1)``, and measures
density of a subset through its covering radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    IdentifierError,
    PreconditionError,
    SchemaError,
    as_finite_array,
)

PointId = Hashable

METRIC_KINDS = ("l1", "l2", "linf", "explicit")
_NORM_ORDS = {"l1": 1, "l2": 2, "linf": np.inf}


class SampledMetricSpace:
    """Finite point sample with an exact metric oracle.

    Parameters
    ----------
    point_ids : sequence of hashables
        Identifiers in a fixed order.  The order is load-bearing: the greedy
        separation scan visits points in this order.
    metric_kind : str
        One of ``"l1"``, ``"l2"``, ``"linf"``, ``"explicit"``.
    coords : mapping point_id -> vector, or array of shape (n, m)
        Required for the norm-based kinds.
    explicit_distances : array of shape (n, n)
        Required iff ``metric_kind == "explicit"``.  Must be symmetric with
        zero diagonal and positive off-diagonal entries.
    validate_triangle : bool
        If true, exhaustively check the triangle inequality on every sampled
        triple (O(n^3); intended for explicit matrices at small n).
    """

    def __init__(
        self,
        point_ids: Sequence[PointId],
        metric_kind: str,
        coords=None,
        explicit_distances=None,
        validate_triangle: bool = False,
    ):
        ids = list(point_ids)
        if not ids:
            raise PreconditionError("a sampled metric space needs at least one point")
        if len(set(ids)) != len(ids):
            raise PreconditionError("point identifiers must be distinct")
        if metric_kind not in METRIC_KINDS:
            raise SchemaError(f"unknown metric kind {metric_kind!r}")

        self.point_ids: tuple = tuple(ids)
        self.metric_kind = metric_kind
        self._index = {a: i for i, a in enumerate(ids)}
        n = len(ids)

        if metric_kind == "explicit":
            if explicit_distances is None:
                raise ConfigurationError(
                    "metric kind 'explicit' requires a distance matrix"
                )
            mat = as_finite_array(explicit_distances, "distance matrix")
            if mat.shape != (n, n):
                raise SchemaError(
                    f"distance matrix shape {mat.shape} does not match {n} points"
                )
            if not np.array_equal(mat, mat.T):
                raise PreconditionError("explicit distance matrix must be symmetric")
            if np.any(np.diag(mat) != 0.0):
                raise PreconditionError("d(a, a) must be zero for every point")
            off = mat[~np.eye(n, dtype=bool)]
            if np.any(off <= 0.0):
                raise PreconditionError("distances between distinct points must be positive")
            self._coords = None
            self._matrix = mat
        else:
            if coords is None:
                raise ConfigurationError(
                    f"metric kind {metric_kind!r} requires point coordinates"
                )
            if isinstance(coords, Mapping):
                coords = [coords[a] for a in ids]
            self._coords = as_finite_array(coords, "point coordinates").copy()
            if self._coords.ndim != 2 or self._coords.shape[0] != n:
                raise SchemaError(f"coordinates must be {n} vectors of one dimension")
            self._matrix = None
            # distinct ids must sit at distinct locations, else d(a,b) = 0;
            # lexicographic sort reduces the check to adjacent rows
            order = np.lexsort(self._coords.T[::-1])
            sorted_rows = self._coords[order]
            clashes = np.nonzero(
                np.all(sorted_rows[1:] == sorted_rows[:-1], axis=1)
            )[0]
            if clashes.size:
                i, j = order[clashes[0]], order[clashes[0] + 1]
                raise PreconditionError(
                    f"points {ids[i]!r} and {ids[j]!r} share coordinates"
                )

        if validate_triangle:
            self.validate_triangle_inequality()

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.point_ids)

    def __contains__(self, a) -> bool:
        return a in self._index

    @property
    def coords(self):
        return self._coords

    @property
    def ambient_dim(self):
        return None if self._coords is None else self._coords.shape[1]

    def index(self, a) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise IdentifierError(f"unknown point id {a!r}") from None

    def keyed_entries(self, doc: dict, what: str) -> list:
        """The entries of a document object keyed by ``str(point id)``, in
        point order.  Anything but an object, a key that names no point, or
        a point without a key is a :class:`SchemaError`."""
        if not isinstance(doc, dict):
            raise SchemaError(f"{what} must be an object keyed by point")
        keys = [str(a) for a in self.point_ids]
        unknown = sorted(set(doc) - set(keys))
        missing = [k for k in keys if k not in doc]
        if unknown or missing:
            raise SchemaError(f"{what} names unknown points {unknown[:3]} or lacks points {missing[:3]}")
        return [doc[k] for k in keys]

    def coordinate(self, a) -> np.ndarray:
        if self._coords is None:
            raise ConfigurationError("explicit-metric spaces carry no coordinates")
        return self._coords[self.index(a)]

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix (computed once, then cached)."""
        if self._matrix is None:
            ord_ = _NORM_ORDS[self.metric_kind]
            n = len(self.point_ids)
            mat = np.empty((n, n))
            for i in range(n):
                mat[i] = np.linalg.norm(self._coords - self._coords[i], ord=ord_, axis=1)
                mat[i, i] = 0.0
            self._matrix = mat
        return self._matrix

    def distance(self, a, b) -> float:
        return float(self.distance_matrix()[self.index(a), self.index(b)])

    def distance_row(self, a) -> np.ndarray:
        return self.distance_matrix()[self.index(a)]

    def diameter(self) -> float:
        return float(self.distance_matrix().max())

    def ball_points(self, center, r: float, closed: bool = True) -> tuple:
        """Sampled points of the ball around ``center``: ``d <= r`` when
        closed, ``d < r`` when open.  Always contains the center."""
        if r <= 0:
            raise PreconditionError("ball radius must be positive")
        row = self.distance_row(center)
        mask = row <= r if closed else row < r
        return tuple(a for a, hit in zip(self.point_ids, mask) if hit)

    def validate_triangle_inequality(self, slack: float = 0.0) -> None:
        """Exhaustive triangle check over all sampled triples."""
        mat = self.distance_matrix()
        n = mat.shape[0]
        for k in range(n):
            bound = mat[:, k, None] + mat[None, k, :]
            if np.any(mat > bound + slack):
                i, j = np.unravel_index(np.argmax(mat - bound), mat.shape)
                raise PreconditionError(
                    f"triangle inequality fails on triple "
                    f"({self.point_ids[i]!r}, {self.point_ids[k]!r}, {self.point_ids[j]!r})"
                )

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SampledMetricSpace":
        """Ingest ``{"metric": ..., "points": [[...], ...]}`` or
        ``{"metric": "explicit", "distances": [[...], ...]}``.  Point ids
        are the row indices."""
        if not isinstance(doc, dict) or "metric" not in doc:
            raise SchemaError("space document must be an object with a 'metric' key")
        kind = doc["metric"]
        if kind == "explicit":
            if not isinstance(doc.get("distances"), list):
                raise SchemaError("explicit metric requires a 'distances' matrix")
            mat = doc["distances"]
            return cls(range(len(mat)), "explicit", explicit_distances=mat)
        if not isinstance(doc.get("points"), list):
            raise SchemaError("coordinate metric requires a 'points' array")
        pts = doc["points"]
        return cls(range(len(pts)), kind, coords=pts)

    def to_json_dict(self) -> dict:
        if self.metric_kind == "explicit":
            return {
                "metric": "explicit",
                "distances": [[float(x) for x in row] for row in self.distance_matrix()],
            }
        return {
            "metric": self.metric_kind,
            "points": [[float(x) for x in row] for row in self._coords],
        }


def greedy_maximal_separation(space: SampledMetricSpace, r: float, seed: Iterable = ()) -> tuple:
    """Maximal ``r``-separation containing ``seed``, by greedy scan.

    Points are visited in the fixed index order of the space; a point joins
    when its distance to every current member is >= r.  The result is
    returned sorted by index, is an r-separation, and is maximal: every
    point of the space lies within distance < r of some member.
    """
    if not r > 0:
        raise PreconditionError("separation radius must be positive")
    seed_rows = sorted(space.index(a) for a in set(seed))
    mat = space.distance_matrix()
    for pos, i in enumerate(seed_rows):
        for j in seed_rows[pos + 1 :]:
            if mat[i, j] < r:
                raise PreconditionError(
                    f"seed is not an {r}-separation: "
                    f"d({space.point_ids[i]!r}, {space.point_ids[j]!r}) < r"
                )
    # min distance from each point to the current members
    n = len(space.point_ids)
    if seed_rows:
        min_dist = mat[seed_rows, :].min(axis=0)
    else:
        min_dist = np.full(n, np.inf)
    members = set(seed_rows)
    for i in range(n):
        if i in members:
            continue
        if min_dist[i] >= r:
            members.add(i)
            min_dist = np.minimum(min_dist, mat[i])
    return tuple(space.point_ids[i] for i in sorted(members))


@dataclass(frozen=True)
class SeparationRound:
    n: int
    r: float
    members: tuple


@dataclass(frozen=True)
class SeparationHierarchy:
    """Nested maximal separations ``B_1 <= B_2 <= ...`` at radii 2^-(n-1)."""

    rounds: tuple

    def members(self, n: int) -> tuple:
        return self.rounds[n - 1].members

    def to_json_dict(self) -> dict:
        return {
            "rounds": [
                {"n": rd.n, "r": rd.r, "B": list(rd.members)} for rd in self.rounds
            ]
        }


def build_separation_hierarchy(space: SampledMetricSpace, n_rounds: int) -> SeparationHierarchy:
    """Rounds ``n = 1..n_rounds`` with ``r_n = 2^-(n-1)``; each ``B_n`` is the
    greedy maximal separation seeded with ``B_{n-1}`` (``B_0`` empty).

    A maximal ``r_{n-1}``-separation is automatically an ``r_n``-separation,
    so the seeding precondition always holds.
    """
    if n_rounds < 1:
        raise PreconditionError("hierarchy needs at least one round")
    rounds = []
    prev: tuple = ()
    for n in range(1, n_rounds + 1):
        r = 2.0 ** (-(n - 1))
        members = greedy_maximal_separation(space, r, seed=prev)
        rounds.append(SeparationRound(n=n, r=r, members=members))
        prev = members
    return SeparationHierarchy(rounds=tuple(rounds))


def covering_radius(space: SampledMetricSpace, members: Iterable) -> float:
    """max over all sampled points a of min over b in ``members`` of d(a, b).

    The quantitative density surrogate: a separation is maximal iff its
    covering radius is below the separation radius.
    """
    rows = [space.index(b) for b in members]
    if not rows:
        raise PreconditionError("covering radius of an empty set is undefined")
    mat = space.distance_matrix()
    return float(mat[rows, :].min(axis=0).max())
