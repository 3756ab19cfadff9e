"""Sampled metric spaces, their distance kernel, and maximal-separation machinery.

A :class:`SampledMetricSpace` is the finite stand-in for a metric space
``(M, d)``: ``N`` points, each named by its row ``0..N-1``, together with
an exact metric oracle, either a norm on stored coordinates (``l1``, ``l2``,
``linf``) or an explicit distance matrix, which must be a metric.  Every
distance a coordinate space serves comes from one kernel, ``_fold``: as
rows kept from their first read, so a run costs memory for the rows of
separation members, not ``N^2``, or, in a pass that reads each row once,
as blocks written into one buffer that the pass reuses.  It also folds the
value deviations of ratio profiles, while other value norms stay with
``_row_norms``.  On top
of it this module builds maximal ``r``-separations by a deterministic
greedy scan and the nested separation hierarchy with radii
``r_n = 2^-(n-1)``, held as one column (the round at which each point
joins), and measures density of a subset through its covering
radius.  A sampled map on a space is its table, one row per point, which
:func:`as_table` checks where it enters from outside.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    PreconditionError,
    SchemaError,
    as_finite_array,
)

METRIC_KINDS = ("l1", "l2", "linf", "explicit")
BLOCK_ROWS = 64  # points per kernel call where a batch is reduced block by block


class SampledMetricSpace:
    """Finite point sample with an exact metric oracle.

    A point is its row index ``0..N-1``.  The order is load-bearing: the
    greedy separation scan visits points in row order.

    Parameters
    ----------
    metric_kind : str
        One of ``"l1"``, ``"l2"``, ``"linf"``, ``"explicit"``.
    coords : array of shape (N, m)
        Required for the norm-based kinds; row ``i`` locates point ``i``.
    explicit_distances : array of shape (N, N)
        Required iff ``metric_kind == "explicit"``.  Must be symmetric with
        zero diagonal and positive off-diagonal entries.
    """

    def __init__(self, metric_kind: str, coords=None, explicit_distances=None):
        explicit = metric_kind == "explicit"
        given = explicit_distances if explicit else coords
        if given is not None and len(given) == 0:
            raise PreconditionError("a sampled metric space needs at least one point")
        if metric_kind not in METRIC_KINDS:
            raise SchemaError(f"unknown metric kind {metric_kind!r}")
        if given is None:
            needs = "a distance matrix" if explicit else "point coordinates"
            raise SchemaError(f"metric kind {metric_kind!r} requires {needs}")

        self.metric_kind = metric_kind
        self._n = n = len(given)

        if explicit:
            mat = as_finite_array(given, "distance matrix")
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
            self._coords = self._columns = None
            # a read-only view: rows are shared, the caller's array stays writable
            self._matrix = mat.view()
            self._matrix.flags.writeable = False
            self._rows = dict(enumerate(self._matrix))
        else:
            self._coords = as_finite_array(given, "point coordinates").copy()
            if self._coords.ndim != 2 or not self._coords.shape[1]:
                raise SchemaError(f"coordinates must be {n} nonempty vectors of one dimension")
            self._matrix = None
            self._rows = {}
            self._columns = np.ascontiguousarray(self._coords.T)
            # distinct points must sit at distinct locations, else d(a,b) = 0;
            # lexicographic sort reduces the check to adjacent rows
            order = np.lexsort(self._coords.T[::-1])
            sorted_rows = self._coords[order]
            clashes = np.nonzero(
                np.all(sorted_rows[1:] == sorted_rows[:-1], axis=1)
            )[0]
            if clashes.size:
                i, j = order[clashes[0]], order[clashes[0] + 1]
                raise PreconditionError(
                    f"points {int(i)} and {int(j)} share coordinates"
                )

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def coords(self):
        return self._coords

    @property
    def ambient_dim(self):
        return None if self._coords is None else self._coords.shape[1]

    def index(self, a) -> int:
        """``a`` as a row: an integer in ``0..N-1``, so that a negative row
        never wraps around; anything else is a :class:`SchemaError`."""
        if isinstance(a, (int, np.integer)) and not isinstance(a, bool) and 0 <= a < self._n:
            return int(a)
        raise SchemaError(f"unknown point id {a!r}")

    def key_row(self, key):
        """The row a document key names, or None: ``str(key)`` must be
        ``str(row)`` itself, so ``"05"``, ``" 1"``, ``"1.0"``, ``True`` and
        non-ASCII digits name no row."""
        return self._keys.get(str(key))

    @cached_property
    def _keys(self) -> dict:
        """``str(row) -> row`` for every row, in row order."""
        return {str(a): a for a in range(self._n)}

    def keyed_entries(self, doc: dict, what: str) -> list:
        """The entries of a document object keyed by ``str(row)``, in row
        order.  Anything but an object, a key that names no point, or a
        point without a key is a :class:`SchemaError`."""
        if not isinstance(doc, dict):
            raise SchemaError(f"{what} must be an object keyed by point")
        keys = self._keys
        if doc.keys() == keys.keys():
            return list(map(doc.__getitem__, keys))
        unknown = sorted(doc.keys() - keys.keys())
        missing = [k for k in keys if k not in doc]
        raise SchemaError(f"{what} names unknown points {unknown[:3]} or lacks points {missing[:3]}")

    def distances_from(self, points, out=None) -> np.ndarray:
        """The ``(P, N)`` block of distances from ``P`` points, in ambient
        coordinates, to every sample point (:func:`_fold`), written into
        ``out`` when it is given, else into a new array."""
        if self._columns is None:
            raise SchemaError("explicit-metric spaces carry no coordinates")
        return _fold(self._columns, np.asarray(points, dtype=float), self.metric_kind, out)

    def _kept(self, rows: list) -> list:
        """The read-only rows of ``rows``, in their order; a coordinate
        space computes those it has not kept in one kernel call, and keeps
        them."""
        if todo := [a for a in dict.fromkeys(rows) if a not in self._rows]:
            block = self.distances_from(self._coords[todo])
            block.flags.writeable = False
            self._rows.update(zip(todo, block))
        return [self._rows[a] for a in rows]

    def _block(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, a ``(len(rows), N)`` buffer, filled with the distance
        rows of ``rows``: rows of the explicit matrix, or one kernel call.
        Nothing is kept, for passes that read each row once."""
        if self._matrix is not None:
            return np.take(self._matrix, rows, axis=0, out=out)
        return self.distances_from(self._coords[rows], out)

    def rows(self, members) -> np.ndarray:
        """A new ``(k, N)`` block of the rows of ``members``, in their order
        (:meth:`_kept`).  The members are checked as one array: integers in
        ``0..N-1``, and no bool hidden among them, else :meth:`index` names
        the first that is not."""
        at = np.asarray(members)
        if not (
            at.ndim == 1
            and (at.dtype.kind in "iu" or not at.size)
            # a negative member wraps around to a large unsigned one
            and (at.astype(np.uint64) < self._n).all()
            and (isinstance(members, np.ndarray) or {bool, np.bool_}.isdisjoint(map(type, members)))
        ):
            at = [self.index(a) for a in members]
        return np.array(self._kept(np.asarray(at, dtype=np.intp).tolist())).reshape(-1, self._n)

    def _among(self, rows: np.ndarray) -> np.ndarray:
        """The new ``(k, k)`` block of distances among ``rows``: a sub-block
        of the explicit matrix, or one kernel call on the rows' own columns,
        bitwise the entries of their full rows; nothing is kept."""
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, rows)]
        return _fold(self._columns[:, rows], self._coords[rows], self.metric_kind)

    def nearest_distances(self) -> np.ndarray:
        """Distance from each point to its nearest other point (inf for a
        lone point), reduced over blocks of ``BLOCK_ROWS`` rows read into
        one buffer (:meth:`_block`), so none is kept."""
        out = np.empty(self._n)
        buffer = np.empty((min(BLOCK_ROWS, self._n), self._n))
        for start in range(0, self._n, BLOCK_ROWS):
            rows = np.arange(start, min(start + BLOCK_ROWS, self._n))
            block = self._block(rows, buffer[: len(rows)])
            block[rows - start, rows] = np.inf
            block.min(axis=1, out=out[start : start + len(rows)])
        return out

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise distance matrix: the explicit one, or a new ``(N, N)``
        kernel block (for the triangle check) that leaves the row cache alone."""
        return self._matrix if self._matrix is not None else self.distances_from(self._coords)

    def validate_triangle_inequality(self) -> None:
        """Check ``d(i, j) <= d(i, k) + d(k, j)`` over all sampled triples,
        in ``O(N^3)``: per block of ``BLOCK_ROWS`` rows ``i``, the least
        ``d(i, k) + d(k, j)`` over ``k`` against the columns ``j >= i`` (the
        matrix is symmetric), one ``k`` at a time.  The first failing pair
        in row order raises a :class:`PreconditionError`."""
        mat = self.distance_matrix()
        for start in range(0, len(mat), BLOCK_ROWS):
            block = mat[start : start + BLOCK_ROWS, start:]
            through = np.full(block.shape, np.inf)
            for k in range(len(mat)):
                np.minimum(through, mat[start : start + BLOCK_ROWS, k, None] + mat[k, start:], out=through)
            if np.any(block > through):
                i, j = np.argwhere(block > through)[0] + start
                k = np.argmin(mat[i] + mat[:, j])
                raise PreconditionError(f"triangle inequality fails on triple ({i}, {k}, {j}): d({i}, {j}) > d({i}, {k}) + d({k}, {j})")

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SampledMetricSpace":
        """Ingest ``{"metric": ..., "points": [[...], ...]}`` or
        ``{"metric": "explicit", "distances": [[...], ...]}``; an explicit
        matrix must satisfy the triangle inequality."""
        if not isinstance(doc, dict) or "metric" not in doc:
            raise SchemaError("space document must be an object with a 'metric' key")
        kind = doc["metric"]
        if kind == "explicit":
            if not isinstance(doc.get("distances"), list):
                raise SchemaError("explicit metric requires a 'distances' matrix")
            space = cls("explicit", explicit_distances=doc["distances"])
            space.validate_triangle_inequality()
            return space
        if not isinstance(doc.get("points"), list):
            raise SchemaError("coordinate metric requires a 'points' array")
        pts = doc["points"]
        return cls(kind, coords=pts)


def _fold(columns: np.ndarray, points: np.ndarray, kind: str = "l2", out=None) -> np.ndarray:
    """The distance kernel: the ``(P, N)`` block whose entry ``(p, i)`` is
    the ``kind`` norm of ``columns[:, i] - points[p]``, accumulated in
    ``out`` when it is given, else in a new array.  Column differences,
    squared (``l2``) or absolute, are made in one step array and folded
    left to right by ``+`` (``maximum`` for ``linf``), then one ``sqrt``
    for ``l2``.  Below 8 columns that is bitwise ``np.linalg.norm(...,
    axis=-1)``; from 8 the fold defines it."""
    acc = np.empty((len(points), columns.shape[1])) if out is None else out
    if not len(columns):
        acc.fill(0.0)
    step = np.empty_like(acc) if len(columns) > 1 else acc
    for j, col in enumerate(columns):
        term = step if j else acc
        np.subtract(col, points[:, j, None], out=term)
        (np.square if kind == "l2" else np.abs)(term, out=term)
        if j:
            (np.maximum if kind == "linf" else np.add)(acc, term, out=acc)
    return np.sqrt(acc, out=acc) if kind == "l2" else acc


def as_table(values, space: SampledMetricSpace, dim=None, stacked: bool = False) -> np.ndarray:
    """The ``(N, d)`` table of a sampled map given as an array with one row
    per point, or, ``stacked``, the ``(T, N, d)`` stack of a list of such
    tables, read as one block.  Scalar values count as 1-vectors; every
    entry must be finite.  When ``dim`` is given, rows of any other width
    are a :class:`SchemaError`."""
    table = as_finite_array(values, "selection table")
    if table.ndim == 1 + stacked:
        table = table[..., None]
    if table.ndim != 2 + stacked or table.shape[stacked] != len(space):
        raise SchemaError(
            f"a table needs one row per point ({len(space)}), got shape {table.shape[stacked:]}"
        )
    if dim is not None and table.shape[-1] != dim:
        raise SchemaError(f"table rows have width {table.shape[-1]}, expected {dim}")
    return table


def _scan(space: SampledMetricSpace, min_dist: np.ndarray, r: float) -> list:
    """The greedy scan: points in row order join while their distance to
    every member, ``min_dist``, is >= r; returns the rows that joined and
    leaves ``min_dist`` measured to them too.  It runs in blocks of the next
    ``BLOCK_ROWS`` or fewer candidates (points with ``min_dist >= r``): the
    row-order greedy inside a block reads their mutual distances
    (:meth:`SampledMetricSpace._among`), then the joiners' rows are kept in
    one kernel call and lower ``min_dist``, one row at a time.  A
    candidate's distance to itself is 0 < r, so each is decided in its
    block."""
    joined, start = [], 0
    while (cand := start + np.flatnonzero(min_dist[start:] >= r)[:BLOCK_ROWS]).size:
        # the first candidate joins; each next one still far from every joiner
        far = space._among(cand) >= r
        picked, alive = [0], far[0].copy()
        while alive.any():
            picked.append(j := int(alive.argmax()))
            alive &= far[j]
        block = cand[picked].tolist()
        for row in space._kept(block):
            np.minimum(min_dist, row, out=min_dist)
        joined += block
        start = int(cand[-1]) + 1
    return joined


def greedy_maximal_separation(space: SampledMetricSpace, r: float) -> tuple:
    """Maximal ``r``-separation by greedy scan, as sorted rows: points join
    in row order when their distance to every current member is >= r, so
    the result is an r-separation and maximal, every point of the space
    within distance < r of some member."""
    if not r > 0:
        raise PreconditionError("separation radius must be positive")
    return tuple(_scan(space, np.full(len(space), np.inf), r))


def build_separation_hierarchy(space: SampledMetricSpace, n_rounds: int) -> np.ndarray:
    """The nested maximal separations ``B_1 <= ... <= B_n_rounds`` at radii
    ``r_n = 2^-(n-1)``, as the ``(N,)`` column ``entry``: the round at which
    each point joins, 0 if it never does (:func:`round_members` reads
    ``B_n`` off it).  Each ``B_n`` is the greedy maximal separation seeded
    with ``B_{n-1}``: one scan per round over the distances to the members
    so far.  A maximal ``r_{n-1}``-separation is an ``r_n``-separation, so
    the seed needs no check.  A round whose radius underflows to 0 is a
    :class:`PreconditionError`."""
    if n_rounds < 1:
        raise PreconditionError("hierarchy needs at least one round")
    if not math.ldexp(1.0, -(n_rounds - 1)) > 0.0:
        raise PreconditionError(f"the radius 2^-{n_rounds - 1} of round {n_rounds} underflows to 0")
    entry = np.zeros(len(space), dtype=np.intp)
    min_dist = np.full(len(space), np.inf)
    for n in range(1, n_rounds + 1):
        entry[_scan(space, min_dist, 2.0 ** (-(n - 1)))] = n
    return entry


def round_members(entry: np.ndarray, n: int) -> np.ndarray:
    """``B_n`` of a hierarchy column, as sorted rows."""
    return np.flatnonzero((entry >= 1) & (entry <= n))


def covering_radius(space: SampledMetricSpace, members: Iterable) -> float:
    """max over all sampled points a of min over b in ``members`` of d(a, b).

    The quantitative density surrogate: a separation is maximal iff its
    covering radius is below the separation radius.
    """
    block = space.rows(members)
    if not len(block):
        raise PreconditionError("covering radius of an empty set is undefined")
    return float(block.min(axis=0).max())
