"""Convex-valued correspondences over sampled metric spaces.

A :class:`Correspondence` materializes a set-valued map as a table: one
convex body per row of the space, all in a common ambient dimension, each
body a row of its kind's stack.  The quantitative hypothesis the selection
engine relies on is the lower pointwise Lipschitz property: for an anchor
``b`` and a member ``y`` of its value, every other value must meet the
closed ball of radius ``rate * d(b, a)`` around ``y``.  When it holds,
projecting the anchor value onto each body yields a selection that is
anchored at ``y`` and strongly pointwise Lipschitz at ``b`` -- the
constructive substitute for an abstract selection theorem, exact for the
supported body classes.

Bodies are stacked once per kind and shape when the correspondence is
built (a document is parsed straight into the stacks by
:func:`~lipselect.convex.stacks_from_json`), so
:meth:`Correspondence.project` and :meth:`Correspondence.distances` take
one query per ``(point, query)`` pair, in one kernel call per stack; a
whole table is measured against the values as the pairs ``(i, row i)``.
:func:`anchored_selection` projects the values of all of a round's anchors
onto the points of their balls in one such call.

The inverse-image correspondence of a full-row-rank linear map realizes
this structure with parallel affine flats.
"""

from __future__ import annotations

import math

import numpy as np

from .convex import AffineFlat, _matvec, stacks_from_json
from .errors import (
    PreconditionError,
    RateError,
    SchemaError,
    as_finite_array,
)
from .metric import SampledMetricSpace

RANK_TOLERANCE = 1e-12


class LinearSurjection:
    """Full-row-rank matrix ``m x n`` (``m <= n``) viewed as a surjection.

    The smallest singular value ``sigma_min`` is the rank certificate;
    construction fails if it is not safely positive.  It is also the
    openness constant ``gamma``: for Euclidean norms on both sides,
    ``gamma * B_codomain`` is the largest ball inside the image of the unit
    ball, and the anchored-selection rate of the right inverse is
    ``1 / gamma``.
    """

    def __init__(self, matrix):
        self.matrix = as_finite_array(matrix, "matrix")
        if self.matrix.ndim != 2:
            raise SchemaError("a linear surjection is given by a 2-d matrix")
        m, n = self.matrix.shape
        if m > n:
            raise SchemaError(
                f"matrix has more rows ({m}) than columns ({n}); cannot be surjective"
            )
        u, s, vt = np.linalg.svd(self.matrix)
        self.sigma_min = float(s[-1])
        if not self.sigma_min > RANK_TOLERANCE:
            raise PreconditionError(
                f"smallest singular value {self.sigma_min:.3e} is below {RANK_TOLERANCE:.0e}"
            )
        self._pinv = np.linalg.pinv(self.matrix)
        # rows m..n-1 of V^T span the kernel and are orthonormal
        self.kernel_basis = vt[m:].copy()

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LinearSurjection":
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise SchemaError("surjection document must carry a 'matrix'")
        return cls(doc["matrix"])


class Correspondence:
    """Table-valued correspondence: the value at row ``i`` of the space is a
    convex body, all in the ambient dimension the bodies share.  The bodies
    are kept as stacks, one per kind and shape, and each is a row of its
    stack."""

    def __init__(self, space: SampledMetricSpace, stacks):
        """``stacks``: ``(rows, kind, stack)`` triples whose rows partition
        the rows of ``space``, as :func:`~lipselect.convex.stacks_from_json`
        returns them."""
        dims = {stack[0].shape[-1] for _, _, stack in stacks}
        if len(dims) != 1:
            raise SchemaError("bodies do not share one ambient dimension")
        self.space = space
        self.ambient_dim = dims.pop()
        # (row indices, kind, stack) per kind and shape, in order of first
        # row; and the stack of each row, and the row's place in it
        self._stacks = stacks
        self._stack_of = np.empty(len(space), dtype=np.intp)
        self._place = np.empty(len(space), dtype=np.intp)
        for s, (rows, _, _) in enumerate(stacks):
            self._stack_of[rows] = s
            self._place[rows] = np.arange(len(rows))

    def canonical_selection(self) -> np.ndarray:
        """The ``(N, d)`` table of each body's canonical point: the default
        starting selection."""
        out = np.empty((len(self.space), self.ambient_dim))
        for rows, kind, stack in self._stacks:
            out[rows] = stack[kind._CANONICAL]
        return out

    def _kernel(self, kernel: str, rows, ys) -> np.ndarray:
        """``kernel`` of each stack on the pairs ``(rows[i], ys[i])``, one
        call per stack on the rows it holds."""
        rows = np.asarray(rows, dtype=np.intp)
        ys = np.asarray(ys, dtype=float)
        if ys.shape != (len(rows), self.ambient_dim):
            raise SchemaError(f"expected {len(rows)} queries of dimension {self.ambient_dim}, got shape {ys.shape}")
        out = np.empty(ys.shape if kernel == "project" else len(rows))
        stack_of = self._stack_of[rows]
        for s, (_, kind, stack) in enumerate(self._stacks):
            at = np.flatnonzero(stack_of == s)
            if at.size:
                place = self._place[rows[at]]
                out[at] = getattr(kind, kernel)(tuple(p[place] for p in stack), ys[at])
        return out

    def project(self, rows, ys) -> np.ndarray:
        """Projection of ``ys[i]`` onto the body at point ``rows[i]``."""
        return self._kernel("project", rows, ys)

    def distances(self, rows, ys) -> np.ndarray:
        """Distance from ``ys[i]`` to the body at point ``rows[i]``."""
        return self._kernel("distance_to", rows, ys)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Correspondence":
        if not isinstance(doc, dict) or "space" not in doc or "bodies" not in doc:
            raise SchemaError("correspondence document needs 'space' and 'bodies'")
        space = SampledMetricSpace.from_json_dict(doc["space"])
        entries = space.keyed_entries(doc["bodies"], "bodies table")
        return cls(space, stacks_from_json(entries))


def inverse_image_correspondence(T: LinearSurjection, sample: SampledMetricSpace) -> Correspondence:
    """Correspondence ``y -> {x : T x = y}`` over a coordinate sample of the
    codomain.  Each value is the affine flat through the least-norm solution
    with the kernel of ``T`` as direction subspace, built as one stack that
    shares the kernel basis."""
    if sample.coords is None:
        raise SchemaError("inverse images need a coordinate sample of the codomain")
    if sample.ambient_dim != T.codomain_dim:
        raise SchemaError(
            f"sample lives in dimension {sample.ambient_dim}, codomain is "
            f"{T.codomain_dim}"
        )
    n = len(sample)
    # the least-norm solution of each sampled y, bitwise T._pinv @ y
    bases = _matvec(np.broadcast_to(T._pinv, (n,) + T._pinv.shape), sample.coords)
    stack = AffineFlat.stack(bases, T.kernel_basis[None])
    return Correspondence(sample, [(np.arange(n), AffineFlat, stack)])


class AnchoredPairs:
    """Anchored selections at several anchors, held over ``(anchor, row)``
    pairs in order of anchor, then row: pair ``p`` is the point ``rows[p]``
    at distance ``dist[p]`` from ``anchors[owner[p]]``, with the anchored
    value ``values[p]``."""

    def __init__(self, anchors: np.ndarray, owner: np.ndarray, rows: np.ndarray, dist: np.ndarray, values: np.ndarray):
        self.anchors = anchors
        self.owner = owner
        self.rows = rows
        self.dist = dist
        self.values = values


def anchored_selection(
    phi: Correspondence,
    anchors,
    ys,
    rate: float,
    radius: float = math.inf,
    tol: float = 1e-9,
) -> AnchoredPairs:
    """Anchored selections ``g_j(a) = project(phi(a), ys[j])`` at every
    anchor ``anchors[j]``, on the points of its open ``radius``-ball.

    Because projection realizes the distance, ``||g_j(a) - ys[j]||`` equals
    ``dist(phi(a), ys[j])``, so ``g_j`` is strongly pointwise Lipschitz at
    its anchor with the given rate exactly when the lower pointwise
    Lipschitz inequality holds on the ball; a violation raises
    :class:`RateError` naming the first failing anchor and its worst point.
    Each ``ys[j]`` must lie within ``tol`` of its anchor's value, and the
    anchor's own entry is pinned to it.
    """
    anchors = np.array([phi.space.index(b) for b in anchors], dtype=np.intp)
    ys = np.asarray(ys, dtype=float)
    outside = np.flatnonzero(~(phi.distances(anchors, ys) <= tol))
    if outside.size:
        raise PreconditionError(f"anchor value is not in the body at {int(anchors[outside[0]])!r}")
    block = phi.space.rows(anchors)
    owner, rows = np.nonzero(block < radius)
    dist = block[owner, rows]
    values = phi.project(rows, ys[owner])
    excess = np.linalg.norm(values - ys[owner], axis=1) - rate * dist
    failing = np.flatnonzero(excess > tol)
    if failing.size:
        mine = np.flatnonzero(owner == owner[failing[0]])
        p = mine[np.argmax(excess[mine])]
        raise RateError(
            f"anchor {int(anchors[owner[p]])!r}: strong pointwise bound at rate "
            f"{rate} fails at {int(rows[p])!r} by {excess[p]:.3e}",
            witness=int(rows[p]),
            excess=excess[p],
        )
    pinned = np.flatnonzero(rows == anchors[owner])
    values[pinned] = ys[owner[pinned]]
    return AnchoredPairs(anchors, owner, rows, dist, values)


def local_strong_selection(
    phi: Correspondence,
    b: int,
    y,
    rate: float,
    tol: float = 1e-9,
) -> np.ndarray:
    """Selection table anchored at ``(b, y)``, one row per point: the
    anchored selection of one anchor on the whole sample, so the lower
    pointwise Lipschitz inequality is checked at every point."""
    return anchored_selection(phi, [b], np.asarray(y, dtype=float)[None], rate, tol=tol).values
