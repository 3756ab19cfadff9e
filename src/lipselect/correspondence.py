"""Convex-valued correspondences over sampled metric spaces.

A :class:`Correspondence` materializes a set-valued map as a table: one
:class:`~lipselect.convex.ConvexBody` per sampled point, all in a common
ambient dimension.  The quantitative hypothesis the selection engine relies
on is the lower pointwise Lipschitz property: for an anchor ``b`` and a
member ``y`` of its value, every other value must meet the closed ball of
radius ``rate * d(b, a)`` around ``y``.  When it holds, projecting the
anchor value onto each body yields a selection that is anchored at ``y``
and strongly pointwise Lipschitz at ``b`` -- the constructive substitute
for an abstract selection theorem, exact for the supported body classes.

Bodies are stacked once per kind and shape when the correspondence is
built, so :meth:`Correspondence.project_all` projects one point onto every
value, and :meth:`Correspondence.distances_to` measures a whole table
against the values, in one kernel call per stack.

The inverse-image correspondence of a full-row-rank linear map realizes
this structure with parallel affine flats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from .convex import AffineFlat, ConvexBody, stack_bodies, stack_key
from .errors import (
    PreconditionError,
    RankDeficiencyError,
    RateError,
    SchemaError,
    ShapeError,
    as_finite_array,
)
from .metric import PointId, SampledMetricSpace

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

    def __init__(self, matrix, rank_tol: float = RANK_TOLERANCE):
        self.matrix = as_finite_array(matrix, "matrix")
        if self.matrix.ndim != 2:
            raise ShapeError("a linear surjection is given by a 2-d matrix")
        m, n = self.matrix.shape
        if m > n:
            raise ShapeError(
                f"matrix has more rows ({m}) than columns ({n}); cannot be surjective"
            )
        u, s, vt = np.linalg.svd(self.matrix)
        self.sigma_min = float(s[-1])
        self.sigma_max = float(s[0])
        if not self.sigma_min > rank_tol:
            raise RankDeficiencyError(
                f"smallest singular value {self.sigma_min:.3e} is below {rank_tol:.0e}"
            )
        self._pinv = np.linalg.pinv(self.matrix)
        # rows m..n-1 of V^T span the kernel and are orthonormal
        self._kernel_basis = vt[m:].copy()

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)

    def minimum_norm_solution(self, y) -> np.ndarray:
        """The least-norm ``x`` with ``matrix @ x = y`` (pseudoinverse)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.codomain_dim,):
            raise ShapeError(
                f"right-hand side must live in dimension {self.codomain_dim}"
            )
        return self._pinv @ y

    def kernel_basis(self) -> np.ndarray:
        return self._kernel_basis

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LinearSurjection":
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise SchemaError("surjection document must carry a 'matrix'")
        return cls(doc["matrix"])

    def to_json_dict(self) -> dict:
        return {"matrix": [[float(x) for x in row] for row in self.matrix]}


class Correspondence:
    """Table-valued correspondence: one convex body per sampled point."""

    def __init__(self, space: SampledMetricSpace, bodies: Mapping[PointId, ConvexBody], ambient_dim: int):
        missing = [a for a in space.point_ids if a not in bodies]
        if missing:
            raise PreconditionError(f"no body for point(s) {missing[:3]!r}")
        for a in space.point_ids:
            if bodies[a].dim != ambient_dim:
                raise ShapeError(
                    f"body at {a!r} has dimension {bodies[a].dim}, expected {ambient_dim}"
                )
        self.space = space
        self.bodies: Dict[PointId, ConvexBody] = {a: bodies[a] for a in space.point_ids}
        self.ambient_dim = int(ambient_dim)
        values = list(self.bodies.values())
        groups: Dict[tuple, list] = {}
        for i, body in enumerate(values):
            groups.setdefault(stack_key(body), []).append(i)
        # (row indices, kind, stack) per kind and shape, in order of first row
        self._stacks = [
            (np.array(rows), key[0], stack_bodies([values[i] for i in rows]))
            for key, rows in groups.items()
        ]

    def body(self, a) -> ConvexBody:
        self.space.index(a)  # raises IdentifierError for unknown ids
        return self.bodies[a]

    def project_all(self, y) -> np.ndarray:
        """Projection of ``y`` onto every body, one row per point in
        ``space.point_ids`` order."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.ambient_dim,):
            raise ShapeError(f"expected a vector of dimension {self.ambient_dim}, got shape {y.shape}")
        ys = np.broadcast_to(y, (len(self.space), self.ambient_dim))
        out = np.empty(ys.shape)
        for rows, kind, stack in self._stacks:
            out[rows] = kind.project_stack(stack, ys[rows])
        return out

    def distances_to(self, table) -> np.ndarray:
        """Distance from row ``i`` of the ``(N, d)`` table to the body at
        the ``i``-th point."""
        table = np.asarray(table, dtype=float)
        if table.shape != (len(self.space), self.ambient_dim):
            raise ShapeError(
                f"expected a ({len(self.space)}, {self.ambient_dim}) table, "
                f"got shape {table.shape}"
            )
        out = np.empty(len(table))
        for rows, kind, stack in self._stacks:
            out[rows] = kind.distance_stack(stack, table[rows])
        return out

    def to_json_dict(self) -> dict:
        # the space schema carries no ids, so bodies are keyed by position
        return {
            "space": self.space.to_json_dict(),
            "bodies": {
                str(i): self.bodies[a].to_json_dict()
                for i, a in enumerate(self.space.point_ids)
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Correspondence":
        if not isinstance(doc, dict) or "space" not in doc or "bodies" not in doc:
            raise SchemaError("correspondence document needs 'space' and 'bodies'")
        space = SampledMetricSpace.from_json_dict(doc["space"])
        entries = space.keyed_entries(doc["bodies"], "bodies table")
        table = {a: ConvexBody.from_json_dict(e) for a, e in zip(space.point_ids, entries)}
        dims = {b.dim for b in table.values()}
        if len(dims) != 1:
            raise SchemaError("bodies do not share one ambient dimension")
        return cls(space, table, ambient_dim=dims.pop())


def inverse_image_correspondence(T: LinearSurjection, sample: SampledMetricSpace) -> Correspondence:
    """Correspondence ``y -> {x : T x = y}`` over a coordinate sample of the
    codomain.  Each value is the affine flat through the least-norm solution
    with the kernel of ``T`` as direction subspace."""
    if sample.coords is None:
        raise ShapeError("inverse images need a coordinate sample of the codomain")
    if sample.ambient_dim != T.codomain_dim:
        raise ShapeError(
            f"sample lives in dimension {sample.ambient_dim}, codomain is "
            f"{T.codomain_dim}"
        )
    kernel = T.kernel_basis()
    bodies = {
        a: AffineFlat(T.minimum_norm_solution(sample.coordinate(a)), kernel)
        for a in sample.point_ids
    }
    return Correspondence(sample, bodies, ambient_dim=T.domain_dim)


@dataclass(frozen=True)
class LowerPtlipCheck:
    """Outcome of a lower pointwise Lipschitz verification at one anchor.

    ``slack`` is the worst value of ``dist(phi(a), y) - rate * d(b, a)``
    over the sample, attained at ``witness``; the check passes when it does
    not exceed the tolerance.
    """

    passed: bool
    rate: float
    anchor: PointId
    witness: PointId
    slack: float


def check_lower_ptlip(
    phi: Correspondence,
    b: PointId,
    y,
    rate: float,
    tol: float = 1e-9,
) -> LowerPtlipCheck:
    """Check ``dist(phi(a), y) <= rate * d(b, a) + tol`` for every sampled a.

    ``y`` must belong to ``phi(b)`` within ``tol``.
    """
    if rate < 0:
        raise PreconditionError("rate must be nonnegative")
    y = np.asarray(y, dtype=float)
    if not phi.body(b).contains(y, tol):
        raise PreconditionError(f"anchor value is not in the body at {b!r}")
    dist = phi.distances_to(np.broadcast_to(y, (len(phi.space), phi.ambient_dim)))
    slack = dist - rate * phi.space.distance_row(b)
    i = int(np.argmax(slack))
    return LowerPtlipCheck(
        passed=bool(slack[i] <= tol),
        rate=float(rate),
        anchor=b,
        witness=phi.space.point_ids[i],
        slack=float(slack[i]),
    )


def local_strong_selection(
    phi: Correspondence,
    b: PointId,
    y,
    rate: float,
    tol: float = 1e-9,
) -> np.ndarray:
    """Selection table anchored at ``(b, y)``: ``g(a) = project(phi(a), y)``,
    one row per point in ``space.point_ids`` order.

    Because projection realizes the distance, ``||g(a) - y||`` equals
    ``dist(phi(a), y)``, so the table is strongly pointwise Lipschitz at
    ``b`` with the given rate exactly when the lower pointwise Lipschitz
    inequality holds; a violation raises :class:`RateError` with the worst
    sample point.  The anchor entry is pinned to ``y`` itself.
    """
    y = np.asarray(y, dtype=float)
    if not phi.body(b).contains(y, tol):
        raise PreconditionError(f"anchor value is not in the body at {b!r}")
    table = phi.project_all(y)
    excess = np.linalg.norm(table - y, axis=1) - rate * phi.space.distance_row(b)
    i = int(np.argmax(excess))
    if excess[i] > tol:
        worst_point = phi.space.point_ids[i]
        raise RateError(
            f"strong pointwise bound at rate {rate} fails at {worst_point!r} "
            f"by {excess[i]:.3e}",
            witness=worst_point,
            excess=excess[i],
        )
    table[phi.space.index(b)] = y
    return table
