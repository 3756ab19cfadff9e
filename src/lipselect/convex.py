"""Exact convex bodies and Euclidean metric projection onto them.

Three body classes are supported: affine flats (a base point plus an
orthonormal basis of the direction subspace), closed balls, and nonempty
H-polytopes (intersections of halfspaces ``normal . x <= offset``,
certified nonempty by a stored witness point).

Projection is always Euclidean.  Flats and balls project in closed form;
polytopes use Dykstra's alternating projections over their halfspaces,
which converges to the metric projection because the intersection is
nonempty.  The projection map is single valued, idempotent, and
nonexpansive, which is what the selection machinery builds on.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceError,
    PreconditionError,
    SchemaError,
    ShapeError,
    as_finite_array,
)

ORTHONORMALITY_TOL = 1e-10
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 10_000


def _as_vector(x, dim: int, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise ShapeError(f"{what} must be a vector of dimension {dim}, got shape {v.shape}")
    return v


class ConvexBody:
    """Common surface of the three body variants."""

    dim: int

    def project(self, y) -> np.ndarray:
        raise NotImplementedError

    def canonical_point(self) -> np.ndarray:
        """A fixed member of the body, the default starting selection."""
        raise NotImplementedError

    def distance_to(self, y) -> float:
        """Euclidean distance ``||y - project(y)||``."""
        y = _as_vector(y, self.dim, "query point")
        return float(np.linalg.norm(y - self.project(y)))

    def contains(self, x, tol: float = 0.0) -> bool:
        """True iff the distance from ``x`` to the body is at most ``tol``."""
        if tol < 0:
            raise PreconditionError("containment tolerance must be nonnegative")
        return self.distance_to(x) <= tol

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json_dict(doc: dict) -> "ConvexBody":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SchemaError("body document must be an object with a 'kind' key")
        kind = doc["kind"]
        try:
            if kind == "flat":
                return AffineFlat(doc["base"], doc["basis"])
            if kind == "ball":
                return Ball(doc["center"], doc["radius"])
            if kind == "polytope":
                normals = [h["normal"] for h in doc["halfspaces"]]
                offsets = [h["offset"] for h in doc["halfspaces"]]
                return Polytope(normals, offsets, doc["witness"])
        except KeyError as exc:
            raise SchemaError(f"body document missing field {exc}") from None
        raise SchemaError(f"unknown body kind {kind!r}")


class AffineFlat(ConvexBody):
    """Affine flat ``base + span(basis)`` with orthonormal basis rows.

    An empty basis is allowed and yields a single point.
    """

    def __init__(self, base, basis=()):
        self.base = as_finite_array(base, "flat base")
        if self.base.ndim != 1:
            raise ShapeError("flat base must be a vector")
        self.dim = self.base.shape[0]
        if len(basis):
            self.basis = as_finite_array(basis, "flat basis")
            if self.basis.ndim != 2 or self.basis.shape[1] != self.dim:
                raise ShapeError("basis vectors must match the base dimension")
            gram = self.basis @ self.basis.T
            if np.max(np.abs(gram - np.eye(self.basis.shape[0]))) > ORTHONORMALITY_TOL:
                raise PreconditionError("flat basis must be orthonormal")
        else:
            self.basis = np.zeros((0, self.dim))

    def project(self, y) -> np.ndarray:
        y = _as_vector(y, self.dim, "query point")
        rel = y - self.base
        return self.base + self.basis.T @ (self.basis @ rel)

    def canonical_point(self) -> np.ndarray:
        return self.base.copy()

    def distance_to(self, y) -> float:
        y = _as_vector(y, self.dim, "query point")
        rel = y - self.base
        return float(np.linalg.norm(rel - self.basis.T @ (self.basis @ rel)))

    def to_json_dict(self) -> dict:
        return {
            "kind": "flat",
            "base": [float(x) for x in self.base],
            "basis": [[float(x) for x in row] for row in self.basis],
        }


class Ball(ConvexBody):
    """Closed Euclidean ball with positive radius."""

    def __init__(self, center, radius):
        self.center = as_finite_array(center, "ball center")
        if self.center.ndim != 1:
            raise ShapeError("ball center must be a vector")
        self.dim = self.center.shape[0]
        self.radius = float(as_finite_array(radius, "ball radius"))
        if not self.radius > 0:
            raise PreconditionError("ball radius must be positive")

    def project(self, y) -> np.ndarray:
        y = _as_vector(y, self.dim, "query point")
        rel = y - self.center
        nrm = float(np.linalg.norm(rel))
        if nrm <= self.radius:
            return y.copy()
        return self.center + (self.radius / nrm) * rel

    def canonical_point(self) -> np.ndarray:
        return self.center.copy()

    def distance_to(self, y) -> float:
        y = _as_vector(y, self.dim, "query point")
        return max(0.0, float(np.linalg.norm(y - self.center)) - self.radius)

    def to_json_dict(self) -> dict:
        return {
            "kind": "ball",
            "center": [float(x) for x in self.center],
            "radius": float(self.radius),
        }


class Polytope(ConvexBody):
    """Nonempty H-polytope ``{x : normals @ x <= offsets}``.

    Nonemptiness is certified at construction by a feasible witness point;
    operations never probe emptiness at call time.
    """

    def __init__(self, normals, offsets, witness, witness_tol: float = 1e-9):
        self.normals = as_finite_array(normals, "polytope normals")
        self.offsets = as_finite_array(offsets, "polytope offsets")
        if self.normals.ndim != 2 or self.offsets.ndim != 1:
            raise ShapeError("polytope needs a normal matrix and an offset vector")
        if self.normals.shape[0] != self.offsets.shape[0]:
            raise ShapeError("normal and offset counts differ")
        if self.normals.shape[0] == 0:
            raise PreconditionError("polytope needs at least one halfspace")
        self.dim = self.normals.shape[1]
        self._sq_norms = np.einsum("ij,ij->i", self.normals, self.normals)
        if np.any(self._sq_norms == 0.0):
            raise PreconditionError("halfspace normals must be nonzero")
        self._row_norms = np.sqrt(self._sq_norms)
        self.witness = _as_vector(as_finite_array(witness, "witness"), self.dim, "witness")
        slack = self.normals @ self.witness - self.offsets
        if np.any(slack > witness_tol * np.maximum(1.0, self._row_norms)):
            raise PreconditionError("witness point is not feasible for the polytope")

    def _violation(self, x) -> float:
        resid = (self.normals @ x - self.offsets) / self._row_norms
        return max(0.0, float(resid.max()))

    def project(self, y) -> np.ndarray:
        y = _as_vector(y, self.dim, "query point")
        if np.all(self.normals @ y <= self.offsets):
            return y.copy()
        m = self.normals.shape[0]
        x = y.copy()
        increments = np.zeros((m, self.dim))
        residual = np.inf
        for _ in range(DYKSTRA_MAX_SWEEPS):
            # stopping on the change of the correction increments is robust
            # where net sweep displacement is not (intra-sweep cancellation)
            previous = increments.copy()
            for i in range(m):
                v = x + increments[i]
                excess = float(self.normals[i] @ v - self.offsets[i])
                if excess > 0.0:
                    x = v - (excess / self._sq_norms[i]) * self.normals[i]
                else:
                    x = v
                increments[i] = v - x
            residual = max(
                float(np.sqrt(np.sum((increments - previous) ** 2))),
                self._violation(x),
            )
            if residual <= DYKSTRA_TOL:
                return x
        raise ConvergenceError(
            f"polytope projection did not reach {DYKSTRA_TOL} within "
            f"{DYKSTRA_MAX_SWEEPS} sweeps",
            residual=residual,
        )

    def canonical_point(self) -> np.ndarray:
        return self.witness.copy()

    def to_json_dict(self) -> dict:
        return {
            "kind": "polytope",
            "halfspaces": [
                {"normal": [float(x) for x in n], "offset": float(b)}
                for n, b in zip(self.normals, self.offsets)
            ],
            "witness": [float(x) for x in self.witness],
        }
