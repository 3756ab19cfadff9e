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

Each kind projects a whole stack of bodies of that kind in one call
(``project_stack``, ``distance_stack``), one query row per body; see
:func:`stack_bodies`.  Polytopes run Dykstra in lockstep: every body whose
query is infeasible sweeps together, and each retires at the sweep where
its own residual reaches ``DYKSTRA_TOL``, so its iterates are those of a
lone run.  ``project`` and ``distance_to`` of a single body are the stack
of one.
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
# how far a polytope witness may exceed an offset, times max(1, |normal|)
WITNESS_TOL = 1e-9


def _as_vector(x, dim: int, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise ShapeError(f"{what} must be a vector of dimension {dim}, got shape {v.shape}")
    return v


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bitwise equal to ``np.linalg.norm`` of
    the row alone (a sum of squares along the axis is not)."""
    return np.sqrt(np.vecdot(rows, rows))


def _matvec(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mats[i] @ rows[i]`` for each ``i``: one gemv per slice, bitwise
    equal to the product of one matrix and one vector."""
    return (mats @ rows[:, :, None])[:, :, 0]


def stack_bodies(bodies) -> tuple:
    """The arrays of a stack of bodies of one kind and shape, each with a
    leading body axis.  A part that every body shares is a broadcast view,
    so a stack of one body copies nothing."""
    stack = []
    for parts in zip(*(body._parts() for body in bodies)):
        first = parts[0]
        if all(p is first for p in parts):
            stack.append(np.broadcast_to(first, (len(parts),) + first.shape))
        else:
            stack.append(np.stack(parts))
    return tuple(stack)


def stack_key(body: "ConvexBody") -> tuple:
    """Bodies with equal keys stack together: same kind, same part shapes
    (halfspace count for polytopes, basis rank for flats)."""
    return (type(body),) + tuple(p.shape for p in body._parts())


class ConvexBody:
    """Common surface of the three body variants.

    A kind provides ``project_stack(stack, ys)``: row ``i`` of ``ys``
    projected onto body ``i`` of a :func:`stack_bodies` stack.  Kinds with
    a closed-form distance also override ``distance_stack``.
    """

    dim: int

    def _parts(self) -> tuple:
        """The arrays :func:`stack_bodies` stacks."""
        raise NotImplementedError

    @staticmethod
    def project_stack(stack, ys) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def distance_stack(cls, stack, ys) -> np.ndarray:
        """Row-wise ``||y_i - P_i(y_i)||``."""
        return _row_norms(ys - cls.project_stack(stack, ys))

    def _single(self, kernel, y) -> np.ndarray:
        """``kernel`` on the stack of this body alone."""
        y = _as_vector(y, self.dim, "query point")
        return kernel(stack_bodies([self]), y[None])[0]

    def project(self, y) -> np.ndarray:
        """The nearest point of the body to ``y``."""
        raise NotImplementedError

    def canonical_point(self) -> np.ndarray:
        """A fixed member of the body, the default starting selection."""
        raise NotImplementedError

    def distance_to(self, y) -> float:
        """Euclidean distance ``||y - project(y)||``."""
        return float(self._single(self.distance_stack, y))

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
                halfspaces = doc["halfspaces"]
                if not isinstance(halfspaces, list) or not all(isinstance(h, dict) for h in halfspaces):
                    raise SchemaError("polytope halfspaces must be a list of objects")
                normals = [h["normal"] for h in halfspaces]
                offsets = [h["offset"] for h in halfspaces]
                return Polytope(normals, offsets, doc["witness"])
        except KeyError as exc:
            raise SchemaError(f"body document missing field {exc}") from None
        raise SchemaError(f"unknown body kind {kind!r}")


# Each kind defines ``project`` (flats and balls also ``distance_to``) as
# the same one-line call of ``_single`` instead of inheriting it, because
# the benchmark's tracer (``bench/tracing.py``) wraps these methods on
# each class.


class AffineFlat(ConvexBody):
    """Affine flat ``base + span(basis)`` with orthonormal basis rows.

    An empty basis is allowed and yields a single point.
    """

    def __init__(self, base, basis=()):
        self.base = as_finite_array(base, "flat base")
        if self.base.ndim != 1:
            raise ShapeError("flat base must be a vector")
        self.dim = self.base.shape[0]
        basis = as_finite_array(basis, "flat basis")
        if basis.shape == (0,):
            basis = np.zeros((0, self.dim))
        if basis.ndim != 2 or basis.shape[1] != self.dim:
            raise ShapeError("basis vectors must match the base dimension")
        if basis.shape[0]:
            gram = basis @ basis.T
            if np.max(np.abs(gram - np.eye(basis.shape[0]))) > ORTHONORMALITY_TOL:
                raise PreconditionError("flat basis must be orthonormal")
        self.basis = basis

    def _parts(self) -> tuple:
        return self.base, self.basis

    @staticmethod
    def _along(basis, rel) -> np.ndarray:
        """``B^T (B rel)`` per row: the component of ``rel`` along the flat."""
        return _matvec(np.swapaxes(basis, 1, 2), _matvec(basis, rel))

    @staticmethod
    def project_stack(stack, ys) -> np.ndarray:
        bases, basis = stack
        return bases + AffineFlat._along(basis, ys - bases)

    @staticmethod
    def distance_stack(stack, ys) -> np.ndarray:
        bases, basis = stack
        rel = ys - bases
        return _row_norms(rel - AffineFlat._along(basis, rel))

    def project(self, y) -> np.ndarray:
        return self._single(self.project_stack, y)

    def distance_to(self, y) -> float:
        return float(self._single(self.distance_stack, y))

    def canonical_point(self) -> np.ndarray:
        return self.base.copy()

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
        radius = as_finite_array(radius, "ball radius")
        if radius.ndim != 0:
            raise ShapeError("ball radius must be a number")
        self.radius = float(radius)
        if not self.radius > 0:
            raise PreconditionError("ball radius must be positive")

    def _parts(self) -> tuple:
        return self.center, np.float64(self.radius)

    @staticmethod
    def project_stack(stack, ys) -> np.ndarray:
        centers, radii = stack
        rel = ys - centers
        nrm = _row_norms(rel)
        out = np.array(ys, dtype=float)
        far = nrm > radii
        out[far] = centers[far] + (radii[far] / nrm[far])[:, None] * rel[far]
        return out

    @staticmethod
    def distance_stack(stack, ys) -> np.ndarray:
        centers, radii = stack
        return np.maximum(0.0, _row_norms(ys - centers) - radii)

    def project(self, y) -> np.ndarray:
        return self._single(self.project_stack, y)

    def distance_to(self, y) -> float:
        return float(self._single(self.distance_stack, y))

    def canonical_point(self) -> np.ndarray:
        return self.center.copy()

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

    def __init__(self, normals, offsets, witness):
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
        if np.any(slack > WITNESS_TOL * np.maximum(1.0, self._row_norms)):
            raise PreconditionError("witness point is not feasible for the polytope")

    def _parts(self) -> tuple:
        return self.normals, self.offsets, self._sq_norms, self._row_norms

    @staticmethod
    def project_stack(stack, ys) -> np.ndarray:
        """Dykstra's method over the halfspaces, every infeasible row at
        once; a row is final at the first sweep whose residual (change of
        its correction increments, or its violation) is within
        ``DYKSTRA_TOL``."""
        normals, offsets, sq_norms, row_norms = stack
        out = np.array(ys, dtype=float)
        rows = np.flatnonzero(~np.all(_matvec(normals, out) <= offsets, axis=1))
        if not rows.size:
            return out
        normals, offsets, sq_norms, row_norms = (a[rows] for a in stack)
        x = out[rows]
        increments = np.zeros(normals.shape)
        for _ in range(DYKSTRA_MAX_SWEEPS):
            # stopping on the change of the correction increments is robust
            # where net sweep displacement is not (intra-sweep cancellation)
            previous = increments.copy()
            for i in range(normals.shape[1]):
                v = x + increments[:, i]
                excess = np.vecdot(normals[:, i], v) - offsets[:, i]
                x = np.where(
                    (excess > 0.0)[:, None],
                    v - (excess / sq_norms[:, i])[:, None] * normals[:, i],
                    v,
                )
                increments[:, i] = v - x
            change = np.sqrt(np.sum(((increments - previous) ** 2).reshape(len(rows), -1), axis=1))
            violation = np.maximum(0.0, ((_matvec(normals, x) - offsets) / row_norms).max(axis=1))
            residual = np.maximum(change, violation)
            done = residual <= DYKSTRA_TOL
            out[rows[done]] = x[done]
            if done.all():
                return out
            if done.any():
                keep = ~done
                rows, x, increments = rows[keep], x[keep], increments[keep]
                normals, offsets, sq_norms, row_norms = (
                    a[keep] for a in (normals, offsets, sq_norms, row_norms))
        raise ConvergenceError(
            f"polytope projection did not reach {DYKSTRA_TOL} within "
            f"{DYKSTRA_MAX_SWEEPS} sweeps",
            residual=float(residual.max()),
        )

    def project(self, y) -> np.ndarray:
        return self._single(self.project_stack, y)

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
