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

A body is a row of its kind's stack, and each kind projects a whole
stack in one call (``project``, ``distance_to``), one query row per body;
a single body is a stack of one.  Polytopes run Dykstra in lockstep: every
body whose query is infeasible sweeps together, and each retires at the
sweep where its own residual reaches ``DYKSTRA_TOL``, so its iterates are
those of a lone run.  Validation works on stacks too (``stack``, and
:func:`stacks_from_json` for documents, the one parser of body documents).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    ConvergenceError,
    PreconditionError,
    SchemaError,
    as_finite_array,
)

ORTHONORMALITY_TOL = 1e-10
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 10_000
# how far a polytope witness may exceed an offset, times max(1, |normal|)
WITNESS_TOL = 1e-9


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bitwise equal to ``np.linalg.norm`` of
    the row alone (a sum of squares along the axis is not); a finite row
    whose sum of squares overflows is measured scaled by its largest entry."""
    with np.errstate(over="ignore"):
        nrm = np.sqrt(np.vecdot(rows, rows))
    over = np.isinf(nrm)
    if over.any():
        over &= np.isfinite(rows).all(axis=-1)
        top = np.abs(rows[over]).max(axis=-1, keepdims=True)
        nrm[over] = top[:, 0] * _row_norms(rows[over] / top)
    return nrm


def _matvec(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mats[i] @ rows[i]`` over the leading indices (one matrix broadcasts):
    one gemv per slice, bitwise equal to one matrix-vector product."""
    return (mats @ rows[..., None])[..., 0]


class ConvexBody:
    """Common surface of the three body kinds.

    A kind keeps its bodies as stacks, a tuple of arrays with a leading
    body axis; a body is a row of its kind's stack.  ``stack(*values)``
    builds and validates one from a list of values per field, and
    ``stack_docs`` from body documents.  ``project(stack, ys)`` projects row
    ``i`` of ``ys`` onto body ``i``, and ``distance_to(stack, ys)`` measures
    the distances; kinds with a closed-form distance override it.
    """

    KIND: str
    # the document fields a stack is built from, those whose lengths set
    # its shape, and the part of the canonical points
    _DOC_FIELDS: tuple
    _SHAPE_FIELDS: tuple
    _CANONICAL = 0

    @classmethod
    def stack_docs(cls, docs) -> tuple:
        """The stack of body documents of this kind and one shape."""
        return cls.stack(*([doc[name] for doc in docs] for name in cls._DOC_FIELDS))

    @staticmethod
    def project(stack, ys) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def distance_to(cls, stack, ys) -> np.ndarray:
        """Row-wise ``||y_i - P_i(y_i)||``."""
        return _row_norms(ys - cls.project(stack, ys))


class AffineFlat(ConvexBody):
    """Affine flat ``base + span(basis)`` with orthonormal basis rows.

    An empty basis is allowed and yields a single point.
    """

    KIND = "flat"
    _DOC_FIELDS = _SHAPE_FIELDS = ("base", "basis")

    @staticmethod
    def stack(bases, bases_of_spans) -> tuple:
        """The stack of flats ``bases[i] + span(bases_of_spans[i])``.  One
        basis given for the whole stack (a leading axis of 1) is checked
        once and shared by every flat."""
        bases = as_finite_array(bases, "flat base")
        if bases.ndim != 2:
            raise SchemaError("flat base must be a vector")
        n, dim = bases.shape
        spans = as_finite_array(bases_of_spans, "flat basis")
        if spans.ndim == 2 and not spans.shape[1]:
            spans = np.zeros((len(spans), 0, dim))
        if spans.ndim != 3 or spans.shape[0] not in (1, n) or spans.shape[2] != dim:
            raise SchemaError("basis vectors must match the base dimension")
        rank = spans.shape[1]
        if rank:
            gram = spans @ np.swapaxes(spans, 1, 2)
            if np.max(np.abs(gram - np.eye(rank))) > ORTHONORMALITY_TOL:
                raise PreconditionError("flat basis must be orthonormal")
        return bases, np.broadcast_to(spans, (n, rank, dim))

    @staticmethod
    def _along(basis, rel) -> np.ndarray:
        """``B^T (B rel)`` per row: the component of ``rel`` along the flat."""
        return _matvec(np.swapaxes(basis, 1, 2), _matvec(basis, rel))

    @staticmethod
    def project(stack, ys) -> np.ndarray:
        bases, basis = stack
        return bases + AffineFlat._along(basis, ys - bases)

    @staticmethod
    def distance_to(stack, ys) -> np.ndarray:
        bases, basis = stack
        rel = ys - bases
        return _row_norms(rel - AffineFlat._along(basis, rel))


class Ball(ConvexBody):
    """Closed Euclidean ball with positive radius."""

    KIND = "ball"
    _DOC_FIELDS = ("center", "radius")
    _SHAPE_FIELDS = ("center",)

    @staticmethod
    def stack(centers, radii) -> tuple:
        centers = as_finite_array(centers, "ball center")
        if centers.ndim != 2:
            raise SchemaError("ball center must be a vector")
        radii = as_finite_array(radii, "ball radius")
        if radii.shape != centers.shape[:1]:
            raise SchemaError("ball radius must be a number")
        if not np.all(radii > 0):
            raise PreconditionError("ball radius must be positive")
        return centers, radii

    @staticmethod
    def project(stack, ys) -> np.ndarray:
        centers, radii = stack
        rel = ys - centers
        nrm = _row_norms(rel)
        out = np.array(ys, dtype=float)
        far = nrm > radii
        out[far] = centers[far] + (radii[far] / nrm[far])[:, None] * rel[far]
        return out

    @staticmethod
    def distance_to(stack, ys) -> np.ndarray:
        centers, radii = stack
        return np.maximum(0.0, _row_norms(ys - centers) - radii)


class Polytope(ConvexBody):
    """Nonempty H-polytope ``{x : normals @ x <= offsets}``.

    Nonemptiness is certified at construction by a feasible witness point;
    operations never probe emptiness at call time.
    """

    KIND = "polytope"
    _SHAPE_FIELDS = ("halfspaces", "witness")
    # a stack: normals, offsets, squared and plain normal norms, witnesses
    _CANONICAL = 4

    @staticmethod
    def stack(normals, offsets, witnesses) -> tuple:
        normals = as_finite_array(normals, "polytope normals")
        offsets = as_finite_array(offsets, "polytope offsets")
        if normals.ndim != 3 or offsets.ndim != 2:
            raise SchemaError("polytope needs a normal matrix and an offset vector")
        if normals.shape[:2] != offsets.shape:
            raise SchemaError("normal and offset counts differ")
        if normals.shape[1] == 0:
            raise PreconditionError("polytope needs at least one halfspace")
        sq_norms = np.einsum("...ij,...ij->...i", normals, normals)
        if np.any(sq_norms == 0.0):
            raise PreconditionError("halfspace normals must be nonzero")
        row_norms = np.sqrt(sq_norms)
        witnesses = as_finite_array(witnesses, "witness")
        dim = normals.shape[2]
        if witnesses.shape != (len(normals), dim):
            raise SchemaError(f"witness must be a vector of dimension {dim}")
        slack = _matvec(normals, witnesses) - offsets
        if np.any(slack > WITNESS_TOL * np.maximum(1.0, row_norms)):
            raise PreconditionError("witness point is not feasible for the polytope")
        return normals, offsets, sq_norms, row_norms, witnesses

    @classmethod
    def stack_docs(cls, docs) -> tuple:
        halfspaces = [doc["halfspaces"] for doc in docs]
        return cls.stack(
            [[h["normal"] for h in hs] for hs in halfspaces],
            [[h["offset"] for h in hs] for hs in halfspaces],
            [doc["witness"] for doc in docs],
        )

    @staticmethod
    def project(stack, ys) -> np.ndarray:
        """Dykstra's method over the halfspaces, every infeasible row at
        once; a row is final at the first sweep whose residual (change of
        its correction increments, or its violation) is within
        ``DYKSTRA_TOL``.  A row still moving after ``DYKSTRA_MAX_SWEEPS``
        (a slow zigzag into a narrow wedge) takes a certified point, if
        any, from :func:`_certified_projection`."""
        normals, offsets, sq_norms, row_norms = stack[:4]
        out = np.array(ys, dtype=float)
        rows = np.flatnonzero(~np.all(_matvec(normals, out) <= offsets, axis=1))
        if not rows.size:
            return out
        normals, offsets, sq_norms, row_norms = (a[rows] for a in stack[:4])
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
        # every halfspace with a positive multiplier at the projection is
        # among those the last sweep touched
        for j, row in enumerate(rows):
            touched = np.flatnonzero(np.any(increments[j] != 0.0, axis=1))
            out[row] = _certified_projection(normals[j], offsets[j], row_norms[j], out[row], touched, residual)
        return out


def _certified_projection(normals, offsets, row_norms, y, touched, residual):
    """The projection of an infeasible ``y`` onto ``normals . x <= offsets``:
    of the points ``x = y - lam . normals[active]`` on which some of the
    ``touched`` halfspaces (fewest first, at most the dimension many) hold
    as equalities, the first with the KKT certificate, feasible and ``lam >=
    0`` within ``DYKSTRA_TOL`` in units of length.  Without one a
    :class:`ConvergenceError` reports Dykstra's largest ``residual``."""
    for size in range(1, min(len(touched), normals.shape[1]) + 1):
        for active in map(list, itertools.combinations(touched, size)):
            A, b = normals[active], offsets[active]
            lam = np.linalg.lstsq(A @ A.T, A @ y - b, rcond=None)[0]
            x = y - lam @ A
            violation = np.max((normals @ x - offsets) / row_norms)
            if violation <= DYKSTRA_TOL and np.all(lam * row_norms[active] >= -DYKSTRA_TOL):
                return x
    raise ConvergenceError(
        f"polytope projection did not reach {DYKSTRA_TOL} within {DYKSTRA_MAX_SWEEPS} sweeps",
        residual=float(residual.max()),
    )


_KINDS = {kind.KIND: kind for kind in (AffineFlat, Ball, Polytope)}


def stacks_from_json(docs) -> list:
    """Body documents as stacks, ``(rows, kind, stack)`` for each kind and
    shape in order of first row: the one parser of body documents."""
    groups: dict = {}
    try:
        names = [doc["kind"] for doc in docs]
        for name in dict.fromkeys(names):
            if name not in _KINDS:
                raise SchemaError(f"unknown body kind {name!r}")
            kind = _KINDS[name]
            rows = [i for i, other in enumerate(names) if other == name]
            # the lengths of the array fields: halfspace count, basis rank
            lengths = (map(len, [docs[i][field] for i in rows]) for field in kind._SHAPE_FIELDS)
            for i, shape in zip(rows, zip(*lengths)):
                groups.setdefault((kind, shape), []).append(i)
        return [
            (np.array(rows), kind, kind.stack_docs([docs[i] for i in rows]))
            for (kind, _), rows in sorted(groups.items(), key=lambda group: group[1][0])
        ]
    except KeyError as exc:
        raise SchemaError(f"body document missing field {exc}") from None
    except TypeError:
        raise SchemaError("a body document must be an object of arrays of numbers") from None
