"""Exception types shared across the package, and the finite-number check
every constructor of outside input calls.

The base class of an error is its exit status on the command line: a
:class:`SchemaError` (a document, identifier, shape or configuration
problem) exits 2, a :class:`PreconditionError` (a numeric precondition)
exits 3, and any other :class:`LipselectError` (convergence or degeneracy)
exits 4.
"""

from itertools import chain

import numpy as np


class LipselectError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(LipselectError):
    """An input document does not match its expected JSON schema."""


class IdentifierError(SchemaError):
    """A point identifier is unknown to the space it was used with."""


class ConfigurationError(SchemaError):
    """An object is structurally unusable (e.g. explicit metric without a
    distance matrix, or an empty sphere table)."""


class ShapeError(SchemaError):
    """Dimension mismatch between vectors, bodies, or operators."""


class PreconditionError(LipselectError):
    """A documented operation precondition was violated by the caller."""


class ParameterError(PreconditionError):
    """A numeric parameter is outside its admissible range."""


class RankDeficiencyError(PreconditionError):
    """A matrix expected to have full row rank is (numerically) rank
    deficient."""


class ConvergenceError(LipselectError):
    """An iterative solve exhausted its budget.  Carries the final residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = float(residual)


class RateError(PreconditionError):
    """An anchored selection violates its strong pointwise bound: the input
    fails the lower pointwise Lipschitz hypothesis at the rate.  Carries the
    worst sample point and the excess over the allowed rate."""

    def __init__(self, message, witness, excess):
        super().__init__(message)
        self.witness = witness
        self.excess = float(excess)


class DegenerateRadiusError(LipselectError):
    """The halving search for an adjustment radius fell below its floor."""


class ResolutionError(PreconditionError):
    """No ball in the requested radius schedule contains a point other than
    its center; the sample is too coarse for the requested estimate."""


class InvariantViolationError(LipselectError):
    """A structural invariant that the construction should guarantee was
    found violated (e.g. overlapping adjustment supports)."""


def as_finite_array(values, what: str) -> np.ndarray:
    """``values`` as a float array.  Only numbers count: a string, a
    boolean, null or an object where a number belongs, or rows of unequal
    length, are a :class:`SchemaError`.  Nested lists are flattened level by
    level, as deep as their first entry goes, and typed once.  NaN or
    infinite entries, and integers beyond the doubles, are a
    :class:`PreconditionError`.  (Python's ``json`` parses ``NaN`` and
    ``Infinity``, so documents can carry them.)"""
    if isinstance(values, np.ndarray):
        flat, types = None, {values.dtype.type}
    else:
        flat, shape = [values], []
        while flat and isinstance(flat[0], (list, tuple, np.ndarray)):
            kinds = set(map(type, flat))
            if not all(issubclass(t, (list, tuple, np.ndarray)) for t in kinds) or len(set(map(len, flat))) > 1:
                raise SchemaError(f"{what} must be an array of numbers")
            shape.append(len(flat[0]))
            flat = list(chain.from_iterable(flat))
        types = set(map(type, flat))
    if not all(issubclass(t, (int, float, np.integer, np.floating)) and not issubclass(t, bool) for t in types):
        raise SchemaError(f"{what} must be an array of numbers")
    try:
        arr = np.asarray(values, dtype=float) if flat is None else np.array(flat, dtype=float).reshape(shape)
    except OverflowError:
        arr = np.array(np.inf)
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{what} must be finite")
    return arr
