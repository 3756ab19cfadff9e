"""Exception types shared across the package, and the finite-number check
every constructor of outside input calls.

The class of an error is its exit status on the command line: a
:class:`SchemaError` (a document, identifier, shape or configuration
problem) exits 2; a :class:`PreconditionError` (a numeric precondition)
exits 3, and so does its subclass :class:`RateError`, which carries its
evidence; a :class:`ConvergenceError`, which carries its residual, and any
other :class:`LipselectError` (a degenerate radius search, a broken
invariant) exit 4.
"""

from itertools import chain

import numpy as np


class LipselectError(Exception):
    """Base class for all package-specific errors; raised itself where a
    construction cannot go on, such as a radius search below its floor."""


class SchemaError(LipselectError):
    """An input document, point identifier, shape or configuration does not
    match what its reader expects."""


class PreconditionError(LipselectError):
    """A documented operation precondition was violated by the caller."""


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
