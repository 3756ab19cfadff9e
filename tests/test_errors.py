from itertools import chain

import numpy as np
import pytest

from lipselect.errors import PreconditionError, SchemaError, as_finite_array


def oracle_as_finite_array(values, what):
    """``as_finite_array`` as it was before its one-pass reader: a type
    probe as deep as the first entry goes, then ``np.asarray``'s own
    nested discovery."""
    if isinstance(values, np.ndarray):
        types = {values.dtype.type}
    else:
        entries, probe = [values], values
        while isinstance(probe, (list, tuple, np.ndarray)):
            entries, probe = chain.from_iterable(entries), (probe[0] if len(probe) else None)
        try:
            types = set(map(type, entries))
        except TypeError:  # a number where a list belongs
            types = {object}
    if not all(issubclass(t, (int, float, np.integer, np.floating)) and not issubclass(t, bool) for t in types):
        raise SchemaError(f"{what} must be an array of numbers")
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be an array of numbers") from None
    except OverflowError:
        arr = np.array(np.inf)
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{what} must be finite")
    return arr


def outcome(read, values):
    """The array ``read`` makes of ``values``, as its shape and bits, or the
    class and message of what it raises."""
    try:
        arr = read(values, "table")
    except Exception as exc:
        return type(exc), str(exc)
    return arr.shape, arr.view(np.uint64).tolist()


CORPUS = [
    # numbers, scalars and empty lists
    1.5, 3, -0.0, [], [[]], [[], []], [[[]]], [1, 2.5, -0.0], [[1.0, 2.0], [3.0, -0.0]], (1.0, 2.0),
    [[[1.0], [2.0]], [[3.0], [4.0]]], [np.float32(0.1), np.int64(3), np.uint8(7)],
    [[1.0, 2.0], (3.0, 4.0)], [np.array([1.0, 2.0]), np.array([3.0, 4.0])], [np.array([[1, 2]]), [[3, 4]]],
    # bools, null, strings and objects, at every depth
    True, None, "5", "", {"0": 1.0}, [True], [1.0, True], [np.True_], [None, 1.0], ["5"], [1.0, "a"],
    [[1.0, 2.0], [3.0, None]], [[1.0, 2.0], [3.0, False]], [[1.0, 2.0], "ab"], [{"a": 1, "b": 2}],
    [[1.0, 2.0], {"a": 1, "b": 2}], [[1.0, 2.0], {1: 1, 2: 2}], [[1.0], {"0": 1.0}], [[[1.0, "x"]]],
    # ragged rows, a number where a list belongs and a list where a number belongs
    [[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]], [[], [1.0]], [[1.0], []], [[1.0, 2.0], 3.0], [1.0, [2.0]],
    [[1.0, 2.0], [3.0, [4.0]]], [[[1.0]], [2.0]], [[[1.0, 2.0]], [[3.0]]], [[1.0], [[2.0]]],
    # huge integers, extremes, NaN and infinities
    2**70, [2**70], [2**70 + 1, -(2**70)], 2**1100, [2**1100], [[1.0], [2**1100]], [-(2**1100), 1.0],
    [[2**1100, 1.0], [2.0]], [[1.0, "a"], [2**1100, 1.0]], [1e308, -1e308], [[1e308], [-1e308]],
    float("nan"), [1.0, float("nan")], [[float("inf")], [1.0]], [-float("inf")], [2**1100, float("nan")],
    [[float("nan")], [1.0, 2.0]],
    # arrays of every dtype the reader meets
    np.array([True, False]), np.array([[1, 2], [3, 4]]), np.array([1, 2], dtype=np.uint8),
    np.array([1.0, "a"], dtype=object), np.array([1.0, 2.0], dtype=object), np.array([[0.5, -0.0]]),
    np.array([np.nan]), np.array([1e308, -np.inf]), np.array(2.5), np.array([], dtype=float),
    np.array([1.0, 2.0], dtype=np.float32), np.array([1 + 2j]),
]


@pytest.mark.parametrize("values", CORPUS, ids=range(len(CORPUS)))
def test_the_one_pass_reader_equals_the_oracle(values):
    assert outcome(as_finite_array, values) == outcome(oracle_as_finite_array, values)


def test_a_float_array_is_read_without_a_copy():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert as_finite_array(values, "table") is values
