"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: usage/domain problems exit 2,
unreadable or malformed documents exit 3, numerical failures exit 4.
"""

import numpy as np


class PwmlpError(Exception):
    """Base class for all package errors."""


class DomainError(PwmlpError):
    """A mathematical input is outside the admissible domain."""


class UsageError(PwmlpError):
    """An operation was called with structurally invalid arguments."""


class FormatError(PwmlpError):
    """A serialized document is malformed.

    ``path`` names the offending field when known, e.g.
    ``outputs[0].weights``.
    """

    def __init__(self, message, path=None):
        self.path = path
        if path is not None:
            message = "%s: %s" % (path, message)
        super().__init__(message)


class NumericalError(PwmlpError):
    """A numerical routine produced or detected an unusable result."""


def require_int(value, minimum, message):
    """value as a Python int, if it is an int or numpy integer (not a
    bool) of at least minimum; UsageError(message) otherwise.  A count
    is never truncated, and the int it returns writes as JSON."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise UsageError(message)
    return int(value)


def require_floats(values, what, dtype=np.float64):
    """values as an array of dtype, if numpy reads them as ints or, for
    a float dtype, floats, so that an index is never truncated.  None,
    strings, bools, complex values, ragged nesting and ints beyond the
    range of dtype are a UsageError naming what.  An array of dtype is
    returned itself; an empty array converts whatever its dtype."""
    if type(values) is np.ndarray and values.dtype == dtype:
        return values  # the common case, which forward_grid meets per tile
    kinds, noun, real = (
        ("iu", "integers", (int, np.integer)) if np.dtype(dtype).kind in "iu"
        else ("iuf", "numbers", (int, float, np.integer, np.floating)))
    try:
        arr = np.asarray(values)
        # numpy holds an int beyond 64 bits as an object, yet it is a number
        if arr.dtype == object and all(
                isinstance(v, real) and type(v) is not bool for v in arr.flat):
            arr = arr.astype(dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError("%s must be %s: %s" % (what, noun, exc)) from None
    if arr.size and arr.dtype.kind not in kinds:
        raise UsageError("%s must be %s, got %s" % (what, noun, arr.dtype))
    return arr.astype(dtype, copy=False)


def require_points(points):
    """Evaluation points as a nonempty 1-D float64 array: UsageError if
    they are not numbers or not so shaped, DomainError if one is not
    finite."""
    xs = require_floats(points, "evaluation points")
    if xs.ndim != 1 or xs.size == 0:
        raise UsageError("evaluation points must be a nonempty 1-D array, "
                         "got shape %r" % (xs.shape,))
    if not np.isfinite(xs).all():
        raise DomainError("non-finite evaluation point")
    return xs


def require_finite(xs, values, what):
    """values, one row per point of xs; NumericalError naming the first x
    whose row is not finite, found after one flat test fails."""
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values).reshape(len(xs), -1).all(axis=1)
        raise NumericalError("%s is not finite at x=%r"
                             % (what, float(xs[bad.argmax()])))
    return values
