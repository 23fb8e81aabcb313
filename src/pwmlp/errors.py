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
