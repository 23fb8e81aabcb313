"""Built-in scalar targets on [0, 1].

Derivative bounds are documented so tests can budget expected
approximation errors in closed form.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UsageError, require_floats


def _const1(x):
    """f(x) = 1.  All derivatives vanish."""
    return np.ones_like(require_floats(x, "target points"))


def _affine(x):
    """f(x) = 2x + 1.  f' = 2, f'' = 0; sup |f| = 3."""
    x = require_floats(x, "target points")
    return 2.0 * x + 1.0


def _sin2pi(x):
    """f(x) = sin(2 pi x) + 0.5 x.

    sup |f| ~ 1.1282 at the stationary point near x = 0.2627 (where
    cos(2 pi x) = -1/(4 pi)); |f'| <= 2 pi + 0.5, |f''| <= 4 pi^2.
    """
    x = require_floats(x, "target points")
    return np.sin(2.0 * np.pi * x) + 0.5 * x


def _runge(x):
    """f(x) = 1 / (1 + 25 (x - 0.5)^2).

    sup |f| = 1 at x = 0.5; |f'| <= 50 u / (1 + 25 u^2)^2 maximized at
    u^2 = 1/75, about 3.248.
    """
    x = require_floats(x, "target points")
    return 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2)


def _absdev(x):
    """f(x) = |x - 0.5|.  sup |f| = 0.5; |f'| = 1 away from the kink."""
    x = require_floats(x, "target points")
    return np.abs(x - 0.5)


@dataclass(frozen=True)
class TargetDef:
    name: str
    fn: Callable
    description: str
    # tight upper bound for max |f| on [0, 1], used as an error scale
    sup_abs: float


TARGETS = {
    "const1": TargetDef("const1", _const1, "f(x) = 1", 1.0),
    "affine": TargetDef("affine", _affine, "f(x) = 2x + 1", 3.0),
    "sin2pi": TargetDef("sin2pi", _sin2pi, "f(x) = sin(2 pi x) + 0.5 x", 1.129),
    "runge": TargetDef(
        "runge", _runge, "f(x) = 1 / (1 + 25 (x - 0.5)^2)", 1.0
    ),
    "absdev": TargetDef("absdev", _absdev, "f(x) = |x - 0.5|", 0.5),
}


def get_target(name):
    try:
        return TARGETS[name]
    except KeyError:
        raise UsageError(
            "unknown target %r (choose from %s)"
            % (name, ", ".join(sorted(TARGETS)))
        ) from None
