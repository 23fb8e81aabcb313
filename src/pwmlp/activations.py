"""Activation functions used by the constructed networks.

Four activations are provided: the unit step, the ReLU, the unit ramp
(a ReLU saturated at one), and a monotone unit cubic that rises from 0
to 1 across [-1, 1].  The cubic is anti-symmetric about (0, 0.5); its
coefficients are pinned down by that shape except for one degree of
freedom, the slope at the inflection point.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, require_floats

STEP = "step"
RELU = "relu"
RAMP = "ramp"
CUBIC = "cubic"

KINDS = (STEP, RELU, RAMP, CUBIC)

# Slope 0.75 additionally zeroes q'(+-1), so the polynomial meets its
# plateaus with no derivative kink.
DEFAULT_SLOPE = 0.75


def solve_cubic_coefficients(inflection_slope):
    """Coefficients (a0, a1, a2, a3) of q(x) = a3 x^3 + a2 x^2 + a1 x + a0.

    Anti-symmetry of q about (0, 0.5) forces a2 = 0 and a0 = 0.5, and the
    endpoint values q(-1) = 0, q(1) = 1 then force a1 + a3 = 0.5.  The one
    remaining degree of freedom is the inflection slope a1 = q'(0).
    Monotonicity on [-1, 1] needs q'(x) = 3 a3 x^2 + a1 >= 0 at both x = 0
    and x = +-1, which confines a1 to [0, 0.75].  A slope that is not an
    int, a float or a numpy real (a bool is none of these) is a
    DomainError too.
    """
    s = inflection_slope
    if isinstance(s, bool) or not isinstance(s, (int, float, np.integer,
                                                 np.floating)):
        raise DomainError("cubic inflection slope must be a real number, "
                          "got %r" % (s,))
    if not (0.0 <= s <= 0.75):
        raise DomainError(
            "non-monotone cubic: inflection slope %r outside [0, 0.75]" % (s,))
    s = float(s)
    return (0.5, s, 0.0, 0.5 - s)


@dataclass(frozen=True)
class Activation:
    """Tagged activation: one of step/relu/ramp/cubic.

    a1, the cubic's inflection slope, is present exactly when kind is
    cubic, and is stored as a float (-0.0 kept).  cubic_coeffs, the
    tuple solve_cubic_coefficients(a1), is derived from it once, and is
    None for the other kinds.
    """

    kind: str
    a1: Optional[float] = None
    cubic_coeffs: Optional[Tuple[float, float, float, float]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError("unknown activation kind %r" % (self.kind,))
        if self.kind == CUBIC:
            if self.a1 is None:
                raise DomainError("cubic activation requires its slope a1")
            coeffs = solve_cubic_coefficients(self.a1)
            object.__setattr__(self, "a1", coeffs[1])
            object.__setattr__(self, "cubic_coeffs", coeffs)
        elif self.a1 is not None:
            raise DomainError("a1 only applies to the cubic kind")

    @staticmethod
    def cubic(inflection_slope=DEFAULT_SLOPE):
        return Activation(CUBIC, inflection_slope)


def activation_values(act, z, out=None, spare=None):
    """The activation over an array z of numbers, as float64: step(x)
    is 1 for x >= 0 (closed at zero), relu(x) = max(0, x), ramp(x) =
    clamp(x, 0, 1), and the cubic is 0 below -1, 1 above 1, and the
    polynomial in Horner form in between.

    The cubic runs Horner on clip(z, -1, 1), with no masks.  That gives
    the plateaus exactly: a2 = 0, and fl(fl(0.5 - a1) + a1) = 0.5 for
    every slope a1 in [0, 0.75] (0.5 - a1 is exact from 0.25 on, and
    below it errs by at most 2**-55, where a tie rounds to 0.5), so
    Horner reads +0.0 at -1 and 1.0 at 1; a NaN stays NaN.

    The values go to out, or for the cubic to spare, while out receives
    the clipped z: float64 arrays shaped like z, or None (the default)
    for new ones.  out may be z itself; spare may be neither.  Returns
    the array that holds the values.
    """
    z = require_floats(z, "activation inputs")
    if act.kind == STEP:
        if out is None:
            out = np.empty_like(z)
        return np.greater_equal(z, 0.0, out=out)
    if act.kind == RELU:
        return np.maximum(z, 0.0, out=out)
    if act.kind == RAMP:
        return np.clip(z, 0.0, 1.0, out=out)
    a0, a1, a2, a3 = act.cubic_coeffs
    t = np.clip(z, -1.0, 1.0, out=out)
    body = np.multiply(t, a3, out=spare)
    body += a2
    body *= t
    body += a1
    body *= t
    body += a0
    return body
