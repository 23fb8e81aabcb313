"""Scalar activation functions used by the constructed networks.

Four activations are provided: the unit step, the ReLU, the unit ramp
(a ReLU saturated at one), and a monotone unit cubic that rises from 0
to 1 across [-1, 1].  The cubic is anti-symmetric about (0, 0.5); its
coefficients are pinned down by that shape except for one degree of
freedom, the slope at the inflection point.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError

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
    and x = +-1, which confines a1 to [0, 0.75].
    """
    s = float(inflection_slope)
    if not (0.0 <= s <= 0.75):
        raise DomainError(
            "non-monotone cubic: inflection slope %r outside [0, 0.75]"
            % (inflection_slope,)
        )
    return (0.5, s, 0.0, 0.5 - s)


@dataclass(frozen=True)
class Activation:
    """Tagged activation: one of step/relu/ramp/cubic.

    ``cubic_coeffs`` holds (a0, a1, a2, a3) and is present exactly when
    kind is cubic.  It must equal solve_cubic_coefficients(a1), the tuple
    stored: a model file keeps only a1.
    """

    kind: str
    cubic_coeffs: Optional[Tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError("unknown activation kind %r" % (self.kind,))
        if self.kind == CUBIC:
            if self.cubic_coeffs is None or len(self.cubic_coeffs) != 4:
                raise DomainError("cubic activation requires (a0, a1, a2, a3)")
            coeffs = solve_cubic_coefficients(self.cubic_coeffs[1])
            if tuple(self.cubic_coeffs) != coeffs:
                raise DomainError("cubic coefficients %r are not %r"
                                  % (self.cubic_coeffs, coeffs))
            object.__setattr__(self, "cubic_coeffs", coeffs)
        elif self.cubic_coeffs is not None:
            raise DomainError("coefficients only apply to the cubic kind")

    @staticmethod
    def step():
        return Activation(STEP)

    @staticmethod
    def relu():
        return Activation(RELU)

    @staticmethod
    def ramp():
        return Activation(RAMP)

    @staticmethod
    def cubic(inflection_slope=DEFAULT_SLOPE):
        return Activation(CUBIC, solve_cubic_coefficients(inflection_slope))

    @property
    def a1(self):
        """Inflection slope of the cubic; None for the other kinds."""
        if self.kind != CUBIC:
            return None
        return self.cubic_coeffs[1]


def eval_activation(act, x):
    """Evaluate a single activation at a scalar x.

    step(x) is 1 for x >= 0 (closed at zero), relu(x) = max(0, x),
    ramp(x) = clamp(x, 0, 1), and the cubic is 0 below -1, 1 above 1,
    and the polynomial in between.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("non-finite activation input %r" % (x,))
    if act.kind == STEP:
        return 1.0 if x >= 0.0 else 0.0
    if act.kind == RELU:
        return x if x > 0.0 else 0.0
    if act.kind == RAMP:
        if x < 0.0:
            return 0.0
        return x if x < 1.0 else 1.0
    a0, a1, a2, a3 = act.cubic_coeffs
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return ((a3 * x + a2) * x + a1) * x + a0


def activation_values(act, z):
    """Vectorized activation over a float64 array.

    Uses the same arithmetic (Horner form for the cubic) as
    eval_activation so scalar and array paths agree bit for bit.
    """
    return activate(act, np.asarray(z, dtype=np.float64))


def activate(act, z, out=None, spare=None):
    """activation_values(act, z) for a float64 array z, written to out,
    or for the cubic to spare; each is an array shaped like z, or None
    for a new one.  out may be z itself; spare may not, since the cubic
    takes both masks from z and then runs Horner in spare.  Returns the
    array that holds the values."""
    if act.kind == STEP:
        if out is None:
            out = np.empty_like(z)
        return np.greater_equal(z, 0.0, out=out)
    if act.kind == RELU:
        return np.maximum(z, 0.0, out=out)
    if act.kind == RAMP:
        return np.clip(z, 0.0, 1.0, out=out)
    a0, a1, a2, a3 = act.cubic_coeffs
    low = z <= -1.0
    high = z >= 1.0
    body = np.multiply(z, a3, out=spare)
    body += a2
    body *= z
    body += a1
    body *= z
    body += a0
    np.copyto(body, 0.0, where=low)
    np.copyto(body, 1.0, where=high)
    return body
