"""Feedforward construction of networks realizing piecewise models.

Each construction places groups of hidden units at knot-determined
positions and reads the output taps directly off the target samples,
so the resulting network IS the corresponding kernel-sum approximant,
not a trained imitation of it.  With h = 1/N and inv = N, every unit
has one of two responses

    rising at knot x_j:   z = inv * x - inv * x_j
    falling at knot x_j:  z = inv * x_j - inv * x

Boundary knots reference the virtual positions x_{-1} = -h and
x_{N+1} = 1 + h; those lie outside [0, 1], which is harmless because
equivalence with the reference models is only claimed on [0, 1].

The five methods differ only in the activation, the knots that carry
a group with their tap values c_j, and the units of a group (_DESIGNS):

  constant      a step rising at x_j for j < N; c_j = f_j - f_{j-1}
                (telescoped, f_{-1} = 0).
  linear-relu   per knot four ReLUs rising at x_{j-1} and x_j and
                falling at x_{j+1} and x_j, with taps (c, -c, c, -c):
                their sum is c_j * (triangle + 1); c_j = f_j.
  linear-ramp   per knot a ramp rising at x_{j-1} plus one falling at
                x_{j+1}, taps (c, c): again c_j * (triangle + 1).
  cubic         the same pair with the monotone cubic, a unit bump plus
                1; c_j = g_j solves the coupling system
                g_j + 0.5 (g_{j-1} + g_{j+1}) = f_j, since adjacent
                bumps overlap with value 0.5 at distance h, in closed
                form (two prefix sums per column).
  cubic-spaced  bumps only at even knots (no overlap at the knots, so
                no coupling solve), c_j = f_j; N must be even.

Where a group sums to c_j * (kernel + 1), the tap bias removes the
shift: the exactly rounded sum of -c_j / len(group) over every unit.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .activations import CUBIC, DEFAULT_SLOPE, RAMP, RELU, STEP, Activation
from .errors import NumericalError, UsageError
from .network import Network
from .oracle import coupling_residual, refine_coupling


def _green_solve(f):
    """One solve of A g = f for the coupling matrix A (unit diagonal,
    0.5 on both off-diagonals), column by column, in closed form.

    A = D L D / 2 with D = diag((-1)^j) and L the Dirichlet Laplacian
    tridiag(-1, 2, -1) of size m, so g = 2 D L^-1 D f.  With t the
    double prefix sum of h = D f and t_0 = 0, y_j = j t_m / (m + 1) -
    t_{j-1} (j = 1..m) has second difference -h_j and vanishes at
    j = 0 and j = m + 1, so y = L^-1 h.
    """
    m = f.shape[0]
    sign = np.where(np.arange(m) % 2, -1.0, 1.0)[:, None]
    t = np.cumsum(np.cumsum(sign * f, axis=0), axis=0)
    y = np.arange(1, m + 1)[:, None] * t[-1] / (m + 1)
    y[1:] -= t[:-1]
    return 2.0 * sign * y


@dataclass(frozen=True)
class CouplingSolution:
    """Bump weights g(x_j) per output dimension, shape (n+1, q)."""

    g: np.ndarray
    residual_max: float


def solve_bump_coupling(samples):
    """Solve g_j + 0.5 (g_{j-1} + g_{j+1}) = f_j with g_{-1} = g_{N+1} = 0.

    The matrix is symmetric positive definite for every N -- its
    eigenvalues are 1 + cos(k pi / (N+2)) > 0 -- and its closed-form
    inverse (_green_solve) takes two prefix sums per column.  Its
    condition grows like N^2, so the closed form's g is refined
    (oracle.refine_coupling) to about eps * max|g|.  The residual of
    the result (oracle.coupling_residual) must stay within
    1e-10 * max(1, |f|); on huge rough data g can overflow, and a
    non-finite residual fails the check too.  Raises NumericalError
    naming the first output column that fails.
    """
    f = samples.values
    with np.errstate(over="ignore", invalid="ignore"):
        g = refine_coupling(_green_solve, f)
        residual = np.max(np.abs(coupling_residual(g, f)), axis=0)
    failed = ~(residual <= 1e-10 * max(1.0, float(np.max(np.abs(f)))))
    if failed.any():
        k = int(np.argmax(failed))
        raise NumericalError(
            "coupling residual %.3e of output %d exceeds tolerance"
            % (residual[k], k)
        )
    return CouplingSolution(g=g, residual_max=float(np.max(residual)))


def _telescoped(samples):
    f = samples.values
    return np.arange(samples.grid.n), np.diff(f[:-1], axis=0, prepend=0.0)


def _every_knot(samples):
    return np.arange(samples.grid.n + 1), samples.values


def _coupled(samples):
    return np.arange(samples.grid.n + 1), solve_bump_coupling(samples).g


def _even_knots(samples):
    if samples.grid.n % 2 != 0:
        raise UsageError("spaced design requires even N")
    return np.arange(0, samples.grid.n + 1, 2), samples.values[::2]


# A unit is (direction, knot offset, tap sign): it rises (+1) or falls
# (-1) at x_{j+offset}, and its tap is sign * c_j.
_PAIR = ((1.0, -1, 1.0), (-1.0, 1, 1.0))
_Design = namedtuple("_Design", "kind taps units plus_one")
_DESIGNS = {
    "constant": _Design(STEP, _telescoped, ((1.0, 0, 1.0),), False),
    "linear-relu": _Design(RELU, _every_knot,
                           ((1.0, -1, 1.0), (1.0, 0, -1.0),
                            (-1.0, 1, 1.0), (-1.0, 0, -1.0)), True),
    "linear-ramp": _Design(RAMP, _every_knot, _PAIR, True),
    "cubic": _Design(CUBIC, _coupled, _PAIR, True),
    "cubic-spaced": _Design(CUBIC, _even_knots, _PAIR, True),
}
METHODS = tuple(_DESIGNS)


def build_network(method, samples, slope=DEFAULT_SLOPE):
    """Build the network of a construction method (see the module
    docstring) for the knot samples.  slope is the cubic's inflection
    slope; the other methods ignore it.

    Raises NumericalError, naming the output column, when a tap or a
    tap bias overflows.
    """
    design = _DESIGNS.get(method)
    if design is None:
        raise UsageError("unknown construction method %r" % (method,))
    act = Activation.cubic(slope) if design.kind == CUBIC else Activation(design.kind)
    with np.errstate(over="ignore", invalid="ignore"):
        knots, c = design.taps(samples)
    q = c.shape[1]
    tap_bias = np.zeros(q)
    for k in range(q):
        if not np.all(np.isfinite(c[:, k])):
            raise NumericalError("tap weights of output %d are not finite" % k)
        if design.plus_one:
            share = -c[:, k] / len(design.units)
            try:
                tap_bias[k] = math.fsum(np.repeat(share, len(design.units)).tolist())
            except OverflowError:
                raise NumericalError("tap bias of output %d overflows" % k) from None
    grid = samples.grid
    # x_{-1}, x_0, ..., x_{N+1}: knot j + offset sits at index j + offset + 1
    x = np.concatenate([[-grid.h], grid.knots, [1.0 + grid.h]])
    direction, offset, sign = (np.array(u) for u in zip(*design.units))
    weight = np.tile(direction * float(grid.n), knots.size)
    bias = -(weight * x[(knots[:, None] + offset + 1).ravel()])
    taps = (c[:, None, :] * sign[:, None]).reshape(-1, q)
    return Network(weight, bias, (act,), np.zeros(weight.size, np.int64),
                   taps, tap_bias, method, grid.n)
