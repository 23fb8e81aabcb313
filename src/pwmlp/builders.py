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
                1; c_j = g_j solves the tridiagonal coupling system
                g_j + 0.5 (g_{j-1} + g_{j+1}) = f_j, since adjacent
                bumps overlap with value 0.5 at distance h.
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
from .oracle import refine_coupling


def _thomas_factor(lower, diag, upper):
    """The elimination half of thomas_solve, which depends on the bands
    only: (sub-diagonal, pivots, multipliers cp) as float lists, to be
    reused by _thomas_sweep for any number of right-hand sides.  Raises
    NumericalError on a zero pivot."""
    lo, d, up = (np.asarray(v, dtype=np.float64).tolist()
                 for v in (lower, diag, upper))
    m = len(d)
    piv = [0.0] * m
    cp = [0.0] * m
    for i in range(m):
        p = d[i] - lo[i] * cp[i - 1] if i else d[0]
        if p == 0.0:
            raise NumericalError("zero pivot in tridiagonal elimination")
        piv[i] = p
        cp[i] = up[i] / p if i < m - 1 else 0.0
    return lo, piv, cp


def _thomas_sweep(factor, rhs):
    """Forward and back substitution of one right-hand side through a
    _thomas_factor, on Python floats."""
    lo, piv, cp = factor
    r = np.asarray(rhs, dtype=np.float64).tolist()
    x = [r[0] / piv[0]]
    for ri, li, pi in zip(r[1:], lo[1:], piv[1:]):
        x.append((ri - li * x[-1]) / pi)
    for i in range(len(x) - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return np.array(x)


def thomas_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system in O(n) without pivoting.

        | d0 u0          |   x0     r0
        | l1 d1 u1       | * x1  =  r1
        |    l2 d2 u2    |   x2     r2
        |       ...      |   ..     ..

    lower[0] and upper[-1] are ignored.  No pivoting is performed, so
    the caller must supply a matrix where elimination cannot break down
    (positive definite or diagonally dominant).  The recurrences run on
    Python floats, which round as float64 does and cost less to index
    than numpy scalars.
    """
    return _thomas_sweep(_thomas_factor(lower, diag, upper), rhs)


@dataclass(frozen=True)
class CouplingSolution:
    """Bump weights g(x_j) per output dimension, shape (n+1, q)."""

    g: np.ndarray
    residual_max: float


def solve_bump_coupling(samples):
    """Solve g_j + 0.5 (g_{j-1} + g_{j+1}) = f_j with g_{-1} = g_{N+1} = 0.

    The matrix (unit diagonal, 0.5 off-diagonals) is symmetric positive
    definite for every N -- its eigenvalues are 1 + cos(k pi / (N+2)) > 0
    -- so the unpivoted Thomas sweep cannot break down.  Its condition
    grows like N^2, so the sweep's g is refined (oracle.refine_coupling)
    to about eps * max|g|.  The plain float residual of the result must
    stay within 1e-10 * max(1, |f|); on huge rough data the sweep can
    overflow, and a non-finite residual fails the check too.  Raises
    NumericalError naming the first output column that fails.
    """
    f = samples.values
    m, q = f.shape
    factor = _thomas_factor(np.full(m, 0.5), np.ones(m), np.full(m, 0.5))

    def sweep(rhs):
        return np.column_stack([_thomas_sweep(factor, col) for col in rhs.T])

    with np.errstate(over="ignore", invalid="ignore"):
        g = refine_coupling(sweep, f)
        overlap = g.copy()
        overlap[:-1] += 0.5 * g[1:]
        overlap[1:] += 0.5 * g[:-1]
        residual = np.max(np.abs(overlap - f), axis=0)
    scale = max(1.0, float(np.max(np.abs(f))))
    for k in range(q):
        if not residual[k] <= 1e-10 * scale:
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
