"""Uniform knot grids on [0, 1] and target samples taken at the knots."""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, require_floats, require_int


def _uniform_knots(n):
    """The knots j * (1/n), j = 0..n; UsageError when numpy refuses the
    count, or returns fewer knots (as it does for n + 1 near 2**63)."""
    try:
        knots = np.arange(n + 1, dtype=np.float64) * (1.0 / n)
    except (ValueError, MemoryError) as exc:
        raise UsageError("knot grid of n = %d cannot be made: %s"
                         % (n, exc)) from None
    if knots.size != n + 1:
        raise UsageError("knot grid of n = %d cannot be made: numpy "
                         "returned %d knots" % (n, knots.size))
    return knots


@dataclass(frozen=True)
class KnotGrid:
    """Partition of [0, 1] into n equal subintervals: x_j = j*h, h = 1/n."""

    n: int
    h: float
    knots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", require_int(
            self.n, 1, "knot grid needs an integer n >= 1, got %r"
            % (self.n,)))
        k = require_floats(self.knots, "knot array")
        if k.shape != (self.n + 1,):
            raise UsageError("knot array must have n + 1 entries")
        # The builders take unit weights from n and biases from the
        # knots, and the oracle windows by floor(x * n): only the uniform
        # grid, bit for bit, is one that both honour.
        knots = _uniform_knots(self.n)
        if self.h != 1.0 / self.n or k.tobytes() != knots.tobytes():
            raise UsageError("knot grid must be uniform: h = 1/n and "
                             "knots j * (1/n), as KnotGrid.uniform(n) makes")
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        # an h equal to 1/n but of another type (True at n = 1, a
        # float32 0.25) is stored as the float every grid holds
        object.__setattr__(self, "h", 1.0 / self.n)

    @staticmethod
    def uniform(n):
        """The grid of n equal subintervals; n must be an int or numpy
        integer (not a bool) of at least 1, never truncated."""
        n = require_int(n, 1, "knot grid needs an integer n >= 1, got %r"
                        % (n,))
        return KnotGrid(n, 1.0 / n, _uniform_knots(n))


@dataclass(frozen=True)
class TargetSamples:
    """Target values at the knots: values[j, k] = f_k(x_j), shape (n+1, q)."""

    grid: KnotGrid
    values: np.ndarray

    def __post_init__(self):
        v = require_floats(self.values, "target samples")
        if (v.ndim not in (1, 2) or v.shape[0] != self.grid.n + 1
                or v.shape[-1] < 1):
            raise UsageError(
                "values must have one row per knot (expected %d, got %r)"
                % (self.grid.n + 1, v.shape)
            )
        if not np.all(np.isfinite(v)):
            raise UsageError("target samples must be finite")
        object.__setattr__(self, "values", v.reshape(len(v), -1))

    @property
    def q(self):
        return self.values.shape[1]

    @staticmethod
    def from_function(grid, fn):
        """Sample a (vectorized) scalar function at the knots."""
        return TargetSamples(grid, fn(grid.knots))
