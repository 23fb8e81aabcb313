"""Piecewise-polynomial reference models built from localized kernels.

A model is a kernel sum sum_j c_j K(h^-1 (x - x_j)) with box, triangle
or cubic bump kernels on every stride-th knot: the ground truth the
constructed networks are checked against.  One locality window of
kernel rows and weights serves every evaluation (eval_oracle_grid,
which the tensor-product sum applies axis by axis, so its p = 1 case is
eval_oracle_grid itself) and the least-squares kernel fit.  The
stride-1 bump weights solve the coupling system in its sine
eigenbasis (O(N log N), refined to about eps * |g|), which shares no
solver with the construction side's closed form; only the refinement
of both, with its residual and its power-of-two scaling, is common.  A
brute-force dense LU of the same system lives here too, as a
cross-check at small sizes, and an exact moment audit of the polynomial
degree each kernel's shifts reproduce.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activations import DEFAULT_SLOPE, Activation, activation_values
from .errors import (DomainError, NumericalError, UsageError, require_finite,
                     require_floats, require_int, require_points)
from .grids import KnotGrid

BOX = "box"
TRIANGLE = "triangle"
CUBIC_BUMP = "cubic-bump"

KERNEL_KINDS = (BOX, TRIANGLE, CUBIC_BUMP)

# Each kernel's support lies within |u| <= radius (the box's is [0, 1)).
_SUPPORT_RADIUS = {BOX: 1, TRIANGLE: 1, CUBIC_BUMP: 2}

# Ridge added to the normal equations in fit_kernel_weights.  Large
# enough to repair near-collinear boundary kernels, small enough not to
# bias a well-posed fit beyond ~1e-12.
RIDGE = 1e-12

# Steps of iterative refinement after the first solve of the bump
# coupling system, in the oracle and in the builder alike.
REFINEMENT_STEPS = 2


@dataclass(frozen=True)
class KernelKind:
    """Kernel selector; the cubic bump carries its inflection slope."""

    kind: str
    slope: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise UsageError("unknown kernel kind %r" % (self.kind,))
        if self.kind == CUBIC_BUMP:
            if self.slope is None:
                raise UsageError("cubic bump kernel needs an inflection slope")
            object.__setattr__(self, "slope", Activation.cubic(self.slope).a1)
        elif self.slope is not None:
            raise UsageError("slope only applies to the cubic bump kernel")

    @staticmethod
    def cubic_bump(slope=DEFAULT_SLOPE):
        return KernelKind(CUBIC_BUMP, slope)


def kernel_values(kernel, u):
    """A kernel over an array of normalized coordinates
    u = (x - x_j) / h that are numbers, as a new float64 array.

    Box: 1 on [0, 1), else 0.  Triangle: u+1 on [-1, 0], 1-u on [0, 1],
    else 0.  Cubic bump: q(u+1) + q(1-u) - 1, two opposed unit cubics
    minus the unit shift; support [-2, 2], value 1 at 0 and 0.5 at +-1.
    """
    u = require_floats(u, "kernel coordinates")
    if kernel.kind == BOX:
        return np.where((u >= 0.0) & (u < 1.0), 1.0, 0.0)
    if kernel.kind == TRIANGLE:
        inner = np.where(u <= 0.0, u + 1.0, 1.0 - u)
        return np.where((u < -1.0) | (u > 1.0), 0.0, inner)
    act = Activation.cubic(kernel.slope)
    return activation_values(act, u + 1.0) + activation_values(act, 1.0 - u) - 1.0


def reproduction_degree(kernel, stride=1):
    """Largest d <= 3 such that the shifts K(u - stride*j) reproduce
    every polynomial of degree d; -1 if they do not even sum to a
    constant.

    This is the Strang-Fix test: the moment sums
    M_k(u) = sum_j (stride*j - u)^k K(u - stride*j), k = 0..d, must be
    constant in u, and a space of such shifts then converges at order
    d + 1 and no faster, whatever the coefficients.  M_k has period
    ``stride`` and degree <= k + 3 <= 6 on each unit interval, so it is
    constant exactly when its Fraction values at i + m/8, m = 1..7,
    agree over every [i, i + 1) of the period: exact, so no tolerance
    decides.  A stride above twice the support radius leaves points
    that no shift covers, so the answer there is -1.
    """
    from fractions import Fraction  # not on import: it loads decimal, 0.4 MB
    stride = require_int(stride, 1, "kernel stride must be a positive integer")
    radius = _SUPPORT_RADIUS[kernel.kind]
    if stride > 2 * radius:
        return -1
    # at u = i + m/8, every j with |u - stride*j| <= radius
    rows = [[(stride * j - u, _exact_kernel(kernel, u - stride * j))
             for j in range(-radius, radius + 2)]
            for u in (Fraction(m, 8) for m in range(1, 8 * stride) if m % 8)]
    for k in range(4):
        if len({sum(d**k * w for d, w in row) for row in rows}) > 1:
            return k - 1
    return 3


def _exact_kernel(kernel, u):
    """kernel_values at one Fraction u; u.from_float takes floats exactly."""
    if kernel.kind == BOX:
        return int(0 <= u < 1)
    if kernel.kind == TRIANGLE:
        return max(0, 1 - abs(u))
    a0, a1, a2, a3 = map(u.from_float, Activation.cubic(kernel.slope).cubic_coeffs)
    return sum(((a3 * t + a2) * t + a1) * t + a0
               for t in (min(max(v, -1), 1) for v in (u + 1, 1 - u))) - 1


@dataclass(frozen=True)
class PiecewiseOracle:
    """Kernel-sum approximant sum_j c_j K(h^-1 (x - x_j)).

    One coefficient row per kernel centre x_0, x_stride, ..., x_n: the
    kernels sit on every stride-th knot, and stride must divide n.  The
    box kernel sits on every knot (stride 1).
    """

    grid: KnotGrid
    kernel: KernelKind
    coefficients: np.ndarray
    stride: int = 1

    def __post_init__(self):
        c = require_floats(self.coefficients, "oracle coefficients")
        if c.ndim == 1:
            c = c.reshape(-1, 1)
        stride = require_int(self.stride, 1, "oracle stride must be a "
                             "positive integer, got %r" % (self.stride,))
        if self.grid.n % stride != 0:
            raise UsageError("stride %d does not divide n = %d"
                             % (stride, self.grid.n))
        if self.kernel.kind == BOX and stride != 1:
            raise UsageError("the box kernel needs stride 1, got %d" % stride)
        rows = self.grid.n // stride + 1
        if c.ndim != 2 or c.shape[0] != rows:
            raise UsageError(
                "expected %d coefficient rows, got %r" % (rows, c.shape)
            )
        if not np.all(np.isfinite(c)):
            raise UsageError("oracle coefficients must be finite")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "stride", stride)

    @property
    def q(self):
        return self.coefficients.shape[1]


def _window(model, xs):
    """Yield (rows, weights) arrays over xs, in ascending row order, for
    the kernels whose support can contain each x; one window offset at a
    time, so that no temporary outgrows xs.

    The window is exact.  jc = int(x * n) and u = x * n - stride * row
    come from the same product x * n, so x * n - stride * (jc // stride)
    lies in [0, stride) and the offsets 1 - half .. half around row
    jc // stride, half = ceil(radius / stride), cover every row with
    |u| < radius.  The rows beyond them have |u| >= radius, where each
    kernel is exactly 0.0, so leaving them out changes no byte of a sum
    that starts at +0.0.  Rows outside the model are clipped into range
    and get weight 0 for the same reason.  For the box model the single
    covering box is yielded: box j holds x once x * n >= n * x_j, the
    rounded test by which the step unit at x_j switches, corrected from
    int(x * n) in both directions, with the last box closed at x = 1 as
    the step-sum network is.
    """
    n = model.grid.n
    knots = model.grid.knots
    xn = xs * n
    jc = xn.astype(np.int64)
    if model.kernel.kind == BOX:
        j = np.minimum(jc, n - 1)
        j = j - ((j > 0) & (xn < n * knots[j]))
        j = j + ((j < n - 1) & (xn >= n * knots[j + 1]))
        yield j, np.ones(xs.size)
        return
    stride = model.stride
    half = -(-_SUPPORT_RADIUS[model.kernel.kind] // stride)
    last = model.coefficients.shape[0] - 1
    for off in range(1 - half, half + 1):
        rows = jc // stride + off
        valid = (rows >= 0) & (rows <= last)
        rows = np.clip(rows, 0, last)
        u = xn - stride * rows
        yield rows, kernel_values(model.kernel, u) * valid


def eval_oracle_grid(model, grid):
    """Evaluate the kernel sum over a 1-D grid; returns (len(grid), q).

    The points are checked by errors.require_points and must lie in
    [0, 1] (DomainError).  Raises NumericalError, naming the first such
    x, when a sum of the finite coefficients overflows."""
    xs = require_points(grid)
    if xs.min() < 0.0 or xs.max() > 1.0:
        raise DomainError("oracle evaluation points must lie in [0, 1]")
    coef = model.coefficients
    acc = np.zeros((xs.size, model.q), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, weights in _window(model, xs):
            acc += coef.take(rows, axis=0) * weights[:, None]
    return require_finite(xs, acc, "kernel sum")


def eval_tensor_product(models, corner_values, point):
    """Tensor-product kernel sum over a p-dimensional grid.

    models supply one axis each (shared kernel kind); corner_values is a
    p-dimensional array indexed by per-axis kernel rows.  The axes are
    contracted in order, each by eval_oracle_grid at its coordinate over
    the model whose columns are the remaining axes, so p = 1 is
    eval_oracle_grid itself, which refuses a coordinate or an overflow.
    A point or corner value that is not numbers, a point without one
    coordinate per axis, or a corner value that is not finite is a
    UsageError.
    """
    if len(models) < 1:
        raise UsageError("tensor product needs at least one axis")
    if len(models) > 3:
        raise UsageError("tensor grids beyond p=3 are not supported")
    kinds = {m.kernel.kind for m in models}
    if len(kinds) != 1:
        raise UsageError("tensor product axes must share one kernel kind")
    point = require_floats(point, "tensor point")
    corner = require_floats(corner_values, "corner values")
    if point.shape != (len(models),):
        raise UsageError("tensor point must be numbers, one per axis: "
                         "shape %r for %d axes" % (point.shape, len(models)))
    expected = tuple(m.coefficients.shape[0] for m in models)
    if corner.shape != expected:
        raise UsageError(
            "corner values shaped %r, expected %r" % (corner.shape, expected)
        )
    if not np.all(np.isfinite(corner)):
        raise UsageError("corner values must be finite")
    values = corner
    for m, c in zip(models, point):
        rows = values.reshape(m.coefficients.shape[0], -1)
        values = eval_oracle_grid(
            PiecewiseOracle(m.grid, m.kernel, rows, m.stride), [c])
    return values[0, 0]


def _two_sum(a, b):
    """a + b rounded, and its exact rounding error."""
    s = a + b
    back = s - a
    return s, (a - (s - back)) + (b - back)


def coupling_residual(g, f):
    """r = f - A g for the coupling matrix A (unit diagonal, 0.5 on both
    off-diagonals), column by column, to about eps * |r|.

    0.5 * g is exact, so r_j is the sum of the four exact terms f_j,
    -g_j, -0.5 g_{j-1} and -0.5 g_{j+1}; three TwoSums carry every
    rounding error, and only their sum is rounded once more.
    """
    half = 0.5 * g
    s, e1 = _two_sum(f, -g)
    left = np.zeros_like(g)
    left[1:] = half[:-1]
    s, e2 = _two_sum(s, -left)
    right = np.zeros_like(g)
    right[:-1] = half[1:]
    s, e3 = _two_sum(s, -right)
    return s + (e1 + e2 + e3)


def refine_coupling(solve, f):
    """g = solve(f), then REFINEMENT_STEPS steps of iterative refinement:
    solve A d = r for r = coupling_residual(g, f) and set g += d.

    solve maps an (m, q) right-hand side to its (m, q) solution.  Each
    column goes to solve scaled by a power of two to a max|.| in
    [0.5, 1), and its solution is scaled back, so that a solve's
    intermediate sums cannot overflow where g itself is finite.
    """
    def scaled(rhs):
        e = np.frexp(np.max(np.abs(rhs), axis=0))[1]
        return np.ldexp(solve(np.ldexp(rhs, -e)), e)

    g = scaled(f)
    for _ in range(REFINEMENT_STEPS):
        g = g + scaled(coupling_residual(g, f))
    return g


def _dst1(x):
    """Type-I discrete sine transform along axis 0,
    S_k = sum_j x_j sin(pi j k / (m + 1)), from the real FFT of the odd
    extension."""
    m = x.shape[0]
    z = np.zeros((2 * (m + 1),) + x.shape[1:])
    z[1:m + 1] = x
    z[m + 2:] = -x[::-1]
    return -np.fft.rfft(z, axis=0)[1:m + 1].imag / 2.0


def _sine_solve(f):
    """One solve of A g = f in A's sine eigenbasis.  The eigenvalues
    1 + cos(k pi / (m + 1)) are written 2 sin^2((m + 1 - k) pi / (2m + 2))
    so the smallest keep their relative accuracy."""
    m = f.shape[0]
    lam = 2.0 * np.sin(np.pi * np.arange(m, 0, -1) / (2 * (m + 1))) ** 2
    return (2.0 / (m + 1)) * _dst1(_dst1(f) / lam[:, None])


def sine_solve_coupling(samples):
    """Solve the bump-coupling system in its sine eigenbasis, O(N log N)
    time and O(N) memory, refined with refine_coupling.

    The reference solve of the stride-1 bump model: it shares no code
    with the construction side's closed-form solve, and both refined
    solves reach the same g to within a few units in the last place of
    max|g|.
    Raises NumericalError, naming the output column, when g overflows.
    """
    f = samples.values
    with np.errstate(over="ignore", invalid="ignore"):
        g = refine_coupling(_sine_solve, f)
    for k in range(g.shape[1]):
        if not np.all(np.isfinite(g[:, k])):
            raise NumericalError(
                "coupling solve of output %d is not finite" % k)
    return g


def dense_solve_coupling(samples):
    """Brute-force LU solve of the bump-coupling system.

    The matrix has unit diagonal and 0.5 on both off-diagonals; this is
    a cross-check of the O(N) closed form and the O(N log N) sine solve
    at small N, where its (N+1)^2 matrix fits in memory.
    """
    n = samples.grid.n
    # Filled in place, so the matrix is the only (n+1)^2 array besides
    # the solver's own copy.
    m = np.zeros((n + 1, n + 1))
    np.fill_diagonal(m, 1.0)
    np.fill_diagonal(m[1:], 0.5)
    np.fill_diagonal(m[:, 1:], 0.5)
    try:
        g = np.linalg.solve(m, samples.values)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("coupling system solve failed: %s" % (exc,)) from exc
    return g


@dataclass(frozen=True)
class KernelFit:
    """Least-squares kernel weights for dense (x, y) samples."""

    omega: np.ndarray
    kernel: KernelKind
    grid: KnotGrid
    rms_residual: float


def fit_kernel_weights(dense_samples, kernel, grid):
    """Fit weights w_j minimizing sum_i (y_i - sum_j w_j K(h^-1(x_i - x_j)))^2.

    The kernels are placed by the oracle's window, so the weights and
    rms_residual are those of the model eval_oracle_grid evaluates; a
    row no sample reaches (the box's row N) gets weight 0.0.  The normal
    equations are summed from the window in O(m) and solved with a tiny
    ridge on the diagonal.  Needs at least as many samples as knots;
    raises UsageError when the dense (N+1)^2 Gram matrix cannot be
    allocated.
    """
    data = require_floats(dense_samples, "dense samples")
    if data.ndim != 2 or data.shape[1] != 2:
        raise UsageError("dense samples must be (x, y) pairs")
    xs = data[:, 0]
    ys = data[:, 1]
    m = xs.size
    cols = grid.n + 1
    if m < cols:
        raise UsageError(
            "underdetermined fit: %d samples for %d knots" % (m, cols)
        )
    if not np.all(np.isfinite(data)):
        raise DomainError("dense samples must be finite")
    if xs.min() < 0.0 or xs.max() > 1.0:
        raise DomainError("sample locations must lie in [0, 1]")

    terms = list(_window(PiecewiseOracle(grid, kernel, np.zeros(cols)), xs))
    index = np.concatenate([r * cols + s for r, _ in terms for s, _ in terms])
    prods = np.concatenate([w * v for _, w in terms for _, v in terms])
    try:
        gram = np.bincount(index, prods, minlength=cols * cols).reshape(cols, cols)
    except MemoryError as exc:
        raise UsageError("kernel fit of N = %d cannot be made: %s"
                         % (grid.n, exc)) from None
    gram.flat[::cols + 1] += RIDGE
    rows, weights = (np.concatenate(t) for t in zip(*terms))
    rhs = np.bincount(rows, weights * np.tile(ys, len(terms)), minlength=cols)
    try:
        omega = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("normal equations singular: %s" % (exc,)) from exc
    require_finite(grid.knots, omega, "kernel fit weight")
    fitted = eval_oracle_grid(PiecewiseOracle(grid, kernel, omega), xs)[:, 0]
    rms = float(np.sqrt(np.mean((fitted - ys) ** 2)))
    return KernelFit(omega=omega, kernel=kernel, grid=grid, rms_residual=rms)
