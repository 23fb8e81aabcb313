"""Piecewise-polynomial reference models built from localized kernels.

A model is a kernel sum sum_j c_j K(h^-1 (x - x_j)) with box, triangle
or cubic bump kernels on every stride-th knot: the ground truth the
constructed networks are checked against.  One locality
window of kernel rows and weights serves every evaluation (the grid
path, a single point, and each axis of the tensor-product sum, whose
p = 1 case is the grid path bit for bit) and the least-squares kernel
fit.  The stride-1 bump weights solve the coupling system in its sine
eigenbasis (O(N log N), refined to about eps * |g|), which shares no
solver with the construction side's closed form; only the refinement
of both, with its residual and its power-of-two scaling, is common.  A
brute-force dense LU of the same system lives here too, as a
cross-check at small sizes, and a moment audit of the polynomial degree
each kernel's shifts reproduce.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activations import DEFAULT_SLOPE, Activation, activation_values, eval_activation
from .errors import DomainError, NumericalError, UsageError, require_int
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

# Sample points per unit of u and relative spread tolerance for the
# moment sums in reproduction_degree.
MOMENT_POINTS = 64
MOMENT_RTOL = 1e-12

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
            # validates the range
            Activation.cubic(self.slope)
        elif self.slope is not None:
            raise UsageError("slope only applies to the cubic bump kernel")

    @staticmethod
    def box():
        return KernelKind(BOX)

    @staticmethod
    def triangle():
        return KernelKind(TRIANGLE)

    @staticmethod
    def cubic_bump(slope=DEFAULT_SLOPE):
        return KernelKind(CUBIC_BUMP, float(slope))


def eval_kernel(kernel, u):
    """Evaluate a kernel at the normalized coordinate u = (x - x_j) / h.

    Box: 1 on [0, 1), else 0.  Triangle: u+1 on [-1, 0], 1-u on [0, 1],
    else 0.  Cubic bump: q(u+1) + q(1-u) - 1, two opposed unit cubics
    minus the unit shift; support [-2, 2], value 1 at 0 and 0.5 at +-1.
    """
    u = float(u)
    if kernel.kind == BOX:
        return 1.0 if 0.0 <= u < 1.0 else 0.0
    if kernel.kind == TRIANGLE:
        if u < -1.0 or u > 1.0:
            return 0.0
        return u + 1.0 if u <= 0.0 else 1.0 - u
    act = Activation.cubic(kernel.slope)
    return eval_activation(act, u + 1.0) + eval_activation(act, 1.0 - u) - 1.0


def kernel_values(kernel, u):
    """Vectorized eval_kernel over a float64 array (same arithmetic)."""
    u = np.asarray(u, dtype=np.float64)
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
    ``stride`` and is a polynomial of degree <= k + 3 between integers,
    so 64 midpoint samples per unit of u see any variation; M_k counts
    as constant when its spread is within MOMENT_RTOL of the largest
    sum of absolute terms.  A stride above twice the support radius
    leaves points that no shift covers, where M_0 is 0, so the answer
    is -1 without sampling.
    """
    stride = require_int(stride, 1, "kernel stride must be a positive integer")
    if stride > 2 * _SUPPORT_RADIUS[kernel.kind]:
        return -1
    return _sampled_degree(kernel, stride)


def _sampled_degree(kernel, stride):
    """reproduction_degree by sampling the moment sums over one period,
    at a cost of O(stride)."""
    radius = _SUPPORT_RADIUS[kernel.kind]
    u = (np.arange(MOMENT_POINTS * stride) + 0.5) / MOMENT_POINTS
    # every j with |u - stride*j| <= radius for u in [0, stride)
    offsets = stride * np.arange(-radius, radius + 2)[None, :] - u[:, None]
    weights = kernel_values(kernel, -offsets)
    degree = -1
    for k in range(4):
        terms = offsets**k * weights
        sums = terms.sum(axis=1)
        scale = float(np.abs(terms).sum(axis=1).max())
        if np.ptp(sums) > MOMENT_RTOL * scale:
            break
        degree = k
    return degree


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
        c = np.asarray(self.coefficients, dtype=np.float64)
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


def eval_oracle(model, x):
    """Evaluate the kernel sum at a scalar x in [0, 1]; returns length-q array."""
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError("oracle evaluation point %r outside [0, 1]" % (x,))
    return eval_oracle_grid(model, np.array([x]))[0]


def eval_oracle_grid(model, grid):
    """Evaluate the kernel sum over a 1-D grid; returns (len(grid), q)."""
    xs = np.asarray(grid, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise UsageError("evaluation grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(xs)) or xs.min() < 0.0 or xs.max() > 1.0:
        raise DomainError("oracle evaluation points must lie in [0, 1]")
    coef = model.coefficients
    acc = np.zeros((xs.size, model.q), dtype=np.float64)
    for rows, weights in _window(model, xs):
        acc += coef.take(rows, axis=0) * weights[:, None]
    return acc


def eval_tensor_product(models, corner_values, point):
    """Tensor-product kernel sum over a p-dimensional grid.

    models supply one axis each (shared kernel kind); corner_values is a
    p-dimensional array indexed by per-axis kernel rows.  For p = 1 this
    reduces to eval_oracle_grid bit for bit (same window, same
    accumulation order).
    """
    if len(models) < 1:
        raise UsageError("tensor product needs at least one axis")
    if len(models) > 3:
        raise UsageError("tensor grids beyond p=3 are not supported")
    kinds = {m.kernel.kind for m in models}
    if len(kinds) != 1:
        raise UsageError("tensor product axes must share one kernel kind")
    point = [float(c) for c in point]
    if len(point) != len(models):
        raise UsageError(
            "point has %d coordinates for %d axes" % (len(point), len(models))
        )
    corner = np.asarray(corner_values, dtype=np.float64)
    expected = tuple(m.coefficients.shape[0] for m in models)
    if corner.shape != expected:
        raise UsageError(
            "corner values shaped %r, expected %r" % (corner.shape, expected)
        )
    for c in point:
        if not (0.0 <= c <= 1.0):
            raise DomainError("tensor point coordinate %r outside [0, 1]" % (c,))

    axis_terms = [[(int(r[0]), float(w[0])) for r, w in _window(m, np.array([c]))]
                  for m, c in zip(models, point)]
    s = 0.0
    # lexicographic walk over the window, last axis fastest; for p = 1
    # this is exactly the eval_oracle_grid accumulation (1.0 * w == w)
    for combo in itertools.product(*axis_terms):
        w = 1.0
        for _, wd in combo:
            w = w * wd
        s = s + corner[tuple(j for j, _ in combo)] * w
    return s


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
    data = np.asarray(dense_samples, dtype=np.float64)
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
    if not np.all(np.isfinite(omega)):
        raise NumericalError("kernel fit produced non-finite weights")
    fitted = eval_oracle_grid(PiecewiseOracle(grid, kernel, omega), xs)[:, 0]
    rms = float(np.sqrt(np.mean((fitted - ys) ** 2)))
    return KernelFit(omega=omega, kernel=kernel, grid=grid, rms_residual=rms)
