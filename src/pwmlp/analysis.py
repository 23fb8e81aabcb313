"""Error measurement, network-vs-oracle verification, and empirical
convergence-order estimation."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .activations import DEFAULT_SLOPE
from .builders import build_network, matching_oracle
from .errors import NumericalError, UsageError, require_int
from .grids import KnotGrid, TargetSamples
from .network import compile_network, forward_grid
from .oracle import eval_oracle_grid
from .targets import TargetDef, get_target

# Sup errors at or below this (relative) level are floating-point noise,
# not approximation error; order fitting would be meaningless.
ZERO_ERROR_RTOL = 1e-13


@dataclass(frozen=True)
class ErrorSummary:
    sup_error: float
    l2_error: float
    grid_size: int


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    max_deviation: float
    worst_x: float
    tol: float
    grid_size: int


@dataclass(frozen=True)
class ConvergenceReport:
    method: str
    n_values: Tuple[int, ...]
    sup_errors: Tuple[float, ...]
    l2_errors: Tuple[float, ...]
    fitted_order: float
    r_squared: float
    zero_error: bool

    @property
    def local_orders(self):
        """log(e_i / e_{i+1}) / log(N_{i+1} / N_i) for each consecutive pair
        of N; NaN throughout when zero_error is set."""
        if self.zero_error:
            return (float("nan"),) * (len(self.n_values) - 1)
        n = np.asarray(self.n_values, dtype=np.float64)
        e = np.asarray(self.sup_errors, dtype=np.float64)
        return tuple(float(o) for o in
                     np.log(e[:-1] / e[1:]) / np.log(n[1:] / n[:-1]))


def uniform_grid(grid_size):
    """grid_size evenly spaced points on [0, 1], both ends included;
    grid_size must be an int or numpy integer of at least 2."""
    grid_size = require_int(grid_size, 2, "evaluation grid needs at least "
                            "2 points, an integer count, got %r" % (grid_size,))
    try:
        return np.linspace(0.0, 1.0, grid_size)
    except (ValueError, IndexError, MemoryError) as exc:
        # numpy's refusals of a count it cannot index or allocate
        raise UsageError("evaluation grid of %d points cannot be made: %s"
                         % (grid_size, exc)) from None


def measure_error(approx, target, grid_size):
    """Sup and RMS deviation between two vectorized closures on [0, 1]."""
    xs = uniform_grid(grid_size)
    return _error_summary(xs, approx(xs), target(xs))


def _error_summary(xs, approx_values, target_values):
    """Sup and RMS deviation of the approximant's values from the
    target's on the grid xs; each must hold one finite value per
    point."""
    ya = np.asarray(approx_values, dtype=np.float64)
    yt = np.asarray(target_values, dtype=np.float64)
    if ya.shape != xs.shape or yt.shape != xs.shape:
        raise UsageError("closures must return one value per grid point")
    for name, y in (("approximant", ya), ("target", yt)):
        bad = ~np.isfinite(y)
        if bad.any():
            raise NumericalError(
                "%s is non-finite at x=%r" % (name, float(xs[bad.argmax()]))
            )
    d = ya - yt
    return ErrorSummary(
        sup_error=float(np.max(np.abs(d))),
        l2_error=float(np.sqrt(np.mean(d * d))),
        grid_size=xs.size,
    )


def verify_equivalence(net, model, grid_size=10001, tol=1e-9):
    """Compare a constructed network against a reference model pointwise.

    The network is compiled once (compile_network) and evaluated on the
    grid in its piecewise-polynomial form.  At the worst point the
    deviation is measured again on the network's own forward pass, one
    point of forward_grid, and the larger of the two is reported: the
    verdict never rests on the compiled form alone at the point that
    decides it.  tol must convert to a float >= 0 and grid_size must be
    an integer >= 2 (UsageError otherwise).
    """
    try:
        tol_value = float(tol)
    except (TypeError, ValueError, OverflowError):
        tol_value = float("nan")
    if not tol_value >= 0.0:
        raise UsageError("tolerance must be >= 0, got %r" % (tol,))
    if net.out_dim != model.q:
        raise UsageError(
            "network has %d outputs, model has %d" % (net.out_dim, model.q)
        )
    xs = uniform_grid(grid_size)
    ref = eval_oracle_grid(model, xs)
    diff = np.abs(compile_network(net).eval(xs) - ref)
    flat = int(np.argmax(diff))
    row = flat // model.q
    dense = np.abs(forward_grid(net, xs[row:row + 1])[0] - ref[row])
    max_dev = max(float(diff.flat[flat]), float(np.max(dense)))
    return EquivalenceReport(
        passed=max_dev <= tol_value,
        max_deviation=max_dev,
        worst_x=float(xs[row]),
        tol=tol_value,
        grid_size=xs.size,
    )


def estimate_order(method, target, n_values, grid_size=10001,
                   slope=DEFAULT_SLOPE, route="network"):
    """Fit the empirical convergence order of a construction method.

    Builds the approximant for each N, measures the sup error against
    the analytic target, and fits a least-squares line to log(error)
    versus log(N); the order is the negated slope.  route="network"
    measures each network through its compiled form (compile_network);
    route="oracle" measures the reference model instead (the two must
    agree, so their fitted orders do too).
    """
    if isinstance(target, str):
        target = get_target(target)
    if not isinstance(target, TargetDef):
        raise UsageError("target must be a registry name or TargetDef")
    n_values = list(n_values)
    if len(n_values) < 3:
        raise UsageError("order estimation needs at least 3 values of N")
    n_values = [require_int(n, 4, "order estimation needs N >= 4, each an "
                            "integer, got %r" % (n,)) for n in n_values]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise UsageError("N values must be strictly increasing")
    if route not in ("network", "oracle"):
        raise UsageError("route must be 'network' or 'oracle'")

    # the target on the error grid is the same for every N
    xs = uniform_grid(grid_size)
    yt = target.fn(xs)
    sups = []
    l2s = []
    for n in n_values:
        samples = TargetSamples.from_function(KnotGrid.uniform(n), target.fn)
        if route == "network":
            compiled = compile_network(build_network(method, samples, slope))
            ya = compiled.eval(xs)[:, 0]
        else:
            model = matching_oracle(method, samples, slope)
            ya = eval_oracle_grid(model, xs)[:, 0]
        summary = _error_summary(xs, ya, yt)
        sups.append(summary.sup_error)
        l2s.append(summary.l2_error)

    scale = max(1.0, target.sup_abs)
    zero_error = any(s <= ZERO_ERROR_RTOL * scale for s in sups)
    if zero_error:
        fitted = float("nan")
        r_squared = float("nan")
    else:
        log_n = np.log(np.asarray(n_values, dtype=np.float64))
        log_e = np.log(np.asarray(sups, dtype=np.float64))
        coeffs = np.polyfit(log_n, log_e, 1)
        fitted = -float(coeffs[0])
        pred = np.polyval(coeffs, log_n)
        ss_res = float(np.sum((log_e - pred) ** 2))
        ss_tot = float(np.sum((log_e - np.mean(log_e)) ** 2))
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ConvergenceReport(
        method=method,
        n_values=tuple(n_values),
        sup_errors=tuple(sups),
        l2_errors=tuple(l2s),
        fitted_order=fitted,
        r_squared=r_squared,
        zero_error=zero_error,
    )
