"""Unit tests for knot grids, the coupling solve, and the five
construction methods."""

import math
import re
import warnings

import numpy as np
import pytest

from pwmlp import (
    METHODS,
    Activation,
    DomainError,
    KnotGrid,
    NumericalError,
    TargetSamples,
    UsageError,
    build_network,
    forward_grid,
    matching_oracle,
    solve_bump_coupling,
)


def test_uniform_grid_exact_knots():
    grid = KnotGrid.uniform(4)
    assert grid.n == 4 and grid.h == 0.25
    assert np.array_equal(grid.knots, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert not grid.knots.flags.writeable


def test_grid_validation():
    with pytest.raises(UsageError):
        KnotGrid.uniform(0)
    with pytest.raises(UsageError):
        KnotGrid(2, 0.5, np.array([0.0, 0.6, 0.5]))
    with pytest.raises(UsageError):
        KnotGrid(2, 0.5, np.array([0.0, 1.0]))
    with pytest.raises(UsageError):
        KnotGrid(2, 0.5, np.array([0.1, 0.5, 1.0]))
    # increasing knots spanning [0, 1] that the builders and the oracle
    # would not honour: an h that disagrees with n, and non-uniform knots
    with pytest.raises(UsageError, match="uniform"):
        KnotGrid(2, 0.25, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(UsageError, match="uniform"):
        KnotGrid(2, 0.5, np.array([0.0, 0.3, 1.0]))
    # knot counts numpy refuses before it allocates anything, and two
    # near 2**63 for which it returns no knots at all
    for n in (10**19, 10**21, 2**63 - 2, 2**63 - 1):
        with pytest.raises(UsageError,
                           match="knot grid of n = %d cannot be made" % n):
            KnotGrid.uniform(n)


def test_uniform_grid_takes_only_a_positive_integer():
    # a count is never truncated: 2.5 is not 2, True is not 1, "4" is not 4;
    # the constructor applies the same rule as KnotGrid.uniform
    for n in (2.5, 4.0, np.float64(4.0), True, False, "4", None, -3,
              np.int64(0)):
        message = "integer n >= 1, got %s" % re.escape(repr(n))
        with pytest.raises(UsageError, match=message):
            KnotGrid.uniform(n)
        with pytest.raises(UsageError, match=message):
            KnotGrid(n, 0.25, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    grid = KnotGrid.uniform(np.int64(4))
    assert type(grid.n) is int and grid.n == 4 and grid.h == 0.25
    grid = KnotGrid(np.int64(4), 0.25, grid.knots)
    assert type(grid.n) is int and grid.n == 4


def test_grid_stores_h_as_the_float_one_over_n():
    # h is checked by value, so True at n = 1 and a float32 0.25 pass
    # the check; each is stored as the float 1 / n
    for n, h in ((1, True), (4, np.float32(0.25)), (4, np.int64(0) + 0.25)):
        grid = KnotGrid(n, h, KnotGrid.uniform(n).knots)
        assert type(grid.h) is float and grid.h == 1.0 / n


def test_target_samples_shapes():
    grid = KnotGrid.uniform(3)
    one = TargetSamples(grid, np.array([1.0, 2.0, 3.0, 4.0]))
    assert one.values.shape == (4, 1) and one.q == 1
    two = TargetSamples(grid, np.ones((4, 2)))
    assert two.q == 2
    with pytest.raises(UsageError):
        TargetSamples(grid, np.ones(3))
    with pytest.raises(UsageError):
        TargetSamples(grid, np.array([1.0, 2.0, np.inf, 4.0]))


def test_target_samples_from_function():
    grid = KnotGrid.uniform(4)
    samples = TargetSamples.from_function(grid, lambda x: 2.0 * x)
    assert np.array_equal(samples.values[:, 0], 2.0 * grid.knots)


def test_bump_coupling_hand_case():
    grid = KnotGrid.uniform(2)
    sol = solve_bump_coupling(TargetSamples(grid, np.ones(3)))
    assert np.max(np.abs(sol.g[:, 0] - np.array([1.0, 0.0, 1.0]))) <= 1e-12
    assert sol.residual_max <= 1e-12


def test_bump_coupling_overflow_fails_the_residual_check():
    # g overflows to +-inf and the residual is NaN, which must
    # fail the check rather than pass it
    samples = TargetSamples(KnotGrid.uniform(64),
                            1e307 * (-1.0) ** np.arange(65))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="coupling residual nan"):
            solve_bump_coupling(samples)


def test_bump_coupling_residual_reported():
    grid = KnotGrid.uniform(16)
    samples = TargetSamples.from_function(grid, lambda x: np.sin(5.0 * x))
    sol = solve_bump_coupling(samples)
    assert sol.g.shape == (17, 1)
    assert 0.0 <= sol.residual_max <= 1e-12


def test_constant_builder_hand_case():
    # f(x) = x on 2 subintervals: value f(x_j) on [x_j, x_{j+1}), last
    # interval closed at 1
    grid = KnotGrid.uniform(2)
    net = build_network("constant", TargetSamples(grid, grid.knots.copy()))
    got = forward_grid(net, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert got[:, 0].tolist() == [0.0, 0.0, 0.5, 0.5, 0.5]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_constant_builder_structure():
    grid = KnotGrid.uniform(4)
    values = np.array([[1.0, -0.0], [3.0, 0.0], [2.0, -0.0], [5.0, -0.0],
                       [4.0, 0.0]])
    net = build_network("constant", TargetSamples(grid, values))
    assert net.width == 4
    assert net.acts == (Activation("step"),) and net.group.tolist() == [0] * 4
    assert _bits(net.weight) == _bits([4.0] * 4)
    # the first bias is -(4 * 0.0) = -0.0, bit for bit
    assert _bits(net.bias) == _bits([-0.0, -1.0, -2.0, -3.0])
    # telescoped taps: first is f0 - 0.0, later ones are the jumps
    assert _bits(net.taps) == _bits([[1.0, -0.0], [2.0, 0.0], [-1.0, -0.0],
                                     [3.0, 0.0]])
    assert _bits(net.tap_bias) == _bits([0.0, 0.0])


# At N = 2 (inv = 2, virtual knots -0.5 and 1.5) on f = (1, 3, -2): the
# (weight, bias) of each unit, knot by knot, the taps, and the tap bias
# -sum_j c_j that removes the + 1 of each group.
_RAMP_UNITS = [(2.0, 1.0), (-2.0, 1.0), (2.0, -0.0), (-2.0, 2.0),
               (2.0, -1.0), (-2.0, 3.0)]
_STRUCTURE = {
    "linear-relu": (
        [(2.0, 1.0), (2.0, -0.0), (-2.0, 1.0), (-2.0, 0.0),
         (2.0, -0.0), (2.0, -1.0), (-2.0, 2.0), (-2.0, 1.0),
         (2.0, -1.0), (2.0, -2.0), (-2.0, 3.0), (-2.0, 2.0)],
        (1.0, -1.0, 1.0, -1.0, 3.0, -3.0, 3.0, -3.0, -2.0, 2.0, -2.0, 2.0),
        -2.0,
    ),
    "linear-ramp": (_RAMP_UNITS, (1.0, 1.0, 3.0, 3.0, -2.0, -2.0), -2.0),
    "cubic-spaced": ([(2.0, 1.0), (-2.0, 1.0), (2.0, -1.0), (-2.0, 3.0)],
                     (1.0, 1.0, -2.0, -2.0), 1.0),
}


@pytest.mark.parametrize("method", sorted(_STRUCTURE))
def test_builder_structure(method):
    grid = KnotGrid.uniform(2)
    net = build_network(method, TargetSamples(grid, np.array([1.0, 3.0, -2.0])),
                        slope=0.25)
    units, taps, tap_bias = _STRUCTURE[method]
    assert _bits(net.weight) == _bits([w for w, _ in units])
    assert _bits(net.bias) == _bits([b for _, b in units])
    assert _bits(net.taps) == _bits(np.array(taps)[:, None])
    assert _bits(net.tap_bias) == _bits([tap_bias])
    kind = {"linear-relu": Activation("relu"), "linear-ramp": Activation("ramp"),
            "cubic-spaced": Activation.cubic(0.25)}[method]
    assert net.acts == (kind,) and not net.group.any()


def test_cubic_builder_structure():
    grid = KnotGrid.uniform(2)
    samples = TargetSamples(grid, np.array([[1.0, 0.0], [3.0, -0.0], [-2.0, 0.0]]))
    net = build_network("cubic", samples, slope=0.25)
    g = solve_bump_coupling(samples).g
    assert _bits(net.weight) == _bits([w for w, _ in _RAMP_UNITS])
    assert _bits(net.bias) == _bits([b for _, b in _RAMP_UNITS])
    assert _bits(net.taps) == _bits(np.repeat(g, 2, axis=0))
    assert _bits(net.tap_bias) == _bits(
        [math.fsum(-0.5 * np.repeat(g[:, k], 2)) for k in range(2)])
    assert net.acts == (Activation.cubic(0.25),) and not net.group.any()


def test_linear_builders_reproduce_affine():
    grid = KnotGrid.uniform(8)
    samples = TargetSamples.from_function(grid, lambda x: 2.0 * x + 1.0)
    xs = np.linspace(0.0, 1.0, 2003)
    for method in ("linear-relu", "linear-ramp"):
        net = build_network(method, samples)
        err = np.abs(forward_grid(net, xs)[:, 0] - (2.0 * xs + 1.0))
        assert np.max(err) <= 1e-12


def test_constant_builder_reproduces_constants():
    rng = np.random.default_rng(43)
    xs = np.linspace(0.0, 1.0, 501)
    for c in (1.0, -3.7, float(rng.uniform(-10.0, 10.0))):
        grid = KnotGrid.uniform(9)
        net = build_network("constant", TargetSamples(grid, np.full(10, c)))
        err = np.abs(forward_grid(net, xs)[:, 0] - c)
        assert np.max(err) <= 1e-15 * abs(c)


def test_cubic_coupled_interpolates_at_knots():
    grid = KnotGrid.uniform(8)
    samples = TargetSamples.from_function(
        grid, lambda x: np.sin(2.0 * np.pi * x) + 0.5 * x
    )
    net = build_network("cubic", samples)
    at_knots = forward_grid(net, grid.knots)[:, 0]
    assert np.max(np.abs(at_knots - samples.values[:, 0])) <= 1e-9


def test_cubic_spaced_knot_values():
    grid = KnotGrid.uniform(8)
    samples = TargetSamples.from_function(
        grid, lambda x: 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2)
    )
    net = build_network("cubic-spaced", samples)
    at_knots = forward_grid(net, grid.knots)[:, 0]
    f = samples.values[:, 0]
    # exact at the bump centers, flank average in between
    assert np.max(np.abs(at_knots[0::2] - f[0::2])) <= 1e-12
    expected_odd = 0.5 * (f[0:-1:2] + f[2::2])
    assert np.max(np.abs(at_knots[1::2] - expected_odd)) <= 1e-12


def test_cubic_spaced_requires_even_n():
    grid = KnotGrid.uniform(5)
    samples = TargetSamples(grid, np.ones(6))
    with pytest.raises(UsageError):
        build_network("cubic-spaced", samples)


def test_multi_output_targets():
    grid = KnotGrid.uniform(6)
    values = np.column_stack([grid.knots, np.cos(grid.knots)])
    samples = TargetSamples(grid, values)
    for method in ("constant", "linear-relu", "linear-ramp", "cubic",
                   "cubic-spaced"):
        net = build_network(method, samples)
        assert net.out_dim == 2
        out = forward_grid(net, np.linspace(0.0, 1.0, 31))
        assert out.shape == (31, 2)


def test_unknown_method_rejected():
    grid = KnotGrid.uniform(2)
    samples = TargetSamples(grid, np.ones(3))
    with pytest.raises(UsageError):
        build_network("quartic", samples)


@pytest.mark.parametrize("method,fragment", [
    ("quartic", "unknown construction method 'quartic'"),
    (["constant"], "unknown construction method ['constant']"),
    ("cubic-spaced", "even N"),
])
def test_network_and_oracle_refuse_alike(method, fragment):
    # build_network and matching_oracle read one design row, through one
    # lookup that refuses an unknown method and an N its stride does not
    # divide
    samples = TargetSamples(KnotGrid.uniform(5), np.ones(6))
    messages = set()
    for entry in (build_network, matching_oracle):
        with pytest.raises(UsageError) as err:
            entry(method, samples)
        messages.add(str(err.value))
    assert len(messages) == 1 and fragment in messages.pop()


@pytest.mark.parametrize("method", METHODS)
def test_network_and_oracle_refuse_a_bad_slope_alike(method):
    # the slope is checked in the same lookup, also for the methods that
    # do not use it
    samples = TargetSamples(KnotGrid.uniform(4), np.ones(5))
    for slope in (-7.0, -1e-300, 0.75000001, np.nan, np.inf):
        messages = set()
        for entry in (build_network, matching_oracle):
            with pytest.raises(DomainError) as err:
                entry(method, samples, slope)
            messages.add(str(err.value))
        assert len(messages) == 1 and "outside [0, 0.75]" in messages.pop()
    for slope in (0.0, -0.0, 0.3, 0.75):
        build_network(method, samples, slope)
        matching_oracle(method, samples, slope)


def _overflowing_samples():
    """(method, knot values at N = 64) whose taps overflow: alternating
    +-1e308 telescopes to +-2e308, the tap biases of 1e307 sin 2 pi x and
    of 1e308 overflow inside fsum, and alternating +-1e307 has a
    coupling solution g that overflows."""
    x = KnotGrid.uniform(64).knots
    alternating = (-1.0) ** np.arange(65)
    sine = 1e307 * np.sin(2.0 * np.pi * x)
    big = np.full(65, 1e308)
    return [("constant", 1e308 * alternating),
            ("linear-relu", sine), ("linear-relu", big),
            ("linear-ramp", sine), ("linear-ramp", big),
            ("cubic-spaced", big), ("cubic", 1e307 * alternating)]


@pytest.mark.parametrize("case", range(len(_overflowing_samples())))
def test_builder_overflow_is_a_numerical_error(case):
    method, values = _overflowing_samples()[case]
    # a finite second column first, so the error must name output 1
    samples = TargetSamples(KnotGrid.uniform(64),
                            np.column_stack([np.ones(65), values]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="output 1"):
            build_network(method, samples)
