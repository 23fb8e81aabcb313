"""Unit tests for error measurement, verification, order fitting, and the
builtin targets."""

import json
import math

import numpy as np
import pytest

from pwmlp import (
    TARGETS,
    KnotGrid,
    TargetDef,
    NumericalError,
    TargetSamples,
    UsageError,
    build_network,
    estimate_order,
    forward_grid,
    get_target,
    matching_oracle,
    measure_error,
    uniform_grid,
    verify_equivalence,
)


def test_uniform_grid():
    xs = uniform_grid(5)
    assert np.array_equal(xs, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert uniform_grid(np.int64(3)).tolist() == [0.0, 0.5, 1.0]
    # a count is never truncated: 2.7 is not 2, True is not 1
    for count in (1, np.int64(1), 2.7, 5.0, True, "5", None):
        with pytest.raises(UsageError, match="at least 2 points"):
            uniform_grid(count)


def test_builtin_target_values():
    assert TARGETS["const1"].fn(0.3) == 1.0
    assert get_target("affine").fn(1.0) == 3.0
    assert get_target("affine").fn(0.0) == 1.0
    # sin(pi/2) = 1 plus the linear tilt
    assert abs(get_target("sin2pi").fn(0.25) - 1.125) <= 1e-15
    assert get_target("runge").fn(0.5) == 1.0
    assert abs(get_target("runge").fn(0.0) - 1.0 / 7.25) <= 1e-15
    assert get_target("absdev").fn(0.0) == 0.5
    assert get_target("absdev").fn(0.5) == 0.0
    with pytest.raises(UsageError):
        get_target("chirp")


def test_target_sup_bounds_hold_on_dense_grid():
    xs = np.linspace(0.0, 1.0, 20001)
    for target in TARGETS.values():
        sup = float(np.max(np.abs(target.fn(xs))))
        assert sup <= target.sup_abs + 1e-12


def test_measure_error_trivial_cases():
    same = measure_error(lambda xs: np.sin(xs), lambda xs: np.sin(xs), 101)
    assert same.sup_error == 0.0 and same.l2_error == 0.0
    assert same.grid_size == 101
    off = measure_error(lambda xs: xs + 0.25, lambda xs: xs, 51)
    assert abs(off.sup_error - 0.25) <= 1e-15
    assert abs(off.l2_error - 0.25) <= 1e-15


def test_measure_error_validation():
    with pytest.raises(UsageError):
        measure_error(lambda xs: xs[:-1], lambda xs: xs, 11)
    with pytest.raises(NumericalError) as err:
        measure_error(lambda xs: np.where(xs > 0.5, np.nan, 0.0),
                      lambda xs: 0.0 * xs, 11)
    assert "approximant" in str(err.value)
    with pytest.raises(NumericalError) as err:
        measure_error(lambda xs: 0.0 * xs,
                      lambda xs: np.full_like(xs, np.inf), 11)
    assert "target" in str(err.value)


def test_step_approximation_error_tracks_target_slope():
    # piecewise constant on [x_j, x_j + h] drifts by about h * max |f'|;
    # for sin2pi at N = 64 that is 2 pi / 64, checked within 25 percent
    target = get_target("sin2pi")
    grid = KnotGrid.uniform(64)
    net = build_network("constant",
                        TargetSamples.from_function(grid, target.fn))
    summary = measure_error(lambda xs: forward_grid(net, xs)[:, 0],
                            target.fn, 10001)
    center = 2.0 * math.pi / 64.0
    assert 0.75 * center <= summary.sup_error <= 1.25 * center


def _samples(n, name):
    grid = KnotGrid.uniform(n)
    return TargetSamples.from_function(grid, get_target(name).fn)


def test_verify_equivalence_passes_on_matching_pair():
    samples = _samples(32, "runge")
    net = build_network("linear-ramp", samples)
    model = matching_oracle("linear-ramp", samples)
    report = verify_equivalence(net, model, grid_size=4001, tol=1e-9)
    assert report.passed
    assert report.max_deviation <= 1e-12
    assert report.grid_size == 4001


def test_verify_equivalence_flags_mismatched_pair():
    samples = _samples(32, "runge")
    net = build_network("linear-ramp", samples)
    wrong = matching_oracle("constant", samples)
    report = verify_equivalence(net, wrong, grid_size=4001, tol=1e-9)
    assert not report.passed
    # the reported worst point carries a real gap between the models
    assert report.max_deviation > 1e-3
    assert 0.0 <= report.worst_x <= 1.0


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, -1.0, "abc", None,
                                 [1e-9], pytest.param(10**400, id="10**400")])
def test_verify_equivalence_refuses_a_nan_or_negative_tol(tol):
    samples = _samples(8, "sin2pi")
    net = build_network("linear-ramp", samples)
    model = matching_oracle("linear-ramp", samples)
    with pytest.raises(UsageError, match="tolerance must be >= 0, got "):
        verify_equivalence(net, model, tol=tol)
    assert verify_equivalence(net, model, tol=0.0).tol == 0.0


@pytest.mark.parametrize("tol", ["1e-9", np.float32(1e-9), np.array(1e-9), 1])
def test_verify_equivalence_compares_with_the_float_of_tol(tol):
    samples = _samples(8, "sin2pi")
    net = build_network("linear-ramp", samples)
    model = matching_oracle("linear-ramp", samples)
    report = verify_equivalence(net, model, tol=tol)
    assert report.passed is True
    assert type(report.tol) is float and report.tol == float(tol)


def test_verify_equivalence_refuses_a_fractional_grid_size():
    samples = _samples(8, "sin2pi")
    net = build_network("linear-ramp", samples)
    model = matching_oracle("linear-ramp", samples)
    with pytest.raises(UsageError, match="at least 2 points, an integer "
                                         "count, got 100.9"):
        verify_equivalence(net, model, grid_size=100.9)


def test_cubic_on_rough_data_meets_the_contract_at_16384():
    def noise(n):
        values = np.random.default_rng(11).uniform(-1.0, 1.0, n + 1)
        return TargetSamples(KnotGrid.uniform(n), values)

    # max|g| is about 3.5e5 here; the refined coupling solves keep the
    # network within 1e-9 of its reference model
    samples = noise(16384)
    report = verify_equivalence(build_network("cubic", samples),
                                matching_oracle("cubic", samples))
    assert report.passed and report.tol == 1e-9
    # at N = 65536 eps * max|g| nears the contract: the residual gate refuses
    with pytest.raises(NumericalError, match="coupling residual"):
        build_network("cubic", noise(65536))


@pytest.mark.parametrize("n", (1000, 3000, 6000))
def test_cubic_on_rough_data_meets_the_contract_off_powers_of_two(n):
    # knots j/n that do not round exactly: the oracle's kernel argument
    # x*n - j must not carry each knot's own rounding error, which the
    # alternating g does not cancel (it gave 4.8e-10, 2.5e-9, 1.6e-8)
    samples = TargetSamples(KnotGrid.uniform(n),
                            np.random.default_rng(n).uniform(-1.0, 1.0, n + 1))
    model = matching_oracle("cubic", samples)
    report = verify_equivalence(build_network("cubic", samples), model)
    assert report.passed
    eps_g = np.finfo(np.float64).eps * np.max(np.abs(model.coefficients))
    assert report.max_deviation <= 16.0 * eps_g


def test_verify_equivalence_output_count_mismatch():
    samples = _samples(8, "runge")
    net = build_network("constant", samples)
    grid = samples.grid
    two = TargetSamples(grid, np.column_stack([samples.values[:, 0],
                                               samples.values[:, 0]]))
    model = matching_oracle("constant", two)
    with pytest.raises(UsageError):
        verify_equivalence(net, model)


def test_estimate_order_validation():
    with pytest.raises(UsageError):
        estimate_order("constant", "sin2pi", [16, 32])
    with pytest.raises(UsageError):
        estimate_order("constant", "sin2pi", [2, 4, 8])
    with pytest.raises(UsageError):
        estimate_order("constant", "sin2pi", [16, 16, 32])
    with pytest.raises(UsageError):
        estimate_order("constant", "sin2pi", [16, 32, 64], route="walk")
    with pytest.raises(UsageError):
        estimate_order("constant", "nope", [16, 32, 64])
    with pytest.raises(UsageError):
        estimate_order("constant", 3.14, [16, 32, 64])
    # N values are never truncated
    for n_values in ([16.9, 32, 64], [16, 32.0, 64], [True, 32, 64],
                     [16, 32, "64"]):
        with pytest.raises(UsageError, match="N >= 4, each an integer"):
            estimate_order("linear-ramp", "sin2pi", n_values)
    # numpy integer N are stored as Python ints, which write as JSON
    report = estimate_order("linear-ramp", "sin2pi", np.array([8, 16, 32]),
                            grid_size=101)
    assert [type(n) for n in report.n_values] == [int, int, int]
    assert json.loads(json.dumps(report.n_values)) == [8, 16, 32]


def test_estimate_order_zero_error_short_circuit():
    # an affine target is reproduced exactly, so no order can be fitted
    report = estimate_order("linear-relu", "affine", [8, 16, 32],
                            grid_size=2001)
    assert report.zero_error
    assert math.isnan(report.fitted_order)
    assert math.isnan(report.r_squared)
    assert max(report.sup_errors) <= 1e-12
    assert len(report.local_orders) == 2
    assert all(math.isnan(o) for o in report.local_orders)


def test_estimate_order_first_order_method():
    report = estimate_order("constant", "sin2pi", [16, 32, 64],
                            grid_size=4001)
    assert not report.zero_error
    assert 0.9 <= report.fitted_order <= 1.1
    assert report.r_squared >= 0.98
    assert len(report.sup_errors) == 3
    # halving h halves the error for a first-order method
    ratio = report.sup_errors[0] / report.sup_errors[1]
    assert 1.6 <= ratio <= 2.4
    # with N doubling, each local order is log2 of the error ratio
    assert len(report.local_orders) == 2
    assert abs(report.local_orders[0] - math.log2(ratio)) <= 1e-12


def test_estimate_order_routes_agree():
    for method in ("constant", "cubic"):
        net_route = estimate_order(method, "sin2pi", [8, 16, 32],
                                   grid_size=2001, route="network")
        oracle_route = estimate_order(method, "sin2pi", [8, 16, 32],
                                      grid_size=2001, route="oracle")
        assert abs(net_route.fitted_order - oracle_route.fitted_order) <= 0.05


def test_estimate_order_accepts_target_def():
    report = estimate_order("constant", get_target("runge"), [8, 16, 32],
                            grid_size=2001)
    assert not report.zero_error
    assert report.fitted_order > 0.5


@pytest.mark.parametrize("route", ["network", "oracle"])
def test_estimate_order_evaluates_the_target_once_on_the_grid(route):
    runge = get_target("runge")
    xs = uniform_grid(2001)
    calls = []

    def counted(x):
        if np.shape(x) == xs.shape and np.array_equal(x, xs):
            calls.append(x)
        return runge.fn(x)

    target = TargetDef("counted", counted, runge.description, runge.sup_abs)
    n_values = [8, 16, 32, 64]
    report = estimate_order("linear-ramp", target, n_values, grid_size=2001,
                            route=route)
    assert len(calls) == 1
    assert report == estimate_order("linear-ramp", runge, n_values,
                                    grid_size=2001, route=route)
