"""Unit tests for the activations and the cubic coefficient solve."""

import dataclasses
import math

import numpy as np
import pytest

from pwmlp import (
    Activation,
    DomainError,
    KernelKind,
    KnotGrid,
    TargetSamples,
    UsageError,
    activation_values,
    build_network,
    matching_oracle,
    solve_cubic_coefficients,
)


def test_cubic_coefficients_default_slope():
    # a1 = 0.75 additionally zeroes q'(+-1): 3*a3 + a1 = 0.
    assert solve_cubic_coefficients(0.75) == (0.5, 0.75, 0.0, -0.25)


def test_cubic_coefficients_affine_degenerate():
    # slope 0.5 kills the cubic term entirely
    assert solve_cubic_coefficients(0.5) == (0.5, 0.5, 0.0, 0.0)


def test_cubic_coefficients_constraint_rows():
    rng = np.random.default_rng(7)
    for s in rng.uniform(0.0, 0.75, size=25):
        a0, a1, a2, a3 = solve_cubic_coefficients(s)
        assert a0 == 0.5 and a2 == 0.0
        assert abs(a1 + a3 - 0.5) <= 1e-15
        assert a1 == float(s)


@pytest.mark.parametrize("bad", [-0.01, 0.7500001, 1.0, -5.0])
def test_cubic_slope_range_enforced(bad):
    with pytest.raises(DomainError):
        solve_cubic_coefficients(bad)


def test_activation_kind_validation():
    with pytest.raises(DomainError):
        Activation("sigmoid")
    with pytest.raises(DomainError):
        Activation("relu", 0.75)
    with pytest.raises(DomainError):
        Activation("relu", 0.0)
    with pytest.raises(DomainError):
        Activation("cubic")
    with pytest.raises(DomainError):
        Activation("cubic", 0.9)
    # the coefficients derive from a1 and cannot be given or set
    with pytest.raises(TypeError):
        Activation("cubic", 0.75, (0.5, 0.75, 0.0, -0.25))
    with pytest.raises(dataclasses.FrozenInstanceError):
        Activation.cubic().cubic_coeffs = (0.5, 0.5, 0.0, 0.0)


def test_cubic_stores_the_canonical_tuple():
    # a1 of another numeric type is stored as a float and the
    # coefficients as the solve's tuple of floats, so activations hash
    for given in (0.75, np.float64(0.75), np.float32(0.75)):
        act = Activation("cubic", given)
        assert type(act.a1) is float and act.a1 == 0.75
        assert type(act.cubic_coeffs) is tuple
        assert [type(c) for c in act.cubic_coeffs] == [float] * 4
        assert repr(act.cubic_coeffs) == repr(solve_cubic_coefficients(0.75))
        assert act == Activation.cubic() and hash(act) == hash(Activation.cubic())
    for given in (0, np.int64(0)):
        assert type(Activation("cubic", given).a1) is float
    act = Activation("cubic", -0.0)
    assert math.copysign(1.0, act.a1) == -1.0
    assert math.copysign(1.0, act.cubic_coeffs[1]) == -1.0
    assert act == Activation.cubic(0.0) and hash(act) == hash(Activation.cubic(0.0))
    assert Activation("relu").cubic_coeffs is None


@pytest.mark.parametrize("bad", ["abc", None, 1 + 0j, [0.5], False, "0.5",
                                 np.bool_(True)])
def test_cubic_slope_must_be_a_real_number(bad):
    samples = TargetSamples.from_function(KnotGrid.uniform(4), np.sin)
    calls = [Activation.cubic, solve_cubic_coefficients,
             lambda s: build_network("constant", samples, s),
             lambda s: matching_oracle("cubic", samples, s)]
    if bad is not None:
        calls.append(KernelKind.cubic_bump)
    else:
        # no slope at all: the kernel's own refusal, as when it is left out
        with pytest.raises(UsageError, match="needs an inflection slope"):
            KernelKind.cubic_bump(None)
    for call in calls:
        with pytest.raises(DomainError):
            call(bad)


def _values(act, xs):
    return activation_values(act, np.array(xs, dtype=np.float64)).tolist()


def test_step_closed_at_zero():
    step = Activation("step")
    assert _values(step, [0.0, -1e-300, 5.0, -5.0]) == [1.0, 0.0, 1.0, 0.0]


def test_relu_values():
    relu = Activation("relu")
    assert _values(relu, [-2.0, 0.0, 0.3, 7.5]) == [0.0, 0.0, 0.3, 7.5]


def test_ramp_matches_relu_below_one_and_saturates():
    ramp = Activation("ramp")
    relu = Activation("relu")
    xs = np.linspace(-2.0, 1.0, 301)
    assert _values(ramp, xs) == _values(relu, xs)
    assert _values(ramp, [1.0, 43.0]) == [1.0, 1.0]


def test_cubic_plateaus_and_center():
    act = Activation.cubic()
    assert _values(act, [-1.0, 1.0, -3.5, 2.0, 0.0]) == [0.0, 1.0, 0.0, 1.0, 0.5]


def test_cubic_a1_property():
    assert Activation.cubic(0.6).a1 == 0.6
    assert Activation("relu").a1 is None


def test_cubic_anti_symmetry_random_slopes():
    # q(x) + q(-x) = 1, plateaus included
    rng = np.random.default_rng(11)
    xs = np.linspace(-2.0, 2.0, 1001)
    for s in rng.uniform(0.0, 0.75, size=10):
        act = Activation.cubic(s)
        resid = activation_values(act, xs) + activation_values(act, -xs) - 1.0
        assert np.max(np.abs(resid)) <= 1e-12


def test_cubic_monotone_for_admissible_slopes():
    xs = np.linspace(-1.5, 1.5, 2001)
    for s in np.linspace(0.0, 0.75, 7):
        ys = activation_values(Activation.cubic(s), xs)
        assert np.all(np.diff(ys) >= -1e-15)
