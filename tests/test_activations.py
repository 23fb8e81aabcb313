"""Unit tests for the scalar activations and the cubic coefficient solve."""

import math

import numpy as np
import pytest

from pwmlp import (
    Activation,
    DomainError,
    activation_values,
    eval_activation,
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
        Activation("relu", cubic_coeffs=(0.5, 0.75, 0.0, -0.25))
    with pytest.raises(DomainError):
        Activation("cubic")
    with pytest.raises(DomainError):
        Activation("cubic", cubic_coeffs=(0.4, 0.75, 0.0, -0.25))
    with pytest.raises(DomainError):
        Activation("cubic", cubic_coeffs=(0.5, 0.9, 0.0, -0.4))


def test_cubic_coefficients_must_be_the_canonical_tuple():
    # A model file keeps only a1, so coefficients even one ulp off the
    # canonical tuple would evaluate differently after a save and load.
    canonical = solve_cubic_coefficients(0.75)
    for i in (0, 2, 3):
        for step in (-math.inf, math.inf):
            near = list(canonical)
            near[i] = math.nextafter(near[i], step)
            with pytest.raises(DomainError):
                Activation("cubic", tuple(near))
    for near in ((0.5000000000000001, 0.75, 1e-16, -0.25),
                 (0.5, 0.75, 1e-16, -0.25),
                 (0.5, math.nextafter(0.75, 0.0), 0.0, -0.25),
                 (0.5, 0.5, 0.0, 1e-17)):
        with pytest.raises(DomainError):
            Activation("cubic", near)
    for length in (3, 5):
        with pytest.raises(DomainError):
            Activation("cubic", (canonical + (0.0,))[:length])


def test_cubic_stores_the_canonical_tuple():
    # equal values of other types or signs are stored as the solve's
    # tuple of floats, and a list as a tuple, so activations hash
    for given in ([0.5, 0.75, 0.0, -0.25], (0.5, 0.75, -0.0, -0.25),
                  (0.5, 0.75, 0, -0.25), np.array([0.5, 0.75, 0.0, -0.25])):
        act = Activation("cubic", given)
        assert type(act.cubic_coeffs) is tuple
        assert [type(c) for c in act.cubic_coeffs] == [float] * 4
        assert repr(act.cubic_coeffs) == repr(solve_cubic_coefficients(0.75))
        assert act == Activation.cubic() and hash(act) == hash(Activation.cubic())
    act = Activation("cubic", (0.5, -0.0, 0.0, 0.5))
    assert math.copysign(1.0, act.a1) == -1.0


def test_step_closed_at_zero():
    step = Activation.step()
    assert eval_activation(step, 0.0) == 1.0
    assert eval_activation(step, -1e-300) == 0.0
    assert eval_activation(step, 5.0) == 1.0
    assert eval_activation(step, -5.0) == 0.0


def test_relu_values():
    relu = Activation.relu()
    assert eval_activation(relu, -2.0) == 0.0
    assert eval_activation(relu, 0.0) == 0.0
    assert eval_activation(relu, 0.3) == 0.3
    assert eval_activation(relu, 7.5) == 7.5


def test_ramp_matches_relu_below_one_and_saturates():
    ramp = Activation.ramp()
    relu = Activation.relu()
    xs = np.linspace(-2.0, 1.0, 301)
    for x in xs:
        assert eval_activation(ramp, x) == eval_activation(relu, x)
    assert eval_activation(ramp, 1.0) == 1.0
    assert eval_activation(ramp, 43.0) == 1.0


def test_cubic_plateaus_and_center():
    act = Activation.cubic()
    assert eval_activation(act, -1.0) == 0.0
    assert eval_activation(act, 1.0) == 1.0
    assert eval_activation(act, -3.5) == 0.0
    assert eval_activation(act, 2.0) == 1.0
    assert eval_activation(act, 0.0) == 0.5


def test_cubic_a1_property():
    assert Activation.cubic(0.6).a1 == 0.6
    assert Activation.relu().a1 is None


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


def test_vectorized_matches_scalar_bitwise():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 200), [-1.0, 0.0, 1.0]])
    for act in (
        Activation.step(),
        Activation.relu(),
        Activation.ramp(),
        Activation.cubic(),
        Activation.cubic(0.3),
    ):
        vec = activation_values(act, xs)
        sca = np.array([eval_activation(act, x) for x in xs])
        assert np.array_equal(vec, sca)


def test_non_finite_input_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            eval_activation(Activation.relu(), bad)
