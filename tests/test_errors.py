"""The number contract: every public entry converts a caller's numbers
by errors.require_floats, and every result that overflows is refused by
errors.require_finite, naming the first x where it does."""

import numpy as np
import pytest

from pwmlp import (
    Activation,
    KernelKind,
    KnotGrid,
    Network,
    NumericalError,
    PiecewiseOracle,
    TargetSamples,
    UsageError,
    activation_values,
    compile_network,
    eval_oracle_grid,
    eval_tensor_product,
    fit_kernel_weights,
    forward_grid,
    kernel_values,
    measure_error,
)

GRID = KnotGrid.uniform(4)
TRIANGLE = PiecewiseOracle(GRID, KernelKind("triangle"), np.ones(5))
NET = Network([1.0, -1.0], [0.0, 0.5], (Activation("relu"),), [0, 0],
              [[1.0], [2.0]], [0.25], "constant", 1)


def _first_replaced(values, bad):
    """values as nested lists, with the first number replaced by bad."""
    out = np.asarray(values).tolist()
    inner = out
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = bad
    return out


# Each bad value, made from a valid argument of the right shape.
BAD = {
    "None": lambda good: _first_replaced(good, None),
    "str": lambda good: _first_replaced(good, "0.5"),
    "bools": lambda good: np.ones(np.shape(good), dtype=bool).tolist(),
    "complex": lambda good: _first_replaced(good, 1 + 2j),
    "huge int": lambda good: _first_replaced(good, 10**400),
}

# (name, valid argument, call with one argument)
ENTRIES = [
    ("Network weight", [1.0, -1.0],
     lambda v: Network(v, NET.bias, NET.acts, NET.group, NET.taps,
                       NET.tap_bias, "constant", 1)),
    ("Network taps", [[1.0], [2.0]],
     lambda v: Network(NET.weight, NET.bias, NET.acts, NET.group, v,
                       NET.tap_bias, "constant", 1)),
    ("KnotGrid knots", GRID.knots,
     lambda v: KnotGrid(4, 0.25, v)),
    ("TargetSamples", np.zeros(5),
     lambda v: TargetSamples(GRID, v)),
    ("PiecewiseOracle", np.zeros(5),
     lambda v: PiecewiseOracle(GRID, KernelKind("triangle"), v)),
    ("activation_values", [-0.5, 0.5],
     lambda v: activation_values(Activation("cubic", 0.5), v)),
    ("kernel_values", [-0.5, 0.5],
     lambda v: kernel_values(KernelKind("triangle"), v)),
    ("forward_grid", [0.25, 0.5],
     lambda v: forward_grid(NET, v)),
    ("PiecewiseNetwork.eval", [0.25, 0.5],
     lambda v: compile_network(NET).eval(v)),
    ("eval_oracle_grid", [0.25, 0.5],
     lambda v: eval_oracle_grid(TRIANGLE, v)),
    ("eval_tensor_product point", [0.25, 0.5],
     lambda v: eval_tensor_product([TRIANGLE] * 2, np.ones((5, 5)), v)),
    ("eval_tensor_product corner", np.ones((5, 5)),
     lambda v: eval_tensor_product([TRIANGLE] * 2, v, [0.25, 0.5])),
    ("fit_kernel_weights", np.column_stack([np.linspace(0, 1, 9), np.ones(9)]),
     lambda v: fit_kernel_weights(v, KernelKind("triangle"), GRID)),
    ("measure_error", np.linspace(0, 1, 11),
     lambda v: measure_error(lambda xs: v, lambda xs: xs, 11)),
]


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("name, good, call", ENTRIES,
                         ids=[entry[0] for entry in ENTRIES])
def test_values_that_are_not_numbers_are_a_usage_error(name, good, call, bad):
    call(good)  # the valid argument passes
    with pytest.raises(UsageError, match="must be numbers"):
        call(BAD[bad](good))


@pytest.mark.parametrize("group", [[1.9, 0], [True, False], ["0", 0],
                                   [None, 0], [2**64, 0]])
def test_activation_indices_must_be_integers(group):
    acts = (Activation("relu"), Activation("step"))

    def make(group):
        return Network(NET.weight, NET.bias, acts, group, NET.taps,
                       NET.tap_bias, "constant", 1)

    assert make(np.array([1, 0], np.uint8)).group.tolist() == [1, 0]
    with pytest.raises(UsageError, match="group must be integers"):
        make(group)


def test_an_int_within_the_float_range_is_a_number():
    assert eval_oracle_grid(TRIANGLE, [0, 1]).tolist() == [[1.0], [1.0]]
    # numpy holds 10**20 as an object, and it still converts
    samples = TargetSamples(GRID, [10**20, 0, 0, 0, 2**64])
    assert samples.values[:, 0].tolist() == [1e20, 0.0, 0.0, 0.0, 2.0**64]


def test_overflowing_kernel_sum_names_x():
    # Slope-0 cubic bumps sum to 2 inside [0, 1] and to 1.5 at its ends,
    # so coefficients of 1e308 overflow everywhere but at x = 0 and 1.
    # Warnings are errors in this suite: numpy may not warn either.
    bump = PiecewiseOracle(GRID, KernelKind.cubic_bump(0.0),
                           np.full(5, 1e308))
    assert eval_oracle_grid(bump, [0.0, 1.0]).tolist() == [[1.5e308]] * 2
    with pytest.raises(NumericalError,
                       match=r"^kernel sum is not finite at x=0\.5$"):
        eval_oracle_grid(bump, [0.0, 0.5, 0.75])
    corner = np.full((5, 5), 1e308)
    # the first axis overflows, then the second
    for point, x in (([0.5, 0.0], "0.5"), ([0.0, 1.0], "1.0")):
        with pytest.raises(NumericalError, match=r"at x=%s$" % x):
            eval_tensor_product([bump, bump], corner, point)
