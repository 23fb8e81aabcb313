"""Unit tests for network evaluation and JSON serialization."""

import base64
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from format1 import format1_text, network_bytes
from format2 import _json_floats, format2_text

from pwmlp import (
    METHODS,
    Activation,
    DomainError,
    FormatError,
    KnotGrid,
    Network,
    NumericalError,
    TargetSamples,
    UsageError,
    activation_values,
    build_network,
    compile_network,
    eval_oracle_grid,
    forward_grid,
    load_model,
    matching_oracle,
    save_model,
    verify_equivalence,
)
from pwmlp.network import _REDUCE, _TILE, _WIDE_UNITS


def _network(units, outputs):
    """A Network from (weight, bias, activation) per unit and (tap
    weights, tap bias) per output, grouping units by activation."""
    weight, bias, unit_acts = zip(*units)
    acts = tuple(dict.fromkeys(unit_acts))
    group = [acts.index(act) for act in unit_acts]
    taps, tap_bias = zip(*outputs)
    return Network(weight, bias, acts, group, np.array(taps).T, tap_bias,
                   "constant", 1)


def _random_network(rng, width=12, q=2):
    kinds = [
        Activation("step"),
        Activation("relu"),
        Activation("ramp"),
        Activation.cubic(),
    ]
    units = [
        (float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-2.0, 2.0)),
         kinds[int(rng.integers(len(kinds)))])
        for _ in range(width)
    ]
    outputs = [
        (rng.uniform(-3.0, 3.0, width), float(rng.uniform(-1.0, 1.0)))
        for _ in range(q)
    ]
    return _network(units, outputs)


def _forward_grid_loop(net, grid):
    """The reference forward pass: a loop over the units, each added to
    every output with Neumaier's compensated update."""
    xs = np.asarray(grid, dtype=np.float64)
    q = net.out_dim
    total = np.empty((q, xs.size), dtype=np.float64)
    comp = np.zeros((q, xs.size), dtype=np.float64)
    for k in range(q):
        total[k, :] = net.tap_bias[k]
    for j in range(net.width):
        act = net.acts[net.group[j]]
        a = activation_values(act, net.weight[j] * xs + net.bias[j])
        for k in range(q):
            v = net.taps[j, k] * a
            s = total[k]
            t = s + v
            comp[k] += np.where(np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s)
            total[k] = t
    return (total + comp).T


def test_forward_delegates_to_forward_grid_bitwise():
    # a point's row does not depend on its batch: one point alone runs as
    # one float64 lane, and an odd batch pads a copy of its last point
    rng = np.random.default_rng(19)
    net = _random_network(rng)
    xs = rng.uniform(0.0, 1.0, 65)
    alone = np.concatenate([forward_grid(net, xs[i:i + 1])
                            for i in range(xs.size)])
    for count in (65, 64, 3):
        assert forward_grid(net, xs[:count]).tobytes() == alone[:count].tobytes()


def test_forward_grid_shape_and_validation():
    rng = np.random.default_rng(23)
    net = _random_network(rng, q=3)
    out = forward_grid(net, np.linspace(0.0, 1.0, 11))
    assert out.shape == (11, 3)
    with pytest.raises(UsageError):
        forward_grid(net, np.zeros((2, 2)))
    with pytest.raises(UsageError):
        forward_grid(net, np.array([]))
    with pytest.raises(DomainError):
        forward_grid(net, np.array([0.5, np.nan]))
    with pytest.raises(DomainError):
        forward_grid(net, np.array([np.inf]))
    compiled = compile_network(net)
    assert compiled.eval(np.linspace(0.0, 1.0, 11)).shape == (11, 3)
    for bad, error in (
        (np.zeros((2, 2)), UsageError),
        (np.array([]), UsageError),
        (np.array([0.5, np.nan]), DomainError),
        (np.array([np.inf]), DomainError),
    ):
        with pytest.raises(error):
            compiled.eval(bad)


@pytest.mark.parametrize("bad", [["a"], [1 + 2j], [0.5, [0.5]], [None, 0.5]])
def test_evaluation_points_must_be_numbers(bad):
    samples = TargetSamples.from_function(KnotGrid.uniform(4), np.sin)
    net = build_network("cubic", samples)
    model = matching_oracle("cubic", samples)
    for evaluate in (lambda xs: forward_grid(net, xs),
                     compile_network(net).eval,
                     lambda xs: eval_oracle_grid(model, xs)):
        with pytest.raises(UsageError, match="must be numbers"):
            evaluate(bad)


def test_neuron_order_is_immaterial():
    # compensated accumulation keeps reordering error at rounding level
    rng = np.random.default_rng(31)
    net = _random_network(rng, width=40, q=1)
    xs = rng.uniform(0.0, 1.0, 101)
    base = forward_grid(net, xs)[:, 0]
    perm = rng.permutation(net.width)
    shuffled = Network(net.weight[perm], net.bias[perm], net.acts,
                       net.group[perm], net.taps[perm], net.tap_bias,
                       net.method, net.n)
    other = forward_grid(shuffled, xs)[:, 0]
    terms = np.stack(
        [np.abs(net.taps[j, 0])
         * np.abs(activation_values(net.acts[net.group[j]],
                                    net.weight[j] * xs + net.bias[j]))
         for j in range(net.width)]
    )
    scale = 1.0 + terms.sum(axis=0)
    assert np.max(np.abs(base - other) / scale) <= 1e-15


def test_tap_additivity():
    # taps are affine in their weights: splitting one tap into two halves
    # and adding the results reproduces the original up to rounding
    rng = np.random.default_rng(37)
    net = _random_network(rng, width=20, q=1)
    w = net.taps[:, 0]
    b = net.tap_bias[0]
    split = rng.uniform(-1.0, 1.0, w.size)
    two = Network(net.weight, net.bias, net.acts, net.group,
                  np.column_stack([split, w - split, w]),
                  [0.25 * b, 0.75 * b, b], net.method, net.n)
    xs = rng.uniform(0.0, 1.0, 101)
    out = forward_grid(two, xs)
    recombined = out[:, 0] + out[:, 1]
    scale = 1.0 + np.max(np.abs(out))
    assert np.max(np.abs(recombined - out[:, 2])) <= 1e-14 * scale


def test_network_validation():
    relu = (Activation("relu"),)

    def make(weight=(1.0,), bias=(0.0,), acts=relu, group=(0,),
             taps=((1.0,),), tap_bias=(0.0,), method="constant", n=1):
        return Network(weight, bias, acts, group, taps, tap_bias, method, n)

    assert make().width == 1 and make().out_dim == 1
    for bad in (
        dict(weight=(), bias=(), group=(), taps=np.empty((0, 1))),
        dict(taps=np.empty((1, 0)), tap_bias=()),
        dict(taps=((1.0, 2.0),)),
        dict(taps=((1.0,), (2.0,))),
        dict(tap_bias=(0.0, 0.0)),
        dict(bias=(0.0, 1.0)),
        dict(group=(0, 0)),
        dict(weight=(float("nan"),)),
        dict(bias=(float("inf"),)),
        dict(taps=((float("inf"),),)),
        dict(tap_bias=(float("nan"),)),
        dict(group=(1,)),
        dict(group=(-1,)),
        dict(acts=()),
        dict(acts=("relu",)),
        dict(method=None),
        dict(method=3),
        dict(n=0),
        dict(n=-3),
        dict(n=True),
        dict(n=2.5),
    ):
        with pytest.raises(UsageError):
            make(**bad)
    # an integral numpy n is stored as an int, which save_model can write
    net = make(n=np.int64(5))
    assert type(net.n) is int and net.n == 5
    text = save_model(net)
    assert load_model(text).n == 5 and save_model(load_model(text)) == text


def test_network_arrays_are_read_only_copies():
    weight = np.array([1.0, -2.0])
    taps = np.array([[1.0], [2.0]])
    net = Network(weight, [0.5, 0.0], (Activation("step"), Activation("relu")),
                  [1, 0], taps, [0.0], "constant", 1)
    weight[0] = 7.0
    taps[0, 0] = 7.0
    assert net.weight.tolist() == [1.0, -2.0] and net.taps[0, 0] == 1.0
    for arr, dtype in ((net.weight, np.float64), (net.bias, np.float64),
                       (net.group, np.int64), (net.taps, np.float64),
                       (net.tap_bias, np.float64)):
        assert arr.dtype == dtype and not arr.flags.writeable


def _shares_writable_memory(arr):
    """Whether arr, or an array or object whose memory it shares, is
    writable: True unless each array on its .base chain is read-only and
    the chain ends in an array that owns its memory or in bytes."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return True
        arr = arr.base
    return arr is not None and type(arr) is not bytes


def test_network_keeps_only_read_only_bytes_backed_arrays():
    data = np.array([1.0, -2.0, 0.5]).tobytes()
    kept = np.frombuffer(data, "<f8")
    group = np.frombuffer(bytes(24), "<i8")
    net = Network(kept, kept, (Activation("relu"),), group, kept[:, None],
                  kept[:1], "constant", 1)
    assert net.weight is kept and net.bias is kept and net.group is group
    assert np.shares_memory(net.taps, kept)
    # memory that can be written, or another dtype, is copied
    owned = np.array([1.0, -2.0, 0.5])
    owned.flags.writeable = False
    view = np.arange(4.0)[1:]
    view.flags.writeable = False
    mutable = np.frombuffer(bytearray(data), "<f8")
    mutable.flags.writeable = False
    for values in (owned, view, mutable, np.frombuffer(data, ">f8"),
                   np.frombuffer(data, "<f8").astype(np.float32)):
        copy = Network(values, kept, (Activation("relu"),), group,
                       kept[:, None], kept[:1], "constant", 1).weight
        assert not np.shares_memory(copy, values)
        assert copy.dtype == np.float64 and not _shares_writable_memory(copy)


@pytest.mark.parametrize("q", [1, 2])
def test_loaded_arrays_share_no_writable_memory(q):
    net = _random_network(np.random.default_rng(q), q=q)
    for text in (save_model(net), format2_text(net), format1_text(net)):
        loaded = load_model(text)
        assert network_bytes(loaded) == network_bytes(net)
        for name in ("weight", "bias", "group", "taps", "tap_bias"):
            assert not _shares_writable_memory(getattr(loaded, name)), name


@pytest.mark.parametrize("n", (8, 64, 512, 4096))
@pytest.mark.parametrize("method", METHODS)
def test_compiled_matches_dense_and_oracle(method, n):
    # the prove workload's sizes; at N = 512 a second, rough column
    grid = KnotGrid.uniform(n)
    x = grid.knots
    values = np.sin(2.0 * np.pi * x) + 0.5 * np.cos(6.0 * x)
    if n == 512:
        noise = np.random.default_rng(41).uniform(-1.0, 1.0, n + 1)
        values = np.column_stack([values, noise])
    samples = TargetSamples(grid, values)
    net = build_network(method, samples)
    xs = np.linspace(0.0, 1.0, 2001 if n == 4096 else 10001)
    compiled = compile_network(net).eval(xs)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    assert compiled.shape == (xs.size, samples.q)
    dense_dev = np.max(np.abs(compiled - forward_grid(net, xs)))
    assert dense_dev <= tol
    model = matching_oracle(method, samples)
    oracle_dev = np.max(np.abs(compiled - eval_oracle_grid(model, xs)))
    assert oracle_dev <= tol


_KINDS = (
    Activation("step"),
    Activation("relu"),
    Activation("ramp"),
    Activation.cubic(0.0),
    Activation.cubic(0.5),
    Activation.cubic(0.75),
)


def _general_network(rng, width, q, kinds=_KINDS):
    """Units drawn from kinds (by default all four, cubic slopes 0, 0.5
    and 0.75), and weights of both signs with about one in eight
    exactly zero."""
    weights = rng.uniform(-4.0, 4.0, width)
    weights[rng.random(width) < 0.125] = 0.0
    units = [
        (float(w), float(rng.uniform(-2.0, 2.0)),
         kinds[int(rng.integers(len(kinds)))])
        for w in weights
    ]
    outputs = [
        (rng.uniform(-3.0, 3.0, width), float(rng.uniform(-1.0, 1.0)))
        for _ in range(q)
    ]
    return _network(units, outputs)


_LEVELS = {"step": (0.0,), "relu": (0.0,), "ramp": (0.0, 1.0),
           "cubic": (-1.0, 1.0)}


def _probe_points(rng, net):
    """Uniform points in [-2, 3], every unit's thresholds and their
    neighbouring doubles, and +-1e6."""
    thresholds = [
        (z - b) / w
        for w, b, g in zip(net.weight, net.bias, net.group) if w != 0.0
        for z in _LEVELS[net.acts[g].kind]
    ]
    t = np.asarray(thresholds, dtype=np.float64)
    return np.concatenate([
        rng.uniform(-2.0, 3.0, 500), t, np.nextafter(t, -np.inf),
        np.nextafter(t, np.inf), [-1e6, 1e6],
    ])


def _reference_grid(rng, net, size):
    """size points taken in a cycle from +-0.0, +-1e6 and the probe
    points of net (thresholds, their neighbours, uniform points),
    starting at a random place."""
    pool = np.concatenate([[0.0, -0.0, 1e6, -1e6],
                           rng.permutation(_probe_points(rng, net))])
    start = int(rng.integers(pool.size))
    return np.take(pool, np.arange(start, start + size), mode="wrap")


# (width, grid size) pairs around the sides of forward_grid's tiles.
# An odd count past one pads one copy of its last point, and one point
# runs alone.  A call of p points, counted after the padding, has
# neuron tiles up to _TILE // p - 1 wide, and they are _WIDE_UNITS wide
# once a grid has _BLOCK points or more, and then hold _BLOCK points, a
# block of _TILE // (width + 1) points on a narrower network.  The
# cases at _WIDE - 1 to _WIDE + 1 points, at widths 89 to 91, 109 to
# 111, 275, 335 and 8191 to 36869 and at 89, 91, 109 to 112, 8193 and
# 12287 to 12290 points sit at the sides of earlier tile shapes (square
# tiles of 8192 and 12288 values, rows of 110 neurons, and rows of point
# pairs below _WIDE points), which keep their cases.
_WIDE = 8
_BLOCK = _TILE // (_WIDE_UNITS + 1) // 2 * 2
_TILE_CASES = sorted(set(
    [(w, g) for w in (1, 89, 90, 91, 275) for g in (1, 2, 89, 91, 8193)]
    + [(w, 1) for w in (8191, 8192, 8193, 24581)] + [(24581, 3)]
    + [(w, g) for w in (1, 109, 110, 111, 335)
       for g in (1, 2, 3, 109, 111, 12289)]
    + [(w, g) for w in (111, 335)
       for g in (109, 110, 111, 112, 12287, 12288, 12290)]
    + [(w, 1) for w in (12287, 12288, 12289, 36869)]
    + [(6145, 2), (3073, 3), (36869, 3)]
    + [(w, g) for w in (1, _WIDE_UNITS - 1, _WIDE_UNITS, _WIDE_UNITS + 1,
                        3 * _WIDE_UNITS + 5, 335)
       for g in (_WIDE - 1, _WIDE, _WIDE + 1, _BLOCK - 1, _BLOCK,
                 _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1)]
    + [(1, _TILE // 2 + 1), (_WIDE_UNITS - 1, _TILE // _WIDE_UNITS + 1)]
    + [(w, g) for w in (1, 335, _TILE // 6 + 1, _TILE // 2 + 1)
       for g in (5, 6)]
    + [(_TILE // 8 + 1, 7)]
))


@pytest.mark.parametrize("width,size", _TILE_CASES)
def test_forward_grid_equals_neuron_loop_bitwise(width, size):
    rng = np.random.default_rng(width * 100003 + size)
    net = _general_network(rng, width, int(rng.integers(1, 4)))
    xs = _reference_grid(rng, net, size)
    assert forward_grid(net, xs).tobytes() == _forward_grid_loop(net, xs).tobytes()


@pytest.mark.parametrize("size", (1, 2, 3, _WIDE - 1, _WIDE, 111, 112,
                                  _BLOCK + 1))
@pytest.mark.parametrize("kind", range(len(_KINDS)))
def test_forward_grid_equals_neuron_loop_for_one_activation(kind, size):
    # tiles of one activation are activated in place; the cubic's lands
    # in a spare buffer
    width = 335
    rng = np.random.default_rng(kind * 1009 + size)
    net = _general_network(rng, width, int(rng.integers(1, 4)),
                           (_KINDS[kind],))
    xs = _reference_grid(rng, net, size)
    assert forward_grid(net, xs).tobytes() == _forward_grid_loop(net, xs).tobytes()


@pytest.mark.parametrize("size", (1, 2, 3, 5, _WIDE, _REDUCE - 2,
                                  _REDUCE - 1, _REDUCE, 64, _BLOCK + 1))
def test_forward_grid_sums_the_compensation_in_neuron_order(size):
    # A constant unit at each end adds +-2**70 to every output, and the
    # units between them add taps from 1e-12 to 1e3, each below half an
    # ulp of the running sum.  So the running sum ends at 0, and the
    # output is the compensation alone: the sum of the middle terms in
    # neuron order, whose last bits any other order (pairwise, say)
    # changes.
    rng = np.random.default_rng(size)
    width, q = 300, 2
    mid = _general_network(rng, width - 2, q, _KINDS[1:3])
    one = np.zeros(1)
    taps = (rng.choice((-1.0, 1.0), (width, q))
            * 10.0 ** rng.uniform(-12.0, 3.0, (width, q)))
    taps[0], taps[-1] = 2.0 ** 70, -2.0 ** 70
    net = Network(np.concatenate([one, mid.weight, one]),
                  np.concatenate([one + 1.0, mid.bias, one + 1.0]),
                  mid.acts + (Activation("step"),),
                  np.concatenate([[len(mid.acts)], mid.group,
                                  [len(mid.acts)]]),
                  taps, np.zeros(q), "constant", 1)
    xs = rng.uniform(-2.0, 3.0, size)
    assert forward_grid(net, xs).tobytes() == _forward_grid_loop(net, xs).tobytes()


@pytest.mark.parametrize("n", (8, 64, 512, 4096))
@pytest.mark.parametrize("method", METHODS)
def test_forward_grid_equals_neuron_loop_for_every_method(method, n):
    grid = KnotGrid.uniform(n)
    samples = TargetSamples.from_function(grid, lambda x: np.sin(7.0 * x))
    net = build_network(method, samples)
    xs = np.concatenate([grid.knots[::max(1, n // 512)], [0.0, -0.0, 1e6, -1e6],
                         np.random.default_rng(n).uniform(-0.5, 1.5, 300)])
    assert forward_grid(net, xs).tobytes() == _forward_grid_loop(net, xs).tobytes()


def test_forward_grid_memory_stays_within_tiles():
    # (method, N, points, bound in KiB): eval-points' sizes, one, two and
    # five points, and model-io's 5 points at width 65540, where the
    # whole (points x neurons) matrix would be 2.6 MB and a list of one
    # activation's members 0.5 MB
    rng = np.random.default_rng(43)
    for method, n, size, bound in (
        ("linear-relu", 512, 255, 540),
        ("linear-relu", 512, 16, 540),
        ("cubic", 512, 256, 540),
        ("constant", 512, 256, 540),
        ("linear-relu", 512, 1, 100),
        ("linear-relu", 512, 2, 150),
        ("linear-relu", 512, 5, 540),
        ("linear-relu", 16384, 5, 964),
    ):
        grid = KnotGrid.uniform(n)
        net = build_network(method, TargetSamples.from_function(grid, np.sin))
        xs = rng.uniform(0.0, 1.0, size)
        forward_grid(net, xs)
        tracemalloc.start()
        try:
            forward_grid(net, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 1024, (method, n, size, peak)


def test_forward_grid_raises_on_non_finite_output():
    relu = (1e300, 0.0, Activation("relu"))
    step = (1e300, 0.0, Activation("step"))
    net = _network([relu, step], [((1e300, 1.0), 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="x=0.25"):
            forward_grid(net, np.array([-1.0, 0.25, 0.5]))
        with pytest.raises(NumericalError):
            forward_grid(net, np.array([0.5]))
        # w*x overflows inside a step unit, whose output stays finite
        ok = _network([step], [((2.0,), 0.5)])
        assert forward_grid(ok, np.array([-1e6, 1e6])).tolist() == [[0.5], [2.5]]


def test_compiled_form_raises_on_non_finite_coefficients():
    # slope 1e300 * 1e300: the compiled form cannot hold it, and the
    # network overflows for x > 0 as well
    net = _network([(1e300, 0.0, Activation("relu"))], [((1e300,), 0.0)])
    samples = TargetSamples(KnotGrid.uniform(1), np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"x=0\.0$"):
            compile_network(net)
        with pytest.raises(NumericalError):
            verify_equivalence(net, matching_oracle("linear-relu", samples),
                               101)


def test_compiled_eval_raises_on_non_finite_output():
    # finite coefficients (slope 1e300) whose value overflows at x = 1e10
    net = _network([(1e200, 0.0, Activation("relu"))], [((1e100,), 0.0)])
    xs = np.array([-1.0, 0.5, 1e10, 2e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compiled = compile_network(net)
        assert compiled.eval(xs[:2]).tolist() == [[0.0], [5e299]]
        for evaluate in (compiled.eval, lambda g: forward_grid(net, g)):
            with pytest.raises(NumericalError, match="x=10000000000.0"):
                evaluate(xs)


def test_compiled_matches_dense_on_general_networks():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(40):
        net = _general_network(rng, int(rng.integers(1, 41)),
                               int(rng.integers(1, 4)))
        xs = _probe_points(rng, net)
        dev = np.abs(compile_network(net).eval(xs) - forward_grid(net, xs))
        size = 1.0 + np.abs(np.multiply.outer(xs, net.weight)) + np.abs(net.bias)
        scale = 1.0 + size @ np.abs(net.taps)
        worst = max(worst, float(np.max(dev / scale)))
    assert worst <= 1e-14


@pytest.mark.parametrize("n", (7, 10, 49, 100, 333, 1000, 3000, 4096))
def test_compiled_steps_switch_where_forward_grid_does(n):
    # -b/w alone puts some step breaks a few ulps on the wrong side of
    # a knot, which moves the value there by a whole sample difference
    grid = KnotGrid.uniform(n)
    values = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
    net = build_network("constant", TargetSamples(grid, values))
    assert np.array_equal(compile_network(net).eval(grid.knots),
                          forward_grid(net, grid.knots))


def test_compiled_form_of_flat_units_has_no_break():
    # units with w = 0 are constants: one piece, anchored at 0.0
    step, cubic = Activation("step"), Activation.cubic()
    rng = np.random.default_rng(41)
    nets = [
        _network([(0.0, 0.4, Activation("ramp")),
                  (0.0, 1.5, Activation("relu")),
                  (0.0, 0.25, Activation.cubic(0.6))],
                 [((1.0, -2.0, 3.0), 0.5), ((0.5, 0.25, -1.0), 0.0)]),
        # the step is closed at zero, so -0.0 switches it on as 0.0 does
        _network([(0.0, b, step) for b in (0.0, -0.0, -1.0)],
                 [((1.0, 2.0, 4.0), 0.0)]),
        # both plateaus of the cubic and its middle, beside a step
        _network([(0.0, b, cubic) for b in (-3.0, -1.0, -0.3, 0.0, 1.0, 2.0)]
                 + [(0.0, 0.5, step), (0.0, -0.5, step)],
                 [(rng.uniform(-3.0, 3.0, 8), -0.25),
                  (rng.uniform(-3.0, 3.0, 8), 0.0)]),
    ]
    xs = np.linspace(-2.0, 2.0, 101)
    for net in nets:
        compiled = compile_network(net)
        assert compiled.breaks.tolist() == []
        assert compiled.anchors.tolist() == [0.0]
        assert compiled.eval(xs).tobytes() == forward_grid(net, xs).tobytes()
    assert compile_network(nets[1]).eval(xs)[:, 0].tolist() == [3.0] * 101


def test_compiled_form_is_read_only():
    compiled = compile_network(_random_network(np.random.default_rng(47)))
    for arr in (compiled.breaks, compiled.anchors, compiled.coeffs):
        assert not arr.flags.writeable


def _built(method="cubic", n=8):
    grid = KnotGrid.uniform(n)
    samples = TargetSamples.from_function(grid, lambda x: np.sin(3.0 * x))
    return build_network(method, samples)


def test_save_load_round_trip_bitwise():
    net = _built()
    text = save_model(net)
    loaded = load_model(text)
    assert save_model(loaded) == text
    xs = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(forward_grid(net, xs), forward_grid(loaded, xs))
    assert loaded.method == net.method and loaded.n == net.n


def test_save_stores_only_free_cubic_coefficient():
    net = _built()
    doc = json.loads(save_model(net))
    assert doc["acts"] == [{"kind": "cubic", "a1": net.acts[0].cubic_coeffs[1]}]
    doc2 = json.loads(save_model(_built("linear-relu")))
    assert doc2["acts"] == [{"kind": "relu"}]
    # format 1 stored a1 on every neuron; the rest is recomputed on load
    v1 = json.loads(format1_text(net))
    act = v1["neurons"][0]["activation"]
    assert act["kind"] == "cubic"
    assert set(act) == {"kind", "a1"}
    assert load_model(json.dumps(v1)).acts == net.acts
    v1 = json.loads(format1_text(_built("linear-relu")))
    assert set(v1["neurons"][0]["activation"]) == {"kind"}


def test_save_writes_one_key_per_line():
    text = save_model(_built("linear-ramp", 4))
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
    keys = [json.loads("{%s}" % line.rstrip(",")) for line in lines[1:-1]]
    assert [next(iter(k)) for k in keys] == [
        "format", "method", "n", "acts", "group", "weight", "bias", "taps",
        "tap_bias"]
    assert keys[0] == {"format": 3}
    # every array is one base64 string, the taps one per output column
    for key in keys[4:]:
        value = next(iter(key.values()))
        for text in (value if isinstance(value, list) else [value]):
            assert base64.b64encode(base64.b64decode(text)).decode() == text


def _json_dumps_model(net):
    """The format-2 text written field by field with json.dumps: the
    reference the format-2 fixture writer's float formatting must
    equal."""
    acts = [{"kind": act.kind, "a1": act.cubic_coeffs[1]}
            if act.kind == "cubic" else {"kind": act.kind}
            for act in net.acts]
    fields = (("format", 2), ("method", net.method), ("n", net.n),
              ("acts", acts), ("group", net.group.tolist()),
              ("weight", net.weight.tolist()), ("bias", net.bias.tolist()),
              ("taps", net.taps.T.tolist()),
              ("tap_bias", net.tap_bias.tolist()))
    return "{\n%s\n}\n" % ",\n".join(
        "  %s: %s" % (json.dumps(key), json.dumps(value, allow_nan=False))
        for key, value in fields)


_EDGE_FLOATS = [-0.0, 0.0, 0.0, -0.0, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308,
                1e16, -1e16, 1e-5, -1e-5, 1e22, -1e22, 0.1, -0.1]


def _encoder_networks():
    rng = np.random.default_rng(17)
    size = 50_000
    spread = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300,
                                                                 size)
    edge = np.array(_EDGE_FLOATS)
    relu = Activation("relu")
    yield Network(edge, edge[::-1], (relu,), np.zeros(edge.size, int),
                  np.column_stack([edge, np.roll(edge, 3)]), [-0.0, 0.0],
                  "constant", 1)
    yield Network(spread, rng.permutation(spread), (relu,),
                  np.zeros(size, int), np.column_stack([spread, -spread]),
                  [1e-300, -1e300], "constant", 1)
    yield Network(np.full(9, 0.25), np.full(9, -0.25), (relu,),
                  np.zeros(9, int), np.full((9, 2), 3.0), [0.0, 0.0],
                  "constant", 1)
    yield Network(rng.uniform(-1.0, 1.0, 300), rng.uniform(-1.0, 1.0, 300),
                  (relu,), np.zeros(300, int), rng.normal(size=(300, 2)),
                  rng.normal(size=2), "constant", 1)
    grid = KnotGrid.uniform(16)
    values = np.column_stack([np.sin(3.0 * grid.knots),
                              rng.uniform(-1.0, 1.0, 17)])
    for method in METHODS:
        yield build_network(method, TargetSamples(grid, values))


def test_format2_writer_equals_the_json_dumps_encoding():
    for net in _encoder_networks():
        text = format2_text(net)
        assert text == _json_dumps_model(net)
        assert format2_text(load_model(text)) == text
        # format 3 holds the same networks, edge floats included
        assert network_bytes(load_model(save_model(net))) == network_bytes(
            load_model(text))


def test_format2_float_encoder_refuses_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            _json_floats(np.array([1.0, bad, -0.0]))
    assert _json_floats(np.array(_EDGE_FLOATS)) == json.dumps(_EDGE_FLOATS)


def test_save_refuses_non_finite_values():
    # Network refuses such values, so they are put in behind its back
    for name in ("weight", "bias", "taps", "tap_bias"):
        for bad in (np.nan, np.inf, -np.inf):
            net = _built("constant", 9)
            values = getattr(net, name).copy()
            values.flat[-1] = bad
            object.__setattr__(net, name, values)
            with pytest.raises(ValueError, match=name):
                save_model(net)


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("method", METHODS)
def test_format1_loads_to_the_format2_arrays(method, n):
    grid = KnotGrid.uniform(n)
    rng = np.random.default_rng(n)
    values = np.column_stack([np.sin(3.0 * grid.knots),
                              rng.uniform(-1.0, 1.0, n + 1)])
    values[0, 1] = -0.0
    net = build_network(method, TargetSamples(grid, values), 0.0)
    v3 = load_model(save_model(net))
    assert network_bytes(load_model(format1_text(net))) == network_bytes(v3)
    assert network_bytes(load_model(format2_text(net))) == network_bytes(v3)
    assert network_bytes(v3) == network_bytes(net)


def _doc(method="linear-ramp"):
    return json.loads(format1_text(_built(method, 4)))


def _doc2(method="linear-ramp"):
    return json.loads(format2_text(_built(method, 4)))


def _expect_format_error(doc, fragment):
    with pytest.raises(FormatError) as err:
        load_model(json.dumps(doc))
    assert fragment in str(err.value)


def test_load_rejects_malformed_documents():
    with pytest.raises(FormatError):
        load_model("{not json")
    with pytest.raises(FormatError):
        load_model("[1, 2]")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_model('{"n": %s}' % ("[" * 100_000 + "]" * 100_000))

    doc = _doc()
    del doc["method"]
    _expect_format_error(doc, "method")

    doc = _doc()
    doc["n"] = 0
    _expect_format_error(doc, "n")

    doc = _doc()
    doc["knots"]["n"] = 5
    _expect_format_error(doc, "knots.n")

    doc = _doc()
    doc["neurons"][0]["activation"]["kind"] = "quadratic"
    _expect_format_error(doc, "neurons[0].activation.kind")

    doc = _doc()
    doc["neurons"][2]["weight"] = "fast"
    _expect_format_error(doc, "neurons[2].weight")

    doc = _doc()
    doc["neurons"][0]["bias"] = True
    _expect_format_error(doc, "neurons[0].bias")

    doc = _doc()
    doc["outputs"][0]["weights"] = doc["outputs"][0]["weights"][:-1]
    _expect_format_error(doc, "outputs[0].weights")

    doc = _doc()
    doc["outputs"][0]["weights"][3] = None
    _expect_format_error(doc, "outputs[0].weights[3]")

    doc = _doc()
    doc["neurons"][1] = [1.0, 0.0]
    _expect_format_error(doc, "neurons[1]: neuron must be an object")

    doc = _doc()
    doc["outputs"].append(doc["outputs"][0])
    doc["outputs"][1] = None
    _expect_format_error(doc, "outputs[1]: output must be an object")


def test_load_rejects_malformed_format2_documents():
    doc = _doc2()
    del doc["method"]
    _expect_format_error(doc, "method")

    doc = _doc2()
    doc["n"] = 0
    _expect_format_error(doc, "n")

    doc = _doc2()
    doc["acts"][0]["kind"] = "quadratic"
    _expect_format_error(doc, "acts[0].kind")

    doc = _doc2()
    doc["weight"][2] = "fast"
    _expect_format_error(doc, "weight[2]")

    doc = _doc2()
    doc["bias"][0] = True
    _expect_format_error(doc, "bias[0]")

    doc = _doc2()
    doc["taps"][0] = doc["taps"][0][:-1]
    _expect_format_error(doc, "taps[0]")

    doc = _doc2()
    doc["taps"][0][3] = None
    _expect_format_error(doc, "taps[0][3]")


def test_load_rejects_bad_format2_arrays():
    for literal in ("NaN", "Infinity", "-Infinity"):
        doc = _doc2()
        doc["weight"][1] = 0.125
        text = json.dumps(doc).replace("0.125", literal, 1)
        with pytest.raises(FormatError, match=r"weight\[1\]: .*finite"):
            load_model(text)

    for bad in (1, -1, True, 0.0, None):
        doc = _doc2()
        doc["group"][5] = bad
        _expect_format_error(doc, "group[5]")

    for name in ("bias", "group", "tap_bias"):
        doc = _doc2()
        doc[name].append(doc[name][0])
        _expect_format_error(doc, name)
    # weight sets the neuron count the other columns are held to
    doc = _doc2()
    doc["weight"].append(1.0)
    _expect_format_error(doc, "bias: expected 11 entries, one per neuron")
    doc = _doc2()
    doc["taps"].append(doc["taps"][0][:-1])
    _expect_format_error(doc, "taps[1]")
    for name in ("acts", "weight", "taps"):
        doc = _doc2()
        doc[name] = []
        _expect_format_error(doc, name)

    for fmt in (1, 4, "2", 2.0, True, None, "3", 3.0):
        doc = _doc2()
        doc["format"] = fmt
        _expect_format_error(doc, "format")


_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _packed(values, dtype="<f8"):
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode()


def _with(i, value, dtype="<f8"):
    """An edit of a format-3 array text that sets element i to value."""
    def edit(text):
        values = np.frombuffer(base64.b64decode(text), dtype).copy()
        values[i] = value
        return _packed(values, dtype)
    return edit


def _resized(delta, dtype="<f8"):
    """An edit of a format-3 array text that adds delta elements."""
    def edit(text):
        values = np.frombuffer(base64.b64decode(text), dtype)
        return _packed(np.resize(values, values.size + delta), dtype)
    return edit


# Each FormatError of a format-3 array: (field, edit of its JSON value,
# pattern of the message).  A field is a key or (key, column).  The
# edits fit any built network of at least 6 units and one output.
FORMAT3_FAULTS = {
    "wrong-type": [
        ("weight", lambda t: [0.5] * 6, r"^weight: expected a base64 string$"),
        ("group", lambda t: [0] * 6, r"^group: expected a base64 string$"),
        (("taps", 0), lambda t: None, r"^taps\[0\]: expected a base64 string$"),
        ("tap_bias", lambda t: 0.5, r"^tap_bias: expected a base64 string$"),
    ],
    "outside-alphabet": [
        ("bias", lambda t: "*" + t[1:], r"^bias: expected standard padded base64"),
        # the URL-safe alphabet, and a character outside ASCII
        ("weight", lambda t: t[:4] + "-" + t[5:], r"^weight: expected standard"),
        ("tap_bias", lambda t: t[:4] + "\u00e9" + t[5:],
         r"^tap_bias: expected standard"),
    ],
    "bad-padding": [
        ("tap_bias", lambda t: t.rstrip("="), r"^tap_bias: expected standard"),
        ("weight", lambda t: t + "=", r"^weight: expected standard"),
        ("bias", lambda t: t[:-1], r"^bias: expected standard"),
    ],
    "non-canonical": [
        # a padding bit set: the same bytes in text save_model never writes
        ("tap_bias", lambda t: t[:10] + _B64[_B64.index(t[10]) ^ 1] + t[11:],
         r"^tap_bias: expected standard"),
        ("weight", lambda t: t[:8] + "\n" + t[8:], r"^weight: expected standard"),
        ("group", lambda t: t[:4] + " " + t[4:], r"^group: expected standard"),
        # text after the padding
        ("tap_bias", lambda t: t + "AAAA", r"^tap_bias: expected standard"),
    ],
    "partial-value": [
        ("weight", lambda t: base64.b64encode(bytes(7)).decode(),
         r"^weight: expected whole 8-byte values, got 7 bytes$"),
        ("group", lambda t: base64.b64encode(base64.b64decode(t)[:-4]).decode(),
         r"^group: expected whole 8-byte values, got \d+ bytes$"),
    ],
    "wrong-length": [
        ("bias", _resized(1), r"^bias: expected (\d+) entries, one per neuron, "
         r"got (?!\1)\d+$"),
        ("group", _resized(-1, "<i8"), r"^group: expected \d+ entries, one per"),
        (("taps", 0), _resized(-1), r"^taps\[0\]: expected \d+ entries, one per"),
        ("tap_bias", _resized(1), r"^tap_bias: expected 1 entries, one per "
         r"output column, got 2$"),
        ("weight", lambda t: "", r"^weight: model needs at least one neuron$"),
    ],
    "non-finite": [
        ("weight", _with(2, np.nan), r"^weight\[2\]: number must be finite$"),
        (("taps", 0), _with(3, np.inf), r"^taps\[0\]\[3\]: number must be"),
        ("tap_bias", _with(0, -np.inf), r"^tap_bias\[0\]: number must be"),
        # a NaN with a payload: only the bit pattern says what it is
        ("bias", _with(1, 0x7FF0_0000_0000_0001, "<i8"),
         r"^bias\[1\]: number must be finite$"),
    ],
    "group-out-of-range": [
        ("group", _with(5, 1, "<i8"),
         r"^group\[5\]: expected an index into acts, got 1$"),
        ("group", _with(5, -1, "<i8"), r"^group\[5\]: .* got -1$"),
        ("group", _with(5, 2 ** 63 - 1, "<i8"), r"^group\[5\]: .* got 9223"),
    ],
}


def tampered(doc, field, edit):
    """doc with the JSON value at field replaced by edit(value)."""
    key, k = field if isinstance(field, tuple) else (field, None)
    if k is None:
        doc[key] = edit(doc[key])
    else:
        doc[key][k] = edit(doc[key][k])
    return doc


@pytest.mark.parametrize("fault", FORMAT3_FAULTS)
def test_load_rejects_bad_format3_arrays(fault):
    for field, edit, pattern in FORMAT3_FAULTS[fault]:
        doc = tampered(json.loads(save_model(_built("linear-ramp", 4))), field,
                       edit)
        with pytest.raises(FormatError, match=pattern):
            load_model(json.dumps(doc))


def test_load_names_huge_integers():
    doc = _doc2()
    doc["weight"][1] = 10 ** 400
    _expect_format_error(doc, "weight[1]")
    doc = _doc2("cubic")
    doc["acts"][0]["a1"] = 10 ** 400
    _expect_format_error(doc, "acts[0].a1")
    doc = _doc()
    doc["neurons"][1]["bias"] = -10 ** 400
    _expect_format_error(doc, "neurons[1].bias")
    doc = _doc()
    doc["outputs"][0]["weights"][2] = 10 ** 400
    _expect_format_error(doc, "outputs[0].weights[2]")


def test_load_rejects_misplaced_or_bad_a1():
    doc = _doc()
    doc["neurons"][0]["activation"]["a1"] = 0.5
    _expect_format_error(doc, "a1")

    doc = _doc("cubic")
    doc["neurons"][0]["activation"]["a1"] = 0.9
    _expect_format_error(doc, "a1")

    doc = _doc("cubic")
    del doc["neurons"][0]["activation"]["a1"]
    _expect_format_error(doc, "a1")


def test_load_rejects_misplaced_or_bad_format2_a1():
    doc = _doc2()
    doc["acts"][0]["a1"] = 0.5
    _expect_format_error(doc, "acts[0].a1")

    doc = _doc2("cubic")
    doc["acts"][0]["a1"] = 0.9
    _expect_format_error(doc, "acts[0].a1")

    doc = _doc2("cubic")
    del doc["acts"][0]["a1"]
    _expect_format_error(doc, "acts[0].a1")


def _v1_doc(*a1s):
    neurons = [{"weight": 1.0, "bias": 0.0,
                "activation": {"kind": "cubic", "a1": a1}} for a1 in a1s]
    return {"method": "constant", "n": 1, "knots": {"n": 1},
            "neurons": neurons,
            "outputs": [{"weights": [1.0] * len(a1s), "bias": 0.0}]}


def test_format1_reads_an_a1_of_0_and_of_0_0_as_one_activation():
    # json.dumps writes 0 as "0", 0.0 as "0.0" and -0.0 as "-0.0"
    for a1s, group, acts in (((0, 0.0, 0), [0, 0, 0], ["0.0"]),
                             ((0.0, 0), [0, 0], ["0.0"]),
                             ((0, -0.0, 0.0, -0.0), [0, 1, 0, 1],
                              ["0.0", "-0.0"]),
                             ((-0.0, 0), [0, 1], ["-0.0", "0.0"])):
        net = load_model(json.dumps(_v1_doc(*a1s)))
        assert net.group.tolist() == group
        assert [repr(act.a1) for act in net.acts] == acts
    # false equals 0 in Python but is not a number: it is refused even
    # after a neuron whose a1 = 0 was read
    _expect_format_error(_v1_doc(0, 0.0, False), "neurons[2].activation.a1")
    _expect_format_error(_v1_doc(0.5, 0.5, 0.9), "neurons[2].activation.a1")


def test_load_keeps_the_sign_of_a_zero_a1():
    net = Network([1.0, 1.0], [0.0, 0.0],
                  (Activation.cubic(0.0), Activation.cubic(-0.0)), [0, 1],
                  [[1.0], [1.0]], [0.0], "constant", 1)
    for text in (save_model(net), format1_text(net), format2_text(net)):
        loaded = load_model(text)
        assert network_bytes(loaded) == network_bytes(net)
        assert save_model(loaded) == save_model(net)
