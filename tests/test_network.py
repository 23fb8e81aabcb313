"""Unit tests for network evaluation and JSON serialization."""

import json

import numpy as np
import pytest

from pwmlp import (
    METHODS,
    Activation,
    DomainError,
    FormatError,
    HiddenNeuron,
    KnotGrid,
    Network,
    OutputTap,
    TargetSamples,
    UsageError,
    activation_values,
    build_network,
    compile_network,
    eval_oracle_grid,
    forward,
    forward_grid,
    load_model,
    matching_oracle,
    save_model,
)


def _random_network(rng, width=12, q=2):
    kinds = [
        Activation.step(),
        Activation.relu(),
        Activation.ramp(),
        Activation.cubic(),
    ]
    neurons = tuple(
        HiddenNeuron(
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(-2.0, 2.0)),
            kinds[int(rng.integers(len(kinds)))],
        )
        for _ in range(width)
    )
    outputs = tuple(
        OutputTap(
            tuple(float(w) for w in rng.uniform(-3.0, 3.0, width)),
            float(rng.uniform(-1.0, 1.0)),
        )
        for _ in range(q)
    )
    return Network(neurons, outputs, "constant", 1)


def test_forward_delegates_to_forward_grid_bitwise():
    rng = np.random.default_rng(19)
    net = _random_network(rng)
    xs = rng.uniform(0.0, 1.0, 64)
    grid_rows = forward_grid(net, xs)
    for i, x in enumerate(xs):
        assert forward(net, x) == [float(v) for v in grid_rows[i]]


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
        forward(net, float("inf"))
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


def test_neuron_order_is_immaterial():
    # compensated accumulation keeps reordering error at rounding level
    rng = np.random.default_rng(31)
    net = _random_network(rng, width=40, q=1)
    xs = rng.uniform(0.0, 1.0, 101)
    base = forward_grid(net, xs)[:, 0]
    perm = rng.permutation(net.width)
    shuffled = Network(
        tuple(net.neurons[i] for i in perm),
        (OutputTap(tuple(net.outputs[0].weights[i] for i in perm),
                   net.outputs[0].bias),),
        net.method,
        net.n,
    )
    other = forward_grid(shuffled, xs)[:, 0]
    terms = np.stack(
        [np.abs(w) * np.abs(activation_values(nrn.activation,
                                              nrn.weight * xs + nrn.bias))
         for nrn, w in zip(net.neurons, net.outputs[0].weights)]
    )
    scale = 1.0 + terms.sum(axis=0)
    assert np.max(np.abs(base - other) / scale) <= 1e-15


def test_tap_additivity():
    # taps are affine in their weights: splitting one tap into two halves
    # and adding the results reproduces the original up to rounding
    rng = np.random.default_rng(37)
    net = _random_network(rng, width=20, q=1)
    w = np.asarray(net.outputs[0].weights)
    b = net.outputs[0].bias
    split = rng.uniform(-1.0, 1.0, w.size)
    taps = (
        OutputTap(tuple(split), 0.25 * b),
        OutputTap(tuple(w - split), 0.75 * b),
        net.outputs[0],
    )
    two = Network(net.neurons, taps, net.method, net.n)
    xs = rng.uniform(0.0, 1.0, 101)
    out = forward_grid(two, xs)
    recombined = out[:, 0] + out[:, 1]
    scale = 1.0 + np.max(np.abs(out))
    assert np.max(np.abs(recombined - out[:, 2])) <= 1e-14 * scale


def test_network_validation():
    neuron = HiddenNeuron(1.0, 0.0, Activation.relu())
    with pytest.raises(UsageError):
        Network((), (OutputTap((), 0.0),), "constant", 1)
    with pytest.raises(UsageError):
        Network((neuron,), (), "constant", 1)
    with pytest.raises(UsageError):
        Network((neuron,), (OutputTap((1.0, 2.0), 0.0),), "constant", 1)
    with pytest.raises(UsageError):
        HiddenNeuron(float("nan"), 0.0, Activation.relu())
    with pytest.raises(UsageError):
        OutputTap((1.0, float("inf")), 0.0)
    with pytest.raises(UsageError):
        OutputTap((1.0,), float("nan"))


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


def _general_network(rng, width, q):
    """All four kinds, cubic slopes 0, 0.5 and 0.75, and weights of both
    signs with about one in eight exactly zero."""
    kinds = (
        Activation.step(),
        Activation.relu(),
        Activation.ramp(),
        Activation.cubic(0.0),
        Activation.cubic(0.5),
        Activation.cubic(0.75),
    )
    weights = rng.uniform(-4.0, 4.0, width)
    weights[rng.random(width) < 0.125] = 0.0
    neurons = tuple(
        HiddenNeuron(float(w), float(rng.uniform(-2.0, 2.0)),
                     kinds[int(rng.integers(len(kinds)))])
        for w in weights
    )
    outputs = tuple(
        OutputTap(tuple(float(c) for c in rng.uniform(-3.0, 3.0, width)),
                  float(rng.uniform(-1.0, 1.0)))
        for _ in range(q)
    )
    return Network(neurons, outputs, "constant", 1)


_LEVELS = {"step": (0.0,), "relu": (0.0,), "ramp": (0.0, 1.0),
           "cubic": (-1.0, 1.0)}


def _probe_points(rng, net):
    """Uniform points in [-2, 3], every unit's thresholds and their
    neighbouring doubles, and +-1e6."""
    thresholds = [
        (z - u.bias) / u.weight
        for u in net.neurons if u.weight != 0.0
        for z in _LEVELS[u.activation.kind]
    ]
    t = np.asarray(thresholds, dtype=np.float64)
    return np.concatenate([
        rng.uniform(-2.0, 3.0, 500), t, np.nextafter(t, -np.inf),
        np.nextafter(t, np.inf), [-1e6, 1e6],
    ])


def test_compiled_matches_dense_on_general_networks():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(40):
        net = _general_network(rng, int(rng.integers(1, 41)),
                               int(rng.integers(1, 4)))
        xs = _probe_points(rng, net)
        dev = np.abs(compile_network(net).eval(xs) - forward_grid(net, xs))
        w = np.array([u.weight for u in net.neurons])
        b = np.array([u.bias for u in net.neurons])
        c = np.abs(np.array([tap.weights for tap in net.outputs]))
        size = 1.0 + np.abs(np.multiply.outer(xs, w)) + np.abs(b)
        scale = 1.0 + size @ c.T
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
    doc = json.loads(save_model(_built()))
    act = doc["neurons"][0]["activation"]
    assert act["kind"] == "cubic"
    assert set(act) == {"kind", "a1"}
    doc2 = json.loads(save_model(_built("linear-relu")))
    assert set(doc2["neurons"][0]["activation"]) == {"kind"}


def _doc():
    return json.loads(save_model(_built("linear-ramp", 4)))


def _expect_format_error(doc, fragment):
    with pytest.raises(FormatError) as err:
        load_model(json.dumps(doc))
    assert fragment in str(err.value)


def test_load_rejects_malformed_documents():
    with pytest.raises(FormatError):
        load_model("{not json")
    with pytest.raises(FormatError):
        load_model("[1, 2]")

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


def test_load_rejects_misplaced_or_bad_a1():
    doc = _doc()
    doc["neurons"][0]["activation"]["a1"] = 0.5
    _expect_format_error(doc, "a1")

    doc = json.loads(save_model(_built("cubic", 4)))
    doc["neurons"][0]["activation"]["a1"] = 0.9
    _expect_format_error(doc, "a1")

    doc = json.loads(save_model(_built("cubic", 4)))
    del doc["neurons"][0]["activation"]["a1"]
    _expect_format_error(doc, "a1")
