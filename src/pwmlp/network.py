"""One-hidden-layer networks with per-neuron activations.

A network is a list of hidden neurons (input weight, bias, activation)
plus one output tap per output dimension (a weight per neuron and one
accumulated bias).  Evaluation sums tap-weighted activations in neuron
order with a compensated (Neumaier) accumulator: the ReLU constructions
produce large cancelling responses, and plain summation would visibly
erode the agreement with the piecewise-polynomial reference models.

Models serialize to JSON with shortest-round-trip number formatting, so
a save/load cycle reproduces evaluation results bit for bit.
"""

import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .activations import (
    CUBIC,
    KINDS,
    RELU,
    STEP,
    Activation,
    activation_values,
    eval_activation,
)
from .errors import DomainError, FormatError, UsageError


@dataclass(frozen=True)
class HiddenNeuron:
    weight: float
    bias: float
    activation: Activation

    def __post_init__(self):
        if not (math.isfinite(self.weight) and math.isfinite(self.bias)):
            raise UsageError("neuron weight and bias must be finite")


@dataclass(frozen=True)
class OutputTap:
    weights: Tuple[float, ...]
    bias: float

    def __post_init__(self):
        if not all(math.isfinite(w) for w in self.weights):
            raise UsageError("tap weights must be finite")
        if not math.isfinite(self.bias):
            raise UsageError("tap bias must be finite")


@dataclass(frozen=True)
class Network:
    neurons: Tuple[HiddenNeuron, ...]
    outputs: Tuple[OutputTap, ...]
    method: str
    n: int

    def __post_init__(self):
        if len(self.neurons) == 0:
            raise UsageError("network needs at least one hidden neuron")
        if len(self.outputs) == 0:
            raise UsageError("network needs at least one output tap")
        for k, tap in enumerate(self.outputs):
            if len(tap.weights) != len(self.neurons):
                raise UsageError(
                    "output tap %d has %d weights for %d neurons"
                    % (k, len(tap.weights), len(self.neurons))
                )

    @property
    def width(self):
        return len(self.neurons)

    @property
    def out_dim(self):
        return len(self.outputs)


def _evaluation_grid(grid):
    """The points of a 1-D evaluation grid as float64, validated."""
    xs = np.asarray(grid, dtype=np.float64)
    if xs.ndim != 1:
        raise UsageError("evaluation grid must be one-dimensional")
    if xs.size == 0:
        raise UsageError("evaluation grid is empty")
    if not np.all(np.isfinite(xs)):
        raise DomainError("non-finite evaluation point")
    return xs


def forward_grid(net, grid):
    """Evaluate the network on a 1-D grid; returns a (len(grid), q) array.

    This is the definitional reference: it runs every neuron at every
    point, at O(len(grid) * width) cost.  compile_network gives the same
    function as a piecewise cubic for repeated evaluation.

    Row i equals forward(net, grid[i]) bit for bit: the scalar entry
    point delegates here, and every lane of the vectorized arithmetic is
    an independent IEEE double operation.
    """
    xs = _evaluation_grid(grid)
    q = net.out_dim
    total = np.empty((q, xs.size), dtype=np.float64)
    comp = np.zeros((q, xs.size), dtype=np.float64)
    for k, tap in enumerate(net.outputs):
        total[k, :] = tap.bias
    for j, neuron in enumerate(net.neurons):
        a = activation_values(neuron.activation, neuron.weight * xs + neuron.bias)
        for k, tap in enumerate(net.outputs):
            v = tap.weights[j] * a
            s = total[k]
            t = s + v
            # Neumaier update: track the rounding error of each addition.
            comp[k] += np.where(np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s)
            total[k] = t
    return (total + comp).T


def forward(net, x):
    """Evaluate the network at a scalar x; returns a list of q floats."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("non-finite evaluation point %r" % (x,))
    row = forward_grid(net, np.array([x], dtype=np.float64))[0]
    return [float(v) for v in row]


@dataclass(frozen=True, eq=False)
class PiecewiseNetwork:
    """A network written out as the piecewise cubic it computes.

    Piece 0 is x < breaks[0], piece i is breaks[i-1] <= x < breaks[i],
    and the last piece is x >= breaks[-1].  On piece i output k equals
    sum_d coeffs[d, i, k] * (x - anchors[i])**d.  Each piece is anchored
    at its left end and piece 0 at the first break, so the coefficients
    stay the size of the function near the piece rather than growing
    like (w * x)**3.  The arrays are read-only.
    """

    breaks: np.ndarray
    anchors: np.ndarray
    coeffs: np.ndarray

    def eval(self, grid):
        """Evaluate on a 1-D grid by searchsorted plus Horner; returns a
        (len(grid), q) array.  The grid is validated as forward_grid
        validates it."""
        xs = _evaluation_grid(grid)
        piece = np.searchsorted(self.breaks, xs, side="right")
        t = (xs - self.anchors[piece])[:, None]
        c = self.coeffs[:, piece, :]
        return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]


def _step_flipped(w, b, x):
    """Whether fl(w*x + b) >= 0 differs from its value as x -> -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (w * x + b >= 0.0) == (w > 0.0)


def _step_breaks(w, b):
    """For step units with w != 0, the smallest double x at which the
    unit switches, exactly as forward_grid rounds w*x + b; +-inf when it
    never switches at a finite x.

    -b/w alone can land a few ulps off, on the wrong side of a knot.
    The predicate is monotone in x, so a walk by nextafter finds the
    switch: right until it has happened, then left while it still has.
    """
    with np.errstate(over="ignore", divide="ignore"):
        x = -b / w
    idx = np.flatnonzero(np.isfinite(x) & ~_step_flipped(w, b, x))
    while idx.size:
        x[idx] = np.nextafter(x[idx], np.inf)
        idx = idx[~_step_flipped(w[idx], b[idx], x[idx])]
    idx = np.flatnonzero(np.isfinite(x))
    while idx.size:
        left = np.nextafter(x[idx], -np.inf)
        move = _step_flipped(w[idx], b[idx], left)
        idx = idx[move]
        x[idx] = left[move]
    return x


def _compensated_cumsum(rows):
    """Running sums down axis 0, each corrected by the running sum of the
    exact rounding errors of the additions before it (TwoSum): Neumaier
    summation without a Python loop."""
    s = np.cumsum(rows, axis=0)
    prev, add, total = s[:-1], rows[1:], s[1:]
    back = total - prev
    err = (prev - (total - back)) + (add - back)
    comp = np.zeros_like(s)
    np.cumsum(err, axis=0, out=comp[1:])
    return s + comp


def compile_network(net):
    """Compile a network into its exact piecewise-polynomial form.

    Every hidden unit is a polynomial of degree <= 3 in x between at
    most two breaks, so the network is a piecewise cubic whose breaks
    are the units' breaks.  The parts of the units that reach to
    x = +-inf -- the saturated value 1 of step, ramp and cubic, relu's
    linear part, the tap biases and units with w = 0 -- change at one
    break each; they are summed over the sorted breaks as compensated
    prefix sums.  The bounded middle segments of ramp and cubic units
    are expanded about the anchor of each piece they cover.  Step breaks
    are placed where forward_grid's rounding of w*x + b switches the
    unit, so the compiled form takes the same side of every step.

    Costs O(width log width) once; PiecewiseNetwork.eval then costs
    O(len(grid) log width) instead of forward_grid's O(len(grid) * width).
    """
    w = np.array([u.weight for u in net.neurons])
    b = np.array([u.bias for u in net.neurons])
    kind = np.array([u.activation.kind for u in net.neurons])
    taps = np.array([tap.weights for tap in net.outputs]).T
    q = net.out_dim

    # Global parts: (position, change of level, change of slope) events;
    # position -inf means present from the left.
    pos = [np.full(1, -np.inf)]
    level = [np.array([[tap.bias for tap in net.outputs]])]
    slope = [np.zeros((1, q))]

    def add(x, dlevel, dslope):
        pos.append(x)
        level.append(dlevel)
        slope.append(dslope)

    def switch_on(mask, x, on_level, on_slope):
        # The large-z part of rising units appears at x; falling units
        # carry it from the left and drop it at x.
        fall = w[mask] < 0.0
        add(np.full(fall.sum(), -np.inf), on_level[fall], on_slope[fall])
        add(x, np.where(fall[:, None], -on_level, on_level),
            np.where(fall[:, None], -on_slope, on_slope))

    flat = w == 0.0
    if flat.any():
        const = [eval_activation(u.activation, u.bias)
                 for u, f in zip(net.neurons, flat) if f]
        add(np.full(len(const), -np.inf),
            np.array(const)[:, None] * taps[flat], np.zeros((len(const), q)))

    # step, ramp and cubic units saturate at 1 on the side of large z.
    sat = ~flat & (kind != RELU)
    step = sat & (kind == STEP)
    mid = sat & ~step
    hi = np.empty(w.size)
    hi[step] = _step_breaks(w[step], b[step])
    with np.errstate(over="ignore"):
        hi[mid] = (1.0 - b[mid]) / w[mid]
    switch_on(sat, hi[sat], taps[sat], np.zeros((sat.sum(), q)))

    relu = ~flat & (kind == RELU)
    with np.errstate(over="ignore"):
        root = -b[relu] / w[relu]
    switch_on(relu, root, taps[relu] * b[relu, None],
              taps[relu] * w[relu, None])

    # Bounded middle segments of ramp and cubic units, z from zlo to 1,
    # as polynomials sum_d poly[:, d] z**d (the ramp's is z).
    units = np.flatnonzero(mid)
    zlo = np.where(kind[units] == CUBIC, -1.0, 0.0)
    with np.errstate(over="ignore"):
        lo = (zlo - b[units]) / w[units]
    ends = np.sort(np.column_stack([lo, hi[units]]), axis=1)
    poly = np.array([
        net.neurons[j].activation.cubic_coeffs or (0.0, 1.0, 0.0, 0.0)
        for j in units
    ]).reshape(-1, 4)

    pos = np.concatenate(pos)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    level = _compensated_cumsum(np.concatenate(level)[order])
    slope = _compensated_cumsum(np.concatenate(slope)[order])

    breaks = np.unique(np.concatenate([pos, ends.ravel()]))
    breaks = breaks[np.isfinite(breaks)]
    if breaks.size:
        anchors = np.concatenate([breaks[:1], breaks])
    else:
        anchors = np.zeros(1)
    left = np.concatenate([[-np.inf], breaks])
    seen = np.searchsorted(pos, left, side="right") - 1
    coeffs = np.zeros((4, anchors.size, q))
    coeffs[0] = slope[seen] * anchors[:, None] + level[seen]
    coeffs[1] = slope[seen]

    first, stop = np.searchsorted(breaks, ends.T, side="right")
    count = stop - first
    seg = np.repeat(np.arange(units.size), count)
    offset = np.repeat(np.cumsum(count) - count, count)
    piece = first[seg] + np.arange(seg.size) - offset
    ws = w[units][seg]
    z = ws * anchors[piece] + b[units][seg]
    a0, a1, a2, a3 = poly[seg].T
    taylor = (
        ((a3 * z + a2) * z + a1) * z + a0,
        ((3.0 * a3 * z + 2.0 * a2) * z + a1) * ws,
        (3.0 * a3 * z + a2) * ws * ws,
        a3 * ws * ws * ws,
    )
    c = taps[units][seg]
    for d, part in enumerate(taylor):
        np.add.at(coeffs[d], piece, part[:, None] * c)

    for arr in (breaks, anchors, coeffs):
        arr.flags.writeable = False
    return PiecewiseNetwork(breaks, anchors, coeffs)


def save_model(net):
    """Serialize a network to JSON text.

    Only the cubic's free coefficient a1 is stored; the dependent
    coefficients are recomputed on load, which keeps the document small
    and cannot drift because the reconstruction is deterministic.
    """
    neurons = []
    for neuron in net.neurons:
        act = {"kind": neuron.activation.kind}
        if neuron.activation.kind == CUBIC:
            act["a1"] = neuron.activation.cubic_coeffs[1]
        neurons.append(
            {"weight": neuron.weight, "bias": neuron.bias, "activation": act}
        )
    doc = {
        "method": net.method,
        "n": net.n,
        "neurons": neurons,
        "outputs": [
            {"weights": list(tap.weights), "bias": tap.bias} for tap in net.outputs
        ],
        "knots": {"n": net.n},
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _require(cond, path, message):
    if not cond:
        raise FormatError(message, path=path)


def _number(value, path):
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        path,
        "expected a number, got %r" % (value,),
    )
    v = float(value)
    _require(math.isfinite(v), path, "number must be finite")
    return v


def load_model(text):
    """Parse JSON text produced by save_model back into a Network."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise FormatError("invalid JSON: %s" % (exc,)) from exc
    _require(isinstance(doc, dict), "$", "model document must be an object")
    _require(isinstance(doc.get("method"), str), "method", "missing method tag")
    n = doc.get("n")
    _require(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1,
        "n",
        "n must be a positive integer",
    )
    knots = doc.get("knots")
    _require(isinstance(knots, dict), "knots", "missing knot grid description")
    _require(knots.get("n") == n, "knots.n", "knot count disagrees with n")

    raw_neurons = doc.get("neurons")
    _require(
        isinstance(raw_neurons, list) and len(raw_neurons) >= 1,
        "neurons",
        "model needs a nonempty neuron list",
    )
    neurons = []
    for i, item in enumerate(raw_neurons):
        path = "neurons[%d]" % i
        _require(isinstance(item, dict), path, "neuron must be an object")
        weight = _number(item.get("weight"), path + ".weight")
        bias = _number(item.get("bias"), path + ".bias")
        act = item.get("activation")
        _require(isinstance(act, dict), path + ".activation", "missing activation")
        kind = act.get("kind")
        _require(kind in KINDS, path + ".activation.kind", "unknown kind %r" % (kind,))
        if kind == CUBIC:
            a1 = _number(act.get("a1"), path + ".activation.a1")
            try:
                activation = Activation.cubic(a1)
            except DomainError as exc:
                raise FormatError(str(exc), path=path + ".activation.a1") from exc
        else:
            _require(
                "a1" not in act,
                path + ".activation.a1",
                "a1 only applies to the cubic kind",
            )
            activation = Activation(kind)
        neurons.append(HiddenNeuron(weight, bias, activation))

    raw_outputs = doc.get("outputs")
    _require(
        isinstance(raw_outputs, list) and len(raw_outputs) >= 1,
        "outputs",
        "model needs a nonempty output list",
    )
    outputs = []
    for k, item in enumerate(raw_outputs):
        path = "outputs[%d]" % k
        _require(isinstance(item, dict), path, "output tap must be an object")
        weights = item.get("weights")
        _require(isinstance(weights, list), path + ".weights", "missing weight list")
        _require(
            len(weights) == len(neurons),
            path + ".weights",
            "expected %d weights, got %d" % (len(neurons), len(weights)),
        )
        tap_w = tuple(
            _number(w, "%s.weights[%d]" % (path, i)) for i, w in enumerate(weights)
        )
        bias = _number(item.get("bias"), path + ".bias")
        outputs.append(OutputTap(tap_w, bias))

    return Network(tuple(neurons), tuple(outputs), doc["method"], n)
