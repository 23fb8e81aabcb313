"""One-hidden-layer networks with per-unit activations.

A network is a few arrays: each hidden unit's input weight and bias,
its activation as an index into a tuple of distinct activations (so a
network can mix kinds and cubic slopes), and a tap matrix with one
column of output weights and one tap bias per output dimension.
Evaluation sums tap-weighted activations in unit order with a
compensated (Neumaier) accumulator: the ReLU constructions produce
large cancelling responses, and plain summation would visibly erode
the agreement with the piecewise-polynomial reference models.

Models serialize to JSON as those arrays, one per field (format 3),
each array a string holding the base64 of its little-endian bytes, so a
save/load cycle reproduces the arrays and the evaluation results bit
for bit without writing or parsing a decimal float.  The loader also
reads format 2, which wrote the same fields as JSON number lists, and
format 1, which stored one object per neuron and per output, into the
same arrays: it gathers each field into a column and checks it as
formats 2 and 3 check their arrays.
"""

import binascii
import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .activations import (CUBIC, KINDS, RELU, STEP, Activation,
                          activation_values)
from .errors import (DomainError, FormatError, UsageError, require_finite,
                     require_floats, require_int, require_points)


def _bytes_backed(arr):
    """Whether arr's memory belongs to an immutable bytes object, as
    np.frombuffer of a bytes object gives: nothing can write it."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return type(arr) is bytes


def _frozen(values, what, dtype=np.float64):
    """values as a read-only array of dtype: values itself when it is a
    read-only array of that dtype backed by bytes, else a copy of
    require_floats(values, what, dtype)."""
    if (type(values) is np.ndarray and values.dtype == dtype
            and not values.flags.writeable and _bytes_backed(values)):
        return values
    arr = np.array(require_floats(values, what, dtype))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Network:
    """m hidden units feeding q outputs.

    Unit i computes acts[group[i]](weight[i] * x + bias[i]); output k is
    tap_bias[k] + sum_i taps[i, k] * unit_i(x).  weight, bias (m,),
    taps (m, q) and tap_bias (q,) are stored as read-only float64
    copies, group (m,) as a read-only int64 copy, by the rule of
    errors.require_floats (an index must be an integer).  An array that
    is already read-only, of that dtype, and backed by an immutable
    bytes object (load_model's np.frombuffer of the decoded base64) is
    kept without a copy, since nothing can write its memory.
    """

    weight: np.ndarray
    bias: np.ndarray
    acts: Tuple[Activation, ...]
    group: np.ndarray
    taps: np.ndarray
    tap_bias: np.ndarray
    method: str
    n: int

    def __post_init__(self):
        for name in ("weight", "bias", "taps", "tap_bias"):
            object.__setattr__(self, name, _frozen(getattr(self, name), name))
        object.__setattr__(self, "group",
                           _frozen(self.group, "group", np.int64))
        object.__setattr__(self, "acts", tuple(self.acts))
        if not isinstance(self.method, str):
            raise UsageError("network method must be a string")
        # save_model writes n with json.dumps and load_model reads it
        # back only as a positive int, so a numpy integer is stored as int
        object.__setattr__(self, "n", require_int(
            self.n, 1, "network n must be a positive integer"))
        if not all(isinstance(act, Activation) for act in self.acts):
            raise UsageError("network activations must be Activation objects")
        m = self.weight.size
        if self.weight.ndim != 1 or m == 0:
            raise UsageError("network needs at least one hidden neuron")
        if self.bias.shape != (m,) or self.group.shape != (m,):
            raise UsageError("bias and group need one entry per neuron")
        if self.taps.ndim != 2 or self.taps.shape[1] == 0:
            raise UsageError("network needs at least one output tap")
        if self.taps.shape[0] != m:
            raise UsageError("output taps have %d weights for %d neurons"
                             % (self.taps.shape[0], m))
        if self.tap_bias.shape != (self.out_dim,):
            raise UsageError("need one tap bias per output")
        if not np.all(np.isfinite(self.weight) & np.isfinite(self.bias)):
            raise UsageError("neuron weight and bias must be finite")
        if not np.all(np.isfinite(self.taps)):
            raise UsageError("tap weights must be finite")
        if not np.all(np.isfinite(self.tap_bias)):
            raise UsageError("tap bias must be finite")
        if np.any((self.group < 0) | (self.group >= len(self.acts))):
            raise UsageError("activation index out of range")

    @property
    def width(self):
        return self.weight.size

    @property
    def out_dim(self):
        return self.taps.shape[1]


# Values per work buffer of forward_grid.  A call holds four such
# buffers, about 0.4 MB, whatever the grid and the width.  A larger tile
# was faster on many points but raised a call's peak memory.
_TILE = 12288

# forward_grid's tiles are (neurons + 1) x points, the points of a block
# contiguous along each neuron's row, with at least _WIDE_UNITS neurons
# to a tile (neuron tiles of 32 rather than 110 made the eval-points
# pass 5-15 % faster).  A block of 2 points runs its products column by
# column: on a 6144 x 2 tile, w * x took 53 us in rows 2 wide and 8 us
# by columns.  Blocks of fewer than _REDUCE points sum the compensation
# by a second cumsum: np.add.reduce down rows 8 points wide took 38 us
# per tile against the cumsum's 26, the two were alike at 16 and the
# reduce faster from there.  A lone point needs the cumsum, as numpy
# would reduce its one contiguous column pairwise.
_WIDE_UNITS = 32
_REDUCE = 16


def _tile_activations(net, start, z, spare):
    """Activations of the neurons start, start+1, ... of net, one to a
    row of the tile z, written over z or spare (an array like z);
    returns the one that holds them.  A network of one activation is
    written in place; a mixed one makes one activation_values call per
    activation present in the tile's own slice of net.group."""
    if len(net.acts) == 1:
        return activation_values(net.acts[0], z, z, spare)
    group = net.group[start:start + len(z)]
    for g, act in enumerate(net.acts):
        units = np.flatnonzero(group == g)
        if units.size:
            spare[units] = activation_values(act, z[units])
    return spare


def _two_sum_error(prev, add, total, err):
    """err = the exact rounding error of total = prev + add, by
    branch-free TwoSum (equal to Neumaier's branch); add is overwritten:
    err = (prev - (total - back)) + (add - back), back = total - prev."""
    np.subtract(total, prev, out=err)
    np.subtract(add, err, out=add)
    np.subtract(total, err, out=err)
    np.subtract(prev, err, out=err)
    np.add(err, add, out=err)


def _neumaier_points(a, c, total, comp, v, s, e, order):
    """Add c[j] * a[j] for each neuron j in order to the running Neumaier
    sums total and their compensation comp, in place.

    a is an (n, p) tile whose column i is one point, p even or 1, c
    (n, 1) holds the taps, and total and comp are (p,).  v, s and e are
    flat work buffers of at least (n + 1) * p values; order is the
    iteration order of the products.  The running sums are one cumsum
    down the neurons, seeded with total, over the complex128 view in
    which points 2i and 2i + 1 share an element and add separately (the
    float64 one for a lone point).  The exact rounding error of each
    addition (branch-free TwoSum, equal to Neumaier's branch) is summed
    seeded with comp: by a second such cumsum below _REDUCE points, else
    by np.add.reduce, which numpy runs over an axis that is not the
    innermost one a row at a time, vectorized across the points, so it
    adds in neuron order.  Each point thus adds in the order of a loop
    over the neurons, and the result is that loop's, bit for bit.
    """
    n, p = a.shape
    lanes = np.float64 if p == 1 else np.complex128
    v, s, e = (buf[:(n + 1) * p].reshape(n + 1, p) for buf in (v, s, e))
    v[0] = total
    np.multiply(a, c, out=v[1:], order=order)
    np.cumsum(v.view(lanes), axis=0, out=s.view(lanes))
    _two_sum_error(s[:-1], v[1:], s[1:], e[1:])
    e[0] = comp
    if p < _REDUCE:
        np.cumsum(e.view(lanes), axis=0, out=v.view(lanes))
        comp[:] = v[-1]
    else:
        np.add.reduce(e, axis=0, out=comp)
    total[:] = s[-1]


def _forward_tiles(net, xs):
    """forward_grid's sums as a (q, points) array, an odd count past one
    point padded with a copy of its last point.  Each (neurons x points)
    tile holds a block of points: about _TILE values, an even number of
    points or a lone one, and _WIDE_UNITS neurons or more (the whole
    width when it is narrower)."""
    w, b, taps = net.weight, net.bias, net.taps
    width, q = taps.shape
    pts = np.append(xs, xs[-1]) if xs.size % 2 and xs.size > 1 else xs
    cols = min(width, max(_TILE // pts.size - 1, _WIDE_UNITS))
    block = min(pts.size, _TILE // (cols + 1) // 2 * 2) if pts.size > 1 else 1
    v, s, z, spare = np.empty((4, (cols + 1) * block))
    out = np.empty((q, pts.size))
    comp = np.empty((q, block))
    for i in range(0, pts.size, block):
        x = pts[i:i + block]
        p = x.size
        order = "F" if p == 2 else "K"
        total = out[:, i:i + p]
        total[:] = net.tap_bias[:, None]
        comp[:, :p] = 0.0
        for j in range(0, width, cols):
            n = min(cols, width - j)
            tile_z, tile_spare = (buf[:n * p].reshape(n, p)
                                  for buf in (z, spare))
            np.multiply(w[j:j + n, None], x, out=tile_z, order=order)
            np.add(tile_z, b[j:j + n, None], out=tile_z, order=order)
            a = _tile_activations(net, j, tile_z, tile_spare)
            e = z if a is tile_spare else spare
            for k in range(q):
                _neumaier_points(a, taps[j:j + n, k, None], total[k],
                                 comp[k, :p], v, s, e, order)
        total += comp[:, :p]
    return out


def forward_grid(net, grid):
    """Evaluate the network on a 1-D grid; returns a (len(grid), q) array.

    This is the definitional reference: it runs every neuron at every
    point, at O(len(grid) * width) cost.  compile_network gives the same
    function as a piecewise cubic for repeated evaluation.

    Each output is the tap bias plus the tap-weighted activations added
    in neuron order with a Neumaier-compensated accumulator.  The call
    runs over (neurons x points) tiles of about _TILE values, each
    holding a block of points contiguous along each neuron's row: the
    running sums take one cumsum down the neurons, two points to a
    complex128 element, and their compensation a second cumsum in
    narrow blocks or one in-order np.add.reduce in wide ones.  An odd
    count pads one copy of its last point, dropped from the result; a
    lone point runs alone, as one float64 lane.  The running sums
    and their compensation are carried from one neuron tile to the
    next, and each tile adds in the same order as a loop over its
    neurons, so the result is that loop's bit for bit.  Memory stays
    O(_TILE) beyond the parameters, the grid and the result, whatever
    the grid and the width.

    Row i equals forward_grid(net, grid[i:i + 1]) bit for bit: every
    lane of the vectorized arithmetic is an independent IEEE double
    operation, so no point's row depends on the others in its call.

    Raises NumericalError, naming the first such x, when an output is
    not finite (an overflow of the network's own arithmetic).
    """
    xs = require_points(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _forward_tiles(net, xs)
    return require_finite(xs, out[:, :xs.size].T, "network output")


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
        (len(grid), q) array.  Each point's anchor and coefficients are
        gathered with take, which copies whole (q,) rows where fancy
        indexing on the middle axis of coeffs is several times slower.
        The grid is validated as forward_grid validates it, and a
        non-finite output raises NumericalError as it does there."""
        xs = require_points(grid)
        piece = np.searchsorted(self.breaks, xs, side="right")
        t = (xs - self.anchors.take(piece))[:, None]
        c = self.coeffs.take(piece, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            out = ((c[3] * t + c[2]) * t + c[1]) * t + c[0]
        return require_finite(xs, out, "network output")


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
    summation without a Python loop.  No entry of the result is -0.0:
    TwoSum's error term never is, and s + comp is -0.0 only if both are.
    rows is overwritten.
    """
    s = np.cumsum(rows, axis=0)
    comp = np.zeros_like(s)
    err = comp[1:]
    _two_sum_error(s[:-1], rows[1:], s[1:], err)
    np.cumsum(err, axis=0, out=err)
    s += comp
    return s


@np.errstate(over="ignore", invalid="ignore")
def compile_network(net):
    """Compile a network into its exact piecewise-polynomial form.

    Every hidden unit is a polynomial of degree <= 3 in x between at
    most two breaks, so the network is a piecewise cubic whose breaks
    are the units' breaks.  The parts of the units that reach to
    x = +-inf -- the saturated value 1 of step, ramp and cubic, relu's
    linear part, the tap biases and units with w = 0 -- change at one
    break each; they are summed over the sorted breaks as compensated
    prefix sums.  The bounded middle segments of ramp and cubic units
    are expanded about the anchor of each piece they cover, and each
    piece adds its segments' terms to its coefficients in unit order,
    one ordered bincount per degree and output.  Step breaks
    are placed where forward_grid's rounding of w*x + b switches the
    unit, so the compiled form takes the same side of every step.

    Costs O(width log width) once; PiecewiseNetwork.eval then costs
    O(len(grid) log width) instead of forward_grid's O(len(grid) * width).

    Raises NumericalError, naming the anchor x of the first such piece,
    when a coefficient is not finite (the network's slope or curvature
    overflows, as a3 * w**3 * c can).
    """
    w, b, taps, acts, group = net.weight, net.bias, net.taps, net.acts, net.group
    code = {k: i for i, k in enumerate(KINDS)}
    kind = np.array([code[act.kind] for act in acts])[group]
    q = net.out_dim

    # Global parts: (position, change of level, change of slope) events;
    # position -inf means present from the left.
    pos = [np.full(1, -np.inf)]
    level = [net.tap_bias[None, :]]
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
        bias, which = b[flat], group[flat]
        const = np.empty(bias.size)
        for g, act in enumerate(acts):
            const[which == g] = activation_values(act, bias[which == g])
        add(np.full(const.size, -np.inf), const[:, None] * taps[flat],
            np.zeros((const.size, q)))

    # step, ramp and cubic units saturate at 1 on the side of large z.
    sat = ~flat & (kind != code[RELU])
    step = sat & (kind == code[STEP])
    mid = sat & ~step
    hi = np.empty(w.size)
    hi[step] = _step_breaks(w[step], b[step])
    hi[mid] = (1.0 - b[mid]) / w[mid]
    switch_on(sat, hi[sat], taps[sat], np.zeros((sat.sum(), q)))

    relu = ~flat & (kind == code[RELU])
    root = -b[relu] / w[relu]
    switch_on(relu, root, taps[relu] * b[relu, None],
              taps[relu] * w[relu, None])

    # Bounded middle segments of ramp and cubic units, z from zlo to 1,
    # as polynomials sum_d poly[d, g] z**d for activation g (the ramp's
    # is z).
    units = np.flatnonzero(mid)
    zlo = np.where(kind[units] == code[CUBIC], -1.0, 0.0)
    lo = (zlo - b[units]) / w[units]
    ends = np.empty((units.size, 2))
    np.minimum(lo, hi[units], out=ends[:, 0])
    np.maximum(lo, hi[units], out=ends[:, 1])
    poly = np.array([act.cubic_coeffs or (0.0, 1.0, 0.0, 0.0)
                     for act in acts]).T

    pos = np.concatenate(pos)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    level = _compensated_cumsum(np.concatenate(level)[order])
    slope = _compensated_cumsum(np.concatenate(slope)[order])

    # + 0.0 turns a break at -0.0 (a falling unit whose segment ends at
    # x = 0 gives 0.0 / w = -0.0) into +0.0, so np.unique keeps one zero
    # whatever the order of the array.
    breaks = np.unique(np.concatenate([pos, ends.ravel()]) + 0.0)
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
    u = units[seg]
    ws = w[u]
    z = ws * anchors[piece] + b[u]
    a0, a1, a2, a3 = poly.take(group[u], axis=1)
    taylor = (
        ((a3 * z + a2) * z + a1) * z + a0,
        ((3.0 * a3 * z + 2.0 * a2) * z + a1) * ws,
        (3.0 * a3 * z + a2) * ws * ws,
        a3 * ws * ws * ws,
    )
    c = taps[u]
    # bincount adds its weights in order into bins that start at +0.0:
    # each piece's own coefficient first, then its segments' terms, as
    # np.add.at would add them.  The coefficients are never -0.0 (nor
    # are the compensated sums they come from), so starting from +0.0
    # changes no byte.
    pieces = anchors.size
    index = np.concatenate([np.arange(pieces), piece])
    weights = np.empty(index.size)
    for d, part in enumerate(taylor):
        for k in range(q):
            weights[:pieces] = coeffs[d, :, k]
            np.multiply(part, c[:, k], out=weights[pieces:])
            coeffs[d, :, k] = np.bincount(index, weights, minlength=pieces)

    require_finite(anchors, coeffs.transpose(1, 0, 2), "compiled network")
    for arr in (breaks, anchors, coeffs):
        arr.flags.writeable = False
    return PiecewiseNetwork(breaks, anchors, coeffs)


def _packed(values, dtype="<f8"):
    """A JSON string: the standard base64 of the array's little-endian
    bytes.  The base64 alphabet needs no JSON escape."""
    data = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return '"%s"' % binascii.b2a_base64(data, newline=False).decode("ascii")


def save_model(net):
    """Serialize a network to JSON text in format 3.

    The document holds the network's own arrays, one per field:
    ``{"format": 3, "method", "n", "acts", "group", "weight", "bias",
    "taps", "tap_bias"}``, with ``taps`` as one array per output column.
    Each array is a string, the standard base64 (padded, no newlines)
    of its little-endian bytes: float64 for the floats, int64 for
    ``group``.  ``acts`` lists the distinct activations; only the
    cubic's free coefficient a1 is stored, by ``repr``, and the
    dependent coefficients are recomputed on load, which cannot drift
    because the reconstruction is deterministic.  Each key goes on its
    own line with its value written without indent, so
    ``save_model(load_model(text)) == text``.  Raises ValueError when a
    float array holds a value that is not finite.

    The text is one join over a flat list of its pieces, so at its peak
    the call holds the pieces and the text: about twice the text.
    """
    for name in ("weight", "bias", "taps", "tap_bias"):
        if not np.isfinite(getattr(net, name)).all():
            raise ValueError("network %s is not finite" % name)
    acts = [{"kind": act.kind, "a1": act.cubic_coeffs[1]}
            if act.kind == CUBIC else {"kind": act.kind}
            for act in net.acts]
    parts = ['{\n  "format": 3,\n  "method": ', json.dumps(net.method),
             ',\n  "n": ', json.dumps(net.n),
             ',\n  "acts": ', json.dumps(acts, allow_nan=False),
             ',\n  "group": ', _packed(net.group, "<i8"),
             ',\n  "weight": ', _packed(net.weight),
             ',\n  "bias": ', _packed(net.bias),
             ',\n  "taps": [']
    for k, column in enumerate(net.taps.T):
        if k:
            parts.append(", ")
        parts.append(_packed(column))
    parts += ['],\n  "tap_bias": ', _packed(net.tap_bias), '\n}\n']
    return "".join(parts)


def _require(cond, path, message):
    if not cond:
        raise FormatError(message, path=path)


def _number(value, path):
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        path,
        "expected a number, got %r" % (value,),
    )
    try:
        v = float(value)
    except OverflowError:
        raise FormatError("number too large for a double",
                          path=path) from None
    _require(math.isfinite(v), path, "number must be finite")
    return v


def _numbers(values, path, element="%s[%d]"):
    """A list of finite JSON numbers as a float64 array.

    One type scan, one conversion and one finiteness test; only when
    one of them fails are the elements walked, naming element % (path, i).
    """
    _require(isinstance(values, list), path, "expected a list of numbers")
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=np.float64)
        except OverflowError:
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    return np.array([_number(v, element % (path, i))
                     for i, v in enumerate(values)], dtype=np.float64)


def _require_length(values, size, what, path):
    _require(len(values) == size, path, "expected %d entries, one per %s, "
             "got %d" % (size, what, len(values)))


def _activation(act, path):
    _require(isinstance(act, dict), path, "missing activation")
    kind = act.get("kind")
    _require(kind in KINDS, path + ".kind", "unknown kind %r" % (kind,))
    if kind != CUBIC:
        _require("a1" not in act, path + ".a1",
                 "a1 only applies to the cubic kind")
        return Activation(kind)
    a1 = _number(act.get("a1"), path + ".a1")
    try:
        return Activation.cubic(a1)
    except DomainError as exc:
        raise FormatError(str(exc), path=path + ".a1") from exc


def _objects(doc, key, what):
    """doc[key], checked to be a nonempty list of JSON objects."""
    items = doc.get(key)
    _require(isinstance(items, list) and len(items) >= 1, key,
             "model needs a nonempty %s list" % what)
    if not set(map(type, items)) <= {dict}:
        for i, item in enumerate(items):
            _require(isinstance(item, dict), "%s[%d]" % (key, i),
                     "%s must be an object" % what)
    return items


def _format1_columns(doc, n):
    """Columns of a format-1 document: one object per neuron and per
    output, plus a knot grid description.  Each field is gathered into
    a column and checked as format 2 checks its arrays."""
    knots = doc.get("knots")
    _require(isinstance(knots, dict), "knots", "missing knot grid description")
    _require(knots.get("n") == n, "knots.n", "knot count disagrees with n")

    neurons = _objects(doc, "neurons", "neuron")
    weight = _numbers([item.get("weight") for item in neurons], "neurons",
                      "%s[%d].weight")
    bias = _numbers([item.get("bias") for item in neurons], "neurons",
                    "%s[%d].bias")
    # Each distinct activation object (by repr, which tells a1 = 0 from
    # False and 0.0 from -0.0) is read once, at its first neuron.  index
    # merges the results, a1 = 0 with 0.0, keyed with a1's repr since
    # Activations with a1 = 0.0 and -0.0 are equal but saved differently.
    raw = [item.get("activation") for item in neurons]
    keys = list(map(repr, raw))
    index, slot = {}, {}
    for i, key in enumerate(keys):
        if key not in slot:
            act = _activation(raw[i], "neurons[%d].activation" % i)
            slot[key] = index.setdefault((act, repr(act.a1)), len(index))
    group = [slot[key] for key in keys]

    outputs = _objects(doc, "outputs", "output")
    taps = []
    for k, item in enumerate(outputs):
        path = "outputs[%d].weights" % k
        taps.append(_numbers(item.get("weights"), path))
        _require_length(taps[-1], weight.size, "neuron", path)
    tap_bias = _numbers([item.get("bias") for item in outputs], "outputs",
                        "%s[%d].bias")
    return weight, bias, [act for act, _ in index], group, taps, tap_bias


def _unpacked(text, path, dtype="<f8"):
    """An array stored as in format 3: the standard base64 of its
    little-endian bytes, exactly as save_model writes them.

    The text is decoded once, and refused unless it is the canonical
    encoding of the bytes it decodes to.  That needs no second encoding
    of the whole array: a2b_base64 skips characters outside the
    alphabet and stops at the padding, so a text of exactly the
    canonical length 4 * ceil(len(raw) / 3) has no such character, and
    its last 4 characters, checked against the encoding of raw's last
    1-3 bytes, rule out bad padding and set padding bits.  The bytes
    must make whole 8-byte values, and a float must be finite; the
    elements are walked only to name a bad one.  The array is a
    read-only view of the decoded bytes.
    """
    _require(isinstance(text, str), path, "expected a base64 string")
    try:
        raw = binascii.a2b_base64(text)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raw = None
    _require(raw is not None
             and len(text) == 4 * -(-len(raw) // 3)
             and binascii.b2a_base64(raw[-((len(raw) - 1) % 3 + 1):],
                                     newline=False) == text[-4:].encode(),
             path, "expected standard padded base64 text")
    _require(len(raw) % 8 == 0, path,
             "expected whole 8-byte values, got %d bytes" % len(raw))
    arr = np.frombuffer(raw, dtype=dtype)
    if arr.dtype.kind == "f":
        bad = ~np.isfinite(arr)
        if bad.any():
            raise FormatError("number must be finite",
                              path="%s[%d]" % (path, bad.argmax()))
    return arr


def _index_list(values, path, m, size):
    """Format 2's group: a JSON list of m indices into size activations."""
    _require(isinstance(values, list), path, "expected a list of indices")
    _require_length(values, m, "neuron", path)
    if not (set(map(type, values)) <= {int}
            and 0 <= min(values) and max(values) < size):
        for i, g in enumerate(values):
            _require(type(g) is int and 0 <= g < size, "%s[%d]" % (path, i),
                     "expected an index into acts, got %r" % (g,))
    return values


def _unpacked_indices(text, path, m, size):
    """Format 3's group: m int64 indices into size activations."""
    group = _unpacked(text, path, "<i8")
    _require_length(group, m, "neuron", path)
    bad = (group < 0) | (group >= size)
    if bad.any():
        i = int(bad.argmax())
        raise FormatError("expected an index into acts, got %d" % group[i],
                          path="%s[%d]" % (path, i))
    return group


def _format2_columns(doc, numbers, indices):
    """Columns of a format-2 or format-3 document, checked array by
    array.  numbers(value, path) reads a float array and indices(value,
    path, m, size) the activation indices: _numbers and _index_list read
    format 2's JSON lists, _unpacked and _unpacked_indices format 3's
    base64 strings.  Each array is popped out of doc as it is read, so
    its text is freed while the next one is decoded."""
    raw_acts = doc.get("acts")
    _require(isinstance(raw_acts, list) and len(raw_acts) >= 1, "acts",
             "model needs a nonempty activation list")
    acts = [_activation(act, "acts[%d]" % i) for i, act in enumerate(raw_acts)]

    weight = numbers(doc.pop("weight", None), "weight")
    m = weight.size
    _require(m >= 1, "weight", "model needs at least one neuron")
    bias = numbers(doc.pop("bias", None), "bias")
    _require_length(bias, m, "neuron", "bias")

    group = indices(doc.pop("group", None), "group", m, len(acts))

    raw_taps = doc.pop("taps", None)
    _require(isinstance(raw_taps, list) and len(raw_taps) >= 1, "taps",
             "model needs a nonempty list of output columns")
    taps = []
    for k in range(len(raw_taps)):
        column, raw_taps[k] = raw_taps[k], None
        taps.append(numbers(column, "taps[%d]" % k))
        _require_length(taps[-1], m, "neuron", "taps[%d]" % k)
    tap_bias = numbers(doc.pop("tap_bias", None), "tap_bias")
    _require_length(tap_bias, len(taps), "output column", "tap_bias")
    return weight, bias, acts, group, taps, tap_bias


_DECODERS = {2: (_numbers, _index_list), 3: (_unpacked, _unpacked_indices)}


def load_model(text):
    """Parse model JSON text back into a Network.

    Reads format 3, written by save_model; format 2, the same fields
    with each array a JSON list of numbers; and format 1 (no "format"
    key), which stored one object per neuron and per output.  All give
    the same arrays, bit for bit, and a malformed field raises
    FormatError naming its path.

    Each format-3 array is decoded once, and the network keeps the
    decoded bytes as its read-only arrays (a multi-column taps matrix
    is gathered into one copy), so beyond text the call holds about
    one more copy of the text at its peak: the parsed document, whose
    arrays are freed as they are decoded.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError("invalid JSON: %s" % (exc,)) from exc
    _require(isinstance(doc, dict), "$", "model document must be an object")
    _require(isinstance(doc.get("method"), str), "method", "missing method tag")
    n = doc.get("n")
    _require(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1,
        "n",
        "n must be a positive integer",
    )
    if "format" not in doc:
        columns = _format1_columns(doc, n)
    else:
        fmt = doc["format"]
        _require(type(fmt) is int and fmt in _DECODERS, "format",
                 "unknown model format %r" % (fmt,))
        columns = _format2_columns(doc, *_DECODERS[fmt])
    weight, bias, acts, group, taps, tap_bias = columns
    taps = taps[0][:, None] if len(taps) == 1 else np.array(taps).T
    return Network(weight, bias, tuple(acts), group, taps, tap_bias,
                   doc["method"], n)
