"""Property tests: the model file is an exact record of a network, and
every built network matches its reference model at every knot.

Hypothesis draws small hybrid networks (every activation kind, cubic
slopes including +-0.0, signed-zero and extreme weights and taps) and
checks that saving and loading changes neither the text, nor a byte of
the network, nor a byte of its outputs, and that formats 1 and 2 load
to the same arrays as format 3.  It edits a stored array's base64 text
and checks that load_model refuses it exactly when the text is not the
canonical encoding of the bytes it decodes to.  It also draws knot
counts N (powers of two or not), knot data and a cubic slope (0, 0.5,
0.75 or uniform in [0, 0.75]), and checks each method's network against its matching
oracle at every knot and both of its float neighbours, where x * N
rounds either way, also on data scaled by 10^-300 to 10^300, where a
method may instead refuse with a typed error.  The runs are
derandomized and keep no example database, so the suite is
deterministic and writes no files.
"""

import binascii
import json

import numpy as np
from format1 import format1_text, network_bytes
from format2 import format2_text
from hypothesis import given, settings
from hypothesis import strategies as st

from pwmlp import (
    METHODS,
    Activation,
    FormatError,
    KnotGrid,
    Network,
    NumericalError,
    PwmlpError,
    TargetSamples,
    build_network,
    compile_network,
    eval_oracle_grid,
    forward_grid,
    load_model,
    matching_oracle,
    save_model,
)

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
          -1.7976931348623157e308, 1e-300, -1e300, 0.1, -1.0, 1.0, 2.0]

numbers = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    _EDGES)
activations = (st.sampled_from([Activation.step(), Activation.relu(),
                                Activation.ramp()])
               | st.builds(Activation.cubic,
                           st.sampled_from([0.0, -0.0, 0.5, 0.75])
                           | st.floats(0.0, 0.75)))


@st.composite
def networks(draw):
    """A network whose acts are distinct, each used, in order of first
    use: the form both model formats load to."""
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, 3))
    index = {}
    group = []
    for act in draw(st.lists(activations, min_size=m, max_size=m)):
        group.append(index.setdefault((act, repr(act.a1)), len(index)))
    vectors = st.lists(numbers, min_size=m, max_size=m)
    return Network(draw(vectors), draw(vectors),
                   tuple(act for act, _ in index), group,
                   np.array(draw(st.lists(vectors, min_size=q, max_size=q))).T,
                   draw(st.lists(numbers, min_size=q, max_size=q)),
                   draw(st.sampled_from(METHODS)), draw(st.integers(1, 64)))


def _outputs(net, xs):
    """forward_grid's bytes at xs, or the error class it raises."""
    try:
        return forward_grid(net, xs).tobytes()
    except NumericalError:
        return NumericalError


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(networks(), st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5))
def test_save_and_load_change_no_byte(net, points):
    text = save_model(net)
    loaded = load_model(text)
    assert save_model(loaded) == text
    assert network_bytes(loaded) == network_bytes(net)
    xs = np.array(points)
    assert _outputs(loaded, xs) == _outputs(net, xs)
    assert network_bytes(load_model(format1_text(net))) == network_bytes(loaded)
    assert network_bytes(load_model(format2_text(net))) == network_bytes(loaded)


# The base64 alphabet and characters that a lax decoder skips, stops at
# or refuses: padding, whitespace, the URL-safe alphabet's two, NUL and
# a character outside ASCII.
_BASE64_CHARS = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                 "0123456789+/=\n -_\x00é")
edits = st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                           st.integers(0, 100),
                           st.sampled_from(_BASE64_CHARS)), max_size=4)


def _edited(text, changes):
    """text after each (op, at, char) edit, at index at % (len + 1)."""
    for op, at, char in changes:
        i = at % (len(text) + 1)
        if op == "insert":
            text = text[:i] + char + text[i:]
        else:
            text = text[:i] + (char if op == "replace" else "") + text[i + 1:]
    return text


def _canonical(text):
    """The reference: text is the standard base64 of what it decodes to."""
    try:
        raw = binascii.a2b_base64(text)
    except ValueError:
        return False
    return binascii.b2a_base64(raw, newline=False) == text.encode()


_ONE_UNIT = json.loads(save_model(Network(
    [1.0], [0.0], (Activation.relu(),), [0], [[1.0]], [0.0], "constant", 1)))


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.binary(max_size=40), edits)
def test_load_model_accepts_exactly_canonical_base64(raw, changes):
    # weight is the first array read, so a refusal of its text is the
    # error raised; any later error (its length, bias, ...) means the
    # text itself was accepted.
    text = _edited(binascii.b2a_base64(raw, newline=False).decode(), changes)
    try:
        load_model(json.dumps(dict(_ONE_UNIT, weight=text)))
        refused = False
    except FormatError as exc:
        refused = str(exc) == "weight: expected standard padded base64 text"
    assert refused == (not _canonical(text)), text


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 512), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 0.75]) | st.floats(0.0, 0.75))
def test_networks_match_their_oracles_around_every_knot(n, signs, seed,
                                                         slope):
    # The contract, 1e-9 * max(1, |f|), at the knots and their float
    # neighbours: the compiled form everywhere, then the network's own
    # forward pass at the compiled form's worst point.  slope is the
    # cubic designs' inflection slope; the other designs do not use it.
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, n + 1)
    if signs:
        values = np.where(values < 0.0, -1.0, 1.0)
    samples = TargetSamples(KnotGrid.uniform(n), values)
    knots = samples.grid.knots
    xs = np.clip(np.concatenate([knots, np.nextafter(knots, -1.0),
                                 np.nextafter(knots, 2.0)]), 0.0, 1.0)
    for method in METHODS:
        if method == "cubic-spaced" and n % 2:
            continue
        net = build_network(method, samples, slope)
        ref = eval_oracle_grid(matching_oracle(method, samples, slope),
                               xs)[:, 0]
        scale = np.maximum(1.0, np.abs(ref))
        dev = np.abs(compile_network(net).eval(xs)[:, 0] - ref) / scale
        i = int(np.argmax(dev))
        assert dev[i] <= 1e-9, (method, n, slope, xs[i], dev[i])
        dense = abs(forward_grid(net, xs[i:i + 1])[0, 0] - ref[i]) / scale[i]
        assert dense <= 1e-9, (method, n, slope, xs[i], dense)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 512), st.integers(1, 3), st.integers(-300, 300),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_extreme_magnitudes_meet_the_contract_or_fail_typed(n, q, k, signs,
                                                            seed):
    # Each method either refuses with a PwmlpError or meets the
    # contract, 1e-9 * max(1, max|f|) per output, at the knots and their
    # float neighbours: the compiled form everywhere, then the network's
    # own forward pass at the compiled form's worst point.
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, (n + 1, q))
    if signs:
        values = np.where(values < 0.0, -1.0, 1.0)
    samples = TargetSamples(KnotGrid.uniform(n), values * 10.0**k)
    knots = samples.grid.knots
    xs = np.clip(np.concatenate([knots, np.nextafter(knots, -1.0),
                                 np.nextafter(knots, 2.0)]), 0.0, 1.0)
    tol = 1e-9 * np.maximum(1.0, np.max(np.abs(samples.values), axis=0))
    for method in METHODS:
        if method == "cubic-spaced" and n % 2:
            continue
        try:
            net = build_network(method, samples)
            ref = eval_oracle_grid(matching_oracle(method, samples), xs)
            dev = np.abs(compile_network(net).eval(xs) - ref) / tol
        except PwmlpError:
            continue
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        assert dev[i, j] <= 1.0, (method, n, k, xs[i], j, dev[i, j])
        dense = abs(forward_grid(net, xs[i:i + 1])[0, j] - ref[i, j]) / tol[j]
        assert dense <= 1.0, (method, n, k, xs[i], j, dense)
