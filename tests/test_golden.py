"""Golden bytes: model JSON, forward_grid output and the compiled form of
45 built networks and one hybrid model, pinned by one sha256.

The digest was computed before networks became arrays; a change to how
networks are stored or built must leave every byte of it alone.
"""

import hashlib
import json

import numpy as np

from pwmlp import (
    METHODS,
    KnotGrid,
    NumericalError,
    PwmlpError,
    TargetSamples,
    build_network,
    compile_network,
    forward_grid,
    load_model,
    save_model,
)

GOLDEN_SHA256 = "3187f587eaccad7fdbee0cf295bf0fc16a1f2e44fafd0c7e82d770ac95df0dd1"

# Signed zeros, signed smallest subnormals and signed 1e300 in an order
# that is neither constant nor alternating.
_MIX = (1e300, -0.0, -1e300, 5e-324, -1e300, 0.0, 1e300, -5e-324)


def _hybrid_text():
    """A model no builder writes: all four kinds interleaved, cubic slopes
    0.5 and 0.0, and a1 = 0.0 next to a1 = -0.0."""
    acts = [{"kind": "step"}, {"kind": "cubic", "a1": 0.5},
            {"kind": "relu"}, {"kind": "cubic", "a1": -0.0},
            {"kind": "ramp"}, {"kind": "cubic", "a1": 0.0},
            {"kind": "cubic", "a1": 0.5}, {"kind": "step"}]
    weights = (3.0, -2.5, 1.0, 4.0, -0.0, 7.25, 1e-3, -6.0)
    biases = (-1.0, 0.5, -0.0, -2.0, 0.75, -3.5, 0.0, 2.0)
    doc = {
        "method": "hybrid",
        "n": 3,
        "neurons": [{"weight": w, "bias": b, "activation": a}
                    for w, b, a in zip(weights, biases, acts)],
        "outputs": [
            {"weights": [1.0, -2.0, 0.5, 3.0, -0.0, 1e-300, 2.5, -1.5],
             "bias": -0.0},
            {"weights": [-1.0, 0.0, 4.0, -3.0, 5e-324, 2.0, -0.5, 0.25],
             "bias": 0.125},
        ],
        "knots": {"n": 3},
    }
    return json.dumps(doc, indent=2) + "\n"


def _compiled_bytes(net):
    # A compiled form that overflows is pinned only as such.
    with np.errstate(all="ignore"):
        try:
            pw = compile_network(net)
        except NumericalError:
            return b"not finite"
    if not np.all(np.isfinite(pw.coeffs)):
        return b"not finite"
    return pw.breaks.tobytes() + pw.anchors.tobytes() + pw.coeffs.tobytes()


def _network_bytes(net, xs):
    try:
        ys = forward_grid(net, xs).tobytes()
    except NumericalError:
        ys = b"not finite"
    return save_model(net).encode() + ys + _compiled_bytes(net)


def _cases():
    for n in (1, 2, 7, 16, 513):
        grid = KnotGrid.uniform(n)
        mix = np.resize(np.array(_MIX), n + 1)
        samples = TargetSamples(
            grid, np.column_stack([np.sin(2.0 * np.pi * grid.knots), mix]))
        xs = np.concatenate([grid.knots, [0.0, -0.0, 1e6, -1e6],
                             np.linspace(-0.25, 1.25, 301)])
        for method in METHODS:
            slopes = (0.0, 0.5, 0.75) if method.startswith("cubic") else (0.75,)
            for slope in slopes:
                yield "%s n=%d slope=%r" % (method, n, slope), samples, xs, slope


def test_golden_bytes():
    digest = hashlib.sha256()
    for label, samples, xs, slope in _cases():
        method = label.split()[0]
        digest.update(label.encode())
        try:
            net = build_network(method, samples, slope)
        except PwmlpError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        digest.update(_network_bytes(net, xs))
    text = _hybrid_text()
    digest.update(_network_bytes(load_model(text),
                                 np.linspace(-2.0, 2.0, 401)))
    assert digest.hexdigest() == GOLDEN_SHA256


def test_hybrid_model_round_trips_text():
    text = _hybrid_text()
    assert save_model(load_model(text)) == text
