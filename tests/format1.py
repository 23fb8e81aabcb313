"""Format-1 model text, the layout save_model wrote before format 2: one
object per neuron and per output, indented by two spaces.

load_model still reads it, so the tests use this writer to make format-1
fixtures.  Its bytes for every golden case are pinned in test_golden.py
under the "model-v1" part, whose hashes are those the format-1
save_model had under "model".
"""

import json

import numpy as np

from pwmlp.activations import CUBIC


def format1_text(net):
    acts = [{"kind": act.kind, "a1": act.cubic_coeffs[1]}
            if act.kind == CUBIC else {"kind": act.kind}
            for act in net.acts]
    doc = {
        "method": net.method,
        "n": net.n,
        "neurons": [
            {"weight": w, "bias": b, "activation": acts[g]}
            for w, b, g in zip(net.weight.tolist(), net.bias.tolist(),
                               net.group.tolist())
        ],
        "outputs": [
            {"weights": weights, "bias": bias}
            for weights, bias in zip(net.taps.T.tolist(),
                                     net.tap_bias.tolist())
        ],
        "knots": {"n": net.n},
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def network_bytes(net):
    """Everything load_model fills in, as bytes where it is numbers, so
    that two loads compare bit for bit, signed zeros included."""
    acts = tuple((act.kind, np.array(act.cubic_coeffs or (), dtype=np.float64)
                  .tobytes()) for act in net.acts)
    return (net.method, net.n, acts, net.taps.shape,
            *(getattr(net, name).tobytes()
              for name in ("group", "weight", "bias", "taps", "tap_bias")))
