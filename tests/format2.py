"""Format-2 model text, the layout save_model wrote before format 3: the
network's arrays, one key per line, every float written by ``repr``.

load_model still reads it, so the tests use this writer to make format-2
fixtures.  Its bytes for every golden case are pinned in test_golden.py
under the "model-v2" part, whose hashes are those the format-2
save_model had under "model".
"""

import json

import numpy as np

from pwmlp.activations import CUBIC


def _json_floats(values):
    """JSON text of a 1-D float array, as json.dumps(values.tolist(),
    allow_nan=False) writes it, formatting each distinct magnitude once.

    Words are grouped by the int64 bit pattern with the sign bit
    cleared, so -0.0 stays apart from 0.0, and a negative value is
    written "-" + repr(|v|), which is repr(v) for every finite double.
    The constructions repeat their weights and taps (+-c_j, two or four
    times each), so this formats a fraction of the values.  Raises
    ValueError on a value that is not finite, as json.dumps does.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("Out of range float values are not JSON compliant")
    bits = a.view(np.int64)
    mag, inv = np.unique(bits & np.int64(0x7FFF_FFFF_FFFF_FFFF),
                         return_inverse=True)
    words = [repr(v) for v in mag.view(np.float64).tolist()]
    table = np.array(words + ["-" + w for w in words], dtype=object)
    return "[%s]" % ", ".join(table[inv + len(words) * (bits < 0)].tolist())


def format2_text(net):
    acts = [{"kind": act.kind, "a1": act.cubic_coeffs[1]}
            if act.kind == CUBIC else {"kind": act.kind}
            for act in net.acts]
    fields = (
        ("format", json.dumps(2)),
        ("method", json.dumps(net.method)),
        ("n", json.dumps(net.n)),
        ("acts", json.dumps(acts, allow_nan=False)),
        ("group", json.dumps(net.group.tolist())),
        ("weight", _json_floats(net.weight)),
        ("bias", _json_floats(net.bias)),
        ("taps", "[%s]" % ", ".join(map(_json_floats, net.taps.T))),
        ("tap_bias", _json_floats(net.tap_bias)),
    )
    return "{\n%s\n}\n" % ",\n".join(
        "  %s: %s" % (json.dumps(key), value) for key, value in fields)
