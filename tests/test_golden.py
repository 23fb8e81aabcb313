"""Golden bytes: model JSON (format 3, and formats 1 and 2 as the fixture
writers in format1.py and format2.py write them), forward_grid output,
the compiled form and its evaluation on the same grid of 45 built
networks and one hybrid model, and eval_oracle_grid output of the
matching oracles, pinned by one sha256 per method and part, the hybrid
model counting as one more method.

A change to how networks are stored or built must leave every pin
alone.  A change that moves bytes on purpose re-pins only the parts it
meant to move and says which and why.  Run this file as a script,
``PYTHONPATH=src python tests/test_golden.py``, to print the digests of
the current code in the layout of GOLDEN_SHA256.
"""

import hashlib
import json

import numpy as np
from format1 import format1_text, network_bytes
from format2 import format2_text

from pwmlp import (
    METHODS,
    KnotGrid,
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

PARTS = ("model", "model-v1", "model-v2", "forward", "compiled",
         "compiled-eval", "errors", "oracle")

GOLDEN_SHA256 = {
    "constant/model":
        "c55deb594179d3cea1e8785142a8fd1d63460412fe2454ec822a324afe6f23ac",
    "constant/model-v1":
        "4e38cb05c3c79a11ee54315a602a58adaee4fced81bc507fc7a6596cdaab09ee",
    "constant/model-v2":
        "29b1fe7fc93dd22d2b286af4b401a854c72fa04637719a9bfab90d792fc9300b",
    "constant/forward":
        "98e8986ec0733168b6a5874710ad47edb4f4fdb73ec9ac76600819abd5f85ad0",
    "constant/compiled":
        "ad17072a226b5a9dc26a12f11228cd958221d81033ef9cc3f18aede79c2abe61",
    "constant/compiled-eval":
        "98e8986ec0733168b6a5874710ad47edb4f4fdb73ec9ac76600819abd5f85ad0",
    "constant/errors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "constant/oracle":
        "86e0ef45bf2ad26682261025737ccd6562fb5f0fd60ce05e79e4e27c77133523",
    "linear-relu/model":
        "7d9e6f4fe5d48b1ce079efbc7bbe636942c2f0956283f8488bdb85841937f2c0",
    "linear-relu/model-v1":
        "f34fde0ddf7c44a786f58b4ef4a632ec55e469083aa69c11437585977f00ecbc",
    "linear-relu/model-v2":
        "605957c05b7e144a9d9dc254a098b273ae3662926eab69bcbffbf2cf504d3977",
    "linear-relu/forward":
        "4f6ff729fa82a918de783b11d47817f423ebecc2bd5ca60d890d9681e8741f19",
    "linear-relu/compiled":
        "1c16b4e934fa2affdc7db9ab1f6998096c2eb563877926a5e5ee8d62316fb5cd",
    "linear-relu/compiled-eval":
        "ca6fb58ccf67e3aabcfbcf4f5e3d50baa1b8ca464430b6fe3d9a6a6e04c86fba",
    "linear-relu/errors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "linear-relu/oracle":
        "6402e924bb38c71862a8595ffb07e348d054e48ddaecd358fd820e6fdc91e964",
    "linear-ramp/model":
        "23aad39954feef5e34a0a8acab668e0773a17d589df3f18865ebd556a50b8c94",
    "linear-ramp/model-v1":
        "577020f3e168120d8b9b30d0539398f6d9ebf7dd860a273da9815ca5d43be51e",
    "linear-ramp/model-v2":
        "c5e88e83058b347eea15fdf01c972a33d700b78651e82bf215a7f94d0d717696",
    "linear-ramp/forward":
        "f11fa86fbcb0f6a91d61e5b66d4b946885fab692010c5c80ff3f41bda35ddd99",
    "linear-ramp/compiled":
        "07d85f093fd80a1a208e72da05a51f9153c67e8e4d8ada1dd629df6f24a715f5",
    "linear-ramp/compiled-eval":
        "72dec089310733cab335fc857058982d9b0afaa7c39c417e861dca2deafe18f4",
    "linear-ramp/errors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "linear-ramp/oracle":
        "63679865f48ef38f74f34e4c1a6421e5b7527e053d45c3cc0e47273e7453e10c",
    "cubic/model":
        "861d43d6b300eecd61544d9ef02f8f75ddb2477e421dd708afba6fbf2addf0e8",
    "cubic/model-v1":
        "24ce3a55422be3ac8f8df82138f0c3deaecd7827bafe36762080cad131237af9",
    "cubic/model-v2":
        "0aa9c1aa42d26d5317967b69b48dec54ae7a6fdf8824472a14167e7659a11e46",
    "cubic/forward":
        "ed6fcd328e2d1e9be91430e310a718dde54d962cab744fca2f17d442a77be619",
    "cubic/compiled":
        "ca86853293db717682900c2c88291f525e8c228e0ce1e7beb34368a0e910c7a8",
    "cubic/compiled-eval":
        "865f7df4eaef6a62d38e019bd8d15769fab4b78048b7e81805d452e952563750",
    "cubic/errors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cubic/oracle":
        "6b925f07a7ce1d37f6d45a56c8efe711993859433c5e350e444ea2051fc70f14",
    "cubic-spaced/model":
        "a5dc601a0700772027e183160a04d05b97dfbc12a80d73a215a57e8073008000",
    "cubic-spaced/model-v1":
        "cbec746bb3a40695aa9b3b45840ae22fed86c88ee40731d260624531f94e4e8a",
    "cubic-spaced/model-v2":
        "b7989f44073620f8fd18a79976ac01d269012a8d873524e8256ad0519ce49077",
    "cubic-spaced/forward":
        "2a4bf7247e13639ca5ac23ed4f627223a99b1bad5386544c1ec6bc9e8fc5f629",
    "cubic-spaced/compiled":
        "013ad4a52b0c191d7140b32d0fbddeee583bc39e9d2db2ef28fe6390f63387b8",
    "cubic-spaced/compiled-eval":
        "534328d93eab4c49095d468445eda70f7ee1df1b78ad0572cdf37b77d94e857b",
    "cubic-spaced/errors":
        "24282b07cbbec270170fbd2c82aebb605f443ae6c08cc0d0ccf67be6402f5cd7",
    "cubic-spaced/oracle":
        "631bc4b862022a8cb900954409fda05a17c2d16c4361a277c3722826cd04bacd",
    "hybrid/model":
        "de9e74840f16031336cc76efd3a8d28ab1801aee041a9db7426d51dfde7f1ac6",
    "hybrid/model-v1":
        "1d7542cb54b0b197f1d3603f05157eff91b7c5495363ea1374be96124531168e",
    "hybrid/model-v2":
        "2158b62862f1d423f15e88448eeb6b54fa9e5b494ca9ed8eb82d1dfba89cf7fd",
    "hybrid/forward":
        "84e3683df6ca02c20a8dbac648d4337baee94f07410fef5261401369b3ba6588",
    "hybrid/compiled":
        "20dd8935c7276cbdb78e757cdb0610418e02208389a8c6113d7094b2b5458234",
    "hybrid/compiled-eval":
        "31c6e8b0d093ff69faa10eeee824ae75535af8335e057278a96231b9e848b1ba",
}

# Signed zeros, signed smallest subnormals and signed 1e300 in an order
# that is neither constant nor alternating.
_MIX = (1e300, -0.0, -1e300, 5e-324, -1e300, 0.0, 1e300, -5e-324)


def _hybrid_text():
    """A format-1 model no builder writes: all four kinds interleaved,
    cubic slopes 0.5 and 0.0, and a1 = 0.0 next to a1 = -0.0."""
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


def _compiled_eval_bytes(net, xs):
    with np.errstate(all="ignore"):
        try:
            return compile_network(net).eval(xs).tobytes()
        except NumericalError:
            return b"not finite"


def _forward_bytes(net, xs):
    try:
        return forward_grid(net, xs).tobytes()
    except NumericalError:
        return b"not finite"


def _oracle_bytes(method, samples, xs, slope):
    # An oracle that cannot be built is pinned by its error class.
    try:
        model = matching_oracle(method, samples, slope)
    except PwmlpError as exc:
        return type(exc).__name__.encode()
    return eval_oracle_grid(model, xs[(xs >= 0.0) & (xs <= 1.0)]).tobytes()


def _network_parts(net, xs):
    return {"model": save_model(net).encode(),
            "model-v1": format1_text(net).encode(),
            "model-v2": format2_text(net).encode(),
            "forward": _forward_bytes(net, xs),
            "compiled": _compiled_bytes(net),
            "compiled-eval": _compiled_eval_bytes(net, xs)}


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


def _digests():
    """sha256 per "method/part" (build-error class names are the
    "errors" part, the oracle is evaluated on the points of the network
    grid that lie in [0, 1]), with "hybrid" as the hand-written model's
    method."""
    digests = {"%s/%s" % (m, part): hashlib.sha256()
               for m in METHODS for part in PARTS}
    for label, samples, xs, slope in _cases():
        method = label.split()[0]
        try:
            net = build_network(method, samples, slope)
        except PwmlpError as exc:
            parts = {"errors": type(exc).__name__.encode()}
        else:
            parts = _network_parts(net, xs)
        parts["oracle"] = _oracle_bytes(method, samples, xs, slope)
        for part, data in parts.items():
            digest = digests["%s/%s" % (method, part)]
            digest.update(label.encode())
            digest.update(data)
    hybrid = _network_parts(load_model(_hybrid_text()),
                            np.linspace(-2.0, 2.0, 401))
    for part, data in hybrid.items():
        digests["hybrid/" + part] = hashlib.sha256(data)
    return {key: d.hexdigest() for key, d in digests.items()}


def test_golden_bytes():
    digests = _digests()
    assert sorted(digests) == sorted(GOLDEN_SHA256)
    moved = sorted(key for key in digests if digests[key] != GOLDEN_SHA256[key])
    assert moved == [], "moved pins: " + ", ".join(moved)


def test_hybrid_model_round_trips_text():
    v1 = _hybrid_text()
    net = load_model(v1)
    assert format1_text(net) == v1
    text = save_model(net)
    assert text.startswith('{\n  "format": 3,\n')
    assert save_model(load_model(text)) == text
    assert network_bytes(load_model(text)) == network_bytes(net)
    v2 = format2_text(net)
    assert format2_text(load_model(v2)) == v2
    assert network_bytes(load_model(v2)) == network_bytes(net)


if __name__ == "__main__":
    print("GOLDEN_SHA256 = {")
    for key, value in _digests().items():
        print('    "%s":\n        "%s",' % (key, value))
    print("}")
