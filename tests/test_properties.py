"""Property tests: the model file is an exact record of a network.

Hypothesis draws small hybrid networks (every activation kind, cubic
slopes including +-0.0, signed-zero and extreme weights and taps) and
checks that saving and loading changes neither the text, nor a byte of
the network, nor a byte of its outputs, and that format 1 loads to the
same arrays as format 2.  The runs are derandomized and keep no example
database, so the suite is deterministic and writes no files.
"""

import numpy as np
from format1 import format1_text, network_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from pwmlp import (
    METHODS,
    Activation,
    Network,
    NumericalError,
    forward_grid,
    load_model,
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
