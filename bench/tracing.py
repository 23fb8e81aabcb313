"""Span tracing for the benchmark's traced runs.

The tracer replaces module-level bindings of the package -- the names
one layer uses to call the next -- with wrappers that record a span per
call, so no file under src/ changes.  A span is (name, start, end,
parent, run id); spans are kept in compact arrays in memory and written
out once, when the run ends.  Calls made while the tracer is paused (the
benchmark's own output checks) are passed straight through.
"""

import time
from array import array

import numpy as np

# (module, attribute, span name) for every wrapped binding.  The span
# name is the layer that does the work; several bindings can feed one
# layer.  activation_values is named per activation kind at call time.
BINDINGS = (
    ("analysis", "build_network", "builders.build_network"),
    ("analysis", "forward_grid", "network.forward_grid"),
    ("analysis", "matching_oracle", "oracle.matching_oracle"),
    ("analysis", "eval_oracle_grid", "oracle.eval_oracle_grid"),
    ("builders", "solve_bump_coupling", "builders.solve_bump_coupling"),
    ("network", "activation_values", None),
    ("oracle", "dense_solve_coupling", "oracle.dense_solve_coupling"),
    ("oracle", "kernel_values", "oracle.kernel_values"),
    ("cli", "build_network", "builders.build_network"),
    ("cli", "save_model", "network.save_model"),
    ("cli", "load_model", "network.load_model"),
    ("cli", "forward_grid", "network.forward_grid"),
)


def _work(name, args, result):
    """Units of work a span did: neuron-points, neurons built, JSON bytes."""
    if name == "network.forward_grid":
        return args[0].width * len(args[1])
    if name == "builders.build_network":
        return result.width
    if name == "network.save_model":
        return len(result)
    return 0


class Tracer:
    def __init__(self):
        self.names = []
        self._codes = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.work = array("d")
        self.binding_calls = {}
        self.run_id = -1
        self.paused = False
        self._stack = []
        self._restore = []

    def _open(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name (no span while paused)."""
        if self.paused:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        self.work[idx] = _work(name, args, result)
        return result

    def wrap(self, fn, name, binding):
        """A stand-in for fn that records a span per call and counts the
        calls through binding."""
        self.binding_calls[binding] = 0

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.binding_calls[binding] += 1
            span = name if name is not None else "activations." + args[0].kind
            return self.call(span, fn, *args, **kwargs)

        return traced

    def install(self, package):
        """Wrap every binding in BINDINGS on the imported package."""
        for mod_name, attr, span in BINDINGS:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span, mod_name + "." + attr))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def arrays(self):
        """Spans as numpy arrays: code, start, end, parent, run, work."""
        return {
            "code": np.frombuffer(self.code, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Per span name: total time, self time, count and work."""
        a = self.arrays()
        n = a["code"].size
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        own = dur - child
        k = len(self.names)
        total = np.bincount(a["code"], weights=dur, minlength=k)
        self_t = np.bincount(a["code"], weights=own, minlength=k)
        count = np.bincount(a["code"], minlength=k)
        work = np.bincount(a["code"], weights=a["work"], minlength=k)
        return {
            name: {
                "total_s": float(total[i]),
                "self_s": float(self_t[i]),
                "count": int(count[i]),
                "work": float(work[i]),
            }
            for i, name in enumerate(self.names)
        }
