"""The benchmark's three workloads, driven through the public API and the
in-process CLI.

Every input comes from one seed: the trigonometric targets, the noise
column, the eval-points model choice, batch sizes and points, and the
model-io CSV samples.  The package only ever sees the generated samples
and points.  Each workload is a closed loop with a single caller: a
pass is a fixed list of calls, and the next call starts when the
previous one returns.  Output checks run after each call, off the timed
path and with the tracer paused.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

import pwmlp
from pwmlp import cli
from pwmlp.grids import KnotGrid, TargetSamples
from pwmlp.oracle import KernelKind, PiecewiseOracle
from pwmlp.targets import TargetDef

METHODS = pwmlp.METHODS

# The equivalence contract: deviation <= 1e-9 * max(1, |f|_inf).
CONTRACT_RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    prove_n: Tuple[int, ...] = (64, 512, 4096)
    noisy_n: int = 512
    sweep_n: Tuple[int, ...] = (16, 32, 64, 128, 256, 512)
    grid: int = 10001
    eval_n: int = 512
    eval_calls: int = 200
    eval_max_k: int = 256
    io_n: int = 16384
    io_points: str = "0.1,0.25,0.5,0.75,0.9"


FULL = Sizes()
TINY = Sizes(
    prove_n=(8, 16, 32),
    noisy_n=16,
    sweep_n=(8, 16, 32),
    grid=101,
    eval_n=16,
    eval_calls=20,
    eval_max_k=16,
    io_n=32,
)


class CheckFailed(Exception):
    """An output disagreed with its reference."""


@dataclass(frozen=True)
class Call:
    """One closed-loop request: run() is timed, check(result) is not.

    check returns the worst deviation as a share of the contract
    tolerance, or raises CheckFailed.
    """

    kind: str
    run: Callable
    check: Callable


def contract_tol(values):
    return CONTRACT_RTOL * max(1.0, float(np.max(np.abs(values))))


def trig_target(rng, name):
    """A random 4-term trigonometric polynomial on [0, 1]."""
    amp = rng.uniform(-1.0, 1.0, 4)
    phase = rng.uniform(0.0, 2.0 * math.pi, 4)
    freq = 2.0 * math.pi * np.arange(1, 5)

    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        return np.cos(np.multiply.outer(x, freq) + phase) @ amp

    return TargetDef(name, fn, "seeded trigonometric polynomial",
                     float(np.sum(np.abs(amp))))


def oracle_method(method, mismatch):
    """The method whose oracle a check uses; mismatch is the negative
    control, comparing against the wrong model as `pwmlp verify
    --mismatch-oracle` does."""
    if not mismatch:
        return method
    return "linear-relu" if method == "constant" else "constant"


def _dst1(x):
    """Type-I discrete sine transform along axis 0 via the odd extension."""
    m = x.shape[0]
    z = np.zeros((2 * (m + 1),) + x.shape[1:])
    z[1:m + 1] = x
    z[m + 2:] = -x[::-1]
    return -np.fft.fft(z, axis=0)[1:m + 1].imag / 2.0


def sine_coupling(values):
    """Bump weights g with g_j + 0.5 (g_{j-1} + g_{j+1}) = f_j, solved in
    the matrix's sine eigenbasis (eigenvalues 1 + cos(k pi / (m + 1))).

    An O(N log N) check that shares no code with the package's Thomas
    sweep or dense LU, and fits in memory at N where the dense LU does
    not.
    """
    m = values.shape[0]
    lam = 1.0 + np.cos(math.pi * np.arange(1, m + 1) / (m + 1))
    return (2.0 / (m + 1)) * _dst1(_dst1(values) / lam[:, None])


def reference_oracle(method, samples):
    """The kernel-sum model a network built by method must reproduce."""
    if method == "cubic":
        return PiecewiseOracle(samples.grid, KernelKind.cubic_bump(),
                               sine_coupling(samples.values))
    return pwmlp.matching_oracle(method, samples)


def _point_check(oracle, xs, tol):
    def check(ys):
        dev = float(np.max(np.abs(ys - pwmlp.eval_oracle_grid(oracle, xs))))
        if not dev <= tol:
            raise CheckFailed("deviation %.3e over tolerance %.3e" % (dev, tol))
        return dev / tol
    return check


class Workload:
    """Base: set-up builds the state a pass needs; calls() lists a pass."""

    def __init__(self, seed, sizes=FULL, tracer=None, mismatch=False,
                 workdir=None):
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.mismatch = mismatch
        self.workdir = workdir

    def api(self, name, fn, *args):
        """Call into a layer; traced runs record it as a span."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def setup(self):
        raise NotImplementedError

    def prepare_checks(self):
        """Build the references the checks compare against (untimed)."""
        raise NotImplementedError

    def calls(self):
        raise NotImplementedError

    def report(self, stats):
        """Workload-specific metrics from the run's call statistics."""
        raise NotImplementedError


class Prove(Workload):
    """build_network, matching_oracle and verify_equivalence for every
    method and N, then a convergence sweep per method."""

    name = "prove"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.target = trig_target(rng, "prove-%d" % self.seed)
        self.noise = rng.uniform(-1.0, 1.0, self.sizes.noisy_n + 1)
        # Warm-up: prove every method once at the smallest N, so costs
        # paid on a first call land in set-up rather than in a pass.
        for method in METHODS:
            self._prove(method, self.sizes.prove_n[0])

    def sample(self, n):
        samples = TargetSamples.from_function(KnotGrid.uniform(n), self.target.fn)
        if n == self.sizes.noisy_n:
            values = np.column_stack([samples.values, self.noise])
            samples = TargetSamples(samples.grid, values)
        return samples

    def prepare_checks(self):
        xs = np.linspace(0.0, 1.0, self.sizes.grid)
        self.sweep_tol = contract_tol(self.target.fn(xs))
        self.oracle_sups = {}
        for method in METHODS:
            report = pwmlp.estimate_order(
                oracle_method(method, self.mismatch), self.target,
                self.sizes.sweep_n, grid_size=self.sizes.grid, route="oracle")
            self.oracle_sups[method] = np.asarray(report.sup_errors)

    def _prove(self, method, n):
        samples = self.api("targets.sample", self.sample, n)
        net = self.api("builders.build_network", pwmlp.build_network,
                       method, samples)
        model = self.api("oracle.matching_oracle", pwmlp.matching_oracle,
                         oracle_method(method, self.mismatch), samples)
        tol = contract_tol(samples.values)
        report = self.api("analysis.verify_equivalence",
                          pwmlp.verify_equivalence, net, model,
                          self.sizes.grid, tol)
        return report

    def _sweep(self, method):
        return self.api("analysis.estimate_order", pwmlp.estimate_order,
                        method, self.target, self.sizes.sweep_n,
                        self.sizes.grid)

    @staticmethod
    def _check_proof(report):
        if not report.passed:
            raise CheckFailed("max deviation %.3e at x=%r over tolerance %.3e"
                              % (report.max_deviation, report.worst_x,
                                 report.tol))
        return report.max_deviation / report.tol

    def _sweep_check(self, method):
        def check(report):
            dev = float(np.max(np.abs(np.asarray(report.sup_errors)
                                      - self.oracle_sups[method])))
            if not dev <= self.sweep_tol:
                raise CheckFailed("network and oracle sup errors differ by "
                                  "%.3e" % dev)
            return dev / self.sweep_tol
        return check

    def calls(self):
        out = []
        for n in self.sizes.prove_n:
            for method in METHODS:
                out.append(Call("verify",
                                lambda m=method, n=n: self._prove(m, n),
                                self._check_proof))
        for method in METHODS:
            out.append(Call("sweep", lambda m=method: self._sweep(m),
                            self._sweep_check(method)))
        return out

    def report(self, stats):
        return {
            "verify_s": (float(np.sum(stats.typical("verify"))), "s"),
            "sweep_s": (float(np.sum(stats.typical("sweep"))), "s"),
        }


class EvalPoints(Workload):
    """forward_grid calls of 1 to 256 points on reloaded models."""

    name = "eval-points"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        target = trig_target(rng, "eval-%d" % self.seed)
        grid = KnotGrid.uniform(self.sizes.eval_n)
        self.samples = TargetSamples.from_function(grid, target.fn)
        self.models = []
        for method in METHODS:
            net = self.api("builders.build_network", pwmlp.build_network,
                           method, self.samples)
            text = self.api("network.save_model", pwmlp.save_model, net)
            self.models.append(self.api("network.load_model",
                                        pwmlp.load_model, text))
        # Each model gets the same number of calls, in seeded order.
        count = self.sizes.eval_calls
        self.choice = rng.permutation(np.arange(count) % len(METHODS))
        log_k = rng.uniform(0.0, math.log(self.sizes.eval_max_k), count)
        ks = np.minimum(np.floor(np.exp(log_k)).astype(int),
                        self.sizes.eval_max_k)
        self.points = [rng.uniform(0.0, 1.0, k) for k in ks]

    def prepare_checks(self):
        self.tol = contract_tol(self.samples.values)
        self.oracles = [
            reference_oracle(oracle_method(m, self.mismatch), self.samples)
            for m in METHODS
        ]

    def calls(self):
        return [
            Call("eval",
                 lambda net=self.models[i], xs=xs: self.api(
                     "network.forward_grid", pwmlp.forward_grid, net, xs),
                 _point_check(self.oracles[i], xs, self.tol))
            for i, xs in zip(self.choice, self.points)
        ]

    def report(self, stats):
        lat = stats.typical("eval")
        points = sum(xs.size for xs in self.points)
        return {
            "eval_call_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
            "eval_call_p95_ms": (1e3 * float(np.percentile(lat, 95)), "ms"),
            "eval_pts_per_s": (points / float(np.sum(lat)), "1/s"),
        }


class ModelIO(Workload):
    """`pwmlp build` then `pwmlp eval` for each method, through cli.main,
    with files in a scratch directory."""

    name = "model-io"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        grid = KnotGrid.uniform(self.sizes.io_n)
        self.samples = {}
        self.paths = {}
        for method in METHODS:
            target = trig_target(rng, "io-%s-%d" % (method, self.seed))
            samples = TargetSamples.from_function(grid, target.fn)
            stem = os.path.join(self.workdir, method)
            csv_path = stem + "-samples.csv"
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write("x,f1\n")
                for x, f in zip(grid.knots, samples.values[:, 0]):
                    fh.write("%r,%r\n" % (float(x), float(f)))
            self.samples[method] = samples
            self.paths[method] = (csv_path, stem + "-m.json", stem + "-e.csv")
        self.xs = np.asarray([float(t) for t in self.sizes.io_points.split(",")])

    def prepare_checks(self):
        self.refs = {
            m: (reference_oracle(oracle_method(m, self.mismatch), s),
                contract_tol(s.values))
            for m, s in self.samples.items()
        }

    def _cli(self, span, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.api(span, cli.main, argv)
        return code, err.getvalue()

    @staticmethod
    def _exit_check(result):
        code, err = result
        if code != 0:
            raise CheckFailed("exit code %d: %s" % (code, err.strip()))
        return 0.0

    def _eval_check(self, method):
        oracle, tol = self.refs[method]
        point_check = _point_check(oracle, self.xs, tol)
        csv_out = self.paths[method][2]

        def check(result):
            self._exit_check(result)
            rows = np.loadtxt(csv_out, delimiter=",", skiprows=1, ndmin=2)
            if not np.array_equal(rows[:, 0], self.xs):
                raise CheckFailed("eval wrote other points than asked")
            return point_check(rows[:, 1:])
        return check

    def calls(self):
        out = []
        for method in METHODS:
            csv_in, model, csv_out = self.paths[method]
            build = ["build", "--method", method, "--n", str(self.sizes.io_n),
                     "--csv", csv_in, "--out", model]
            evaluate = ["eval", model, "--grid", self.sizes.io_points,
                        "--out", csv_out]
            out.append(Call("build", lambda a=build: self._cli("cli.build", a),
                            self._exit_check))
            out.append(Call("load_eval",
                            lambda a=evaluate: self._cli("cli.eval", a),
                            self._eval_check(method)))
        return out

    def report(self, stats):
        size = sum(os.path.getsize(p[1]) for p in self.paths.values())
        return {
            "build_s": (float(np.sum(stats.typical("build"))), "s"),
            "load_eval_s": (float(np.sum(stats.typical("load_eval"))), "s"),
            "model_bytes": (size, "bytes"),
        }


WORKLOADS = {w.name: w for w in (Prove, EvalPoints, ModelIO)}
