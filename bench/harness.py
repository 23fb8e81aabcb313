"""Runs one workload: repeated timed set-ups, closed-loop passes for the
run's seconds, output checks after every call, and for traced runs a
traced set-up and pass whose spans give the per-layer metrics."""

import resource
import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

import pwmlp
from pwmlp.errors import PwmlpError

from tracing import BINDINGS, Tracer
from workloads import FULL, CheckFailed

# Set-up is timed this many times before each pass; setup_s is the
# median over the run.  Spreading the set-ups over the run keeps one
# slow stretch of the machine from setting the median.
SETUPS_PER_PASS = 2

# Timings are the process's CPU time (user + system).  On a shared
# virtual machine the wall clock also counts the stretches in which the
# hypervisor runs other guests on this vCPU (steal time, 5 to 25 % of
# every 10 s on the baseline machine), which is not the program's doing.
# The workloads run on one thread, so CPU time is what the wall clock
# shows on a machine of one's own.
clock = time.process_time


@dataclass
class Stats:
    """Call latencies of one measured phase, one row per pass.

    Every pass repeats the same calls on the same inputs, so a call's
    time is its median over the run's passes.
    """

    kinds: List[str] = field(default_factory=list)
    latency: List[List[float]] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    dev_ratio: float = 0.0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def passes(self):
        return len(self.latency)

    @property
    def attempted(self):
        return sum(len(row) for row in self.latency)

    def pass_sums(self):
        return [sum(row) for row in self.latency]

    def typical(self, kind=None):
        """Per call, the median CPU time over passes (seconds)."""
        typical = np.median(np.asarray(self.latency), axis=0)
        if kind is None:
            return typical
        return typical[np.asarray(self.kinds) == kind]


def _failure(stats, call, exc):
    stats.failed += 1
    if len(stats.errors) < 5:
        stats.errors.append("%s: %s: %s" % (call.kind, type(exc).__name__, exc))


def measure(calls, seconds, tracer=None, before_pass=None):
    """Closed loop over whole passes for `seconds` of wall time: a pass
    starts only if one as long as the last one still fits (>= 1 pass).

    A PwmlpError or a failed check counts against the call and the loop
    goes on.
    """
    stats = Stats(kinds=[call.kind for call in calls])
    deadline = time.perf_counter() + seconds
    while True:
        pass_start = time.perf_counter()
        if before_pass is not None:
            before_pass()
        row = []
        stats.latency.append(row)
        for call in calls:
            if tracer is not None:
                tracer.run_id += 1
            w0, t0 = time.perf_counter(), clock()
            try:
                result = call.run()
            except PwmlpError as exc:
                row.append(clock() - t0)
                stats.wall.append(time.perf_counter() - w0)
                _failure(stats, call, exc)
                continue
            row.append(clock() - t0)
            stats.wall.append(time.perf_counter() - w0)
            if tracer is not None:
                tracer.paused = True
            try:
                stats.dev_ratio = max(stats.dev_ratio, call.check(result))
            except (CheckFailed, PwmlpError) as exc:
                _failure(stats, call, exc)
            finally:
                if tracer is not None:
                    tracer.paused = False
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            return stats


def timed_setups(workload, repeats):
    times = []
    for _ in range(repeats):
        t0 = clock()
        workload.setup()
        times.append(clock() - t0)
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    workload: object
    setup_s: List[float]
    stats: Stats
    traced_stats: Stats = None
    layers: dict = None
    tracer: Tracer = None

    @property
    def phases(self):
        return [s for s in (self.stats, self.traced_stats) if s is not None]

    @property
    def attempted(self):
        return sum(p.attempted for p in self.phases)

    @property
    def failed(self):
        return sum(p.failed for p in self.phases)

    @property
    def dev_ratio(self):
        return max(p.dev_ratio for p in self.phases)

    def end_to_end(self):
        """The end-to-end metrics, all from the untraced phase."""
        lat = self.stats.typical()
        return {
            "setup_s": (float(np.median(self.setup_s)), "s"),
            "pass_cpu_s": (float(np.sum(lat)), "s"),
            "call_cpu_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }


def run(workload_cls, seed, seconds, trace=False, sizes=FULL, workdir=None,
        mismatch=False):
    """Untraced: passes for `seconds`, each after timed set-ups.  Traced:
    the same for half the time, then one traced set-up and one traced
    pass.  Set-up is deterministic, so the calls built after the first
    one stay valid."""
    workload = workload_cls(seed, sizes, None, mismatch, workdir)
    setups = timed_setups(workload, 1)
    workload.prepare_checks()
    stats = measure(
        workload.calls(), seconds / 2 if trace else seconds,
        before_pass=lambda: setups.extend(
            timed_setups(workload, SETUPS_PER_PASS)))
    result = Result(workload, setups, stats)
    if not trace:
        return result

    tracer = Tracer()
    traced = workload_cls(seed, sizes, tracer, mismatch, workdir)
    tracer.install(pwmlp)
    try:
        traced_setup = timed_setups(traced, 1)[0]
        tracer.paused = True
        traced.prepare_checks()
        tracer.paused = False
        traced_stats = measure(traced.calls(), 0.0, tracer)
    finally:
        tracer.uninstall()
    result.traced_stats = traced_stats
    untraced_cycle = float(np.median(setups)) + float(np.median(stats.pass_sums()))
    traced_cycle = traced_setup + traced_stats.pass_sums()[0]
    result.layers = layer_metrics(tracer, traced_cycle / untraced_cycle)
    result.tracer = tracer
    return result


def layer_metrics(tracer, overhead_ratio):
    """Per-layer metrics over one traced set-up plus one traced pass."""
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def total(name):
        return get(name, "total_s")

    def own(name):
        return get(name, "self_s")

    fwd = "network.forward_grid"
    kinds = ("step", "relu", "ramp", "cubic")
    neuron_points = get(fwd, "work")
    m = {
        "network.forward_s": (total(fwd), "s"),
        "network.forward_self_s": (own(fwd), "s"),
        "network.forward_calls": (get(fwd, "count"), "count"),
        "network.neuron_points": (neuron_points, "count"),
        "network.ns_per_neuron_point": (
            1e9 * total(fwd) / neuron_points if neuron_points else 0.0, "ns"),
    }
    for kind in kinds:
        m["activations.%s_s" % kind] = (total("activations." + kind), "s")
    m["activations.calls"] = (
        sum(get("activations." + k, "count") for k in kinds), "count")
    m.update({
        "oracle.dense_lu_s": (total("oracle.dense_solve_coupling"), "s"),
        "oracle.matching_s": (total("oracle.matching_oracle"), "s"),
        "oracle.eval_grid_s": (total("oracle.eval_oracle_grid"), "s"),
        "oracle.kernel_s": (total("oracle.kernel_values"), "s"),
        "builders.build_s": (total("builders.build_network"), "s"),
        "builders.coupling_s": (total("builders.solve_bump_coupling"), "s"),
        "builders.build_calls": (get("builders.build_network", "count"), "count"),
        "builders.neurons": (get("builders.build_network", "work"), "count"),
        "network.save_s": (total("network.save_model"), "s"),
        "network.load_s": (total("network.load_model"), "s"),
        "network.json_bytes": (get("network.save_model", "work"), "bytes"),
        "cli.build_s": (total("cli.build"), "s"),
        "cli.eval_s": (total("cli.eval"), "s"),
        "cli.self_s": (own("cli.build") + own("cli.eval"), "s"),
        "analysis.verify_self_s": (own("analysis.verify_equivalence"), "s"),
        "analysis.sweep_self_s": (own("analysis.estimate_order"), "s"),
        "targets.sample_s": (total("targets.sample"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    for module, attr, _ in BINDINGS:
        binding = module + "." + attr
        m["spans." + binding] = (tracer.binding_calls.get(binding, 0), "count")
    return m
