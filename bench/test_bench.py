"""The benchmark's own tests, at tiny sizes.

    python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pwmlp  # noqa: E402
from pwmlp import analysis  # noqa: E402

import harness  # noqa: E402
from workloads import TINY, WORKLOADS, Call, sine_coupling  # noqa: E402

NAMES = sorted(WORKLOADS)


def run(name, tmp_path, seed=1, **kwargs):
    return harness.run(WORKLOADS[name], seed, 0.0, sizes=TINY,
                       workdir=str(tmp_path), **kwargs)


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes(name, tmp_path):
    result = run(name, tmp_path)
    assert result.attempted > 0
    assert result.failed == 0, result.stats.errors
    assert 0.0 <= result.dev_ratio < 1.0


@pytest.mark.parametrize("name", NAMES)
def test_mismatched_oracle_fails(name, tmp_path):
    result = run(name, tmp_path, mismatch=True)
    assert result.failed > 0


def test_raised_error_counts_as_failure():
    def fail():
        raise pwmlp.NumericalError("injected")

    calls = [Call("a", fail, None), Call("b", lambda: 1, lambda r: 0.5)]
    stats = harness.measure(calls, 0.0)
    assert (stats.attempted, stats.failed, stats.dev_ratio) == (2, 1, 0.5)


def _inputs(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, TINY, workdir=str(tmp_path))
    workload.setup()
    if name == "prove":
        return np.append(workload.target.fn(np.linspace(0, 1, 9)), workload.noise)
    if name == "eval-points":
        return np.concatenate([workload.choice] + workload.points)
    return np.concatenate([s.values[:, 0] for s in workload.samples.values()])


@pytest.mark.parametrize("name", NAMES)
def test_seed_drives_inputs(name, tmp_path):
    first = _inputs(name, 1, tmp_path)
    again = _inputs(name, 1, tmp_path)
    other = _inputs(name, 2, tmp_path)
    assert np.array_equal(first, again)
    assert first.shape != other.shape or not np.array_equal(first, other)
    assert run(name, tmp_path, seed=2).failed == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    original = analysis.forward_grid
    result = run(name, tmp_path, trace=True)
    assert analysis.forward_grid is original
    assert result.failed == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: u for k, (_, u) in result.layers.items()} == layer_units
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: u for k, (_, u) in result.end_to_end().items()} == e2e_units
    assert result.layers["network.forward_calls"][0] > 0
    if name != "prove":
        assert result.layers["oracle.matching_s"][0] == 0.0


def test_sine_coupling_matches_dense_solve():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 64):
        grid = pwmlp.KnotGrid.uniform(n)
        samples = pwmlp.TargetSamples(grid, rng.uniform(-1, 1, (n + 1, 2)))
        g = sine_coupling(samples.values)
        dev = np.max(np.abs(g - pwmlp.dense_solve_coupling(samples)))
        assert dev < 1e-13 * max(1.0, np.max(np.abs(g)))
