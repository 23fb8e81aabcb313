"""The summary step of tools/bench_pairs.py, on canned result lines; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_METRICS = [{"name": "pass_cpu_s", "unit": "s", "better": "lower"},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def _line(workload, pair, side, cpu, rss, failed=0):
    return {"workload": workload, "pair": pair, "seed": 101 + pair,
            "side": side, "result": {
                "correct": failed == 0, "attempted": 200, "failed": failed,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                            "pass_cpu_s": {"value": cpu, "unit": "s"},
                            "call_cpu_p50_ms": {"value": 0.2, "unit": "ms"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}}


def _lines():
    parent = [0.12, 0.11, 0.13, 0.10, 0.14]
    change = [0.08, 0.09, 0.08, 0.11, 0.07]
    lines = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        lines.append(_line("eval-points", pair, "parent", p, 40.0))
        lines.append(_line("eval-points", pair, "change", c, 40.0 + pair,
                           failed=pair == 1))
    lines.append(_line("prove", 0, "parent", 0.2, 44.0))
    lines.append({"workload": "prove", "pair": 0, "seed": 101,
                  "side": "change", "result": {"error": "exit 1: boom"}})
    return lines


def test_summary_reports_medians_quartiles_and_pairs_won():
    summary = bench_pairs.summarize(_lines(), _METRICS)
    evals = summary["eval-points"]
    assert evals["pairs"] == 5
    assert evals["failed"] == {"parent": 0, "change": 1}
    assert evals["attempted"] == {"parent": 1000, "change": 1000}
    assert evals["failed_runs"] == {"parent": 0, "change": 0}
    cpu = evals["metrics"]["pass_cpu_s"]
    assert cpu["parent"]["runs"] == [0.12, 0.11, 0.13, 0.10, 0.14]
    assert cpu["parent"]["median"] == 0.12
    # statistics.quantiles(n=4), its default "exclusive" method
    assert cpu["parent"]["q1"] == pytest.approx(0.105)
    assert cpu["parent"]["q3"] == pytest.approx(0.135)
    assert cpu["change"]["median"] == 0.08
    assert cpu["relative"] == pytest.approx(0.08 / 0.12 - 1.0)
    assert cpu["pairs_won"] == 4
    assert cpu["gain_exceeds_parent_iqr"] is True
    rss = evals["metrics"]["peak_rss_mb"]
    assert rss["pairs_won"] == 0 and rss["gain_exceeds_parent_iqr"] is False


def test_a_failed_run_drops_its_pair():
    prove = bench_pairs.summarize(_lines(), _METRICS)["prove"]
    assert prove["failed_runs"] == {"parent": 0, "change": 1}
    assert prove["pairs"] == 0 and prove["metrics"] == {}


def test_summarize_writes_the_summary_without_running(tmp_path):
    lines = tmp_path / "runs.jsonl"
    lines.write_text("".join(json.dumps(line) + "\n" for line in _lines()))
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--pr", "0", "--summarize", "--lines",
                             str(lines), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pr"] == "0" and doc["run_seconds"] > 0
    assert doc["workloads"]["eval-points"]["metrics"]["pass_cpu_s"][
        "pairs_won"] == 4


_BOUNDED = [{"name": "pass_cpu_s", "unit": "s", "better": "lower",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.1}]


def _verdict_lines(parent, change, rss):
    return [_line("model-io", pair, side, cpu, rss[pair] if side == "change"
                  else 40.0)
            for pair, (p, c) in enumerate(zip(parent, change))
            for side, cpu in (("parent", p), ("change", c))]


def test_summary_marks_a_median_worse_than_the_bound():
    # medians 0.10 -> 0.13 (+30 %, past 0.25) and 40 -> 43.9 MB (+9.75 %,
    # within 0.1); the parent's quartiles lie within both bounds
    lines = _verdict_lines([0.10, 0.101, 0.099, 0.1, 0.1],
                           [0.13, 0.13, 0.13, 0.13, 0.13],
                           [43.9] * 5)
    metrics = bench_pairs.summarize(lines, _BOUNDED)["model-io"]["metrics"]
    assert metrics["pass_cpu_s"]["worse_than_bound"] is True
    assert metrics["pass_cpu_s"]["unresolved"] is False
    assert metrics["peak_rss_mb"]["worse_than_bound"] is False
    assert metrics["peak_rss_mb"]["unresolved"] is False


def test_summary_marks_a_wide_parent_unresolved():
    # the parent's quartiles 0.075-0.15 span more than 0.25 of its 0.1
    # median; a better change is never worse than the bound, and one
    # whose every run is better than every parent run is resolved
    parent = [0.1, 0.07, 0.2, 0.08, 0.1]
    for change, unresolved in (([0.09, 0.05, 0.08, 0.05, 0.05], True),
                               ([0.05, 0.05, 0.05, 0.05, 0.05], False)):
        lines = _verdict_lines(parent, change, [40.0] * 5)
        cpu = bench_pairs.summarize(lines, _BOUNDED)["model-io"]["metrics"][
            "pass_cpu_s"]
        assert cpu["parent"]["q1"] == pytest.approx(0.075)
        assert cpu["parent"]["q3"] == pytest.approx(0.15)
        assert cpu["unresolved"] is unresolved
        assert cpu["worse_than_bound"] is False


def test_summary_without_a_bound_gives_no_verdict():
    cpu = bench_pairs.summarize(_lines(), _METRICS)["eval-points"][
        "metrics"]["pass_cpu_s"]
    assert cpu["worse_than_bound"] is None and cpu["unresolved"] is None


def test_a_rerun_pair_counts_only_its_last_lines():
    # a --lines file that holds pair 0 twice: a first parent run with 3
    # failed operations and a change run that errored, then both again
    lines = [_line("prove", 0, "parent", 0.3, 44.0, failed=3),
             {"workload": "prove", "pair": 0, "seed": 101,
              "side": "change", "result": {"error": "exit 1: boom"}},
             _line("prove", 0, "parent", 0.2, 44.0),
             _line("prove", 0, "change", 0.19, 44.0, failed=1)]
    prove = bench_pairs.summarize(lines, _BOUNDED)["prove"]
    assert prove["attempted"] == {"parent": 200, "change": 200}
    assert prove["failed"] == {"parent": 0, "change": 1}
    assert prove["failed_runs"] == {"parent": 0, "change": 0}
    assert prove["pairs"] == 1
    assert prove["metrics"]["pass_cpu_s"]["parent"]["runs"] == [0.2]


def _gain_lines(change, failed_pair=None):
    parent = [0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.10, 0.11, 0.12, 0.11]
    return [_line("eval-points", pair, side, cpu, 40.0,
                  failed=side == "change" and pair == failed_pair)
            for pair, (p, c) in enumerate(zip(parent, change))
            for side, cpu in (("parent", p), ("change", c))]


@pytest.mark.parametrize("change, failed_pair, gain", [
    ([0.05] * 9 + [0.13], None, True),        # 9 of 10 pairs won
    ([0.05] * 8 + [0.13, 0.13], None, False),  # 8 of 10
    ([0.05] * 9 + [0.13], 3, False),           # a larger failed share
])
def test_a_gain_needs_nine_in_ten_pairs_and_no_more_failures(
        change, failed_pair, gain):
    cpu = bench_pairs.summarize(_gain_lines(change, failed_pair), _BOUNDED)[
        "eval-points"]["metrics"]["pass_cpu_s"]
    # every case clears the parent's quartiles, 0.1-0.12, by far
    assert cpu["gain_exceeds_parent_iqr"] is True
    assert cpu["gain"] is gain


def test_a_worse_median_is_no_gain():
    rss = bench_pairs.summarize(_lines(), _METRICS)["eval-points"][
        "metrics"]["peak_rss_mb"]
    assert rss["relative"] > 0 and rss["gain"] is False
