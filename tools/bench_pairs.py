"""Alternating benchmark pairs: a change against its parent commit.

    python3 tools/bench_pairs.py --pr 25 --workload eval-points --pairs 10 \
        --first-seed 101

Run from the root of a checkout.  The parent commit (--base, HEAD~1 by
default) is checked out with `git worktree add --detach` into a
temporary directory, which is removed at the end; --parent-dir names a
checkout to use instead.  For each workload, pair i runs
`bench/run.py --seed <first-seed + i> --trace 0` once in each checkout,
with the `run_seconds` of BENCHMARK.json, the parent first in even
pairs and the change first in odd ones.  Each run's result line goes
to the --lines file (BENCH_<pr>.jsonl by default) as one JSON line,
and the summary is written to
BENCH_<pr>.json: per workload and end-to-end metric, the medians and
quartiles of both sides, the pairs the change won, the verdict against
the metric's bound, whether a claimed gain would hold, and the failed
operations and runs.  --summarize reads an existing --lines file and
writes the summary without running anything.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; "
                             "default: all of them)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--base", default="HEAD~1",
                        help="the parent commit (default HEAD~1)")
    parser.add_argument("--parent-dir", type=Path,
                        help="a checkout of the parent to use as it is")
    parser.add_argument("--lines", type=Path,
                        help="JSON lines of the runs, appended to "
                             "(default BENCH_<pr>.jsonl)")
    parser.add_argument("--summarize", action="store_true",
                        help="only summarize the --lines file")
    parser.add_argument("--out", type=Path,
                        help="the summary (default BENCH_<pr>.json)")
    return parser.parse_args(argv)


def run_once(checkout, command, workload, seed, seconds):
    """One benchmark run in checkout; its result line as a dict, or a
    dict with "error" when the run failed or printed no result."""
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"error": "exit %d: %s" % (proc.returncode,
                                          proc.stderr.strip()[-500:])}
    return result


def run_pairs(checkouts, bench, workloads, pairs, first_seed, lines_path):
    """Run the pairs, appending each run's line to lines_path."""
    command, seconds = bench["command"], bench["run_seconds"]
    with open(lines_path, "a", encoding="utf-8") as lines:
        for workload in workloads:
            for pair in range(pairs):
                seed = first_seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(checkouts[side], command, workload,
                                      seed, seconds)
                    line = {"workload": workload, "pair": pair, "seed": seed,
                            "side": side, "result": result}
                    lines.write(json.dumps(line) + "\n")
                    lines.flush()
                    print("%s pair %d seed %d %s: %s" % (
                        workload, pair, seed, side,
                        result.get("error") or "%d of %d failed" % (
                            result["failed"], result["attempted"])),
                          file=sys.stderr)


def _quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(lines, metrics):
    """The summary of parsed run lines.

    metrics is BENCHMARK.json's end_to_end list.  For each workload and
    metric: each side's runs, median and quartiles (statistics.quantiles,
    n=4), the change's median relative to the parent's, the pairs in
    which the change was better (by the metric's "better"), and whether
    the medians differ by more than the parent's interquartile range.
    Against the metric's "bound", a relative change: "worse_than_bound"
    when the change's median is worse than the parent's by more than
    bound, and "unresolved" when the parent's interquartile range
    exceeds bound times its median, unless every change run is better
    than every parent run (both None for a metric without a bound).
    "gain" is the rule a claimed gain is held to: the change is better,
    won at least ceil(0.9 * pairs) pairs, its median gains more than
    the parent's interquartile range, and its share of failed
    operations on the workload is no larger than the parent's.  When a
    (workload, side, pair) has several lines, as a --lines file
    appended to twice does, only the last one counts.  A run that
    failed counts in "failed_runs", and its operations in neither
    "failed" nor the metrics.
    """
    last = {}
    for line in lines:
        last[line["workload"], line["side"], line["pair"]] = line
    summary = {}
    for line in last.values():
        entry = summary.setdefault(line["workload"], {
            "runs": {side: {} for side in SIDES},
            "failed_runs": {side: 0 for side in SIDES},
            "failed": {side: 0 for side in SIDES},
            "attempted": {side: 0 for side in SIDES},
        })
        side, result = line["side"], line["result"]
        if "error" in result:
            entry["failed_runs"][side] += 1
            continue
        entry["failed"][side] += result["failed"]
        entry["attempted"][side] += result["attempted"]
        entry["runs"][side][line["pair"]] = result["metrics"]
    out = {}
    for workload, entry in summary.items():
        runs = entry.pop("runs")
        both = sorted(set(runs["parent"]) & set(runs["change"]))
        entry["pairs"] = len(both)
        entry["metrics"] = {}
        share = {side: entry["failed"][side] / max(entry["attempted"][side], 1)
                 for side in SIDES}
        for metric in metrics:
            if not both:
                break
            name = metric["name"]
            values = {side: [runs[side][p][name]["value"] for p in both]
                      for side in SIDES}
            lower = metric["better"] == "lower"
            won = sum((c < p) if lower else (c > p)
                      for p, c in zip(values["parent"], values["change"]))
            q = {side: _quartiles(values[side]) for side in SIDES}
            gap = abs(q["change"][1] - q["parent"][1])
            better = (q["change"][1] < q["parent"][1]) == lower
            iqr = q["parent"][2] - q["parent"][0]
            clears_iqr = better and gap > iqr
            bound = metric.get("bound")
            worse = unresolved = None
            if bound is not None:
                worse = not better and gap > bound * abs(q["parent"][1])
                apart = (max(values["change"]) < min(values["parent"])
                         if lower else
                         min(values["change"]) > max(values["parent"]))
                unresolved = iqr > bound * abs(q["parent"][1]) and not apart
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": {"median": q["parent"][1], "q1": q["parent"][0],
                           "q3": q["parent"][2], "runs": values["parent"]},
                "change": {"median": q["change"][1], "q1": q["change"][0],
                           "q3": q["change"][2], "runs": values["change"]},
                "relative": q["change"][1] / q["parent"][1] - 1.0,
                "pairs_won": won,
                "gain_exceeds_parent_iqr": clears_iqr,
                "worse_than_bound": worse,
                "unresolved": unresolved,
                "gain": (clears_iqr and won >= math.ceil(0.9 * len(both))
                         and share["change"] <= share["parent"]),
            }
        out[workload] = entry
    return out


def read_lines(path):
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    unknown = set(workloads) - {w["name"] for w in bench["workloads"]}
    if unknown:
        print("error: unknown workload %s" % ", ".join(sorted(unknown)),
              file=sys.stderr)
        return 2
    lines_path = args.lines or ROOT / ("BENCH_%s.jsonl" % args.pr)
    if not args.summarize:
        parent, tmp = args.parent_dir, None
        if parent is None:
            tmp = tempfile.mkdtemp(prefix="bench-pairs-")
            parent = Path(tmp) / "parent"
            subprocess.run(["git", "worktree", "add", "--detach", str(parent),
                            args.base], cwd=ROOT, check=True)
        try:
            run_pairs({"parent": parent, "change": ROOT}, bench, workloads,
                      args.pairs, args.first_seed, lines_path)
        finally:
            if tmp is not None:
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(parent)], cwd=ROOT, check=False)
                os.rmdir(tmp)
    result = summarize(read_lines(lines_path), bench["end_to_end"])
    out = args.out or ROOT / ("BENCH_%s.json" % args.pr)
    out.write_text(json.dumps(
        {"pr": args.pr, "run_seconds": bench["run_seconds"],
         "workloads": result}, indent=2) + "\n", encoding="utf-8")
    print("summary: %s" % out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
