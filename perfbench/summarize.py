"""Median, quartiles and spread of each metric over a set of runs.

    python3 perfbench/summarize.py perfbench/_out/run_*_trace0.json

Reads the run records that ``run.py`` writes and prints one JSON object:
workload -> metric -> {median, q1, q3, spread, runs}, where spread is
(q3 - q1) / median with quartiles from ``statistics.quantiles(n=4)``.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths: list[str]) -> dict:
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        workload = run["record"]["workload"]
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    out: dict = {}
    for workload, metrics in sorted(values.items()):
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            out.setdefault(workload, {})[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "runs": len(vals),
            }
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
