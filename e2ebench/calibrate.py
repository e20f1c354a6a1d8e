"""Measure the benchmark's spread and set-to-set gap, and derive its bounds.

Usage::

    python3 e2ebench/calibrate.py

Runs ``bench.py`` once per (workload, seed) for seeds 1-10, in two full
sets; every run is a fresh process, and the second set walks the workloads
in reverse order.  For every end-to-end metric of every workload it
reports, per set, the median and the spread (first-to-third-quartile
distance over the median) of the ten runs, and the relative gap between
the two sets' medians.  Every measured value, the per-workload summary and
the bound derived for each metric go to ``e2ebench/calibration.json``.

A metric's bound is the largest over the workloads of:

* ``max(0.10, 2 x gap)``, the repeatability rule;
* ``3 x spread`` (the larger of the two sets'), because a run of ten seeds
  is accepted only while its spread stays within the bound, and should
  stay below a third of it;

capped at :data:`MAX_BOUND`.  Two metrics have rules of their own.
``setup_s`` gets the largest bound, so that work moved into set-up shows
without failing on set-up noise.  ``stars_per_tuple`` is deterministic for
a seed, so its only noise is the seed-to-seed spread:
``max(0.01, 3 x spread)``.  Bounds are rounded up to the next hundredth.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "calibration.json"
SEEDS = list(range(1, 11))
MAX_BOUND = 0.25


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operation(s)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def metric_bound(name: str, gap: float, larger_spread: float) -> tuple[float, str]:
    """(bound, the rule that set it) for one metric on one workload."""
    if name == "setup_s":
        return MAX_BOUND, "set-up gets the largest bound"
    if name == "stars_per_tuple":
        terms = {"1% floor": 0.01, "3 x spread": 3 * larger_spread}
    else:
        terms = {"10% floor": 0.10, "2 x gap": 2 * gap, "3 x spread": 3 * larger_spread}
    rule = max(terms, key=terms.get)
    if terms[rule] > MAX_BOUND:
        return MAX_BOUND, f"{rule}, capped"
    return math.ceil(terms[rule] * 100 - 1e-9) / 100, rule


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for order in (workloads, workloads[::-1]):
        started = time.time()
        values = {w: {} for w in order}
        for workload in order:
            for seed in SEEDS:
                for name, value in run_once(workload, seed, spec["run_seconds"]).items():
                    values[workload].setdefault(name, []).append(value)
            print(f"set {len(sets) + 1}: {workload} done", file=sys.stderr, flush=True)
        sets.append({"order": order, "seeds": SEEDS, "wall_s": round(time.time() - started, 1),
                     "values": values})

    summary = {}
    bounds = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            per_set = [s["values"][workload][name] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            gap = abs(medians[1] - medians[0]) / medians[0]
            bound, rule = metric_bound(name, gap, max(spreads))
            summary.setdefault(workload, {})[name] = {
                "medians": medians,
                "spreads": [round(x, 4) for x in spreads],
                "gap": round(gap, 4),
                "bound": bound,
                "rule": rule,
            }
            if name not in bounds or bound > bounds[name]["bound"]:
                bounds[name] = {"bound": bound, "rule": rule, "workload": workload}
            print(
                f"{workload:<15} {name:<19} median {medians[0]:>12.6f} "
                f"spread {' '.join(f'{x:.3f}' for x in spreads)} gap {gap:.3f} -> {bound:.2f} ({rule})"
            )
    for name, chosen in bounds.items():
        print(f"bound {name:<19} {chosen['bound']:.2f}  {chosen['rule']} on {chosen['workload']}")
    OUT.write_text(json.dumps({"bounds": bounds, "summary": summary, "sets": sets}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
