"""End-to-end benchmark of the DIVA reproduction.

One command per workload run::

    python3 e2ebench/bench.py --workload W --seed S --seconds T [--trace 0|1] [--smoke]

runs the workload in a fresh child process (``workloads.py``) with the
kernel-backend, cost-model and shared-memory overrides removed from its
environment, checks that the child's metric names are exactly the ones
``BENCHMARK.json`` declares, appends one record to the run registry under
``e2ebench/results/runs/``, prints every metric as name, value and unit,
and ends with one JSON line::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The exit code is non-zero when any
output check failed, and when the program source (``src/``) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OVERRIDES = ("REPRO_KERNEL_BACKEND", "REPRO_COST_MODEL", "REPRO_DISABLE_SHM")
#: Time the child may take beyond ``--seconds`` before it is stopped.
GRACE_S = 100


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def run_child(args) -> dict:
    """Run one workload in a fresh process group; returns its JSON result."""
    argv = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"e2ebench: {args.workload} did not finish in time")
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"e2ebench: {args.workload} exited with {child.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run (run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {SRC}", file=sys.stderr)
        return 2
    for var in OVERRIDES:
        os.environ.pop(var, None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    child = run_child(args)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if sorted(child["metrics"]) != sorted(declared):
        print(
            f"e2ebench: metric names differ from BENCHMARK.json: "
            f"{sorted(set(child['metrics']) ^ set(declared))}",
            file=sys.stderr,
        )
        return 1

    sys.path.insert(0, str(SRC))
    from repro.obs.registry import RunRegistry, new_record

    metrics = {name: child["metrics"][name] for name in declared}
    record = new_record(
        "bench",
        f"e2e-{args.workload}",
        config={
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "passes": child["passes"],
        },
        metrics=metrics,
    )
    record["units"] = declared
    record["outcome"] = {k: child[k] for k in ("attempted", "failed", "problems")}
    if "trace" in child:
        record["trace"] = child["trace"]
    path = RunRegistry(HERE / "results").append(record)

    for problem in child["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>16.6f}  {declared[name]}")
    print(f"passes {child['passes']}, record {path.relative_to(ROOT)}")
    correct = child["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
