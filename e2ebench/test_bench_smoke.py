"""Smoke test of the end-to-end benchmark (``bench`` marker, not in tier-1).

Runs every workload at ``--smoke`` scale, untraced and traced, through the
real command, and checks that the printed result and the registry record
carry exactly the metric names ``BENCHMARK.json`` declares.  A tampered
release — one suppressed cell put back — must be counted as failed::

    python -m pytest e2ebench/test_bench_smoke.py -m bench -p no:cacheprovider
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

pytestmark = pytest.mark.bench


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "bench.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record_path = ROOT / lines[-2].split("record ")[1]
    return json.loads(lines[-1]), json.loads(record_path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    result, record = run_bench(workload, trace)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == declared
    assert set(record["metrics"]) == declared
    assert record["config"]["workload"] == workload


def test_tampered_release_counts_as_failed():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.constraints import ConstraintSet
    from repro.core.diva import Diva
    from repro.data.datasets import make_census
    from repro.data.relation import STAR
    from repro.workloads.constraint_gen import proportion_constraints
    from workloads import K, Tally, release_problems

    relation = make_census(seed=7, n_rows=300)
    sigma = proportion_constraints(relation, 4, k=K, seed=7)
    result = Diva(best_effort=True, seed=7).run(relation, sigma, K)
    satisfied = ConstraintSet(result.satisfied)
    assert release_problems(result.relation, K, satisfied, relation) == []

    qi = [relation.schema.position(a) for a in relation.schema.qi_names]
    tid, row, pos = next(
        (tid, row, p) for tid, row in result.relation for p in qi if row[p] is STAR
    )
    restored = row[:pos] + (relation.row(tid)[pos],) + row[pos + 1:]
    tampered = result.relation.replace_rows({tid: restored})
    tally = Tally()
    tally.check("tampered release", release_problems(tampered, K, satisfied, relation))
    assert tally.attempted == 1
    assert len(tally.problems) == 1
