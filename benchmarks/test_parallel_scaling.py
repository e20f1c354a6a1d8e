"""Scaling benchmark: component-parallel coloring vs worker count.

Runs a multi-component DiverseClustering workload (popsyn, n=4000, 16
disjoint single-attribute constraints → 16 components) through
``component_coloring`` at workers ∈ {1, 2, 4} with the process executor,
and records the curve through the run registry
(``benchmarks/results/runs/`` plus the ``BENCH_parallel.json`` duplicate
at the repo root) together with the host's core count and the
shared-memory telemetry.

Correctness assertions run unconditionally on any host:

* pooled outputs (assignment, clustering, stats) are byte-identical to
  the sequential run at every worker count;
* the non-``parallel.*`` observability counters merge identically;
* the shared-memory export is O(1) in the number of components — the
  same relation costs the same bytes whether Σ splits into 8 or 16
  components, because per-task payloads carry constraints, never data.

The ≥2× wall-clock speedup assertion is gated on the host actually
having ≥4 usable cores — on smaller containers the curve is still
measured and recorded, but elapsed time cannot improve without
parallel hardware.

Excluded from tier-1 runs by the ``bench`` marker; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_parallel_scaling.py -m bench -s -p no:cacheprovider
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro.bench.reporting import write_bench_artifact
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.graph import build_graph
from repro.core.parallel import component_coloring
from repro.data.datasets import make_popsyn

pytestmark = [pytest.mark.bench, pytest.mark.parallel]

N_ROWS = 4_000
K = 6
MAX_CANDIDATES = 96
SEED = 11
LOWER, UPPER = 3, 18
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _workload(n_components: int):
    """Popsyn relation + one constraint per CTY value (disjoint Iσ)."""
    relation = make_popsyn(seed=0, n_rows=N_ROWS)
    position = relation.schema.position("CTY")
    values = sorted({row[position] for _, row in relation})[:n_components]
    sigma = ConstraintSet(
        DiversityConstraint("CTY", v, LOWER, UPPER) for v in values
    )
    return relation, sigma


def _solve(relation, sigma, **kwargs):
    with obs.collecting() as collector:
        result = component_coloring(
            relation,
            sigma,
            k=K,
            max_candidates=MAX_CANDIDATES,
            seed=SEED,
            **kwargs,
        )
    return result, dict(collector.counters)


def _algorithmic(counters: dict) -> dict:
    return {
        key: value
        for key, value in counters.items()
        if not key.startswith("parallel.")
    }


def _best_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_parallel_scaling_curve():
    relation, sigma = _workload(16)
    n_components = len(
        build_graph(relation, sigma).connected_components()
    )
    assert n_components >= 8, "workload must be multi-component"

    seq_result, seq_counters = _solve(relation, sigma)
    assert seq_result.success

    rows = []
    times: dict[int, float] = {}
    for workers in WORKER_COUNTS:
        kwargs = (
            {}
            if workers == 1
            else {"max_workers": workers, "executor": "process"}
        )
        result, counters = _solve(relation, sigma, **kwargs)

        # Equivalence is unconditional: same assignment, clustering,
        # search stats and algorithmic counters at every scale.
        assert result.success
        assert result.assignment == seq_result.assignment
        assert result.clustering == seq_result.clustering
        assert result.stats == seq_result.stats
        assert _algorithmic(counters) == _algorithmic(seq_counters)

        elapsed = _best_time(lambda: _solve(relation, sigma, **kwargs))
        times[workers] = elapsed
        rows.append(
            {
                "workers": workers,
                "executor": "process" if workers > 1 else "sequential",
                "seconds": round(elapsed, 4),
                "tasks_dispatched": counters.get(
                    obs.PARALLEL_TASKS_DISPATCHED, 0
                ),
                "shm_bytes_exported": counters.get(
                    obs.PARALLEL_SHM_BYTES_EXPORTED, 0
                ),
            }
        )

    # O(1) relation transport: halving the component count must not
    # change the exported byte volume (it depends on |R|, not |Σ|).
    relation8, sigma8 = _workload(8)
    _, counters8 = _solve(
        relation8, sigma8, max_workers=4, executor="process"
    )
    _, counters16 = _solve(
        relation, sigma, max_workers=4, executor="process"
    )
    bytes8 = counters8[obs.PARALLEL_SHM_BYTES_EXPORTED]
    bytes16 = counters16[obs.PARALLEL_SHM_BYTES_EXPORTED]
    assert bytes8 == bytes16 > 0

    cores = _usable_cores()
    speedup = times[1] / times[4] if times[4] else float("inf")
    results = {
        "workload": {
            "dataset": "popsyn",
            "n_rows": N_ROWS,
            "n_components": n_components,
            "k": K,
            "max_candidates": MAX_CANDIDATES,
        },
        "cores": cores,
        "curve": rows,
        "speedup_4_workers": round(speedup, 3),
        "shm_bytes_invariant_in_components": {
            "components_8": bytes8,
            "components_16": bytes16,
        },
    }
    write_bench_artifact(
        "parallel",
        results,
        config=results["workload"],
        metrics={
            f"workers{row['workers']}_s": row["seconds"] for row in rows
        },
    )
    print("\nwrote BENCH_parallel.json (+ registry record)")
    for row in rows:
        print(
            f"  workers={row['workers']} ({row['executor']}): "
            f"{row['seconds']}s"
        )
    print(f"  speedup at 4 workers: {speedup:.2f}x on {cores} core(s)")

    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x at 4 workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    else:
        print(
            f"  (speedup gate skipped: {cores} usable core(s) < 4 — "
            "wall-clock cannot scale without parallel hardware)"
        )
