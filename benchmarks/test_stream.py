"""Streaming-engine benchmark: amortized publish cost vs full re-runs.

Replays a census-shaped relation through :class:`repro.stream.
StreamingAnonymizer` in micro-batches and records the result through the
run registry (``benchmarks/results/runs/`` plus the ``BENCH_stream.json``
duplicate): per-batch publish latencies, the extend-vs-recompute split,
and — the headline number — the *amortized* per-batch publish cost next
to the cost of the naive alternative, re-running full DIVA on the whole
history for every batch.

Excluded from tier-1 runs by the ``bench`` marker (``pyproject.toml``
defaults to ``-m "not bench"``); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_stream.py -m bench -s -p no:cacheprovider

The timed region covers everything ``ingest`` does — admission checks,
scoped/full recomputes when the decision rule falls back, and the ledger's
(k, Σ) re-validation — so the amortized figure is an honest end-to-end
publish cost, not just the happy extend path.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import write_bench_artifact
from repro.core.diva import run_diva
from repro.data.datasets import make_census
from repro.metrics.stats import is_k_anonymous
from repro.stream import StreamingAnonymizer
from repro.workloads.constraint_gen import proportion_constraints

pytestmark = [pytest.mark.bench, pytest.mark.stream]

N_ROWS = 2_000
BATCH_SIZE = 100
BOOTSTRAP = 1_000
K = 5
N_CONSTRAINTS = 6


def test_amortized_publish_cost_below_full_rerun():
    relation = make_census(seed=0, n_rows=N_ROWS)
    # lower_cap keeps λl absolute and small so arrival *prefixes* are
    # feasible — fully proportional lower bounds are derived from the
    # complete relation and stall the stream in bootstrap retries until
    # nearly everything has arrived, which would benchmark infeasibility
    # handling rather than steady-state maintenance.
    sigma = proportion_constraints(
        relation, N_CONSTRAINTS, k=K, lower_cap=8, seed=0
    )
    rows = [row for _, row in relation]

    # The naive per-batch alternative: full DIVA over the whole history.
    start = time.perf_counter()
    full = run_diva(relation, sigma, K, seed=0)
    full_diva_s = time.perf_counter() - start
    assert is_k_anonymous(full.relation, K)

    engine = StreamingAnonymizer(
        relation.schema, sigma, K, bootstrap=BOOTSTRAP, seed=0
    )
    batch_latencies: list[float] = []
    publish_latencies: list[float] = []
    for begin in range(0, len(rows), BATCH_SIZE):
        batch = rows[begin:begin + BATCH_SIZE]
        start = time.perf_counter()
        release = engine.ingest(batch)
        elapsed = time.perf_counter() - start
        batch_latencies.append(elapsed)
        if release is not None:
            publish_latencies.append(elapsed)
    start = time.perf_counter()
    final = engine.flush()
    flush_s = time.perf_counter() - start
    if final is None:
        final = engine.release
    assert final is not None
    assert is_k_anonymous(final.relation, K)
    assert sigma.is_satisfied_by(final.relation)

    stats = engine.stats
    stream_total_s = sum(batch_latencies) + flush_s
    amortized_batch_s = stream_total_s / len(batch_latencies)
    results = {
        "n": N_ROWS,
        "k": K,
        "n_constraints": len(sigma),
        "batch_size": BATCH_SIZE,
        "bootstrap": BOOTSTRAP,
        "full_diva_s": round(full_diva_s, 6),
        "stream_total_s": round(stream_total_s, 6),
        "amortized_batch_s": round(amortized_batch_s, 6),
        "max_batch_s": round(max(batch_latencies), 6),
        "publish_latencies_s": [round(t, 6) for t in publish_latencies],
        "releases": stats.releases,
        "release_modes": [s.mode for s in engine.ledger.stamps],
        "tuples_extended": stats.tuples_extended,
        "tuples_recomputed": stats.tuples_recomputed,
        "extend_ratio": round(stats.extend_ratio, 4),
        "scoped_recomputes": stats.scoped_recomputes,
        "full_recomputes": stats.full_recomputes,
        "recompute_ratio": round(
            (stats.scoped_recomputes + stats.full_recomputes)
            / max(stats.releases, 1),
            4,
        ),
        "pending_unpublished": engine.pending_count,
        "final_size": len(final.relation),
        "final_stars": final.relation.star_count(),
        "full_diva_stars": full.relation.star_count(),
    }
    write_bench_artifact(
        "stream",
        results,
        config={
            "n_rows": N_ROWS,
            "k": K,
            "batch_size": BATCH_SIZE,
            "bootstrap": BOOTSTRAP,
        },
        metrics={
            "full_diva_s": results["full_diva_s"],
            "stream_total_s": results["stream_total_s"],
            "amortized_batch_s": results["amortized_batch_s"],
        },
    )
    publish_summary = engine.stats.publish_latency.summary()
    print(f"publish_latency: {publish_summary}")
    for key, value in results.items():
        print(f"{key}: {value}")

    # Acceptance: maintaining the release incrementally must beat paying a
    # full DIVA re-run on every micro-batch.
    assert amortized_batch_s < full_diva_s
    assert stats.releases >= 2  # bootstrap plus at least one increment
