"""Service throughput benchmark: release fetches and ingest-to-publish.

Runs the real :class:`repro.serve.AnonymizationService` (socket and all)
on a background event-loop thread, drives it with ``http.client`` from
the test thread, and records through the run registry (``BENCH_serve.
json`` duplicate):

* release-fetch latency p50/p99 **without** ETag revalidation (full
  ``200`` bodies, the cold-consumer path) and **with** ``If-None-Match``
  (``304`` answers, the steady-state consumer path);
* ingest-to-publish latency — the client-observed duration of each
  ``POST /ingest`` that crossed the micro-batch threshold, which covers
  admission, any recompute, ledger re-validation and the response.

The headline assertion is structural, not a wall-clock gate: a ``304``
revalidation must not be slower than shipping the full body, otherwise
the ETag cache is not doing its job.

Excluded from tier-1 runs by the ``bench`` marker; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_serve.py -m bench -s -p no:cacheprovider
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.bench.reporting import write_bench_artifact
from repro.data.datasets import make_census
from repro.serve import AnonymizationService
from repro.stream import StreamingAnonymizer
from repro.workloads.constraint_gen import proportion_constraints

pytestmark = [pytest.mark.bench, pytest.mark.serve]

N_ROWS = 800
MICRO_BATCH = 100
BOOTSTRAP = 400
K = 5
N_CONSTRAINTS = 4
FETCH_SAMPLES = 200


class ServiceThread:
    """Run one service on a dedicated event-loop thread."""

    def __init__(self, service: AnonymizationService):
        self.service = service
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        assert self._ready.wait(timeout=30), "service did not start"
        return self

    def __exit__(self, *exc) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.port = await self.service.start()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_release_serving_throughput():
    relation = make_census(seed=0, n_rows=N_ROWS)
    sigma = proportion_constraints(relation, N_CONSTRAINTS, k=K, lower_cap=8, seed=0)
    rows = [row for _, row in relation]

    engine = StreamingAnonymizer(
        relation.schema, sigma, K,
        bootstrap=BOOTSTRAP, seed=0, solver="auto",
    )
    service = AnonymizationService(engine, micro_batch=MICRO_BATCH)
    with ServiceThread(service) as running:
        conn = http.client.HTTPConnection("127.0.0.1", running.port)

        # -- ingest-to-publish ------------------------------------------
        ingest_latencies: list[float] = []
        publish_latencies: list[float] = []
        for begin in range(0, len(rows), MICRO_BATCH):
            payload = json.dumps(
                {"rows": [list(r) for r in rows[begin:begin + MICRO_BATCH]]}
            )
            start = time.perf_counter()
            conn.request(
                "POST", "/ingest", body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            elapsed = time.perf_counter() - start
            assert response.status == 202
            ingest_latencies.append(elapsed)
            if body["published"]:
                publish_latencies.append(elapsed)
        conn.request("POST", "/flush", body="{}")
        response = conn.getresponse()
        response.read()
        assert response.status == 202
        assert engine.release is not None

        # -- release fetches --------------------------------------------
        conn.request("GET", "/release")
        response = conn.getresponse()
        etag = response.getheader("ETag")
        body_bytes = len(response.read())
        assert response.status == 200 and etag

        full_latencies: list[float] = []
        for _ in range(FETCH_SAMPLES):
            start = time.perf_counter()
            conn.request("GET", "/release")
            response = conn.getresponse()
            response.read()
            full_latencies.append(time.perf_counter() - start)
            assert response.status == 200

        revalidate_latencies: list[float] = []
        for _ in range(FETCH_SAMPLES):
            start = time.perf_counter()
            conn.request("GET", "/release", headers={"If-None-Match": etag})
            response = conn.getresponse()
            response.read()
            revalidate_latencies.append(time.perf_counter() - start)
            assert response.status == 304

        conn.request("GET", "/metrics")
        metrics_text = conn.getresponse().read().decode()
        conn.close()

    full_p50 = percentile(full_latencies, 0.50)
    revalidate_p50 = percentile(revalidate_latencies, 0.50)
    # Loopback makes the two paths near-identical in wall clock (both are
    # one cached-buffer write), so gate on "not meaningfully slower"
    # rather than a strict ordering that loses to scheduler noise.
    assert revalidate_p50 <= full_p50 * 1.5, (
        f"304 revalidation (p50 {revalidate_p50:.6f}s) slower than full "
        f"fetch (p50 {full_p50:.6f}s)"
    )
    assert f'name="serve.release_not_modified"}} {FETCH_SAMPLES}' in metrics_text

    results = {
        "n": N_ROWS,
        "k": K,
        "micro_batch": MICRO_BATCH,
        "bootstrap": BOOTSTRAP,
        "release_body_bytes": body_bytes,
        "fetch_samples": FETCH_SAMPLES,
        "fetch_p50_s": round(full_p50, 6),
        "fetch_p99_s": round(percentile(full_latencies, 0.99), 6),
        "revalidate_p50_s": round(revalidate_p50, 6),
        "revalidate_p99_s": round(percentile(revalidate_latencies, 0.99), 6),
        "ingest_p50_s": round(percentile(ingest_latencies, 0.50), 6),
        "ingest_max_s": round(max(ingest_latencies), 6),
        "publish_latencies_s": [round(t, 6) for t in publish_latencies],
        "releases": engine.stats.releases,
        "release_modes": [s.mode for s in engine.ledger.stamps],
        "extend_ratio": round(engine.stats.extend_ratio, 4),
    }
    write_bench_artifact(
        "serve",
        results,
        config={
            "n_rows": N_ROWS,
            "k": K,
            "micro_batch": MICRO_BATCH,
            "bootstrap": BOOTSTRAP,
        },
        metrics={
            "fetch_p50_s": results["fetch_p50_s"],
            "fetch_p99_s": results["fetch_p99_s"],
            "revalidate_p50_s": results["revalidate_p50_s"],
            "ingest_p50_s": results["ingest_p50_s"],
        },
    )
    print(
        f"\nrelease fetch: p50={results['fetch_p50_s']}s "
        f"p99={results['fetch_p99_s']}s ({body_bytes} bytes); "
        f"revalidate (304): p50={results['revalidate_p50_s']}s "
        f"p99={results['revalidate_p99_s']}s; "
        f"ingest: p50={results['ingest_p50_s']}s "
        f"max={results['ingest_max_s']}s over "
        f"{len(ingest_latencies)} batches, {engine.stats.releases} releases"
    )
