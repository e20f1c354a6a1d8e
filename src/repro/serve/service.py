"""The long-running anonymization service.

:class:`AnonymizationService` wraps a :class:`repro.stream.
StreamingAnonymizer` behind the HTTP transport of :mod:`repro.serve.http`:

* ``POST /ingest`` — accepts arrival rows (JSON), accumulates them into
  micro-batches, and drives the engine's extend → scoped → full publish
  decision **off the event loop** (a worker thread), so the service keeps
  answering reads while a recompute runs.  With ``solver="auto"`` a
  budget-exhausted recompute degrades to the warm-started approximation
  tier instead of failing the batch.
* ``POST /flush`` — force-drains the buffer (end of stream).
* ``GET /release`` — the current published release as CSV, with a strong
  content-hash ``ETag``; ``If-None-Match`` revalidation answers ``304
  Not Modified`` without re-serializing anything.  ``GET /release/<n>``
  addresses a specific sequence (only the head is retrievable — earlier
  sequences answer ``410 Gone`` with their metadata stamp).
* ``GET /releases`` — the validated metadata trail (one stamp per
  publication), ``GET /schema`` — the stream schema.
* ``GET /healthz`` and ``GET /metrics`` — liveness (with the SLO block:
  ingest-to-publish p99 target + error-budget burn) and the ``repro.obs``
  counter/histogram snapshot in Prometheus text format, including
  ``repro_span_duration_seconds`` histogram exposition.
* ``GET /trace/<trace_id>``, ``GET /traces``, ``GET /timeseries`` — the
  live-telemetry surface: per-request span trees from the bounded trace
  ring, the recent-trace index, and the ring-buffer time series of
  counter deltas + publish-latency snapshots.

**Tracing model.**  Every request runs under a
:class:`repro.obs.tracectx.TraceContext` — taken from a W3C
``traceparent`` request header when present, freshly minted otherwise —
so each span the request emits (the ``serve.request`` root, the
``serve.publish`` hop, the engine's ``stream.*`` spans on the executor
thread, and the pool workers' ``coloring.*`` spans shipped home as
snapshots) carries explicit ``trace_id``/``span_id``/``parent_id``
coordinates.  The response echoes a ``traceparent`` naming the request's
root span, and the completed tree is retrievable at ``GET
/trace/<trace_id>`` until the ring evicts it.

**Publish/consistency model.**  The engine publishes through
:class:`repro.stream.ReleaseLedger`, which re-validates the full (k, Σ)
contract before swapping the head — so a release becomes visible to
``GET /release`` only after validation, and every response is built from
one immutable head (no torn reads: a request that started against
sequence *n* serves sequence *n* complete).  Releases are immutable once
published; read traffic therefore scales behind the ETag cache — the
overwhelmingly common revalidation answer is a 304 with no body.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Mapping, Optional, Sequence

from .. import obs
from ..data.loaders import relation_to_csv_bytes, schema_to_dict
from ..io.backends import Backend
from ..obs import tracectx
from ..obs.analyze import build_forest, forest_payload
from ..obs.hist import Histogram
from ..obs.sinks import Collector, SpanEvent
from ..stream.engine import StreamingAnonymizer
from .http import HttpError, HttpServer, Request, Response

#: Span events retained verbatim by the service collector; older events
#: fold into the per-name histograms and counters, which are exact and
#: bounded, so a long-running service does not grow without bound.
SPAN_RETENTION = 4_096

#: Completed per-request span trees kept in the trace ring (oldest trees
#: evict first; ``serve.traces_evicted`` counts the displacements).
TRACE_RETENTION = 128

#: Traces that may be open (spans arriving, request not finished) at once.
#: Exceeding it evicts the *oldest* open trace — never the one currently
#: accumulating, so the in-flight head always survives to completion.
OPEN_TRACE_CAP = 64

#: Spans retained per trace; a pathological request past the cap keeps its
#: earliest spans (the request root closes last and is never dropped — it
#: arrives via ``complete_trace`` metadata, not the bucket).
TRACE_SPAN_CAP = 1_024

#: Points kept by the ``/timeseries`` ring buffer.
TIMESERIES_CAPACITY = 256


class ServiceCollector(Collector):
    """A :class:`Collector` with a bounded span list (daemon lifetime),
    plus the per-request trace ring.

    Spans stamped with a ``trace_id`` are additionally grouped into
    per-trace buckets; :meth:`complete_trace` seals a bucket into the
    bounded completed ring the ``/trace`` endpoints serve.  All bounds are
    hard caps: ``OPEN_TRACE_CAP`` open buckets (oldest evicted, never the
    newest), ``TRACE_SPAN_CAP`` spans per bucket, ``TRACE_RETENTION``
    completed trees.  A trace id reused by a later request replaces the
    earlier tree (latest wins).  Bucket mutation takes a lock: spans
    arrive from the event loop and from executor threads concurrently.
    """

    def __init__(self) -> None:
        super().__init__()
        self._trace_lock = threading.Lock()
        self._open: OrderedDict[str, list[SpanEvent]] = OrderedDict()
        self._completed: OrderedDict[str, dict] = OrderedDict()

    def emit_span(self, event: SpanEvent) -> None:
        super().emit_span(event)
        if len(self.spans) > 2 * SPAN_RETENTION:
            del self.spans[:-SPAN_RETENTION]
        trace_id = event.trace_id
        if trace_id is None:
            return
        with self._trace_lock:
            bucket = self._open.get(trace_id)
            if bucket is None:
                bucket = self._open[trace_id] = []
                evicted = 0
                while len(self._open) > OPEN_TRACE_CAP:
                    oldest = next(iter(self._open))
                    if oldest == trace_id:
                        break
                    del self._open[oldest]
                    evicted += 1
                if evicted:
                    self.emit_count(obs.SERVE_TRACES_EVICTED, evicted)
            if len(bucket) < TRACE_SPAN_CAP:
                bucket.append(event)

    def complete_trace(self, trace_id: str, **meta: Any) -> Optional[dict]:
        """Seal the open bucket for ``trace_id`` into the completed ring.

        Returns the ring entry, or None when no span of that trace was
        ever recorded (nothing to seal).  ``meta`` (status, wall, method,
        path, ...) rides along for the ``/traces`` index.
        """
        with self._trace_lock:
            spans = self._open.pop(trace_id, None)
            if spans is None:
                return None
            entry = {"trace_id": trace_id, "spans": spans, **meta}
            self._completed[trace_id] = entry
            self._completed.move_to_end(trace_id)
            evicted = 0
            while len(self._completed) > TRACE_RETENTION:
                self._completed.popitem(last=False)
                evicted += 1
            self.emit_count(obs.SERVE_TRACES_COMPLETED, 1)
            if evicted:
                self.emit_count(obs.SERVE_TRACES_EVICTED, evicted)
        return entry

    def trace(self, trace_id: str) -> Optional[dict]:
        """A completed ring entry, or a synthetic view of an open trace."""
        with self._trace_lock:
            entry = self._completed.get(trace_id)
            if entry is not None:
                return entry
            bucket = self._open.get(trace_id)
            if bucket is not None:
                return {
                    "trace_id": trace_id,
                    "spans": list(bucket),
                    "state": "open",
                }
        return None

    def trace_index(self) -> tuple[list[dict], list[str]]:
        """(completed metadata newest-first, open trace ids oldest-first)."""
        with self._trace_lock:
            completed = [
                {key: value for key, value in entry.items() if key != "spans"}
                | {"spans": len(entry["spans"])}
                for entry in reversed(self._completed.values())
            ]
            return completed, list(self._open)


class TelemetryRing:
    """Bounded time series of counter deltas + publish-latency snapshots.

    Each :meth:`sample` appends one point: the per-counter increments
    since the previous sample (zero-delta counters omitted) and the
    engine's cumulative publish-latency histogram summary at that moment.
    The deque bounds memory for a daemon sampled on every publish; the
    ``/timeseries`` endpoint serves the whole window.
    """

    def __init__(self, capacity: int = TIMESERIES_CAPACITY) -> None:
        self.capacity = capacity
        self.points: deque[dict] = deque(maxlen=capacity)
        self._last: dict[str, int] = {}

    def sample(
        self,
        counters: Mapping[str, int],
        publish_latency: Histogram,
        *,
        at_s: float,
    ) -> dict:
        deltas = {
            name: value - self._last.get(name, 0)
            for name, value in counters.items()
            if value != self._last.get(name, 0)
        }
        self._last = dict(counters)
        point = {
            "at_s": round(at_s, 3),
            "counters": deltas,
            "publish_latency": publish_latency.summary(),
        }
        self.points.append(point)
        return point


class AnonymizationService:
    """HTTP facade over one streaming anonymization engine.

    Parameters
    ----------
    engine:
        The configured :class:`StreamingAnonymizer`.  The service owns its
        execution: every engine call runs in a worker thread under one
        lock, serializing publishes while the event loop stays free.
    micro_batch:
        Arrivals accumulated before the engine sees a batch.  Small
        ingests buffer; one large ingest drains in ``micro_batch`` slices.
    release_backend:
        Optional :class:`repro.io.Backend` that every validated release
        is written back to (``write_release``), keyed by its sequence.
    slo_p99_s:
        Ingest-to-publish latency objective: the engine's publish-latency
        p99 the ``/healthz`` SLO block grades against.
    error_budget:
        Tolerated error fraction of total requests; the SLO block reports
        ``burn`` = observed error rate / budget (>1 means the budget is
        exhausted and ``/healthz`` degrades).
    """

    def __init__(
        self,
        engine: StreamingAnonymizer,
        *,
        micro_batch: int = 100,
        release_backend: Optional[Backend] = None,
        collector: Optional[Collector] = None,
        slo_p99_s: float = 0.5,
        error_budget: float = 0.01,
    ):
        if micro_batch < 1:
            raise ValueError("micro_batch must be at least 1")
        if slo_p99_s <= 0:
            raise ValueError("slo_p99_s must be positive")
        if not 0 < error_budget <= 1:
            raise ValueError("error_budget must be in (0, 1]")
        self.engine = engine
        self.micro_batch = micro_batch
        self.release_backend = release_backend
        self.collector = collector if collector is not None else ServiceCollector()
        self.slo_p99_s = slo_p99_s
        self.error_budget = error_budget
        self.timeseries = TelemetryRing()
        self._buffer: list[tuple] = []
        self._lock = asyncio.Lock()
        self._server = HttpServer(self.handle)
        self._started = time.monotonic()
        self._release_cache: Optional[tuple[int, bytes, str]] = None
        self._previous_sink = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.port

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start serving; installs the service obs sink."""
        self._previous_sink = obs.set_global_sink(self.collector)
        self._started = time.monotonic()
        return await self._server.start(host, port)

    async def stop(self) -> None:
        await self._server.stop()
        if self._previous_sink is not None:
            obs.set_global_sink(self._previous_sink)
            self._previous_sink = None

    # -- routing ---------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        # The request's trace context: the caller's traceparent when it
        # sent a valid one, a fresh trace otherwise.  Installed for the
        # whole handling scope, so every span below — including those the
        # publish hop replants on its executor thread — links into one
        # tree keyed by this trace id.
        ctx = tracectx.parse_traceparent(request.headers.get("traceparent"))
        if ctx is None:
            ctx = tracectx.new_trace()
        response: Optional[Response] = None
        error: Optional[BaseException] = None
        status = 500
        with tracectx.use_trace(ctx):
            with obs.span(obs.SPAN_SERVE_REQUEST) as sp:
                obs.incr(obs.SERVE_REQUESTS)
                try:
                    response = await self._route(request)
                    status = response.status
                except HttpError as exc:
                    if exc.status >= 400:
                        obs.incr(obs.SERVE_ERRORS)
                    status, error = exc.status, exc
                except Exception as exc:  # noqa: BLE001 — tallied, re-raised
                    obs.incr(obs.SERVE_ERRORS)
                    error = exc
        complete = getattr(self.collector, "complete_trace", None)
        if complete is not None and sp.trace_id is not None:
            meta = {
                "method": request.method,
                "path": request.path,
                "status": status,
                "wall_s": round(sp.duration, 6),
                "root_span_id": sp.span_id,
                "at_s": round(time.monotonic() - self._started, 3),
            }
            if error is not None:
                meta["error"] = f"{type(error).__name__}: {error}"
            complete(sp.trace_id, **meta)
        if error is not None:
            raise error
        if sp.span_id is not None:
            # Echo the tree's address: trace id + the request root's span
            # id, so the caller can both link its own spans and fetch
            # ``/trace/<trace_id>``.
            response.headers.setdefault(
                "traceparent",
                tracectx.TraceContext(ctx.trace_id, sp.span_id).to_traceparent(),
            )
        return response

    async def _route(self, request: Request) -> Response:
        path, method = request.path.rstrip("/") or "/", request.method
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metrics" and method == "GET":
            return self._metrics()
        if path == "/schema" and method == "GET":
            return Response.json(schema_to_dict(self.engine.schema))
        if path == "/releases" and method == "GET":
            return self._releases()
        if path == "/traces" and method == "GET":
            return self._traces()
        if path.startswith("/trace/"):
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return self._trace(path[len("/trace/"):])
        if path == "/timeseries" and method == "GET":
            return self._timeseries()
        if path == "/release" or path.startswith("/release/"):
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return self._release(request, path)
        if path == "/ingest" and method == "POST":
            return await self._ingest(request)
        if path == "/flush" and method == "POST":
            return await self._flush()
        raise HttpError(404, f"no route for {method} {request.path}")

    # -- read endpoints --------------------------------------------------------

    def _slo(self) -> dict:
        """The service-level objective block ``/healthz`` reports.

        Latency: the engine's ingest-to-publish histogram p99 against the
        configured target (vacuously met before the first publish).
        Errors: observed error rate against the configured budget —
        ``burn`` is their ratio, >1 meaning the budget is spent.
        """
        latency = self.engine.stats.publish_latency
        p99 = latency.percentile(0.99)
        latency_ok = latency.count == 0 or p99 <= self.slo_p99_s
        requests = self.collector.counters.get(obs.SERVE_REQUESTS, 0)
        errors = self.collector.counters.get(obs.SERVE_ERRORS, 0)
        error_rate = errors / requests if requests else 0.0
        burn = error_rate / self.error_budget
        return {
            "ok": latency_ok and burn <= 1.0,
            "ingest_to_publish": {
                "target_p99_s": self.slo_p99_s,
                "p99_s": round(p99, 6),
                "publishes": latency.count,
                "ok": latency_ok,
            },
            "error_budget": {
                "budget": self.error_budget,
                "requests": requests,
                "errors": errors,
                "error_rate": round(error_rate, 6),
                "burn": round(burn, 3),
                "ok": burn <= 1.0,
            },
        }

    def _healthz(self) -> Response:
        head = self.engine.release
        slo = self._slo()
        return Response.json({
            "status": "ok" if slo["ok"] else "degraded",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "sequence": head.sequence if head else None,
            "pending": self.engine.pending_count,
            "buffered": len(self._buffer),
            "slo": slo,
        })

    def _traces(self) -> Response:
        if not isinstance(self.collector, ServiceCollector):
            raise HttpError(404, "trace ring unavailable on this collector")
        completed, open_ids = self.collector.trace_index()
        return Response.json({
            "retention": TRACE_RETENTION,
            "traces": completed,
            "open": open_ids,
        })

    def _trace(self, trace_id: str) -> Response:
        if not isinstance(self.collector, ServiceCollector):
            raise HttpError(404, "trace ring unavailable on this collector")
        entry = self.collector.trace(trace_id.strip().lower())
        if entry is None:
            raise HttpError(404, f"no trace {trace_id!r} in the ring")
        payload = {key: value for key, value in entry.items() if key != "spans"}
        payload.setdefault("state", "completed")
        payload["spans"] = forest_payload(build_forest(entry["spans"]))
        return Response.json(payload)

    def _timeseries(self) -> Response:
        # Sample on read too, so a quiet service still exposes a current
        # point (publishes drive the regular cadence).
        self.timeseries.sample(
            self.collector.counters,
            self.engine.stats.publish_latency,
            at_s=time.monotonic() - self._started,
        )
        return Response.json({
            "capacity": self.timeseries.capacity,
            "points": list(self.timeseries.points),
        })

    def _releases(self) -> Response:
        stamps = [
            {
                "sequence": s.sequence,
                "mode": s.mode,
                "size": s.size,
                "admitted": s.admitted,
                "extended": s.extended,
                "recomputed": s.recomputed,
                "pending": s.pending,
                "stars": s.stars,
                "trace_id": self.engine.publish_trace(s.sequence),
            }
            for s in self.engine.ledger.stamps
        ]
        head = self.engine.release
        return Response.json({
            "head": head.sequence if head else None,
            "releases": stamps,
        })

    def _head_payload(self) -> tuple[int, bytes, str]:
        """CSV bytes + strong ETag of the head release, cached per sequence."""
        head = self.engine.release
        if head is None:
            raise HttpError(404, "no release published yet")
        cached = self._release_cache
        if cached is not None and cached[0] == head.sequence:
            return cached
        body = relation_to_csv_bytes(head.relation)
        etag = '"' + hashlib.sha256(body).hexdigest() + '"'
        self._release_cache = (head.sequence, body, etag)
        return self._release_cache

    def _release(self, request: Request, path: str) -> Response:
        head = self.engine.release
        if path.startswith("/release/"):
            try:
                wanted = int(path[len("/release/"):])
            except ValueError:
                raise HttpError(404, f"bad release sequence in {path!r}")
            if head is None or wanted > head.sequence:
                raise HttpError(404, f"release {wanted} does not exist")
            if wanted != head.sequence:
                stamp = next(
                    (s for s in self.engine.ledger.stamps
                     if s.sequence == wanted),
                    None,
                )
                if stamp is None:
                    raise HttpError(404, f"release {wanted} does not exist")
                raise HttpError(
                    410,
                    f"release {wanted} ({stamp.mode}, {stamp.size} tuples) "
                    f"was superseded; head is {head.sequence}",
                )
        sequence, body, etag = self._head_payload()
        head = self.engine.release
        headers = {
            "ETag": etag,
            "Cache-Control": "no-cache",
            "X-Release-Sequence": str(sequence),
            "X-Release-Mode": head.mode,
        }
        candidates = [
            tag.strip()
            for tag in request.headers.get("if-none-match", "").split(",")
            if tag.strip()
        ]
        if etag in candidates or "*" in candidates:
            obs.incr(obs.SERVE_RELEASE_NOT_MODIFIED)
            return Response(status=304, headers=headers)
        obs.incr(obs.SERVE_RELEASE_FETCHES)
        return Response(
            status=200, body=body,
            content_type="text/csv; charset=utf-8", headers=headers,
        )

    def _metrics(self) -> Response:
        lines = [
            "# repro.serve metrics — repro.obs counter snapshot + service gauges",
            f"repro_uptime_seconds {time.monotonic() - self._started:.3f}",
        ]
        head = self.engine.release
        lines.append(f"repro_release_sequence {head.sequence if head else 0}")
        lines.append(f"repro_pending_tuples {self.engine.pending_count}")
        lines.append(f"repro_buffered_rows {len(self._buffer)}")
        for name in sorted(self.collector.counters):
            value = self.collector.counters[name]
            lines.append(f'repro_events_total{{name="{name}"}} {value}')
        for name in sorted(self.collector.hists):
            hist = self.collector.hists[name]
            lines.append(
                f'repro_span_seconds_total{{name="{name}"}} {hist.total_s:.6f}'
            )
            lines.append(f'repro_span_count{{name="{name}"}} {hist.count}')
        # Prometheus histogram exposition of the per-span-name duration
        # histograms: cumulative ``_bucket`` series over the log2 bucket
        # edges (seconds), the mandatory ``+Inf`` bucket, ``_sum`` and
        # ``_count``.  Bucket edges stop at the last non-empty bucket —
        # cumulative counts stay valid, and 64 always-present edges per
        # name would dwarf the rest of the exposition.
        lines.append("# TYPE repro_span_duration_seconds histogram")
        for name in sorted(self.collector.hists):
            hist = self.collector.hists[name]
            if not hist.count:
                continue
            for edge_ns, cumulative in hist.cumulative_ns():
                lines.append(
                    f'repro_span_duration_seconds_bucket'
                    f'{{name="{name}",le="{edge_ns / 1e9:.9f}"}} {cumulative}'
                )
            lines.append(
                f'repro_span_duration_seconds_bucket'
                f'{{name="{name}",le="+Inf"}} {hist.count}'
            )
            lines.append(
                f'repro_span_duration_seconds_sum'
                f'{{name="{name}"}} {hist.total_ns / 1e9:.9f}'
            )
            lines.append(
                f'repro_span_duration_seconds_count{{name="{name}"}} {hist.count}'
            )
        return Response.text("\n".join(lines) + "\n")

    # -- write endpoints -------------------------------------------------------

    def _coerce_rows(self, payload: Any) -> list[tuple]:
        if not isinstance(payload, Mapping) or "rows" not in payload:
            raise HttpError(400, 'body must be a JSON object with a "rows" list')
        rows = payload["rows"]
        if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
            raise HttpError(400, '"rows" must be a list')
        names = self.engine.schema.names
        width = len(names)
        coerced = []
        for i, item in enumerate(rows):
            if isinstance(item, Mapping):
                try:
                    coerced.append(tuple(item[n] for n in names))
                except KeyError as exc:
                    raise HttpError(400, f"rows[{i}] missing attribute {exc}")
            elif isinstance(item, Sequence) and not isinstance(item, (str, bytes)):
                if len(item) != width:
                    raise HttpError(
                        400,
                        f"rows[{i}] has width {len(item)}, schema has {width}",
                    )
                coerced.append(tuple(item))
            else:
                raise HttpError(400, f"rows[{i}] must be a list or object")
            if any(isinstance(cell, (list, dict)) for cell in coerced[-1]):
                # Cells must be scalars: an unhashable cell would wedge
                # the engine's buffer, a nested one publish as a repr.
                raise HttpError(400, f"rows[{i}] has an array or object cell")
        return coerced

    async def _ingest(self, request: Request) -> Response:
        rows = self._coerce_rows(request.json())
        obs.incr(obs.SERVE_INGESTED_ROWS, len(rows))
        published = []
        async with self._lock:
            self._buffer.extend(rows)
            while len(self._buffer) >= self.micro_batch:
                batch = self._buffer[: self.micro_batch]
                del self._buffer[: self.micro_batch]
                release = await self._publish(self.engine.ingest, batch)
                if release is not None:
                    published.append(release.sequence)
        return self._accepted(len(rows), published)

    async def _flush(self) -> Response:
        published = []
        async with self._lock:
            while self._buffer:
                batch = self._buffer[: self.micro_batch]
                del self._buffer[: self.micro_batch]
                release = await self._publish(self.engine.ingest, batch)
                if release is not None:
                    published.append(release.sequence)
            release = await self._publish(self.engine.flush)
            if release is not None:
                published.append(release.sequence)
        return self._accepted(0, published)

    async def _publish(self, call, *args):
        """Run one engine call in a worker thread; write back on publish.

        The engine raises on a force-flush of an infeasible stream — that
        propagates as a 500 with the error message, matching the CLI's
        behavior of surfacing the failure rather than serving stale data.
        """
        loop = asyncio.get_running_loop()
        with obs.span(obs.SPAN_SERVE_PUBLISH):
            # Executor threads do not inherit this task's contextvars, so
            # hop the publish span's trace context over explicitly — the
            # engine's stream.* spans (and the pool workers they dispatch)
            # then link under serve.publish by id.
            ctx = tracectx.current()
            release = await loop.run_in_executor(
                None, tracectx.bind(ctx, call, *args)
            )
            if release is not None:
                obs.incr(obs.SERVE_PUBLISHES)
                if self.release_backend is not None:
                    await loop.run_in_executor(
                        None,
                        tracectx.bind(
                            ctx,
                            self.release_backend.write_release,
                            release.relation,
                            release.sequence,
                        ),
                    )
        if release is not None:
            self.timeseries.sample(
                self.collector.counters,
                self.engine.stats.publish_latency,
                at_s=time.monotonic() - self._started,
            )
        return release

    def _accepted(self, accepted: int, published: list[int]) -> Response:
        head = self.engine.release
        return Response.json(
            {
                "accepted": accepted,
                "buffered": len(self._buffer),
                "published": published,
                "sequence": head.sequence if head else None,
                "pending": self.engine.pending_count,
            },
            status=202,
        )

    async def run_forever(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Start and serve until cancelled (the CLI entry point)."""
        bound = await self.start(host, port)
        print(f"repro serve listening on http://{host}:{bound}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()
