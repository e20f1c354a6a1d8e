"""Tests for the anonymization service (``repro.serve``).

Handler-level coverage drives :meth:`AnonymizationService.handle` with
constructed :class:`Request` objects inside a private event loop; one
end-to-end test exercises the real socket path (keep-alive, ETag
revalidation) over ``asyncio`` streams.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading

import pytest

from repro import obs
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.data.loaders import schema_from_dict
from repro.data.relation import Relation, Schema
from repro.io import CsvBackend
from repro.serve import AnonymizationService, Request, Response, ServiceCollector
from repro.serve.http import HttpServer, _render
from repro.serve.service import (
    OPEN_TRACE_CAP,
    SPAN_RETENTION,
    TRACE_RETENTION,
    TRACE_SPAN_CAP,
)
from repro.stream import StreamingAnonymizer

pytestmark = pytest.mark.serve


def make_schema() -> Schema:
    return Schema.from_names(qi=["A", "B"], sensitive=["S"])


ROWS = [
    ("a1", "b1", "s1"),
    ("a1", "b1", "s2"),
    ("a2", "b2", "s1"),
    ("a2", "b2", "s3"),
]


def make_service(**kwargs) -> AnonymizationService:
    engine = StreamingAnonymizer(
        make_schema(), ConstraintSet(), 2, bootstrap=4, solver="auto"
    )
    return AnonymizationService(engine, **kwargs)


def request(method: str, path: str, payload=None, headers=None) -> Request:
    body = json.dumps(payload).encode() if payload is not None else b""
    return Request(
        method=method,
        path=path,
        query={},
        headers={k.lower(): v for k, v in (headers or {}).items()},
        body=body,
    )


def drive(service: AnonymizationService, *requests: Request) -> list[Response]:
    """Start the service, run the requests through the handler, stop it."""

    async def _run() -> list[Response]:
        await service.start()
        try:
            return [await service.handle(r) for r in requests]
        finally:
            await service.stop()

    return asyncio.run(_run())


class TestLifecycle:
    def test_healthz_before_first_release(self):
        (response,) = drive(make_service(), request("GET", "/healthz"))
        payload = json.loads(response.body)
        assert response.status == 200
        assert payload["status"] == "ok"
        assert payload["sequence"] is None
        assert payload["buffered"] == 0

    def test_sink_installed_and_restored(self):
        service = make_service()

        async def _run():
            before = obs.active_sink()
            await service.start()
            installed = obs.active_sink()
            await service.stop()
            return before, installed, obs.active_sink()

        before, installed, after = asyncio.run(_run())
        assert installed is service.collector
        assert after is before


class TestIngest:
    def test_small_ingest_buffers(self):
        service = make_service(micro_batch=100)
        ingest, health = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS[:2]]}),
            request("GET", "/healthz"),
        )
        payload = json.loads(ingest.body)
        assert ingest.status == 202
        assert payload == {
            "accepted": 2,
            "buffered": 2,
            "published": [],
            "sequence": None,
            "pending": 0,
        }
        assert json.loads(health.body)["buffered"] == 2

    def test_micro_batch_publishes(self):
        service = make_service(micro_batch=4)
        (response,) = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
        )
        payload = json.loads(response.body)
        assert payload["published"] == [1]
        assert payload["sequence"] == 1
        assert service.collector.counters[obs.SERVE_PUBLISHES] == 1
        assert service.collector.counters[obs.SERVE_INGESTED_ROWS] == 4

    def test_dict_rows(self):
        service = make_service(micro_batch=4)
        names = make_schema().names
        rows = [dict(zip(names, r)) for r in ROWS]
        (response,) = drive(service, request("POST", "/ingest", {"rows": rows}))
        assert json.loads(response.body)["published"] == [1]

    def test_flush_drains_buffer(self):
        service = make_service(micro_batch=100)
        _, flush = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
            request("POST", "/flush"),
        )
        assert json.loads(flush.body)["published"] == [1]
        assert service.engine.pending_count == 0

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"rows": "nope"}, 400),
            ({}, 400),
            ({"rows": [["too", "short"]]}, 400),
            ({"rows": [{"A": "a", "B": "b"}]}, 400),
            ({"rows": [42]}, 400),
            ({"rows": [["a2", [1, 2], "s3"]]}, 400),
            ({"rows": [{"A": "a", "B": {"y": 1}, "S": "s"}]}, 400),
        ],
    )
    def test_bad_rows_rejected(self, payload, match):
        service = make_service()
        with pytest.raises(Exception) as exc_info:
            drive(service, request("POST", "/ingest", payload))
        assert getattr(exc_info.value, "status", None) == match
        assert service.collector.counters[obs.SERVE_ERRORS] == 1

    def test_rejected_row_is_not_buffered(self):
        """A row with an array cell is refused before buffering, so a good
        bootstrap sent after it still publishes release 1."""
        service = make_service(micro_batch=4)
        bad = [list(r) for r in ROWS[:3]] + [["a2", [1, 2], "s3"]]

        async def _run():
            await service.start()
            try:
                with pytest.raises(Exception) as exc_info:
                    await service.handle(
                        request("POST", "/ingest", {"rows": bad})
                    )
                good = await service.handle(
                    request("POST", "/ingest", {"rows": [list(r) for r in ROWS]})
                )
                return exc_info.value, good
            finally:
                await service.stop()

        error, good = asyncio.run(_run())
        assert getattr(error, "status", None) == 400
        assert "rows[3]" in str(error)
        assert json.loads(good.body)["published"] == [1]
        assert service.engine.pending_count == 0


class TestReleases:
    def publish(self, service):
        return request("POST", "/ingest", {"rows": [list(r) for r in ROWS]})

    def test_release_404_before_publish(self):
        service = make_service()
        with pytest.raises(Exception) as exc_info:
            drive(service, request("GET", "/release"))
        assert exc_info.value.status == 404

    def test_release_etag_and_revalidation(self):
        service = make_service(micro_batch=4)
        _, full, *_ = drive(
            service, self.publish(service), request("GET", "/release")
        )
        assert full.status == 200
        etag = full.headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        assert full.headers["X-Release-Sequence"] == "1"
        assert full.body.startswith(b"__tid__,A,B,S")

        service2 = make_service(micro_batch=4)
        _, fresh, not_modified, mismatched = drive(
            service2,
            self.publish(service2),
            request("GET", "/release"),
            request("GET", "/release", headers={"If-None-Match": etag}),
            request("GET", "/release", headers={"If-None-Match": '"stale"'}),
        )
        assert fresh.headers["ETag"] == etag  # content-addressed: same body
        assert not_modified.status == 304
        assert mismatched.status == 200
        counters = service2.collector.counters
        assert counters[obs.SERVE_RELEASE_FETCHES] == 2
        assert counters[obs.SERVE_RELEASE_NOT_MODIFIED] == 1

    def test_sequence_addressing(self):
        service = make_service(micro_batch=4)
        more = [("a1", "b1", "s7"), ("a2", "b2", "s8"),
                ("a3", "b3", "s1"), ("a3", "b3", "s2")]
        _, _, head, listing = drive(
            service,
            self.publish(service),
            request("POST", "/ingest", {"rows": [list(r) for r in more]}),
            request("GET", "/release/2"),
            request("GET", "/releases"),
        )
        assert head.status == 200
        stamps = json.loads(listing.body)
        assert stamps["head"] == 2
        assert [s["sequence"] for s in stamps["releases"]] == [1, 2]
        with pytest.raises(Exception) as exc_info:
            drive(service, request("GET", "/release/99"))
        assert exc_info.value.status == 404

    def test_superseded_sequence_is_gone(self):
        service = make_service(micro_batch=4)
        more = [("a1", "b1", "s7"), ("a2", "b2", "s8"),
                ("a3", "b3", "s1"), ("a3", "b3", "s2")]
        with pytest.raises(Exception) as exc_info:
            drive(
                service,
                self.publish(service),
                request("POST", "/ingest", {"rows": [list(r) for r in more]}),
                request("GET", "/release/1"),
            )
        assert exc_info.value.status == 410

    def test_write_back_to_backend(self, tmp_path):
        backend = CsvBackend(tmp_path / "data.csv", schema=make_schema())
        service = make_service(micro_batch=4, release_backend=backend)
        drive(service, self.publish(service))
        assert (tmp_path / "data_release_0001.csv").exists()


class TestIntrospection:
    def test_schema_round_trips(self):
        (response,) = drive(make_service(), request("GET", "/schema"))
        assert schema_from_dict(json.loads(response.body)) == make_schema()

    def test_metrics_exposition(self):
        service = make_service(micro_batch=4)
        *_, metrics = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
            request("GET", "/release"),
            request("GET", "/metrics"),
        )
        text = metrics.body.decode()
        assert 'repro_events_total{name="serve.requests"}' in text
        assert 'repro_events_total{name="serve.publishes"} 1' in text
        assert 'repro_events_total{name="serve.ingested_rows"} 4' in text
        assert 'repro_events_total{name="stream.releases_published"} 1' in text
        assert 'repro_span_count{name="serve.publish"} 1' in text
        assert "repro_release_sequence 1" in text
        assert "repro_uptime_seconds" in text

    def test_unknown_route_and_bad_method(self):
        with pytest.raises(Exception) as exc_info:
            drive(make_service(), request("GET", "/nope"))
        assert exc_info.value.status == 404
        with pytest.raises(Exception) as exc_info:
            drive(make_service(), request("DELETE", "/release"))
        assert exc_info.value.status == 405


class TestTransport:
    def test_render_304_has_no_body(self):
        raw = _render(
            Response(status=304, body=b"should-vanish"), keep_alive=True
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b""
        assert b"Content-Length: 0" in head

    def test_render_derives_content_length(self):
        raw = _render(Response.text("hello"), keep_alive=False)
        assert b"Content-Length: 5" in raw
        assert b"Connection: close" in raw
        assert raw.endswith(b"hello")

    def test_collector_caps_span_retention(self):
        collector = ServiceCollector()
        for _ in range(2 * SPAN_RETENTION + 10):
            collector.emit_span(
                obs.SpanEvent(name="serve.request", start=0.0, duration=0.001)
            )
        assert len(collector.spans) <= 2 * SPAN_RETENTION
        # The histogram keeps the exact totals the span list no longer holds.
        assert collector.hists["serve.request"].count == 2 * SPAN_RETENTION + 10


#: Rows whose bootstrap release schedules two independent constraint
#: components (S[s1] and S[s2] touch disjoint tuples via the s3 padding),
#: so a ``max_workers`` engine exercises the pooled snapshot-replay path.
POOLED_ROWS = [
    ("a1", "b1", "s1"), ("a1", "b1", "s1"),
    ("a2", "b2", "s2"), ("a2", "b2", "s2"),
    ("a3", "b3", "s1"), ("a3", "b3", "s2"),
    ("a4", "b4", "s3"), ("a4", "b4", "s3"),
]

CALLER_TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


def make_pooled_service(**kwargs) -> AnonymizationService:
    constraints = ConstraintSet(
        [
            DiversityConstraint("S", "s1", 1, 8),
            DiversityConstraint("S", "s2", 1, 8),
        ]
    )
    engine = StreamingAnonymizer(
        make_schema(), constraints, 2, bootstrap=8, solver="auto",
        max_workers=2,
    )
    return AnonymizationService(engine, micro_batch=8, **kwargs)


def span_names(node: dict) -> set[str]:
    names = {node["name"]}
    for child in node["children"]:
        names |= span_names(child)
    return names


def assert_ids_link(node: dict) -> None:
    """Every node carries a span id; every child names its parent's id."""
    assert node["span_id"]
    for child in node["children"]:
        assert child["parent_id"] == node["span_id"]
        assert_ids_link(child)


class TestTracing:
    def test_response_carries_traceparent(self):
        (response,) = drive(make_service(), request("GET", "/healthz"))
        ctx = obs.parse_traceparent(response.headers["traceparent"])
        assert ctx is not None

    def test_caller_traceparent_adopted(self):
        service = make_service()
        ingest, = drive(
            service,
            request(
                "POST", "/ingest", {"rows": [list(r) for r in ROWS[:2]]},
                headers={"traceparent": CALLER_TRACEPARENT},
            ),
        )
        echoed = obs.parse_traceparent(ingest.headers["traceparent"])
        assert echoed.trace_id == "ab" * 16
        # The echoed span is the request root the service minted — not the
        # caller's span, which is its *parent*.
        assert echoed.span_id != "cd" * 8

    @pytest.mark.parametrize(
        "header",
        [
            "not-a-traceparent",
            "00-" + "ab" * 16 + "-" + "cd" * 8,        # missing flags
            "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",  # zero trace id
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # invalid version
            "00-" + "xy" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
        ],
    )
    def test_malformed_traceparent_gets_fresh_trace(self, header):
        (response,) = drive(
            make_service(),
            request("GET", "/healthz", headers={"traceparent": header}),
        )
        ctx = obs.parse_traceparent(response.headers["traceparent"])
        assert ctx is not None
        assert ctx.trace_id != "ab" * 16

    def test_trace_tree_links_request_to_workers(self):
        """The ISSUE acceptance tree: one explicit-parent chain from the
        request root through the publish hop and the engine down to the
        pool workers' replayed spans."""
        service = make_pooled_service()
        ingest, trace = drive(
            service,
            request(
                "POST", "/ingest", {"rows": [list(r) for r in POOLED_ROWS]},
                headers={"traceparent": CALLER_TRACEPARENT},
            ),
            request("GET", "/trace/" + "ab" * 16),
        )
        assert json.loads(ingest.body)["published"] == [1]
        payload = json.loads(trace.body)
        assert payload["state"] == "completed"
        assert payload["status"] == 202
        assert payload["method"] == "POST"
        (root,) = payload["spans"]
        assert root["name"] == obs.SPAN_SERVE_REQUEST
        # The root's parent is the *caller's* span, outside this tree.
        assert root["parent_id"] == "cd" * 8
        assert root["span_id"] == payload["root_span_id"]
        assert_ids_link(root)
        names = span_names(root)
        assert {
            obs.SPAN_SERVE_PUBLISH,
            obs.SPAN_STREAM_INGEST,
            obs.SPAN_STREAM_PUBLISH,
            obs.SPAN_PARALLEL_SCHEDULE,
        } <= names
        # The pooled per-component worker spans fold under the scheduling
        # span — explicit ids, not extra roots.
        (publish,) = [
            c for c in root["children"] if c["name"] == obs.SPAN_SERVE_PUBLISH
        ]
        schedule = None
        stack = [publish]
        while stack:
            node = stack.pop()
            if node["name"] == obs.SPAN_PARALLEL_SCHEDULE:
                schedule = node
            stack.extend(node["children"])
        assert schedule is not None
        worker_names = [c["name"] for c in schedule["children"]]
        assert worker_names.count(obs.SPAN_COLORING_SEARCH) == 2
        assert worker_names.count(obs.SPAN_GRAPH_BUILD) == 2

    def test_trace_unknown_id_404(self):
        with pytest.raises(Exception) as exc_info:
            drive(make_service(), request("GET", "/trace/" + "99" * 16))
        assert exc_info.value.status == 404

    def test_traces_index(self):
        service = make_service(micro_batch=4)
        _, _, index = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
            request("GET", "/healthz"),
            request("GET", "/traces"),
        )
        payload = json.loads(index.body)
        assert payload["retention"] == TRACE_RETENTION
        # Newest first: healthz, then the ingest.  The /traces request
        # itself emitted no span yet (spans report on close), so nothing
        # is open.
        assert [e["path"] for e in payload["traces"]] == ["/healthz", "/ingest"]
        assert all(e["spans"] >= 1 for e in payload["traces"])
        assert payload["open"] == []

    def test_releases_stamp_trace_ids(self):
        service = make_service(micro_batch=4)
        _, listing = drive(
            service,
            request(
                "POST", "/ingest", {"rows": [list(r) for r in ROWS]},
                headers={"traceparent": CALLER_TRACEPARENT},
            ),
            request("GET", "/releases"),
        )
        stamps = json.loads(listing.body)["releases"]
        assert [s["trace_id"] for s in stamps] == ["ab" * 16]

    def test_error_requests_complete_their_trace(self):
        service = make_service()

        async def _run():
            await service.start()
            try:
                with pytest.raises(Exception) as exc_info:
                    await service.handle(
                        request(
                            "GET", "/nope",
                            headers={"traceparent": CALLER_TRACEPARENT},
                        )
                    )
                assert exc_info.value.status == 404
                return await service.handle(
                    request("GET", "/trace/" + "ab" * 16)
                )
            finally:
                await service.stop()

        trace = asyncio.run(_run())
        payload = json.loads(trace.body)
        assert payload["state"] == "completed"
        assert payload["status"] == 404
        assert payload["error"]


class TestTimeseries:
    def test_points_record_counter_deltas(self):
        service = make_service(micro_batch=4)
        _, first, second = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
            request("GET", "/timeseries"),
            request("GET", "/timeseries"),
        )
        payload = json.loads(first.body)
        assert payload["capacity"] >= 2
        # One point sampled after the publish, one on the read itself.
        assert len(payload["points"]) == 2
        publish_point = payload["points"][0]
        assert publish_point["counters"][obs.SERVE_PUBLISHES] == 1
        assert publish_point["counters"][obs.SERVE_INGESTED_ROWS] == 4
        assert publish_point["publish_latency"]["count"] == 1
        # Deltas, not totals: the second read's new point must not count
        # the publish again.
        last = json.loads(second.body)["points"][-1]
        assert obs.SERVE_PUBLISHES not in last["counters"]


class TestSlo:
    def test_healthz_slo_ok(self):
        service = make_service(micro_batch=4)
        _, health = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
            request("GET", "/healthz"),
        )
        payload = json.loads(health.body)
        assert payload["status"] == "ok"
        slo = payload["slo"]
        assert slo["ok"]
        assert slo["ingest_to_publish"]["publishes"] == 1
        assert slo["ingest_to_publish"]["p99_s"] <= slo["ingest_to_publish"]["target_p99_s"]
        assert slo["error_budget"]["burn"] == 0.0

    def test_latency_violation_degrades(self):
        # An absurd target: any real publish exceeds a 1ns p99 objective.
        service = make_service(micro_batch=4, slo_p99_s=1e-9)
        _, health = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
            request("GET", "/healthz"),
        )
        payload = json.loads(health.body)
        assert payload["status"] == "degraded"
        assert not payload["slo"]["ingest_to_publish"]["ok"]
        assert payload["slo"]["error_budget"]["ok"]

    def test_error_burn_degrades(self):
        service = make_service(error_budget=0.01)

        async def _run():
            await service.start()
            try:
                with pytest.raises(Exception):
                    await service.handle(request("GET", "/nope"))
                return await service.handle(request("GET", "/healthz"))
            finally:
                await service.stop()

        payload = json.loads(asyncio.run(_run()).body)
        assert payload["status"] == "degraded"
        budget = payload["slo"]["error_budget"]
        assert budget["errors"] == 1
        assert budget["burn"] > 1.0

    def test_invalid_slo_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_service(slo_p99_s=0.0)
        with pytest.raises(ValueError):
            make_service(error_budget=0.0)
        with pytest.raises(ValueError):
            make_service(error_budget=1.5)


def traced_event(trace_id: str, index: int = 0) -> obs.SpanEvent:
    return obs.SpanEvent(
        name="serve.request",
        start=0.0,
        duration=0.001,
        trace_id=trace_id,
        span_id=f"{index:016x}",
        parent_id=None,
    )


class TestTraceRetention:
    def test_open_cap_never_evicts_the_newest(self):
        collector = ServiceCollector()
        for i in range(OPEN_TRACE_CAP + 5):
            collector.emit_span(traced_event(f"{i:032x}", i))
        assert len(collector._open) == OPEN_TRACE_CAP
        # The five oldest were displaced; the in-flight head survived.
        newest = f"{OPEN_TRACE_CAP + 4:032x}"
        assert newest in collector._open
        for i in range(5):
            assert f"{i:032x}" not in collector._open
        assert collector.counters[obs.SERVE_TRACES_EVICTED] == 5

    def test_span_cap_bounds_one_trace(self):
        collector = ServiceCollector()
        trace_id = "aa" * 16
        for i in range(TRACE_SPAN_CAP + 10):
            collector.emit_span(traced_event(trace_id, i))
        entry = collector.complete_trace(trace_id, status=200)
        assert len(entry["spans"]) == TRACE_SPAN_CAP

    def test_completed_ring_is_bounded(self):
        collector = ServiceCollector()
        for i in range(TRACE_RETENTION + 7):
            trace_id = f"{i:032x}"
            collector.emit_span(traced_event(trace_id, i))
            collector.complete_trace(trace_id, status=200)
        completed, open_ids = collector.trace_index()
        assert len(completed) == TRACE_RETENTION
        assert open_ids == []
        # Newest first, oldest evicted.
        assert completed[0]["trace_id"] == f"{TRACE_RETENTION + 6:032x}"
        assert collector.trace(f"{0:032x}") is None

    def test_concurrent_hammering_respects_caps(self):
        """Satellite check: multi-threaded span arrival (the event loop +
        executor threads in production) never overruns a bound and never
        loses the trace a thread is actively completing."""
        collector = ServiceCollector()
        threads, per_thread = 8, 40
        failures: list[str] = []

        def worker(tid: int) -> None:
            for j in range(per_thread):
                trace_id = f"{tid:016x}{j:016x}"
                for k in range(3):
                    collector.emit_span(traced_event(trace_id, k))
                    if len(collector._open) > OPEN_TRACE_CAP:
                        failures.append("open cap exceeded")
                entry = collector.complete_trace(trace_id, status=200)
                if entry is None:
                    # Only possible if the open bucket was evicted mid-
                    # flight — with 8 concurrent traces against a cap of
                    # 64 that would be a retention bug.
                    failures.append(f"in-flight trace {trace_id} dropped")
                if len(collector._completed) > TRACE_RETENTION:
                    failures.append("completed ring exceeded")

        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert failures == []
        assert len(collector._open) == 0
        assert len(collector._completed) == TRACE_RETENTION
        total = threads * per_thread
        assert collector.counters[obs.SERVE_TRACES_COMPLETED] == total
        assert collector.counters[obs.SERVE_TRACES_EVICTED] == (
            total - TRACE_RETENTION
        )


BUCKET_RE = re.compile(
    r'^repro_span_duration_seconds_bucket\{name="([^"]+)",le="([^"]+)"\} (\d+)$'
)


class TestPrometheusHistogram:
    def exposition(self) -> str:
        service = make_service(micro_batch=4)
        *_, metrics = drive(
            service,
            request("POST", "/ingest", {"rows": [list(r) for r in ROWS]}),
            request("GET", "/metrics"),
        )
        return metrics.body.decode()

    def test_bucket_series_are_valid(self):
        text = self.exposition()
        assert "# TYPE repro_span_duration_seconds histogram" in text
        series: dict[str, list[tuple[str, int]]] = {}
        for line in text.splitlines():
            match = BUCKET_RE.match(line)
            if match:
                name, le, value = match.groups()
                series.setdefault(name, []).append((le, int(value)))
        assert obs.SPAN_SERVE_PUBLISH in series
        assert obs.SPAN_STREAM_INGEST in series
        for name, buckets in series.items():
            les = [le for le, _ in buckets]
            counts = [count for _, count in buckets]
            # +Inf is mandatory and last; finite edges strictly increase.
            assert les[-1] == "+Inf"
            finite = [float(le) for le in les[:-1]]
            assert finite == sorted(finite)
            assert len(set(finite)) == len(finite)
            # Cumulative: non-decreasing, and +Inf equals _count.
            assert counts == sorted(counts)
            count_line = f'repro_span_duration_seconds_count{{name="{name}"}}'
            (declared,) = [
                line for line in text.splitlines()
                if line.startswith(count_line)
            ]
            assert int(declared.split()[-1]) == counts[-1]
            sum_line = f'repro_span_duration_seconds_sum{{name="{name}"}}'
            (declared_sum,) = [
                line for line in text.splitlines()
                if line.startswith(sum_line)
            ]
            assert float(declared_sum.split()[-1]) >= 0.0

    def test_empty_histograms_are_omitted(self):
        service = make_service()
        (metrics,) = drive(service, request("GET", "/metrics"))
        text = metrics.body.decode()
        # Only the in-flight serve.request histogram could exist, and it
        # has no closed spans yet — no bucket lines at all.
        assert "repro_span_duration_seconds_bucket" not in text


class TestSocketEndToEnd:
    def test_end_to_end_over_socket(self):
        service = make_service(micro_batch=4)

        async def exchange(reader, writer, method, path, payload=None, extra=""):
            body = json.dumps(payload).encode() if payload is not None else b""
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n{extra}\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            lines = head.decode().split("\r\n")
            status = int(lines[0].split(" ")[1])
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            data = await reader.readexactly(length) if length else b""
            return status, headers, data

        async def _run():
            port = await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            # Same keep-alive connection end to end: ingest, fetch,
            # revalidate.
            status, _, body = await exchange(
                reader, writer, "POST", "/ingest",
                {"rows": [list(r) for r in ROWS]},
            )
            assert status == 202
            assert json.loads(body)["published"] == [1]
            status, headers, body = await exchange(
                reader, writer, "GET", "/release"
            )
            assert status == 200 and body.startswith(b"__tid__,A,B,S")
            etag = headers["etag"]
            status, _, body = await exchange(
                reader, writer, "GET", "/release",
                extra=f"If-None-Match: {etag}\r\n",
            )
            assert status == 304 and body == b""
            writer.close()
            await writer.wait_closed()
            await service.stop()

        asyncio.run(_run())


class TestMalformedRequests:
    """Unparseable request heads get a 400 and a closed connection — never
    a dropped socket with no response."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /ingest HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            b"POST /ingest HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET http://[bad HTTP/1.1\r\nHost: t\r\n\r\n",
        ],
        ids=["non-numeric-length", "negative-length", "bad-target"],
    )
    def test_gets_400_and_close(self, raw):
        async def handler(request: Request) -> Response:
            raise AssertionError("a malformed request must not reach the handler")

        async def _run():
            server = HttpServer(handler)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(raw)
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(), 5)
                # read() returns only at EOF: the server closed its end.
                rest = await asyncio.wait_for(reader.read(), 5)
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()
            return status_line, rest

        status_line, rest = asyncio.run(_run())
        assert status_line.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in rest
