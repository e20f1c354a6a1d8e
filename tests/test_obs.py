"""Tests for the observability layer (``repro.obs``).

Covers the four contracts the layer promises:

* **Span semantics** — nesting depth/parent tracking, monotonic durations,
  decorator form, durations available even with no sink installed.
* **Counter merge semantics** — ``Collector.merge``/snapshot round-trips,
  and the per-worker snapshot protocol of ``core.parallel`` producing the
  same counters as a sequential run.
* **Null-sink no-ops** — the default sink records nothing, and a null-sink
  run pays (almost) nothing: the overhead guard holds ``preserved_count``
  to < 5% over an uninstrumented baseline.
* **Behavior neutrality** — DIVA output (published relation, clustering,
  search stats, RNG consumption) is identical with sinks enabled vs
  disabled, on the production kernels and on the pure-Python oracle
  (hypothesis property test).
"""

from __future__ import annotations

import io
import json
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import tracectx
from repro.core import diva as diva_module
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.diva import Diva
from repro.core.index import RelationIndex
from repro.core.parallel import component_coloring
from repro.core.strategies import make_strategy
from repro.data.datasets import make_census
from repro.data.relation import Relation, Schema
from tests.oracle import ReferenceColoringSearch

pytestmark = pytest.mark.obs


# -- spans ---------------------------------------------------------------------


class TestSpan:
    def test_records_name_and_duration(self):
        with obs.collecting() as collector:
            with obs.span("work") as sp:
                time.sleep(0.001)
        assert sp.duration is not None and sp.duration > 0
        [event] = collector.spans
        assert event.name == "work"
        assert event.duration == sp.duration
        assert event.depth == 0 and event.parent is None

    def test_nesting_depth_and_parent(self):
        with obs.collecting() as collector:
            with obs.span("outer"):
                with obs.span("inner"):
                    with obs.span("leaf"):
                        pass
                with obs.span("sibling"):
                    pass
        by_name = {e.name: e for e in collector.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].parent == "outer"
        assert by_name["leaf"].depth == 2
        assert by_name["leaf"].parent == "inner"
        assert by_name["sibling"].depth == 1
        assert by_name["sibling"].parent == "outer"
        # Inner spans close first and cannot outlast the outer one.
        assert by_name["inner"].duration <= by_name["outer"].duration
        assert by_name["leaf"].duration <= by_name["inner"].duration

    def test_timing_monotonicity(self):
        """Durations are non-negative and starts are monotone per thread."""
        with obs.collecting() as collector:
            for _ in range(5):
                with obs.span("tick"):
                    pass
        starts = [e.start for e in collector.spans]
        assert starts == sorted(starts)
        assert all(e.duration >= 0 for e in collector.spans)

    def test_decorator_form(self):
        @obs.span("fn")
        def double(x):
            return 2 * x

        with obs.collecting() as collector:
            assert double(21) == 42
            assert double(1) == 2
        assert [e.name for e in collector.spans] == ["fn", "fn"]

    def test_duration_without_sink(self):
        """Callers may use span as a plain timer with no sink installed."""
        assert not obs.enabled()
        with obs.span("untracked") as sp:
            pass
        assert sp.duration is not None and sp.duration >= 0

    def test_exception_still_emits(self):
        with obs.collecting() as collector:
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("x")
        assert [e.name for e in collector.spans] == ["boom"]
        # The stack unwound: a following span is top-level again.
        with obs.use_sink(collector):
            with obs.span("after"):
                pass
        assert collector.spans[-1].depth == 0


# -- counters and merge semantics ----------------------------------------------


class TestCounters:
    def test_incr_accumulates(self):
        with obs.collecting() as collector:
            obs.incr("a")
            obs.incr("a", 4)
            obs.incr("b", 2)
        assert collector.counters == {"a": 5, "b": 2}

    def test_incr_many_skips_zeros(self):
        with obs.collecting() as collector:
            obs.incr_many({"a": 3, "b": 0, "c": 1})
        assert collector.counters == {"a": 3, "c": 1}

    def test_merge_adds_counters_and_concatenates_spans(self):
        left, right = obs.Collector(), obs.Collector()
        with obs.use_sink(left):
            obs.incr("shared", 2)
            obs.incr("only_left")
            with obs.span("l"):
                pass
        with obs.use_sink(right):
            obs.incr("shared", 5)
            obs.incr("only_right", 3)
            with obs.span("r"):
                pass
        merged = left.merge(right)
        assert merged is left
        assert left.counters == {"shared": 7, "only_left": 1, "only_right": 3}
        assert [e.name for e in left.spans] == ["l", "r"]

    def test_snapshot_round_trip(self):
        with obs.collecting() as collector:
            obs.incr("n", 9)
            with obs.span("s"):
                pass
        snap = collector.snapshot()
        # Snapshot is plain primitives (picklable / JSON-able).
        json.dumps(snap)
        clone = obs.Collector.from_snapshot(snap)
        assert clone.counters == collector.counters
        assert clone.spans == collector.spans

    def test_emit_snapshot_replays_into_active_sink(self):
        with obs.collecting() as source:
            obs.incr("x", 2)
            with obs.span("s"):
                pass
        snap = source.snapshot()
        with obs.collecting() as target:
            obs.emit_snapshot(snap)
            obs.emit_snapshot(snap)
        assert target.counters == {"x": 4}
        assert [e.name for e in target.spans] == ["s", "s"]
        # With no sink anywhere, replay is a silent no-op.
        obs.emit_snapshot(snap)


class TestParallelWorkerMerge:
    """The per-worker snapshot protocol of ``core.parallel``."""

    SIGMA = [
        DiversityConstraint("ETH", "Asian", 2, 5),
        DiversityConstraint("ETH", "African", 1, 3),
        DiversityConstraint("GEN", "Female", 2, 5),
    ]

    def _run(self, relation, **kwargs):
        with obs.collecting() as collector:
            result = component_coloring(
                relation, ConstraintSet(self.SIGMA), k=2, seed=4, **kwargs
            )
        return result, collector

    @staticmethod
    def _algorithmic(counters):
        """Drop pool telemetry: ``parallel.*`` is emitted only on pooled
        runs (and carries nondeterministic timings), by design."""
        return {
            key: value
            for key, value in counters.items()
            if not key.startswith("parallel.")
        }

    def test_threaded_counters_match_sequential(self, paper_relation):
        seq_result, seq = self._run(paper_relation)
        par_result, par = self._run(paper_relation, max_workers=4)
        assert par_result.success == seq_result.success
        assert self._algorithmic(par.counters) == seq.counters
        assert obs.PARALLEL_COMPONENTS in par.counters
        par_spans = [
            e.name for e in par.spans if not e.name.startswith("parallel.")
        ]
        assert sorted(par_spans) == sorted(e.name for e in seq.spans)
        # The merged search effort is also what the counters report.
        assert (
            par.counters["coloring.candidates_tried"]
            == par_result.stats.candidates_tried
        )

    def test_process_counters_match_sequential(self, paper_relation):
        seq_result, seq = self._run(paper_relation)
        par_result, par = self._run(
            paper_relation, max_workers=2, executor="process"
        )
        assert par_result.success == seq_result.success
        # Process children build their own RelationIndex, so cache-level
        # events could differ; the search/graph counters must not.
        search_keys = [
            key
            for key in seq.counters
            if key.startswith(("coloring.", "graph."))
        ]
        assert search_keys, "expected search counters from the workers"
        for key in search_keys:
            assert par.counters.get(key) == seq.counters[key]

    def test_workers_collect_nothing_when_disabled(self, paper_relation):
        result = component_coloring(
            paper_relation, ConstraintSet(self.SIGMA), k=2, max_workers=4
        )
        assert result.success


# -- sinks ---------------------------------------------------------------------


class TestNullSink:
    def test_disabled_by_default(self):
        assert obs.active_sink() is obs.NULL
        assert not obs.enabled()

    def test_null_sink_records_nothing(self):
        # Emitting against NULL directly is a no-op by construction.
        obs.NULL.emit_count("x", 1)
        obs.NULL.emit_span(
            obs.SpanEvent(name="s", start=0.0, duration=0.0)
        )
        with obs.use_sink(obs.NULL):
            assert not obs.enabled()
            obs.incr("x", 100)
            with obs.span("s"):
                pass
        # Nothing leaked anywhere observable.
        assert obs.active_sink() is obs.NULL

    def test_enabled_inside_use_sink(self):
        collector = obs.Collector()
        assert not obs.enabled()
        with obs.use_sink(collector):
            assert obs.enabled()
            assert obs.active_sink() is collector
        assert not obs.enabled()

    def test_thread_local_isolation(self):
        """A worker thread's sink never leaks into its siblings."""
        seen = {}

        def worker(name):
            with obs.collecting() as collector:
                obs.incr(name)
                time.sleep(0.005)
            seen[name] = collector.counters

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            assert seen[f"t{i}"] == {f"t{i}": 1}

    def test_global_scope_reaches_new_threads(self):
        collector = obs.Collector()
        results = []
        with obs.use_sink(collector, global_scope=True):
            t = threading.Thread(
                target=lambda: results.append(obs.enabled())
            )
            t.start()
            t.join()
            obs.incr("seen")
        assert results == [True]
        assert collector.counters == {"seen": 1}
        assert not obs.enabled()

    def test_set_global_sink_returns_previous(self):
        collector = obs.Collector()
        previous = obs.set_global_sink(collector)
        try:
            assert previous is obs.NULL
            assert obs.enabled()
        finally:
            assert obs.set_global_sink(previous) is collector
        assert not obs.enabled()


class TestJsonlSink:
    def test_round_trip_via_replay(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.JsonlSink(path) as sink:
            with obs.use_sink(sink):
                with obs.span("outer"):
                    with obs.span("inner"):
                        pass
                obs.incr("count.a", 3)
                obs.incr("count.a", 2)
        replayed = obs.replay(path)
        assert replayed.counters == {"count.a": 5}
        assert [e.name for e in replayed.spans] == ["inner", "outer"]
        inner, outer = replayed.spans
        assert inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0

    def test_borrowed_file_object_left_open(self):
        buffer = io.StringIO()
        sink = obs.JsonlSink(buffer)
        sink.emit_count("x", 1)
        sink.close()
        assert not buffer.closed
        [line] = buffer.getvalue().splitlines()
        assert json.loads(line) == {"type": "count", "name": "x", "value": 1}

    def test_replay_rejects_unknown_event(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown event"):
            obs.replay(path)

    def test_replay_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('\n{"type": "count", "name": "a", "value": 1}\n\n')
        assert obs.replay(path).counters == {"a": 1}


class TestTeeSink:
    def test_fans_out_to_all_children(self):
        a, b = obs.Collector(), obs.Collector()
        with obs.use_sink(obs.TeeSink(a, b)):
            obs.incr("n", 2)
            with obs.span("s"):
                pass
        for collector in (a, b):
            assert collector.counters == {"n": 2}
            assert [e.name for e in collector.spans] == ["s"]


# -- reporting and taxonomy ----------------------------------------------------


class TestReport:
    def test_summarize_aggregates_spans(self):
        collector = obs.Collector()
        for duration in (0.5, 1.5):
            collector.emit_span(
                obs.SpanEvent(name="s", start=0.0, duration=duration)
            )
        collector.emit_count("c", 7)
        summary = obs.summarize(collector)
        block = summary["spans"]["s"]
        assert block["count"] == 2
        assert block["total_s"] == 2.0
        assert block["mean_s"] == 1.0
        assert block["max_s"] == 1.5
        assert block["depth"] == 0
        # Histogram percentiles: p50 covers the 0.5s sample's bucket,
        # every percentile is clamped into [min, max] and monotone in q.
        assert 0.5 <= block["p50_s"] <= block["p90_s"] <= block["p99_s"] <= 1.5
        assert summary["counters"] == {"c": 7}
        # Accepts raw snapshots too.
        assert obs.summarize(collector.snapshot()) == summary

    def test_render_contains_every_name(self):
        collector = obs.Collector()
        collector.emit_span(obs.SpanEvent(name="phase.x", start=0.0, duration=0.25))
        collector.emit_count("counter.y", 3)
        text = obs.render(obs.summarize(collector))
        assert "spans:" in text and "counters:" in text
        assert "phase.x" in text and "counter.y" in text

    def test_render_empty(self):
        text = obs.render(obs.summarize(obs.Collector()))
        assert "(none)" in text


class TestTaxonomy:
    """The event names are a stable contract — renames are breaking."""

    def test_counter_names_pinned(self):
        assert set(obs.ALL_COUNTERS) == {
            "graph.nodes",
            "graph.edges",
            "coloring.nodes_expanded",
            "coloring.candidates_tried",
            "coloring.backtracks",
            "coloring.prunes",
            "coloring.consistency_checks",
            "index.cluster_cache_hits",
            "index.cluster_cache_misses",
            "enum.subsets_generated",
            "enum.dominated_pruned",
            "enum.memo_hits",
            "enum.memo_misses",
            "search.delta_applies",
            "search.delta_reverts",
            "search.batch_scored",
            "suppress.cells_starred",
            "diva.constraints_dropped",
            "kmember.clusters",
            "kmember.leftovers",
            "stream.batches_ingested",
            "stream.tuples_ingested",
            "stream.tuples_extended",
            "stream.tuples_recomputed",
            "stream.recomputes_scoped",
            "stream.recomputes_full",
            "stream.releases_published",
            "io.rows_read",
            "io.batches_fetched",
            "io.releases_written",
            "serve.requests",
            "serve.errors",
            "serve.ingested_rows",
            "serve.publishes",
            "serve.release_fetches",
            "serve.release_not_modified",
            "serve.traces_completed",
            "serve.traces_evicted",
            "parallel.components",
            "parallel.tasks_dispatched",
            "parallel.tasks_chunked",
            "parallel.tasks_cancelled",
            "parallel.straggler_wait_ns",
            "parallel.component_wall_ns",
            "parallel.shm.segments",
            "parallel.shm.bytes_exported",
            "parallel.shm.attach_ns",
            "parallel.shm.fallbacks",
            "solver.escalations",
            "solver.warm_start_nodes",
            "solver.approx.wall_ns",
            "solver.approx.nodes_assigned",
            "solver.approx.tuples_selected",
            "solver.approx.cells_starred",
        }

    def test_span_names_pinned(self):
        assert set(obs.ALL_SPANS) == {
            "diva.run",
            "diva.diverse_clustering",
            "diva.suppress",
            "diva.anonymize",
            "diva.integrate",
            "diva.refine",
            "graph.build",
            "coloring.search",
            "coloring.enumerate_candidates",
            "enum.generate",
            "kmember.cluster",
            "stream.ingest",
            "stream.publish",
            "stream.extend",
            "stream.recompute",
            "io.load",
            "serve.request",
            "serve.publish",
            "parallel.schedule",
            "parallel.shm.export",
            "solver.approx.solve",
        }

    def test_pipeline_emits_only_taxonomy_names(self, paper_relation,
                                                paper_constraints):
        with obs.collecting() as collector:
            Diva(seed=1).run(paper_relation, paper_constraints, 2)
        assert set(collector.counters) <= set(obs.ALL_COUNTERS)
        assert {e.name for e in collector.spans} <= set(obs.ALL_SPANS)
        # And the big-ticket events are actually present.
        assert obs.SPAN_DIVA_RUN in {e.name for e in collector.spans}
        assert collector.counters[obs.GRAPH_NODES] == len(paper_constraints)


# -- behavior neutrality (hypothesis) ------------------------------------------


SCHEMA = Schema.from_names(qi=["A", "B", "C"], sensitive=["S"])

rows = st.tuples(
    st.sampled_from(["a0", "a1", "a2"]),
    st.sampled_from(["b0", "b1"]),
    st.sampled_from(["c0", "c1", "c2", "c3"]),
    st.sampled_from(["s0", "s1", "s2"]),
)

sigma_pool = [
    DiversityConstraint("A", "a0", 1, 6),
    DiversityConstraint("B", "b0", 1, 8),
    DiversityConstraint("C", "c1", 1, 4),
    DiversityConstraint("S", "s0", 1, 6),
]


def _run_diva(relation, sigma, with_sink):
    """One deterministic DIVA run; returns comparable output + RNG state.

    The strategy gets an externally-held RNG so the test can compare the
    exact post-run generator state — a stronger statement than comparing
    outputs alone: instrumentation may not consume or reorder a single
    random draw.
    """
    rng = np.random.default_rng(7)
    solver = Diva(
        strategy=make_strategy("maxfanout", rng),
        best_effort=True,
        max_steps=4_000,
        seed=7,
    )
    if with_sink:
        with obs.collecting() as collector:
            result = solver.run(relation, sigma, 2)
        assert len(collector) > 0
        # Histogram recording rides along on every span and must stay
        # inside the neutrality envelope: one histogram per span name,
        # sample counts matching the spans that produced them.
        assert collector.hists, "span histograms were not recorded"
        span_counts: dict[str, int] = {}
        for event in collector.spans:
            span_counts[event.name] = span_counts.get(event.name, 0) + 1
        assert {
            name: hist.count for name, hist in collector.hists.items()
        } == span_counts
    else:
        result = solver.run(relation, sigma, 2)
    return {
        "rows": sorted(result.relation, key=lambda pair: pair[0]),
        "clustering": result.clustering,
        "dropped": result.dropped,
        "stats": result.stats.as_dict(),
        "rng_state": rng.bit_generator.state,
    }


@contextmanager
def _kernel_path(name):
    """Run DIVA on the production kernels (``vectorized``) or with its
    coloring search swapped for the pure-Python oracle (``reference``)."""
    if name == "vectorized":
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diva_module, "ColoringSearch", ReferenceColoringSearch)
        yield


@pytest.mark.parametrize("kernel_path", ["vectorized", "reference"])
@settings(max_examples=12, deadline=None)
@given(
    data=st.lists(rows, min_size=8, max_size=16),
    sigma=st.lists(
        st.sampled_from(sigma_pool), min_size=1, max_size=2, unique=True
    ),
)
def test_sinks_do_not_change_behavior(kernel_path, data, sigma):
    relation = Relation(SCHEMA, data)
    constraints = ConstraintSet(sigma)
    with _kernel_path(kernel_path):
        disabled = _run_diva(relation, constraints, with_sink=False)
        enabled = _run_diva(relation, constraints, with_sink=True)
    assert enabled == disabled


# -- overhead guard ------------------------------------------------------------


class TestOverheadGuard:
    """Tier-1 speed guard: null-sink instrumentation costs < 5%.

    ``preserved_count`` is the hottest instrumented call site; its entire
    added cost is the effort-tally ``+= 1`` (no sink interaction at all).
    The guard races the instrumented method against a faithful replica of
    its pre-instrumentation body — identical memo lookups and kernel call,
    tallies removed — on twin indexes over the same relation, so the ratio
    isolates exactly what this layer added.  Best-of-N timing with retries
    keeps the comparison robust to scheduler noise.
    """

    N_ROWS = 600
    CLUSTER = 8
    ATTEMPTS = 6
    THRESHOLD = 1.05

    @staticmethod
    def _partitions(tids, offset, size):
        rotated = tids[offset:] + tids[:offset]
        return [
            frozenset(rotated[i:i + size])
            for i in range(0, len(rotated) - size + 1, size)
        ]

    @staticmethod
    def _uninstrumented(index, cluster, sigma):
        """``RelationIndex.preserved_count`` minus the hit/miss tallies."""
        sub = index._pc_cache.get(sigma)
        if sub is None:
            sub = index._pc_cache[sigma] = {}
        cached = sub.get(cluster)
        if cached is None:
            cached = index._preserved_count_uncached(cluster, sigma)
            sub[cluster] = cached
        return cached

    def test_preserved_count_overhead_under_5_percent(self):
        assert not obs.enabled(), "guard must run with the null sink"
        relation = make_census(seed=11, n_rows=self.N_ROWS)
        sigma = DiversityConstraint(
            "RACE",
            relation.row(next(iter(relation.tids)))[
                relation.schema.position("RACE")
            ],
            1,
            self.N_ROWS,
        )
        tids = list(relation.tids)
        baseline_fn = self._uninstrumented
        ratios = []
        for attempt in range(self.ATTEMPTS):
            # Twin indexes: same codes, separate memo caches, so both
            # sides see identical fresh-miss work on identical clusters.
            index_base = RelationIndex(relation)
            index_inst = RelationIndex(relation)
            for index in (index_base, index_inst):
                index.artifacts(sigma)  # one-time setup out of the loop
            instrumented_fn = index_inst.preserved_count
            base = inst = float("inf")
            for rep in range(5):
                parts = self._partitions(
                    tids, attempt * 10 + rep, self.CLUSTER
                )
                start = time.perf_counter()
                for cluster in parts:
                    baseline_fn(index_base, cluster, sigma)
                base = min(base, time.perf_counter() - start)
                start = time.perf_counter()
                for cluster in parts:
                    instrumented_fn(cluster, sigma)
                inst = min(inst, time.perf_counter() - start)
            ratios.append(inst / base)
            if ratios[-1] < self.THRESHOLD:
                return
        pytest.fail(
            f"null-sink preserved_count overhead above "
            f"{self.THRESHOLD - 1:.0%} in all attempts: ratios={ratios}"
        )


# -- trace context -------------------------------------------------------------


class TestTraceContext:
    """The W3C wire format and the three propagation bridges."""

    def test_traceparent_round_trip(self):
        ctx = tracectx.TraceContext("ab" * 16, "cd" * 8)
        parsed = tracectx.parse_traceparent(ctx.to_traceparent())
        assert parsed.trace_id == "ab" * 16
        assert parsed.span_id == "cd" * 8

    def test_traceparent_flags(self):
        ctx = tracectx.TraceContext("ab" * 16, "cd" * 8)
        assert ctx.to_traceparent().endswith("-01")
        assert ctx.to_traceparent(sampled=False).endswith("-00")

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-" + "ab" * 16 + "-" + "cd" * 8,          # 3 fields
            "0-" + "ab" * 16 + "-" + "cd" * 8 + "-01",   # short version
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",  # zero trace id
            "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",  # zero span id
            "00-" + "ab" * 15 + "-" + "cd" * 8 + "-01",  # short trace id
            "00-" + "zz" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
        ],
    )
    def test_malformed_traceparent_rejected(self, header):
        assert tracectx.parse_traceparent(header) is None

    def test_unknown_version_accepted(self):
        """Per W3C forward compatibility, only ``ff`` is invalid."""
        header = "01-" + "ab" * 16 + "-" + "cd" * 8 + "-01-extra"
        parsed = tracectx.parse_traceparent(header)
        assert parsed is not None and parsed.trace_id == "ab" * 16

    def test_child_allocates_under_current_span(self):
        root = tracectx.new_trace()
        assert root.span_id is None
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id is None  # root has no enclosing span
        grandchild = child.child()
        assert grandchild.parent_id == child.span_id

    def test_use_trace_scopes_and_accepts_none(self):
        assert tracectx.current() is None
        ctx = tracectx.new_trace()
        with tracectx.use_trace(ctx):
            assert tracectx.current() is ctx
            with tracectx.use_trace(None):
                assert tracectx.current() is None
            assert tracectx.current() is ctx
        assert tracectx.current() is None

    def test_bind_carries_context_to_foreign_thread(self):
        """The ``run_in_executor`` bridge: executor threads see the bound
        context, and only for the call's duration."""
        ctx = tracectx.new_trace()
        seen = {}

        def probe(tag):
            seen[tag] = tracectx.current()
            return tag

        thread = threading.Thread(target=tracectx.bind(ctx, probe, "bound"))
        thread.start()
        thread.join()
        bare = threading.Thread(target=probe, args=("bare",))
        bare.start()
        bare.join()
        assert seen["bound"] is ctx
        assert seen["bare"] is None

    def test_context_is_picklable(self):
        import pickle

        ctx = tracectx.new_trace().child()
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_spans_stamp_ids_under_a_trace(self):
        with obs.collecting() as collector:
            with tracectx.use_trace(tracectx.new_trace()):
                with obs.span("diva.run"):
                    with obs.span("diva.anonymize"):
                        pass
        inner, outer = collector.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id

    def test_spans_stay_idless_without_a_trace(self):
        with obs.collecting() as collector:
            with obs.span("diva.run"):
                pass
        (event,) = collector.spans
        assert event.trace_id is None
        assert event.span_id is None
        assert event.parent_id is None

    def test_jsonl_wire_format_drops_ids_when_untraced(self):
        buffer = io.StringIO()
        sink = obs.JsonlSink(buffer)
        with obs.use_sink(sink):
            with obs.span("diva.run"):
                pass
            with tracectx.use_trace(tracectx.new_trace()):
                with obs.span("diva.run"):
                    pass
        untraced, traced = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        assert "trace_id" not in untraced
        assert traced["trace_id"] and traced["span_id"]
