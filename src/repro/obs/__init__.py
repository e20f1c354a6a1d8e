"""``repro.obs`` — zero-dependency instrumentation for the DIVA pipeline.

Three pieces:

* **Spans** — :class:`~repro.obs.runtime.span`, a nestable context
  manager / decorator timing named regions on monotonic clocks;
* **Counters** — :func:`~repro.obs.runtime.incr` /
  :func:`~repro.obs.runtime.incr_many` over the stable taxonomy in
  :mod:`repro.obs.names` (graph size, coloring effort, kernel cache
  hit rates, suppression volume);
* **Sinks** — where events go: the default :data:`~repro.obs.sinks.NULL`
  discards everything at ~zero cost, :class:`~repro.obs.sinks.Collector`
  accumulates in memory with mergeable snapshots, and
  :class:`~repro.obs.sinks.JsonlSink` writes replayable traces.

Typical use::

    from repro import obs

    with obs.collecting() as collector:
        result = run_diva(relation, sigma, k=10)
    print(obs.render(obs.summarize(collector)))

Instrumentation is behavior-neutral by construction — it never touches
RNG streams or algorithm state — and ``tests/test_obs.py`` asserts DIVA
output is identical with sinks enabled vs disabled.
"""

from .names import (  # noqa: F401
    ALL_COUNTERS,
    ALL_SPANS,
    COLORING_BACKTRACKS,
    COLORING_CANDIDATES_TRIED,
    COLORING_CONSISTENCY_CHECKS,
    COLORING_NODES_EXPANDED,
    COLORING_PRUNES,
    DIVA_CONSTRAINTS_DROPPED,
    ENUM_DOMINATED_PRUNED,
    ENUM_MEMO_HITS,
    ENUM_MEMO_MISSES,
    ENUM_SUBSETS_GENERATED,
    GRAPH_EDGES,
    GRAPH_NODES,
    INDEX_CLUSTER_CACHE_HITS,
    INDEX_CLUSTER_CACHE_MISSES,
    IO_BATCHES_FETCHED,
    IO_RELEASES_WRITTEN,
    IO_ROWS_READ,
    KMEMBER_CLUSTERS,
    KMEMBER_LEFTOVERS,
    PARALLEL_COMPONENT_WALL_NS,
    PARALLEL_COMPONENTS,
    PARALLEL_SHM_ATTACH_NS,
    PARALLEL_SHM_BYTES_EXPORTED,
    PARALLEL_SHM_FALLBACKS,
    PARALLEL_SHM_SEGMENTS,
    PARALLEL_STRAGGLER_WAIT_NS,
    PARALLEL_TASKS_CANCELLED,
    PARALLEL_TASKS_CHUNKED,
    PARALLEL_TASKS_DISPATCHED,
    SERVE_ERRORS,
    SERVE_INGESTED_ROWS,
    SERVE_PUBLISHES,
    SERVE_RELEASE_FETCHES,
    SERVE_RELEASE_NOT_MODIFIED,
    SERVE_REQUESTS,
    SERVE_TRACES_COMPLETED,
    SERVE_TRACES_EVICTED,
    SEARCH_BATCH_SCORED,
    SEARCH_DELTA_APPLIES,
    SEARCH_DELTA_REVERTS,
    # Retired and never emitted; exported only for e2ebench/workloads.py.
    SEARCH_MEMO_HITS,
    SEARCH_MEMO_MISSES,
    SPAN_ANONYMIZE,
    SPAN_COLORING_SEARCH,
    SPAN_DIVA_RUN,
    SPAN_DIVERSE_CLUSTERING,
    SPAN_ENUM_GENERATE,
    SPAN_ENUMERATE_CANDIDATES,
    SPAN_GRAPH_BUILD,
    SPAN_INTEGRATE,
    SPAN_IO_LOAD,
    SPAN_KMEMBER_CLUSTER,
    SPAN_PARALLEL_SCHEDULE,
    SPAN_PARALLEL_SHM_EXPORT,
    SPAN_REFINE,
    SPAN_SERVE_PUBLISH,
    SPAN_SERVE_REQUEST,
    SPAN_STREAM_EXTEND,
    SPAN_STREAM_INGEST,
    SPAN_STREAM_PUBLISH,
    SPAN_APPROX_SOLVE,
    SPAN_STREAM_RECOMPUTE,
    SPAN_SUPPRESS,
    SOLVER_APPROX_COST,
    SOLVER_APPROX_NODES,
    SOLVER_APPROX_SELECTED,
    SOLVER_APPROX_WALL_NS,
    SOLVER_ESCALATIONS,
    SOLVER_WARM_START_NODES,
    STREAM_BATCHES_INGESTED,
    STREAM_RECOMPUTES_FULL,
    STREAM_RECOMPUTES_SCOPED,
    STREAM_RELEASES_PUBLISHED,
    STREAM_TUPLES_EXTENDED,
    STREAM_TUPLES_INGESTED,
    STREAM_TUPLES_RECOMPUTED,
    SUPPRESS_CELLS_STARRED,
)
from . import tracectx  # noqa: F401
from .analyze import (  # noqa: F401
    SpanNode,
    TraceAnalysis,
    analyze,
    analyze_forest,
    build_forest,
    critical_path,
    folded_stacks,
    forest_from_payload,
    forest_payload,
    render_analysis,
)
from .hist import Histogram
from .registry import (  # noqa: F401
    Comparison,
    Regression,
    RunRegistry,
    compare_runs,
    load_run,
    new_record,
    render_comparison,
)
from .report import render, summarize
from .runtime import (
    active_sink,
    collecting,
    emit_snapshot,
    enabled,
    incr,
    incr_many,
    set_global_sink,
    span,
    use_sink,
)
from .sinks import NULL, Collector, JsonlSink, NullSink, Sink, SpanEvent, TeeSink, replay
from .tracectx import (  # noqa: F401
    TraceContext,
    new_trace,
    parse_traceparent,
    use_trace,
)
from .tracectx import current as current_trace  # noqa: F401

__all__ = [
    # runtime
    "span",
    "incr",
    "incr_many",
    "enabled",
    "active_sink",
    "set_global_sink",
    "use_sink",
    "collecting",
    "emit_snapshot",
    # sinks
    "Sink",
    "NullSink",
    "NULL",
    "Collector",
    "JsonlSink",
    "TeeSink",
    "SpanEvent",
    "replay",
    # report
    "summarize",
    "render",
    # analytics
    "Histogram",
    "SpanNode",
    "TraceAnalysis",
    "analyze",
    "analyze_forest",
    "build_forest",
    "critical_path",
    "folded_stacks",
    "forest_from_payload",
    "forest_payload",
    "render_analysis",
    # tracing
    "tracectx",
    "TraceContext",
    "current_trace",
    "new_trace",
    "parse_traceparent",
    "use_trace",
    # registry
    "RunRegistry",
    "Comparison",
    "Regression",
    "compare_runs",
    "load_run",
    "new_record",
    "render_comparison",
    # taxonomy
    "ALL_COUNTERS",
    "ALL_SPANS",
]
