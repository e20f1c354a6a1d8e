"""The stable event taxonomy: counter and span names.

These strings are a **contract**: trace files, bench-result ``obs`` blocks
and downstream dashboards key on them, so renaming one is a breaking
change (add new names instead; see the Observability sections of README.md
and DESIGN.md).  ``tests/test_obs.py`` pins the full set.
"""

from __future__ import annotations

# -- counters ------------------------------------------------------------------

#: Constraint-interaction graph size (one emission per graph build).
GRAPH_NODES = "graph.nodes"
GRAPH_EDGES = "graph.edges"

#: Coloring-search effort (aggregated per search, emitted when it finishes —
#: including on budget exhaustion, so partial effort is never lost).
COLORING_NODES_EXPANDED = "coloring.nodes_expanded"
COLORING_CANDIDATES_TRIED = "coloring.candidates_tried"
COLORING_BACKTRACKS = "coloring.backtracks"
COLORING_PRUNES = "coloring.prunes"
COLORING_CONSISTENCY_CHECKS = "coloring.consistency_checks"

#: RelationIndex memoized cluster caches (preserved-count + suppression-cost
#: memos combined), emitted as deltas around each DIVA run.
INDEX_CLUSTER_CACHE_HITS = "index.cluster_cache_hits"
INDEX_CLUSTER_CACHE_MISSES = "index.cluster_cache_misses"

#: Candidate enumeration: subsets materialized per call and scored
#: candidates dropped by the top-``max_candidates`` (cost, size) cutoff
#: before frozenset materialization (dominated: a same-size candidate
#: exists at no higher cost for every kept slot).  Emitted identically on
#: memo hits and misses, so enumeration-effort counters never depend on
#: cache temperature.
ENUM_SUBSETS_GENERATED = "enum.subsets_generated"
ENUM_DOMINATED_PRUNED = "enum.dominated_pruned"

#: Enumeration memo (content-addressed, process-global — see
#: :mod:`repro.core.enumeration`): cumulative tallies, emitted as deltas
#: around each DIVA run, mirroring the INDEX_CLUSTER_CACHE_* pattern.
ENUM_MEMO_HITS = "enum.memo_hits"
ENUM_MEMO_MISSES = "enum.memo_misses"

#: Columnar search-state engine (:mod:`repro.core.searchstate`).
#: ``delta_applies``/``delta_reverts`` count first-ref /
#: last-ref cluster transitions materialized as counter-array delta adds;
#: ``batch_scored`` counts clusters whose contribution records were
#: resolved through the batched memo-aware path (memo hit or kernel miss
#: alike, so the tally is deterministic per search trajectory).  All three
#: aggregate per search and flush with the coloring.* effort counters.
SEARCH_DELTA_APPLIES = "search.delta_applies"
SEARCH_DELTA_REVERTS = "search.delta_reverts"
SEARCH_BATCH_SCORED = "search.batch_scored"

#: Contribution memo (content-addressed, process-global — see
#: :mod:`repro.core.searchstate`): cumulative tallies, emitted as deltas
#: around each DIVA run, mirroring the ENUM_MEMO_* pattern.
SEARCH_MEMO_HITS = "search.memo_hits"
SEARCH_MEMO_MISSES = "search.memo_misses"

#: Cells starred by the Suppress phase (RΣ), per DIVA run.
SUPPRESS_CELLS_STARRED = "suppress.cells_starred"

#: Constraints dropped in best-effort mode, per DIVA run.
DIVA_CONSTRAINTS_DROPPED = "diva.constraints_dropped"

#: k-member anonymizer: clusters formed and < k leftovers redistributed.
KMEMBER_CLUSTERS = "kmember.clusters"
KMEMBER_LEFTOVERS = "kmember.leftovers"

#: Streaming engine: arrival volume (batches / tuples accepted by ingest).
STREAM_BATCHES_INGESTED = "stream.batches_ingested"
STREAM_TUPLES_INGESTED = "stream.tuples_ingested"

#: Streaming engine: how admitted tuples reached the release — extended
#: into an existing QI-group vs. (re)clustered by a scoped or full DIVA
#: recompute.  ``extended / (extended + recomputed)`` is the extend ratio.
STREAM_TUPLES_EXTENDED = "stream.tuples_extended"
STREAM_TUPLES_RECOMPUTED = "stream.tuples_recomputed"

#: Streaming engine: recompute fallbacks taken (scoped = residuals only,
#: full = entire history re-anonymized) and releases published.
STREAM_RECOMPUTES_SCOPED = "stream.recomputes_scoped"
STREAM_RECOMPUTES_FULL = "stream.recomputes_full"
STREAM_RELEASES_PUBLISHED = "stream.releases_published"

#: Parallel runtime: component decomposition and scheduling volume.  Emitted
#: by the parent only when a pool is actually used, so a sequential run's
#: counter set stays clean — equivalence checks compare everything *outside*
#: the ``parallel.`` namespace, which is runtime telemetry, not search state.
PARALLEL_COMPONENTS = "parallel.components"
PARALLEL_TASKS_DISPATCHED = "parallel.tasks_dispatched"
PARALLEL_TASKS_CHUNKED = "parallel.tasks_chunked"
PARALLEL_TASKS_CANCELLED = "parallel.tasks_cancelled"

#: Parallel runtime: wall-clock the parent spent waiting for the remaining
#: tasks after the first one completed (the straggler tail), in nanoseconds.
PARALLEL_STRAGGLER_WAIT_NS = "parallel.straggler_wait_ns"

#: Parallel runtime: summed observed per-component solve wall clock, in
#: nanoseconds — the measurement stream feeding the adaptive cost model
#: (:mod:`repro.core.costmodel`).
PARALLEL_COMPONENT_WALL_NS = "parallel.component_wall_ns"

#: Shared-memory relation transport: segments/bytes exported once per pooled
#: process run, cumulative worker attach time, and pickling fallbacks taken
#: when shared memory is unavailable.
PARALLEL_SHM_SEGMENTS = "parallel.shm.segments"
PARALLEL_SHM_BYTES_EXPORTED = "parallel.shm.bytes_exported"
PARALLEL_SHM_ATTACH_NS = "parallel.shm.attach_ns"
PARALLEL_SHM_FALLBACKS = "parallel.shm.fallbacks"

#: Streaming engine: scoped-recompute rounds whose pooled drain was
#: deferred by the ``scoped_batch`` coalescing knob — each deferred round
#: publishes extension-only and leaves its residuals queued, so one later
#: scoped DIVA run (a single ``component_coloring`` submission) drains the
#: whole queue instead of dispatching a pool per round.
STREAM_SCOPED_DEFERRED = "stream.scoped_deferred"

#: Storage backends (:mod:`repro.io`): rows materialized from a backend
#: (full loads and micro-batch fetches both count), micro-batches fetched,
#: and releases written back through :meth:`Backend.write_release`.
IO_ROWS_READ = "io.rows_read"
IO_BATCHES_FETCHED = "io.batches_fetched"
IO_RELEASES_WRITTEN = "io.releases_written"

#: Anonymization service (:mod:`repro.serve`): request volume by outcome.
#: ``release_fetches`` counts full-body release responses (200);
#: ``release_not_modified`` counts conditional GETs answered ``304`` from
#: the ETag check — the cache-hit path read traffic scales on.
SERVE_REQUESTS = "serve.requests"
SERVE_ERRORS = "serve.errors"
SERVE_INGESTED_ROWS = "serve.ingested_rows"
SERVE_PUBLISHES = "serve.publishes"
SERVE_RELEASE_FETCHES = "serve.release_fetches"
SERVE_RELEASE_NOT_MODIFIED = "serve.release_not_modified"

#: Anonymization service tracing: per-request span trees completed into
#: the bounded trace ring, and trees evicted from it (completed trees
#: displaced by newer ones, or open trees displaced by the in-flight cap —
#: a steady non-zero eviction rate just means the ring is doing its job).
SERVE_TRACES_COMPLETED = "serve.traces_completed"
SERVE_TRACES_EVICTED = "serve.traces_evicted"

#: Solver tier (``solver=`` axis): exact→approx escalations taken when the
#: ``auto`` tier catches a budget-exhausted exact search (one per
#: escalation — monolithic runs emit at most one, per-component pooled
#: runs one per escalated component), and exact-tier partial assignments
#: adopted by the approximation solver's warm start, in nodes.
SOLVER_ESCALATIONS = "solver.escalations"
SOLVER_WARM_START_NODES = "solver.warm_start_nodes"

#: Approximation solver (``repro.core.approx``) wall/quality telemetry,
#: emitted once per approx pass: wall clock in nanoseconds, constraints
#: assigned, target tuples selected into the emitted clustering, and its
#: suppression cost in cells (the quality measure the conformance bench
#: compares against the exact tier).
SOLVER_APPROX_WALL_NS = "solver.approx.wall_ns"
SOLVER_APPROX_NODES = "solver.approx.nodes_assigned"
SOLVER_APPROX_SELECTED = "solver.approx.tuples_selected"
SOLVER_APPROX_COST = "solver.approx.cells_starred"

ALL_COUNTERS = (
    GRAPH_NODES,
    GRAPH_EDGES,
    COLORING_NODES_EXPANDED,
    COLORING_CANDIDATES_TRIED,
    COLORING_BACKTRACKS,
    COLORING_PRUNES,
    COLORING_CONSISTENCY_CHECKS,
    INDEX_CLUSTER_CACHE_HITS,
    INDEX_CLUSTER_CACHE_MISSES,
    ENUM_SUBSETS_GENERATED,
    ENUM_DOMINATED_PRUNED,
    ENUM_MEMO_HITS,
    ENUM_MEMO_MISSES,
    SEARCH_DELTA_APPLIES,
    SEARCH_DELTA_REVERTS,
    SEARCH_BATCH_SCORED,
    SEARCH_MEMO_HITS,
    SEARCH_MEMO_MISSES,
    SUPPRESS_CELLS_STARRED,
    DIVA_CONSTRAINTS_DROPPED,
    KMEMBER_CLUSTERS,
    KMEMBER_LEFTOVERS,
    STREAM_BATCHES_INGESTED,
    STREAM_TUPLES_INGESTED,
    STREAM_TUPLES_EXTENDED,
    STREAM_TUPLES_RECOMPUTED,
    STREAM_RECOMPUTES_SCOPED,
    STREAM_RECOMPUTES_FULL,
    STREAM_RELEASES_PUBLISHED,
    STREAM_SCOPED_DEFERRED,
    IO_ROWS_READ,
    IO_BATCHES_FETCHED,
    IO_RELEASES_WRITTEN,
    SERVE_REQUESTS,
    SERVE_ERRORS,
    SERVE_INGESTED_ROWS,
    SERVE_PUBLISHES,
    SERVE_RELEASE_FETCHES,
    SERVE_RELEASE_NOT_MODIFIED,
    SERVE_TRACES_COMPLETED,
    SERVE_TRACES_EVICTED,
    PARALLEL_COMPONENTS,
    PARALLEL_TASKS_DISPATCHED,
    PARALLEL_TASKS_CHUNKED,
    PARALLEL_TASKS_CANCELLED,
    PARALLEL_STRAGGLER_WAIT_NS,
    PARALLEL_COMPONENT_WALL_NS,
    PARALLEL_SHM_SEGMENTS,
    PARALLEL_SHM_BYTES_EXPORTED,
    PARALLEL_SHM_ATTACH_NS,
    PARALLEL_SHM_FALLBACKS,
    SOLVER_ESCALATIONS,
    SOLVER_WARM_START_NODES,
    SOLVER_APPROX_WALL_NS,
    SOLVER_APPROX_NODES,
    SOLVER_APPROX_SELECTED,
    SOLVER_APPROX_COST,
)

# -- spans ---------------------------------------------------------------------

SPAN_DIVA_RUN = "diva.run"
SPAN_DIVERSE_CLUSTERING = "diva.diverse_clustering"
SPAN_SUPPRESS = "diva.suppress"
SPAN_ANONYMIZE = "diva.anonymize"
SPAN_INTEGRATE = "diva.integrate"
SPAN_REFINE = "diva.refine"
SPAN_GRAPH_BUILD = "graph.build"
SPAN_COLORING_SEARCH = "coloring.search"
SPAN_ENUMERATE_CANDIDATES = "coloring.enumerate_candidates"

#: One ``enumerate_clusterings`` call: batched generation + scoring +
#: cutoff selection (or a memo hit), nested inside the per-search
#: ``coloring.enumerate_candidates`` span.
SPAN_ENUM_GENERATE = "enum.generate"
SPAN_KMEMBER_CLUSTER = "kmember.cluster"

#: Streaming engine: one ingest call; one publish (release computation +
#: validation); the extend attempt and the recompute fallback inside it.
SPAN_STREAM_INGEST = "stream.ingest"
SPAN_STREAM_PUBLISH = "stream.publish"
SPAN_STREAM_EXTEND = "stream.extend"
SPAN_STREAM_RECOMPUTE = "stream.recompute"

#: Parallel runtime: the pooled scheduling region (submit → join) and the
#: one-time shared-memory export of the relation/index in the parent.
SPAN_PARALLEL_SCHEDULE = "parallel.schedule"
SPAN_PARALLEL_SHM_EXPORT = "parallel.shm.export"

#: One approximation-solver pass (``repro.core.approx``), whether invoked
#: directly (``solver=approx``) or by an ``auto``-tier escalation.
SPAN_APPROX_SOLVE = "solver.approx.solve"

#: Storage backends: one full :meth:`Backend.load` (schema discovery plus
#: row materialization — the columnar backend's is a memory-map attach).
SPAN_IO_LOAD = "io.load"

#: Anonymization service: one HTTP request (parse → route → respond) and
#: the publish region driven off the event loop (micro-batch ingest →
#: engine publish → optional release write-back).
SPAN_SERVE_REQUEST = "serve.request"
SPAN_SERVE_PUBLISH = "serve.publish"

ALL_SPANS = (
    SPAN_DIVA_RUN,
    SPAN_DIVERSE_CLUSTERING,
    SPAN_SUPPRESS,
    SPAN_ANONYMIZE,
    SPAN_INTEGRATE,
    SPAN_REFINE,
    SPAN_GRAPH_BUILD,
    SPAN_COLORING_SEARCH,
    SPAN_ENUMERATE_CANDIDATES,
    SPAN_ENUM_GENERATE,
    SPAN_KMEMBER_CLUSTER,
    SPAN_STREAM_INGEST,
    SPAN_STREAM_PUBLISH,
    SPAN_STREAM_EXTEND,
    SPAN_STREAM_RECOMPUTE,
    SPAN_PARALLEL_SCHEDULE,
    SPAN_PARALLEL_SHM_EXPORT,
    SPAN_APPROX_SOLVE,
    SPAN_IO_LOAD,
    SPAN_SERVE_REQUEST,
    SPAN_SERVE_PUBLISH,
)
