"""Component-parallel diverse clustering (the paper's future work, §6).

The consistency conditions of the coloring search are local: a clustering
choice can only invalidate constraints whose target tuples overlap, i.e.
graph neighbours.  Constraints in different connected components of the
constraint graph therefore never interact, and each component can be colored
independently — the decomposition behind the distributed coloring the paper
proposes as future work.

``component_coloring`` colors each component with its own
:class:`~repro.core.coloring.ColoringSearch` and merges the per-component
clusterings.  Results are identical to the monolithic search's feasibility:
a coloring exists iff one exists per component.

Scale-out runtime
-----------------
With ``max_workers > 1`` the components run on a pool under a cost-ordered
scheduler rather than ``pool.map``:

* **Cost estimates** — per-component work is estimated from the constraint
  count, the ``|Iσ|`` target-pool sizes and the candidate-space cap
  (:func:`estimate_component_cost`); tasks dispatch **largest-first** over
  ``as_completed`` so one big component cannot straggle behind a queue of
  small ones.
* **Chunking** — components whose estimated cost is far below the
  per-task target are batched into chunked tasks, amortizing pool IPC
  over many tiny searches.
* **Early cancellation** — the first infeasible component cancels every
  pending task and returns immediately (the sequential path mirrors this
  by stopping at the first failure in component order).
* **Zero-copy relation transport** — the process executor exports the
  relation and its columnar index once into shared memory
  (:mod:`repro.core.shm`); a pool initializer attaches each worker to the
  segments and seeds its process-local ``get_index`` cache, so per-task
  payloads are O(1) in relation size and worker memo caches stay warm
  across tasks.  When shared memory is unavailable the initializer falls
  back to one pickled relation per worker (never per task).

Determinism: each component keeps its own ``SeedSequence`` stream (one
child per component, spawned in component order), snapshots and stats are
merged in component order after the join, and the ``parallel.*`` telemetry
counters are emitted only on pooled runs — so a successful run's results
and non-``parallel.*`` observability counters are byte-identical whether
the components ran sequentially, on threads, or in processes, in whatever
completion order.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from functools import partial
from time import perf_counter
from typing import Optional, Union

import numpy as np

from .. import obs
from ..obs import tracectx
from ..data.relation import Relation
from .coloring import (
    SOLVER_TIERS,
    ColoringResult,
    ColoringSearch,
    SearchBudgetExceeded,
    SearchStats,
)
from .constraints import ConstraintSet
from .graph import ConstraintNode, build_graph
from .strategies import SelectionStrategy
from .suppress import normalize_clustering

#: Target number of tasks per worker: over-decomposing by this factor keeps
#: the pool load-balanced when component costs are misestimated, while the
#: chunker below stops tiny components from each paying their own IPC.
_TASKS_PER_WORKER = 4

# -- worker-process state ------------------------------------------------------

#: Module-global state of one pool worker (populated by the initializers).
#: ``relation`` is the attached (or seeded) relation, ``segments`` keeps the
#: shared-memory mappings referenced, ``attach_ns`` is reported home by the
#: first task the worker runs.
_WORKER: dict = {}


def _init_worker_shm(descriptor: dict) -> None:
    """Pool initializer: attach to the parent's shared segments once."""
    from .shm import attach

    start = perf_counter()
    relation, segments = attach(descriptor)
    _WORKER["relation"] = relation
    _WORKER["segments"] = segments
    _WORKER["attach_ns"] = int((perf_counter() - start) * 1e9)


def _init_worker_pickled(relation: Relation) -> None:
    """Fallback pool initializer: one pickled relation per worker.

    The index is built eagerly so every task the worker runs shares it —
    the same amortization as the shared-memory path, minus the zero-copy.
    """
    from .index import get_index

    _WORKER["relation"] = relation
    _WORKER["attach_ns"] = 0
    get_index(relation)


def _solve_component(
    subset: ConstraintSet,
    seed_seq: np.random.SeedSequence,
    relation: Relation,
    k: int,
    strategy,
    max_candidates: int,
    max_steps: Optional[int],
    collect: bool = False,
    solver: str = "exact",
) -> tuple[ColoringResult, Optional[dict]]:
    """Solve one component; module-level so process pools can pickle it.

    ``solver`` applies *per component*: on the ``auto`` tier each budget-
    exhausted component escalates to a warm-started approx pass on its own,
    so one hard component degrades gracefully instead of sinking the whole
    pooled run.  An escalation that fails re-raises the component's
    original :class:`SearchBudgetExceeded` (whose ``partial`` payload is
    pickled home intact).

    With ``collect=True`` the component's search runs under a fresh
    thread-local :class:`~repro.obs.Collector` and its picklable snapshot
    rides back with the result.  The thread-local scope is what keeps
    concurrent workers from interleaving events: on a thread pool each
    worker records privately; on a process pool the child's sink state is
    fresh anyway and the snapshot is the only channel home.
    """
    def solve() -> ColoringResult:
        if solver == "approx":
            from .approx import approx_clustering

            return approx_clustering(
                relation, subset, k, rng=np.random.default_rng(seed_seq)
            )
        search = ColoringSearch(
            relation,
            subset,
            k,
            strategy=strategy,
            max_candidates=max_candidates,
            max_steps=max_steps,
            rng=np.random.default_rng(seed_seq),
        )
        try:
            return search.run()
        except SearchBudgetExceeded as exc:
            if solver != "auto":
                raise
            from .approx import escalate_from_budget

            result = escalate_from_budget(
                relation, subset, k, graph=search.graph, exc=exc
            )
            if result is None:
                raise
            return result

    if not collect:
        return solve(), None
    # Construction included: graph-build and candidate-enumeration events
    # belong to this worker, under thread and process executors alike.
    with obs.collecting() as collector:
        result = solve()
    return result, collector.snapshot()


def _solve_chunk(
    chunk: list[tuple[int, ConstraintSet, np.random.SeedSequence]],
    k: int,
    strategy,
    max_candidates: int,
    max_steps: Optional[int],
    collect: bool,
    solver: str = "exact",
    relation: Optional[Relation] = None,
    trace: Optional[tracectx.TraceContext] = None,
) -> tuple[list[tuple[int, ColoringResult, Optional[dict]]], int]:
    """Solve a batch of components in one task.

    ``relation=None`` means "use the worker's attached/seeded relation"
    (process pools); thread pools pass the parent's relation directly.
    Returns per-component ``(order, result, snapshot, wall_ns)`` tuples —
    one snapshot per component, so the parent can replay them in
    component order regardless of how they were batched, and the
    component's solve wall clock — plus the worker's attach time,
    reported exactly once per worker process.

    ``trace`` is the parent's :class:`~repro.obs.tracectx.TraceContext`
    captured inside its ``parallel.schedule`` span.  Contextvars do not
    cross pool boundaries, so it travels in the task payload and is
    reinstalled here — every span this task's components emit then carries
    explicit ids naming the scheduling span as parent, which is what lets
    the trace-tree reconstruction stitch worker spans under the request
    instead of guessing from nesting depths.
    """
    if relation is None:
        relation = _WORKER["relation"]
    attach_ns = _WORKER.pop("attach_ns", 0)
    out = []
    with tracectx.use_trace(trace):
        for order, subset, seed_seq in chunk:
            started = perf_counter()
            result, snapshot = _solve_component(
                subset, seed_seq, relation, k, strategy, max_candidates,
                max_steps, collect, solver,
            )
            wall_ns = int((perf_counter() - started) * 1e9)
            out.append((order, result, snapshot, wall_ns))
    return out, attach_ns


# -- cost estimate -------------------------------------------------------------


def estimate_component_cost(
    nodes: list[ConstraintNode], max_candidates: int
) -> float:
    """Estimated search effort for one connected component.

    A deliberately simple, monotone surrogate for the dominant terms of
    the per-component search: candidate enumeration scans each
    constraint's target pool against the candidate cap, and the
    backtracking interleaves the component's constraints, so effort grows
    with the component's total ``|Iσ|`` mass plus its candidate-space
    bound times its node count.  Used only for *ordering* and *chunking*
    — a misestimate costs balance, never correctness.
    """
    pool = sum(len(node.target_tids) for node in nodes)
    candidates = sum(
        min(max_candidates, 1 + len(node.target_tids)) for node in nodes
    )
    return float(pool + candidates * len(nodes))


def _build_chunks(
    tasks: list[tuple[int, ConstraintSet, np.random.SeedSequence]],
    costs: list[float],
    max_workers: int,
) -> list[list[tuple[int, ConstraintSet, np.random.SeedSequence]]]:
    """Group cost-sorted tasks into dispatch chunks, largest-first.

    Tasks are taken in descending cost order; a chunk closes as soon as
    its accumulated cost reaches ``total / (workers × _TASKS_PER_WORKER)``.
    Large components therefore dispatch alone (and first), while runs of
    tiny components pack together until they amount to a worthwhile task.
    """
    order = sorted(range(len(tasks)), key=lambda i: (-costs[i], i))
    target = sum(costs) / max(1, max_workers * _TASKS_PER_WORKER)
    chunks: list[list] = []
    current: list = []
    current_cost = 0.0
    for i in order:
        current.append(tasks[i])
        current_cost += costs[i]
        if current_cost >= target:
            chunks.append(current)
            current, current_cost = [], 0.0
    if current:
        chunks.append(current)
    return chunks


# -- the component scheduler ---------------------------------------------------


def check_process_strategy(
    strategy: Union[str, SelectionStrategy],
    max_workers: Optional[int],
    executor: str,
) -> None:
    """Reject a strategy instance for a process pool.

    A process pool takes the strategy by name, and each worker builds its
    own.  The check reads only the configuration, so it fails the same
    way whatever number of components Σ splits into.
    """
    pooled = max_workers is not None and max_workers > 1
    if pooled and executor == "process" and not isinstance(strategy, str):
        raise ValueError(
            "process executor needs a strategy name, not an instance"
        )


def component_coloring(
    relation: Relation,
    constraints: ConstraintSet,
    k: int,
    strategy: Union[str, SelectionStrategy] = "maxfanout",
    max_candidates: int = 64,
    max_steps: Optional[int] = None,
    seed: int = 0,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    solver: str = "exact",
) -> ColoringResult:
    """Color each connected component independently and merge.

    ``solver`` selects the per-component tier (``exact``/``approx``/
    ``auto`` — see :func:`repro.core.coloring.diverse_clustering`); on
    ``auto``, escalation happens inside each component's worker, so only
    the components that actually exhaust their budget pay the approx pass.

    ``max_workers=None`` (or 1) runs components sequentially; any larger
    value uses a pool of that size — ``executor="thread"`` (default, cheap
    to spawn) or ``executor="process"`` (true parallelism; requires a
    picklable strategy, i.e. a name rather than an instance, and ships the
    relation via shared memory when available).  The merged result reports
    combined search statistics.

    Each component gets its own RNG stream, derived by spawning
    ``np.random.SeedSequence(seed)`` — one child per component — so
    per-component randomness is independent (and identical whether the
    components run sequentially, on threads, or in processes, in any
    completion order).
    """
    if executor not in ("thread", "process"):
        raise ValueError("executor must be 'thread' or 'process'")
    if solver not in SOLVER_TIERS:
        raise ValueError(f"solver must be one of {SOLVER_TIERS}, got {solver!r}")
    check_process_strategy(strategy, max_workers, executor)
    graph = build_graph(relation, constraints)
    components = graph.connected_components()
    if not components:
        # Zero components (empty Σ): trivially feasible, nothing to search.
        return ColoringResult(True, clustering=())
    subsets = [
        ConstraintSet(graph.node(i).constraint for i in component)
        for component in components
    ]
    seed_seqs = np.random.SeedSequence(seed).spawn(len(subsets))
    collect = obs.enabled()  # decided once, in the parent, at submit time

    pooled = (
        max_workers is not None and max_workers > 1 and len(components) > 1
    )
    if not pooled:
        pairs: dict[int, tuple[ColoringResult, Optional[dict]]] = {}
        for order, (subset, seed_seq) in enumerate(zip(subsets, seed_seqs)):
            result, snapshot = _solve_component(
                subset, seed_seq, relation, k, strategy, max_candidates,
                max_steps, collect, solver,
            )
            pairs[order] = (result, snapshot)
            if not result.success:
                break  # mirror the pooled path's early cancellation
        return _merge(components, pairs)

    tasks = list(zip(range(len(subsets)), subsets, seed_seqs))
    costs = [
        estimate_component_cost(
            [graph.node(i) for i in component], max_candidates
        )
        for component in components
    ]
    chunks = _build_chunks(tasks, costs, max_workers)
    with obs.span(obs.SPAN_PARALLEL_SCHEDULE) as schedule:
        pairs, telemetry = _run_pool(
            chunks, relation, k, strategy, max_candidates, max_steps,
            collect, max_workers, executor, solver,
        )
        # Replay worker snapshots while the scheduling span is still open,
        # rebased under it: worker streams record their spans from depth 0,
        # so without the rebase each pooled task's roots surface as extra
        # top-level trees in the reconstructed forest.  Sequential runs
        # replay in-thread (below) with depths already correct and skip it.
        result = _merge(
            components,
            pairs,
            rebase=(schedule.depth + 1, obs.SPAN_PARALLEL_SCHEDULE)
            if collect
            else None,
        )
    telemetry[obs.PARALLEL_COMPONENTS] = len(components)
    telemetry[obs.PARALLEL_TASKS_DISPATCHED] = len(chunks)
    telemetry[obs.PARALLEL_TASKS_CHUNKED] = sum(
        len(chunk) for chunk in chunks if len(chunk) > 1
    )
    # Telemetry last, after the component-ordered snapshot replay, and only
    # for pooled runs: sequential counter streams stay byte-identical.
    obs.incr_many(telemetry)
    return result


def _run_pool(
    chunks: list,
    relation: Relation,
    k: int,
    strategy,
    max_candidates: int,
    max_steps: Optional[int],
    collect: bool,
    max_workers: int,
    executor: str,
    solver: str = "exact",
) -> tuple[dict, dict]:
    """Dispatch chunks largest-first and drain completions out of order.

    Returns the per-component ``(result, snapshot)`` map and the run's
    ``parallel.*`` telemetry.  On the first failed component, pending
    futures are cancelled and in-flight ones are awaited but ignored.
    """
    from .shm import SharedRelationStore, shm_available

    telemetry: dict[str, int] = {}
    store = None
    pool_kwargs: dict = {}
    solve = partial(
        _solve_chunk,
        k=k,
        strategy=strategy,
        max_candidates=max_candidates,
        max_steps=max_steps,
        collect=collect,
        solver=solver,
        # Captured inside the caller's ``parallel.schedule`` span, so every
        # worker span links to it by explicit parent id (picklable; None
        # when the run is untraced).
        trace=tracectx.current(),
    )
    if executor == "process":
        if shm_available():
            with obs.span(obs.SPAN_PARALLEL_SHM_EXPORT):
                store = SharedRelationStore(relation)
            telemetry[obs.PARALLEL_SHM_SEGMENTS] = store.segment_count
            telemetry[obs.PARALLEL_SHM_BYTES_EXPORTED] = store.nbytes
            pool_kwargs = {
                "initializer": _init_worker_shm,
                "initargs": (store.descriptor,),
            }
        else:
            telemetry[obs.PARALLEL_SHM_FALLBACKS] = 1
            pool_kwargs = {
                "initializer": _init_worker_pickled,
                "initargs": (relation,),
            }
        pool_cls = ProcessPoolExecutor
    else:
        solve = partial(solve, relation=relation)
        pool_cls = ThreadPoolExecutor

    pairs: dict[int, tuple[ColoringResult, Optional[dict]]] = {}
    wall_ns = 0
    attach_ns = 0
    cancelled = 0
    first_done: Optional[float] = None
    try:
        with pool_cls(max_workers=max_workers, **pool_kwargs) as pool:
            futures: set[Future] = {pool.submit(solve, c) for c in chunks}
            failed = False
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                if first_done is None:
                    first_done = perf_counter()
                for future in done:
                    solved, task_attach_ns = future.result()
                    attach_ns += task_attach_ns
                    for order, result, snapshot, component_ns in solved:
                        pairs[order] = (result, snapshot)
                        wall_ns += component_ns
                        failed = failed or not result.success
                if failed:
                    for future in futures:
                        if future.cancel():
                            cancelled += 1
                    break
    finally:
        if store is not None:
            store.close()
            store.unlink()
    if first_done is not None:
        telemetry[obs.PARALLEL_STRAGGLER_WAIT_NS] = int(
            (perf_counter() - first_done) * 1e9
        )
    telemetry[obs.PARALLEL_SHM_ATTACH_NS] = attach_ns
    telemetry[obs.PARALLEL_TASKS_CANCELLED] = cancelled
    telemetry[obs.PARALLEL_COMPONENT_WALL_NS] = wall_ns
    return pairs, telemetry


def _merge(
    components: list[list[int]],
    pairs: dict[int, tuple[ColoringResult, Optional[dict]]],
    rebase: Optional[tuple[int, str]] = None,
) -> ColoringResult:
    """Join per-component results in component order.

    Snapshot replay and stats merging walk components in Σ order — never
    completion order — so a successful run's merged counters are
    byte-identical to a sequential run's.  On failure the merge stops at
    the first failing component (later components may or may not have
    completed; their effort is not reported).

    ``rebase=(depth_offset, parent_name)`` re-anchors replayed worker
    streams under the scheduling span (pooled runs only): the sequential
    path records its snapshots on the caller's own span stack, so its
    depths are already correct and it passes None.
    """
    depth_offset, root_parent = rebase if rebase is not None else (0, None)
    merged_stats = SearchStats()
    merged_assignment: dict[int, tuple] = {}
    clusters: list = []
    satisfied: list = []
    for order, component in enumerate(components):
        entry = pairs.get(order)
        if entry is None:
            # Cancelled (or never dispatched) behind an earlier failure.
            return ColoringResult(False, stats=merged_stats)
        result, snapshot = entry
        if snapshot is not None:
            obs.emit_snapshot(
                snapshot, depth_offset=depth_offset, root_parent=root_parent
            )
        merged_stats += result.stats
        if not result.success:
            return ColoringResult(False, stats=merged_stats)
        # Per-component searches number nodes locally; remap to global.
        for local_index, clustering in result.assignment.items():
            merged_assignment[component[local_index]] = clustering
        satisfied.extend(result.satisfied)
        clusters.extend(result.clustering)

    unique = []
    seen = set()
    for cluster in clusters:
        if cluster not in seen:
            seen.add(cluster)
            unique.append(cluster)
    return ColoringResult(
        True,
        assignment=merged_assignment,
        clustering=normalize_clustering(unique),
        satisfied=tuple(satisfied),
        stats=merged_stats,
    )
