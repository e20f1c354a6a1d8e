"""The backtracking coloring search (paper Algorithms 3 and 4).

Coloring a node = assigning it one of its candidate clusterings.  An
assignment is *consistent* (paper Section 3.2's two conditions) iff:

1. **Disjoint-or-equal** — every cluster of the candidate is either disjoint
   from, or identical to, every already-assigned cluster.  Overlapping
   unequal clusters would not suppress into QI-groups.
2. **Upper bounds preserved** — the union of assigned clusterings (clusters
   deduplicated, since two constraints may share a cluster) must not push
   any constraint's surviving target-value count above its λr.

The search is exact backtracking; the strategy object decides the node and
candidate order (that ordering is the entire difference between DIVA-Basic,
MinChoice and MaxFanOut).  Search effort statistics are recorded so the
benchmarks can expose Basic's blow-up.

For speed the search keeps incremental state: each distinct cluster's
contribution to each constraint's surviving count is precomputed once
(a cluster contributes |cluster| to σ iff it is uniform on σ's attributes
with σ's target values), and the live assignment maintains per-cluster
refcounts, a covered-tid map and per-constraint running counts, so a
consistency check costs O(|candidate clusters| × cluster size) instead of
re-suppressing the union.

The live state is the columnar :class:`~repro.core.searchstate.SearchState`
engine over the relation's shared :class:`~repro.core.index.RelationIndex`:
counter arrays, a covered-row refcount vector and an interned cluster
registry backed by the process-global contribution memo, pinned byte for
byte to the pure-Python dict state of the test oracle
(``ReferenceColoringSearch`` in ``tests/oracle.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Optional

import numpy as np

from .. import obs
from ..data.relation import Relation
from .clusterings import enumerate_clusterings
from .constraints import ConstraintSet
from .errors import ReproError
from .graph import ConstraintGraph, build_graph
from .index import get_index
from .searchstate import SearchState
from .strategies import SelectionStrategy, make_strategy
from .suppress import normalize_clustering

Clustering = tuple  # tuple[frozenset, ...]


class SearchBudgetExceeded(ReproError):
    """The coloring search hit its step budget before finishing.

    ``partial`` always carries the ``stats`` (so best-effort callers can
    report effort) and the deepest live ``assignment`` snapshot (node index
    → clustering) at the moment the budget ran out, which the ``auto``
    solver tier feeds to :class:`~repro.core.approx.ApproxSolver` as a warm
    start instead of restarting cold.
    """

    def __init__(self, message: str, partial: Optional[dict] = None):
        super().__init__(message)
        self.partial = partial or {}

    def __reduce__(self):
        # Default exception pickling re-calls ``__init__(*args)`` and would
        # silently drop ``partial`` on its way back from a process pool.
        return (type(self), (self.args[0], self.partial))


@dataclass
class SearchStats:
    """Effort counters for one coloring search.

    ``prunes`` counts candidates rejected by the consistency check without
    descending (the "pruned branch" statistic systematic-search anonymizers
    report); the other counters match the paper's effort measures.
    """

    nodes_expanded: int = 0
    candidates_tried: int = 0
    backtracks: int = 0
    consistency_checks: int = 0
    prunes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "nodes_expanded": self.nodes_expanded,
            "candidates_tried": self.candidates_tried,
            "backtracks": self.backtracks,
            "consistency_checks": self.consistency_checks,
            "prunes": self.prunes,
        }

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Fold another search's counters into this one (returns self).

        Driven by :func:`dataclasses.fields` so a counter added to the
        dataclass is merged automatically — ``tests/test_parallel.py``
        asserts the field set stays in sync with :meth:`as_dict`.
        """
        for f in dataclass_fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def __iadd__(self, other: "SearchStats") -> "SearchStats":
        return self.merge(other)


@dataclass
class ColoringResult:
    """Outcome of DiverseClustering.

    ``assignment`` maps node index → clustering; ``clustering`` is the merged
    SΣ (deduplicated clusters); ``satisfied`` lists the constraints covered;
    ``stats`` the search counters.
    """

    success: bool
    assignment: dict[int, Clustering] = field(default_factory=dict)
    clustering: tuple = ()
    satisfied: tuple = ()
    dropped: tuple = ()
    stats: SearchStats = field(default_factory=SearchStats)


def clusters_consistent(
    candidate: Sequence[frozenset], chosen: Sequence[frozenset]
) -> bool:
    """Condition 1: disjoint-or-equal against every already-chosen cluster."""
    for cluster in candidate:
        for other in chosen:
            if cluster != other and cluster & other:
                return False
    return True


def merged_clusters(
    assignment: dict[int, Clustering], extra: Sequence[frozenset] = ()
) -> tuple[frozenset, ...]:
    """Union of all assigned clusters plus ``extra``, deduplicated."""
    seen: set[frozenset] = set()
    out: list[frozenset] = []
    for clustering in assignment.values():
        for cluster in clustering:
            if cluster not in seen:
                seen.add(cluster)
                out.append(cluster)
    for cluster in extra:
        if cluster not in seen:
            seen.add(cluster)
            out.append(cluster)
    return tuple(out)


class ColoringSearch:
    """One (R, Σ, k) coloring problem with a given strategy."""

    def __init__(
        self,
        relation: Relation,
        constraints: ConstraintSet,
        k: int,
        strategy: SelectionStrategy | str = "maxfanout",
        max_candidates: int = 64,
        max_steps: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        graph: Optional[ConstraintGraph] = None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.relation = relation
        self.constraints = constraints
        self.k = k
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.strategy = (
            strategy
            if isinstance(strategy, SelectionStrategy)
            else make_strategy(strategy, self.rng)
        )
        self.graph = graph if graph is not None else build_graph(relation, constraints)
        self.max_steps = max_steps
        self.stats = SearchStats()
        self._candidates: dict[int, list[Clustering]] = {}
        with obs.span(obs.SPAN_ENUMERATE_CANDIDATES):
            for node in self.graph:
                self._candidates[node.index] = enumerate_clusterings(
                    relation,
                    node.constraint,
                    k,
                    max_candidates=max_candidates,
                    rng=self.rng,
                    target_tids=set(node.target_tids),
                )
        # The columnar search-state engine owns the live assignment: it
        # interns every distinct static cluster through the process-global
        # contribution memo with one memo-writing segment reduction per QI
        # constraint, and keeps refcounts, covered rows and per-constraint
        # counts as delta-updated arrays over the relation's shared index.
        self._engine = SearchState(
            get_index(relation), self.graph, k, self._candidates
        )
        self._live_assignment: dict[int, Clustering] = {}

    # -- consistency ---------------------------------------------------------

    def candidates(self, index: int) -> list[Clustering]:
        """The (capped) candidate clusterings of node ``index``."""
        return list(self._candidates[index])

    def _consistent(self, candidate: Clustering) -> bool:
        """Incremental consistency against the live assignment state."""
        self.stats.consistency_checks += 1
        return self._engine.consistent(candidate)

    def _contributions(self, cluster: frozenset) -> tuple[tuple[int, int], ...]:
        """(node index, surviving-count delta) pairs of one cluster over the
        QI-touching constraints, resolved lazily for dynamic clusters."""
        return self._engine.contributions(cluster)

    def consistent_count(self, index: int) -> int:
        """How many of node ``index``'s candidates remain consistent with
        the live assignment (used by the MinChoice strategy).

        Always evaluated against the incremental live-assignment state;
        the strategy callback contract is ``consistent_count(i)`` (see
        :mod:`repro.core.strategies`).  Each candidate is a window check
        against the live admission-counter arrays — the cluster delta
        arrays were interned once, so nothing is re-derived per call.
        """
        candidates = self._candidates[index]
        self.stats.consistency_checks += len(candidates)
        return self._engine.consistent_count(candidates)

    def _apply(self, candidate: Clustering) -> None:
        self._engine.apply(candidate)

    def _revert(self, candidate: Clustering) -> None:
        self._engine.revert(candidate)

    # -- search --------------------------------------------------------------

    def run(self) -> ColoringResult:
        """Execute the full backtracking search (Algorithm 4).

        Raises :class:`SearchBudgetExceeded` if ``max_steps`` candidate
        evaluations are exhausted first.  Search-effort counters are
        emitted to the observability layer when the search finishes —
        including on budget exhaustion, so partial effort is recorded.
        """
        with obs.span(obs.SPAN_COLORING_SEARCH):
            try:
                assignment: dict[int, Clustering] = {}
                # Exposed so _charge_step can snapshot the live partial
                # assignment into SearchBudgetExceeded.partial.
                self._live_assignment = assignment
                all_indices = [node.index for node in self.graph]
                success = self._color(assignment, set(all_indices))
            finally:
                self._emit_effort()
            if not success:
                return ColoringResult(False, stats=self.stats)
            merged = normalize_clustering(merged_clusters(assignment))
            satisfied = tuple(
                self.graph.node(i).constraint for i in sorted(assignment)
            )
            return ColoringResult(
                True,
                assignment=dict(assignment),
                clustering=merged,
                satisfied=satisfied,
                stats=self.stats,
            )

    def _emit_effort(self) -> None:
        """Flush cumulative SearchStats as observability counters.

        Aggregate emission at search end keeps the backtracking inner loop
        free of per-event sink traffic; repeated ``run()`` calls on one
        search instance would re-emit the running totals, so call once.
        """
        if obs.enabled():
            stats = self.stats
            counters = {
                obs.COLORING_NODES_EXPANDED: stats.nodes_expanded,
                obs.COLORING_CANDIDATES_TRIED: stats.candidates_tried,
                obs.COLORING_BACKTRACKS: stats.backtracks,
                obs.COLORING_CONSISTENCY_CHECKS: stats.consistency_checks,
                obs.COLORING_PRUNES: stats.prunes,
                # Engine effort is deterministic for a given search
                # trajectory (``batch_scored`` counts clusters *resolved*
                # through the batched path, whether the memo or the kernel
                # supplied the record), so pooled executors replaying
                # worker snapshots stay byte-identical to sequential runs.
                obs.SEARCH_DELTA_APPLIES: self._engine.delta_applies,
                obs.SEARCH_DELTA_REVERTS: self._engine.delta_reverts,
                obs.SEARCH_BATCH_SCORED: self._engine.batch_scored,
            }
            obs.incr_many(counters)

    def _color(self, assignment: dict[int, Clustering], uncolored: set[int]) -> bool:
        if not uncolored:
            return True
        self.stats.nodes_expanded += 1
        node_index = self.strategy.next_node(
            sorted(uncolored),
            self.graph,
            frozenset(assignment),
            self.consistent_count,
        )
        candidates = self.strategy.order_clusterings(self._candidates[node_index])
        # Dynamic residual-pool candidates first: they are adapted to the
        # live assignment (shortfall-sized, collision-free), so they both
        # suppress less and backtrack less than the static pool.
        for candidate in self._dynamic_candidates(node_index) + candidates:
            self._charge_step()
            self.stats.candidates_tried += 1
            if not self._consistent(candidate):
                self.stats.prunes += 1
                continue
            assignment[node_index] = candidate
            uncolored.discard(node_index)
            self._apply(candidate)
            if self._color(assignment, uncolored):
                return True
            self._revert(candidate)
            del assignment[node_index]
            uncolored.add(node_index)
            self.stats.backtracks += 1
        return False

    def _dynamic_candidates(self, index: int) -> list[Clustering]:
        """Residual-pool clusterings adapted to the live assignment.

        Static candidates always carry the full λl, but once neighbours are
        colored (a) part of σ's target pool is covered by foreign clusters
        and (b) shared clusters may already contribute to σ's count.  These
        candidates draw only from the *uncovered* target tuples and only for
        the *remaining* shortfall — the "update the candidate clusterings"
        refinement that lets nested/overlapping constraints coordinate
        instead of colliding.
        """
        return self._engine.dynamic_candidates(index)

    def _charge_step(self) -> None:
        if self.max_steps is not None and self.stats.candidates_tried >= self.max_steps:
            raise SearchBudgetExceeded(
                f"coloring exceeded {self.max_steps} candidate evaluations",
                partial={
                    "stats": self.stats,
                    "assignment": dict(self._live_assignment),
                },
            )


#: The valid values of the ``solver=`` axis (see DESIGN.md "Solver tiers").
SOLVER_TIERS = ("exact", "approx", "auto")


def diverse_clustering(
    relation: Relation,
    constraints: ConstraintSet,
    k: int,
    strategy: SelectionStrategy | str = "maxfanout",
    max_candidates: int = 64,
    max_steps: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    solver: str = "exact",
) -> ColoringResult:
    """``DiverseClustering(R, Σ, k)`` (Algorithm 3).

    Returns a :class:`ColoringResult`; ``result.success`` is False when no
    diverse clustering exists (DIVA then reports "relation does not exist").

    ``solver`` picks the tier: ``exact`` is the backtracking search above,
    ``approx`` the poly-time greedy tier (:mod:`repro.core.approx`), and
    ``auto`` runs exact first and escalates to approx — warm-started from
    the exact search's partial assignment — only when the step budget is
    exhausted, so ``auto`` is byte-identical to ``exact`` whenever exact
    finishes within budget.  If the approx tier fails too, the original
    :class:`SearchBudgetExceeded` is re-raised so callers' buffering /
    best-effort semantics are unchanged.
    """
    if solver not in SOLVER_TIERS:
        raise ValueError(f"solver must be one of {SOLVER_TIERS}, got {solver!r}")
    if solver == "approx":
        from .approx import approx_clustering  # local: avoids circular import

        return approx_clustering(relation, constraints, k, rng=rng)
    search = ColoringSearch(
        relation,
        constraints,
        k,
        strategy=strategy,
        max_candidates=max_candidates,
        max_steps=max_steps,
        rng=rng,
    )
    try:
        return search.run()
    except SearchBudgetExceeded as exc:
        if solver != "auto":
            raise
        from .approx import escalate_from_budget  # local: avoids circular import

        result = escalate_from_budget(
            relation, constraints, k, graph=search.graph, exc=exc
        )
        if result is None:
            raise
        return result
