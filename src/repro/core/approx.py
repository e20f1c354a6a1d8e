"""Polynomial-time approximation tier for diverse clustering.

The exact coloring search (:mod:`repro.core.coloring`) is exponential in
the worst case; on adversarial (k, Σ) instances it exhausts its step
budget and raises :class:`~repro.core.coloring.SearchBudgetExceeded`.
This module is the graceful-degradation tier behind the ``solver`` axis:
a greedy constructive algorithm in the style of the l-diversity
approximation literature — Xiao/Yi/Tao "The Hardness and Approximation
Algorithms for L-Diversity" and Li/Yi/Zhang "Clustering with Diversity"
(PAPERS.md) — that always terminates in polynomial time and whose
information loss is bounded by construction:

* every cluster it emits has size in ``[k, 2k)`` (the clustering-with-
  diversity size bound: ``RelationIndex.greedy_k_partition`` blocks are
  ``[k, 2k)``);
* for each constraint σ it selects at most ``max(k, λl)`` *additional*
  target tuples beyond what shared clusters already contribute — within
  ``k − 1`` tuples of the ``max(k, λl)`` mass *any* feasible solution
  must preserve for σ;
* hence total suppressed cells ≤ ``W_QI · Σ_σ max(k, λl_σ)`` where
  ``W_QI`` is the QI width (each selected tuple loses at most every QI
  cell).  This is the documented loss bound the conformance suite
  (``tests/test_approx.py``) pins.

The solver is *sound but not complete*: a returned success is a genuine
diverse clustering — re-verified through the same exact machinery the
coloring search uses (disjointness via :func:`normalize_clustering`,
per-constraint surviving counts via :func:`preserved_count`) before it
is handed back — but a failure does not certify that no clustering
exists.  Callers on the ``auto`` tier treat an approx failure as "still
undecided" and surface the original budget exhaustion.

Warm start: :class:`ApproxSolver` accepts the partial assignment payload
of a budget-exceeded exact search (``SearchBudgetExceeded.partial
["assignment"]``) and keeps every still-consistent exact choice, so
escalation resumes from the exact tier's progress instead of restarting
cold.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from .. import obs
from ..data.relation import Relation
from .clusterings import clustering_suppression_cost, preserved_count
from .coloring import (
    ColoringResult,
    SearchBudgetExceeded,
    SearchStats,
    merged_clusters,
)
from .constraints import ConstraintSet
from .graph import ConstraintGraph, build_graph
from .index import get_index
from .searchstate import ContributionResolver
from .suppress import normalize_clustering

Clustering = tuple  # tuple[frozenset, ...]

#: Documented information-loss bound: the approx tier never suppresses
#: more than ``APPROX_LOSS_FACTOR × W_QI × Σ_σ max(k, λl_σ)`` cells,
#: with ``APPROX_LOSS_FACTOR = 1`` (each selected tuple loses at most
#: its full QI row, and at most ``max(k, λl)`` tuples are selected per
#: constraint).  ``tests/test_approx.py`` pins this bound.
APPROX_LOSS_FACTOR = 1

#: Similarity seeds tried per constraint before the saturation-filtered
#: retry; bounded so the per-node work stays polynomial.
_SEEDS_PER_NODE = 3


def approx_loss_bound(relation: Relation, constraints: ConstraintSet, k: int) -> int:
    """The documented worst-case suppressed-cell count of the approx tier."""
    qi = set(relation.schema.qi_names)
    width = len(relation.schema.qi_names)
    mass = sum(
        max(k, sigma.lower)
        for sigma in constraints
        if any(a in qi for a in sigma.attrs) and sigma.lower > 0
    )
    return APPROX_LOSS_FACTOR * width * mass


class ApproxSolver:
    """One greedy approximation pass over an (R, Σ, k) instance.

    Mirrors :class:`~repro.core.coloring.ColoringSearch`'s external
    contract (returns a :class:`ColoringResult`, records
    :class:`SearchStats`) but never backtracks and never raises a budget
    error: each constraint is satisfied once, tightest-first, by a
    nearest-neighbour cluster selection over its uncovered target pool.

    Parameters
    ----------
    warm_start:
        A partial node-index → clustering assignment (the ``assignment``
        payload of a budget-exceeded exact search over the *same*
        (R, Σ, k) instance).  Consistent entries are kept verbatim;
        entries invalidated by each other are dropped, never trusted.
    graph:
        A prebuilt constraint graph, to avoid rebuilding on escalation.
    """

    def __init__(
        self,
        relation: Relation,
        constraints: ConstraintSet,
        k: int,
        *,
        rng: Optional[np.random.Generator] = None,
        graph: Optional[ConstraintGraph] = None,
        warm_start: Optional[dict[int, Clustering]] = None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.relation = relation
        self.constraints = constraints
        self.k = k
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.graph = graph if graph is not None else build_graph(relation, constraints)
        self.warm_start = dict(warm_start) if warm_start else {}
        self.stats = SearchStats()
        self._index = get_index(relation)
        self._qi = set(relation.schema.qi_names)
        # Live state, same shape as the exact search's incremental state:
        # chosen distinct clusters, covered tids, per-node surviving counts.
        self._chosen: set[frozenset] = set()
        self._covered: set[int] = set()
        self._counts: dict[int, int] = {n.index: 0 for n in self.graph}
        self._contrib_cache: dict[frozenset, tuple[tuple[int, int], ...]] = {}
        # Contribution records resolve through the same content-addressed
        # memo the exact search's engine populates — an ``auto``-tier
        # escalation therefore re-reads the warm-start clusters' records
        # instead of recomputing them.
        self._resolver = ContributionResolver(self._index, self.graph)

    # -- contributions ---------------------------------------------------------

    def _contributions(self, cluster: frozenset) -> tuple[tuple[int, int], ...]:
        """(node index, surviving-count delta) pairs — exact semantics."""
        cached = self._contrib_cache.get(cluster)
        if cached is None:
            cached = self._resolver.records([cluster])[0]
            self._contrib_cache[cluster] = cached
        return cached

    def _consistent(self, candidate: Clustering) -> bool:
        """Would applying ``candidate`` keep every upper bound intact?"""
        self.stats.consistency_checks += 1
        deltas: dict[int, int] = {}
        for cluster in candidate:
            if cluster in self._chosen:
                continue  # identical cluster already chosen
            if self._covered & cluster:
                return False  # partial overlap with a chosen cluster
            for j, delta in self._contributions(cluster):
                deltas[j] = deltas.get(j, 0) + delta
        for j, delta in deltas.items():
            if self._counts[j] + delta > self.graph.node(j).constraint.upper:
                return False
        return True

    def _apply(self, candidate: Clustering) -> None:
        for cluster in candidate:
            if cluster in self._chosen:
                continue
            self._chosen.add(cluster)
            self._covered |= cluster
            for j, delta in self._contributions(cluster):
                self._counts[j] += delta

    # -- the greedy pass -------------------------------------------------------

    def run(self) -> ColoringResult:
        """One polynomial-time constructive pass; never raises on budget.

        Emits the ``solver.approx.*`` telemetry (wall clock, nodes
        assigned, tuples selected, suppression cost of the emitted
        clustering) when an observability sink is installed.
        """
        with obs.span(obs.SPAN_APPROX_SOLVE):
            started = perf_counter()
            result = self._solve()
            if obs.enabled():
                selected = sum(len(c) for c in result.clustering)
                telemetry = {
                    obs.SOLVER_APPROX_WALL_NS: int(
                        (perf_counter() - started) * 1e9
                    ),
                    obs.SOLVER_APPROX_NODES: len(result.assignment),
                    obs.SOLVER_APPROX_SELECTED: selected,
                }
                if result.success and result.clustering:
                    telemetry[obs.SOLVER_APPROX_COST] = (
                        clustering_suppression_cost(
                            self.relation, result.clustering
                        )
                    )
                obs.incr_many(telemetry)
            return result

    def _solve(self) -> ColoringResult:
        result = self._pass(use_warm=bool(self.warm_start))
        if result.success or not self.warm_start:
            return result
        # The exact tier's partial assignment can be a dead-end prefix the
        # backtracking search would have reverted (it ran out of budget
        # mid-descent, not at a known-good frontier).  A poisoned warm
        # start must never make the tier fail where a cold pass succeeds,
        # so retry once from scratch.
        self._reset()
        return self._pass(use_warm=False)

    def _reset(self) -> None:
        self._chosen.clear()
        self._covered = set()
        self._counts = {n.index: 0 for n in self.graph}

    def _pass(self, use_warm: bool) -> ColoringResult:
        assignment: dict[int, Clustering] = {}
        if use_warm:
            warm_kept = self._apply_warm_start(assignment)
            if obs.enabled() and warm_kept:
                obs.incr(obs.SOLVER_WARM_START_NODES, warm_kept)

        remaining = {n.index for n in self.graph} - set(assignment)
        while remaining:
            index = self._tightest(remaining)
            remaining.discard(index)
            self.stats.nodes_expanded += 1
            candidate = self._greedy_candidate(index)
            if candidate is None:
                return ColoringResult(False, stats=self.stats)
            assignment[index] = candidate
            self._apply(candidate)

        merged = normalize_clustering(merged_clusters(assignment))
        if not self._verify(merged):
            # Soundness gate: never emit a success the exact validators
            # would reject.  (Unreachable by construction; kept as a
            # hard stop against future drift.)
            return ColoringResult(False, stats=self.stats)
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

    def _apply_warm_start(self, assignment: dict[int, Clustering]) -> int:
        """Adopt still-consistent exact choices; returns how many nodes."""
        kept = 0
        for index in sorted(self.warm_start):
            if not any(n.index == index for n in self.graph):
                continue  # foreign payload (different Σ); ignore
            candidate = self.warm_start[index]
            self.stats.candidates_tried += 1
            if self._consistent(candidate):
                assignment[index] = candidate
                self._apply(candidate)
                kept += 1
            else:
                self.stats.prunes += 1
        return kept

    def _tightest(self, remaining: set[int]) -> int:
        """The unassigned node with the least slack (uncovered pool minus
        residual need), degree-desc then index-asc as tiebreaks — the
        tightest-first order of the clustering-with-diversity greedy."""

        def key(index: int) -> tuple:
            node = self.graph.node(index)
            pool = len(node.target_tids - self._covered)
            need = max(0, node.constraint.lower - self._counts[index])
            return (pool - need, -self.graph.degree(index), index)

        return min(remaining, key=key)

    def _greedy_candidate(self, index: int) -> Optional[Clustering]:
        """A consistent clustering for node ``index``, or None.

        Tries a few similarity-seeded nearest-neighbour subsets of the
        uncovered target pool (cheapest-suppression candidates), then one
        saturation-filtered retry that avoids tuples feeding constraints
        already at their upper bound.  No backtracking: every attempt is
        evaluated against the live state and the count of attempts is
        constant per node, so the pass stays polynomial.
        """
        node = self.graph.node(index)
        sigma = node.constraint
        if not any(a in self._qi for a in sigma.attrs):
            return ()  # count fixed globally; nothing to cluster
        have = self._counts[index]
        need = max(0, sigma.lower - have)
        if need == 0:
            return ()  # lower bound met by shared clusters already
        pool = sorted(node.target_tids - self._covered)
        candidate = self._candidate_from_pool(index, sigma, pool, have, need)
        if candidate is not None:
            return candidate
        # Retry on the saturation-filtered pool: drop tuples that feed a
        # neighbour constraint with no upper-bound headroom left.
        filtered = self._filter_saturated(index, pool)
        if filtered != pool:
            return self._candidate_from_pool(index, sigma, filtered, have, need)
        return None

    def _candidate_from_pool(
        self, index: int, sigma, pool: list[int], have: int, need: int
    ) -> Optional[Clustering]:
        size = max(self.k, need)
        if size > len(pool) or have + size > sigma.upper:
            return None
        seeds = pool[:: max(1, len(pool) // _SEEDS_PER_NODE)][:_SEEDS_PER_NODE]
        seen: set[tuple] = set()
        for seed in seeds:
            subset = tuple(self._index.rank_by_hamming(seed, pool)[:size])
            clustering = normalize_clustering(
                self._index.greedy_k_partition(subset, self.k)
            )
            key = tuple(tuple(sorted(c)) for c in clustering)
            if key in seen:
                continue
            seen.add(key)
            self.stats.candidates_tried += 1
            if self._consistent(clustering):
                return clustering
            self.stats.prunes += 1
        return None

    def _filter_saturated(self, index: int, pool: list[int]) -> list[int]:
        """Drop pool tuples targeted by neighbours without λr headroom.

        A cluster of σ's target tuples can add up to its full size to a
        neighbouring σ′'s surviving count; when σ′ is within ``k`` of its
        upper bound, any tuple shared with ``Iσ′`` risks overshooting it,
        so the retry excludes them.
        """
        blocked: set[int] = set()
        for neighbour in self.graph.neighbors(index):
            other = self.graph.node(neighbour)
            if self._counts[neighbour] + self.k > other.constraint.upper:
                blocked |= set(other.target_tids)
        return [t for t in pool if t not in blocked]

    def _verify(self, merged: Clustering) -> bool:
        """Exact-machinery conformance check of the emitted clustering.

        ``normalize_clustering`` already guarantees disjointness; here
        every QI-touching constraint's surviving count — computed by the
        same :func:`preserved_count` kernel the exact search and its
        validators use — must fall within ``[λl, λr]``.
        """
        for node in self.graph:
            sigma = node.constraint
            if not any(a in self._qi for a in sigma.attrs):
                continue
            count = preserved_count(self.relation, merged, sigma)
            if not sigma.lower <= count <= sigma.upper:
                return False
        return True


def approx_clustering(
    relation: Relation,
    constraints: ConstraintSet,
    k: int,
    *,
    rng: Optional[np.random.Generator] = None,
    graph: Optional[ConstraintGraph] = None,
    warm_start: Optional[dict[int, Clustering]] = None,
) -> ColoringResult:
    """One-call approximation tier: ``ApproxSolver(...).run()``."""
    return ApproxSolver(
        relation,
        constraints,
        k,
        rng=rng,
        graph=graph,
        warm_start=warm_start,
    ).run()


def escalate_from_budget(
    relation: Relation,
    constraints: ConstraintSet,
    k: int,
    *,
    exc: "SearchBudgetExceeded",
    graph: Optional[ConstraintGraph] = None,
) -> Optional[ColoringResult]:
    """The ``auto`` tier's escalation step, shared by every entry point.

    Records the escalation, warm-starts the approximation solver from the
    budget-exhausted exact search's partial assignment, and — on success —
    folds the exact tier's partial effort counters into the result's stats
    so reported effort covers both tiers.  Returns ``None`` when the approx
    tier fails too; callers then re-raise the *original* exception so
    strict/best-effort/buffering semantics stay exactly as before.
    """
    obs.incr(obs.SOLVER_ESCALATIONS)
    result = approx_clustering(
        relation,
        constraints,
        k,
        graph=graph,
        warm_start=exc.partial.get("assignment"),
    )
    if not result.success:
        return None
    partial_stats = exc.partial.get("stats")
    if partial_stats is not None:
        result.stats.merge(partial_stats)
    return result
