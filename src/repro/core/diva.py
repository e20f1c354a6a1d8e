"""DIVA — DIVerse and Anonymized publishing (paper Algorithm 1).

The top-level pipeline:

1. **DiverseClustering** — backtracking graph coloring finds a clustering
   SΣ of (a subset of) the tuples that satisfies every σ ∈ Σ.
2. **Suppress** — SΣ becomes the k-anonymous, Σ-satisfying relation RΣ.
3. **Anonymize** — the remaining tuples ``R \\ SΣ`` go through an
   off-the-shelf k-anonymizer (k-member by default, as in the paper's
   evaluation) to produce Rk.
4. **Integrate** — ``RΣ ∪ Rk`` is checked against Σ's upper bounds; Rk-side
   violations are repaired by whole-group suppression.

``DivaResult`` carries the published relation together with phase timings,
search statistics and the repair report, which is everything the benchmark
harness needs to regenerate the paper's figures.

Failure semantics: in *strict* mode an unsatisfiable Σ raises
:class:`UnsatisfiableError` (the paper's "relation does not exist").  In
*best-effort* mode DIVA instead drops the fewest, most-restrictive
constraints needed to make coloring succeed and reports them in
``result.dropped`` — the high-conflict sweeps of Figure 4c use this so a
single infeasible Σ doesn't abort a whole experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .. import obs
from ..data.relation import Relation

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..anonymize import Anonymizer
from .coloring import (
    SOLVER_TIERS,
    ColoringSearch,
    SearchBudgetExceeded,
    SearchStats,
)
from .constraints import ConstraintSet, DiversityConstraint
from .enumeration import get_enum_memo
from .errors import UnsatisfiableError
from .index import get_index
from .integrate import IntegrationReport, integrate
from .parallel import check_process_strategy, component_coloring
from .problem import KSigmaProblem
from .strategies import SelectionStrategy, make_strategy
from .suppress import covered_tids, suppress

#: Run-level effort counters, each the per-run delta of one cumulative tally.
_EFFORT_COUNTERS = (
    (obs.INDEX_CLUSTER_CACHE_HITS, "cluster_cache_hits"),
    (obs.INDEX_CLUSTER_CACHE_MISSES, "cluster_cache_misses"),
    (obs.ENUM_MEMO_HITS, "enum_memo_hits"),
    (obs.ENUM_MEMO_MISSES, "enum_memo_misses"),
)


def _effort_totals(relation: Relation) -> dict[str, int]:
    """Cumulative index-cache and enumeration-memo tallies."""
    return get_index(relation).cache_stats() | get_enum_memo().stats()


@dataclass
class DivaResult:
    """Everything DIVA produced for one (R, Σ, k) instance."""

    relation: Relation
    clustering: tuple = ()
    r_sigma: Optional[Relation] = None
    r_k: Optional[Relation] = None
    satisfied: tuple[DiversityConstraint, ...] = ()
    dropped: tuple[DiversityConstraint, ...] = ()
    stats: SearchStats = field(default_factory=SearchStats)
    integration: IntegrationReport = field(default_factory=IntegrationReport)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    @property
    def fully_diverse(self) -> bool:
        """True when no constraint had to be dropped."""
        return not self.dropped

    def summary(self) -> str:
        """Human-readable one-screen report of the run."""
        lines = [
            f"DIVA result: {len(self.relation)} tuples published",
            f"  diverse clustering: {len(self.clustering)} cluster(s) over "
            f"{sum(len(c) for c in self.clustering)} tuple(s)",
            f"  constraints: {len(self.satisfied)} satisfied, "
            f"{len(self.dropped)} dropped",
        ]
        if self.dropped:
            for sigma in self.dropped:
                lines.append(f"    dropped {sigma!r}")
        lines.append(
            f"  suppression: {self.relation.star_count()} starred cell(s)"
        )
        if self.integration.repairs:
            lines.append(
                f"  integrate repairs: {len(self.integration.repairs)} "
                f"constraint(s), {self.integration.cells_starred} cell(s)"
            )
        lines.append(
            "  search: "
            f"{self.stats.candidates_tried} candidates tried, "
            f"{self.stats.backtracks} backtracks"
        )
        lines.append(
            "  time: "
            + ", ".join(f"{k} {v:.3f}s" for k, v in self.timings.items())
        )
        return "\n".join(lines)


class Diva:
    """Configured DIVA solver.

    Parameters
    ----------
    strategy:
        Node/clustering selection: ``"basic"``, ``"minchoice"`` or
        ``"maxfanout"`` (or a :class:`SelectionStrategy` instance).
    anonymizer:
        Off-the-shelf k-anonymizer for the Anonymize phase; name
        (``"k-member"``, ``"oka"``, ``"mondrian"``) or instance.
    best_effort:
        Drop unsatisfiable constraints instead of raising.
    max_candidates:
        Cap on clusterings enumerated per constraint (the paper's
        polynomiality knob).
    max_steps:
        Budget on candidate evaluations in the coloring search (default
        100k; pass None for an unbounded, exact search).  Exceeding it
        raises (strict) or triggers constraint dropping (best-effort).
    refine:
        Run the suppression-minimality polish (``core.refine``) on the
        Anonymize-phase clusters after Integrate.
    seed:
        Seeds every random choice (strategies, anonymizers, sampling).
    max_workers:
        When set, DiverseClustering runs per connected component under the
        cost-ordered scheduler of :mod:`repro.core.parallel` with a pool of
        this size.  ``None`` (default) keeps the monolithic sequential
        search.
    executor:
        Pool flavor for ``max_workers``: ``"thread"`` (default) or
        ``"process"`` (ships the relation via shared memory; requires a
        strategy *name*, not an instance).
    solver:
        Solver tier for DiverseClustering: ``"exact"`` (default, the
        backtracking coloring search), ``"approx"`` (the poly-time greedy
        tier of :mod:`repro.core.approx`), or ``"auto"`` (exact under the
        step budget, escalating to a warm-started approx pass only on
        :class:`SearchBudgetExceeded` — byte-identical to ``"exact"``
        whenever the budget suffices).
    """

    def __init__(
        self,
        strategy: Union[str, SelectionStrategy] = "maxfanout",
        anonymizer: Union[str, Anonymizer] = "k-member",
        best_effort: bool = False,
        max_candidates: int = 64,
        max_steps: Optional[int] = 100_000,
        refine: bool = False,
        seed: int = 0,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        solver: str = "exact",
    ):
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        if solver not in SOLVER_TIERS:
            raise ValueError(
                f"solver must be one of {SOLVER_TIERS}, got {solver!r}"
            )
        check_process_strategy(strategy, max_workers, executor)
        self.solver = solver
        self._strategy_spec = strategy
        self._anonymizer_spec = anonymizer
        self.best_effort = best_effort
        self.max_candidates = max_candidates
        self.max_steps = max_steps
        self.refine = refine
        self.seed = seed
        self.max_workers = max_workers
        self.executor = executor

    def _fresh_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def _fresh_strategy(self, rng: np.random.Generator) -> SelectionStrategy:
        if isinstance(self._strategy_spec, SelectionStrategy):
            return self._strategy_spec
        return make_strategy(self._strategy_spec, rng)

    def _fresh_anonymizer(self, rng: np.random.Generator) -> "Anonymizer":
        from ..anonymize import Anonymizer, make_anonymizer

        if isinstance(self._anonymizer_spec, Anonymizer):
            return self._anonymizer_spec
        return make_anonymizer(self._anonymizer_spec, rng)

    # -- main entry point ------------------------------------------------------

    def run(
        self, relation: Relation, constraints: ConstraintSet, k: int
    ) -> DivaResult:
        """Solve one (k, Σ)-anonymization instance (Algorithm 1).

        Each phase runs inside an observability span (the span durations
        are also the ``result.timings`` entries), and run-level counters —
        suppressed cells, dropped constraints, kernel cluster-cache deltas
        — are emitted when a sink is installed; with the default null sink
        the instrumentation is inert and behavior-neutral.
        """
        with obs.span(obs.SPAN_DIVA_RUN):
            return self._run_instrumented(relation, constraints, k)

    def _run_instrumented(
        self, relation: Relation, constraints: ConstraintSet, k: int
    ) -> DivaResult:
        problem = KSigmaProblem(relation, constraints, k)
        rng = self._fresh_rng()

        # Kernel cluster-cache and memo counters are cumulative (the index
        # and the process-global enumeration memo outlive any single run),
        # so report this run's contribution as deltas.
        effort_before = _effort_totals(relation) if obs.enabled() else None

        active = constraints
        dropped: list[DiversityConstraint] = []
        infeasible = problem.infeasible_constraints()
        if infeasible:
            if not self.best_effort:
                raise UnsatisfiableError(
                    "infeasible constraints: "
                    + "; ".join(f"{p.constraint!r} ({p.reason})" for p in infeasible),
                    unsatisfied=[p.constraint for p in infeasible],
                )
            bad = {p.constraint for p in infeasible}
            dropped.extend(c for c in active if c in bad)
            active = ConstraintSet(c for c in active if c not in bad)

        timings: dict[str, float] = {}

        # Phase 1: DiverseClustering (with best-effort constraint dropping).
        with obs.span(obs.SPAN_DIVERSE_CLUSTERING) as sp:
            coloring, active, newly_dropped = self._diverse_clustering(
                relation, active, k, rng
            )
        dropped.extend(newly_dropped)
        timings["diverse_clustering"] = sp.duration
        if coloring is None:
            raise UnsatisfiableError(
                "no diverse clustering exists: relation does not exist",
                unsatisfied=list(constraints),
            )

        # Phase 2: Suppress SΣ into RΣ.
        with obs.span(obs.SPAN_SUPPRESS) as sp:
            r_sigma = suppress(relation, coloring.clustering)
        timings["suppress"] = sp.duration

        # Phase 3: Anonymize the remaining tuples.
        with obs.span(obs.SPAN_ANONYMIZE) as sp:
            rest = relation.without(covered_tids(coloring.clustering))
            if len(rest) == 0:
                r_k = rest
            elif len(rest) < k:
                # Fewer than k leftovers cannot form their own QI-group; fold
                # them into the SΣ cluster where they do the least damage.
                r_sigma = self._absorb_small_remainder(
                    relation, coloring.clustering, rest, active
                )
                r_k = rest.without(rest.tids)
            else:
                anonymizer = self._fresh_anonymizer(rng)
                r_k = anonymizer.anonymize(rest, k)
        timings["anonymize"] = sp.duration

        # Phase 4: Integrate and repair upper bounds.
        with obs.span(obs.SPAN_INTEGRATE) as sp:
            final, report = integrate(r_sigma, r_k, active)
        timings["integrate"] = sp.duration

        if self.refine:
            from .refine import refine_result

            with obs.span(obs.SPAN_REFINE) as sp:
                draft = DivaResult(
                    relation=final,
                    r_sigma=r_sigma,
                    r_k=r_k,
                    satisfied=tuple(active),
                )
                final, _saved = refine_result(draft, relation, k)
            timings["refine"] = sp.duration

        if obs.enabled():
            run_counters = {
                obs.SUPPRESS_CELLS_STARRED: final.star_count(),
                obs.DIVA_CONSTRAINTS_DROPPED: len(dropped),
            }
            if effort_before is not None:
                effort_after = _effort_totals(relation)
                for name, key in _EFFORT_COUNTERS:
                    run_counters[name] = effort_after[key] - effort_before[key]
            obs.incr_many(run_counters)

        return DivaResult(
            relation=final,
            clustering=coloring.clustering,
            r_sigma=r_sigma,
            r_k=r_k,
            satisfied=tuple(active),
            dropped=tuple(dropped),
            stats=coloring.stats,
            integration=report,
            timings=timings,
        )

    # -- internals -------------------------------------------------------------

    def _diverse_clustering(self, relation, constraints, k, rng):
        """Run the coloring search, dropping constraints in best-effort mode.

        Returns ``(result_or_None, surviving_constraints, dropped)``.

        With ``max_workers`` configured, the first (full-Σ) attempt runs
        per connected component on the parallel scheduler.  Best-effort
        constraint dropping needs the monolithic search's per-node
        candidate counts to pick a victim, so on a failed parallel attempt
        the drop loop below takes over sequentially — the parallel run
        already established *that* Σ is infeasible; the loop decides
        *what* to shed.
        """
        if self.max_workers is not None and self.max_workers > 1:
            result = self._parallel_attempt(relation, constraints, k, rng)
            if result is not None and result.success:
                return result, constraints, []
            if not self.best_effort:
                return None, constraints, []
        dropped: list[DiversityConstraint] = []
        active = constraints
        budget = self.max_steps
        while True:
            search = None
            if self.solver == "approx":
                from .approx import approx_clustering

                result = approx_clustering(relation, active, k, rng=rng)
            else:
                search = ColoringSearch(
                    relation,
                    active,
                    k,
                    strategy=self._fresh_strategy(rng),
                    max_candidates=self.max_candidates,
                    max_steps=budget,
                    rng=rng,
                )
                try:
                    result = search.run()
                except SearchBudgetExceeded as exc:
                    result = None
                    if self.solver == "auto":
                        from .approx import escalate_from_budget

                        result = escalate_from_budget(
                            relation, active, k, graph=search.graph, exc=exc
                        )
                    if result is None and not self.best_effort:
                        raise
            if result is not None and result.success:
                return result, active, dropped
            if not self.best_effort:
                return None, active, dropped
            if len(active) == 0:
                # Nothing left to drop: succeed with the empty clustering.
                from .coloring import ColoringResult

                return ColoringResult(True, clustering=()), active, dropped
            # Drop the most restrictive constraint and retry — the cheapest
            # way to restore satisfiability.  With an exact search in hand,
            # restrictiveness is its candidate count; the approx tier has no
            # candidate pools, so the smallest target pool is the proxy.
            # The step budget halves per retry so repeated failed searches
            # stay bounded (total work ≤ 2 × max_steps) even for large Σ.
            victim = self._pick_victim(search, relation, active)
            dropped.append(victim)
            active = ConstraintSet(c for c in active if c != victim)
            if budget is not None:
                budget = max(budget // 2, 2_000)

    @staticmethod
    def _pick_victim(search, relation, active) -> DiversityConstraint:
        """The most restrictive constraint of ``active`` to shed next."""
        if search is not None:
            return min(
                (node for node in search.graph),
                key=lambda n: (len(search.candidates(n.index)), n.index),
            ).constraint
        from .graph import build_graph

        return min(
            (node for node in build_graph(relation, active)),
            key=lambda n: (len(n.target_tids), n.index),
        ).constraint

    def _parallel_attempt(self, relation, constraints, k, rng):
        """One component-parallel coloring pass; None means "try dropping".

        Components draw from ``SeedSequence(self.seed)`` spawns rather
        than the run's shared ``rng`` stream, so the outcome is a function
        of (R, Σ, k, seed) alone — independent of executor flavor, worker
        count and completion order.
        """
        strategy = self._strategy_spec
        if not isinstance(strategy, str) and self.executor == "thread":
            strategy = self._fresh_strategy(rng)
        try:
            return component_coloring(
                relation,
                constraints,
                k,
                strategy=strategy,
                max_candidates=self.max_candidates,
                max_steps=self.max_steps,
                seed=self.seed,
                max_workers=self.max_workers,
                executor=self.executor,
                solver=self.solver,
            )
        except SearchBudgetExceeded:
            if not self.best_effort:
                raise
            return None

    @staticmethod
    def _absorb_small_remainder(relation, clustering, rest, constraints):
        """Re-suppress with the < k leftover tuples folded into clusters.

        Each leftover tuple is placed greedily into the host cluster that
        (first) keeps Σ satisfied and (second) adds the fewest stars —
        merging can star a target attribute and break a lower bound, so
        satisfaction is re-checked per candidate host.  Falls back to the
        cheapest violating merge when no host preserves Σ (the violation
        then surfaces through the problem validator / metrics, not
        silently).
        """
        clusters = [set(c) for c in clustering]
        for tid in sorted(rest.tids):
            best = None  # ((violates, stars), host_index)
            for host_index in range(len(clusters)):
                trial = [set(c) for c in clusters]
                trial[host_index].add(tid)
                merged = suppress(relation.restrict(
                    {t for c in trial for t in c}
                ), trial)
                violates = not constraints.is_satisfied_by(merged)
                key = (violates, merged.star_count())
                if best is None or key < best[0]:
                    best = (key, host_index)
            clusters[best[1]].add(tid)
        return suppress(relation, clusters)


def run_diva(
    relation: Relation,
    constraints: ConstraintSet,
    k: int,
    strategy: Union[str, SelectionStrategy] = "maxfanout",
    anonymizer: Union[str, Anonymizer] = "k-member",
    best_effort: bool = False,
    max_candidates: int = 64,
    max_steps: Optional[int] = 100_000,
    refine: bool = False,
    seed: int = 0,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    solver: str = "exact",
) -> DivaResult:
    """One-call convenience wrapper around :class:`Diva`."""
    diva = Diva(
        strategy=strategy,
        anonymizer=anonymizer,
        best_effort=best_effort,
        max_candidates=max_candidates,
        max_steps=max_steps,
        refine=refine,
        seed=seed,
        max_workers=max_workers,
        executor=executor,
        solver=solver,
    )
    return diva.run(relation, constraints, k)
