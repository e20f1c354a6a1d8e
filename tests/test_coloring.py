"""Unit tests for the backtracking coloring search (Algorithms 3–4)."""

import numpy as np
import pytest

from repro.core.coloring import (
    ColoringSearch,
    SearchBudgetExceeded,
    clusters_consistent,
    diverse_clustering,
    merged_clusters,
)
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.suppress import suppress
from tests.oracle import ReferenceColoringSearch


class TestClustersConsistent:
    def test_disjoint_ok(self):
        assert clusters_consistent(
            (frozenset({1, 2}),), (frozenset({3, 4}),)
        )

    def test_equal_ok(self):
        assert clusters_consistent(
            (frozenset({1, 2}),), (frozenset({1, 2}),)
        )

    def test_partial_overlap_fails(self):
        assert not clusters_consistent(
            (frozenset({1, 2}),), (frozenset({2, 3}),)
        )

    def test_empty_chosen(self):
        assert clusters_consistent((frozenset({1, 2}),), ())


class TestMergedClusters:
    def test_dedupe(self):
        a = frozenset({1, 2})
        merged = merged_clusters({0: (a,), 1: (a, frozenset({3, 4}))})
        assert set(merged) == {a, frozenset({3, 4})}

    def test_extra(self):
        merged = merged_clusters({}, extra=(frozenset({9}),))
        assert merged == (frozenset({9}),)


class TestPaperColoring:
    def test_finds_satisfying_clustering(self, paper_relation, paper_constraints):
        result = diverse_clustering(paper_relation, paper_constraints, k=2)
        assert result.success
        suppressed = suppress(paper_relation, result.clustering)
        assert paper_constraints.is_satisfied_by(suppressed)

    def test_all_strategies_succeed(self, paper_relation, paper_constraints):
        for strategy in ("basic", "minchoice", "maxfanout"):
            result = diverse_clustering(
                paper_relation, paper_constraints, k=2, strategy=strategy
            )
            assert result.success, strategy
            suppressed = suppress(paper_relation, result.clustering)
            assert paper_constraints.is_satisfied_by(suppressed), strategy

    def test_assignment_covers_every_node(self, paper_relation, paper_constraints):
        result = diverse_clustering(paper_relation, paper_constraints, k=2)
        assert sorted(result.assignment) == [0, 1, 2]
        assert len(result.satisfied) == 3

    def test_clusters_at_least_k(self, paper_relation, paper_constraints):
        result = diverse_clustering(paper_relation, paper_constraints, k=2)
        for cluster in result.clustering:
            assert len(cluster) >= 2

    def test_k3_unsatisfiable(self, paper_relation, paper_constraints):
        """At k=3 the African constraint (only 2 target tuples) fails."""
        result = diverse_clustering(paper_relation, paper_constraints, k=3)
        assert not result.success

    def test_upper_bound_interaction(self, paper_relation):
        """Example from Section 3.2: σ2 with σ4 = (GEN[Male], 1, 3).

        Choosing {{t5, t6}} for σ2 preserves two Males, so σ4's clustering
        must not preserve more than one more Male.  The search must find a
        consistent combination or fail — never return a violating one.
        """
        constraints = ConstraintSet(
            [
                DiversityConstraint("ETH", "African", 1, 3),
                DiversityConstraint("GEN", "Male", 1, 3),
            ]
        )
        result = diverse_clustering(paper_relation, constraints, k=2)
        if result.success:
            suppressed = suppress(paper_relation, result.clustering)
            assert constraints.is_satisfied_by(suppressed)

    def test_tight_upper_bound_respected(self, paper_relation):
        """Male count in the suppressed clustering must stay ≤ 2."""
        constraints = ConstraintSet(
            [
                DiversityConstraint("ETH", "African", 2, 2),  # exactly t5,t6
                DiversityConstraint("GEN", "Male", 2, 2),
            ]
        )
        result = diverse_clustering(paper_relation, constraints, k=2)
        assert result.success
        suppressed = suppress(paper_relation, result.clustering)
        assert constraints.is_satisfied_by(suppressed)

    def test_empty_sigma(self, paper_relation):
        result = diverse_clustering(paper_relation, ConstraintSet(), k=2)
        assert result.success
        assert result.clustering == ()


class TestSearchMechanics:
    def test_stats_recorded(self, paper_relation, paper_constraints):
        result = diverse_clustering(paper_relation, paper_constraints, k=2)
        assert result.stats.nodes_expanded >= 3
        assert result.stats.candidates_tried >= 3
        stats = result.stats.as_dict()
        assert set(stats) == {
            "nodes_expanded", "candidates_tried", "backtracks",
            "consistency_checks", "prunes",
        }

    def test_budget_exceeded_raises(self, paper_relation, paper_constraints):
        with pytest.raises(SearchBudgetExceeded):
            diverse_clustering(
                paper_relation, paper_constraints, k=2, max_steps=1
            )

    def test_invalid_k(self, paper_relation, paper_constraints):
        with pytest.raises(ValueError):
            diverse_clustering(paper_relation, paper_constraints, k=0)

    def test_deterministic_given_seed(self, paper_relation, paper_constraints):
        a = diverse_clustering(
            paper_relation, paper_constraints, k=2,
            strategy="basic", rng=np.random.default_rng(5),
        )
        b = diverse_clustering(
            paper_relation, paper_constraints, k=2,
            strategy="basic", rng=np.random.default_rng(5),
        )
        assert a.clustering == b.clustering

    def test_incremental_matches_reference_consistency(
        self, paper_relation, paper_constraints
    ):
        """The fast in-search check agrees with the oracle's non-incremental
        re-suppress-and-recount check."""
        search = ColoringSearch(paper_relation, paper_constraints, k=2)
        oracle = ReferenceColoringSearch(paper_relation, paper_constraints, k=2)
        for index in (0, 1, 2):
            for candidate in search.candidates(index):
                assert search._consistent(candidate) == oracle.is_consistent(
                    candidate, {}
                )

    def test_incremental_after_apply(self, paper_relation, paper_constraints):
        search = ColoringSearch(paper_relation, paper_constraints, k=2)
        oracle = ReferenceColoringSearch(paper_relation, paper_constraints, k=2)
        first = search.candidates(0)[0]
        search._apply(first)
        assignment = {0: first}
        for index in (1, 2):
            for candidate in search.candidates(index):
                assert search._consistent(candidate) == oracle.is_consistent(
                    candidate, assignment
                ), (index, candidate)

    def test_revert_restores_state(self, paper_relation, paper_constraints):
        search = ColoringSearch(paper_relation, paper_constraints, k=2)
        engine = search._engine
        counts_before = engine.counts_view()
        candidate = search.candidates(2)[0]
        search._apply(candidate)
        search._revert(candidate)
        assert engine.counts_view() == counts_before
        assert engine.cluster_refs_view() == {}
        assert engine.covered_view() == {}

    def test_shared_cluster_refcounting(self, paper_relation):
        """Two constraints satisfied by the same cluster share a color."""
        constraints = ConstraintSet(
            [
                DiversityConstraint("ETH", "Asian", 2, 3),
                DiversityConstraint("GEN", "Female", 2, 4),
            ]
        )
        search = ColoringSearch(paper_relation, constraints, k=2)
        shared = frozenset({9, 10})  # Female Asians
        engine = search._engine
        search._apply((shared,))
        search._apply((shared,))
        assert engine.cluster_refs_view()[shared] == 2
        search._revert((shared,))
        assert engine.cluster_refs_view()[shared] == 1
        search._revert((shared,))
        assert shared not in engine.cluster_refs_view()
