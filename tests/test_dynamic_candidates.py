"""Unit tests for the dynamic residual-pool candidate generation.

These pin down the behaviour that makes nested/overlapping constraints
solvable: shortfall sizing, residual-pool drawing, and the empty-clustering
shortcut when shared clusters already satisfy a node's lower bound.
"""

import numpy as np
import pytest

from repro.core.coloring import ColoringSearch
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.suppress import suppress
from repro.data.relation import Relation, Schema


@pytest.fixture
def nested_relation():
    """20 tuples: ETH=e for all; GEN alternates; CITY varies."""
    schema = Schema.from_names(qi=["GEN", "ETH", "CITY"], sensitive=["S"])
    rows = [
        ("Male" if i % 2 else "Female", "e", f"c{i % 4}", f"s{i}")
        for i in range(20)
    ]
    return Relation(schema, rows)


class TestShortfallSizing:
    def test_empty_clustering_when_lower_met(self, nested_relation):
        """A node whose count is already covered colors with ()."""
        constraints = ConstraintSet(
            [
                DiversityConstraint(["GEN", "ETH"], ["Female", "e"], 4, 20),
                DiversityConstraint("ETH", "e", 4, 20),  # nested parent
            ]
        )
        search = ColoringSearch(nested_relation, constraints, k=2)
        # Color the child first with a 4-tuple Female cluster.
        child_candidate = search.candidates(0)[0]
        search._apply(child_candidate)
        # The parent's count is now ≥ 4 (the cluster is uniform on ETH).
        assert search._engine.counts_view()[1] >= 4
        dynamic = search._dynamic_candidates(1)
        assert dynamic == [()]

    def test_residual_pool_avoids_covered_tuples(self, nested_relation):
        constraints = ConstraintSet(
            [
                DiversityConstraint(["GEN", "ETH"], ["Female", "e"], 4, 10),
                DiversityConstraint(["GEN", "ETH"], ["Male", "e"], 4, 10),
            ]
        )
        search = ColoringSearch(nested_relation, constraints, k=2)
        first = search.candidates(0)[0]
        search._apply(first)
        covered = set().union(*first) if first else set()
        for clustering in search._dynamic_candidates(1):
            for cluster in clustering:
                assert not (cluster & covered)

    def test_shortfall_sized_clusters(self, nested_relation):
        """Dynamic clusters cover max(k, remaining shortfall) tuples."""
        constraints = ConstraintSet(
            [DiversityConstraint("ETH", "e", 7, 20)]
        )
        search = ColoringSearch(nested_relation, constraints, k=2)
        for clustering in search._dynamic_candidates(0):
            total = sum(len(c) for c in clustering)
            assert total == 7
            for cluster in clustering:
                assert len(cluster) >= 2

    def test_upper_bound_respected(self, nested_relation):
        """No dynamic candidate is offered when it would overshoot λr."""
        constraints = ConstraintSet(
            [
                DiversityConstraint(["GEN", "ETH"], ["Female", "e"], 6, 10),
                DiversityConstraint("ETH", "e", 6, 8),
            ]
        )
        search = ColoringSearch(nested_relation, constraints, k=2)
        # Color the child: 6 Females preserved, all counting toward ETH=e.
        child = next(
            c for c in search.candidates(0)
            if sum(len(x) for x in c) == 6
        )
        search._apply(child)
        have = search._engine.counts_view()[1]
        for clustering in search._dynamic_candidates(1):
            added = sum(len(c) for c in clustering)
            assert have + added <= 8

    def test_non_qi_constraint_gets_no_dynamic(self, nested_relation):
        constraints = ConstraintSet([DiversityConstraint("S", "s1", 1, 20)])
        search = ColoringSearch(nested_relation, constraints, k=2)
        assert search._dynamic_candidates(0) == []


class TestNestedEndToEnd:
    def test_nested_pair_solves(self, nested_relation):
        """Parent demanding 80% + child demanding 60% of the same pool."""
        constraints = ConstraintSet(
            [
                DiversityConstraint("ETH", "e", 16, 20),
                DiversityConstraint(["GEN", "ETH"], ["Female", "e"], 6, 10),
                DiversityConstraint(["GEN", "ETH"], ["Male", "e"], 6, 10),
            ]
        )
        search = ColoringSearch(nested_relation, constraints, k=2)
        result = search.run()
        assert result.success
        suppressed = suppress(nested_relation, result.clustering)
        assert constraints.is_satisfied_by(suppressed)

    def test_static_only_fails_same_instance(self, nested_relation):
        """Without the refinement the same instance exhausts its pools."""
        constraints = ConstraintSet(
            [
                DiversityConstraint("ETH", "e", 16, 20),
                DiversityConstraint(["GEN", "ETH"], ["Female", "e"], 6, 10),
                DiversityConstraint(["GEN", "ETH"], ["Male", "e"], 6, 10),
            ]
        )
        search = ColoringSearch(
            nested_relation, constraints, k=2,
            max_candidates=16, max_steps=20_000,
        )
        search._dynamic_candidates = lambda index: []
        result = search.run()
        # The static pools may luck into a solution with some seeds, but
        # with a small candidate cap this nested instance fails.
        assert not result.success
