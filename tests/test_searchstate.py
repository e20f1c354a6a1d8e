"""Byte-identity conformance for the columnar search-state engine.

The engine (:mod:`repro.core.searchstate`) replaces the exact coloring
search's per-candidate dict bookkeeping with delta-updated counter arrays
over the relation index's contribution cache — but it is an *implementation*
of the reference semantics, not a variant of them.  These tests pin the
contract with hypothesis: for every (R, Σ, k, strategy, budget) drawn,
the production search and the pure-Python ``ReferenceColoringSearch`` of
``tests/oracle.py`` must agree to the byte on

* the solve outcome — success flag, assignment, clustering, satisfied,
* the full ``SearchStats`` dict (node expansions, candidates tried,
  consistency checks, backtracks),
* the RNG stream position after the solve (strategy tie-breaks consume
  the same draws in the same order), and
* the ``SearchBudgetExceeded.partial`` payload on budget exhaustion —
  the live-assignment snapshot and the partial stats.

Plus direct unit coverage of the engine internals the solve-level sweep
cannot see: live counter views, warm/cold identity, rebuilt relation
objects, and warm re-runs reading the index cache back.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import ColoringSearch, SearchBudgetExceeded
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.index import get_index
from repro.data.relation import Relation, Schema
from tests.oracle import ReferenceColoringSearch

pytestmark = pytest.mark.solver

SCHEMA = Schema.from_names(qi=["A", "B", "C"], sensitive=["S"])

values_a = st.sampled_from(["a0", "a1", "a2"])
values_b = st.sampled_from(["b0", "b1"])
values_c = st.sampled_from(["c0", "c1", "c2", "c3"])
values_s = st.sampled_from(["s0", "s1", "s2"])

rows = st.tuples(values_a, values_b, values_c, values_s)


@st.composite
def relations(draw, min_rows=4, max_rows=20):
    data = draw(st.lists(rows, min_size=min_rows, max_size=max_rows))
    return Relation(SCHEMA, data)


@st.composite
def constraints(draw):
    attr = draw(st.sampled_from(["A", "B", "C", "S"]))
    domain = {"A": values_a, "B": values_b, "C": values_c, "S": values_s}[attr]
    value = draw(domain)
    lower = draw(st.integers(0, 4))
    upper = draw(st.integers(lower, 12))
    return DiversityConstraint(attr, value, lower, upper)


@st.composite
def constraint_sets(draw, min_size=1, max_size=3):
    sigma_list = draw(st.lists(constraints(), min_size=min_size, max_size=max_size))
    unique = []
    for sigma in sigma_list:
        if sigma not in unique:
            unique.append(sigma)
    return ConstraintSet(unique)


strategies_axis = st.sampled_from(["maxfanout", "minchoice", "basic"])


def _solve_outcome(
    relation, constraints, k, strategy, max_steps, search_cls=ColoringSearch
):
    """One full solve reduced to a comparable value: every observable byte.

    RNG state is read *after* the solve so two runs agree only when the
    strategies consumed identical draws in identical order.
    """
    rng = np.random.default_rng(7)
    try:
        result = search_cls(
            relation,
            constraints,
            k,
            strategy=strategy,
            max_steps=max_steps,
            rng=rng,
        ).run()
    except SearchBudgetExceeded as exc:
        return {
            "outcome": "budget",
            "assignment": exc.partial["assignment"],
            "stats": exc.partial["stats"].as_dict(),
            "rng": rng.bit_generator.state,
        }
    return {
        "outcome": "done",
        "success": result.success,
        "assignment": result.assignment,
        "clustering": result.clustering,
        "satisfied": result.satisfied,
        "stats": result.stats.as_dict(),
        "rng": rng.bit_generator.state,
    }


class TestBackendByteIdentity:
    """Production and the reference oracle agree on every observable byte."""

    @given(
        relations(),
        constraint_sets(),
        st.sampled_from([2, 3]),
        strategies_axis,
    )
    @settings(max_examples=50, deadline=None)
    def test_unbudgeted_solves_identical(self, relation, sigma_set, k, strategy):
        ref = _solve_outcome(
            relation, sigma_set, k, strategy, None, ReferenceColoringSearch
        )
        vec = _solve_outcome(relation, sigma_set, k, strategy, None)
        assert vec == ref

    @given(
        relations(min_rows=6, max_rows=20),
        constraint_sets(min_size=2, max_size=3),
        st.sampled_from([1, 3, 10]),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_exhaustion_partials_identical(
        self, relation, sigma_set, max_steps
    ):
        """The ``SearchBudgetExceeded.partial`` payload — live-assignment
        snapshot and partial stats — matches the oracle's, and so does the
        *decision* to raise at all."""
        ref = _solve_outcome(
            relation, sigma_set, 2, "maxfanout", max_steps, ReferenceColoringSearch
        )
        vec = _solve_outcome(relation, sigma_set, 2, "maxfanout", max_steps)
        assert vec == ref

    @given(relations(min_rows=6, max_rows=16), constraint_sets())
    @settings(max_examples=30, deadline=None)
    def test_consistent_count_matches_reference(self, relation, sigma_set):
        """The engine's window check over live counter arrays returns the
        same per-node counts the reference derives per call (the MinChoice
        strategy's steering signal)."""
        counts = {}
        for search_cls in (ReferenceColoringSearch, ColoringSearch):
            search = search_cls(relation, sigma_set, 2)
            counts[search_cls] = [
                search.consistent_count(i) for i in range(len(search.graph))
            ]
        assert counts[ColoringSearch] == counts[ReferenceColoringSearch]


class TestLiveCounterViews:
    """The engine's array state, read back as dicts, mirrors the reference
    bookkeeping through apply/revert cycles."""

    def _pair(self, relation, constraints, k=2):
        ref = ReferenceColoringSearch(relation, constraints, k)
        vec = ColoringSearch(relation, constraints, k)
        return ref, vec

    def _assert_state_equal(self, ref, vec):
        engine = vec._engine
        assert engine.counts_view() == ref._counts
        assert engine.uppers_view() == ref._uppers
        assert engine.cluster_refs_view() == ref._cluster_refs
        assert engine.covered_view() == ref._covered

    def test_views_track_apply_revert(self, paper_relation, paper_constraints):
        ref, vec = self._pair(paper_relation, paper_constraints)
        self._assert_state_equal(ref, vec)
        candidate = ref._candidates[0][0]
        assert vec._candidates[0][0] == candidate
        ref._apply(candidate)
        vec._apply(candidate)
        self._assert_state_equal(ref, vec)
        assert vec._engine.covered_view()  # the apply covered tuples
        ref._revert(candidate)
        vec._revert(candidate)
        self._assert_state_equal(ref, vec)
        assert not vec._engine.covered_view()
        assert not vec._engine.cluster_refs_view()

    def test_contributions_match_reference(
        self, paper_relation, paper_constraints
    ):
        ref, vec = self._pair(paper_relation, paper_constraints)
        for node_candidates in ref._candidates.values():
            for candidate in node_candidates:
                for cluster in candidate:
                    assert vec._contributions(cluster) == ref._contributions(
                        cluster
                    )


class TestIndexContributionCache:
    """Contribution records live in the relation index's per-constraint
    cache: warm and cold solves agree, and a warm re-run reads it back."""

    def test_warm_memo_does_not_change_results(
        self, paper_relation, paper_constraints
    ):
        cold = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        warm = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        assert warm == cold

    def test_content_addressing_across_relation_objects(
        self, paper_relation, paper_constraints
    ):
        """A rebuilt Relation over the same rows (what every streaming
        publish does) solves cold on its own index to the same result."""
        clone = Relation(
            paper_relation.schema,
            [row for _, row in paper_relation],
            tids=list(paper_relation.tids),
        )
        first = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        second = _solve_outcome(clone, paper_constraints, 2, "maxfanout", None)
        assert second["stats"] == first["stats"]
        assert second["assignment"] == first["assignment"]

    def test_warm_rerun_reads_index_cache(
        self, paper_relation, paper_constraints
    ):
        """Every record a re-run on the same relation needs was written to
        the index cache by the first run: hits advance, misses do not."""
        index = get_index(paper_relation)
        first = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        before = index.cache_stats()
        second = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        after = index.cache_stats()
        assert second == first
        assert after["cluster_cache_hits"] > before["cluster_cache_hits"]
        assert after["cluster_cache_misses"] == before["cluster_cache_misses"]
