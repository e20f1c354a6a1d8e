"""Property tests: the columnar kernels equal the pure-Python oracle.

The columnar kernel layer (``repro.core.index``) re-implements every hot
path — preserved counts, QI Hamming distances, suppression-cost scoring,
similarity orderings, greedy partitioning — as NumPy reductions.  These
tests pin the contract that makes that safe: on *any* relation, cluster
set and constraint, production agrees exactly with the reference
implementations in ``tests/oracle.py``, including full end-to-end
candidate enumeration and coloring runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize import make_anonymizer
from repro.anonymize.kmember import KMemberAnonymizer
from repro.core.clusterings import (
    clustering_suppression_cost,
    enumerate_clusterings,
    preserved_count,
)
from repro.core.coloring import SearchBudgetExceeded, diverse_clustering
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.graph import build_graph
from repro.core.index import get_index
from repro.core.suppress import suppress
from repro.data.relation import Relation, Schema
from tests.oracle import (
    ReferenceColoringSearch,
    cluster_suppression_cost_reference,
    greedy_k_partition,
    nearest_by_hamming,
    preserved_count_reference,
    qi_distance_reference,
    qi_rows_of,
    reference_enumeration,
)

import numpy as np

SCHEMA = Schema.from_names(qi=["A", "B", "C"], sensitive=["S"])

values_a = st.sampled_from(["a0", "a1", "a2"])
values_b = st.sampled_from(["b0", "b1"])
values_c = st.sampled_from(["c0", "c1", "c2", "c3"])
values_s = st.sampled_from(["s0", "s1", "s2"])

rows = st.tuples(values_a, values_b, values_c, values_s)


@st.composite
def relations(draw, min_rows=1, max_rows=24):
    data = draw(st.lists(rows, min_size=min_rows, max_size=max_rows))
    return Relation(SCHEMA, data)


@st.composite
def relations_with_clustering(draw, k=2):
    relation = draw(relations(min_rows=2 * k, max_rows=20))
    tids = list(relation.tids)
    n_clusters = draw(st.integers(0, len(tids) // k))
    index = draw(st.permutations(tids))
    clusters, cursor = [], 0
    for _ in range(n_clusters):
        size = draw(st.integers(k, max(k, min(len(tids) - cursor, 2 * k))))
        if cursor + size > len(tids):
            break
        clusters.append(frozenset(index[cursor:cursor + size]))
        cursor += size
    return relation, tuple(clusters)


@st.composite
def constraints(draw):
    attr = draw(st.sampled_from(["A", "B", "C", "S"]))
    domain = {"A": values_a, "B": values_b, "C": values_c, "S": values_s}[attr]
    value = draw(domain)
    lower = draw(st.integers(0, 4))
    upper = draw(st.integers(lower, 12))
    return DiversityConstraint(attr, value, lower, upper)


def _unique_set(sigma_list):
    unique = []
    for sigma in sigma_list:
        if sigma not in unique:
            unique.append(sigma)
    return ConstraintSet(unique)


class TestPreservedCountEquivalence:
    @given(relations_with_clustering(), constraints())
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_reference(self, rc, sigma):
        relation, clustering = rc
        index = get_index(relation)
        vectorized = sum(index.preserved_count(c, sigma) for c in clustering)
        assert vectorized == preserved_count_reference(relation, clustering, sigma)

    @given(relations_with_clustering(), constraints())
    @settings(max_examples=40, deadline=None)
    def test_dispatcher_agrees_across_backends(self, rc, sigma):
        """The public helper (batched ``preserved_count_many``) agrees with
        the oracle."""
        relation, clustering = rc
        assert preserved_count(
            relation, clustering, sigma
        ) == preserved_count_reference(relation, clustering, sigma)

    @given(relations_with_clustering(), constraints())
    @settings(max_examples=40, deadline=None)
    def test_star_cells_handled_like_reference(self, rc, sigma):
        """The index factorizes STAR to its own code — suppressed relations
        count exactly as the oracle counts them."""
        relation, clustering = rc
        suppressed = suppress(relation, clustering)
        full = (frozenset(suppressed.tids),) if len(suppressed) else ()
        index = get_index(suppressed)
        vectorized = sum(index.preserved_count(c, sigma) for c in full)
        assert vectorized == preserved_count_reference(suppressed, full, sigma)


class TestHammingEquivalence:
    @given(relations(min_rows=2, max_rows=12))
    @settings(max_examples=60, deadline=None)
    def test_qi_hamming_all_pairs(self, relation):
        index = get_index(relation)
        tids = list(relation.tids)
        for a in tids:
            for b in tids:
                assert index.qi_hamming(a, b) == qi_distance_reference(
                    relation, a, b
                )

    @given(relations(min_rows=2, max_rows=12))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_matrix(self, relation):
        index = get_index(relation)
        tids = list(relation.tids)
        matrix = index.pairwise_qi_hamming(tids)
        for i, a in enumerate(tids):
            for j, b in enumerate(tids):
                assert matrix[i, j] == qi_distance_reference(relation, a, b)

    @given(relations(min_rows=2, max_rows=16))
    @settings(max_examples=60, deadline=None)
    def test_hamming_from_and_ranking(self, relation):
        index = get_index(relation)
        tids = sorted(relation.tids)
        seed = tids[0]
        dists = index.hamming_from(seed, tids)
        assert [int(d) for d in dists] == [
            qi_distance_reference(relation, seed, t) for t in tids
        ]
        expected = sorted(
            tids, key=lambda t: (qi_distance_reference(relation, seed, t), t)
        )
        assert index.rank_by_hamming(seed, tids) == expected

    @given(relations(min_rows=3, max_rows=16))
    @settings(max_examples=60, deadline=None)
    def test_nearest_by_hamming_matches_reference(self, relation):
        index = get_index(relation)
        tids = sorted(relation.tids)
        seed, candidates = tids[0], tids[1:]
        assert index.rank_by_hamming(seed, candidates) == nearest_by_hamming(
            seed, candidates, qi_rows_of(relation)
        )


class TestSuppressionCostEquivalence:
    @given(relations_with_clustering())
    @settings(max_examples=80, deadline=None)
    def test_cluster_cost(self, rc):
        relation, clustering = rc
        index = get_index(relation)
        for cluster in clustering:
            assert index.cluster_cost(cluster) == cluster_suppression_cost_reference(
                relation, cluster
            )

    @given(relations_with_clustering())
    @settings(max_examples=40, deadline=None)
    def test_clustering_cost_across_backends(self, rc):
        """The batched clustering cost equals the oracle's per-cluster sum."""
        relation, clustering = rc
        assert clustering_suppression_cost(relation, clustering) == sum(
            cluster_suppression_cost_reference(relation, c) for c in clustering
        )


class TestPartitionEquivalence:
    @given(relations(min_rows=4, max_rows=20), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_greedy_k_partition(self, relation, k):
        items = tuple(sorted(relation.tids))
        vec = get_index(relation).greedy_k_partition(items, k)
        ref = greedy_k_partition(items, k, qi_rows_of(relation))
        assert vec == ref
        assert all(len(block) >= min(k, len(items)) for block in vec)


class TestEndToEndEquivalence:
    @given(relations(min_rows=4, max_rows=16), constraints(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_enumerate_clusterings(self, relation, sigma, k):
        vec = enumerate_clusterings(
            relation, sigma, k, max_candidates=8, rng=np.random.default_rng(7)
        )
        with reference_enumeration():
            ref = enumerate_clusterings(
                relation, sigma, k, max_candidates=8, rng=np.random.default_rng(7)
            )
        assert vec == ref

    @staticmethod
    def _run_search(run):
        try:
            return run()
        except SearchBudgetExceeded as exc:
            return exc

    @given(
        relations(min_rows=6, max_rows=14),
        st.lists(constraints(), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_diverse_clustering(self, relation, sigma_list):
        sigma_set = _unique_set(sigma_list)
        vec = self._run_search(
            lambda: diverse_clustering(
                relation,
                sigma_set,
                k=2,
                max_steps=3_000,
                rng=np.random.default_rng(3),
            )
        )
        ref = self._run_search(
            lambda: ReferenceColoringSearch(
                relation,
                sigma_set,
                2,
                max_steps=3_000,
                rng=np.random.default_rng(3),
            ).run()
        )
        if isinstance(vec, SearchBudgetExceeded) or isinstance(
            ref, SearchBudgetExceeded
        ):
            # Hard instances may exhaust the step budget — but then both
            # implementations must exhaust it at exactly the same point.
            assert type(vec) is type(ref)
            assert (
                vec.partial["stats"].as_dict() == ref.partial["stats"].as_dict()
            )
        else:
            assert vec.success == ref.success
            assert vec.clustering == ref.clustering
            assert vec.stats.as_dict() == ref.stats.as_dict()

    @given(
        relations(min_rows=2, max_rows=16),
        st.lists(constraints(), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_graph_build(self, relation, sigma_list):
        """Mask-derived ``Iσ`` sets and overlaps equal per-row scans."""
        sigma_set = _unique_set(sigma_list)
        graph = build_graph(relation, sigma_set)
        targets = [frozenset(sigma.target_tids(relation)) for sigma in sigma_set]
        assert [n.target_tids for n in graph] == targets
        overlaps = {
            (i, j): targets[i] & targets[j]
            for i in range(len(targets))
            for j in range(i + 1, len(targets))
            if targets[i] & targets[j]
        }
        assert graph.edges == sorted(overlaps)
        for (i, j), shared in overlaps.items():
            assert graph.overlap(i, j) == shared


class TestKMemberLeftovers:
    """Leftover assignment at cluster-boundary sizes (n % k ∈ {0, 1, k-1}).

    ``KMemberAnonymizer._assign_leftovers`` scores every leftover against
    all clusters in one broadcasted pass and updates only the chosen
    cluster's uniform mask incrementally; the reference here recomputes
    each cluster's mask from scratch per assignment.  The two must agree
    exactly — including ``argmin`` tie-breaking — on any matrix.
    """

    @staticmethod
    def _assign_naive(matrix, clusters_rows, leftovers):
        clusters = [list(r) for r in clusters_rows]
        for row in leftovers:
            costs = []
            for member_rows in clusters:
                profile = matrix[member_rows[0]]
                uniform = (matrix[member_rows] == profile).all(axis=0)
                diffs = (profile != matrix[row]) & uniform
                costs.append(int(diffs.sum()) * (len(member_rows) + 1))
            clusters[int(np.argmin(costs))].append(int(row))
        return clusters

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_incremental_mask_matches_recompute(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        n_clusters = data.draw(st.integers(1, 4), label="n_clusters")
        residue = data.draw(st.sampled_from([0, 1, k - 1]), label="n mod k")
        n_cols = data.draw(st.integers(1, 5), label="n_cols")
        n = n_clusters * k + residue
        matrix = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(0, 2), min_size=n_cols, max_size=n_cols
                    ),
                    min_size=n,
                    max_size=n,
                ),
                label="matrix",
            ),
            dtype=np.int32,
        )
        clusters_rows = [
            list(range(i * k, (i + 1) * k)) for i in range(n_clusters)
        ]
        leftovers = np.arange(n_clusters * k, n)
        expected = self._assign_naive(matrix, clusters_rows, leftovers)
        actual = [list(r) for r in clusters_rows]
        KMemberAnonymizer._assign_leftovers(matrix, actual, leftovers)
        assert actual == expected

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_partition_invariants_at_boundaries(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        residue = data.draw(st.sampled_from([0, 1, k - 1]), label="n mod k")
        blocks = data.draw(st.integers(1, 3), label="n // k")
        n = blocks * k + residue
        rows_data = data.draw(
            st.lists(rows, min_size=n, max_size=n), label="rows"
        )
        relation = Relation(SCHEMA, rows_data)
        anonymizer = make_anonymizer("k-member", np.random.default_rng(5))
        clusters = anonymizer.cluster(relation, k)
        # Exactly ⌊n/k⌋ clusters that disjointly cover R, each of size ≥ k
        # (the final ones absorb the n mod k leftovers).
        assert len(clusters) == n // k
        covered = [tid for cluster in clusters for tid in cluster]
        assert len(covered) == n
        assert set(covered) == set(relation.tids)
        assert all(len(cluster) >= k for cluster in clusters)
