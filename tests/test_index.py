"""Unit tests for the columnar kernel layer (``repro.core.index``)."""

import pytest

from repro.core.clusterings import preserved_count
from repro.core.constraints import DiversityConstraint
from repro.core.index import RelationIndex, get_index
from repro.data.relation import Relation, Schema
from tests.oracle import preserved_count_reference

SCHEMA = Schema.from_names(qi=["GEN", "ETH"], sensitive=["DIS"])

ROWS = [
    ("Male", "Asian", "flu"),
    ("Male", "Asian", "cold"),
    ("Female", "Asian", "flu"),
    ("Female", "African", "flu"),
    ("Male", "African", "cold"),
    ("Female", "European", "flu"),
]


@pytest.fixture
def relation():
    return Relation(SCHEMA, ROWS)


class TestIndexConstruction:
    def test_cached_on_relation(self, relation):
        assert get_index(relation) is get_index(relation)

    def test_codes_preserve_equality(self, relation):
        index = get_index(relation)
        pos = SCHEMA.position("ETH")
        codes = index.codes[:, pos]
        column = relation.column("ETH")
        for i, a in enumerate(column):
            for j, b in enumerate(column):
                assert (codes[i] == codes[j]) == (a == b)

    def test_qi_codes_shape(self, relation):
        index = get_index(relation)
        assert index.qi_codes.shape == (len(ROWS), 2)

    def test_empty_relation(self):
        index = get_index(Relation(SCHEMA, []))
        assert len(index) == 0
        sigma = DiversityConstraint("ETH", "Asian", 0, 3)
        assert index.target_tids(sigma) == frozenset()

    def test_pickle_drops_index_cache(self, relation):
        import pickle

        get_index(relation)
        clone = pickle.loads(pickle.dumps(relation))
        assert clone == relation
        assert clone._kernel_index is None


class TestArtifacts:
    def test_target_tids_match_constraint(self, relation):
        index = get_index(relation)
        for sigma in (
            DiversityConstraint("ETH", "Asian", 1, 3),
            DiversityConstraint("DIS", "flu", 1, 4),
            DiversityConstraint(("GEN", "DIS"), ("Female", "flu"), 0, 2),
        ):
            assert index.target_tids(sigma) == frozenset(
                sigma.target_tids(relation)
            )

    def test_unknown_value_matches_nothing(self, relation):
        index = get_index(relation)
        sigma = DiversityConstraint("ETH", "Martian", 0, 3)
        assert index.target_tids(sigma) == frozenset()
        assert index.preserved_count(frozenset(relation.tids), sigma) == 0


class TestKernels:
    def test_preserved_count_uniform_cluster(self, relation):
        index = get_index(relation)
        sigma = DiversityConstraint("ETH", "Asian", 1, 3)
        # {0, 1} is uniform on ETH=Asian: both occurrences survive.
        assert index.preserved_count(frozenset({0, 1}), sigma) == 2
        # {0, 3} mixes Asian/African: ETH gets starred, nothing survives.
        assert index.preserved_count(frozenset({0, 3}), sigma) == 0

    def test_preserved_count_memoized(self, relation):
        index = get_index(relation)
        sigma = DiversityConstraint("ETH", "Asian", 1, 3)
        cluster = frozenset({0, 1})
        assert index.preserved_count(cluster, sigma) == 2
        assert cluster in index._pc_cache[sigma]

    def test_cluster_cost(self, relation):
        index = get_index(relation)
        # {0, 1}: GEN and ETH both uniform — no stars.
        assert index.cluster_cost(frozenset({0, 1})) == 0
        # {0, 2}: GEN varies, ETH uniform — 1 attribute × 2 tuples.
        assert index.cluster_cost(frozenset({0, 2})) == 2

    def test_preserved_count_many_matches_singles(self, relation):
        index = get_index(relation)
        sigma = DiversityConstraint("ETH", "Asian", 1, 3)
        clustering = (frozenset({0, 1}), frozenset({2, 5}), frozenset({3, 4}))
        expected = sum(index.preserved_count(c, sigma) for c in clustering)
        # Fresh index: the batched path with no memo to read through.
        assert RelationIndex(relation).preserved_count_many(
            clustering, sigma
        ) == expected
        # Same index: the read-through path over a populated memo.
        assert index.preserved_count_many(clustering, sigma) == expected

    def test_preserved_count_many_edge_inputs(self, relation):
        index = RelationIndex(relation)
        sigma = DiversityConstraint("ETH", "Asian", 1, 3)
        # Empty clusters contribute nothing; non-frozenset clusters are fine.
        assert index.preserved_count_many((frozenset(), [0, 1]), sigma) == 2
        assert index.preserved_count_many((), sigma) == 0

    def test_clustering_cost_matches_singles(self, relation):
        index = get_index(relation)
        clustering = (frozenset({0, 1}), frozenset({0, 2}), frozenset())
        expected = sum(index.cluster_cost(c) for c in clustering)
        assert RelationIndex(relation).clustering_cost(clustering) == expected
        assert index.clustering_cost(clustering) == expected

    def test_dispatcher_uses_backend(self, relation):
        """The public helper runs the index kernel and agrees with the
        pure-Python oracle."""
        sigma = DiversityConstraint("ETH", "Asian", 1, 3)
        clustering = (frozenset({0, 1}),)
        ref = preserved_count_reference(relation, clustering, sigma)
        assert preserved_count(relation, clustering, sigma) == ref == 2

    def test_cache_stats_count_hits_and_misses(self, relation):
        index = RelationIndex(relation)
        sigma = DiversityConstraint("ETH", "Asian", 1, 3)
        cluster = frozenset({0, 1})
        assert index.cache_stats() == {
            "cluster_cache_hits": 0,
            "cluster_cache_misses": 0,
        }
        index.preserved_count(cluster, sigma)   # miss
        index.preserved_count(cluster, sigma)   # hit
        index.cluster_cost(cluster)             # miss
        index.cluster_cost(cluster)             # hit
        assert index.cache_stats() == {
            "cluster_cache_hits": 2,
            "cluster_cache_misses": 2,
        }
        # Batched paths tally too: one hit (cached cluster) + one miss.
        index.preserved_count_many((cluster, frozenset({2, 5})), sigma)
        stats = index.cache_stats()
        assert stats["cluster_cache_hits"] == 3
        assert stats["cluster_cache_misses"] == 3

    def test_direct_construction(self, relation):
        # RelationIndex is usable standalone, without the get_index cache.
        index = RelationIndex(relation)
        assert len(index) == len(ROWS)
        assert index.qi_hamming(0, 1) == 0
        assert index.qi_hamming(0, 3) == 2
