"""Tests for the columnar candidate-enumeration engine (``repro.core.enumeration``).

Pins the engine byte-identical to the reference enumeration of
``tests/oracle.py`` (content, order, tid types and RNG stream), the
content-addressed memo's transparency (warm results and generator states
match cold runs exactly), the flat per-size sampling caps both consume,
and the np.int64-coercion regression in the reference sampled path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.clusterings import enumerate_clusterings
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.diva import Diva
from repro.core.enumeration import enumeration_size_caps, get_enum_memo
from repro.data.datasets import make_census
from repro.data.relation import Relation, Schema
from repro.stream import StreamingAnonymizer
from repro.workloads.constraint_gen import proportion_constraints
from tests.oracle import reference_enumeration, similarity_seeded_subsets


@pytest.fixture(autouse=True)
def _cold_memo():
    """Every test starts (and leaves) the process-global memo cold."""
    get_enum_memo().clear()
    yield
    get_enum_memo().clear()


# -- np.int64 coercion regression (reference sampled path) ---------------------


class TestSampledPathIntCoercion:
    def test_sampled_seeds_and_fill_yield_builtin_ints(self):
        """Both rng.choice paths coerce NumPy scalars at the boundary.

        rng.choice returns np.int64; uncoerced, sampled subsets would carry
        NumPy tids while the exhaustive itertools path carries built-ins.
        """
        pool = list(range(40))
        qi_rows = {t: (f"v{t % 3}",) for t in pool}
        rng = np.random.default_rng(3)
        # cap < len(pool) forces sampled seeds; small cap leaves room for
        # the random-fill loop too.
        subsets = similarity_seeded_subsets(qi_rows, pool, 5, rng, cap=12)
        assert subsets
        for subset in subsets:
            assert all(type(t) is int for t in subset)

    def test_mixed_path_enumeration_uniform_types_and_unique(self):
        """A pool hitting the sampled path dedups against itself and yields
        built-in ints, from the engine and from the reference alike."""
        relation = make_census(seed=3, n_rows=300)
        sigma = proportion_constraints(relation, 1, k=5, seed=3)[0]

        def enumerate_once():
            return enumerate_clusterings(
                relation, sigma, 5, max_candidates=16, rng=np.random.default_rng(3)
            )

        with reference_enumeration():
            reference = enumerate_once()
        for found in (reference, enumerate_once()):
            assert found
            keys = [tuple(tuple(sorted(c)) for c in s) for s in found]
            assert len(keys) == len(set(keys))
            for clustering in found:
                for cluster in clustering:
                    assert all(type(t) is int for t in cluster)


# -- engine vs. reference (hypothesis) -----------------------------------------


SCHEMA = Schema.from_names(qi=["A", "B", "C"], sensitive=["S"])

values = {
    "A": st.sampled_from(["a0", "a1", "a2"]),
    "B": st.sampled_from(["b0", "b1"]),
    "C": st.sampled_from(["c0", "c1", "c2", "c3"]),
    "S": st.sampled_from(["s0", "s1", "s2"]),
}

rows = st.tuples(values["A"], values["B"], values["C"], values["S"])


@st.composite
def relations(draw, min_rows=4, max_rows=26):
    data = draw(st.lists(rows, min_size=min_rows, max_size=max_rows))
    return Relation(SCHEMA, data)


@st.composite
def constraints(draw):
    attr = draw(st.sampled_from(["A", "B", "C"]))
    value = draw(values[attr])
    lower = draw(st.integers(0, 4))
    upper = draw(st.integers(lower, 14))
    return DiversityConstraint(attr, value, lower, upper)


class TestBackendEquivalence:
    @given(
        relations(),
        constraints(),
        st.integers(1, 3),
        st.sampled_from([4, 8, 16]),
        st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_backends_byte_identical(self, relation, sigma, k, mc, seed):
        """The engine is pinned to the reference: same clusterings, same
        order, same post-call generator state.

        Equality against the (unpruned, sort-dedup-cap) reference also
        proves the rank-cutoff "dominated" pruning never removes a
        top-``max_candidates`` clustering.  The memo stays warm across
        hypothesis examples on purpose: equivalence must hold at any cache
        temperature.
        """
        rng_vec = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        vec = enumerate_clusterings(
            relation, sigma, k, max_candidates=mc, rng=rng_vec
        )
        with reference_enumeration():
            ref = enumerate_clusterings(
                relation, sigma, k, max_candidates=mc, rng=rng_ref
            )
        assert vec == ref
        assert repr(rng_vec.bit_generator.state) == repr(
            rng_ref.bit_generator.state
        )

    def test_sampled_pool_byte_identical(self):
        """The similarity-sampled large-pool path, beyond hypothesis' reach."""
        relation = make_census(seed=7, n_rows=400)
        for sigma in proportion_constraints(relation, 4, k=5, seed=7):
            for mc in (8, 64):
                rng_vec = np.random.default_rng(11)
                rng_ref = np.random.default_rng(11)
                vec = enumerate_clusterings(
                    relation, sigma, 5, max_candidates=mc, rng=rng_vec
                )
                with reference_enumeration():
                    ref = enumerate_clusterings(
                        relation, sigma, 5, max_candidates=mc, rng=rng_ref
                    )
                assert vec == ref
                assert repr(rng_vec.bit_generator.state) == repr(
                    rng_ref.bit_generator.state
                )


# -- enumeration memo ----------------------------------------------------------


class TestEnumerationMemo:
    def test_warm_hit_matches_cold_run_including_rng_state(self):
        relation = make_census(seed=7, n_rows=400)
        sigma = proportion_constraints(relation, 1, k=5, seed=7)[0]

        def run():
            rng = np.random.default_rng(11)
            found = enumerate_clusterings(
                relation, sigma, 5, max_candidates=64, rng=rng
            )
            return found, repr(rng.bit_generator.state)

        memo = get_enum_memo()
        cold, cold_state = run()
        base = memo.stats()
        warm, warm_state = run()
        delta = memo.stats()
        assert warm == cold
        # The memo replays the rng draws its generation consumed, so cache
        # reuse is invisible to everything downstream of the generator.
        assert warm_state == cold_state
        assert delta["enum_memo_hits"] == base["enum_memo_hits"] + 1
        assert delta["enum_memo_misses"] == base["enum_memo_misses"]

    def test_content_addressed_across_relation_objects(self):
        """A fresh Relation (hence fresh index) with the same rows hits.

        This is the property the streaming engine leans on: every publish
        rebuilds the relation, but recurring QI pools share enumerations.
        """
        relation = make_census(seed=7, n_rows=200)
        sigma = proportion_constraints(relation, 1, k=5, seed=7)[0]
        rebuilt = Relation(
            relation.schema,
            [row for _, row in relation],
            list(relation.tids),
        )
        memo = get_enum_memo()
        first = enumerate_clusterings(
            relation, sigma, 5, rng=np.random.default_rng(2)
        )
        base = memo.stats()
        second = enumerate_clusterings(
            rebuilt, sigma, 5, rng=np.random.default_rng(2)
        )
        assert second == first
        assert memo.stats()["enum_memo_hits"] == base["enum_memo_hits"] + 1

    def test_clear_forces_regeneration(self):
        relation = make_census(seed=7, n_rows=200)
        sigma = proportion_constraints(relation, 1, k=5, seed=7)[0]
        memo = get_enum_memo()
        enumerate_clusterings(relation, sigma, 5, rng=np.random.default_rng(2))
        memo.clear()
        base = memo.stats()
        enumerate_clusterings(relation, sigma, 5, rng=np.random.default_rng(2))
        delta = memo.stats()
        assert delta["enum_memo_misses"] == base["enum_memo_misses"] + 1
        assert delta["enum_memo_hits"] == base["enum_memo_hits"]

    def test_diva_emits_memo_and_effort_counters(self):
        relation = make_census(seed=3, n_rows=200)
        sigma = proportion_constraints(relation, 3, k=5, seed=3)
        with obs.collecting() as cold:
            Diva(seed=3).run(relation, sigma, 5)
        assert cold.counters[obs.ENUM_SUBSETS_GENERATED] > 0
        assert cold.counters[obs.ENUM_MEMO_MISSES] > 0
        # Same run again: every enumeration is warm, and the per-run delta
        # reporting attributes the hits (and no misses) to this run.
        with obs.collecting() as warm:
            Diva(seed=3).run(relation, sigma, 5)
        assert warm.counters[obs.ENUM_MEMO_HITS] > 0
        assert obs.ENUM_MEMO_MISSES not in warm.counters
        # Effort counters are cache-temperature independent.
        assert (
            warm.counters[obs.ENUM_SUBSETS_GENERATED]
            == cold.counters[obs.ENUM_SUBSETS_GENERATED]
        )
        assert warm.counters.get(obs.ENUM_DOMINATED_PRUNED, 0) == (
            cold.counters.get(obs.ENUM_DOMINATED_PRUNED, 0)
        )


# -- per-size sampling caps ----------------------------------------------------


class TestEnumerationSizeCaps:
    def test_empty_window(self):
        assert enumeration_size_caps(6, 5, 192) == {}

    def test_uncalibrated_is_flat_historical_policy(self):
        caps = enumeration_size_caps(3, 8, 192)
        assert caps == {s: 192 // 6 for s in range(3, 9)}
        # The floor of 8 survives tiny budgets.
        assert enumeration_size_caps(2, 11, 10) == {
            s: 8 for s in range(2, 12)
        }


# -- streaming reuse -----------------------------------------------------------


STREAM_SCHEMA = Schema.from_names(qi=["A", "B"], sensitive=["S"])

STREAM_SIGMA = ConstraintSet(
    [
        DiversityConstraint("A", "a1", 2, 2),
        DiversityConstraint("B", "b1", 2, 2),
        DiversityConstraint("A", "a2", 2, 2),
        DiversityConstraint("B", "b2", 2, 2),
        DiversityConstraint("A", "a3", 0, 2),
        DiversityConstraint("B", "b3", 0, 2),
    ]
)

STREAM_BOOT = [
    ("a1", "b1", "s1"),
    ("a1", "b1", "s2"),
    ("a2", "b2", "s1"),
    ("a2", "b2", "s3"),
]

#: Four same-QI arrivals no pinned group can host: a scoped recompute whose
#: σ-pools (A=a3 and B=b3) are the *same four tuples* — the second
#: constraint's enumeration is a content-addressed memo hit.
STREAM_BATCH = [
    ("a3", "b3", "s1"),
    ("a3", "b3", "s2"),
    ("a3", "b3", "s4"),
    ("a3", "b3", "s5"),
]


class TestStreamingMemoReuse:
    @staticmethod
    def _run():
        """The engine after both ingests, plus the enumeration-memo
        (hits, misses) its publishes emitted."""
        engine = StreamingAnonymizer(
            STREAM_SCHEMA, STREAM_SIGMA, 2, bootstrap=4, seed=0
        )
        with obs.collecting() as collector:
            engine.ingest(STREAM_BOOT)
            engine.ingest(STREAM_BATCH)
        counters = collector.counters
        return engine, (
            counters.get(obs.ENUM_MEMO_HITS, 0),
            counters.get(obs.ENUM_MEMO_MISSES, 0),
        )

    def test_scoped_recompute_hits_memo_without_drift(self):
        cold, (cold_hits, cold_misses) = self._run()
        assert [s.mode for s in cold.ledger.stamps] == ["bootstrap", "scoped"]
        assert cold.stats.scoped_recomputes == 1
        # Same-pool constraints share one enumeration within the publish.
        assert cold_hits > 0
        assert cold_misses > 0

        # A second engine over the same stream runs entirely warm...
        warm, (warm_hits, warm_misses) = self._run()
        assert warm_hits > cold_hits
        assert warm_misses == 0
        # ...and publishes exactly the cold releases: no candidate drift.
        assert [s.mode for s in warm.ledger.stamps] == [
            s.mode for s in cold.ledger.stamps
        ]
        assert list(warm.release.relation.tids) == list(
            cold.release.relation.tids
        )
        assert [
            warm.release.relation.row(t) for t in warm.release.relation.tids
        ] == [cold.release.relation.row(t) for t in cold.release.relation.tids]
