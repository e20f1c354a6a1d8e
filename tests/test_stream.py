"""Tests for the streaming anonymization engine (``repro.stream``).

Covers the ledger's validation contract, the bootstrap/extend/scoped/full
decision rule, observability emission, and the arrival-order equivalence
property: whenever a full DIVA run on the concatenated relation satisfies
(k, Σ), the incremental engine's final release does too, at a suppression
cost within a bounded factor.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.coloring import SearchBudgetExceeded
from repro.core.diva import run_diva
from repro.core.errors import UnsatisfiableError
from repro.data.datasets import make_census, make_running_example
from repro.data.relation import STAR, Relation, Schema, generalizes
from repro.metrics.stats import is_k_anonymous
from repro.stream import (
    ReleaseLedger,
    ReleaseValidationError,
    StreamingAnonymizer,
    residual_constraints,
    validate_release,
)
from repro.workloads.constraint_gen import proportion_constraints

pytestmark = pytest.mark.stream


@pytest.fixture
def ab_schema() -> Schema:
    return Schema.from_names(qi=["A", "B"], sensitive=["S"])


def tight_sigma() -> ConstraintSet:
    """Every bootstrap group pinned exactly: nothing can be starred."""
    return ConstraintSet(
        [
            DiversityConstraint("A", "a1", 2, 2),
            DiversityConstraint("B", "b1", 2, 2),
            DiversityConstraint("A", "a2", 2, 2),
            DiversityConstraint("B", "b2", 2, 2),
        ]
    )


BOOT_ROWS = [
    ("a1", "b1", "s1"),
    ("a1", "b1", "s2"),
    ("a2", "b2", "s1"),
    ("a2", "b2", "s3"),
]


class TestValidateRelease:
    def test_accepts_valid(self, ab_schema):
        relation = Relation(ab_schema, BOOT_ROWS)
        validate_release(relation, 2, tight_sigma())

    def test_rejects_non_k_anonymous(self, ab_schema):
        relation = Relation(ab_schema, BOOT_ROWS + [("a3", "b3", "s1")])
        with pytest.raises(ReleaseValidationError, match="not 2-anonymous"):
            validate_release(relation, 2, ConstraintSet())

    def test_rejects_sigma_violation_with_counts(self, ab_schema):
        relation = Relation(ab_schema, BOOT_ROWS)
        sigma = ConstraintSet([DiversityConstraint("A", "a1", 3, 9)])
        with pytest.raises(ReleaseValidationError) as excinfo:
            validate_release(relation, 2, sigma)
        assert excinfo.value.violations == [(sigma[0], 2)]


class TestReleaseLedger:
    def test_publish_records_head_and_stamps(self, ab_schema):
        ledger = ReleaseLedger(2, ConstraintSet())
        relation = Relation(ab_schema, BOOT_ROWS)
        release = ledger.publish(relation, relation, "bootstrap", recomputed=4)
        assert release.sequence == 1
        assert ledger.current is release
        assert ledger.sequence == 1
        assert [s.mode for s in ledger.stamps] == ["bootstrap"]
        assert ledger.stamps[0].admitted == 4

    def test_publish_rejects_invalid_and_keeps_state(self, ab_schema):
        ledger = ReleaseLedger(3, ConstraintSet())
        relation = Relation(ab_schema, BOOT_ROWS)
        with pytest.raises(ReleaseValidationError):
            ledger.publish(relation, relation, "bootstrap")
        assert ledger.current is None
        assert ledger.stamps == ()

    def test_publish_rejects_tid_mismatch(self, ab_schema):
        ledger = ReleaseLedger(2, ConstraintSet())
        relation = Relation(ab_schema, BOOT_ROWS)
        other = Relation(ab_schema, BOOT_ROWS, tids=[7, 8, 9, 10])
        with pytest.raises(ReleaseValidationError, match="cover"):
            ledger.publish(relation, other, "bootstrap")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            ReleaseLedger(0, ConstraintSet())


class TestBootstrap:
    def test_buffers_until_threshold(self, ab_schema):
        engine = StreamingAnonymizer(ab_schema, ConstraintSet(), 2, bootstrap=4)
        assert engine.ingest(BOOT_ROWS[:2]) is None
        assert engine.pending_count == 2
        release = engine.ingest(BOOT_ROWS[2:])
        assert release is not None and release.mode == "bootstrap"
        assert engine.pending_count == 0

    def test_infeasible_prefix_stays_buffered(self, paper_relation,
                                              paper_constraints):
        rows = [row for _, row in paper_relation]
        engine = StreamingAnonymizer(
            paper_relation.schema, paper_constraints, 2
        )
        seen = []
        for start in range(0, 10, 3):
            release = engine.ingest(rows[start:start + 3])
            if release is not None:
                seen.append(release)
        engine.flush()
        # The early batches contain no Asian/African/Vancouver tuples, so
        # Σ's lower bounds are infeasible and nothing may be published.
        assert seen, "stream never became feasible"
        final = engine.release.relation
        assert len(final) == 10
        assert is_k_anonymous(final, 2)
        assert paper_constraints.is_satisfied_by(final)

    def test_flush_below_k_returns_none(self, ab_schema):
        engine = StreamingAnonymizer(ab_schema, ConstraintSet(), 3)
        engine.ingest(BOOT_ROWS[:2])
        assert engine.flush() is None
        assert engine.pending_count == 2

    def test_rejects_bad_k(self, ab_schema):
        with pytest.raises(ValueError, match="k must be"):
            StreamingAnonymizer(ab_schema, ConstraintSet(), 0)

    def test_rejects_unknown_constraint_attr(self, ab_schema):
        sigma = ConstraintSet([DiversityConstraint("NOPE", "x", 0, 1)])
        with pytest.raises(KeyError):
            StreamingAnonymizer(ab_schema, sigma, 2)


class TestExtend:
    def test_identical_rows_join_for_free(self, ab_schema):
        engine = StreamingAnonymizer(ab_schema, ConstraintSet(), 2, bootstrap=4)
        first = engine.ingest(BOOT_ROWS)
        assert first.mode == "bootstrap" and first.stars == 0
        release = engine.ingest([("a1", "b1", "s9")])
        assert release.mode == "extend"
        assert release.stars == 0  # joined the (a1, b1) group verbatim
        assert release.extended == 1 and release.recomputed == 0

    def test_upper_bound_steers_placement(self, ab_schema):
        sigma = ConstraintSet([DiversityConstraint("A", "a1", 2, 3)])
        engine = StreamingAnonymizer(ab_schema, sigma, 2, bootstrap=4)
        engine.ingest(BOOT_ROWS)
        # Four a1 arrivals but only one more visible a1 is allowed: the
        # engine must hide the rest behind stars, never exceed λr = 3.
        release = engine.ingest(
            [("a1", "b3", "s1"), ("a1", "b3", "s2"),
             ("a1", "b4", "s1"), ("a1", "b4", "s2")]
        )
        assert release is not None
        count = sigma[0].count(release.relation)
        assert 2 <= count <= 3
        assert is_k_anonymous(release.relation, 2)

    def test_every_release_validates_and_generalizes(self):
        relation = make_census(seed=3, n_rows=300)
        sigma = proportion_constraints(relation, 4, k=3, seed=3)
        rows = [row for _, row in relation]
        engine = StreamingAnonymizer(
            relation.schema, sigma, 3, bootstrap=150, seed=1
        )
        for start in range(0, len(rows), 50):
            release = engine.ingest(rows[start:start + 50])
            if release is None:
                continue
            assert is_k_anonymous(release.relation, 3)
            assert sigma.is_satisfied_by(release.relation)
            assert generalizes(engine.ledger.original, release.relation)
        engine.flush()
        assert len(engine.release.relation) + engine.pending_count == len(rows)

    def test_stars_are_monotone_on_old_tuples(self):
        relation = make_census(seed=5, n_rows=200)
        rows = [row for _, row in relation]
        engine = StreamingAnonymizer(
            relation.schema, ConstraintSet(), 4, bootstrap=120, seed=2
        )
        previous = None
        for start in range(0, len(rows), 40):
            release = engine.ingest(rows[start:start + 40])
            if release is None:
                continue
            if previous is not None and release.mode == "extend":
                for tid, old_row in previous:
                    new_row = release.relation.row(tid)
                    for old_value, new_value in zip(old_row, new_row):
                        if old_value is STAR:
                            assert new_value is STAR
            previous = release.relation


class TestScopedRecompute:
    def test_residuals_get_their_own_clusters(self, ab_schema):
        engine = StreamingAnonymizer(ab_schema, tight_sigma(), 2, bootstrap=4)
        engine.ingest(BOOT_ROWS)
        # No pinned group can absorb these, but together they form their
        # own QI-group — a scoped DIVA run, no re-opening of the release.
        release = engine.ingest([("a3", "b3", "s1"), ("a3", "b3", "s9")])
        assert release.mode == "scoped"
        assert release.recomputed == 2
        assert release.relation.row(4) == ("a3", "b3", "s1")
        assert is_k_anonymous(release.relation, 2)
        assert tight_sigma().is_satisfied_by(release.relation)
        assert engine.stats.scoped_recomputes == 1

    def test_residual_constraints_restate_bounds(self):
        sigma = ConstraintSet(
            [
                DiversityConstraint("A", "a1", 2, 5),
                DiversityConstraint("A", "a2", 0, 9),
            ]
        )
        counts = {sigma[0]: 3, sigma[1]: 1}
        residual = residual_constraints(sigma, counts, n_residuals=4)
        # σ1 → [0, 2]; σ2 → [0, 8] is unviolable by 4 tuples and drops out.
        assert len(residual) == 1
        assert residual[0].lower == 0 and residual[0].upper == 2

    def test_residual_constraints_impossible_upper(self):
        sigma = ConstraintSet([DiversityConstraint("A", "a1", 0, 2)])
        assert residual_constraints(sigma, {sigma[0]: 3}, 1) is None


class TestStrandedResiduals:
    def test_sub_k_residual_defers_then_retries(self, ab_schema):
        engine = StreamingAnonymizer(
            ab_schema, tight_sigma(), 2, bootstrap=4, max_deferrals=5
        )
        engine.ingest(BOOT_ROWS)
        # A lone misfit: every host would erase a pinned count, and alone
        # it cannot form a k-sized group — it must wait.
        assert engine.ingest([("a3", "b3", "s1")]) is None
        assert engine.pending_count == 1
        # A matching later arrival rescues it through the scoped path.
        release = engine.ingest([("a3", "b3", "s2")])
        assert release is not None and release.mode == "scoped"
        assert engine.pending_count == 0

    def test_deferral_exhaustion_attempts_full_recompute(self, ab_schema):
        engine = StreamingAnonymizer(
            ab_schema, tight_sigma(), 2, bootstrap=4, max_deferrals=1
        )
        engine.ingest(BOOT_ROWS)
        assert engine.ingest([("a3", "b3", "s1")]) is None
        # Deferrals exhausted: the engine tries a full recompute, which is
        # infeasible for this Σ (five tuples cannot split into pinned
        # pairs) — the batch stays buffered instead of breaking the head.
        assert engine.ingest([]) is None
        assert engine.pending_count == 1
        head = engine.release.relation
        assert is_k_anonymous(head, 2)
        assert tight_sigma().is_satisfied_by(head)
        # Forcing the drain surfaces the infeasibility honestly: either
        # DIVA proves it unsatisfiable or its best-effort merge of the
        # < k leftover is rejected by the ledger.
        with pytest.raises((UnsatisfiableError, ReleaseValidationError)):
            engine.flush()

    def test_full_recompute_path(self, ab_schema, monkeypatch):
        # Cripple extension and the scoped path so the decision rule must
        # take the full-recompute branch end to end.
        from repro.stream import engine as engine_mod

        monkeypatch.setattr(
            engine_mod.AdmissionState, "try_admit", lambda self, tid, row: False
        )
        monkeypatch.setattr(
            engine_mod, "residual_constraints", lambda *a, **k: None
        )
        engine = StreamingAnonymizer(ab_schema, ConstraintSet(), 2, bootstrap=4)
        engine.ingest(BOOT_ROWS)
        release = engine.ingest([("a3", "b3", "s1"), ("a3", "b3", "s2")])
        assert release is not None and release.mode == "full"
        assert release.recomputed == 2 and release.extended == 0
        assert engine.stats.full_recomputes == 2  # bootstrap + fallback
        assert is_k_anonymous(release.relation, 2)


class TestObservability:
    def test_stream_counters_and_spans_emitted(self, ab_schema):
        with obs.collecting() as collector:
            engine = StreamingAnonymizer(
                ab_schema, ConstraintSet(), 2, bootstrap=4
            )
            engine.ingest(BOOT_ROWS)
            engine.ingest([("a1", "b1", "s9")])
        counters = collector.counters
        assert counters[obs.STREAM_BATCHES_INGESTED] == 2
        assert counters[obs.STREAM_TUPLES_INGESTED] == 5
        assert counters[obs.STREAM_TUPLES_EXTENDED] == 1
        assert counters[obs.STREAM_TUPLES_RECOMPUTED] == 4
        assert counters[obs.STREAM_RECOMPUTES_FULL] == 1
        assert counters[obs.STREAM_RELEASES_PUBLISHED] == 2
        span_names = {e.name for e in collector.spans}
        assert obs.SPAN_STREAM_INGEST in span_names
        assert obs.SPAN_STREAM_PUBLISH in span_names
        assert obs.SPAN_STREAM_EXTEND in span_names
        assert obs.SPAN_STREAM_RECOMPUTE in span_names
        assert span_names <= set(obs.ALL_SPANS)
        assert set(counters) <= set(obs.ALL_COUNTERS)

    def test_stats_mirror_counters(self, ab_schema):
        engine = StreamingAnonymizer(ab_schema, ConstraintSet(), 2, bootstrap=4)
        engine.ingest(BOOT_ROWS)
        engine.ingest([("a1", "b1", "s9")])
        stats = engine.stats
        assert stats.batches == 2
        assert stats.tuples_ingested == 5
        assert stats.tuples_extended == 1
        assert stats.tuples_recomputed == 4
        assert stats.releases == 2
        assert stats.extend_ratio == pytest.approx(0.2)


# -- arrival-order equivalence property ---------------------------------------

VALUES_A = ("a1", "a2", "a3")
VALUES_B = ("b1", "b2")
VALUES_S = ("s1", "s2")


@st.composite
def streamed_instance(draw):
    n = draw(st.integers(min_value=6, max_value=14))
    rows = [
        (
            draw(st.sampled_from(VALUES_A)),
            draw(st.sampled_from(VALUES_B)),
            draw(st.sampled_from(VALUES_S)),
        )
        for _ in range(n)
    ]
    batch_size = draw(st.integers(min_value=1, max_value=5))
    return rows, batch_size


class TestEquivalenceProperty:
    """Incremental vs one-shot DIVA over the same concatenated arrivals."""

    @given(streamed_instance())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_final_release_matches_full_run_contract(self, instance):
        rows, batch_size = instance
        schema = Schema.from_names(qi=["A", "B"], sensitive=["S"])
        relation = Relation(schema, rows)
        k = 2
        # Σ anchored on the data so the one-shot run has a chance: the
        # modal A value must keep at least 2 visible occurrences, and no
        # value may exceed its true frequency (always true — suppression
        # only removes occurrences).
        counts = relation.value_counts("A")
        value, c = counts.most_common(1)[0]
        assume(c >= k)
        sigma = ConstraintSet([DiversityConstraint("A", value, 2, c)])

        try:
            full = run_diva(relation, sigma, k, seed=0)
        except UnsatisfiableError:
            assume(False)
        assume(sigma.is_satisfied_by(full.relation))
        assume(is_k_anonymous(full.relation, k))

        engine = StreamingAnonymizer(schema, sigma, k, seed=0)
        for start in range(0, len(rows), batch_size):
            release = engine.ingest(rows[start:start + batch_size])
            if release is not None:
                assert is_k_anonymous(release.relation, k)
                assert sigma.is_satisfied_by(release.relation)
        engine.flush()

        final = engine.release
        assert final is not None, "full run feasible but stream never published"
        assert is_k_anonymous(final.relation, k)
        assert sigma.is_satisfied_by(final.relation)
        assert generalizes(engine.ledger.original, final.relation)
        # Published-so-far can trail the corpus only by a stranded sub-k
        # residual group.
        assert len(final.relation) + engine.pending_count == len(rows)
        assert engine.pending_count < k

        # Suppression-cost bound: incremental monotone extension may star
        # more than the one-shot optimum, but stays within a bounded
        # factor plus a per-publish additive term (one QI-row per k-sized
        # group per publish).
        inc_stars = final.relation.star_count()
        full_stars = full.relation.star_count()
        n_qi = len(schema.qi_names)
        budget = 3 * full_stars + 2 * k * n_qi * engine.stats.releases
        assert inc_stars <= budget, (
            f"incremental cost {inc_stars} exceeds bound {budget} "
            f"(full run: {full_stars})"
        )

class TestBudgetExhaustion:
    """The ``except (UnsatisfiableError, SearchBudgetExceeded)`` arms in
    ``_publish_scoped`` and ``_publish_full``.

    Contract: a budget-exhausted recompute behaves exactly like an
    infeasible one — the batch stays buffered, the published head is
    untouched (so the ledger never carries an invalid release), and only
    :meth:`flush` surfaces the exception.  With ``solver="auto"`` the
    escalation happens *inside* the recompute, so the same ingest
    publishes instead of buffering — and the escalated release must pass
    the same validators as an exact one.
    """

    # One slack constraint the bootstrap satisfies; the follow-up batch
    # repeats its target value so every recompute has real coloring work
    # (a first candidate to charge for — a zero budget then genuinely
    # raises rather than proving failure for free).
    def _sigma(self) -> ConstraintSet:
        return ConstraintSet([DiversityConstraint("A", "a1", 0, 2)])

    BATCH = [("a1", "b9", "s1"), ("a1", "b9", "s2")]

    def _exhausted_engine(self, ab_schema, monkeypatch, solver):
        from repro.stream import engine as engine_mod

        # Force the batch onto the recompute paths, then zero the budget
        # *after* bootstrap so only the incremental recomputes exhaust.
        monkeypatch.setattr(
            engine_mod.AdmissionState, "try_admit", lambda self, tid, row: False
        )
        engine = StreamingAnonymizer(
            ab_schema, self._sigma(), 2, bootstrap=4, solver=solver
        )
        assert engine.ingest(BOOT_ROWS) is not None
        engine._diva.max_steps = 0
        return engine

    def test_scoped_exhaustion_buffers_and_keeps_head_valid(
        self, ab_schema, monkeypatch
    ):
        engine = self._exhausted_engine(ab_schema, monkeypatch, "exact")
        head_before = engine.release.relation
        # Scoped recompute exhausts -> falls through to full -> exhausts
        # too -> the non-forced publish buffers rather than raising.
        assert engine.ingest(self.BATCH) is None
        assert engine.pending_count == 2
        assert engine.stats.scoped_recomputes == 0
        assert engine.stats.full_recomputes == 1  # bootstrap only
        head = engine.release.relation
        assert head is head_before
        assert is_k_anonymous(head, 2)
        assert self._sigma().is_satisfied_by(head)

    def test_flush_surfaces_budget_exhaustion(self, ab_schema, monkeypatch):
        engine = self._exhausted_engine(ab_schema, monkeypatch, "exact")
        assert engine.ingest(self.BATCH) is None
        with pytest.raises(SearchBudgetExceeded):
            engine.flush()

    def test_full_arm_exhaustion_buffers(self, ab_schema, monkeypatch):
        # Disable the scoped path so the full-recompute except arm is the
        # one exercised, not reached via fall-through.
        from repro.stream import engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "residual_constraints", lambda *a, **k: None
        )
        engine = self._exhausted_engine(ab_schema, monkeypatch, "exact")
        assert engine.ingest(self.BATCH) is None
        assert engine.pending_count == 2
        head = engine.release.relation
        assert is_k_anonymous(head, 2)
        assert self._sigma().is_satisfied_by(head)

    def test_auto_escalation_publishes_valid_release_mid_stream(
        self, ab_schema, monkeypatch
    ):
        engine = self._exhausted_engine(ab_schema, monkeypatch, "auto")
        with obs.collecting() as collector:
            release = engine.ingest(self.BATCH)
        assert release is not None and release.mode == "scoped"
        assert engine.pending_count == 0
        assert collector.counters[obs.SOLVER_ESCALATIONS] >= 1
        head = engine.release.relation
        assert is_k_anonymous(head, 2)
        assert self._sigma().is_satisfied_by(head)

    def test_auto_escalation_covers_full_recompute_too(
        self, ab_schema, monkeypatch
    ):
        from repro.stream import engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "residual_constraints", lambda *a, **k: None
        )
        engine = self._exhausted_engine(ab_schema, monkeypatch, "auto")
        release = engine.ingest(self.BATCH)
        assert release is not None and release.mode == "full"
        assert engine.pending_count == 0
        head = engine.release.relation
        assert is_k_anonymous(head, 2)
        assert self._sigma().is_satisfied_by(head)

    def test_bootstrap_exhaustion_buffers_without_publishing(self, ab_schema):
        # Engine-wide zero budget: even the bootstrap recompute exhausts,
        # so no release ever appears and flush reports why.
        engine = StreamingAnonymizer(
            ab_schema, tight_sigma(), 2, bootstrap=4, max_steps=0
        )
        assert engine.ingest(BOOT_ROWS) is None
        assert engine.pending_count == 4
        assert engine.release is None
        with pytest.raises(SearchBudgetExceeded):
            engine.flush()

    def test_bootstrap_escalation_publishes_under_auto(self, ab_schema):
        engine = StreamingAnonymizer(
            ab_schema, tight_sigma(), 2, bootstrap=4, max_steps=0, solver="auto"
        )
        release = engine.ingest(BOOT_ROWS)
        assert release is not None and release.mode == "bootstrap"
        assert engine.pending_count == 0
        assert is_k_anonymous(release.relation, 2)
        assert tight_sigma().is_satisfied_by(release.relation)
