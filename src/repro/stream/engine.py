"""Streaming (k, Σ)-anonymization over micro-batched arrivals.

:class:`StreamingAnonymizer` maintains a published (k, Σ)-anonymous
release while tuples arrive in micro-batches, without paying a full DIVA
run per batch.  The decision rule, cheapest first:

1. **Extend** — each buffered tuple is offered to the existing QI-groups
   of the current release through the incremental admission check
   (:mod:`repro.stream.admission`).  A tuple is admitted when some group
   can absorb it with every σ ∈ Σ still inside ``[λl, λr]``; the cheapest
   admissible host (fewest stars added) wins.
2. **Scoped recompute** — residuals no group can take, once there are at
   least ``k`` of them, get their own DIVA run against *residual* bounds
   (Σ with the release's locked-in counts subtracted).  The scoped result
   concatenates onto the extended release; nothing published is re-opened.
3. **Full recompute** — when a batch breaks an upper bound λr that
   extension cannot dodge, when the scoped run is infeasible, or when
   fewer than ``k`` residuals have been stranded in the buffer for more
   than ``max_deferrals`` publishes, the whole admitted history plus the
   buffer is re-anonymized from the original values.

Every release — whichever path produced it — passes through
:meth:`ReleaseLedger.publish`, which re-validates k-anonymity and Σ before
anything becomes visible; the extension paths additionally fall back to a
full recompute if validation rejects their candidate, so an admission bug
degrades to the slow-but-correct path instead of a bad publication.

Tuples the stream cannot yet publish safely (a cold buffer below the
bootstrap threshold, or a stranded sub-``k`` residual group) simply stay
buffered; :meth:`flush` force-drains them when the stream ends.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from .. import obs
from ..obs.hist import Histogram
from ..core.coloring import SearchBudgetExceeded
from ..core.constraints import ConstraintSet
from ..core.diva import Diva
from ..core.enumeration import get_enum_memo
from ..core.searchstate import get_contribution_memo
from ..core.errors import UnsatisfiableError
from ..data.relation import Relation, Schema
from .admission import AdmissionState, residual_constraints
from .ledger import Release, ReleaseLedger, ReleaseValidationError


@dataclass
class StreamStats:
    """Lifetime tallies of one engine (mirrors the ``stream.*`` counters)."""

    batches: int = 0
    tuples_ingested: int = 0
    tuples_extended: int = 0
    tuples_recomputed: int = 0
    scoped_recomputes: int = 0
    full_recomputes: int = 0
    #: Scoped recomputes skipped by batching (``scoped_batch`` > 1): the
    #: batch published extension-only and its residuals joined the queue
    #: for one pooled scoped drain later.
    scoped_deferred: int = 0
    releases: int = 0
    #: Enumeration-memo traffic attributable to this engine's publishes
    #: (deltas of the process-global memo captured around each publish).
    #: Repeated scoped recomputes over recurring QI pools show up here as
    #: hits.
    enum_memo_hits: int = 0
    enum_memo_misses: int = 0
    #: Same pattern for the search-state contribution memo: scoped and full
    #: recomputes rebuild the relation each publish but cluster content
    #: recurs, so contribution records resolve as hits here.
    search_memo_hits: int = 0
    search_memo_misses: int = 0
    #: Wall clock of every publish attempt (the ``stream.publish`` region),
    #: as a mergeable log-scale histogram — the per-batch latency profile a
    #: long-running stream reports without keeping per-batch samples.
    publish_latency: Histogram = field(default_factory=Histogram)

    @property
    def extend_ratio(self) -> float:
        """Share of admitted tuples placed without any DIVA run (1.0 if none)."""
        admitted = self.tuples_extended + self.tuples_recomputed
        return self.tuples_extended / admitted if admitted else 1.0


class StreamingAnonymizer:
    """Incremental (k, Σ)-anonymization engine.

    Parameters mirror :class:`repro.core.diva.Diva` where they configure
    the recompute runs.  Additional knobs:

    bootstrap:
        Buffered tuples required before the first release (default ``k``
        — the minimum that can ever be k-anonymous).
    max_deferrals:
        How many publishes a stranded sub-``k`` residual group may sit in
        the buffer before a full recompute drains it (0 = recompute
        immediately, as soon as a batch strands fewer than k residuals).
    scoped_batch:
        Scoped-recompute coalescing factor (default 1 = recompute every
        batch, the historical behavior).  With ``scoped_batch = b``, up to
        ``b - 1`` consecutive batches whose residuals would trigger a
        scoped recompute instead publish extension-only (their residuals
        stay buffered), and the *b*-th round drains the whole accumulated
        residual queue in one scoped DIVA run — one pooled
        ``component_coloring`` dispatch instead of ``b`` small ones.
        Deferral trades release latency for the deferred residuals
        against recompute throughput; :meth:`flush` always drains.
    max_workers / executor:
        Forwarded to the recompute :class:`Diva` — full and scoped
        recompute runs color constraint-graph components on a pool of this
        size (see :mod:`repro.core.parallel`).  The extend path never uses
        a pool; it is already incremental.
    solver:
        Solver tier for the recompute runs (``"exact"``/``"approx"``/
        ``"auto"``), forwarded to :class:`Diva`.  With ``"auto"`` a
        budget-exhausted scoped or full recompute escalates to the
        warm-started approximation tier *inside* the recompute, so a hard
        batch degrades to an approx-quality release instead of staying
        buffered; only if the approx pass also fails does the original
        :class:`SearchBudgetExceeded` surface and the buffering /
        flush-raises semantics below take over unchanged.
    """

    def __init__(
        self,
        schema: Schema,
        constraints: ConstraintSet,
        k: int,
        *,
        strategy: str = "maxfanout",
        anonymizer: str = "k-member",
        max_candidates: int = 64,
        max_steps: Optional[int] = 100_000,
        bootstrap: Optional[int] = None,
        max_deferrals: int = 2,
        scoped_batch: int = 1,
        seed: int = 0,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        solver: str = "exact",
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        if scoped_batch < 1:
            raise ValueError("scoped_batch must be at least 1")
        constraints.validate_against(schema)
        self.schema = schema
        self.constraints = constraints
        self.k = k
        self.max_deferrals = max_deferrals
        self.scoped_batch = scoped_batch
        self._bootstrap = max(k, bootstrap if bootstrap is not None else k)
        self._diva = Diva(
            strategy=strategy,
            anonymizer=anonymizer,
            best_effort=False,
            max_candidates=max_candidates,
            max_steps=max_steps,
            seed=seed,
            max_workers=max_workers,
            executor=executor,
            solver=solver,
        )
        self.ledger = ReleaseLedger(k, constraints)
        self.stats = StreamStats()
        self._pending: list[tuple[int, tuple]] = []  # (tid, original row)
        self._next_tid = 0
        self._deferrals = 0
        self._scoped_rounds = 0  # consecutive scoped publishes deferred
        #: Sequence → trace id of the request whose publish produced it
        #: (only sequences published under an active trace context appear;
        #: metadata-sized, like the ledger's stamp trail).
        self._publish_traces: dict[int, str] = {}

    # -- public surface --------------------------------------------------------

    @property
    def release(self) -> Optional[Release]:
        """The current published release (None before bootstrap)."""
        return self.ledger.current

    @property
    def pending_count(self) -> int:
        """Tuples buffered but not yet published."""
        return len(self._pending)

    def ingest(
        self, batch: Union[Relation, Iterable[Union[Sequence[Any], Mapping[str, Any]]]]
    ) -> Optional[Release]:
        """Accept one micro-batch and publish if admission is safe.

        ``batch`` is a :class:`Relation` over the stream schema (tids are
        ignored — the engine numbers arrivals itself) or an iterable of
        rows / attribute-keyed mappings.  Returns the new release, or None
        when everything stayed buffered.
        """
        rows = self._coerce(batch)
        with obs.span(obs.SPAN_STREAM_INGEST):
            obs.incr(obs.STREAM_BATCHES_INGESTED)
            obs.incr(obs.STREAM_TUPLES_INGESTED, len(rows))
            self.stats.batches += 1
            self.stats.tuples_ingested += len(rows)
            for row in rows:
                self._pending.append((self._next_tid, row))
                self._next_tid += 1
            return self._try_publish(force=False)

    def flush(self) -> Optional[Release]:
        """Force-drain the buffer with a recompute.

        Returns the resulting release, or None when the buffer is empty —
        or still holds fewer than ``k`` tuples with nothing published yet,
        which no engine could release k-anonymously.
        """
        if not self._pending:
            return None
        if self.ledger.current is None and len(self._pending) < self.k:
            return None
        return self._try_publish(force=True)

    # -- decision rule ---------------------------------------------------------

    def publish_trace(self, sequence: int) -> Optional[str]:
        """Trace id of the request that published ``sequence`` (if traced)."""
        return self._publish_traces.get(sequence)

    def _try_publish(self, force: bool) -> Optional[Release]:
        if not self._pending:
            return None
        if self.ledger.current is None:
            if force or len(self._pending) >= self._bootstrap:
                memo_before = self._memo_stats()
                with obs.span(obs.SPAN_STREAM_PUBLISH) as sp:
                    release = self._publish_full("bootstrap", force)
                self.stats.publish_latency.record(sp.duration)
                self._record_memo_delta(memo_before)
                self._stamp_trace(release, sp)
                return release
            return None
        memo_before = self._memo_stats()
        with obs.span(obs.SPAN_STREAM_PUBLISH) as sp:
            release = self._publish_incremental(force)
        self.stats.publish_latency.record(sp.duration)
        self._record_memo_delta(memo_before)
        self._stamp_trace(release, sp)
        return release

    def _stamp_trace(self, release: Optional[Release], sp: obs.span) -> None:
        """Link a publication to the trace whose request drove it.

        The scoped/full recompute spans inside the publish already carry
        the context (it flows in-thread through the DIVA run and into the
        pool payloads); this records the trace_id → sequence edge so the
        release trail can point back at its producing request tree.
        """
        if release is not None and sp.trace_id is not None:
            self._publish_traces[release.sequence] = sp.trace_id

    def _publish_incremental(self, force: bool) -> Optional[Release]:
        current = self.ledger.current
        with obs.span(obs.SPAN_STREAM_EXTEND):
            state = AdmissionState(current.relation, self.constraints)
            residuals: list[tuple[int, tuple]] = []
            for tid, row in self._pending:
                if not state.try_admit(tid, row):
                    residuals.append((tid, row))

        if not residuals:
            release = self._publish_extension(state, residuals)
            if release is not None:
                return release
            return self._publish_full("full", force)

        if len(residuals) >= self.k:
            if not force and self._scoped_rounds + 1 < self.scoped_batch:
                # Coalescing window still open: keep the residuals queued
                # for one pooled scoped drain later, publishing extension-
                # only so admitted tuples still reach readers immediately.
                # A validation-rejected extension falls through and drains
                # now — deferral must never lose a publishable batch.
                if state.admitted:
                    release = self._publish_extension(state, residuals)
                else:
                    release = None
                if release is not None or not state.admitted:
                    self._scoped_rounds += 1
                    self.stats.scoped_deferred += 1
                    obs.incr(obs.STREAM_SCOPED_DEFERRED)
                    return release
            release = self._publish_scoped(state, residuals)
            if release is not None:
                return release
            return self._publish_full("full", force)

        # Stranded: fewer than k residuals cannot form their own QI-group.
        if force or self._deferrals >= self.max_deferrals:
            return self._publish_full("full", force)
        self._deferrals += 1
        if state.admitted:
            release = self._publish_extension(state, residuals)
            if release is not None:
                return release
            return self._publish_full("full", force)
        return None

    # -- publication paths -----------------------------------------------------

    def _publish_extension(
        self, state: AdmissionState, residuals: list[tuple[int, tuple]]
    ) -> Optional[Release]:
        """Publish the extended release; None if validation rejects it."""
        candidate = state.materialize()
        original = self._original_plus(state.admitted)
        try:
            release = self.ledger.publish(
                candidate,
                original,
                "extend",
                extended=len(state.admitted),
                pending=len(residuals),
            )
        except ReleaseValidationError:
            return None
        self._after_publish(release, residuals)
        obs.incr(obs.STREAM_TUPLES_EXTENDED, len(state.admitted))
        self.stats.tuples_extended += len(state.admitted)
        return release

    def _publish_scoped(
        self, state: AdmissionState, residuals: list[tuple[int, tuple]]
    ) -> Optional[Release]:
        """Extend + scoped DIVA over residuals; None → caller goes full."""
        sigma = residual_constraints(
            self.constraints, state.counts, len(residuals)
        )
        if sigma is None:
            return None
        residual_relation = Relation(
            self.schema,
            [row for _, row in residuals],
            [tid for tid, _ in residuals],
        )
        with obs.span(obs.SPAN_STREAM_RECOMPUTE):
            try:
                result = self._diva.run(residual_relation, sigma, self.k)
            except (UnsatisfiableError, SearchBudgetExceeded):
                return None
        candidate = state.materialize().concat(result.relation)
        original = self._original_plus(state.admitted).concat(residual_relation)
        try:
            release = self.ledger.publish(
                candidate,
                original,
                "scoped",
                extended=len(state.admitted),
                recomputed=len(residuals),
                pending=0,
            )
        except ReleaseValidationError:
            return None
        self._after_publish(release, [])
        obs.incr(obs.STREAM_TUPLES_EXTENDED, len(state.admitted))
        obs.incr(obs.STREAM_TUPLES_RECOMPUTED, len(residuals))
        obs.incr(obs.STREAM_RECOMPUTES_SCOPED)
        self.stats.tuples_extended += len(state.admitted)
        self.stats.tuples_recomputed += len(residuals)
        self.stats.scoped_recomputes += 1
        return release

    def _publish_full(self, mode: str, force: bool) -> Optional[Release]:
        """Re-anonymize the whole history plus the buffer from originals.

        An arrival prefix need not be (k, Σ)-feasible even when the whole
        stream is — the first tuples may simply not contain a lower
        bound's target values yet.  So on a non-forced publish an
        infeasible (or budget-exhausted) recompute keeps the batch
        buffered and returns None; on :meth:`flush` the error propagates,
        because the stream as it stands admits no further release and the
        caller must hear that rather than receive a stale one.
        """
        arrivals = Relation(
            self.schema,
            [row for _, row in self._pending],
            [tid for tid, _ in self._pending],
        )
        base = self.ledger.original
        original = arrivals if base is None else base.concat(arrivals)
        with obs.span(obs.SPAN_STREAM_RECOMPUTE):
            try:
                result = self._diva.run(original, self.constraints, self.k)
            except (UnsatisfiableError, SearchBudgetExceeded):
                if force:
                    raise
                return None
        n_new = len(arrivals)
        try:
            release = self.ledger.publish(
                result.relation,
                original,
                mode,
                recomputed=n_new,
                pending=0,
            )
        except ReleaseValidationError:
            # A technically-successful DIVA run can still violate Σ (the
            # < k leftover absorption falls back to a violating merge).
            # Same contract as infeasibility: buffer, or raise on flush.
            if force:
                raise
            return None
        self._after_publish(release, [])
        obs.incr(obs.STREAM_TUPLES_RECOMPUTED, n_new)
        obs.incr(obs.STREAM_RECOMPUTES_FULL)
        self.stats.tuples_recomputed += n_new
        self.stats.full_recomputes += 1
        return release

    # -- helpers ---------------------------------------------------------------

    def _memo_stats(self) -> dict[str, int]:
        return get_enum_memo().stats() | get_contribution_memo().stats()

    def _record_memo_delta(self, before: dict[str, int]) -> None:
        # Memo tally keys double as the StreamStats field names.
        for key, after in self._memo_stats().items():
            setattr(self.stats, key, getattr(self.stats, key) + after - before[key])

    def _after_publish(
        self, release: Release, residuals: list[tuple[int, tuple]]
    ) -> None:
        self._pending = list(residuals)
        if not residuals:
            self._deferrals = 0
            self._scoped_rounds = 0
        obs.incr(obs.STREAM_RELEASES_PUBLISHED)
        self.stats.releases += 1

    def _original_plus(self, admitted: list[tuple[int, tuple]]) -> Relation:
        base = self.ledger.original
        addition = Relation(
            self.schema,
            [row for _, row in admitted],
            [tid for tid, _ in admitted],
        )
        return addition if base is None else base.concat(addition)

    def _coerce(self, batch) -> list[tuple]:
        if isinstance(batch, Relation):
            if batch.schema != self.schema:
                raise ValueError("batch schema does not match stream schema")
            return [row for _, row in batch]
        names = self.schema.names
        width = len(self.schema)
        rows = []
        for item in batch:
            if isinstance(item, Mapping):
                row = tuple(item[n] for n in names)
            else:
                row = tuple(item)
                if len(row) != width:
                    raise ValueError(
                        f"row width {len(row)} does not match schema width {width}"
                    )
            rows.append(row)
        return rows
