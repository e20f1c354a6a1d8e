"""Columnar kernel layer: a shared NumPy relation index for the hot paths.

The DIVA hot paths — ``preserved_count``, QI Hamming distances,
suppression-cost scoring and candidate enumeration — are all per-tuple
comparisons over :meth:`Relation.row` tuples.  They are exact but slow:
the coloring search evaluates them thousands of times per problem, so the
constant factor per check is what bounds how far the exact search scales
(paper §5, Fig. 4a/5b/5d).

:class:`RelationIndex` encodes a relation **once** into integer NumPy
matrices (every column factorized to dense int32 codes, equality-preserving
by construction) and derives per-constraint artifacts on demand:

* ``target_mask`` / ``nonqi_mask`` — boolean row masks for σ's target
  values, split into QI and non-QI components (suppression only touches QI
  cells, so the two behave differently under ``preserved_count``);
* per-attribute target **value codes** so constraint checks become integer
  comparisons instead of Python ``==`` chains;
* a memoized cluster → per-constraint-contribution cache keyed by the
  canonical cluster identity (the ``frozenset`` of tids), shared by every
  search over the same relation.

On top of the code matrices the index exposes the vectorized kernels the
rest of ``core`` builds on: uniformity reductions (``preserved_count``,
``cluster_cost``), broadcasted Hamming kernels (``qi_hamming``,
``hamming_from``, ``pairwise_qi_hamming``, ``rank_by_hamming``) and the
similarity-chunked ``greedy_k_partition``.

The pure-Python reference implementations of these kernels live in the
test oracle (``tests/oracle.py``); the property suites
(``tests/test_kernels_property.py`` and friends) pin every kernel to it.

Unlike :class:`repro.anonymize.encoding.QIEncoder` (the mixed
categorical/numeric *metric* encoder this class generalizes), the index
covers every column — constraints may target non-QI attributes — and
accepts suppressed relations: ``STAR`` factorizes to its own code, which
matches no concrete target value, exactly the counting semantics of
Definition 2.3.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..data.relation import Relation
from .constraints import DiversityConstraint

_build_lock = threading.Lock()


def get_index(relation: Relation) -> "RelationIndex":
    """The relation's :class:`RelationIndex`, built once and cached.

    The index is stashed on the (immutable) relation itself, so every
    consumer — graph build, candidate enumeration, each per-component
    coloring search — shares the same code matrices and memo caches.
    Construction is locked; concurrent readers afterwards are safe because
    all mutation is idempotent memo insertion.
    """
    index = relation._kernel_index
    if index is None:
        with _build_lock:
            index = relation._kernel_index
            if index is None:
                index = RelationIndex(relation)
                relation._kernel_index = index
    return index


@dataclass(frozen=True)
class ConstraintArtifacts:
    """Precomputed per-constraint vectors over one relation.

    ``qi_cols``/``qi_value_codes`` describe σ's QI components (column
    positions in the full code matrix and the target value's code, ``-1``
    when the value never occurs); ``nonqi_mask`` marks rows matching all
    non-QI components; ``target_mask`` marks rows matching *all* components
    (``Iσ`` as a boolean vector).
    """

    qi_cols: np.ndarray
    qi_value_codes: np.ndarray
    nonqi_mask: np.ndarray
    target_mask: np.ndarray


class RelationIndex:
    """Integer-coded columnar view of a relation plus kernel memo caches.

    ``codes`` holds one int32 column per schema attribute (row order =
    relation storage order); ``qi_codes`` is the contiguous QI slice used
    by the Hamming and cost kernels.  Codes are factorization ranks, so
    ``codes[i, j] == codes[i2, j]`` iff the underlying values compare
    equal — the only property the kernels rely on.
    """

    __slots__ = (
        "relation",
        "schema",
        "tids",
        "codes",
        "codebooks",
        "qi_positions",
        "qi_codes",
        "_tid_to_row",
        "_dense_tids",
        "_artifacts",
        "_rows_cache",
        "_pc_cache",
        "_cost_cache",
        "_pc_hits",
        "_pc_misses",
        "_cost_hits",
        "_cost_misses",
    )

    def __init__(self, relation: Relation):
        schema = relation.schema
        self.relation = relation
        self.schema = schema
        n, m = len(relation), len(schema)
        self.tids = np.fromiter(relation.tids, dtype=np.int64, count=n)
        self._tid_to_row = {tid: i for i, tid in enumerate(relation.tids)}
        # Generated relations number tuples 0..n-1, making tid → row the
        # identity; rows_of can then skip the dict round-trip entirely.
        self._dense_tids = bool(n == 0 or (self.tids == np.arange(n)).all())
        codes = np.empty((n, m), dtype=np.int32)
        self.codebooks: list[dict] = []
        for j, column in enumerate(relation.columns()):
            book: dict = {}
            target = codes[:, j]
            for i, value in enumerate(column):
                code = book.get(value)
                if code is None:
                    code = len(book)
                    book[value] = code
                target[i] = code
            self.codebooks.append(book)
        self.codes = codes
        self.qi_positions = np.fromiter(
            (schema.position(a) for a in schema.qi_names),
            dtype=np.intp,
            count=len(schema.qi_names),
        )
        if self.qi_positions.size:
            self.qi_codes = np.ascontiguousarray(codes[:, self.qi_positions])
        else:
            self.qi_codes = np.empty((n, 0), dtype=np.int32)
        self._artifacts: dict[DiversityConstraint, ConstraintArtifacts] = {}
        self._rows_cache: dict[frozenset, np.ndarray] = {}
        self._pc_cache: dict[tuple[frozenset, DiversityConstraint], int] = {}
        self._cost_cache: dict[frozenset, int] = {}
        # Cluster-cache effort tallies: plain always-on ints (one += per
        # memo lookup, the same budget SearchStats spends per candidate).
        # The observability layer reads them as deltas via cache_stats();
        # nothing here ever calls into repro.obs, keeping kernels sink-free.
        self._pc_hits = 0
        self._pc_misses = 0
        self._cost_hits = 0
        self._cost_misses = 0

    @classmethod
    def from_columnar(
        cls,
        relation: Relation,
        codes: np.ndarray,
        qi_codes: np.ndarray,
        tids: np.ndarray,
        codebooks: Sequence[dict],
    ) -> "RelationIndex":
        """Assemble an index from prebuilt columnar artifacts.

        The shared-memory transport (:mod:`repro.core.shm`) uses this to
        reconstruct the parent's index inside a worker without
        re-factorizing: ``codes``/``qi_codes``/``tids`` are zero-copy views
        over shared segments (read-only), ``codebooks`` the parent's
        value → code maps.  Only the small Python-side row addressing is
        rebuilt; memo caches start empty and warm across the worker's
        tasks.
        """
        self = cls.__new__(cls)
        schema = relation.schema
        self.relation = relation
        self.schema = schema
        n = codes.shape[0]
        self.tids = tids
        self._tid_to_row = {int(tid): i for i, tid in enumerate(tids)}
        self._dense_tids = bool(n == 0 or (tids == np.arange(n)).all())
        self.codes = codes
        self.codebooks = list(codebooks)
        self.qi_positions = np.fromiter(
            (schema.position(a) for a in schema.qi_names),
            dtype=np.intp,
            count=len(schema.qi_names),
        )
        self.qi_codes = qi_codes
        self._artifacts = {}
        self._rows_cache = {}
        self._pc_cache = {}
        self._cost_cache = {}
        self._pc_hits = 0
        self._pc_misses = 0
        self._cost_hits = 0
        self._cost_misses = 0
        return self

    def __len__(self) -> int:
        return self.codes.shape[0]

    def cache_stats(self) -> dict[str, int]:
        """Cumulative cluster-cache effort (preserved-count + cost memos).

        The observability layer (``repro.obs``) emits these as *deltas*
        around each DIVA run: the index — and therefore these tallies —
        outlives any single search, so absolute values mix workloads.
        """
        return {
            "cluster_cache_hits": self._pc_hits + self._cost_hits,
            "cluster_cache_misses": self._pc_misses + self._cost_misses,
        }

    # -- row addressing ------------------------------------------------------

    def row_of(self, tid: int) -> int:
        """Matrix row index of tuple ``tid``."""
        return self._tid_to_row[tid]

    def rows_of(self, tids: Iterable[int]) -> np.ndarray:
        """Matrix row indices of ``tids`` (cached for frozenset clusters)."""
        if isinstance(tids, frozenset):
            cached = self._rows_cache.get(tids)
            if cached is None:
                if self._dense_tids:
                    cached = np.fromiter(tids, dtype=np.intp, count=len(tids))
                else:
                    cached = np.fromiter(
                        (self._tid_to_row[t] for t in tids),
                        dtype=np.intp,
                        count=len(tids),
                    )
                self._rows_cache[tids] = cached
            return cached
        seq = tids if isinstance(tids, Sequence) else tuple(tids)
        if self._dense_tids:
            return np.fromiter(seq, dtype=np.intp, count=len(seq))
        return np.fromiter(
            (self._tid_to_row[t] for t in seq), dtype=np.intp, count=len(seq)
        )

    def _concat_rows(self, clusters: Sequence[frozenset], total: int) -> np.ndarray:
        """Row indices of all ``clusters`` back to back, in one pass.

        One ``fromiter`` over the flattened tids beats per-cluster arrays +
        ``np.concatenate`` by a wide margin at DIVA cluster sizes.
        """
        flat = chain.from_iterable(clusters)
        if self._dense_tids:
            return np.fromiter(flat, dtype=np.intp, count=total)
        t2r = self._tid_to_row
        return np.fromiter((t2r[t] for t in flat), dtype=np.intp, count=total)

    # -- per-constraint artifacts --------------------------------------------

    def artifacts(self, sigma: DiversityConstraint) -> ConstraintArtifacts:
        """Masks and value codes for σ, built once per constraint."""
        art = self._artifacts.get(sigma)
        if art is not None:
            return art
        n = len(self)
        qi_names = set(self.schema.qi_names)
        qi_cols: list[int] = []
        qi_value_codes: list[int] = []
        nonqi_mask = np.ones(n, dtype=bool)
        target_mask = np.ones(n, dtype=bool)
        for attr, value in zip(sigma.attrs, sigma.values):
            pos = self.schema.position(attr)
            code = self.codebooks[pos].get(value, -1)
            column_match = self.codes[:, pos] == code
            target_mask &= column_match
            if attr in qi_names:
                qi_cols.append(pos)
                qi_value_codes.append(code)
            else:
                nonqi_mask &= column_match
        art = ConstraintArtifacts(
            qi_cols=np.asarray(qi_cols, dtype=np.intp),
            qi_value_codes=np.asarray(qi_value_codes, dtype=np.int32),
            nonqi_mask=nonqi_mask,
            target_mask=target_mask,
        )
        self._artifacts[sigma] = art
        return art

    def target_tids(self, sigma: DiversityConstraint) -> frozenset:
        """``Iσ`` as a frozenset of tids (mask reduction, not a row scan)."""
        return frozenset(self.tids[self.artifacts(sigma).target_mask].tolist())

    # -- preserved-count kernel ----------------------------------------------

    def preserved_count(self, cluster: frozenset, sigma: DiversityConstraint) -> int:
        """Occurrences of σ's target values surviving suppression of ``cluster``.

        Memoized per canonical cluster identity: the coloring search asks
        for the same cluster's contribution against every constraint, on
        every consistency check, across every search sharing this index.
        The memo is nested σ → {cluster: count} so batched calls hash σ
        once, not once per cluster.
        """
        sub = self._pc_cache.get(sigma)
        if sub is None:
            sub = self._pc_cache[sigma] = {}
        cached = sub.get(cluster)
        if cached is None:
            self._pc_misses += 1
            cached = self._preserved_count_uncached(cluster, sigma)
            sub[cluster] = cached
        else:
            self._pc_hits += 1
        return cached

    def _preserved_count_uncached(
        self, cluster: frozenset, sigma: DiversityConstraint
    ) -> int:
        rows = self.rows_of(cluster)
        if rows.size == 0:
            return 0
        art = self.artifacts(sigma)
        if art.qi_cols.size:
            # Uniform-and-matching on every QI component ⟺ every cell in the
            # cluster × QI-component block equals the target value's code.
            block = self.codes[np.ix_(rows, art.qi_cols)]
            if not (block == art.qi_value_codes).all():
                return 0
        return int(np.count_nonzero(art.nonqi_mask[rows]))

    def preserved_count_many(
        self, clusters: Sequence[frozenset], sigma: DiversityConstraint
    ) -> int:
        """Sum of per-cluster preserved counts over a whole clustering.

        Memo hits are summed directly; all misses are evaluated in **one**
        segment reduction (``np.add.reduceat`` over the concatenated row
        indices) instead of one NumPy call per cluster — at DIVA's typical
        cluster size (≈ k tuples) per-call overhead would otherwise eat
        the vectorization win.

        Unlike :meth:`preserved_count` (the search's repeat-heavy path),
        this bulk evaluator does **not** write results back to the memo:
        it is called once per candidate/final clustering, and writing
        every one-off clustering in would grow the memo without bound.
        It still reads through a memo the search has populated.
        """
        total = 0
        sub = self._pc_cache.get(sigma)
        if sub:
            missing: list = []
            for cluster in clusters:
                if not isinstance(cluster, frozenset):
                    cluster = frozenset(cluster)
                cached = sub.get(cluster)
                if cached is None:
                    if cluster:
                        missing.append(cluster)
                else:
                    self._pc_hits += 1
                    total += cached
        else:
            missing = [c for c in clusters if len(c)]
        if not missing:
            return total
        self._pc_misses += len(missing)
        return total + int(self._segment_counts(missing, sigma).sum())

    def preserved_count_batch(
        self, clusters: Sequence[frozenset], sigma: DiversityConstraint
    ) -> np.ndarray:
        """Per-cluster preserved counts for ``clusters``, as one array.

        The batched twin of :meth:`preserved_count` for callers that need
        every cluster's individual contribution (the coloring search
        precomputes each static candidate cluster's contribution against
        each constraint): memo hits are read out directly, all misses are
        evaluated in one segment reduction, and — unlike
        :meth:`preserved_count_many`, whose callers score one-off
        clusterings — every miss is **written back** to the memo, exactly
        as the per-cluster calls it replaces did, so the search's lazy
        lookups and the hit/miss tallies behave identically.
        """
        sub = self._pc_cache.get(sigma)
        if sub is None:
            sub = self._pc_cache[sigma] = {}
        out = np.zeros(len(clusters), dtype=np.int64)
        missing: list[frozenset] = []
        positions: list[int] = []
        for i, cluster in enumerate(clusters):
            cached = sub.get(cluster)
            if cached is None:
                self._pc_misses += 1
                if cluster:
                    missing.append(cluster)
                    positions.append(i)
                else:
                    sub[cluster] = 0
            else:
                self._pc_hits += 1
                out[i] = cached
        if not missing:
            return out
        counts = self._segment_counts(missing, sigma)
        for cluster, pos, count in zip(missing, positions, counts.tolist()):
            sub[cluster] = count
            out[pos] = count
        return out

    def _segment_counts(
        self, clusters: Sequence[frozenset], sigma: DiversityConstraint
    ) -> np.ndarray:
        """Preserved counts of non-empty ``clusters``, bypassing the memo.

        One segment reduction (``np.add.reduceat`` over the concatenated
        row indices) evaluates every cluster at once: the non-QI count,
        zeroed for clusters not uniform-and-matching on σ's QI components.
        """
        art = self.artifacts(sigma)
        lengths = np.fromiter(
            (len(c) for c in clusters), dtype=np.intp, count=len(clusters)
        )
        concat = self._concat_rows(clusters, int(lengths.sum()))
        offsets = np.zeros(len(clusters), dtype=np.intp)
        np.cumsum(lengths[:-1], out=offsets[1:])
        nonqi = np.add.reduceat(art.nonqi_mask[concat], offsets, dtype=np.int64)
        if not art.qi_cols.size:
            return nonqi
        # Per-column 1-D gathers: markedly cheaper than one np.ix_ 2-D
        # fancy gather for the handful of columns σ touches.
        cols, vals = art.qi_cols, art.qi_value_codes
        row_ok = self.codes[concat, cols[0]] == vals[0]
        for j in range(1, cols.size):
            row_ok &= self.codes[concat, cols[j]] == vals[j]
        qi_ok = np.add.reduceat(row_ok, offsets, dtype=np.int64) == lengths
        return np.where(qi_ok, nonqi, 0)

    # -- Hamming kernels -----------------------------------------------------

    def qi_hamming(self, tid_a: int, tid_b: int) -> int:
        """QI Hamming distance between two tuples."""
        a = self.qi_codes[self._tid_to_row[tid_a]]
        b = self.qi_codes[self._tid_to_row[tid_b]]
        return int(np.count_nonzero(a != b))

    def hamming_from(self, seed_tid: int, tids: Sequence[int]) -> np.ndarray:
        """QI Hamming distance from ``seed_tid`` to each of ``tids``."""
        ref = self.qi_codes[self._tid_to_row[seed_tid]]
        return (self.qi_codes[self.rows_of(tids)] != ref).sum(axis=1)

    def rank_by_hamming(self, seed_tid: int, tids: Sequence[int]) -> list[int]:
        """``tids`` sorted by (QI Hamming distance to seed, tid)."""
        arr = np.fromiter(tids, dtype=np.int64, count=len(tids))
        order = np.lexsort((arr, self.hamming_from(seed_tid, tids)))
        return arr[order].tolist()

    def seed_rank_orders(
        self, pool_rows: np.ndarray, seed_ranks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank-space :meth:`rank_by_hamming` for several seeds at once.

        ``pool_rows`` are the matrix rows of a pool sorted ascending by
        tid; ``seed_ranks`` index seeds *within that pool*.  Returns the
        pool's QI code block plus one ordering row per seed: all seed
        distances in a single broadcasted Hamming gather, then one argsort
        of the composite ``dist·n + rank`` key per row.  Pool ranks are
        unique and < n, so the composite argsort is exactly the reference
        ``lexsort((tids, dist))`` — rank ↔ tid is a monotone bijection on
        a sorted pool.  Used by the search-state engine's dynamic
        candidate expansion (:mod:`repro.core.searchstate`).
        """
        qi = self.qi_codes[pool_rows]
        n = np.int64(qi.shape[0])
        dist = (qi[seed_ranks][:, None, :] != qi[None, :, :]).sum(
            axis=2, dtype=np.int64
        )
        ranks = np.arange(n, dtype=np.int64)
        return qi, np.argsort(dist * n + ranks[None, :], axis=1)

    def pairwise_qi_hamming(self, tids: Sequence[int] | None = None) -> np.ndarray:
        """Full pairwise QI Hamming matrix over ``tids`` (default: all rows)."""
        block = (
            self.qi_codes if tids is None else self.qi_codes[self.rows_of(tids)]
        )
        return (block[:, None, :] != block[None, :, :]).sum(axis=2)

    # -- suppression-cost kernel ---------------------------------------------

    def cluster_cost(self, cluster: frozenset) -> int:
        """Cells starred when ``cluster`` is suppressed into one QI-group.

        Cost = (#QI columns with >1 distinct value) × |cluster|; memoized
        per canonical cluster identity.
        """
        cached = self._cost_cache.get(cluster)
        if cached is None:
            self._cost_misses += 1
            rows = self.rows_of(cluster)
            if rows.size == 0:
                cached = 0
            else:
                block = self.qi_codes[rows]
                varying = int((block != block[0]).any(axis=0).sum())
                cached = varying * rows.size
            self._cost_cache[cluster] = cached
        else:
            self._cost_hits += 1
        return cached

    def clustering_cost(self, clusters: Sequence[frozenset]) -> int:
        """Total suppression cost of a clustering (sum over clusters).

        Like :meth:`preserved_count_many`, memo misses are scored in one
        batched segment reduction: per-cluster uniformity per QI column is
        each row compared against its segment's first row, summed with
        ``reduceat``.
        """
        total = 0
        missing: list[frozenset] = []
        for cluster in clusters:
            if not isinstance(cluster, frozenset):
                cluster = frozenset(cluster)
            cached = self._cost_cache.get(cluster)
            if cached is None:
                if cluster:
                    missing.append(cluster)
                else:
                    self._cost_cache[cluster] = 0
            else:
                self._cost_hits += 1
                total += cached
        if not missing:
            return total
        self._cost_misses += len(missing)
        lengths = np.fromiter(
            (len(c) for c in missing), dtype=np.intp, count=len(missing)
        )
        concat = self._concat_rows(missing, int(lengths.sum()))
        offsets = np.zeros(len(missing), dtype=np.intp)
        np.cumsum(lengths[:-1], out=offsets[1:])
        block = self.qi_codes[concat]
        seg_first = np.repeat(self.qi_codes[concat[offsets]], lengths, axis=0)
        equal = block == seg_first
        uniform = (
            np.add.reduceat(equal, offsets, axis=0, dtype=np.int64)
            == lengths[:, None]
        )
        varying = self.qi_codes.shape[1] - uniform.sum(axis=1)
        for cluster, cost in zip(missing, (varying * lengths).tolist()):
            self._cost_cache[cluster] = cost
            total += cost
        return total

    # -- partition kernel ----------------------------------------------------

    def greedy_k_partition(
        self, items: Sequence[int], k: int
    ) -> tuple[frozenset, ...]:
        """Similarity-chunked partition of ``items`` into blocks of size ≥ k.

        Repeatedly seed a block with the first remaining tuple, sort the
        remainder by (distance to seed, tid), take the k nearest, and let
        the final block absorb the < k leftovers, so every block has size
        in [k, 2k) — with the per-round sort key computed as one
        broadcasted Hamming reduction.  This is the workhorse partition for
        large target subsets, where enumerating set partitions is hopeless
        but one low-suppression partition suffices.
        """
        remaining = np.fromiter(items, dtype=np.int64, count=len(items))
        rows = self.rows_of(items)
        blocks: list[frozenset] = []
        while remaining.size >= 2 * k:
            seed_codes = self.qi_codes[rows[0]]
            dist = (self.qi_codes[rows] != seed_codes).sum(axis=1)
            order = np.lexsort((remaining, dist))
            remaining, rows = remaining[order], rows[order]
            blocks.append(frozenset(remaining[:k].tolist()))
            remaining, rows = remaining[k:], rows[k:]
        blocks.append(frozenset(remaining.tolist()))
        return tuple(blocks)


def lockstep_k_partition(
    qi: np.ndarray,
    subsets: np.ndarray,
    k: int,
    dist: np.ndarray | None = None,
) -> list[list[np.ndarray]]:
    """:meth:`RelationIndex.greedy_k_partition` of every row of ``subsets``
    (B × s ranks into the rows of the QI code block ``qi``), in lockstep.

    Per round: one batched seed-distance gather (read from the pairwise
    distance matrix ``dist`` when the caller has one), one per-row argsort
    of the composite ``dist·n + rank`` key (ranks are unique and < n, so
    this is exactly the per-subset ``np.lexsort((remaining, dist))``), one
    block slice.  Equal-size subsets run the same number of rounds.
    Candidate enumeration and the search-state engine's dynamic candidates
    both partition through it.
    """
    rounds: list[np.ndarray] = []
    rem = subsets
    n = np.int64(qi.shape[0])
    batch = np.arange(rem.shape[0], dtype=np.intp)[:, None]
    while rem.shape[1] >= 2 * k:
        seeds = rem[:, 0]
        if dist is None:
            d = (qi[rem] != qi[seeds][:, None, :]).sum(axis=2, dtype=np.int64)
        else:
            d = dist[seeds[:, None], rem]
        order = np.argsort(d * n + rem, axis=1)
        rem = rem[batch, order]
        rounds.append(rem[:, :k])
        rem = rem[:, k:]
    return [
        [r[b] for r in rounds] + [rem[b]] for b in range(subsets.shape[0])
    ]
