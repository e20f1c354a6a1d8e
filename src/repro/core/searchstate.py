"""Columnar incremental search-state engine for the exact coloring search.

:class:`~repro.core.coloring.ColoringSearch` keeps incremental live state —
per-cluster refcounts, a covered-tid map, per-constraint surviving counts.
This module holds that state columnar, **byte-identical** to the
pure-Python dict state of the test oracle (``ReferenceColoringSearch`` in
``tests/oracle.py``), which re-derives per-candidate contribution sums on
every consistency check:

* **Cluster registry** — every distinct cluster is interned once to a dense
  id carrying its sorted row-index array and its per-constraint
  contribution record as two aligned ``int64`` arrays (node indices,
  deltas).  ``apply``/``revert`` are then O(|cluster| + touched σ) fancy
  adds on a covered refcount array and the admission-counter array instead
  of per-tid dict updates.
* **Window checks** — ``consistent`` accumulates candidate deltas into a
  scratch vector and window-checks ``counts + Δ ≤ uppers`` against the live
  counter arrays; ``consistent_count`` reuses the same live counters for
  every candidate instead of re-deriving contribution sums per call.
* **Batched dynamic candidates** — the residual-pool orderings run in rank
  space over the uncovered pool (the pool is sorted ascending, so
  ``argsort(dist·n + rank)`` reproduces the reference
  ``lexsort((tids, dist))`` exactly), all seeds in one broadcasted Hamming
  gather, all subsets partitioned in lockstep, and every novel cluster's
  contributions scored through :meth:`RelationIndex.preserved_count_batch`
  — one segment reduction per constraint per expansion.

Contribution memo
-----------------
:class:`ContributionMemo` is a process-global, content-addressed LRU shared
in spirit with :class:`~repro.core.enumeration.EnumerationMemo`: records
are keyed on the *values* of the constraint set (per-node attrs, target
values, QI flags) and of the cluster's rows over the constraint attrs — not
on tids or code matrices — so identical content shares work across
searches, across the parallel scheduler's worker-side components, across
:func:`~repro.core.approx.escalate_from_budget` warm starts (the
approximation tier resolves contributions through the same memo the exact
tier populated) and across the fresh relations the streaming engine builds
per scoped recompute.  Contribution records are pure values (no RNG
involvement), so memo temperature is invisible to search results by
construction; only the hit/miss tallies differ, which the observability
layer therefore reports as deltas around each DIVA run, never per search.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import Optional

import numpy as np

from .graph import ConstraintGraph
from .index import RelationIndex
from .suppress import normalize_clustering

Clustering = tuple  # tuple[frozenset, ...]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


# -- contribution memo ---------------------------------------------------------


def _robust_sort_key(row: tuple) -> tuple:
    """Total order over value tuples even when a column mixes types
    (suppressed relations interleave ``STAR`` strings with numerics)."""
    return tuple((type(v).__name__, repr(v)) for v in row)


class ContributionMemo:
    """Process-global, content-addressed LRU of contribution records.

    One entry is the dense per-QI-node surviving-count delta vector of one
    cluster under one constraint set.  Thread-safe: worker-side searches of
    the parallel thread executor share it.  Like the enumeration memo,
    generation happens outside the lock; a racing duplicate store is
    idempotent.
    """

    #: Entries retained (LRU).  Records are a handful of ints each, so the
    #: cap is sized for many searches' distinct clusters, not memory.
    CAPACITY = 32_768

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def stats(self) -> dict[str, int]:
        """Cumulative hit/miss tallies (read as deltas, like cache_stats)."""
        return {
            "search_memo_hits": self._hits,
            "search_memo_misses": self._misses,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def lookup(self, key: tuple) -> Optional[tuple]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def store(self, key: tuple, deltas: tuple) -> None:
        with self._lock:
            self._entries[key] = deltas
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


_MEMO = ContributionMemo()


def get_contribution_memo() -> ContributionMemo:
    """The process-global contribution memo."""
    return _MEMO


# -- contribution resolution ---------------------------------------------------


class ContributionResolver:
    """Memo-aware batched contribution records for one (index, Σ-graph).

    Shared by the exact search's engine and the approximation solver so a
    budget-escalated warm start re-reads the records the exact tier already
    resolved.  ``records`` returns, per cluster, its
    ``(node index, surviving-count delta)`` pairs — QI-touching nodes in
    graph order, zero deltas dropped.
    """

    __slots__ = (
        "index",
        "qi",
        "qi_nodes",
        "node_indices",
        "_set_sig",
        "_positions",
        "_books",
    )

    def __init__(self, index: RelationIndex, graph: ConstraintGraph):
        schema = index.schema
        self.index = index
        self.qi = set(schema.qi_names)
        self.qi_nodes = [
            n for n in graph if any(a in self.qi for a in n.constraint.attrs)
        ]
        self.node_indices = [n.index for n in self.qi_nodes]
        # Constraint-set signature: per QI node, the constraint's content
        # (attrs, target values, QI flags) in node order.  Values, not
        # codes — stable across the fresh relations streaming rebuilds.
        self._set_sig = tuple(
            (
                n.constraint.attrs,
                n.constraint.values,
                tuple(a in self.qi for a in n.constraint.attrs),
            )
            for n in self.qi_nodes
        )
        positions = sorted(
            {
                schema.position(a)
                for n in self.qi_nodes
                for a in n.constraint.attrs
            }
        )
        self._positions = np.asarray(positions, dtype=np.intp)
        books: list[np.ndarray] = []
        for p in positions:
            book = self.index.codebooks[p]
            inverse: list = [None] * len(book)
            for value, code in book.items():
                inverse[code] = value
            books.append(np.asarray(inverse, dtype=object))
        self._books = books

    def signatures(self, clusters: Sequence[frozenset]) -> list[tuple]:
        """Content identity of each cluster: the sorted multiset of its
        rows' values over the union of constraint attributes.

        One gather of the concatenated code block, one object fancy-index
        per column to translate codes back to values, then a per-cluster
        canonicalizing sort — no per-cell Python work.
        """
        index = self.index
        pos = self._positions
        lengths = [len(c) for c in clusters]
        if not sum(lengths):
            return [() for _ in clusters]
        concat = index._concat_rows(clusters, sum(lengths))
        block = index.codes[concat[:, None], pos[None, :]]
        columns = [
            book[block[:, j]].tolist() for j, book in enumerate(self._books)
        ]
        value_rows = list(zip(*columns))
        sigs: list[tuple] = []
        offset = 0
        for length in lengths:
            rows = value_rows[offset : offset + length]
            offset += length
            try:
                rows.sort()
            except TypeError:  # mixed-type column (e.g. STAR among ints)
                rows.sort(key=_robust_sort_key)
            sigs.append(tuple(rows))
        return sigs

    def record_vectors(self, clusters: Sequence[frozenset]) -> list[tuple]:
        """Dense per-QI-node delta vectors, one per cluster, memo-first.

        Misses are evaluated through one
        :meth:`RelationIndex.preserved_count_batch` segment reduction per
        constraint and written back to the memo.
        """
        if not self.qi_nodes:
            return [() for _ in clusters]
        memo = get_contribution_memo()
        sigs = self.signatures(clusters)
        out: list[Optional[tuple]] = [None] * len(clusters)
        missing: list[int] = []
        for i, sig in enumerate(sigs):
            rec = memo.lookup((self._set_sig, sig))
            if rec is None:
                missing.append(i)
            else:
                out[i] = rec
        if missing:
            miss_clusters = [clusters[i] for i in missing]
            per_node = [
                self.index.preserved_count_batch(miss_clusters, n.constraint)
                for n in self.qi_nodes
            ]
            for pos_in_batch, i in enumerate(missing):
                rec = tuple(int(counts[pos_in_batch]) for counts in per_node)
                memo.store((self._set_sig, sigs[i]), rec)
                out[i] = rec
        return out  # type: ignore[return-value]

    def records(
        self, clusters: Sequence[frozenset]
    ) -> list[tuple[tuple[int, int], ...]]:
        """Sparse ``(node index, delta)`` records, zero deltas dropped —
        the shape of ``ColoringSearch._contributions``."""
        idxs = self.node_indices
        return [
            tuple((idxs[j], d) for j, d in enumerate(vec) if d)
            for vec in self.record_vectors(clusters)
        ]


# -- lockstep partition kernel -------------------------------------------------


def _lockstep_partition(
    qi: np.ndarray, subsets: np.ndarray, k: int
) -> list[list[np.ndarray]]:
    """Greedy k-partition of every row of ``subsets`` (B × s ranks into
    ``qi``'s row space), in lockstep — the search-state twin of
    ``enumeration._batched_greedy``.

    Per round: one batched seed-distance gather, one per-row argsort of the
    composite ``dist·n + rank`` key (ranks are unique and < n, so this is
    exactly the per-subset reference ``np.lexsort((remaining, dist))``),
    one block slice.  Equal-size subsets run the same number of rounds.
    """
    rounds: list[np.ndarray] = []
    rem = subsets
    n = np.int64(qi.shape[0])
    batch = np.arange(rem.shape[0], dtype=np.intp)[:, None]
    while rem.shape[1] >= 2 * k:
        seeds = rem[:, 0]
        dist = (qi[rem] != qi[seeds][:, None, :]).sum(axis=2, dtype=np.int64)
        order = np.argsort(dist * n + rem, axis=1)
        rem = rem[batch, order]
        rounds.append(rem[:, :k])
        rem = rem[:, k:]
    return [
        [r[b] for r in rounds] + [rem[b]] for b in range(subsets.shape[0])
    ]


# -- the engine ----------------------------------------------------------------


class SearchState:
    """Columnar live-assignment state for one coloring search.

    Holds the reference dict state (``_cluster_refs`` / ``_covered`` /
    ``_counts``) as a cluster registry plus refcount and counter arrays.
    All mutation goes through :meth:`apply`/:meth:`revert`; the dict-shaped
    views exist for tests and debugging, never for the hot path.
    """

    def __init__(
        self,
        index: RelationIndex,
        graph: ConstraintGraph,
        k: int,
        candidates: dict[int, list[Clustering]],
    ):
        self.index = index
        self.graph = graph
        self.k = k
        self.resolver = ContributionResolver(index, graph)
        n_nodes = len(graph)
        self._counts = np.zeros(n_nodes, dtype=np.int64)
        self._uppers = np.zeros(n_nodes, dtype=np.int64)
        for node in graph:
            self._uppers[node.index] = node.constraint.upper
        self._scratch = np.zeros(n_nodes, dtype=np.int64)
        self._covered = np.zeros(len(index), dtype=np.int32)
        # Cluster registry: interned id → sparse record / refs.  The row
        # and delta *arrays* materialize on first consistency touch — most
        # registered static candidates are never evaluated, so eager
        # array-building would dominate construction.
        self._cid: dict[frozenset, int] = {}
        self._clusters: list[frozenset] = []
        self._records: list[tuple[tuple[int, int], ...]] = []
        self._rows: list[Optional[np.ndarray]] = []
        self._cidx: list[Optional[np.ndarray]] = []
        self._cdelta: list[Optional[np.ndarray]] = []
        self._refs: list[int] = []
        # Per-node sorted target pools (tids, rows), built on first use.
        self._pools: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Effort tallies (deterministic: independent of memo temperature —
        # ``batch_scored`` counts clusters *resolved* through the batched
        # path, whether the memo or the kernel supplied the record).
        self.delta_applies = 0
        self.delta_reverts = 0
        self.batch_scored = 0
        static: list[frozenset] = []
        seen: set[frozenset] = set()
        for pool in candidates.values():
            for clustering in pool:
                for cluster in clustering:
                    if cluster not in seen:
                        seen.add(cluster)
                        static.append(cluster)
        self.register(static)

    # -- registry --------------------------------------------------------------

    def register(self, clusters: Sequence[frozenset]) -> None:
        """Intern novel clusters: rows + batched contribution records."""
        novel: list[frozenset] = []
        seen: set[frozenset] = set()
        for cluster in clusters:
            if cluster not in self._cid and cluster not in seen:
                seen.add(cluster)
                novel.append(cluster)
        if not novel:
            return
        records = self.resolver.records(novel)
        self.batch_scored += len(novel)
        for cluster, record in zip(novel, records):
            self._cid[cluster] = len(self._refs)
            self._clusters.append(cluster)
            self._records.append(record)
            self._rows.append(None)
            self._cidx.append(None)
            self._cdelta.append(None)
            self._refs.append(0)

    def _cid_of(self, cluster: frozenset) -> int:
        cid = self._cid.get(cluster)
        if cid is None:
            self.register([cluster])
            cid = self._cid[cluster]
        return cid

    def _materialize(
        self, cid: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row and delta arrays of one interned cluster, built on first
        consistency touch from the registered sparse record."""
        rows = self._rows[cid]
        if rows is None:
            rows = self._rows[cid] = self.index.rows_of(self._clusters[cid])
            record = self._records[cid]
            if record:
                self._cidx[cid] = np.fromiter(
                    (j for j, _ in record), dtype=np.int64, count=len(record)
                )
                self._cdelta[cid] = np.fromiter(
                    (d for _, d in record), dtype=np.int64, count=len(record)
                )
            else:
                self._cidx[cid] = _EMPTY_I64
                self._cdelta[cid] = _EMPTY_I64
        return rows, self._cidx[cid], self._cdelta[cid]

    def contributions(self, cluster: frozenset) -> tuple[tuple[int, int], ...]:
        """Sparse contribution record of one cluster (registers it)."""
        return self._records[self._cid_of(cluster)]

    # -- live-state transitions ------------------------------------------------

    def consistent(self, candidate: Clustering) -> bool:
        """Reference ``_consistent`` semantics as array window checks:
        disjoint-or-equal via the covered refcount array, upper bounds via
        ``counts + Δ ≤ uppers`` over the live counter arrays."""
        scratch = self._scratch
        touched = False
        ok = True
        for cluster in candidate:
            cid = self._cid_of(cluster)
            if self._refs[cid]:
                continue  # identical cluster already chosen: nothing new
            rows, idx, delta = self._materialize(cid)
            if rows.size and self._covered[rows].any():
                ok = False  # partial overlap with a chosen cluster
                break
            if idx.size:
                scratch[idx] += delta
                touched = True
        if touched:
            if ok:
                # Applied candidates keep counts ≤ uppers invariant, so the
                # full-vector window check equals the touched-σ-only check.
                ok = bool(((self._counts + scratch) <= self._uppers).all())
            scratch[:] = 0
        return ok

    def consistent_count(self, candidates: Sequence[Clustering]) -> int:
        """Consistent candidates against the live counters — no per-call
        contribution re-derivation (each cluster's delta arrays are
        interned once)."""
        return sum(1 for candidate in candidates if self.consistent(candidate))

    def apply(self, candidate: Clustering) -> None:
        for cluster in candidate:
            cid = self._cid_of(cluster)
            refs = self._refs[cid]
            self._refs[cid] = refs + 1
            if refs == 0:
                rows, idx, delta = self._materialize(cid)
                if rows.size:
                    self._covered[rows] += 1
                if idx.size:
                    self._counts[idx] += delta
                self.delta_applies += 1

    def revert(self, candidate: Clustering) -> None:
        for cluster in candidate:
            cid = self._cid[cluster]
            refs = self._refs[cid] - 1
            self._refs[cid] = refs
            if refs == 0:
                rows, idx, delta = self._materialize(cid)
                if rows.size:
                    self._covered[rows] -= 1
                if idx.size:
                    self._counts[idx] -= delta
                self.delta_reverts += 1

    # -- dynamic candidates ----------------------------------------------------

    def _pool(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._pools.get(index)
        if cached is None:
            node = self.graph.node(index)
            tids = np.fromiter(
                sorted(node.target_tids),
                dtype=np.int64,
                count=len(node.target_tids),
            )
            rows = self.index.rows_of(tids.tolist())
            cached = self._pools[index] = (tids, rows)
        return cached

    def dynamic_candidates(self, index: int) -> list[Clustering]:
        """Residual-pool clusterings (see
        ``ColoringSearch._dynamic_candidates`` for the algorithm), with all
        seeds ordered in one broadcasted Hamming
        gather, all subsets partitioned in lockstep rank space, and novel
        clusters contribution-scored in one batch per constraint."""
        node = self.graph.node(index)
        sigma = node.constraint
        if not any(a in self.resolver.qi for a in sigma.attrs):
            return []  # globally determined; the static [()] suffices
        have = int(self._counts[index])
        need = max(0, sigma.lower - have)
        if need == 0:
            # Lower bound already met by shared clusters: color with the
            # empty clustering (upper bounds were enforced as they grew).
            return [()]
        tgt_tids, tgt_rows = self._pool(index)
        uncovered = self._covered[tgt_rows] == 0
        pool = tgt_tids[uncovered]
        n = int(pool.size)
        size = max(self.k, need)
        if size > n or have + size > sigma.upper:
            return []
        # Seed orderings in rank space: the pool is sorted ascending, so
        # the composite-key argsort in seed_rank_orders reproduces the
        # reference rank_by_hamming prefix exactly.
        step = max(1, n // 3)
        seed_ranks = np.arange(0, n, step, dtype=np.int64)[:3]
        qi, order = self.index.seed_rank_orders(tgt_rows[uncovered], seed_ranks)
        subsets = order[:, :size]
        # Identical subsets partition identically: dedup before the
        # lockstep greedy, rehydrate per seed afterwards.
        subset_keys = [tuple(subsets[s].tolist()) for s in range(len(seed_ranks))]
        unique: dict[tuple, int] = {}
        for key in subset_keys:
            if key not in unique:
                unique[key] = len(unique)
        stacked = np.asarray(list(unique), dtype=np.int64)
        parts = _lockstep_partition(qi, stacked, self.k)
        pool_list = pool.tolist()
        out: list[Clustering] = []
        seen: set[tuple] = set()
        for key in subset_keys:
            blocks = parts[unique[key]]
            clustering = normalize_clustering(
                tuple(
                    frozenset(pool_list[r] for r in block.tolist())
                    for block in blocks
                )
            )
            dedup_key = tuple(tuple(sorted(c)) for c in clustering)
            if dedup_key not in seen:
                seen.add(dedup_key)
                out.append(clustering)
        # One batched contribution pass per expansion for every novel
        # cluster the residual pools produced.
        self.register([c for clustering in out for c in clustering])
        return out

    # -- dict-shaped views (tests / debugging, not the hot path) ---------------

    def counts_view(self) -> dict[int, int]:
        return {node.index: int(self._counts[node.index]) for node in self.graph}

    def uppers_view(self) -> dict[int, int]:
        return {node.index: int(self._uppers[node.index]) for node in self.graph}

    def cluster_refs_view(self) -> dict[frozenset, int]:
        return {
            cluster: self._refs[cid]
            for cluster, cid in self._cid.items()
            if self._refs[cid]
        }

    def covered_view(self) -> dict[int, int]:
        rows = np.nonzero(self._covered)[0]
        tids = self.index.tids[rows]
        return {
            int(t): int(c)
            for t, c in zip(tids.tolist(), self._covered[rows].tolist())
        }
