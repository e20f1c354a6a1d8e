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

Contribution records
--------------------
The only contribution cache is the relation's own
:class:`~repro.core.index.RelationIndex`: :class:`ContributionResolver`
reads and fills its per-constraint cluster cache, so a warm re-run or an
approximation-tier escalation on the same relation re-reads every record
the first search resolved.  Records are pure values, so cache temperature
never changes a search result.
"""

from __future__ import annotations

from collections.abc import Sequence
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .graph import ConstraintGraph
from .index import RelationIndex, lockstep_k_partition
from .suppress import normalize_clustering

Clustering = tuple  # tuple[frozenset, ...]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def get_contribution_memo() -> SimpleNamespace:
    # Kept only for e2ebench/workloads.py, which clears it before cold runs.
    # A fresh relation is always cold: its records live on its own index.
    return SimpleNamespace(clear=lambda: None)


# -- contribution resolution ---------------------------------------------------


class ContributionResolver:
    """Batched contribution records for one (index, Σ-graph).

    Shared by the exact search's engine and the approximation solver;
    both read through the index's per-constraint cache, so a
    budget-escalated warm start re-reads the records the exact tier
    resolved.  ``records`` returns, per cluster, its
    ``(node index, surviving-count delta)`` pairs — QI-touching nodes in
    graph order, zero deltas dropped.
    """

    __slots__ = ("index", "qi", "qi_nodes", "node_indices")

    def __init__(self, index: RelationIndex, graph: ConstraintGraph):
        self.index = index
        self.qi = set(index.schema.qi_names)
        self.qi_nodes = [
            n for n in graph if any(a in self.qi for a in n.constraint.attrs)
        ]
        self.node_indices = [n.index for n in self.qi_nodes]

    def record_vectors(self, clusters: Sequence[frozenset]) -> list[tuple]:
        """Dense per-QI-node delta vectors, one per cluster: one
        :meth:`RelationIndex.preserved_count_batch` per QI node, which
        writes every miss back to the index cache."""
        if not self.qi_nodes:
            return [() for _ in clusters]
        per_node = [
            self.index.preserved_count_batch(clusters, n.constraint).tolist()
            for n in self.qi_nodes
        ]
        return list(zip(*per_node))

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
        # Effort tallies (deterministic: independent of cache temperature —
        # ``batch_scored`` counts clusters *resolved* through the batched
        # path, whether the index cache or the kernel supplied the record).
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
        parts = lockstep_k_partition(qi, stacked, self.k)
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
