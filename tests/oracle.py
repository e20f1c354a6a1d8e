"""Pure-Python reference implementations: the oracle production is pinned to.

Production DIVA runs one columnar path — the :class:`RelationIndex`
kernels, the :mod:`repro.core.enumeration` and :mod:`repro.core.searchstate`
engines and the :class:`ContributionResolver`.  The per-tuple loops those
replaced live here, unchanged in semantics, so the byte-identity suites
(``test_kernels_property``, ``test_enumeration``, ``test_searchstate``,
``test_coloring``, ``test_approx``) can compare production against an
independent implementation.  Suppression-based k-anonymity is NP-hard, so
the exact solver can only be checked this way, on small instances.

This module imports production code and is never imported by it.

* **Kernels** — :func:`qi_hamming_rows`, :func:`qi_distance_reference`,
  :func:`cluster_suppression_cost_reference`,
  :func:`preserved_count_reference`.
* **Enumeration** — :func:`greedy_k_partition`, :func:`nearest_by_hamming`,
  :func:`similarity_seeded_subsets` and :func:`enumerate_generic`;
  :func:`enumerate_pool` has the production ``enumerate_pool`` signature,
  so :func:`reference_enumeration` (or a test's own monkeypatch of
  ``repro.core.clusterings.enumerate_pool``) runs the reference body
  through the real :func:`~repro.core.clusterings.enumerate_clusterings`.
* **Search state** — :class:`ReferenceColoringSearch` keeps the dict live
  state and shares the production search loop.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import clusterings
from repro.core.coloring import (
    Clustering,
    ColoringSearch,
    clusters_consistent,
    merged_clusters,
)
from repro.core.constraints import DiversityConstraint
from repro.core.enumeration import (
    EXHAUSTIVE_COMBINATION_LIMIT,
    PARTITIONS_PER_SUBSET,
    SMALL_SUBSET_LIMIT,
    _clustering_key,
    _partitions_min_block,
)
from repro.core.graph import ConstraintGraph
from repro.core.index import RelationIndex
from repro.core.suppress import normalize_clustering
from repro.data.relation import Relation

# -- kernels -------------------------------------------------------------------


def qi_hamming_rows(row_a: Sequence, row_b: Sequence) -> int:
    """Hamming distance between two pre-projected QI row tuples.

    The one shared kernel behind every pure-Python similarity loop
    (partitioning, subset seeding, dynamic candidates).
    """
    return sum(1 for x, y in zip(row_a, row_b) if x != y)


def qi_rows_of(relation: Relation, tids=None) -> dict[int, tuple]:
    """tid → projected QI row tuple, for ``tids`` (default: every tuple)."""
    schema = relation.schema
    positions = [schema.position(a) for a in schema.qi_names]
    if tids is None:
        tids = relation.tids
    return {tid: tuple(relation.row(tid)[p] for p in positions) for tid in tids}


def qi_distance_reference(relation: Relation, tid_a: int, tid_b: int) -> int:
    """Pure-Python :func:`~repro.core.clusterings.qi_distance`."""
    schema = relation.schema
    row_a, row_b = relation.row(tid_a), relation.row(tid_b)
    positions = [schema.position(a) for a in schema.qi_names]
    return qi_hamming_rows(
        tuple(row_a[p] for p in positions), tuple(row_b[p] for p in positions)
    )


def cluster_suppression_cost_reference(relation: Relation, cluster: frozenset) -> int:
    """Pure-Python :func:`~repro.core.clusterings.cluster_suppression_cost`."""
    schema = relation.schema
    positions = [schema.position(a) for a in schema.qi_names]
    rows = [relation.row(tid) for tid in cluster]
    varying = sum(1 for p in positions if len({r[p] for r in rows}) > 1)
    return varying * len(rows)


def preserved_count_reference(
    relation: Relation, clusters: Sequence[frozenset], sigma: DiversityConstraint
) -> int:
    """Pure-Python :func:`~repro.core.clusterings.preserved_count`."""
    schema = relation.schema
    qi = set(schema.qi_names)
    parts = [
        (schema.position(a), a in qi, v) for a, v in zip(sigma.attrs, sigma.values)
    ]
    total = 0
    for cluster in clusters:
        rows = [relation.row(tid) for tid in cluster]
        qi_ok = True
        for pos, is_qi, value in parts:
            if is_qi:
                values = {r[pos] for r in rows}
                if len(values) != 1 or value not in values:
                    qi_ok = False
                    break
        if not qi_ok:
            continue
        total += sum(
            1
            for r in rows
            if all(is_qi or r[pos] == value for pos, is_qi, value in parts)
        )
    return total


def reference_contributions(
    relation: Relation, graph: ConstraintGraph, cluster: frozenset
) -> tuple[tuple[int, int], ...]:
    """(node index, surviving-count delta) pairs for one cluster.

    Constraints over only non-QI attributes are excluded: their counts
    are fixed globally by the relation (suppression cannot change them),
    so they neither need clusters nor constrain the search.  This is the
    record shape :class:`~repro.core.searchstate.ContributionResolver`
    produces.
    """
    qi = set(relation.schema.qi_names)
    contribs = []
    for node in graph:
        if not any(a in qi for a in node.constraint.attrs):
            continue
        delta = preserved_count_reference(relation, (cluster,), node.constraint)
        if delta:
            contribs.append((node.index, delta))
    return tuple(contribs)


# -- enumeration ---------------------------------------------------------------


def greedy_k_partition(
    items: tuple[int, ...], k: int, qi_rows: dict[int, tuple]
) -> tuple[frozenset, ...]:
    """Pure-Python :meth:`RelationIndex.greedy_k_partition`."""
    remaining = list(items)
    blocks: list[frozenset] = []
    while len(remaining) >= 2 * k:
        seed_row = qi_rows[remaining[0]]
        remaining.sort(key=lambda t: (qi_hamming_rows(seed_row, qi_rows[t]), t))
        blocks.append(frozenset(remaining[:k]))
        remaining = remaining[k:]
    blocks.append(frozenset(remaining))
    return tuple(blocks)


def nearest_by_hamming(
    seed: int, candidates: list[int], qi_rows: dict[int, tuple]
) -> list[int]:
    """``candidates`` ordered by QI Hamming distance to ``seed``.

    Ties keep ascending-tid order (``candidates`` arrive sorted): the
    stable sort equals the engine's (distance, tid) lexsort.
    """
    seed_row = qi_rows[seed]
    return sorted(candidates, key=lambda t: qi_hamming_rows(seed_row, qi_rows[t]))


def similarity_seeded_subsets(
    qi_rows: dict[int, tuple],
    pool: list[int],
    size: int,
    rng: np.random.Generator,
    cap: int,
) -> list[tuple[int, ...]]:
    """Sampled subsets of ``pool``: greedy nearest-neighbour seeds + random.

    Used when exhaustive combination enumeration would be too large.  Each
    pool tuple seeds one subset grown by repeatedly adding the closest (by
    QI Hamming distance) remaining tuple — these are the low-suppression
    candidates.  Random subsets fill the remainder for search diversity.

    ``rng.choice`` yields NumPy integer scalars; both sampled paths coerce
    to built-in ``int`` at the boundary so sampled subsets carry the same
    tid types (and dedup keys) as the exhaustive ``itertools`` path.
    """
    subsets: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    seeds = pool if len(pool) <= cap else [
        int(t) for t in rng.choice(pool, size=cap, replace=False)
    ]

    for seed in seeds:
        candidates = [t for t in pool if t != seed]
        candidates = nearest_by_hamming(seed, candidates, qi_rows)
        chosen = [seed] + candidates[: size - 1]
        key = tuple(sorted(chosen))
        if len(key) == size and key not in seen:
            seen.add(key)
            subsets.append(key)
        if len(subsets) >= cap:
            return subsets
    attempts = 0
    while len(subsets) < cap and attempts < 4 * cap:
        attempts += 1
        pick = tuple(
            int(t) for t in sorted(rng.choice(pool, size=size, replace=False))
        )
        if pick not in seen:
            seen.add(pick)
            subsets.append(pick)
    return subsets


def enumerate_generic(
    relation: Relation,
    pool: list[int],
    k: int,
    lo: int,
    hi: int,
    max_candidates: int,
    caps: dict[int, int],
    rng: np.random.Generator,
    already: int = 0,
) -> tuple[list[tuple[frozenset, ...]], int, int]:
    """Reference enumeration body: the oracle the engine is pinned against.

    Generates subsets and partitions one at a time (``itertools`` loops,
    one reference call per seed ordering, partition and score), then
    full-sorts, dedups and caps.  Returns ``(clusterings,
    subsets_generated, dominated_pruned)``; ``already`` counts caller-
    seeded candidates toward the cap.
    """
    qi_rows = qi_rows_of(relation, pool)

    def cost_of(clustering: tuple[frozenset, ...]) -> int:
        total = 0
        for cluster in clustering:
            rows = [qi_rows[tid] for tid in cluster]
            varying = sum(1 for col in zip(*rows) if len(set(col)) > 1)
            total += varying * len(rows)
        return total

    scored: list[tuple[int, int, tuple[frozenset, ...]]] = []
    generated = 0
    budget = max_candidates * 3  # oversample, then keep the cheapest
    for size in range(lo, hi + 1):
        if len(scored) >= budget:
            break
        if math.comb(len(pool), size) <= EXHAUSTIVE_COMBINATION_LIMIT:
            subsets = list(itertools.combinations(pool, size))
        else:
            subsets = similarity_seeded_subsets(
                qi_rows, pool, size, rng, caps[size]
            )
        generated += len(subsets)
        for subset in subsets:
            if len(subset) <= SMALL_SUBSET_LIMIT:
                partitions = _partitions_min_block(
                    subset, k, PARTITIONS_PER_SUBSET
                )
            else:
                partitions = [greedy_k_partition(subset, k, qi_rows)]
            for partition in partitions:
                clustering = normalize_clustering(partition)
                scored.append((cost_of(clustering), size, clustering))
                if len(scored) >= budget:
                    break
            if len(scored) >= budget:
                break

    scored.sort(key=lambda item: (item[0], item[1], _clustering_key(item[2])))
    seen: set[tuple] = set()
    body: list[tuple[frozenset, ...]] = []
    total = already
    for cost, size, clustering in scored:
        key = _clustering_key(clustering)
        if key in seen:
            continue
        seen.add(key)
        body.append(clustering)
        total += 1
        if total >= max_candidates:
            break
    return body, generated, len(scored) - len(body)


def enumerate_pool(
    index: RelationIndex,
    pool: list[int],
    k: int,
    lo: int,
    hi: int,
    max_candidates: int,
    caps: dict[int, int],
    rng: np.random.Generator,
    already: int = 0,
) -> tuple[list[tuple[frozenset, ...]], int, int]:
    """:func:`repro.core.enumeration.enumerate_pool`-shaped shim over
    :func:`enumerate_generic` (reads only the index's relation)."""
    return enumerate_generic(
        index.relation, pool, k, lo, hi, max_candidates, caps, rng, already
    )


@contextmanager
def reference_enumeration() -> Iterator[None]:
    """Route :func:`~repro.core.clusterings.enumerate_clusterings` through
    the reference body while the block runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clusterings, "enumerate_pool", enumerate_pool)
        yield


# -- search state ----------------------------------------------------------------


class ReferenceColoringSearch(ColoringSearch):
    """:class:`ColoringSearch` over the reference enumeration and the
    pure-Python dict live state.

    The production search loop (``run``, ``_color``, ``_charge_step``) is
    inherited unchanged and drives the state methods below: per-cluster
    refcounts, a covered-tid map and per-constraint running counts, with
    each distinct cluster's contributions precomputed once.  The
    production engine that ``ColoringSearch.__init__`` builds is never
    consulted.
    """

    def __init__(self, relation: Relation, constraints, k: int, **kwargs):
        with reference_enumeration():
            super().__init__(relation, constraints, k, **kwargs)
        self._qi_rows = qi_rows_of(
            relation, {tid for node in self.graph for tid in node.target_tids}
        )
        self._contrib: dict[frozenset, tuple[tuple[int, int], ...]] = {}
        for candidates in self._candidates.values():
            for clustering in candidates:
                for cluster in clustering:
                    self._contributions(cluster)
        self._cluster_refs: dict[frozenset, int] = {}
        self._covered: dict[int, int] = {}
        self._counts: dict[int, int] = {n.index: 0 for n in self.graph}
        self._uppers: dict[int, int] = {
            n.index: n.constraint.upper for n in self.graph
        }

    def is_consistent(
        self, candidate: Clustering, assignment: dict[int, Clustering]
    ) -> bool:
        """Non-incremental consistency check for an arbitrary assignment:
        re-suppresses the union and recounts every QI constraint."""
        self.stats.consistency_checks += 1
        chosen = merged_clusters(assignment)
        if not clusters_consistent(candidate, chosen):
            return False
        qi = set(self.relation.schema.qi_names)
        union = merged_clusters(assignment, candidate)
        for node in self.graph:
            if not any(a in qi for a in node.constraint.attrs):
                continue  # count fixed globally; handled by the precheck
            count = preserved_count_reference(self.relation, union, node.constraint)
            if count > node.constraint.upper:
                return False
        return True

    def _contributions(self, cluster: frozenset) -> tuple[tuple[int, int], ...]:
        cached = self._contrib.get(cluster)
        if cached is None:
            cached = reference_contributions(self.relation, self.graph, cluster)
            self._contrib[cluster] = cached
        return cached

    def _consistent(self, candidate: Clustering) -> bool:
        self.stats.consistency_checks += 1
        deltas: dict[int, int] = {}
        for cluster in candidate:
            if cluster in self._cluster_refs:
                continue  # identical cluster already chosen: nothing new
            for tid in cluster:
                if tid in self._covered:
                    return False  # partial overlap with a chosen cluster
            for j, delta in self._contributions(cluster):
                deltas[j] = deltas.get(j, 0) + delta
        for j, delta in deltas.items():
            if self._counts[j] + delta > self._uppers[j]:
                return False
        return True

    def consistent_count(self, index: int) -> int:
        return sum(1 for c in self._candidates[index] if self._consistent(c))

    def _apply(self, candidate: Clustering) -> None:
        for cluster in candidate:
            refs = self._cluster_refs.get(cluster, 0)
            self._cluster_refs[cluster] = refs + 1
            if refs == 0:
                for tid in cluster:
                    self._covered[tid] = self._covered.get(tid, 0) + 1
                for j, delta in self._contributions(cluster):
                    self._counts[j] += delta

    def _revert(self, candidate: Clustering) -> None:
        for cluster in candidate:
            refs = self._cluster_refs[cluster] - 1
            if refs == 0:
                del self._cluster_refs[cluster]
                for tid in cluster:
                    if self._covered[tid] == 1:
                        del self._covered[tid]
                    else:
                        self._covered[tid] -= 1
                for j, delta in self._contributions(cluster):
                    self._counts[j] -= delta
            else:
                self._cluster_refs[cluster] = refs

    def _dynamic_candidates(self, index: int) -> list[Clustering]:
        node = self.graph.node(index)
        sigma = node.constraint
        qi = set(self.relation.schema.qi_names)
        if not any(a in qi for a in sigma.attrs):
            return []  # globally determined; the static [()] suffices
        have = self._counts[index]
        need = max(0, sigma.lower - have)
        if need == 0:
            # Lower bound already met by shared clusters: color with the
            # empty clustering (upper bounds were enforced as they grew).
            return [()]
        pool = sorted(t for t in node.target_tids if t not in self._covered)
        size = max(self.k, need)
        if size > len(pool) or have + size > sigma.upper:
            return []
        out: list[Clustering] = []
        # A few similarity-seeded subsets of the residual pool.
        seeds = pool[:: max(1, len(pool) // 3)][:3]
        seen: set[tuple] = set()
        for seed in seeds:
            seed_row = self._qi_rows[seed]
            ordered = sorted(
                pool,
                key=lambda t: (qi_hamming_rows(seed_row, self._qi_rows[t]), t),
            )
            subset = tuple(ordered[:size])
            clustering = normalize_clustering(
                greedy_k_partition(subset, self.k, self._qi_rows)
            )
            key = tuple(tuple(sorted(c)) for c in clustering)
            if key not in seen:
                seen.add(key)
                out.append(clustering)
        return out
