"""Columnar candidate-enumeration engine for ``Clusterings(σ, R)``.

This is the generation pipeline behind
:func:`repro.core.clusterings.enumerate_clusterings`.  It reproduces the
pure-Python reference enumeration of the test oracle (``tests/oracle.py``:
``itertools`` loops, one kernel call per seed ordering, per partition
round and per scored clustering) **byte for byte** (same clusterings,
same order, built-in ``int`` tids):

* **Rank space** — the target pool ``Iσ`` is sorted ascending, so rank
  ``r`` ↔ ``pool[r]`` is a monotone bijection.  Every step of the
  reference enumeration (lexicographic combinations, (distance, tid)
  orderings, ``rng.choice`` draws, partition normalization, the final
  (cost, size, key) sort) commutes with a monotone tid relabeling, so the
  engine runs entirely on dense ``int64`` rank arrays and rehydrates tids
  only for the survivors.  ``rng.choice(pool, size, replace=False)`` is
  bit-identical to ``pool[rng.choice(n, size, replace=False)]`` and
  advances the generator by ``(n, size)`` alone, which also makes results
  content-addressable (see the memo below).
* **One distance matrix per pool** — similarity-seeded growth and the
  greedy k-partition both consume a single broadcasted Hamming matrix
  (plus one argsorted neighbor-order matrix) instead of per-seed
  ``hamming_from`` calls; pools too large for a dense matrix fall back to
  per-seed rows, still batched per round.
* **Lockstep greedy partition** — all same-size subsets are partitioned
  together: each round gathers the seed-to-member distances for the whole
  batch, argsorts the composite ``dist·n + rank`` key per row, and slices
  off one block per subset.
* **Batched scoring, rank-cutoff selection** — every generated
  clustering is scored in one segmented ``reduceat`` reduction, then the
  (cost, size) lexsort selects the top ``max_candidates``; canonical keys
  are materialized only for groups straddling the cutoff, and dominated
  candidates (same preserved-count vector — here the subset size, since
  pool clusters are uniform on σ — at strictly higher cost) are dropped
  without ever building a frozenset.  Within one enumeration every
  generated clustering is distinct (combinations are distinct, the
  partition enumerator never repeats, sampled subsets are deduped per
  size and sizes partition the candidates), so the cutoff selection is
  exactly the reference sort + dedup + cap.

Enumeration memo
----------------
:class:`EnumerationMemo` caches finished enumerations under a
**content-addressed** key: the pool's QI-value sequence plus
``(k, λ-window, max_candidates, per-size caps, enumeration limits)``.  Keying
on values rather than tids or code matrices lets identical pools share
work across constraints, across components in the parallel scheduler,
and across streaming publishes — the streaming engine rebuilds a fresh
``Relation`` (hence a fresh :class:`~repro.core.index.RelationIndex`)
per scoped recompute, which is why the memo is process-global rather
than hung off a single index.  Entries store results in rank space and a
log of the ``rng.choice`` draws the generation consumed; a hit replays
the draws (they depend only on ``(n, size)``), so a warm memo leaves the
caller's generator in exactly the state a cold run would have — memo
reuse is invisible to everything downstream, including the
rng-state-pinning behavior-neutrality tests.  Entries whose generation
never touched the rng are shared across any caller; rng-dependent
entries are additionally keyed on the generator's starting state.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .index import RelationIndex

#: Exhaustively enumerate subsets when the number of combinations per size is
#: below this; otherwise fall back to similarity-guided + random sampling.
EXHAUSTIVE_COMBINATION_LIMIT = 3_000

#: How many partitions of a single subset to consider (the single-block
#: partition plus a few balanced splits).
PARTITIONS_PER_SUBSET = 4

#: Subsets up to this size get combinatorial partition enumeration; larger
#: ones get a single greedy similarity-chunked k-partition (one cluster per
#: ~k similar tuples), which is how large proportional constraints stay
#: tractable and low-suppression.
SMALL_SUBSET_LIMIT = 8

#: Pools up to this size get one dense pairwise Hamming matrix (and one
#: argsorted neighbor-order matrix); larger pools compute per-seed distance
#: rows on demand to bound memory at O(n) per seed instead of O(n²).
DENSE_POOL_LIMIT = 4_096


def _clustering_key(clustering: tuple[frozenset, ...]) -> tuple:
    """Hashable canonical identity of a clustering."""
    return tuple(tuple(sorted(c)) for c in clustering)


def _partitions_min_block(
    items: tuple[int, ...], k: int, limit: int
) -> Iterator[tuple[frozenset, ...]]:
    """Partitions of ``items`` into blocks of size ≥ k, at most ``limit``.

    The single-block partition comes first (it is always valid since callers
    guarantee ``len(items) >= k``); further partitions are produced by a
    standard recursive set-partition enumeration filtered on block size.
    """
    yield (frozenset(items),)
    if limit <= 1 or len(items) < 2 * k:
        return
    produced = 1

    def recurse(remaining: tuple[int, ...]) -> Iterator[tuple[frozenset, ...]]:
        """All ≥k-block partitions of ``remaining`` (including single-block)."""
        if len(remaining) >= k:
            yield (frozenset(remaining),)
        if len(remaining) < 2 * k:
            return
        first, rest = remaining[0], remaining[1:]
        # Choose the block containing `first`; recurse on the remainder.
        for block_minus in itertools.combinations(rest, k - 1):
            block = frozenset((first,) + block_minus)
            leftover = tuple(x for x in rest if x not in block)
            for sub in recurse(leftover):
                yield (block,) + sub

    for partition in recurse(items):
        if len(partition) == 1:
            continue  # already yielded the single-block form
        yield partition
        produced += 1
        if produced >= limit:
            return


# -- memo ----------------------------------------------------------------------


@dataclass(frozen=True)
class EnumEntry:
    """One finished enumeration, in rank space.

    ``ranks`` holds the selected clusterings in output order, each a tuple
    of blocks, each block a sorted tuple of pool ranks; ``draws`` the
    ``(n, size)`` log of every ``rng.choice(n, size, replace=False)`` the
    generation consumed, replayed on memo hits so the caller's generator
    state matches a cold run exactly.
    """

    ranks: tuple
    draws: tuple
    subsets_generated: int
    dominated_pruned: int


class EnumerationMemo:
    """Process-global, content-addressed LRU of finished enumerations.

    Thread-safe: the parallel thread executor's component searches share
    this memo.  Lookups and stores only touch the dicts under the lock;
    generation happens outside it, so two threads may race to produce the
    same entry — idempotent, the second store wins harmlessly.
    """

    #: Keys retained (LRU); per-key rng-dependent variants retained (LRU).
    CAPACITY = 256
    STATES_PER_KEY = 64

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._buckets: OrderedDict[tuple, dict] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def stats(self) -> dict[str, int]:
        """Cumulative hit/miss tallies (read as deltas, like cache_stats)."""
        return {"enum_memo_hits": self._hits, "enum_memo_misses": self._misses}

    def clear(self) -> None:
        with self._lock:
            self._buckets.clear()

    @staticmethod
    def state_digest(rng: np.random.Generator) -> str:
        """Stable fingerprint of a generator's current state."""
        return repr(rng.bit_generator.state)

    def lookup(
        self, key: tuple, rng: np.random.Generator
    ) -> Optional[EnumEntry]:
        """The cached entry for ``key`` valid at ``rng``'s state, or None.

        On a hit whose generation consumed rng draws, the draws are
        replayed against ``rng`` so its post-call state is identical to
        what a cold generation would have left.
        """
        with self._lock:
            bucket = self._buckets.get(key)
            entry = None
            if bucket is not None:
                self._buckets.move_to_end(key)
                entry = bucket["free"]
                if entry is None:
                    states = bucket["states"]
                    entry = states.get(self.state_digest(rng))
                    if entry is not None:
                        states.move_to_end(self.state_digest(rng))
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
        for n, size in entry.draws:
            rng.choice(n, size=size, replace=False)
        return entry

    def store(self, key: tuple, start_digest: str, entry: EnumEntry) -> None:
        """Insert a finished enumeration (rng-free entries shared freely)."""
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = {"free": None, "states": OrderedDict()}
                while len(self._buckets) > self.capacity:
                    self._buckets.popitem(last=False)
            if entry.draws:
                states = bucket["states"]
                states[start_digest] = entry
                states.move_to_end(start_digest)
                while len(states) > self.STATES_PER_KEY:
                    states.popitem(last=False)
            else:
                bucket["free"] = entry


_MEMO = EnumerationMemo()


def get_enum_memo() -> EnumerationMemo:
    """The process-global enumeration memo."""
    return _MEMO


# -- pool view -----------------------------------------------------------------


class _PoolView:
    """Dense rank-space view of one pool's QI codes.

    The pairwise distance matrix and the per-seed neighbor order are
    computed lazily, once, and shared by subset seeding and the batched
    greedy partition.
    """

    __slots__ = ("qi", "n", "q", "_dist", "_order")

    def __init__(self, index: RelationIndex, pool: list[int]):
        self.qi = index.qi_codes[index.rows_of(pool)]
        self.n = len(pool)
        self.q = self.qi.shape[1]
        self._dist: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None

    @property
    def dense(self) -> bool:
        return self.n <= DENSE_POOL_LIMIT

    def dist_matrix(self) -> np.ndarray:
        if self._dist is None:
            qi = self.qi
            self._dist = (qi[:, None, :] != qi[None, :, :]).sum(
                axis=2, dtype=np.int64
            )
        return self._dist

    def neighbor_row(self, seed: int) -> np.ndarray:
        """All ranks ordered by (distance to ``seed``, rank) — seed included.

        Mirrors the reference (stable sort by distance over an ascending
        pool): the composite ``dist·n + rank`` key is unique per element,
        so a plain argsort reproduces the lexicographic order exactly.
        """
        if self.dense:
            if self._order is None:
                n = self.n
                composite = self.dist_matrix() * np.int64(n) + np.arange(
                    n, dtype=np.int64
                )[None, :]
                self._order = np.argsort(composite, axis=1)
            return self._order[seed]
        dist = (self.qi != self.qi[seed]).sum(axis=1, dtype=np.int64)
        return np.lexsort((np.arange(self.n), dist))


# -- generation ----------------------------------------------------------------


def _seeded_subsets(
    view: _PoolView,
    size: int,
    rng: np.random.Generator,
    cap: int,
    draws: list[tuple[int, int]],
) -> list[tuple[int, ...]]:
    """Rank-space twin of the reference ``_similarity_seeded_subsets``.

    Same draw order, same dedup flow, same early exits; every
    ``rng.choice`` runs on ranks (bit-identical to choosing from the tid
    array) and is appended to ``draws`` for memo replay.
    """
    n = view.n
    subsets: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    if n <= cap:
        seeds = range(n)
    else:
        seeds = rng.choice(n, size=cap, replace=False).tolist()
        draws.append((n, cap))
    for seed in seeds:
        row = view.neighbor_row(seed)
        near = row[row != seed][: size - 1]
        key = tuple(sorted([seed, *near.tolist()]))
        if len(key) == size and key not in seen:
            seen.add(key)
            subsets.append(key)
        if len(subsets) >= cap:
            return subsets
    attempts = 0
    while len(subsets) < cap and attempts < 4 * cap:
        attempts += 1
        pick = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        draws.append((n, size))
        if pick not in seen:
            seen.add(pick)
            subsets.append(pick)
    return subsets


def _batched_greedy(
    view: _PoolView, subsets: np.ndarray, k: int
) -> list[list[np.ndarray]]:
    """Greedy k-partition of every row of ``subsets`` (B × s), in lockstep.

    Equal-size subsets run the same number of rounds, so each round is one
    batched gather + per-row argsort of the composite (distance, rank) key
    — the exact order the per-subset reference kernel produces with its
    ``np.lexsort((remaining, dist))``.
    """
    rounds: list[np.ndarray] = []
    rem = subsets
    dist_matrix = view.dist_matrix() if view.dense else None
    n = np.int64(view.n)
    batch_rows = np.arange(subsets.shape[0], dtype=np.intp)[:, None]
    while rem.shape[1] >= 2 * k:
        seeds = rem[:, 0]
        if dist_matrix is not None:
            dist = dist_matrix[seeds[:, None], rem]
        else:
            dist = (view.qi[rem] != view.qi[seeds][:, None, :]).sum(
                axis=2, dtype=np.int64
            )
        order = np.argsort(dist * n + rem, axis=1)
        rem = rem[batch_rows, order]
        rounds.append(rem[:, :k])
        rem = rem[:, k:]
    return [
        [r[b] for r in rounds] + [rem[b]] for b in range(subsets.shape[0])
    ]


def _generate(
    view: _PoolView,
    k: int,
    lo: int,
    hi: int,
    budget: int,
    caps: dict[int, int],
    rng: np.random.Generator,
    draws: list[tuple[int, int]],
) -> tuple[list[tuple[int, list[np.ndarray]]], int]:
    """All candidate clusterings (rank-space blocks) up to ``budget``.

    Mirrors the reference loop structure exactly — ascending sizes,
    exhaustive combinations below the limit, sampled subsets above it,
    combinatorial partitions for small subsets, one greedy partition for
    large ones, budget truncation at the same points — so the candidate
    population (and the rng stream) is identical.
    """
    cands: list[tuple[int, list[np.ndarray]]] = []
    generated = 0
    for size in range(lo, hi + 1):
        if len(cands) >= budget:
            break
        if math.comb(view.n, size) <= EXHAUSTIVE_COMBINATION_LIMIT:
            subsets = list(itertools.combinations(range(view.n), size))
        else:
            subsets = _seeded_subsets(view, size, rng, caps[size], draws)
        generated += len(subsets)
        if size <= SMALL_SUBSET_LIMIT:
            full = False
            for subset in subsets:
                for partition in _partitions_min_block(
                    subset, k, PARTITIONS_PER_SUBSET
                ):
                    cands.append(
                        (
                            size,
                            [
                                np.fromiter(
                                    sorted(block), dtype=np.int64, count=len(block)
                                )
                                for block in partition
                            ],
                        )
                    )
                    if len(cands) >= budget:
                        full = True
                        break
                if full:
                    break
        else:
            take = min(len(subsets), budget - len(cands))
            if take > 0:
                arr = np.asarray(subsets[:take], dtype=np.int64)
                for blocks in _batched_greedy(view, arr, k):
                    cands.append((size, blocks))
    return cands, generated


def _score(
    view: _PoolView, cands: list[tuple[int, list[np.ndarray]]]
) -> np.ndarray:
    """Suppression cost of every candidate, one segmented reduction.

    Per-block cost = (#QI columns with >1 distinct value) × block size;
    per-candidate cost = sum over its blocks — two ``reduceat`` passes
    over the concatenated block members instead of one ``clustering_cost``
    call per candidate.
    """
    blocks = [block for _, cand in cands for block in cand]
    lens = np.fromiter((b.size for b in blocks), dtype=np.intp, count=len(blocks))
    offsets = np.zeros(len(blocks), dtype=np.intp)
    np.cumsum(lens[:-1], out=offsets[1:])
    codes = view.qi[np.concatenate(blocks)]
    seg_first = np.repeat(codes[offsets], lens, axis=0)
    uniform = (
        np.add.reduceat(codes == seg_first, offsets, axis=0, dtype=np.int64)
        == lens[:, None]
    )
    block_costs = (view.q - uniform.sum(axis=1)) * lens
    counts = np.fromiter((len(c) for _, c in cands), dtype=np.intp, count=len(cands))
    cand_offsets = np.zeros(len(cands), dtype=np.intp)
    np.cumsum(counts[:-1], out=cand_offsets[1:])
    return np.add.reduceat(block_costs, cand_offsets, dtype=np.int64)


def _rank_key(blocks: list[np.ndarray]) -> tuple:
    """Canonical (normalized) rank-space key: sorted tuple of sorted blocks."""
    return tuple(sorted(tuple(sorted(b.tolist())) for b in blocks))


def _select(
    cands: list[tuple[int, list[np.ndarray]]],
    costs: np.ndarray,
    sizes: np.ndarray,
    max_candidates: int,
    already: int,
) -> list[tuple]:
    """Top-``max_candidates`` canonical keys by (cost, size, key) order.

    Candidates past the cutoff are dominated — some same-size (hence same
    preserved-count) candidate exists at no higher cost for every slot —
    and are pruned without materializing their keys: only groups that tie
    on (cost, size) across the cutoff need the canonical tiebreak.  All
    generated candidates are distinct (see module docstring), so this is
    exactly the reference sort + dedup + cap, including its append-then-
    check cap semantics (``already`` counts candidates the caller seeded).
    """
    order = np.lexsort((sizes, costs))
    selected: list[tuple] = []
    total = already
    i, m = 0, len(cands)
    while i < m:
        j = i + 1
        cost0, size0 = costs[order[i]], sizes[order[i]]
        while j < m and costs[order[j]] == cost0 and sizes[order[j]] == size0:
            j += 1
        group = order[i:j]
        if group.size == 1:
            members = [_rank_key(cands[int(group[0])][1])]
        else:
            members = sorted(_rank_key(cands[int(g)][1]) for g in group)
        for key in members:
            selected.append(key)
            total += 1
            if total >= max_candidates:
                return selected
        i = j
    return selected


def _pool_signature(index: RelationIndex, pool: list[int]) -> tuple:
    """Content identity of a pool: its QI-value sequence.

    Values, not codes — code matrices are per-relation factorization
    ranks, so only raw values are stable across the fresh relations the
    streaming engine builds per publish.  Two pools with the same QI-value
    sequence enumerate identically in rank space by construction.
    """
    relation = index.relation
    positions = [int(p) for p in index.qi_positions]
    return tuple(
        tuple(row[p] for p in positions)
        for row in (relation.row(t) for t in pool)
    )


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
    """Vectorized ``Clusterings(σ, R)`` body for one (pool, window, k).

    Returns ``(clusterings, subsets_generated, dominated_pruned)`` —
    byte-identical to the reference enumeration's non-trivial candidates.
    Results are memoized content-addressed; ``already`` is the caller's
    prefix length (the zero-lower-bound empty clustering), which shifts
    the selection cap and is therefore part of the memo key.
    """
    memo = get_enum_memo()
    key = (
        _pool_signature(index, pool),
        k,
        lo,
        hi,
        max_candidates,
        already,
        tuple(caps[s] for s in range(lo, hi + 1)),
        EXHAUSTIVE_COMBINATION_LIMIT,
        SMALL_SUBSET_LIMIT,
        PARTITIONS_PER_SUBSET,
    )
    entry = memo.lookup(key, rng)
    if entry is None:
        start = memo.state_digest(rng)
        draws: list[tuple[int, int]] = []
        view = _PoolView(index, pool)
        budget = max_candidates * 3  # oversample, then keep the cheapest
        cands, generated = _generate(view, k, lo, hi, budget, caps, rng, draws)
        if cands:
            costs = _score(view, cands)
            pool_sizes = np.fromiter(
                (s for s, _ in cands), dtype=np.int64, count=len(cands)
            )
            selected = _select(cands, costs, pool_sizes, max_candidates, already)
        else:
            selected = []
        entry = EnumEntry(
            ranks=tuple(selected),
            draws=tuple(draws),
            subsets_generated=generated,
            dominated_pruned=len(cands) - len(selected),
        )
        memo.store(key, start, entry)
    body = [
        tuple(frozenset(pool[r] for r in block) for block in clustering)
        for clustering in entry.ranks
    ]
    return body, entry.subsets_generated, entry.dominated_pruned
