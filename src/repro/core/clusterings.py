"""Candidate clustering enumeration: ``Clusterings(σ, R)`` (Section 3.3).

For a diversity constraint ``σ = (X[t], λl, λr)`` the candidate clusterings
are exactly the ways to pick a subset ``S ⊆ Iσ`` of the target tuples with
``max(k, λl) ≤ |S| ≤ λr`` and partition it into clusters of size ≥ k.  Every
cluster drawn from ``Iσ`` is uniform on the target attributes, so suppression
never erases the target values and ``Suppress(S) |= σ`` holds by
construction (the preserved occurrence count is ``|S|``).

The full candidate space is exponential in ``|Iσ|``; the paper caps the
number considered per constraint ("the number of clusters considered in
coloring for each constraint is polynomial w.r.t. R").  We do the same:
candidates are generated lazily in ascending expected-suppression order
(QI-homogeneous subsets first, smaller subsets first) up to a configurable
cap.  For the tiny ``Iσ`` of the running example this enumeration is
exhaustive and reproduces the paper's listed clusterings exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from .. import obs
from ..data.relation import Relation
from .constraints import DiversityConstraint
from .costmodel import enumeration_size_caps
from .enumeration import enumerate_pool
from .index import get_index


def qi_distance(relation: Relation, tid_a: int, tid_b: int) -> int:
    """Hamming distance over QI attributes between two tuples.

    This is exactly the number of cells per tuple that suppression would
    star out if the two tuples were clustered alone together, so it doubles
    as the suppression-cost metric used to order candidates.
    """
    return get_index(relation).qi_hamming(tid_a, tid_b)


def cluster_suppression_cost(relation: Relation, cluster: frozenset) -> int:
    """Number of cells starred when ``cluster`` is suppressed into a QI-group.

    Cost = (#QI attributes with >1 distinct value in the cluster) × |cluster|.
    """
    return get_index(relation).cluster_cost(frozenset(cluster))


def clustering_suppression_cost(
    relation: Relation, clustering: Sequence[frozenset]
) -> int:
    """Total suppression cost of a clustering (sum over clusters).

    All memo-missing clusters are scored in a single batched segment
    reduction (see ``RelationIndex.clustering_cost``).
    """
    return get_index(relation).clustering_cost(clustering)


def preserved_count(
    relation: Relation, clusters: Sequence[frozenset], sigma: DiversityConstraint
) -> int:
    """Occurrences of σ's target values that survive suppressing ``clusters``.

    Suppression only touches QI attributes, so the two kinds of attribute in
    σ behave differently:

    * a *QI* attribute of σ survives in a cluster iff the cluster is uniform
      on it — and then every tuple carries the uniform value;
    * a *non-QI* attribute (sensitive/insensitive) is never suppressed, so
      each tuple is matched against it individually.

    A cluster therefore contributes the number of its tuples matching σ's
    non-QI components, provided the cluster is uniform-and-matching on every
    QI component (otherwise it contributes zero: the QI value is either
    wrong or starred for the whole cluster).

    Runs the memoized mask/uniformity kernel of
    :class:`~repro.core.index.RelationIndex`.
    """
    return get_index(relation).preserved_count_many(clusters, sigma)


def enumerate_clusterings(
    relation: Relation,
    sigma: DiversityConstraint,
    k: int,
    max_candidates: int = 64,
    rng: Optional[np.random.Generator] = None,
    target_tids: Optional[set[int]] = None,
) -> list[tuple[frozenset, ...]]:
    """``Clusterings(σ, R)``: candidate clusterings satisfying σ.

    Returns up to ``max_candidates`` clusterings, each a tuple of disjoint
    frozenset clusters of size ≥ k drawn from ``Iσ``, ordered by ascending
    suppression cost then ascending total size (minimal clusterings first).
    Returns an empty list when σ cannot be satisfied from ``Iσ`` (fewer than
    ``max(k, λl)`` target tuples, or ``λr < k`` while λl > 0 forces an
    undersized cluster).

    ``target_tids`` lets callers pass a precomputed ``Iσ`` (e.g. the graph
    builder already has it).

    Generation runs on the memoized rank-space engine
    (:func:`repro.core.enumeration.enumerate_pool`) under the cost-model
    per-size sampling caps, inside the ``enum.generate`` span, and reports
    subsets-generated / dominated-pruned counters.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    qi = set(relation.schema.qi_names)
    if not any(a in qi for a in sigma.attrs):
        # σ touches no QI attribute: suppression cannot change its count, so
        # no clustering is needed (feasibility is a global precheck).
        return [()]
    pool = sorted(
        int(t)
        for t in (
            target_tids if target_tids is not None else sigma.target_tids(relation)
        )
    )
    lo = max(k, sigma.lower)
    hi = min(sigma.upper, len(pool))
    if sigma.lower == 0:
        # The empty clustering satisfies a zero lower bound with no cost.
        candidates: list[tuple[frozenset, ...]] = [()]
    else:
        candidates = []
    if hi < lo:
        return candidates

    budget = max_candidates * 3  # oversample, then keep the cheapest
    caps = enumeration_size_caps(lo, hi, budget, k, schema=relation.schema)
    with obs.span(obs.SPAN_ENUM_GENERATE):
        body, generated, pruned = enumerate_pool(
            get_index(relation),
            pool,
            k,
            lo,
            hi,
            max_candidates,
            caps,
            rng,
            already=len(candidates),
        )
    if obs.enabled():
        obs.incr_many(
            {
                obs.ENUM_SUBSETS_GENERATED: generated,
                obs.ENUM_DOMINATED_PRUNED: pruned,
            }
        )
    candidates.extend(body)
    return candidates

