"""The constraint-interaction graph (paper Section 3.3, Figure 2).

Each diversity constraint becomes a node; an undirected edge joins two
constraints whose target-tuple sets overlap (``Iσi ∩ Iσj ≠ ∅``).  Coloring a
node = committing to a clustering for that constraint, and only neighbouring
nodes can invalidate each other's choices, which is what makes the coloring
search local.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .. import obs
from ..data.relation import Relation
from .constraints import ConstraintSet, DiversityConstraint
from .index import get_index


@dataclass(frozen=True)
class ConstraintNode:
    """A graph node wrapping one diversity constraint.

    ``index`` is the constraint's position in Σ (stable node identity);
    ``target_tids`` is the precomputed ``Iσ``.
    """

    index: int
    constraint: DiversityConstraint
    target_tids: frozenset = field(default_factory=frozenset)

    def __repr__(self) -> str:
        return f"v{self.index}{self.constraint!r}"


class ConstraintGraph:
    """Undirected graph over the constraints of Σ.

    Built once per (R, Σ) problem; exposes adjacency, overlap labels
    (the ``Iσi ∩ Iσj`` edge annotations of Figure 2), and connected
    components (used by the parallel coloring extension).
    """

    def __init__(self, relation: Relation, constraints: ConstraintSet):
        constraints.validate_against(relation.schema)
        # Target-tid sets (``Iσ``) and pairwise overlaps come from the
        # columnar index's boolean target masks; an empty Σ needs no index.
        self._nodes: list[ConstraintNode] = []
        if len(constraints):
            index = get_index(relation)
            masks = [index.artifacts(sigma).target_mask for sigma in constraints]
            tids = index.tids
            self._nodes = [
                ConstraintNode(i, sigma, frozenset(tids[mask].tolist()))
                for i, (sigma, mask) in enumerate(zip(constraints, masks))
            ]
        self._adjacency: dict[int, set[int]] = {n.index: set() for n in self._nodes}
        self._overlaps: dict[frozenset, frozenset] = {}
        for i, a in enumerate(self._nodes):
            for b in self._nodes[i + 1:]:
                shared_mask = masks[a.index] & masks[b.index]
                shared = (
                    frozenset(tids[shared_mask].tolist())
                    if shared_mask.any()
                    else frozenset()
                )
                if shared:
                    self._adjacency[a.index].add(b.index)
                    self._adjacency[b.index].add(a.index)
                    self._overlaps[frozenset((a.index, b.index))] = frozenset(shared)
        obs.incr_many(
            {obs.GRAPH_NODES: len(self._nodes), obs.GRAPH_EDGES: len(self._overlaps)}
        )

    # -- structure -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ConstraintNode]:
        return iter(self._nodes)

    @property
    def nodes(self) -> tuple[ConstraintNode, ...]:
        return tuple(self._nodes)

    def node(self, index: int) -> ConstraintNode:
        return self._nodes[index]

    def neighbors(self, index: int) -> frozenset:
        """Indices of nodes adjacent to ``index``."""
        return frozenset(self._adjacency[index])

    def overlap(self, i: int, j: int) -> frozenset:
        """``Iσi ∩ Iσj`` (empty when no edge joins i and j)."""
        return self._overlaps.get(frozenset((i, j)), frozenset())

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list as (smaller index, larger index) pairs."""
        return sorted(tuple(sorted(pair)) for pair in self._overlaps)

    def degree(self, index: int) -> int:
        return len(self._adjacency[index])

    # -- decomposition -------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted node-index lists.

        Constraints in different components share no target tuples, so they
        can be colored independently — the basis of the paper's proposed
        distributed coloring (Section 6) implemented in ``core.parallel``.
        """
        unvisited = {n.index for n in self._nodes}
        components: list[list[int]] = []
        while unvisited:
            start = min(unvisited)
            stack, seen = [start], {start}
            while stack:
                current = stack.pop()
                for nb in self._adjacency[current]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            unvisited -= seen
            components.append(sorted(seen))
        return components

    def to_networkx(self):
        """Export as a ``networkx.Graph`` (nodes carry their constraint)."""
        import networkx as nx

        g = nx.Graph()
        for node in self._nodes:
            g.add_node(node.index, constraint=node.constraint)
        for pair, shared in self._overlaps.items():
            a, b = sorted(pair)
            g.add_edge(a, b, overlap=set(shared))
        return g


def build_graph(relation: Relation, constraints: ConstraintSet) -> ConstraintGraph:
    """``BuildGraph(R, Σ)`` of Algorithm 3."""
    with obs.span(obs.SPAN_GRAPH_BUILD):
        return ConstraintGraph(relation, constraints)
