"""Zero-error structure of classical stochastic maps.

Two input symbols are confusable when their output distributions overlap;
the confusability relation is a graph, and a zero-error code is exactly an
independent set.  Maximum independent set is solved exactly by branch and
bound with a greedy clique-cover bound -- fine at desk scale, guarded at
n = 30 because the problem is NP-hard in general.  The reverse construction
(:func:`graph_to_channel`) builds a stochastic map whose confusability graph
is any requested graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import StochasticChannel
from .errors import ValidationError
from .tolerances import OVERLAP_EPS

__all__ = [
    "Graph",
    "adjacency_graph",
    "max_zero_error_code",
    "maximum_independent_sets",
    "graph_to_channel",
]

MAX_EXACT_VERTICES = 30
MAX_ENUMERATION_VERTICES = 20


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices ``0..n-1`` without self-loops."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"graph has a negative vertex count {self.n}")
        for (i, j) in self.edges:
            if i == j:
                raise ValidationError(f"self-loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValidationError(f"edge ({i}, {j}) out of range or unordered")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        norm = frozenset(tuple(sorted((int(a), int(b)))) for a, b in edges)
        return cls(n=int(n), edges=norm)

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for (i, j) in self.edges:
            if i == v:
                out.add(j)
            elif j == v:
                out.add(i)
        return out


def adjacency_graph(sc: StochasticChannel) -> Graph:
    """Confusability graph: an edge joins inputs whose images overlap."""
    reach = (sc.matrix > OVERLAP_EPS).astype(float)
    # entry (i, j) counts, exactly, the outputs that both i and j reach
    shared = np.triu(reach.T @ reach, k=1)
    return Graph.from_edges(sc.n_in, zip(*np.nonzero(shared)))


# ---------------------------------------------------------------------------
# exact maximum independent set
# ---------------------------------------------------------------------------

def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for (i, j) in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def _clique_cover_bound(avail: int, masks: list[int]) -> int:
    """Greedy partition of the available vertices into cliques; the number of
    cliques bounds the independence number from above."""
    bound = 0
    remaining = avail
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        clique = 1 << v
        candidates = remaining & masks[v]
        while candidates:
            u = (candidates & -candidates).bit_length() - 1
            clique |= 1 << u
            candidates &= masks[u]
        remaining &= ~clique
        bound += 1
    return bound


def _maximum_sets(g: Graph, every: bool) -> list[tuple[int, ...]]:
    """Maximum independent sets of ``g`` in lexicographic order: all of them
    when ``every``, else only the lexicographically smallest one.

    Each branch keeps the lowest available vertex first and then drops it, so
    leaves arrive in lexicographic order of their sorted vertex lists, and a
    branch is pruned on the clique-cover bound.  Without ``every`` a branch
    that cannot beat the best size is pruned: one that holds the smallest
    maximum set has a bound of at least the independence number, which
    exceeds the best size until that set is reached.  With ``every`` only a
    branch that cannot reach the best size is pruned, and the list restarts
    whenever the best size grows.
    """
    masks = _adjacency_masks(g)
    best = [-1]  # below every size, so the first leaf is recorded
    found: list[tuple[int, ...]] = []

    def recurse(avail: int, current: list[int]):
        bound = len(current) + _clique_cover_bound(avail, masks)
        if bound < best[0] or (bound == best[0] and not every):
            return
        if avail == 0:
            if len(current) > best[0]:
                best[0] = len(current)
                found.clear()
            found.append(tuple(current))
            return
        v = (avail & -avail).bit_length() - 1
        recurse(avail & ~((1 << v) | masks[v]), current + [v])
        recurse(avail & ~(1 << v), current)

    recurse((1 << g.n) - 1, [])
    return found


def max_zero_error_code(sc: StochasticChannel) -> tuple[int, ...]:
    """A maximum zero-error code, i.e. a maximum independent set of the
    confusability graph.

    Ties are broken toward the lexicographically smallest sorted vertex
    list: it is the first maximum set a lexicographic branch and bound meets.
    """
    return _first_maximum_independent_set(adjacency_graph(sc))


def _first_maximum_independent_set(g: Graph) -> tuple[int, ...]:
    """The lexicographically smallest maximum independent set of ``g``."""
    if g.n > MAX_EXACT_VERTICES:
        raise ValidationError(
            f"exact solver is limited to {MAX_EXACT_VERTICES} symbols (got {g.n})"
        )
    return _maximum_sets(g, every=False)[0]


def maximum_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximum independent sets, sorted lexicographically.

    Exponentially many sets are possible, hence the tighter vertex guard.
    """
    if g.n > MAX_ENUMERATION_VERTICES:
        raise ValidationError(
            f"enumeration is limited to {MAX_ENUMERATION_VERTICES} vertices (got {g.n})"
        )
    return _maximum_sets(g, every=True)


def graph_to_channel(g: Graph) -> StochasticChannel:
    """A stochastic map on ``n`` inputs and ``n^2`` outputs whose
    confusability graph is exactly ``g``.

    Input ``v`` scatters uniformly over the output pairs ``(v, x)`` for all
    ``x`` plus ``(w, v)`` for every neighbor ``w``; two inputs then share an
    output symbol precisely when they are adjacent.
    """
    n = g.n
    m = np.zeros((n * n, n))
    for v in range(n):
        targets = [v * n + x for x in range(n)]
        targets += [w * n + v for w in g.neighbors(v)]
        for t in targets:
            m[t, v] = 1.0 / len(targets)
    return StochasticChannel(matrix=m)
