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
    m = sc.matrix
    edges = []
    for i in range(sc.n_in):
        for j in range(i + 1, sc.n_in):
            if np.any((m[:, i] > OVERLAP_EPS) & (m[:, j] > OVERLAP_EPS)):
                edges.append((i, j))
    return Graph.from_edges(sc.n_in, edges)


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


def _mis_size(avail: int, masks: list[int], current: int, best: list[int]) -> None:
    if current + bin(avail).count("1") <= best[0]:
        return
    if avail == 0:
        best[0] = max(best[0], current)
        return
    if current + _clique_cover_bound(avail, masks) <= best[0]:
        return
    # branch on a vertex of maximum available degree
    v, vdeg = -1, -1
    scan = avail
    while scan:
        u = (scan & -scan).bit_length() - 1
        scan &= scan - 1
        deg = bin(masks[u] & avail).count("1")
        if deg > vdeg:
            v, vdeg = u, deg
    _mis_size(avail & ~((1 << v) | masks[v]), masks, current + 1, best)
    _mis_size(avail & ~(1 << v), masks, current, best)


def _independence_number(avail: int, masks: list[int]) -> int:
    best = [0]
    _mis_size(avail, masks, 0, best)
    return best[0]


def max_zero_error_code(sc: StochasticChannel) -> tuple[int, ...]:
    """A maximum zero-error code, i.e. a maximum independent set of the
    confusability graph.

    Ties are broken toward the lexicographically smallest sorted vertex
    list: each vertex in order is kept exactly when a maximum-size
    completion through it still exists.
    """
    g = adjacency_graph(sc)
    if g.n > MAX_EXACT_VERTICES:
        raise ValidationError(
            f"exact solver is limited to {MAX_EXACT_VERTICES} symbols (got {g.n})"
        )
    masks = _adjacency_masks(g)
    full = (1 << g.n) - 1
    target = _independence_number(full, masks)
    chosen: list[int] = []
    avail = full
    for v in range(g.n):
        if not (avail >> v) & 1:
            continue
        rest = avail & ~((1 << v) | masks[v])
        if len(chosen) + 1 + _independence_number(rest, masks) == target:
            chosen.append(v)
            avail = rest
        else:
            avail &= ~(1 << v)
    return tuple(chosen)


def maximum_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximum independent sets, sorted lexicographically.

    Exponentially many sets are possible, hence the tighter vertex guard.
    """
    if g.n > MAX_ENUMERATION_VERTICES:
        raise ValidationError(
            f"enumeration is limited to {MAX_ENUMERATION_VERTICES} vertices (got {g.n})"
        )
    masks = _adjacency_masks(g)
    full = (1 << g.n) - 1
    target = _independence_number(full, masks)
    found: list[tuple[int, ...]] = []

    def recurse(avail: int, current: list[int]):
        if len(current) + bin(avail).count("1") < target:
            return
        if len(current) == target:
            found.append(tuple(current))
            return
        if avail == 0:
            return
        v = (avail & -avail).bit_length() - 1
        recurse(avail & ~((1 << v) | masks[v]), current + [v])
        recurse(avail & ~(1 << v), current)

    recurse(full, [])
    return sorted(found)


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
