import itertools

import numpy as np
import pytest

from ipstruct import (
    Graph,
    StochasticChannel,
    ValidationError,
    adjacency_graph,
    graph_to_channel,
    max_zero_error_code,
    maximum_independent_sets,
    zoo,
)
from ipstruct.classical import _first_maximum_independent_set
from ipstruct.tolerances import OVERLAP_EPS

from oracles import pairwise_adjacency_graph


def brute_force_maximum_sets(g: Graph) -> list[tuple[int, ...]]:
    """Reference: every maximum independent set, sorted, by subset enumeration."""
    for size in range(g.n, -1, -1):
        found = [subset for subset in itertools.combinations(range(g.n), size)
                 if not any(pair in g.edges for pair in itertools.combinations(subset, 2))]
        if found:
            return found


def all_graphs(n):
    possible = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(possible)):
        edges = [possible[k] for k in range(len(possible)) if bits >> k & 1]
        yield Graph.from_edges(n, edges)


def random_graph(n, p, rng):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValidationError, match="negative vertex count"):
        Graph.from_edges(-1, [])
    g = Graph.from_edges(3, [(2, 0)])
    assert (0, 2) in g.edges
    assert g.neighbors(0) == {2}
    assert g.neighbors(1) == set()


def test_adjacency_graph_cyclic_four():
    g = adjacency_graph(zoo.fixture("cyclic_four"))
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_adjacency_graph_two_code():
    g = adjacency_graph(zoo.fixture("two_code_classical"))
    assert g.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})


def test_adjacency_ignores_sub_threshold_overlap():
    # both inputs reach output 0, input 1 only at a probability below the cut
    m = np.array([[1.0, 0.5 * OVERLAP_EPS], [0.0, 1.0 - 0.5 * OVERLAP_EPS]])
    g = adjacency_graph(StochasticChannel(matrix=m))
    assert g.edges == frozenset()


def test_adjacency_matches_pairwise_oracle_on_random_maps():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_in, n_out = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        # sparse columns, so that both edges and non-edges occur
        m = rng.random((n_out, n_in)) * (rng.random((n_out, n_in)) < 0.3)
        m[0, m.sum(axis=0) == 0] = 1.0
        sc = StochasticChannel(matrix=m / m.sum(axis=0))
        assert adjacency_graph(sc) == pairwise_adjacency_graph(sc)


@pytest.mark.parametrize("shared", [OVERLAP_EPS, np.nextafter(OVERLAP_EPS, 1.0)],
                         ids=["at_cut", "just_above"])
def test_adjacency_overlap_cut_is_strict(shared):
    # inputs 0 and 1 share output 0, each with probability ``shared``
    m = np.array([[shared, shared], [1.0 - shared, 0.0], [0.0, 1.0 - shared]])
    sc = StochasticChannel(matrix=m)
    want = frozenset({(0, 1)}) if shared > OVERLAP_EPS else frozenset()
    assert adjacency_graph(sc).edges == want
    assert adjacency_graph(sc) == pairwise_adjacency_graph(sc)


def test_max_code_known_cases():
    assert max_zero_error_code(zoo.fixture("cyclic_four")) == (0, 2)
    assert len(max_zero_error_code(zoo.fixture("two_code_classical"))) == 2
    ident = StochasticChannel(matrix=np.eye(5))
    assert max_zero_error_code(ident) == (0, 1, 2, 3, 4)
    # complete confusion: any single symbol
    uniform = StochasticChannel(matrix=np.full((3, 3), 1.0 / 3.0))
    assert max_zero_error_code(uniform) == (0,)


def test_max_code_is_lexicographically_least():
    # C5 has maximum independent sets {0,2},{0,3},{1,3},{1,4},{2,4}
    m = np.zeros((5, 5))
    for k in range(5):
        m[k, k] = 0.5
        m[(k + 1) % 5, k] = 0.5
    sc = StochasticChannel(matrix=m)
    assert max_zero_error_code(sc) == (0, 2)


def _assert_matches_brute_force(g: Graph):
    want = brute_force_maximum_sets(g)
    assert maximum_independent_sets(g) == want
    assert max_zero_error_code(graph_to_channel(g)) == want[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exact_solver_exhaustive_small(n):
    for g in all_graphs(n):
        _assert_matches_brute_force(g)


def test_exact_solver_random_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        _assert_matches_brute_force(random_graph(n, float(rng.uniform(0.1, 0.7)), rng))


def test_empty_graph_has_the_empty_code():
    g = Graph.from_edges(0, [])
    assert _first_maximum_independent_set(g) == ()
    assert maximum_independent_sets(g) == [()]


def test_maximum_independent_sets_two_code():
    g = adjacency_graph(zoo.fixture("two_code_classical"))
    assert maximum_independent_sets(g) == [(0, 1), (2, 3)]


def test_vertex_guards():
    big = Graph.from_edges(31, [])
    with pytest.raises(ValidationError):
        max_zero_error_code(graph_to_channel(big))
    medium = Graph.from_edges(21, [])
    with pytest.raises(ValidationError):
        maximum_independent_sets(medium)


def test_graph_to_channel_roundtrip_exhaustive():
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            sc = graph_to_channel(g)
            back = adjacency_graph(sc)
            assert back.n == g.n and back.edges == g.edges


def test_graph_to_channel_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_graph(n, float(rng.uniform(0.0, 0.8)), rng)
        sc = graph_to_channel(g)
        assert adjacency_graph(sc).edges == g.edges
        assert pairwise_adjacency_graph(sc) == adjacency_graph(sc)


def test_graph_to_channel_is_column_stochastic():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    sc = graph_to_channel(g)
    np.testing.assert_allclose(sc.matrix.sum(axis=0), 1.0, atol=1e-12)
