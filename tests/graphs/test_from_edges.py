"""``Graph.from_edges`` against the ``GraphBuilder`` reference.

``from_edges`` builds the CSR arrays with one vectorised sort instead of
feeding every edge through the set-based builder.  Both must produce the
same graph — the same offset and target tuples, holding plain ints — and
raise the same error on the same bad input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VertexError
from repro.graphs import Graph, GraphBuilder
from repro.graphs.generators import gnm_random_graph, power_law_graph


def _reference(n, edges):
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def _assert_same(graph, reference):
    assert graph._offsets == reference._offsets
    assert graph._targets == reference._targets
    assert all(type(x) is int for x in graph._offsets + graph._targets)


@st.composite
def edge_lists(draw):
    """``(n, edges)`` with self-loops, repeats and both orientations of an
    edge; ``n`` may exceed every id (isolated vertices) or be zero."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    if edges:
        again = draw(st.lists(st.sampled_from(edges), max_size=30))
        edges += again + [(v, u) for u, v in again]
    return n, draw(st.permutations(edges))


@st.composite
def bad_edge_lists(draw):
    """``(n, edges)`` where at least one id lies outside ``[0, n)``."""
    n = draw(st.integers(0, 20))
    vertex = st.integers(-3, n + 3)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=40))
    at = draw(st.integers(0, len(edges) - 1))
    bad = draw(st.sampled_from([-1, n, n + 7, -(2 ** 40), 2 ** 40]))
    u, v = edges[at]
    edges[at] = draw(st.sampled_from([(bad, v), (u, bad)]))
    return n, edges


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_matches_builder(self, case):
        n, edges = case
        _assert_same(Graph.from_edges(n, edges), _reference(n, edges))

    @settings(max_examples=100, deadline=None)
    @given(edge_lists())
    def test_generator_and_tuple_input(self, case):
        n, edges = case
        reference = _reference(n, edges)
        _assert_same(Graph.from_edges(n, (e for e in edges)), reference)
        _assert_same(Graph.from_edges(n, tuple(edges)), reference)
        _assert_same(Graph.from_edges(n, [list(e) for e in edges]), reference)

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.sampled_from([np.int64, np.int32, np.uint16]))
    def test_numpy_int_ids(self, case, dtype):
        n, edges = case
        reference = _reference(n, edges)
        typed = [(dtype(u), dtype(v)) for u, v in edges]
        _assert_same(Graph.from_edges(n, typed), reference)
        rows = np.array(edges, dtype=dtype).reshape(-1, 2)
        _assert_same(Graph.from_edges(n, rows), reference)

    @settings(max_examples=200, deadline=None)
    @given(bad_edge_lists())
    def test_same_vertex_error_as_builder(self, case):
        n, edges = case
        with pytest.raises(VertexError) as expected:
            _reference(n, edges)
        with pytest.raises(VertexError) as raised:
            Graph.from_edges(n, edges)
        assert (raised.value.vertex, raised.value.n) == (
            expected.value.vertex, expected.value.n)

    @pytest.mark.parametrize("seed", range(4))
    def test_generator_graphs_round_trip(self, seed):
        for graph in (gnm_random_graph(300, 900, seed=seed),
                      power_law_graph(500, beta=2.2, average_degree=5.0, seed=seed)):
            edges = list(graph.edges())
            rebuilt = Graph.from_edges(graph.n, edges + [(v, u) for u, v in edges])
            _assert_same(rebuilt, graph)


class TestEdgeCases:
    def test_no_vertices(self):
        graph = Graph.from_edges(0, [])
        assert (graph.n, graph.m) == (0, 0)
        assert graph == Graph.empty(0)

    def test_no_edges_keeps_isolated_vertices(self):
        graph = Graph.from_edges(5, iter(()))
        assert (graph.n, graph.m) == (5, 0)
        assert graph._offsets == (0,) * 6

    def test_only_self_loops(self):
        graph = Graph.from_edges(3, [(0, 0), (2, 2), (2, 2)])
        assert (graph.n, graph.m) == (3, 0)

    def test_trailing_isolated_vertices(self):
        graph = Graph.from_edges(6, [(0, 1), (1, 2)])
        assert graph.degrees() == [1, 2, 1, 0, 0, 0]


class TestErrors:
    def test_negative_vertex_count(self):
        with pytest.raises(VertexError):
            Graph.from_edges(-1, [])

    @pytest.mark.parametrize("n, edges, vertex", [
        (3, [(0, 1), (-1, 2)], -1),
        (3, [(0, 1), (1, 3)], 3),
        (3, [(0, 5), (-2, 1)], 5),
        (3, [(4, -1)], 4),
        (3, [(0, 1), (1, 2), (2, 2 ** 70)], 2 ** 70),
        (0, [(0, 0)], 0),
    ])
    def test_first_bad_vertex_in_edge_order(self, n, edges, vertex):
        with pytest.raises(VertexError) as expected:
            _reference(n, edges)
        assert expected.value.vertex == vertex
        with pytest.raises(VertexError) as raised:
            Graph.from_edges(n, edges)
        assert raised.value.vertex == vertex
        assert raised.value.n == n

    @pytest.mark.parametrize("edges", [
        [(0, 1, 2), (1,)],  # 2m ids in total: a flat read would realign them
        [(0, 1), (2,)],
        [(0, 1), (0, 1, 2)],
        [(0, 1), 5],
        [()],
    ])
    def test_non_pair_raises_value_error(self, edges):
        with pytest.raises(ValueError, match="not a \\(u, v\\) pair"):
            Graph.from_edges(3, edges)
