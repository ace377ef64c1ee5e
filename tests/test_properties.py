"""Property-based tests (hypothesis) for the library's core invariants.

Strategy: generate arbitrary small simple graphs, then assert the paper's
invariants against the brute-force oracle:

* every algorithm (every registered reducing-peeling solver and the
  baselines) outputs an independent set that is maximal and never
  exceeds α;
* the Theorem-6.1 sandwich ``|I| ≤ α ≤ |I| + |R|`` always holds and the
  exactness certificate never lies;
* each exact reduction rule preserves α with its stated offset, and the
  flat one-pass dominance sweep removes exactly what the set-based
  oracle removes, leaf-heavy inputs included;
* kernelization composes: ``α(G) = alpha_offset + α(kernel)``;
* lifting a maximum kernel solution yields a maximum solution.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import is_maximal_independent_set
from repro.baselines import du, greedy, online_mis, semi_external
from repro.core import ALGORITHMS, kernelize, lp_reduction
from repro.core.dominance import one_pass_dominance
from repro.core.flat_dominance import flat_one_pass_dominance
from repro.core.reductions import find_dominated_vertex, reduce_dominance
from repro.exact import (
    brute_force_alpha,
    brute_force_mis,
    combined_upper_bound,
    maximum_independent_set,
)
from repro.graphs import Graph

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices: int = 14):
    """An arbitrary simple undirected graph with up to ``max_vertices``."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        if possible
        else st.just([])
    )
    return Graph.from_edges(n, edges)


@st.composite
def leaf_heavy_graphs(draw, max_pieces: int = 6):
    """Disjoint K₂s, stars and pendant paths, then a few cross edges.

    Vertex ids are relabelled at random, each edge is given in either
    direction, and the edge list is shuffled, so every tie-break of the
    sweep order (degree, then id) is exercised.
    """
    pieces = draw(
        st.lists(
            st.tuples(st.sampled_from(["k2", "star", "path"]), st.integers(1, 5)),
            max_size=max_pieces,
        )
    )
    edges = []
    n = 0
    for kind, size in pieces:
        if kind == "k2":
            edges.append((n, n + 1))
            n += 2
        elif kind == "star":
            edges.extend((n, n + leaf) for leaf in range(1, size + 1))
            n += size + 1
        else:
            edges.extend((n + i, n + i + 1) for i in range(size))
            n += size + 1
    if n >= 2:
        edges.extend(
            draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=n // 3,
                )
            )
        )
    label = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [
        (label[v], label[u]) if flip else (label[u], label[v])
        for (u, v), flip in zip(edges, flips)
    ]
    return Graph.from_edges(n, draw(st.permutations(edges)))


BASELINES = [greedy, du, semi_external]


@pytest.mark.parametrize("algorithm", ALGORITHMS.values())
class TestReducingPeelingInvariants:
    @SETTINGS
    @given(graph=graphs())
    def test_valid_maximal_and_bounded(self, algorithm, graph):
        result = algorithm(graph)
        assert is_maximal_independent_set(graph, result.independent_set) or graph.n == 0
        alpha = brute_force_alpha(graph)
        assert result.size <= alpha <= result.upper_bound

    @SETTINGS
    @given(graph=graphs())
    def test_certificate_never_lies(self, algorithm, graph):
        result = algorithm(graph)
        if result.is_exact:
            assert result.size == brute_force_alpha(graph)

    @SETTINGS
    @given(graph=graphs())
    def test_upper_bound_consistency(self, algorithm, graph):
        result = algorithm(graph)
        assert result.upper_bound == result.size + result.surviving_peels
        assert result.surviving_peels <= result.peeled


@pytest.mark.parametrize("algorithm", BASELINES)
class TestBaselineInvariants:
    @SETTINGS
    @given(graph=graphs())
    def test_valid_maximal_and_bounded(self, algorithm, graph):
        result = algorithm(graph)
        assert is_maximal_independent_set(graph, result.independent_set) or graph.n == 0
        assert result.size <= brute_force_alpha(graph)


class TestOnlineMIS:
    @SETTINGS
    @given(graph=graphs(max_vertices=12))
    def test_valid_and_bounded(self, graph):
        result = online_mis(graph, time_budget=0.01, max_iterations=2)
        assert is_maximal_independent_set(graph, result.independent_set) or graph.n == 0
        assert result.size <= brute_force_alpha(graph)


class TestReductions:
    @SETTINGS
    @given(graph=graphs())
    def test_lp_reduction_preserves_alpha(self, graph):
        result = lp_reduction(graph)
        sub, _ = graph.subgraph(result.remaining)
        assert len(result.included) + brute_force_alpha(sub) == brute_force_alpha(graph)

    @SETTINGS
    @given(graph=graphs())
    def test_dominance_preserves_alpha(self, graph):
        found = find_dominated_vertex(graph)
        if found is None:
            return
        u, v = found
        application = reduce_dominance(graph, u, v)
        assert brute_force_alpha(application.reduced) == brute_force_alpha(graph)

    @SETTINGS
    @given(graph=st.one_of(graphs(), leaf_heavy_graphs()))
    def test_one_pass_dominance_sweeps_agree(self, graph):
        assert flat_one_pass_dominance(graph) == one_pass_dominance(graph)

    @SETTINGS
    @given(graph=graphs())
    def test_combined_bound_is_valid(self, graph):
        assert combined_upper_bound(graph) >= brute_force_alpha(graph)


@pytest.mark.parametrize("method", ["degree_one", "linear_time", "near_linear"])
class TestKernelization:
    @SETTINGS
    @given(graph=graphs())
    def test_alpha_decomposition(self, method, graph):
        kr = kernelize(graph, method=method)
        assert kr.log.peel_count == 0
        assert kr.log.alpha_offset + brute_force_alpha(kr.kernel) == brute_force_alpha(
            graph
        )

    @SETTINGS
    @given(graph=graphs(max_vertices=12))
    def test_lift_of_maximum_is_maximum(self, method, graph):
        kr = kernelize(graph, method=method)
        lifted = kr.lift(brute_force_mis(kr.kernel))
        assert is_maximal_independent_set(graph, lifted) or graph.n == 0
        assert len(lifted) == brute_force_alpha(graph)


class TestExactSolver:
    @SETTINGS
    @given(graph=graphs(max_vertices=12))
    def test_matches_brute_force(self, graph):
        assert maximum_independent_set(graph).size == brute_force_alpha(graph)


class TestSemiExternal:
    @SETTINGS
    @given(graph=graphs(max_vertices=12))
    def test_semi_external_invariants(self, graph):
        from repro.external import semi_external_bdone

        result = semi_external_bdone(graph)
        assert is_maximal_independent_set(graph, result.independent_set) or graph.n == 0
        alpha = brute_force_alpha(graph)
        assert result.size <= alpha <= result.upper_bound
        if result.is_exact:
            assert result.size == alpha


class TestVertexCoverDuality:
    @SETTINGS
    @given(graph=graphs(max_vertices=12))
    def test_cover_sandwich(self, graph):
        from repro import minimum_vertex_cover
        from repro.analysis import is_vertex_cover

        result = minimum_vertex_cover(graph, algorithm="LinearTime")
        assert is_vertex_cover(graph, result.vertex_cover)
        tau = graph.n - brute_force_alpha(graph)
        assert result.lower_bound <= tau <= result.size
