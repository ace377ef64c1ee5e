"""End-to-end tests for BDOne, BDTwo, LinearTime and NearLinear.

Covers: the paper's running examples with their narrated outcomes, the
structured families with known α, the exactness certificate, and the
framework dispatch.
"""

import pytest

from repro.analysis import is_maximal_independent_set
from repro.core import (
    ALGORITHMS,
    bdone,
    bdtwo,
    compute_independent_set,
    linear_time,
    near_linear,
)
from repro.errors import ReproError
from repro.exact import brute_force_alpha
from repro.graphs import (
    Graph,
    bdtwo_lower_bound_family,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    isolated_clique_gadget,
    mutual_dominance_gadget,
    paper_figure1,
    paper_figure1_modified,
    paper_figure2,
    paper_figure5,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
)

ALL = [bdone, bdtwo, linear_time, near_linear]


@pytest.mark.parametrize("algorithm", ALL)
class TestInvariantsEverywhere:
    """Every algorithm returns a valid, maximal set with a sound bound."""

    @pytest.mark.parametrize(
        "graph_factory",
        [
            paper_figure1,
            paper_figure2,
            paper_figure5,
            paper_figure1_modified,
            petersen_graph,
            mutual_dominance_gadget,
            lambda: cycle_graph(9),
            lambda: path_graph(8),
            lambda: complete_graph(6),
            lambda: star_graph(5),
            lambda: grid_graph(4, 4),
            lambda: hypercube_graph(4),
            lambda: complete_bipartite_graph(3, 5),
            lambda: random_tree(40, seed=3),
            lambda: isolated_clique_gadget(5),
            lambda: bdtwo_lower_bound_family(3),
            lambda: Graph.empty(4),
            lambda: Graph.empty(0),
        ],
    )
    def test_valid_and_bounded(self, algorithm, graph_factory):
        graph = graph_factory()
        result = algorithm(graph)
        assert is_maximal_independent_set(graph, result.independent_set) or graph.n == 0
        if graph.n <= 40:
            alpha = brute_force_alpha(graph)
            assert result.size <= alpha <= result.upper_bound
            if result.is_exact:
                assert result.size == alpha


class TestPaperNarratives:
    def test_figure1_outcomes(self):
        g = paper_figure1()
        # "BDOne computes the independent set of size 4" (tie-breaking may
        # push it to 5, never above α).
        assert bdone(g).size in (4, 5)
        # "BDTwo obtains a maximum independent set of size 5."
        assert bdtwo(g).size == 5
        # "LinearTime also obtains {v1, v4, v6, v8, v10}" — size 5.
        assert linear_time(g).size == 5
        assert near_linear(g).size == 5

    def test_figure2_outcomes(self):
        g = paper_figure2()
        # BDOne's narrative reaches the maximum 3 here.
        assert bdone(g).size == 3
        # BDTwo certifies: "we can report {v1, v3, v4} as a maximum
        # independent set since the inexact reduction rule is not applied."
        result = bdtwo(g)
        assert result.size == 3
        assert result.is_exact

    def test_figure5_linear_time(self):
        result = linear_time(paper_figure5())
        assert result.size == 4

    def test_modified_figure1_near_linear_exact(self):
        # Min degree 3: LinearTime alone must peel, but the dominance
        # reduction (v5 dominates v9) unlocks the graph for NearLinear.
        g = paper_figure1_modified()
        lt = linear_time(g)
        nl = near_linear(g)
        assert lt.peeled > 0
        assert nl.is_exact
        assert nl.size == brute_force_alpha(g)

    def test_figure1_rule_trace(self):
        # LinearTime on Figure 1 fires the degree-one reduction (v10/v9),
        # at least one path-rule case, and never peels.
        result = linear_time(paper_figure1())
        assert result.peeled == 0
        assert result.stats.get("degree-one", 0) >= 1
        assert any(key.startswith("path:") for key in result.stats)

    def test_figure1_bdtwo_folds_once(self):
        # BDTwo's narrative contracts {v6, v7, v8} (one folding) and then
        # finishes with isolation on {v2, v3}; tie-breaking may swap the
        # order, but at least one degree-two rule must fire and no peel.
        result = bdtwo(paper_figure1())
        assert result.peeled == 0
        fired = result.stats.get("degree-two-folding", 0) + result.stats.get(
            "degree-two-isolation", 0
        )
        assert fired >= 1

    def test_modified_figure1_dominance_fires(self):
        result = near_linear(paper_figure1_modified(), preprocess=False)
        assert result.stats.get("dominance", 0) >= 1
        assert result.peeled == 0

    def test_petersen_forces_peeling(self):
        # Vertex-transitive, 3-regular, triangle-free: no rule applies.
        for algorithm in ALL:
            result = algorithm(petersen_graph())
            assert result.peeled >= 1
            assert result.size == 4  # still finds an optimum here


class TestStructuredFamilies:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 20])
    def test_cycles(self, n):
        for algorithm in ALL:
            result = algorithm(cycle_graph(n))
            assert result.size == n // 2
            if algorithm is not bdone:
                # BDOne must peel to break a cycle, so it cannot certify;
                # the cycle/isolation/folding rules let the others do so.
                assert result.is_exact

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_paths(self, n):
        for algorithm in ALL:
            result = algorithm(path_graph(n))
            assert result.size == (n + 1) // 2
            assert result.is_exact

    def test_trees_solved_exactly(self):
        for seed in range(5):
            g = random_tree(60, seed=seed)
            for algorithm in ALL:
                result = algorithm(g)
                assert result.is_exact

    def test_complete_graph(self):
        for algorithm in ALL:
            assert algorithm(complete_graph(7)).size == 1

    def test_complete_bipartite(self):
        # K_{3,5}: α = 5; degree-one/two rules can't start, dominance can.
        result = near_linear(complete_bipartite_graph(3, 5))
        assert result.size == 5

    def test_isolated_clique_gadget_exact_for_near_linear(self):
        result = near_linear(isolated_clique_gadget(6, pendants_per_vertex=2))
        assert result.is_exact

    def test_bdtwo_lower_bound_family_all_exact(self):
        g = bdtwo_lower_bound_family(4)
        alpha = None
        for algorithm in ALL:
            result = algorithm(g)
            if alpha is None:
                alpha = result.size
            # The family is built from folding cascades; all four
            # algorithms land on the same (optimal) size.
            assert result.size == alpha
        folded = bdtwo(g)
        assert folded.stats.get("degree-two-folding", 0) > 0


class TestFrameworkDispatch:
    def test_all_names_registered(self):
        assert set(ALGORITHMS) == {
            "BDOne",
            "BDTwo",
            "LinearTime",
            "NearLinear",
            "BDOne-vec",
            "LinearTime-vec",
            "BDOne-auto",
            "LinearTime-auto",
        }

    def test_dispatch_case_insensitive(self):
        g = cycle_graph(5)
        result = compute_independent_set(g, "lineartime")
        assert result.algorithm == "LinearTime"

    def test_dispatch_unknown_raises(self):
        with pytest.raises(ReproError):
            compute_independent_set(cycle_graph(5), "Magic")

    def test_stats_are_populated(self):
        result = linear_time(paper_figure5())
        assert sum(result.stats.values()) > 0

    def test_elapsed_recorded(self):
        result = near_linear(cycle_graph(50))
        assert result.elapsed >= 0.0


class TestResultType:
    def test_gap_and_accuracy(self):
        result = bdone(cycle_graph(10))
        assert result.gap_to(5) == 5 - result.size
        assert result.accuracy_to(result.size) == 1.0
        assert result.accuracy_to(0) == 1.0

    def test_repr(self):
        result = bdone(cycle_graph(10))
        assert "BDOne" in repr(result)
