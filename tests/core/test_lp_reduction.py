"""Tests for the Nemhauser–Trotter LP reduction."""

import hashlib
import random

import pytest
from scipy.optimize import linprog

from repro.core.flat_dominance import flat_one_pass_dominance
from repro.core.lp_reduction import lp_reduction, lp_upper_bound
from repro.exact import brute_force_alpha
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    power_law_graph,
    star_graph,
)

from .test_differential_backends import CORPUS


class TestLPReduction:
    def test_star_center_excluded(self):
        result = lp_reduction(star_graph(4))
        assert 0 in result.excluded
        assert set(result.included) == {1, 2, 3, 4}

    def test_odd_cycle_all_half(self):
        result = lp_reduction(cycle_graph(5))
        assert len(result.remaining) == 5

    def test_even_cycle(self):
        # Even cycles have an integral LP optimum but also the all-half
        # one; either classification must preserve α.
        result = lp_reduction(cycle_graph(6))
        sub, _ = cycle_graph(6).subgraph(result.remaining)
        assert len(result.included) + brute_force_alpha(sub) == 3

    def test_complete_bipartite_unbalanced(self):
        result = lp_reduction(complete_bipartite_graph(2, 5))
        assert set(result.included) == set(range(2, 7))
        assert set(result.excluded) == {0, 1}

    def test_clique_all_half(self):
        result = lp_reduction(complete_graph(5))
        assert len(result.remaining) == 5
        assert result.lp_bound == pytest.approx(2.5)

    @pytest.mark.parametrize("seed", range(40))
    def test_persistency_randomized(self, seed):
        g = gnm_random_graph(13, 26, seed=seed)
        result = lp_reduction(g)
        sub, _ = g.subgraph(result.remaining)
        assert len(result.included) + brute_force_alpha(sub) == brute_force_alpha(g)

    @pytest.mark.parametrize("seed", range(20))
    def test_bound_is_valid(self, seed):
        g = gnm_random_graph(12, 20, seed=seed + 100)
        assert lp_upper_bound(g) >= brute_force_alpha(g)

    def test_included_never_adjacent_to_included(self):
        g = gnm_random_graph(20, 50, seed=77)
        result = lp_reduction(g)
        included = set(result.included)
        for v in included:
            assert not any(w in included for w in g.neighbors(v))

    def test_path_reduces_fully_or_consistently(self):
        g = path_graph(6)
        result = lp_reduction(g)
        sub, _ = g.subgraph(result.remaining)
        assert len(result.included) + brute_force_alpha(sub) == 3


def _small_graph(seed):
    """A seeded G(n, m) with n ≤ 30 and average degree 1–4."""
    n = 8 + seed % 23
    return gnm_random_graph(n, n * (1 + seed % 4) // 2, seed=seed)


def _classification(graph):
    result = lp_reduction(graph)
    return result.included, result.excluded, result.remaining


@pytest.mark.parametrize("seed", range(120))
def test_classification_is_permutation_invariant(seed):
    # A relabelled graph has a different CSR, so the matching found differs,
    # but the König set (and so the classification) must not.
    graph = _small_graph(seed)
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    relabelled = Graph.from_edges(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])
    mapped_back = tuple(
        tuple(sorted(perm.index(v) for v in part)) for part in _classification(relabelled)
    )
    assert mapped_back == _classification(graph)


@pytest.mark.parametrize("seed", range(120))
def test_lp_bound_matches_linprog_optimum(seed):
    # n − lp_bound = |V₁| + |V_½|/2 is the LP vertex-cover optimum, checked
    # against an LP solver that knows nothing about matchings.
    graph = _small_graph(seed)
    edges = list(graph.edges())
    optimum = 0.0
    if edges:
        rows = [[-1.0 if v in edge else 0.0 for v in range(graph.n)] for edge in edges]
        solved = linprog(
            [1.0] * graph.n, A_ub=rows, b_ub=[-1.0] * len(edges),
            bounds=(0.0, 1.0), method="highs",
        )
        assert solved.status == 0
        optimum = solved.fun
    assert abs(graph.n - lp_upper_bound(graph) - optimum) <= 1e-7


def _post_dominance(graph):
    """NearLinear's LP input: ``graph`` minus its one-pass-dominated vertices."""
    dominated = set(flat_one_pass_dominance(graph))
    return graph.subgraph(v for v in range(graph.n) if v not in dominated)[0]


#: SHA-256 over ``repr((included, excluded, remaining))`` of each graph in
#: turn, recorded from the Hopcroft–Karp implementation this one replaced;
#: any change to the classification shows up here, and so does a numpy
#: integer leaking into the tuples (its repr differs from a Python int's).
_PINNED = {
    "corpus": (lambda: CORPUS,
               "5669ca95e5856241e73837a2d82c7dd83d3b79bc8ce1a40d997a3c09603423f1"),
    "corpus-post-dominance": (lambda: [_post_dominance(g) for g in CORPUS],
                              "88e31a9231dba2e4d9b92389ee3fef030f82b82564f1bdd7d93058be09d4a763"),
}
for _seed, _digest in enumerate([
    "4569022264a5a4c76f98cd3c0962f265882a8c58a4e2b1a4b3c78196682b7d55",
    "0d116dcf80a1e96c6d6973ef05ed2f1cab24ffd3c61e53bf2a37aed102048f9e",
    "d1f71b4d52266a26e0c9e0b96157c97724ee6457a33976bc72b6bb20015a67ec",
    "accccd532b01cfc3e36c2ad8e46e7a94ac05fc86d5a30a0ec6ec2792353a8643",
    "3f4ac169af4ff494aad6628054b33934ed9b9079003a798b277467523bad28ae",
]):
    _n = 200 + 100 * _seed
    _PINNED[f"gnm-{_seed}"] = (
        lambda n=_n, seed=_seed: [gnm_random_graph(n, n, seed=seed)], _digest
    )
for _seed, _digest in enumerate([
    "81b53cef1250325bc11be59381d3317ee3c3efada847c283a2e80204ec103590",
    "a12d31194fe4267cf4deb8b2b048cdc0131d9457a75428c7cbba1ce5b3efe968",
    "bab9bc9bc394d411d82bc092752817d2117dfeb70dab0c55bb479b0dc3a136c1",
    "b40082b9c8de256447408e34de3a9cb8b830932387a30d4eef721b5748c07cb0",
    "7c12ce96cf895470e0db3bf0e59f61740dc5d47e6467f4169ba5694f29a0e0ce",
]):
    _PINNED[f"powerlaw-{_seed}"] = (
        lambda seed=_seed: [power_law_graph(400 + 200 * seed, beta=2.1 + 0.1 * seed,
                                            average_degree=4.0, seed=seed)],
        _digest,
    )


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_classification_is_pinned(case):
    graphs, expected = _PINNED[case]
    digest = hashlib.sha256()
    for graph in graphs():
        digest.update(repr(_classification(graph)).encode())
    assert digest.hexdigest() == expected
