"""Differential tests for the batched degree-two path rounds (ISSUE 7).

The contract is *stronger* than the general vectorized-backend one: the
batch driver (:func:`~repro.core.vec_paths.run_path_rounds` plus
:func:`~repro.core.vec_paths.vec_delete_vertex` batched peeling, entered
via ``drive_linear_time_vec(..., batch_rounds=True)``) must append the
**entry-for-entry identical** decision sequence of the scalar protocol
driver (``batch_rounds=False``), not merely an equally good one — the
batch walk discovers the same maximal paths in the same worklist order
the scalar ``apply_degree_two_path_reduction`` would, so any reordering
is a bug, not a legal batch artefact.
"""

import random

import pytest

from repro.core.vec_paths import PathPairCache, vec_delete_vertex
from repro.core.vectorized import (
    VecWorkspace,
    drive_bdone_vec,
    drive_linear_time_vec,
)
from repro.graphs.generators import (
    caterpillar_graph,
    cycle_graph,
    path_graph,
    random_tree,
)
from repro.graphs.static_graph import Graph

from .test_differential_backends import CORPUS


def _drive_entries(graph: Graph, batch_rounds: bool, stop_before_peel: bool):
    workspace = VecWorkspace(graph)
    drive_linear_time_vec(
        workspace, stop_before_peel=stop_before_peel, batch_rounds=batch_rounds
    )
    return workspace.log.entries, workspace.log.stats


def _chain_corpus():
    graphs = []
    for k in range(3, 40):
        graphs.append(path_graph(k))
        graphs.append(cycle_graph(k))
    graphs.append(caterpillar_graph(15, 3))
    graphs.append(random_tree(60, seed=3))
    return graphs


CHAIN_CORPUS = _chain_corpus()


def test_batch_rounds_entry_identical_on_corpus():
    for graph in CORPUS:
        batch, batch_stats = _drive_entries(graph, True, stop_before_peel=False)
        scalar, scalar_stats = _drive_entries(graph, False, stop_before_peel=False)
        assert batch == scalar, graph.name
        assert batch_stats == scalar_stats, graph.name


def test_batch_rounds_entry_identical_on_chains_and_cycles():
    # Pure paths and cycles exercise every Lemma 4.1 case (odd/even paths,
    # cycles, folds) with nothing else in the graph to mask an off-by-one.
    for graph in CHAIN_CORPUS:
        batch, _ = _drive_entries(graph, True, stop_before_peel=False)
        scalar, _ = _drive_entries(graph, False, stop_before_peel=False)
        assert batch == scalar, graph.name


def test_batch_rounds_entry_identical_in_kernel_mode():
    for graph in CORPUS[::5]:
        batch, _ = _drive_entries(graph, True, stop_before_peel=True)
        scalar, _ = _drive_entries(graph, False, stop_before_peel=True)
        assert batch == scalar, graph.name


def test_bdone_batch_driver_entry_identical():
    for graph in CORPUS[::3] + CHAIN_CORPUS[::4]:
        ws_batch = VecWorkspace(graph)
        drive_bdone_vec(ws_batch, batch_rounds=True)
        ws_scalar = VecWorkspace(graph)
        drive_bdone_vec(ws_scalar, batch_rounds=False)
        assert ws_batch.log.entries == ws_scalar.log.entries, graph.name


def test_vec_delete_vertex_matches_scalar_delete():
    # Peeling one vertex through the batched deleter must leave the
    # workspace in the same externally visible state as the scalar
    # protocol method: same log, degrees, liveness, and worklists-after.
    rng = random.Random(9)
    for graph in CORPUS[::6]:
        if graph.n == 0:
            continue
        picks = [rng.randrange(graph.n) for _ in range(min(4, graph.n))]
        for v in picks:
            a = VecWorkspace(graph)
            b = VecWorkspace(graph)
            if not a.alive[v]:
                continue
            vec_delete_vertex(a, v, "peel")
            b.delete_vertex(v, "peel")
            assert a.log.entries == b.log.entries, (graph.name, v)
            assert a.deg.tolist() == b.deg.tolist(), (graph.name, v)
            assert a.alive.tolist() == b.alive.tolist(), (graph.name, v)
            assert a.live_vertex_count == b.live_vertex_count
            assert a.live_edge_count() == b.live_edge_count()


def test_path_pair_cache_starts_unprimed():
    graph = path_graph(9)
    cache = PathPairCache(graph.n)
    # Before any gather nothing is cached and the bulk prime is pending.
    assert not cache.primed
    assert not cache.have.any()


def test_batch_and_scalar_agree_after_interleaved_peels():
    # Alternate a manual peel with a batch drive: the cache must stay
    # coherent with the mutated degrees (stale pairs are re-validated).
    for seed in (1, 5):
        graph = random_tree(50, seed=seed)
        a = VecWorkspace(graph)
        b = VecWorkspace(graph)
        order = [v for v in range(graph.n) if v % 17 == 0]
        for v in order:
            if a.alive[v]:
                vec_delete_vertex(a, v, "peel")
            if b.alive[v]:
                b.delete_vertex(v, "peel")
        drive_linear_time_vec(a, stop_before_peel=False, batch_rounds=True)
        drive_linear_time_vec(b, stop_before_peel=False, batch_rounds=False)
        assert a.log.entries == b.log.entries, graph.name


@pytest.mark.parametrize("batch_rounds", [True, False])
def test_drive_handles_empty_graph(batch_rounds):
    graph = Graph.from_edges(0, [], name="empty")
    workspace = VecWorkspace(graph)
    drive_linear_time_vec(
        workspace, stop_before_peel=False, batch_rounds=batch_rounds
    )
    assert workspace.log.entries == ()
