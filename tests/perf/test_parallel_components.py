"""Tests for the parallel per-component driver.

The contract is exact equivalence with the serial driver: α is additive
over components, so shipping components to worker processes must change
nothing but the algorithm label and the wall time.
"""

import pytest

from repro.core.bdone import bdone
from repro.core.components import solve_by_components
from repro.core.linear_time import linear_time
from repro.core.near_linear import near_linear
from repro.graphs import Graph
from repro.graphs.generators import disjoint_union, gnm_random_graph, power_law_graph
from repro.perf import ALGORITHM_BY_NAME, solve_by_components_parallel


def _assert_equivalent(parallel, serial):
    assert parallel.independent_set == serial.independent_set
    assert parallel.upper_bound == serial.upper_bound
    assert parallel.peeled == serial.peeled
    assert parallel.surviving_peels == serial.surviving_peels
    assert parallel.is_exact == serial.is_exact
    assert parallel.stats == serial.stats
    assert parallel.algorithm.endswith("/components-parallel")


def test_matches_serial_with_components_straddling_threshold():
    # Two components above the threshold, two below: exercises both the
    # pool path and the inline path in one call.
    union = disjoint_union(
        [
            gnm_random_graph(300, 900, seed=0),
            power_law_graph(250, beta=2.3, average_degree=5.0, seed=1),
            gnm_random_graph(40, 80, seed=2),
            power_law_graph(30, beta=2.5, average_degree=3.0, seed=3),
        ]
    )
    for algorithm in (bdone, linear_time):
        serial = solve_by_components(union, algorithm)
        parallel = solve_by_components_parallel(
            union, algorithm, processes=2, min_component_size=100
        )
        _assert_equivalent(parallel, serial)


def test_single_component_graph():
    g = gnm_random_graph(200, 600, seed=5)
    serial = solve_by_components(g, linear_time)
    parallel = solve_by_components_parallel(
        g, linear_time, processes=2, min_component_size=50
    )
    _assert_equivalent(parallel, serial)


def test_empty_graph():
    g = Graph.empty(0)
    result = solve_by_components_parallel(g, linear_time, processes=2)
    assert result.independent_set == frozenset()
    assert result.upper_bound == 0
    assert result.is_exact


def test_isolated_vertices_only():
    g = Graph.empty(5)
    serial = solve_by_components(g, bdone)
    parallel = solve_by_components_parallel(
        g, bdone, processes=2, min_component_size=1
    )
    _assert_equivalent(parallel, serial)


def test_processes_one_avoids_pool():
    union = disjoint_union(
        [gnm_random_graph(150, 450, seed=6), gnm_random_graph(150, 450, seed=7)]
    )
    serial = solve_by_components(union, linear_time)
    parallel = solve_by_components_parallel(
        union, linear_time, processes=1, min_component_size=10
    )
    _assert_equivalent(parallel, serial)


def test_threshold_above_all_components_solves_inline():
    union = disjoint_union(
        [gnm_random_graph(60, 120, seed=8), gnm_random_graph(70, 140, seed=9)]
    )
    serial = solve_by_components(union, linear_time)
    parallel = solve_by_components_parallel(
        union, linear_time, processes=4, min_component_size=10_000
    )
    _assert_equivalent(parallel, serial)


def test_registry_names_cover_every_dispatchable_algorithm():
    from repro.core.auto import bdone_auto, linear_time_auto
    from repro.core.vectorized import bdone_vec, linear_time_vec

    assert ALGORITHM_BY_NAME == {
        "bdone": bdone,
        "linear_time": linear_time,
        "near_linear": near_linear,
        "bdone_vec": bdone_vec,
        "linear_time_vec": linear_time_vec,
        "bdone_auto": bdone_auto,
        "linear_time_auto": linear_time_auto,
    }


def test_dispatch_by_name_matches_dispatch_by_callable():
    # The registry name is what ships to the workers; both spellings must
    # produce the identical merged result.
    union = disjoint_union(
        [
            gnm_random_graph(250, 750, seed=10),
            power_law_graph(220, beta=2.3, average_degree=5.0, seed=11),
            gnm_random_graph(35, 70, seed=12),
        ]
    )
    for name, algorithm in sorted(ALGORITHM_BY_NAME.items()):
        by_name = solve_by_components_parallel(
            union, name, processes=2, min_component_size=100
        )
        by_callable = solve_by_components_parallel(
            union, algorithm, processes=2, min_component_size=100
        )
        _assert_equivalent(by_name, by_callable)
        serial = solve_by_components(union, algorithm)
        _assert_equivalent(by_name, serial)


def test_near_linear_by_name_inline_path():
    g = power_law_graph(300, beta=2.2, average_degree=5.0, seed=13)
    serial = solve_by_components(g, near_linear)
    parallel = solve_by_components_parallel(
        g, "near_linear", processes=1, min_component_size=10
    )
    _assert_equivalent(parallel, serial)


def test_unknown_algorithm_name_raises():
    g = gnm_random_graph(20, 40, seed=14)
    with pytest.raises(ValueError, match="unknown algorithm name"):
        solve_by_components_parallel(g, "no_such_algorithm")


class TestWorkerPool:
    """The reusable pool behind the shard workers and repeated dispatches."""

    def test_payload_round_trip(self):
        from repro.perf import decode_graph_payload, encode_graph_payload

        graph = gnm_random_graph(60, 150, seed=4)
        offsets, targets, name = encode_graph_payload(graph)
        rebuilt = decode_graph_payload(offsets, targets, name)
        assert rebuilt.n == graph.n and rebuilt.m == graph.m
        assert rebuilt.name == graph.name
        assert [sorted(rebuilt.neighbors(v)) for v in range(rebuilt.n)] == [
            sorted(graph.neighbors(v)) for v in range(graph.n)
        ]

    def test_reuse_matches_owned_pool(self):
        from repro.perf import WorkerPool

        union = disjoint_union(
            [gnm_random_graph(250, 700, seed=5), gnm_random_graph(240, 650, seed=6)]
        )
        serial = solve_by_components(union, linear_time)
        with WorkerPool(processes=2) as pool:
            for _ in range(2):  # second call reuses the live pool
                parallel = solve_by_components_parallel(
                    union,
                    "linear_time",
                    processes=2,
                    min_component_size=50,
                    pool=pool,
                )
                _assert_equivalent(parallel, serial)

    def test_close_is_restartable_and_idempotent(self):
        from repro.perf import WorkerPool

        graph = gnm_random_graph(200, 500, seed=7)
        serial = solve_by_components(graph, linear_time)
        pool = WorkerPool(processes=2)
        try:
            first = solve_by_components_parallel(
                graph, "linear_time", processes=2, min_component_size=10, pool=pool
            )
            pool.close()
            pool.close()
            second = solve_by_components_parallel(
                graph, "linear_time", processes=2, min_component_size=10, pool=pool
            )
        finally:
            pool.close()
        _assert_equivalent(first, serial)
        _assert_equivalent(second, serial)
