"""Tests for the ``auto`` backend dispatcher and its fixed thresholds."""

import json

import pytest

from repro.bench.backends import BACKENDS, resolve_backend
from repro.core import auto
from repro.core.auto import (
    CROSSOVER_N,
    MIN_LOW_FRAC,
    bdone_auto,
    choose_backend_name,
    linear_time_auto,
)
from repro.core.near_linear import near_linear
from repro.graphs.generators import (
    gnm_random_graph,
    power_law_graph,
    web_like_graph,
)


# ----------------------------------------------------------------------
# The heuristic
# ----------------------------------------------------------------------
def test_choose_backend_respects_size_crossover():
    assert (CROSSOVER_N, MIN_LOW_FRAC) == (3_500, 0.25)
    small = power_law_graph(300, beta=2.3, average_degree=5.0, seed=1)
    large = power_law_graph(4_000, beta=2.2, average_degree=6.0, seed=3)
    assert choose_backend_name(small) == "flat"
    assert choose_backend_name(large) == "vectorized"


def test_choose_backend_per_family_crossovers_split_web3k():
    # n=3000 web-like graphs sit just below the crossover: LinearTime and
    # BDOne dispatch flat there, and NearLinear, which has one backend,
    # is the same solver under every backend name.
    web = web_like_graph(3_000, attach=3, seed=5)
    assert choose_backend_name(web) == "flat"
    assert linear_time_auto(web).stats.get(auto.STAT_AUTO_FLAT) == 1
    assert bdone_auto(web).stats.get(auto.STAT_AUTO_FLAT) == 1
    assert resolve_backend("auto")["near_linear"] is near_linear


def test_choose_backend_rejects_low_degree_poor_graphs():
    # G(n, m) graphs have almost no degree-<=2 mass: the vec backend pays
    # its round setup for nothing there, so auto must stay flat at any n.
    gnm = gnm_random_graph(3_000, 9_000, seed=4)
    assert choose_backend_name(gnm) == "flat"
    dense = gnm_random_graph(4_000, 16_000, seed=4)
    assert choose_backend_name(dense) == "flat"


def test_calibration_bdone_falls_back_to_linear_time():
    # BDOne shares LinearTime's workspace and therefore its thresholds:
    # both dispatchers pick the same side on either side of the crossover.
    small = power_law_graph(300, beta=2.3, average_degree=5.0, seed=1)
    large = power_law_graph(4_000, beta=2.2, average_degree=6.0, seed=3)
    for graph, stat in ((small, auto.STAT_AUTO_FLAT), (large, auto.STAT_AUTO_VEC)):
        assert bdone_auto(graph).stats.get(stat) == 1
        assert linear_time_auto(graph).stats.get(stat) == 1


def test_corrupt_calibration_file_falls_back_to_defaults(tmp_path, monkeypatch):
    # Dispatch reads no per-machine file: neither a corrupt nor a stale
    # calibration at the old cache location moves the thresholds.
    cache = tmp_path / "repro"
    cache.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("HOME", str(tmp_path))
    small = power_law_graph(500, beta=2.3, average_degree=5.0, seed=1)
    for text in ("{not json", json.dumps({"crossover_n": {"linear_time": 10},
                                         "min_low_frac": 0.0})):
        (cache / "calibration.json").write_text(text)
        assert choose_backend_name(small) == "flat"
        assert linear_time_auto(small).stats.get(auto.STAT_AUTO_FLAT) == 1


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def test_auto_solvers_rename_and_record_pick():
    small = power_law_graph(200, beta=2.3, average_degree=4.0, seed=3)
    for solver, name in (
        (bdone_auto, "BDOne-auto"),
        (linear_time_auto, "LinearTime-auto"),
    ):
        result = solver(small)
        assert result.algorithm == name
        assert result.stats.get(auto.STAT_AUTO_FLAT) == 1
        assert auto.STAT_AUTO_VEC not in result.stats


def test_auto_matches_fixed_backend_solution():
    # Below the crossover auto must be *exactly* the flat solver's result
    # (same decisions, same set) — dispatch adds routing, not behaviour.
    from repro.core.bdone import bdone
    from repro.core.linear_time import linear_time

    graph = web_like_graph(400, attach=2, seed=5)
    assert (
        linear_time_auto(graph).independent_set
        == linear_time(graph).independent_set
    )
    assert bdone_auto(graph).independent_set == bdone(graph).independent_set


def test_resolve_backend_accepts_auto_and_rejects_unknown():
    family = resolve_backend("auto")
    assert set(family) == {"bdone", "linear_time", "near_linear"}
    assert family["linear_time"] is linear_time_auto
    # NearLinear has one production backend, whatever the family.
    for name in ("flat", "vectorized", "auto"):
        assert BACKENDS[name]["near_linear"] is near_linear
    with pytest.raises(ValueError) as excinfo:
        resolve_backend("turbo")
    message = str(excinfo.value)
    for name in sorted(BACKENDS):
        assert name in message


def test_auto_registered_everywhere():
    from repro.core import ALGORITHMS, compute_independent_set
    from repro.perf.parallel import ALGORITHM_BY_NAME

    assert {"BDOne-auto", "LinearTime-auto"} <= set(ALGORITHMS)
    assert {"bdone_auto", "linear_time_auto"} <= set(ALGORITHM_BY_NAME)
    graph = power_law_graph(200, beta=2.3, average_degree=4.0, seed=3)
    assert compute_independent_set(graph, "LinearTime-auto").algorithm == (
        "LinearTime-auto"
    )


def test_auto_dispatchable_from_parallel_components():
    from repro.analysis import assert_valid_solution
    from repro.perf.parallel import solve_by_components_parallel

    graph = gnm_random_graph(600, 900, seed=9)
    result = solve_by_components_parallel(
        graph, "linear_time_auto", processes=2, min_component_size=50
    )
    assert_valid_solution(graph, result.independent_set)
    assert result.algorithm.startswith("LinearTime-auto")


def test_auto_dispatchable_from_serve():
    from repro.serve import ServiceConfig, SolverService

    graph = power_law_graph(300, beta=2.3, average_degree=5.0, seed=1)
    service = SolverService(ServiceConfig(algorithm="bdone_auto"))
    graph_id = service.register(graph)
    solution = service.solve(graph_id)
    assert solution.size > 0
