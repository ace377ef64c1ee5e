"""Tests for the decision log and solution reconstruction."""

import gc
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import ALGORITHMS
from repro.core.kernel import KERNEL_METHODS
from repro.core.trace import EXCLUDE, FOLD, INCLUDE, PATH, PEEL, DecisionLog, extend_to_maximal
from repro.graphs import Graph, path_graph, cycle_graph
from repro.graphs.generators import power_law_graph

from .test_differential_backends import CORPUS


class TestBasicReplay:
    def test_includes_survive(self):
        g = path_graph(3)
        log = DecisionLog()
        log.include(0)
        log.exclude(1)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {0}

    def test_maximal_extension_fills_gaps(self):
        g = path_graph(5)
        log = DecisionLog()
        outcome = log.replay(g)
        # First-fit extension on a path takes 0, 2, 4.
        assert outcome.vertices == {0, 2, 4}

    def test_peel_bookkeeping(self):
        g = path_graph(2)
        log = DecisionLog()
        log.peel(0)
        log.include(1)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.peeled == 1
        assert outcome.surviving_peels == 1
        assert outcome.upper_bound == 2
        assert not outcome.is_exact

    def test_peeled_vertex_readded_by_extension(self):
        g = path_graph(3)
        log = DecisionLog()
        log.peel(0)
        log.include(2)
        outcome = log.replay(g)
        # 0 has no solution neighbour, so extension re-adds it: R empty.
        assert 0 in outcome.vertices
        assert outcome.surviving_peels == 0
        assert outcome.is_exact


class TestPathEntries:
    def test_path_vertex_added_when_blockers_out(self):
        g = path_graph(3)
        log = DecisionLog()
        log.push_path(1, 0, 2)
        outcome = log.replay(g, extend_maximal=False)
        assert 1 in outcome.vertices

    def test_path_vertex_skipped_when_blocker_in(self):
        g = path_graph(3)
        log = DecisionLog()
        log.include(0)
        log.push_path(1, 0, 2)
        outcome = log.replay(g, extend_maximal=False)
        assert 1 not in outcome.vertices

    def test_pop_order_is_reverse_push_order(self):
        # Path 0-1-2-3-4: push 3 then 2 then 1 (pop order 1, 2, 3) with
        # vertex 0 included: alternation takes 2 and 4... here only the
        # pushed ones: skip 1 (blocked by 0), add 2, skip 3.
        g = path_graph(5)
        log = DecisionLog()
        log.include(0)
        log.push_path(3, 2, 4)
        log.push_path(2, 1, 3)
        log.push_path(1, 0, 2)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {0, 2}

    def test_alpha_offset_counts_half_of_path_entries(self):
        log = DecisionLog()
        log.push_path(1, 0, 2)
        log.push_path(2, 1, 3)
        log.include(9)
        log.fold(4, 5, 6)
        assert log.alpha_offset == 1 + 1 + 1  # include + fold + 2 paths / 2


class TestFoldEntries:
    def test_fold_takes_v_when_supervertex_in(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        log = DecisionLog()
        log.fold(0, 1, 2)  # u=0 folded with v=1 into supervertex w=2
        log.include(2)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {1, 2}

    def test_fold_takes_u_when_supervertex_out(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        log = DecisionLog()
        log.fold(0, 1, 2)
        log.exclude(2)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {0}

    def test_nested_folds_resolve_in_reverse(self):
        g = path_graph(6)
        log = DecisionLog()
        log.fold(0, 1, 2)  # earlier fold references supervertex 2...
        log.fold(2, 3, 4)  # ...which is itself folded later into 4.
        log.include(4)
        outcome = log.replay(g, extend_maximal=False)
        # Reverse replay: 4 in I -> add 3 (fold 2); 2 not in I -> add 0.
        assert outcome.vertices == {0, 3, 4}


class TestLogUtilities:
    def test_copy_is_independent(self):
        log = DecisionLog()
        log.include(0)
        clone = log.copy()
        clone.include(1)
        assert len(log) == 1
        assert len(clone) == 2

    def test_extend_mapped_translates_ids(self):
        g = path_graph(4)
        inner = DecisionLog()
        inner.include(0)
        inner.push_path(1, 0, 2)
        outer = DecisionLog()
        outer.extend_mapped(inner, [3, 2, 1, 0])
        outcome = outer.replay(g, extend_maximal=False)
        assert 3 in outcome.vertices  # include mapped 0 -> 3
        # Path entry mapped to (2, blockers 3 and 1): 3 in I blocks it.
        assert 2 not in outcome.vertices

    def test_stats_merge_on_extend(self):
        a = DecisionLog()
        a.bump("rule", 2)
        b = DecisionLog()
        b.bump("rule", 3)
        a.extend_mapped(b, [])
        assert a.stats["rule"] == 5

    def test_peel_count(self):
        log = DecisionLog()
        log.peel(1)
        log.peel(2)
        log.include(3)
        assert log.peel_count == 2


class TestResolveExtendSplit:
    def test_resolve_matches_unextended_replay(self):
        g = path_graph(6)
        log = DecisionLog()
        log.include(0)
        log.peel(3)
        log.push_path(1, 0, 2)
        in_set, peeled = log.resolve(g.n)
        outcome = log.replay(g, extend_maximal=False)
        assert in_set == outcome.in_set
        assert peeled == [3]

    def test_extend_to_maximal_is_first_fit(self):
        g = path_graph(5)
        in_set = [False] * 5
        extend_to_maximal(in_set, g)
        assert [v for v in range(5) if in_set[v]] == [0, 2, 4]

    def test_extend_to_maximal_respects_existing_vertices(self):
        g = path_graph(5)
        in_set = [False, True, False, False, False]
        extend_to_maximal(in_set, g)
        assert [v for v in range(5) if in_set[v]] == [1, 3]


class TestFoldAfterPath:
    def test_later_fold_decides_earlier_path_entry(self):
        # Chronological order: PATH then FOLD.  The backward pass resolves
        # the fold FIRST (supervertex 4 out -> u=2 joins), and only then the
        # path entry, which must see blocker 2 inside and keep 1 out.
        g = path_graph(5)
        log = DecisionLog()
        log.push_path(1, 0, 2)
        log.fold(2, 3, 4)
        outcome = log.replay(g, extend_maximal=False)
        assert 2 in outcome.vertices
        assert 1 not in outcome.vertices

    def test_fold_supervertex_in_routes_v_and_frees_the_path(self):
        # With 4 included, the fold takes v=3 instead of u=2; both of the
        # path entry's blockers stay out, so 1 re-enters on replay.
        g = path_graph(5)
        log = DecisionLog()
        log.include(4)
        log.push_path(1, 0, 2)
        log.fold(2, 3, 4)
        outcome = log.replay(g, extend_maximal=False)
        assert 3 in outcome.vertices
        assert 2 not in outcome.vertices
        assert 1 in outcome.vertices


class TestEmptyLog:
    def test_empty_log_unextended_replay_is_empty(self):
        g = cycle_graph(4)
        outcome = DecisionLog().replay(g, extend_maximal=False)
        assert outcome.vertices == frozenset()
        assert outcome.peeled == 0
        assert outcome.surviving_peels == 0
        assert outcome.is_exact
        assert outcome.upper_bound == 0

    def test_empty_log_extended_replay_is_greedy_maximal(self):
        g = cycle_graph(5)
        outcome = DecisionLog().replay(g)
        assert outcome.vertices == {0, 2}

    def test_empty_log_on_empty_graph(self):
        g = Graph.empty(0)
        outcome = DecisionLog().replay(g)
        assert outcome.vertices == frozenset()
        assert outcome.upper_bound == 0

    def test_empty_log_resolve(self):
        in_set, peeled = DecisionLog().resolve(3)
        assert in_set == [False, False, False]
        assert peeled == []


class TestInterleavedFoldPath:
    """FOLD and PATH entries interleaved across the log.

    Replay walks the log *backwards*, so a later fold can decide the
    blockers of an earlier path entry and vice versa.  These scenarios pin
    that dependency order down — they are the cases localized repair
    replays when a mutated component's kernel log mixes both rule kinds.
    """

    def test_fold_then_path_sharing_the_supervertex(self):
        # Path entry blocked by supervertex w=2; the fold resolves first
        # (it is later in the log) and decides whether 2 is in.
        log = DecisionLog()
        log.fold(0, 1, 2)        # earlier fold: u=0 v=1 w=2
        log.push_path(3, 2, 4)   # later path entry, blocker 2
        log.include(2)           # kernel put the supervertex in
        in_set, _ = log.resolve(5)
        # Backwards: path first — blocker 2 in → 3 stays out; then fold
        # routes the supervertex to v=1.
        assert in_set[1] and in_set[2]
        assert not in_set[0] and not in_set[3]

    def test_path_then_fold_where_fold_decides_blocker(self):
        # The path entry is *earlier*, so on the backwards walk the fold
        # resolves first and its outcome (u=1 joins) blocks the path vertex.
        log = DecisionLog()
        log.push_path(0, 1, 2)
        log.fold(1, 3, 4)        # supervertex w=4 stays out → u=1 joins
        in_set, _ = log.resolve(5)
        assert in_set[1]
        assert not in_set[0]     # blocker 1 in → path vertex out

    def test_path_resolved_before_earlier_fold_sees_it(self):
        # Backwards order: PATH (latest) → FOLD.  The path vertex joins
        # (both blockers out) and then the fold reads that fresh decision:
        # its supervertex w=0 is now in, so v=2 joins instead of u=1.
        log = DecisionLog()
        log.fold(1, 2, 0)
        log.push_path(0, 3, 4)
        in_set, _ = log.resolve(5)
        assert in_set[0]         # path: blockers 3, 4 both out
        assert in_set[2]         # fold saw w=0 in → v joins
        assert not in_set[1]

    def test_alternating_chain_of_folds_and_paths(self):
        # fold(0,1,2) … path(3 | 2,4) … fold(4,5,6) … path(7 | 6,8),
        # resolved strictly backwards: 7 joins (6, 8 out) → fold picks
        # u=4 (w=6 out) → path 3 blocked by 4?  No: blockers are 2 and 4,
        # 4 is now in → 3 stays out → fold picks v?  w=2 out → u=0 joins.
        log = DecisionLog()
        log.fold(0, 1, 2)
        log.push_path(3, 2, 4)
        log.fold(4, 5, 6)
        log.push_path(7, 6, 8)
        in_set, _ = log.resolve(9)
        assert in_set[7]
        assert in_set[4]
        assert not in_set[3]
        assert in_set[0]
        assert not in_set[1] and not in_set[5]

    def test_interleaved_log_on_mutated_component_subgraph(self):
        # End-to-end: kernelize a component, mutate a *different* part of
        # the graph, and replay the old log mapped onto the snapshot — the
        # deferred decisions must still resolve to a valid independent set
        # on the untouched component.
        from repro.analysis import assert_valid_solution
        from repro.core.near_linear import near_linear
        from repro.graphs import disjoint_union
        from repro.graphs.generators import gnm_random_graph
        from repro.serve import DynamicGraph

        component_a = gnm_random_graph(40, 90, seed=21)
        component_b = cycle_graph(9)
        union = disjoint_union([component_a, component_b])
        dynamic = DynamicGraph(union)
        # Mutate only inside component B's id range (40..48).
        dynamic.add_edge(40, 44)
        dynamic.remove_edge(41, 42)
        snapshot, old_ids = dynamic.snapshot()
        assert old_ids == list(range(union.n))  # no removals: ids align
        # Component A was untouched: its sub-solution replays cleanly on
        # the mutated snapshot.
        result = near_linear(component_a)
        survivors = set(result.independent_set)
        in_set = [v in survivors for v in range(snapshot.n)]
        for v in range(40, snapshot.n):
            assert not in_set[v]
        extend_to_maximal(in_set, snapshot)
        assert_valid_solution(snapshot, [v for v in range(snapshot.n) if in_set[v]])

    def test_payload_round_trip_preserves_interleaved_order(self):
        log = DecisionLog()
        log.include(9)
        log.fold(0, 1, 2)
        log.push_path(3, 2, 4)
        log.peel(5)
        log.fold(4, 5, 6)
        log.push_path(7, 6, 8)
        log.bump("degree-two-fold", 2)
        restored = DecisionLog.from_payload(log.to_payload())
        assert restored.entries == log.entries
        assert restored.stats == log.stats
        assert restored.resolve(10) == log.resolve(10)


# ----------------------------------------------------------------------
# The int-code storage against a tuple-walking reference
# ----------------------------------------------------------------------
def _records(max_id):
    """Strategy: a chronological list of ``(kind, ids)`` records."""
    vertex = st.integers(0, max_id)
    single = st.tuples(st.sampled_from([INCLUDE, EXCLUDE, PEEL]), st.tuples(vertex))
    triple = st.tuples(st.sampled_from([PATH, FOLD]), st.tuples(vertex, vertex, vertex))
    return st.lists(st.one_of(single, triple), max_size=60)


def _log_of(records):
    log = DecisionLog()
    record = {INCLUDE: log.include, EXCLUDE: log.exclude, PEEL: log.peel,
              PATH: log.push_path, FOLD: log.fold}
    for kind, data in records:
        record[kind](*data)
    return log


def _reference_resolve(records, n):
    """Replay written directly over ``(kind, ids)`` tuples."""
    in_set = [False] * n
    peeled = [data[0] for kind, data in records if kind == PEEL]
    for kind, data in records:
        if kind == INCLUDE:
            in_set[data[0]] = True
    for kind, data in reversed(records):
        if kind == PATH:
            v, blocker_a, blocker_b = data
            if not in_set[blocker_a] and not in_set[blocker_b]:
                in_set[v] = True
        elif kind == FOLD:
            u, v, w = data
            if in_set[w]:
                in_set[v] = True
            else:
                in_set[u] = True
    return in_set, peeled


class TestIntCodeStorage:
    @settings(max_examples=300, deadline=None)
    @given(_records(2 ** 40))
    def test_entries_payload_and_counts(self, records):
        log = _log_of(records)
        assert log.entries == tuple(records)
        assert len(log) == len(records)
        restored = DecisionLog.from_payload(json.loads(json.dumps(log.to_payload())))
        assert restored.entries == log.entries
        assert restored.codes == log.codes and restored.operands == log.operands
        kinds = [kind for kind, _ in records]
        assert log.peel_count == kinds.count(PEEL)
        assert log.alpha_offset == (
            kinds.count(INCLUDE) + kinds.count(FOLD) + kinds.count(PATH) // 2
        )

    @settings(max_examples=300, deadline=None)
    @given(_records(39))
    def test_resolve_matches_tuple_walk(self, records):
        assert _log_of(records).resolve(40) == _reference_resolve(records, 40)

    @settings(max_examples=300, deadline=None)
    @given(_records(11), st.lists(st.integers(0, 2 ** 40), min_size=12, max_size=12),
           _records(2 ** 40))
    def test_extend_mapped_maps_every_record(self, inner_records, id_map, prefix):
        inner = _log_of(inner_records)
        inner.bump("rule", 2)
        outer = _log_of(prefix)
        outer.extend_mapped(inner, id_map)
        mapped = [(kind, tuple(id_map[v] for v in data)) for kind, data in inner_records]
        assert outer.entries == tuple(prefix) + tuple(mapped)
        assert outer.stats == {"rule": 2}
        assert all(type(x) is int for x in outer.codes + outer.operands)


# ----------------------------------------------------------------------
# Byte identity with the tuple-list log, pinned
# ----------------------------------------------------------------------
def _digest_reprs(reprs):
    digest = hashlib.sha256()
    for text in reprs:
        digest.update(text.encode())
    return digest.hexdigest()


#: SHA-256 over the differential corpus, recorded from the tuple-list
#: DecisionLog this storage replaced: per solver, of each run's
#: ``MISResult`` fields and of the decision log it replayed; per kernel
#: method, of each ``(log.entries, stats, old_ids, kernel)``.
_PINNED_SOLVES = {
    "BDOne": ("b4e82beb7477ee5e71d4a7dcc936c9cc8e69407631f890c94085e97329b360a6",
              "fda2846326f9d8eb5af2bfe42bf15c1706f007e7fd4bf1e8e91db1b67d1ca889"),
    "BDOne-vec": ("96891586eb04139f0d3e8a21b100dcd08556dd34f402b71c30cd40e5aa180b9f",
                  "f40faac1b6251033a9b673a5e2e2309d49981493e5bf873e78fc8a5f62f0173f"),
    "BDTwo": ("ef8fe0acad9da263d4732f2c14434d43eb17cada414524d5ba004916f6e7a2ab",
              "6c1d74766a90d26b068088f96d8111005d70baa0fe6f12ba98776caae053d2ea"),
    "LinearTime": ("5f1daae1ac9988f21eb35f5e9121fb254fdfab15101adc5079eb37a795b307e4",
                   "483014006656ee85586d6b9867507e11cffdc210cf755fe6a4f13bce763cb2b9"),
    "LinearTime-vec": ("5b3b7738dda3ad687b9cf2b88f8e3556d377c1ae437e73dd50185412f4324572",
                       "275a07da4421a76e4a3ae5b5114fa98e3ab4d9a2061eea2891ffa40c529ec304"),
    "NearLinear": ("f3c6d32575dbf1c32f22e51053d3d85f09da6bf75cd41636930d4d68f309ec86",
                   "4cb4aa409e9e7a329fc4b27fd8c68f85899bb1c858b9721a90a0f0ac87584047"),
}
_PINNED_KERNELS = {
    "degree_one": "eb1bf60f24b14c78a441c74a2bffefeab50795dfc2737c78e0093ce9b94684b7",
    "linear_time": "85cd117998e4767c037813ca59b81b5a1536d959ce9e1170f50fa34201627d5f",
    "linear_time_vec": "cae6f7ba57544f551ec03093956f68af0b6110d929a752345e39193152718185",
    "near_linear": "efb3d359551afbe82a0dacdd96509192039dc32cfd37d1c126f7c58a7143fb30",
}


@pytest.mark.parametrize("algorithm", sorted(_PINNED_SOLVES))
def test_solver_results_and_logs_are_pinned(algorithm, monkeypatch):
    replayed = []
    replay = DecisionLog.replay

    def spy(log, graph, extend_maximal=True):
        replayed.append(tuple(log.entries))
        return replay(log, graph, extend_maximal)

    monkeypatch.setattr(DecisionLog, "replay", spy)
    results = []
    for graph in CORPUS:
        r = ALGORITHMS[algorithm](graph)
        results.append(repr((
            r.algorithm, r.graph_name, tuple(sorted(r.independent_set)), r.upper_bound,
            r.peeled, r.surviving_peels, r.is_exact, tuple(sorted(r.stats.items())),
        )))
    assert len(replayed) == len(CORPUS)
    assert (_digest_reprs(results), _digest_reprs(map(repr, replayed))) == (
        _PINNED_SOLVES[algorithm]
    )


@pytest.mark.parametrize("method", sorted(_PINNED_KERNELS))
def test_kernel_logs_are_pinned(method):
    reprs = []
    for graph in CORPUS:
        kernel, old_ids, log = KERNEL_METHODS[method](graph)
        reprs.append(repr((
            tuple(log.entries), tuple(sorted(log.stats.items())), tuple(old_ids),
            kernel.n, tuple(kernel.edges()),
        )))
    assert _digest_reprs(reprs) == _PINNED_KERNELS[method]


# ----------------------------------------------------------------------
# No per-decision garbage-collected containers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["LinearTime", "NearLinear", "BDOne"])
def test_solve_triggers_almost_no_gc_collections(algorithm):
    # A container allocated per decision and kept until replay, such as
    # a ``(kind, (v,))`` tuple, costs one collection every few hundred
    # decisions: 86-92 on this graph.  Int codes cost none.
    graph = power_law_graph(30000, 2.2, 6, seed=3)
    solve = ALGORITHMS[algorithm]
    solve(graph)  # warm-up: first calls import lazily and fill caches
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        solve(graph)
    finally:
        gc.callbacks.remove(count)
    assert len(collections) <= 5, collections
