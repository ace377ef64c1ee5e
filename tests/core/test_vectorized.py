"""Differential tests for the vectorized frontier-sweep backend.

The contract (ISSUE 6): on every differential-corpus graph the vectorized
solvers must produce a **valid independent set of identical size** to the
flat backend, with decision logs that :meth:`DecisionLog.resolve` and
``replay`` consume without error.  Exact record order may legally differ
inside a batch round, so the comparison is the canonicalized one (size +
validity + replay), not entry-for-entry equality.

BDOne-vec is the one place batch order is visible end-to-end: batched
degree-one rounds pick a different (equally valid) exclusion set, and on
one corpus graph replay's surviving-peel salvage then commits one *more*
peeled vertex than the flat LIFO order does.  The corpus pins that as
"never smaller", and the known divergence is asserted explicitly so a
behaviour change shows up as a test failure, not silence.
"""

from repro.analysis import assert_valid_solution
from repro.core.bdone import bdone
from repro.core.dominance import one_pass_dominance
from repro.core.flat_dominance import flat_one_pass_dominance
from repro.core.linear_time import linear_time, linear_time_reduce
from repro.core.trace import DecisionLog
from repro.core.vectorized import (
    VecWorkspace,
    _degree_one_rounds,
    bdone_vec,
    linear_time_vec,
    linear_time_vec_reduce,
)
from repro.graphs.generators import (
    gnm_random_graph,
    power_law_graph,
    web_like_graph,
)
from repro.graphs.static_graph import Graph

from .test_differential_backends import CORPUS


def _resolve_size(log: DecisionLog, graph: Graph) -> int:
    """Replay ``log`` through resolve(); the full replay() must agree."""
    in_set, peeled = log.resolve(graph.n)
    outcome = log.replay(graph)
    # Maximal extension only ever *adds* vertices to the resolved core.
    resolved = {v for v, flag in enumerate(in_set) if flag}
    assert resolved <= outcome.vertices
    assert outcome.peeled == len(peeled)
    return len(outcome.vertices)


def test_linear_time_vec_matches_flat_on_corpus():
    for graph in CORPUS:
        flat = linear_time(graph)
        vec = linear_time_vec(graph)
        assert_valid_solution(graph, vec.independent_set)
        assert len(vec.independent_set) == len(flat.independent_set), graph.name
        assert vec.upper_bound == flat.upper_bound, graph.name
        assert vec.algorithm == "LinearTime-vec"


def test_bdone_vec_valid_and_never_smaller_on_corpus():
    divergent = {}
    for index, graph in enumerate(CORPUS):
        flat = bdone(graph)
        vec = bdone_vec(graph)
        assert_valid_solution(graph, vec.independent_set)
        assert len(vec.independent_set) >= len(flat.independent_set), graph.name
        assert vec.stats == flat.stats, graph.name
        if len(vec.independent_set) != len(flat.independent_set):
            divergent[index] = (len(vec.independent_set), len(flat.independent_set))
    # The single known divergence: batched exclusions let replay salvage
    # one extra peeled vertex on corpus graph 13 (gnm seed 13).  If this
    # set changes, the backend's decision algebra changed — look hard.
    assert divergent == {13: (20, 19)}


def test_vectorized_dominance_byte_identical_on_corpus():
    # The numpy leaf wave inside flat_one_pass_dominance certifies most
    # removals on leaf-heavy graphs; the removed list must still equal
    # the set-based oracle's, element for element.
    for graph in CORPUS + PATH_HEAVY_CORPUS:
        assert flat_one_pass_dominance(graph) == one_pass_dominance(
            graph
        ), graph.name


def test_vectorized_logs_resolve_and_replay():
    for graph in CORPUS[::7]:
        for solver in (linear_time_vec, bdone_vec):
            result = solver(graph)
            assert result.size == len(result.independent_set)
    for graph in CORPUS[::11]:
        kernel, ids, log = linear_time_vec_reduce(graph)
        assert kernel.n <= graph.n
        assert len(ids) == kernel.n
        # Entries must be pure Python ints for the JSON snapshot path.
        for _kind, payload in log.entries:
            for value in payload:
                assert type(value) is int
        _resolve_size(log, graph)


def test_vec_kernel_matches_flat_kernel_size():
    """Exact rules are confluent: both backends kernelize to the same size."""
    for graph in CORPUS[::5]:
        flat_kernel, _, _ = linear_time_reduce(graph)
        vec_kernel, _, _ = linear_time_vec_reduce(graph)
        assert vec_kernel.n == flat_kernel.n, graph.name
        assert vec_kernel.m == flat_kernel.m, graph.name


# ----------------------------------------------------------------------
# Property: a sweep with zero eligible vertices is a no-op and terminates
# ----------------------------------------------------------------------
def _irreducible_graph() -> Graph:
    """A 3-regular graph (K4): no degree-one vertices, nothing to sweep."""
    offsets = [0, 3, 6, 9, 12]
    targets = [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]
    return Graph(offsets, targets, name="K4")


def test_empty_frontier_sweep_is_noop():
    graph = _irreducible_graph()
    workspace = VecWorkspace(graph, track_degree_two=True)
    assert workspace.v1 == []
    before_entries = workspace.log.entries
    before_alive = workspace.alive.copy()
    before_deg = workspace.deg.copy()
    excluded, rounds = _degree_one_rounds(workspace)
    assert (excluded, rounds) == (0, 0)
    assert workspace.log.entries == before_entries
    assert (workspace.alive == before_alive).all()
    assert (workspace.deg == before_deg).all()
    assert workspace.live_vertex_count == 4
    assert workspace.live_edge_count() == 6


def test_stale_worklist_sweep_terminates():
    """Stale v1 entries (dead or no-longer-degree-one) must not loop."""
    graph = _irreducible_graph()
    workspace = VecWorkspace(graph, track_degree_two=True)
    workspace.v1.extend([0, 0, 2])  # all invalid: degree 3, alive
    excluded, rounds = _degree_one_rounds(workspace)
    assert (excluded, rounds) == (0, 0)
    assert workspace.v1 == []
    assert workspace.live_vertex_count == 4


def test_empty_and_tiny_graphs():
    empty = Graph([0], [], name="empty")
    assert linear_time_vec(empty).independent_set == frozenset()
    singleton = Graph([0, 0], [], name="singleton")
    assert linear_time_vec(singleton).independent_set == frozenset({0})
    k2 = Graph([0, 1, 2], [1, 0], name="K2")
    result = bdone_vec(k2)
    assert len(result.independent_set) == 1


def test_hot_loop_markers_present():
    """The sweep kernels must stay under RL001's hot-loop contract."""
    assert getattr(_degree_one_rounds, "__hot_loop__", False)


def test_vec_solvers_registered():
    from repro.core import ALGORITHMS, KERNEL_METHODS, compute_independent_set
    from repro.perf.parallel import ALGORITHM_BY_NAME

    assert {"BDOne-vec", "LinearTime-vec"} <= set(ALGORITHMS)
    assert {"bdone_vec", "linear_time_vec"} <= set(ALGORITHM_BY_NAME)
    assert "linear_time_vec" in KERNEL_METHODS
    graph = power_law_graph(200, beta=2.3, average_degree=4.0, seed=3)
    result = compute_independent_set(graph, "LinearTime-vec")
    assert result.algorithm == "LinearTime-vec"


def test_parallel_components_with_vec_backend():
    from repro.perf.parallel import solve_by_components_parallel

    graph = gnm_random_graph(600, 900, seed=9)
    serial = linear_time_vec(graph)
    result = solve_by_components_parallel(
        graph, "linear_time_vec", processes=2, min_component_size=50
    )
    assert_valid_solution(graph, result.independent_set)
    assert len(result.independent_set) >= len(serial.independent_set) - 2


def test_export_kernel_matches_flat():
    from repro.core.workspace import FlatWorkspace

    for graph in (
        gnm_random_graph(120, 260, seed=4),
        web_like_graph(90, attach=2, seed=5),
    ):
        flat_ws = FlatWorkspace(graph, track_degree_two=True)
        vec_ws = VecWorkspace(graph, track_degree_two=True)
        for v in (3, 7, 11):
            if flat_ws.alive[v] and vec_ws.alive[v]:
                flat_ws.delete_vertex(v, "exclude")
                vec_ws.delete_vertex(v, "exclude")
        flat_kernel, flat_ids = flat_ws.export_kernel()
        vec_kernel, vec_ids = vec_ws.export_kernel()
        assert list(vec_ids) == list(flat_ids)
        assert vec_kernel == flat_kernel  # Graph.__eq__: same CSR buffers


# ----------------------------------------------------------------------
# ISSUE 7: path/cycle-heavy corpus extension + the K2 LIFO tie-break
# ----------------------------------------------------------------------
def _path_heavy_corpus():
    """Graphs whose reduction work is dominated by degree-two chains.

    Shuffled vertex ids keep the adjacency rows sorted but decouple id
    order from chain order — the adversarial case for any driver that
    implicitly assumes chains are laid out contiguously.
    """
    import random

    from repro.graphs.generators import (
        caterpillar_graph,
        cycle_graph,
        path_graph,
        random_tree,
    )

    graphs = []
    for k in (3, 4, 5, 9, 16, 31, 64):
        graphs.append(path_graph(k))
        graphs.append(cycle_graph(k))
    graphs.append(caterpillar_graph(12, 2))
    for seed in range(6):
        graphs.append(random_tree(45 + seed, seed=seed))
        # Disjoint shuffled cycles: every component is one Lemma 4.1 case.
        rng = random.Random(seed)
        sizes = [rng.randint(3, 9) for _ in range(5)]
        n = sum(sizes)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = []
        base = 0
        for size in sizes:
            for i in range(size):
                edges.append(
                    (perm[base + i], perm[base + (i + 1) % size])
                )
            base += size
        graphs.append(Graph.from_edges(n, edges, name=f"cycles-{seed}"))
    return graphs


PATH_HEAVY_CORPUS = _path_heavy_corpus()


def test_path_heavy_corpus_replay_records_match_scalar():
    """Satellite 3: batch degree-two rounds vs the scalar driver.

    On the chain-dominated corpus the batch driver must append the
    entry-for-entry identical decision log, and the resolved replay
    records (in_set + peeled) must therefore agree exactly.
    """
    from repro.core.vectorized import drive_linear_time_vec

    for graph in PATH_HEAVY_CORPUS:
        batch_ws = VecWorkspace(graph)
        drive_linear_time_vec(batch_ws, stop_before_peel=False, batch_rounds=True)
        scalar_ws = VecWorkspace(graph)
        drive_linear_time_vec(scalar_ws, stop_before_peel=False, batch_rounds=False)
        assert batch_ws.log.entries == scalar_ws.log.entries, graph.name
        batch_in, batch_peeled = batch_ws.log.resolve(graph.n)
        scalar_in, scalar_peeled = scalar_ws.log.resolve(graph.n)
        assert batch_in == scalar_in, graph.name
        assert batch_peeled == scalar_peeled, graph.name


def test_path_heavy_corpus_solvers_match_flat():
    for graph in PATH_HEAVY_CORPUS:
        flat = linear_time(graph)
        vec = linear_time_vec(graph)
        assert_valid_solution(graph, vec.independent_set)
        assert len(vec.independent_set) == len(flat.independent_set), graph.name


def _star_of_paths(lengths, seed=0):
    """Paths of the given lengths glued at a hub, ids shuffled.

    Adversarial for the degree-one LIFO tie-break: every path end is a
    simultaneous frontier member, and the shuffle makes the worklist
    order disagree with chain order.
    """
    import random

    rng = random.Random(seed)
    edges = []
    next_id = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, next_id))
            prev = next_id
            next_id += 1
    perm = list(range(next_id))
    rng.shuffle(perm)
    return Graph.from_edges(
        next_id, [(perm[a], perm[b]) for a, b in edges], name="star-of-paths"
    )


def test_k2_pairs_keep_larger_id_like_flat_lifo():
    """Satellite 2 (part 1): on pure-K2 graphs the batched pair split must
    reproduce the flat backend's LIFO outcome exactly — the larger id of
    each mutual degree-one pair enters the solution."""
    import random

    for seed in range(12):
        rng = random.Random(seed)
        n = 30 + 2 * seed
        ids = list(range(n))
        rng.shuffle(ids)
        edges = [(ids[2 * i], ids[2 * i + 1]) for i in range(n // 2)]
        graph = Graph.from_edges(n, edges, name=f"k2-{seed}")
        expected = frozenset(max(a, b) for a, b in edges)
        assert linear_time(graph).independent_set == expected, seed
        assert linear_time_vec(graph).independent_set == expected, seed
        assert bdone_vec(graph).independent_set == expected, seed


def test_star_of_paths_property_vs_flat():
    """Satellite 2 (part 2): adversarial star-of-paths graphs.

    The optimal set on a star of paths is not unique, and the batched
    rounds may legally settle a different (same-size) one than the flat
    LIFO order — the pinned property is size equality, validity, and a
    replay whose surviving-peel count is zero (paths are always solved
    exactly, never peeled).
    """
    import random

    for seed in range(10):
        rng = random.Random(100 + seed)
        lengths = [rng.randint(1, 7) for _ in range(rng.randint(3, 9))]
        graph = _star_of_paths(lengths, seed=seed)
        flat = linear_time(graph)
        vec = linear_time_vec(graph)
        assert_valid_solution(graph, vec.independent_set)
        assert len(vec.independent_set) == len(flat.independent_set), (
            seed,
            lengths,
        )
        assert vec.surviving_peels == 0
        assert flat.surviving_peels == 0
