"""Same seed, same inputs; another seed, other inputs."""

from gen import (
    FLEET_IDS,
    RequestStream,
    chung_lu_edges,
    fleet_edges,
    gnm_edges,
    gnp_edges,
    ladder,
    poisson_offsets,
)


def _stream(seed, count=400):
    stream = RequestStream(seed, fleet_edges(seed))
    return [stream.next() for _ in range(count)]


def test_chung_lu_is_seeded():
    assert chung_lu_edges(2000, 7) == chung_lu_edges(2000, 7)
    assert chung_lu_edges(2000, 7) != chung_lu_edges(2000, 8)


def test_gnm_is_seeded_and_exact():
    edges = gnm_edges(500, 1500, 3)
    assert edges == gnm_edges(500, 1500, 3)
    assert edges != gnm_edges(500, 1500, 4)
    assert len(edges) == len(set(edges)) == 1500
    assert all(0 <= u < v < 500 for u, v in edges)


def test_gnp_is_seeded():
    edges = gnp_edges(400, 0.02, 3)
    assert edges == gnp_edges(400, 0.02, 3)
    assert edges != gnp_edges(400, 0.02, 4)
    assert len(edges) == len(set(edges))
    assert 1400 < len(edges) < 1800  # expected 0.02 * 400 * 399 / 2 = 1596


def test_ladders_are_seeded():
    for workload in ("solve-powerlaw", "solve-peel", "serve-mixed"):
        first = ladder(workload, 5)
        assert first == ladder(workload, 5)
        assert first != ladder(workload, 6)
        sizes = [len(edges) for _, _, edges in first]
        assert sizes == sorted(sizes)


def test_serve_ladder_tops_out_at_the_fleet_graph():
    rungs = ladder("serve-mixed", 3)
    assert rungs[-1][1:] == fleet_edges(3)[FLEET_IDS[0]]
    degrees = [2 * len(edges) / n for _, n, edges in rungs]
    assert max(degrees) - min(degrees) < 1.5  # about 20 on every rung


def test_fleet_shape_is_fixed_across_seeds():
    one, two = fleet_edges(1), fleet_edges(2)
    assert list(FLEET_IDS) == list(one) == list(two)
    assert [n for n, _ in one.values()] == [n for n, _ in two.values()]
    assert one != two


def test_request_stream_is_seeded():
    assert _stream(9) == _stream(9)
    assert _stream(9) != _stream(10)


def test_mutations_flip_against_the_stream_mirror():
    graphs = fleet_edges(4)
    edges = {gid: {tuple(sorted(e)) for e in graph[1]} for gid, graph in graphs.items()}
    stream = RequestStream(4, graphs)
    mutations = adds = flips = 0
    for _ in range(2000):
        request = stream.next()
        if request["op"] != "mutate":
            assert 0.0005 <= request["timeout"] <= 0.25
            continue
        mutations += 1
        for kind, u, v in request["mutations"]:
            flips += 1
            adds += kind == "add_edge"
            edge = (min(u, v), max(u, v))
            if kind == "add_edge":
                assert edge not in edges[request["id"]] and u != v
                edges[request["id"]].add(edge)
            else:
                assert edge in edges[request["id"]]
                edges[request["id"]].remove(edge)
    assert 200 < mutations < 400
    assert 0.6 < adds / flips < 0.8


def test_forced_requests():
    stream = RequestStream(2, fleet_edges(2))
    mutation = stream.next("mutate")
    assert mutation["op"] == "mutate"
    solve = stream.next("solve", mutation["id"])
    assert solve["op"] == "solve" and solve["id"] == mutation["id"]


def test_poisson_offsets_are_seeded_and_bounded():
    offsets = poisson_offsets(3, "lo", 200.0, 5.0)
    assert offsets == poisson_offsets(3, "lo", 200.0, 5.0)
    assert offsets != poisson_offsets(4, "lo", 200.0, 5.0)
    assert offsets != poisson_offsets(3, "hi", 200.0, 5.0)
    assert offsets == sorted(offsets) and offsets[-1] < 5.0
    assert 800 < len(offsets) < 1200
