"""Seeded input generators owned by the benchmark.

The program under test only ever sees what these functions return: edge
lists (handed to ``Graph.from_edges``) and protocol request dicts (handed
to ``AsyncFrontend.submit``).  Nothing here imports ``repro``, so a change
to ``repro.graphs.generators`` cannot change a workload.

Every function takes its randomness from an explicit seed.  Sub-streams
(one per ladder rung, per serving phase) derive their seeds from the run
seed and a label through a fixed hash, never through Python's salted
``hash``.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]

#: Table 5 of the paper uses power-law graphs with β in [1.9, 2.7];
#: 2.2 sits in the middle of that range.
POWERLAW_BETA = 2.2
#: Average degree 6 for both solve families (Tables 5 and 6).
AVERAGE_DEGREE = 6

#: ``solve-powerlaw`` ladder: target edge counts from 1e4 to about 1e6
#: (half a decade apart, then a doubling).  The top rung stops at 6.3e5 so
#: that a 20-second run still times it four to ten times, as the host's speed allows.
POWERLAW_LADDER = (10_000, 31_623, 100_000, 316_228, 630_957)
#: ``solve-peel`` ladder: G(n, m) costs NearLinear about 8x more per edge,
#: so the ladder stops a decade lower; rungs double.
PEEL_LADDER = (12_000, 24_000, 48_000, 96_000)
#: ``serve-mixed`` cold-solve ladder: vertex counts of G(n, p) graphs with
#: the serving fleet's mean degree; the top rung is the fleet's graph
#: ``g0`` itself (see ``FLEET_VERTICES`` below).
FLEET_LADDER = (625, 1250)


def substream_seed(seed: int, label: str) -> int:
    """A 32-bit seed for the sub-stream ``label`` of run ``seed``."""
    return zlib.crc32(f"{seed}:{label}".encode("utf-8"))


def _dedupe(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique ``min*n + max`` keys of the non-loop pairs."""
    keep = u != v
    low = np.minimum(u, v)[keep].astype(np.int64)
    high = np.maximum(u, v)[keep].astype(np.int64)
    return np.unique(low * n + high)


def _edges_from_keys(keys: np.ndarray, n: int) -> List[Edge]:
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


def chung_lu_edges(n: int, seed: int, beta: float = POWERLAW_BETA,
                   average_degree: float = AVERAGE_DEGREE) -> List[Edge]:
    """Chung–Lu power-law graph on ``n`` vertices, as a sorted edge list.

    Vertex ``i`` gets weight ``(i + 1) ** (-1 / (beta - 1))``; ``n * d / 2``
    edges are drawn by picking both endpoints proportionally to weight
    (the fast edge-sampling form of Chung–Lu).  Self-loops and repeated
    pairs are dropped, so the realised edge count sits a little below
    ``n * d / 2``.
    """
    rng = np.random.default_rng(seed)
    weights = (np.arange(n, dtype=np.float64) + 1.0) ** (-1.0 / (beta - 1.0))
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    draws = int(n * average_degree / 2)
    ends = np.searchsorted(cumulative, rng.random(2 * draws), side="right")
    np.minimum(ends, n - 1, out=ends)
    return _edges_from_keys(_dedupe(ends[:draws], ends[draws:], n), n)


def gnm_edges(n: int, m: int, seed: int) -> List[Edge]:
    """Uniform G(n, m): exactly ``m`` distinct edges, as a sorted edge list."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} edges on {n} vertices")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        need = m - len(keys)
        draw = need + need // 8 + 16
        fresh = _dedupe(rng.integers(0, n, draw), rng.integers(0, n, draw), n)
        keys = np.union1d(keys, fresh)
    keys = np.sort(rng.choice(keys, size=m, replace=False))
    return _edges_from_keys(keys, n)


def ladder(workload: str, seed: int) -> List[Tuple[str, int, List[Edge]]]:
    """The solve ladder of ``workload`` as ``(rung name, n, edges)``."""
    rungs = []
    if workload == "solve-powerlaw":
        for target in POWERLAW_LADDER:
            n = int(round(2 * target / AVERAGE_DEGREE))
            edges = chung_lu_edges(n, substream_seed(seed, f"plr-{target}"))
            rungs.append((f"plr-{target}", n, edges))
    elif workload == "solve-peel":
        for target in PEEL_LADDER:
            n = int(round(2 * target / AVERAGE_DEGREE))
            edges = gnm_edges(n, target, substream_seed(seed, f"gnm-{target}"))
            rungs.append((f"gnm-{target}", n, edges))
    elif workload == "serve-mixed":
        for n in FLEET_LADDER:
            p = FLEET_EDGE_PROBABILITY * (FLEET_VERTICES - 1) / (n - 1)
            rungs.append((f"gnp-{n}", n, gnp_edges(n, p, substream_seed(seed, f"gnp-{n}"))))
        n, edges = fleet_edges(seed, FLEET_IDS[:1])[FLEET_IDS[0]]
        rungs.append((f"fleet-{FLEET_IDS[0]}", n, edges))
    else:
        raise ValueError(f"no solve ladder for workload {workload!r}")
    return rungs


# ----------------------------------------------------------------------
# serve-mixed: the fleet and the open-loop request stream
# ----------------------------------------------------------------------

#: The registered fleet has the shape of the repository's own serving
#: workload, ``repro.serve.loadgen.LoadgenConfig`` (used by the
#: ``serve_load`` bench track and the CI load-generation job): four G(n, p)
#: graphs of 2500 vertices with p = 0.008, about 25 000 edges each, with
#: requests spread uniformly over them.  The numbers are copied, not
#: imported, so a change to the load generator cannot change this workload.
FLEET_GRAPHS = 4
FLEET_VERTICES = 2500
FLEET_EDGE_PROBABILITY = 0.008
FLEET_IDS = tuple(f"g{i}" for i in range(FLEET_GRAPHS))
#: About one request in seven is a write.  (The load generator writes one
#: request in about fifty, so at most one solve in about 48 can need a
#: repair.)
SOLVE_SHARE = 0.85
#: Each mutation flips between 1 and MAX_FLIPS edges; a flip adds an absent
#: edge with probability ADD_SHARE and removes an existing one otherwise
#: (the load generator's split).
MAX_FLIPS = 4
ADD_SHARE = 0.7
#: Solve deadlines are log-uniform on this range (seconds).  On a 2-CPU
#: machine a cache hit through the process-mode router takes about 0.33 ms
#: and a repair against the full cache tier about 80 ms (p90 120 ms), so
#: the tight end sheds as soon as any queue forms and the loose end
#: outlasts a slow repair.
TIMEOUT_RANGE = (0.0005, 0.25)


def gnp_edges(n: int, p: float, seed: int) -> List[Edge]:
    """Uniform G(n, p): a binomial edge count, then G(n, m) with that count."""
    m = int(np.random.default_rng(seed).binomial(n * (n - 1) // 2, p))
    return gnm_edges(n, m, substream_seed(seed, "edges"))


def fleet_edges(seed: int,
                ids: Sequence[str] = FLEET_IDS) -> Dict[str, Tuple[int, List[Edge]]]:
    """The fleet's graphs (or those of ``ids``) as ``{graph id: (n, edges)}``."""
    return {
        graph_id: (FLEET_VERTICES, gnp_edges(FLEET_VERTICES, FLEET_EDGE_PROBABILITY,
                                             substream_seed(seed, graph_id)))
        for graph_id in ids
    }


#: Graphs of the fleet's shape that only join ``serve-mixed``'s answer pool.
FLEET_SPARES = tuple(f"spare{i}" for i in range(9))


def answer_pool(workload: str, seed: int) -> List[Tuple[str, int, List[Edge]]]:
    """Graphs solved once during set-up, outside the timed ladder, whose
    answers join the ladder's in the certified ratios.

    On ``serve-mixed`` these are the rest of the fleet (``g1``-``g3``) and
    nine more graphs of its shape, so that the ratio pools about 34 000
    vertices instead of the ladder's 4375: on this family the ratio of one
    graph varies by a few percent from seed to seed.  The solve ladders,
    whose graphs are 10x larger, need none."""
    if workload != "serve-mixed":
        return []
    return [(f"fleet-{graph_id}", n, edges)
            for graph_id, (n, edges) in fleet_edges(seed, FLEET_IDS[1:] + FLEET_SPARES).items()]


class RequestStream:
    """The seeded sequence of ``solve`` / ``mutate`` requests.

    Requests come out in submission order; ``next()`` is a pure function
    of the seed and how many requests were drawn before.  Mutations flip
    edges against the stream's own copy of each graph — adding an absent
    edge or removing an existing one — so every mutation changes the graph
    and the mirror an answer is checked against is exact.
    """

    def __init__(self, seed: int, graphs: Dict[str, Tuple[int, Sequence[Edge]]]) -> None:
        self._rng = random.Random(substream_seed(seed, "requests"))
        self._ids = list(FLEET_IDS)
        self._n = {graph_id: graphs[graph_id][0] for graph_id in self._ids}
        self._edge_list: Dict[str, List[Edge]] = {}
        self._edge_pos: Dict[str, Dict[Edge, int]] = {}
        for graph_id in self._ids:
            edges = [tuple(sorted(e)) for e in graphs[graph_id][1]]
            self._edge_list[graph_id] = edges
            self._edge_pos[graph_id] = {e: i for i, e in enumerate(edges)}
        self._seq = 0

    def _flip(self, graph_id: str) -> List[object]:
        rng = self._rng
        edges = self._edge_list[graph_id]
        pos = self._edge_pos[graph_id]
        n = self._n[graph_id]
        if edges and rng.random() >= ADD_SHARE:
            i = rng.randrange(len(edges))
            edge = edges[i]
            last = edges.pop()
            if i < len(edges):
                edges[i] = last
                pos[last] = i
            del pos[edge]
            return ["remove_edge", edge[0], edge[1]]
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            edge = (min(u, v), max(u, v))
            if u != v and edge not in pos:
                pos[edge] = len(edges)
                edges.append(edge)
                return ["add_edge", edge[0], edge[1]]

    def next(self, op: Optional[str] = None,
             graph_id: Optional[str] = None) -> Dict[str, object]:
        """The next request of the stream; ``op`` and ``graph_id`` force
        its kind and graph instead of drawing them."""
        rng = self._rng
        graph_id = graph_id or rng.choice(self._ids)
        if op is None:
            op = "solve" if rng.random() < SOLVE_SHARE else "mutate"
        rid = f"r{self._seq}"
        self._seq += 1
        if op == "solve":
            low, high = TIMEOUT_RANGE
            timeout = low * (high / low) ** rng.random()
            return {"op": "solve", "id": graph_id, "timeout": round(timeout, 6), "rid": rid}
        flips = [self._flip(graph_id) for _ in range(rng.randint(1, MAX_FLIPS))]
        return {"op": "mutate", "id": graph_id, "mutations": flips, "rid": rid}


def poisson_offsets(seed: int, label: str, rate: float, duration: float) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    rng = random.Random(substream_seed(seed, label))
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets
