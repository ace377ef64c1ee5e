"""Answer checks, independent of ``repro.analysis``.

A solve answer passes when its set is independent and maximal in the
graph it answers for, ``|I| <= upper bound``, and the bound equals
``|I|`` whenever the answer claims to be exact.  Each check returns
``None`` on success or a one-line reason.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


class EdgeArrays:
    """A graph as two endpoint arrays, the form the checks vectorise over."""

    __slots__ = ("n", "u", "v")

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        self.n = n
        self.u = pairs[:, 0]
        self.v = pairs[:, 1]


def check_set(graph: EdgeArrays, vertices: Iterable[int]) -> Optional[str]:
    """``None`` when ``vertices`` is an independent, maximal set of ``graph``."""
    chosen = np.fromiter(vertices, dtype=np.int64)
    if chosen.size and (chosen.min() < 0 or chosen.max() >= graph.n):
        return "vertex id out of range"
    mask = np.zeros(graph.n, dtype=bool)
    mask[chosen] = True
    if int(mask.sum()) != chosen.size:
        return "repeated vertex"
    u, v = graph.u, graph.v
    inside_u, inside_v = mask[u], mask[v]
    clash = inside_u & inside_v
    if clash.any():
        i = int(np.flatnonzero(clash)[0])
        return f"not independent: edge ({int(u[i])}, {int(v[i])}) inside the set"
    covered = mask.copy()
    covered[u[inside_v]] = True
    covered[v[inside_u]] = True
    if not covered.all():
        return f"not maximal: vertex {int(np.flatnonzero(~covered)[0])} could join"
    return None


def check_bound(size: int, upper_bound: int, is_exact: bool) -> Optional[str]:
    """``None`` when the bound is consistent with the set size."""
    if size > upper_bound:
        return f"|I| = {size} exceeds its upper bound {upper_bound}"
    if is_exact and upper_bound != size:
        return f"claims exact but upper bound {upper_bound} != |I| = {size}"
    return None


def check_solve(graph: EdgeArrays, vertices: Sequence[int] | frozenset,
                upper_bound: int, is_exact: bool) -> Optional[str]:
    """The full check of one solver answer."""
    return check_bound(len(vertices), upper_bound, is_exact) or check_set(graph, vertices)


#: How many mutations back a shed answer may lag.  Shed solves jump the
#: shard's queue (the express lane), so they can overtake every queued
#: mutation of their graph; the admission queue bound caps that.  A stale
#: answer that was not shed keeps its place in the queue, and the service
#: patches it onto the graph as it stands, so it gets no lag.
MAX_LAG = 256


class ServeMirror:
    """The benchmark's own copy of every served graph, replayed in order.

    Feed it the run's records in submission order: ``mutate`` applies a
    request's flips, ``check_solve_response`` checks an ``ok`` solve
    against the mirror's current version.  A shed answer may instead
    match one of the last :data:`MAX_LAG` versions.
    """

    def __init__(self, graphs: Dict[str, Tuple[int, Sequence[Edge]]]) -> None:
        self._n = {gid: n for gid, (n, _) in graphs.items()}
        self._edges: Dict[str, Set[Edge]] = {
            gid: {(min(a, b), max(a, b)) for a, b in edges}
            for gid, (_, edges) in graphs.items()
        }
        self._history: Dict[str, List[List[object]]] = {gid: [] for gid in graphs}
        self._arrays: Dict[str, Tuple[int, EdgeArrays]] = {}
        #: Per graph: the version the verdicts hold for, and the verdict of
        #: every set checked against it (solves between two mutations
        #: mostly repeat one answer).
        self._verdicts: Dict[str, Tuple[int, Dict[Tuple[int, ...], Optional[str]]]] = {}

    def version(self, graph_id: str) -> int:
        return len(self._history[graph_id])

    def mutate(self, graph_id: str, flips: Sequence[Sequence[object]]) -> None:
        edges = self._edges[graph_id]
        for kind, a, b in flips:
            edge = (min(a, b), max(a, b))  # type: ignore[type-var]
            if kind == "add_edge":
                edges.add(edge)  # type: ignore[arg-type]
            else:
                edges.discard(edge)  # type: ignore[arg-type]
        self._history[graph_id].append(list(flips))

    def _current(self, graph_id: str) -> EdgeArrays:
        version = self.version(graph_id)
        cached = self._arrays.get(graph_id)
        if cached is None or cached[0] != version:
            cached = (version, EdgeArrays(self._n[graph_id], self._edges[graph_id]))
            self._arrays[graph_id] = cached
        return cached[1]

    def _check_current(self, graph_id: str, vertices: Sequence[int]) -> Optional[str]:
        version = self.version(graph_id)
        held = self._verdicts.get(graph_id)
        if held is None or held[0] != version:
            held = (version, {})
            self._verdicts[graph_id] = held
        key = tuple(vertices)
        if key not in held[1]:
            held[1][key] = check_set(self._current(graph_id), vertices)
        return held[1][key]

    def _check_earlier(self, graph_id: str, vertices: Sequence[int]) -> bool:
        """True when ``vertices`` fits one of the last MAX_LAG versions."""
        edges = set(self._edges[graph_id])
        n = self._n[graph_id]
        for flips in reversed(self._history[graph_id][-MAX_LAG:]):
            for kind, a, b in reversed(flips):
                edge = (min(a, b), max(a, b))  # type: ignore[type-var]
                if kind == "add_edge":
                    edges.discard(edge)  # type: ignore[arg-type]
                else:
                    edges.add(edge)  # type: ignore[arg-type]
            if check_set(EdgeArrays(n, edges), vertices) is None:
                return True
        return False

    def check_solve_response(self, response: Dict[str, object]) -> Optional[str]:
        graph_id = str(response["id"])
        vertices = response.get("independent_set")
        if not isinstance(vertices, (list, tuple)):
            return "solve answer carries no independent_set list"
        bound = int(response["upper_bound"])  # type: ignore[arg-type]
        problem = check_bound(len(vertices), bound, bool(response["is_exact"]))
        if problem is not None:
            return problem
        problem = self._check_current(graph_id, vertices)
        if problem is not None and response.get("shed") \
                and self._check_earlier(graph_id, vertices):
            return None
        return problem
