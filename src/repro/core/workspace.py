"""Mutable run-time graph state for the adjacency-array algorithms.

Two interchangeable backends implement the same mutation protocol:

* :class:`ArrayWorkspace` — the original list-of-lists backend, kept as the
  readable correctness oracle.  It mirrors the paper's 2m + O(n) memory
  discipline: the adjacency arrays copied from the input graph never grow —
  vertices are *marked* deleted (Section 3.2, "Implementation Details") and
  the degree-two path reductions mutate adjacency entries in place instead
  of inserting edges (Section 4, "Analysis and Implementation Details").
* :class:`FlatWorkspace` — the production backend: one flat ``array('i')``
  of adjacency targets indexed by the graph's CSR offsets, flat degree and
  alive buffers, incrementally maintained live-vertex/live-edge counters,
  and a per-vertex position hint that makes repeated rewiring of the same
  slot O(1).  Construction is a C-level buffer copy instead of ``n`` list
  allocations.  This is the layout the paper itself describes (Section 2).

Both workspaces own the degree-one / degree-two worklists (``V₌₁`` / ``V₌₂``
in the pseudocode), the lazy max-degree selector used by peeling, and the
:class:`~repro.core.trace.DecisionLog` that later reconstructs the solution.
Worklists are lazy stacks: vertices are pushed whenever their degree *reaches*
the target value and validated on pop, so each vertex may appear several
times but total queue traffic is bounded by the number of degree decrements,
i.e. O(m).

Given the same graph, the two backends make **identical decision sequences**:
adjacency rows start in the same (sorted) order, rewiring replaces the same
(unique) entry, and deletions re-file neighbours in the same order — a
property the differential test suite asserts log-for-log.
"""

from __future__ import annotations

from array import array
from operator import sub
from typing import List, Optional, Sequence, Tuple

from ..graphs.static_graph import Graph
from .bucket_queue import MaxDegreeSelector
from .trace import DecisionLog

__all__ = ["ArrayWorkspace", "FlatWorkspace", "compact_remap"]


def compact_remap(alive: Sequence[int], n: int) -> Tuple[array, List[int]]:
    """Flat old→new id map over the live vertices.

    Returns ``(remap, old_ids)`` where ``remap`` is an ``array('i')`` of
    length ``n`` holding the compacted new id of every live vertex (dead
    vertices map to ``-1``) and ``old_ids[new] = old``.  Shared by every
    workspace's ``export_kernel`` so kernel compaction needs no ``{old:
    new}`` dict of boxed pairs.
    """
    remap = array("i", bytes(4 * n))  # zero-filled
    old_ids: List[int] = []
    append = old_ids.append
    new = 0
    for v in range(n):
        if alive[v]:
            remap[v] = new
            append(v)
            new += 1
        else:
            remap[v] = -1
    return remap, old_ids


class ArrayWorkspace:
    """Deletion-tolerant adjacency-array state shared by BDOne/LinearTime."""

    __slots__ = (
        "graph",
        "n",
        "adj",
        "deg",
        "alive",
        "log",
        "v1",
        "v2",
        "_selector",
        "_nlive",
        "_live_deg_sum",
    )

    def __init__(self, graph: Graph, track_degree_two: bool = False) -> None:
        self.graph = graph
        self.n = graph.n
        self.adj: List[List[int]] = graph.adjacency_lists()
        self.deg: List[int] = graph.degrees()
        self.alive = bytearray([1]) * graph.n if graph.n else bytearray()
        self.log = DecisionLog()
        self.v1: List[int] = []
        self.v2: List[int] = []
        self._selector: Optional[MaxDegreeSelector] = None
        self._nlive = self.n
        self._live_deg_sum = 2 * graph.m
        for v in range(self.n):
            d = self.deg[v]
            if d == 0:
                self.alive[v] = 0
                self._nlive -= 1
                self.log.include(v)
            elif d == 1:
                self.v1.append(v)
            elif d == 2 and track_degree_two:
                self.v2.append(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """The current neighbours of ``v`` (skipping deleted vertices)."""
        alive = self.alive
        return [w for w in self.adj[v] if alive[w]]

    def iter_live_neighbors(self, v: int) -> List[int]:
        """Generator over current neighbours of ``v``."""
        alive = self.alive
        return (w for w in self.adj[v] if alive[w])

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` exists.

        Scans the smaller current neighbourhood, as the paper does instead
        of hashing all edges (Section 4, implementation details).
        """
        if self.deg[u] > self.deg[v]:
            u, v = v, u
        alive = self.alive
        for w in self.adj[u]:
            if w == v and alive[w]:
                return True
        return False

    @property
    def live_vertex_count(self) -> int:
        """Number of not-yet-deleted vertices (O(1), counter-maintained)."""
        return self._nlive

    def live_edge_count(self) -> int:
        """Number of live edges (O(1), counter-maintained)."""
        return self._live_deg_sum // 2

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def pop_degree_one(self) -> Optional[int]:
        """Pop a validated degree-one vertex, or ``None`` if V₌₁ is empty."""
        while self.v1:
            v = self.v1.pop()
            if self.alive[v] and self.deg[v] == 1:
                return v
        return None

    def pop_degree_two(self) -> Optional[int]:
        """Pop a validated degree-two vertex, or ``None`` if V₌₂ is empty."""
        while self.v2:
            v = self.v2.pop()
            if self.alive[v] and self.deg[v] == 2:
                return v
        return None

    def include(self, v: int) -> None:
        """Commit ``v`` (degree zero) to the independent set."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        self.log.include(v)

    def delete_vertex(self, v: int, reason: str = "exclude") -> None:
        """Remove ``v`` and its edges; ``reason`` is ``exclude`` or ``peel``.

        Mirrors the paper's ``DeleteVertex``: each live neighbour's degree
        drops and the neighbour is re-filed into the appropriate worklist
        (or committed to the solution at degree zero).
        """
        alive = self.alive
        deg = self.deg
        alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= deg[v]
        if reason == "peel":
            self.log.peel(v)
        else:
            self.log.exclude(v)
        for w in self.adj[v]:
            if alive[w]:
                deg[w] -= 1
                self._live_deg_sum -= 1
                self._refile(w)

    def remove_silently(self, v: int) -> None:
        """Mark ``v`` dead without logging or touching neighbour degrees.

        Used by the path reductions for interior path vertices whose fate
        is deferred to the reconstruction stack; callers are responsible
        for fixing the degrees of the surviving endpoints.
        """
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace the adjacency entry ``old`` with ``new`` in ``adj[v]``.

        This is the in-place edge modification of Section 4 that lets
        LinearTime "add" the edges of Figures 4(c)/4(e) without growing
        any adjacency array.
        """
        row = self.adj[v]
        row[row.index(old)] = new

    def settle_new_edge(self, a: int, b: int) -> None:
        """No-op hook: the array workspace keeps no per-edge metadata.

        The triangle workspace overrides this to recompute δ(a, b) after a
        Figure 4(e) rewiring; having the hook here lets both workspaces
        share the Lemma 4.1 driver.
        """

    def decrement_degree(self, v: int) -> None:
        """Drop ``deg(v)`` by one and re-file ``v`` (endpoint bookkeeping)."""
        self.deg[v] -= 1
        self._live_deg_sum -= 1
        self._refile(v)

    def refile(self, v: int) -> None:
        """Public re-file hook (after a rewire that kept the degree)."""
        self._refile(v)

    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    # ------------------------------------------------------------------
    # Peeling support
    # ------------------------------------------------------------------
    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue; O(m) total)."""
        if self._selector is None:
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()

    # ------------------------------------------------------------------
    # Kernel export
    # ------------------------------------------------------------------
    def export_kernel(self) -> Tuple[Graph, List[int]]:
        """The live residual graph, compacted, plus the id mapping.

        Returns ``(kernel, old_ids)`` with ``old_ids[new] = original id``.
        Used when an algorithm stops right before its first peel to hand
        the kernel to a downstream solver (Section 6).
        """
        alive = self.alive
        remap, old_ids = compact_remap(alive, self.n)
        offsets = [0]
        targets: List[int] = []
        for old in old_ids:
            row = sorted(remap[w] for w in self.adj[old] if alive[w])
            targets.extend(row)
            offsets.append(len(targets))
        name = f"{self.graph.name}-kernel" if self.graph.name else "kernel"
        return Graph(offsets, targets, name=name), old_ids


class FlatWorkspace:
    """Flat-buffer CSR workspace — the cache-friendly production backend.

    Public surface and decision behaviour are identical to
    :class:`ArrayWorkspace`; the representation differs:

    ``adj``
        One flat ``array('i')`` holding every adjacency entry, a mutable
        copy of the graph's cached CSR target buffer (2m words).
    ``xadj``
        The graph's CSR offsets (``array('q')``, shared read-only);
        vertex ``v``'s entries live at ``adj[xadj[v] : xadj[v + 1]]``.
    ``deg`` / ``alive``
        Flat ``array('i')`` / ``bytearray`` buffers (O(n) words).

    Live-vertex and live-edge counts are maintained incrementally on every
    mutation, so kernel snapshots and progress reporting are O(1) instead
    of an O(n) rescan.  ``rewire`` keeps a per-vertex position hint: the
    Lemma 4.1 rewirings repeatedly retarget the *same* adjacency slot of a
    path anchor, so the hint turns the entry search into O(1) amortised.
    """

    __slots__ = (
        "graph",
        "n",
        "adj",
        "xadj",
        "deg",
        "alive",
        "log",
        "v1",
        "v2",
        "_selector",
        "_hint",
        "_nlive",
        "_live_deg_sum",
    )

    def __init__(self, graph: Graph, track_degree_two: bool = False) -> None:
        self.graph = graph
        n = self.n = graph.n
        offsets, targets = graph.flat_csr()
        self.xadj = offsets
        self.adj = targets[:]  # C-level memcpy; rewiring mutates the copy
        self.deg = array("i", map(sub, offsets[1:], offsets))
        self.alive = bytearray([1]) * n if n else bytearray()
        self.log = DecisionLog()
        self.v1: List[int] = []
        self.v2: List[int] = []
        self._selector: Optional[MaxDegreeSelector] = None
        self._hint = array("q", offsets[:-1]) if n else array("q")
        self._nlive = n
        self._live_deg_sum = len(targets)
        deg = self.deg
        log_include = self.log.include
        alive = self.alive
        v1_append = self.v1.append
        v2_append = self.v2.append
        for v in range(n):
            d = deg[v]
            if d > 2:
                continue
            if d == 0:
                alive[v] = 0
                self._nlive -= 1
                log_include(v)
            elif d == 1:
                v1_append(v)
            elif track_degree_two:
                v2_append(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """The current neighbours of ``v`` (skipping deleted vertices)."""
        alive = self.alive
        xadj = self.xadj
        return [w for w in self.adj[xadj[v] : xadj[v + 1]] if alive[w]]

    def iter_live_neighbors(self, v: int) -> List[int]:
        """Current neighbours of ``v`` (an iterable; eagerly materialised —
        a list comprehension over the row slice beats generator resumption
        on the short rows the path driver walks)."""
        alive = self.alive
        xadj = self.xadj
        return [w for w in self.adj[xadj[v] : xadj[v + 1]] if alive[w]]

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` exists (scan the smaller side)."""
        deg = self.deg
        if deg[u] > deg[v]:
            u, v = v, u
        if not self.alive[v]:
            return False
        xadj = self.xadj
        return v in self.adj[xadj[u] : xadj[u + 1]]

    @property
    def live_vertex_count(self) -> int:
        """Number of not-yet-deleted vertices (O(1), counter-maintained)."""
        return self._nlive

    def live_edge_count(self) -> int:
        """Number of live edges (O(1), counter-maintained)."""
        return self._live_deg_sum // 2

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def pop_degree_one(self) -> Optional[int]:
        """Pop a validated degree-one vertex, or ``None`` if V₌₁ is empty."""
        alive = self.alive
        deg = self.deg
        v1 = self.v1
        while v1:
            v = v1.pop()
            if alive[v] and deg[v] == 1:
                return v
        return None

    def pop_degree_two(self) -> Optional[int]:
        """Pop a validated degree-two vertex, or ``None`` if V₌₂ is empty."""
        alive = self.alive
        deg = self.deg
        v2 = self.v2
        while v2:
            v = v2.pop()
            if alive[v] and deg[v] == 2:
                return v
        return None

    def include(self, v: int) -> None:
        """Commit ``v`` (degree zero) to the independent set."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        self.log.include(v)

    def delete_vertex(self, v: int, reason: str = "exclude") -> None:
        """Remove ``v`` and its edges (degree drop + re-file per neighbour)."""
        alive = self.alive
        deg = self.deg
        adj = self.adj
        xadj = self.xadj
        alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= deg[v]
        if reason == "peel":
            self.log.peel(v)
        else:
            self.log.exclude(v)
        v1_append = self.v1.append
        v2_append = self.v2.append
        removed = 0
        for w in adj[xadj[v] : xadj[v + 1]]:
            if alive[w]:
                removed += 1
                d = deg[w] - 1
                deg[w] = d
                if d == 1:
                    v1_append(w)
                elif d == 2:
                    v2_append(w)
                elif d == 0:
                    alive[w] = 0
                    self._nlive -= 1
                    self.log.include(w)
        self._live_deg_sum -= removed

    def remove_silently(self, v: int) -> None:
        """Mark ``v`` dead without logging or touching neighbour degrees."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace the adjacency entry ``old`` with ``new`` in ``v``'s row.

        Starts the search at the per-vertex hint — Lemma 4.1 retargets the
        same anchor slot on consecutive path reductions, so the common case
        is O(1); otherwise the row (never containing duplicates) is scanned
        once and the hint updated.
        """
        adj = self.adj
        i = self._hint[v]
        if adj[i] != old or not self.xadj[v] <= i < self.xadj[v + 1]:
            i = self.xadj[v]
            hi = self.xadj[v + 1]
            while adj[i] != old:
                i += 1
                if i >= hi:
                    raise ValueError(f"{old} is not an adjacency entry of {v}")
        adj[i] = new
        self._hint[v] = i

    def settle_new_edge(self, a: int, b: int) -> None:
        """No-op hook: the flat workspace keeps no per-edge metadata."""

    def decrement_degree(self, v: int) -> None:
        """Drop ``deg(v)`` by one and re-file ``v`` (endpoint bookkeeping)."""
        self.deg[v] -= 1
        self._live_deg_sum -= 1
        self._refile(v)

    def refile(self, v: int) -> None:
        """Public re-file hook (after a rewire that kept the degree)."""
        self._refile(v)

    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    # ------------------------------------------------------------------
    # Peeling support
    # ------------------------------------------------------------------
    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue; O(m) total).

        Short-circuits when the graph is already consumed, so a run that
        never peels never builds the O(n + Δ) queue.
        """
        if self._selector is None:
            if self._nlive == 0:
                return None
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()

    # ------------------------------------------------------------------
    # Kernel export
    # ------------------------------------------------------------------
    def export_kernel(self) -> Tuple[Graph, List[int]]:
        """The live residual graph, compacted, plus the id mapping."""
        alive = self.alive
        adj = self.adj
        xadj = self.xadj
        remap, old_ids = compact_remap(alive, self.n)
        offsets = [0]
        targets: List[int] = []
        extend = targets.extend
        for old in old_ids:
            row = sorted(
                remap[w] for w in adj[xadj[old] : xadj[old + 1]] if alive[w]
            )
            extend(row)
            offsets.append(len(targets))
        name = f"{self.graph.name}-kernel" if self.graph.name else "kernel"
        return Graph(offsets, targets, name=name), old_ids
