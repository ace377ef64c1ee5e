"""Flat-buffer dominance machinery — NearLinear's production backend.

The second wave of the flat migration (the first flattened BDOne /
LinearTime, see :mod:`repro.core.workspace`): the paper's dominance
reduction (Section 5) re-implemented over the CSR buffers.

* :class:`FlatTriangleWorkspace` is the flat twin of
  :class:`~repro.core.dominance.TriangleWorkspace`.  Where the oracle keeps
  ``tri[u]: dict[neighbour, δ]``, the flat workspace stores the per-edge
  triangle counts in one flat buffer parallel to the adjacency buffer:
  slot ``i`` of ``adj`` holds a neighbour and slot ``i`` of ``tri`` holds
  δ of that edge.  Set intersections become membership tests against a
  shared *timestamped mark array* (``stamp[w] == clock``), so no per-step
  set or dict is ever allocated; clearing is O(1) — bump the clock.
* :func:`flat_one_pass_dominance` is the same idea applied to phase 1 of
  NearLinear: the degree-decreasing dominance sweep with stamp-based
  subset tests instead of per-vertex Python sets.

Both are drop-in replacements with **identical decision sequences**: the
flat slot order is the canonical adjacency order (rows start sorted;
deletions skip dead entries in place; rewiring retargets a slot without
moving it), and :meth:`TriangleWorkspace.rewire` preserves position on its
side so the differential tests can assert log-for-log equality.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import sub
from typing import List, Optional, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
from .bucket_queue import MaxDegreeSelector
from .hotpath import hot_loop
from .trace import DecisionLog
from .workspace import compact_remap

__all__ = ["FlatTriangleWorkspace", "flat_one_pass_dominance"]


@hot_loop
def flat_one_pass_dominance(graph: Graph) -> List[int]:
    """Degree-decreasing dominance sweep over flat CSR buffers.

    Returns the same removed-vertex list as
    :func:`~repro.core.dominance.one_pass_dominance`: the sweep visits
    vertices by initial degree descending, id ascending, and removes a
    vertex iff some live neighbour of no larger current degree dominates
    it.  The subset test ``N(v) ⊆ N(u) ∪ {u}`` is a stamp comparison per
    element, so no sets are built or mutated.

    A numpy preamble computes the sweep order (one stable argsort) and
    certifies the *leaf wave*: a vertex with an initial leaf neighbour is
    removed at its turn without any scan.  The leaf keeps degree one while
    its sole neighbour lives, and that neighbour comes first in the order
    (higher degree, or the smaller id of a K₂), so at the neighbour's turn
    the leaf dominates it — the degree-one case of dominance.
    """
    n = graph.n
    if n == 0:
        return []
    xadj, adj = graph.csr_arrays()  # read-only tuples: the sweep never mutates adjacency
    offsets = _np.array(xadj, dtype=_np.int64)
    degrees = _np.diff(offsets)
    is_leaf = degrees == 1
    leaves = _np.flatnonzero(is_leaf)
    certified = _np.zeros(n, dtype=_np.uint8)
    if leaves.size:
        # A leaf's row holds only its partner: one read per leaf.
        partner = _np.fromiter(
            map(adj.__getitem__, offsets[leaves].tolist()),
            dtype=_np.int64,
            count=int(leaves.size),
        )
        certified[partner[degrees[partner] >= 2]] = 1
        certified[leaves[is_leaf[partner] & (leaves < partner)]] = 1
    leaf_wave = certified.tobytes()
    order = _np.argsort(-degrees, kind="stable").tolist()
    # Liveness is folded into ``deg``: a removed vertex gets degree 0, and
    # a live vertex in a live vertex's row has degree >= 1.
    deg = degrees.tolist()
    stamp = [0] * n
    clock = 0
    removed: List[int] = []
    candidates: List[int] = []  # reused across iterations (hot-loop purity)
    for u in order:
        du = deg[u]
        if not du:
            continue
        row_u = adj[xadj[u] : xadj[u + 1]]
        dominated = leaf_wave[u] != 0
        if not dominated:
            clock += 1
            candidates.clear()
            for w in row_u:
                dw = deg[w]
                if dw:
                    stamp[w] = clock
                    if dw <= du:
                        if dw == 1:
                            # A leaf neighbour dominates u outright.
                            dominated = True
                            break
                        candidates.append(w)
            if not dominated and candidates:
                # Cheapest candidate first: a low-degree neighbour is both
                # the likeliest dominator and the cheapest subset test, and
                # the outcome is dominator-order independent.
                candidates.sort(key=deg.__getitem__)
                for v in candidates:
                    # v dominates u iff every other live neighbour of v is marked.
                    for x in adj[xadj[v] : xadj[v + 1]]:
                        if deg[x] and x != u and stamp[x] != clock:
                            break
                    else:
                        dominated = True
                        break
        if dominated:
            removed.append(u)
            deg[u] = 0
            for w in row_u:
                if deg[w]:
                    deg[w] -= 1
    return removed


class FlatTriangleWorkspace:
    """Flat CSR workspace with per-edge triangle counts for NearLinear.

    Public surface and decision behaviour are identical to
    :class:`~repro.core.dominance.TriangleWorkspace`; the representation is
    the flat layout of :class:`~repro.core.workspace.FlatWorkspace` plus:

    ``tri``
        Flat buffer of per-edge triangle counts, parallel to ``adj``:
        ``tri[i]`` is δ of the edge ``(v, adj[i])`` for any slot ``i`` in
        ``v``'s row.  Lemma 5.2's dominance test ``δ(v, u) = d(v) − 1``
        is then two flat reads.  (``adj``/``tri`` are plain lists rather
        than ``array('i')``: CPython boxes a fresh int on every typed-array
        indexed read, which measurably dominates the fused delete scan,
        while list reads hand back the already-boxed ids.)
    ``_stamp`` / ``_clock``
        The shared timestamped mark array: ``stamp[w] == clock`` means
        ``w`` is in the set currently being tested.  Resetting the set is
        a clock bump, so dominance maintenance never allocates.
    ``_stamp_slot``
        Parallel to ``_stamp``: the adjacency slot at which the marked
        vertex was seen, letting :meth:`settle_new_edge` update both
        directions of an edge without re-scanning the marking row.

    Dead vertices are dropped lazily: every row has a live-end pointer
    ``_rend[v]`` and :meth:`delete_vertex` *compacts* a row while scanning
    it — live entries shift toward ``xadj[v]``, preserving their relative
    order, and ``_rend[v]`` shrinks.  Rows therefore cost what the oracle's
    shrinking dicts cost, slots beyond ``_rend[v]`` are stale garbage that
    no scan may read, and the surviving slot order still mirrors the
    oracle's dict order — which is what makes the decision logs
    byte-identical.
    """

    __slots__ = (
        "graph",
        "n",
        "adj",
        "xadj",
        "tri",
        "deg",
        "alive",
        "log",
        "v1",
        "v2",
        "dominated",
        "_selector",
        "_hint",
        "_rend",
        "_stamp",
        "_stamp_slot",
        "_clock",
        "_nlive",
        "_live_deg_sum",
    )

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        n = self.n = graph.n
        offsets, targets = graph.csr_arrays()
        # Flat CSR storage as plain lists: the graph's cached tuples hold
        # the vertex ids pre-boxed, so ``list(...)`` is a pointer copy and
        # the hot loops never pay CPython's per-read int boxing the way
        # ``array('i')`` indexed reads do.
        self.xadj = offsets
        self.adj = list(targets)
        self.tri = [0] * len(targets)
        self.deg = list(map(sub, offsets[1:], offsets))
        self.alive = bytearray([1]) * n if n else bytearray()
        self.log = DecisionLog()
        self.v1: List[int] = []
        self.v2: List[int] = []
        self.dominated: List[int] = []
        self._selector: Optional[MaxDegreeSelector] = None
        self._hint = list(offsets[:-1])
        self._rend = list(offsets[1:])
        self._stamp = [0] * n
        self._stamp_slot = [0] * n
        self._clock = 0
        self._nlive = n
        self._live_deg_sum = len(targets)
        self._count_triangles()
        deg = self.deg
        for v in range(n):
            d = deg[v]
            if d == 0:
                self.alive[v] = 0
                self._nlive -= 1
                self.log.include(v)
            elif d == 1:
                self.v1.append(v)
            elif d == 2:
                self.v2.append(v)

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def _count_triangles(self) -> None:
        """Fill δ for every adjacency slot and seed ``dominated``.

        One sparse-matrix sweep, ``δ = (A² ∘ A)``;
        :meth:`_count_triangles_python` is the stamp-based reference the
        tests compare it against.
        """
        import numpy
        from scipy import sparse

        if self.n == 0 or not len(self.adj):
            return
        n = self.n
        indptr = numpy.asarray(self.xadj, dtype=numpy.int64)
        indices = numpy.asarray(self.adj, dtype=numpy.int64)
        data = numpy.ones(len(indices), dtype=numpy.int64)
        adjacency = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        counts = (adjacency @ adjacency).multiply(adjacency).tocsr()
        counts.sort_indices()
        # Scatter the counts into the parallel ``tri`` buffer without a
        # Python-level merge walk.  Both matrices are row-major with sorted
        # columns, so the composite key ``row·n + col`` is globally sorted
        # for each; the counts pattern is a subset of the adjacency pattern
        # (δ lives on edges), hence searchsorted yields each count's exact
        # adjacency slot.
        row_of_slot = numpy.repeat(
            numpy.arange(n, dtype=numpy.int64), numpy.diff(indptr)
        )
        adj_keys = row_of_slot * n + indices
        counts_rows = numpy.repeat(
            numpy.arange(n, dtype=numpy.int64), numpy.diff(counts.indptr)
        )
        count_keys = counts_rows * n + counts.indices
        slots = numpy.searchsorted(adj_keys, count_keys)
        tri = numpy.zeros(len(indices), dtype=numpy.int64)
        tri[slots] = counts.data
        self.tri = tri.tolist()
        # Seed the dominance worklist vectorised too: a slot (v, u) seeds
        # ``u`` when δ(v, u) = d(v) − 1.  Selecting by the global slot mask
        # preserves the oracle's append order (v ascending, row order).
        degrees = numpy.diff(indptr)
        self.dominated = indices[tri == degrees[row_of_slot] - 1].tolist()

    def _count_triangles_python(self) -> None:
        """Stamp-based reference: δ(u, v) = |N(u) ∩ N(v)| per edge u < v."""
        adj = self.adj
        xadj = self.xadj
        tri = self.tri
        stamp = self._stamp
        clock = self._clock
        for u in range(self.n):
            lo, hi = xadj[u], xadj[u + 1]
            if lo == hi:
                continue
            clock += 1
            for w in adj[lo:hi]:
                stamp[w] = clock
            for i in range(lo, hi):
                v = adj[i]
                if v < u:
                    continue
                delta = 0
                for x in adj[xadj[v] : xadj[v + 1]]:
                    if stamp[x] == clock:
                        delta += 1
                if delta:
                    tri[i] = delta
                    # Rows are sorted at construction time: binary-search
                    # the mirror slot (v, u).
                    tri[bisect_left(adj, u, xadj[v], xadj[v + 1])] = delta
        self._clock = clock

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """The current neighbours of ``v`` (skipping deleted vertices)."""
        alive = self.alive
        return [w for w in self.adj[self.xadj[v] : self._rend[v]] if alive[w]]

    def iter_live_neighbors(self, v: int) -> List[int]:
        """Current neighbours of ``v`` (eagerly materialised list)."""
        alive = self.alive
        return [w for w in self.adj[self.xadj[v] : self._rend[v]] if alive[w]]

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` exists (scan the smaller side)."""
        deg = self.deg
        if deg[u] > deg[v]:
            u, v = v, u
        if not self.alive[v]:
            return False
        return v in self.adj[self.xadj[u] : self._rend[u]]

    def is_dominated(self, u: int) -> bool:
        """Re-check: is ``u`` currently dominated by some neighbour?

        Lemma 5.2 over the flat buffers: two array reads per live
        neighbour, no set intersection.
        """
        deg = self.deg
        alive = self.alive
        lo = self.xadj[u]
        hi = self._rend[u]
        for v, count in zip(self.adj[lo:hi], self.tri[lo:hi]):
            if alive[v] and count == deg[v] - 1:
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
    # Worklist pops
    # ------------------------------------------------------------------
    def pop_degree_one(self) -> Optional[int]:
        """Pop a validated degree-one vertex, or ``None``."""
        alive = self.alive
        deg = self.deg
        v1 = self.v1
        while v1:
            v = v1.pop()
            if alive[v] and deg[v] == 1:
                return v
        return None

    def pop_degree_two(self) -> Optional[int]:
        """Pop a validated degree-two vertex, or ``None``."""
        alive = self.alive
        deg = self.deg
        v2 = self.v2
        while v2:
            v = v2.pop()
            if alive[v] and deg[v] == 2:
                return v
        return None

    def pop_dominated(self) -> Optional[int]:
        """Pop a *verified* dominated vertex (Algorithm 5 Line 8)."""
        alive = self.alive
        dominated = self.dominated
        is_dominated = self.is_dominated
        while dominated:
            u = dominated.pop()
            if alive[u] and is_dominated(u):
                return u
        return None

    def pop_max_degree(self) -> Optional[int]:
        """A live vertex of maximum degree (lazy bucket queue).

        Short-circuits when the graph is already consumed, so a run that
        never peels never builds the O(n + Δ) queue.
        """
        if self._selector is None:
            if self._nlive == 0:
                return None
            self._selector = MaxDegreeSelector(self.deg, self.alive)
        return self._selector.pop_max()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    @hot_loop
    def include(self, v: int) -> None:
        """Commit degree-zero ``v`` to the solution."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]
        self.log.include(v)

    @hot_loop
    def _refile(self, w: int) -> None:
        d = self.deg[w]
        if d == 0:
            self.include(w)
        elif d == 1:
            self.v1.append(w)
        elif d == 2:
            self.v2.append(w)

    @hot_loop
    def delete_vertex(self, u: int, reason: str = "exclude") -> None:
        """Delete ``u`` with full triangle/dominance maintenance.

        The Section 5 update rule over flat buffers: stamp N(u), then a
        single fused pass per neighbour ``v`` that (a) decrements δ of
        every stamped edge slot (each in-N(u) edge is seen once from each
        side), (b) surfaces new dominance candidates ``x`` with
        δ(v, x) = d(v) − 1, and (c) *compacts* the row — live entries
        shift to the front (order preserved) and ``_rend[v]`` shrinks, so
        dead slots are never rescanned.

        Fusing (a) and (b) is sound because all degree decrements happen
        before any row scan starts, and each row's δ slots are final once
        its own scan has passed them; the candidate append order (per
        neighbour, in row order) is exactly the oracle's.  No vertex dies
        between the scans and the re-file loop, so the alive tests see the
        same state the oracle's trailing candidate loop sees.
        """
        adj = self.adj
        xadj = self.xadj
        tri = self.tri
        deg = self.deg
        alive = self.alive
        stamp = self._stamp
        rend = self._rend
        alive[u] = 0
        self._nlive -= 1
        self._live_deg_sum -= 2 * deg[u]
        if reason == "peel":
            self.log.peel(u)
        else:
            self.log.exclude(u)
        clock = self._clock + 1
        self._clock = clock
        neighbours = []
        append = neighbours.append
        for w in adj[xadj[u] : rend[u]]:
            if alive[w]:
                stamp[w] = clock
                append(w)
                deg[w] -= 1
        dominated_append = self.dominated.append
        for v in neighbours:
            target = deg[v] - 1
            k = lo = xadj[v]
            hi = rend[v]
            for x, t in zip(adj[lo:hi], tri[lo:hi]):
                if alive[x]:
                    if stamp[x] == clock:
                        t -= 1
                    adj[k] = x
                    tri[k] = t
                    if t == target:
                        dominated_append(x)
                    k += 1
            rend[v] = k
        # Re-file degrees (candidates were surfaced in the fused pass).
        for v in neighbours:
            if alive[v]:
                self._refile(v)

    # ------------------------------------------------------------------
    # Path-reduction support (used by the shared Lemma 4.1 driver)
    # ------------------------------------------------------------------
    def remove_silently(self, v: int) -> None:
        """Mark a path-interior vertex dead; caller fixes endpoints.

        Interior vertices of a maximal degree-two path belong to no
        triangle, so no count maintenance is needed; neighbours skip the
        dead entry in place.
        """
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= self.deg[v]

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace the adjacency entry ``old`` with ``new`` in ``v``'s row.

        Same hint machinery as :class:`~repro.core.workspace.FlatWorkspace`
        (Lemma 4.1 retargets the same anchor slot on consecutive path
        reductions); δ of the just-created edge is reset to zero and later
        settled by :meth:`settle_new_edge` when both endpoints exist.
        """
        adj = self.adj
        i = self._hint[v]
        if adj[i] != old or not self.xadj[v] <= i < self._rend[v]:
            i = self.xadj[v]
            hi = self._rend[v]
            while adj[i] != old:
                i += 1
                if i >= hi:
                    raise ValueError(f"{old} is not an adjacency entry of {v}")
        adj[i] = new
        self.tri[i] = 0
        self._hint[v] = i

    def settle_new_edge(self, a: int, b: int) -> None:
        """Compute δ(a, b) for a just-created edge and propagate dominance.

        Mirrors the oracle exactly (Figure 4(e) update): stamp the smaller
        endpoint's... rather, the *larger* row is stamped and the smaller
        row scanned, so the common-neighbour order matches the oracle's
        iteration over the smaller row.  ``_stamp_slot`` remembers where in
        ``b``'s row each marked vertex sits, so the four per-common-vertex
        count updates need just one extra scan (of ``x``'s row).
        """
        adj = self.adj
        xadj = self.xadj
        tri = self.tri
        deg = self.deg
        alive = self.alive
        if deg[a] > deg[b]:
            a, b = b, a
        stamp = self._stamp
        slot_of = self._stamp_slot
        clock = self._clock + 1
        self._clock = clock
        rend = self._rend
        slot_b_a = -1
        for j in range(xadj[b], rend[b]):
            x = adj[j]
            if alive[x]:
                stamp[x] = clock
                slot_of[x] = j
                if x == a:
                    slot_b_a = j
        common: List[Tuple[int, int]] = []
        append = common.append
        slot_a_b = -1
        for i in range(xadj[a], rend[a]):
            x = adj[i]
            if not alive[x]:
                continue
            if x == b:
                slot_a_b = i
            elif stamp[x] == clock:
                append((x, i))
        delta = len(common)
        tri[slot_a_b] = delta
        tri[slot_b_a] = delta
        dominated = self.dominated
        deg_a_target = deg[a] - 1
        deg_b_target = deg[b] - 1
        for x, slot_a_x in common:
            slot_x_a = slot_x_b = -1
            for j in range(xadj[x], rend[x]):
                w = adj[j]
                if w == a:
                    slot_x_a = j
                elif w == b:
                    slot_x_b = j
            slot_b_x = slot_of[x]
            tri[slot_x_a] += 1
            tri[slot_a_x] += 1
            tri[slot_x_b] += 1
            tri[slot_b_x] += 1
            target = deg[x] - 1
            if tri[slot_x_a] == target:
                dominated.append(a)
            if tri[slot_x_b] == target:
                dominated.append(b)
            if tri[slot_a_x] == deg_a_target:
                dominated.append(x)
            if tri[slot_b_x] == deg_b_target:
                dominated.append(x)
        if delta == deg_a_target:
            dominated.append(b)
        if delta == deg_b_target:
            dominated.append(a)

    def decrement_degree(self, v: int) -> None:
        """Degree bookkeeping for an even-path anchor (Figure 4(d)).

        d(v) drops while the triangle counts of v's edges stay put, so v
        may newly dominate a neighbour.
        """
        self.deg[v] -= 1
        self._live_deg_sum -= 1
        self._refile(v)
        if not self.alive[v]:
            return
        alive = self.alive
        target = self.deg[v] - 1
        dominated = self.dominated
        lo = self.xadj[v]
        hi = self._rend[v]
        for x, count in zip(self.adj[lo:hi], self.tri[lo:hi]):
            if alive[x] and count == target:
                dominated.append(x)

    def refile(self, v: int) -> None:
        """Public re-file hook after a degree-preserving rewiring."""
        self._refile(v)

    # ------------------------------------------------------------------
    # Kernel export
    # ------------------------------------------------------------------
    def export_kernel(self) -> Tuple[Graph, List[int]]:
        """Compacted live residual graph plus the id mapping."""
        alive = self.alive
        adj = self.adj
        xadj = self.xadj
        remap, old_ids = compact_remap(alive, self.n)
        rend = self._rend
        offsets = [0]
        targets: List[int] = []
        extend = targets.extend
        for old in old_ids:
            row = sorted(
                remap[w] for w in adj[xadj[old] : rend[old]] if alive[w]
            )
            extend(row)
            offsets.append(len(targets))
        name = f"{self.graph.name}-kernel" if self.graph.name else "kernel"
        return Graph(offsets, targets, name=name), old_ids
