"""Vectorized frontier-sweep backend — batch reducing-peeling in numpy.

The flat CSR drivers (:mod:`repro.core.workspace`,
:mod:`repro.core.bdone`, :mod:`repro.core.linear_time`) removed the
per-reduction attribute lookups and method calls, but every degree-one
reduction still costs a handful of interpreter bytecodes.  This module
removes the interpreter from the inner loop entirely: reductions run in
**rounds**.  Each round collects the whole currently-eligible degree-one
frontier as one numpy index array, resolves every reduction in the batch
with vectorized CSR operations (batched neighbour gathers, hybrid
``np.bincount`` / ``np.subtract.at`` degree updates, boolean liveness
masks), and appends
the equivalent per-vertex records to the :class:`~repro.core.trace.DecisionLog`
— so :meth:`DecisionLog.resolve` and replay consume vectorized logs exactly
like flat or legacy ones.

The round algebra (one :func:`_degree_one_rounds` sweep):

1. merge the scalar ``v1`` worklist into the pending frontier, validate
   (`alive` and ``deg == 1``) and de-duplicate;
2. gather each frontier vertex's sole live neighbour with one ragged
   segment gather (every validated degree-one vertex has exactly one);
3. split off mutual K₂ pairs (``deg[target] == 1``): the larger id is
   included, the smaller excluded — the same decision the flat LIFO pop
   makes; all remaining targets are excluded;
4. mark everything dying *before* gathering the dying rows, so the
   liveness mask drops intra-batch edges automatically, then decrement
   the surviving neighbours — a dense ``np.bincount`` pass when the
   round touches a large fraction of the graph, ``np.subtract.at`` for
   small rounds (keeps long-chain graphs O(m) total);
5. classify the survivors by new degree: 0 → include now, 1 → next
   round's frontier, 2 → the degree-two worklist.

Degree-two path reductions and peels run batched as well (PR7): the
drivers delegate to :mod:`repro.core.vec_paths`, which walks chains over
a gathered neighbour-pair cache and resolves deletions row-at-a-time
while producing the *same decision log* as the scalar protocol (the
drivers accept ``batch_rounds=False`` to run the scalar path driver
unchanged — the differential tests assert entry-for-entry log equality
between the two modes).  :class:`VecWorkspace` still implements the
complete mutation protocol of :class:`~repro.core.workspace.FlatWorkspace`
over its numpy buffers, which lets it share the Lemma 4.1 path driver, the
lazy max-degree selector and every generic consumer (instrumentation,
kernel export, the serve layer) unchanged.

The decision *sequence* may differ from the flat backend inside a round
(batch order instead of LIFO order), so the differential contract is the
canonicalized one: a valid independent set of identical size, with the
log replaying cleanly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
from ..obs.telemetry import get_telemetry, phase
from .bucket_queue import MaxDegreeSelector
from .degree_two_paths import RULE_IRREDUCIBLE, apply_degree_two_path_reduction
from .hotpath import hot_loop
from .result import STAT_DEGREE_ONE, STAT_PEEL, MISResult
from .trace import EXCLUDE, INCLUDE, DecisionLog
from .vec_paths import PathPairCache, run_path_rounds, vec_delete_vertex

__all__ = [
    "VecWorkspace",
    "bdone_vec",
    "linear_time_vec",
    "linear_time_vec_reduce",
]


class VecWorkspace:
    """Numpy-buffer workspace driving the batch frontier sweeps.

    State mirrors :class:`~repro.core.workspace.FlatWorkspace` — CSR
    offsets/targets, flat degree and liveness buffers, scalar ``v1``/``v2``
    worklists, incrementally maintained live counters — but the buffers are
    numpy arrays (``int64`` offsets, ``int32`` targets/degrees, ``uint8``
    liveness) so whole frontiers can be indexed at once.  The scalar
    mutation protocol is implemented in full: the shared degree-two path
    driver, the peeling selector, instrumented subclasses and kernel export
    all work unchanged; only the degree-one cascade runs vectorized.
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
        "_track2",
        "_nlive",
        "_live_deg_sum",
        "_rounds",
        "_pair_pending",
        "_v2_filter_at",
    )

    def __init__(self, graph: Graph, track_degree_two: bool = False) -> None:
        np = _np
        self.graph = graph
        n = self.n = graph.n
        offsets, targets = graph.flat_csr()
        if n:
            self.xadj = np.frombuffer(offsets, dtype=np.int64)
        else:
            self.xadj = np.zeros(1, dtype=np.int64)
        if len(targets):
            self.adj = np.frombuffer(targets, dtype=np.int32).copy()
        else:
            self.adj = np.zeros(0, dtype=np.int32)
        self.deg = np.diff(self.xadj).astype(np.int32)
        self.alive = np.ones(n, dtype=np.uint8)
        self.log = DecisionLog()
        self._selector: Optional[MaxDegreeSelector] = None
        self._track2 = track_degree_two
        self._nlive = n
        self._live_deg_sum = int(len(targets))
        self._rounds = 0
        # Batched path rounds install a list here; the sweep then feeds it
        # every new degree-two arrival so pair gathers stay incremental.
        self._pair_pending: Optional[List[Any]] = None
        self._v2_filter_at = 512
        zeros = np.flatnonzero(self.deg == 0)
        if zeros.size:
            self.alive[zeros] = 0
            self._nlive -= int(zeros.size)
            self.log.record_many(INCLUDE, zeros)
        self.v1: List[int] = np.flatnonzero(self.deg == 1).tolist()
        if track_degree_two:
            self.v2: List[int] = np.flatnonzero(self.deg == 2).tolist()
        else:
            self.v2 = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_neighbors(self, v: int) -> List[int]:
        """The current neighbours of ``v`` (skipping deleted vertices), as
        Python ints."""
        row = self.adj[self.xadj[v] : self.xadj[v + 1]]
        result: List[int] = row[self.alive[row] != 0].tolist()
        return result

    iter_live_neighbors = live_neighbors

    def has_live_edge(self, u: int, v: int) -> bool:
        """Whether the live edge ``(u, v)`` exists (scan the smaller side)."""
        deg = self.deg
        if deg[u] > deg[v]:
            u, v = v, u
        if not self.alive[v]:
            return False
        xadj = self.xadj
        row = self.adj[xadj[u] : xadj[u + 1]]
        return bool((row == v).any())

    @property
    def live_vertex_count(self) -> int:
        """Number of not-yet-deleted vertices (O(1), counter-maintained)."""
        return self._nlive

    def live_edge_count(self) -> int:
        """Number of live edges (O(1), counter-maintained)."""
        return self._live_deg_sum // 2

    # ------------------------------------------------------------------
    # Mutations (scalar protocol, shared with the path driver)
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
        """Pop a validated degree-two vertex, or ``None`` if V₌₂ is empty.

        Long stale runs (vertices consumed by sweeps after being filed)
        are compacted with one vectorized mask instead of popping one
        numpy-scalar check at a time.  The filter keeps order, so the pop
        sequence over *valid* entries is unchanged; the doubling threshold
        amortizes each O(|V₌₂|) compaction against the appends since the
        previous one.
        """
        alive = self.alive
        deg = self.deg
        v2 = self.v2
        if len(v2) >= self._v2_filter_at:
            arr = _np.asarray(v2, dtype=_np.int32)
            v2 = arr[(alive[arr] != 0) & (deg[arr] == 2)].tolist()
            self.v2 = v2
            self._v2_filter_at = max(512, 2 * len(v2))
        while v2:
            v = v2.pop()
            if alive[v] and deg[v] == 2:
                return v
        return None

    def include(self, v: int) -> None:
        """Commit ``v`` (degree zero) to the independent set."""
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= int(self.deg[v])
        self.log.include(int(v))

    def delete_vertex(self, v: int, reason: str = "exclude") -> None:
        """Remove ``v`` and its edges (degree drop + re-file per neighbour)."""
        alive = self.alive
        deg = self.deg
        self.alive[v] = 0
        self._nlive -= 1
        self._live_deg_sum -= int(deg[v])
        if reason == "peel":
            self.log.peel(int(v))
        else:
            self.log.exclude(int(v))
        v1_append = self.v1.append
        v2_append = self.v2.append
        xadj = self.xadj
        removed = 0
        for w in self.adj[xadj[v] : xadj[v + 1]].tolist():
            if alive[w]:
                removed += 1
                d = int(deg[w]) - 1
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
        self._live_deg_sum -= int(self.deg[v])

    def rewire(self, v: int, old: int, new: int) -> None:
        """Replace the adjacency entry ``old`` with ``new`` in ``v``'s row."""
        np = _np
        lo = int(self.xadj[v])
        hi = int(self.xadj[v + 1])
        hits = np.flatnonzero(self.adj[lo:hi] == old)
        if hits.size == 0:
            raise ValueError(f"{old} is not an adjacency entry of {v}")
        self.adj[lo + int(hits[0])] = new

    def settle_new_edge(self, a: int, b: int) -> None:
        """No-op hook: the vectorized workspace keeps no per-edge metadata."""

    def decrement_degree(self, v: int) -> None:
        """Drop ``deg(v)`` by one and re-file ``v`` (endpoint bookkeeping)."""
        self.deg[v] -= 1
        self._live_deg_sum -= 1
        self._refile(v)

    def refile(self, v: int) -> None:
        """Public re-file hook (after a rewire that kept the degree)."""
        self._refile(v)

    def _refile(self, w: int) -> None:
        d = int(self.deg[w])
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

        Short-circuits when the graph is already consumed — the common case
        for LinearTime on sparse inputs, where building the selector would
        be the only O(n) Python scan left in the run.
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
        """The live residual graph, compacted, plus the id mapping.

        One vectorized pass: live slots are selected with a boolean mask
        (row and target both alive), remapped through the cumulative-sum
        id map and sorted per row with a single ``lexsort`` — the same
        sorted-row kernel :meth:`FlatWorkspace.export_kernel` builds.
        """
        np = _np
        alive_mask = self.alive != 0
        old_ids: List[int] = np.flatnonzero(alive_mask).tolist()
        name = f"{self.graph.name}-kernel" if self.graph.name else "kernel"
        if not old_ids:
            return Graph([0], [], name=name), old_ids
        remap = np.cumsum(alive_mask.astype(np.int64)) - 1
        slot_rows = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.xadj)
        )
        live_slots = alive_mask[self.adj] & alive_mask[slot_rows]
        rows = remap[slot_rows[live_slots]]
        tgts = remap[self.adj[live_slots]]
        order = np.lexsort((tgts, rows))
        counts = np.bincount(rows, minlength=len(old_ids))
        offsets = np.zeros(len(old_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return (
            Graph(offsets.tolist(), tgts[order].tolist(), name=name),
            old_ids,
        )


@hot_loop
def _degree_one_rounds(workspace: VecWorkspace) -> Tuple[int, int]:
    """Drain the degree-one frontier in vectorized rounds.

    Merges the scalar ``v1`` worklist into the pending frontier, then
    repeats: validate & de-duplicate the frontier, gather every member's
    sole live neighbour in one ragged segment gather, resolve the batch
    (K₂ pairs keep the larger id, every other target is excluded), mark the
    dying wave dead, decrement the surviving neighbours with one scatter,
    and classify the crossings (0 → include, 1 → next frontier, 2 → V₌₂).

    Returns ``(excluded, rounds)``: the number of degree-one applications
    (one per excluded vertex, matching the flat driver's counter) and the
    number of non-empty rounds.  Counter deltas are flushed to the
    workspace before returning, so the scalar protocol sees consistent
    state.
    """
    np = _np
    np_unique = np.unique
    np_concatenate = np.concatenate
    np_asarray = np.asarray
    np_repeat = np.repeat
    np_arange = np.arange
    np_cumsum = np.cumsum
    np_empty = np.empty
    np_bincount = np.bincount
    np_flatnonzero = np.flatnonzero
    np_subtract = np.subtract
    subtract_at = np.subtract.at
    int32 = np.int32
    int64 = np.int64
    n = workspace.n
    adj = workspace.adj
    xadj = workspace.xadj
    deg = workspace.deg
    alive = workspace.alive
    v1 = workspace.v1
    v2_extend = workspace.v2.extend
    record_many = workspace.log.record_many
    track2 = workspace._track2
    pair_pending = workspace._pair_pending
    pending = np_empty(0, dtype=int32)
    excluded = 0
    rounds = 0
    nlive_drop = 0
    deg_sum_drop = 0
    while True:
        if v1:
            # The scalar worklist may hold duplicates and already-settled
            # vertices; merging forces a de-dup.  Between rounds nothing
            # touches ``v1``, and the round's own product
            # (``affected[new_deg == 1]``) is sorted-unique by
            # construction, so this branch runs once per sweep in the
            # common case — ``np.unique`` stays off the per-round path.
            pending = np_unique(
                np_concatenate((pending, np_asarray(v1, dtype=int32)))
            )
            v1.clear()
        if pending.size == 0:
            break
        frontier = pending[(alive[pending] != 0) & (deg[pending] == 1)]
        pending = np_empty(0, dtype=int32)
        fsize = int(frontier.size)
        if fsize == 0:
            continue
        rounds += 1
        # -- sole live neighbour per frontier vertex (ragged gather) ----
        starts = xadj[frontier]
        lens = xadj[frontier + 1] - starts
        total = int(lens.sum())
        seg_ends = np_cumsum(lens)
        pos = np_arange(total, dtype=int64) - np_repeat(seg_ends - lens, lens)
        pos += np_repeat(starts, lens)
        nbrs = adj[pos]
        live_slots = alive[nbrs] != 0
        seg = np_repeat(np_arange(fsize, dtype=int64), lens)
        target = np_empty(fsize, dtype=int32)
        target[seg[live_slots]] = nbrs[live_slots]
        # -- split mutual K₂ pairs from ordinary targets ----------------
        pair = deg[target] == 1
        pair_u = frontier[pair]
        pair_v = target[pair]
        win = pair_u > pair_v
        included_pair = pair_u[win]
        dying = np_unique(np_concatenate((target[~pair], pair_v[win])))
        # -- mark the wave dead, then decrement the survivors -----------
        d_dying = int(deg[dying].sum()) + int(included_pair.size)
        alive[dying] = 0
        alive[included_pair] = 0
        nlive_drop += int(dying.size) + int(included_pair.size)
        starts = xadj[dying]
        lens = xadj[dying + 1] - starts
        total = int(lens.sum())
        seg_ends = np_cumsum(lens)
        pos = np_arange(total, dtype=int64) - np_repeat(seg_ends - lens, lens)
        pos += np_repeat(starts, lens)
        touched = adj[pos]
        touched = touched[alive[touched] != 0]
        tsize = int(touched.size)
        deg_sum_drop += d_dying + tsize
        # -- decrement the survivors & classify the crossings -----------
        # Two strategies with the same result: a dense bincount (O(n) per
        # round, one pass, no sort) when the round touches a sizable slice
        # of the graph, and sparse ``np.subtract.at`` + ``np.unique``
        # (O(t log t), no O(n) term) for tiny rounds — long chains produce
        # O(n) one-vertex rounds, where a dense pass per round would be
        # quadratic.
        if tsize * 8 >= n:
            delta = np_bincount(touched, minlength=n)
            np_subtract(deg, delta, out=deg, casting="unsafe")
            affected = np_flatnonzero(delta)
        else:
            subtract_at(deg, touched, 1)
            affected = np_unique(touched)
        new_deg = deg[affected]
        crossed_zero = affected[new_deg == 0]
        alive[crossed_zero] = 0
        nlive_drop += int(crossed_zero.size)
        record_many(EXCLUDE, dying)
        record_many(INCLUDE, included_pair)
        record_many(INCLUDE, crossed_zero)
        excluded += int(dying.size)
        if track2:
            twos = affected[new_deg == 2]
            v2_extend(twos.tolist())
            if pair_pending is not None:
                # Announce the arrivals to the path-round pair cache: each
                # vertex is gathered at most once per time it *becomes*
                # degree-two, which (degrees only fall) is once.
                pair_pending.append(twos)
        pending = affected[new_deg == 1]
    workspace._nlive -= nlive_drop
    workspace._live_deg_sum -= deg_sum_drop
    workspace._rounds += rounds
    return excluded, rounds


def _sweep(workspace: VecWorkspace, telemetry: Any, algorithm: str) -> int:
    """One frontier sweep, under a ``vec-sweep`` span when telemetry is on.

    The span carries the round counter and the batch size, giving traces
    the per-sweep granularity that per-event instrumentation cannot see
    once reductions run in bulk.
    """
    if telemetry is None or not workspace.v1:
        excluded, _ = _degree_one_rounds(workspace)
        return excluded
    with phase(
        telemetry, "vec-sweep", algorithm=algorithm, graph=workspace.graph.name
    ) as span:
        excluded, rounds = _degree_one_rounds(workspace)
        span.meta["rounds"] = rounds
        span.meta["excluded"] = excluded
    return excluded


def drive_linear_time_vec(
    workspace: VecWorkspace, stop_before_peel: bool, batch_rounds: bool = True
) -> bool:
    """LinearTime over the vectorized workspace.

    Degree-one reductions run in batch rounds.  With ``batch_rounds``
    (the default) degree-two paths drain through
    :func:`~repro.core.vec_paths.run_path_rounds` — cached chain walks
    plus batch-wise Lemma 4.1 application — and peels resolve their whole
    neighbour row at once; the decision log is *identical* to the scalar
    protocol, which ``batch_rounds=False`` keeps available as the
    differential oracle.  Returns ``True`` when the graph was fully
    consumed, ``False`` when stopped at the first would-be peel.
    """
    log = workspace.log
    telemetry = get_telemetry()
    excluded = 0
    consumed = True
    if batch_rounds:
        cache = PathPairCache(workspace.n)
        while True:
            excluded += _sweep(workspace, telemetry, "LinearTime-vec")
            if workspace.v2:
                run_path_rounds(workspace, cache)
                if workspace.v1:
                    continue
            u = workspace.pop_max_degree()
            if u is None:
                break
            if stop_before_peel:
                consumed = False
                break
            vec_delete_vertex(workspace, u, "peel")
            log.bump(STAT_PEEL)
        if excluded:
            log.bump(STAT_DEGREE_ONE, excluded)
        return consumed
    while True:
        excluded += _sweep(workspace, telemetry, "LinearTime-vec")
        u = workspace.pop_degree_two()
        if u is not None:
            rule = apply_degree_two_path_reduction(workspace, u)
            if rule != RULE_IRREDUCIBLE:
                log.bump(rule)
            continue
        u = workspace.pop_max_degree()
        if u is None:
            break
        if stop_before_peel:
            consumed = False
            break
        workspace.delete_vertex(u, "peel")
        log.bump(STAT_PEEL)
    if excluded:
        log.bump(STAT_DEGREE_ONE, excluded)
    return consumed


def drive_bdone_vec(workspace: VecWorkspace, batch_rounds: bool = True) -> None:
    """BDOne over the vectorized workspace (sweeps + batched peels)."""
    log = workspace.log
    telemetry = get_telemetry()
    excluded = 0
    batched = batch_rounds
    while True:
        excluded += _sweep(workspace, telemetry, "BDOne-vec")
        u = workspace.pop_max_degree()
        if u is None:
            break
        if batched:
            vec_delete_vertex(workspace, u, "peel")
        else:
            workspace.delete_vertex(u, "peel")
        log.bump(STAT_PEEL)
    if excluded:
        log.bump(STAT_DEGREE_ONE, excluded)


# ----------------------------------------------------------------------
# Registry-facing solvers (module-level, picklable by reference)
# ----------------------------------------------------------------------
def linear_time_vec(graph: Graph) -> MISResult:
    """LinearTime on the vectorized backend (``LinearTime-vec``)."""
    from .linear_time import linear_time

    return replace(
        linear_time(graph, workspace_factory=VecWorkspace),
        algorithm="LinearTime-vec",
    )


def bdone_vec(graph: Graph) -> MISResult:
    """BDOne on the vectorized backend (``BDOne-vec``)."""
    from .bdone import bdone

    return replace(
        bdone(graph, workspace_factory=VecWorkspace), algorithm="BDOne-vec"
    )


def linear_time_vec_reduce(graph: Graph) -> Tuple[Graph, List[int], DecisionLog]:
    """Kernelize with LinearTime's exact rules on the vectorized backend."""
    from .linear_time import linear_time_reduce

    return linear_time_reduce(graph, workspace_factory=VecWorkspace)

