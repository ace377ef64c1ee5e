"""Vectorized degree-two path rounds and batched peeling (ISSUE 7).

PR6's :mod:`repro.core.vectorized` batched the degree-one cascade but left
the Lemma 4.1 path driver and the peeling loop on the scalar protocol,
where every step pays numpy-scalar indexing costs (one ``adj`` slice, one
liveness mask and one ``tolist()`` per chain hop; one boxed compare per
neighbour per deletion).  This module removes those costs while keeping
the *decision sequence byte-identical* to the scalar driver:

* **whole-round path discovery** — the live neighbour *pairs* of every
  degree-two vertex in the current worklist are gathered with one ragged
  CSR segment gather (:func:`_gather_from`) and cached; chain walks then
  run on plain Python ints (:func:`_walk_cached`) instead of per-hop numpy
  slices.  New degree-two vertices produced by later sweeps are fed to the
  cache by :func:`~repro.core.vectorized._degree_one_rounds` (each vertex
  is gathered at most once — degrees only fall, so a cached pair stays
  valid until a rewire retires it, and rewires invalidate explicitly);
* **batch-wise path application** (:func:`_reduce_one`) — the Lemma 4.1
  cases replicate :func:`~repro.core.degree_two_paths.apply_degree_two_path_reduction`
  mutation-for-mutation, but the interior removals run as one bulk
  liveness store plus O(1) counter updates instead of one
  ``remove_silently`` per vertex.  The :class:`~repro.core.trace.DecisionLog`
  entries (and their order) are **identical** — the differential tests
  assert entry-for-entry equality against the scalar driver;
* **batched peeling** (:func:`vec_delete_vertex`) — a peel (or an anchor
  deletion) resolves the whole neighbour row with masked gathers: one
  fancy-index degree decrement, row-order-preserving crossing
  classification, and bulk worklist extends.  Entry order matches the
  scalar ``delete_vertex`` exactly (crossings are logged in adjacency-row
  order on both paths).

Why cached pairs stay coherent: degrees only decrease, so a vertex whose
pair was captured at degree two either still has the same two live
neighbours, or its degree dropped (the walk re-checks ``deg == 2`` before
every lookup), or it was rewired — and the only rewires in the whole
protocol happen inside the path reductions below, which drop the cache
entry on the spot.  Sweeps and peels never rewire.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as _np

from .degree_two_paths import (
    RULE_ANCHOR_SHARED,
    RULE_CYCLE,
    RULE_EVEN_EDGE,
    RULE_EVEN_NO_EDGE,
    RULE_IRREDUCIBLE,
    RULE_ODD_EDGE,
    RULE_ODD_NO_EDGE,
)
from .hotpath import hot_loop
from .trace import INCLUDE

__all__ = ["PathPairCache", "run_path_rounds", "vec_delete_vertex"]

#: Below this many candidates a ragged gather costs more than lazy
#: per-vertex fills; the drain falls back to exact scalar lookups.
_GATHER_MIN = 48

#: Rows at or below this degree are deleted through the scalar protocol —
#: the numpy row machinery only wins once the row amortizes its setup.
_SCALAR_DELETE_MAX_DEGREE = 8


class PathPairCache:
    """Cached live-neighbour pairs for degree-two vertices.

    ``first``/``second`` hold each cached vertex's two live neighbours in
    adjacency-row order (the order :meth:`iter_live_neighbors` yields, so
    walks take the same branch the scalar driver takes); ``have`` flags
    validity.  ``pending`` collects the degree-two arrivals announced by
    the vectorized sweep between drains (see
    ``VecWorkspace._pair_pending``), and ``primed`` marks the initial bulk
    gather as done.
    """

    __slots__ = ("first", "second", "have", "pending", "primed")

    def __init__(self, n: int) -> None:
        np = _np
        self.first = np.zeros(n, dtype=np.int32)
        self.second = np.zeros(n, dtype=np.int32)
        self.have = np.zeros(n, dtype=np.uint8)
        self.pending: List[Any] = []
        self.primed = False


@hot_loop
def _gather_from(workspace: Any, cache: PathPairCache, cand: Any) -> None:
    """Fill the pair cache for every valid candidate in one ragged gather.

    ``cand`` is a sorted-unique int32 index array; entries that are dead,
    not degree-two, or already cached are dropped.  Every surviving
    candidate has exactly two live adjacency slots (the workspace
    invariant), so the filtered gather yields its pair in row order at
    even/odd positions.  If the 2-per-segment invariant ever failed the
    gather is abandoned — lazy per-vertex fills keep the drain exact.
    """
    alive = workspace.alive
    deg = workspace.deg
    have = cache.have
    cand = cand[(alive[cand] != 0) & (deg[cand] == 2) & (have[cand] == 0)]
    if cand.size == 0:
        return
    np = _np
    xadj = workspace.xadj
    starts = xadj[cand]
    lens = xadj[cand + 1] - starts
    total = int(lens.sum())
    seg_ends = np.cumsum(lens)
    pos = np.arange(total, dtype=np.int64) - np.repeat(seg_ends - lens, lens)
    pos += np.repeat(starts, lens)
    nbrs = workspace.adj[pos]
    live = nbrs[alive[nbrs] != 0]
    if int(live.size) != 2 * int(cand.size):  # pragma: no cover - invariant
        return
    cache.first[cand] = live[0::2]
    cache.second[cand] = live[1::2]
    have[cand] = 1


@hot_loop
def _pair_of(workspace: Any, v: int, cache: PathPairCache) -> Tuple[int, int]:
    """``v``'s two live neighbours (row order), from the cache or a row scan."""
    if cache.have[v]:
        return int(cache.first[v]), int(cache.second[v])
    nbrs = workspace.iter_live_neighbors(v)
    a = nbrs[0]
    b = nbrs[1]
    cache.first[v] = a
    cache.second[v] = b
    cache.have[v] = 1
    return a, b


@hot_loop
def _walk_cached(
    workspace: Any, start: int, first: int, cache: PathPairCache
) -> Tuple[List[int], Optional[int]]:
    """Cached twin of :func:`repro.core.degree_two_paths._walk`.

    Walks from ``start`` through ``first`` along degree-two vertices using
    cached neighbour pairs; returns ``(interior, anchor)`` with ``None``
    anchor for a cycle, exactly like the scalar walk (same branch on the
    pendant-cycle end: both neighbours equal to ``prev``).
    """
    deg = workspace.deg
    interior: List[int] = []
    append = interior.append
    pair_of = _pair_of
    prev, cur = start, first
    while deg[cur] == 2:
        if cur == start:
            return interior, None
        append(cur)
        a, b = pair_of(workspace, cur, cache)
        nxt = a if a != prev else b
        if nxt == prev:  # pendant cycle end (C2 impossible)
            return interior, prev
        prev, cur = cur, nxt
    return interior, cur


@hot_loop
def vec_delete_vertex(workspace: Any, v: int, reason: str) -> None:
    """Row-batched twin of :meth:`VecWorkspace.delete_vertex`.

    Resolves the whole adjacency row with masked gathers: one liveness
    mask (row order preserved), one fancy-index degree decrement, bulk
    worklist extends and row-order include records — entry-for-entry
    identical to the scalar deletion.  Small rows take the scalar path
    outright (the numpy setup would dominate).
    """
    deg = workspace.deg
    if deg[v] <= _SCALAR_DELETE_MAX_DEGREE:
        workspace.delete_vertex(v, reason)
        return
    alive = workspace.alive
    xadj = workspace.xadj
    row = workspace.adj[xadj[v] : xadj[v + 1]]
    dv = int(deg[v])
    alive[v] = 0
    log = workspace.log
    if reason == "peel":
        log.peel(int(v))
    else:
        log.exclude(int(v))
    live = row[alive[row] != 0]
    k = int(live.size)
    if k == 0:
        workspace._nlive -= 1
        workspace._live_deg_sum -= dv
        return
    deg[live] -= 1
    new_deg = deg[live]
    to_zero = live[new_deg == 0]
    alive[to_zero] = 0
    workspace.v1.extend(live[new_deg == 1].tolist())
    workspace.v2.extend(live[new_deg == 2].tolist())
    log.record_many(INCLUDE, to_zero)
    workspace._nlive -= 1 + int(to_zero.size)
    workspace._live_deg_sum -= dv + k


@hot_loop
def _remove_path_batch(workspace: Any, seg: List[int]) -> None:
    """Silently retire a run of degree-two path vertices in bulk.

    Equivalent to ``remove_silently`` per vertex (every member has degree
    exactly two, so the counter algebra collapses to O(1)); produces no
    log entries, exactly like the scalar calls it replaces.
    """
    k = len(seg)
    alive = workspace.alive
    if k >= 12:
        alive[_np.asarray(seg, dtype=_np.int32)] = 0
    else:
        for x in seg:
            alive[x] = 0
    workspace._nlive -= k
    workspace._live_deg_sum -= 2 * k


@hot_loop
def _reduce_one(workspace: Any, u: int, cache: PathPairCache) -> str:
    """Apply Lemma 4.1 to the maximal path/cycle through ``u`` (batched).

    Mutation-for-mutation equivalent to
    :func:`~repro.core.degree_two_paths.apply_degree_two_path_reduction`:
    the same rewire-first ordering, the same ``PATH`` push order
    (``v_l … v₁`` so pops run away from the first-decided anchor), the
    same refile/decrement calls — only the interior removals and anchor
    deletions run batched.  Returns the ``RULE_*`` name applied.
    """
    first, second = _pair_of(workspace, u, cache)
    left, left_anchor = _walk_cached(workspace, u, first, cache)
    if left_anchor is None:
        vec_delete_vertex(workspace, u, "exclude")
        return RULE_CYCLE
    right, right_anchor = _walk_cached(workspace, u, second, cache)
    left.reverse()
    path = left + [u] + right
    v, w = left_anchor, right_anchor
    if v == w:
        vec_delete_vertex(workspace, v, "exclude")
        return RULE_ANCHOR_SHARED
    length = len(path)
    head = path[0]
    tail = path[-1]
    push_path = workspace.log.push_path
    have = cache.have
    if length % 2 == 1:
        if workspace.has_live_edge(v, w):
            vec_delete_vertex(workspace, v, "exclude")
            vec_delete_vertex(workspace, w, "exclude")
            return RULE_ODD_EDGE
        if length == 1:
            # Non-adjacent degree-≥3 anchors around a single vertex: the
            # one irreducible configuration (paper Appendix A.2).
            return RULE_IRREDUCIBLE
        # Case 3: keep v₁, drop v₂ … v_l, rewire (v₁, w) into existence.
        workspace.rewire(head, path[1], w)
        workspace.rewire(w, tail, head)
        have[head] = 0  # row contents changed at unchanged degree
        have[w] = 0
        _remove_path_batch(workspace, path[1:])
        chain = [v] + path + [w]
        for i in range(length - 1, 0, -1):  # path[length-1] … path[1]
            push_path(path[i], chain[i], chain[i + 2])
        workspace.refile(head)
        return RULE_ODD_NO_EDGE
    chain = [v] + path + [w]
    if workspace.has_live_edge(v, w):
        # Case 4: remove the whole path; anchors each lose one edge.
        _remove_path_batch(workspace, path)
        for i in range(length - 1, -1, -1):
            push_path(path[i], chain[i], chain[i + 2])
        workspace.decrement_degree(v)
        workspace.decrement_degree(w)
        return RULE_EVEN_EDGE
    # Case 5: remove the whole path and rewire (v, w) into existence.
    workspace.rewire(v, head, w)
    workspace.rewire(w, tail, v)
    have[v] = 0
    have[w] = 0
    _remove_path_batch(workspace, path)
    for i in range(length - 1, -1, -1):
        push_path(path[i], chain[i], chain[i + 2])
    workspace.settle_new_edge(v, w)
    return RULE_EVEN_NO_EDGE


@hot_loop
def run_path_rounds(workspace: Any, cache: PathPairCache) -> int:
    """Drain the degree-two worklist in LIFO order until V₌₁ interrupts.

    Pops follow :meth:`pop_degree_two`'s exact validation, so the
    reduction *sequence* matches the scalar driver (which re-sweeps after
    any reduction that refiles a vertex into V₌₁ — a sweep over an empty
    worklist is a no-op, so pausing only when ``v1`` is non-empty is the
    identical schedule).  On entry the pair cache is primed: the first
    drain bulk-gathers the whole current worklist, later drains gather
    only the arrivals the sweep announced since (each vertex at most
    once).  Returns the number of reductions applied (excluding
    irreducible skips).
    """
    np = _np
    v2 = workspace.v2
    if not cache.primed:
        cache.primed = True
        workspace._pair_pending = cache.pending
        if len(v2) >= _GATHER_MIN:
            _gather_from(
                workspace, cache, np.unique(np.asarray(v2, dtype=np.int32))
            )
    else:
        pend = cache.pending
        if pend:
            cand = pend[0] if len(pend) == 1 else np.concatenate(pend)
            del pend[:]
            if cand.size >= _GATHER_MIN:
                _gather_from(workspace, cache, np.unique(cand))
    applied = 0
    irreducible = RULE_IRREDUCIBLE
    reduce_one = _reduce_one
    pop_degree_two = workspace.pop_degree_two
    bump = workspace.log.bump
    v1 = workspace.v1
    while not v1:
        u = pop_degree_two()
        if u is None:
            break
        rule = reduce_one(workspace, u, cache)
        if rule != irreducible:
            bump(rule)
            applied += 1
    return applied
