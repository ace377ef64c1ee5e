"""Decision logging and solution reconstruction for reducing-peeling runs.

Every algorithm in the framework makes three kinds of *final* decisions while
the graph shrinks (include / exclude / peel) plus two kinds of *deferred*
decisions whose resolution must wait until the rest of the graph is solved:

* **path entries** (Algorithm 4 Line 7) — vertices removed by a degree-two
  path reduction; popped in reverse push order, each is added to the solution
  exactly when none of its original neighbours made it in;
* **fold records** (Lemma 2.2(2) backtrack, Algorithm 3 Line 6) — a folded
  triple ``{u, v, w}`` whose supervertex reuses id ``w``; on replay, ``w`` in
  the solution means ``v`` joins it too, otherwise ``u`` does.

:class:`DecisionLog` records all five in one chronological stream — the
paper's O(n) reconstruction stack — encoded as one int per decision
(``v << 3 | kind``) plus a side list holding the two extra ids of each
path/fold record.  No decision allocates a garbage-collected container, so
a log of millions of entries costs the collector nothing.  Replaying it
backwards resolves the deferred decisions in the correct dependency order,
after which the solution is extended to a maximal independent set
(Algorithm 1 Line 6).
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, List, Sequence, Tuple

import numpy as _np

from ..graphs.static_graph import Graph

#: Below this many vertices the numpy prefilter in
#: :func:`extend_to_maximal` costs more than the scalar pass it saves.
_EXTEND_VEC_MIN_N = 2048

__all__ = [
    "DecisionLog",
    "ReplayOutcome",
    "extend_to_maximal",
    "INCLUDE",
    "EXCLUDE",
    "PEEL",
    "PATH",
    "FOLD",
]

#: Entry kinds — the low three bits of each :attr:`DecisionLog.codes`
#: value.  Public so the specialized flat-buffer drivers can append
#: ``v << 3 | kind`` directly instead of paying a method call per
#: reduction.
INCLUDE = 0
EXCLUDE = 1
PEEL = 2
PATH = 3
FOLD = 4

_INCLUDE = INCLUDE
_EXCLUDE = EXCLUDE
_PEEL = PEEL
_PATH = PATH
_FOLD = FOLD


class ReplayOutcome:
    """The reconstructed solution plus the Theorem-6.1 bookkeeping."""

    __slots__ = ("in_set", "peeled", "surviving_peels")

    def __init__(self, in_set: List[bool], peeled: int, surviving_peels: int) -> None:
        self.in_set = in_set
        self.peeled = peeled
        self.surviving_peels = surviving_peels

    @property
    def vertices(self) -> frozenset:
        """The solution as a frozenset of vertex ids."""
        return frozenset(compress(range(len(self.in_set)), self.in_set))

    @property
    def upper_bound(self) -> int:
        """``|I| + |R|`` — the Theorem-6.1 upper bound on α(G)."""
        return sum(self.in_set) + self.surviving_peels

    @property
    def is_exact(self) -> bool:
        """Whether the solution is certified maximum (``R`` empty)."""
        return self.surviving_peels == 0


def extend_to_maximal(in_set: List[bool], graph: Graph) -> None:
    """Extend ``in_set`` to a maximal independent set, in place.

    Greedy id-order pass over the flat CSR buffers (Algorithm 1 Line 6):
    per-vertex neighbourhood-tuple materialisation would dominate replay on
    large graphs.  This is also where peeled vertices get their chance to
    re-enter the solution and stop counting against the Theorem-6.1 bound.
    """
    offsets, targets = graph.flat_csr()
    if graph.n >= _EXTEND_VEC_MIN_N:
        # Prefilter: any vertex already blocked by the *initial* solution
        # can never enter (the pass only adds vertices), so one bincount
        # sweep removes it from consideration.  Survivors run the exact
        # scalar greedy below against the live ``in_set``, so the result
        # is byte-identical to the pure scan — typically over a scaffold
        # of a few percent of n.
        np = _np
        xadj = np.frombuffer(offsets, dtype=np.int64)
        if len(targets):
            adj = np.frombuffer(targets, dtype=np.int32)
        else:
            adj = np.zeros(0, dtype=np.int32)
        flags = np.frombuffer(bytearray(in_set), dtype=np.uint8)
        slot_rows = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(xadj))
        blocked = np.bincount(slot_rows[flags[adj] != 0], minlength=graph.n) > 0
        candidates = np.flatnonzero((flags == 0) & ~blocked).tolist()
        for v in candidates:
            for i in range(offsets[v], offsets[v + 1]):
                if in_set[targets[i]]:
                    break
            else:
                in_set[v] = True
        return
    for v in range(graph.n):
        if in_set[v]:
            continue
        for i in range(offsets[v], offsets[v + 1]):
            if in_set[targets[i]]:
                break
        else:
            in_set[v] = True


class DecisionLog:
    """Chronological record of reducing-peeling decisions.

    Storage is two flat lists of Python ints, so recording a decision
    allocates no container the cyclic garbage collector has to track:

    * :attr:`codes` — one ``v << 3 | kind`` per decision, in order, where
      ``v`` is the decided vertex (the first id of a PATH/FOLD record);
    * :attr:`operands` — the two extra ids of every PATH/FOLD record, in
      the same order as their codes (``blocker_a, blocker_b`` for a path
      entry, ``v, w`` for a fold).

    The specialized drivers append to these lists directly; everything
    else goes through the typed methods.
    """

    __slots__ = ("codes", "operands", "stats")

    def __init__(self) -> None:
        self.codes: List[int] = []
        self.operands: List[int] = []
        self.stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def include(self, v: int) -> None:
        """Vertex ``v`` is definitively in the independent set."""
        self.codes.append(v << 3 | _INCLUDE)

    def exclude(self, v: int) -> None:
        """Vertex ``v`` was removed by an exact rule (not in the set)."""
        self.codes.append(v << 3 | _EXCLUDE)

    def peel(self, v: int) -> None:
        """Vertex ``v`` was removed by the inexact (peeling) reduction."""
        self.codes.append(v << 3 | _PEEL)

    def push_path(self, v: int, blocker_a: int, blocker_b: int) -> None:
        """Defer vertex ``v`` of a reduced degree-two path (stack entry).

        ``blocker_a`` / ``blocker_b`` are ``v``'s two *live* neighbours at
        removal time (path predecessor/successor or an anchor).  Replay
        adds ``v`` exactly when neither blocker made it into the solution —
        checking the live neighbourhood rather than the full original one
        keeps the Lemma 4.1 alternation exact even after earlier rewirings
        retired some of ``v``'s original edges.
        """
        self.codes.append(v << 3 | _PATH)
        self.operands.append(blocker_a)
        self.operands.append(blocker_b)

    def fold(self, u: int, v: int, w: int) -> None:
        """Record the folding of degree-two vertex ``u`` with neighbours
        ``v`` and ``w``; the supervertex survives under id ``w``."""
        self.codes.append(u << 3 | _FOLD)
        self.operands.append(v)
        self.operands.append(w)

    def record_many(self, kind: int, vertices: Any) -> None:
        """Append one ``kind`` record per vertex, in order.

        ``vertices`` is a numpy index array or a sequence of ints; the
        encoding runs in numpy (widened to int64 so large ids cannot
        overflow the shift) and ``tolist()`` hands back pure Python ints,
        which the JSON snapshot path and the differential tests require.
        For the single-id kinds only (include / exclude / peel).
        """
        ids = _np.asarray(vertices, dtype=_np.int64)
        self.codes.extend((ids << 3 | kind).tolist())

    def bump(self, rule: str, amount: int = 1) -> None:
        """Increment the application counter for ``rule``."""
        self.stats[rule] = self.stats.get(rule, 0) + amount

    def extend_mapped(self, other: "DecisionLog", id_map: Sequence[int]) -> None:
        """Append another log's entries with vertex ids translated.

        Used when an algorithm ran on a compacted subgraph: ``id_map[x]``
        is the original id of subgraph vertex ``x``.  Stats are merged.
        One numpy gather per list translates every id; the kind bits ride
        along unchanged.
        """
        if other.codes:
            np = _np
            table = np.asarray(id_map, dtype=np.int64)
            codes = np.array(other.codes, dtype=np.int64)
            self.codes.extend((table[codes >> 3] << 3 | codes & 7).tolist())
            if other.operands:
                operands = np.array(other.operands, dtype=np.int64)
                self.operands.extend(table[operands].tolist())
        for rule, amount in other.stats.items():
            self.bump(rule, amount)

    def copy(self) -> "DecisionLog":
        """An independent copy (entries and stats)."""
        clone = DecisionLog()
        clone.codes = list(self.codes)
        clone.operands = list(self.operands)
        clone.stats = dict(self.stats)
        return clone

    # ------------------------------------------------------------------
    # Serialisation (service snapshots)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """A JSON-serialisable dump of the log (entries + stats).

        Each record becomes ``[kind, [vertices...]]``; the inverse is
        :meth:`from_payload`.  Used by :mod:`repro.serve` snapshots to
        persist register-time kernelization state across process restarts.
        """
        return {
            "entries": [[kind, list(data)] for kind, data in self.entries],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DecisionLog":
        """Rebuild a log previously dumped with :meth:`to_payload`."""
        log = cls()
        codes = log.codes
        operands = log.operands
        for kind, data in payload.get("entries", []):  # type: ignore[union-attr]
            codes.append(int(data[0]) << 3 | int(kind))
            operands.extend(int(v) for v in data[1:])
        log.stats = {
            str(rule): int(amount)
            for rule, amount in payload.get("stats", {}).items()  # type: ignore[union-attr]
        }
        return log

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entries(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The decisions decoded as ``((kind, vertex-tuple), …)``.

        A read-only view built on each access: ``(kind, (v,))`` for
        include/exclude/peel, ``(PATH, (v, blocker_a, blocker_b))`` and
        ``(FOLD, (u, v, w))`` for the deferred records.  Differential tests
        compare it to assert two backends made byte-identical decision
        sequences; writers append to :attr:`codes` / :attr:`operands`.
        """
        operands = iter(self.operands)
        decoded = []
        append = decoded.append
        for code in self.codes:
            kind = code & 7
            if kind >= _PATH:
                append((kind, (code >> 3, next(operands), next(operands))))
            else:
                append((kind, (code >> 3,)))
        return tuple(decoded)

    def _kind_counts(self) -> List[int]:
        """How many records of each kind, indexed by kind."""
        kinds = _np.array(self.codes, dtype=_np.int64) & 7
        counts: List[int] = _np.bincount(kinds, minlength=_FOLD + 1).tolist()
        return counts

    @property
    def peel_count(self) -> int:
        """How many peel entries were recorded."""
        return self._kind_counts()[_PEEL]

    @property
    def alpha_offset(self) -> int:
        """``α(original) − α(residual)``, valid when only exact rules ran.

        Each include contributes 1, each fold contributes 1, and every
        degree-two path application contributes half its pushed vertices
        (case 3 pushes ``|P| − 1`` vertices worth ``(|P| − 1)/2``; cases
        4/5 push ``|P|`` worth ``|P|/2`` — always exactly half).  Peels
        void the equality (they only guarantee ≥), so callers must check
        :attr:`peel_count` is zero before relying on this.
        """
        counts = self._kind_counts()
        return counts[_INCLUDE] + counts[_FOLD] + counts[_PATH] // 2

    def __len__(self) -> int:
        return len(self.codes)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def resolve(self, n: int) -> Tuple[List[bool], List[int]]:
        """Steps 1–2 of replay: commit includes, resolve deferred entries.

        Returns ``(in_set, peeled_vertices)`` *before* maximal extension —
        the telemetry-traced drivers run this and
        :func:`extend_to_maximal` under separate phase spans.
        """
        np = _np
        codes = np.array(self.codes, dtype=np.int64)
        kinds = codes & 7
        ids = codes >> 3
        # Includes and peels are final: two masks settle them in bulk.
        flags = np.zeros(n, dtype=bool)
        flags[ids[kinds == _INCLUDE]] = True
        peeled_vertices: List[int] = ids[kinds == _PEEL].tolist()
        in_set: List[bool] = flags.tolist()
        # Only the (typically few) deferred records replay, backwards —
        # their relative order is chronological, so walking them in
        # reverse sees them in the order a full backward walk of the log
        # would.  The k-th deferred code owns operands[2k : 2k + 2].
        deferred = codes[kinds >= _PATH].tolist()
        operands = self.operands
        j = len(operands)
        for code in reversed(deferred):
            j -= 2
            a = operands[j]
            b = operands[j + 1]
            if code & 7 == _PATH:
                if not in_set[a] and not in_set[b]:
                    in_set[code >> 3] = True
            elif in_set[b]:  # fold (u, v=a, w=b): w in ⇒ v joins, else u
                in_set[a] = True
            else:
                in_set[code >> 3] = True
        return in_set, peeled_vertices

    def replay(self, graph: Graph, extend_maximal: bool = True) -> ReplayOutcome:
        """Reconstruct the independent set on the *original* graph.

        Processing order (mirrors the paper):

        1. commit all ``include`` decisions;
        2. walk the log backwards resolving path entries and fold records
           (Algorithm 4 Line 7 / Algorithm 3 Line 6);
        3. optionally extend to a maximal independent set, which also gives
           peeled vertices their chance to re-enter (Algorithm 1 Line 6).
        """
        in_set, peeled_vertices = self.resolve(graph.n)
        if extend_maximal:
            extend_to_maximal(in_set, graph)
        surviving = sum(1 for v in peeled_vertices if not in_set[v])
        return ReplayOutcome(in_set, len(peeled_vertices), surviving)
