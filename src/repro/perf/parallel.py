"""Parallel per-component solving over flat CSR buffers.

Independent sets compose over connected components (``α(G) = Σ α(Gᵢ)``), so
the per-component driver in :mod:`repro.core.components` is exact.  This
module adds the obvious next step: components are *independent* work items,
so the large ones can be solved in worker processes concurrently.

Serialization is the interesting part.  Pickling a
:class:`~repro.graphs.static_graph.Graph` would ship ``2m + n`` boxed
Python integers per component; instead each component subgraph is exported
through :meth:`~repro.graphs.static_graph.Graph.flat_csr` and sent as two
raw byte strings (``array('q')`` offsets, ``array('i')`` targets) that the
worker rehydrates with :meth:`array.array.frombytes` — one memcpy each way.

The merge is identical to the serial driver's: per-component independent
sets are translated back through the component's id map, bounds and rule
stats are summed, and the certificate holds iff every component certified.
``solve_by_components_parallel(g, alg)`` therefore equals
``solve_by_components(g, alg)`` on every field except ``algorithm`` (which
gains a ``/components-parallel`` suffix) and ``elapsed``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import shutil
import tempfile
import time
from array import array
from typing import Callable, List, Optional, Tuple, Union

from ..core.auto import bdone_auto, linear_time_auto
from ..core.bdone import bdone
from ..core.linear_time import linear_time
from ..core.near_linear import near_linear
from ..core.result import MISResult
from ..core.vectorized import bdone_vec, linear_time_vec
from ..graphs.properties import connected_components
from ..graphs.static_graph import Graph
from ..obs.telemetry import disable, enable, get_telemetry
from ..obs.trace_io import collect_worker_traces, write_trace

__all__ = [
    "ALGORITHM_BY_NAME",
    "DEFAULT_PARALLEL_THRESHOLD",
    "WorkerPool",
    "decode_graph_payload",
    "encode_graph_payload",
    "solve_by_components_parallel",
]

# Components smaller than this are solved inline: process dispatch plus
# result pickling costs more than a small solve saves.
DEFAULT_PARALLEL_THRESHOLD = 2_000

#: Algorithms dispatchable by name over the raw CSR byte-buffer protocol.
#: Names ship to the workers instead of pickled callables, so the payload
#: stays three byte strings plus two short strings per component.  The
#: ``*_vec`` entries are the vectorized BDOne/LinearTime solvers —
#: module-level functions in :mod:`repro.core.vectorized`, so they pickle
#: by reference exactly like the scalar ones.  The ``*_auto`` entries
#: dispatch between flat and vectorized per graph (:mod:`repro.core.auto`);
#: handed to the component pool, each *component* gets its own backend
#: pick.
ALGORITHM_BY_NAME: dict = {
    "bdone": bdone,
    "linear_time": linear_time,
    "near_linear": near_linear,
    "bdone_vec": bdone_vec,
    "linear_time_vec": linear_time_vec,
    "bdone_auto": bdone_auto,
    "linear_time_auto": linear_time_auto,
}


def encode_graph_payload(graph: Graph) -> Tuple[bytes, bytes, str]:
    """Export ``graph`` as the flat CSR wire triple ``(offsets, targets, name)``.

    This is the serialization the component pool ships to its workers — two
    raw byte strings (``array('q')`` offsets, ``array('i')`` targets) plus
    the graph name — and the same codec the shard router
    (:mod:`repro.serve.router`) uses to hand whole graphs to shard workers:
    one memcpy out, one memcpy back in, never ``2m + n`` boxed ints.
    """
    offsets, targets = graph.flat_csr()
    return offsets.tobytes(), targets.tobytes(), graph.name


def decode_graph_payload(
    offsets_bytes: bytes, targets_bytes: bytes, name: str
) -> Graph:
    """Rebuild a :class:`Graph` from :func:`encode_graph_payload` output."""
    offsets = array("q")
    offsets.frombytes(offsets_bytes)
    targets = array("i")
    targets.frombytes(targets_bytes)
    return Graph(offsets, targets, name=name)


class WorkerPool:
    """A reusable component-solving worker pool.

    ``solve_by_components_parallel`` creates and tears down a
    ``multiprocessing.Pool`` per call, which is fine for one-shot CLI runs
    but wasteful for a server answering a stream of solves: fork/spawn cost
    lands on every request.  A ``WorkerPool`` keeps the processes alive
    across calls — pass it via the ``pool=`` parameter and the driver skips
    its own pool lifecycle.  The pool is lazy (processes start on first
    use) and restartable (``close`` then reuse re-forks).
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.processes = max(1, processes if processes is not None else (os.cpu_count() or 1))
        self._ctx = multiprocessing.get_context(start_method)
        self._pool: Optional[multiprocessing.pool.Pool] = None

    @property
    def started(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._pool is not None

    def _ensure(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            self._pool = self._ctx.Pool(self.processes)
        return self._pool

    def map(self, payloads: List[Tuple[bytes, bytes, str, Union[str, Callable[[Graph], MISResult]], int, Optional[str], dict]]) -> List[MISResult]:
        """Solve ``payloads`` (see :func:`_solve_flat`) on the live workers."""
        return self._ensure().map(_solve_flat, payloads)

    def close(self) -> None:
        """Stop the worker processes; the pool may be reused afterwards."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self.started else "idle"
        return f"<WorkerPool processes={self.processes} {state}>"


def _resolve_algorithm(
    algorithm: Union[str, Callable[[Graph], MISResult]],
) -> Callable[[Graph], MISResult]:
    """Accept a registry name or a module-level callable."""
    if isinstance(algorithm, str):
        try:
            return ALGORITHM_BY_NAME[algorithm]
        except KeyError:
            raise ValueError(
                f"unknown algorithm name {algorithm!r}; "
                f"registered: {sorted(ALGORITHM_BY_NAME)}"
            ) from None
    return algorithm


def _solve_flat(
    payload: Tuple[
        bytes,
        bytes,
        str,
        Union[str, Callable[[Graph], MISResult]],
        int,
        Optional[str],
        dict,
    ],
) -> MISResult:
    """Worker: rebuild a component graph from flat buffers and solve it.

    Module-level so the default (pickle-based) pool start methods can find
    it by reference.  The algorithm arrives either as a registry name
    (resolved here, in the worker) or as a module-level callable (every
    public algorithm in :mod:`repro.core` is picklable by reference).

    ``trace_path`` is ``None`` unless the parent had telemetry enabled; a
    worker cannot share the parent's sink (different process, different
    clock), so it runs its own and flushes it to the given JSON-lines file,
    stamped with ``stamp`` — the component id plus the parent's scoped
    context fields (request id, tenant) — for the parent to collect and
    adopt, so worker spans land inside the originating request's tree.
    """
    (
        offsets_bytes,
        targets_bytes,
        name,
        algorithm,
        component,
        trace_path,
        stamp,
    ) = payload
    graph = decode_graph_payload(offsets_bytes, targets_bytes, name)
    if trace_path is None:
        return _resolve_algorithm(algorithm)(graph)
    sink = enable(label=f"worker-component-{component}", context=dict(stamp))
    try:
        return _resolve_algorithm(algorithm)(graph)
    finally:
        disable()
        write_trace(trace_path, sink.to_records(), stamp=stamp)


def solve_by_components_parallel(
    graph: Graph,
    algorithm: Union[str, Callable[[Graph], MISResult]],
    processes: Optional[int] = None,
    min_component_size: int = DEFAULT_PARALLEL_THRESHOLD,
    start_method: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> MISResult:
    """Run ``algorithm`` per connected component, large components in parallel.

    Parameters
    ----------
    graph:
        The (possibly disconnected) input graph.
    algorithm:
        Either a :data:`ALGORITHM_BY_NAME` registry name (``"bdone"``,
        ``"linear_time"``, ``"near_linear"`` — the name is what ships to
        the workers) or a module-level callable ``Graph -> MISResult``
        (e.g. :func:`repro.core.linear_time.linear_time`); a callable must
        be picklable.
    processes:
        Worker count; defaults to ``os.cpu_count()``.  ``1`` disables the
        pool entirely and solves everything inline.
    min_component_size:
        Components with fewer vertices are solved inline in the parent —
        dispatch overhead dominates below this size.
    start_method:
        Forwarded to :func:`multiprocessing.get_context` (``None`` keeps the
        platform default, ``fork`` on Linux).
    pool:
        An already-running :class:`WorkerPool` to dispatch pooled components
        on.  When given, the driver skips its own per-call pool lifecycle
        (the caller owns start-up and shutdown) and ``processes`` /
        ``start_method`` are ignored — the pool's own settings win.

    Returns the merged :class:`~repro.core.result.MISResult`; identical to
    :func:`repro.core.components.solve_by_components` except for the
    ``/components-parallel`` algorithm suffix and the wall time.
    """
    start = time.perf_counter()
    telemetry = get_telemetry()  # one global check per run
    solver = _resolve_algorithm(algorithm)
    components = connected_components(graph)
    inline: List[Tuple[int, List[int], Graph]] = []
    pooled: List[Tuple[int, List[int], Graph]] = []
    for index, component in enumerate(components):
        subgraph, old_ids = graph.subgraph(component)
        if len(component) >= min_component_size:
            pooled.append((index, old_ids, subgraph))
        else:
            inline.append((index, old_ids, subgraph))

    def _solve_inline(index: int, subgraph: Graph) -> MISResult:
        # Context stamping gives in-parent solves the same per-component
        # attribution the worker traces get from their file stamp.
        if telemetry is None:
            return solver(subgraph)
        with telemetry.scoped(component=index):
            return solver(subgraph)

    solved: List[Tuple[List[int], MISResult]] = [
        (old_ids, _solve_inline(index, subgraph))
        for index, old_ids, subgraph in inline
    ]
    if pooled:
        if processes is None:
            processes = os.cpu_count() or 1
        workers = max(1, min(processes, len(pooled)))
        if pool is not None:
            workers = pool.processes  # caller-owned pool: its sizing wins
        if workers == 1 and pool is None:
            solved.extend(
                (old_ids, _solve_inline(index, subgraph))
                for index, old_ids, subgraph in pooled
            )
        else:
            trace_dir: Optional[str] = None
            trace_paths: List[str] = []
            if telemetry is not None:
                trace_dir = tempfile.mkdtemp(prefix="repro-obs-")
            # Parent scoped-context fields (request id, tenant …) ride the
            # payload so worker traces attribute to the calling request.
            parent_fields = dict(telemetry.context) if telemetry is not None else {}
            payloads = []
            for index, _, subgraph in pooled:
                offsets_bytes, targets_bytes, graph_name = encode_graph_payload(
                    subgraph
                )
                trace_path = (
                    os.path.join(trace_dir, f"component-{index}.jsonl")
                    if trace_dir is not None
                    else None
                )
                if trace_path is not None:
                    trace_paths.append(trace_path)
                stamp = dict(parent_fields)
                stamp["component"] = index
                payloads.append(
                    (
                        offsets_bytes,
                        targets_bytes,
                        graph_name,
                        algorithm,
                        index,
                        trace_path,
                        stamp,
                    )
                )
            try:
                if pool is not None:
                    results = pool.map(payloads)
                else:
                    ctx = multiprocessing.get_context(start_method)
                    with ctx.Pool(workers) as owned_pool:
                        results = owned_pool.map(_solve_flat, payloads)
                if telemetry is not None:
                    telemetry.adopt(collect_worker_traces(trace_paths))
            finally:
                if trace_dir is not None:
                    shutil.rmtree(trace_dir, ignore_errors=True)
            solved.extend(
                (old_ids, result)
                for (_, old_ids, _), result in zip(pooled, results)
            )

    vertices: List[int] = []
    upper_bound = 0
    peeled = 0
    surviving = 0
    stats: dict = {}
    algorithm_name = "unknown"
    for old_ids, result in solved:
        algorithm_name = result.algorithm
        vertices.extend(old_ids[v] for v in result.independent_set)
        upper_bound += result.upper_bound
        peeled += result.peeled
        surviving += result.surviving_peels
        for rule, count in result.stats.items():
            stats[rule] = stats.get(rule, 0) + count
    return MISResult(
        algorithm=f"{algorithm_name}/components-parallel",
        graph_name=graph.name,
        independent_set=frozenset(vertices),
        upper_bound=upper_bound,
        peeled=peeled,
        surviving_peels=surviving,
        is_exact=surviving == 0,
        stats=stats,
        elapsed=time.perf_counter() - start,
    )
