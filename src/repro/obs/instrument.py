"""Workspace instrumentation: peeling profiles and traced replay.

The reducing-peeling drivers expose ``workspace_factory`` hooks precisely so
the mutable-state backend can be swapped without touching the loops.  The
telemetry layer rides that seam: :func:`instrumented_factory` wraps any
workspace class in a subclass whose mutation methods feed a sampled
**peeling profile** — ``(events, live_vertices, live_edges, current_bound)``
tuples taken every ``n / PROFILE_TARGET_SAMPLES`` mutations using the
O(1)-maintained live counters from PR 1.

Because the instrumented class is a *subclass*, the drivers' exact-type
dispatch (``type(ws) is FlatWorkspace``) routes it through the generic
method-call loop instead of the fused flat loop — which is exactly what we
want: the flat hot path stays flat (and un-instrumented) when telemetry is
off, and the generic protocol gives the profile its hooks when it is on.
Decision logs are identical either way, so enabling telemetry never changes
a result.

``current_bound`` is ``includes_so_far + live_vertices`` — a running upper
bound on the final solution size.  Includes are counted by scanning only
the *new* suffix of the decision log at each sample, so total sampling cost
is O(log length) over the whole run.
"""

from __future__ import annotations

from typing import Callable, Type

from ..core.trace import INCLUDE, DecisionLog, ReplayOutcome, extend_to_maximal
from .telemetry import Telemetry

__all__ = [
    "PROFILE_TARGET_SAMPLES",
    "instrumented_factory",
    "finish_profile",
    "traced_replay",
]

#: Target number of profile samples per run; the sampling interval is
#: ``max(1, n // PROFILE_TARGET_SAMPLES)`` mutation events.
PROFILE_TARGET_SAMPLES = 200


def instrumented_factory(
    base: Type, telemetry: Telemetry, algorithm: str, graph_name: str = ""
) -> Callable:
    """A subclass of workspace class ``base`` that records a peeling profile.

    Works with any backend exposing the shared mutation protocol
    (``include`` / ``delete_vertex`` / ``remove_silently``) plus the live
    counters (``live_vertex_count`` / ``live_edge_count``) — i.e. every
    workspace in :mod:`repro.core.workspace`, :mod:`repro.core.dominance`
    and :mod:`repro.core.flat_dominance`.
    """

    class Instrumented(base):  # type: ignore[misc, valid-type]
        # No __slots__: the telemetry attributes live in the instance dict,
        # which only exists on instrumented (telemetry-enabled) runs.

        def __init__(self, graph, *args, **kwargs):
            self._tele_events = 0
            self._tele_interval = max(1, graph.n // PROFILE_TARGET_SAMPLES)
            self._tele_scan_pos = 0
            self._tele_includes = 0
            self._tele_samples = telemetry.profile(
                algorithm, graph_name or graph.name
            )
            super().__init__(graph, *args, **kwargs)
            self._tele_sample()  # the t=0 point: full graph, empty solution

        # -- sampling --------------------------------------------------
        def _tele_tick(self) -> None:
            self._tele_events += 1
            if self._tele_events % self._tele_interval == 0:
                self._tele_sample()

        def _tele_sample(self) -> None:
            codes = self.log.codes
            pos = self._tele_scan_pos
            includes = self._tele_includes
            end = len(codes)
            while pos < end:
                if codes[pos] & 7 == INCLUDE:
                    includes += 1
                pos += 1
            self._tele_scan_pos = pos
            self._tele_includes = includes
            live = self.live_vertex_count
            self._tele_samples.append(
                (self._tele_events, live, self.live_edge_count(), includes + live)
            )

        # -- instrumented mutations ------------------------------------
        def include(self, v: int) -> None:
            super().include(v)
            self._tele_tick()

        def delete_vertex(self, v: int, reason: str = "exclude") -> None:
            super().delete_vertex(v, reason)
            self._tele_tick()

        def remove_silently(self, v: int) -> None:
            super().remove_silently(v)
            self._tele_tick()

    Instrumented.__name__ = f"Instrumented{base.__name__}"
    Instrumented.__qualname__ = Instrumented.__name__
    return Instrumented


def finish_profile(workspace) -> None:
    """Take the final profile sample (end-of-run state), if instrumented."""
    sample = getattr(workspace, "_tele_sample", None)
    if sample is not None:
        sample()


def traced_replay(
    log: DecisionLog,
    graph,
    telemetry: Telemetry,
    algorithm: str,
    extend: bool = True,
) -> ReplayOutcome:
    """Replay a decision log under ``replay`` and ``extend`` phase spans.

    Identical outcome to :meth:`~repro.core.trace.DecisionLog.replay`; the
    two phases of solution reconstruction are timed separately so a trace
    can show how much of the tail is deferred-decision resolution versus
    the maximal-extension sweep.
    """
    with telemetry.span("replay", algorithm=algorithm, graph=graph.name) as span:
        in_set, peeled = log.resolve(graph.n)
        span.meta["log_entries"] = len(log)
    if extend:
        with telemetry.span("extend", algorithm=algorithm, graph=graph.name):
            extend_to_maximal(in_set, graph)
    surviving = sum(1 for v in peeled if not in_set[v])
    return ReplayOutcome(in_set, len(peeled), surviving)
