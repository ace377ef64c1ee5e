"""The ``auto`` backend: per-instance dispatch between flat and vectorized.

The vectorized drivers (:mod:`repro.core.vectorized`) win big on large
reduction-heavy graphs and *lose* on small or peel-dominated ones — numpy
round setup is a fixed cost per frontier sweep, so a G(n, m) graph whose
degree distribution leaves almost nothing for the exact rules pays it over
and over for nothing.  This module packages the dispatch decision:

* :func:`choose_backend_name` inspects two O(n) statistics of the input —
  the vertex count and the fraction of vertices with degree ≤ 2 (the mass
  the degree-one/degree-two rules can start from) — and picks ``"flat"``
  or ``"vectorized"`` against the fixed thresholds :data:`CROSSOVER_N`
  and :data:`MIN_LOW_FRAC`;
* :func:`bdone_auto` / :func:`linear_time_auto` are module-level solvers
  (picklable by reference, like every registry entry) that dispatch per
  input graph — handed to
  :func:`~repro.perf.parallel.solve_by_components_parallel`, each
  *component* gets its own pick.

The legacy backend is never chosen: it is the reference oracle and is
slower than flat on every tracked workload (see ``docs/performance.md``),
so dispatch is a flat/vectorized decision.  NearLinear has one backend
(its only phase that ever differed between backends, the one-pass
dominance sweep, is a single function), so it has no ``auto`` spelling.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Callable

import numpy as _np

from ..graphs.static_graph import Graph
from ..obs.metrics import METRIC_AUTO_BACKEND_PICKS, get_metrics
from ..obs.telemetry import get_telemetry
from .bdone import bdone
from .linear_time import linear_time
from .result import MISResult
from .vectorized import bdone_vec, linear_time_vec

__all__ = [
    "CROSSOVER_N",
    "MIN_LOW_FRAC",
    "bdone_auto",
    "choose_backend_name",
    "linear_time_auto",
]

#: Stat key recording which backend the auto dispatcher picked (value 1).
STAT_AUTO_FLAT = "auto_pick_flat"
STAT_AUTO_VEC = "auto_pick_vectorized"

#: Smallest vertex count at which the vectorized LinearTime / BDOne
#: drivers run: LinearTime-vec overtakes flat between web-3k and plr-4k on
#: reduction-heavy graphs (see ``docs/performance.md``).
CROSSOVER_N = 3_500

#: Minimum fraction of degree-≤2 vertices for a vectorized pick — below
#: it the exact rules have too little to start from and the batch sweeps
#: only add overhead (the G(n, m) regime).
MIN_LOW_FRAC = 0.25


def _low_degree_fraction(graph: Graph) -> float:
    """Fraction of vertices with degree ≤ 2 (one O(n) pass)."""
    if graph.n == 0:
        return 0.0
    offsets, _ = graph.flat_csr()
    deg = _np.diff(_np.frombuffer(offsets, dtype=_np.int64))
    return float((deg <= 2).mean())


def choose_backend_name(graph: Graph) -> str:
    """``"flat"`` or ``"vectorized"`` for running LinearTime/BDOne on ``graph``.

    Vectorized iff the graph has at least :data:`CROSSOVER_N` vertices and
    at least :data:`MIN_LOW_FRAC` of them have degree ≤ 2 (enough
    reduction mass for the batch rounds to amortise their numpy setup).
    Anything else runs flat.
    """
    if graph.n < CROSSOVER_N:
        return "flat"
    if _low_degree_fraction(graph) < MIN_LOW_FRAC:
        return "flat"
    return "vectorized"


def _dispatch(
    graph: Graph,
    family: str,
    flat_solver: Callable[[Graph], MISResult],
    vec_solver: Callable[[Graph], MISResult],
    auto_name: str,
) -> MISResult:
    picked = choose_backend_name(graph)
    if picked == "vectorized":
        result = vec_solver(graph)
        stat = STAT_AUTO_VEC
    else:
        result = flat_solver(graph)
        stat = STAT_AUTO_FLAT
    stats = dict(result.stats)
    stats[stat] = stats.get(stat, 0) + 1
    telemetry = get_telemetry()
    if telemetry is not None:
        # Free-form record (gets the scoped request/component stamp), so a
        # merged trace can say which backend each request's components ran.
        telemetry.record(
            {
                "type": "backend_pick",
                "algorithm": auto_name,
                "graph": graph.name,
                "n": graph.n,
                "backend": picked,
                "pid": os.getpid(),
            }
        )
    # Meters the common in-process case; inside a forked worker the pick
    # still reaches the parent through the telemetry stamp above, so the
    # lost registry increment is intentional.
    metrics = get_metrics()  # reprolint: disable=RL007
    if metrics is not None:
        metrics.inc(  # reprolint: disable=RL007
            METRIC_AUTO_BACKEND_PICKS, family=family, backend=picked
        )
    return replace(result, algorithm=auto_name, stats=stats)


def bdone_auto(graph: Graph) -> MISResult:
    """BDOne with per-instance backend dispatch (``BDOne-auto``)."""
    return _dispatch(graph, "bdone", bdone, bdone_vec, "BDOne-auto")


def linear_time_auto(graph: Graph) -> MISResult:
    """LinearTime with per-instance backend dispatch (``LinearTime-auto``)."""
    return _dispatch(
        graph, "linear_time", linear_time, linear_time_vec, "LinearTime-auto"
    )

