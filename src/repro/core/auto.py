"""The ``auto`` backend: per-instance dispatch between flat and vectorized.

The vectorized drivers (:mod:`repro.core.vectorized`) win big on large
reduction-heavy graphs and *lose* on small or peel-dominated ones — numpy
round setup is a fixed cost per frontier sweep, so a G(n, m) graph whose
degree distribution leaves almost nothing for the exact rules pays it over
and over for nothing.  This module packages the dispatch decision:

* :func:`choose_backend_name` inspects two O(n) statistics of the input —
  the vertex count and the fraction of vertices with degree ≤ 2 (the mass
  the degree-one/degree-two rules can start from) — and picks ``"flat"``
  or ``"vectorized"``;
* the per-family size crossovers live in a :class:`Calibration` that can
  be re-measured on the host machine (``repro calibrate``, implemented in
  :mod:`repro.bench.calibrate`) and persisted to
  :func:`calibration_path`;
* :func:`bdone_auto` / :func:`linear_time_auto` / :func:`near_linear_auto`
  are module-level solvers (picklable by reference, like every registry
  entry) that dispatch per input graph — handed to
  :func:`~repro.perf.parallel.solve_by_components_parallel`, each
  *component* gets its own pick.

The legacy backend is never chosen: it is the reference oracle and is
slower than flat on every tracked workload (see ``docs/performance.md``),
so dispatch is a flat/vectorized decision.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as _np

from ..graphs.static_graph import Graph
from ..obs.metrics import METRIC_AUTO_BACKEND_PICKS, get_metrics
from ..obs.telemetry import get_telemetry
from .bdone import bdone
from .linear_time import linear_time
from .near_linear import near_linear
from .result import MISResult
from .vectorized import bdone_vec, linear_time_vec, near_linear_vec

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "bdone_auto",
    "calibration_path",
    "choose_backend_name",
    "linear_time_auto",
    "load_calibration",
    "near_linear_auto",
    "reset_calibration_cache",
]

#: Environment variable overriding the calibration file location (used by
#: tests and by deployments that pin a shared calibration).
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: Stat key recording which backend the auto dispatcher picked (value 1).
STAT_AUTO_FLAT = "auto_pick_flat"
STAT_AUTO_VEC = "auto_pick_vectorized"


@dataclass(frozen=True)
class Calibration:
    """Per-machine dispatch thresholds for the ``auto`` backend.

    ``crossover_n`` maps an algorithm family (``"linear_time"``,
    ``"near_linear"``; ``"bdone"`` falls back to ``"linear_time"``, whose
    workspace it shares) to the smallest vertex count at which the
    vectorized driver beats the flat one on reduction-heavy inputs.
    ``min_low_frac`` is the minimum fraction of degree-≤2 vertices for a
    vectorized pick — below it the exact rules have too little to start
    from and the batch sweeps only add overhead (the G(n, m) regime).
    ``source`` records where the numbers came from (``"default"`` or the
    calibration file path) for report provenance.
    """

    crossover_n: Dict[str, int]
    min_low_frac: float = 0.25
    source: str = "default"

    def crossover_for(self, family: str) -> int:
        """The size crossover for ``family`` (bdone → linear_time)."""
        if family in self.crossover_n:
            return self.crossover_n[family]
        if family == "bdone":
            return self.crossover_n.get("linear_time", _DEFAULT_CROSSOVER)
        return _DEFAULT_CROSSOVER

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable dump (inverse of :meth:`from_payload`)."""
        return {
            "version": 1,
            "crossover_n": dict(self.crossover_n),
            "min_low_frac": self.min_low_frac,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object], source: str) -> "Calibration":
        """Rebuild a calibration from a :meth:`to_payload` dump."""
        raw = payload.get("crossover_n", {})
        crossover = {
            str(family): int(value)
            for family, value in raw.items()  # type: ignore[union-attr]
        }
        return cls(
            crossover_n=crossover,
            min_low_frac=float(payload.get("min_low_frac", 0.25)),  # type: ignore[arg-type]
            source=source,
        )


_DEFAULT_CROSSOVER = 3_500

#: Measured on the reference container (see ``docs/performance.md``):
#: LinearTime-vec overtakes flat between web-3k and plr-4k; NearLinear-vec
#: already wins at 3k on skewed graphs but ties flat around 1k.
DEFAULT_CALIBRATION = Calibration(
    crossover_n={"linear_time": 3_500, "near_linear": 2_500},
)

_cached_calibration: Optional[Calibration] = None


def calibration_path() -> str:
    """Where the per-machine calibration file lives.

    ``$REPRO_CALIBRATION`` wins when set; the default is
    ``~/.cache/repro/calibration.json`` (honouring ``$XDG_CACHE_HOME``).
    """
    override = os.environ.get(CALIBRATION_ENV)
    if override:
        return override
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(cache_home, "repro", "calibration.json")


def load_calibration() -> Calibration:
    """The active calibration: the persisted file if present, else defaults.

    The result is cached for the life of the process (the dispatch check
    runs once per solve; re-reading a JSON file each time would dwarf the
    statistics it feeds).  :func:`reset_calibration_cache` drops the cache
    after a calibration run or an env-var change.
    """
    # Worker-local memo by design: each forked worker re-reads the file
    # once; nothing is published back to the parent.
    global _cached_calibration  # reprolint: disable=RL007
    if _cached_calibration is not None:
        return _cached_calibration
    path = calibration_path()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        calibration = Calibration.from_payload(payload, source=path)
    except (OSError, ValueError, TypeError, AttributeError):
        calibration = DEFAULT_CALIBRATION
    _cached_calibration = calibration
    return calibration


def reset_calibration_cache() -> None:
    """Forget the cached calibration (next load re-reads the file)."""
    global _cached_calibration
    _cached_calibration = None


def _low_degree_fraction(graph: Graph) -> float:
    """Fraction of vertices with degree ≤ 2 (one O(n) pass)."""
    if graph.n == 0:
        return 0.0
    offsets, _ = graph.flat_csr()
    deg = _np.diff(_np.frombuffer(offsets, dtype=_np.int64))
    return float((deg <= 2).mean())


def choose_backend_name(
    graph: Graph,
    family: str = "linear_time",
    calibration: Optional[Calibration] = None,
) -> str:
    """``"flat"`` or ``"vectorized"`` for running ``family`` on ``graph``.

    Vectorized iff the graph clears the family's calibrated size
    crossover and at least ``min_low_frac`` of its vertices have degree
    ≤ 2 (enough reduction mass for the batch rounds to amortise their
    numpy setup).  Anything else runs flat.
    """
    calibration = calibration or load_calibration()
    if graph.n < calibration.crossover_for(family):
        return "flat"
    if _low_degree_fraction(graph) < calibration.min_low_frac:
        return "flat"
    return "vectorized"


def _dispatch(
    graph: Graph,
    family: str,
    flat_solver,
    vec_solver,
    auto_name: str,
) -> MISResult:
    picked = choose_backend_name(graph, family)
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


def near_linear_auto(graph: Graph) -> MISResult:
    """NearLinear with per-instance backend dispatch (``NearLinear-auto``)."""
    return _dispatch(
        graph, "near_linear", near_linear, near_linear_vec, "NearLinear-auto"
    )
