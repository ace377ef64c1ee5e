"""Backend selection for the table/figure benchmark scripts.

The benchmark suite regenerates the paper's tables with the default (flat
CSR) drivers.  ``pytest benchmarks/ --backend vectorized`` re-runs the
same scripts with the reducing-peeling family swapped for another
execution backend, so the paper artefacts double as a cross-backend
differential harness:

* ``legacy``     — the reference oracles (list-of-lists
  :class:`~repro.core.workspace.ArrayWorkspace`, list-of-dicts
  :class:`~repro.core.dominance.TriangleWorkspace`);
* ``flat``       — the flat CSR buffers (the default);
* ``vectorized`` — batch frontier sweeps over numpy buffers
  (:mod:`repro.core.vectorized`);
* ``auto``       — per-instance dispatch between ``flat`` and
  ``vectorized`` using the size/density heuristic
  (:mod:`repro.core.auto`).

BDOne and LinearTime are swapped in every family.  NearLinear has one
production backend, so ``vectorized`` and ``auto`` run the flat driver
for it; BDTwo (whose fold workspace has no alternative backend) always
runs its own driver, and scripts that need it fetch it directly.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.auto import bdone_auto, linear_time_auto
from ..core.bdone import bdone
from ..core.dominance import TriangleWorkspace
from ..core.linear_time import linear_time
from ..core.near_linear import near_linear
from ..core.result import MISResult
from ..core.vectorized import bdone_vec, linear_time_vec
from ..core.workspace import ArrayWorkspace
from ..graphs.static_graph import Graph

__all__ = ["BACKENDS", "resolve_backend"]

Solver = Callable[[Graph], MISResult]


def _bdone_legacy(graph: Graph) -> MISResult:
    return bdone(graph, workspace_factory=ArrayWorkspace)


def _linear_time_legacy(graph: Graph) -> MISResult:
    return linear_time(graph, workspace_factory=ArrayWorkspace)


def _near_linear_legacy(graph: Graph) -> MISResult:
    return near_linear(graph, workspace_factory=TriangleWorkspace)


BACKENDS: Dict[str, Dict[str, Solver]] = {
    "legacy": {
        "bdone": _bdone_legacy,
        "linear_time": _linear_time_legacy,
        "near_linear": _near_linear_legacy,
    },
    "flat": {
        "bdone": bdone,
        "linear_time": linear_time,
        "near_linear": near_linear,
    },
    "vectorized": {
        "bdone": bdone_vec,
        "linear_time": linear_time_vec,
        "near_linear": near_linear,
    },
    "auto": {
        "bdone": bdone_auto,
        "linear_time": linear_time_auto,
        "near_linear": near_linear,
    },
}


def resolve_backend(name: str) -> Dict[str, Solver]:
    """The solver family for ``name`` (see :data:`BACKENDS` for choices).

    Unknown names raise :class:`ValueError` listing the valid choices —
    scripts surface it directly, so the message is the help text.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
