"""Pinned set-up state of the flat workspaces.

``FlatWorkspace`` and ``FlatTriangleWorkspace`` derive their degree,
liveness and worklist buffers from the CSR offsets with array passes.  The
state a solve starts from — ``deg``, ``alive``, the INCLUDE record of every
isolated vertex in ascending id order, ``v1``, ``v2`` and the dominance
seeds — must equal what the per-vertex loop they replaced produced.  It is
checked against a plain reference and pinned by SHA-256 over the
differential corpus plus copies of part of it with every odd id isolated.
"""

import hashlib

import pytest

from repro.core.dominance import TriangleWorkspace
from repro.core.flat_dominance import FlatTriangleWorkspace
from repro.core.trace import INCLUDE
from repro.core.workspace import FlatWorkspace
from repro.graphs import Graph

from .test_differential_backends import CORPUS


def _spread(graph):
    """``graph`` on ids ``0, 2, 4, …`` with every odd id isolated."""
    return Graph.from_edges(2 * graph.n, [(2 * u, 2 * v) for u, v in graph.edges()],
                            name=f"{graph.name}-spread")


SETUP_CORPUS = CORPUS + [_spread(graph) for graph in CORPUS[::5]]

_BUILDS = {
    "flat": lambda graph: FlatWorkspace(graph),
    "flat-track2": lambda graph: FlatWorkspace(graph, track_degree_two=True),
    "triangle": FlatTriangleWorkspace,
}


def _state(workspace):
    state = {
        "deg": list(workspace.deg),
        "alive": list(workspace.alive),
        "codes": list(workspace.log.codes),
        "v1": list(workspace.v1),
        "v2": list(workspace.v2),
        "nlive": workspace.live_vertex_count,
        "m": workspace.live_edge_count(),
    }
    if isinstance(workspace, FlatTriangleWorkspace):
        state["dominated"] = list(workspace.dominated)
    return state


def _reference(graph, track_degree_two):
    deg = graph.degrees()
    return {
        "deg": deg,
        "alive": [int(d > 0) for d in deg],
        "codes": [v << 3 | INCLUDE for v, d in enumerate(deg) if d == 0],
        "v1": [v for v, d in enumerate(deg) if d == 1],
        "v2": [v for v, d in enumerate(deg) if d == 2] if track_degree_two else [],
        "nlive": sum(1 for d in deg if d > 0),
        "m": graph.m,
    }


def test_corpus_has_isolated_vertices():
    assert sum(graph.degrees().count(0) for graph in SETUP_CORPUS) >= 1000


@pytest.mark.parametrize("kind", sorted(_BUILDS))
def test_setup_state_matches_reference(kind):
    for graph in SETUP_CORPUS:
        state = _state(_BUILDS[kind](graph))
        expected = _reference(graph, track_degree_two=kind != "flat")
        if kind == "triangle":
            expected["dominated"] = TriangleWorkspace(graph).dominated
        assert state == expected, graph.name
        assert all(type(x) is int for key in ("codes", "v1", "v2") for x in state[key])


#: SHA-256 over ``SETUP_CORPUS`` of each workspace's ``_state``, recorded
#: from the per-vertex set-up loops the array passes replaced.
_PINNED_SETUP = {
    "flat": "536f2f0873b5f266ab82d13346e2b19b99b074190b6c16cfa9d3ca7d829debf0",
    "flat-track2": "911b0f14cb269984b80b9626e08427972835d8c2d5d21e6d378d80993bd0df4a",
    "triangle": "abb7f406123d15fbf9675d4e0935179f57afedb6ac2cb22a9f6bd12bffca034b",
}


def _setup_digest(kind):
    digest = hashlib.sha256()
    for graph in SETUP_CORPUS:
        digest.update(repr(sorted(_state(_BUILDS[kind](graph)).items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(_PINNED_SETUP))
def test_setup_state_is_pinned(kind):
    assert _setup_digest(kind) == _PINNED_SETUP[kind]
