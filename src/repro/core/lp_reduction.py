"""Linear-programming based reduction (Nemhauser–Trotter / crown family).

The LP relaxation of vertex cover (``min Σ x_v`` s.t. ``x_u + x_v ≥ 1``)
always has a half-integral optimum computable from a maximum matching on the
*bipartite double cover*: vertices are split into left/right copies and each
edge ``(u, v)`` becomes ``(L_u, R_v)`` and ``(L_v, R_u)``.  König's theorem
turns a maximum matching into a minimum vertex cover of the double cover,
and ``x_v = (|{L_v} ∩ C| + |{R_v} ∩ C|) / 2 ∈ {0, ½, 1}``.

By the Nemhauser–Trotter persistency theorem, some maximum independent set
contains every vertex with ``x_v = 0`` and no vertex with ``x_v = 1``, so

    ``α(G) = |V₀| + α(G[V_½])``.

The paper runs this reduction once inside NearLinear's preprocessing
(Section 5) — it is also the "linear programming-based upper bound" of [1]
used in Table 7: ``α(G) ≤ |V₀| + |V_½| / 2``.

The double cover's biadjacency matrix is the graph's own CSR, so the
matching is one :func:`scipy.sparse.csgraph.maximum_bipartite_matching`
call, and the König set is one breadth-first search.  By the
Dulmage–Mendelsohn decomposition the König set does not depend on which
maximum matching scipy finds, so neither does the classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..graphs.static_graph import Graph

__all__ = ["LPReductionResult", "lp_reduction", "lp_upper_bound"]


@dataclass(frozen=True)
class LPReductionResult:
    """Outcome of the LP reduction.

    ``included`` are the ``x = 0`` vertices (go into the solution),
    ``excluded`` the ``x = 1`` vertices (removed), ``remaining`` the
    ``x = ½`` vertices (the residual problem); ``α(G) = |included| +
    α(G[remaining])``.
    """

    included: Tuple[int, ...]
    excluded: Tuple[int, ...]
    remaining: Tuple[int, ...]

    @property
    def lp_bound(self) -> float:
        """The LP upper bound on α: ``|V₀| + |V_½| / 2``."""
        return len(self.included) + len(self.remaining) / 2.0


def lp_reduction(graph: Graph) -> LPReductionResult:
    """Classify every vertex by its half-integral LP value.

    König's construction: ``Z`` is the set of double-cover vertices
    reachable from the free left vertices by alternating paths, and the
    minimum cover is ``(L ∖ Z_L) ∪ Z_R``.  So ``x_v = 0`` exactly when
    ``L_v ∈ Z`` and ``R_v ∉ Z``, and ``x_v = 1`` in the mirrored case.
    """
    # Imported here: scipy.sparse.csgraph is slow to import, and processes
    # that never run the LP (LinearTime solves, most CLI commands) should
    # not pay for it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching

    n = graph.n
    offsets, targets = graph.flat_csr()
    indptr = np.frombuffer(offsets, dtype=np.int64).astype(np.int32)
    if len(targets):
        indices = np.frombuffer(targets, dtype=np.int32)
    else:
        indices = np.zeros(0, dtype=np.int32)
    double_cover = csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n)
    )
    # match_right[v] is the left vertex matched to R_v, or -1 (int32).
    match_right = maximum_bipartite_matching(double_cover, perm_type="row")
    matched = match_right >= 0
    partners = match_right[matched]
    matched_left = np.zeros(n, dtype=bool)
    matched_left[partners] = True
    free_left = np.flatnonzero(~matched_left).astype(np.int32)
    # Alternating reachability on 2n + 1 nodes: L_u is node u, R_v is node
    # n + v, and node 2n is a source pointing at every free left vertex.
    # Arcs L_u → R_v for every edge, R_v → L_match(v) for every matched v.
    # (The arc along u's own matching edge only leads back to the right
    # vertex u was reached from, so it never changes the reachable set.)
    reach_indptr = np.concatenate((
        indptr,
        indptr[-1] + np.cumsum(matched, dtype=np.int32),
        np.array([len(indices) + len(partners) + len(free_left)], dtype=np.int32),
    ))
    reach_indices = np.concatenate((indices + np.int32(n), partners, free_left))
    reach = csr_matrix(
        (np.ones(len(reach_indices), dtype=np.int8), reach_indices, reach_indptr),
        shape=(2 * n + 1, 2 * n + 1),
    )
    in_z = np.zeros(2 * n + 1, dtype=bool)
    in_z[breadth_first_order(reach, 2 * n, directed=True, return_predecessors=False)] = True
    z_left, z_right = in_z[:n], in_z[n : 2 * n]
    return LPReductionResult(
        tuple(np.flatnonzero(z_left & ~z_right).tolist()),
        tuple(np.flatnonzero(z_right & ~z_left).tolist()),
        tuple(np.flatnonzero(z_left == z_right).tolist()),
    )


def lp_upper_bound(graph: Graph) -> float:
    """The LP relaxation upper bound on α(G) (used by Table 7)."""
    return lp_reduction(graph).lp_bound
