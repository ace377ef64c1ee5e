"""Reading and writing graphs in the formats common to MIS benchmarks.

Three formats are supported, covering the ecosystems the paper draws its
inputs from:

* **edge list** — the SNAP distribution format: one ``u v`` pair per line,
  ``#`` comments, arbitrary (possibly sparse) vertex ids which are compacted;
* **METIS** — the format used by KaMIS/ReduMIS: a header ``n m`` line
  followed by one 1-indexed adjacency line per vertex;
* **DIMACS** — the clique/colouring benchmark format: ``p edge n m`` header
  and ``e u v`` lines, 1-indexed.
"""

from __future__ import annotations

import io
import os
from typing import List, TextIO, Tuple, Union

from ..errors import GraphFormatError
from .static_graph import Graph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "read_dimacs",
    "write_dimacs",
    "loads_edge_list",
    "dumps_edge_list",
]

PathOrFile = Union[str, "os.PathLike[str]", TextIO]


def _open_for_read(source: PathOrFile):
    if hasattr(source, "read"):
        return source, False
    return open(os.fspath(source), "r", encoding="utf-8"), True


def _open_for_write(target: PathOrFile):
    if hasattr(target, "write"):
        return target, False
    return open(os.fspath(target), "w", encoding="utf-8"), True


# ----------------------------------------------------------------------
# Edge list (SNAP style)
# ----------------------------------------------------------------------
def read_edge_list(source: PathOrFile, name: str = "") -> Tuple[Graph, List[int]]:
    """Read a SNAP-style edge list.

    Vertex labels may be arbitrary integers; they are compacted to
    ``0 .. n-1`` in sorted-label order.  A header comment of the form
    ``# repro graph: n=N ...`` (as written by :func:`write_edge_list`)
    declares the vertex *count*: when the edge lines mention fewer than
    ``N`` distinct labels, the smallest unused non-negative integers are
    added as isolated vertices, which preserves them across a round trip
    without inventing phantom vertices for 1-indexed or sparse-label
    files.  Returns ``(graph, labels)`` where ``labels[new_id]`` is the
    original label.
    """
    handle, close = _open_for_read(source)
    try:
        seen_labels: set = set()
        declared_n: int = 0
        raw_edges: List[Tuple[int, int]] = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                if "repro graph:" in line:
                    for token in line.split():
                        if token.startswith("n="):
                            declared_n = max(declared_n, int(token[2:]))
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(f"expected 'u v', got {line!r}", line_number)
            try:
                u_label, v_label = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"non-integer vertex in {line!r}", line_number) from exc
            seen_labels.add(u_label)
            seen_labels.add(v_label)
            raw_edges.append((u_label, v_label))
        filler = 0
        while len(seen_labels) < declared_n:
            if filler not in seen_labels:
                seen_labels.add(filler)
            filler += 1
        labels = sorted(seen_labels)
        label_to_id = {label: new for new, label in enumerate(labels)}
        edges = [(label_to_id[u], label_to_id[v]) for u, v in raw_edges]
        graph = Graph.from_edges(len(labels), edges, name=name)
        return graph, labels
    finally:
        if close:
            handle.close()


def write_edge_list(graph: Graph, target: PathOrFile) -> None:
    """Write the graph as a SNAP-style edge list (one ``u v`` per line)."""
    handle, close = _open_for_write(target)
    try:
        handle.write(f"# repro graph: n={graph.n} m={graph.m}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
    finally:
        if close:
            handle.close()


def loads_edge_list(text: str, name: str = "") -> Graph:
    """Parse an edge list from a string (convenience wrapper)."""
    graph, _ = read_edge_list(io.StringIO(text), name=name)
    return graph


def dumps_edge_list(graph: Graph) -> str:
    """Serialise the graph to an edge-list string."""
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# METIS
# ----------------------------------------------------------------------
def read_metis(source: PathOrFile, name: str = "") -> Graph:
    """Read a METIS graph file (1-indexed adjacency lines)."""
    handle, close = _open_for_read(source)
    try:
        lines = [ln.strip() for ln in handle]
    finally:
        if close:
            handle.close()
    # Comments are dropped, but blank lines after the header are adjacency
    # lines of isolated vertices and must be kept; trailing blanks beyond
    # the declared vertex count are ignored.
    content = [(i + 1, ln) for i, ln in enumerate(lines) if not ln.startswith("%")]
    while content and not content[0][1]:
        content.pop(0)
    if not content:
        raise GraphFormatError("empty METIS file")
    header_no, header = content[0]
    parts = header.split()
    if len(parts) < 2:
        raise GraphFormatError(f"bad METIS header {header!r}", header_no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad METIS header {header!r}", header_no) from exc
    body = content[1 : n + 1]
    if len(body) != n:
        raise GraphFormatError(f"expected {n} adjacency lines, found {len(body)}")
    if any(ln for _, ln in content[n + 1 :]):
        raise GraphFormatError(f"unexpected content after {n} adjacency lines")
    edges: List[Tuple[int, int]] = []
    append = edges.append
    for u, (line_number, line) in enumerate(body):
        for token in line.split():
            try:
                v = int(token) - 1
            except ValueError as exc:
                raise GraphFormatError(f"non-integer neighbour {token!r}", line_number) from exc
            if not 0 <= v < n:
                raise GraphFormatError(f"neighbour {token} out of range", line_number)
            append((u, v))
    graph = Graph.from_edges(n, edges, name=name)
    if graph.m != m:
        raise GraphFormatError(f"header declares m={m} but file contains m={graph.m}")
    return graph


def write_metis(graph: Graph, target: PathOrFile) -> None:
    """Write the graph in METIS format."""
    handle, close = _open_for_write(target)
    try:
        handle.write(f"{graph.n} {graph.m}\n")
        for u in range(graph.n):
            handle.write(" ".join(str(v + 1) for v in graph.neighbors(u)) + "\n")
    finally:
        if close:
            handle.close()


# ----------------------------------------------------------------------
# DIMACS
# ----------------------------------------------------------------------
def read_dimacs(source: PathOrFile, name: str = "") -> Graph:
    """Read a DIMACS ``p edge`` file (1-indexed ``e u v`` lines)."""
    handle, close = _open_for_read(source)
    try:
        n = None
        edges: List[Tuple[int, int]] = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphFormatError(f"bad problem line {line!r}", line_number)
                n = int(parts[2])
            elif parts[0] == "e":
                if n is None:
                    raise GraphFormatError("edge line before problem line", line_number)
                if len(parts) < 3:
                    raise GraphFormatError(f"bad edge line {line!r}", line_number)
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphFormatError(f"edge {line!r} out of range", line_number)
                edges.append((u, v))
        if n is None:
            raise GraphFormatError("missing problem line")
        return Graph.from_edges(n, edges, name=name)
    finally:
        if close:
            handle.close()


def write_dimacs(graph: Graph, target: PathOrFile) -> None:
    """Write the graph in DIMACS ``p edge`` format."""
    handle, close = _open_for_write(target)
    try:
        handle.write(f"p edge {graph.n} {graph.m}\n")
        for u, v in graph.edges():
            handle.write(f"e {u + 1} {v + 1}\n")
    finally:
        if close:
            handle.close()
