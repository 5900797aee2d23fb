"""Graph data model for AC electrical networks.

Vertices are named; every edge carries three non-negative element values
``(L, R, D)`` describing one series branch (inductive, resistive and
inverse-capacitive contributions, with ``L + R + D > 0``). The graph must
be finite, simple, loop-free and connected -- everything downstream
assumes exactly that, so it is enforced at construction time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Edge",
    "Network",
    "NetworkError",
    "bipartition",
    "diameter",
    "p4_example",
    "parse_network",
]


class NetworkError(ValueError):
    """Malformed network file or invalid network data.

    ``edge`` is the index of the offending edge when the error is about
    one edge, else None; ``parse_network`` maps it to a line number.
    """

    def __init__(self, message: str, line: int | None = None, edge: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line
        self.edge = edge


@dataclass(frozen=True)
class Edge:
    """Undirected edge between two vertex indices, with element values."""

    u: int
    v: int
    L: float = 0.0
    R: float = 0.0
    D: float = 0.0


@dataclass(frozen=True)
class Network:
    """Connected loop-free graph whose edges carry (L, R, D) values.

    Immutable after construction. The constructor is the one validator of
    network data, files included: label uniqueness and syntax, no loops,
    no duplicate edges, non-negative finite elements with a positive sum,
    connectivity. ``endpoints`` is the (m, 2) integer array of edge
    endpoints ``(u, v)``, in edge order.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    endpoints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        normalized = tuple(
            e if isinstance(e, Edge) else Edge(int(e[0]), int(e[1]), *map(float, e[2:]))
            for e in self.edges
        )
        object.__setattr__(self, "edges", normalized)
        self._validate()
        endpoints = np.array([(e.u, e.v) for e in normalized], dtype=np.intp).reshape(-1, 2)
        endpoints.flags.writeable = False
        object.__setattr__(self, "endpoints", endpoints)

    def _validate(self) -> None:
        n = len(self.vertices)
        if n < 2:
            raise NetworkError("a network needs at least two vertices")
        labels: set[str] = set()
        for label in self.vertices:
            if not label or any(ch.isspace() for ch in label) or "#" in label or "=" in label:
                raise NetworkError(f"invalid vertex label {label!r}")
            if label in labels:
                raise NetworkError(f"duplicate vertex label {label!r}")
            labels.add(label)
        seen_pairs: set[frozenset[int]] = set()
        for k, e in enumerate(self.edges):
            for idx in (e.u, e.v):
                if not 0 <= idx < n:
                    raise NetworkError(f"edge endpoint index {idx} out of range", edge=k)
            pair_label = f"between {self.vertices[e.u]!r} and {self.vertices[e.v]!r}"
            if e.u == e.v:
                raise NetworkError(f"loop edge at {self.vertices[e.u]!r}", edge=k)
            pair = frozenset((e.u, e.v))
            if pair in seen_pairs:
                raise NetworkError(f"duplicate edge {pair_label}", edge=k)
            seen_pairs.add(pair)
            if not all(math.isfinite(x) and x >= 0.0 for x in (e.L, e.R, e.D)):
                raise NetworkError(
                    f"edge {pair_label}: element values must be non-negative finite reals",
                    edge=k,
                )
            if e.L + e.R + e.D == 0.0:
                raise NetworkError(f"all-zero edge (L=R=D=0) {pair_label}", edge=k)
        dist = _bfs_distances(self.adjacency(), 0)
        for idx, d in enumerate(dist):
            if d < 0:
                raise NetworkError(
                    f"graph is disconnected ({self.vertices[idx]!r} unreachable "
                    f"from {self.vertices[0]!r})"
                )

    @property
    def n(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Neighbor lists as (vertex index, edge index) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for k, e in enumerate(self.edges):
            adj[e.u].append((e.v, k))
            adj[e.v].append((e.u, k))
        for row in adj:
            row.sort()
        return adj


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def parse_network(text: str) -> Network:
    """Parse the line-oriented network format.

    The format is UTF-8, whitespace-tokenized, with ``#`` starting a
    comment anywhere on a line::

        vertices: <label> <label> ...
        edge <label> <label> [L=<real>] [R=<real>] [D=<real>]

    Element keys may appear in any order; omitted keys default to 0.
    This function checks the text: directives, syntax, unknown labels,
    repeated keys and numbers. The :class:`Network` constructor checks
    the data. Either way the :class:`NetworkError` carries the line
    number of the offending edge, or of the ``vertices:`` line for
    errors about the vertex set or connectivity.
    """
    vertices: list[str] = []
    index: dict[str, int] = {}
    edges: list[Edge] = []
    edge_lines: list[int] = []
    vertices_line: int | None = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "vertices:":
            if vertices_line is not None:
                raise NetworkError("repeated 'vertices:' line", lineno)
            vertices = tokens[1:]
            index = {label: k for k, label in enumerate(vertices)}
            vertices_line = lineno
        elif head == "edge":
            if vertices_line is None:
                raise NetworkError("'edge' line before 'vertices:' line", lineno)
            if len(tokens) < 3:
                raise NetworkError("edge needs two endpoint labels", lineno)
            a, b = tokens[1], tokens[2]
            for label in (a, b):
                if label not in index:
                    raise NetworkError(f"unknown vertex label {label!r}", lineno)
            elements = {"L": 0.0, "R": 0.0, "D": 0.0}
            given: set[str] = set()
            for token in tokens[3:]:
                key, sep, value = token.partition("=")
                if not sep or key not in elements:
                    raise NetworkError(f"expected L=/R=/D= assignment, got {token!r}", lineno)
                if key in given:
                    raise NetworkError(f"repeated element key {key!r}", lineno)
                try:
                    elements[key] = float(value)
                except ValueError:
                    raise NetworkError(f"bad numeric value {value!r}", lineno) from None
                given.add(key)
            edges.append(Edge(index[a], index[b], elements["L"], elements["R"], elements["D"]))
            edge_lines.append(lineno)
        else:
            raise NetworkError(f"unrecognized directive {head!r}", lineno)

    if vertices_line is None:
        raise NetworkError("missing 'vertices:' line")
    try:
        return Network(tuple(vertices), tuple(edges))
    except NetworkError as exc:
        line = vertices_line if exc.edge is None else edge_lines[exc.edge]
        raise NetworkError(str(exc), line, exc.edge) from None


# ---------------------------------------------------------------------------
# graph metrics
# ---------------------------------------------------------------------------

def _bfs_distances(adj: list[list[tuple[int, int]]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y, _ in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def diameter(net: Network) -> int:
    """Maximum over vertex pairs of the shortest-path edge count."""
    adj = net.adjacency()
    return max(max(_bfs_distances(adj, src)) for src in range(net.n))


def bipartition(net: Network) -> bool:
    """Whether BFS distance parity two-colors the graph: False if an edge
    joins two vertices at the same distance, which closes an odd cycle."""
    dist = _bfs_distances(net.adjacency(), 0)
    return not any(dist[e.u] == dist[e.v] for e in net.edges)


# ---------------------------------------------------------------------------
# the built-in example
# ---------------------------------------------------------------------------

def p4_example() -> Network:
    """The 4-vertex path whose edge weights become s, 1/s, s.

    Outer edges are pure inverse-capacitance (D=1, weight s), the middle
    edge pure inductance (L=1, weight 1/s).
    """
    return Network(
        ("x1", "x2", "x3", "x4"),
        (
            Edge(0, 1, 0.0, 0.0, 1.0),
            Edge(1, 2, 1.0, 0.0, 0.0),
            Edge(2, 3, 0.0, 0.0, 1.0),
        ),
    )
