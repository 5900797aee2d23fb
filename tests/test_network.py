import itertools

import numpy as np
import pytest

from acnet_spectra import (
    Edge,
    Network,
    NetworkError,
    bipartition,
    diameter,
    p4_example,
    parse_network,
)
from acnet_spectra.network import _bfs_distances
from conftest import random_connected_network
from oracles import complete_network, cycle_network, path_network, serialize_network

P4_TEXT = """\
# four-vertex path with weights s, 1/s, s
vertices: x1 x2 x3 x4
edge x1 x2 D=1
edge x2 x3 L=1
edge x3 x4 D=1
"""


def test_parse_minimal():
    net = parse_network("vertices: a b\nedge a b L=0 R=1 D=0")
    assert net.n == 2
    assert net.edges == (Edge(0, 1, 0.0, 1.0, 0.0),)


def test_parse_p4_file_matches_builder():
    assert parse_network(P4_TEXT) == p4_example()


def test_parse_defaults_and_comments():
    net = parse_network("vertices: a b c  # labels\nedge a b R=2.5e-1\nedge b c D=1 L=3\n")
    assert net.edges[0] == Edge(0, 1, 0.0, 0.25, 0.0)
    assert net.edges[1] == Edge(1, 2, 3.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("vertices: a b\nedge a b L=0 R=0 D=0", 2, "all-zero edge"),
        ("vertices: a b\nedge a a R=1", 2, "loop"),
        ("vertices: a b\nedge a b R=1\nedge b a D=1", 3, "duplicate edge"),
        ("vertices: a b\nedge a c R=1", 2, "unknown vertex label"),
        ("vertices: a b\nedge a b R=x", 2, "bad numeric value"),
        ("vertices: a b\nedge a b R=1 R=2", 2, "repeated element key"),
        ("vertices: a b\nedge a b Q=1", 2, "expected L=/R=/D="),
        ("vertices: a a\nedge a a R=1", 1, "duplicate vertex label"),
        ("vertices: a b\nwire a b", 2, "unrecognized directive"),
        ("edge a b R=1", 1, "before 'vertices:'"),
        ("vertices: a\n", 1, "at least two"),
        ("vertices: a b\nedge a b R=-1", 2, "non-negative"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(NetworkError) as err:
        parse_network(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_parse_rejects_disconnected():
    text = "vertices: a b c d\nedge a b R=1\nedge c d R=1"
    with pytest.raises(NetworkError, match="disconnected") as err:
        parse_network(text)
    assert err.value.line == 1  # the vertices: line


def test_parse_rejects_missing_vertices_line():
    with pytest.raises(NetworkError, match="missing 'vertices:'"):
        parse_network("# nothing here\n")


def test_roundtrip_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = random_connected_network(rng)
        assert parse_network(serialize_network(net)) == net


def test_roundtrip_preserves_scientific_notation():
    net = Network(("a", "b"), (Edge(0, 1, 2.5e-07, 0.0, 1.0),))
    again = parse_network(serialize_network(net))
    assert again.edges[0].L == 2.5e-07


def test_constructor_rejects_bad_data():
    with pytest.raises(NetworkError):
        Network(("a",), ())
    with pytest.raises(NetworkError):
        Network(("a", "b"), ())  # disconnected
    with pytest.raises(NetworkError):
        Network(("a", "b"), (Edge(0, 0, 0, 1, 0),))
    with pytest.raises(NetworkError):
        Network(("a", "b"), (Edge(0, 1, 0, 1, 0), Edge(1, 0, 0, 2, 0)))
    with pytest.raises(NetworkError):
        Network(("a", "b"), (Edge(0, 1, 0, float("nan"), 0),))
    with pytest.raises(NetworkError):
        Network(("a", "b c"), (Edge(0, 1, 0, 1, 0),))


def test_diameter_examples():
    assert diameter(p4_example()) == 3
    assert diameter(complete_network(4)) == 1
    assert diameter(cycle_network(6)) == 3


def test_diameter_upper_bound_and_path_equality():
    rng = np.random.default_rng(12)
    for _ in range(40):
        net = random_connected_network(rng, n_max=8)
        d = diameter(net)
        assert 1 <= d <= net.n - 1
        if d == net.n - 1:
            # only paths reach the bound
            degrees = [0] * net.n
            for e in net.edges:
                degrees[e.u] += 1
                degrees[e.v] += 1
            assert len(net.edges) == net.n - 1 and max(degrees) <= 2
    for k in range(2, 9):
        assert diameter(path_network(k)) == k - 1


def _has_two_coloring(net):
    """Brute-force oracle: try every assignment of the vertex set."""
    for colors in itertools.product((0, 1), repeat=net.n):
        if all(colors[e.u] != colors[e.v] for e in net.edges):
            return True
    return False


def _two_coloring(net):
    """Vertex sets at even and odd BFS distance from vertex 0."""
    dist = _bfs_distances(net.adjacency(), 0)
    return {i for i, d in enumerate(dist) if d % 2 == 0}, {i for i, d in enumerate(dist) if d % 2}


def test_bipartition_examples():
    assert bipartition(p4_example()) is True
    assert _two_coloring(p4_example()) == ({0, 2}, {1, 3})
    assert bipartition(complete_network(3)) is False
    assert bipartition(cycle_network(4)) is True
    assert sorted(map(len, _two_coloring(cycle_network(4)))) == [2, 2]


def test_bipartition_against_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(50):
        net = random_connected_network(rng, n_max=8)
        assert bipartition(net) == _has_two_coloring(net)
        if bipartition(net):
            plus, _ = _two_coloring(net)
            for e in net.edges:
                assert (e.u in plus) != (e.v in plus)


def test_adjacency_is_sorted_and_immutables_shared():
    net = p4_example()
    adj = net.adjacency()
    assert adj[1] == [(0, 0), (2, 1)]
