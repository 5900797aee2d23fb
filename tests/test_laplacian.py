import numpy as np
import pytest

from acnet_spectra import (
    Edge,
    Network,
    admittance_table,
    assemble,
    eigenvalues,
    format_complex,
    p4_example,
)
from conftest import build_corpus, random_connected_network, random_frequency
from oracles import complex_power, edge_admittance, green_residual


def p4_closed_form(s: complex) -> np.ndarray:
    q = s * s / (1 + s * s)
    r = 1 / (s * s + 1)
    return np.array(
        [
            [1, -1, 0, 0],
            [-q, 1, -r, 0],
            [0, -r, 1, -q],
            [0, 0, -1, 1],
        ],
        dtype=complex,
    )


@pytest.mark.parametrize("s", [1 + 2j, 0.5 + 0.3j, 2.0 + 0j, 0.1 - 1.7j])
def test_assemble_p4_matches_closed_form(s):
    lap = assemble(p4_example(), s)
    assert np.allclose(lap.entries, p4_closed_form(s), atol=1e-14)


def test_assemble_single_edge_is_frequency_independent():
    net = Network(("a", "b"), (Edge(0, 1, 0.3, 0.2, 0.5),))
    for s in (1.0, 1 + 2j, 0.05 + 2.9j):
        lap = assemble(net, s)
        assert np.allclose(lap.entries, [[1, -1], [-1, 1]], atol=1e-15)


def test_assemble_unit_diagonal_and_zero_row_sums():
    rng = np.random.default_rng(31)
    for _ in range(30):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        a = assemble(net, s).entries
        assert np.allclose(np.diag(a), 1.0)
        assert np.max(np.abs(a.sum(axis=1))) < 1e-12
        # off-diagonal zeros exactly on non-edges
        pairs = {frozenset((e.u, e.v)) for e in net.edges}
        for x in range(net.n):
            for y in range(net.n):
                if x != y and frozenset((x, y)) not in pairs:
                    assert a[x, y] == 0


def test_dual_is_entrywise_conjugate():
    # the dual network at s is the network at conj s: A(conj s) = conj A(s)
    for s in (1 + 2j, 0.4 + 0.9j, 3.0 + 0j):
        lap = assemble(p4_example(), s)
        dual = assemble(p4_example(), s.conjugate())
        assert np.array_equal(dual.entries, lap.entries.conj())
    # with all three element kinds on one edge
    net = Network(("a", "b", "c"), (Edge(0, 1, 0.2, 0.3, 0.4), Edge(1, 2, 1.0, 0.5, 0.0)))
    lap = assemble(net, 0.8 + 1.1j)
    dual = assemble(net, 0.8 - 1.1j)
    assert np.array_equal(dual.entries, lap.entries.conj())


def test_assemble_matches_edge_admittance_bitwise():
    # the matrix built entry by entry from the scalar formula, as a reference
    for net, s in build_corpus(0):
        rho = [edge_admittance(e.L, e.R, e.D, s) for e in net.edges]
        rho_vertex = np.zeros(net.n, dtype=complex)
        for k, e in enumerate(net.edges):
            rho_vertex[e.u] += rho[k]
            rho_vertex[e.v] += rho[k]
        expected = np.eye(net.n, dtype=complex)
        for k, e in enumerate(net.edges):
            expected[e.u, e.v] = -np.complex128(rho[k]) / rho_vertex[e.u]
            expected[e.v, e.u] = -np.complex128(rho[k]) / rho_vertex[e.v]
        assert np.array_equal(assemble(net, s).entries, expected)


def test_apply():
    lap = assemble(p4_example(), 1 + 2j)
    assert np.allclose(lap.entries @ np.ones(4), 0.0, atol=1e-15)
    f = np.array([-1, 1, -1, 1], dtype=complex)
    assert np.allclose(lap.entries @ f, 2 * f, atol=1e-14)


def test_apply_matches_summation_oracle():
    rng = np.random.default_rng(32)
    for _ in range(20):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        lap = assemble(net, s)
        table = admittance_table(net, s)
        f = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
        # direct evaluation of f(x) - (1/rho(x)) sum_y f(y) rho_xy
        expected = f.astype(complex).copy()
        for k, e in enumerate(net.edges):
            expected[e.u] -= f[e.v] * table.rho_edge[k] / table.rho_vertex[e.u]
            expected[e.v] -= f[e.u] * table.rho_edge[k] / table.rho_vertex[e.v]
        assert np.max(np.abs(lap.entries @ f - expected)) < 1e-12


def test_green_identity():
    net = p4_example()
    s = 1 + 2j
    rng = np.random.default_rng(33)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert green_residual(net, s, np.ones(4), g) < 1e-12
    for _ in range(50):
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert green_residual(net, s, f, g) < 1e-12
    with pytest.raises(ValueError):
        green_residual(net, s, np.ones(3), np.ones(4))


def test_green_randomized_networks():
    rng = np.random.default_rng(34)
    for _ in range(20):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        for _ in range(10):
            f = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
            g = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
            assert green_residual(net, s, f, g) < 1e-10


def test_complex_power():
    net = Network(("a", "b"), (Edge(0, 1, 0, 1, 0),))
    for s in (1.0, 1 + 2j):
        assert complex_power(net, s, np.array([0.7, 0.7])) == pytest.approx(0.0)
        assert complex_power(net, s, np.array([0, 1])) == pytest.approx(1.0)
    rng = np.random.default_rng(35)
    for _ in range(50):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        f = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
        if np.allclose(f, f[0]):
            continue
        assert complex_power(net, s, f).real > 0


def test_green_with_conjugate_equals_complex_power():
    rng = np.random.default_rng(36)
    net = p4_example()
    s = 1 + 2j
    table = admittance_table(net, s)
    lap = assemble(net, s)
    for _ in range(20):
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = np.sum((lap.entries @ f) * np.conj(f) * table.rho_vertex)
        assert abs(lhs - complex_power(net, s, f)) < 1e-12


def test_eigenpair_power_identity():
    rng = np.random.default_rng(37)
    for _ in range(15):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        lap = assemble(net, s)
        table = admittance_table(net, s)
        spectrum = eigenvalues(lap.entries)
        for lam in spectrum.eigenvalues[:: max(1, net.n // 2)]:
            # unit eigenvector: the right singular vector of A - lam I
            # for its smallest singular value
            v = np.linalg.svd(lap.entries - lam * np.eye(net.n))[2][-1].conj()
            weighted = np.sum(np.abs(v) ** 2 * table.rho_vertex)
            assert abs(lam * weighted - complex_power(net, s, v)) < 1e-8


def test_format_complex():
    assert format_complex(1.0) == "1.0000000000000000e+00+0.0000000000000000e+00i"
    assert format_complex(-0.25 - 0.5j) == "-2.5000000000000000e-01-5.0000000000000000e-01i"
    # 17 significant digits round-trip through float()
    z = -0.1234567890123456 + 2e-7j
    text = format_complex(z)
    re_text, im_text = text[:-1].replace("e-", "E-").replace("e+", "E+").split("+", 1)
    assert complex(float(re_text), float(im_text)) == z
