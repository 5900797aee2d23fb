import math

import numpy as np
import pytest

from acnet_spectra import (
    admittance_table,
    gap_constants,
    p4_example,
    validate_frequency,
    Network,
    Edge,
)
from conftest import random_connected_network, random_frequency
from oracles import (
    complete_network,
    edge_admittance,
    lemma_lhs,
    modulus_bound_margin,
    path_network,
    vertex_modulus_bound_margin,
)

FLOAT_SLACK = 1e-12


def test_validate_frequency():
    assert validate_frequency(2) == 2 + 0j
    assert validate_frequency(1 + 2j) == 1 + 2j
    with pytest.raises(ValueError, match="Re s must be positive"):
        validate_frequency(-1 + 0j)
    with pytest.raises(ValueError, match="Re s must be positive"):
        validate_frequency(2j)
    with pytest.raises(ValueError, match="finite"):
        validate_frequency(complex(float("inf"), 0))


def test_edge_admittance_closed_forms():
    s = 0.7 + 1.3j
    assert edge_admittance(0, 0, 1, s) == s
    assert abs(edge_admittance(1, 0, 0, 1 + 2j) - (0.2 - 0.4j)) < 1e-15
    assert abs(edge_admittance(1, 1, 1, 1) - 1 / 3) < 1e-15


def test_edge_admittance_domain_errors():
    with pytest.raises(ValueError):
        edge_admittance(0, 0, 0, 1 + 1j)
    with pytest.raises(ValueError):
        edge_admittance(-1, 1, 0, 1 + 1j)
    with pytest.raises(ValueError):
        edge_admittance(0, 1, 0, -2)


def test_edge_admittance_conjugation():
    rng = np.random.default_rng(21)
    for _ in range(200):
        L, R, D = rng.random(3) + 1e-3
        s = random_frequency(rng)
        assert edge_admittance(L, R, D, s.conjugate()) == pytest.approx(
            edge_admittance(L, R, D, s).conjugate(), abs=1e-15
        )


def test_table_p4():
    s = 1 + 2j
    table = admittance_table(p4_example(), s)
    assert np.allclose(table.rho_edge, [s, 1 / s, s])
    assert abs(table.rho_vertex[1] - (1.2 + 1.6j)) < 1e-15
    table1 = admittance_table(p4_example(), 1.0)
    assert np.allclose(table1.rho_vertex, [1, 2, 2, 1])


def test_table_single_resistor_edge():
    net = Network(("a", "b"), (Edge(0, 1, 0, 1, 0),))
    for s in (1.0, 2 + 3j, 0.1 + 0.9j):
        table = admittance_table(net, s)
        assert np.allclose(table.rho_vertex, [1, 1])


def test_table_matches_bruteforce_sums():
    rng = np.random.default_rng(22)
    for _ in range(20):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        table = admittance_table(net, s)
        # independent per-vertex summation straight from the edge list
        sums = {x: 0j for x in range(net.n)}
        for k, e in enumerate(net.edges):
            rho = edge_admittance(e.L, e.R, e.D, s)
            assert rho == table.rho_edge[k]
            sums[e.u] += rho
            sums[e.v] += rho
        for x in range(net.n):
            assert table.rho_vertex[x] == sums[x]


def test_modulus_bound_margin_examples():
    # real s and resistor-only edges saturate the bound
    net = path_network(4)
    table = admittance_table(net, 2.0)
    assert modulus_bound_margin(table, 2.0) == pytest.approx(0.0, abs=FLOAT_SLACK)
    # pure inductor at s = 1+i saturates as well
    single = Network(("a", "b"), (Edge(0, 1, 1, 0, 0),))
    table = admittance_table(single, 1 + 1j)
    assert modulus_bound_margin(table, 1 + 1j) == pytest.approx(0.0, abs=FLOAT_SLACK)
    table = admittance_table(p4_example(), 1 + 2j)
    assert modulus_bound_margin(table, 1 + 2j) >= -FLOAT_SLACK


def test_vertex_modulus_bound_margin_examples():
    single = Network(("a", "b"), (Edge(0, 1, 0, 1, 0),))
    table = admittance_table(single, 1.0)
    assert vertex_modulus_bound_margin(single, table, 1.0) == pytest.approx(0.0, abs=FLOAT_SLACK)
    k3 = complete_network(3)
    table = admittance_table(k3, 2.0)
    assert vertex_modulus_bound_margin(k3, table, 2.0) == pytest.approx(2.0, abs=FLOAT_SLACK)
    table = admittance_table(p4_example(), 1 + 2j)
    assert vertex_modulus_bound_margin(p4_example(), table, 1 + 2j) >= -FLOAT_SLACK


def test_bound_powers_do_not_overflow():
    # |s|^2 overflows above 1.34e154 and |s|^-4 below 1e-77; the unit
    # resistors keep every admittance at 1
    net = path_network(3)
    for s in (1.4e154, 1e200 + 1e200j):
        assert vertex_modulus_bound_margin(net, admittance_table(net, s), s) == math.inf
        assert not gap_constants(net, s).admissible
    assert gap_constants(net, 1e-78).admissible
    assert not gap_constants(net, 1e-200).admissible  # |s|^2 underflows to 0


def test_positive_real_part_randomized():
    # vectorized draw of 10^4 (L, R, D, s) samples
    rng = np.random.default_rng(23)
    L, R, D = rng.random((3, 10_000))
    keep = L + R + D > 1e-9
    L, R, D = L[keep], R[keep], D[keep]
    s = 3.0 * (1.0 - rng.random(L.size)) + 1j * rng.uniform(-3, 3, L.size)
    rho = s / (L * s * s + R * s + D)
    assert np.all(rho.real > 0)
    ratio = np.abs(s) / s.real
    assert np.min(ratio * rho.real - np.abs(rho)) >= -FLOAT_SLACK


def test_bound_margins_randomized():
    rng = np.random.default_rng(24)
    for _ in range(100):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        table = admittance_table(net, s)
        assert modulus_bound_margin(table, s) >= -FLOAT_SLACK
        assert vertex_modulus_bound_margin(net, table, s) >= -FLOAT_SLACK


def test_gap_constants_p4():
    gc = gap_constants(p4_example(), 1.0)
    assert gc.c1 == pytest.approx(1.0)
    assert gc.c2 == pytest.approx(6.0)  # ordered pairs: every edge twice
    assert gc.condition_lhs == pytest.approx(1.0)
    assert gc.admissible
    assert not gap_constants(p4_example(), 1 + 2j).admissible


def test_gap_constants_bruteforce_c2():
    rng = np.random.default_rng(25)
    for _ in range(10):
        net = random_connected_network(rng)
        gc = gap_constants(net, 1.0)
        total = 0.0
        per_vertex = [0.0] * net.n
        for e in net.edges:
            w = 1.0 / (e.L + e.R + e.D)
            total += 2.0 * w
            per_vertex[e.u] += w
            per_vertex[e.v] += w
        assert gc.c2 == pytest.approx(total)
        assert gc.c1 == pytest.approx(min(per_vertex))


def test_real_frequency_always_admissible():
    rng = np.random.default_rng(26)
    for _ in range(20):
        net = random_connected_network(rng)
        s = random_frequency(rng, real=True)
        gc = gap_constants(net, s)
        assert gc.admissible
        assert gc.condition_lhs == pytest.approx(
            gc.c1 * s.real * min(abs(s) ** 2, abs(s) ** -4)
        )


def test_lemma_lower_bound():
    # equality at s = 1 on the uniform path
    net = p4_example()
    table = admittance_table(net, 1.0)
    assert lemma_lhs(table, 1.0) == pytest.approx(1.0)
    assert lemma_lhs(table, 1.0) >= gap_constants(net, 1.0).condition_lhs - FLOAT_SLACK

    s = 1 + 2j
    table = admittance_table(net, s)
    assert lemma_lhs(table, s) >= gap_constants(net, s).condition_lhs - FLOAT_SLACK

    rng = np.random.default_rng(27)
    for _ in range(200):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        table = admittance_table(net, s)
        assert lemma_lhs(table, s) >= gap_constants(net, s).condition_lhs - FLOAT_SLACK


def test_real_frequency_margin_zero_on_resistors():
    # |s|/Re s = 1 and rho real: the modulus bound degenerates to equality
    rng = np.random.default_rng(28)
    net = complete_network(4)
    for _ in range(5):
        s = random_frequency(rng, real=True)
        table = admittance_table(net, s)
        assert math.isclose(modulus_bound_margin(table, s), 0.0, abs_tol=FLOAT_SLACK)
