"""Test-side references: an independent eigenvalue oracle, the paper's
lemma and energy-identity witnesses, and builders for named network
families.

None of this is on the path of the four CLI commands. It lives with the
tests that check the package against it.

``charpoly_oracle`` recovers a spectrum by a route independent of the
Hessenberg + QR solver: characteristic-polynomial coefficients via the
Faddeev-LeVerrier recurrence, roots via Durand-Kerner iteration.

Ordered-pair sums in the energy identities carry the usual 1/2
prefactor, which cancels against the two orientations of each edge.

The admittances obey, for Re s > 0,

    |rho_xy|  <=  (|s| / Re s) * Re rho_xy
    |rho(x)|  <=  sum_y 1/(L+R+D) * max(1, |s|^2) / Re s

and the margin functions return the raw signed slack of those bounds so
tests can assert quantitative headroom rather than booleans.
"""

from __future__ import annotations

import math

import numpy as np

from acnet_spectra import Edge, Network, NetworkError, assemble
from acnet_spectra.admittance import (
    AdmittanceTable,
    _inverse_sums,
    _square,
    admittance_table,
    validate_frequency,
)
from acnet_spectra.eigensolver import Spectrum, _checked_square, _sorted_lex


class ConvergenceError(RuntimeError):
    """An iterative stage failed to converge within its budget."""


# ---------------------------------------------------------------------------
# characteristic-polynomial oracle
# ---------------------------------------------------------------------------

def charpoly_coefficients(a) -> np.ndarray:
    """Monic characteristic polynomial, coefficients in descending powers."""
    a = _checked_square(a)
    n = a.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros((n, n), dtype=complex)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs[k] = c
    return coeffs


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.size - 1
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))  # Cauchy root bound
    k = np.arange(n)
    # rotated roots of unity: the offset breaks conjugate symmetry traps
    z = radius * np.exp(1j * (2.0 * np.pi * k / n + 0.4))
    for _ in range(1000):
        p = np.polyval(coeffs, z)
        denom = np.empty(n, dtype=complex)
        for j in range(n):
            diff = z[j] - z
            diff[j] = 1.0
            denom[j] = np.prod(diff)
        collided = denom == 0.0
        if np.any(collided):
            z[collided] += radius * 1e-6 * np.exp(1j * (1.0 + k[collided]))
            continue
        step = p / denom
        z = z - step
        if np.max(np.abs(step)) <= 1e-13 * max(1.0, float(np.max(np.abs(z)))):
            return z
    raise ConvergenceError("Durand-Kerner did not converge within 1000 sweeps")


def charpoly_oracle(a) -> Spectrum:
    """Spectrum via characteristic polynomial root finding (n <= 10).

    Independent of the QR path end to end, which makes it a useful
    cross-check for the main solver on small matrices.
    """
    a = _checked_square(a)
    n = a.shape[0]
    if n > 10:
        raise ValueError("characteristic-polynomial oracle is limited to n <= 10")
    if n == 1:
        values = a.diagonal().astype(complex)
    else:
        values = _durand_kerner(charpoly_coefficients(a))
    return Spectrum(_sorted_lex(values), True)


# ---------------------------------------------------------------------------
# energy identities
# ---------------------------------------------------------------------------

def green_residual(net: Network, s, f, g) -> float:
    """Absolute defect of the summation-by-parts identity.

    Compares sum_x (Lf)(x) g(x) rho(x) against the half ordered-pair sum
    of the gradient products weighted by edge admittances; the identity
    is exact, so the result is rounding noise.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (net.n,) or g.shape != (net.n,):
        raise ValueError(f"expected vectors of length {net.n}")
    s = validate_frequency(s)
    table = admittance_table(net, s)
    lap = assemble(net, s)
    lhs = np.sum((lap.entries @ f) * g * table.rho_vertex)
    u, v = net.endpoints.T
    # each edge stands for both ordered pairs, cancelling the 1/2
    rhs = np.sum((f[v] - f[u]) * (g[v] - g[u]) * table.rho_edge)
    return abs(lhs - rhs)


def complex_power(net: Network, s, f) -> complex:
    """Half the ordered-pair sum of |f(y) - f(x)|^2 rho_xy."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (net.n,):
        raise ValueError(f"expected a vector of length {net.n}")
    s = validate_frequency(s)
    table = admittance_table(net, s)
    u, v = net.endpoints.T
    return complex(np.sum(np.abs(f[v] - f[u]) ** 2 * table.rho_edge))


# ---------------------------------------------------------------------------
# admittance lemmas
# ---------------------------------------------------------------------------

def edge_admittance(L: float, R: float, D: float, s) -> complex:
    """Admittance s / (L s^2 + R s + D) of one series branch."""
    for value in (L, R, D):
        if not math.isfinite(value) or value < 0.0:
            raise ValueError("element values must be non-negative finite reals")
    if L + R + D == 0.0:
        raise ValueError("element values must not all be zero")
    s = validate_frequency(s)
    return s / (L * s * s + R * s + D)


def modulus_bound_margin(table: AdmittanceTable, s) -> float:
    """Min over edges of (|s|/Re s) * Re rho_xy - |rho_xy|; never negative."""
    s = validate_frequency(s)
    ratio = abs(s) / s.real
    return float(np.min(ratio * table.rho_edge.real - np.abs(table.rho_edge)))


def vertex_modulus_bound_margin(net: Network, table: AdmittanceTable, s) -> float:
    """Min over vertices of the modulus bound slack for rho(x)."""
    s = validate_frequency(s)
    cap = max(1.0, _square(abs(s))) / s.real
    return float(np.min(_inverse_sums(net) * cap - np.abs(table.rho_vertex)))


def lemma_lhs(table: AdmittanceTable, s) -> float:
    """min_x Re rho(x) - (|Im s|/Re s) * sum_x Re rho(x).

    This is bounded below by ``GapConstants.condition_lhs`` for the same
    network and frequency.
    """
    s = validate_frequency(s)
    tau = table.rho_vertex.real
    return float(np.min(tau) - (abs(s.imag) / s.real) * np.sum(tau))


# ---------------------------------------------------------------------------
# network families and the file writer
# ---------------------------------------------------------------------------

DEFAULT_ELEMENTS = (0.0, 1.0, 0.0)  # a plain unit resistor


def serialize_network(net: Network) -> str:
    """Render a network in the file format; parse(serialize(net)) == net."""
    lines = ["vertices: " + " ".join(net.vertices)]
    for e in net.edges:
        lines.append(
            f"edge {net.vertices[e.u]} {net.vertices[e.v]} L={e.L!r} R={e.R!r} D={e.D!r}"
        )
    return "\n".join(lines) + "\n"


def _edge_elements(count: int, elements) -> list[tuple[float, float, float]]:
    if elements is None:
        return [DEFAULT_ELEMENTS] * count
    elements = list(elements)
    if len(elements) != count:
        raise NetworkError(f"expected {count} element triples, got {len(elements)}")
    return [tuple(float(x) for x in triple) for triple in elements]


def path_network(k: int, elements=None) -> Network:
    """Path on k vertices; elements default to unit resistors."""
    elems = _edge_elements(k - 1, elements)
    return Network(
        tuple(f"v{i}" for i in range(k)),
        tuple(Edge(i, i + 1, *elems[i]) for i in range(k - 1)),
    )


def cycle_network(k: int, elements=None) -> Network:
    elems = _edge_elements(k, elements)
    edges = [Edge(i, (i + 1) % k, *elems[i]) for i in range(k)]
    return Network(tuple(f"v{i}" for i in range(k)), tuple(edges))


def complete_network(k: int, elements=None) -> Network:
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    elems = _edge_elements(len(pairs), elements)
    edges = [Edge(u, v, *e) for (u, v), e in zip(pairs, elems)]
    return Network(tuple(f"v{i}" for i in range(k)), tuple(edges))


def complete_bipartite_network(p: int, q: int, elements=None) -> Network:
    labels = tuple(f"a{i}" for i in range(p)) + tuple(f"b{j}" for j in range(q))
    pairs = [(i, p + j) for i in range(p) for j in range(q)]
    elems = _edge_elements(len(pairs), elements)
    edges = [Edge(u, v, *e) for (u, v), e in zip(pairs, elems)]
    return Network(labels, tuple(edges))
