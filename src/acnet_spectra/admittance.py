"""Complex admittances at a frequency s with Re s > 0, and the network
constants of the spectral-gap bound derived from them.

The admittance of a branch with elements (L, R, D) is s / (L s^2 + R s + D).
For Re s > 0 the denominator cannot vanish and every edge admittance has a
strictly positive real part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network

__all__ = [
    "AdmittanceTable",
    "GapConstants",
    "admittance_table",
    "gap_constants",
    "validate_frequency",
]


def _square(x: float) -> float:
    """x ** 2, infinite where the float power would raise OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def validate_frequency(s) -> complex:
    """Coerce to complex and require a finite value with Re s > 0."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("frequency must be finite")
    if not s.real > 0.0:
        raise ValueError("Re s must be positive")
    return s


@dataclass(frozen=True)
class AdmittanceTable:
    """Per-edge and per-vertex admittances of a network at one frequency.

    ``rho_edge[k]`` is the admittance of ``net.edges[k]``; ``rho_vertex[x]``
    is the sum of the admittances of the edges incident to vertex x.
    """

    rho_edge: np.ndarray
    rho_vertex: np.ndarray


def admittance_table(net: Network, s) -> AdmittanceTable:
    s = validate_frequency(s)
    # Edge admittance rho = s / (L s^2 + R s + D); the Network constructor has
    # checked the elements. Scalar Python arithmetic, because NumPy's
    # complex division rounds differently and would move printed digits.
    # L s^2 + R s can underflow to 0 when D = 0; assemble rejects the inf.
    denominators = [e.L * s * s + e.R * s + e.D for e in net.edges]
    rho_edge = np.array([s / d if d else math.inf for d in denominators], dtype=complex)
    rho_vertex = np.zeros(net.n, dtype=complex)
    # interleaved endpoints [u0, v0, u1, v1, ...] keep the order of additions
    np.add.at(rho_vertex, net.endpoints.ravel(), rho_edge.repeat(2))
    return AdmittanceTable(rho_edge, rho_vertex)


def _inverse_sums(net: Network) -> np.ndarray:
    """Per vertex, the sum of 1/(L+R+D) over its incident edges."""
    w = 1.0 / np.array([e.L + e.R + e.D for e in net.edges])
    sums = np.zeros(net.n)
    np.add.at(sums, net.endpoints.ravel(), w.repeat(2))
    return sums


@dataclass(frozen=True)
class GapConstants:
    """Network constants entering the diameter-based spectral-gap bound.

    ``c1`` is the minimum over vertices of the incident sums of
    1/(L+R+D); ``c2`` sums 1/(L+R+D) over ordered vertex pairs, i.e.
    every edge counts twice (halve it if you want the per-edge sum).
    ``admissible`` is True when ``condition_lhs`` is strictly positive,
    which is the hypothesis under which the gap bound applies.
    """

    c1: float
    c2: float
    condition_lhs: float
    admissible: bool


def gap_constants(net: Network, s) -> GapConstants:
    s = validate_frequency(s)
    inverse_sums = _inverse_sums(net)
    c1 = float(np.min(inverse_sums))
    c2 = float(np.sum(inverse_sums))
    mod2 = _square(abs(s))
    lower = mod2 if mod2 <= 1.0 else mod2 ** -2  # min(mod2, mod2 ** -2) without overflow
    condition_lhs = c1 * s.real * lower - c2 * (abs(s.imag) / s.real) * (
        max(1.0, mod2) / s.real
    )
    return GapConstants(c1, c2, condition_lhs, condition_lhs > 0.0)
