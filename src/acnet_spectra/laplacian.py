"""Assembly of the normalized complex-weighted Laplacian.

The operator acts on functions f on the vertex set as

    f(x)  -  (1 / rho(x)) * sum_y f(y) rho_xy

so its matrix has unit diagonal, ``-rho_xy / rho(x)`` off the diagonal on
edges, zeros elsewhere, and zero row sums. The dual network, with every
admittance conjugated, needs no separate assembly: L, R and D are real, so
rho_xy(conj s) = conj rho_xy(s), and the dual Laplacian at s is the
Laplacian at conj s, the entrywise conjugate of the one at s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admittance import admittance_table, validate_frequency
from .network import Network

__all__ = [
    "LaplacianMatrix",
    "assemble",
    "format_complex",
]


@dataclass(frozen=True)
class LaplacianMatrix:
    """Dense matrix of the normalized Laplacian at one frequency."""

    entries: np.ndarray


def assemble(net: Network, s) -> LaplacianMatrix:
    """Build the normalized Laplacian of ``net`` at frequency ``s``.

    The dual Laplacian, with every admittance conjugated, is
    ``assemble(net, s.conjugate())``.
    """
    s = validate_frequency(s)
    table = admittance_table(net, s)
    rho_edge = table.rho_edge
    rho_vertex = table.rho_vertex
    # Re rho(x) > 0 holds in exact arithmetic for every valid network, but
    # extreme element scales or frequencies can underflow or overflow it.
    bad = np.flatnonzero((rho_vertex == 0) | ~np.isfinite(rho_vertex))
    if bad.size:
        x = int(bad[0])
        raise ValueError(
            f"vertex {net.vertices[x]!r}: admittance sum rho(x) = "
            f"{format_complex(rho_vertex[x])} is zero or not finite at s = "
            f"{format_complex(s)}"
        )
    u, v = net.endpoints.T
    a = np.eye(net.n, dtype=complex)
    a[u, v] = -rho_edge / rho_vertex[u]
    a[v, u] = -rho_edge / rho_vertex[v]
    return LaplacianMatrix(a)


def format_complex(z: complex) -> str:
    """Render a complex number as ``re{+|-}im i`` with 17 significant digits."""
    z = complex(z)
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{z.real:.16e}{sign}{abs(z.imag):.16e}i"
