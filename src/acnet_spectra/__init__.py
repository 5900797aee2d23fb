"""Spectra of normalized complex-weighted Laplacians of AC electrical networks.

Networks are finite connected graphs whose edges carry (L, R, D) element
values; at a complex frequency s with Re s > 0 each edge gets the
admittance s / (L s^2 + R s + D). This package assembles the normalized
Laplacian, computes its full spectrum with a self-contained dense
eigensolver, and verifies the localization regions, trace identities,
kernel simplicity, dual/bipartite symmetries and the diameter-based
spectral-gap bound that constrain it.
"""

from .admittance import (
    AdmittanceTable,
    GapConstants,
    admittance_table,
    edge_admittance,
    gap_constants,
    lemma_lhs,
    modulus_bound_margin,
    validate_frequency,
    vertex_modulus_bound_margin,
)
from .analysis import (
    CheckOutcome,
    CircleEntry,
    GapReport,
    RegionReport,
    SharpnessPoint,
    Tolerances,
    TraceReport,
    VerificationReport,
    check_bipartite_symmetry,
    check_circles,
    check_disk,
    check_trace,
    check_zero_simple,
    gap_bound,
    run_all_checks,
    sharpness_sweep,
)
from .eigensolver import (
    ConvergenceError,
    MatchResult,
    Spectrum,
    charpoly_coefficients,
    charpoly_oracle,
    eigenvalues,
    match_multisets,
    residuals,
)
from .laplacian import (
    LaplacianMatrix,
    assemble,
    complex_power,
    format_complex,
    green_residual,
)
from .network import (
    Bipartition,
    Edge,
    Network,
    NetworkError,
    bipartition,
    complete_bipartite_network,
    complete_network,
    cycle_network,
    diameter,
    p4_example,
    parse_network,
    path_network,
    serialize_network,
)
from .svgfig import render_spectrum_svg

__version__ = "0.1.0"

__all__ = [
    "AdmittanceTable",
    "Bipartition",
    "CheckOutcome",
    "CircleEntry",
    "ConvergenceError",
    "Edge",
    "GapConstants",
    "GapReport",
    "LaplacianMatrix",
    "MatchResult",
    "Network",
    "NetworkError",
    "RegionReport",
    "SharpnessPoint",
    "Spectrum",
    "Tolerances",
    "TraceReport",
    "VerificationReport",
    "admittance_table",
    "assemble",
    "bipartition",
    "charpoly_coefficients",
    "charpoly_oracle",
    "check_bipartite_symmetry",
    "check_circles",
    "check_disk",
    "check_trace",
    "check_zero_simple",
    "complete_bipartite_network",
    "complete_network",
    "complex_power",
    "cycle_network",
    "diameter",
    "edge_admittance",
    "eigenvalues",
    "format_complex",
    "gap_bound",
    "gap_constants",
    "green_residual",
    "lemma_lhs",
    "match_multisets",
    "modulus_bound_margin",
    "p4_example",
    "parse_network",
    "path_network",
    "render_spectrum_svg",
    "residuals",
    "run_all_checks",
    "serialize_network",
    "sharpness_sweep",
    "validate_frequency",
    "vertex_modulus_bound_margin",
]
