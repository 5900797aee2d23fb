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
    gap_constants,
    validate_frequency,
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
    MatchResult,
    Spectrum,
    eigenvalues,
    match_multisets,
    residuals,
)
from .laplacian import (
    LaplacianMatrix,
    assemble,
    format_complex,
)
from .network import (
    Edge,
    Network,
    NetworkError,
    bipartition,
    diameter,
    p4_example,
    parse_network,
)
from .svgfig import render_spectrum_svg

__version__ = "0.1.0"

__all__ = [
    "AdmittanceTable",
    "CheckOutcome",
    "CircleEntry",
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
    "check_bipartite_symmetry",
    "check_circles",
    "check_disk",
    "check_trace",
    "check_zero_simple",
    "diameter",
    "eigenvalues",
    "format_complex",
    "gap_bound",
    "gap_constants",
    "match_multisets",
    "p4_example",
    "parse_network",
    "render_spectrum_svg",
    "residuals",
    "run_all_checks",
    "sharpness_sweep",
    "validate_frequency",
]
