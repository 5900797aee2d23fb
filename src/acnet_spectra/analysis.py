"""Spectral verifiers for the normalized complex Laplacian.

Every check returns raw signed margins (positive = slack, negative =
violation) next to its pass/fail verdict, so callers can assert
quantitative headroom. ``run_all_checks`` bundles them into a
:class:`VerificationReport` that serializes both as human-readable text
and as machine-readable ``check=<name> pass=<bool> margin=<real>`` lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admittance import gap_constants, validate_frequency
from .eigensolver import MatchResult, Spectrum, eigenvalues, match_multisets
from .laplacian import assemble
from .network import Network, bipartition, diameter, p4_example

__all__ = [
    "CheckOutcome",
    "CircleEntry",
    "GapReport",
    "RegionReport",
    "SharpnessPoint",
    "Tolerances",
    "TraceReport",
    "VerificationReport",
    "check_bipartite_symmetry",
    "check_circles",
    "check_disk",
    "check_trace",
    "check_zero_simple",
    "gap_bound",
    "run_all_checks",
    "sharpness_sweep",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack applied by the verifiers.

    region     -- allowed undershoot of disk/circle/interval margins
    real_axis  -- |Im| threshold classifying an eigenvalue as real
    zero       -- |eigenvalue| threshold for the kernel / gap split
    match      -- matching distance: entrywise for the dual check, between
                  multisets for bipartite symmetry and the oracles
    trace      -- per-vertex scale factor for the trace identities
    gap        -- allowed undershoot of the spectral-gap bound
    locate     -- nearest-eigenvalue search radius in the sweep
    """

    region: float = 1e-8
    real_axis: float = 1e-9
    zero: float = 1e-8
    match: float = 1e-8
    trace: float = 1e-8
    gap: float = 1e-10
    locate: float = 1e-6


# ---------------------------------------------------------------------------
# eigenvalue regions
# ---------------------------------------------------------------------------

def check_disk(spectrum: Spectrum, s) -> float:
    """Margin of the disk estimate |1 - lambda| <= |s| / Re s.

    Returns min over eigenvalues of the slack; nonnegative (up to
    rounding) for the spectrum of any valid network Laplacian.
    """
    s = validate_frequency(s)
    radius = abs(s) / s.real
    return float(np.min(radius - np.abs(1.0 - spectrum.eigenvalues)))


@dataclass(frozen=True)
class CircleEntry:
    """Region diagnostics for one eigenvalue.

    ``classification`` is 'real' for |Im| below the real-axis threshold,
    otherwise 'plus'/'minus' for the nearer of the two circles centered
    at (1, +|Im s|/Re s) and (1, -|Im s|/Re s). ``margin`` is the
    interval slack min(Re, 2 - Re) for real entries and radius minus
    distance-to-nearer-center otherwise.
    """

    eigenvalue: complex
    classification: str
    margin: float


@dataclass(frozen=True)
class RegionReport:
    """Least margins over all entries and over the 'real' ones (NaN if none)."""

    disk_margin: float
    circle_margins: tuple[CircleEntry, ...]
    circle_margin: float
    real_interval_margin: float


def check_circles(spectrum: Spectrum, s, tols: Tolerances = Tolerances()) -> RegionReport:
    """Membership of every eigenvalue in the twin-circle union / [0, 2]."""
    s = validate_frequency(s)
    c = abs(s.imag) / s.real
    radius = math.sqrt(1.0 + c * c)
    center_plus = complex(1.0, c)
    center_minus = complex(1.0, -c)
    entries: list[CircleEntry] = []
    for lam in spectrum.eigenvalues:
        lam = complex(lam)
        d_plus = abs(lam - center_plus)
        d_minus = abs(lam - center_minus)
        if abs(lam.imag) <= tols.real_axis:
            classification = "real"
            margin = min(lam.real, 2.0 - lam.real)
        else:
            classification = "plus" if d_plus <= d_minus else "minus"
            margin = radius - min(d_plus, d_minus)
        entries.append(CircleEntry(lam, classification, float(margin)))
    margins = [e.margin for e in entries]
    real_margins = [e.margin for e in entries if e.classification == "real"]
    return RegionReport(
        check_disk(spectrum, s),
        tuple(entries),
        # a NaN margin (an infinite radius less an infinite distance) fails
        math.nan if any(map(math.isnan, margins)) else min(margins),
        min(real_margins) if real_margins else math.nan,
    )


# ---------------------------------------------------------------------------
# trace and kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceReport:
    """Trace-based identities: sum of eigenvalues, imaginary cancellation,
    and the n/(n-1) envelope for the real parts and the largest modulus.

    ``margin`` is the least slack of the five inequalities; the report
    passes exactly when it is nonnegative.
    """

    eigen_sum_error: float
    imag_sum_error: float
    max_real: float
    min_real_nonzero: float
    max_modulus: float
    threshold: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


def check_trace(spectrum: Spectrum, n: int, tols: Tolerances = Tolerances()) -> TraceReport:
    ev = spectrum.eigenvalues
    eigen_sum_error = abs(complex(np.sum(ev)) - n)
    imag_sum_error = abs(float(np.sum(ev.imag)))
    max_real = float(np.max(ev.real))
    nonzero = ev[np.abs(ev) > tols.zero]
    min_real_nonzero = float(np.min(nonzero.real)) if nonzero.size else float("nan")
    max_modulus = float(np.max(np.abs(ev)))
    threshold = n / (n - 1)
    margin = min(
        tols.trace * n - eigen_sum_error,
        tols.trace * n - imag_sum_error,
        max_real - threshold + tols.trace,
        (threshold + tols.trace - min_real_nonzero)
        if not math.isnan(min_real_nonzero)
        else float("inf"),
        max_modulus - threshold + tols.trace,
    )
    return TraceReport(
        eigen_sum_error,
        imag_sum_error,
        max_real,
        min_real_nonzero,
        max_modulus,
        threshold,
        margin,
    )


def check_zero_simple(spectrum: Spectrum, tols: Tolerances = Tolerances()) -> bool:
    """Exactly one eigenvalue inside the zero threshold."""
    return spectrum.zero_count(tols.zero) == 1


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def check_bipartite_symmetry(
    net: Network, spectrum: Spectrum, tols: Tolerances = Tolerances()
) -> MatchResult | None:
    """On bipartite graphs the spectrum is invariant under 2 - lambda.

    Returns None (not applicable) when the graph has an odd cycle.
    """
    if not bipartition(net):
        return None
    ev = spectrum.eigenvalues
    return match_multisets(ev, 2.0 - ev, tols.match)


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Diameter-based lower bound on the smallest nonzero |eigenvalue|.

    ``bound`` is present exactly when the admissibility condition holds;
    ``satisfied`` is None in the inadmissible case.
    """

    admissible: bool
    bound: float | None
    lambda1_modulus: float
    satisfied: bool | None


def gap_bound(net: Network, s, spectrum: Spectrum, tols: Tolerances = Tolerances()) -> GapReport:
    s = validate_frequency(s)
    constants = gap_constants(net, s)
    lambda1 = spectrum.smallest_nonzero_modulus(tols.zero)
    if not constants.admissible:
        return GapReport(False, None, lambda1, None)
    bound = constants.c1 * s.real**2 / (
        diameter(net) * constants.c2 * min(1.0, abs(s)) ** 2
    )
    return GapReport(True, bound, lambda1, lambda1 >= bound - tols.gap)


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpnessPoint:
    """How much of the upper circle's radius the tracked eigenvalue uses.

    ``target_eigenvalue`` is the closed-form location 1 + s^2/(1 + s^2)
    of the tracked eigenvalue of the built-in 4-vertex path;
    ``eigenvalue`` is the solved eigenvalue nearest to it. ``ratio`` is
    distance-to-center over radius for the circle centered at
    (1, s2/s1); it approaches 1 as s1 grows, so the circles cannot be
    shrunk.
    """

    s1: float
    s2: float
    target_eigenvalue: complex
    eigenvalue: complex
    ratio: float


def sharpness_sweep(
    s1_values,
    s2: float,
    net: Network | None = None,
    tols: Tolerances = Tolerances(),
) -> list[SharpnessPoint]:
    """Track the circle-filling eigenvalue over frequencies s1 + i s2.

    Uses the built-in 4-vertex path with weights (s, 1/s, s) unless an
    explicit network is supplied. ``s1_values`` must be positive and
    ascending, ``s2`` positive.
    """
    s1_list = [float(x) for x in s1_values]
    if not s1_list:
        raise ValueError("need at least one s1 value")
    if any(x <= 0 for x in s1_list) or any(
        a >= b for a, b in zip(s1_list, s1_list[1:])
    ):
        raise ValueError("s1 values must be positive and strictly ascending")
    if not s2 > 0:
        raise ValueError("s2 must be positive")
    if net is None:
        net = p4_example()
    points: list[SharpnessPoint] = []
    for s1 in s1_list:
        s = complex(s1, s2)
        # 1 + s^2/(1 + s^2), in a form where s^2 may overflow to infinity
        target = 2.0 - 1.0 / (1.0 + s * s)
        spectrum = eigenvalues(assemble(net, s).entries)
        distances = np.abs(spectrum.eigenvalues - target)
        nearest = int(np.argmin(distances))
        if not distances[nearest] <= tols.locate:
            raise ValueError(
                f"no eigenvalue within {tols.locate:g} of the tracked value "
                f"at s = {s} (nearest is {distances[nearest]:.3e} away)"
            )
        lam = complex(spectrum.eigenvalues[nearest])
        m = s2 / s1
        ratio = abs(lam - complex(1.0, m)) / math.sqrt(1.0 + m * m)
        points.append(SharpnessPoint(s1, s2, complex(target), lam, float(ratio)))
    return points


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    applicable: bool
    passed: bool
    margin: float
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    outcomes: tuple[CheckOutcome, ...]

    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes if o.applicable)

    def failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if o.applicable and not o.passed]

    def to_text(self) -> str:
        width = max(len(o.name) for o in self.outcomes)
        lines = []
        for o in self.outcomes:
            if not o.applicable:
                verdict = "n/a "
            else:
                verdict = "PASS" if o.passed else "FAIL"
            margin = "" if math.isnan(o.margin) else f"  margin={o.margin:.6e}"
            note = f"  ({o.note})" if o.note else ""
            lines.append(f"{o.name.ljust(width)}  {verdict}{margin}{note}")
        verdict = "all applicable checks passed" if self.all_passed() else "FAILURES: " + ", ".join(
            o.name for o in self.failures()
        )
        lines.append(f"summary: {verdict}")
        return "\n".join(lines)

    def to_machine(self) -> str:
        lines = []
        for o in self.outcomes:
            passed = ("true" if o.passed else "false") if o.applicable else "na"
            lines.append(f"check={o.name} pass={passed} margin={o.margin!r}")
        return "\n".join(lines)


def run_all_checks(
    net: Network, s, tols: Tolerances = Tolerances()
) -> tuple[VerificationReport, Spectrum]:
    """Run every verifier on a network at one frequency.

    Returns the report plus the spectrum so callers can inspect
    convergence. The matrix is solved once. The dual network at s is the
    network at conj s, and every matrix has the conjugate spectrum of its
    conjugate, so the ``dual`` outcome checks the premise instead of
    solving again: the Laplacian assembled at conj s must equal the
    entrywise conjugate of the one at s within ``tols.match``.
    """
    s = validate_frequency(s)
    a = assemble(net, s).entries
    spectrum = eigenvalues(a)
    dual_distance = float(np.max(np.abs(assemble(net, s.conjugate()).entries - a.conj())))
    region = check_circles(spectrum, s, tols)
    trace = check_trace(spectrum, net.n, tols)
    zero_ok = check_zero_simple(spectrum, tols)
    bip = check_bipartite_symmetry(net, spectrum, tols)
    gap = gap_bound(net, s, spectrum, tols)

    moduli = np.sort(np.abs(spectrum.eigenvalues))
    zero_margin = min(tols.zero - moduli[0], moduli[1] - tols.zero)
    no_real = math.isnan(region.real_interval_margin)

    outcomes = [
        CheckOutcome(
            "disk", True, region.disk_margin >= -tols.region, region.disk_margin
        ),
        CheckOutcome(
            "circles", True, region.circle_margin >= -tols.region, region.circle_margin
        ),
        CheckOutcome(
            "real_interval",
            True,
            no_real or region.real_interval_margin >= -tols.region,
            region.real_interval_margin,
            "no real eigenvalues" if no_real else "",
        ),
        CheckOutcome("trace", True, trace.passed, trace.margin),
        CheckOutcome("zero_simple", True, zero_ok, float(zero_margin)),
        CheckOutcome(
            "dual", True, dual_distance <= tols.match, tols.match - dual_distance
        ),
        CheckOutcome(
            "bipartite",
            bip is not None,
            bip.ok if bip is not None else True,
            tols.match - bip.max_distance if bip is not None else float("nan"),
            "" if bip is not None else "graph has an odd cycle",
        ),
        CheckOutcome(
            "gap_bound",
            gap.admissible,
            bool(gap.satisfied) if gap.admissible else True,
            gap.lambda1_modulus - gap.bound if gap.admissible else float("nan"),
            "" if gap.admissible else "admissibility condition not positive at this s",
        ),
    ]
    return VerificationReport(tuple(outcomes)), spectrum
