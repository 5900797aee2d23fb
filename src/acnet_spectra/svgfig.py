"""Deterministic SVG scatter of a spectrum inside its bounding regions.

Hand-rolled SVG keeps the output byte-reproducible: same input, same
file. Mathematical orientation (y up), viewport fitted to the disk and
the twin circles plus a 10% margin, ticks on both axes: one per unit,
or one per the smallest power of ten that keeps an axis at or below
_MAX_TICKS ticks.
"""

from __future__ import annotations

import math

import numpy as np

from .admittance import validate_frequency
from .eigensolver import Spectrum
from .laplacian import format_complex

__all__ = ["render_spectrum_svg"]

_CANVAS = 640.0  # pixel width of the long side
_MAX_TICKS = 10_000  # per axis; |s| / Re s sets the span

_DISK_STYLE = 'fill="#c9d9f6" fill-opacity="0.65" stroke="#3b62c4" stroke-width="1.5"'
_CIRCLE_STYLE = 'fill="#cdeac8" fill-opacity="0.5" stroke="#3f9e37" stroke-width="1.5"'
_SEGMENT_STYLE = 'stroke="#222222" stroke-width="3" stroke-linecap="round"'
_AXIS_STYLE = 'stroke="#555555" stroke-width="1"'
_DOT_STYLE = 'fill="#d21f1f"'


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _ticks(lo: float, hi: float) -> range:
    """Multiples of the least power of ten (from 1) with at most _MAX_TICKS in [lo, hi]."""
    step = 1
    while math.floor(hi / step) - math.ceil(lo / step) + 1 > _MAX_TICKS:
        step *= 10
    return range(math.ceil(lo / step) * step, math.floor(hi / step) * step + 1, step)


def render_spectrum_svg(spectrum: Spectrum, s) -> str:
    """Render eigenvalue dots, the disk bound, the twin circles and [0, 2]."""
    s = validate_frequency(s)
    disk_radius = abs(s) / s.real
    c = abs(s.imag) / s.real
    circle_radius = math.sqrt(1.0 + c * c)
    if not (math.isfinite(disk_radius) and math.isfinite(circle_radius)):
        raise ValueError(f"region radius |s| / Re s is not finite at s = {format_complex(s)}")

    xs = [1.0 - disk_radius, 1.0 + disk_radius, 1.0 - circle_radius, 1.0 + circle_radius]
    ys = [-disk_radius, disk_radius, c + circle_radius, -c - circle_radius]
    for lam in spectrum.eigenvalues:
        xs.extend([lam.real])
        ys.extend([lam.imag])
    xs.extend([0.0, 2.0])
    ys.append(0.0)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.1 * max(x_hi - x_lo, y_hi - y_lo)
    x_lo, x_hi = x_lo - pad, x_hi + pad
    y_lo, y_hi = y_lo - pad, y_hi + pad

    scale = _CANVAS / max(x_hi - x_lo, y_hi - y_lo)
    width = (x_hi - x_lo) * scale
    height = (y_hi - y_lo) * scale

    def px(x: float) -> str:
        return _fmt((x - x_lo) * scale)

    def py(y: float) -> str:
        return _fmt((y_hi - y) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f"<title>eigenvalues at s = {format_complex(s)}</title>",
    ]

    # region fills first, dots on top
    parts.append(
        f'<circle cx="{px(1.0)}" cy="{py(0.0)}" r="{_fmt(disk_radius * scale)}" {_DISK_STYLE}/>'
    )
    for sign in (1.0, -1.0):
        parts.append(
            f'<circle cx="{px(1.0)}" cy="{py(sign * c)}" '
            f'r="{_fmt(circle_radius * scale)}" {_CIRCLE_STYLE}/>'
        )

    # axes with ticks
    if y_lo < 0.0 < y_hi:
        parts.append(
            f'<line x1="{px(x_lo)}" y1="{py(0.0)}" x2="{px(x_hi)}" y2="{py(0.0)}" {_AXIS_STYLE}/>'
        )
        for tick in _ticks(x_lo, x_hi):
            parts.append(
                f'<line x1="{px(tick)}" y1="{_fmt(float(py(0.0)) - 4)}" '
                f'x2="{px(tick)}" y2="{_fmt(float(py(0.0)) + 4)}" {_AXIS_STYLE}/>'
            )
            parts.append(
                f'<text x="{px(tick)}" y="{_fmt(float(py(0.0)) + 16)}" '
                f'font-family="monospace" font-size="11" text-anchor="middle">{tick}</text>'
            )
    if x_lo < 0.0 < x_hi:
        parts.append(
            f'<line x1="{px(0.0)}" y1="{py(y_lo)}" x2="{px(0.0)}" y2="{py(y_hi)}" {_AXIS_STYLE}/>'
        )
        for tick in _ticks(y_lo, y_hi):
            if tick == 0:
                continue
            parts.append(
                f'<line x1="{_fmt(float(px(0.0)) - 4)}" y1="{py(tick)}" '
                f'x2="{_fmt(float(px(0.0)) + 4)}" y2="{py(tick)}" {_AXIS_STYLE}/>'
            )
            parts.append(
                f'<text x="{_fmt(float(px(0.0)) - 7)}" y="{_fmt(float(py(tick)) + 4)}" '
                f'font-family="monospace" font-size="11" text-anchor="end">{tick}</text>'
            )

    # the real segment [0, 2]
    parts.append(
        f'<line x1="{px(0.0)}" y1="{py(0.0)}" x2="{px(2.0)}" y2="{py(0.0)}" {_SEGMENT_STYLE}/>'
    )

    for lam in np.asarray(spectrum.eigenvalues):
        parts.append(
            f'<circle cx="{px(lam.real)}" cy="{py(lam.imag)}" r="4" {_DOT_STYLE}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
