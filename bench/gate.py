"""Correctness gate: decides after the timed phase whether each op succeeded.

An op fails when it raised, or exited with anything but 0, or exited 4
with any check failed other than ``gap_bound``; exit 4 with only the
gap bound failed is the paper's known limitation and is counted apart.
On top of that, a ``spectrum`` op must agree with ``np.linalg.eigvals``
to ``Tolerances().match``, every ``sweep`` row must sit within
``Tolerances().locate`` of 1 + s^2/(1 + s^2) with a ratio below 1, and
a ``plot`` op must leave an SVG that parses as XML.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from acnet_spectra import Tolerances, assemble, parse_network


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    gap_bound_violation: bool = False


def parse_printed_complex(text: str) -> complex:
    """Inverse of ``format_complex``: ``<re>{+|-}<|im|>i`` in %.16e form."""
    body = text.strip()
    if body.endswith("i"):
        body = body[:-1]
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                return complex(float(body[:k]), float(body[k:]))
    raise ValueError(f"not a printed complex number: {text!r}")


def max_matching_distance(a, b) -> float:
    """Largest pair distance of a greedy closest-first perfect matching.

    Kept apart from the program's ``match_multisets`` so that the gate does
    not judge the program's output with the program's own code.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size != b.size:
        return float("inf")
    dist = np.abs(a[:, None] - b[None, :])
    used_a = np.zeros(a.size, dtype=bool)
    used_b = np.zeros(b.size, dtype=bool)
    worst = 0.0
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(flat), b.size)
        if not (used_a[i] or used_b[j]):
            used_a[i] = used_b[j] = True
            worst = max(worst, float(dist[i, j]))
    return worst


def _failed_checks(stdout: str) -> set[str] | None:
    names = {}
    for line in stdout.splitlines():
        if line.startswith("check="):
            fields = dict(tok.split("=", 1) for tok in line.split())
            names[fields["check"]] = fields["pass"]
    if not names:
        return None
    return {name for name, passed in names.items() if passed == "false"}


def _spectrum_eigenvalues(stdout: str) -> list[complex]:
    lines = stdout.splitlines()
    start = lines.index("eigenvalues (by real part, then imaginary):") + 1
    stop = lines.index("eigenvalues (by modulus):")
    return [parse_printed_complex(line.split()[0]) for line in lines[start:stop]]


class Gate:
    """Checks op results against references computed outside the program.

    ``assemble`` and ``parse_network`` are the program's own, as the
    reference spectrum is defined on the assembled matrix.
    """

    def __init__(self):
        self._tols = Tolerances()
        self._networks = {}

    def network(self, path: str):
        if path not in self._networks:
            with open(path, encoding="utf-8") as f:
                self._networks[path] = parse_network(f.read())
        return self._networks[path]

    def matrix(self, op: dict) -> np.ndarray:
        return assemble(self.network(op["network"]), complex(*op["s"])).entries

    def check(self, op: dict, code, stdout: str, svg_path: str | None = None) -> Verdict:
        if not isinstance(code, int):
            return Verdict(False, f"raised {code}")
        if code not in (0, 4):
            return Verdict(False, f"exit {code}")
        command = op["command"]
        if command == "verify":
            failed = _failed_checks(stdout)
            if failed is None:
                return Verdict(False, "no check lines")
            if (code == 0) != (not failed):
                return Verdict(False, f"exit {code} with failed checks {sorted(failed)}")
            if failed - {"gap_bound"}:
                return Verdict(False, f"failed checks {sorted(failed)}")
            return Verdict(True, "", bool(failed))
        if code != 0:
            return Verdict(False, f"exit {code}")
        try:
            if command == "spectrum":
                return self._check_spectrum(op, stdout)
            if command == "sweep":
                return self._check_sweep(op, stdout)
            if command == "plot":
                ET.parse(svg_path)
                return Verdict(True)
        except (ValueError, KeyError, OSError, ET.ParseError) as exc:
            return Verdict(False, f"{command} output unreadable: {exc}")
        return Verdict(False, f"unknown command {command!r}")

    def _check_spectrum(self, op: dict, stdout: str) -> Verdict:
        printed = _spectrum_eigenvalues(stdout)
        reference = np.linalg.eigvals(self.matrix(op))
        distance = max_matching_distance(printed, reference)
        if not distance <= self._tols.match:
            return Verdict(False, f"spectrum off LAPACK by {distance:.3e}")
        return Verdict(True)

    def _check_sweep(self, op: dict, stdout: str) -> Verdict:
        rows = stdout.splitlines()[1:]
        if len(rows) != len(op["s1"]):
            return Verdict(False, f"{len(rows)} sweep rows for {len(op['s1'])} points")
        for row, s1 in zip(rows, op["s1"]):
            r_s1, r_s2, lam, ratio = row.split()
            if float(r_s1) != s1 or float(r_s2) != op["s2"]:
                return Verdict(False, f"sweep row {row!r} is not at s1={s1!r}")
            s = complex(s1, op["s2"])
            target = 1.0 + s * s / (1.0 + s * s)
            distance = abs(parse_printed_complex(lam) - target)
            if not distance <= self._tols.locate:
                return Verdict(False, f"sweep eigenvalue {distance:.3e} off 1+s^2/(1+s^2) at s1={s1!r}")
            if not float(ratio) < 1.0:
                return Verdict(False, f"sweep ratio {ratio} not below 1 at s1={s1!r}")
        return Verdict(True)
