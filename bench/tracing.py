"""Spans around the program's layer boundaries, recorded from outside it.

Entering a ``Tracer`` replaces, in each module that calls a traced function,
the global name the call goes through with a wrapper that records a span
(name, start, end, parent span, op id); leaving it restores the names.
Spans stay in memory until ``write``. A span's self time is its duration
minus that of its child spans; calls are nested and single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

PACKAGE = "acnet_spectra"

# span name (<module>.<function>) -> modules whose global of that name is
# replaced. cli.main is replaced in cli itself: the harness calls it there.
TRACED = {
    "cli.main": ("cli",),
    "network.parse_network": ("cli",),
    "network.diameter": ("analysis",),
    "network.bipartition": ("analysis",),
    "admittance.admittance_table": ("laplacian",),
    "admittance.gap_constants": ("analysis",),
    "laplacian.assemble": ("cli", "analysis"),
    "eigensolver.eigenvalues": ("cli", "analysis"),
    "eigensolver.match_multisets": ("analysis",),
    "analysis.run_all_checks": ("cli",),
    "analysis.sharpness_sweep": ("cli",),
    "svgfig.render_spectrum_svg": ("cli",),
}


def _assemble_counts(args, kwargs):
    dual = kwargs["dual"] if "dual" in kwargs else (len(args) > 2 and args[2])
    return (("dual_calls", int(bool(dual))),)


def _eigenvalues_counts(args, kwargs):
    if "compute_residuals" in kwargs:
        residuals = kwargs["compute_residuals"]
    else:
        residuals = args[2] if len(args) > 2 else True
    n = len(args[0] if args else kwargs["a"])
    return (("residual_calls", int(bool(residuals))), ("n3_sum", n**3))


# span name -> function of the call's arguments giving (counter, increment)
COUNTERS = {
    "laplacian.assemble": _assemble_counts,
    "eigensolver.eigenvalues": _eigenvalues_counts,
}
COUNTER_NAMES = ("laplacian.assemble.dual_calls",
                 "eigensolver.eigenvalues.residual_calls",
                 "eigensolver.eigenvalues.n3_sum")


class Tracer:
    """Records spans inside its ``with`` block."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                for key, inc in count(args, kwargs):
                    counts[f"{name}.{key}"] += inc
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return wrapper

    def __enter__(self):
        for name, callers in TRACED.items():
            module, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), fn_name, None)
            for caller in callers:
                mod = importlib.import_module(f"{PACKAGE}.{caller}")
                if original is None or getattr(mod, fn_name, None) is not original:
                    # renamed or no longer called from here: reported, not fatal
                    self.unbound.append(f"{caller}:{name}")
                    continue
                self._saved.append((mod, fn_name, original))
                setattr(mod, fn_name, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, fn_name, original = self._saved.pop()
            setattr(mod, fn_name, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, self seconds, total seconds), every traced name."""
        totals = {name: [0, 0.0, 0.0] for name in TRACED}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = totals[name]
            row[0] += 1
            row[1] += own
            row[2] += end - start
        return {name: tuple(row) for name, row in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f)
