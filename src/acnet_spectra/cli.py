"""Command-line interface: spectrum, verify, sweep and plot commands.

Exit codes: 0 success, 2 input error, 3 solver non-convergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .admittance import validate_frequency
from .analysis import Tolerances, run_all_checks, sharpness_sweep
from .eigensolver import Spectrum, eigenvalues, residuals
from .laplacian import assemble, format_complex
from .network import Network, p4_example, parse_network
from .svgfig import render_spectrum_svg

__all__ = ["main", "entry", "parse_complex"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

EXAMPLES = {"p4": p4_example}


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``ai``, ``a+bi`` or ``a-bi`` with decimal/scientific reals."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    if not t.endswith("i"):
        return complex(float(t), 0.0)
    body = t[:-1]
    re_part, im_part = "", body
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re_part, im_part = body[:k], body[k:]
            break
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        im = float(im_part)
    re = float(re_part) if re_part else 0.0
    return complex(re, im)


class UsageError(ValueError):
    pass


def _parse_tolerances(pairs: list[str]) -> Tolerances:
    valid = {f.name for f in dataclasses.fields(Tolerances)}
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or name not in valid:
            raise UsageError(
                f"bad --tol {pair!r}; expected <name>=<value> with name in "
                + ", ".join(sorted(valid))
            )
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not (math.isfinite(number) and number >= 0.0):
            raise UsageError(f"bad --tol value {value!r}")
        overrides[name] = number
    return Tolerances(**overrides)


def _load_network(args: argparse.Namespace) -> Network:
    if (args.network is None) == (args.example is None):
        raise UsageError("exactly one of --network or --example is required")
    if args.example is not None:
        return EXAMPLES[args.example]()
    try:
        text = Path(args.network).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {args.network}: {exc}") from None
    return parse_network(text)


def _solve_frequency(args: argparse.Namespace) -> complex:
    """The dual network at s is the network at conj s."""
    return args.s.conjugate() if args.dual else args.s


def _spectrum_text(
    args: argparse.Namespace, net: Network, spectrum: Spectrum, residual_norms
) -> str:
    lines = [
        f"vertices: {net.n}  edges: {len(net.edges)}",
        f"s = {format_complex(args.s)}" + ("  (dual)" if args.dual else ""),
        f"converged: {'true' if spectrum.converged else 'false'}",
        "eigenvalues (by real part, then imaginary):",
    ]
    for lam, res in zip(spectrum.eigenvalues, residual_norms):
        lines.append(f"  {format_complex(lam)}  residual={res:.2e}")
    lines.append("eigenvalues (by modulus):")
    for lam in spectrum.by_modulus():
        lines.append(f"  {format_complex(lam)}")
    return "\n".join(lines) + "\n"


def run_spectrum(args: argparse.Namespace) -> tuple[int, str]:
    net = _load_network(args)
    a = assemble(net, _solve_frequency(args)).entries
    spectrum = eigenvalues(a)
    text = _spectrum_text(args, net, spectrum, residuals(a, spectrum.eigenvalues))
    return (EXIT_OK if spectrum.converged else EXIT_SOLVER), text


def run_verify(args: argparse.Namespace) -> tuple[int, str]:
    net = _load_network(args)
    report, spectrum = run_all_checks(net, args.s, args.tol)
    if not spectrum.converged:
        return EXIT_SOLVER, "eigensolver did not converge\n"
    name = args.example or args.network
    header = (
        f"verify {name} at s = {format_complex(args.s)} "
        f"(n={net.n}, {len(net.edges)} edges)"
    )
    text = "\n".join([header, report.to_text(), "", report.to_machine()]) + "\n"
    return (EXIT_OK if report.all_passed() else EXIT_VERIFY), text


def run_sweep(args: argparse.Namespace) -> tuple[int, str]:
    if not args.s1_list:
        raise UsageError("sweep needs at least one --s1-list value")
    net = None
    if args.network is not None:
        if not args.sweep_any:
            raise UsageError("sweeping a user network requires --sweep-any")
        net = _load_network(args)
    points = sharpness_sweep(args.s1_list, args.s2, net, args.tol)
    lines = ["s1 s2 eigenvalue ratio"]
    for p in points:
        lines.append(
            f"{p.s1!r} {p.s2!r} {format_complex(p.eigenvalue)} {p.ratio:.16e}"
        )
    return EXIT_OK, "\n".join(lines) + "\n"


def run_plot(args: argparse.Namespace) -> tuple[int, str]:
    net = _load_network(args)
    spectrum = eigenvalues(assemble(net, _solve_frequency(args)).entries)
    if not spectrum.converged:
        return EXIT_SOLVER, "eigensolver did not converge\n"
    svg = render_spectrum_svg(spectrum, args.s)
    out = args.out or "spectrum.svg"
    Path(out).write_text(svg, encoding="utf-8")
    return EXIT_OK, f"wrote {out}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acnet-spectra",
        description=(
            "Spectra of normalized complex-weighted Laplacians of AC electrical "
            "networks, with eigenvalue-region, trace, symmetry and gap checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_frequency: bool = True):
        p.add_argument("--network", metavar="PATH", help="network file to load")
        p.add_argument(
            "--example", choices=sorted(EXAMPLES), help="use a built-in network"
        )
        if with_frequency:
            p.add_argument(
                "--s",
                metavar="COMPLEX",
                required=True,
                help="complex frequency, e.g. 1+2i (Re s must be positive)",
            )
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        p.add_argument(
            "--tol",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a named tolerance (repeatable)",
        )

    p_spec = sub.add_parser("spectrum", help="print the eigenvalues and residuals")
    add_common(p_spec)
    p_spec.add_argument("--dual", action="store_true", help="conjugate all admittances")

    p_verify = sub.add_parser("verify", help="run all spectral checks")
    add_common(p_verify)

    p_sweep = sub.add_parser("sweep", help="sharpness sweep over s1 at fixed s2")
    add_common(p_sweep, with_frequency=False)
    p_sweep.add_argument(
        "--s1-list", default="", metavar="A,B,...", help="comma-separated s1 values"
    )
    p_sweep.add_argument("--s2", type=float, default=0.1, metavar="REAL")
    p_sweep.add_argument(
        "--sweep-any",
        action="store_true",
        help="allow sweeping a user-supplied network",
    )

    p_plot = sub.add_parser("plot", help="write an SVG of the spectrum and regions")
    add_common(p_plot)
    p_plot.add_argument("--dual", action="store_true", help="conjugate all admittances")
    return parser


# Built once per process: each parse_args call fills a fresh Namespace, and
# the ``append`` action copies the ``--tol`` default before appending, so no
# call sees the arguments of an earlier one.
_PARSER = build_parser()

_COMMANDS = {
    "spectrum": run_spectrum,
    "verify": run_verify,
    "sweep": run_sweep,
    "plot": run_plot,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.tol = _parse_tolerances(args.tol)
        if "s" in args:
            args.s = validate_frequency(parse_complex(args.s))
        if args.command == "sweep":
            try:
                args.s1_list = [float(tok) for tok in args.s1_list.split(",") if tok.strip()]
            except ValueError:
                raise UsageError(f"bad --s1-list {args.s1_list!r}") from None
        code, text = _COMMANDS[args.command](args)
        if args.command != "plot" and args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if code == EXIT_VERIFY:
        print("verification failed; see margins above", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
