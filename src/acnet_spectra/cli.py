"""Command-line interface: spectrum, verify, sweep and plot commands.

Exit codes: 0 success, 2 input error, 3 solver non-convergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .admittance import validate_frequency
from .analysis import Tolerances, run_all_checks, sharpness_sweep
from .eigensolver import ConvergenceError, Spectrum, eigenvalues, residuals
from .laplacian import assemble, format_complex
from .network import Network, NetworkError, p4_example, parse_network
from .svgfig import render_spectrum_svg

__all__ = ["RunConfig", "main", "entry", "parse_complex"]

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


@dataclass
class RunConfig:
    command: str
    network_path: str | None = None
    example: str | None = None
    frequency: complex | None = None
    dual: bool = False
    sweep_s1: tuple[float, ...] = ()
    sweep_s2: float = 0.0
    sweep_any: bool = False
    output_path: str | None = None
    tolerances: Tolerances = dataclasses.field(default_factory=Tolerances)


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


def _load_network(cfg: RunConfig) -> Network:
    if (cfg.network_path is None) == (cfg.example is None):
        raise UsageError("exactly one of --network or --example is required")
    if cfg.example is not None:
        try:
            return EXAMPLES[cfg.example]()
        except KeyError:
            raise UsageError(
                f"unknown example {cfg.example!r}; choices: " + ", ".join(sorted(EXAMPLES))
            ) from None
    try:
        text = Path(cfg.network_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {cfg.network_path}: {exc}") from None
    return parse_network(text)


def _solve_frequency(cfg: RunConfig) -> complex:
    """The dual network at s is the network at conj s."""
    return cfg.frequency.conjugate() if cfg.dual else cfg.frequency


def _spectrum_text(
    cfg: RunConfig, net: Network, spectrum: Spectrum, residual_norms
) -> str:
    lines = [
        f"vertices: {net.n}  edges: {len(net.edges)}",
        f"s = {format_complex(cfg.frequency)}" + ("  (dual)" if cfg.dual else ""),
        f"converged: {'true' if spectrum.converged else 'false'}",
        "eigenvalues (by real part, then imaginary):",
    ]
    for lam, res in zip(spectrum.eigenvalues, residual_norms):
        lines.append(f"  {format_complex(lam)}  residual={res:.2e}")
    lines.append("eigenvalues (by modulus):")
    for lam in spectrum.by_modulus():
        lines.append(f"  {format_complex(lam)}")
    return "\n".join(lines) + "\n"


def run_spectrum(cfg: RunConfig) -> tuple[int, str]:
    net = _load_network(cfg)
    a = assemble(net, _solve_frequency(cfg)).entries
    spectrum = eigenvalues(a)
    text = _spectrum_text(cfg, net, spectrum, residuals(a, spectrum.eigenvalues))
    return (EXIT_OK if spectrum.converged else EXIT_SOLVER), text


def run_verify(cfg: RunConfig) -> tuple[int, str]:
    net = _load_network(cfg)
    report, spectrum = run_all_checks(net, cfg.frequency, cfg.tolerances)
    if not spectrum.converged:
        return EXIT_SOLVER, "eigensolver did not converge\n"
    name = cfg.example or cfg.network_path
    header = (
        f"verify {name} at s = {format_complex(cfg.frequency)} "
        f"(n={net.n}, {len(net.edges)} edges)"
    )
    text = "\n".join([header, report.to_text(), "", report.to_machine()]) + "\n"
    return (EXIT_OK if report.all_passed() else EXIT_VERIFY), text


def run_sweep(cfg: RunConfig) -> tuple[int, str]:
    if not cfg.sweep_s1:
        raise UsageError("sweep needs at least one --s1 value")
    net = None
    if cfg.network_path is not None:
        if not cfg.sweep_any:
            raise UsageError("sweeping a user network requires --sweep-any")
        net = _load_network(cfg)
    elif cfg.example not in (None, "p4"):
        raise UsageError("sweep supports --example p4 or --sweep-any with --network")
    points = sharpness_sweep(list(cfg.sweep_s1), cfg.sweep_s2, net, cfg.tolerances)
    lines = ["s1 s2 eigenvalue ratio"]
    for p in points:
        lines.append(
            f"{p.s1!r} {p.s2!r} {format_complex(p.eigenvalue)} {p.ratio:.16e}"
        )
    return EXIT_OK, "\n".join(lines) + "\n"


def run_plot(cfg: RunConfig) -> tuple[int, str]:
    net = _load_network(cfg)
    spectrum = eigenvalues(assemble(net, _solve_frequency(cfg)).entries)
    if not spectrum.converged:
        return EXIT_SOLVER, "eigensolver did not converge\n"
    svg = render_spectrum_svg(spectrum, cfg.frequency)
    out = cfg.output_path or "spectrum.svg"
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.network_path = args.network
    cfg.example = args.example
    cfg.output_path = args.out
    cfg.tolerances = _parse_tolerances(args.tol)
    cfg.dual = getattr(args, "dual", False)
    if hasattr(args, "s"):
        try:
            cfg.frequency = validate_frequency(parse_complex(args.s))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.command == "sweep":
        raw = [tok for tok in args.s1_list.split(",") if tok.strip()]
        try:
            cfg.sweep_s1 = tuple(float(tok) for tok in raw)
        except ValueError:
            raise UsageError(f"bad --s1-list {args.s1_list!r}") from None
        cfg.sweep_s2 = args.s2
        cfg.sweep_any = args.sweep_any
    return cfg


_COMMANDS = {
    "spectrum": run_spectrum,
    "verify": run_verify,
    "sweep": run_sweep,
    "plot": run_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        code, text = _COMMANDS[cfg.command](cfg)
    except (UsageError, NetworkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if cfg.command != "plot" and cfg.output_path:
        Path(cfg.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if code == EXIT_VERIFY:
        print("verification failed; see margins above", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
