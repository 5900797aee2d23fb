"""One benchmark run in a fresh process.

    python3 bench/worker.py <spec.json> --seconds S --trace 0|1
    python3 bench/worker.py <spec.json> --setup-only

run.py starts it with ``src`` first on PYTHONPATH. It imports the
package, runs the spec's warm-up ops untimed and prints ``ready``; that
line ends the set-up that run.py times. It then drives the spec's ops as
a closed loop with one client, each op one in-process
``acnet_spectra.cli.main(argv)`` call with default options, checks every
op with the correctness gate and prints the result as one JSON line.

With ``--trace 1`` the first half of the time runs with spans recorded
(tracing.py) and the same ops then run again untraced, so the tracing
overhead is the difference of the two wall times.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import acnet_spectra as acs
from acnet_spectra import cli
from gate import Gate
from tracing import Tracer

OP_END = "\x1eop-end\n"  # written after each op's stdout in stdout.log
FLOOR_SAMPLE_OPS = 64
FLOOR_PASSES = 3
MAX_REASONS = 10  # most frequent failure reasons kept for the report


class Runner:
    """Runs ops through ``cli.main`` with stdout and stderr sent to files.

    Output goes to disk rather than memory so that the peak RSS is the
    program's and does not grow with the number of ops run.
    """

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.svg_dir = work / "svg"
        self.svg_dir.mkdir(exist_ok=True)
        self.stdout_path = work / "stdout.log"
        self._out = open(self.stdout_path, "w", encoding="utf-8")
        self._err = open(work / "stderr.log", "w", encoding="utf-8")
        self.records: list = []  # (phase, op index, exit code or exception, seconds, svg path)

    def run(self, phase: str, index: int, op: dict) -> None:
        argv = op["argv"]
        svg = None
        if op["command"] == "plot":
            svg = str(self.svg_dir / f"{len(self.records)}.svg")
            argv = [*argv, "--out", svg]
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self._out, self._err
        start = perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - start
            sys.stdout, sys.stderr = saved
        self._out.write(OP_END)
        self.records.append((phase, index, code, elapsed, svg))

    def run_for(self, phase: str, ops: list, seconds: float, tracer=None) -> tuple[int, float]:
        """Closed loop over ``ops`` until ``seconds`` pass; at least one op."""
        start = perf_counter()
        deadline = start + seconds
        count = 0
        while count == 0 or perf_counter() < deadline:
            if tracer is not None:
                tracer.op = len(self.records)
            self.run(phase, count % len(ops), ops[count % len(ops)])
            count += 1
        return count, perf_counter() - start

    def run_count(self, phase: str, ops: list, count: int) -> float:
        start = perf_counter()
        for k in range(count):
            self.run(phase, k % len(ops), ops[k % len(ops)])
        return perf_counter() - start

    def outputs(self) -> list[str]:
        self._out.close()
        self._err.close()
        return self.stdout_path.read_text(encoding="utf-8").split(OP_END)[:-1]


def gate_records(gate, ops, runner, phases) -> dict:
    attempted = failed = violations = 0
    reasons: dict[str, int] = {}
    for (phase, index, code, _, svg), stdout in zip(runner.records, runner.outputs()):
        if phase not in phases:
            continue
        verdict = gate.check(ops[index], code, stdout, svg)
        attempted += 1
        violations += verdict.gap_bound_violation
        if not verdict.ok:
            failed += 1
            reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
    common = dict(sorted(reasons.items(), key=lambda kv: -kv[1])[:MAX_REASONS])
    return {"attempted": attempted, "failed": failed,
            "gap_bound_violations": violations, "failure_reasons": common}


def lapack_floor(gate, ops, used) -> float:
    """Seconds per op of ``np.linalg.eigvals`` on the matrices the ops report.

    One matrix per spectrum/verify/plot op and one per sweep point,
    assembled outside the timing; median of passes over up to
    FLOOR_SAMPLE_OPS of the ops run.
    """
    sample = sorted(used)[:FLOOR_SAMPLE_OPS]
    p4 = acs.p4_example()
    matrices = []
    for index in sample:
        op = ops[index]
        if op["command"] == "sweep":
            matrices += [acs.assemble(p4, complex(s1, op["s2"])).entries for s1 in op["s1"]]
        else:
            matrices.append(gate.matrix(op))
    passes = []
    for _ in range(FLOOR_PASSES):
        start = perf_counter()
        for a in matrices:
            np.linalg.eigvals(a)
        passes.append(perf_counter() - start)
    return statistics.median(passes) / len(sample)


def _blas_threads():
    """Thread count OpenBLAS uses, asked of the loaded library itself."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in thread_env if k in os.environ},
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_run(runner, ops, seconds) -> dict:
    cpu0 = _cpu_seconds()
    count, wall = runner.run_for("timed", ops, seconds)
    cpu = _cpu_seconds() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [r[3] for r in runner.records if r[0] == "timed"]
    return {"ops": count, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": peak_kb / 1024.0, "latencies_s": latencies}


def traced_run(runner, ops, seconds, work) -> dict:
    tracer = Tracer()
    with tracer:
        count, traced_wall = runner.run_for("traced", ops, seconds / 2.0, tracer)
    untraced_wall = runner.run_count("replay", ops, count)
    tracer.write(work / "spans.json")
    return {"ops": count, "traced_s": traced_wall, "untraced_s": untraced_wall,
            "layers": tracer.layer_totals(), "counts": dict(tracer.counts),
            "unbound": tracer.unbound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec_path = Path(args.spec)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    work = spec_path.parent
    ops = spec["ops"]

    runner = Runner(cli, work)
    for k, op in enumerate(spec["warmup"]):
        runner.run("warmup", k, op)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_run(runner, ops, args.seconds, work)
        phases = ("traced", "replay")
    else:
        result = timed_run(runner, ops, args.seconds)
        phases = ("timed",)
    gate = Gate()
    result["gate"] = gate_records(gate, ops, runner, phases)
    used = {r[1] for r in runner.records if r[0] in phases}
    result["floor_lapack_eigvals_s"] = lapack_floor(gate, ops, used)
    result["environment"] = environment()
    result["package"] = acs.__file__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
