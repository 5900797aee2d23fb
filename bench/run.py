"""acnet-spectra benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The workload's inputs are made
from the seed under ``.bench_work/<workload>/``; the program is imported
from ``src``. With ``--trace 0`` the run reports the end-to-end metrics,
with ``--trace 1`` the per-layer ones (see README.md). The last line of
stdout is the result as one JSON object; the line before it holds the
details behind it (sample counts, percentiles, LAPACK floor, machine).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import COUNTER_NAMES, TRACED
from workloads import WORKLOADS, write_spec

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 3  # set-up is the median over this many fresh processes
RUN_LIMIT_S = 170.0  # a run, all its worker processes included, ends by then


class BenchError(RuntimeError):
    pass


def _worker_cmd(spec: Path, *extra: str) -> list[str]:
    return [sys.executable, str(ROOT / "bench" / "worker.py"), str(spec), *extra]


def _worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_worker(cmd: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (start to ``ready``)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
    line = proc.stdout.readline() if readable else ""
    setup = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {RUN_LIMIT_S:.0f} s of the start") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_worker(spec: Path, seconds: float, trace: int, deadline: float) -> tuple[dict, list[float]]:
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES - 1):
            proc, setup = start_worker(_worker_cmd(spec, "--setup-only"), deadline)
            finish_worker(proc, deadline)
            setups.append(setup)
    cmd = _worker_cmd(spec, "--seconds", repr(seconds), "--trace", str(trace))
    proc, setup = start_worker(cmd, deadline)
    setups.append(setup)
    out = finish_worker(proc, deadline)
    return json.loads(out.strip().splitlines()[-1]), setups


def end_to_end(result: dict, setups: list[float], tail_percentile: float, detail: dict) -> dict:
    latencies = np.asarray(result["latencies_s"])
    tail = float(np.percentile(latencies, tail_percentile))
    gate = result["gate"]
    detail.update(
        latency_samples=int(latencies.size),
        tail_percentile=tail_percentile,
        tail_samples_beyond=int(np.sum(latencies > tail)),
        setup_samples_s=setups,
        error_rate=gate["failed"] / gate["attempted"],
    )
    ops = result["ops"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / result["wall_s"], "1/s"),
        "latency_p50_ms": (1e3 * float(np.median(latencies)), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "cpu_per_op_ms": (1e3 * result["cpu_s"] / ops, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_rate": (1.0 - detail["error_rate"], "ratio"),
    }


def per_layer(result: dict, detail: dict) -> dict:
    """Per traced op: calls, self and total seconds of every traced function."""
    ops = result["ops"]
    layers = result["layers"]
    root_s = layers["cli.main"][2]
    metrics = {}
    for name in TRACED:
        calls, own, total = layers[name]
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (own / ops, "s/op")
        metrics[f"{name}.total_s"] = (total / ops, "s/op")
    for name in COUNTER_NAMES:
        unit = "n3/op" if name.endswith("n3_sum") else "calls/op"
        metrics[name] = (result["counts"].get(name, 0) / ops, unit)
    metrics["analysis.gap_bound_violations"] = (result["gate"]["gap_bound_violations"], "count")
    metrics["floor.lapack_eigvals_s"] = (result["floor_lapack_eigvals_s"], "s/op")
    metrics["trace.overhead_s"] = ((result["traced_s"] - result["untraced_s"]) / ops, "s/op")
    metrics["trace.ops"] = (ops, "count")
    detail.update(
        self_share={name: layers[name][1] / root_s for name in TRACED if root_s > 0},
        traced_s=result["traced_s"],
        untraced_s=result["untraced_s"],
        unbound=result["unbound"],
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "acnet_spectra" / "__init__.py").is_file():
        print(f"error: no acnet_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # the spec names its files relative to the checkout root
    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_path = write_spec(args.workload, args.seed, work)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    try:
        result, setups = run_worker(spec_path, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if Path(result["package"]).resolve().parent != (ROOT / "src" / "acnet_spectra").resolve():
        print(f"error: worker imported {result['package']}, not this checkout", file=sys.stderr)
        return 1

    gate = result["gate"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": result["ops"],
        "gap_bound_violations": gate["gap_bound_violations"],
        "failure_reasons": gate["failure_reasons"],
        "floor_lapack_eigvals_s_per_op": result["floor_lapack_eigvals_s"],
        "environment": result["environment"],
    }
    if args.trace:
        metrics = per_layer(result, detail)
    else:
        metrics = end_to_end(result, setups, spec["tail_percentile"], detail)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": gate["failed"] == 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
