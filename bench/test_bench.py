"""Tests of the benchmark itself: seeded inputs, correctness gate, traced run.

    PYTHONPATH=src python -m pytest bench
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from acnet_spectra import cli, format_complex  # noqa: E402
from gate import Gate, parse_printed_complex  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS, build_corpus, write_spec  # noqa: E402


def generated(base: Path, workload: str, seed: int, monkeypatch) -> dict[str, bytes]:
    base.mkdir()
    monkeypatch.chdir(base)
    write_spec(workload, seed, Path("w"))
    return {str(p): p.read_bytes() for p in sorted(Path("w").rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_inputs(workload, tmp_path, monkeypatch):
    first = generated(tmp_path / "a", workload, 5, monkeypatch)
    again = generated(tmp_path / "b", workload, 5, monkeypatch)
    other = generated(tmp_path / "c", workload, 6, monkeypatch)
    assert first == again
    ops = [json.loads(files["w/spec.json"])["ops"] for files in (first, other)]
    assert ops[0] != ops[1]
    if workload != "sweep":  # sweep runs the built-in p4 and writes no network files
        networks = [{k: v for k, v in f.items() if k.endswith(".net")} for f in (first, other)]
        assert networks[0] and networks[0] != networks[1]


def test_corpus_is_the_acceptance_corpus():
    spec = importlib.util.spec_from_file_location("acceptance_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for seed in (0, 3):
        ours = build_corpus(seed)
        theirs = conftest.build_corpus(seed=seed)
        assert len(ours) == len(theirs) == 200
        for ((n, edges), s), (net, s_ref) in zip(ours, theirs):
            assert s == s_ref and n == net.n
            assert [(u, v, *e) for (u, v), e in edges] == [
                (e.u, e.v, e.L, e.R, e.D) for e in net.edges
            ]


@pytest.fixture
def ran(tmp_path, monkeypatch):
    """One op of each command, run through the CLI, with the gate's verdicts."""
    monkeypatch.chdir(tmp_path)
    mix = json.loads(write_spec("corpus-mix", 1, Path("mix")).read_text())["ops"]
    sweep = json.loads(write_spec("sweep", 1, Path("sweep")).read_text())["ops"]
    by_command = {}
    for op in mix[1:]:
        by_command.setdefault(op["command"], op)
    ops = [mix[0], by_command["verify"], by_command["spectrum"], by_command["plot"], sweep[0]]
    runner = Runner(cli, Path("mix"))
    for k, op in enumerate(ops):
        runner.run("timed", k, op)
    return ops, runner.records, runner.outputs(), Gate()


def test_gate_passes_real_outputs_and_counts_the_gap_violator(ran):
    ops, records, outputs, gate = ran
    verdicts = [gate.check(op, r[2], out, r[4]) for op, r, out in zip(ops, records, outputs)]
    assert all(v.ok for v in verdicts), verdicts
    assert records[0][2] == 4 and verdicts[0].gap_bound_violation
    assert not any(v.gap_bound_violation for v in verdicts[1:])


def test_gate_flags_corrupted_spectrum(ran):
    ops, records, outputs, gate = ran
    lines = outputs[2].splitlines()
    first = lines[lines.index("eigenvalues (by real part, then imaginary):") + 1]
    value = first.split()[0]
    moved = format_complex(parse_printed_complex(value) + 1e-6)
    assert not gate.check(ops[2], 0, outputs[2].replace(value, moved, 1)).ok
    assert not gate.check(ops[2], 0, outputs[2].replace(first + "\n", "")).ok


def test_gate_flags_nonzero_exits_and_raises(ran):
    ops, records, outputs, gate = ran
    for op, out in zip(ops, outputs):
        assert not gate.check(op, 3, out).ok
        assert not gate.check(op, 2, out).ok
        assert not gate.check(op, "RuntimeError: boom", out).ok
    # exit 4 is accepted only when gap_bound is the one failed check
    verify_out = outputs[1].replace("check=trace pass=true", "check=trace pass=false")
    assert not gate.check(ops[1], 4, verify_out).ok
    assert not gate.check(ops[1], 4, outputs[1]).ok  # exit 4 with nothing failed


def test_gate_flags_unparsable_svg_and_bad_sweep_rows(ran, tmp_path):
    ops, records, outputs, gate = ran
    svg = tmp_path / "broken.svg"
    svg.write_text(Path(records[3][4]).read_text()[:-20])
    assert not gate.check(ops[3], 0, outputs[3], str(svg)).ok
    rows = outputs[4].splitlines()
    s1, s2, lam, ratio = rows[1].split()
    moved = format_complex(parse_printed_complex(lam) + 1e-5)
    assert not gate.check(ops[4], 0, outputs[4].replace(rows[1], f"{s1} {s2} {moved} {ratio}")).ok
    assert not gate.check(ops[4], 0, outputs[4].replace(rows[1], f"{s1} {s2} {lam} 1.0e+00")).ok
    assert not gate.check(ops[4], 0, outputs[4].replace(rows[1] + "\n", "")).ok


@pytest.mark.parametrize("workload", ["corpus-mix", "sweep"])
def test_traced_run_attributes_every_op_to_named_spans(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = json.loads(write_spec(workload, 2, Path("w")).read_text())["ops"]
    originals = {name: getattr(cli, name) for name in ("main", "assemble", "eigenvalues")}
    runner = Runner(cli, Path("w"))
    with Tracer() as tracer:
        count, _ = runner.run_for("traced", ops, 0.5, tracer)
    assert {name: getattr(cli, name) for name in originals} == originals
    assert tracer.unbound == []

    own = tracer.self_times()
    roots = {}
    attributed = {}
    for (name, start, end, parent, op), t in zip(tracer.spans, own):
        assert name in TRACED and t >= -1e-12
        if parent < 0:
            assert name == "cli.main" and op not in roots
            roots[op] = end - start
        else:
            assert tracer.spans[parent][4] == op
        attributed[op] = attributed.get(op, 0.0) + t
    assert sorted(roots) == list(range(count))
    for op, (_, _, _, latency, _) in enumerate(runner.records):
        assert attributed[op] == pytest.approx(roots[op], rel=1e-9, abs=1e-12)
        assert roots[op] <= latency and latency - roots[op] < 1e-3
    called = {name for name, (calls, _, _) in tracer.layer_totals().items() if calls}
    expected = set(TRACED) - ({"analysis.sharpness_sweep"} if workload == "corpus-mix" else {
        "network.parse_network", "network.diameter", "network.bipartition",
        "admittance.gap_constants", "eigensolver.match_multisets",
        "analysis.run_all_checks", "svgfig.render_spectrum_svg"})
    assert called == expected


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if trace == "1" else declared["end_to_end"]
    proc = _run(ROOT, "--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
