"""Seeded inputs for the benchmark workloads.

Every workload becomes a spec: network files written under a work
directory plus a list of CLI operations, each an ``argv`` for
``acnet_spectra.cli.main`` and the facts the correctness gate needs to
check its output. The same seed always yields byte-identical files and
the same operations; nothing here imports the program.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-large", "corpus-mix", "sweep")

# Percentile reported as latency_tail_ms. Fixed per workload so that runs
# of different commits compare the same statistic. At today's op counts
# (about 5000 corpus-mix and 250 sweep ops per 38 s run) each leaves at
# least ten samples beyond it, also on a host a third slower. Higher ones
# measure the host: when it preempts the process, about one corpus-mix op
# in a hundred waits 10-30 ms, and the corpus-mix p99 read 15-37 ms in ten
# runs of the same code. verify-large completes under ten ops per run, so
# no percentile has ten samples beyond it and its tail is the maximum.
TAIL_PERCENTILE = {"verify-large": 100.0, "corpus-mix": 95.0, "sweep": 90.0}

VERIFY_LARGE_N = 200
VERIFY_LARGE_POOL = 16
WARMUP_N = 48
# 200 points make one sweep op about 150 ms, long enough to average the
# host's millisecond-scale speed changes, so the median op moves like the
# mean. 40-point ops (about 30 ms) spread 20-36 ms on a fast host, and
# their median moved by up to 27% between runs.
SWEEP_POINTS = 200
SWEEP_POOL = 256
CORPUS_SIZE = 200
CORPUS_MIX = ("verify", "verify", "verify", "spectrum", "plot")
# build_corpus(seed=0)[185]: n=3 at s = 2.62, where the paper's gap
# formula exceeds the true gap. Every corpus-mix cycle starts with it so
# the known gap_bound violation (exit 4) is always part of the mix.
KNOWN_GAP_VIOLATOR = (0, 185)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
# random_elements, random_connected_network, random_frequency and
# build_corpus repeat tests/conftest.py draw for draw, so corpus-mix runs
# the acceptance corpus; test_bench.py pins the equality. They are copied
# so that a change to the tests cannot silently change the benchmark input.

def random_elements(rng):
    """Uniform (L, R, D) in [0, 1]^3 with a positive sum."""
    while True:
        L, R, D = rng.random(3)
        if L + R + D > 1e-6:
            return float(L), float(R), float(D)


def random_connected_network(rng, n_min=2, n_max=10):
    """Random spanning tree plus extra edges with probability 1/4."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = {}
    for i in range(1, n):
        edges[(int(rng.integers(0, i)), i)] = random_elements(rng)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.25:
                edges[(i, j)] = random_elements(rng)
    return n, sorted(edges.items())


def random_frequency(rng, real=False, re_max=3.0, im_max=3.0):
    """Re s uniform in (0, re_max], Im s uniform in [-im_max, im_max]."""
    re = re_max * (1.0 - rng.random())
    im = 0.0 if real else float(rng.uniform(-im_max, im_max))
    return complex(re, im)


def build_corpus(seed, size=CORPUS_SIZE):
    """Random (network, frequency) pairs; every fifth frequency is real."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(size):
        net = random_connected_network(rng)
        s = random_frequency(rng, real=(k % 5 == 0))
        out.append((net, s))
    return out


def tree_plus_chords(rng, n, chords):
    """Random spanning tree plus ``chords`` distinct extra edges."""
    edges = {}
    for i in range(1, n):
        edges[(int(rng.integers(0, i)), i)] = random_elements(rng)
    target = n - 1 + chords
    while len(edges) < target:
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = random_elements(rng)
    return n, sorted(edges.items())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def network_text(net) -> str:
    n, edges = net
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(n))]
    for (u, v), (L, R, D) in edges:
        lines.append(f"edge v{u} v{v} L={L!r} R={R!r} D={D!r}")
    return "\n".join(lines) + "\n"


def complex_literal(s: complex) -> str:
    """``s`` in the CLI's syntax; float(repr(x)) == x, so nothing rounds."""
    if s.imag == 0.0:
        return repr(s.real)
    sign = "+" if s.imag > 0 else "-"
    return f"{s.real!r}{sign}{abs(s.imag)!r}i"


def _write_network(work: Path, name: str, net) -> str:
    path = work / "networks" / f"{name}.net"
    path.write_text(network_text(net), encoding="utf-8")
    return str(path)


def _solve_op(command: str, path: str, s: complex) -> dict:
    return {
        "command": command,
        "network": path,
        "s": [s.real, s.imag],
        "argv": [command, "--network", path, "--s", complex_literal(s)],
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _verify_large(seed: int, work: Path) -> tuple[list, list]:
    """verify on n=200 networks (tree + 2n chords); every fourth s is real."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k in range(VERIFY_LARGE_POOL):
        net = tree_plus_chords(rng, VERIFY_LARGE_N, 2 * VERIFY_LARGE_N)
        s = random_frequency(rng, real=(k % 4 == 0))
        ops.append(_solve_op("verify", _write_network(work, f"large{k:02d}", net), s))
    warm_net = tree_plus_chords(rng, WARMUP_N, 2 * WARMUP_N)
    warm = _solve_op("verify", _write_network(work, "warmup", warm_net), random_frequency(rng))
    return ops, [warm]


def _corpus_mix(seed: int, work: Path) -> tuple[list, list]:
    """The acceptance-corpus generator, driven as 3 verify : 1 spectrum : 1 plot."""
    corpus = build_corpus(seed)
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(len(corpus))
    vseed, vindex = KNOWN_GAP_VIOLATOR
    net, s = build_corpus(vseed)[vindex]
    ops = [_solve_op("verify", _write_network(work, "gap_violator", net), s)]
    for j, k in enumerate(order):
        net, s = corpus[int(k)]
        path = _write_network(work, f"corpus{int(k):03d}", net)
        ops.append(_solve_op(CORPUS_MIX[j % len(CORPUS_MIX)], path, s))
    return ops, ops[: len(CORPUS_MIX) + 1]


def _sweep(seed: int, work: Path) -> tuple[list, list]:
    """sweep on the built-in p4 path: ascending s1 in [1, 100], s2 in [0.05, 1]."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(SWEEP_POOL):
        s1 = sorted(float(x) for x in 10.0 ** rng.uniform(0.0, 2.0, SWEEP_POINTS))
        s2 = float(rng.uniform(0.05, 1.0))
        ops.append({
            "command": "sweep",
            "s1": s1,
            "s2": s2,
            "argv": [
                "sweep", "--example", "p4",
                "--s1-list", ",".join(repr(x) for x in s1),
                "--s2", repr(s2),
            ],
        })
    return ops, ops[:1]


_BUILDERS = {"verify-large": _verify_large, "corpus-mix": _corpus_mix, "sweep": _sweep}


def write_spec(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's network files and ``spec.json`` under ``work``."""
    (work / "networks").mkdir(parents=True, exist_ok=True)
    ops, warmup = _BUILDERS[workload](seed, work)
    spec = {
        "workload": workload,
        "seed": seed,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "warmup": warmup,
        "ops": ops,
    }
    path = work / "spec.json"
    path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return path
