"""The package surface: what the benchmark tracer rebinds, what the package
exports, that test-only references stay out of it, and what the commands
import."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acnet_spectra

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

# module -> definitions that only tests use; they live in tests/oracles.py
TEST_ONLY = {
    "eigensolver": ("ConvergenceError", "charpoly_coefficients", "_durand_kerner",
                    "charpoly_oracle"),
    "laplacian": ("green_residual", "complex_power"),
    "admittance": ("edge_admittance", "modulus_bound_margin",
                   "vertex_modulus_bound_margin", "lemma_lhs"),
    "network": ("serialize_network", "path_network", "cycle_network", "complete_network",
                "complete_bipartite_network", "_edge_elements", "DEFAULT_ELEMENTS",
                "Bipartition"),
}


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("name,callers", sorted(_traced().items()))
def test_traced_function_is_a_global_of_each_caller(name, callers):
    module, fn_name = name.split(".")
    fn = getattr(importlib.import_module(f"acnet_spectra.{module}"), fn_name)
    for caller in callers:
        assert getattr(importlib.import_module(f"acnet_spectra.{caller}"), fn_name, None) is fn


def test_every_exported_name_resolves():
    for name in acnet_spectra.__all__:
        assert getattr(acnet_spectra, name) is not None


@pytest.mark.parametrize("module", sorted(TEST_ONLY))
def test_test_only_names_are_not_in_the_package(module):
    mod = importlib.import_module(f"acnet_spectra.{module}")
    for name in TEST_ONLY[module]:
        assert not hasattr(mod, name)
        assert not hasattr(acnet_spectra, name)
        assert name not in acnet_spectra.__all__


# Runs the four commands in one fresh process: numpy.random costs each process
# its import time and memory, so no command may import it.
COMMANDS_WITHOUT_NUMPY_RANDOM = """
import sys
from acnet_spectra.cli import main

out = sys.argv[1]
for argv in (["spectrum", "--example", "p4", "--s", "1+2i"],
             ["verify", "--example", "p4", "--s", "1+2i"],
             ["plot", "--example", "p4", "--s", "1+2i", "--out", out],
             ["sweep", "--example", "p4", "--s1-list", "2,5", "--s2", "0.1"]):
    assert main(argv) == 0, argv
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""


def test_commands_do_not_import_numpy_random(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", COMMANDS_WITHOUT_NUMPY_RANDOM, str(tmp_path / "p4.svg")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
