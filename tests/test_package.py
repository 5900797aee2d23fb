"""The package surface: what the benchmark tracer rebinds, what the package
exports, and that test-only references stay out of it."""

import importlib.util
from pathlib import Path

import pytest

import acnet_spectra

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

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
