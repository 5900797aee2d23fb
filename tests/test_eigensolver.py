import numpy as np
import pytest

from acnet_spectra import (
    assemble,
    eigenvalues,
    match_multisets,
    p4_example,
    residuals,
)
from oracles import charpoly_coefficients, charpoly_oracle, cycle_network

P4_SPECTRUM_1_2I = np.array([0.0, 2.0, -0.1 - 0.2j, 2.1 + 0.2j])


def random_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)


def test_identity():
    spectrum = eigenvalues(np.eye(3))
    assert np.allclose(spectrum.eigenvalues, [1, 1, 1])
    assert np.all(residuals(np.eye(3), spectrum.eigenvalues) <= 1e-12)
    assert spectrum.converged


def test_p4_spectrum():
    a = assemble(p4_example(), 1 + 2j).entries
    spectrum = eigenvalues(a)
    match = match_multisets(spectrum.eigenvalues, P4_SPECTRUM_1_2I, 1e-9)
    assert match.ok
    assert spectrum.converged
    assert np.all(residuals(a, spectrum.eigenvalues) <= 1e-8)


def test_sorted_by_real_then_imaginary():
    rng = np.random.default_rng(41)
    for _ in range(10):
        ev = eigenvalues(random_matrix(rng, 6)).eigenvalues
        for a, b in zip(ev, ev[1:]):
            assert (a.real, a.imag) <= (b.real, b.imag)


def test_by_modulus_ordering():
    spectrum = eigenvalues(assemble(p4_example(), 1 + 2j).entries)
    moduli = np.abs(spectrum.by_modulus())
    assert np.all(np.diff(moduli) >= -1e-15)
    assert abs(spectrum.by_modulus()[0]) < 1e-9


def test_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(30):
        a = random_matrix(rng, int(rng.integers(2, 9)))
        mine = eigenvalues(a)
        oracle = charpoly_oracle(a)
        assert mine.converged and oracle.converged
        assert match_multisets(mine.eigenvalues, oracle.eigenvalues, 1e-8).ok


def test_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(43)
    for _ in range(30):
        a = random_matrix(rng, int(rng.integers(2, 11)))
        mine = eigenvalues(a)
        ref = np.linalg.eigvals(a)
        assert match_multisets(mine.eigenvalues, ref, 1e-8).ok


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = random_matrix(rng, n)
        spectrum = eigenvalues(a)
        assert abs(np.sum(spectrum.eigenvalues) - np.trace(a)) <= 1e-9 * n


def test_similarity_invariance():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = random_matrix(rng, n)
        p = np.eye(n) + 0.1 * random_matrix(rng, n)
        b = np.linalg.solve(p, a @ p)
        ev_a = eigenvalues(a).eigenvalues
        ev_b = eigenvalues(b).eigenvalues
        assert match_multisets(ev_a, ev_b, 1e-7).ok


def test_residuals_below_tolerance():
    rng = np.random.default_rng(46)
    for _ in range(10):
        a = random_matrix(rng, int(rng.integers(2, 9)))
        spectrum = eigenvalues(a)
        assert spectrum.converged
        assert np.all(residuals(a, spectrum.eigenvalues) <= 1e-8)


def test_input_validation():
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones(4))


def test_permutation_like_matrix_needs_exceptional_shifts():
    # companion of z^3 - 1: zero diagonal defeats the Wilkinson shift alone
    comp = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    spectrum = eigenvalues(comp)
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    assert spectrum.converged
    assert match_multisets(spectrum.eigenvalues, roots, 1e-10).ok


def test_charpoly_coefficients_closed_form():
    a = np.array([[1, -1], [-1, 1]], dtype=complex)
    # det(lambda I - A) = lambda^2 - 2 lambda
    assert np.allclose(charpoly_coefficients(a), [1, -2, 0], atol=1e-14)
    rng = np.random.default_rng(47)
    m = random_matrix(rng, 5)
    coeffs = charpoly_coefficients(m)
    assert coeffs[0] == 1.0
    assert abs(coeffs[1] + np.trace(m)) < 1e-12
    assert abs(coeffs[-1] - (-1) ** 5 * np.linalg.det(m)) < 1e-10


def test_charpoly_oracle_examples():
    a = np.array([[1, -1], [-1, 1]], dtype=complex)
    assert np.allclose(charpoly_oracle(a).eigenvalues, [0, 2], atol=1e-12)

    comp = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    assert match_multisets(charpoly_oracle(comp).eigenvalues, roots, 1e-10).ok

    spectrum = charpoly_oracle(assemble(p4_example(), 1 + 2j).entries)
    assert match_multisets(spectrum.eigenvalues, P4_SPECTRUM_1_2I, 1e-8).ok


def test_charpoly_oracle_rejects_large_matrices():
    with pytest.raises(ValueError, match="n <= 10"):
        charpoly_oracle(np.eye(11))


def test_charpoly_oracle_repeated_roots():
    # double eigenvalue 1 from the 4-cycle at s = 1
    a = assemble(cycle_network(4), 1.0).entries
    spectrum = charpoly_oracle(a)
    assert match_multisets(spectrum.eigenvalues, [0, 1, 1, 2], 1e-6).ok


def test_match_multisets():
    assert match_multisets([0, 2], [2, 0], 1e-9).ok
    image = 2.0 - P4_SPECTRUM_1_2I
    result = match_multisets(P4_SPECTRUM_1_2I, image, 1e-9)
    assert result.ok and result.max_distance < 1e-15

    bad = match_multisets([0, 1], [0, 1.1], 1e-2)
    assert not bad.ok
    assert bad.max_distance == pytest.approx(0.1)

    with pytest.raises(ValueError, match="lengths differ"):
        match_multisets([0, 1], [0], 1e-9)
