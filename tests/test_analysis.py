import math

import numpy as np
import pytest

from acnet_spectra import (
    Edge,
    Network,
    Spectrum,
    Tolerances,
    assemble,
    check_bipartite_symmetry,
    check_circles,
    check_disk,
    check_trace,
    check_zero_simple,
    eigenvalues,
    gap_bound,
    match_multisets,
    p4_example,
    run_all_checks,
    sharpness_sweep,
)
from conftest import random_connected_network, random_frequency
from oracles import complete_network, cycle_network


def solve(net, s):
    return eigenvalues(assemble(net, s).entries)


def test_check_disk_p4():
    spectrum = solve(p4_example(), 1 + 2j)
    # |1 - lambda| is 1, 1, sqrt(1.25), sqrt(1.25); the radius is sqrt(5)
    expected = math.sqrt(5) - math.sqrt(1.25)
    assert check_disk(spectrum, 1 + 2j) == pytest.approx(expected, abs=1e-12)


def test_check_disk_real_frequency():
    rng = np.random.default_rng(51)
    for _ in range(10):
        net = random_connected_network(rng)
        s = random_frequency(rng, real=True)
        assert check_disk(solve(net, s), s) >= -1e-12


def test_check_disk_zero_eigenvalue_always_inside():
    # |1 - 0| = 1 <= |s|/Re s for every admissible frequency
    rng = np.random.default_rng(52)
    for _ in range(50):
        s = random_frequency(rng)
        assert abs(s) / s.real >= 1.0


def test_check_circles_p4():
    s = 1 + 2j
    report = check_circles(solve(p4_example(), s), s)
    margins = (report.disk_margin, report.circle_margin, report.real_interval_margin)
    assert min(margins) >= -Tolerances().region
    entries = {round(e.eigenvalue.real, 6): e for e in report.circle_margins}
    minus = entries[-0.1]
    assert minus.classification == "minus"
    # distance^2 to (1, -2) is 4.45, radius^2 is 5
    assert minus.margin == pytest.approx(math.sqrt(5) - math.sqrt(4.45), abs=1e-12)
    plus = entries[2.1]
    assert plus.classification == "plus"
    assert plus.margin == pytest.approx(math.sqrt(5) - math.sqrt(4.45), abs=1e-12)
    real_entries = [e for e in report.circle_margins if e.classification == "real"]
    assert len(real_entries) == 2
    assert {round(e.eigenvalue.real) for e in real_entries} == {0, 2}


def test_check_circles_randomized():
    rng = np.random.default_rng(53)
    for _ in range(40):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        report = check_circles(solve(net, s), s)
        assert min(report.circle_margin, report.real_interval_margin) >= -Tolerances().region
        assert report.disk_margin >= -1e-8


def test_check_trace_p4_any_frequency():
    rng = np.random.default_rng(54)
    for _ in range(10):
        s = random_frequency(rng)
        report = check_trace(solve(p4_example(), s), 4)
        assert report.passed
        assert report.eigen_sum_error <= 4e-8


def test_check_trace_imaginary_cancellation():
    report = check_trace(solve(p4_example(), 1 + 2j), 4)
    # imaginary parts -0.2 and +0.2 cancel
    assert report.imag_sum_error <= 1e-12
    assert report.passed


def test_check_trace_two_vertex_equality():
    net = Network(("a", "b"), (Edge(0, 1, 0, 1, 0),))
    report = check_trace(solve(net, 1.3 + 0.4j), 2)
    assert report.max_real == pytest.approx(2.0, abs=1e-12)  # n/(n-1) attained
    assert report.passed


def test_check_trace_verdict_is_margin_sign():
    # 1.9 >= 2 - 0.1 holds in floating point, but 1.9 - 2 + 0.1 < 0
    fake = Spectrum(np.array([0.1, 1.9]), True)
    report = check_trace(fake, 2, Tolerances(trace=0.1))
    assert report.margin < 0 and not report.passed
    spectrum = solve(p4_example(), 1 + 2j)
    report = check_trace(spectrum, 4)
    assert report.margin >= 0 and report.passed
    outcomes = {o.name: o for o in run_all_checks(p4_example(), 1 + 2j)[0].outcomes}
    assert outcomes["trace"].margin == report.margin


def test_check_zero_simple():
    assert check_zero_simple(solve(p4_example(), 1 + 2j))
    assert check_zero_simple(solve(Network(("a", "b"), (Edge(0, 1, 0, 1, 0),)), 2 + 1j))
    fake = Spectrum(np.array([0.0, 1e-12j, 2.0]), True)
    assert not check_zero_simple(fake)


def test_check_dual():
    # conjugating every admittance conjugates the solved spectrum
    net = p4_example()
    s = 1 + 2j
    spectrum = solve(net, s)
    dual_spectrum = solve(net, s.conjugate())
    tol = Tolerances().match
    result = match_multisets(np.conj(spectrum.eigenvalues), dual_spectrum.eigenvalues, tol)
    assert result.ok
    expected = np.array([0.0, 2.0, -0.1 + 0.2j, 2.1 - 0.2j])
    assert match_multisets(dual_spectrum.eigenvalues, expected, 1e-9).ok

    s_real = 1.7
    result = match_multisets(
        np.conj(solve(net, s_real).eigenvalues), solve(net, s_real.conjugate()).eigenvalues, tol
    )
    assert result.ok and result.max_distance < 1e-12


def test_check_bipartite_symmetry():
    s = 0.8 + 1.9j
    spectrum = solve(p4_example(), s)
    result = check_bipartite_symmetry(p4_example(), spectrum)
    assert result is not None and result.ok

    k3 = complete_network(3)
    assert check_bipartite_symmetry(k3, solve(k3, s)) is None

    c4 = cycle_network(4)
    spectrum = solve(c4, 1.0)
    from acnet_spectra import match_multisets

    assert match_multisets(spectrum.eigenvalues, [0, 1, 1, 2], 1e-9).ok
    assert check_bipartite_symmetry(c4, spectrum).ok


def test_gap_bound_p4_unit_frequency():
    net = p4_example()
    spectrum = solve(net, 1.0)
    report = gap_bound(net, 1.0, spectrum)
    assert report.admissible
    assert report.bound == pytest.approx(1 / 18, abs=1e-15)
    assert report.lambda1_modulus == pytest.approx(0.5, abs=1e-12)
    assert report.satisfied


def test_gap_bound_inadmissible():
    net = p4_example()
    report = gap_bound(net, 1 + 2j, solve(net, 1 + 2j))
    assert not report.admissible
    assert report.bound is None and report.satisfied is None


def test_gap_bound_single_edge():
    net = Network(("a", "b"), (Edge(0, 1, 0, 1, 0),))
    report = gap_bound(net, 1.0, solve(net, 1.0))
    assert report.admissible
    assert report.bound == pytest.approx(0.5)
    assert report.lambda1_modulus == pytest.approx(2.0)
    assert report.satisfied


def test_gap_bound_formula_is_not_sharp_for_large_real_s():
    # The implemented bound formula exceeds the true gap here: the single
    # resistor edge has spectrum {0, 2} at every s while the bound grows
    # like (Re s)^2. This pins the implementation's honest verdict.
    net = Network(("a", "b"), (Edge(0, 1, 0, 1, 0),))
    report = gap_bound(net, 3.0, solve(net, 3.0))
    assert report.admissible
    assert report.bound == pytest.approx(4.5)
    assert report.lambda1_modulus == pytest.approx(2.0)
    assert report.satisfied is False


@pytest.mark.parametrize(
    "s,bound,lambda1,satisfied",
    [(1.94, 0.20909, 0.20993, True), (2.0, 0.22222, 0.2, False)],
)
def test_gap_bound_p4_threshold_from_closed_form(s, bound, lambda1, satisfied):
    # p4 at real s has spectrum {0, mu, 2 - mu, 2} with mu = 1/(1 + s^2),
    # and the formula gives s^2/18, so it fails once s^4 + s^2 > 18,
    # i.e. s > 1.942. No eigensolve: the spectrum is the closed form.
    mu = 1.0 / (1.0 + s * s)
    spectrum = Spectrum(np.array([0.0, mu, 2.0 - mu, 2.0], dtype=complex), True)
    report = gap_bound(p4_example(), s, spectrum)
    assert report.admissible
    assert report.bound == pytest.approx(s * s / 18, rel=1e-15)
    assert report.bound == pytest.approx(bound, abs=1e-5)
    assert report.lambda1_modulus == pytest.approx(lambda1, abs=1e-5)
    assert report.satisfied is satisfied


def test_sharpness_point_values():
    (point,) = sharpness_sweep([1.0], 2.0)
    assert point.target_eigenvalue == pytest.approx(2.1 + 0.2j, abs=1e-12)
    assert point.eigenvalue == pytest.approx(2.1 + 0.2j, abs=1e-9)
    assert point.ratio == pytest.approx(math.sqrt(4.45 / 5), abs=1e-9)


def test_sharpness_ratios_increase_toward_one():
    points = sharpness_sweep([2, 5, 10, 50, 100], 0.1)
    ratios = [p.ratio for p in points]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.999
    for p in points:
        assert 0.0 <= p.ratio <= 1.0 + 1e-8
        assert abs(p.eigenvalue - p.target_eigenvalue) < 1e-6


def test_sharpness_input_validation():
    with pytest.raises(ValueError):
        sharpness_sweep([], 0.1)
    with pytest.raises(ValueError):
        sharpness_sweep([2, 1], 0.1)
    with pytest.raises(ValueError):
        sharpness_sweep([-1, 2], 0.1)
    with pytest.raises(ValueError):
        sharpness_sweep([1, 2], 0.0)


def test_sharpness_location_failure_on_wrong_network():
    # a triangle has no eigenvalue near the tracked path value
    with pytest.raises(ValueError, match="no eigenvalue within"):
        sharpness_sweep([5.0], 0.1, net=complete_network(3))


def test_run_all_checks_p4():
    report, spectrum = run_all_checks(p4_example(), 1 + 2j)
    assert spectrum.converged
    assert report.all_passed()
    by_name = {o.name: o for o in report.outcomes}
    assert not by_name["gap_bound"].applicable  # condition fails at 1+2i
    assert by_name["bipartite"].applicable and by_name["bipartite"].passed
    machine = report.to_machine()
    assert "check=disk pass=true margin=" in machine
    assert "check=gap_bound pass=na margin=nan" in machine
    text = report.to_text()
    assert "summary: all applicable checks passed" in text


def test_run_all_checks_triangle():
    report, _ = run_all_checks(complete_network(3), 2 + 1j)
    by_name = {o.name: o for o in report.outcomes}
    assert not by_name["bipartite"].applicable
    assert report.all_passed()


def test_run_all_checks_respects_tolerances():
    # an impossibly tight zero threshold flips zero_simple to failing
    tols = Tolerances(zero=1e-30)
    report, _ = run_all_checks(p4_example(), 1 + 2j, tols)
    by_name = {o.name: o for o in report.outcomes}
    assert not by_name["zero_simple"].passed
    assert not report.all_passed()
    assert [o.name for o in report.failures()] == ["zero_simple"]
