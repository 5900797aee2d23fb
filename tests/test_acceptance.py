"""End-to-end acceptance checks at pinned tolerances.

Each test prints one `[PASS]`/`[FAIL]` line for its criterion before
asserting, so a full run yields a compact scoreboard.
"""

import time

import mpmath
import numpy as np

from acnet_spectra import (
    Tolerances,
    assemble,
    check_bipartite_symmetry,
    check_circles,
    check_trace,
    check_zero_simple,
    eigenvalues,
    gap_bound,
    match_multisets,
    p4_example,
    sharpness_sweep,
)
from conftest import random_connected_network, random_elements, random_frequency
from oracles import (
    charpoly_oracle,
    complete_bipartite_network,
    complete_network,
    cycle_network,
    green_residual,
    path_network,
)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {num:02d} {label}{suffix}")
    assert ok, f"{num:02d} {label}{suffix}"


def p4_closed_form_spectrum(s):
    return np.array([0.0, 2.0, 1.0 / (1.0 + s * s), (1.0 + 2.0 * s * s) / (1.0 + s * s)])


def test_01_p4_reproduction():
    start = time.perf_counter()
    spectrum = eigenvalues(assemble(p4_example(), 1 + 2j).entries)
    expected = np.array([0.0, 2.0, -0.1 - 0.2j, 2.1 + 0.2j])
    match = match_multisets(spectrum.eigenvalues, expected, 1e-9)
    elapsed = time.perf_counter() - start
    report(
        1,
        "p4 spectrum reproduction at s=1+2i",
        match.ok and spectrum.converged and elapsed < 1.0,
        f"max distance {match.max_distance:.2e}, {elapsed:.3f}s",
    )


def test_02_p4_closed_form_sweep():
    rng = np.random.default_rng(102)
    worst = 0.0
    done = 0
    while done < 50:
        s = complex(5.0 * (1.0 - rng.random()), rng.uniform(-5.0, 5.0))
        if abs(1.0 + s * s) < 1e-6:
            continue
        done += 1
        spectrum = eigenvalues(assemble(p4_example(), s).entries)
        match = match_multisets(spectrum.eigenvalues, p4_closed_form_spectrum(s), 1e-8)
        worst = max(worst, match.max_distance)
    report(2, "p4 closed-form spectrum over 50 random s", worst <= 1e-8, f"worst {worst:.2e}")


def test_03_region_theorems_on_corpus(corpus):
    start = time.perf_counter()
    violations = 0
    worst = float("inf")
    for net, s in corpus:
        spectrum = eigenvalues(assemble(net, s).entries)
        region = check_circles(spectrum, s)
        worst = min(worst, region.disk_margin, region.circle_margin)
        # the real entries are among the circle entries, so circle_margin
        # also bounds real_interval_margin
        if min(region.disk_margin, region.circle_margin) < -Tolerances().region:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        "disk and twin-circle regions on 200-network corpus",
        violations == 0 and worst >= -1e-8 and elapsed < 30.0,
        f"worst margin {worst:.2e}, {elapsed:.1f}s",
    )


def test_04_green_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        net = random_connected_network(rng)
        s = random_frequency(rng)
        for _ in range(100):
            f = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
            g = rng.standard_normal(net.n) + 1j * rng.standard_normal(net.n)
            worst = max(worst, green_residual(net, s, f, g))
    report(4, "summation-by-parts identity residual", worst < 1e-10, f"worst {worst:.2e}")


def test_05_trace_identities(solved_corpus):
    ok = True
    worst_sum = worst_imag = 0.0
    for net, s, spectrum, _ in solved_corpus:
        tr = check_trace(spectrum, net.n)
        worst_sum = max(worst_sum, tr.eigen_sum_error / net.n)
        worst_imag = max(worst_imag, tr.imag_sum_error / net.n)
        ok = ok and tr.passed and tr.max_real >= net.n / (net.n - 1) - 1e-8
    report(
        5,
        "trace identities on corpus",
        ok and worst_sum <= 1e-8 and worst_imag <= 1e-8,
        f"worst sum error {worst_sum:.2e}/n, imag {worst_imag:.2e}/n",
    )


def test_06_simple_zero(solved_corpus):
    bad = sum(1 for _, _, spectrum, _ in solved_corpus if not check_zero_simple(spectrum))
    report(6, "zero is a simple eigenvalue on corpus", bad == 0, f"{bad} violations")


def test_07_dual_conjugation(solved_corpus):
    worst = 0.0
    for _, _, spectrum, dual_spectrum in solved_corpus:
        match = match_multisets(
            np.conj(spectrum.eigenvalues), dual_spectrum.eigenvalues, Tolerances().match
        )
        worst = max(worst, match.max_distance)
    report(7, "dual network conjugates the spectrum", worst <= 1e-8, f"worst {worst:.2e}")


def test_08_bipartite_symmetry():
    rng = np.random.default_rng(108)
    nets = [path_network(k, [random_elements(rng) for _ in range(k - 1)]) for k in range(2, 7)]
    nets.append(cycle_network(4, [random_elements(rng) for _ in range(4)]))
    nets.append(cycle_network(6, [random_elements(rng) for _ in range(6)]))
    nets.append(complete_bipartite_network(2, 3, [random_elements(rng) for _ in range(6)]))
    worst = 0.0
    for net in nets:
        s = random_frequency(rng)
        spectrum = eigenvalues(assemble(net, s).entries)
        result = check_bipartite_symmetry(net, spectrum)
        worst = max(worst, result.max_distance)
    k3 = complete_network(3)
    k3_na = (
        check_bipartite_symmetry(
            k3, eigenvalues(assemble(k3, 2 + 1j).entries)
        )
        is None
    )
    report(
        8,
        "bipartite 2-lambda symmetry (P2..P6, C4, C6, K2,3; K3 n/a)",
        worst <= 1e-8 and k3_na,
        f"worst {worst:.2e}",
    )


def test_09_gap_bound(solved_corpus):
    admissible = 0
    violations = []
    for net, s, spectrum, _ in solved_corpus:
        gr = gap_bound(net, s, spectrum)
        if gr.admissible:
            admissible += 1
            if not gr.satisfied:
                violations.append((net.n, s, gr.bound, gr.lambda1_modulus))
    p4 = p4_example()
    gr = gap_bound(p4, 1.0, eigenvalues(assemble(p4, 1.0).entries))
    p4_ok = (
        gr.admissible
        and abs(gr.bound - 1 / 18) < 1e-12
        and abs(gr.lambda1_modulus - 0.5) < 1e-9
        and gr.satisfied
    )
    report(
        9,
        "diameter gap bound on admissible corpus + p4 at s=1",
        not violations and p4_ok,
        f"{admissible} admissible, {len(violations)} violations"
        + (f", first {violations[0]}" if violations else ""),
    )


def test_10_sharpness():
    points = sharpness_sweep([2, 5, 10, 50, 100], 0.1)
    ratios = [p.ratio for p in points]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    (anchor,) = sharpness_sweep([1.0], 2.0)
    anchor_ok = abs(anchor.ratio - np.sqrt(4.45 / 5)) <= 1e-6
    report(
        10,
        "circle sharpness sweep",
        increasing and ratios[-1] >= 0.999 and anchor_ok,
        f"ratios {', '.join(f'{r:.4f}' for r in ratios)}; anchor {anchor.ratio:.6f}",
    )


def test_11_solver_vs_oracle():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        mine = eigenvalues(a)
        oracle = charpoly_oracle(a)
        match = match_multisets(mine.eigenvalues, oracle.eigenvalues, 1e-8)
        worst = max(worst, match.max_distance)
        if not (mine.converged and match.ok):
            break
    report(
        11,
        "QR solver agrees with charpoly oracle on 100 random matrices",
        worst <= 1e-8,
        f"worst {worst:.2e}",
    )


def test_12_real_frequency_degeneration(solved_corpus):
    worst_imag = 0.0
    inside = True
    count = 0
    for _, s, spectrum, _ in solved_corpus:
        if s.imag != 0.0:
            continue
        count += 1
        ev = spectrum.eigenvalues
        worst_imag = max(worst_imag, float(np.max(np.abs(ev.imag))))
        inside = inside and ev.real.min() >= -1e-8 and ev.real.max() <= 2 + 1e-8
    report(
        12,
        "real frequencies give real spectra in [0, 2]",
        count > 0 and worst_imag <= 1e-8 and inside,
        f"{count} real-frequency instances, worst |Im| {worst_imag:.2e}",
    )


def test_13_existence_witnesses():
    # p4's spectrum is {0, 2, mu, 2 - mu} with mu = 1/(1 + s^2): some
    # eigenvalue has Re < 0 iff Re mu is outside [0, 2], and some has
    # modulus above 2 iff max(|mu|, |2 - mu|) > 2
    zero = Tolerances().zero
    checked = negative = large = 0
    mismatches = []
    for re in np.linspace(0.05, 3.0, 20):
        for im in np.linspace(-5.0, 5.0, 41):
            s = complex(re, im)
            mu = 1.0 / (1.0 + s * s)
            big = max(abs(mu), abs(2.0 - mu)) - 2.0
            if min(abs(mu.real), abs(mu.real - 2.0), abs(big)) < 1e-6:
                continue  # too close to a boundary to call
            ev = eigenvalues(assemble(p4_example(), s).entries).eigenvalues
            expected = (not 0.0 <= mu.real <= 2.0, big > 0.0)
            solved = (bool(ev.real.min() < -zero), bool(np.abs(ev).max() > 2.0 + zero))
            checked += 1
            negative += expected[0]
            large += expected[1]
            if solved != expected:
                mismatches.append(s)

    # one witness of each kind, pinned at 50 digits: the solved spectrum
    # holds mu, and mu has Re < 0 at s = 1+2i and modulus above 2 at s = 0.1+i
    def solved_distance(s, mu):
        ev = eigenvalues(assemble(p4_example(), s).entries).eigenvalues
        return min(float(abs(mpmath.mpc(complex(lam)) - mu)) for lam in ev)

    with mpmath.workdps(50):
        mu_negative = 1 / (1 + mpmath.mpc(1, 2) ** 2)
        mu_large = 1 / (1 + mpmath.mpc(0.1, 1) ** 2)
        witnesses_ok = (
            mu_negative.real < 0
            and abs(mu_large) > 2
            and solved_distance(1 + 2j, mu_negative) <= 1e-12
            and solved_distance(0.1 + 1j, mu_large) <= 1e-12
        )
    report(
        13,
        "p4 has eigenvalues with Re < 0 and with modulus > 2",
        not mismatches and negative > 0 and large > 0 and witnesses_ok,
        f"{checked} grid points, {negative} with Re < 0, {large} with modulus > 2, "
        f"mismatches {mismatches[:3]}",
    )
