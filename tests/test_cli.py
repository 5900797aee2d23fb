import re
import xml.etree.ElementTree as ET

import pytest

from acnet_spectra import (
    LaplacianMatrix,
    analysis,
    assemble,
    cli,
    eigensolver,
    match_multisets,
    p4_example,
    run_all_checks,
)
from acnet_spectra.cli import main, parse_complex

EIGENVALUE_LINE = re.compile(r"^  (-?\d\.\d{16}e[+-]\d+)([+-]\d\.\d{16}e[+-]\d+)i")
RESIDUAL_COLUMN = re.compile(r"  residual=(\S+)$")


def parse_spectrum_lines(out):
    """Extract the by-real-part eigenvalue block from spectrum output."""
    values = []
    in_block = False
    for line in out.split("\n"):
        if line.startswith("eigenvalues (by real part"):
            in_block = True
            continue
        if in_block:
            m = EIGENVALUE_LINE.match(line)
            if not m:
                break
            values.append(complex(float(m.group(1)), float(m.group(2))))
    return values

P4_FILE = """\
vertices: x1 x2 x3 x4
edge x1 x2 D=1
edge x2 x3 L=1
edge x3 x4 D=1
"""


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("2i", 2j),
        ("i", 1j),
        ("-i", -1j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("1e-3", 1e-3 + 0j),
        ("1e-3i", 1e-3j),
        ("2.5e+01+3i", 25 + 3j),
        ("-1.5-2.5e-2i", -1.5 - 0.025j),
        ("0.5+i", 0.5 + 1j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "abc", "1+2x", "1+", "++i"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def test_spectrum_example_p4(capsys):
    code, out, _ = run(capsys, ["spectrum", "--example", "p4", "--s", "1+2i"])
    assert code == 0
    assert "converged: true" in out
    values = parse_spectrum_lines(out)
    expected = [-0.1 - 0.2j, 0.0, 2.0, 2.1 + 0.2j]
    assert len(values) == 4
    assert all(abs(a - b) < 1e-9 for a, b in zip(values, expected))
    residual_values = [
        float(m.group(1)) for m in map(RESIDUAL_COLUMN.search, out.split("\n")) if m
    ]
    assert len(residual_values) == 4
    assert max(residual_values) <= 1e-8


def test_spectrum_from_file(tmp_path, capsys):
    path = tmp_path / "p4.net"
    path.write_text(P4_FILE)
    code, out, _ = run(capsys, ["spectrum", "--network", str(path), "--s", "1"])
    assert code == 0
    values = parse_spectrum_lines(out)
    expected = [0.0, 0.5, 1.5, 2.0]  # closed form at s=1
    assert all(abs(a - b) < 1e-9 for a, b in zip(values, expected))


def test_spectrum_dual_conjugates(capsys):
    code, out, _ = run(capsys, ["spectrum", "--example", "p4", "--s", "1+2i", "--dual"])
    assert code == 0
    assert "(dual)" in out
    values = parse_spectrum_lines(out)
    expected = [-0.1 + 0.2j, 0.0, 2.0, 2.1 - 0.2j]
    assert all(abs(a - b) < 1e-9 for a, b in zip(values, expected))


def test_spectrum_dual_is_conjugate_frequency(capsys):
    _, dual_out, _ = run(capsys, ["spectrum", "--example", "p4", "--s", "1+2i", "--dual"])
    _, conj_out, _ = run(capsys, ["spectrum", "--example", "p4", "--s", "1-2i"])
    assert "s = 1.0000000000000000e+00+2.0000000000000000e+00i  (dual)" in dual_out
    assert [line for line in dual_out.split("\n") if line.startswith("  ")] == [
        line for line in conj_out.split("\n") if line.startswith("  ")
    ]


def test_exit_code_2_on_bad_frequency(capsys):
    code, _, err = run(capsys, ["spectrum", "--example", "p4", "--s=-1+0i"])
    assert code == 2
    assert "Re s must be positive" in err


def test_exit_code_2_on_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text("vertices: a b\nedge a b L=0 R=0 D=0\n")
    code, _, err = run(capsys, ["spectrum", "--network", str(path), "--s", "1"])
    assert code == 2
    assert "line 2" in err and "all-zero edge" in err


def test_exit_code_2_on_missing_file(capsys):
    code, _, err = run(capsys, ["spectrum", "--network", "/no/such/file", "--s", "1"])
    assert code == 2


def test_exit_code_2_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, ["spectrum", "--s", "1"])
    assert code == 2
    assert "exactly one of" in err


def test_verify_p4(capsys):
    code, out, _ = run(capsys, ["verify", "--example", "p4", "--s", "1+2i"])
    assert code == 0
    assert "summary: all applicable checks passed" in out
    assert "check=disk pass=true margin=" in out
    assert "check=gap_bound pass=na" in out


def test_verify_p4_unit_frequency_includes_gap(capsys):
    code, out, _ = run(capsys, ["verify", "--example", "p4", "--s", "1"])
    assert code == 0
    assert "check=gap_bound pass=true" in out


def test_verify_exit_code_4_on_failure(capsys):
    code, out, err = run(
        capsys, ["verify", "--example", "p4", "--s", "1+2i", "--tol", "zero=1e-30"]
    )
    assert code == 4
    assert "check=zero_simple pass=false" in out
    assert "verification failed" in err


def test_verify_rejects_unknown_tolerance(capsys):
    for args in (
        ["verify", "--example", "p4", "--s", "1", "--tol", "nope=1"],
        ["verify", "--example", "p4", "--s", "1+2i", "--tol", "region=nan"],
        ["verify", "--example", "p4", "--s", "1", "--tol", "zero=inf"],
        ["verify", "--example", "p4", "--s", "1", "--tol", "gap=-1e-10"],
        ["sweep", "--s1-list", "2,5", "--tol", "locate=nan"],
    ):
        code, out, err = run(capsys, args)
        assert code == 2, args
        assert out == "" and "bad --tol" in err


def test_sweep_table(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--s1-list", "2,5,10,50,100", "--s2", "0.1"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s1 s2 eigenvalue ratio"
    assert len(lines) == 6
    ratios = [float(line.split()[-1]) for line in lines[1:]]
    assert ratios == sorted(ratios)
    assert ratios[-1] >= 0.999


def test_sweep_tracks_eigenvalue_when_s_squared_overflows(capsys):
    # s*s overflows at s1 = 1e200; the tracked eigenvalue is then 2, not 0
    code, out, err = run(capsys, ["sweep", "--s1-list", "1e200", "--s2", "0.1"])
    assert code == 0, err
    row = out.strip().split("\n")[1].split()
    assert row[2].startswith("2.0000000000000000e+00")


def test_sweep_has_no_jobs_option(capsys):
    code, _, err = run(capsys, ["sweep", "--s1-list", "2,5,10", "--s2", "0.1", "--jobs", "2"])
    assert code == 2
    assert "unrecognized arguments: --jobs 2" in err


def test_sweep_empty_list_is_usage_error(capsys):
    code, _, err = run(capsys, ["sweep", "--s1-list", "", "--s2", "0.1"])
    assert code == 2
    assert "at least one --s1-list value" in err


def test_sweep_user_network_needs_flag(tmp_path, capsys):
    path = tmp_path / "p4.net"
    path.write_text(P4_FILE)
    code, _, err = run(capsys, ["sweep", "--network", str(path), "--s1-list", "2", "--s2", "0.1"])
    assert code == 2
    assert "--sweep-any" in err
    code, out, _ = run(
        capsys,
        ["sweep", "--network", str(path), "--s1-list", "2", "--s2", "0.1", "--sweep-any"],
    )
    assert code == 0 and "ratio" in out.split("\n")[0]


def test_sweep_locator_failure_is_input_error(tmp_path, capsys):
    # a triangle has no eigenvalue near the tracked path value
    path = tmp_path / "tri.net"
    path.write_text("vertices: a b c\nedge a b R=1\nedge b c R=1\nedge a c L=1\n")
    code, out, err = run(
        capsys, ["sweep", "--network", str(path), "--sweep-any", "--s1-list", "1,2"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: no eigenvalue within 1e-06")


def test_plot_writes_wellformed_svg(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, out, _ = run(
        capsys, ["plot", "--example", "p4", "--s", "1+2i", "--out", str(out_path)]
    )
    assert code == 0
    svg = out_path.read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    # one disk + two twin circles + four eigenvalue dots
    assert len(circles) == 7


def test_plot_coincident_circles_at_real_frequency(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, ["plot", "--example", "p4", "--s", "1", "--out", str(out_path)])
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    regions = [(c.get("cx"), c.get("cy"), c.get("r")) for c in circles[:3]]
    assert len(set(regions)) == 1  # all three bounding circles coincide


def test_plot_tick_count_is_bounded(tmp_path, capsys):
    # |s| / Re s = 5000: unit ticks would be 14,001 on x and 24,000 on y
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, ["plot", "--example", "p4", "--s", "2e-4+1i", "--out", str(out_path)]
    )
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    texts = [el for el in root.iter() if el.tag.endswith("text")]
    for anchor in ("middle", "end"):  # x axis, y axis
        ticks = [int(el.text) for el in texts if el.get("text-anchor") == anchor]
        assert 0 < len(ticks) <= 10_000
        # every tenth unit: 1,401 and 2,400 ticks; the y axis skips 0
        assert {b - a for a, b in zip(ticks, ticks[1:])} <= {10, 20}


def test_plot_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run(capsys, ["plot", "--example", "p4", "--s", "1+2i", "--out", str(a)])
    run(capsys, ["plot", "--example", "p4", "--s", "1+2i", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_reports_are_deterministic(capsys):
    args = ["verify", "--example", "p4", "--s", "1+2i"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second


def test_main_reuses_one_parser(capsys, monkeypatch):
    def no_parser():
        raise AssertionError("the parser is built once, at import")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, out, _ = run(capsys, ["verify", "--example", "p4", "--s", "1+2i"])
    assert code == 0 and "summary: all applicable checks passed" in out


def test_arguments_do_not_carry_over_between_calls(capsys):
    plain = ["verify", "--example", "p4", "--s", "1+2i"]
    first = run(capsys, plain)
    code, _, _ = run(capsys, [*plain, "--tol", "region=1", "--tol", "zero=0.5"])
    assert code == 4
    code, out, err = run(capsys, [*plain, "--tol", "region=nan"])
    assert code == 2 and out == "" and "bad --tol value" in err
    assert run(capsys, plain) == first


def test_out_redirects_text(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, ["spectrum", "--example", "p4", "--s", "1+2i", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert "converged: true" in target.read_text()


def test_verify_and_plot_skip_residuals(tmp_path, capsys, monkeypatch):
    def no_inverse_iteration(*args, **kwargs):
        raise AssertionError("inverse iteration must not run")

    monkeypatch.setattr(eigensolver, "_inverse_iteration", no_inverse_iteration)
    report, spectrum = run_all_checks(p4_example(), 1 + 2j)
    assert report.all_passed() and spectrum.converged
    code, out, _ = run(capsys, ["verify", "--example", "p4", "--s", "1+2i"])
    assert code == 0 and "summary: all applicable checks passed" in out
    svg = tmp_path / "fig.svg"
    code, _, _ = run(capsys, ["plot", "--example", "p4", "--s", "1+2i", "--out", str(svg)])
    assert code == 0 and svg.exists()


def test_verify_solves_once(capsys, monkeypatch):
    calls = []

    def counting(a):
        calls.append(a.shape)
        return eigensolver.eigenvalues(a)

    monkeypatch.setattr(analysis, "eigenvalues", counting)
    code, _, _ = run(capsys, ["verify", "--example", "p4", "--s", "1+2i"])
    assert code == 0 and len(calls) == 1
    calls.clear()
    report = run_all_checks(p4_example(), 1 + 2j)[0]
    assert report.all_passed() and len(calls) == 1


def test_dual_check_fails_on_bad_conjugate_assembly(capsys, monkeypatch):
    # the matrix assembled at conj s is off by 1e-6 in one entry
    s = 1 + 2j

    def perturbed(net, freq):
        lap = assemble(net, freq)
        if freq != s.conjugate():
            return lap
        entries = lap.entries.copy()
        entries[0, 1] += 1e-6
        return LaplacianMatrix(entries)

    monkeypatch.setattr(analysis, "assemble", perturbed)
    report, _ = run_all_checks(p4_example(), s)
    by_name = {o.name: o for o in report.outcomes}
    assert [o.name for o in report.failures()] == ["dual"]
    assert by_name["dual"].margin == pytest.approx(1e-8 - 1e-6, rel=1e-6)
    code, out, _ = run(capsys, ["verify", "--example", "p4", "--s", "1+2i"])
    assert code == 4
    assert "check=dual pass=false margin=" in out


def test_extreme_but_valid_element_scales(tmp_path, capsys):
    # rho = 1e-200 at every vertex; the normalized matrix is [[1, -1], [-1, 1]]
    path = tmp_path / "tiny.net"
    path.write_text("vertices: a b\nedge a b L=1e-200 D=1e200\n")
    code, out, err = run(capsys, ["verify", "--network", str(path), "--s", "1"])
    assert code == 0, err
    assert "summary: all applicable checks passed" in out
    code, out, _ = run(capsys, ["spectrum", "--network", str(path), "--s", "1"])
    assert code == 0
    assert match_multisets(parse_spectrum_lines(out), [0.0, 2.0], 1e-12).ok


def test_overflowing_admittance_is_input_error(tmp_path, capsys):
    # L s^2 overflows, so rho(x) is not finite
    path = tmp_path / "huge.net"
    path.write_text("vertices: a b\nedge a b L=1e300\n")
    code, out, err = run(capsys, ["verify", "--network", str(path), "--s", "1e200"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: vertex 'a'")
    assert "Traceback" not in err


@pytest.mark.parametrize("s", ["1.4e154", "1e-78", "1e300"])
def test_extreme_frequency_runs_verify(capsys, s):
    # |s|^2 overflows above 1.34e154 and |s|^-4 below 1e-77
    code, out, err = run(capsys, ["verify", "--example", "p4", "--s", s])
    assert code in (0, 4), err
    assert re.search(r"^gap_bound +(n/a|PASS|FAIL)", out, re.MULTILINE)


@pytest.mark.parametrize("command", ["spectrum", "verify", "plot"])
def test_underflowing_admittance_is_input_error(tmp_path, capsys, command):
    # L s^2 underflows to 0 on the middle edge, where R = D = 0
    argv = [command, "--example", "p4", "--s", "1e-162", "--out", str(tmp_path / "x")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: vertex 'x2': admittance sum rho(x) = inf")


@pytest.mark.parametrize("s", ["1+1e200i", "1e-200+1e200i"])
def test_plot_rejects_infinite_region_radius(tmp_path, capsys, s):
    svg = tmp_path / "x.svg"
    code, out, err = run(capsys, ["plot", "--example", "p4", "--s", s, "--out", str(svg)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: region radius |s| / Re s is not finite at s = ")
    assert not svg.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--example", "p4", "--s", "1"],
        ["spectrum", "--example", "p4", "--s", "1"],
        ["sweep", "--s1-list", "2"],
    ],
    ids=["verify", "spectrum", "sweep"],
)
def test_unwritable_out_is_input_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, [*argv, "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
