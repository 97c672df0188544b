"""Command-line interface: exit codes, output formats, and spot values."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import (
    HplusModel,
    PairSource,
    RateMethod,
    Setting,
    SourceKind,
    TimebinPort,
    TruncationPolicy,
    assemble_r,
    car,
    closed_form_rates,
    closed_form_rho,
    concurrence,
    reconstruct,
    timebin_rate,
    visibility_exact,
)
from biphoton import cli, oracle, polarization, tomography
from biphoton.cli import _SWEEP_MAX, _build_parser, _parse_sweep, main


def _rows(csv_text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_visibility_curve_anchor_row(capsys):
    code, out, _ = _run(capsys, ["visibility-curve", "--mu", "0.1"])
    assert code == 0
    assert out.startswith("# biphoton ")
    assert "# command=visibility-curve" in out
    assert "# alpha_s=0.10000000000000001" in out
    header, rows = _rows(out)
    assert header == ["mu", "v_exact_dis", "v_exact_indis", "v_approx_dis", "v_approx_indis"]
    row = [float(v) for v in rows[0]]
    assert row[1] == pytest.approx(0.908, abs=0.002)
    assert row[2] == pytest.approx(0.912, abs=0.002)
    # 17 significant digits round-trip exactly
    assert row[1] == 0.90869741163950424


def test_visibility_curve_sweep_and_unit_efficiency(capsys):
    code, out, _ = _run(
        capsys, ["visibility-curve", "--mu-range", "0.05:0.2:4", "--alpha-s", "1", "--alpha-i", "1"]
    )
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 4
    assert float(rows[0][0]) == 0.05
    assert float(rows[-1][0]) == 0.2
    for row in rows:
        mu = float(row[0])
        if mu == pytest.approx(0.1):
            assert abs(float(row[2]) - float(row[4])) <= 0.004


def test_sweep_validation_errors(capsys):
    code, _, err = _run(capsys, ["visibility-curve", "--mu-range", "0.1:0.1:5"])
    assert code == 2
    assert "2 distinct points" in err
    code, _, err = _run(capsys, ["visibility-curve", "--mu-range", "0.1:0.5:1"])
    assert code == 2
    assert "at least 2 points" in err
    code, _, err = _run(capsys, ["visibility-curve", "--mu-range", "0.1:0.5"])
    assert code == 2
    code, _, err = _run(capsys, ["visibility-curve", "--mu-range", "0:1:5:log"])
    assert code == 2
    code, _, err = _run(capsys, ["visibility-curve", "--mu-range", "a:b:5"])
    assert code == 2
    code, _, err = _run(capsys, ["visibility-curve", "--mu", "0.1", "--mu-range", "0.1:1:5"])
    assert code == 2
    code, _, err = _run(capsys, ["visibility-curve"])
    assert code == 2
    code, _, err = _run(capsys, ["visibility-curve", "--mu", "-1"])
    assert code == 2
    code, _, err = _run(capsys, ["visibility-curve", "--mu-range", "0:1:3:sqrt"])
    assert code == 2
    assert "scale must be 'lin' or 'log', got 'sqrt'" in err
    # the mu values are checked before the series policy is built
    for command in (["car", "--source", "dis-correlated"], ["visibility-curve"]):
        code, _, err = _run(capsys, [*command, "--mu-range", "1:0:3", "--tail-eps", "0"])
        assert code == 2
        assert "--mu-range needs at least 2 distinct points" in err, err


def test_a_sweep_takes_at_most_its_bound_of_points(capsys):
    # one point more is refused by name before any row is built; a closed-form
    # mode, so a missing bound costs seconds, not memory
    argv = ["car", "--source", "dis-correlated", "--method", "closed",
            "--mu-range", f"0:1:{_SWEEP_MAX + 1}"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "--mu-range takes at most 100000 points, got 100001" in err
    # the bound itself is a sweep
    assert _parse_sweep(f"0:1:{_SWEEP_MAX}") == (0.0, 1.0, _SWEEP_MAX, False)
    assert _SWEEP_MAX == 100_000


_CLOSED_TIMEBIN = ["timebin", "--source", "dis-entangled", "--method", "closed"]


# the grid checks are the CLI's own; mu itself is PairSource's rule,
# which every mode reaches before it writes anything
@pytest.mark.parametrize("argv", [
    [*_CLOSED_TIMEBIN, "--mu", "nan"],
    [*_CLOSED_TIMEBIN, "--mu", "inf"],
    [*_CLOSED_TIMEBIN, "--mu-range", "0:inf:3"],
    ["visibility-curve", "--mu", "-1"],
    ["visibility-curve", "--mu-range=-1:1:3"],
    ["concurrence-curve", "--mu", "nan"],
    ["density-matrix", "--source", "indis-entangled", "--method", "closed-rho", "--mu", "inf"],
    ["density-matrix", "--source", "indis-entangled", "--method", "closed", "--mu", "-1"],
    ["density-matrix", "--source", "indis-entangled", "--method", "exact", "--mu", "nan"],
    ["car", "--source", "dis-correlated", "--method", "closed", "--mu", "nan"],
    ["car", "--source", "thermal-correlated", "--mu-range", "0:inf:3"],
    ["timebin", "--source", "indis-entangled", "--port", "aplus", "--mu", "nan"],
    # a value that starts with "-" reaches its rule, not argparse's flag check
    ["visibility-curve", "--mu-range", "-1:1:3"],
    ["timebin", "--source", "dis-entangled", "--mu", "-1e-3"],
    ["car", "--source", "dis-correlated", "--mu", "0.1", "--dark-s", "-1e-4"],
    ["concurrence-curve", "--mu", "0.1", "--alpha-s", "-inf"],
    # with both darks at 0 the mu = 0 row is the Bell limit, which reads no
    # arm, but the arms are checked before any row
    ["concurrence-curve", "--mu", "0", "--alpha-s", "nan"],
    ["concurrence-curve", "--mu", "0", "--alpha-s", "1.5"],
])
def test_invalid_mu_exits_2_with_nothing_on_stdout(argv):
    code, out, err = _capture(argv)
    assert code == 2 and not out, (argv, out)
    # a detector value breaks DetectorModel's rule, any other PairSource's
    rules = {"--alpha-s": "alpha must lie in [0, 1]", "--dark-s": "dark must lie in [0, 1)"}
    rule = next((rules[f] for f in rules if f in argv), "mu must be finite and >= 0")
    assert rule in err, (argv, err)


_DM_CLOSED = ["density-matrix", "--source", "dis-entangled", "--format", "json", "--mu", "0"]


# the reconstruction's refusal of a state whose H/V rates are all 0: it
# names the cause and what to change
_NO_TRACE = ("reconstructed trace 0.000e+00 is not positive: the trace is the sum of the HH, HV, "
             "VV and VH rates, so one must be above 0; at mu = 0 give each arm a dark count, and "
             "give no arm alpha = dark = 0")


# at mu = 0 only dark counts click: one zero dark count leaves every rate
# at 0, and the limit state is not the Bell state of the both-zero row
@pytest.mark.parametrize("argv", [
    ["concurrence-curve", "--mu-range", "0:1e-6:3", "--dark-i", "1e-3"],
    ["concurrence-curve", "--mu", "0", "--dark-s", "1e-3"],
    [*_DM_CLOSED, "--method", "closed"],
    [*_DM_CLOSED, "--method", "exact", "--dark-s", "1e-3"],
])
def test_mu_zero_with_a_zero_dark_count_is_a_config_error(argv):
    code, out, err = _capture(argv)
    assert code == 2 and not out, (argv, out)
    assert err == f"biphoton: {_NO_TRACE}\n", err


# an arm with alpha = dark = 0 never clicks, at mu = 0 as at any other mu
@pytest.mark.parametrize("argv", [
    ["concurrence-curve", "--mu", "0", "--alpha-s", "0"],
    ["concurrence-curve", "--mu", "0.5", "--alpha-s", "0"],
    ["concurrence-curve", "--mu-range", "0:1:3", "--alpha-i", "0"],
    ["density-matrix", "--source", "indis-entangled", "--mu", "0.3", "--alpha-s", "0"],
    ["density-matrix", "--source", "dis-entangled", "--mu", "0.3", "--method", "exact",
     "--alpha-i", "0"],
    ["density-matrix", "--from-r", "{tmp}/zero.json"],
])
def test_a_state_without_coincidences_is_refused_by_the_reconstruction(tmp_path, argv):
    (tmp_path / "zero.json").write_text(json.dumps({"r": [0.0] * 16}))
    code, out, err = _capture([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == 2 and not out, (argv, out)
    assert err == f"biphoton: {_NO_TRACE}\n", err


def test_json_output_is_self_describing(capsys):
    code, out, _ = _run(
        capsys, ["visibility-curve", "--mu", "0.1", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["library"] == "biphoton"
    assert obj["config"]["command"] == "visibility-curve"
    assert obj["config"]["mu"] == "0.10000000000000001"
    assert obj["columns"][0] == "mu"
    assert obj["rows"][0][2] == pytest.approx(0.9122898477171321, rel=1e-15)


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, out, _ = _run(capsys, ["visibility-curve", "--mu", "0.1", "--out", str(out_file)])
    assert code == 0
    assert out == ""
    text = out_file.read_text()
    assert text.startswith("# biphoton ")
    assert f"# out={out_file}" in text


def test_concurrence_curve_rows(capsys):
    code, out, _ = _run(capsys, ["concurrence-curve", "--mu-range", "0:0.3:2"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["mu", "conc_dis", "conc_indis", "conc_closed_dis", "conc_closed_indis"]
    first = [float(v) for v in rows[0]]
    assert first[1] == pytest.approx(1.0, abs=1e-12)
    assert first[2] == pytest.approx(1.0, abs=1e-12)
    last = [float(v) for v in rows[1]]
    assert last[1] == pytest.approx(0.653846, abs=1e-6)
    assert last[2] == pytest.approx(0.689655, abs=1e-6)
    assert last[1] == pytest.approx(last[3], abs=1e-10)
    assert last[2] == pytest.approx(last[4], abs=1e-10)


_ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)


@pytest.mark.parametrize(("grid", "dets"), [
    ("0:2:21", (0.1, 0.1, 0.0, 0.0)),  # zero darks: the mu = 0 row is the Bell limit
    ("1e-9:3:40:log", (0.3, 0.2, 1e-4, 2e-4)),
    ("0.01:2:20:log", (0.1, 0.1, 1e-4, 2e-4)),
])
def test_concurrence_curve_rows_equal_one_state_at_a_time(capsys, grid, dets):
    # the curve grades all its states in one stacked pass; each printed C
    # is that of its state reconstructed alone, bit for bit
    flags = ("--alpha-s", "--alpha-i", "--dark-s", "--dark-i")
    argv = ["concurrence-curve", "--mu-range", grid]
    for flag, value in zip(flags, dets):
        argv += [flag, repr(value)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    _, rows = _rows(out)
    for row in rows:
        mu = float(row[0])
        for kind, cell in zip(_ENTANGLED, row[1:3]):
            if mu == 0.0:
                want = concurrence(closed_form_rho(kind, 0.0))
            else:
                want = concurrence(reconstruct(assemble_r(kind, mu, *dets)))
            assert float(cell) == want, (kind, mu)
    assert (float(rows[0][0]) == 0.0) == grid.startswith("0:")


# R_HH = 1 with R_HV = R_H+ = 0 reconstructs to a state with eigenvalue -1
_NOT_PSD = (1.0, 0.0, 0.0)


@pytest.mark.parametrize(("grid", "unphysical", "message"), [
    # mu = 0 with a zero dark count fails before a later unphysical state
    ("0:1:3", 0.5, _NO_TRACE),
    # every mu is checked before any state is graded: a mu outside the
    # closed forms fails before an earlier unphysical state
    ("1:1e200:3", 1.0, "the closed forms hold for mu <= 1e+150, got mu=5e+199"),
    # and before a later one
    ("1:1e200:3", 1e200, "the closed forms hold for mu <= 1e+150, got mu=5e+199"),
])
def test_concurrence_curve_checks_every_mu_before_grading_a_state(
    capsys, monkeypatch, grid, unphysical, message
):
    real = tomography._closed_forms

    def forms(kind, mu, *arms):
        rates = real(kind, mu, *arms)
        bad = mu == unphysical
        return (*(np.where(bad, x, r) for x, r in zip(_NOT_PSD, rates)), *rates[3:])

    monkeypatch.setattr(tomography, "_closed_forms", forms)
    code, out, err = _run(capsys, ["concurrence-curve", "--mu-range", grid, "--dark-i", "1e-3"])
    assert code == 2 and not out
    assert message in err


def test_density_matrix_json(capsys):
    code, out, _ = _run(
        capsys,
        ["density-matrix", "--source", "dis-entangled", "--mu", "0.3", "--method", "closed-rho"],
    )
    assert code == 0
    obj = json.loads(out)
    dm = obj["density_matrix"]
    assert dm["basis"] == ["HH", "HV", "VH", "VV"]
    got = np.array(dm["re"]) + 1j * np.array(dm["im"])
    want = closed_form_rho(SourceKind.DIS_ENTANGLED, 0.3).matrix
    assert np.max(np.abs(got - want)) <= 1e-15
    assert obj["concurrence"] == pytest.approx(0.653846, abs=1e-6)
    # the tomography pipeline lands on the same state
    code, out, _ = _run(
        capsys, ["density-matrix", "--source", "dis-entangled", "--mu", "0.3"]
    )
    assert code == 0
    got = json.loads(out)["density_matrix"]
    got = np.array(got["re"]) + 1j * np.array(got["im"])
    assert np.max(np.abs(got - want)) <= 1e-8


def test_closed_density_matrix_prints_the_reconstruction_of_the_closed_rates(capsys):
    # --method closed and --method exact share one rate path: each prints
    # the reconstruction of the rates its method fills in, bit for bit
    for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
        for mu in (1e-6, 0.01, 0.3, 2.0, 5.0):
            code, out, _ = _run(capsys, ["density-matrix", "--source", kind.value, "--method",
                                         "closed", "--mu", repr(mu), "--alpha-s", "0.3",
                                         "--dark-i", "2e-4"])
            assert code == 0
            doc = json.loads(out)
            rho = reconstruct(assemble_r(kind, mu, 0.3, 0.1, 0.0, 2e-4))
            assert doc["density_matrix"] == rho.to_json_dict(), (kind, mu)
            assert doc["concurrence"] == concurrence(rho), (kind, mu)


def test_density_matrix_from_r_round_trip(tmp_path, capsys):
    rep = closed_form_rates(SourceKind.INDIS_ENTANGLED, 0.2, 0.1, 0.1)
    r = [rep.r_hplus] * 16
    for j in (0, 2, 9, 15):
        r[j] = rep.r_hh
    for j in (1, 3):
        r[j] = rep.r_hv
    payload = tmp_path / "rates.json"
    payload.write_text(json.dumps({"r": r}))
    code, out, _ = _run(capsys, ["density-matrix", "--from-r", str(payload)])
    assert code == 0
    got = json.loads(out)["density_matrix"]
    got = np.array(got["re"]) + 1j * np.array(got["im"])
    want = closed_form_rho(SourceKind.INDIS_ENTANGLED, 0.2).matrix
    assert np.max(np.abs(got - want)) <= 1e-10
    # the overall scale is irrelevant, out to the ends of the float range
    for scale in (2.0**1000, 2.0**-1000):
        payload.write_text(json.dumps({"r": [v * scale for v in r]}))
        code, scaled, _ = _run(capsys, ["density-matrix", "--from-r", str(payload)])
        assert code == 0
        assert json.loads(scaled)["density_matrix"] == json.loads(out)["density_matrix"]


def test_density_matrix_errors(tmp_path, capsys):
    code, _, err = _run(
        capsys, ["density-matrix", "--source", "dis-entangled", "--mu", "0.3", "--format", "csv"]
    )
    assert code == 2
    assert "json" in err.lower()
    code, _, err = _run(capsys, ["density-matrix", "--source", "dis-entangled"])
    assert code == 2
    assert "--mu" in err
    code, _, err = _run(capsys, ["density-matrix", "--mu", "0.3"])
    assert code == 2
    assert "--source" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rates": [1.0] * 16}))
    code, _, err = _run(capsys, ["density-matrix", "--from-r", str(bad)])
    assert code == 2
    bad.write_text(json.dumps({"r": [1.0] * 15}))
    code, _, err = _run(capsys, ["density-matrix", "--from-r", str(bad)])
    assert code == 2
    code, _, err = _run(capsys, ["density-matrix", "--from-r", str(tmp_path / "missing.json")])
    assert code == 2
    # an int beyond the float range is held as an infinity, by the number rule
    for rates, message in (([math.nan] * 16, "finite"), ([-1.0] + [1.0] * 15, "finite"),
                           ([None] * 16, "real number"), ([10**400] + [1] * 15, "finite")):
        bad.write_text(json.dumps({"r": rates}))
        code, _, err = _run(capsys, ["density-matrix", "--from-r", str(bad)])
        assert code == 2 and message in err, err


@pytest.mark.parametrize("rates, message", [
    ([0.1] * 15 + [True], "r must be a real number, got True"),
    ([0.1] * 15 + [None], "r must be a real number, got None"),
    ([0.1] * 15, "expected 16 rates, got shape (15,)"),
    ([[0.1] * 16], "expected 16 rates, got shape (1, 16)"),
    ([0.1] * 15 + [[0.1]], "r must be a real number, got [0.1]"),
], ids=["bool", "null", "fifteen", "nested", "ragged"])
def test_from_r_rates_follow_the_library_number_rule(tmp_path, capsys, rates, message):
    # the CLI checks only that the file holds {"r": ...}; the rates meet
    # reconstruct's own rule, and a refused file exits 2 with no stdout
    path = tmp_path / "rates.json"
    path.write_text(json.dumps({"r": rates}))
    with pytest.raises((TypeError, ValueError)) as lib:
        tomography.reconstruct(rates)
    assert str(lib.value) == message
    code, out, err = _run(capsys, ["density-matrix", "--from-r", str(path)])
    named = f"{path}: {message}" if lib.type is TypeError else message
    assert (code, out, err) == (2, "", f"biphoton: {named}\n")


def test_car_command(capsys):
    code, out, _ = _run(
        capsys,
        ["car", "--source", "thermal-correlated", "--mu", "0.1", "--method", "closed",
         "--alpha-s", "1e-6", "--alpha-i", "1e-6"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["mu", "matched", "unmatched", "car"]
    assert float(rows[0][3]) == pytest.approx(12.0, rel=1e-9)
    code, _, err = _run(capsys, ["car", "--source", "dis-correlated", "--mu", "-0.1"])
    assert code == 2
    code, _, err = _run(
        capsys,
        ["car", "--source", "dis-correlated", "--mu", "0.1", "--method", "closed",
         "--alpha-i", "1.5"],
    )
    assert code == 2
    assert "alpha must lie in [0, 1], got 1.5" in err
    with pytest.raises(SystemExit):
        main(["car", "--source", "dis-entangled", "--mu", "0.1"])


def test_timebin_command(capsys):
    code, out, _ = _run(
        capsys,
        ["timebin", "--source", "dis-entangled", "--mu", "0.2", "--port", "aa",
         "--method", "closed", "--alpha-s", "0.1", "--alpha-i", "0.1"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["mu", "rate"]
    want = 0.2 * 0.1 * 0.1 / 8 + (0.2 * 0.1 / 4) ** 2
    assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)
    # detector efficiencies are checked before the time-bin map halves them
    for method in ("exact", "closed"):
        code, out, err = _run(
            capsys,
            ["timebin", "--source", "dis-entangled", "--mu", "0.2", "--method", method,
             "--alpha-s", "1.5"],
        )
        assert code == 2
        assert out == ""
        assert "alpha must lie in [0, 1], got 1.5" in err


def test_optimize_mu_command(capsys):
    # the search bracket comes from --mu-range alone; --mu is not an option
    code, _, err = _capture(["optimize-mu", "--source", "dis-entangled", "--mu", "0.1"])
    assert code == 2
    assert "--mu-range" in err
    code, _, err = _capture(["optimize-mu", "--source", "dis-entangled", "--mu", "0.3",
                             "--mu-range", "1e-5:1:65:log"])
    assert code == 2
    assert "--mu 0.3" in err
    # the bracket is sampled on a log grid of N >= 3 points; nothing else is read
    for text in ("1e-3:1:9", "1e-3:1:9:lin", "1e-3:1:2:log"):
        code, out, err = _capture(["optimize-mu", "--source", "dis-entangled", "--mu-range", text])
        assert code == 2 and out == ""
        assert "--mu-range LO:HI:N:log with N >= 3" in err, text
    code, out, _ = _run(
        capsys,
        ["optimize-mu", "--source", "dis-entangled", "--mu-range", "1e-5:1:65:log",
         "--alpha-s", "0.01", "--alpha-i", "0.01", "--dark-s", "1e-5", "--dark-i", "1e-5"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["mu_star", "value", "unimodal"]
    assert float(rows[0][0]) == pytest.approx(2e-3, rel=1e-3)
    assert rows[0][2] == "true"


def test_optimize_mu_reports_a_flat_profile_as_not_unimodal(capsys):
    # at alpha_i 1 and dark_i 0 the state is separable: C is 0 up to
    # rounding over the whole bracket, so no optimum is certified
    code, out, _ = _run(
        capsys,
        ["optimize-mu", "--source", "indis-entangled", "--objective", "max-concurrence",
         "--mu-range", "1:10:3:log", "--alpha-s", "0.01", "--alpha-i", "1",
         "--dark-s", "0.01", "--dark-i", "0"],
    )
    assert code == 0
    _, rows = _rows(out)
    assert rows[0][0] == "10"
    assert abs(float(rows[0][1])) <= 1e-14
    assert rows[0][2] == "false"


def test_validate_command(capsys):
    code, _, err = _run(capsys, ["validate", "--trials", "-1"])
    assert code == 2
    assert "--trials must be >= 0" in err
    code, out, _ = _run(capsys, ["validate"])
    assert code == 0
    assert "# status=pass" in out
    assert "# cells=128" in out
    header, rows = _rows(out)
    assert len(rows) == 128
    assert header[-1] == "status"
    assert all(row[-1] == "pass" for row in rows)
    max_err = max(float(row[7]) for row in rows)
    line = next(ln for ln in out.splitlines() if ln.startswith("# max_abs_err="))
    assert float(line.split("=", 1)[1]) == max_err
    assert max_err <= 1e-9 + max(float(row[8]) for row in rows)


def test_validate_with_mc_trials(capsys):
    code, out, _ = _run(capsys, ["validate", "--trials", "20000", "--seed", "1"])
    assert code == 0
    header, rows = _rows(out)
    assert header[-1] == "mc_status"
    assert all(row[-1] == "pass" for row in rows)
    assert max(float(row[11]) for row in rows) <= 4.0


def test_validate_refuses_a_negative_seed(capsys):
    # the Monte-Carlo names the seed; numpy's own refusal named no option
    code, out, err = _run(capsys, ["validate", "--trials", "10", "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "biphoton: seed must be >= 0, got -1\n"


def test_validate_fails_on_a_disagreement(capsys, monkeypatch):
    # the summary and the exit code follow the rows' status and mc_status
    coincidence_rate, mc_rate = cli.coincidence_rate, oracle.mc_rate

    def off_series(source, setting, *rest):
        entry = coincidence_rate(source, setting, *rest)
        shift = 1e-6 if setting is Setting.HV else 0.0
        return entry._replace(value=entry.value + shift)

    def off_mc(source, setting, *rest):
        est = mc_rate(source, setting, *rest)
        shift = 0.5 if setting is Setting.CAR_MATCHED else 0.0
        return est._replace(mean=est.mean + shift)

    monkeypatch.setattr(cli, "coincidence_rate", off_series)
    code, out, _ = _run(capsys, ["validate"])
    assert code == 1 and "# status=FAIL" in out
    _, rows = _rows(out)
    assert {row[1] for row in rows if row[9] == "FAIL"} == {"hv"}
    assert f"# max_abs_err={max(float(row[7]) for row in rows):.17g}" in out
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "mc_rate", off_mc)
    code, out, _ = _run(capsys, ["validate", "--trials", "20000"])
    assert code == 1 and "# status=FAIL" in out
    _, rows = _rows(out)
    assert all(row[9] == "pass" for row in rows)
    assert {row[1] for row in rows if row[12] == "FAIL"} == {"car-matched"}
    assert f"# max_mc_z={max(float(row[11]) for row in rows):.17g}" in out


def test_version_and_help():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _capture(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one main() call, SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_match_a_fresh_parser(monkeypatch):
    # main() keeps one parser per process; parsing must leave nothing in
    # it that a later call sees, whatever came before
    argvs = [
        ["visibility-curve", "--mu", "0.3", "--dark-s", "1e-3"],
        ["--version"],
        ["car", "--source", "dis-correlated", "--mu-range", "0.1:0.3:3", "--format", "json"],
        ["timebin", "--mu", "0.3"],  # argparse error: --source is required
        ["visibility-curve", "--mu-range", "0.1:0.1:5"],  # ConfigError
        ["timebin", "--source", "indis-entangled", "--port", "aplus", "--mu", "0.3"],
        ["density-matrix", "--source", "dis-entangled", "--mu", "0.3", "--method", "exact"],
        ["no-such-command"],
        ["car", "--source", "thermal-correlated", "--mu", "0.2", "--method", "closed"],
        ["car", "--source", "dis-correlated", "--mu", "0.3", "--bogus"],  # unrecognized
        ["car", "--version"],  # --version is a top-level flag
        ["car", "-h"],
        ["car", "--sou", "dis-correlated", "--mu", "0.3"],  # abbreviated
        ["car", "--source", "dis-correlated", "--mu", "-1"],  # ConfigError
        ["--", "car", "--source", "dis-correlated", "--mu", "0.3"],
        [],
        ["visibility-curve", "--mu", "0.3", "--dark-s", "1e-3"],
    ]
    reused = [_capture(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parser", _build_parser)
    fresh = [_capture(argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0, 0, 2, 0, 2, 2, 0, 2, 2, 2, 2, 0]
    assert reused[0] == reused[-1]
    assert reused[1][1] == f"biphoton {cli.__version__}\n"


_RATES = {"r": [0.5, 0.2] + [0.25] * 14}
_CAR_MU = ["car", "--source", "dis-correlated", "--mu", "0.3"]
# argvs whose parse ends every way it can: a result, help, or an error
# from the top level, a subcommand's parser or the command itself
_PARSE_CORPUS = [
    ["visibility-curve", "--mu", "0.3"],
    ["concurrence-curve", "--mu-range", "0:1:3", "--dark-s", "1e-3"],
    ["density-matrix", "--source", "indis-entangled", "--mu", "0.3", "--method", "exact"],
    ["density-matrix", "--from-r", "{tmp}/rates.json"],
    [*_CAR_MU, "--method", "closed"],
    ["timebin", "--source", "dis-entangled", "--port", "ab", "--mu-range", "0.1:0.3:3"],
    ["optimize-mu", "--source", "dis-entangled", "--mu-range", "1e-3:1:9:log"],
    ["validate", "--format", "json"],
    *([command, "-h"] for command in cli._COMMANDS),
    ["car", "--help", "--bogus"],
    [*_CAR_MU, "--bogus"],
    [*_CAR_MU, "--bogus", "1", "extra"],
    [*_CAR_MU, "--", "extra"],
    [*_CAR_MU, "--version"],
    ["car", "--version"],
    ["car", "--mu", "0.3"],  # --source is required
    ["car", "--sou", "dis-correlated", "--mu", "0.3"],
    [*_CAR_MU, "--meth", "closed"],
    [*_CAR_MU, "--method", "bogus"],
    ["car", "--source", "dis-correlated", "--mu", "abc"],
    ["car", "--source", "dis-correlated", "--mu", "-1"],
    ["car", "--source", "dis-correlated", "--mu=-1"],
    ["visibility-curve", "--mu-range", "-1:1:3"],
    ["--", *_CAR_MU],
    ["--version"],
    ["--help"],
    ["--version", *_CAR_MU],
    ["no-such-command"],
    ["-x"],
    [],
]


def test_the_direct_parse_matches_the_two_level_parse(tmp_path, monkeypatch):
    # main() hands argv after a subcommand straight to that subcommand's
    # parser; the whole tree's parse_args must give the same exit code,
    # stdout and stderr, usage and error text included
    (tmp_path / "rates.json").write_text(json.dumps(_RATES))
    corpus = [[a.format(tmp=tmp_path) for a in argv] for argv in _PARSE_CORPUS]
    direct = [_capture(argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parse", lambda argv: _build_parser().parse_args(argv))
    two_level = [_capture(argv) for argv in corpus]
    for argv, got, want in zip(corpus, direct, two_level):
        assert got == want, argv
    assert {code for code, _, _ in direct} == {0, 2}
    bogus = direct[_PARSE_CORPUS.index([*_CAR_MU, "--bogus"])]
    assert bogus[0] == 2 and bogus[2].startswith("usage: biphoton [-h]")
    assert "biphoton: error: unrecognized arguments: --bogus" in bogus[2]


# documents of every value kind json.dumps takes, well beyond what the CLI prints
_JSON_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\n\t\x7f", "é ü", "\u2028", "\U0001f600", "\ud800"])
_JSON_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308 / 3])
_JSON_INTS = st.integers(-2**70, 2**70) | st.sampled_from([2**63, -2**63 - 1, 10**40])
_JSON_DOCS = st.recursive(
    _JSON_TEXT | _JSON_FLOATS | _JSON_INTS | st.booleans() | st.none(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400)
@given(_JSON_DOCS)
@example({})
@example([])
@example(())
@example({"": [[], {}, ()], "a": {"b": [[1.5, -0.0], ["x"]]}, "\u00e9": None})
def test_the_json_writer_gives_the_bytes_of_json_dumps_with_indent_2(doc):
    assert cli._json(doc, "") == json.dumps(doc, indent=2)


@pytest.mark.parametrize("argv", [
    ["density-matrix", "--source", "dis-entangled", "--mu", "0.3"],  # --method closed
    ["density-matrix", "--source", "indis-entangled", "--mu", "0.3", "--method", "exact",
     "--dark-s", "1e-4"],
    ["density-matrix", "--source", "indis-entangled", "--mu", "0.3", "--method", "closed-rho"],
    ["density-matrix", "--from-r", "{tmp}/rates.json"],
    ["visibility-curve", "--mu-range", "0:1:4", "--format", "json"],
    ["concurrence-curve", "--mu-range", "0:1:4", "--format", "json"],
    ["car", "--source", "thermal-correlated", "--mu-range", "0.1:1:4", "--format", "json"],
    ["timebin", "--source", "indis-entangled", "--port", "aplus", "--mu-range", "0.1:1:4",
     "--format", "json"],
    ["optimize-mu", "--source", "dis-entangled", "--mu-range", "1e-3:1:9:log", "--format", "json"],
    ["validate", "--format", "json"],
    ["validate", "--trials", "1000", "--format", "json"],
])
def test_every_json_output_is_laid_out_as_json_dumps_with_indent_2(argv, tmp_path):
    (tmp_path / "rates.json").write_text(json.dumps(_RATES))
    code, out, err = _capture([a.format(tmp=tmp_path) for a in argv])
    assert code == 0 and not err, err
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert ("summary" in doc) == (argv[0] == "validate")


_TB = ["--source", "indis-entangled", "--mu-range", "0.1:1:4"]
# (subcommand, mode) -> the argv after the subcommand, for every mode that
# prints a CSV table: density-matrix prints JSON only
_CSV_MODES = {
    ("visibility-curve", ""): ["--mu-range", "0:1:4", "--dark-s", "1e-4"],
    ("concurrence-curve", ""): ["--mu-range", "0:1:4"],
    ("car", "--method closed"): ["--source", "dis-correlated", "--method", "closed",
                                 "--mu-range", "0:1:4"],
    ("car", "--method exact"): ["--source", "thermal-correlated", "--mu-range", "0.1:1:4"],
    ("timebin", "--method closed"): [*_TB, "--method", "closed"],
    ("timebin", "--method exact --port aa"): [*_TB, "--port", "aa"],
    ("timebin", "--method exact --port ab"): [*_TB, "--port", "ab"],
    ("timebin", "--method exact --port aplus"): [*_TB, "--port", "aplus"],
    ("optimize-mu", ""): ["--source", "dis-entangled", "--mu-range", "1e-3:1:9:log"],
    ("validate", "without --trials"): [],
    ("validate", "with --trials"): ["--trials", "1000"],
}


def test_the_csv_cases_cover_every_table_mode():
    assert set(_CSV_MODES) == {(command, mode) for command, spec in cli._COMMANDS.items()
                               if command != "density-matrix" for mode in spec.modes}


@pytest.mark.parametrize("command, mode", list(_CSV_MODES))
def test_every_csv_table_reads_back_as_its_comma_split(command, mode):
    # rows are joined by commas and never quoted, which is exact CSV only
    # while no field holds a comma, a double quote or a line break
    out = _stdout([command, *_CSV_MODES[command, mode]])
    lines = out.split("\n")
    assert lines.pop() == "" and all(lines)
    comments = [ln for ln in lines if ln.startswith("#")]
    table = lines[len(comments):]
    assert comments and table, out
    assert list(csv.reader(table)) == [ln.split(",") for ln in table]
    assert {len(ln.split(",")) for ln in table} == {len(table[0].split(","))}


@settings(max_examples=1000)
@given(_JSON_FLOATS)
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
def test_fmt_writes_a_float_as_format_17g(v):
    assert cli._fmt(v) == format(v, ".17g")
    assert cli._fmt(np.float64(v)) == format(np.float64(v), ".17g")


# stdout digests of sweeps up to mu = 5, recorded before the series kept
# its kernel tables across mu; a faster series must print the same bytes
_SWEEP_DETS = ["--alpha-s", "0.3", "--alpha-i", "0.2", "--dark-s", "1e-4", "--dark-i", "2e-4"]
_FROZEN_SWEEPS = {
    "visibility-curve": "fc9c7f583ba271b427d8c4e2d24040b516e8215ca237239fb6a6bef654d5a945",
    "timebin": "7ced1535c915c0a95a327eea269d503715957512e957a3d0224f37dea90cfaa1",
    "car": "b27348ebe8aa7c9f11e6c068dbc505e1dd35aa8bd68ae3719c164fcd539580d5",
    "density-matrix": "39809df45ea74e9a67b5b7e81233444cfecacb80b5fbf9707daa4a5d8a148144",
}


def _stdout(argv: list[str]) -> str:
    code, out, err = _capture(argv)
    assert code == 0 and not err, (argv, err)
    return out


def _sweep_digests() -> dict:
    sweeps = {
        "visibility-curve": ["visibility-curve", "--mu-range", "0.01:5:12:log"],
        "timebin": ["timebin", "--source", "indis-entangled", "--port", "aplus",
                    "--mu-range", "0.01:5:12:log"],
        # ends at mu = 3, where the thermal series stops at x = 96, so the
        # digest also holds under a --cap of 100
        "car": ["car", "--source", "thermal-correlated", "--mu-range", "0.01:3:12:log"],
    }
    outputs = {name: _stdout([*argv, *_SWEEP_DETS]) for name, argv in sweeps.items()}
    digests = {name: hashlib.sha256(out.encode()).hexdigest() for name, out in outputs.items()}
    # density-matrix prints a state from LAPACK, whose last bits depend on
    # the BLAS kernel picked for the CPU: pin the configuration it echoes
    # and the exact-series rates it reconstructs from, and check that it
    # prints the reconstruction of exactly those rates
    mus = [float(row[0]) for row in _rows(outputs["visibility-curve"])[1]]
    digest = hashlib.sha256()
    for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED):
        for mu in mus:
            doc = json.loads(_stdout(["density-matrix", "--source", kind.value,
                                      "--method", "exact", "--mu", repr(mu), *_SWEEP_DETS]))
            vec = assemble_r(kind, mu, 0.3, 0.2, 1e-4, 2e-4, TruncationPolicy(1e-12, 100),
                             RateMethod.EXACT_SERIES)
            rho = reconstruct(vec)
            assert doc["density_matrix"] == rho.to_json_dict(), (kind, mu)
            assert doc["concurrence"] == concurrence(rho), (kind, mu)
            digest.update((json.dumps(doc["config"]) + repr(vec.r)).encode())
    digests["density-matrix"] = digest.hexdigest()
    return digests


def test_sweep_outputs_are_frozen():
    assert _sweep_digests() == _FROZEN_SWEEPS


# stdout digests of `biphoton validate` (CSV, no --trials) per H+ model,
# recorded before the enumeration kept its per-x tables across mu: they
# pin every `oracle` value, not only the H+ cells, bit for bit
_FROZEN_VALIDATE = {
    "coherent": "f5cb894d550c6d10b7a0477c7312ae40f57e1264d5e98966f460154d9fb133f7",
    "independent": "ab6475b465d100b76fc5f0cfcb95117eb33d1b53135926cc620cc27af9bd9b04",
}


def test_validate_output_is_frozen():
    digests = {model: hashlib.sha256(_stdout(["validate", "--hplus-model", model]).encode())
               .hexdigest() for model in _FROZEN_VALIDATE}
    assert digests == _FROZEN_VALIDATE


_DIS, _INDIS = SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED


def _timebin_row(port: str, model: str):
    return lambda kind, mu, det, policy: [timebin_rate(
        kind, TimebinPort(port), mu, *det, RateMethod.EXACT_SERIES, policy, HplusModel(model)).value]


def _car_row(kind: SourceKind):
    return lambda _, mu, det, policy: [*car(PairSource(kind, mu), *det, policy)]


# an exact sweep -> (its argv without kind and grid, whether it takes an
# entangled --source, the columns of a row that the scalar calls give, from
# (kind, mu, (alpha_s, alpha_i, dark_s, dark_i), policy))
_EXACT_SWEEPS = {
    "visibility-curve": (["visibility-curve"], False, lambda kind, mu, det, policy: [
        visibility_exact(PairSource(k, mu), *det, policy).visibility for k in (_DIS, _INDIS)]),
    "timebin aa": (["timebin", "--port", "aa"], True, _timebin_row("aa", "coherent")),
    "timebin ab": (["timebin", "--port", "ab"], True, _timebin_row("ab", "coherent")),
    "timebin aplus coherent": (["timebin", "--port", "aplus"], True,
                               _timebin_row("aplus", "coherent")),
    "timebin aplus independent": (["timebin", "--port", "aplus", "--hplus-model", "independent"],
                                  True, _timebin_row("aplus", "independent")),
    "car dis-correlated": (["car", "--source", "dis-correlated"], False,
                           _car_row(SourceKind.DIS_CORRELATED)),
    "car thermal-correlated": (["car", "--source", "thermal-correlated"], False,
                               _car_row(SourceKind.THERMAL_CORRELATED)),
}


@pytest.mark.parametrize("name", list(_EXACT_SWEEPS))
@settings(max_examples=40)
@given(kind=st.sampled_from([_DIS, _INDIS]), lo=st.floats(0.0, 1.0), width=st.floats(1e-3, 1.0),
       n=st.integers(2, 5), log=st.booleans(), alphas=st.tuples(*[st.floats(0.0, 1.0)] * 2),
       darks=st.tuples(*[st.floats(0.0, 0.05)] * 2))
def test_every_exact_sweep_row_is_the_scalar_call_at_its_mu(name, kind, lo, width, n, log, alphas,
                                                            darks):
    argv, entangled, scalar = _EXACT_SWEEPS[name]
    grid = f"{lo!r}:{lo + width!r}:{n}" + (":log" if log and lo > 0 else "")
    det = (*alphas, *darks)
    flags = [f"--{arm}={v!r}" for arm, v in zip(("alpha-s", "alpha-i", "dark-s", "dark-i"), det)]
    source = ["--source", kind.value] if entangled else []
    rows = _rows(_stdout([*argv, *source, "--mu-range", grid, *flags]))[1]
    assert len(rows) == n
    for row in rows:
        mu = float(row[0])
        want = scalar(kind, mu, det, TruncationPolicy())
        # the exact columns, bit for bit: 17 digits give back each float
        assert [float(v).hex() for v in row[1: 1 + len(want)]] == [v.hex() for v in want], (mu, row)


# a refused input of an exact sweep, and the rule that names it
_REFUSED = {
    "--alpha-i 1.5": (["--alpha-i", "1.5"], "alpha must lie in [0, 1], got 1.5"),
    "--dark-s nan": (["--dark-s", "nan"], "dark must lie in [0, 1), got nan"),
    # the mu = 0 row is valid: a sweep that computed row by row would sum it
    "--mu-range 0:inf:3": (["--mu-range", "0:inf:3"], "mu must be finite and >= 0, got inf"),
}


@pytest.mark.parametrize("name", list(_EXACT_SWEEPS))
@pytest.mark.parametrize("refused", list(_REFUSED))
def test_a_refused_sweep_input_computes_no_rate(monkeypatch, name, refused):
    argv, entangled, _ = _EXACT_SWEEPS[name]
    argv = [*argv, *(["--source", "indis-entangled"] if entangled else [])]
    calls = []
    exact_rates = polarization._exact_rates
    monkeypatch.setattr(polarization, "_exact_rates",
                        lambda *a: calls.append(a) or exact_rates(*a))
    # the spy sees every row of a valid sweep: one call per mu and kind
    _stdout([*argv, "--mu-range", "0:1:3"])
    assert len(calls) == (6 if name == "visibility-curve" else 3)
    calls.clear()
    flags, rule = _REFUSED[refused]
    grid = [] if flags[0] == "--mu-range" else ["--mu-range", "0:1:3"]
    code, out, err = _capture([*argv, *grid, *flags])
    assert code == 2 and out == "", (code, out)
    assert rule in err, err
    assert calls == []


# of a refused mu and a refused arm, which one is named: an exact rate checks
# both arms before any mu; a closed-form row and a visibility-curve --mu row,
# the public scalar call, check the mu first
@pytest.mark.parametrize("argv, rule", [
    (["density-matrix", "--source", "dis-entangled", "--method", "exact", "--mu", "-1"],
     "alpha must lie in [0, 1]"),
    (["density-matrix", "--source", "dis-entangled", "--method", "closed", "--mu", "-1"],
     "mu must be finite and >= 0"),
    (["car", "--source", "dis-correlated", "--mu", "-1"], "alpha must lie in [0, 1]"),
    (["car", "--source", "dis-correlated", "--mu-range", "-1:1:3"], "alpha must lie in [0, 1]"),
    (["timebin", "--source", "dis-entangled", "--mu", "-1"], "alpha must lie in [0, 1]"),
    (["visibility-curve", "--mu-range", "-1:1:3"], "alpha must lie in [0, 1]"),
    (["visibility-curve", "--mu", "-1"], "mu must be finite and >= 0"),
    (["car", "--source", "dis-correlated", "--method", "closed", "--mu", "-1"],
     "mu must be finite and >= 0"),
    (["timebin", "--source", "dis-entangled", "--method", "closed", "--mu", "-1"],
     "alpha must lie in [0, 1]"),
])
def test_which_of_a_refused_mu_and_arm_is_named(argv, rule):
    code, out, err = _capture([*argv, "--alpha-s", "2"])
    assert code == 2 and out == "", (code, out)
    assert rule in err, err


_MU = ["--mu", "0.3"]
_DARKS = ["--dark-s", "1e-3", "--dark-i", "1e-3"]
_OUT = "{tmp}/out.txt"


def _detector_cases(base: list[str]) -> dict:
    return {"--alpha-s": (base, "0.5"), "--alpha-i": (base, "0.5"),
            "--dark-s": (base, "1e-3"), "--dark-i": (base, "1e-3")}


def _output_cases(base: list[str], other_format: str = "json") -> dict:
    return {"--format": (base, other_format), "--out": (base, _OUT)}


# subcommand -> option -> (base argv, another valid value).  The base
# leaves an optional option out, so it runs at the default; a required
# option is in the base, and the other value replaces it.
_TIMEBIN = ["--source", "indis-entangled", "--port", "aplus", "--method", "exact", *_MU]
_DM_EXACT = ["--source", "indis-entangled", "--method", "exact", *_MU]
_CAR = ["--source", "dis-correlated", *_MU]
# without darks the visibility optimum sits at the bracket's low end
_OPT_BRACKET = ["--source", "dis-entangled", "--mu-range", "1e-5:1:65:log"]
_OPT = _OPT_BRACKET + ["--dark-s", "1e-5", "--dark-i", "1e-5"]
_OPTION_CASES = {
    "visibility-curve": {
        "--mu": ([], "0.3"),
        "--mu-range": ([], "0.1:0.3:3"),
        **_detector_cases(_MU),
        "--tail-eps": (_MU, "1e-3"),
        "--cap": (_MU, "3"),
        **_output_cases(_MU),
    },
    "concurrence-curve": {
        "--mu": ([], "0.3"),
        "--mu-range": ([], "0.1:0.3:3"),
        # without darks alpha cancels from the closed-form rate ratios
        **_detector_cases(_MU + _DARKS),
        "--dark-s": (_MU, "1e-3"),
        "--dark-i": (_MU, "1e-3"),
        **_output_cases(_MU),
    },
    "density-matrix": {
        "--source": (_MU, "dis-entangled"),
        "--mu": (["--source", "dis-entangled"], "0.3"),
        "--method": (["--source", "dis-entangled", *_MU], "exact"),
        "--from-r": (["--source", "dis-entangled", *_MU], "{tmp}/rates.json"),
        **_detector_cases(_DM_EXACT),
        "--tail-eps": (_DM_EXACT, "1e-3"),
        "--cap": (_DM_EXACT, "3"),
        "--hplus-model": (_DM_EXACT, "independent"),
        **_output_cases(_DM_EXACT, other_format="csv"),
    },
    "car": {
        "--source": (_CAR, "thermal-correlated"),
        "--mu": (["--source", "dis-correlated"], "0.3"),
        "--mu-range": (["--source", "dis-correlated"], "0.1:0.3:3"),
        "--method": (_CAR, "closed"),
        **_detector_cases(_CAR),
        "--tail-eps": (_CAR, "1e-3"),
        "--cap": (_CAR, "3"),
        **_output_cases(_CAR),
    },
    "timebin": {
        "--source": (_TIMEBIN, "dis-entangled"),
        "--mu": (["--source", "dis-entangled"], "0.3"),
        "--mu-range": (["--source", "dis-entangled"], "0.1:0.3:3"),
        "--port": (["--source", "dis-entangled", *_MU], "ab"),
        "--method": (["--source", "dis-entangled", *_MU], "closed"),
        **_detector_cases(_TIMEBIN),
        "--tail-eps": (_TIMEBIN, "1e-3"),
        "--cap": (_TIMEBIN, "3"),
        "--hplus-model": (_TIMEBIN, "independent"),
        **_output_cases(_TIMEBIN),
    },
    "optimize-mu": {
        "--source": (_OPT, "indis-entangled"),
        "--mu-range": (_OPT, "1e-3:0.5:33:log"),
        "--objective": (_OPT, "max-concurrence"),
        **_detector_cases(_OPT),
        "--dark-s": (_OPT_BRACKET, "1e-5"),
        "--dark-i": (_OPT_BRACKET, "1e-5"),
        **_output_cases(_OPT),
    },
    "validate": {
        "--trials": ([], "50"),
        "--seed": (["--trials", "50"], "2"),
        "--hplus-model": ([], "independent"),
        **_output_cases([]),
    },
}


def _sweep_mode(selector: list[str], other_source: str, more: dict) -> tuple:
    """A mode of car or timebin: the argv that selects it, and its cases
    of the options every such mode reads plus ``more`` (flag -> value)."""
    base = [*selector, *_MU]
    return base, {
        "--source": (base, other_source),
        "--mu": (selector, "0.3"),
        "--mu-range": (selector, "0.1:0.3:3"),
        **_detector_cases(base),
        **_output_cases(base),
        **{flag: (base, other) for flag, other in more.items()},
    }


# the modes _OPTION_CASES leaves out: subcommand -> [(argv that selects
# the mode, option the mode reads -> (base argv, another valid value))].
# A mode refuses each other option its subcommand declares: set to its
# _OPTION_CASES value, it exits 2 and names the option.
_FROM_R = ["--from-r", "{tmp}/rates.json"]
_DM = ["--source", "dis-entangled", *_MU]
_DM_RHO = [*_DM, "--method", "closed-rho"]
_SERIES_CASES = {"--tail-eps": "1e-3", "--cap": "3"}
_MODE_CASES = {
    "density-matrix": [
        (_FROM_R, {"--from-r": (_FROM_R, "{tmp}/other.json"),
                   **_output_cases(_FROM_R, other_format="csv")}),
        (_DM_RHO, {"--source": (_DM_RHO, "indis-entangled"),
                   "--mu": (["--source", "dis-entangled", "--method", "closed-rho"], "0.3"),
                   "--method": (_DM_RHO, "exact"),
                   **_output_cases(_DM_RHO, other_format="csv")}),
        (_DM, {"--source": (_DM, "indis-entangled"),
               "--mu": (["--source", "dis-entangled"], "0.3"),
               "--method": (_DM, "closed-rho"),
               # without darks alpha cancels from the closed-form rate ratios
               **_detector_cases(_DM + _DARKS),
               "--dark-s": (_DM, "1e-3"),
               "--dark-i": (_DM, "1e-3"),
               **_output_cases(_DM, other_format="csv")}),
    ],
    "car": [
        _sweep_mode(["--source", "dis-correlated", "--method", "closed"], "thermal-correlated",
                    {"--method": "exact"}),
    ],
    "timebin": [
        _sweep_mode(["--source", "dis-entangled", "--method", "closed"], "indis-entangled",
                    {"--port": "ab", "--method": "exact"}),
        _sweep_mode(["--source", "dis-entangled"], "indis-entangled",
                    {"--port": "ab", "--method": "closed", **_SERIES_CASES}),
        _sweep_mode(["--source", "dis-entangled", "--port", "ab"], "indis-entangled",
                    {"--port": "aa", "--method": "closed", **_SERIES_CASES}),
    ],
    "validate": [
        ([], {"--trials": ([], "50"), "--hplus-model": ([], "independent"),
              **_output_cases([])}),
    ],
}


def _result(argv: list[str]):
    """Exit code and stdout with the echoed configuration left out."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if text.startswith("{"):
        doc = json.loads(text)
        del doc["config"]
        return code, doc
    return code, [ln for ln in text.splitlines() if not ln.startswith("#")]


def test_every_cli_option_is_read(tmp_path):
    # an option a mode reads and echoes must change what it prints or
    # how it exits; an option it does not read is refused, or it would be
    # a silently ignored parameter
    (tmp_path / "rates.json").write_text(json.dumps({"r": [0.5, 0.2] + [0.25] * 14}))
    (tmp_path / "other.json").write_text(json.dumps({"r": [0.4, 0.3] + [0.25] * 14}))
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == set(_OPTION_CASES)
    results = {}

    def run(argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        if tuple(argv) not in results:
            results[tuple(argv)] = _result(argv)
        return results[tuple(argv)]

    def refused(argv, flag):
        err = _capture([a.format(tmp=tmp_path) for a in argv])[2]
        return flag in err.partition("does not read")[2].replace(",", " ").split()

    for name, sub in subparsers.choices.items():
        options = {a.option_strings[-1]: a for a in sub._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
        assert set(options) == set(_OPTION_CASES[name]), name
        for flag, (base, other) in _OPTION_CASES[name].items():
            assert (flag in base) == options[flag].required, (name, flag)
            default = run([name, *base])
            assert run([name, *base, flag, other]) != default, (name, flag)
            assert not refused([name, *base, flag, other], flag), (name, flag)
            # no prefix matching: an abbreviated flag is an error
            assert run([name, *base, flag[:-1], other])[0] == 2, (name, flag)
        for selector, cases in _MODE_CASES.get(name, []):
            assert run([name, *selector])[0] == 0, (name, selector)
            assert set(cases) < set(options), (name, selector)
            for flag, (base, other) in cases.items():
                assert run([name, *base, flag, other]) != run([name, *base]), (name, selector, flag)
                assert not refused([name, *base, flag, other], flag), (name, selector, flag)
            for flag in set(options) - set(cases):
                argv = [name, *selector, flag, _OPTION_CASES[name][flag][1]]
                code, out, err = _capture([a.format(tmp=tmp_path) for a in argv])
                assert code == 2 and not out and flag in err, (argv, err)
