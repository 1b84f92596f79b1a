"""Scenario parsing, report emission, verification summaries, CLI contract."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from symquant import (
    LocalizationWarning,
    Scenario,
    ScenarioError,
    default_scenario,
    report_to_csv,
    report_to_json,
    run_checks,
    run_scenario,
    scenario_from_dict,
)
from symquant.cli import main
from symquant.lab import CSV_HEADER, emit_report


def _small_scenario(**overrides) -> Scenario:
    raw = default_scenario().to_dict()
    raw["schemes"] = [0, 1]
    raw["observables"] = ["x"]
    raw["grid"] = {"L": 8.0, "N": 64}
    raw["checks"] = {"pairs": True, "flow": True, "commutators": True,
                     "uncertainties": False, "unitary": False}
    raw.update(overrides)
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# scenario parsing and validation
# ---------------------------------------------------------------------------

def test_default_scenario_roundtrip():
    scn = default_scenario()
    assert scenario_from_dict(scn.to_dict()) == scn


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.pop("m"), "m"),
    (lambda d: d.update(m=-1.0), "m"),
    (lambda d: d["packet"].update(sigma=0.0), "packet.sigma"),
    (lambda d: d["packet"].update(center=[1.0]), "packet.center"),
    (lambda d: d.update(schemes=[]), "schemes"),
    (lambda d: d.update(schemes=[5]), "schemes[0]"),
    (lambda d: d.update(observables=["z"]), "observables[0]"),
    (lambda d: d.update(times=[]), "times"),
    (lambda d: d["grid"].update(N=17), "grid.N"),
    (lambda d: d["grid"].update(L=-2.0), "grid.L"),
    (lambda d: d.update(typo=True), "typo"),
    (lambda d: d["checks"].update(pairs="yes"), "checks.pairs"),
])
def test_config_errors_name_the_offending_key(mutate, path):
    raw = default_scenario().to_dict()
    mutate(raw)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert str(err.value).startswith(path)


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

def test_default_scenario_exhibits_inequivalence():
    report = run_scenario(default_scenario())
    means = {(c.scheme, c.observable, round(c.time, 12)): c.mean.real
             for c in report.cells}
    for t in default_scenario().times:
        key = round(t, 12)
        gap = means[(0, "x", key)] - means[(1, "x", key)]
        assert gap == pytest.approx(math.sin(t), abs=1e-9)


def test_symmetric_packet_blinds_the_crossed_scheme():
    scn = _small_scenario(packet={"center": [0.7, 0.7],
                                  "wavevector": [0.9, 0.9], "sigma": 0.75})
    report = run_scenario(scn)
    means = {(c.scheme, round(c.time, 12)): c.mean.real for c in report.cells}
    for t in scn.times:
        key = round(t, 12)
        assert abs(means[(0, key)] - means[(1, key)]) <= 1e-9


def test_time_zero_row_is_the_packet_center():
    report = run_scenario(default_scenario())
    for cell in report.cells:
        if cell.time == 0.0 and cell.observable == "x":
            assert cell.mean.real == pytest.approx(1.0, abs=1e-9)


def test_report_contains_every_requested_cell():
    scn = _small_scenario()
    report = run_scenario(scn)
    assert len(report.cells) == len(scn.schemes) * len(scn.observables) * len(scn.times)
    assert len(report.pair_residuals) == 4
    assert all(u.satisfied for u in report.uncertainties)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_csv_header_and_cardinality():
    scn = _small_scenario()
    csv_text = report_to_csv(run_scenario(scn))
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "scheme,observable,time,mean_re,mean_im,variance"
    assert len(lines) - 1 == 2 * 1 * 3


def test_json_roundtrip_is_structural_identity():
    report = run_scenario(_small_scenario())
    text = report_to_json(report, include_timestamp=False)
    assert json.loads(text) == report.to_dict(include_timestamp=False)


def test_csv_and_json_decimal_strings_agree():
    report = run_scenario(_small_scenario())
    parsed = json.loads(report_to_json(report, include_timestamp=False))
    csv_rows = report_to_csv(report).strip().split("\n")[1:]
    assert len(parsed["cells"]) == len(csv_rows)
    for cell, row in zip(parsed["cells"], csv_rows):
        fields = row.split(",")
        assert fields[0] == str(cell["scheme"])
        assert fields[1] == cell["observable"]
        for field, key in zip(fields[2:], ("time", "mean_re", "mean_im", "variance")):
            assert field == repr(cell[key])


def test_json_reports_are_byte_identical():
    scn = default_scenario()
    first = report_to_json(run_scenario(scn), include_timestamp=False)
    second = report_to_json(run_scenario(scn), include_timestamp=False)
    assert first == second


def test_timestamp_is_present_unless_suppressed():
    report = run_scenario(_small_scenario())
    with_ts = json.loads(report_to_json(report, include_timestamp=True))
    without = json.loads(report_to_json(report, include_timestamp=False))
    assert "timestamp" in with_ts["metadata"]
    assert "timestamp" not in without["metadata"]


def test_emit_report_failure_names_the_path(tmp_path):
    report = run_scenario(_small_scenario())
    bad = tmp_path / "missing" / "out.json"
    with pytest.raises(OSError, match=str(bad)):
        emit_report(report, "json", str(bad))


# ---------------------------------------------------------------------------
# run_checks
# ---------------------------------------------------------------------------

def test_checks_pass_on_small_scenario():
    summary = run_checks(_small_scenario())
    by_name = {r.name: r for r in summary.results}
    assert by_name["pairs"].status == "pass"
    assert by_name["flow"].status == "pass"
    assert by_name["commutators"].status == "pass"
    assert by_name["uncertainties"].status == "skipped"
    assert by_name["unitary"].status == "skipped"
    assert summary.exit_code == 0


def test_corrupted_form_fails_the_pair_check():
    summary = run_checks(_small_scenario(), corrupt_form=True)
    pairs = next(r for r in summary.results if r.name == "pairs")
    assert pairs.status == "fail"
    assert "not antisymmetric" in pairs.detail
    assert summary.exit_code == 1


def test_coarse_grid_downgrades_to_warning():
    scn = _small_scenario(grid={"L": 3.0, "N": 16},
                          checks={"pairs": True, "flow": True,
                                  "commutators": True, "uncertainties": True,
                                  "unitary": False})
    with pytest.warns(LocalizationWarning):
        summary = run_checks(scn)
    by_name = {r.name: r for r in summary.results}
    assert by_name["commutators"].status == "warn"
    assert by_name["uncertainties"].status == "warn"
    assert summary.exit_code == 0


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

def test_cli_init_roundtrips(tmp_path):
    out = tmp_path / "scenario.json"
    assert main(["init", "--out", str(out)]) == 0
    with open(out, "r", encoding="utf-8") as handle:
        assert scenario_from_dict(json.load(handle)) == default_scenario()


def test_cli_run_is_deterministic(tmp_path, capsys):
    scn_path = tmp_path / "scn.json"
    main(["init", "--out", str(scn_path)])
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["metadata"].get("timestamp") is None


def test_cli_run_csv_header(capsys):
    assert main(["run", "--format", "csv", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[0] == "scheme,observable,time,mean_re,mean_im,variance"


def test_cli_grid_overrides(tmp_path, capsys):
    scn_path = tmp_path / "scn.json"
    main(["init", "--out", str(scn_path)])
    assert main(["run", "--scenario", str(scn_path), "--grid-n", "64",
                 "--grid-l", "7.5", "--no-timestamp"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert meta["grid"] == {"L": 7.5, "N": 64}


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": -1}')
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--grid-n", "17"]) == 2
    assert main(["run", "--scenario", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("half_width", ["1e-300", "1e300"])
def test_cli_extreme_grid_width_is_a_config_error(command, half_width, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        assert main([command, "--grid-l", half_width]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: grid.L: cannot sample a packet")


@pytest.mark.parametrize("grid_args", [["--grid-l", "1e150"],
                                       ["--grid-l", "40", "--grid-n", "16"]])
def test_cli_run_rejects_an_unresolved_packet(grid_args, capsys):
    # grid spacing 1.6e148 and 5 against sigma 0.71: the run would report
    # <x>(0) = 0 and 1.5e-6 for a packet centred at x = 1
    assert main(["run", "--no-timestamp", *grid_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: grid: spacing")


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_infinite_grid_width_is_a_config_error(command, capsys):
    assert main([command, "--grid-l", "inf"]) == 2
    assert "config error: grid: half_width must be positive and finite" in capsys.readouterr().err


def test_cli_check_exit_codes(tmp_path, capsys):
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(_small_scenario().to_dict()))
    assert main(["check", "--scenario", str(scn_path)]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert main(["check", "--scenario", str(scn_path), "--corrupt-form"]) == 1
    assert "overall: fail" in capsys.readouterr().out


def test_cli_pairs_output(capsys):
    assert main(["pairs"]) == 0
    out = capsys.readouterr().out
    assert "dimension 4" in out
    assert "scheme 3" in out
    assert "bounded-below" in out


def test_cli_io_error_exit_code(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "no" / "dir.json")]) == 1
    assert "cannot write report" in capsys.readouterr().err


def test_module_invocation_subprocess(tmp_path):
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(_small_scenario().to_dict()))
    proc = subprocess.run(
        [sys.executable, "-m", "symquant", "check", "--scenario", str(scn_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout
