"""Scenario parsing, report emission, verification summaries, CLI contract."""

import ast
import hashlib
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symquant import (
    GaussianPacket,
    GridSpec,
    HamiltonianPair,
    LocalizationWarning,
    OperatorExpr,
    PhysParams,
    PolynomialObservable,
    Scenario,
    ScenarioError,
    SymplecticForm,
    default_scenario,
    report_to_csv,
    report_to_json,
    run_checks,
    run_scenario,
    scenario_from_dict,
    standard_pairs,
)
from symquant import lab, quantum
from symquant.cli import main
from symquant.lab import CSV_HEADER, emit_report
from symquant.quantum import CANONICAL_PAIRS, OBSERVABLES, SCHEME_IDS
import oracles


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


_HUGE = 10 ** 400  # a JSON integer past the float range


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
    (lambda d: d.update(m=_HUGE), "m: must be finite"),
    (lambda d: d.update(omega=_HUGE), "omega: must be finite"),
    (lambda d: d.update(hbar=-_HUGE), "hbar: must be finite"),
    (lambda d: d["packet"].update(center=[_HUGE, 0.0]), "packet.center[0]: must be finite"),
    (lambda d: d["packet"].update(wavevector=[1.0, -_HUGE]),
     "packet.wavevector[1]: must be finite"),
    (lambda d: d["packet"].update(sigma=_HUGE), "packet.sigma: must be finite"),
    (lambda d: d.update(times=[0.0, _HUGE]), "times[1]: must be finite"),
    (lambda d: d["grid"].update(L=_HUGE), "grid.L: must be finite"),
])
def test_config_errors_name_the_offending_key(mutate, path):
    raw = default_scenario().to_dict()
    mutate(raw)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert str(err.value).startswith(path)


# any JSON value: nested lists and objects, integers past the float range,
# nan and infinities, strings, booleans and null
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)
_scenario_keys = st.sampled_from([(key,) for key in default_scenario().to_dict()]
                                 + [("packet", key) for key in ("center", "wavevector", "sigma")]
                                 + [("grid", key) for key in ("L", "N")])


@given(key=_scenario_keys, value=_json_values)
@settings(max_examples=300, deadline=None)
def test_parser_returns_a_scenario_or_raises_a_scenario_error(key, value):
    raw = default_scenario().to_dict()
    *parents, leaf = key
    target = raw
    for parent in parents:
        target = target[parent]
    target[leaf] = value
    try:
        assert isinstance(scenario_from_dict(raw), Scenario)
    except ScenarioError:
        pass


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

def test_default_scenario_exhibits_inequivalence():
    cells, _ = oracles.flatten_report(run_scenario(default_scenario()))
    means = {(c.scheme, c.observable, round(c.time, 12)): c.mean_re for c in cells}
    for t in default_scenario().times:
        key = round(t, 12)
        gap = means[(0, "x", key)] - means[(1, "x", key)]
        assert gap == pytest.approx(math.sin(t), abs=1e-9)


def test_symmetric_packet_blinds_the_crossed_scheme():
    scn = _small_scenario(packet={"center": [0.7, 0.7],
                                  "wavevector": [0.9, 0.9], "sigma": 0.75})
    cells, _ = oracles.flatten_report(run_scenario(scn))
    means = {(c.scheme, round(c.time, 12)): c.mean_re for c in cells}
    for t in scn.times:
        key = round(t, 12)
        assert abs(means[(0, key)] - means[(1, key)]) <= 1e-9


def test_time_zero_row_is_the_packet_center():
    cells, _ = oracles.flatten_report(run_scenario(default_scenario()))
    for cell in cells:
        if cell.time == 0.0 and cell.observable == "x":
            assert cell.mean_re == pytest.approx(1.0, abs=1e-9)


def test_report_contains_every_requested_cell():
    scn = _small_scenario()
    report = run_scenario(scn)
    cells, rows = oracles.flatten_report(report)
    assert len(cells) == len(scn.schemes) * len(scn.observables) * len(scn.times)
    assert len(report.pair_residuals) == 4
    assert all(u.satisfied for u in rows)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_csv_header_and_cardinality():
    scn = _small_scenario()
    csv_text = report_to_csv(run_scenario(scn))
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "scheme,observable,time,mean_re,mean_im,variance"
    assert len(lines) - 1 == 2 * 1 * 3


def test_integer_times_are_written_as_floats():
    # a Scenario built in Python may carry int times; the report writes floats
    scn = replace(_small_scenario(), times=(0, 1))
    assert [type(t) for t in scn.to_dict()["times"]] == [float, float]
    text = report_to_json(run_scenario(scn), include_timestamp=False)
    assert [type(t) for t in json.loads(text)["metadata"]["times"]] == [float, float]
    assert '"time": 0.0' in text and '"time": 1.0' in text
    assert text == report_to_json(run_scenario(replace(scn, times=(0.0, 1.0))),
                                  include_timestamp=False)


def test_json_roundtrip_is_structural_identity():
    report = run_scenario(_small_scenario())
    text = report_to_json(report, include_timestamp=False)
    assert json.loads(text) == oracles.report_dict(*oracles.flatten_report(report),
                                                   report.pair_residuals, report.metadata)


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


class _FrozenClock:
    """Stands in for lab.datetime so that two timestamped emissions agree."""

    @staticmethod
    def now(tz):
        return datetime(2024, 7, 31, 12, 0, 0, 123456, tzinfo=tz)


# finite floats, with the edge cases of float.__repr__ drawn often
_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                1e308, -1e308, 1.7976931348623157e308, 1e16, 1e-5, 0.1])
_floats = st.one_of(_edge_floats, st.floats(allow_nan=False, allow_infinity=False))
_times = st.one_of(_floats, st.integers(-10**6, 10**6).map(float), st.integers(-10**6, 10**6))
_pairs = st.sampled_from([p for pairs in CANONICAL_PAIRS.values() for p in pairs])


@st.composite
def _columns(draw):
    """One scheme's columns: any times, observables, pairs and numbers."""
    times = draw(st.lists(_times, max_size=3))
    per_time = len(times)

    def column(elements):
        return draw(st.lists(elements, min_size=per_time, max_size=per_time))

    observables = draw(st.lists(st.sampled_from(OBSERVABLES), max_size=3, unique=True))
    return lab._SchemeColumns(
        scheme=draw(st.sampled_from(SCHEME_IDS)), times=times,
        cells=tuple((name, column(_floats), column(_floats), column(_floats))
                    for name in observables),
        rows=tuple((pair, draw(_floats), column(_floats), column(st.booleans()))
                   for pair in draw(st.lists(_pairs, max_size=3))))


_reports = st.builds(
    lab.Report, columns=st.lists(_columns(), max_size=3).map(tuple),
    pair_residuals=st.lists(_floats, max_size=4).map(tuple),
    metadata=st.fixed_dictionaries({"version": st.just("0.1.0"),
                                    "times": st.lists(_times, max_size=3),
                                    "params": st.fixed_dictionaries({"m": _floats})}))


@given(report=_reports, include_timestamp=st.booleans())
@settings(max_examples=200, deadline=None)
def test_json_writer_matches_json_dumps(report, include_timestamp):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "datetime", _FrozenClock)
        ours = report_to_json(report, include_timestamp=include_timestamp)
    metadata = dict(report.metadata)
    if include_timestamp:
        metadata["timestamp"] = _FrozenClock.now(timezone.utc).isoformat()
    cells, rows = oracles.flatten_report(report)
    assert ours == oracles.report_json(cells, rows, report.pair_residuals, metadata)
    assert report_to_csv(report) == oracles.report_csv(cells)


def _set_first(report, value, where):
    """The report with one number of its first column, cell or row set to value."""
    col = report.columns[0]
    (name, real, imag, var), (pair, bound, products, flags) = col.cells[0], col.rows[0]

    def first(values):
        return [value, *values[1:]]

    def column(**changes):
        return replace(report, columns=(replace(col, **changes),))

    return {
        "mean_re": lambda: column(cells=((name, first(real), imag, var),)),
        "mean_im": lambda: column(cells=((name, real, first(imag), var),)),
        "variance": lambda: column(cells=((name, real, imag, first(var)),)),
        "time": lambda: column(times=first(col.times)),
        "product": lambda: column(rows=((pair, bound, first(products), flags),)),
        "bound": lambda: column(rows=((pair, value, products, flags),)),
        "pair_residuals": lambda: replace(report, pair_residuals=(value,)),
        "metadata": lambda: replace(report, metadata={"times": [value]}),
    }[where]()


@pytest.mark.parametrize("where", ["mean_re", "mean_im", "variance", "time", "product",
                                   "bound", "pair_residuals", "metadata"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_json_writer_refuses_non_finite_numbers(value, where):
    report = _set_first(run_scenario(_small_scenario()), value, where)
    with pytest.raises(ValueError):
        report_to_json(report, include_timestamp=False)


@st.composite
def _oracle_scenarios(draw):
    """Localized, resolved packets on N = 16, 32 and 128 grids; times include
    ints and integer-valued floats; schemes and observables in any order."""
    n = draw(st.sampled_from([16, 32, 128]))
    # at N = 16 and L = 8 sigma the spacing is sigma itself and the grid ends
    # 7 sigma from the origin; a packet's boundary magnitude, relative to its
    # peak, then stays below lab._BOUNDARY_LIMIT only near the origin
    sigma = draw(st.floats(0.6, 1.2))
    half_width, reach = (8.0 * sigma, 0.05 * sigma) if n == 16 else (12.0 * sigma, 2.0 * sigma)
    offsets = st.floats(-reach, reach)
    wavenumbers = st.floats(-1.0 / sigma, 1.0 / sigma)
    positive = st.floats(0.5, 2.0)
    return replace(
        default_scenario(),
        params=PhysParams(m=draw(positive), omega=draw(positive), hbar=draw(positive)),
        packet=GaussianPacket(center=(draw(offsets), draw(offsets)),
                              wavevector=(draw(wavenumbers), draw(wavenumbers)), sigma=sigma),
        schemes=tuple(draw(st.lists(st.sampled_from(SCHEME_IDS), min_size=1, unique=True))),
        observables=tuple(draw(st.lists(st.sampled_from(OBSERVABLES), min_size=1, unique=True))),
        times=tuple(draw(st.lists(st.one_of(st.floats(-10.0, 10.0), st.integers(-5, 5),
                                            st.integers(-5, 5).map(float)),
                                  min_size=1, max_size=5))),
        grid=GridSpec(half_width=half_width, points=n))


# (scheme, time index, observable index, value) written over a computed variance
_variance_overrides = st.lists(
    st.tuples(st.sampled_from(SCHEME_IDS), st.integers(0, 4), st.integers(0, 3),
              st.sampled_from([-0.0, -1e-18, -5e-324, 0.0])), max_size=6)


@given(scn=_oracle_scenarios(), overrides=_variance_overrides)
@settings(max_examples=60, deadline=None)
def test_columnar_report_matches_the_per_cell_oracle(scn, overrides):
    # sqrt(max(float(v), 0.0)) keeps a variance of -0.0 as -0.0, which a
    # np.maximum clamp may not; the reprs compare the sign of every zero
    moments = {}
    heisenberg_moments = lab.heisenberg_moments

    def recording(schemes, psi, times):
        for s, (means, variances) in zip(schemes, heisenberg_moments(schemes, psi, times)):
            variances = variances.copy()
            for sid, k, i, value in overrides:
                if sid == s.id and k < len(times):
                    variances[k, i] = value
            moments[s.id] = (means, variances)
        return [moments[s.id] for s in schemes]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lab, "heisenberg_moments", recording)
        report = run_scenario(scn)
    cells, rows = oracles.report_rows(scn.schemes, scn.observables, scn.times, scn.params,
                                      moments)
    residuals, metadata = report.pair_residuals, report.metadata
    expected_json = oracles.report_json(cells, rows, residuals, metadata)
    expected_csv = oracles.report_csv(cells)
    assert report_to_json(report, include_timestamp=False) == expected_json
    assert report_to_csv(report) == expected_csv
    flat = oracles.flatten_report(report)
    assert flat == (cells, rows) and repr(flat) == repr((cells, rows))


def test_robertson_flags_match_the_oracle_between_the_slacks():
    # scheme 3's p_x, p_y bound is hbar m omega / 2 = 4 here, so the slack is
    # 4e-9: a product 2.5e-9 below the bound satisfies it, one 5e-9 below
    # does not, and the oracle must draw the line where the library does
    params = PhysParams(m=2.0, omega=2.0, hbar=2.0)
    s = lab.scheme(3, params)
    times = [0.0, 1.0]
    means = np.zeros((2, 4), dtype=complex)
    variances = np.array([[1.0, 1.0, 4.0 - 2.5e-9, 4.0 - 2.5e-9],
                          [1.0, 1.0, 4.0 - 5e-9, 4.0 - 5e-9]])
    columns = lab._scheme_columns(s, means, variances, times, OBSERVABLES)
    pair, bound, products, satisfied = columns.rows[1]
    assert pair == ("p_x", "p_y") and bound == 4.0
    assert bound - 4e-9 < products[0] < bound - 1e-9 and products[1] < bound - 4e-9
    assert satisfied == [True, False]
    cells, rows = oracles.report_rows((3,), OBSERVABLES, times, params, {3: (means, variances)})
    report = lab.Report((columns,), (), {})
    assert oracles.flatten_report(report) == (cells, rows)


def test_lab_imports_no_private_name_from_quantum_or_flow():
    # check runs the public functions of the library, so a private twin of
    # one of them cannot grow back beside it
    tree = ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] in ("quantum", "flow")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_quantum_forms_no_grid_sized_matrix():
    # the propagator acts on fields with FFTs and phases, so an N x N or
    # N^2 x N^2 matrix (np.eye, anything of np.linalg) stays in the test oracles
    tree = ast.parse(Path(quantum.__file__).read_text(encoding="utf-8"))
    names = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names += [alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [n for n in names if n == "np.eye" or "linalg" in n.split(".")] == []


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


def _flow_status(m: float) -> str:
    scn = _small_scenario(m=m, checks={"pairs": False, "flow": True, "commutators": False,
                                       "uncertainties": False, "unitary": False})
    return next(r for r in run_checks(scn).results if r.name == "flow").status


def test_flow_check_passes_at_small_m_omega():
    # m omega = 1e-7: W3 and the flow map carry entries of order 1e7, and the
    # roundoff of J^T L J and of S0..S2 along the flow reaches 1e-9
    assert _flow_status(1e-7) == "pass"


def test_flow_group_checks_each_form_on_one_stack_of_twenty_maps(monkeypatch):
    # one (20, 4, 4) Jacobian stack serves all four forms, each read by one
    # lower_array() call
    stacks, lowered = [], []
    verify, lower_array = lab.verify_flow_symplectic, SymplecticForm.lower_array
    monkeypatch.setattr(lab, "verify_flow_symplectic",
                        lambda form, jacobians: stacks.append(jacobians) or verify(form, jacobians))
    monkeypatch.setattr(SymplecticForm, "lower_array",
                        lambda self: lowered.append(self) or lower_array(self))
    result = lab._check_flow(default_scenario(), standard_pairs(1.0, 1.0))
    assert result.status == "pass"
    assert len(stacks) == 4 and all(stack is stacks[0] for stack in stacks)
    assert stacks[0].shape == (20, 4, 4) and len(lowered) == 4


def _reversed_momentum_block(pairs):
    # W3 with its p_x-p_y block negated: antisymmetric and invertible, but the
    # pullback of its 2-form differs by 2 cos(wt) sin(wt) at every m omega
    upper = [list(row) for row in pairs[3].form.upper]
    upper[2][3], upper[3][2] = upper[3][2], upper[2][3]
    return HamiltonianPair(SymplecticForm(upper), pairs[3].hamiltonian)


def _doubled_potential(pairs):
    # S0 with its x^2 coefficient doubled is no constant of motion
    terms = dict(pairs[0].hamiltonian.terms)
    terms[(2, 0, 0, 0)] *= 2
    return HamiltonianPair(pairs[0].form, PolynomialObservable(terms))


@pytest.mark.parametrize("m", [1.0, 1e-7])
@pytest.mark.parametrize("mutant", [_reversed_momentum_block, _doubled_potential])
def test_flow_check_fails_on_a_broken_pair(mutant, m, monkeypatch):
    def with_mutant(m, omega):
        pairs = standard_pairs(m, omega)
        return (*pairs, mutant(pairs))

    monkeypatch.setattr(lab, "standard_pairs", with_mutant)
    assert _flow_status(m) == "fail"


def test_pair_check_builds_the_standard_pairs_once(form_work):
    # the pair check computes run's pair residuals from one standard_pairs
    # call, which builds one form, the float W3; W0..W2 are module constants
    scn = _small_scenario(checks={name: name == "pairs" for name in lab.CHECK_NAMES})
    summary = run_checks(scn)
    assert [r.status for r in summary.results] == ["pass"] + ["skipped"] * 4
    assert form_work == {"invert_exact": 0, "form_init": 1}


def test_check_builds_the_standard_pairs_once(form_work):
    # the pairs and flow groups of a whole check share one standard_pairs call
    assert run_checks(default_scenario()).exit_code == 0
    assert form_work == {"invert_exact": 0, "form_init": 1}


def _w0_with_s1(m, omega):
    # W0 paired with S1 generates another flow than the oscillator's: the
    # pair certificate's residual is 1/m
    pairs = standard_pairs(m, omega)
    return (HamiltonianPair(pairs[0].form, pairs[1].hamiltonian), *pairs[1:])


def test_corrupted_form_fails_the_pair_check(monkeypatch):
    monkeypatch.setattr(lab, "standard_pairs", _w0_with_s1)
    summary = run_checks(_small_scenario())
    pairs = next(r for r in summary.results if r.name == "pairs")
    assert pairs.status == "fail"
    assert pairs.detail == "max residual 1.000e+00"
    assert summary.exit_code == 1


def test_check_applies_no_operator_expression(monkeypatch):
    # check's grid work reads the schemes' assignment rows; OperatorExpr
    # only builds the unitary group's generator, whose normal form picks the
    # closed-form propagator
    calls = []
    apply = OperatorExpr.apply
    monkeypatch.setattr(OperatorExpr, "apply",
                        lambda self, psi: calls.append(self) or apply(self, psi))
    assert run_checks(default_scenario()).exit_code == 0
    assert calls == []


def test_uncertainty_check_takes_its_verdict_from_the_report_flags(monkeypatch):
    # check builds its rows as run does; a Robertson flag turned False fails
    # the group and leaves the printed gap and margin as they were
    scn = _small_scenario(checks={name: name == "uncertainties" for name in lab.CHECK_NAMES})
    passing = next(r for r in run_checks(scn).results if r.name == "uncertainties")
    columns = lab._scheme_columns

    def violated(*args):
        col = columns(*args)
        return replace(col, rows=tuple((pair, bound, products, [False] * len(products))
                                       for pair, bound, products, _ in col.rows))

    monkeypatch.setattr(lab, "_scheme_columns", violated)
    failing = next(r for r in run_checks(scn).results if r.name == "uncertainties")
    assert (passing.status, failing.status) == ("pass", "fail")
    assert failing.detail == passing.detail


def _large_mass_uncertainties(m):
    ref = PhysParams(m, 1.0).sigma_ref
    scn = scenario_from_dict({
        **default_scenario().to_dict(), "m": m,
        "packet": {"center": [0.3 * ref, -0.2 * ref], "wavevector": [0.0, 0.0],
                   "sigma": 0.6 * ref},
        "grid": {"L": 8 * ref, "N": 128},
        "checks": {name: name == "uncertainties" for name in lab.CHECK_NAMES}})
    return next(r for r in run_checks(scn).results if r.name == "uncertainties")


def test_uncertainty_check_scales_its_bounds_at_large_m():
    # packet and grid in oscillator units: the Robertson bounds of schemes 1-3
    # are of order m, and their roundoff is no violation; the printed gap and
    # margin stay absolute.  At m = 1e7 the margin is 6.5 times the 1e-9
    # slack; at m = 1e13 the ground gap is 4900 times the 1e-6 saturation bound.
    assert _large_mass_uncertainties(1e7) == lab.CheckResult(
        "uncertainties", "pass",
        "ground saturation gap 4.657e-09, worst bound margin -6.519e-09")
    result = _large_mass_uncertainties(1e13)
    assert result.status == "pass"
    assert result.detail.startswith("ground saturation gap 4.883e-03, ")


def test_a_nan_conjugation_deviation_fails_the_unitary_group(monkeypatch):
    # max() drops a nan that is not its first argument; the group must not
    monkeypatch.setattr(lab, "conjugation_deviations", lambda s, psi, probes: [1e-7, math.nan])
    result = lab._check_unitary(default_scenario())
    assert (result.status, result.detail) == ("fail", "max conjugation deviation nan")


def test_commutator_bound_is_relative_to_the_table():
    # at hbar m omega = 1.3e5 the table's roundoff alone reaches 9.3e-8, 7e-13
    # of the table; an absolute 1e-8 bound failed the group
    params = dict(m=1e3, omega=1.3, hbar=100.0)
    ref = math.sqrt(params["hbar"] / (params["m"] * params["omega"]))
    scn = _small_scenario(**params, schemes=[0, 1, 2, 3], grid={"L": 8 * ref, "N": 64},
                          checks={name: name == "commutators" for name in lab.CHECK_NAMES})
    result = next(r for r in run_checks(scn).results if r.name == "commutators")
    assert result.status == "pass"
    assert float(result.detail.split()[-1]) > 1e-8


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


def test_cli_huge_integer_is_a_config_error(tmp_path, capsys):
    raw = default_scenario().to_dict()
    raw["m"] = _HUGE
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: m: must be finite\n"


@pytest.mark.parametrize("payload", [b'{"m": 1.0, "\xff": 2}', b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "deeply-nested"])
def test_cli_unreadable_scenario_is_a_config_error(payload, tmp_path, capsys):
    scn_path = tmp_path / "scn.json"
    scn_path.write_bytes(payload)
    assert main(["run", "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: scenario: ")


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
    # <x>(0) = 0 and 1.5e-6 for a packet centred at x = 1, and check would
    # fail its commutator and uncertainty groups on near-delta probes
    for command in (["run", "--no-timestamp"], ["check"]):
        assert main([*command, *grid_args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: grid: spacing")


@pytest.mark.parametrize("commutators, probe", [(True, "commutators"),
                                               (False, "uncertainties")])
def test_cli_check_names_the_probe_it_cannot_resolve(commutators, probe, tmp_path, capsys):
    # spacing 1 resolves the scenario's packet, sigma 1.5, but not the
    # checks' probes: the ground packet, sigma 0.707, comes first in both
    raw = default_scenario().to_dict()
    raw["packet"]["sigma"] = 1.5
    raw["grid"] = {"L": 16.0, "N": 32}
    raw["checks"] = {"commutators": commutators, "unitary": False}
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert main(["check", "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: grid: spacing 1 exceeds the {probe} check's probe sigma 0.707; "
        "the probe is not resolved"]


def test_cli_run_rejects_a_delocalized_packet(tmp_path, capsys):
    # centred at x = 7.5 on [-8, 8): the run would report <x>(0) = 7.18
    raw = default_scenario().to_dict()
    raw["packet"]["center"] = [7.5, 0.0]
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: grid: packet boundary magnitude")


def test_run_localization_gate_is_in_the_packet_units(tmp_path, capsys):
    # one centred packet on one N = 16, L = 8 sigma grid, in three units of
    # length: its edge row sits 7 sigma out, where |psi| is exp(-49/4) of its
    # peak whatever sigma is.  An absolute gate rejected it at sigma = 1 and 10.
    for sigma in (1.0, 10.0, 40.0):
        psi = GaussianPacket(sigma=sigma).sample(GridSpec(8.0 * sigma, 16))
        assert psi.boundary_magnitude() == pytest.approx(math.exp(-49.0 / 4.0), rel=1e-12)
        raw = default_scenario().to_dict()
        raw["packet"] = {"center": [0.0, 0.0], "wavevector": [0.0, 0.0], "sigma": sigma}
        raw["grid"] = {"L": 8.0 * sigma, "N": 16}
        scn_path = tmp_path / "scn.json"
        scn_path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 0, sigma
        assert capsys.readouterr().err == ""


def test_commutator_probe_is_localized_at_a_large_mass():
    # m = 1e3, omega = 2.3, hbar = 0.4 on an L = 8 sigma_ref grid is the
    # default scenario's geometry in oscillator units; the probe's boundary
    # |psi| was 1.461e-12 in absolute units, which warned
    params = dict(m=1e3, omega=2.3, hbar=0.4)
    ref = PhysParams(**params).sigma_ref
    scn = _small_scenario(**params, schemes=[0, 1, 2, 3], grid={"L": 8 * ref, "N": 128},
                          checks={name: name == "commutators" for name in lab.CHECK_NAMES})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = lab._check_commutators(scn)
    assert result.status == "pass"


def test_commutator_group_decides_its_probe_localization_once():
    # one probe serves four schemes, so a delocalized one warns once
    scn = _small_scenario(schemes=[0, 1, 2, 3], grid={"L": 3.0, "N": 16})
    with pytest.warns(LocalizationWarning) as record:
        result = lab._check_commutators(scn)
    assert result.status == "warn"
    assert len(record) == 1


def test_cli_check_rejects_a_probe_wider_than_the_grid(tmp_path, capsys):
    # at m = 1e-300 the probes' sigma is 7.07e149 on the L = 8 grid: the groups
    # reported flow: pass at a pullback deviation of 3e284, an inf commutator
    # deviation and overall: pass, with two warnings on stderr
    raw = default_scenario().to_dict()
    raw["m"] = 1e-300
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: grid: half-width 8 is below the commutators check's probe sigma "
        "7.07e+149; the probe does not fit"]
    raw["checks"] = {"commutators": False}
    scn_path.write_text(json.dumps(raw))
    assert main(["check", "--scenario", str(scn_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: grid: half-width 8 is below the uncertainties check's probe sigma")


def test_cli_run_accepts_a_small_mass(tmp_path, capsys):
    # m omega = 1e-7: the rotational form's rows differ in scale by 1e14
    raw = default_scenario().to_dict()
    raw["m"] = 1e-7
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["params"]["m"] == 1e-7


def test_cli_check_at_an_overflowing_hbar_is_a_config_error(tmp_path, capsys):
    # hbar^2 overflows, so the unitary group's generator has no finite
    # normal form; the other groups are off, they overflow on their own
    raw = default_scenario().to_dict()
    raw["hbar"] = 1e300
    raw["checks"] = {name: name == "unitary" for name in lab.CHECK_NAMES}
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["check", "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: m, omega, hbar: ")
    assert captured.err.endswith("the quantized generator's normal form is not finite\n")


@pytest.mark.parametrize("omega", [1e160, 1e300])
@pytest.mark.parametrize("command", ["check", "pairs"])
def test_cli_pairs_past_the_float_range_are_a_config_error(command, omega, tmp_path, capsys):
    # m omega^2 overflows when the standard pairs are built
    raw = default_scenario().to_dict()
    raw["omega"] = omega
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main([command, "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: m, omega: m omega^2 is past the float range\n"


@pytest.mark.parametrize("m, omega, name", [(1e-300, 1e-300, "m omega"),
                                             (1e-320, 1.0, "1/(m omega)")])
@pytest.mark.parametrize("command", ["run", "check", "pairs"])
def test_cli_m_omega_past_the_float_range_is_a_config_error(command, m, omega, name,
                                                            tmp_path, capsys):
    # m omega underflows to 0, or 1/(m omega) overflows, where the bracket
    # matrices would divide by zero or hold inf
    raw = default_scenario().to_dict()
    raw.update(m=m, omega=omega)
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main([command, "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: m, omega: {name} is past the float range\n"


@pytest.mark.parametrize("group", ["commutators", "uncertainties", "unitary"])
def test_check_gates_m_omega_whichever_groups_run(group):
    # without the pairs and flow groups no standard pair is built, and each
    # grid group would divide by m omega = 0 on its own
    raw = default_scenario().to_dict()
    raw.update(m=1e-300, omega=1e-300, checks={name: name == group for name in lab.CHECK_NAMES})
    with pytest.raises(ScenarioError, match=r"^m, omega: m omega is past the float range$"):
        run_checks(scenario_from_dict(raw))


@pytest.mark.parametrize("m", [1e-300, 1e-7, 1e3, 1e7, 1e300])
def test_unitary_check_probe_is_in_oscillator_units(m):
    # the probe scales with sigma_ref like the check's grid and times, so
    # every m prints what m = 1 prints; a probe in absolute units is aliased
    # at m = 1e-7, off the grid at m = 1e3 and zero on the grid at m = 1e7.
    # At m = 1e-300 the p_x probes' |O(t) psi|^2 underflows in absolute units.
    def unitary(m):
        raw = default_scenario().to_dict()
        raw["m"] = m
        raw["checks"] = {name: name == "unitary" for name in lab.CHECK_NAMES}
        return run_checks(scenario_from_dict(raw)).results[-1]

    assert unitary(m) == unitary(1.0)
    assert unitary(m).status == "pass"


@pytest.mark.parametrize("key, value", [("m", 1e-300), ("omega", 1e300), ("hbar", 1e300)])
def test_cli_run_with_moments_past_the_float_range_is_a_config_error(key, value, tmp_path,
                                                                     capsys):
    # the moments overflow to inf or nan; a RuntimeWarning is an error in
    # this suite, so this also shows that no numpy warning escapes
    raw = default_scenario().to_dict()
    raw[key] = value
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: m, omega, hbar: non-finite moments for scheme 0\n"


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_cli_run_with_sigma_squared_past_the_float_range_is_a_config_error(scale, tmp_path,
                                                                         capsys):
    # 4 sigma^2 overflows, where sigma ** 2 raised OverflowError, or
    # underflows to 0, where the envelope divided by 0 with a RuntimeWarning
    raw = default_scenario().to_dict()
    raw["packet"]["sigma"] = scale
    raw["grid"] = {"L": scale, "N": 16}
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: grid.L: cannot sample a packet on this grid: "
                            f"4 sigma^2 is past the float range at sigma = {scale!r}\n")


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_infinite_grid_width_is_a_config_error(command, capsys):
    assert main([command, "--grid-l", "inf"]) == 2
    assert "config error: grid: half_width must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_oversized_grid_is_a_config_error(command, capsys):
    assert main([command, "--grid-n", "1000000"]) == 2
    assert capsys.readouterr().err.startswith("config error: grid: points must be at most")


def test_scenario_with_an_oversized_grid_is_a_config_error(tmp_path, capsys):
    raw = default_scenario().to_dict()
    raw["grid"]["N"] = 1_000_000
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: grid.N: points must be at most")


def test_run_scenario_applies_each_primitive_once(monkeypatch):
    # the primitives' Gram matrix of the packet serves all four schemes
    from symquant import quantum

    calls = []
    apply_primitive = quantum._apply_primitive
    monkeypatch.setattr(quantum, "_apply_primitive",
                        lambda *args: calls.append(args[0]) or apply_primitive(*args))
    run_scenario(default_scenario())
    assert sorted(p.name for p in calls) == ["DX", "DY", "X", "Y"]


def test_float_scenarios_never_import_sympy():
    script = ("import sys\n"
              "from symquant import lab\n"
              "scenario = lab.default_scenario()\n"
              "lab.run_scenario(scenario)\n"
              "assert lab.run_checks(scenario).exit_code == 0\n"
              "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_check_exit_codes(tmp_path, capsys, monkeypatch):
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(_small_scenario().to_dict()))
    assert main(["check", "--scenario", str(scn_path)]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    monkeypatch.setattr(lab, "standard_pairs", _w0_with_s1)
    assert main(["check", "--scenario", str(scn_path)]) == 1
    out = capsys.readouterr().out
    assert "pairs: fail (max residual 1.000e+00)" in out
    assert "overall: fail" in out


def test_cli_pairs_output(capsys):
    assert main(["pairs"]) == 0
    out = capsys.readouterr().out
    assert "dimension 4" in out
    assert "scheme 3" in out
    assert "bounded-below" in out


def test_cli_pairs_builds_the_standard_pairs_once(form_work, capsys):
    # one standard_pairs call (1 form, the float W3) serves the residuals and
    # the listing; the admissible basis completes to 2 more forms
    assert main(["pairs"]) == 0
    assert form_work == {"invert_exact": 0, "form_init": 3}


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


# ---------------------------------------------------------------------------
# golden output: the default scenario's stdout is byte-identical across changes
# ---------------------------------------------------------------------------

# SHA-256 of stdout on the default scenario, recorded with numpy 2.4 and
# sympy 1.14 on x86-64; a refactor that moves any printed digit changes these
GOLDEN_STDOUT_SHA256 = {
    ("pairs",): "ced8c33f88d66a8a968f0d4a17d57ae108051f9de60a5611ca69d501e9067445",
    ("run", "--no-timestamp"):
        "734164fb87e0ebb84d1bbd53d4cbbdf090abad14f846ad38f3ad5ff955e7907f",
    ("run", "--format", "csv", "--no-timestamp"):
        "e0ce2af34f517cc2fe9b2af67543eb170527451786f756ebd4e09a33991ef03f",
    ("check",): "17d282a0af9bb9c5a7aaa6cc71310ae48531273344350435f24e4c489b276c26",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_default_scenario_stdout_is_byte_identical(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


# runs the CLI in an interpreter where importing sympy raises ImportError,
# as it does where sympy is not installed
_WITHOUT_SYMPY = (
    "import sys\n"
    "class BlockSympy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'sympy' or name.startswith('sympy.'):\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, BlockSympy())\n"
    "from symquant.cli import main\n"
    "raise SystemExit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_default_scenario_commands_need_no_sympy(argv):
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SYMPY, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def _benchmark_like_scenario(tmp_path):
    raw = default_scenario().to_dict()
    raw.update(m=1.3, omega=1.5)
    raw["packet"] = {"center": [0.3, -0.2], "wavevector": [0.5, -0.4], "sigma": 0.6}
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    return scn_path


# the same on a scenario off the default parameters, shaped like the
# benchmark's verify scenario
BENCHMARK_LIKE_STDOUT_SHA256 = {
    ("check",): "2669b0878d6a1f6cd08c09f30bc537cfb92a76b8a166e875287021e93bbea142",
    ("run", "--no-timestamp"):
        "47f294b665302653fcb73ef351453bed1c57ce98f0644a7f5e625cdb957c2813",
    ("run", "--format", "csv", "--no-timestamp"):
        "b443917353911ffcf5f19f582893589c3332f3bb9cb1ce3100c60a3ebe1cdc3b",
}


@pytest.mark.parametrize("argv", sorted(BENCHMARK_LIKE_STDOUT_SHA256), ids=" ".join)
def test_benchmark_like_scenario_stdout_is_byte_identical(argv, tmp_path, capsys):
    assert main([*argv, "--scenario", str(_benchmark_like_scenario(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_LIKE_STDOUT_SHA256[argv]


# runs the CLI as `python -m symquant` does, then fails if numpy.random was imported
_WITHOUT_NUMPY_RANDOM = (
    "import sys\n"
    "from symquant.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    "raise SystemExit(code)\n")


def test_benchmark_like_check_writes_nothing_to_stderr(tmp_path):
    # the benchmark's verify op fails on any stderr output, so a warning from
    # the check's grid work, even one this suite does not turn into an error,
    # would read as a wrong answer; and importing numpy.random costs every
    # check process about 15 ms and 3-4 MB, so no new import may slip in
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _WITHOUT_NUMPY_RANDOM, "check",
                           "--scenario", str(_benchmark_like_scenario(tmp_path))],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("overall: pass\n")


def test_check_draws_are_the_seeded_generator_draws():
    # the flow group's times and the uncertainty group's probes come from
    # these constants exactly as they came from the generator
    rng = np.random.default_rng(lab._RNG_SEED)
    draws = rng.random(40)
    assert lab._UNIFORM_DRAWS == tuple(draws.tolist())
    for lo, hi in ((0.0, 4.0 * math.pi / 1.5), (-0.8, 0.8), (-1.2, 1.2), (0.6, 1.2)):
        expected = np.random.default_rng(lab._RNG_SEED).uniform(lo, hi, size=40)
        assert [lab._uniform(lo, hi, u) for u in lab._UNIFORM_DRAWS] == expected.tolist()
