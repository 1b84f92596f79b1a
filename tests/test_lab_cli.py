"""Scenario parsing, report emission, verification summaries, CLI contract."""

import ast
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symquant import (
    GaussianPacket,
    GridSpec,
    HamiltonianPair,
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
from symquant.pairs import bracket_matrices, oscillator_field, standard_hamiltonians, verify_pair
import symquant
from symquant import flow, lab, operators, phasespace, quantum
from symquant.cli import main
from symquant.lab import CSV_HEADER, emit_report
from symquant.quantum import CANONICAL_PAIRS, OBSERVABLES, SCHEME_IDS
import corpus
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
    (lambda d: d.update(times=[0.0] * (lab.MAX_TIMES + 1)), "times: must hold at most"),
    (lambda d: d["grid"].update(N=17), "grid.N"),
    (lambda d: d["grid"].update(L=-2.0), "grid.L"),
    (lambda d: d.update(typo=True), "typo"),
    (lambda d: d["packet"].update(sigam=3.0), "packet.sigam: unknown key"),
    (lambda d: d["grid"].update(points=256), "grid.points: unknown key"),
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


# numbers across the float range: its edges, the domain's edges, and the
# scales at which a product of two of them leaves the range
_cli_numbers = st.one_of(
    st.sampled_from([0.0, -1.0, 5e-324, 1e-320, 1e-308, 1e-160, 1e-150, 1e-7, 0.5, 2.0, 30.0,
                     1e7, 4.6e6, 1e16, 1e154, 1e160, 1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_cli_leaves = st.sampled_from([("m",), ("omega",), ("hbar",), ("packet", "sigma"),
                               ("packet", "center", 0), ("packet", "wavevector", 1),
                               ("times", 1), ("grid", "L"), ("grid", "N")])


@st.composite
def _cli_documents(draw):
    """The default scenario at a small N with some groups on: its m, omega and
    hbar drawn across the float range, its packet and grid sometimes rescaled
    to the oscillator length, and up to two leaves set to any number or JSON
    value."""
    raw = default_scenario().to_dict()
    raw["grid"]["N"] = draw(st.sampled_from([16, 32]))
    raw["checks"] = {name: draw(st.booleans()) for name in lab.CHECK_NAMES}
    for key in ("m", "omega", "hbar"):
        raw[key] = draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0), _cli_numbers))
    # the check groups compute in absolute units, so only moderate parameters
    # are drawn with the packet and grid rescaled to the oscillator length
    if draw(st.booleans()) and all(1e-2 <= raw[key] <= 1e2 for key in ("m", "omega", "hbar")):
        ref = math.sqrt(raw["hbar"] / (raw["m"] * raw["omega"]))
        packet = raw["packet"]
        packet.update(center=[c * ref for c in packet["center"]], sigma=packet["sigma"] * ref,
                      wavevector=[k / ref for k in packet["wavevector"]])
        raw["grid"]["L"] *= ref
    for _ in range(draw(st.integers(0, 2))):
        *parents, leaf = draw(_cli_leaves)
        target = raw
        for parent in parents:
            target = target[parent]
        target[leaf] = draw(st.one_of(_cli_numbers, _cli_numbers.map(int), _json_values))
    return raw


@given(raw=_cli_documents(), command=st.sampled_from(["run", "check"]),
       grid_n=st.sampled_from([None, 16, 17, 64, 10 ** 6]),
       grid_l=st.one_of(st.none(), _cli_numbers))
@settings(max_examples=80, deadline=None)
def test_cli_ends_in_a_report_or_one_config_error(raw, command, grid_n, grid_l,
                                                  tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "cli-document.json"
    path.write_text(json.dumps(raw))
    argv = [command, "--scenario", str(path)]
    argv += [] if grid_n is None else [f"--grid-n={grid_n}"]
    argv += [] if grid_l is None else [f"--grid-l={grid_l!r}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert re.fullmatch(r"config error: [^:\n]+: [^\n]*\n", err.getvalue()), err.getvalue()
    else:
        assert (code, err.getvalue()) == (0, ""), out.getvalue()


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
    # at N = 16 a packet is both resolved and localized only in a narrow
    # window: the spectral edge needs a spacing below 0.926 sigma at k = 0,
    # and the boundary edge needs the 15 spacings from the first grid point
    # to the last to span 13.6 sigma, so h = 0.915 sigma, the centre within
    # 0.01 sigma of the midpoint -h/2 and |k| at most 0.03 / sigma
    sigma = draw(st.floats(0.6, 1.2))
    if n == 16:
        half_width, middle, reach, k_max = 7.32 * sigma, -0.4575 * sigma, 0.01 * sigma, 0.03
    else:
        half_width, middle, reach, k_max = 10.0 * sigma, 0.0, 2.0 * sigma, 1.0
    offsets = st.floats(middle - reach, middle + reach)
    wavenumbers = st.floats(-k_max / sigma, k_max / sigma)
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

    def recording(schemes, packet, grid, times):
        computed = heisenberg_moments(schemes, packet, grid, times)
        for s, (means, variances) in zip(schemes, computed):
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


def test_lab_decides_localization_before_sampling():
    # each localization decision is `_edges`' closed form against a threshold
    # of the lab, made before a state is sampled: no module of the library
    # keeps a sampled boundary measure or a threshold of its own
    thresholds = []
    for path in sorted(Path(lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "boundary_magnitude"
                or isinstance(node, ast.FunctionDef) and node.name == "boundary_magnitude"
                ] == [], path.name
        for node in tree.body:
            if isinstance(node, ast.Assign):
                thresholds += [(path.name, target.id) for target in node.targets
                               if isinstance(target, ast.Name) and "BOUNDARY" in target.id]
    assert thresholds == [("lab.py", "_BOUNDARY_LIMIT"), ("lab.py", "_WARN_BOUNDARY")]
    assert lab._WARN_BOUNDARY == 1e-12


def test_lab_imports_no_private_name_from_quantum_or_flow():
    # check runs the public functions of the library, so a private twin of
    # one of them cannot grow back beside it
    tree = ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] in ("quantum", "flow")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_public_api_takes_no_tol():
    # a tolerance with one value in use is a module constant, so no public
    # function, constructor or method takes a `tol` to set it
    callables = []
    for name in symquant.__all__:
        obj = getattr(symquant, name)
        if inspect.isclass(obj):
            callables += [(f"{name}.{attr}", getattr(obj, attr)) for attr in dir(obj)
                          if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr))]
        if inspect.isclass(obj) or inspect.isfunction(obj):
            callables.append((name, obj))
    knobs = []
    for name, obj in callables:
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # an exception type and its builtin methods have no signature
            continue
        knobs += [name for param in params if param == "tol"]
    walked = {name for name, _ in callables}
    assert {"InverseFormBasis.contains", "scenario_from_dict", "GridSpec"} <= walked
    assert knobs == []


def test_readme_python_examples_run(capsys):
    # every python block of README.md runs as written, so an example cannot
    # call a name the library no longer has
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_quantum_forms_no_grid_sized_matrix():
    # the propagator acts on fields with FFTs and phases, so an N x N or
    # N^2 x N^2 matrix (np.eye, anything of np.linalg) stays in the test
    # oracles; a float form is inverted by its Pfaffian and the admissible
    # space is solved in exact integers, so no module of the library calls LAPACK
    modules = sorted(Path(symquant.__file__).parent.glob("*.py"))
    assert {path.stem for path in modules} >= {"pairs", "phasespace", "quantum", "operators"}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        names += [alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
        assert [n for n in names if n == "np.eye" or "linalg" in n.split(".")] == [], path.name


def test_run_and_check_make_no_lapack_call(monkeypatch):
    # run certifies the four standard pairs, so it inverts W3's float form on
    # every call; that inverse and every check group stay out of np.linalg
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg was called")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refuse)
    run_scenario(default_scenario())
    assert {r.status for r in run_checks(default_scenario())} == {"pass"}


def _schemes(config) -> list:
    """The scheme list a grid group of `check` is passed."""
    return [quantum.scheme(sid, config.params) for sid in config.schemes]


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_scenario_peaks_under_one_field():
    # the moments come from the packet's two axis factors, so run forms no
    # N x N field: 0.31 N x N complex fields on the default scenario, where
    # sampling the packet and acting on it took 6.56
    run_scenario(default_scenario())  # imports and module-level caches
    config = default_scenario()
    assert _traced_peak(lambda: run_scenario(config)) < config.grid.points ** 2 * 16


def test_uncertainty_group_peaks_under_one_field():
    # its nine probes' moments come from their factors too; it sampled each
    config = default_scenario()
    schemes = _schemes(config)
    lab._check_uncertainties(config, schemes)
    assert _traced_peak(lambda: lab._check_uncertainties(config, schemes)) \
        < config.grid.points ** 2 * 16


def test_commutator_group_peaks_under_one_field():
    # its probe's seam vectors come from the probe's factors; it sampled the
    # probe and held six primitive commutator fields
    config = default_scenario()
    schemes = _schemes(config)
    lab._check_commutators(config, schemes)
    assert _traced_peak(lambda: lab._check_commutators(config, schemes)) \
        < config.grid.points ** 2 * 16


def test_run_checks_peaks_under_one_field():
    # no group forms an N x N field on the scenario's grid: 0.16 N x N complex
    # fields at N = 512, where the commutator group's fields took 9.04
    config = default_scenario().with_grid(points=512, half_width=16.0)
    run_checks(config)  # imports and module-level caches
    assert _traced_peak(lambda: run_checks(config)) < config.grid.points ** 2 * 16


def test_sampling_and_evolving_fit_the_grid_budget():
    # operators.MAX_POINTS is sized by the field work of the public API on a
    # caller's grid: a sampled packet and its evolution by each scheme, 7.00 N x N
    # complex fields at N = 512
    params = PhysParams(1.0, 1.0, 1.0)
    grid, packet = GridSpec(half_width=16.0, points=512), quantum.ground_packet(params)

    def sample_and_evolve():
        psi = packet.sample(grid)
        for sid in quantum.SCHEME_IDS:
            quantum.unitary_evolve(quantum.scheme(sid, params), psi, 0.7)

    sample_and_evolve()
    fields = _traced_peak(sample_and_evolve) / (grid.points ** 2 * 16)
    assert fields <= 7.1
    assert fields * 16 * operators.MAX_POINTS ** 2 <= 2 * 2 ** 30


def test_library_makes_no_blas_dot_product():
    # a BLAS dot product above 10000 entries sums in an order set by the
    # thread count, so every grid-sized sum is numpy's own pairwise sum
    for path in sorted(Path(lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert names & {"np.vdot", "np.dot", "np.inner", "np.tensordot", "np.linalg.norm"} \
            == set(), path.name


def test_emit_report_failure_names_the_path(tmp_path):
    report = run_scenario(_small_scenario())
    bad = tmp_path / "missing" / "out.json"
    with pytest.raises(OSError, match=str(bad)):
        emit_report(report, "json", str(bad))


def test_emit_report_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format: 'xml'$"):
        emit_report(run_scenario(_small_scenario()), "xml", "-")


def test_max_times_holds_to_its_sizing():
    # MAX_TIMES is sized on 16.3 KiB of RSS per time for a run of every scheme
    # and observable; the traced peak of run plus its JSON writer is 13.7 KiB
    # per time on the default scenario, at 500 times as at 2,000
    config = replace(default_scenario(), times=tuple(0.01 * i for i in range(2000)))
    report_to_json(run_scenario(config))  # imports and module-level caches
    peak = _traced_peak(lambda: report_to_json(run_scenario(config)))
    assert peak / len(config.times) <= 16.3 * 1024
    assert lab.MAX_TIMES * 16.3 * 1024 <= 2 * 2 ** 30


# ---------------------------------------------------------------------------
# run_checks
# ---------------------------------------------------------------------------

def test_checks_pass_on_small_scenario():
    results = run_checks(_small_scenario())
    by_name = {r.name: r for r in results}
    assert by_name["pairs"].status == "pass"
    assert by_name["flow"].status == "pass"
    assert by_name["commutators"].status == "pass"
    assert by_name["uncertainties"].status == "skipped"
    assert by_name["unitary"].status == "skipped"
    assert [r.name for r in results] == list(lab.CHECK_NAMES)


def _flow_status(m: float) -> str:
    scn = _small_scenario(m=m, checks={"pairs": False, "flow": True, "commutators": False,
                                       "uncertainties": False, "unitary": False})
    return next(r for r in run_checks(scn) if r.name == "flow").status


def test_flow_check_passes_at_small_m_omega():
    # m omega = 1e-7: W3 and the flow map carry entries of order 1e7, and the
    # roundoff of J^T L J and of S0..S2 along the flow reaches 1e-9
    assert _flow_status(1e-7) == "pass"


def test_flow_group_checks_each_form_on_one_stack_of_twenty_maps(monkeypatch):
    # one (20, 4, 4) Jacobian stack serves all four forms, each read by one
    # lower_array() call, and one (100, 4, 4) stack all four Hamiltonians
    stacks, samples, lowered = [], [], []
    verify, conserved = lab.verify_flow_symplectic, lab.verify_conserved
    lower_array = SymplecticForm.lower_array
    monkeypatch.setattr(lab, "verify_flow_symplectic",
                        lambda form, jacobians: stacks.append(jacobians) or verify(form, jacobians))
    monkeypatch.setattr(lab, "verify_conserved", lambda f, state0, jacobians:
                        samples.append(jacobians) or conserved(f, state0, jacobians))
    monkeypatch.setattr(SymplecticForm, "lower_array",
                        lambda self: lowered.append(self) or lower_array(self))
    result = lab._check_flow(default_scenario(), standard_pairs(1.0, 1.0))
    assert result.status == "pass"
    assert len(stacks) == 4 and all(stack is stacks[0] for stack in stacks)
    assert stacks[0].shape == (20, 4, 4) and len(lowered) == 4
    assert len(samples) == 4 and all(stack is samples[0] for stack in samples)
    assert samples[0].shape == (100, 4, 4)


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
    assert [r.status for r in run_checks(scn)] == ["pass"] + ["skipped"] * 4
    assert form_work == {"invert_exact": 0, "form_init": 1}


def test_check_builds_the_standard_pairs_once(form_work):
    # the pairs and flow groups of a whole check share one standard_pairs call
    assert {r.status for r in run_checks(default_scenario())} == {"pass"}
    assert form_work == {"invert_exact": 0, "form_init": 1}


def test_check_builds_each_shared_input_once(monkeypatch):
    # run_checks builds the scheme list and the standard pairs once for every
    # group (the three grid groups built a scheme list each: 12 scheme()
    # calls), and the flow group one stack of maps per sample set (it built
    # the 100 sample maps once per Hamiltonian: 420 flow_jacobian calls)
    counts = {"scheme": 0, "flow_jacobian": 0, "standard_pairs": 0}

    def count(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: counts.update(
            {name: counts[name] + 1}) or original(*args))

    for module, name in ((lab, "scheme"), (lab, "standard_pairs"), (lab, "flow_jacobian"),
                         (flow, "flow_jacobian")):
        count(module, name)
    assert {r.status for r in run_checks(default_scenario())} == {"pass"}
    assert counts == {"scheme": 4, "flow_jacobian": 120, "standard_pairs": 1}


def _w0_with_s1(m, omega):
    # W0 paired with S1 generates another flow than the oscillator's: the
    # pair certificate's residual is 1/m
    pairs = standard_pairs(m, omega)
    return (HamiltonianPair(pairs[0].form, pairs[1].hamiltonian), *pairs[1:])


def test_pair_check_passes_one_rounding_of_an_entry_of_size_one_over_m():
    # at m = 1e-8, omega = 3 scheme 3's product (1/(m omega)) omega rounds
    # one ulp off 1/m = 1e8; against 1e-12 max(1, m omega^2) the group failed
    # with residual 1.490e-08, against the size of each entry's terms it passes
    results = run_checks(scenario_from_dict(corpus._oscillator_units(1e-8, 3.0, 1.0)))
    assert [(r.name, r.status) for r in results] == [(name, "pass") for name in lab.CHECK_NAMES]
    assert results[0].detail == "max residual 1.490e-08"


def test_corrupted_form_fails_the_pair_check(monkeypatch):
    monkeypatch.setattr(lab, "standard_pairs", _w0_with_s1)
    pairs, *others = run_checks(_small_scenario())
    assert pairs.status == "fail"
    assert pairs.detail == "max residual 1.000e+00"
    assert all(r.status != "fail" for r in others)


@st.composite
def _certified_params(draw):
    """m and omega at which every coefficient of the standard pairs and of the
    oscillator field is a normal float: |log10 m|, |log10 (m omega)| and
    |log10 (m omega^2)| at most 300, and |log10 omega| at most 150, since
    omega^2 is formed on its own."""
    a = draw(st.floats(-300.0, 300.0))
    b = draw(st.floats(max(-150.0, -150.0 - a / 2.0), min(150.0, 150.0 - a / 2.0)))
    return 10.0 ** a, 10.0 ** b


@given(params=_certified_params())
@settings(max_examples=200, deadline=None)
@example(params=(1.0, 1.0))
@example(params=(1e-300, 1e150))
@example(params=(1e300, 1e-150))
def test_float_pair_certificate_is_the_exact_layers_bit_for_bit(params):
    # the exact layer stays the oracle: each entry of W Hess(S) - A is one
    # coefficient of verify_pair's residual, rounded alike
    m, omega = params
    field = oscillator_field(m, omega)
    exact = tuple(max(c.max_abs_coefficient() for c in verify_pair(pair, field))
                  for pair in standard_pairs(m, omega))
    raw = zip(bracket_matrices(m, omega), standard_hamiltonians(m, omega))
    assert lab._pair_residuals(PhysParams(m, omega), raw) == exact


def test_run_certifies_the_pairs_it_is_fed(monkeypatch):
    # W0 fed with S1 generates another flow than the oscillator's: run's
    # certificate for pair 0 reads 1/m, and the other pairs stay exact
    def s1_for_s0(m, omega):
        hamiltonians = standard_hamiltonians(m, omega)
        return (hamiltonians[1], *hamiltonians[1:])

    monkeypatch.setattr(lab, "standard_hamiltonians", s1_for_s0)
    m = 0.8
    report = run_scenario(_small_scenario(m=m))
    assert report.pair_residuals[0] == 1.0 / m
    assert max(report.pair_residuals[1:]) <= 1e-12


def test_uncertainty_check_takes_its_verdict_from_the_report_flags(monkeypatch):
    # check builds its rows as run does; a Robertson flag turned False fails
    # the group and leaves the printed gap and margin as they were
    scn = _small_scenario(checks={name: name == "uncertainties" for name in lab.CHECK_NAMES})
    passing = next(r for r in run_checks(scn) if r.name == "uncertainties")
    columns = lab._scheme_columns

    def violated(*args):
        col = columns(*args)
        return replace(col, rows=tuple((pair, bound, products, [False] * len(products))
                                       for pair, bound, products, _ in col.rows))

    monkeypatch.setattr(lab, "_scheme_columns", violated)
    failing = next(r for r in run_checks(scn) if r.name == "uncertainties")
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
    return next(r for r in run_checks(scn) if r.name == "uncertainties")


def test_uncertainty_check_scales_its_bounds_at_large_m():
    # packet and grid in oscillator units: the Robertson bounds of schemes 1-3
    # are of order m, and their roundoff is no violation; the printed gap and
    # margin stay absolute.  At m = 1e7 the margin is 2.8 times the 1e-9
    # slack; at m = 1e13 the ground gap is 1950 times the 1e-6 saturation bound.
    assert _large_mass_uncertainties(1e7) == lab.CheckResult(
        "uncertainties", "pass",
        "ground saturation gap 1.863e-09, worst bound margin -2.794e-09")
    result = _large_mass_uncertainties(1e13)
    assert result.status == "pass"
    assert result.detail.startswith("ground saturation gap 1.953e-03, ")


def test_a_nan_conjugation_deviation_fails_the_unitary_group(monkeypatch):
    # max() drops a nan that is not its first argument; the group must not
    monkeypatch.setattr(lab, "conjugation_deviations", lambda s, psi, probes: [1e-7, math.nan])
    result = lab._check_unitary(default_scenario(), _schemes(default_scenario()))
    assert (result.status, result.detail) == ("fail", "max conjugation deviation nan")


def test_a_generator_without_a_propagator_route_fails_the_unitary_group(monkeypatch, capsys):
    # scheme 0's x row off by 1e-6 quantizes S0 to a matrix that neither
    # propagator route fits; check prints a fail, not a traceback
    def perturbed(sid, params):
        s = quantum.scheme(sid, params)
        if sid != 0:
            return s
        rows = s.assignment.copy()
        rows[0, 0] *= 1.0 + 1e-6
        return replace(s, assignment=rows)

    monkeypatch.setattr(lab, "scheme", perturbed)
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if line.startswith("unitary: "))
    assert line.startswith("unitary: fail (scheme 0: no closed-form propagator")
    assert "overall: fail" in out


def test_commutator_bound_is_relative_to_the_table():
    # at hbar m omega = 1.3e5 the table's roundoff alone reaches 9.3e-8, 7e-13
    # of the table; an absolute 1e-8 bound failed the group
    # (the scenario's packet is scaled with the grid, which must hold it too)
    params = dict(m=1e3, omega=1.3, hbar=100.0)
    ref = math.sqrt(params["hbar"] / (params["m"] * params["omega"]))
    packet = {"center": [ref, 0.0], "wavevector": [1.0 / ref, 0.0], "sigma": ref / math.sqrt(2.0)}
    scn = _small_scenario(**params, schemes=[0, 1, 2, 3], grid={"L": 8 * ref, "N": 64},
                          packet=packet,
                          checks={name: name == "commutators" for name in lab.CHECK_NAMES})
    result = next(r for r in run_checks(scn) if r.name == "commutators")
    assert result.status == "pass"
    assert float(result.detail.split()[-1]) > 1e-8


def _scaled_commutators(m: float) -> lab.CheckResult:
    # the grid and the packet in oscillator units, at omega = hbar = 1
    ref = PhysParams(m, 1.0).sigma_ref
    packet = {"center": [0.3 * ref, -0.2 * ref], "wavevector": [0.5 / ref, -0.4 / ref],
              "sigma": 0.6 * ref}
    scn = _small_scenario(m=m, omega=1.0, hbar=1.0, schemes=[0, 1, 2, 3], packet=packet,
                          grid={"L": 8 * ref, "N": 64},
                          checks={name: name == "commutators" for name in lab.CHECK_NAMES})
    return next(r for r in run_checks(scn) if r.name == "commutators")


_MASS_DECADES = [10.0 ** e for e in range(-12, 13)]


def test_commutator_bound_scales_with_each_pair():
    # the roundoff on [d_x, d_y] and [x, y] scales as m omega / hbar and
    # hbar / (m omega); against 1e-8 max(1, max|T|) the group failed at every
    # m >= 1e7 (7.1e-6 at 1e7) and every m <= 1e-9 (7.1e-4 at 1e-9)
    assert [_scaled_commutators(m).status for m in _MASS_DECADES] == ["pass"] * 25


def test_commutator_bound_catches_a_sign_at_every_scale(monkeypatch):
    # scheme 1 with its p_y row negated puts -i hbar where [x, p_y] = i hbar
    def flipped(sid, params):
        s = quantum.scheme(sid, params)
        if sid != 1:
            return s
        rows = s.assignment.copy()
        rows[OBSERVABLES.index("p_y")] *= -1
        return replace(s, assignment=rows)

    monkeypatch.setattr(lab, "scheme", flipped)
    results = [_scaled_commutators(m) for m in _MASS_DECADES]
    assert {(r.status, r.detail) for r in results} == {("fail", "max deviation 2.000e+00")}


@pytest.mark.parametrize("m, hbar", [(1e-12, 1.0), (1.0, 1.0), (1e12, 1.0),
                                     (1.0, 1e-12), (1.0, 1e12)],
                         ids=["1e-12", "1.0", "1000000000000.0", "hbar-1e-12", "hbar-1e+12"])
@pytest.mark.parametrize("entry", [(0, 0), (2, 2)])
def test_grid_groups_catch_a_mutated_assignment_at_a_stated_size(monkeypatch, m, hbar, entry):
    # one entry of scheme 0's assignment times (1 + delta), in oscillator
    # units: commutators fails at delta = 5e-7 and passes at 1e-8, its bound;
    # uncertainties fails at 2e-6 and passes at 5e-7, since the ground gap is
    # delta times the bound and the group allows 1e-6 of it; unitary fails at
    # 1e-12.  Against 1e-6 max(1, bound), uncertainties passed delta = 0.1 at
    # hbar = 1e-12, and this table's 1e-4 there
    def mutated(sid, params):
        s = quantum.scheme(sid, params)
        if sid != 0:
            return s
        rows = s.assignment.copy()
        rows[entry] *= 1.0 + delta
        return replace(s, assignment=rows)

    monkeypatch.setattr(lab, "scheme", mutated)
    scn = scenario_from_dict(corpus._oscillator_units(
        m, 1.0, hbar, checks=corpus._only("commutators", "uncertainties", "unitary")))
    table = {}
    for delta in (1e-4, 2e-6, 5e-7, 1e-8, 1e-12):  # read by `mutated` when run_checks calls it
        table[delta] = [r.status for r in run_checks(scn)[2:]]  # the three grid groups
    assert table == {1e-4: ["fail", "fail", "fail"], 2e-6: ["fail", "fail", "fail"],
                     5e-7: ["fail", "pass", "fail"], 1e-8: ["pass", "pass", "fail"],
                     1e-12: ["pass", "pass", "fail"]}


def _in_units(raw: dict, mass: int, length: int, time: int) -> dict:
    """The scenario document `raw` in a unit of mass 2^-mass, of length
    2^-length and of time 2^-time of its own: the same physics, each value
    mapped exactly by a power of two."""
    scale_m, scale_l, scale_t = 2.0 ** mass, 2.0 ** length, 2.0 ** time
    packet = raw["packet"]
    return {**raw, "m": raw["m"] * scale_m, "omega": raw["omega"] / scale_t,
            "hbar": raw["hbar"] * scale_m * scale_l * scale_l / scale_t,
            "packet": {"center": [c * scale_l for c in packet["center"]],
                       "wavevector": [k / scale_l for k in packet["wavevector"]],
                       "sigma": packet["sigma"] * scale_l},
            "grid": {"L": raw["grid"]["L"] * scale_l, "N": raw["grid"]["N"]},
            "times": [t * scale_t for t in raw["times"]]}


def _verdicts(raw: dict) -> tuple[list, list]:
    """(status of each check group, every `satisfied` flag of `run`) of a document."""
    scn = scenario_from_dict(raw)
    flags = [row[3] for col in run_scenario(scn).columns for row in col.rows]
    return [(r.name, r.status) for r in run_checks(scn)], flags


_UNIT_BASES = [corpus._oscillator_units(1.3, 1.5, 0.7), corpus._oscillator_units(1e-8, 3.0, 1.0),
               corpus._oscillator_units(2.0, 0.5, 1e3), corpus._oscillator_units(1.7, 0.6, 1.2)]
_BASE_VERDICTS = {}


@given(base=st.sampled_from(range(len(_UNIT_BASES))),
       powers=st.tuples(*[st.integers(-40, 40)] * 3))
@settings(max_examples=30, deadline=None)
@example(base=1, powers=(14, 0, 0))
@example(base=3, powers=(-40, 0, 0))
def test_every_verdict_is_the_same_in_every_choice_of_units(base, powers):
    # a metamorphic relation (Chen et al., ACM Computing Surveys 51(1), 2018):
    # a change of units maps a scenario to the same physics, so each check
    # group keeps its status and each Robertson flag its value; the bases have
    # omega != 1, where (1/(m omega)) omega need not round to 1/m, and both
    # examples moved the pairs verdict against 1e-12 max(1, m omega^2)
    raw = _UNIT_BASES[base]
    if base not in _BASE_VERDICTS:
        _BASE_VERDICTS[base] = _verdicts(raw)
    assert _verdicts(_in_units(raw, *powers)) == _BASE_VERDICTS[base]


def _oscillator_units_cli(m: float, argv: list[str], tmp_path, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a command on the scenario in oscillator units at
    omega = hbar = 1: grid L = 8 sigma_ref, N = 64, packet centre (0.3, -0.2) sigma_ref,
    wavevector (0.5, -0.4) / sigma_ref and sigma 0.6 sigma_ref."""
    ref = PhysParams(m, 1.0).sigma_ref
    raw = default_scenario().to_dict()
    raw.update(m=m, grid={"L": 8 * ref, "N": 64},
               packet={"center": [0.3 * ref, -0.2 * ref], "wavevector": [0.5 / ref, -0.4 / ref],
                       "sigma": 0.6 * ref})
    return _cli_on(raw, argv, tmp_path, capsys)


def _cli_on(raw: dict, argv: list[str], tmp_path, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a command on a scenario document."""
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    code = main([*argv, "--scenario", str(scn_path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("m", [1e-300, 1e-200, 1e200, 1e300])
def test_run_in_oscillator_units_is_the_unit_mass_run_scaled(m, tmp_path, capsys):
    # the grid work is done on a grid of half-width in [0.5, 1), so at
    # m = 1e+/-200 and 1e+/-300 no square or sum of the field under- or
    # overflows; each cell in oscillator units (sigma_ref for a coordinate,
    # 1/sigma_ref for a momentum, their squares for a variance) is the m = 1
    # cell within 4e-15 max(1, |cell|) (measured at most 4.4e-16)
    argv = ["run", "--format", "csv", "--no-timestamp"]
    code, out, err = _oscillator_units_cli(m, argv, tmp_path, capsys)
    assert (code, err) == (0, "")
    unit_code, unit_out, _ = _oscillator_units_cli(1.0, argv, tmp_path, capsys)
    assert unit_code == 0
    assert len(out.splitlines()) == 1 + 4 * 4 * 3
    _assert_unit_mass_cells_scaled(out, unit_out, m)


def _assert_unit_mass_cells_scaled(out: str, unit_out: str, m: float) -> None:
    """Each cell of a `run --format csv` output at mass m, omega = hbar = 1, in
    oscillator units (sigma_ref for a coordinate, 1/sigma_ref for a momentum, their
    squares for a variance) is the m = 1 cell within 4e-15 max(1, |cell|)."""
    ref = PhysParams(m, 1.0).sigma_ref
    lines, unit_lines = out.splitlines(), unit_out.splitlines()
    assert len(lines) == len(unit_lines)
    for line, unit_line in zip(lines[1:], unit_lines[1:]):
        cell, unit_cell = line.split(","), unit_line.split(",")
        assert cell[:3] == unit_cell[:3]
        size = ref if cell[1] in ("x", "y") else 1.0 / ref
        for k, scale in ((3, size), (4, size), (5, size * size)):
            expected = float(unit_cell[k])
            assert abs(float(cell[k]) / scale - expected) <= 4e-15 * max(1.0, abs(expected)), \
                (m, line)


@pytest.mark.parametrize("m", [1e-300, 1e-200, 1e200, 1e300])
def test_check_in_oscillator_units_passes_at_extreme_masses(m, tmp_path, capsys):
    # the commutator group once overflowed squaring its residuals, with a
    # RuntimeWarning, and the uncertainty group read overflowed moments; at
    # 1e+/-300 it divided each coefficient by w_a and then by w_b, which
    # overflowed to nan at 1e-300 and underflowed [x, y] to 0 at 1e300
    code, out, err = _oscillator_units_cli(m, ["check"], tmp_path, capsys)
    assert (code, err) == (0, "")
    assert [line.split(":")[1].split()[0] for line in out.splitlines()] == ["pass"] * 6


# m omega / hbar every 20 decades across the float range, and 1e+/-205 and
# 1e+/-215: `check` failed at every m <= 1e-205 and every m >= 1e215 while it
# divided each commutator coefficient by w_a and then by w_b
_SWEEP_DECADES = sorted({*range(-300, 301, 20), -215, -205, 205, 215})


def test_oscillator_units_are_scale_invariant_across_the_float_range(tmp_path, capsys):
    # the corpus' scenario in oscillator units at omega = hbar = 1: every `run`
    # cell is the m = 1 cell scaled, and `check` passes with nothing on stderr
    argv = ["run", "--format", "csv", "--no-timestamp"]
    unit_code, unit_out, _ = _cli_on(corpus._oscillator_units(1.0, 1.0, 1.0), argv,
                                     tmp_path, capsys)
    assert unit_code == 0
    for e in _SWEEP_DECADES:
        m = float(f"1e{e}")
        raw = corpus._oscillator_units(m, 1.0, 1.0)
        code, out, err = _cli_on(raw, argv, tmp_path, capsys)
        assert (code, err) == (0, ""), m
        _assert_unit_mass_cells_scaled(out, unit_out, m)
        code, out, err = _cli_on(raw, ["check"], tmp_path, capsys)
        assert (code, err) == (0, ""), (m, out)


@pytest.mark.parametrize("m", [1e-306, 1e-307, 3e-308, 1e306, 1e307])
def test_oscillator_units_past_the_sweep_pass_or_are_config_errors(m, tmp_path, capsys):
    # at m <= 1e-306 the grid's half-width 8 sigma_ref reaches 2^512, so the
    # unit-scaled grid's weight (2^-512)^2 was subnormal: `check` failed with
    # RuntimeWarnings and `run` printed cells off the scaled m = 1 cells by up
    # to 1.5e-2; the domain gate now rejects (2L)^2 past the float range
    raw = corpus._oscillator_units(m, 1.0, 1.0)
    argv = ["run", "--format", "csv", "--no-timestamp"]
    unit_code, unit_out, _ = _cli_on(corpus._oscillator_units(1.0, 1.0, 1.0), argv,
                                     tmp_path, capsys)
    assert unit_code == 0
    rejected = "config error: grid.L: cannot act on this grid: (2L)^2 is past the float range"
    for command in (argv, ["check"]):
        code, out, err = _cli_on(raw, command, tmp_path, capsys)
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1, (m, err)
            assert err.startswith(rejected if m < 1e-305 else "config error: "), (m, err)
            continue
        assert (code, err) == (0, "") and m > 1e-305, (m, out, err)
        if command == argv:
            _assert_unit_mass_cells_scaled(out, unit_out, m)


def test_coarse_grid_downgrades_to_warning():
    # L = 6.5 holds the scenario's packet and the ground probe to within
    # _BOUNDARY_LIMIT, but the probe's boundary edge, 8.6e-9, reaches
    # _WARN_BOUNDARY: its commutator deviation of 2.9e-8, past the 1e-8 bound,
    # is a warning, not a failure; the uncertainties group skips the two drawn
    # probes the grid does not hold
    scn = _small_scenario(grid={"L": 6.5, "N": 32},
                          checks={"pairs": True, "flow": True,
                                  "commutators": True, "uncertainties": True,
                                  "unitary": False})
    by_name = {r.name: r for r in run_checks(scn)}
    assert by_name["commutators"].status == "warn"
    assert float(by_name["commutators"].detail.split()[-1]) > 1e-8
    assert by_name["uncertainties"].status == "pass"
    assert by_name["uncertainties"].detail.endswith(", 4 delocalized probes skipped")
    assert all(r.status != "fail" for r in by_name.values())


def test_coarse_grid_warning_writes_nothing_to_stderr():
    # the group's warn line is the one report of a probe the grid holds too
    # loosely for the commutator bound; a Python warning on stderr repeated it
    proc = subprocess.run([sys.executable, "-m", "symquant", "check",
                           "--grid-l", "6.5", "--grid-n", "32"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "pairs: pass (max residual 0.000e+00)\n"
        "flow: pass (max pullback deviation 2.220e-16, max conserved-quantity drift 4.441e-16)\n"
        "commutators: warn (probe state not localized on this grid; max deviation 2.949e-08)\n"
        "uncertainties: pass (ground saturation gap 1.110e-16, worst bound margin -5.551e-17, "
        "8 delocalized probes skipped)\n"
        "unitary: pass (max conjugation deviation 2.799e-11)\n"
        "overall: pass\n")


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

def test_cli_init_roundtrips(tmp_path):
    out = tmp_path / "scenario.json"
    assert main(["init", "--out", str(out)]) == 0
    with open(out, "r", encoding="utf-8") as handle:
        assert scenario_from_dict(json.load(handle)) == default_scenario()


def test_cli_init_prints_the_default_scenario_to_stdout(capsys):
    assert main(["init", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert scenario_from_dict(json.loads(captured.out)) == default_scenario()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_run_out_writes_the_bytes_run_prints(fmt, tmp_path, capsys):
    path = tmp_path / f"report.{fmt}"
    assert main(["run", "--format", fmt, "--no-timestamp"]) == 0
    printed = capsys.readouterr().out
    assert main(["run", "--format", fmt, "--no-timestamp", "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == printed.encode("utf-8")


def test_cli_scenario_that_is_no_object_is_a_config_error(tmp_path, capsys):
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps([default_scenario().to_dict()]))
    assert main(["run", "--scenario", str(scn_path)]) == 2
    assert capsys.readouterr() == ("", "config error: scenario: must be a JSON object\n")


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
    # spacing 1 resolves the scenario's packet, sigma 1.5 at k = 0, but not
    # the checks' probes: the ground packet, sigma 0.707, comes first in both
    raw = default_scenario().to_dict()
    raw["packet"].update(sigma=1.5, wavevector=[0.0, 0.0])
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
        f"config error: grid: spacing 1 does not resolve the {probe} check's probe of sigma "
        "0.707 and |k| 0: its spectral edge 7.192e-03 reaches 1e-05"]


def test_cli_run_rejects_a_delocalized_packet(tmp_path, capsys):
    # centred at x = 7.5 on [-8, 8): the run would report <x>(0) = 7.18; the
    # grid holds a centred packet, so the centre is at fault
    raw = default_scenario().to_dict()
    raw["packet"]["center"] = [7.5, 0.0]
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: packet.center: half-width 8 does not hold "
                                   "the packet of sigma 0.707 and |c| 7.5: its boundary magnitude")


# scenarios that exited 0 with wrong numbers before the domain gate, each
# with the key the gate now names
_OUTSIDE_THE_DOMAIN = {
    # k = 30 is past the grid's Nyquist wavenumber pi/h = 25.1, so the packet
    # aliased as it was sampled: run reported <p_x>(0) = -20.265 for scheme 0
    "aliased": (lambda raw: raw["packet"].update(wavevector=[30.0, 0.0]), "packet.wavevector"),
    # hbar^2 = 1e-320 is subnormal: run reported Var p_x = 5e-321 as satisfying
    # a bound of 5e-161, and the unitary group printed 7.500e-06 for 2.799e-11
    "subnormal-hbar-squared": (lambda raw: raw.update(
        hbar=1e-160, checks={name: name == "unitary" for name in lab.CHECK_NAMES}), "hbar"),
    # at omega t = 1e16 the phase of cos(omega t) carries no digit
    "phase-precision": (lambda raw: raw.update(times=[0.0, 1e16]), "times[1]"),
    # centred at x = 6 on [-8, 8): boundary magnitude 0.17; run rejected it
    # after sampling, while check passed all five groups and exited 0
    "off-centre": (lambda raw: raw["packet"].update(center=[6.0, 0.0]), "packet.center"),
    # sigma = 4 on L = 8: boundary magnitude 0.48, and a centred packet's is
    # 0.38, so the grid is at fault; check exited 0 here too
    "too-wide": (lambda raw: raw["packet"].update(sigma=4.0), "grid"),
}


@pytest.mark.parametrize("case", sorted(_OUTSIDE_THE_DOMAIN))
@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_rejects_a_scenario_outside_the_domain(command, case, tmp_path, capsys):
    mutate, key = _OUTSIDE_THE_DOMAIN[case]
    raw = default_scenario().to_dict()
    mutate(raw)
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key}: "), err


@pytest.mark.parametrize("case", ["aliased", "off-centre", "too-wide"])
def test_run_and_check_reject_a_packet_outside_the_domain_alike(case, tmp_path, capsys):
    # one closed-form gate decides for both commands, before either samples
    raw = default_scenario().to_dict()
    _OUTSIDE_THE_DOMAIN[case][0](raw)
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    errors = []
    for command in ("run", "check"):
        assert main([command, "--scenario", str(scn_path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].count("\n") == 1, errors


@pytest.mark.parametrize("half_width, center, key, error", [(7.0, 0.7, "packet.wavevector", 3.1e-5),
                                                           (8.0, 0.0, "grid", 1.7e-3)])
def test_run_rejects_a_packet_the_grid_does_not_resolve(half_width, center, key, error):
    # k = 1 / sigma on N = 16, where the old gate asked only for a spacing of
    # at most sigma: the grid reads Var p_x this far above hbar^2 / (4 sigma^2),
    # decades past the Robertson slack.  The centred packet on L = 8 sigma was
    # reported; at L = 7 sigma the spacing resolves the width, not the wavevector.
    scn = replace(default_scenario(), grid=GridSpec(half_width, 16),
                  packet=GaussianPacket(center=(center, 0.0), wavevector=(1.0, 0.0), sigma=1.0))
    (_, variances), = lab.heisenberg_moments([lab.scheme(0, scn.params)],
                                             scn.packet, scn.grid, (0.0,))
    assert variances[0, 2] / 0.25 - 1.0 == pytest.approx(error, rel=0.05)
    for run in (run_scenario, run_checks):
        with pytest.raises(ScenarioError, match=f"^{re.escape(key)}: spacing "):
            run(scn)


def test_only_the_unitary_group_catches_an_exception():
    # validity is decided up front by the domain gate, in closed form; only
    # the non-finite-moments gate still reads computed values, so no group
    # translates a library error into a config error, and only the unitary
    # group turns one, a generator no propagator route fits, into a verdict
    tree = ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and (node.name == "run_scenario" or node.name.startswith("_check_"))]
    assert len(functions) == 6
    assert [f.name for f in functions
            if any(isinstance(node, ast.Try) for node in ast.walk(f))] == ["_check_unitary"]
    unitary = next(f for f in functions if f.name == "_check_unitary")
    handlers = [node for node in ast.walk(unitary) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["ValueError"]


# the corners of the benchmark's parameter boxes (benchmarks/workloads.py):
# (m and omega range, |centre|, |k|, sigma range, times) of tabulate and verify
_BENCHMARK_BOXES = {
    "tabulate": ((0.8, 1.25), 1.0, 1.5, (0.5, 0.7),
                 lambda omega: [2.0 * math.pi * k / (16 * omega) for k in range(16)]),
    "verify": ((1.0, 1.8), 1.0, 1.0, (0.5, 0.7), lambda omega: [0.0, 0.5, 1.0]),
}


@pytest.mark.parametrize("workload", sorted(_BENCHMARK_BOXES))
def test_benchmark_inputs_lie_in_the_domain(workload, monkeypatch):
    # the default scenario and every corner of the workload's box pass the
    # gate, and so does every probe the check groups build on them: no group
    # is a config error or skips a probe, and the verify op's groups all pass
    # (at m omega < 1 the commutators group warns on the ground probe's
    # boundary).  The closest edges are uncertainties probes': a spectral
    # margin sigma (pi/h - |k|) of 5.8 against the 3.39 the gate needs
    # (verify), and a boundary edge of 2.3e-7 against its 1e-5 (tabulate, at
    # m = omega = 0.8).  `check` gates the scenario's packet on both edges, so
    # a box corner past either would turn a benchmark op into a config error.
    lab._require_domain(*(getattr(default_scenario(), key)
                          for key in ("params", "packet", "grid", "times")))
    edges = []
    measure = lab._edges
    monkeypatch.setattr(lab, "_edges", lambda *args: edges.append(measure(*args)) or edges[-1])
    masses, center, k, sigmas, times = _BENCHMARK_BOXES[workload]
    for m, omega in ((m, omega) for m in masses for omega in masses):
        for sigma in sigmas:
            scn = replace(default_scenario(), params=PhysParams(m, omega, 1.0),
                          packet=GaussianPacket((center, -center), (k, -k), sigma),
                          times=tuple(times(omega)))
            lab._require_domain(scn.params, scn.packet, scn.grid, scn.times)
        results = run_checks(scn)
        assert not any("skipped" in r.detail for r in results)
        assert all(r.status == "pass" for r in results
                   if workload == "verify" or r.name != "commutators")
    boundary, spectral = (max(column) for column in zip(*edges))
    assert boundary < lab._BOUNDARY_LIMIT and spectral < lab._BOUNDARY_LIMIT


def test_run_localization_gate_is_in_the_packet_units(tmp_path, capsys):
    # one centred packet on one N = 32, L = 8 sigma grid, in three units of
    # length: its last row sits 7.5 sigma out, where |psi| is exp(-225/16) of
    # its peak whatever sigma is.  An absolute gate rejected it at sigma = 0.5
    # and 1.  (At N = 16 the grid cannot both resolve and hold a centred packet.)
    for sigma in (0.5, 1.0, 40.0):
        packet, grid = GaussianPacket(sigma=sigma), GridSpec(8.0 * sigma, 32)
        sampled = oracles.boundary_magnitude(packet.sample(grid).values)
        assert sampled == pytest.approx(math.exp(-225.0 / 16.0), rel=1e-12)
        assert lab._edges(packet, grid)[0] == pytest.approx(math.exp(-225.0 / 16.0), rel=1e-12)
        raw = default_scenario().to_dict()
        raw["packet"] = {"center": [0.0, 0.0], "wavevector": [0.0, 0.0], "sigma": sigma}
        raw["grid"] = {"L": 8.0 * sigma, "N": 32}
        scn_path = tmp_path / "scn.json"
        scn_path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 0, sigma
        assert capsys.readouterr().err == ""


# off-centre, wide and flat packets, and centres near and past the end
# points, where the edge reads 1; the wavevector does not move it
@example(points=16, half_width=8.0, u=(0.75, 0.0), sigma=0.707)
@example(points=32, half_width=8.0, u=(0.0, 0.0), sigma=1.0)  # exp(-225/16)
@example(points=64, half_width=8.0, u=(0.3125, 1.0), sigma=1.3)
@example(points=128, half_width=8.0, u=(0.0375, 0.025), sigma=4.0)
@example(points=256, half_width=8.0, u=(-0.375, 0.125), sigma=100.0)
@example(points=512, half_width=8.0, u=(-0.9875, 0.99625), sigma=0.4)
@given(points=st.sampled_from([16, 32, 64, 128, 256, 512]), half_width=st.floats(3.0, 12.0),
       u=st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)), sigma=st.floats(0.3, 3.0))
@settings(max_examples=60, deadline=None)
def test_boundary_edge_is_the_sampled_boundary_magnitude(points, half_width, u, sigma):
    packet = GaussianPacket((u[0] * half_width, u[1] * half_width), (1.3, -0.4), sigma)
    grid = GridSpec(half_width, points)
    sampled = oracles.boundary_magnitude(packet.sample(grid).values)
    assert lab._edges(packet, grid)[0] == pytest.approx(sampled, rel=1e-12, abs=0.0)


def test_boundary_edge_reads_one_where_sampling_fails():
    # a centre 1000 sigma off the grid samples to norm 0, which sample rejects
    packet, grid = GaussianPacket(center=(1e3, 0.0)), GridSpec(8.0, 64)
    with pytest.raises(ValueError, match="cannot normalize"):
        packet.sample(grid)
    assert lab._edges(packet, grid)[0] == 1.0


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
        result = lab._check_commutators(scn, _schemes(scn))
    assert result.status == "pass"


def test_commutator_group_decides_its_probe_localization_once():
    # one probe serves four schemes, so a delocalized one gives one warn verdict
    scn = _small_scenario(schemes=[0, 1, 2, 3], grid={"L": 6.5, "N": 32})
    result = lab._check_commutators(scn, _schemes(scn))
    assert result.status == "warn"


def test_cli_check_rejects_a_probe_wider_than_the_grid(tmp_path, capsys):
    # at m = 1e-300 the probes' sigma is 7.07e149 on the L = 8 grid: the groups
    # reported flow: pass at a pullback deviation of 3e284, an inf commutator
    # deviation and overall: pass, with two warnings on stderr.  The probe is
    # flat across the grid, so its boundary edge reads 1
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
        "config error: grid: half-width 8 does not hold the commutators check's probe of "
        "sigma 7.07e+149 and |c| 0: its boundary magnitude 1.000e+00 reaches 1e-05"]
    raw["checks"] = {"commutators": False}
    scn_path.write_text(json.dumps(raw))
    assert main(["check", "--scenario", str(scn_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: grid: half-width 8 does not hold the uncertainties check's probe of "
        "sigma 7.07e+149")


def test_cli_run_accepts_a_small_mass(tmp_path, capsys):
    # m omega = 1e-7: the rotational form's rows differ in scale by 1e14
    raw = default_scenario().to_dict()
    raw["m"] = 1e-7
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["params"]["m"] == 1e-7


def test_cli_check_at_an_overflowing_hbar_is_a_config_error(tmp_path, capsys):
    # hbar^2 overflows, where the unitary group's generator has no finite
    # matrix; the domain gate rejects it before any group runs
    raw = default_scenario().to_dict()
    raw["hbar"] = 1e300
    raw["checks"] = {name: name == "unitary" for name in lab.CHECK_NAMES}
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["check", "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: hbar: hbar^2 is past the float range\n"


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


@pytest.mark.parametrize("m, omega", [(1e-300, 1e200), (1e300, 1e-200), (1e-160, 1e160),
                                      (1e160, 1e-160)])
@pytest.mark.parametrize("command", ["run", "check", "pairs"])
def test_cli_omega_squared_past_the_float_range_is_a_config_error(command, m, omega, tmp_path,
                                                                  capsys):
    # the standard Hamiltonians and the oscillator field form omega^2 by itself:
    # past the float range it ended each command in an OverflowError, and
    # flushed to 0 it dropped S0's potential, so run exited 0 with a pair
    # residual of 1e-100 and check failed its unitary group
    raw = default_scenario().to_dict()
    raw.update(m=m, omega=omega)
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main([command, "--scenario", str(scn_path)]) == 2
    assert capsys.readouterr() == ("", "config error: omega: omega^2 is past the float range\n")


def test_cli_pairs_labels_the_hamiltonians_at_a_large_mass(tmp_path, capsys):
    # at m = 1e20, omega = 1e-20 (m omega = 1) each Hessian is of order 1e-20,
    # below an absolute 1e-10, and all four Hamiltonians were labelled bounded
    raw = default_scenario().to_dict()
    raw.update(m=1e20, omega=1e-20)
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["pairs", "--scenario", str(scn_path)]) == 0
    labels = re.findall(r"^    residual \S+, ([a-z-]+), ", capsys.readouterr().out, re.M)
    assert labels == ["bounded-below", "unbounded", "unbounded", "unbounded"]


@pytest.mark.parametrize("m, omega, name", [(1e-300, 1e-300, "m omega"),
                                             (1e-320, 1.0, "m omega"),
                                             (1e308, 1.0, "1/(m omega)")])
@pytest.mark.parametrize("command", ["run", "check", "pairs"])
def test_cli_m_omega_past_the_float_range_is_a_config_error(command, m, omega, name,
                                                            tmp_path, capsys):
    # m omega underflows to 0 or to a subnormal, or 1/(m omega) to a
    # subnormal, where the bracket matrices would divide by zero, hold inf or
    # keep a few digits
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
    # the gate runs before the scheme list and the standard pairs are built,
    # and each grid group would divide by m omega = 0 on its own
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
        return run_checks(scenario_from_dict(raw))[-1]

    assert unitary(m) == unitary(1.0)
    assert unitary(m).status == "pass"


@pytest.mark.parametrize("key, value", [("m", 1e-300), ("omega", 1e300), ("hbar", 1e300)])
def test_cli_run_with_moments_past_the_float_range_is_a_config_error(key, value, tmp_path,
                                                                     capsys):
    # the moments overflow to inf or nan.  At omega or hbar = 1e300 the
    # domain gate sees it in m omega^2 or hbar^2; at m = 1e-300 every
    # coefficient is a normal float, and the moments check catches it.  A
    # RuntimeWarning is an error in this suite, so no numpy warning escapes.
    expected = {"m": "m, omega, hbar: non-finite moments for scheme 0",
                "omega": "m, omega: m omega^2 is past the float range",
                "hbar": "hbar: hbar^2 is past the float range"}[key]
    raw = default_scenario().to_dict()
    raw[key] = value
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {expected}\n"


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_cli_run_with_sigma_squared_past_the_float_range_is_a_config_error(scale, tmp_path,
                                                                         capsys):
    # 4 sigma^2 overflows, where sigma ** 2 raised OverflowError, or
    # underflows to 0, where the envelope divided by 0 with a RuntimeWarning;
    # the packet's own sigma is at fault on a grid of its scale and on the default one
    for grid in ({"L": scale, "N": 16}, {"L": 8.0, "N": 64}):
        raw = default_scenario().to_dict()
        raw["packet"]["sigma"] = scale
        raw["grid"] = grid
        scn_path = tmp_path / "scn.json"
        scn_path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--scenario", str(scn_path), "--no-timestamp"]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: packet.sigma: cannot sample the packet: "
                                f"4 sigma^2 is past the float range at sigma = {scale!r}\n")


def test_cli_check_with_a_probe_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # every coefficient is a normal float, but hbar/(m omega) = 1.2e308 sets
    # the ground probe's sigma to 7.77e153, and its 4 sigma^2 overflows:
    # m, omega, hbar set that width, not the grid
    raw = default_scenario().to_dict()
    raw.update(m=0.293, omega=2.83e-154, hbar=1e154)
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(raw))
    assert main(["check", "--scenario", str(scn_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: m, omega, hbar: cannot sample the commutators "
                            "check's probe: 4 sigma^2 is past the float range at "
                            "sigma = 7.765295271822864e+153\n")


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
              "assert {r.status for r in lab.run_checks(scenario)} == {'pass'}\n"
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
# sympy 1.14 on x86-64, the same with OPENBLAS_NUM_THREADS=1 and 2; a
# refactor that moves any printed digit changes these
GOLDEN_STDOUT_SHA256 = {
    ("pairs",): "71452173e3fef0609d59fe2bbbe3091092591edc720e389d3e972282af7337a6",
    ("run", "--no-timestamp"):
        "f803f98eea5beb8e96ba4f3ec34ab0e0539eb23652ad3e41c931521f49e7eaf5",
    ("run", "--format", "csv", "--no-timestamp"):
        "195503e221d692e7830f2cd8974af2769bbc2c74fbc0076691f452ae75d50c54",
    ("check",): "d4e033cfaf4bb810d0fcce83f31cf9fb094286a436dc3a10a4d0610884823ef9",
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
    ("check",): "63a0446aaa09cb74aeb69a1ef7763e059ae37f68c987de7decf78b7c6ed81092",
    ("run", "--no-timestamp"):
        "21c5208a9bef6d81dc2904c260824a779c3fc9804e9139586c27283fbcde2ec4",
    ("run", "--format", "csv", "--no-timestamp"):
        "9f6664d743134a7f846bf8782a533477d1b56b18b1bdb0b00007f5770f2fda18",
}


@pytest.mark.parametrize("argv", sorted(BENCHMARK_LIKE_STDOUT_SHA256), ids=" ".join)
def test_benchmark_like_scenario_stdout_is_byte_identical(argv, tmp_path, capsys):
    assert main([*argv, "--scenario", str(_benchmark_like_scenario(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_LIKE_STDOUT_SHA256[argv]


@pytest.mark.parametrize("scenario", ["default", "benchmark-like"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(scenario, tmp_path):
    # OpenBLAS splits a long dot product across its threads, which moves its
    # roundoff; `run` and `check` print the same bytes on one thread and on two
    scn = [] if scenario == "default" else ["--scenario", str(_benchmark_like_scenario(tmp_path))]
    for argv in (["run", "--no-timestamp"], ["check"]):
        outputs = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "symquant", *argv, *scn],
                                  capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, ""), (argv, threads)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


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
