"""Scenario configuration, batch execution across schemes, and report emission.

A scenario is a flat JSON document; a report tabulates Heisenberg-picture means
and variances per (scheme, observable, time), uncertainty products with their
algebra bounds, and the residuals certifying the four standard pairs.  Reports
are deterministic: identical scenarios produce byte-identical JSON once the
timestamp is suppressed.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Mapping, Sequence

import numpy as np

from ._version import __version__
from .flow import (default_sample_times, flow_jacobian, PhaseState, verify_conserved,
                   verify_flow_symplectic)
from .operators import GaussianPacket, GridSpec, WaveFunction
from .pairs import oscillator_field, standard_pairs, verify_pair
from .phasespace import PhysParams
from .quantum import (
    CANONICAL_PAIRS,
    OBSERVABLES,
    SCHEME_IDS,
    QuantizationScheme,
    commutator_table_check,
    conjugation_deviations,
    conjugation_probe,
    ground_packet,
    heisenberg_moments,
    scheme,
    uncertainty_bound,
)

CHECK_NAMES = ("pairs", "flow", "commutators", "uncertainties", "unitary")

_RNG_SEED = 20240731

# the first 40 doubles of np.random.default_rng(_RNG_SEED).random(), the draws
# behind the flow group's sample times and the uncertainty group's probe
# packets; kept as constants so that `check` does not import numpy.random
_UNIFORM_DRAWS = (
    0.27557315400497695, 0.7386993177220694, 0.2902401553800298, 0.4066986564512065,
    0.7477791199557683, 0.8431337291757494, 0.17286889987076826, 0.9499917921960244,
    0.11240285027671604, 0.6371687495253416, 0.8236665998755079, 0.19216478280763705,
    0.5839426375453746, 0.5972369730966768, 0.05545916522196648, 0.204946980745089,
    0.7788524168085869, 0.05585232216890801, 0.6111001372009922, 0.7639992619327425,
    0.9728486594905101, 0.4620591201763832, 0.5793396120736729, 0.74993622495783,
    0.6163491747628308, 0.8167277111383258, 0.28696834078398503, 0.8393631815386352,
    0.2621954379272128, 0.4702794821887426, 0.18798636264324575, 0.8664003640823403,
    0.4228884603247234, 0.03164359148275875, 0.2996008532391481, 0.09354615965823043,
    0.8709180488055167, 0.6203996551335254, 0.6999590201085526, 0.01076168346178763,
)


def _uniform(lo: float, hi: float, u: float) -> float:
    """lo + (hi - lo) u, the map `Generator.uniform` applies to each of its draws."""
    return lo + (hi - lo) * u


# an uncertainty product this far below its Robertson bound, relative to
# max(1, bound), still satisfies it; the bounds of schemes 1-3 scale as
# hbar m omega and hbar / (m omega)
_ROBERTSON_SLACK = 1e-9
# a sampled state of boundary magnitude b at least this is delocalized: the
# tails the grid cuts off pull a product below its bound by about 5 b^2 at
# most, which this keeps at half the slack; the seam's error, about
# +7 (sigma / h) b^2 in a momentum variance, only raises a product
_BOUNDARY_LIMIT = math.sqrt(_ROBERTSON_SLACK / 10.0)


class ScenarioError(ValueError):
    """Configuration problem; the message starts with the offending key path."""


@dataclass(frozen=True)
class Scenario:
    params: PhysParams
    packet: GaussianPacket
    schemes: tuple[int, ...]
    observables: tuple[str, ...]
    times: tuple[float, ...]
    grid: GridSpec
    checks: Mapping[str, bool]

    def to_dict(self) -> dict:
        """The scenario document; `times` are written as floats, whatever built them."""
        return {
            "m": self.params.m,
            "omega": self.params.omega,
            "hbar": self.params.hbar,
            "packet": {
                "center": list(self.packet.center),
                "wavevector": list(self.packet.wavevector),
                "sigma": self.packet.sigma,
            },
            "schemes": list(self.schemes),
            "observables": list(self.observables),
            "times": [float(t) for t in self.times],
            "grid": {"L": self.grid.half_width, "N": self.grid.points},
            "checks": dict(self.checks),
        }

    def with_grid(self, points: int | None = None,
                  half_width: float | None = None) -> "Scenario":
        grid = self.grid
        try:
            grid = GridSpec(
                half_width=grid.half_width if half_width is None else float(half_width),
                points=grid.points if points is None else int(points),
            )
        except ValueError as exc:
            raise ScenarioError(f"grid: {exc}") from None
        return replace(self, grid=grid)


def _ensure_number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: must be a number")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: must be finite")
    if positive and value <= 0:
        raise ScenarioError(f"{path}: must be positive")
    return value


def _number(raw: dict, key: str, path: str, positive: bool = False) -> float:
    if key not in raw:
        raise ScenarioError(f"{path}{key}: missing")
    return _ensure_number(raw[key], f"{path}{key}", positive=positive)


def _point2(raw: dict, key: str, path: str) -> tuple[float, float]:
    value = raw.get(key)
    if not isinstance(value, Sequence) or isinstance(value, str) or len(value) != 2:
        raise ScenarioError(f"{path}{key}: must be a pair of numbers")
    return tuple(_ensure_number(v, f"{path}{key}[{i}]")
                 for i, v in enumerate(value))  # type: ignore[return-value]


def scenario_from_dict(raw: dict) -> Scenario:
    """Parse/validate a flat scenario document; errors name the offending key."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: must be a JSON object")
    known = {"m", "omega", "hbar", "packet", "schemes", "observables",
             "times", "grid", "checks"}
    for key in raw:
        if key not in known:
            raise ScenarioError(f"{key}: unknown key")

    params = PhysParams(m=_number(raw, "m", "", positive=True),
                        omega=_number(raw, "omega", "", positive=True),
                        hbar=_number(raw, "hbar", "", positive=True))

    packet_raw = raw.get("packet")
    if not isinstance(packet_raw, dict):
        raise ScenarioError("packet: must be an object")
    packet = GaussianPacket(
        center=_point2(packet_raw, "center", "packet."),
        wavevector=_point2(packet_raw, "wavevector", "packet."),
        sigma=_number(packet_raw, "sigma", "packet.", positive=True),
    )

    schemes_raw = raw.get("schemes")
    if not isinstance(schemes_raw, list) or not schemes_raw:
        raise ScenarioError("schemes: must be a nonempty list")
    schemes = []
    for i, sid in enumerate(schemes_raw):
        if isinstance(sid, bool) or not isinstance(sid, int) or sid not in SCHEME_IDS:
            raise ScenarioError(f"schemes[{i}]: must be one of 0, 1, 2, 3")
        if sid not in schemes:
            schemes.append(sid)

    observables_raw = raw.get("observables")
    if not isinstance(observables_raw, list) or not observables_raw:
        raise ScenarioError("observables: must be a nonempty list")
    observables = []
    for i, name in enumerate(observables_raw):
        if name not in OBSERVABLES:
            raise ScenarioError(f"observables[{i}]: must be one of {', '.join(OBSERVABLES)}")
        if name not in observables:
            observables.append(name)

    times_raw = raw.get("times")
    if not isinstance(times_raw, list) or not times_raw:
        raise ScenarioError("times: must be a nonempty list")
    times = tuple(_ensure_number(t, f"times[{i}]") for i, t in enumerate(times_raw))

    grid_raw = raw.get("grid")
    if not isinstance(grid_raw, dict):
        raise ScenarioError("grid: must be an object")
    n_raw = grid_raw.get("N")
    if isinstance(n_raw, bool) or not isinstance(n_raw, int):
        raise ScenarioError("grid.N: must be an integer")
    half_width = _number(grid_raw, "L", "grid.", positive=True)
    try:
        grid = GridSpec(half_width=half_width, points=n_raw)
    except ValueError as exc:
        raise ScenarioError(f"grid.N: {exc}") from None

    checks_raw = raw.get("checks", {})
    if not isinstance(checks_raw, dict):
        raise ScenarioError("checks: must be an object")
    checks = {}
    for name in CHECK_NAMES:
        value = checks_raw.get(name, True)
        if not isinstance(value, bool):
            raise ScenarioError(f"checks.{name}: must be true or false")
        checks[name] = value
    for key in checks_raw:
        if key not in CHECK_NAMES:
            raise ScenarioError(f"checks.{key}: unknown check")

    return Scenario(params=params, packet=packet, schemes=tuple(schemes),
                    observables=tuple(observables), times=times, grid=grid,
                    checks=checks)


def default_scenario() -> Scenario:
    """Unit oscillator, the reference wavepacket, three times over a quarter period."""
    return Scenario(
        params=PhysParams(1.0, 1.0, 1.0),
        packet=GaussianPacket(center=(1.0, 0.0), wavevector=(1.0, 0.0),
                              sigma=1.0 / math.sqrt(2.0)),
        schemes=(0, 1, 2, 3),
        observables=OBSERVABLES,
        times=(0.0, math.pi / 4.0, math.pi / 2.0),
        grid=GridSpec(half_width=8.0, points=128),
        checks={name: True for name in CHECK_NAMES},
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario: cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"scenario: invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SchemeColumns:
    """One scheme's share of a report, as Python numbers with one entry per time.

    `cells` holds (observable, mean_re, mean_im, variance) for each requested
    observable in request order; `rows` holds (pair, bound, product,
    satisfied) for each canonical pair of the scheme.
    """

    scheme: int
    times: list[float]
    cells: tuple[tuple[str, list[float], list[float], list[float]], ...]
    rows: tuple[tuple[tuple[str, str], float, list[float], list[bool]], ...]


@dataclass(frozen=True)
class Report:
    """A run's tabulated moments, uncertainty rows, pair residuals and metadata.

    The moments and uncertainty rows are one `_SchemeColumns` per scheme, in
    request order; the writers read them column by column.
    """

    columns: tuple[_SchemeColumns, ...]
    pair_residuals: tuple[float, ...]
    metadata: dict


def _pair_residuals(params: PhysParams, pairs) -> tuple[float, ...]:
    """The pair certificate: max |coefficient| of each pair's `verify_pair` residual.

    `pairs` are `standard_pairs(params.m, params.omega)`, which the caller
    builds once and may use for more than the certificate.
    """
    field = oscillator_field(params.m, params.omega)
    return tuple(max(c.max_abs_coefficient() for c in verify_pair(pair, field))
                 for pair in pairs)


def _require_m_omega(params: PhysParams) -> None:
    """Reject an m omega or 1/(m omega) that is zero or not finite.

    The schemes' assignments and the bracket matrices hold both, so each must
    be a positive float: m = omega = 1e-300 (m omega underflows) and m = 1e-320
    (1/(m omega) overflows) are config errors.
    """
    m_omega = params.m * params.omega
    for name, value in (("m omega", m_omega), ("1/(m omega)", 1.0 / m_omega if m_omega else 0.0)):
        if not 0.0 < value < math.inf:
            raise ScenarioError(f"m, omega: {name} is past the float range")


def _standard_pairs(params: PhysParams):
    """`standard_pairs` at the scenario's m and omega, after `_require_m_omega`;
    an m omega^2 that is zero or not finite (omega = 1e160) is a config error too."""
    _require_m_omega(params)
    if not 0.0 < params.m * params.omega * params.omega < math.inf:
        raise ScenarioError("m, omega: m omega^2 is past the float range")
    return standard_pairs(params.m, params.omega)


def _sample(packet: GaussianPacket, grid: GridSpec, probe: str | None = None) -> WaveFunction:
    """Sample a packet; a grid that cannot sample or resolve it, or hold a check's
    probe, is a config error.  `probe` names that check group; None is the scenario."""
    try:
        psi = packet.sample(grid)
    except ValueError as exc:
        raise ScenarioError(f"grid.L: cannot sample a packet on this grid: {exc}") from None
    # after sampling, so a grid no packet can be sampled on reports grid.L
    if grid.spacing > packet.sigma:
        sigma, subject = (("packet.sigma", "the packet") if probe is None
                          else (f"the {probe} check's probe sigma", "the probe"))
        raise ScenarioError(f"grid: spacing {grid.spacing:.3g} exceeds {sigma} "
                            f"{packet.sigma:.3g}; {subject} is not resolved")
    if probe is not None and packet.sigma > grid.half_width:
        raise ScenarioError(f"grid: half-width {grid.half_width:.3g} is below the {probe} "
                            f"check's probe sigma {packet.sigma:.3g}; the probe does not fit")
    return psi


def _scheme_columns(s: QuantizationScheme, means: np.ndarray, variances: np.ndarray,
                    times: list[float], observables: Sequence[str]) -> _SchemeColumns:
    """One scheme's cells and uncertainty rows from its (T, 4) means and variances.

    The moments become Python floats once; each spread is sqrt(max(v, 0.0)),
    which keeps a variance of -0.0 as -0.0, and a product satisfies its
    Robertson bound when it is at most _ROBERTSON_SLACK max(1, bound) below it.
    """
    mean_re, mean_im, var = means.real.T.tolist(), means.imag.T.tolist(), variances.T.tolist()
    spread = [[math.sqrt(max(v, 0.0)) for v in column] for column in var]
    rows = []
    for pair in CANONICAL_PAIRS[s.id]:
        a, b = (spread[OBSERVABLES.index(name)] for name in pair)
        products = [x * y for x, y in zip(a, b)]
        bound = float(uncertainty_bound(s, pair))
        limit = bound - _ROBERTSON_SLACK * max(1.0, bound)
        rows.append((pair, bound, products, [p >= limit for p in products]))
    indices = [OBSERVABLES.index(name) for name in observables]
    return _SchemeColumns(
        scheme=s.id, times=times,
        cells=tuple((name, mean_re[i], mean_im[i], var[i]) for name, i in zip(observables, indices)),
        rows=tuple(rows))


def run_scenario(config: Scenario) -> Report:
    """Evaluate every requested (scheme, observable, time) cell plus extras.

    Each scheme's columns come from `_scheme_columns`.  An m omega or 1/(m
    omega) past the float range is a config error before any grid work, and so
    are moments that leave the float range, as at m = 1e-300 or omega or hbar =
    1e300.
    """
    _require_m_omega(config.params)
    psi = _sample(config.packet, config.grid)
    boundary = psi.boundary_magnitude()
    if boundary >= _BOUNDARY_LIMIT:
        raise ScenarioError(f"grid: packet boundary magnitude {boundary:.3e} reaches "
                            f"{_BOUNDARY_LIMIT:.0e}; the packet is not localized on the grid")
    times = [float(t) for t in config.times]
    schemes = [scheme(sid, config.params) for sid in config.schemes]
    with np.errstate(over="ignore", invalid="ignore"):
        moments = heisenberg_moments(schemes, psi, config.times)
    columns = []
    for s, (means, variances) in zip(schemes, moments):
        if not (np.isfinite(means).all() and np.isfinite(variances).all()):
            raise ScenarioError(f"m, omega, hbar: non-finite moments for scheme {s.id}")
        columns.append(_scheme_columns(s, means, variances, times, config.observables))
    metadata = config.to_dict()
    del metadata["checks"]
    metadata["params"] = {key: metadata.pop(key) for key in ("m", "omega", "hbar")}
    metadata["version"] = __version__
    return Report(tuple(columns), _pair_residuals(config.params, _standard_pairs(config.params)),
                  metadata)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "warn" | "skipped"
    detail: str


@dataclass(frozen=True)
class CheckSummary:
    results: tuple[CheckResult, ...]

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0


def _check_pairs(config: Scenario, pairs) -> CheckResult:
    """The largest of the pair residuals `run` reports, against 1e-12 max(1, m omega^2)."""
    params = config.params
    worst = max(_pair_residuals(params, pairs))
    tol = 1e-12 * max(1.0, params.m * params.omega ** 2)
    status = "pass" if worst <= tol else "fail"
    return CheckResult("pairs", status, f"max residual {worst:.3e}")


def _check_flow(config: Scenario, pairs) -> CheckResult:
    """Flow checks; each verdict is `flow`'s, relative to the size of what it compares.

    The entries of W3 and of the flow map scale as m omega and 1/(m omega), so
    absolute bounds fail on roundoff at small m omega; the printed maxima stay
    absolute.
    """
    params = config.params
    times = [_uniform(0.0, 4.0 * math.pi / params.omega, u) for u in _UNIFORM_DRAWS[:20]]
    jacobians = np.array([flow_jacobian(t, params) for t in times])
    state, sample_times = PhaseState(0.9, -0.4, 0.3, 1.1), default_sample_times(params)
    pullbacks = [check for pair in pairs
                 for check in verify_flow_symplectic(pair.form, jacobians)]
    drifts = [verify_conserved(pair.hamiltonian, state, sample_times, params) for pair in pairs]
    ok = all(check.ok for check in pullbacks + drifts)
    worst_pullback = max([0.0] + [check.max_deviation for check in pullbacks])
    worst_drift = max([0.0] + [check.max_drift for check in drifts])
    return CheckResult("flow", "pass" if ok else "fail",
                       f"max pullback deviation {worst_pullback:.3e}, "
                       f"max conserved-quantity drift {worst_drift:.3e}")


def _check_commutators(config: Scenario) -> CheckResult:
    """Each scheme's commutator table on the ground packet; the six primitive
    commutators of the probe are formed once and serve every scheme, and each
    deviation is bounded by 1e-8 max(1, max |T_ij|) of the scheme's table T."""
    probe = _sample(ground_packet(config.params), config.grid, "commutators")
    schemes = [scheme(sid, config.params) for sid in config.schemes]
    checks = commutator_table_check(schemes, probe)
    worst = max([0.0] + [check.max_deviation for check in checks])
    if not all(check.localized for check in checks):
        return CheckResult("commutators", "warn",
                           f"probe state not localized on this grid; "
                           f"max deviation {worst:.3e}")
    ok = all(check.max_deviation <= 1e-8 * max(1.0, float(np.abs(s.commutators).max()))
             for s, check in zip(schemes, checks))
    return CheckResult("commutators", "pass" if ok else "fail", f"max deviation {worst:.3e}")


def _check_uncertainties(config: Scenario) -> CheckResult:
    """Robertson bounds on nine probe packets; the first, the ground packet,
    saturates each bound to within 1e-6 max(1, bound)."""
    params = config.params
    worst_saturation, worst_margin = 0.0, math.inf
    satisfied = saturated = True
    delocalized = 0
    probes = [ground_packet(params)]
    ref = params.sigma_ref
    for i in range(0, 40, 5):  # five draws per probe: centre, wavevector, width
        u = _UNIFORM_DRAWS[i:i + 5]
        probes.append(GaussianPacket(
            center=(_uniform(-0.8, 0.8, u[0]) * ref, _uniform(-0.8, 0.8, u[1]) * ref),
            wavevector=(_uniform(-1.2, 1.2, u[2]) / ref, _uniform(-1.2, 1.2, u[3]) / ref),
            sigma=_uniform(0.6, 1.2, u[4]) * params.ground_sigma,
        ))
    t_probe = 0.3 / params.omega
    schemes = [scheme(sid, params) for sid in config.schemes]
    # probes outer: each is sampled once and its primitive Gram matrix serves
    # every scheme, and one field is held at a time
    for idx, packet in enumerate(probes):
        psi = _sample(packet, config.grid, "uncertainties")
        if psi.boundary_magnitude() >= _BOUNDARY_LIMIT:
            delocalized += len(schemes)
            continue
        for s, (means, variances) in zip(schemes, heisenberg_moments(schemes, psi, (t_probe,))):
            for _, bound, (product,), (holds,) in _scheme_columns(s, means, variances,
                                                                  [t_probe], ()).rows:
                satisfied = satisfied and holds
                worst_margin = min(worst_margin, product - bound)
                if idx == 0:
                    gap = abs(product - bound)
                    worst_saturation = max(worst_saturation, gap)
                    saturated = saturated and gap <= 1e-6 * max(1.0, bound)
    if worst_margin is math.inf:
        return CheckResult("uncertainties", "warn",
                           "no probe packet is localized on this grid")
    ok = satisfied and saturated
    detail = (f"ground saturation gap {worst_saturation:.3e}, "
              f"worst bound margin {worst_margin:+.3e}")
    if delocalized:
        detail += f", {delocalized} delocalized probes skipped"
    return CheckResult("uncertainties", "pass" if ok else "fail", detail)


def _check_unitary(config: Scenario) -> CheckResult:
    """Both conjugation probes of each scheme from one closed-form propagator.

    The probe packet is sampled once, on a grid of N = 48 that resolves it
    (at N = 32 the deviations are the grid's discretization error); a
    generator with no finite closed-form propagator at these parameters
    (hbar = 1e300) is a config error, and a deviation that is not a number
    fails the group.
    """
    params = config.params
    probes = (("x", 0.6 / params.omega), ("p_x", 1.1 / params.omega))
    deviations = [0.0]
    try:
        grid = GridSpec(half_width=8.0 * params.sigma_ref, points=48)
        psi = conjugation_probe(params, grid)
        for sid in config.schemes:
            deviations += conjugation_deviations(scheme(sid, params), psi, probes)
    except ValueError as exc:
        raise ScenarioError(f"m, omega, hbar: {exc}") from None
    # a nan deviation is the worst one, so it fails the group instead of vanishing in max()
    worst = max(deviations, key=lambda dev: math.inf if math.isnan(dev) else dev)
    status = "pass" if worst <= 1e-5 else "fail"
    return CheckResult("unitary", status, f"max conjugation deviation {worst:.3e}")


def run_checks(config: Scenario) -> CheckSummary:
    """Run the enabled verification groups; exit code is nonzero iff one fails.

    The pairs and flow groups share one `standard_pairs` call; an m omega or
    1/(m omega) past the float range is a config error whichever groups run.
    """
    _require_m_omega(config.params)
    enabled = {name: config.checks.get(name, True) for name in CHECK_NAMES}
    pairs = _standard_pairs(config.params) if enabled["flow"] or enabled["pairs"] else ()
    runners = {
        "pairs": lambda: _check_pairs(config, pairs),
        "flow": lambda: _check_flow(config, pairs),
        "commutators": lambda: _check_commutators(config),
        "uncertainties": lambda: _check_uncertainties(config),
        "unitary": lambda: _check_unitary(config),
    }
    return CheckSummary(results=tuple(
        runners[name]() if enabled[name] else CheckResult(name, "skipped", "disabled in scenario")
        for name in CHECK_NAMES))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

CSV_HEADER = "scheme,observable,time,mean_re,mean_im,variance"


# one CSV line per cell; %r writes a float as float.__repr__
_CELL_CSV = "%s,%s,%r,%r,%r,%r"


def report_to_csv(report: Report) -> str:
    """One line per cell, column by column, in the JSON report's cell order."""
    lines = [CSV_HEADER]
    for col in report.columns:
        for name, real, imag, var in col.cells:
            lines += [_CELL_CSV % (col.scheme, name, float(t), float(r), float(i), float(v))
                      for t, r, i, v in zip(col.times, real, imag, var)]
    return "\n".join(lines) + "\n"


# one cell and one uncertainty row of the report, laid out as
# json.dumps(indent=2, sort_keys=True) lays them out; %s writes an int as
# int.__repr__ and a float as float.__repr__, exactly as json.dumps does
_CELL_JSON = ('    {\n      "mean_im": %s,\n      "mean_re": %s,\n      "observable": %s,\n'
              '      "scheme": %s,\n      "time": %s,\n      "variance": %s\n    }')
_ROW_JSON = ('    {\n      "bound": %s,\n      "pair": [\n        %s,\n        %s\n      ],\n'
             '      "product": %s,\n      "satisfied": %s,\n      "scheme": %s,\n'
             '      "time": %s\n    }')
# a templated number that is nan or inf; a quoted string cannot end a line bare
_NON_FINITE = re.compile(r": -?(?:nan|inf),?$", re.MULTILINE)


def _json_block(value) -> str:
    """json.dumps of a top-level member, indented to sit inside the report object."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def report_to_json(report: Report, include_timestamp: bool = True) -> str:
    """The bytes json.dumps(doc, indent=2, sort_keys=True) + "\n" writes for the
    report: one object per cell, uncertainty row and pair residual, and the
    metadata with a UTC timestamp unless it is suppressed.

    Cells and uncertainty rows are read from the report's columns and written
    through one fixed template each, so neither they nor an intermediate dict
    pass through the standard library's pure-Python indenting encoder; only
    the small metadata and pair-residual blocks do.  Each column's times and
    each row's bound are formatted once.  Raises ValueError on nan or inf
    instead of writing NaN or Infinity, which are not JSON.
    """
    cells, rows = [], []
    for col in report.columns:
        times = [str(t) for t in col.times]
        for name, real, imag, var in col.cells:
            name = _quote(name)
            cells += [_CELL_JSON % (i, r, name, col.scheme, t, v)
                      for t, r, i, v in zip(times, real, imag, var)]
        for (a, b), bound, products, satisfied in col.rows:
            a, b, bound = _quote(a), _quote(b), str(bound)
            rows += [_ROW_JSON % (bound, a, b, p, "true" if ok else "false", col.scheme, t)
                     for t, p, ok in zip(times, products, satisfied)]
    cells, rows = _json_list(cells), _json_list(rows)
    if _NON_FINITE.search(cells) or _NON_FINITE.search(rows):
        raise ValueError("report holds nan or inf, which JSON cannot represent")
    metadata = dict(report.metadata)
    if include_timestamp:
        metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    residuals = [{"scheme": i, "max_abs_residual": r} for i, r in enumerate(report.pair_residuals)]
    return (f'{{\n  "cells": {cells},\n'
            f'  "metadata": {_json_block(metadata)},\n'
            f'  "pair_residuals": {_json_block(residuals)},\n'
            f'  "uncertainties": {rows}\n}}\n')


def emit_report(report: Report, fmt: str, path: str,
                include_timestamp: bool = True) -> None:
    """Write the report as CSV or JSON; '-' writes to stdout."""
    if fmt == "csv":
        payload = report_to_csv(report)
    elif fmt == "json":
        payload = report_to_json(report, include_timestamp=include_timestamp)
    else:
        raise ValueError(f"unknown format: {fmt!r}")
    if path == "-":
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
