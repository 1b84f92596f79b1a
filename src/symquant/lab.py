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
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Mapping, Sequence

import numpy as np

from ._version import __version__
from .flow import conserved_along_flow, default_sample_times, PhaseState, pullback_deviation, flow_jacobian
from .operators import GaussianPacket, GridSpec, WaveFunction
from .pairs import oscillator_field, standard_pairs, verify_pair
from .phasespace import PhysParams, validate_form
from .quantum import (
    CANONICAL_PAIRS,
    OBSERVABLES,
    SCHEME_IDS,
    _spread_product,
    commutator_table_check,
    ground_packet,
    heisenberg_moments,
    scheme,
    uncertainty_bound,
    uncertainty_product,
    unitary_conjugation_check,
)

CHECK_NAMES = ("pairs", "flow", "commutators", "uncertainties", "unitary")

_RNG_SEED = 20240731


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
            "times": list(self.times),
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
    value = float(value)
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
    except OSError as exc:
        raise ScenarioError(f"scenario: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario: invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportCell:
    scheme: int
    observable: str
    time: float
    mean: complex
    variance: float


@dataclass(frozen=True)
class UncertaintyRow:
    scheme: int
    pair: tuple[str, str]
    time: float
    product: float
    bound: float
    satisfied: bool


@dataclass(frozen=True)
class Report:
    cells: tuple[ReportCell, ...]
    uncertainties: tuple[UncertaintyRow, ...]
    pair_residuals: tuple[float, ...]
    metadata: dict

    def to_dict(self, include_timestamp: bool = True) -> dict:
        meta = dict(self.metadata)
        if include_timestamp:
            meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        return {
            "metadata": meta,
            "cells": [
                {"scheme": c.scheme, "observable": c.observable, "time": c.time,
                 "mean_re": c.mean.real, "mean_im": c.mean.imag,
                 "variance": c.variance}
                for c in self.cells
            ],
            "uncertainties": [
                {"scheme": u.scheme, "pair": list(u.pair), "time": u.time,
                 "product": u.product, "bound": u.bound, "satisfied": u.satisfied}
                for u in self.uncertainties
            ],
            "pair_residuals": [
                {"scheme": i, "max_abs_residual": r}
                for i, r in enumerate(self.pair_residuals)
            ],
        }


def _pair_residuals(params: PhysParams) -> tuple[float, ...]:
    field = oscillator_field(params.m, params.omega)
    out = []
    for pair in standard_pairs(params.m, params.omega):
        residual = verify_pair(pair, field)
        out.append(max(comp.max_abs_coefficient() for comp in residual))
    return tuple(out)


def _sample(packet: GaussianPacket, grid: GridSpec) -> WaveFunction:
    try:
        return packet.sample(grid)
    except ValueError as exc:
        raise ScenarioError(f"grid.L: cannot sample a packet on this grid: {exc}") from None


def run_scenario(config: Scenario) -> Report:
    """Evaluate every requested (scheme, observable, time) cell plus extras."""
    psi = _sample(config.packet, config.grid)
    # after sampling, so a grid no packet can be sampled on reports grid.L
    if config.grid.spacing > config.packet.sigma:
        raise ScenarioError(f"grid: spacing {config.grid.spacing:.3g} exceeds packet.sigma "
                            f"{config.packet.sigma:.3g}; the packet is not resolved")
    cells = []
    uncertainties = []
    for sid in config.schemes:
        s = scheme(sid, config.params)
        means, variances = heisenberg_moments(s, psi, config.times)
        if not (np.isfinite(means).all() and np.isfinite(variances).all()):
            raise RuntimeError(f"non-finite moments for scheme {sid}")
        for name in config.observables:
            i = OBSERVABLES.index(name)
            cells.extend(ReportCell(scheme=sid, observable=name, time=float(t),
                                    mean=complex(means[k, i]), variance=float(variances[k, i]))
                         for k, t in enumerate(config.times))
        for pair in CANONICAL_PAIRS[sid]:
            bound = float(uncertainty_bound(s, pair))
            for k, t in enumerate(config.times):
                product = _spread_product(variances[k], pair)
                uncertainties.append(UncertaintyRow(
                    scheme=sid, pair=pair, time=float(t), product=product,
                    bound=bound, satisfied=product >= bound - 1e-9))
    metadata = {
        "version": __version__,
        "params": {"m": config.params.m, "omega": config.params.omega,
                   "hbar": config.params.hbar},
        "grid": {"L": config.grid.half_width, "N": config.grid.points},
        "packet": {"center": list(config.packet.center),
                   "wavevector": list(config.packet.wavevector),
                   "sigma": config.packet.sigma},
        "schemes": list(config.schemes),
        "observables": list(config.observables),
        "times": [float(t) for t in config.times],
    }
    return Report(cells=tuple(cells), uncertainties=tuple(uncertainties),
                  pair_residuals=_pair_residuals(config.params), metadata=metadata)


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


# deliberately symmetric: used by the --corrupt-form test fixture
_CORRUPT_FORM = ((0, 0, 1, 0),
                 (0, 0, 0, 1),
                 (1, 0, 0, 0),
                 (0, 1, 0, 0))


def _check_pairs(config: Scenario, corrupt_form: bool) -> CheckResult:
    params = config.params
    field = oscillator_field(params.m, params.omega)
    pairs = standard_pairs(params.m, params.omega)
    candidates = [pair.form.upper for pair in pairs]
    if corrupt_form:
        candidates[0] = _CORRUPT_FORM
    worst = 0.0
    for mu, candidate in enumerate(candidates):
        report = validate_form(candidate)
        if not report.ok:
            return CheckResult("pairs", "fail",
                               f"form {mu} rejected: {report.reason}")
        residual = verify_pair(pairs[mu], field)
        worst = max(worst, max(c.max_abs_coefficient() for c in residual))
    tol = 1e-12 * max(1.0, params.m * params.omega ** 2)
    status = "pass" if worst <= tol else "fail"
    return CheckResult("pairs", status, f"max residual {worst:.3e}")


def _check_flow(config: Scenario) -> CheckResult:
    params = config.params
    rng = np.random.default_rng(_RNG_SEED)
    times = rng.uniform(0.0, 4.0 * math.pi / params.omega, size=20)
    worst_pullback = 0.0
    for pair in standard_pairs(params.m, params.omega):
        for t in times:
            worst_pullback = max(worst_pullback,
                                 pullback_deviation(flow_jacobian(float(t), params),
                                                    pair.form))
    state = PhaseState(0.9, -0.4, 0.3, 1.1)
    sample_times = default_sample_times(params)
    worst_drift = 0.0
    for pair in standard_pairs(params.m, params.omega):
        worst_drift = max(worst_drift,
                          conserved_along_flow(pair.hamiltonian, state,
                                               sample_times, params))
    ok = worst_pullback <= 1e-12 and worst_drift <= 1e-10
    return CheckResult("flow", "pass" if ok else "fail",
                       f"max pullback deviation {worst_pullback:.3e}, "
                       f"max conserved-quantity drift {worst_drift:.3e}")


def _check_commutators(config: Scenario) -> CheckResult:
    probe = _sample(ground_packet(config.params), config.grid)
    worst = 0.0
    localized = True
    for sid in config.schemes:
        chk = commutator_table_check(scheme(sid, config.params), probe)
        worst = max(worst, chk.max_deviation)
        localized = localized and chk.localized
    if not localized:
        return CheckResult("commutators", "warn",
                           f"probe state not localized on this grid; "
                           f"max deviation {worst:.3e}")
    status = "pass" if worst <= 1e-8 else "fail"
    return CheckResult("commutators", status, f"max deviation {worst:.3e}")


def _check_uncertainties(config: Scenario) -> CheckResult:
    params = config.params
    rng = np.random.default_rng(_RNG_SEED)
    grid = config.grid
    worst_saturation = 0.0
    worst_margin = math.inf
    delocalized = 0
    probes = [ground_packet(params)]
    for _ in range(8):
        probes.append(GaussianPacket(
            center=tuple(rng.uniform(-0.8, 0.8, size=2) * params.sigma_ref),
            wavevector=tuple(rng.uniform(-1.2, 1.2, size=2) / params.sigma_ref),
            sigma=float(rng.uniform(0.6, 1.2)) * params.ground_sigma,
        ))
    t_probe = 0.3 / params.omega
    for sid in config.schemes:
        s = scheme(sid, params)
        for idx, packet in enumerate(probes):
            psi = _sample(packet, grid)
            # variance quadrature error scales with the squared boundary
            # magnitude, so 1e-7 here protects the 1e-9 bound margin
            if psi.boundary_magnitude() >= 1e-7:
                delocalized += 1
                continue
            for pair in CANONICAL_PAIRS[sid]:
                product = uncertainty_product(s, pair, psi, t_probe)
                bound = uncertainty_bound(s, pair)
                worst_margin = min(worst_margin, product - bound)
                if idx == 0:
                    worst_saturation = max(worst_saturation, abs(product - bound))
    if worst_margin is math.inf:
        return CheckResult("uncertainties", "warn",
                           "no probe packet is localized on this grid")
    ok = worst_margin >= -1e-9 and worst_saturation <= 1e-6
    detail = (f"ground saturation gap {worst_saturation:.3e}, "
              f"worst bound margin {worst_margin:+.3e}")
    if delocalized:
        detail += f", {delocalized} delocalized probes skipped"
    return CheckResult("uncertainties", "pass" if ok else "fail", detail)


def _check_unitary(config: Scenario) -> CheckResult:
    params = config.params
    grid = GridSpec(half_width=8.0 * params.sigma_ref, points=32)
    worst = 0.0
    for sid in config.schemes:
        s = scheme(sid, params)
        for which, t in (("x", 0.6 / params.omega), ("p_x", 1.1 / params.omega)):
            worst = max(worst, unitary_conjugation_check(s, which, t, grid))
    status = "pass" if worst <= 1e-5 else "fail"
    return CheckResult("unitary", status, f"max conjugation deviation {worst:.3e}")


def run_checks(config: Scenario, corrupt_form: bool = False) -> CheckSummary:
    """Run the enabled verification groups; exit code is nonzero iff one fails."""
    runners = {
        "pairs": lambda: _check_pairs(config, corrupt_form),
        "flow": lambda: _check_flow(config),
        "commutators": lambda: _check_commutators(config),
        "uncertainties": lambda: _check_uncertainties(config),
        "unitary": lambda: _check_unitary(config),
    }
    results = []
    for name in CHECK_NAMES:
        if config.checks.get(name, True):
            results.append(runners[name]())
        else:
            results.append(CheckResult(name, "skipped", "disabled in scenario"))
    return CheckSummary(results=tuple(results))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

CSV_HEADER = "scheme,observable,time,mean_re,mean_im,variance"


def report_to_csv(report: Report) -> str:
    lines = [CSV_HEADER]
    for c in report.cells:
        lines.append(",".join([
            str(c.scheme), c.observable, repr(float(c.time)),
            repr(float(c.mean.real)), repr(float(c.mean.imag)),
            repr(float(c.variance)),
        ]))
    return "\n".join(lines) + "\n"


def report_to_json(report: Report, include_timestamp: bool = True) -> str:
    return json.dumps(report.to_dict(include_timestamp=include_timestamp),
                      indent=2, sort_keys=True) + "\n"


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
        import sys

        sys.stdout.write(payload)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
