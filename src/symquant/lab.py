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
import sys
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import accumulate, chain
from operator import mul
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._version import __version__
from .flow import (default_sample_times, flow_jacobian, PhaseState, verify_conserved,
                   verify_flow_symplectic)
from .operators import GaussianPacket, GridSpec
from .pairs import (_derivatives_at_zero, bracket_matrices, oscillator_field,
                    standard_hamiltonians, standard_pairs)
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


# an uncertainty product this far below its Robertson bound, relative to the
# bound, still satisfies it; no bound is 0, since CANONICAL_PAIRS holds only
# the pairs whose bracket is nonzero
_ROBERTSON_SLACK = 1e-9
# a packet whose boundary magnitude or spectral edge b (`_edges`) reaches this
# is delocalized: the tails the grid cuts off pull a product below its bound
# by about 5 b^2 at most, which this keeps at half the slack; the seam's
# error, about +7 (sigma / h) b^2 in a momentum variance, only raises one
_BOUNDARY_LIMIT = math.sqrt(_ROBERTSON_SLACK / 10.0)
# the periodic seam puts a commutator residual of at most about
# 2 (L / sigma) sqrt(sigma / (pi h)) b on a state of boundary magnitude b,
# some 160 b at the grid cap; a decade inside the commutator check's 1e-8
# bound that needs b <= 6e-12, and this is the decade below
_WARN_BOUNDARY = 1e-12


# a `run` of every scheme and observable peaks at about 16.3 KiB of RSS per
# time (ru_maxrss of the process: 33 MB at one time, 358 MB at 20,000), so
# this cap keeps it under the 2 GiB budget of `operators.MAX_POINTS`:
# 100,000 * 16.3 KiB = 1.55 GiB
MAX_TIMES = 100_000


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


def _reject_unknown(raw: dict, known: Sequence[str], path: str) -> None:
    for key in raw:
        if key not in known:
            raise ScenarioError(f"{path}{key}: unknown key")


def scenario_from_dict(raw: dict) -> Scenario:
    """Parse/validate a flat scenario document; errors name the offending key."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: must be a JSON object")
    _reject_unknown(raw, ("m", "omega", "hbar", "packet", "schemes", "observables",
                          "times", "grid", "checks"), "")

    params = PhysParams(m=_number(raw, "m", "", positive=True),
                        omega=_number(raw, "omega", "", positive=True),
                        hbar=_number(raw, "hbar", "", positive=True))

    packet_raw = raw.get("packet")
    if not isinstance(packet_raw, dict):
        raise ScenarioError("packet: must be an object")
    _reject_unknown(packet_raw, ("center", "wavevector", "sigma"), "packet.")
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
    if len(times_raw) > MAX_TIMES:
        raise ScenarioError(f"times: must hold at most {MAX_TIMES} times, "
                            "a memory budget of about 2 GiB")
    times = tuple(_ensure_number(t, f"times[{i}]") for i, t in enumerate(times_raw))

    grid_raw = raw.get("grid")
    if not isinstance(grid_raw, dict):
        raise ScenarioError("grid: must be an object")
    _reject_unknown(grid_raw, ("L", "N"), "grid.")
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


def _pair_entries(params: PhysParams, pairs):
    """Per (bracket matrix W, Hamiltonian S) of `pairs`, each entry (i, j) of
    W Hess(S) - A on 4 x 4 floats, with A the oscillator field's matrix, as
    (|entry|, row i of W, column j of Hess(S), A_ij).

    Entry (mu, k) of W Hess(S) - A is the x^k coefficient of component mu of
    `verify_pair`'s residual.  Each is summed left to right and less A's
    entry last, as that polynomial contraction sums it, so the largest
    |entry| equals the exact layer's max |coefficient| bit for bit on float
    pairs.  The sums are Python's, not numpy's: a matmul would call BLAS, and
    even an einsum maps kernels that `run` touches nowhere else.
    """
    field = oscillator_field(params.m, params.omega).as_float_array().tolist()
    for w, h in pairs:
        columns = [tuple(map(float, column)) for column in zip(*_derivatives_at_zero(h)[0])]
        yield [(abs(sum(map(mul, row, column)) - a), row, column, a)
               for row, a_row in zip(w, field) for column, a in zip(columns, a_row)]


def _pair_residuals(params: PhysParams, pairs) -> tuple[float, ...]:
    """The pair certificate, max |W Hess(S) - A|, for each pair of `_pair_entries`."""
    return tuple(max(entry[0] for entry in entries) for entries in _pair_entries(params, pairs))


def _edges(packet: GaussianPacket, grid: GridSpec) -> tuple[float, float]:
    """(boundary, spectral) edges of a packet on a grid in closed form, without sampling:
    the sampled packet's largest |psi| on the grid boundary over its largest |psi|,
    the larger over the axes of exp(-(d_b - d_p)(d_b + d_p) / (4 sigma^2)) with
    d_b, d_p the centre's distances to the nearer end point and the nearest grid point
    (1 off the grid), and the spectrum at pi/h over its peak,
    exp(-sigma^2 (pi/h - max_i |k_i|)^2), or 1.  Python floats keep the ends of the
    float range free of warnings."""
    sigma, h, half_width, n = packet.sigma, grid.spacing, grid.half_width, grid.points
    boundary = 0.0
    for c in packet.center:  # the grid points are -L + h i, as `GridSpec.axis` forms them
        d_b = min(abs(-half_width - c), abs(-half_width + h * (n - 1) - c))
        d_p = abs(-half_width + h * round(min(max((c + half_width) / h, 0.0), n - 1.0)) - c)
        boundary = max(boundary, math.exp(-(d_b - d_p) * (d_b + d_p) / (4.0 * sigma * sigma))
                       if d_b > d_p else 1.0)
    gap = math.pi / h - max(map(abs, packet.wavevector))
    return boundary, math.exp(-(sigma * gap) * (sigma * gap)) if gap > 0 else 1.0


def _require_domain(params: PhysParams, packet: GaussianPacket | None = None,
                    grid: GridSpec | None = None, times: Sequence[float] = (),
                    probe: str | None = None) -> None:
    """Raise ScenarioError, keyed by what is at fault, outside the valid domain
    (README, "Valid domain"): (a) the parameters' coefficients, (b) a packet on
    a grid, the scenario's or the probe of check group `probe`, (c) the times."""
    m, omega, hbar = params.m, params.omega, params.hbar
    inverse = 1.0 / (m * omega) if m * omega else math.inf  # m omega = 0 fails first
    floats = [(key, name, value, "") for key, name, value in (
        ("m, omega", "m omega", m * omega), ("m, omega", "1/(m omega)", inverse),
        ("m, omega", "m omega^2", m * omega * omega), ("m", "1/m", 1.0 / m),
        ("hbar", "hbar^2", hbar * hbar), ("m, hbar", "hbar^2/(2m)", hbar * hbar / (2.0 * m)),
        ("m, omega, hbar", "hbar/(m omega)", hbar * inverse),
        ("m, omega, hbar", "hbar m omega", hbar * m * omega),
        ("omega, hbar", "hbar omega", hbar * omega), ("omega", "omega^2", omega * omega))]
    if packet is not None:  # the envelope's divisor, the squared norm, h^2 and (2L)^2
        sigma, h, half_width = packet.sigma, grid.spacing, grid.half_width
        key, who = (("packet.sigma", "packet") if probe is None
                    else ("m, omega, hbar", f"{probe} check's probe"))
        sampled, at = f"{key}: cannot sample the {who}", f" at sigma = {sigma!r}"
        # (2L)^2 is normal exactly when the grid's frexp exponent e has |e| <= 511, so
        # the power-of-two weights (2^-e)^2 and 2^2e of the unit-scaled grid are too
        width = 2.0 * half_width
        floats += [(sampled, "4 sigma^2", 4.0 * sigma * sigma, at),
                   (sampled, "2 pi sigma^2", 2.0 * math.pi * sigma * sigma, at),
                   ("grid.L: cannot sample a packet on this grid", "h^2", h * h,
                    f" at spacing {h!r}"),
                   ("grid.L: cannot act on this grid" if probe is None else
                    f"m, omega, hbar: cannot act on the {who}'s grid", "(2L)^2", width * width,
                    f" at half-width {half_width!r}")]
    for key, name, value, where in floats:
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise ScenarioError(f"{key}: {name} is past the float range{where}")
    if packet is not None:
        k, c = max(map(abs, packet.wavevector)), max(map(abs, packet.center))
        boundary, spectral = _edges(packet, grid)
        for i, edge, field, fault in (
                (1, spectral, "wavevector", f"spacing {h:.3g} does not resolve the {who} of "
                 f"sigma {sigma:.3g} and |k| {k:.3g}: its spectral edge"),
                (0, boundary, "center", f"half-width {half_width:.3g} does not hold the {who} "
                 f"of sigma {sigma:.3g} and |c| {c:.3g}: its boundary magnitude")):
            if edge >= _BOUNDARY_LIMIT:  # the packet is at fault when a centred one at k = 0 passes
                ideal = _edges(GaussianPacket(sigma=sigma), grid)[i]
                key = "grid" if probe or ideal >= _BOUNDARY_LIMIT else f"packet.{field}"
                raise ScenarioError(f"{key}: {fault} {edge:.3e} reaches {_BOUNDARY_LIMIT:.0e}")
    limit = _ROBERTSON_SLACK / sys.float_info.epsilon  # cos(omega t) keeps the slack
    for i, t in enumerate(times):
        if not abs(omega * t) <= limit:
            raise ScenarioError(f"times[{i}]: |omega t| = {abs(omega * t):.3g} is past "
                                f"{limit:.3g}, where cos(omega t) keeps less than 1e-9")


def _scheme_columns(s: QuantizationScheme, means: np.ndarray, variances: np.ndarray,
                    times: list[float], observables: Sequence[str]) -> _SchemeColumns:
    """One scheme's cells and uncertainty rows from its (T, 4) means and variances.

    The moments become Python floats once; each spread is sqrt(max(v, 0.0)),
    which keeps a variance of -0.0 as -0.0, and a product satisfies its
    Robertson bound when it is at most _ROBERTSON_SLACK bound below it.
    """
    mean_re, mean_im, var = means.real.T.tolist(), means.imag.T.tolist(), variances.T.tolist()
    spread = [[math.sqrt(max(v, 0.0)) for v in column] for column in var]
    rows = []
    for pair in CANONICAL_PAIRS[s.id]:
        a, b = (spread[OBSERVABLES.index(name)] for name in pair)
        products = [x * y for x, y in zip(a, b)]
        bound = float(uncertainty_bound(s, pair))
        limit = bound - _ROBERTSON_SLACK * bound
        rows.append((pair, bound, products, [p >= limit for p in products]))
    indices = [OBSERVABLES.index(name) for name in observables]
    return _SchemeColumns(
        scheme=s.id, times=times,
        cells=tuple((name, mean_re[i], mean_im[i], var[i]) for name, i in zip(observables, indices)),
        rows=tuple(rows))


def run_scenario(config: Scenario) -> Report:
    """Evaluate every requested (scheme, observable, time) cell plus extras.

    Each scheme's columns come from `_scheme_columns`.  A scenario outside `_require_domain`
    is a config error, and so are moments past the float range (m = 1e-300, in the domain).
    """
    _require_domain(config.params, config.packet, config.grid, config.times)
    times = [float(t) for t in config.times]
    schemes = [scheme(sid, config.params) for sid in config.schemes]
    with np.errstate(over="ignore", invalid="ignore"):
        moments = heisenberg_moments(schemes, config.packet, config.grid, config.times)
    columns = []
    for s, (means, variances) in zip(schemes, moments):
        if not (np.isfinite(means).all() and np.isfinite(variances).all()):
            raise ScenarioError(f"m, omega, hbar: non-finite moments for scheme {s.id}")
        columns.append(_scheme_columns(s, means, variances, times, config.observables))
    metadata = config.to_dict()
    del metadata["checks"]
    metadata["params"] = {key: metadata.pop(key) for key in ("m", "omega", "hbar")}
    metadata["version"] = __version__
    m, omega = config.params.m, config.params.omega
    residuals = _pair_residuals(config.params, zip(bracket_matrices(m, omega),
                                                   standard_hamiltonians(m, omega)))
    return Report(tuple(columns), residuals, metadata)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "warn" | "skipped"
    detail: str


def _check_pairs(config: Scenario, pairs) -> CheckResult:
    """The largest of the pair residuals `run` reports; entry (i, j) of each
    passes within 1e-12 (sum_k |W_ik| |Hess(S)_kj| + |A_ij|), the sum of the
    terms that formed it, which bounds its rounding error (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, 3.1) in every choice of units."""
    entries = [entry for residual in _pair_entries(
        config.params, ((p.form.upper, p.hamiltonian) for p in pairs)) for entry in residual]
    ok = all(r <= 1e-12 * (sum(abs(x * y) for x, y in zip(row, column)) + abs(a))
             for r, row, column, a in entries)
    worst = max(entry[0] for entry in entries)
    return CheckResult("pairs", "pass" if ok else "fail", f"max residual {worst:.3e}")


def _check_flow(config: Scenario, pairs) -> CheckResult:
    """Flow checks; each verdict is `flow`'s, relative to the size of what it compares.

    One stack of flow maps serves each sample set: the 20 drawn pullback times
    for every form, and `default_sample_times` for every Hamiltonian.  The
    entries of W3 and of the flow map scale as m omega and 1/(m omega), so
    absolute bounds fail on roundoff at small m omega; the printed maxima stay
    absolute.
    """
    params = config.params
    times = [_uniform(0.0, 4.0 * math.pi / params.omega, u) for u in _UNIFORM_DRAWS[:20]]
    jacobians = np.array([flow_jacobian(t, params) for t in times])
    samples = np.array([flow_jacobian(float(t), params) for t in default_sample_times(params)])
    state = PhaseState(0.9, -0.4, 0.3, 1.1)
    pullbacks = [check for pair in pairs
                 for check in verify_flow_symplectic(pair.form, jacobians)]
    drifts = [verify_conserved(pair.hamiltonian, state, samples) for pair in pairs]
    ok = all(check.ok for check in pullbacks + drifts)
    worst_pullback = max([0.0] + [check.max_deviation for check in pullbacks])
    worst_drift = max([0.0] + [check.max_drift for check in drifts])
    return CheckResult("flow", "pass" if ok else "fail",
                       f"max pullback deviation {worst_pullback:.3e}, "
                       f"max conserved-quantity drift {worst_drift:.3e}")


def _check_commutators(config: Scenario, schemes) -> CheckResult:
    """Each scheme's commutator table on the ground packet; the seam vectors of the
    probe's two axis factors are formed once and serve every scheme, and no probe
    is sampled on the grid.  The deviation of pair (i, j) is bounded by
    1e-8 max(|T_ij|, s_i s_j), with T the scheme's table and
    s = |A| (sigma_ref, sigma_ref, 1/sigma_ref, 1/sigma_ref) the size of each
    fundamental of its assignment A in oscillator units.  The group warns when
    either edge of its probe reaches _WARN_BOUNDARY."""
    packet, grid = ground_packet(config.params), config.grid
    _require_domain(config.params, packet, grid, probe="commutators")
    deviations = commutator_table_check(schemes, packet, grid)
    worst = max([0.0] + [dev for devs in deviations for dev in devs.values()])
    if max(_edges(packet, grid)) >= _WARN_BOUNDARY:
        return CheckResult("commutators", "warn", f"probe state not localized on this grid; "
                                                  f"max deviation {worst:.3e}")
    ref, ok = config.params.sigma_ref, True
    for s, devs in zip(schemes, deviations):
        size = np.abs(s.assignment) @ (ref, ref, 1.0 / ref, 1.0 / ref)
        bound = 1e-8 * np.maximum(np.abs(s.commutators), np.outer(size, size))
        ok &= all(dev <= bound[OBSERVABLES.index(a), OBSERVABLES.index(b)]
                  for (a, b), dev in devs.items())
    return CheckResult("commutators", "pass" if ok else "fail", f"max deviation {worst:.3e}")


def _check_uncertainties(config: Scenario, schemes) -> CheckResult:
    """Robertson bounds on nine probe packets; the first, the ground packet,
    saturates each bound to within 1e-6 of it and must lie in the domain;
    a drawn probe with an edge at `_BOUNDARY_LIMIT` or above is skipped and counted."""
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
    _require_domain(params, probes[0], config.grid, probe="uncertainties")
    # probes outer: the primitive Gram matrix of each probe, unless delocalized,
    # serves every scheme; no probe is sampled on the grid
    for idx, packet in enumerate(probes):
        if max(_edges(packet, config.grid)) >= _BOUNDARY_LIMIT:
            delocalized += len(schemes)
            continue
        moments = heisenberg_moments(schemes, packet, config.grid, (t_probe,))
        for s, (means, variances) in zip(schemes, moments):
            for _, bound, (product,), (holds,) in _scheme_columns(s, means, variances,
                                                                  [t_probe], ()).rows:
                satisfied = satisfied and holds
                worst_margin = min(worst_margin, product - bound)
                if idx == 0:
                    gap = abs(product - bound)
                    worst_saturation = max(worst_saturation, gap)
                    saturated = saturated and gap <= 1e-6 * bound
    ok = satisfied and saturated
    detail = (f"ground saturation gap {worst_saturation:.3e}, "
              f"worst bound margin {worst_margin:+.3e}")
    if delocalized:
        detail += f", {delocalized} delocalized probes skipped"
    return CheckResult("uncertainties", "pass" if ok else "fail", detail)


def _check_unitary(config: Scenario, schemes) -> CheckResult:
    """Both conjugation probes of each scheme from one closed-form propagator, on a
    grid of N = 48 that resolves the probe packet (at N = 32 the deviations are
    the grid's discretization error); a deviation that is not a number fails,
    and so does a scheme whose generator no propagator route fits."""
    params = config.params
    probes = (("x", 0.6 / params.omega), ("p_x", 1.1 / params.omega))
    grid = GridSpec(half_width=8.0 * params.sigma_ref, points=48)
    packet = conjugation_probe(params)
    _require_domain(params, packet, grid, probe="unitary")
    psi = packet.sample(grid)
    deviations = [0.0]
    for s in schemes:
        try:
            deviations += conjugation_deviations(s, psi, probes)
        except ValueError as exc:  # `_propagator` found no route for the generator
            return CheckResult("unitary", "fail", f"scheme {s.id}: {exc}")
    # a nan deviation is the worst one, so it fails the group instead of vanishing in max()
    worst = max(deviations, key=lambda dev: math.inf if math.isnan(dev) else dev)
    status = "pass" if worst <= 1e-5 else "fail"
    return CheckResult("unitary", status, f"max conjugation deviation {worst:.3e}")


def run_checks(config: Scenario) -> tuple[CheckResult, ...]:
    """One result per group of CHECK_NAMES, in that order; a disabled group is skipped.

    A scenario outside `_require_domain` is a config error whichever groups
    run.  The scheme list and the standard pairs are built once, here, and
    each group is passed the one of them it reads.
    """
    params = config.params
    _require_domain(params, config.packet, config.grid, config.times)
    schemes = [scheme(sid, params) for sid in config.schemes]
    pairs = standard_pairs(params.m, params.omega)
    runners = {
        "pairs": lambda: _check_pairs(config, pairs),
        "flow": lambda: _check_flow(config, pairs),
        "commutators": lambda: _check_commutators(config, schemes),
        "uncertainties": lambda: _check_uncertainties(config, schemes),
        "unitary": lambda: _check_unitary(config, schemes),
    }
    return tuple(runners[name]() if config.checks.get(name, True)
                 else CheckResult(name, "skipped", "disabled in scenario")
                 for name in CHECK_NAMES)


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


def _json_block(value) -> str:
    """json.dumps of a top-level member, indented to sit inside the report object."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _texts(blocks: list[list]) -> Iterator[list[str]]:
    """str of every number of `blocks`, block by block, with each distinct float
    formatted once.

    A float is keyed by its 64 bits, so 0.0 and -0.0 stay two numbers, where
    a dict keyed by the floats would take them for one; blocks that hold
    anything but floats (an int time) are formatted number by number.  No
    numpy sort is used: its first call adds about 0.5 MB to a process's
    resident set.  Raises ValueError on nan or inf, which are not JSON.
    """
    numbers = list(chain.from_iterable(blocks))
    if not all(map(math.isfinite, numbers)):
        raise ValueError("report holds nan or inf, which JSON cannot represent")
    if {float}.issuperset(map(type, numbers)):
        bits = np.array(numbers).view(np.int64).tolist()
        text = {}
        for key, number in zip(bits, numbers):
            if key not in text:
                text[key] = str(number)
        texts = list(map(text.__getitem__, bits))
    else:
        texts = list(map(str, numbers))
    ends = list(accumulate(map(len, blocks)))
    return iter([texts[start:end] for start, end in zip([0, *ends], ends)])


def report_to_json(report: Report, include_timestamp: bool = True) -> str:
    """The bytes json.dumps(doc, indent=2, sort_keys=True) + "\n" writes for the
    report: one object per cell, uncertainty row and pair residual, and the
    metadata with a UTC timestamp unless it is suppressed.

    Cells and uncertainty rows are read from the report's columns and written
    through one fixed f-string each, so neither they nor an intermediate dict
    pass through the standard library's pure-Python indenting encoder; only
    the small metadata and pair-residual blocks do.  The columns' numbers are
    formatted first, by `_texts`, which formats each distinct float once:
    about half of a report's numbers recur, since schemes 0 and 2 share their
    y and p_y columns, variances repeat over a period and every column holds
    the same times.  Raises ValueError on nan or inf instead of writing NaN
    or Infinity, which are not JSON: the columns' numbers are checked as
    floats, and the blocks by json.dumps.
    """
    blocks = []
    for col in report.columns:
        blocks.append(col.times)
        for _, real, imag, var in col.cells:
            blocks += (imag, real, var)
        for _, bound, products, _ in col.rows:
            blocks += ([bound], products)
    texts = _texts(blocks)
    # each cell and uncertainty row is one f-string, laid out as
    # json.dumps(indent=2, sort_keys=True) lays it out; an f-string joins its
    # pieces in about half the time a % template takes
    cells, rows = [], []
    for col in report.columns:
        times, scheme = next(texts), str(col.scheme)
        for name, *_ in col.cells:
            imag, real, var, name = next(texts), next(texts), next(texts), _quote(name)
            cells += [f'    {{\n      "mean_im": {i},\n      "mean_re": {r},\n'
                      f'      "observable": {name},\n      "scheme": {scheme},\n'
                      f'      "time": {t},\n      "variance": {v}\n    }}'
                      for t, r, i, v in zip(times, real, imag, var)]
        for (a, b), *_, satisfied in col.rows:
            (bound,), products, a, b = next(texts), next(texts), _quote(a), _quote(b)
            rows += [f'    {{\n      "bound": {bound},\n      "pair": [\n        {a},\n'
                     f'        {b}\n      ],\n      "product": {p},\n'
                     f'      "satisfied": {"true" if ok else "false"},\n'
                     f'      "scheme": {scheme},\n      "time": {t}\n    }}'
                     for t, p, ok in zip(times, products, satisfied)]
    del texts  # spent: the joins below are the writer's peak, which need not hold them
    cells, rows = _json_list(cells), _json_list(rows)
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
