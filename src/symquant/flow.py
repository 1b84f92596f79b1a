"""Exact classical evolution of the 2-D isotropic oscillator.

The closed-form solution is a rotation mixing each position with its momentum;
the propagator is state independent, so the flow map is a fixed 4x4 matrix per
time.  Every admissible bracket matrix is preserved by this map, which is what
`verify_flow_symplectic` decides, and each standard Hamiltonian is constant
along it, which is what `verify_conserved` decides; both bounds are relative
to the scale of what they compare, and `check`'s flow group takes its
verdict from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .phasespace import PhysParams, PolynomialObservable, SymplecticForm


@dataclass(frozen=True)
class PhaseState:
    """A point of phase space: positions and momenta."""

    x: float
    y: float
    p_x: float
    p_y: float

    def __post_init__(self):
        for name in ("x", "y", "p_x", "p_y"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.p_x, self.p_y], dtype=float)


def flow_jacobian(t: float, params: PhysParams) -> np.ndarray:
    """Propagator J(t) with state(t) = J(t) @ state(0); det J = 1."""
    c = math.cos(params.omega * t)
    s = math.sin(params.omega * t)
    a = s / (params.m * params.omega)
    b = -params.m * params.omega * s
    return np.array([
        [c, 0.0, a, 0.0],
        [0.0, c, 0.0, a],
        [b, 0.0, c, 0.0],
        [0.0, b, 0.0, c],
    ])


def exact_flow(state0: PhaseState, t: float, params: PhysParams) -> PhaseState:
    """Closed-form evolution of an initial state by time t."""
    return PhaseState(*(flow_jacobian(t, params) @ state0.as_array()))


class SymplecticCheck(NamedTuple):
    ok: bool
    max_deviation: float


def pullback_deviation(jacobian: np.ndarray, form: SymplecticForm) -> float:
    """Max-abs entry of J^T (lower form) J minus the lower form."""
    lower = form.lower_array()
    return float(np.max(np.abs(jacobian.T @ lower @ jacobian - lower)))


def verify_flow_symplectic(form: SymplecticForm, t: float, params: PhysParams,
                           tol: float = 1e-12) -> SymplecticCheck:
    """True iff the time-t flow map J preserves the 2-form coefficients L: the
    deviation of J^T L J from L is at most tol max(1, max(|J|^T |L| |J|)), the
    size of the products it sums, which scales as m omega or 1/(m omega)."""
    jac = flow_jacobian(t, params)
    dev = pullback_deviation(jac, form)
    size = np.abs(jac).T @ np.abs(form.lower_array()) @ np.abs(jac)
    return SymplecticCheck(ok=dev <= tol * max(1.0, float(np.max(size))), max_deviation=dev)


def conserved_along_flow(f: PolynomialObservable, state0: PhaseState,
                         times: Sequence[float], params: PhysParams) -> float:
    """Max |f(state(t)) - f(state(0))| over the given sample times."""
    times = list(times)
    if not times:
        raise ValueError("times must be nonempty")
    ref = float(f.evaluate(state0.as_array()))
    worst = 0.0
    for t in times:
        val = float(f.evaluate(exact_flow(state0, t, params).as_array()))
        worst = max(worst, abs(val - ref))
    return worst


class ConservationCheck(NamedTuple):
    ok: bool
    max_drift: float


def verify_conserved(f: PolynomialObservable, state0: PhaseState,
                     times: Sequence[float], params: PhysParams) -> ConservationCheck:
    """True iff f's drift along the flow (`conserved_along_flow`) is at most
    1e-10 max(1, sum_k |c_k| |x(t)|^e_k) over the sampled states x(t), the size
    of the terms of f(x), which scales as m omega or 1/(m omega)."""
    drift = conserved_along_flow(f, state0, times, params)
    magnitudes = np.abs(np.stack([flow_jacobian(float(t), params) @ state0.as_array()
                                  for t in times], axis=1))
    size = PolynomialObservable({e: abs(c) for e, c in f.terms.items()}).evaluate(magnitudes)
    return ConservationCheck(ok=drift <= 1e-10 * max(1.0, float(np.max(size))), max_drift=drift)


def default_sample_times(params: PhysParams, count: int = 100) -> np.ndarray:
    """Uniform samples over two oscillator periods."""
    return np.linspace(0.0, 4.0 * math.pi / params.omega, count)
