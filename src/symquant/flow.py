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

_PULLBACK_TOL = 1e-12  # of the size of the products, see verify_flow_symplectic
_SAMPLE_COUNT = 100  # default_sample_times' samples over two periods


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


def _pullback_checks(form: SymplecticForm, jacobians: np.ndarray) -> list[SymplecticCheck]:
    """`verify_flow_symplectic`'s verdict for each J of a (T, 4, 4) stack, from one
    `lower_array()`; each slice is the product `pullback_deviation` forms for it."""
    lower = form.lower_array()
    transposed = np.swapaxes(jacobians, 1, 2)
    devs = np.max(np.abs(transposed @ lower @ jacobians - lower), axis=(1, 2)).tolist()
    sizes = np.max(np.abs(transposed) @ np.abs(lower) @ np.abs(jacobians), axis=(1, 2)).tolist()
    return [SymplecticCheck(ok=dev <= _PULLBACK_TOL * max(1.0, size), max_deviation=dev)
            for dev, size in zip(devs, sizes)]


def verify_flow_symplectic(form: SymplecticForm, t: float, params: PhysParams) -> SymplecticCheck:
    """True iff the time-t flow map J preserves the 2-form coefficients L: the
    deviation of J^T L J from L is at most _PULLBACK_TOL max(1, max(|J|^T |L|
    |J|)), the size of the products it sums, which scales as m omega or
    1/(m omega)."""
    return _pullback_checks(form, flow_jacobian(t, params)[None])[0]


def _flow_states(state0: PhaseState, times: Sequence[float], params: PhysParams) -> np.ndarray:
    """The (4, T) array of J(t) x0 over the sample times."""
    x0 = state0.as_array()
    states = [flow_jacobian(float(t), params) @ x0 for t in times]
    if not states:
        raise ValueError("times must be nonempty")
    return np.stack(states, axis=1)


def _max_drift(f: PolynomialObservable, state0: PhaseState, states: np.ndarray) -> float:
    """Max |f(x(t)) - f(x0)| over the columns x(t) of states, with f evaluated once
    on the whole array; like max() over the differences, it passes over a nan."""
    ref = float(f.evaluate(state0.as_array()))
    values = np.broadcast_to(np.asarray(f.evaluate(states), dtype=float), states.shape[1:])
    return max([0.0] + np.abs(values - ref).tolist())


def conserved_along_flow(f: PolynomialObservable, state0: PhaseState,
                         times: Sequence[float], params: PhysParams) -> float:
    """Max |f(state(t)) - f(state(0))| over the given sample times."""
    return _max_drift(f, state0, _flow_states(state0, times, params))


class ConservationCheck(NamedTuple):
    ok: bool
    max_drift: float


def verify_conserved(f: PolynomialObservable, state0: PhaseState,
                     times: Sequence[float], params: PhysParams) -> ConservationCheck:
    """True iff f's drift along the flow (`conserved_along_flow`) is at most
    1e-10 max(1, sum_k |c_k| |x(t)|^e_k) over the sampled states x(t), the size
    of the terms of f(x), which scales as m omega or 1/(m omega)."""
    states = _flow_states(state0, times, params)
    drift = _max_drift(f, state0, states)
    size = PolynomialObservable({e: abs(c) for e, c in f.terms.items()}).evaluate(np.abs(states))
    return ConservationCheck(ok=drift <= 1e-10 * max(1.0, float(np.max(size))), max_drift=drift)


def default_sample_times(params: PhysParams) -> np.ndarray:
    """_SAMPLE_COUNT uniform samples over two oscillator periods."""
    return np.linspace(0.0, 4.0 * math.pi / params.omega, _SAMPLE_COUNT)
