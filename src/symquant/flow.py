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


def verify_flow_symplectic(form: SymplecticForm, jacobians: np.ndarray) -> list[SymplecticCheck]:
    """For each flow map J of a (T, 4, 4) stack, True iff J preserves the 2-form
    coefficients L: the max-abs deviation of J^T L J from L is at most
    _PULLBACK_TOL max(1, max(|J|^T |L| |J|)), the size of the products it sums,
    which scales as m omega or 1/(m omega).  One `lower_array()` serves the stack."""
    lower = form.lower_array()
    transposed = np.swapaxes(jacobians, 1, 2)
    devs = np.max(np.abs(transposed @ lower @ jacobians - lower), axis=(1, 2)).tolist()
    sizes = np.max(np.abs(transposed) @ np.abs(lower) @ np.abs(jacobians), axis=(1, 2)).tolist()
    return [SymplecticCheck(ok=dev <= _PULLBACK_TOL * max(1.0, size), max_deviation=dev)
            for dev, size in zip(devs, sizes)]


class ConservationCheck(NamedTuple):
    ok: bool
    max_drift: float


def verify_conserved(f: PolynomialObservable, state0: PhaseState,
                     times: Sequence[float], params: PhysParams) -> ConservationCheck:
    """True iff f's drift along the flow, max |f(x(t)) - f(x0)| over the sample
    times, is at most 1e-10 max(1, sum_k |c_k| |x(t)|^e_k) over the sampled
    states x(t), the size of the terms of f(x), which scales as m omega or 1/(m
    omega).  f is evaluated once on the (4, T) array of states; like max() over
    the differences, the drift passes over a nan."""
    x0 = state0.as_array()
    states = [flow_jacobian(float(t), params) @ x0 for t in times]
    if not states:
        raise ValueError("times must be nonempty")
    states = np.stack(states, axis=1)
    values = np.broadcast_to(np.asarray(f.evaluate(states), dtype=float), states.shape[1:])
    drift = max([0.0] + np.abs(values - float(f.evaluate(x0))).tolist())
    size = PolynomialObservable({e: abs(c) for e, c in f.terms.items()}).evaluate(np.abs(states))
    return ConservationCheck(ok=drift <= 1e-10 * max(1.0, float(np.max(size))), max_drift=drift)


def default_sample_times(params: PhysParams) -> np.ndarray:
    """_SAMPLE_COUNT uniform samples over two oscillator periods."""
    return np.linspace(0.0, 4.0 * math.pi / params.omega, _SAMPLE_COUNT)
