"""Four quantum theories of the 2-D oscillator from Dirac's rule.

Each bracket matrix induces its own commutator algebra [A, B] = i hbar {A, B}
and its own representation of the fundamentals on L^2(R^2, dx dy): a constant
4x4 matrix over the primitives x, y, d/dx, d/dy.  The schemes share the
Heisenberg rotation `flow_jacobian`, so every mean, variance, uncertainty
product and two-time commutator follows from the primitives' Gram matrix on
one prepared state.  The fundamentals act differently on that state, which is
exactly why the schemes' predictions differ.

Scheme assignments (signs transcribed verbatim; the commutator check is the
arbiter):

    0: x->x,  y->y,  p_x -> (hbar/i) d/dx,  p_y -> (hbar/i) d/dy
    1: x->x,  y->y,  p_x -> (hbar/i) d/dy,  p_y -> (hbar/i) d/dx
    2: x->x,  y->y,  p_x -> -(hbar/i) d/dx, p_y -> (hbar/i) d/dy
    3: x->x,  p_x -> m omega y,
       y -> (i hbar/(m omega)) d/dx,        p_y -> i hbar d/dy
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .flow import flow_jacobian
from .operators import (
    GaussianPacket,
    GridSpec,
    OperatorExpr,
    Primitive,
    WaveFunction,
    _apply_primitive,
    check_localized,
)
from .pairs import standard_forms, standard_hamiltonians
from .phasespace import PhysParams, PolynomialObservable

OBSERVABLES = ("x", "y", "p_x", "p_y")
PRIMITIVES = (Primitive.X, Primitive.Y, Primitive.DX, Primitive.DY)

SCHEME_IDS = (0, 1, 2, 3)

# uncertainty pairs with a nonzero algebra bound, per scheme
CANONICAL_PAIRS = {
    0: (("x", "p_x"), ("y", "p_y")),
    1: (("x", "p_y"), ("y", "p_x")),
    2: (("x", "p_x"), ("y", "p_y")),
    3: (("x", "y"), ("p_x", "p_y")),
}


@dataclass(frozen=True)
class QuantizationScheme:
    """Commutator table plus concrete fundamental-operator assignment."""

    id: int
    params: PhysParams
    commutators: np.ndarray  # i*hbar times the classical bracket matrix
    assignment: np.ndarray  # rows OBSERVABLES, columns PRIMITIVES

    def fundamental(self, which: str) -> OperatorExpr:
        return heisenberg_operator(self, which, 0.0)


def scheme(scheme_id: int, params: PhysParams) -> QuantizationScheme:
    """Build one of the four quantization schemes."""
    if scheme_id not in SCHEME_IDS:
        raise ValueError(f"unknown id: {scheme_id!r}")
    hb = params.hbar
    mw = params.m * params.omega
    d = -1j * hb  # (hbar/i) d/d(axis)
    assignment = np.array({
        0: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, d, 0), (0, 0, 0, d)),
        1: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, d), (0, 0, d, 0)),
        2: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -d, 0), (0, 0, 0, d)),
        3: ((1, 0, 0, 0), (0, 0, -d / mw, 0), (0, mw, 0, 0), (0, 0, 0, -d)),
    }[scheme_id], dtype=complex)
    assignment.setflags(write=False)
    table = 1j * hb * standard_forms(params.m, params.omega)[scheme_id].upper_array()
    table.setflags(write=False)
    return QuantizationScheme(id=scheme_id, params=params,
                              commutators=table, assignment=assignment)


def ground_packet(params: PhysParams, center=(0.0, 0.0),
                  wavevector=(0.0, 0.0)) -> GaussianPacket:
    """Gaussian of the width that saturates the canonical uncertainty bound."""
    return GaussianPacket(center=center, wavevector=wavevector,
                          sigma=params.ground_sigma)


def heisenberg_operator(s: QuantizationScheme, which: str, t: float) -> OperatorExpr:
    """Time-evolved observable: the classical rotation with operators substituted.

    At t = 0 this is the fundamental operator itself.
    """
    if which not in OBSERVABLES:
        raise ValueError(f"unknown observable: {which!r}")
    row = flow_jacobian(t, s.params)[OBSERVABLES.index(which)] @ s.assignment
    return OperatorExpr((c, (p,)) for c, p in zip(row, PRIMITIVES))


def expectation(op: OperatorExpr, psi: WaveFunction) -> complex:
    """<psi| op psi> by grid quadrature; psi is assumed normalized."""
    return psi.inner(op.apply(psi))


def _fundamental_moments(s: QuantizationScheme, psi: WaveFunction) -> tuple[np.ndarray, np.ndarray]:
    """Means A v and second moments conj(A) G A^T of the Hermitian fundamentals F = A P."""
    # Gram matrix of psi, P_1 psi, ..., P_4 psi: row 0 holds v, the rest is G
    vectors = [psi.values] + [_apply_primitive(p, psi.values, psi.grid) for p in PRIMITIVES]
    h = psi.grid.spacing
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors]) * h * h
    return s.assignment @ gram[0, 1:], s.assignment.conj() @ gram[1:, 1:] @ s.assignment.T


def heisenberg_moments(s: QuantizationScheme, psi: WaveFunction,
                       times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Means J m and variances diag(J M J^T) - mean^2, each (len(times), 4)."""
    mean0, second0 = _fundamental_moments(s, psi)
    jac = np.array([flow_jacobian(float(t), s.params) for t in times]).reshape(-1, 4, 4)
    means = jac @ mean0
    return means, (np.einsum("tij,jk,tik->ti", jac, second0, jac) - means * means).real


@dataclass(frozen=True)
class CommutatorCheck:
    """Measured deviations of [A, B] psi from the scheme's commutator table."""

    max_deviation: float
    deviations: Mapping[tuple[str, str], float]
    localized: bool


def commutator_table_check(s: QuantizationScheme, psi: WaveFunction,
                           boundary_threshold: float = 1e-12) -> CommutatorCheck:
    """Apply every fundamental pair both ways and compare against the table."""
    localized = check_localized(psi, boundary_threshold, "commutator table check")
    norm = psi.norm()
    devs: dict[tuple[str, str], float] = {}
    h = psi.grid.spacing
    for i in range(len(OBSERVABLES)):
        for j in range(i + 1, len(OBSERVABLES)):
            a = s.fundamental(OBSERVABLES[i])
            b = s.fundamental(OBSERVABLES[j])
            lhs = a.apply(b.apply(psi)).values - b.apply(a.apply(psi)).values
            diff = lhs - s.commutators[i, j] * psi.values
            dev = float(np.sqrt(np.sum(np.abs(diff) ** 2) * h * h)) / norm
            devs[(OBSERVABLES[i], OBSERVABLES[j])] = dev
    return CommutatorCheck(max_deviation=max(devs.values()),
                           deviations=devs, localized=localized)


def uncertainty_bound(s: QuantizationScheme, pair: tuple[str, str]) -> float:
    """Robertson bound |<[A, B]>|/2 for two fundamental observables."""
    return abs(s.commutators[OBSERVABLES.index(pair[0]), OBSERVABLES.index(pair[1])]) / 2.0


def _spread_product(variances: np.ndarray, pair: tuple[str, str]) -> float:
    """Delta A * Delta B from one row of variances ordered like OBSERVABLES."""
    return math.prod(math.sqrt(max(float(variances[OBSERVABLES.index(n)]), 0.0)) for n in pair)


def uncertainty_product(s: QuantizationScheme, pair: tuple[str, str],
                        psi: WaveFunction, t: float = 0.0) -> float:
    """Delta A * Delta B for the Heisenberg-evolved observables at time t."""
    _, variances = heisenberg_moments(s, psi, (t,))
    return _spread_product(variances[0], pair)


def two_time_commutator(s: QuantizationScheme, t: float, t_prime: float,
                        psi: WaveFunction,
                        boundary_threshold: float = 1e-12) -> complex:
    """<psi| [x(t), x(t')] psi> = a M b - b M a for x(t) = a.F, x(t') = b.F.

    With M_ij = <F_i psi|F_j psi>, it equals sin(omega (t'-t))/(m omega) times
    the scheme's [x_0, p_x0] table entry: zero for schemes 1 and 3, +/- i hbar otherwise.
    """
    check_localized(psi, boundary_threshold, "two-time commutator")
    _, second = _fundamental_moments(s, psi)
    a, b = (flow_jacobian(tau, s.params)[0] for tau in (t, t_prime))
    return complex(a @ second @ b - b @ second @ a)


def kernel_overlap(s: QuantizationScheme, x: float, y: float,
                   p_x: float, p_y: float) -> complex:
    """Mixed-basis overlap <x, y | p_x, p_y> for schemes 0-2.

    Scheme 1 is the crossed transform pairing x with p_y and y with p_x.
    Scheme 3 has noncommuting coordinates (and momenta), so no common
    coordinate or momentum basis exists.
    """
    if s.id == 3:
        raise ValueError("no common momentum basis")
    hb = s.params.hbar
    exponent = {
        0: x * p_x + y * p_y,
        1: x * p_y + y * p_x,
        2: -x * p_x + y * p_y,
    }[s.id]
    return complex(np.exp(1j * exponent / hb) / (2.0 * math.pi * hb))


def _monomial_operator(s: QuantizationScheme, expo: tuple[int, int, int, int]) -> tuple[OperatorExpr, bool]:
    factors = []
    for name, e in zip(OBSERVABLES, expo):
        factors.extend([s.fundamental(name)] * e)
    if not factors:
        return OperatorExpr.identity(), False
    if len(factors) == 1:
        return factors[0], False
    a, b = factors
    if a is b or a.commutes_with(b):
        return a @ b, False
    return 0.5 * (a @ b + b @ a), True


def quantize_observable(s: QuantizationScheme,
                        f: PolynomialObservable) -> OperatorExpr:
    """Promote a degree <= 2 classical observable to an operator expression.

    Fundamental assignments are substituted monomial by monomial; when the two
    factors of a mixed quadratic monomial fail to commute under the scheme, the
    symmetrized half-sum of both orderings is used.
    """
    if f.degree > 2:
        raise ValueError("degree > 2 unsupported")
    total = OperatorExpr()
    for expo in sorted(f.terms):
        op, _ = _monomial_operator(s, expo)
        total = total + complex(f.terms[expo]) * op
    return total


def quantization_needs_symmetrization(s: QuantizationScheme,
                                      f: PolynomialObservable) -> bool:
    """True iff promoting f would symmetrize at least one monomial."""
    if f.degree > 2:
        raise ValueError("degree > 2 unsupported")
    return any(_monomial_operator(s, expo)[1] for expo in sorted(f.terms))


# ---------------------------------------------------------------------------
# unitary evolution: matrix-free Chebyshev expansion of the propagator
# ---------------------------------------------------------------------------

def _generator_polynomial(s: QuantizationScheme) -> PolynomialObservable:
    return standard_hamiltonians(s.params.m, s.params.omega)[s.id]


def _spectral_bound(op: OperatorExpr, grid: GridSpec) -> float:
    """Sum over terms of |c| times the product of the primitives' operator norms.

    On the periodic grid |x|, |y| <= L and the spectral derivative has
    eigenvalues i k with |k| <= pi / h, so the spectrum of op lies in [-R, R].
    """
    norms = {Primitive.X: grid.half_width, Primitive.Y: grid.half_width,
             Primitive.DX: math.pi / grid.spacing, Primitive.DY: math.pi / grid.spacing}
    return sum(abs(c) * math.prod(norms[p] for p in prod) for c, prod in op.terms)


def _chebyshev_coefficients(alpha: float) -> np.ndarray:
    """c_k with exp(-i alpha z) = sum_k c_k T_k(z) on [-1, 1], cut where |c_k| < 1e-15.

    c_k = (2 - delta_k0) (-i)^k J_k(alpha).  Past k = |alpha| the Kapteyn bound
    |J_k(a)| <= (z e^r / (1 + r))^k, z = |a| / k, r = sqrt(1 - z^2), decreases
    with k, so the first order where it puts |c_k| below 1e-15 ends the series.
    The kept c_k are read off an FFT of exp(-i alpha cos theta) with at least
    twice as many samples as orders, so only dropped orders alias onto them.
    """
    a = abs(alpha)
    order = math.floor(a) + 1
    while a > 0:
        z = a / order
        r = math.sqrt(1.0 - z * z)
        if order * (math.log(z) + r - math.log1p(r)) < math.log(0.5e-15):
            break
        order += 1
    samples = 2 ** math.ceil(math.log2(2 * order))
    theta = 2.0 * math.pi * np.arange(samples) / samples
    coeffs = np.fft.fft(np.exp(-1j * alpha * np.cos(theta)))[:order] / samples
    coeffs[1:] *= 2.0
    return coeffs


def unitary_evolve(s: QuantizationScheme, psi: WaveFunction, t: float) -> WaveFunction:
    """exp(-i S t / hbar) psi by a Chebyshev expansion of the propagator.

    With the generator's spectrum bounded by R, exp(-i S t / hbar) =
    sum_k c_k T_k(S / R) for alpha = R t / hbar (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967, 1984).  The T_k(S / R) psi follow from the three-term
    recurrence, one FFT-based application of S per order, so no matrix is
    formed and any grid size works.  Raises RuntimeError when the norm moves
    by more than 1e-8 relative: a non-Hermitian generator or a spectral bound
    that is too small.
    """
    generator = quantize_observable(s, _generator_polynomial(s))
    radius = _spectral_bound(generator, psi.grid)
    scaled = (1.0 / radius) * generator
    coeffs = _chebyshev_coefficients(radius * t / s.params.hbar)
    out = coeffs[0] * psi.values
    prev = cur = psi.values  # T_{k-2} psi and T_{k-1} psi
    for k, c in enumerate(coeffs[1:], start=1):
        step = scaled.apply(WaveFunction(psi.grid, cur)).values
        prev, cur = cur, step if k == 1 else 2.0 * step - prev
        out += c * cur
    evolved = WaveFunction(psi.grid, out)
    norm = psi.norm()
    drift = abs(evolved.norm() - norm)
    if not drift <= 1e-8 * norm:
        raise RuntimeError(f"propagator changed the norm by {drift:.3e} of {norm:.3e}: "
                           "the generator is not Hermitian or its spectral bound is too small")
    return evolved


def unitary_conjugation_check(s: QuantizationScheme, which: str, t: float,
                              grid: GridSpec,
                              psi: WaveFunction | None = None) -> float:
    """Relative L2 gap between exp(iSt/h) O exp(-iSt/h) psi and the rotated operator.

    Uses a localized Gaussian by default.  Both evolutions run the matrix-free
    propagator of `unitary_evolve`, so the grid size is not capped.
    """
    if psi is None:
        packet = GaussianPacket(center=(0.5, -0.3), wavevector=(0.4, 0.2),
                                sigma=s.params.ground_sigma)
        psi = packet.sample(grid)
    elif psi.grid != grid:
        raise ValueError("grid mismatch")
    evolved = unitary_evolve(s, psi, t)
    acted = s.fundamental(which).apply(evolved)
    conjugated = unitary_evolve(s, acted, -t)
    target = heisenberg_operator(s, which, t).apply(psi)
    num = np.sqrt(np.sum(np.abs(conjugated.values - target.values) ** 2))
    den = np.sqrt(np.sum(np.abs(target.values) ** 2))
    return float(num / den)
