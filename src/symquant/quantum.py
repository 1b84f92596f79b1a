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

import cmath
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
from .pairs import PAIR_INDEX, bracket_matrices, standard_hamiltonians
from .phasespace import COORD_NAMES, PhysParams, PolynomialObservable

OBSERVABLES = COORD_NAMES
PRIMITIVES = (Primitive.X, Primitive.Y, Primitive.DX, Primitive.DY)

SCHEME_IDS = (0, 1, 2, 3)

# uncertainty pairs with a nonzero Robertson bound, per scheme: the (i, j),
# i < j, entries of W0..W3 that are nonzero, in row-major order; which entries
# are nonzero is the same at every valid m and omega
CANONICAL_PAIRS = {
    sid: tuple((OBSERVABLES[i], OBSERVABLES[j]) for i, j in PAIR_INDEX if w[i][j] != 0)
    for sid, w in zip(SCHEME_IDS, bracket_matrices())
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
    """Build one of the four quantization schemes.

    The commutator table is i hbar times the raw bracket matrix of
    `pairs.bracket_matrices`, read as floats.  A scheme needs that one matrix,
    so no `SymplecticForm` is built: validating a form inverts it, exactly
    over `Fraction`s for W0..W2.
    """
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
    table = 1j * hb * np.array(bracket_matrices(params.m, params.omega)[scheme_id], dtype=float)
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


def _act(row: np.ndarray, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_a row[a] P_a(values), a row of A or J(t) A on a field: zero terms skipped, the
    rest added to zeros in PRIMITIVES order, bit for bit as `OperatorExpr.apply` adds them."""
    out = np.zeros_like(values)
    for c, p in zip(row, PRIMITIVES):
        if c != 0:
            out = out + c * _apply_primitive(p, values, grid)
    return out


def _primitive_gram(psi: WaveFunction) -> np.ndarray:
    """Gram matrix of psi, P_1 psi, ..., P_4 psi; it does not depend on the scheme."""
    vectors = [psi.values] + [_apply_primitive(p, psi.values, psi.grid) for p in PRIMITIVES]
    h = psi.grid.spacing
    return np.array([[np.vdot(a, b) for b in vectors] for a in vectors]) * h * h


def _fundamental_moments(s: QuantizationScheme, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means A v and second moments conj(A) G A^T of the Hermitian fundamentals F = A P.

    Row 0 of the primitive Gram matrix holds v, the rest is G.
    """
    return s.assignment @ gram[0, 1:], s.assignment.conj() @ gram[1:, 1:] @ s.assignment.T


def heisenberg_moments(schemes: Sequence[QuantizationScheme], psi: WaveFunction,
                       times: Sequence[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Means J m and variances diag(J M J^T) - mean^2, each (len(times), 4), per scheme.

    One primitive Gram matrix of psi serves every scheme.
    """
    gram = _primitive_gram(psi)
    moments = []
    for s in schemes:
        mean0, second0 = _fundamental_moments(s, gram)
        jac = np.array([flow_jacobian(float(t), s.params) for t in times]).reshape(-1, 4, 4)
        means = jac @ mean0
        moments.append((means, (np.einsum("tij,jk,tik->ti", jac, second0, jac)
                                - means * means).real))
    return moments


@dataclass(frozen=True)
class CommutatorCheck:
    """Measured deviations of [A, B] psi from the scheme's commutator table."""

    max_deviation: float
    deviations: Mapping[tuple[str, str], float]
    localized: bool


def _primitive_commutators(psi: WaveFunction) -> dict[tuple[int, int], np.ndarray]:
    """K_ab = [P_a, P_b] psi for each pair a < b of PRIMITIVES, from 16 primitive actions.

    Each K_ab is P_a (P_b psi) - P_b (P_a psi), what (P_a @ P_b - P_b @ P_a).apply
    gives; P_a psi is dropped once the pairs in row a are formed, the last that use it.
    """
    grid = psi.grid
    firsts = [_apply_primitive(p, psi.values, grid) for p in PRIMITIVES]
    fields = {}
    for a, pa in enumerate(PRIMITIVES):
        for b in range(a + 1, len(PRIMITIVES)):
            fields[a, b] = (_apply_primitive(pa, firsts[b], grid)
                            - _apply_primitive(PRIMITIVES[b], firsts[a], grid))
        firsts[a] = None
    return fields


def commutator_table_check(schemes: Sequence[QuantizationScheme],
                           psi: WaveFunction) -> list[CommutatorCheck]:
    """Compare [F_i, F_j] psi against the table T_ij psi for every fundamental pair,
    one `CommutatorCheck` per scheme.

    With F = A P, [F_i, F_j] = sum_{a<b} (A_ia A_jb - A_ib A_ja) [P_a, P_b], so
    the six primitive commutators of psi (`_primitive_commutators`) serve every
    scheme: each pair's residual sums the nonzero coefficients' fields and
    subtracts T_ij psi where T_ij is nonzero.  Localization is decided once:
    `localized` is False, with one `LocalizationWarning`, when psi's boundary
    magnitude reaches `check_localized`'s threshold.
    """
    localized = check_localized(psi, action="commutator table check")
    fields = _primitive_commutators(psi)
    norm, h = psi.norm(), psi.grid.spacing
    checks = []
    for s in schemes:
        rows, devs = s.assignment, {}
        for i, j in PAIR_INDEX:
            diff = np.zeros_like(psi.values)
            for (a, b), field in fields.items():
                coeff = rows[i, a] * rows[j, b] - rows[i, b] * rows[j, a]
                if coeff != 0:
                    diff = diff + coeff * field
            if s.commutators[i, j] != 0:
                diff = diff - s.commutators[i, j] * psi.values
            dev = float(np.sqrt(np.sum(np.abs(diff) ** 2) * h * h)) / norm
            devs[(OBSERVABLES[i], OBSERVABLES[j])] = dev
        checks.append(CommutatorCheck(max_deviation=max(devs.values()),
                                      deviations=devs, localized=localized))
    return checks


def uncertainty_bound(s: QuantizationScheme, pair: tuple[str, str]) -> float:
    """Robertson bound |<[A, B]>|/2 for two fundamental observables."""
    return abs(s.commutators[OBSERVABLES.index(pair[0]), OBSERVABLES.index(pair[1])]) / 2.0


def uncertainty_product(s: QuantizationScheme, pair: tuple[str, str],
                        psi: WaveFunction, t: float = 0.0) -> float:
    """Delta A * Delta B for the Heisenberg-evolved observables at time t."""
    _, variances = heisenberg_moments((s,), psi, (t,))[0]
    return math.prod(math.sqrt(max(float(variances[0, OBSERVABLES.index(n)]), 0.0)) for n in pair)


def two_time_commutator(s: QuantizationScheme, t: float, t_prime: float,
                        psi: WaveFunction) -> complex:
    """<psi| [x(t), x(t')] psi> = a M b - b M a for x(t) = a.F, x(t') = b.F.

    With M_ij = <F_i psi|F_j psi>, it equals sin(omega (t'-t))/(m omega) times
    the scheme's [x_0, p_x0] table entry: zero for schemes 1 and 3, +/- i hbar otherwise.
    A psi whose boundary magnitude reaches `check_localized`'s threshold
    draws a `LocalizationWarning`.
    """
    check_localized(psi, action="two-time commutator")
    _, second = _fundamental_moments(s, _primitive_gram(psi))
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
# unitary evolution: every quantized generator is metaplectic, so its
# propagator is a product of phases diagonal on the grid or in its DFT
# ---------------------------------------------------------------------------

def _generator_polynomial(s: QuantizationScheme) -> PolynomialObservable:
    return standard_hamiltonians(s.params.m, s.params.omega)[s.id]


# relative slack within which a normal form's coefficients fit a closed form
_FIT = 1e-12


def _chirp_route(nf: Mapping, hbar: float, grid: GridSpec):
    """(omega, step) for S = V(q) + K(d), V and K real quadratics whose blocks A B = omega^2 I.

    V = q^T A q / 2 is S's pure-position part and K, its pure-derivative part
    at d = i k, is hbar^2 k^T B k / 2.  `step(phi)` advances by omega t = phi
    as C F C: C multiplies by exp(-i tan(phi/2) V/(hbar omega)) and F the DFT
    by exp(-i sin(phi) K/(hbar omega)), the lower-upper-lower shear
    factorization of the phase-space rotation (Koc, Ozaktas, Candan & Kutay,
    IEEE Trans. Signal Process. 56, 2383, 2008).  None when nf has another
    shape, an imaginary part (S is not Hermitian) or blocks whose product is
    not a positive multiple of I.
    """
    if any(c or d if a + b == 2 else a or b or c + d != 2 for a, b, c, d in nf) \
            or any(abs(c.imag) > _FIT * abs(c) for c in nf.values()):
        return None
    coef = {key: c.real for key, c in nf.items()}
    pos = np.array([[2 * coef.get((2, 0, 0, 0), 0.0), coef.get((1, 1, 0, 0), 0.0)],
                    [coef.get((1, 1, 0, 0), 0.0), 2 * coef.get((0, 2, 0, 0), 0.0)]])
    mom = np.array([[2 * coef.get((0, 0, 2, 0), 0.0), coef.get((0, 0, 1, 1), 0.0)],
                    [coef.get((0, 0, 1, 1), 0.0), 2 * coef.get((0, 0, 0, 2), 0.0)]]) / -hbar / hbar
    prod = pos @ mom
    omega2 = (prod[0, 0] + prod[1, 1]) / 2.0
    if not (omega2 > 0 and max(abs(prod[0, 1]), abs(prod[1, 0]), abs(prod[0, 0] - prod[1, 1]))
            <= _FIT * omega2):
        return None
    omega = math.sqrt(omega2)
    xg, yg = grid.meshgrid()
    kx, ky = np.meshgrid(1j * grid.wavenumbers(), 1j * grid.wavenumbers(), indexing="ij")
    potential = sum(c * xg ** a * yg ** b for (a, b, _, _), c in coef.items() if a + b)
    kinetic = sum((c * kx ** c_x * ky ** c_y).real
                  for (a, b, c_x, c_y), c in coef.items() if not a + b)

    def step(phi):
        chirp = np.exp(-1j * math.tan(phi / 2.0) / (hbar * omega) * potential)
        spectral = np.exp(-1j * math.sin(phi) / (hbar * omega) * kinetic)
        return lambda values: chirp * np.fft.ifft2(spectral * np.fft.fft2(chirp * values))
    return omega, step


def _shear_route(nf: Mapping, hbar: float, grid: GridSpec):
    """(omega, step) for S = c (x d_y - y d_x) with c imaginary: S turns the plane by omega t,
    U(t) psi(q) = psi(R(omega t) q), for omega = Im c / hbar.

    `step(phi)` turns by phi with three 1-D FFT shears, x by -tan(phi/2), y
    by sin(phi), x by -tan(phi/2) (Unser, Thevenaz & Yaroslavsky, IEEE Trans.
    Image Process. 4, 1371, 1995); a shear of x by a moves each column y_j by
    a y_j, a phase exp(i k a y_j) on its DFT.  None when nf has another shape
    or a real part (S is not Hermitian).
    """
    if set(nf) != {(1, 0, 0, 1), (0, 1, 1, 0)}:
        return None
    c = (nf[1, 0, 0, 1] - nf[0, 1, 1, 0]) / 2.0
    # the two terms may differ from c and -c by roundoff, the real parts included
    if abs(nf[1, 0, 0, 1] - c) > _FIT * abs(c) or abs(c.real) > _FIT * abs(c):
        return None
    k_q = np.outer(grid.wavenumbers(), grid.axis())  # k_i q_j, for the x shear; .T for the y shear

    def step(phi):
        shear_x = np.exp(-1j * math.tan(phi / 2.0) * k_q)
        shear_y = np.exp(1j * math.sin(phi) * k_q.T)

        def turn(values):
            values = np.fft.ifft(shear_x * np.fft.fft(values, axis=-2), axis=-2)
            values = np.fft.ifft(shear_y * np.fft.fft(values, axis=-1), axis=-1)
            return np.fft.ifft(shear_x * np.fft.fft(values, axis=-2), axis=-2)
        return turn
    return c.imag / hbar, step


def _propagator(s: QuantizationScheme, grid: GridSpec):
    """evolve(values, t): exp(-i S t / hbar) applied to a field or a stack of fields.

    S, the scheme's quantized generator, is normal-ordered once, and its
    normal form alone picks the route: `_chirp_route` (S0-S2) or
    `_shear_route` (S3); any other normal form raises ValueError.  Every
    route's S has period 2 pi/omega, so omega t is reduced to (-pi, pi] and
    taken in the fewest equal steps of at most pi/4 (at most 4); t = 0 takes
    none.  A normal form or an omega t that is not finite raises ValueError.
    """
    hbar = s.params.hbar
    nf = quantize_observable(s, _generator_polynomial(s)).normal_form()
    if not all(cmath.isfinite(c) for c in nf.values()):
        raise ValueError("the quantized generator's normal form is not finite")
    route = _chirp_route(nf, hbar, grid) or _shear_route(nf, hbar, grid)
    if route is None:
        raise ValueError(f"no closed-form propagator for the normal form {nf}")
    omega, step = route

    def evolve(values: np.ndarray, t: float) -> np.ndarray:
        theta = math.remainder(omega * t, 2.0 * math.pi)
        steps = math.ceil(abs(theta) / (math.pi / 4.0))
        if steps:
            advance = step(theta / steps)
            for _ in range(steps):
                values = advance(values)
        return values
    return evolve


def unitary_evolve(s: QuantizationScheme, psi: WaveFunction, t: float) -> WaveFunction:
    """exp(-i S t / hbar) psi in closed form, by the route `_propagator` reads off S.

    Each step costs a few FFTs of the field, and a step count of at most 4
    whatever t is.
    """
    return WaveFunction(psi.grid, _propagator(s, psi.grid)(psi.values, t))


def conjugation_probe(params: PhysParams, grid: GridSpec) -> WaveFunction:
    """The localized Gaussian `check`'s unitary group probes, in oscillator units,
    so it sits alike on the group's 8 sigma_ref grid at every m omega / hbar."""
    ref = params.sigma_ref
    return GaussianPacket(center=(0.5 * ref, -0.3 * ref), wavevector=(0.4 / ref, 0.2 / ref),
                          sigma=params.ground_sigma).sample(grid)


def conjugation_deviations(s: QuantizationScheme, psi: WaveFunction,
                           probes: Sequence[tuple[str, float]]) -> list[float]:
    """Relative L2 gap between exp(iSt/h) O exp(-iSt/h) psi and the rotated operator
    O(t) psi, for each (O, t) of probes.

    U = exp(-i S t / hbar) is unitary, so the gap |U^dagger O U psi - O(t) psi|
    is measured forward, as |O U psi - U O(t) psi| / |O(t) psi|, and no state
    is evolved backward.  One propagator of S (`_propagator`, as in
    `unitary_evolve`) serves every probe, evolving the stack [psi, O(t) psi]
    to the probe's t.  The target enters the stack in units of its largest
    entry, so neither the evolution nor a norm meets subnormal numbers when
    O(t) psi is tiny (m omega = 1e-300).
    """
    evolve = _propagator(s, psi.grid)
    deviations = []
    for which, t in probes:
        row = OBSERVABLES.index(which)
        target = _act(flow_jacobian(t, s.params)[row] @ s.assignment, psi.values, psi.grid)
        scale = np.abs(target).max()
        target = target / scale
        evolved, moved = evolve(np.stack([psi.values, target]), t)
        acted = _act(s.assignment[row], evolved, psi.grid) / scale
        num = np.sqrt(np.sum(np.abs(acted - moved) ** 2))
        deviations.append(float(num / np.sqrt(np.sum(np.abs(target) ** 2))))
    return deviations
