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


def _rotated_moments(s: QuantizationScheme, gram: np.ndarray,
                     times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """`heisenberg_moments` from a state's primitive Gram matrix."""
    mean0, second0 = _fundamental_moments(s, gram)
    jac = np.array([flow_jacobian(float(t), s.params) for t in times]).reshape(-1, 4, 4)
    means = jac @ mean0
    return means, (np.einsum("tij,jk,tik->ti", jac, second0, jac) - means * means).real


def heisenberg_moments(s: QuantizationScheme, psi: WaveFunction,
                       times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Means J m and variances diag(J M J^T) - mean^2, each (len(times), 4)."""
    return _rotated_moments(s, _primitive_gram(psi), times)


@dataclass(frozen=True)
class CommutatorCheck:
    """Measured deviations of [A, B] psi from the scheme's commutator table."""

    max_deviation: float
    deviations: Mapping[tuple[str, str], float]
    localized: bool


def commutator_table_check(s: QuantizationScheme, psi: WaveFunction) -> CommutatorCheck:
    """Apply every fundamental pair both ways and compare against the table.

    `localized` is False, with a `LocalizationWarning`, when psi reaches
    `check_localized`'s default threshold at the grid boundary.
    """
    localized = check_localized(psi, action="commutator table check")
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


def uncertainty_product(s: QuantizationScheme, pair: tuple[str, str],
                        psi: WaveFunction, t: float = 0.0) -> float:
    """Delta A * Delta B for the Heisenberg-evolved observables at time t."""
    _, variances = heisenberg_moments(s, psi, (t,))
    return math.prod(math.sqrt(max(float(variances[0, OBSERVABLES.index(n)]), 0.0)) for n in pair)


def two_time_commutator(s: QuantizationScheme, t: float, t_prime: float,
                        psi: WaveFunction) -> complex:
    """<psi| [x(t), x(t')] psi> = a M b - b M a for x(t) = a.F, x(t') = b.F.

    With M_ij = <F_i psi|F_j psi>, it equals sin(omega (t'-t))/(m omega) times
    the scheme's [x_0, p_x0] table entry: zero for schemes 1 and 3, +/- i hbar otherwise.
    A psi that reaches `check_localized`'s default threshold at the grid
    boundary draws a `LocalizationWarning`.
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
# unitary evolution: matrix-free Chebyshev expansion of the propagator
# ---------------------------------------------------------------------------

def _generator_polynomial(s: QuantizationScheme) -> PolynomialObservable:
    return standard_hamiltonians(s.params.m, s.params.omega)[s.id]


@dataclass(frozen=True)
class _Stencil:
    """S psi = V psi + sum_g P_g ifft2(M_g fft2(psi)) on one grid.

    Built from S's normal form, terms grouped by their coordinate monomial
    x^a y^b: the derivative-free groups merge into the potential V, and each
    other group keeps its field P_g = x^a y^b and its multiplier M_g =
    sum c (i k_x)^c (i k_y)^d.  This is S's action as written whenever S
    multiplies only primitives that commute on the grid (different axes, or the
    same primitive), as every quantized S0-S3 does under its own scheme.
    `center` and `half_width` bound S's spectrum; see `_generator_stencil`.
    """

    potential: np.ndarray  # V, (N, N)
    fields: np.ndarray  # P_g, (G, N, N)
    multipliers: np.ndarray  # M_g, (G, N, N)
    center: float
    half_width: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        """S on a field (N, N) or a stack of them (B, N, N): one fft2 and one batched ifft2."""
        shape = (len(self.fields),) + (1,) * (values.ndim - 2) + values.shape[-2:]
        derived = np.fft.ifft2(self.multipliers.reshape(shape) * np.fft.fft2(values))
        return self.potential * values + np.sum(self.fields.reshape(shape) * derived, axis=0)


def _generator_stencil(s: QuantizationScheme, grid: GridSpec) -> _Stencil:
    """The stencil of S = quantize_observable(s, _generator_polynomial(s)).

    Its spectral interval follows from Weyl's inequality.  Write S = V + K0 +
    rest, with K0 the multiplier of the group whose field is 1 (zero if there
    is none).  Re V and Re K0 are Hermitian, with spectra [min, max] of their
    arrays; rest = S - Re V - Re K0 is Hermitian whenever S is, and
    ||rest|| <= max|Im V| + max|Im K0| + sum over the other groups of
    max|P_g| max|M_g|.  So spec S lies in [min Re V + min Re K0 - ||rest||,
    max Re V + max Re K0 + ||rest||].  For S0, V and K0 are both >= 0 and the
    interval is [0, max V + max K0], half as wide as the symmetric bound
    max|V| + sum_g max|P_g| max|M_g|.
    """
    xg, yg = grid.meshgrid()
    kx, ky = np.meshgrid(1j * grid.wavenumbers(), 1j * grid.wavenumbers(), indexing="ij")
    potential = np.zeros((grid.points, grid.points), dtype=complex)
    groups: dict[tuple[int, int], np.ndarray] = {}
    nf = quantize_observable(s, _generator_polynomial(s)).normal_form()
    for (a, b, c, d), coeff in sorted(nf.items()):
        if c == d == 0:
            potential += coeff * xg ** a * yg ** b
        else:
            mult = groups.setdefault((a, b), np.zeros_like(potential))
            mult += coeff * kx ** c * ky ** d
    shape = (len(groups), grid.points, grid.points)
    fields = np.array([xg ** a * yg ** b for a, b in groups]).reshape(shape)
    multipliers = np.array(list(groups.values())).reshape(shape)
    kinetic = groups.get((0, 0), np.zeros_like(potential))
    low = float(potential.real.min() + kinetic.real.min())
    high = float(potential.real.max() + kinetic.real.max())
    rest = float(np.abs(potential.imag).max() + np.abs(kinetic.imag).max()
                 + sum(np.abs(p).max() * np.abs(m).max()
                       for key, p, m in zip(groups, fields, multipliers) if key != (0, 0)))
    return _Stencil(potential, fields, multipliers,
                    center=(low + high) / 2.0, half_width=(high - low) / 2.0 + rest)


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


def _propagate(stencil: _Stencil, states: np.ndarray, hbar: float,
               jobs: Sequence[tuple[int, float]]) -> np.ndarray:
    """exp(-i S t / hbar) states[row] for each (row, t) of jobs, from one recurrence.

    With spec S in [c - r, c + r], exp(-i S t / hbar) = exp(-i c t / hbar)
    sum_k c_k T_k((S - c) / r) for alpha = r t / hbar (Tal-Ezer & Kosloff, J.
    Chem. Phys. 81, 3967, 1984).  T_k((S - c) / r) does not depend on t, so
    the stack of states runs one three-term recurrence, to the highest order
    any job needs, and each job sums its own row's T_k with its own time's
    c_k.  Raises ValueError when the interval or a job's alpha is not finite,
    and RuntimeError when an evolved state's norm moves by more than 1e-8
    relative: a non-Hermitian generator or an interval that is too narrow.
    """
    center, half_width = stencil.center, stencil.half_width
    times = np.array([t for _, t in jobs], dtype=float)
    alphas, phases = half_width * times / hbar, center * times / hbar
    if not (np.isfinite(alphas).all() and np.isfinite(phases).all()):
        raise ValueError(f"the generator's spectral interval {center:.3e} +/- {half_width:.3e} "
                         "does not give a finite propagator")
    series = [_chebyshev_coefficients(alpha) for alpha in alphas]
    table = np.zeros((max(map(len, series)), len(jobs)), dtype=complex)
    for j, coeffs in enumerate(series):
        table[:len(coeffs), j] = coeffs
    rows = [row for row, _ in jobs]
    out = table[0, :, None, None] * states[rows]
    prev = cur = states  # T_{k-2} and T_{k-1} of every state
    for k in range(1, len(table)):
        step = (stencil.apply(cur) - center * cur) / half_width
        prev, cur = cur, step if k == 1 else 2.0 * step - prev
        out += table[k, :, None, None] * cur[rows]
    out *= np.exp(-1j * phases)[:, None, None]
    before = np.sqrt(np.sum(np.abs(states[rows]) ** 2, axis=(1, 2)))
    drift = np.abs(np.sqrt(np.sum(np.abs(out) ** 2, axis=(1, 2))) - before)
    failed = np.flatnonzero(~(drift <= 1e-8 * before))
    if failed.size:
        j = failed[0]
        raise RuntimeError(f"propagator changed the norm by {drift[j] / before[j]:.3e} relative: "
                           "the generator is not Hermitian or its spectral interval is too narrow")
    return out


def unitary_evolve(s: QuantizationScheme, psi: WaveFunction, t: float) -> WaveFunction:
    """exp(-i S t / hbar) psi by a Chebyshev expansion of the propagator.

    The T_k follow from the three-term recurrence, one application of S's
    grid stencil per order (one fft2 and one batched ifft2), so no matrix is
    formed and any grid size works.  Raises RuntimeError when the norm moves
    by more than 1e-8 relative; see `_propagate`.
    """
    stencil = _generator_stencil(s, psi.grid)
    return WaveFunction(psi.grid, _propagate(stencil, psi.values[None], s.params.hbar,
                                             ((0, t),))[0])


def _conjugation_probe(params: PhysParams, grid: GridSpec) -> WaveFunction:
    """The localized Gaussian the conjugation check uses by default."""
    return GaussianPacket(center=(0.5, -0.3), wavevector=(0.4, 0.2),
                          sigma=params.ground_sigma).sample(grid)


def _conjugation_deviations(s: QuantizationScheme, psi: WaveFunction,
                            probes: Sequence[tuple[str, float]]) -> list[float]:
    """|O U psi - U O(t) psi| / |O(t) psi| for each (O, t) of probes, U = exp(-i S t / hbar).

    U is unitary, so the numerator is the gap between U^dagger O U psi and
    O(t) psi, and no state is evolved backward.  One stencil of S and one
    recurrence over the stack [psi, O_1(t_1) psi, ...] serve every probe: psi
    is evolved to each probe's time, each target to its own.
    """
    stencil = _generator_stencil(s, psi.grid)
    targets = [heisenberg_operator(s, which, t).apply(psi).values for which, t in probes]
    jobs = [(0, t) for _, t in probes] + [(i + 1, t) for i, (_, t) in enumerate(probes)]
    evolved = _propagate(stencil, np.stack([psi.values, *targets]), s.params.hbar, jobs)
    deviations = []
    for i, (which, _) in enumerate(probes):
        acted = s.fundamental(which).apply(WaveFunction(psi.grid, evolved[i])).values
        num = np.sqrt(np.sum(np.abs(acted - evolved[len(probes) + i]) ** 2))
        den = np.sqrt(np.sum(np.abs(targets[i]) ** 2))
        deviations.append(float(num / den))
    return deviations


def unitary_conjugation_check(s: QuantizationScheme, which: str, t: float,
                              grid: GridSpec,
                              psi: WaveFunction | None = None) -> float:
    """Relative L2 gap between exp(iSt/h) O exp(-iSt/h) psi and the rotated operator.

    Uses a localized Gaussian by default.  The gap is measured forward, as
    |O U psi - U O(t) psi| / |O(t) psi| (`_conjugation_deviations`), with the
    matrix-free propagator of `unitary_evolve`, so the grid size is not capped.
    """
    if psi is None:
        psi = _conjugation_probe(s.params, grid)
    elif psi.grid != grid:
        raise ValueError("grid mismatch")
    return _conjugation_deviations(s, psi, ((which, t),))[0]
