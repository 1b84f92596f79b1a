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
# unitary evolution: closed form for a separable generator, else a Chebyshev
# expansion of the propagator with a 1-D factor stencil
# ---------------------------------------------------------------------------

def _generator_polynomial(s: QuantizationScheme) -> PolynomialObservable:
    return standard_hamiltonians(s.params.m, s.params.omega)[s.id]


@dataclass(frozen=True)
class _Stencil:
    """(S - center) / half_width on one grid, as products with 1-D factors.

    Each term c x^a y^b (d/dx)^c (d/dy)^d of S's normal form acts on a field
    psi (axis 0 is x, axis 1 is y) as (diag(x^a) K_c) psi (diag(y^b) K_d)^T,
    where K_c is the matrix the FFT's c-th derivative applies.  Derivative-free
    terms merge into the field `potential`, terms on the x axis alone into one
    left factor, terms on the y axis alone into one right factor, and the rest
    keep their own (left, right) pair.  This is S's action as written whenever S
    multiplies only primitives that commute on the grid (different axes, or the
    same primitive), as every quantized S0-S3 does under its own scheme.
    `center` and `half_width` bound S's spectrum (see `_generator_stencil`) and
    are folded into the potential and into one factor of each other term.
    """

    potential: np.ndarray  # (V - center) / half_width, (N, N)
    factors: tuple[tuple[np.ndarray | None, np.ndarray | None], ...]  # (left, right^T), None = 1
    center: float
    half_width: float

    def step(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = (S - center) / half_width values, for a field (N, N) or a stack (B, N, N)."""
        np.multiply(self.potential, values, out=out)
        for left, right_t in self.factors:
            term = values if left is None else left @ values
            out += term if right_t is None else term @ right_t
        return out


def _axis_factor(grid: GridSpec, power: int, order: int) -> np.ndarray | None:
    """diag(axis^power) K_order on one axis of the grid, None for the identity;
    K_order is the N x N matrix the FFT's order-th derivative applies."""
    if power == order == 0:
        return None
    if order:
        spectral = np.fft.fft(np.eye(grid.points), axis=0)
        deriv = np.fft.ifft((1j * grid.wavenumbers())[:, None] ** order * spectral, axis=0)
    else:
        deriv = np.eye(grid.points)
    return grid.axis()[:, None] ** power * deriv


def _generator_stencil(nf: Mapping, grid: GridSpec) -> _Stencil:
    """The stencil of the generator S whose normal form is nf.

    Its spectral interval follows from Weyl's inequality.  Group S's
    derivative terms by their coordinate monomial P_g = x^a y^b, each with the
    k-space multiplier M_g = sum c (i k_x)^c (i k_y)^d, and let K0 be the
    multiplier of the group whose field is 1 (zero if there is none).  Re V
    and Re K0 are Hermitian, with spectra [min, max] of their arrays; rest = S
    - Re V - Re K0 is Hermitian whenever S is, and ||rest|| <= max|Im V| +
    max|Im K0| + sum over the other groups of max|P_g| max|M_g|.  So spec S
    lies in [min Re V + min Re K0 - ||rest||, max Re V + max Re K0 + ||rest||].
    For S0, V and K0 are both >= 0 and the interval is [0, max V + max K0],
    half as wide as the symmetric bound max|V| + sum_g max|P_g| max|M_g|.
    The multipliers serve the bound only; the stencil keeps 1-D factors.
    Raises ValueError when the interval is not finite (hbar = 1e300).
    """
    xg, yg = grid.meshgrid()
    kx, ky = np.meshgrid(1j * grid.wavenumbers(), 1j * grid.wavenumbers(), indexing="ij")
    potential = np.zeros((grid.points, grid.points), dtype=complex)
    groups: dict[tuple[int, int], np.ndarray] = {}
    terms = []  # (coeff, x factor (a, c), y factor (b, d)) of each derivative term
    for (a, b, c, d), coeff in sorted(nf.items()):
        if c == d == 0:
            potential += coeff * xg ** a * yg ** b
        else:
            mult = groups.setdefault((a, b), np.zeros_like(potential))
            mult += coeff * kx ** c * ky ** d
            terms.append((coeff, (a, c), (b, d)))
    kinetic = groups.get((0, 0), np.zeros_like(potential))
    low = float(potential.real.min() + kinetic.real.min())
    high = float(potential.real.max() + kinetic.real.max())
    rest = float(np.abs(potential.imag).max() + np.abs(kinetic.imag).max()
                 + sum(np.abs(xg ** a * yg ** b).max() * np.abs(m).max()
                       for (a, b), m in groups.items() if (a, b) != (0, 0)))
    center, half_width = (low + high) / 2.0, (high - low) / 2.0 + rest
    if not (math.isfinite(center) and math.isfinite(half_width)):
        raise ValueError(f"the generator's spectral interval {center:.3e} +/- {half_width:.3e} "
                         "is not finite")

    lefts, rights, pairs = [], [], []
    for coeff, x_part, y_part in terms:
        x_factor, y_factor = _axis_factor(grid, *x_part), _axis_factor(grid, *y_part)
        if y_factor is None:
            lefts.append(coeff / half_width * x_factor)
        elif x_factor is None:
            rights.append(coeff / half_width * y_factor.T)
        else:
            pairs.append((coeff / half_width * x_factor, y_factor.T))
    factors = ([(sum(lefts), None)] if lefts else []) + \
        ([(None, sum(rights))] if rights else []) + pairs
    return _Stencil((potential - center) / half_width, tuple(factors),
                    center=center, half_width=half_width)


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
    # jobs run longest series first, so the jobs whose series has not ended
    # yet are a leading slice, the only rows an order adds to
    order = sorted(range(len(jobs)), key=lambda j: -len(series[j]))
    ends = [len(series[j]) for j in order]
    table = np.zeros((ends[0], len(jobs)), dtype=complex)
    for col, j in enumerate(order):
        table[:ends[col], col] = series[j]
    rows = [jobs[j][0] for j in order]
    out = table[0, :, None, None] * states[rows]
    cur = np.array(states, dtype=complex)  # T_{k-1}; T_{k-2} and a spare take two more buffers
    prev, spare = np.empty_like(cur), np.empty_like(cur)
    live = len(jobs)
    for k in range(1, len(table)):
        nxt = stencil.step(cur, spare)
        if k > 1:
            nxt *= 2.0
            nxt -= prev
        prev, cur, spare = cur, nxt, prev
        while ends[live - 1] <= k:
            live -= 1
        out[:live] += table[k, :live, None, None] * cur[rows[:live]]
    out = out[np.argsort(order)]  # back to the order of jobs
    out *= np.exp(-1j * phases)[:, None, None]
    before = np.sqrt(np.sum(np.abs(states[[row for row, _ in jobs]]) ** 2, axis=(1, 2)))
    drift = np.abs(np.sqrt(np.sum(np.abs(out) ** 2, axis=(1, 2))) - before)
    failed = np.flatnonzero(~(drift <= 1e-8 * before))
    if failed.size:
        j = failed[0]
        raise RuntimeError(f"propagator changed the norm by {drift[j] / before[j]:.3e} relative: "
                           "the generator is not Hermitian or its spectral interval is too narrow")
    return out


def _is_hermitian(op: OperatorExpr) -> bool:
    """op equals its adjoint in the Weyl algebra, where x and y are Hermitian and
    d/dx and d/dy anti-Hermitian, as they are on the grid."""
    adjoint = OperatorExpr(
        (c.conjugate() * (-1) ** sum(p in (Primitive.DX, Primitive.DY) for p in prod), prod[::-1])
        for c, prod in op.terms)
    return op.equals(adjoint)


def _separable_factors(op: OperatorExpr, nf: Mapping, grid: GridSpec) -> tuple | None:
    """Eigensystems (w, V) of S_x and S_y when S = S_x (x) 1 + 1 (x) S_y, else None;
    op is S and nf its normal form.

    S splits this way when no term of its normal form mixes the axes, the
    potential's terms included: each term then acts on one axis alone, as
    `_axis_factor`'s matrix for that axis, and a constant term joins S_x.  S0
    and S2 split under their own schemes.  Each factor is made exactly
    Hermitian and diagonalized by one `eigh`, which would drop an
    anti-Hermitian part, so an S that is not Hermitian takes the Chebyshev
    route, whose norm guard reports it.  Raises ValueError when a factor is
    not finite.
    """
    if any((a or c) and (b or d) for a, b, c, d in nf) or not _is_hermitian(op):
        return None
    eye = np.eye(grid.points)
    parts = [np.zeros((grid.points, grid.points), dtype=complex) for _ in range(2)]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for (a, b, c, d), coeff in sorted(nf.items()):
            axis, power, order = (1, b, d) if b or d else (0, a, c)
            factor = _axis_factor(grid, power, order)
            parts[axis] += coeff * (eye if factor is None else factor)
    if not all(np.isfinite(part).all() for part in parts):
        raise ValueError("the generator's spectral interval is not finite: "
                         "a 1-D factor holds inf or nan")
    return tuple(np.linalg.eigh((part + part.conj().T) / 2.0) for part in parts)


def _separable_propagate(factors, states: np.ndarray, hbar: float,
                         jobs: Sequence[tuple[int, float]]) -> np.ndarray:
    """exp(-i S t / hbar) states[row] = U_x states[row] U_y^T for each (row, t) of jobs.

    Each U = V exp(-i w t / hbar) V^dagger comes from its factor's
    eigensystem, once per distinct t.  Raises ValueError when a phase w t /
    hbar is not finite.
    """
    out = np.empty((len(jobs),) + states.shape[1:], dtype=complex)
    unitaries = {}
    for j, (row, t) in enumerate(jobs):
        if t not in unitaries:
            phases = [w * t / hbar for w, _ in factors]
            if not all(np.isfinite(phase).all() for phase in phases):
                raise ValueError("the generator's spectral interval does not give "
                                 "a finite propagator")
            ux, uy = ((v * np.exp(-1j * phase)) @ v.conj().T
                      for phase, (_, v) in zip(phases, factors))
            unitaries[t] = ux, uy.T
        ux, uy_t = unitaries[t]
        out[j] = ux @ states[row] @ uy_t
    return out


def _propagator(s: QuantizationScheme, grid: GridSpec):
    """evolve(states, jobs): exp(-i S t / hbar) states[row] for each (row, t) of jobs.

    The route follows from S's normal form: the closed form of
    `_separable_factors` when S splits over the axes (S0, S2), else one
    Chebyshev recurrence over S's stencil (`_propagate`; S1, S3).  S is
    quantized and normal-ordered once, for both routes.
    """
    hbar = s.params.hbar
    op = quantize_observable(s, _generator_polynomial(s))
    nf = op.normal_form()
    factors = _separable_factors(op, nf, grid)
    if factors is not None:
        return lambda states, jobs: _separable_propagate(factors, states, hbar, jobs)
    stencil = _generator_stencil(nf, grid)
    return lambda states, jobs: _propagate(stencil, states, hbar, jobs)


def unitary_evolve(s: QuantizationScheme, psi: WaveFunction, t: float) -> WaveFunction:
    """exp(-i S t / hbar) psi, by the route `_propagator` takes for S.

    A separable S (S0, S2) evolves in closed form from its 1-D factors'
    eigensystems.  Any other S takes a Chebyshev expansion of the propagator:
    the T_k follow from the three-term recurrence, one step of S's stencil per
    order, products with N x N factors, so no N^2 x N^2 matrix is formed and
    the cost per order grows as N^3; it raises RuntimeError when the norm moves
    by more than 1e-8 relative (see `_propagate`).
    """
    return WaveFunction(psi.grid, _propagator(s, psi.grid)(psi.values[None], ((0, t),))[0])


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
    `unitary_evolve`) evolves the stack [psi, O_1(t_1) psi, ...] for every
    probe: psi to each probe's time, each target to its own.  Each target
    enters the stack in units of its largest entry, so neither the evolution
    nor a norm meets subnormal numbers when O(t) psi is tiny (m omega = 1e-300).
    """
    evolve = _propagator(s, psi.grid)
    rows = [OBSERVABLES.index(which) for which, _ in probes]
    targets = [_act(flow_jacobian(t, s.params)[r] @ s.assignment, psi.values, psi.grid)
               for r, (_, t) in zip(rows, probes)]
    scales = [np.abs(target).max() for target in targets]
    targets = [target / scale for target, scale in zip(targets, scales)]
    jobs = [(0, t) for _, t in probes] + [(i + 1, t) for i, (_, t) in enumerate(probes)]
    evolved = evolve(np.stack([psi.values, *targets]), jobs)
    deviations = []
    for i, r in enumerate(rows):
        acted = _act(s.assignment[r], evolved[i], psi.grid) / scales[i]
        num = np.sqrt(np.sum(np.abs(acted - evolved[len(probes) + i]) ** 2))
        den = np.sqrt(np.sum(np.abs(targets[i]) ** 2))
        deviations.append(float(num / den))
    return deviations
