"""Four quantum theories of the 2-D oscillator from Dirac's rule.

Each bracket matrix induces its own commutator algebra [A, B] = i hbar {A, B}
and its own representation of the fundamentals on L^2(R^2, dx dy): a constant
4x4 matrix over the primitives x, y, d/dx, d/dy.  The schemes share the
Heisenberg rotation `flow_jacobian`, so every mean, variance, uncertainty
product and two-time commutator follows from the primitives' Gram matrix on
one prepared state.  The fundamentals act differently on that state, which is
exactly why the schemes' predictions differ.  The state is a Gaussian packet,
the product of two 1-D axis factors, and each primitive acts on one factor,
so the Gram matrix and the commutator check (`commutator_table_check`) are
formed from the factors alone, and no N x N field is formed.

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
from typing import Sequence

import numpy as np

from .flow import flow_jacobian
from .operators import (
    GaussianPacket,
    GridSpec,
    Primitive,
    WaveFunction,
    _apply_primitive,
)
from .pairs import PAIR_INDEX, _derivatives_at_zero, bracket_matrices, standard_hamiltonians
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


def _act(row: np.ndarray, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_a row[a] P_a(values), a row of A or J(t) A on a field: zero terms skipped, the
    rest added to zeros in PRIMITIVES order."""
    out = np.zeros_like(values)
    for c, p in zip(row, PRIMITIVES):
        if c != 0:
            out = out + c * _apply_primitive(p, values, grid)
    return out


# the factor each of psi, P_1 psi, ..., P_4 psi takes on the x and on the y axis:
# 0 the packet's factor, 1 q times it and 2 its derivative d/dq
_X_FACTOR = [0, 1, 0, 2, 0]
_Y_FACTOR = [0, 0, 1, 0, 2]
# the same for psi, s_x v and u s_y over (u, s), a factor and its seam vector
_SEAM_X = [0, 1, 0]
_SEAM_Y = [0, 0, 1]


def _axis_actions(packet: GaussianPacket, grid: GridSpec):
    """(scaled, axes): `scaled` is the grid scaled by f = 2^-e to a half-width in
    [0.5, 1), where q is f q and d/dq is d/dq / f, and `axes` holds (q, d, [u, q u, d u])
    for the x and then the y axis, with u the packet's factor on that axis and q, d its
    primitives acting from `scaled`.

    On the axis in absolute units a square or a sum under- or overflows at
    m omega / hbar = 1e+/-200; scaling by a power of two is exact.
    """
    scaled = GridSpec(math.frexp(grid.half_width)[0], grid.points)
    return scaled, [(q, d, [u, _apply_primitive(q, u, scaled), _apply_primitive(d, u, scaled)])
                    for u, (q, d) in zip(packet.factors(grid), ((Primitive.X, Primitive.DX),
                                                                (Primitive.Y, Primitive.DY)))]


def _axis_gram(vectors: list[np.ndarray]) -> np.ndarray:
    """Gram matrix of one axis's vectors, the first a packet factor, divided by its
    (0, 0) entry.  Every sum is numpy's pairwise sum of N terms, so no BLAS call, and
    no thread count, takes part.  Raises ValueError when the factor's norm is zero or
    not finite."""
    vectors = np.array(vectors).reshape(len(vectors), -1)
    gram = np.sum(vectors.conj()[:, None, :] * vectors[None, :, :], axis=-1)
    norm = gram[0, 0].real
    if not 0.0 < norm < math.inf:
        raise ValueError(f"cannot normalize a packet factor of norm {norm}")
    return gram / norm


def _packet_gram(packet: GaussianPacket, grid: GridSpec) -> np.ndarray:
    """Gram matrix of psi, P_1 psi, ..., P_4 psi for the normalized packet psi on the
    grid; it does not depend on the scheme.

    psi is the product f(x) g(y) of the packet's `factors`, and each P_a acts on one
    of them, so each entry is a product G_ab = F[a', b'] H[a'', b''] of the factors'
    own Gram matrices over (1, q, d/dq) (`_axis_gram`); a', a'' are P_a's entries of
    _X_FACTOR and _Y_FACTOR.  Each axis Gram is formed on `_axis_actions`' scaled
    axis and unscaled exactly by w_i w_j with w = (1, f, 1/f).
    """
    e = math.frexp(grid.half_width)[1]
    w = np.array([1.0, math.ldexp(1.0, -e), math.ldexp(1.0, e)])
    x, y = (_axis_gram(vectors) / w[:, None] / w[None, :]
            for _, _, vectors in _axis_actions(packet, grid)[1])
    return x[np.ix_(_X_FACTOR, _X_FACTOR)] * y[np.ix_(_Y_FACTOR, _Y_FACTOR)]


def _fundamental_moments(s: QuantizationScheme, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means A v and second moments conj(A) G A^T of the Hermitian fundamentals F = A P.

    Row 0 of the primitive Gram matrix holds v, the rest is G.
    """
    return s.assignment @ gram[0, 1:], s.assignment.conj() @ gram[1:, 1:] @ s.assignment.T


def _gram_moments(schemes: Sequence[QuantizationScheme], gram: np.ndarray,
                  times: Sequence[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """`heisenberg_moments` from a primitive Gram matrix; the J(t) stack is built
    once per call for each PhysParams among the schemes."""
    jacobians, moments = {}, []
    for s in schemes:
        if s.params not in jacobians:
            jacobians[s.params] = np.array([flow_jacobian(float(t), s.params)
                                            for t in times]).reshape(-1, 4, 4)
        jac = jacobians[s.params]
        mean0, second0 = _fundamental_moments(s, gram)
        means = jac @ mean0
        moments.append((means, (np.einsum("tij,jk,tik->ti", jac, second0, jac)
                                - means * means).real))
    return moments


def heisenberg_moments(schemes: Sequence[QuantizationScheme], packet: GaussianPacket,
                       grid: GridSpec,
                       times: Sequence[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Means J m and variances diag(J M J^T) - mean^2, each (len(times), 4), per scheme,
    of the packet on the grid.

    One primitive Gram matrix of the packet (`_packet_gram`) serves every scheme,
    and no N x N field is formed.
    """
    return _gram_moments(schemes, _packet_gram(packet, grid), times)


def _seam_vectors(packet: GaussianPacket, grid: GridSpec) -> list[list[np.ndarray]]:
    """[u, k u + u] for the x and then the y axis, with u the packet's factor on that
    axis and k = [q, d/dq] formed on `_axis_actions`' scaled axis: [f q, d/(f q)] is
    [q, d/dq].  k u departs from -u only at the periodic seam."""
    scaled, axes = _axis_actions(packet, grid)
    return [[u, _apply_primitive(q, du, scaled) - _apply_primitive(d, qu, scaled) + u]
            for q, d, (u, qu, du) in axes]


def commutator_table_check(schemes: Sequence[QuantizationScheme], packet: GaussianPacket,
                           grid: GridSpec) -> list[dict[tuple[str, str], float]]:
    """Relative L2 deviation of [F_i, F_j] psi from the table T_ij psi for every
    fundamental pair (F_i, F_j), one {pair: deviation} dict per scheme, with psi the
    packet on the grid.

    A primitive on x and one on y act on different axes of psi = u(x) v(y), so of
    the primitive commutators only [x, d/dx] = k_x and [y, d/dy] = k_y are not
    zero, with k = [q, d/dq] on that axis's factor.  With F = A P, the residual of
    pair (i, j) is c_x k_x psi + c_y k_y psi - T_ij psi for c_x = A_i0 A_j2 -
    A_i2 A_j0 and c_y = A_i1 A_j3 - A_i3 A_j1.  With each axis's seam vector
    s = k u + u (`_seam_vectors`) the residual is (-c_x - c_y - T_ij) psi +
    c_x s_x v + c_y u s_y, and its squared norm over |psi|^2 is c^H B c, with B
    the product of the two axis Grams over (u, s) (`_axis_gram`).  The quadratic
    form is built on s, not on k u, which would cancel O(1) terms to about
    sqrt(eps).  c is divided by a power of two near its largest entry, so its
    squares neither overflow nor vanish (m = 1e+/-300), and the norm is unscaled
    exactly.  No N x N field is formed.
    """
    x, y = (_axis_gram(vectors) for vectors in _seam_vectors(packet, grid))
    gram = x[np.ix_(_SEAM_X, _SEAM_X)] * y[np.ix_(_SEAM_Y, _SEAM_Y)]
    deviations = []
    for s in schemes:
        a, devs = s.assignment, {}
        for i, j in PAIR_INDEX:
            c_x = a[i, 0] * a[j, 2] - a[i, 2] * a[j, 0]
            c_y = a[i, 1] * a[j, 3] - a[i, 3] * a[j, 1]
            c = np.array([-c_x - c_y - s.commutators[i, j], c_x, c_y])
            unit = math.ldexp(1.0, math.frexp(np.abs(c).max())[1])
            c /= unit
            devs[(OBSERVABLES[i], OBSERVABLES[j])] = math.sqrt((c.conj() @ gram @ c).real) * unit
        deviations.append(devs)
    return deviations


def uncertainty_bound(s: QuantizationScheme, pair: tuple[str, str]) -> float:
    """Robertson bound |<[A, B]>|/2 for two fundamental observables."""
    return abs(s.commutators[OBSERVABLES.index(pair[0]), OBSERVABLES.index(pair[1])]) / 2.0


def _two_time_commutator(s: QuantizationScheme, t: float, t_prime: float,
                         gram: np.ndarray) -> complex:
    """`two_time_commutator` from a primitive Gram matrix."""
    _, second = _fundamental_moments(s, gram)
    a, b = (flow_jacobian(tau, s.params)[0] for tau in (t, t_prime))
    return complex(a @ second @ b - b @ second @ a)


def two_time_commutator(s: QuantizationScheme, t: float, t_prime: float,
                        packet: GaussianPacket, grid: GridSpec) -> complex:
    """<psi| [x(t), x(t')] psi> = a M b - b M a for x(t) = a.F, x(t') = b.F, with psi
    the packet on the grid.

    With M_ij = <F_i psi|F_j psi>, it equals sin(omega (t'-t))/(m omega) times
    the scheme's [x_0, p_x0] table entry: zero for schemes 1 and 3, +/- i hbar otherwise.
    """
    return _two_time_commutator(s, t, t_prime, _packet_gram(packet, grid))


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


# ---------------------------------------------------------------------------
# unitary evolution: every quantized generator is metaplectic, so its
# propagator is a product of phases diagonal on the grid or in its DFT
# ---------------------------------------------------------------------------

def _generator_polynomial(s: QuantizationScheme) -> PolynomialObservable:
    return standard_hamiltonians(s.params.m, s.params.omega)[s.id]


# relative slack within which a generator matrix's entries fit a closed form
_FIT = 1e-12
# the entries of M that x d_y and y d_x occupy, (x, d_y) and (y, d_x), and their mirrors
_ROTATION = ([0, 1, 2, 3], [3, 2, 1, 0])


def _chirp_route(gen: np.ndarray, hbar: float, grid: GridSpec):
    """(omega, step) for S = V(q) + K(d), V and K real quadratics whose blocks A B = omega^2 I.

    V = q^T A q / 2 with A = M[:2, :2] is S's position part, and K, its
    derivative part d^T M[2:, 2:] d / 2 at d = i k, is hbar^2 k^T B k / 2 with
    B = -M[2:, 2:] / hbar^2.  `step(phi)` advances by omega t = phi as C F C:
    C multiplies by exp(-i tan(phi/2) V/(hbar omega)) and F the DFT by
    exp(-i sin(phi) K/(hbar omega)), the lower-upper-lower shear factorization
    of the phase-space rotation (Koc, Ozaktas, Candan & Kutay, IEEE Trans.
    Signal Process. 56, 2383, 2008).  None when M pairs a coordinate with a
    derivative, has an imaginary part (S is not Hermitian) or has blocks whose
    product is not a positive multiple of I.
    """
    if gen[:2, 2:].any() or np.any(np.abs(gen.imag) > _FIT * np.abs(gen)):
        return None
    pos, mom = gen.real[:2, :2], gen.real[2:, 2:] / -hbar / hbar
    prod = pos @ mom
    omega2 = (prod[0, 0] + prod[1, 1]) / 2.0
    if not (omega2 > 0 and max(abs(prod[0, 1]), abs(prod[1, 0]), abs(prod[0, 0] - prod[1, 1]))
            <= _FIT * omega2):
        return None
    omega = math.sqrt(omega2)
    q = np.array(grid.meshgrid())
    k = np.array(np.meshgrid(grid.wavenumbers(), grid.wavenumbers(), indexing="ij"))
    potential = np.einsum("i...,ij,j...->...", q, pos, q) / 2.0
    kinetic = np.einsum("i...,ij,j...->...", k, gen.real[2:, 2:], k) / -2.0

    def step(phi):
        chirp = np.exp(-1j * math.tan(phi / 2.0) / (hbar * omega) * potential)
        spectral = np.exp(-1j * math.sin(phi) / (hbar * omega) * kinetic)
        return lambda values: chirp * np.fft.ifft2(spectral * np.fft.fft2(chirp * values))
    return omega, step


def _shear_route(gen: np.ndarray, hbar: float, grid: GridSpec):
    """(omega, step) for S = c (x d_y - y d_x) with c = M[0, 3] = -M[1, 2] imaginary:
    S turns the plane by omega t, U(t) psi(q) = psi(R(omega t) q), for omega = Im c / hbar.

    `step(phi)` turns by phi with three 1-D FFT shears, x by -tan(phi/2), y
    by sin(phi), x by -tan(phi/2) (Unser, Thevenaz & Yaroslavsky, IEEE Trans.
    Image Process. 4, 1371, 1995); a shear of x by a moves each column y_j by
    a y_j, a phase exp(i k a y_j) on its DFT.  None when M has another entry,
    a zero c or a real part (S is not Hermitian).
    """
    off = gen.copy()
    off[_ROTATION] = 0
    c = (gen[0, 3] - gen[1, 2]) / 2.0
    # the two entries may differ from c and -c by roundoff, the real parts included
    if off.any() or c == 0 or abs(gen[0, 3] - c) > _FIT * abs(c) or abs(c.real) > _FIT * abs(c):
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


def _generator_matrix(s: QuantizationScheme) -> np.ndarray:
    """M = A^T (Hess H) A, the scheme's quantized generator S = (1/2) sum_ab M_ab P_a P_b,
    Weyl-ordered, for its assignment A and its Hamiltonian H.

    Every generator is quadratic, so its quantization is its symmetric matrix
    over the primitives (the metaplectic picture; Littlejohn, Phys. Rep. 138,
    193, 1986).  A generator with a term of another degree, or with a complex
    coefficient (its symbol is not real, so S is not Hermitian), raises ValueError.
    """
    generator = _generator_polynomial(s)
    if any(sum(expo) != 2 or isinstance(c, complex) for expo, c in generator.terms.items()):
        raise ValueError(f"no closed-form propagator for the generator {generator}")
    hess, _ = _derivatives_at_zero(generator)
    return s.assignment.T @ np.array(hess, dtype=float) @ s.assignment


def _propagator(s: QuantizationScheme, grid: GridSpec):
    """evolve(values, t): exp(-i S t / hbar) applied to a field or a stack of fields.

    S's matrix M (`_generator_matrix`) alone picks the route: `_chirp_route`
    (S0-S2) or `_shear_route` (S3); an M neither route fits raises
    ValueError.  Every route's S has period 2 pi/omega, so omega t is
    reduced to (-pi, pi] and taken in the fewest equal steps of at most pi/4
    (at most 4); t = 0 takes none.  An M or an omega t that is not finite
    raises ValueError.
    """
    hbar = s.params.hbar
    gen = _generator_matrix(s)
    if not np.isfinite(gen).all():
        raise ValueError("the quantized generator's matrix is not finite")
    route = _chirp_route(gen, hbar, grid) or _shear_route(gen, hbar, grid)
    if route is None:
        raise ValueError(f"no closed-form propagator for the generator matrix {gen.tolist()}")
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


def conjugation_probe(params: PhysParams) -> GaussianPacket:
    """The localized Gaussian `check`'s unitary group probes, in oscillator units,
    so it sits alike on the group's 8 sigma_ref grid at every m omega / hbar."""
    ref = params.sigma_ref
    return ground_packet(params, center=(0.5 * ref, -0.3 * ref), wavevector=(0.4 / ref, 0.2 / ref))


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
