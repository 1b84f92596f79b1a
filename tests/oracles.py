"""Independent reference computations backing the test suite.

Everything here deliberately avoids the library's own code paths: brackets and
derivatives along a linear flow are expanded with sympy, an exact scalar's
canonical form is sympy's cancel(expand(c)), the flow is integrated with
leapfrog, the admissible-space dimension is counted by exact enumeration and
its basis solved by sympy from dense products, a product of polynomials is the
schoolbook loop over term pairs, a quadratic's boundedness is decided exactly
from its values at unit points, and Gaussian moments come from closed forms
cross-checked by direct trapezoid quadrature with analytic derivatives.  The
same closed forms give the evolved Gaussian: a quadratic generator sends a
Gaussian to a Gaussian whose centre and wavevector follow the classical flow,
sampled here on its own, which backs the library's closed-form propagator.
The sampled field's boundary magnitude backs the closed-form localization edge
the lab decides by (`lab._edges`).  A float bracket matrix's singular values
and inverse come from LAPACK on its power-of-two balance, which backs the
library's Pfaffian gate and adjugate.

The operator oracles build their operators for themselves.  Each is a
tuple of (coefficient, word) terms over the primitives: the fundamentals from
`_oracle_assignment`, the Heisenberg observables from `_combination`, the four
generators quantized by hand, and the commutator tables, Robertson bounds and
uncertainty pairs from W0-W3 transcribed by hand (`brackets`).  `normal_form`
normal-orders an operator by hand, one axis at a time by Leibniz's rule,
which backs the library's 4 x 4 generator matrices.  `apply` acts
on a grid field with coordinates and FFT wavenumbers it forms from the grid's
half-width and point count.  On these rest the applied-operator moments,
which back the library's Gram-matrix moment engine by applying each
observable to the field (twice, for second moments); the Gram matrix of a
field by Riemann sums over the whole field (`primitive_gram`), which backs the
library's Gram matrix of a packet from its two axis factors; the commutator
residuals, which back the six-primitive-commutator group by applying the
fundamentals in both orders; the dense N^2 x N^2 materialization of an
operator, whose matrix exponential backs the Heisenberg rotation on a small
grid without the library's propagator, and whose position and derivative
parts, exponentiated by eigendecomposition, back the propagator's
chirp-spectral-chirp product on grids too coarse to resolve the probe; and
the literal forward-then-backward conjugation, which backs the forward-only
conjugation gap of `check`.  Only that last one calls the library, for
`unitary_evolve`, which the evolved-Gaussian oracle backs on its own.

The report oracle builds a report cell by cell, as one `Cell` and one `Row`
at a time, from the moment arrays the library computed, and writes it with
`json.dumps` and a per-cell CSV join.  It backs the
columns `run_scenario` builds and the fixed-layout writers; `flatten_report`
turns any report's columns into the same cells and rows, so the writers are
also checked on generated columnar reports.
"""

from __future__ import annotations

import functools
import math
import json
from fractions import Fraction
from itertools import combinations, product as iproduct
from typing import NamedTuple

import numpy as np
import sympy as sp

from symquant import OBSERVABLES, GridSpec, Primitive, WaveFunction, unitary_evolve
from symquant.lab import _ROBERTSON_SLACK

PHASE_SYMBOLS = sp.symbols("x y p_x p_y")


# ---------------------------------------------------------------------------
# symbolic bracket expansion (oracle for the polynomial bracket)
# ---------------------------------------------------------------------------

def sympy_bracket(f_expr, g_expr, upper_rows):
    """{f, g} fully expanded with sympy from a 4x4 table of bracket values."""
    total = sp.Integer(0)
    for mu in range(4):
        for nu in range(4):
            w = upper_rows[mu][nu]
            if w == 0:
                continue
            total += sp.diff(f_expr, PHASE_SYMBOLS[mu]) * w * sp.diff(g_expr, PHASE_SYMBOLS[nu])
    return sp.expand(total)


def sympy_lie_derivative(f_expr, field_rows):
    """df/dt = sum_mu df/dx^mu * (A x)^mu fully expanded with sympy, for xdot = A x."""
    total = sp.Integer(0)
    for mu in range(4):
        velocity = sum(a * s for a, s in zip(field_rows[mu], PHASE_SYMBOLS))
        total += sp.diff(f_expr, PHASE_SYMBOLS[mu]) * velocity
    return sp.expand(total)


def canonical_scalar(c):
    """cancel(expand(c)) of a sympy value, computed by sympy alone; an integer
    or a numeric zero comes out as a Python int, and any other value as it is."""
    if not isinstance(c, sp.Basic):
        return c
    c = sp.cancel(sp.expand(c))
    return int(c) if c.is_Integer or (c.is_Number and c.is_zero) else c


def poly_to_sympy(poly) -> sp.Expr:
    """Convert a terms mapping {(a,b,c,d): coeff} into a sympy expression; the sum
    is built once, not rebuilt term by term."""
    terms = [sp.sympify(coeff) * sp.Mul(*(s ** e for s, e in zip(PHASE_SYMBOLS, expo)))
             for expo, coeff in poly.terms.items()]
    return sp.expand(sp.Add(*terms))


# ---------------------------------------------------------------------------
# a float bracket matrix's verdict and inverse by LAPACK (oracle for the
# library's balanced Pfaffian inverse)
# ---------------------------------------------------------------------------

def lapack_form_inverse(mat) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(W^-1 or None, d, r) for a float antisymmetric 4x4 matrix W, by np.linalg.

    W is balanced as B = D W D, D = diag(d) with d_i = 2^-floor(e_i / 2) for
    the exponent e_i of row i's largest |entry|.  r is B's smallest singular
    value over its largest (0 for the zero matrix); W is singular when
    r <= 1e-12, and otherwise W^-1 = D np.linalg.inv(B) D.
    """
    w = np.asarray(mat, dtype=float)
    k = np.frexp(np.abs(w).max(axis=1))[1] // 2
    balanced = np.ldexp(w, -(k[:, None] + k[None, :]))
    svals = np.linalg.svd(balanced, compute_uv=False)
    r = float(svals[-1] / svals[0]) if svals[0] else 0.0
    d = np.ldexp(1.0, -k)
    if r <= 1e-12:
        return None, d, r
    return np.ldexp(np.linalg.inv(balanced), -(k[:, None] + k[None, :])), d, r


# ---------------------------------------------------------------------------
# leapfrog integration (oracle for the closed-form flow)
# ---------------------------------------------------------------------------

def leapfrog(state, t, params, dt=1e-5):
    """Kick-drift-kick integration of the oscillator equations of motion."""
    q = np.array(state[:2], dtype=float)
    p = np.array(state[2:], dtype=float)
    steps = max(1, int(round(abs(t) / dt)))
    step = t / steps
    k = params.m * params.omega ** 2
    for _ in range(steps):
        p = p - 0.5 * step * k * q
        q = q + step * p / params.m
        p = p - 0.5 * step * k * q
    return np.concatenate([q, p])


# ---------------------------------------------------------------------------
# brute-force admissible dimension (oracle for the SVD null space)
# ---------------------------------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def bruteforce_admissible_dimension(a_rows, grid=(-2, -1, 0, 1, 2)) -> int:
    """Count independent grid points theta with theta A + A^T theta = 0, exactly.

    `a_rows` must have exact (int/Fraction) entries.  The admissible space of
    the unit oscillator is spanned by unit-coordinate directions, so an integer
    grid sees all of it.
    """
    solutions = []
    for coeffs in iproduct(grid, repeat=6):
        if all(c == 0 for c in coeffs):
            continue
        theta = [[0] * 4 for _ in range(4)]
        for c, (i, j) in zip(coeffs, _PAIRS):
            theta[i][j] = c
            theta[j][i] = -c
        ok = True
        for i in range(4):
            for j in range(i + 1, 4):
                entry = sum(theta[i][k] * a_rows[k][j] for k in range(4)) \
                    + sum(a_rows[k][i] * theta[k][j] for k in range(4))
                if entry != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            solutions.append(coeffs)

    rank = 0
    reduced: list[list[Fraction]] = []
    for vec in solutions:
        row = [Fraction(v) for v in vec]
        for basis_row in reduced:
            lead = next(i for i, v in enumerate(basis_row) if v != 0)
            if row[lead] != 0:
                factor = row[lead] / basis_row[lead]
                row = [r - factor * b for r, b in zip(row, basis_row)]
        if any(v != 0 for v in row):
            reduced.append(row)
            rank += 1
    return rank


def exact_admissible_basis(a_rows) -> list[list[Fraction]]:
    """The reduced-row-echelon basis of the antisymmetric theta with
    theta A + A^T theta = 0, as coordinates on (0, 1), (0, 2), ..., (2, 3).

    Each entry of A is read as the rational it is (a sympy Float as the
    double it holds), each column of the constraint is theta A + A^T theta
    formed as a dense sympy product for a unit theta, and the null space is
    sympy's: one vector per free coordinate, which is 1 there.
    """
    a = sp.Matrix([[sp.Rational(v) for v in row] for row in a_rows])
    columns = []
    for p, q in _PAIRS:
        theta = sp.zeros(4)
        theta[p, q], theta[q, p] = 1, -1
        c = theta * a + a.T * theta
        columns.append([c[i, j] for i in range(4) for j in range(4)])
    return [[Fraction(int(v.p), int(v.q)) for v in vec]
            for vec in sp.Matrix(columns).T.nullspace()]


# ---------------------------------------------------------------------------
# polynomial products and boundedness of quadratics (oracles for the exact layer)
# ---------------------------------------------------------------------------

def polynomial_product(f_terms, g_terms) -> dict:
    """The terms of f * g by the schoolbook loop over term pairs, each summed
    coefficient in sympy's canonical form and zeros dropped."""
    out = {}
    for e1, c1 in f_terms.items():
        for e2, c2 in g_terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            out[expo] = out.get(expo, 0) + c1 * c2
    out = {expo: canonical_scalar(c) for expo, c in out.items()}
    return {expo: c for expo, c in out.items() if c != 0}


def _as_fraction(c) -> Fraction:
    """An int, Fraction, float or sympy Rational as the exact Fraction it is."""
    return Fraction(int(c.p), int(c.q)) if isinstance(c, sp.Basic) else Fraction(c)


def boundedness_label(terms) -> str:
    """The label of a polynomial of degree <= 2, decided in exact arithmetic.

    The Hessian and the slope at 0 are built by hand from the polynomial's
    values at 0, +/-e_i and e_i + e_j.  It is bounded below exactly when the
    Hessian is positive semidefinite (no principal minor is negative) and the
    slope lies in the Hessian's range (appending it keeps the rank).
    """
    def value(point):
        return sum(_as_fraction(c) * math.prod(Fraction(v) ** e for v, e in zip(point, expo))
                   for expo, c in terms.items())

    unit = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    f0, up = value((0,) * 4), [value(u) for u in unit]
    down = [value(tuple(-v for v in u)) for u in unit]
    lin = sp.Matrix([(a - b) / 2 for a, b in zip(up, down)])
    hess = sp.Matrix(4, 4, lambda i, j: up[i] + down[i] - 2 * f0 if i == j else
                     value(tuple(a + b for a, b in zip(unit[i], unit[j]))) - up[i] - up[j] + f0)

    def below(h, slope):
        return (all(h.extract(list(idx), list(idx)).det() >= 0
                    for r in range(1, 5) for idx in combinations(range(4), r))
                and h.rank() == h.row_join(slope).rank())

    return {(True, True): "bounded", (True, False): "bounded-below",
            (False, True): "bounded-above", (False, False): "unbounded"}[
        below(hess, lin), below(-hess, -lin)]


# ---------------------------------------------------------------------------
# Gaussian moment oracle (closed form) and quadrature cross-check
# ---------------------------------------------------------------------------
#
# Each fundamental operator in every scheme is either coef * (coordinate along
# an axis) or coef * (-i d/daxis).  On the packet
#     psi ~ exp(-((x-cx)^2+(y-cy)^2)/(4 sigma^2) + i(kx x + ky y))
# the base statistics are
#     coordinate: mean = center[axis],     var = sigma^2
#     -i d/daxis: mean = wavevector[axis], var = 1/(4 sigma^2)
# and the mixed covariances of every pair appearing in a time-evolved
# combination vanish, so variances add with squared coefficients.

def _oracle_assignment(sid: int, params):
    hb = params.hbar
    mw = params.m * params.omega
    table = {
        0: {"x": ("q", 0, 1.0), "y": ("q", 1, 1.0),
            "p_x": ("d", 0, hb), "p_y": ("d", 1, hb)},
        1: {"x": ("q", 0, 1.0), "y": ("q", 1, 1.0),
            "p_x": ("d", 1, hb), "p_y": ("d", 0, hb)},
        2: {"x": ("q", 0, 1.0), "y": ("q", 1, 1.0),
            "p_x": ("d", 0, -hb), "p_y": ("d", 1, hb)},
        3: {"x": ("q", 0, 1.0), "p_x": ("q", 1, mw),
            "y": ("d", 0, -hb / mw), "p_y": ("d", 1, -hb)},
    }
    return table[sid]


def fundamental_stats(sid: int, name: str, packet, params):
    kind, axis, coef = _oracle_assignment(sid, params)[name]
    if kind == "q":
        return coef * packet.center[axis], coef ** 2 * packet.sigma ** 2
    return coef * packet.wavevector[axis], coef ** 2 / (4.0 * packet.sigma ** 2)


def _combination(which: str, t: float, params):
    mw = params.m * params.omega
    c = math.cos(params.omega * t)
    s = math.sin(params.omega * t)
    return {
        "x": (("x", c), ("p_x", s / mw)),
        "p_x": (("x", -mw * s), ("p_x", c)),
        "y": (("y", c), ("p_y", s / mw)),
        "p_y": (("y", -mw * s), ("p_y", c)),
    }[which]


def heisenberg_mean(sid: int, which: str, t: float, packet, params) -> float:
    return sum(coef * fundamental_stats(sid, name, packet, params)[0]
               for name, coef in _combination(which, t, params))


def heisenberg_variance(sid: int, which: str, t: float, packet, params) -> float:
    return sum(coef ** 2 * fundamental_stats(sid, name, packet, params)[1]
               for name, coef in _combination(which, t, params))


def heisenberg_uncertainty(sid: int, pair, t: float, packet, params) -> float:
    out = 1.0
    for which in pair:
        out *= math.sqrt(heisenberg_variance(sid, which, t, packet, params))
    return out


def quadrature_mean(sid: int, which: str, t: float, packet, params,
                    n: int = 801) -> complex:
    """Direct trapezoid quadrature of <psi| O(t) psi> with analytic derivatives."""
    cx, cy = packet.center
    kx, ky = packet.wavevector
    sig = packet.sigma
    span = 12.0 * sig
    xs = np.linspace(cx - span, cx + span, n)
    ys = np.linspace(cy - span, cy + span, n)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    amp = (2.0 * math.pi * sig ** 2) ** -0.5
    psi = amp * np.exp(-((xg - cx) ** 2 + (yg - cy) ** 2) / (4.0 * sig ** 2)
                       + 1j * (kx * xg + ky * yg))
    dpsi = {
        0: (-(xg - cx) / (2.0 * sig ** 2) + 1j * kx) * psi,
        1: (-(yg - cy) / (2.0 * sig ** 2) + 1j * ky) * psi,
    }
    acted = np.zeros_like(psi)
    assign = _oracle_assignment(sid, params)
    for name, coef in _combination(which, t, params):
        kind, axis, scale = assign[name]
        if kind == "q":
            acted += coef * scale * (xg if axis == 0 else yg) * psi
        else:
            acted += coef * scale * (-1j) * dpsi[axis]
    integrand = np.conj(psi) * acted
    inner = np.trapezoid(np.trapezoid(integrand, ys, axis=1), xs, axis=0)
    return complex(inner)


# ---------------------------------------------------------------------------
# hand-built operators on the grid (oracle for the moment engine, the
# commutator group, the quantized generators and the conjugation gap)
# ---------------------------------------------------------------------------
#
# An operator is a tuple of (coefficient, word) terms; a word is a tuple of
# Primitive factors, which act right to left, and () is the identity.

_COORDINATE = (Primitive.X, Primitive.Y)
_DERIVATIVE = (Primitive.DX, Primitive.DY)


def fundamental(sid: int, name: str, params) -> tuple:
    """coef q_axis or coef (-i d/daxis), as `_oracle_assignment` lists the fundamental."""
    kind, axis, coef = _oracle_assignment(sid, params)[name]
    if kind == "q":
        return ((coef, (_COORDINATE[axis],)),)
    return ((-1j * coef, (_DERIVATIVE[axis],)),)


def heisenberg_observable(sid: int, which: str, t: float, params) -> tuple:
    """O(t): the fundamentals combined with `_combination`'s written-out rotation."""
    return tuple((coef * c, word) for name, coef in _combination(which, t, params)
                 for c, word in fundamental(sid, name, params))


def generator(sid: int, params) -> tuple:
    """Scheme sid's own generator S_sid, quantized by hand under its assignment.

    S0 = (p_x^2 + p_y^2) / (2m) + m omega^2 (x^2 + y^2) / 2 and S2 =
    (p_y^2 - p_x^2) / (2m) + m omega^2 (y^2 - x^2) / 2, where p_x^2 =
    -hbar^2 d^2/dx^2 for either sign of p_x; S1 = p_x p_y / m + m omega^2 x y
    with the crossed momenta, p_x p_y = -hbar^2 d/dy d/dx; S3 = omega (x p_y -
    y p_x) = i hbar omega (x d/dy - d/dx y).  No product pairs a coordinate
    with the derivative along its own axis, so no ordering is ambiguous.
    """
    m, omega, hb = params.m, params.omega, params.hbar
    kin, pot = -hb * hb / (2.0 * m), m * omega * omega / 2.0
    x, y, dx, dy = Primitive.X, Primitive.Y, Primitive.DX, Primitive.DY
    return {
        0: ((kin, (dx, dx)), (kin, (dy, dy)), (pot, (x, x)), (pot, (y, y))),
        1: ((2.0 * kin, (dy, dx)), (2.0 * pot, (x, y))),
        2: ((-kin, (dx, dx)), (kin, (dy, dy)), (-pot, (x, x)), (pot, (y, y))),
        3: ((1j * hb * omega, (x, dy)), (-1j * hb * omega, (dx, y))),
    }[sid]


def _axis_times(monomials: dict, factor: tuple[int, int]) -> dict:
    """The normally ordered product of {(a, c): n} (x^a d^c) with one factor x^a2 d^c2 on
    its right: d^c x^a2 = sum_k C(c, k) a2!/(a2 - k)! x^(a2 - k) d^(c - k), Leibniz's rule."""
    a2, c2 = factor
    out = {}
    for (a, c), n in monomials.items():
        for k in range(min(c, a2) + 1):
            key = (a + a2 - k, c + c2 - k)
            out[key] = out.get(key, 0) + n * math.comb(c, k) * math.perm(a2, k)
    return out


def normal_form(op) -> dict:
    """op's coefficients on the normally ordered basis x^a y^b d_x^c d_y^d, zeros dropped.

    The two axes' primitives commute, so each word splits into its x and its
    y factors, each kept in order; along one axis the factors multiply in
    integers by `_axis_times`, and the word's coefficient multiplies the two
    axes' counts.
    """
    total = {}
    for coeff, word in op:
        axes = []
        for coordinate, derivative in zip(_COORDINATE, _DERIVATIVE):
            monomials = {(0, 0): 1}
            for p in word:
                if p in (coordinate, derivative):
                    monomials = _axis_times(monomials, (1, 0) if p is coordinate else (0, 1))
            axes.append(monomials)
        for (a, c), n_x in axes[0].items():
            for (b, d), n_y in axes[1].items():
                total[a, b, c, d] = total.get((a, b, c, d), 0) + coeff * (n_x * n_y)
    return {key: c for key, c in total.items() if c != 0}


def brackets(sid: int, params) -> dict:
    """The nonzero {F_i, F_j}, i before j in OBSERVABLES, of W0-W3 transcribed by hand.

    Its keys, in row-major order, are the scheme's uncertainty pairs, and
    i hbar times each value is the commutator table's entry.
    """
    mw = params.m * params.omega
    return {
        0: {("x", "p_x"): 1, ("y", "p_y"): 1},
        1: {("x", "p_y"): 1, ("y", "p_x"): 1},
        2: {("x", "p_x"): -1, ("y", "p_y"): 1},
        3: {("x", "y"): -(1.0 / mw), ("p_x", "p_y"): -mw},
    }[sid]


def robertson_bound(sid: int, pair, params) -> float:
    """|<[A, B]>| / 2 = hbar |{A, B}| / 2 for an uncertainty pair of scheme sid."""
    return abs(params.hbar * brackets(sid, params)[pair]) / 2.0


def _axis_and_wavenumbers(grid) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and FFT angular wavenumbers along one axis, from the grid's
    half-width and point count alone."""
    h = 2.0 * grid.half_width / grid.points
    axis = -grid.half_width + h * np.arange(grid.points)
    return axis, 2.0 * math.pi * np.fft.fftfreq(grid.points, d=h)


def apply(op, values: np.ndarray, grid) -> np.ndarray:
    """op on a field: each word's factors right to left, the terms added to zeros in order.

    A coordinate multiplies along its axis, and a derivative is spectral:
    ifft(i k fft(values)) along its axis.
    """
    q, k = _axis_and_wavenumbers(grid)
    actions = {
        Primitive.X: lambda v: q[:, None] * v,
        Primitive.Y: lambda v: q[None, :] * v,
        Primitive.DX: lambda v: np.fft.ifft(1j * k[:, None] * np.fft.fft(v, axis=0), axis=0),
        Primitive.DY: lambda v: np.fft.ifft(1j * k[None, :] * np.fft.fft(v, axis=1), axis=1),
    }
    out = np.zeros(values.shape, dtype=complex)
    for coeff, word in op:
        work = values
        for p in reversed(word):
            work = actions[p](work)
        out = out + coeff * work
    return out


def _inner(a: np.ndarray, b: np.ndarray, grid) -> complex:
    """<a|b> by Riemann sum; conjugates a."""
    h = 2.0 * grid.half_width / grid.points
    return complex(np.vdot(a, b) * h * h)


def l2_norm(values: np.ndarray, grid) -> float:
    return math.sqrt(_inner(values, values, grid).real)


def applied_mean(op, psi) -> complex:
    """<psi| op psi>, op applied to the grid field."""
    return _inner(psi.values, apply(op, psi.values, psi.grid), psi.grid)


def applied_variance(op, psi) -> float:
    """<op op> - <op>^2, op applied to the grid field twice."""
    once = apply(op, psi.values, psi.grid)
    first = _inner(psi.values, once, psi.grid)
    second = _inner(psi.values, apply(op, once, psi.grid), psi.grid)
    return float((second - first * first).real)


def applied_commutator(op_a, op_b, psi) -> complex:
    """<psi| [A, B] psi> by applying both orderings."""
    v, grid = psi.values, psi.grid
    return _inner(v, apply(op_a, apply(op_b, v, grid), grid)
                  - apply(op_b, apply(op_a, v, grid), grid), grid)


def primitive_gram(psi) -> np.ndarray:
    """Gram matrix of psi, x psi, y psi, d/dx psi and d/dy psi on the grid field, each
    entry a Riemann sum over the whole field.

    The field is acted on from its grid scaled by f = 2^-e to a half-width in
    [0.5, 1), divided by f so it stays normalized, and each entry is unscaled by
    w_a w_b with w = (1, f, f, 1/f, 1/f): on the field in absolute units a square
    or a sum under- or overflows at m omega / hbar = 1e+/-200.  Backs the
    library's Gram matrix of a packet, formed from its two axis factors.
    """
    half_width, e = math.frexp(psi.grid.half_width)
    f, inverse = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    grid = GridSpec(half_width, psi.grid.points)
    values = psi.values * inverse
    vectors = [values] + [apply(((1.0, (p,)),), values, grid) for p in
                          (Primitive.X, Primitive.Y, Primitive.DX, Primitive.DY)]
    h = 2.0 * half_width / grid.points
    weights = np.array([1.0, f, f, inverse, inverse])
    return np.array([[np.vdot(a, b) for b in vectors] for a in vectors]) * h * h \
        / weights[:, None] / weights[None, :]


def commutator_deviations(sid: int, params, psi) -> dict:
    """|[F_i, F_j] psi - T_ij psi| / |psi| for every fundamental pair i < j.

    Each fundamental is `fundamental`'s, applied to the state in both orders,
    and T_ij = i hbar {F_i, F_j} from `brackets`; the library combines the
    primitive commutators [P_a, P_b] psi with the assignment rows instead, so
    the two agree to roundoff.
    """
    v, grid = psi.values, psi.grid
    table = brackets(sid, params)
    devs = {}
    for i, a in enumerate(OBSERVABLES):
        for b in OBSERVABLES[i + 1:]:
            fa, fb = fundamental(sid, a, params), fundamental(sid, b, params)
            diff = (apply(fa, apply(fb, v, grid), grid) - apply(fb, apply(fa, v, grid), grid)
                    - 1j * params.hbar * table.get((a, b), 0) * v)
            devs[(a, b)] = l2_norm(diff, grid) / l2_norm(v, grid)
    return devs


# ---------------------------------------------------------------------------
# dense materialization and evolved Gaussians (oracles for the propagator)
# ---------------------------------------------------------------------------

def axis_matrices(grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis dense actions: (multiply-by-coordinate, spectral d/dcoordinate)."""
    q, k = _axis_and_wavenumbers(grid)
    coord = np.diag(q).astype(complex)
    fwd = np.fft.fft(np.eye(grid.points), axis=0)
    deriv = np.fft.ifft(1j * k[:, None] * fwd, axis=0)
    return coord, deriv


def dense_matrix(op, grid) -> np.ndarray:
    """Materialize an operator as an N^2 x N^2 matrix acting on row-major
    flattened fields.

    Within a word, the x-axis primitives (X, DX) and y-axis primitives
    (Y, DY) commute exactly, so each term factors as kron(x-part, y-part).
    """
    n = grid.points
    coord, deriv = axis_matrices(grid)
    per_axis = {
        Primitive.X: (0, coord),
        Primitive.DX: (0, deriv),
        Primitive.Y: (1, coord),
        Primitive.DY: (1, deriv),
    }
    total = np.zeros((n * n, n * n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for coeff, word in op:
        factors = [eye, eye]
        for p in word:
            axis, mat = per_axis[p]
            factors[axis] = factors[axis] @ mat
        total += coeff * np.kron(factors[0], factors[1])
    return total


def evolved_packet(sid: int, packet, t: float, params) -> tuple:
    """(centre, wavevector) of the Gaussian exp(-i S t / hbar) sends `packet` to.

    In every scheme each grid quantity, a coordinate q_axis or a wavenumber
    k_axis = -i d/daxis, is one fundamental over its coefficient, so its mean
    at t is that fundamental's Heisenberg mean (`heisenberg_mean`, the
    classical flow) over the same coefficient.  Scheme 3 turns the plane, so
    the packet keeps its width; schemes 0-2 keep it only for the ground width
    sqrt(hbar / (2 m omega)), where the packet is a coherent state.
    """
    center, wavevector = [0.0, 0.0], [0.0, 0.0]
    for name, (kind, axis, coef) in _oracle_assignment(sid, params).items():
        (center if kind == "q" else wavevector)[axis] = \
            heisenberg_mean(sid, name, t, packet, params) / coef
    return tuple(center), tuple(wavevector)


@functools.lru_cache(maxsize=2)
def _dense_eigensystem(op, grid) -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition of a Hermitian operator's dense matrix on a grid; the two
    parts of one generator are decomposed once for all the times they are asked."""
    mat = dense_matrix(op, grid)
    return np.linalg.eigh((mat + mat.conj().T) / 2.0)


def _dense_exponential(op, grid, scale: float, values: np.ndarray) -> np.ndarray:
    """exp(-i scale op) values = V (exp(-i scale Lambda) (V^dagger values)) for op = V Lambda V^dagger."""
    evals, evecs = _dense_eigensystem(op, grid)
    return evecs @ (np.exp(-1j * scale * evals) * (evecs.conj().T @ values))


def dense_shear_evolve(generator, psi, t: float, omega: float, hbar: float) -> np.ndarray:
    """exp(-i S t / hbar) psi as the shear product C F C, built from dense matrices.

    The operator S = V + K must split into a position part V (products of X
    and Y) and a derivative part K (products of DX and DY), each materialized
    densely and exponentiated by its eigendecomposition, computed once per
    part and grid.  omega t is reduced to (-pi, pi] and taken in the fewest
    equal steps phi of at most pi / 4, each step
    exp(-i a V) exp(-i b K) exp(-i a V) with a = tan(phi/2) / (hbar omega) and
    b = sin(phi) / (hbar omega).  On any grid this is the grid's own shear
    product, whether or not the grid resolves psi.
    """
    assert all(set(word) <= set(_COORDINATE) or set(word) <= set(_DERIVATIVE)
               for _, word in generator)
    potential = tuple(term for term in generator if set(term[1]) <= set(_COORDINATE))
    kinetic = tuple(term for term in generator if set(term[1]) <= set(_DERIVATIVE))
    theta = math.remainder(omega * t, 2.0 * math.pi)
    steps = math.ceil(abs(theta) / (math.pi / 4.0))
    values = psi.values.ravel()
    if steps:
        phi = theta / steps
        a, b = math.tan(phi / 2.0) / (hbar * omega), math.sin(phi) / (hbar * omega)
        for _ in range(steps):
            values = _dense_exponential(potential, psi.grid, a, values)
            values = _dense_exponential(kinetic, psi.grid, b, values)
            values = _dense_exponential(potential, psi.grid, a, values)
    return values.reshape(psi.values.shape)


def sampled_gaussian(center, wavevector, sigma: float, grid) -> np.ndarray:
    """exp(-|q - c|^2 / (4 sigma^2) + i k.q) on the grid, over its Riemann-sum norm."""
    xs = np.linspace(-grid.half_width, grid.half_width, grid.points, endpoint=False)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    field = np.exp(-((x - center[0]) ** 2 + (y - center[1]) ** 2) / (4.0 * sigma ** 2)
                   + 1j * (wavevector[0] * x + wavevector[1] * y))
    h = 2.0 * grid.half_width / grid.points
    return field / math.sqrt(np.sum(np.abs(field) ** 2) * h * h)


def boundary_magnitude(values: np.ndarray) -> float:
    """The largest |psi| on the grid boundary over the largest |psi|, 0 for a zero
    field: a packet's value does not depend on the unit of length."""
    v = np.abs(values)
    edge = max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max())
    return float(edge / v.max()) if edge else 0.0


def forward_backward_conjugation(s, which, t, psi) -> float:
    """|exp(iSt/h) O exp(-iSt/h) psi - O(t) psi| / |O(t) psi|, conjugating literally.

    Evolve psi forward, apply the fundamental O, evolve back by -t: the formula
    the library replaced by the forward-only intertwining gap
    |O U psi - U O(t) psi|.  O and O(t) are `fundamental` and
    `heisenberg_observable`, applied by `apply`.  Each evolution is the
    library's `unitary_evolve` of one state, the only library function the
    oracles call: `evolved_packet` and `sampled_gaussian` back it on their own.
    """
    grid = psi.grid
    acted = apply(fundamental(s.id, which, s.params), unitary_evolve(s, psi, t).values, grid)
    conjugated = unitary_evolve(s, WaveFunction(grid, acted), -t).values
    target = apply(heisenberg_observable(s.id, which, t, s.params), psi.values, grid)
    return float(np.linalg.norm(conjugated - target) / np.linalg.norm(target))


# ---------------------------------------------------------------------------
# per-cell report (oracle for the columnar report and its writers)
# ---------------------------------------------------------------------------

class Cell(NamedTuple):
    scheme: int
    observable: str
    time: float
    mean_re: float
    mean_im: float
    variance: float


class Row(NamedTuple):
    scheme: int
    pair: tuple[str, str]
    time: float
    product: float
    bound: float
    satisfied: bool


def report_rows(schemes, observables, times, params, moments):
    """The cells and uncertainty rows of a report, one object at a time.

    `moments[sid]` is the (means, variances) pair of (T, 4) arrays the
    library computed for scheme sid.  Each number is converted on its own, and
    a spread is sqrt(max(float(variance), 0.0)), which keeps a variance of
    -0.0 as -0.0.  The pairs and bounds are `brackets`' and `robertson_bound`'s,
    and a product satisfies its bound when it is at most
    _ROBERTSON_SLACK bound below it.
    """
    cells, rows = [], []
    for sid in schemes:
        means, variances = moments[sid]
        for name in observables:
            i = OBSERVABLES.index(name)
            for k, t in enumerate(times):
                mean = complex(means[k, i])
                cells.append(Cell(scheme=sid, observable=name, time=float(t), mean_re=mean.real,
                                  mean_im=mean.imag, variance=float(variances[k, i])))
        for pair in brackets(sid, params):
            bound = robertson_bound(sid, pair, params)
            limit = bound - _ROBERTSON_SLACK * bound
            for k, t in enumerate(times):
                product = math.prod(math.sqrt(max(float(variances[k, OBSERVABLES.index(n)]), 0.0))
                                    for n in pair)
                rows.append(Row(scheme=sid, pair=pair, time=float(t), product=product,
                                bound=bound, satisfied=product >= limit))
    return tuple(cells), tuple(rows)


def flatten_report(report):
    """A report's columns as (cells, rows) of the oracle's types, in column
    order, each number as the column holds it."""
    cells, rows = [], []
    for col in report.columns:
        for name, real, imag, var in col.cells:
            cells += [Cell(col.scheme, name, *entry) for entry in zip(col.times, real, imag, var)]
        for pair, bound, products, satisfied in col.rows:
            rows += [Row(col.scheme, pair, t, product, bound, ok)
                     for t, product, ok in zip(col.times, products, satisfied)]
    return tuple(cells), tuple(rows)


def report_dict(cells, rows, pair_residuals, metadata) -> dict:
    return {
        "metadata": dict(metadata),
        "cells": [c._asdict() for c in cells],
        "uncertainties": [{**u._asdict(), "pair": list(u.pair)} for u in rows],
        "pair_residuals": [{"scheme": i, "max_abs_residual": r}
                           for i, r in enumerate(pair_residuals)],
    }


def report_json(cells, rows, pair_residuals, metadata) -> str:
    return json.dumps(report_dict(cells, rows, pair_residuals, metadata),
                      indent=2, sort_keys=True, allow_nan=False) + "\n"


def report_csv(cells) -> str:
    lines = ["scheme,observable,time,mean_re,mean_im,variance"]
    for c in cells:
        lines.append(",".join([str(c.scheme), c.observable, repr(float(c.time)),
                               repr(float(c.mean_re)), repr(float(c.mean_im)),
                               repr(float(c.variance))]))
    return "\n".join(lines) + "\n"
