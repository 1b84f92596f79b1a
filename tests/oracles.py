"""Independent reference computations backing the test suite.

Everything here deliberately avoids the library's own code paths: brackets and
derivatives along a linear flow are expanded with sympy, an exact scalar's
canonical form is sympy's cancel(expand(c)), the flow is integrated with leapfrog, the admissible-space
dimension is counted by exact enumeration, and Gaussian moments come from
closed forms cross-checked by direct trapezoid quadrature with analytic
derivatives.  Two oracles reuse library objects: the applied-operator moments,
which back the library's Gram-matrix moment engine by applying operator
expressions to the grid field (twice, for second moments) and the
commutator group's assignment-row actions by composing the fundamentals'
operator expressions both ways, and the dense
N^2 x N^2 materialization of an operator expression, whose eigendecomposition
backs the library's matrix-free Chebyshev propagator, the term-by-term
operator-norm bound on a generator's spectrum, which backs the interval the
propagator reads off its grid stencil, and the literal forward-then-backward
conjugation, which backs the forward-only conjugation gap of `check`.  The
report oracle builds a report cell by cell, as one `ReportCell` and one
`UncertaintyRow` at a time, from the moment arrays the library computed, and
writes it with `json.dumps` and a per-cell CSV join.  It backs the columns
`run_scenario` builds, the `cells` and `uncertainties` views the library
builds from them, and the fixed-layout writers; its CSV join also checks the
CSV writer on generated columnar reports.
"""

from __future__ import annotations

import math
import json
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import sympy as sp

from symquant import (CANONICAL_PAIRS, OBSERVABLES, Primitive, WaveFunction, heisenberg_operator,
                      quantize_observable, scheme, standard_hamiltonians, uncertainty_bound,
                      unitary_evolve)
from symquant.lab import _ROBERTSON_SLACK, ReportCell, UncertaintyRow

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
    """Convert a terms mapping {(a,b,c,d): coeff} into a sympy expression."""
    total = sp.Integer(0)
    for expo, coeff in poly.terms.items():
        term = sp.sympify(coeff)
        for s, e in zip(PHASE_SYMBOLS, expo):
            term *= s ** e
        total += term
    return sp.expand(total)


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
# applied-operator moments (oracle for the Gram-matrix moment engine)
# ---------------------------------------------------------------------------

def applied_variance(op, psi) -> float:
    """<op^2> - <op>^2 with op^2 applied as the composition op @ op."""
    m1 = psi.inner(op.apply(psi))
    m2 = psi.inner((op @ op).apply(psi))
    return float((m2 - m1 * m1).real)


def applied_commutator(op_a, op_b, psi) -> complex:
    """<psi| [A, B] psi> by applying both orderings."""
    return psi.inner(op_a.apply(op_b.apply(psi))) - psi.inner(op_b.apply(op_a.apply(psi)))


def commutator_deviations(s, psi) -> dict:
    """|[F_i, F_j] psi - T_ij psi| / |psi| for every fundamental pair i < j.

    Each fundamental is the scheme's `OperatorExpr`, applied to the state in
    both orders; the library applies rows of the assignment matrix instead.
    """
    norm = psi.norm()
    h = psi.grid.spacing
    devs = {}
    for i in range(len(OBSERVABLES)):
        for j in range(i + 1, len(OBSERVABLES)):
            a = s.fundamental(OBSERVABLES[i])
            b = s.fundamental(OBSERVABLES[j])
            lhs = a.apply(b.apply(psi)).values - b.apply(a.apply(psi)).values
            diff = lhs - s.commutators[i, j] * psi.values
            devs[(OBSERVABLES[i], OBSERVABLES[j])] = (
                float(np.sqrt(np.sum(np.abs(diff) ** 2) * h * h)) / norm)
    return devs


# ---------------------------------------------------------------------------
# dense materialization (oracle for the matrix-free propagator)
# ---------------------------------------------------------------------------

def axis_matrices(grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis dense actions: (multiply-by-coordinate, spectral d/dcoordinate)."""
    n = grid.points
    coord = np.diag(grid.axis()).astype(complex)
    k = grid.wavenumbers()
    fwd = np.fft.fft(np.eye(n), axis=0)
    deriv = np.fft.ifft(1j * k[:, None] * fwd, axis=0)
    return coord, deriv


def dense_matrix(op, grid) -> np.ndarray:
    """Materialize as an N^2 x N^2 matrix acting on row-major flattened fields.

    Within a product, the x-axis primitives (X, DX) and y-axis primitives
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
    for coeff, prod in op.terms:
        factors = [eye, eye]
        for p in prod:
            axis, mat = per_axis[p]
            factors[axis] = factors[axis] @ mat
        total += coeff * np.kron(factors[0], factors[1])
    return total


def spectral_bound(op, grid) -> float:
    """Sum over terms of |c| times the product of the primitives' operator norms.

    On the periodic grid |x|, |y| <= L and the spectral derivative has
    eigenvalues i k with |k| <= pi / h, so the spectrum of op lies in [-R, R].
    """
    norms = {Primitive.X: grid.half_width, Primitive.Y: grid.half_width,
             Primitive.DX: math.pi / grid.spacing, Primitive.DY: math.pi / grid.spacing}
    return sum(abs(c) * math.prod(norms[p] for p in prod) for c, prod in op.terms)


def dense_evolve(s, psi, times) -> list:
    """exp(-i S t / hbar) psi for each t by eigendecomposing the dense generator.

    S is the scheme's standard Hamiltonian quantized on the grid; its dense
    matrix must be Hermitian to 1e-9 relative before it is diagonalized.
    """
    generator = quantize_observable(s, standard_hamiltonians(s.params.m, s.params.omega)[s.id])
    mat = dense_matrix(generator, psi.grid)
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    assert asym <= 1e-9 * (1.0 + float(np.max(np.abs(mat)))), "generator is not Hermitian"
    evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    coords = evecs.conj().T @ psi.values.ravel()
    return [WaveFunction(psi.grid, (evecs @ (np.exp(-1j * evals * t / s.params.hbar) * coords))
                         .reshape(psi.values.shape))
            for t in times]


def forward_backward_conjugation(s, which, t, psi) -> float:
    """|exp(iSt/h) O exp(-iSt/h) psi - O(t) psi| / |O(t) psi|, conjugating literally.

    Evolve psi forward, apply the fundamental O, evolve back by -t: the formula
    the library replaced by the forward-only intertwining gap
    |O U psi - U O(t) psi|.  Each evolution is the library's `unitary_evolve`
    of one state, which `dense_evolve` backs on its own.
    """
    acted = s.fundamental(which).apply(unitary_evolve(s, psi, t))
    conjugated = unitary_evolve(s, acted, -t).values
    target = heisenberg_operator(s, which, t).apply(psi).values
    return float(np.linalg.norm(conjugated - target) / np.linalg.norm(target))


# ---------------------------------------------------------------------------
# per-cell report (oracle for the columnar report and its writers)
# ---------------------------------------------------------------------------

def report_rows(schemes, observables, times, params, moments):
    """The cells and uncertainty rows of a report, one object at a time.

    `moments[sid]` is the (means, variances) pair of (T, 4) arrays the
    library computed for scheme sid.  Each number is converted on its own, and
    a spread is sqrt(max(float(variance), 0.0)), which keeps a variance of
    -0.0 as -0.0.
    """
    cells, rows = [], []
    for sid in schemes:
        s = scheme(sid, params)
        means, variances = moments[sid]
        for name in observables:
            i = OBSERVABLES.index(name)
            for k, t in enumerate(times):
                cells.append(ReportCell(scheme=sid, observable=name, time=float(t),
                                        mean=complex(means[k, i]),
                                        variance=float(variances[k, i])))
        for pair in CANONICAL_PAIRS[sid]:
            bound = float(uncertainty_bound(s, pair))
            for k, t in enumerate(times):
                product = math.prod(math.sqrt(max(float(variances[k, OBSERVABLES.index(n)]), 0.0))
                                    for n in pair)
                rows.append(UncertaintyRow(scheme=sid, pair=pair, time=float(t), product=product,
                                           bound=bound,
                                           satisfied=product >= bound - _ROBERTSON_SLACK))
    return tuple(cells), tuple(rows)


def report_dict(cells, rows, pair_residuals, metadata) -> dict:
    return {
        "metadata": dict(metadata),
        "cells": [{"scheme": c.scheme, "observable": c.observable, "time": c.time,
                   "mean_re": c.mean.real, "mean_im": c.mean.imag, "variance": c.variance}
                  for c in cells],
        "uncertainties": [{"scheme": u.scheme, "pair": list(u.pair), "time": u.time,
                           "product": u.product, "bound": u.bound, "satisfied": u.satisfied}
                          for u in rows],
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
                               repr(float(c.mean.real)), repr(float(c.mean.imag)),
                               repr(float(c.variance))]))
    return "\n".join(lines) + "\n"
