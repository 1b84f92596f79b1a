"""Closed-form answers the benchmark checks every op against.

Nothing here calls symquant: the oracles are written from the physics, so a
library change that alters a result cannot also alter what it is compared to.

Quantum moments.  A Gaussian packet with centre (cx, cy), wavevector
(kx, ky) and width sigma has, for Q = (x, y, Px, Py) with P = -i d/d(coord),
means (cx, cy, kx, ky), symmetrized covariance diag(s^2, s^2, 1/4s^2, 1/4s^2)
and [Q_a, Q_b] = i Omega_ab.  Scheme s represents its fundamentals as F = A_s Q
with a real 4x4 A_s, and every scheme evolves them by the classical propagator
J(t), so <F(t)> = J(t) A_s q0 and Var F(t) = diag(J A_s D A_s^T J^T).

Exact arithmetic.  A quadratic observable 1/2 x^T S x has gradient S x, so
{H_i, H_j} under the bracket matrix W is x^T S_i W S_j x, and the pair (W, H)
generates xdot = A x iff W S = A.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

OBSERVABLES = ("x", "y", "p_x", "p_y")

# -- quantum moments (floats) -------------------------------------------------


def representation(sid: int, m: float, omega: float, hbar: float) -> np.ndarray:
    """A_s: the fundamentals (x, y, p_x, p_y) of scheme ``sid`` in terms of Q."""
    mw = m * omega
    return np.array({
        0: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, hbar, 0], [0, 0, 0, hbar]],
        1: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, hbar], [0, 0, hbar, 0]],
        2: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -hbar, 0], [0, 0, 0, hbar]],
        # y -> (i hbar/mw) d/dx = -(hbar/mw) Px,  p_x -> mw y,  p_y -> i hbar d/dy
        3: [[1, 0, 0, 0], [0, 0, -hbar / mw, 0], [0, mw, 0, 0], [0, 0, 0, -hbar]],
    }[sid], dtype=float)


def propagator(t: float, m: float, omega: float) -> np.ndarray:
    c, s = math.cos(omega * t), math.sin(omega * t)
    mw = m * omega
    return np.array([[c, 0, s / mw, 0],
                     [0, c, 0, s / mw],
                     [-mw * s, 0, c, 0],
                     [0, -mw * s, 0, c]])


_OMEGA = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def gaussian_table(sid: int, m: float, omega: float, hbar: float,
                   center, wavevector, sigma: float, times) -> dict:
    """Means and variances per (observable, time index), the canonical
    uncertainty pairs with their Robertson bounds, and the products."""
    a = representation(sid, m, omega, hbar)
    q0 = np.array([*center, *wavevector], dtype=float)
    d = np.diag([sigma ** 2, sigma ** 2, 0.25 / sigma ** 2, 0.25 / sigma ** 2])
    means, variances = {}, {}
    for k, t in enumerate(times):
        j = propagator(t, m, omega)
        mean = j @ a @ q0
        var = np.diag(j @ a @ d @ a.T @ j.T)
        for i, name in enumerate(OBSERVABLES):
            means[name, k] = float(mean[i])
            variances[name, k] = float(var[i])
    comm = a @ _OMEGA @ a.T  # [F_i, F_j] = i comm_ij
    bounds = {}
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(comm[i, j]) > 1e-12 * max(1.0, float(np.max(np.abs(comm)))):
                bounds[OBSERVABLES[i], OBSERVABLES[j]] = abs(float(comm[i, j])) / 2.0
    products = {(pair, k): math.sqrt(variances[pair[0], k] * variances[pair[1], k])
                for pair in bounds for k in range(len(times))}
    return {"means": means, "variances": variances, "bounds": bounds,
            "products": products}


# -- exact arithmetic (Fractions) ---------------------------------------------


def field_matrix(m, omega) -> list[list]:
    """A of the oscillator: xdot = p_x/m, p_xdot = -m omega^2 x, and for y."""
    im, k = Fraction(1) / m, -m * omega ** 2
    return [[0, 0, im, 0], [0, 0, 0, im], [k, 0, 0, 0], [0, k, 0, 0]]


def hessians(m, omega) -> list[list[list]]:
    """S_0..S_3 with H_mu = 1/2 x^T S_mu x: the energy, the crossed and the
    sign-flipped quadratics, and omega times the angular momentum."""
    mw2, im = m * omega ** 2, Fraction(1) / m
    z = 0
    return [
        [[mw2, z, z, z], [z, mw2, z, z], [z, z, im, z], [z, z, z, im]],
        [[z, mw2, z, z], [mw2, z, z, z], [z, z, z, im], [z, z, im, z]],
        [[-mw2, z, z, z], [z, mw2, z, z], [z, z, -im, z], [z, z, z, im]],
        [[z, z, z, omega], [z, z, -omega, z], [z, -omega, z, z], [omega, z, z, z]],
    ]


def bracket_matrices(m, omega) -> list[list[list]]:
    """W_0..W_3, the bracket matrices {x^mu, x^nu} paired with S_0..S_3."""
    mw, imw = m * omega, Fraction(1) / (m * omega)
    return [
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, -imw, 0, 0], [imw, 0, 0, 0], [0, 0, 0, -mw], [0, 0, mw, 0]],
    ]


def matmul(a, b) -> list[list]:
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


def inverse(a) -> list[list]:
    """Gauss-Jordan inverse over Fractions; raises ZeroDivisionError if singular."""
    n = len(a)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def quadratic_terms(s) -> dict[tuple[int, int, int, int], Fraction]:
    """Coefficients of x^T s x by exponent tuple, zero terms dropped."""
    out = {}
    for i in range(4):
        for j in range(i, 4):
            c = s[i][i] if i == j else s[i][j] + s[j][i]
            if c != 0:
                expo = [0, 0, 0, 0]
                expo[i] += 1
                expo[j] += 1
                out[tuple(expo)] = Fraction(c)
    return out


def half_quadratic_terms(s) -> dict[tuple[int, int, int, int], Fraction]:
    """Coefficients of 1/2 x^T s x for a symmetric s."""
    return {k: v / 2 for k, v in quadratic_terms(s).items()}


def bracket_terms(s_i, w, s_j) -> dict[tuple[int, int, int, int], Fraction]:
    """{1/2 x^T S_i x, 1/2 x^T S_j x} under W, as exponent -> coefficient."""
    return quadratic_terms(matmul(matmul(s_i, w), s_j))


def is_conserved(s, a) -> bool:
    """d/dt (1/2 x^T s x) = x^T s A x vanishes iff s A + A^T s = 0."""
    sa = matmul(s, a)
    return all(sa[i][j] + sa[j][i] == 0 for i in range(4) for j in range(4))
