"""Enumeration of bracket-matrix/Hamiltonian pairs reproducing a linear flow.

A pair (omega, H) reproduces the dynamics xdot = A x when omega^{mu nu} dH/dx^nu
equals (A x)^mu.  Writing H = (1/2) x^T S x and theta for the inverse (lower)
bracket matrix, the requirement is exactly that S = theta A be symmetric, i.e.
theta A + A^T theta = 0 over antisymmetric theta.  This module solves that
linear constraint, rebuilds Hamiltonians from admissible thetas, and ships the
four standard oscillator pairs as ready-made instances.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phasespace import (
    NVARS,
    LinearVectorField,
    PolynomialObservable,
    SymplecticForm,
    _COORDINATE_GRADIENT,
    _ONE,
    _UPPER_WITH_DIAG,
    _ZERO_TOL,
    _as_matrix,
    _check_shape_and_antisymmetry,
    _contract,
    _invert_matrix,
    _is_exact,
    _is_float_matrix,
    _normalize_scalar,
    _polynomial,
    _raw_gradient,
    _reciprocal,
)

# index pairs (i < j) parametrizing antisymmetric 4x4 matrices
PAIR_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class HamiltonianPair:
    """A bracket matrix together with a Hamiltonian that generates a flow."""

    form: SymplecticForm
    hamiltonian: PolynomialObservable


@dataclass(frozen=True)
class InverseFormBasis:
    """Basis of the antisymmetric matrices theta with theta A + A^T theta = 0,
    for the field A it was solved for: each element the exact solution of
    `admissible_inverse_forms`, scaled by a power of two and rounded once."""

    basis: tuple[np.ndarray, ...]
    field: LinearVectorField = dataclasses.field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, theta) -> bool:
        """Whether theta passes `complete_pair`'s tests: antisymmetric 4x4 with
        theta A symmetric, by the same zero test."""
        try:
            _symmetric_product(theta, self.field)
        except ValueError:
            return False
        return True

    def sample(self, coeffs) -> np.ndarray:
        out = np.zeros((NVARS, NVARS))
        for c, b in zip(coeffs, self.basis):
            out += c * b
        return out


def _null_space(rows: list[list[int]]) -> list[list[int]]:
    """One null vector per free column of a square integer matrix, by
    fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    each step divides exactly by the previous pivot, and each pivot row ends
    with the last pivot d at its own pivot column and 0 at the others.  The
    vector of free column f is d at f and minus each pivot row's entry f at
    that row's pivot column, divided by its gcd, with entry f positive."""
    width, prev, pivots = len(rows), 1, []
    for col in range(width):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top, p = rows[r], rows[r][col]
        rows = [row if i == r else [(p * v - row[col] * w) // prev for v, w in zip(row, top)]
                for i, row in enumerate(rows)]
        prev = p
        pivots.append(col)
    vectors = []
    for f in (c for c in range(width) if c not in pivots):
        vector = [0] * width
        vector[f] = prev
        for row, col in zip(rows, pivots):
            vector[col] = -row[f]
        unit = math.gcd(*vector) * (1 if prev > 0 else -1)
        vectors.append([v // unit for v in vector])
    return vectors


def _float_element(vector: list[int]) -> np.ndarray:
    """The read-only antisymmetric theta with coordinates `vector` on
    PAIR_INDEX, scaled by the power of two that puts its largest |entry| in
    [1/2, 1), each entry rounded once; by the one that centres the exponents
    of its nonzero entries where that would round one to 0 or a subnormal
    (the oscillator's 1 and (m omega)^2 at m = 1e300)."""
    sizes = [abs(v).bit_length() for v in vector if v]
    coords = [v / (1 << max(sizes)) for v in vector]
    if any(v and abs(c) < sys.float_info.min for v, c in zip(vector, coords)):
        coords = [v / (1 << (max(sizes) + min(sizes)) // 2) for v in vector]
    theta = np.zeros((NVARS, NVARS))
    for c, (i, j) in zip(coords, PAIR_INDEX):
        theta[i, j], theta[j, i] = c, -c
    theta.setflags(write=False)
    return theta


def admissible_inverse_forms(field: LinearVectorField) -> InverseFormBasis:
    """Null space of theta -> theta A + A^T theta over antisymmetric theta,
    solved exactly in the integers: A's entries are read as Fractions (a
    float, sympy's too, is the rational its double is) with their
    denominators cleared.  Column E_pq - E_qp of the system holds entries
    i < j of theta A + A^T theta, delta_ip A_qj - delta_iq A_pj +
    A_pi delta_qj - A_qi delta_pj; the matrix is antisymmetric, so the rest
    is implied.  `_float_element` rounds each null vector of `_null_space`."""
    a = [[Fraction(v) if _is_exact(v) else Fraction(float(v)) for v in row] for row in field.matrix]
    scale = math.lcm(*(v.denominator for row in a for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in a]
    system = [[(i == p) * a[q][j] - (i == q) * a[p][j] + (j == q) * a[p][i] - (j == p) * a[q][i]
               for p, q in PAIR_INDEX] for i, j in PAIR_INDEX]
    basis = tuple(map(_float_element, _null_space(system)))
    return InverseFormBasis(basis=basis, field=field)


def hamiltonian_from_form(theta, field: LinearVectorField) -> PolynomialObservable:
    """Quadratic Hamiltonian (1/2) x^T (theta A) x for an admissible theta.

    Raises ValueError: "not antisymmetric" unless theta is antisymmetric 4x4,
    "asymmetric product" when theta A is not symmetric and "degenerate form"
    when theta has no inverse, since then no bracket matrix completes the pair.
    """
    return _hamiltonian_and_inverse(theta, field)[0]


def complete_pair(theta, field: LinearVectorField) -> HamiltonianPair:
    """Build the full pair (theta^{-1} as bracket matrix, Hamiltonian) from theta.

    theta is inverted once: the form stores theta^{-1} as its bracket matrix
    and theta itself as its inverse.
    """
    hamiltonian, theta, upper = _hamiltonian_and_inverse(theta, field)
    return HamiltonianPair(form=SymplecticForm._from_inverse_pair(upper, theta),
                           hamiltonian=hamiltonian)


def _symmetric_product(theta, field: LinearVectorField):
    """theta in canonical form and the nested list theta A, once theta is
    antisymmetric 4x4 and theta A symmetric; raises the ValueError of
    `hamiltonian_from_form` for the test that fails."""
    theta = _as_matrix(theta)
    _check_shape_and_antisymmetry(theta)
    a = field.matrix
    s = [[sum(t * a[k][j] for k, t in enumerate(row) if t != 0 and a[k][j] != 0)
          for j in range(NVARS)] for row in theta]
    if not _is_symmetric_product(theta, a, s):
        raise ValueError("asymmetric product")
    return theta, s


def _is_symmetric_product(theta, a, s) -> bool:
    """Each difference s[i][j] - s[j][i] of s = theta A is zero.  An exact
    difference is zero when it is literally 0 once canonical.  In float, a
    nonzero theta[i][k] is known to _ZERO_TOL of the larger of its own size
    and the smaller of the sizes rows i and k have apart from it (a row whose
    other entries are all within _ZERO_TOL of it sets none), and an exact
    zero of theta is exact.  A difference is zero within what moving every
    entry of theta by that much can move s[i][j] and s[j][i].  So the verdict
    is the same at every overall scale of theta and of A, roundoff alone in a
    row is absorbed, and a small entry is read at the size of the small row
    it joins however large the rest of theta A is."""
    diffs = ((i, j, s[i][j] - s[j][i]) for i, j in PAIR_INDEX)
    if not _is_float_matrix(s):
        return all(_normalize_scalar(v) == 0 for _, _, v in diffs)
    rows = [[abs(float(t)) for t in row] for row in theta]

    def other(i, k):  # the largest |entry| of row i but theta[i][k]
        return max(v for j, v in enumerate(rows[i]) if j != k)

    def known_to(i, k):
        if not rows[i][k]:
            return 0.0
        shared = min((v for v in (other(i, k), other(k, i)) if v > _ZERO_TOL * rows[i][k]),
                     default=0.0)
        return _ZERO_TOL * max(rows[i][k], shared)

    slack = [[known_to(i, k) for k in range(NVARS)] for i in range(NVARS)]
    reach = [[sum(u * abs(float(a[k][j])) for k, u in enumerate(row)) for j in range(NVARS)]
             for row in slack]
    return all(abs(float(v)) <= reach[i][j] + reach[j][i] for i, j, v in diffs)


def _hamiltonian_and_inverse(theta, field: LinearVectorField):
    """The Hamiltonian of `hamiltonian_from_form`, theta in canonical form, and
    theta^{-1}, inverting theta once."""
    theta, s = _symmetric_product(theta, field)
    try:
        inverse = _invert_matrix(theta)
    except ValueError:
        raise ValueError("degenerate form") from None
    half = Fraction(1, 2)
    terms = {tuple(int(k == i) + int(k == j) for k in range(NVARS)):
             half * s[i][j] if i == j else s[i][j] for i, j in _UPPER_WITH_DIAG if s[i][j] != 0}
    return PolynomialObservable(terms), theta, inverse


def verify_pair(pair: HamiltonianPair,
                field: LinearVectorField) -> tuple[PolynomialObservable, ...]:
    """Residual of the induced dynamics minus the target field, componentwise.

    Component mu, sum_nu upper[mu][nu] dH/dx^nu - (A x)^mu, is summed raw and
    canonicalized once per exponent.
    """
    grad = _raw_gradient(pair.hamiltonian)
    residuals = []
    for upper_row, field_row in zip(pair.form.upper, field.matrix):
        raw = _contract((_ONE,), (upper_row,), grad)
        _contract(({(0,) * NVARS: -1},), (field_row,), _COORDINATE_GRADIENT, raw)
        residuals.append(_polynomial(raw))
    return tuple(residuals)


def _derivatives_at_zero(f: PolynomialObservable) -> tuple[list, list]:
    """(Hessian, slope) of a degree <= 2 polynomial at 0, as nested lists summed
    from its coefficients as they are; the constant term is not read."""
    hess = [[0] * NVARS for _ in range(NVARS)]
    lin = [0] * NVARS
    for expo, coeff in f.terms.items():
        index = [i for i, e in enumerate(expo) for _ in range(e)]
        if len(index) == 1:
            lin[index[0]] = coeff
        elif index:  # x_i x_j puts its coefficient at (i, j) and (j, i), x_i^2 twice at (i, i)
            i, j = index
            hess[i][j] += coeff
            hess[j][i] += coeff
    return hess, lin


def _bounded_below(hess: list, lin: list) -> bool:
    """Whether x.H x / 2 + l.x is bounded below, by completing squares exactly.

    The largest diagonal entry, when positive, is a square completed away, which
    leaves its Schur complement and slope on the other variables.  When it is
    not, a negative diagonal entry or a cross term between two flat directions
    is unbounded below, and what is left is linear: bounded only if zero.
    """
    while hess:
        k = max(range(len(hess)), key=lambda i: hess[i][i])
        pivot = hess[k][k]
        if pivot <= 0:
            return not any(map(any, hess)) and not any(lin)
        col, keep = [row[k] for row in hess], [i for i in range(len(hess)) if i != k]
        hess = [[hess[i][j] - col[i] * col[j] / pivot for j in keep] for i in keep]
        lin = [lin[i] - col[i] * lin[k] / pivot for i in keep]
    return True


def classify_boundedness(hamiltonian: PolynomialObservable) -> str:
    """'bounded-below', 'bounded-above', 'bounded', or 'unbounded' for degree <= 2,
    decided on the exact values of the coefficients (a float is the Fraction it
    is), so no scale of the terms is read as zero and c H gets H's label for
    every c > 0."""
    if hamiltonian.degree > 2:
        raise ValueError("only observables of degree <= 2 are classified")
    hess, lin = _derivatives_at_zero(hamiltonian)
    below, above = (_bounded_below([[Fraction(sign * c) for c in row] for row in hess],
                                   [Fraction(sign * c) for c in lin]) for sign in (1, -1))
    return {(True, True): "bounded", (True, False): "bounded-below",
            (False, True): "bounded-above", (False, False): "unbounded"}[below, above]


# ---------------------------------------------------------------------------
# the canned oscillator catalog
# ---------------------------------------------------------------------------

def oscillator_field(m=1, omega=1) -> LinearVectorField:
    """2-D isotropic harmonic oscillator: xdot = p_x/m, pdot_x = -m omega^2 x, etc.

    `m` and `omega` may be numbers or sympy symbols; integers stay exact.
    """
    im = _reciprocal(m)
    k = -m * omega ** 2
    return LinearVectorField((
        (0, 0, im, 0),
        (0, 0, 0, im),
        (k, 0, 0, 0),
        (0, k, 0, 0),
    ))


def standard_hamiltonians(m=1, omega=1) -> tuple[PolynomialObservable, ...]:
    """The energy S0 and the three alternative constants of motion S1, S2, S3."""
    half = Fraction(1, 2)
    im = _reciprocal(m)
    mw2 = m * omega ** 2
    x2 = (2, 0, 0, 0)
    y2 = (0, 2, 0, 0)
    px2 = (0, 0, 2, 0)
    py2 = (0, 0, 0, 2)
    xy = (1, 1, 0, 0)
    pxpy = (0, 0, 1, 1)
    xpy = (1, 0, 0, 1)
    ypx = (0, 1, 1, 0)
    s0 = PolynomialObservable({px2: half * im, x2: half * mw2,
                               py2: half * im, y2: half * mw2})
    s1 = PolynomialObservable({pxpy: im, xy: mw2})
    s2 = PolynomialObservable({py2: half * im, px2: -half * im,
                               y2: half * mw2, x2: -half * mw2})
    s3 = PolynomialObservable({xpy: omega, ypx: -omega})
    return (s0, s1, s2, s3)


# W0..W2 hold only the ints 0 and +/-1 at every m and omega
_W0 = ((0, 0, 1, 0),
       (0, 0, 0, 1),
       (-1, 0, 0, 0),
       (0, -1, 0, 0))
_W1 = ((0, 0, 0, 1),
       (0, 0, 1, 0),
       (0, -1, 0, 0),
       (-1, 0, 0, 0))
_W2 = ((0, 0, -1, 0),
       (0, 0, 0, 1),
       (1, 0, 0, 0),
       (0, -1, 0, 0))
# so their validated, exactly inverted forms are built once per process
_UNIT_FORMS = tuple(SymplecticForm(w) for w in (_W0, _W1, _W2))


def bracket_matrices(m=1, omega=1) -> tuple[tuple[tuple, ...], ...]:
    """The raw bracket matrices W0..W3 paired with S0..S3, as nested tuples.

    Entries are the ints 0 and +/-1, and 1/(m omega) and m omega in W3, in
    whatever arithmetic m and omega carry; nothing is validated or inverted.
    `standard_forms` wraps them in `SymplecticForm`, and `quantum.scheme`
    reads them as floats.
    """
    imw = _reciprocal(m * omega)
    mw = m * omega
    w3 = ((0, -imw, 0, 0),
          (imw, 0, 0, 0),
          (0, 0, 0, -mw),
          (0, 0, mw, 0))
    return (_W0, _W1, _W2, w3)


def standard_forms(m=1, omega=1) -> tuple[SymplecticForm, ...]:
    """The four bracket matrices paired with S0..S3, each validated and inverted.

    W0..W2 do not depend on m and omega; their forms are shared module
    constants, so only W3 is validated and inverted per call.
    """
    return (*_UNIT_FORMS, SymplecticForm(bracket_matrices(m, omega)[3]))


def standard_pairs(m=1, omega=1) -> tuple[HamiltonianPair, ...]:
    """All four (bracket matrix, Hamiltonian) pairs generating the oscillator."""
    return tuple(HamiltonianPair(form=f, hamiltonian=h)
                 for f, h in zip(standard_forms(m, omega), standard_hamiltonians(m, omega)))
