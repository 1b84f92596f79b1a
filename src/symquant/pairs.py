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
    _is_float_matrix,
    _normalize_scalar,
    _polynomial,
    _raw_gradient,
    _reciprocal,
)

# index pairs (i < j) parametrizing antisymmetric 4x4 matrices
PAIR_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_NULL_SV_RATIO = 1e-10  # of the largest singular value, in admissible_inverse_forms
_BALANCE_RADIX = 2.0 ** 8  # the step of _balancing's scale factors


@dataclass(frozen=True)
class HamiltonianPair:
    """A bracket matrix together with a Hamiltonian that generates a flow."""

    form: SymplecticForm
    hamiltonian: PolynomialObservable


@dataclass(frozen=True)
class InverseFormBasis:
    """Basis of the antisymmetric matrices theta with theta A + A^T theta = 0,
    for the field A it was solved for."""

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


def _theta_from_coordinates(coeffs) -> np.ndarray:
    theta = np.zeros((NVARS, NVARS))
    for c, (i, j) in zip(coeffs, PAIR_INDEX):
        theta[i, j] = c
        theta[j, i] = -c
    return theta


def _balancing(a: np.ndarray) -> np.ndarray:
    """Powers of _BALANCE_RADIX d with D A D^-1 balanced, D = diag(d): the
    radix-based iteration of Parlett and Reinsch (Numer. Math. 13, 1969).
    Index i is rescaled when that lowers the sum of the off-diagonal 1-norms
    of its row and column by 5%, so d is all ones when no row and column
    differ by a factor of _BALANCE_RADIX or more.  No d leaves [2^-511, 2^511],
    so D theta D stays in the float range."""
    rows = np.abs(a).tolist()
    d = [1.0] * len(rows)
    step = 2 * math.log2(_BALANCE_RADIX)
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            c = sum(rows[k][i] * d[k] / d[i] for k in range(len(rows)) if k != i)
            r = sum(v * d[i] / d[k] for k, v in enumerate(row) if k != i)
            if c == 0 or r == 0:
                continue
            f = _BALANCE_RADIX ** round((math.log2(c) - math.log2(r)) / step)
            if (f != 1 and c / f + r * f < 0.95 * (c + r)
                    and 2.0 ** -511 <= d[i] * f <= 2.0 ** 511):
                d[i] *= f
                changed = True
    return np.array(d)


def _unbalanced(d: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """D theta D for a solution theta of the balanced field, D = diag(d), scaled
    by a power of two to a largest |entry| in [1/2, 1).  An entry of theta
    within _ZERO_TOL of its largest is roundoff of the balanced solve and is
    made 0 first: D would carry it up to the size of theta's largest entries,
    where it would be read as an entry."""
    theta = np.where(np.abs(theta) > _ZERO_TOL * np.abs(theta).max(), theta, 0.0)
    theta = d[:, None] * theta * d[None, :]
    return np.ldexp(theta, -math.frexp(np.abs(theta).max())[1])


def admissible_inverse_forms(field: LinearVectorField) -> InverseFormBasis:
    """Null space of theta -> theta A + A^T theta over antisymmetric theta.

    The constraint matrix is assembled entrywise on the upper triangle
    (including the diagonal), giving a 10x6 system whose null space is found by
    SVD with the relative singular-value threshold _NULL_SV_RATIO.  The system
    is solved for the balanced field D A D^-1 of `_balancing`, whose
    solutions theta' give theta = D theta' D, so a field whose entries span
    many decades (the oscillator far from m omega = 1) gets a basis that
    passes `contains` entry by entry rather than one whose smallest entries
    are lost to roundoff; at D = 1 the basis is the SVD's own.
    """
    a = field.as_float_array()
    d = _balancing(a)
    balanced = a * d[:, None] / d[None, :]
    system = np.zeros((len(_UPPER_WITH_DIAG), len(PAIR_INDEX)))
    for k, unit in enumerate(np.eye(len(PAIR_INDEX))):
        e = _theta_from_coordinates(unit)
        c = e @ balanced + balanced.T @ e
        system[:, k] = [c[i, j] for i, j in _UPPER_WITH_DIAG]
    _, svals, vt = np.linalg.svd(system)
    cutoff = _NULL_SV_RATIO * (svals[0] if svals.size and svals[0] > 0 else 1.0)
    null_rows = [vt[k] for k in range(vt.shape[0]) if k >= svals.size or svals[k] <= cutoff]
    basis = tuple(_theta_from_coordinates(row) for row in null_rows)
    if (d != 1).any():
        basis = tuple(_unbalanced(d, theta) for theta in basis)
    for theta in basis:
        theta.setflags(write=False)
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
