"""Enumeration of bracket-matrix/Hamiltonian pairs reproducing a linear flow.

A pair (omega, H) reproduces the dynamics xdot = A x when omega^{mu nu} dH/dx^nu
equals (A x)^mu.  Writing H = (1/2) x^T S x and theta for the inverse (lower)
bracket matrix, the requirement is exactly that S = theta A be symmetric, i.e.
theta A + A^T theta = 0 over antisymmetric theta.  This module solves that
linear constraint, rebuilds Hamiltonians from admissible thetas, and ships the
four standard oscillator pairs as ready-made instances.
"""

from __future__ import annotations

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
    _all_zero,
    _as_matrix,
    _check_shape_and_antisymmetry,
    _contract,
    _invert_matrix,
    _raw_gradient,
    _reciprocal,
)

# index pairs (i < j) parametrizing antisymmetric 4x4 matrices
PAIR_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_UPPER_WITH_DIAG = tuple((i, j) for i in range(NVARS) for j in range(i, NVARS))
_NULL_SV_RATIO = 1e-10  # of the largest singular value, in admissible_inverse_forms
_HESSIAN_TOL = 1e-10  # below it a curvature or flat-direction slope is 0 in classify_boundedness


@dataclass(frozen=True)
class HamiltonianPair:
    """A bracket matrix together with a Hamiltonian that generates a flow."""

    form: SymplecticForm
    hamiltonian: PolynomialObservable


@dataclass(frozen=True)
class InverseFormBasis:
    """Basis of the antisymmetric matrices theta with theta A + A^T theta = 0."""

    basis: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coordinates(self, theta) -> np.ndarray:
        """Least-squares coordinates of an antisymmetric matrix in this basis."""
        target = _pair_coordinates(np.asarray(theta, dtype=float))
        if not self.basis:
            return np.zeros(0)
        mat = np.stack([_pair_coordinates(b) for b in self.basis], axis=1)
        coeffs, *_ = np.linalg.lstsq(mat, target, rcond=None)
        return coeffs

    def projection_residual(self, theta) -> float:
        """Max-abs entry of theta minus its projection onto the basis span."""
        theta = np.asarray(theta, dtype=float)
        recon = self.sample(self.coordinates(theta))
        return float(np.max(np.abs(theta - recon))) if self.basis else float(np.max(np.abs(theta)))

    def contains(self, theta, tol: float = 1e-12) -> bool:
        theta = np.asarray(theta, dtype=float)
        scale = max(1.0, float(np.max(np.abs(theta))))
        return self.projection_residual(theta) <= tol * scale

    def sample(self, coeffs) -> np.ndarray:
        out = np.zeros((NVARS, NVARS))
        for c, b in zip(coeffs, self.basis):
            out += c * b
        return out


def _pair_coordinates(theta: np.ndarray) -> np.ndarray:
    return np.array([theta[i, j] for i, j in PAIR_INDEX])


def _theta_from_coordinates(coeffs) -> np.ndarray:
    theta = np.zeros((NVARS, NVARS))
    for c, (i, j) in zip(coeffs, PAIR_INDEX):
        theta[i, j] = c
        theta[j, i] = -c
    return theta


def admissible_inverse_forms(field: LinearVectorField) -> InverseFormBasis:
    """Null space of theta -> theta A + A^T theta over antisymmetric theta.

    The constraint matrix is assembled entrywise on the upper triangle
    (including the diagonal), giving a 10x6 system whose null space is found by
    SVD with the relative singular-value threshold _NULL_SV_RATIO.
    """
    a = field.as_float_array()
    system = np.zeros((len(_UPPER_WITH_DIAG), len(PAIR_INDEX)))
    for k, unit in enumerate(np.eye(len(PAIR_INDEX))):
        e = _theta_from_coordinates(unit)
        c = e @ a + a.T @ e
        system[:, k] = [c[i, j] for i, j in _UPPER_WITH_DIAG]
    _, svals, vt = np.linalg.svd(system)
    cutoff = _NULL_SV_RATIO * (svals[0] if svals.size and svals[0] > 0 else 1.0)
    null_rows = [vt[k] for k in range(vt.shape[0]) if k >= svals.size or svals[k] <= cutoff]
    basis = tuple(_theta_from_coordinates(row) for row in null_rows)
    for theta in basis:
        theta.setflags(write=False)
    return InverseFormBasis(basis=basis)


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


def _hamiltonian_and_inverse(theta, field: LinearVectorField):
    """The Hamiltonian of `hamiltonian_from_form`, theta in canonical form, and
    theta^{-1}, inverting theta once."""
    theta = _as_matrix(theta)
    _check_shape_and_antisymmetry(theta)
    a = field.matrix
    s = [[sum(t * a[k][j] for k, t in enumerate(row) if t != 0 and a[k][j] != 0)
          for j in range(NVARS)] for row in theta]
    if not _all_zero((s[i][j] - s[j][i] for i, j in PAIR_INDEX), s):
        raise ValueError("asymmetric product")
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
        residuals.append(PolynomialObservable(raw))
    return tuple(residuals)


def classify_boundedness(hamiltonian: PolynomialObservable) -> str:
    """'bounded-below', 'bounded-above', 'bounded', or 'unbounded' for degree <= 2."""
    if hamiltonian.degree > 2:
        raise ValueError("only observables of degree <= 2 are classified")
    hess = np.zeros((NVARS, NVARS))
    lin = np.zeros(NVARS)
    for i in range(NVARS):
        di = hamiltonian.partial(i)
        lin[i] = float(di.coefficient((0, 0, 0, 0)))
        for j in range(NVARS):
            hess[i, j] = float(di.partial(j).coefficient((0, 0, 0, 0)))
    eigvals, eigvecs = np.linalg.eigh(hess)
    below = True
    above = True
    for lam, vec in zip(eigvals, eigvecs.T):
        if lam > _HESSIAN_TOL:
            above = False
        elif lam < -_HESSIAN_TOL:
            below = False
        elif abs(vec @ lin) > _HESSIAN_TOL:
            below = above = False
    if below and above:
        return "bounded"
    if below:
        return "bounded-below"
    if above:
        return "bounded-above"
    return "unbounded"


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
