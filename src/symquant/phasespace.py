"""Polynomial observables, symplectic forms, and Poisson brackets on R^4.

Phase space is coordinatized by (x, y, p_x, p_y), in that order.  Coefficient
arithmetic stays exact whenever the inputs are exact (int, Fraction, or sympy
expression), so bracket identities and vector-field residuals can be asserted
with literally zero remainder; floats are supported for numeric work and
propagate as floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt
from typing import Mapping, Sequence

import numpy as np
import sympy as sp

NVARS = 4
COORD_NAMES = ("x", "y", "p_x", "p_y")

Exponents = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# scalar helpers (shared by the polynomial and matrix code)
# ---------------------------------------------------------------------------

def _normalize_scalar(c):
    """Coerce numpy scalars to Python ones and canonicalize sympy expressions."""
    if isinstance(c, np.generic):
        c = c.item()
    if isinstance(c, sp.Basic):
        if c.free_symbols:
            c = sp.cancel(sp.expand(c))
        if c.is_number and c.is_Integer:
            c = int(c)
    return c


def _scalar_is_zero(c) -> bool:
    if isinstance(c, sp.Basic):
        return bool(sp.expand(sp.cancel(c)).is_zero)
    return c == 0


def _is_exact(c) -> bool:
    if isinstance(c, (bool, float, complex)):
        return False
    if isinstance(c, (int, Fraction)):
        return True
    if isinstance(c, sp.Basic):
        return not c.has(sp.Float)
    return False


def _reciprocal(c):
    """1/c, exact for int and Fraction; callers canonicalize sympy results."""
    if isinstance(c, (int, Fraction)):
        return Fraction(1, 1) / Fraction(c)
    return 1 / c


# ---------------------------------------------------------------------------
# small generic 4x4 matrix helpers; entries may be exact scalars or floats
# ---------------------------------------------------------------------------

def _as_matrix(rows) -> tuple[tuple, ...]:
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    mat = tuple(tuple(_normalize_scalar(v) for v in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return mat


def _matrix_has_float(mat) -> bool:
    return any(not _is_exact(v) for row in mat for v in row)


def _matrix_max_abs(mat) -> float:
    vals = [abs(float(v)) for row in mat for v in row if not isinstance(v, sp.Basic) or v.is_number]
    return max(vals, default=0.0)


def _is_antisymmetric(mat, tol: float = 1e-12) -> bool:
    n = len(mat)
    if _matrix_has_float(mat):
        scale = tol * (1.0 + _matrix_max_abs(mat))
        return all(abs(float(mat[i][j]) + float(mat[j][i])) <= scale
                   for i in range(n) for j in range(i, n))
    return all(_scalar_is_zero(mat[i][j] + mat[j][i])
               for i in range(n) for j in range(i, n))


def _invert_exact(mat) -> tuple[tuple, ...]:
    """Gauss-Jordan inverse over exact scalars; raises ZeroDivisionError if singular."""
    n = len(mat)
    aug = [[Fraction(v) if isinstance(v, (int, Fraction)) else v for v in row]
           + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not _scalar_is_zero(aug[r][col])), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = _reciprocal(aug[col][col])
        aug[col] = [_normalize_scalar(v * inv_p) for v in aug[col]]
        for r in range(n):
            if r != col and not _scalar_is_zero(aug[r][col]):
                f = aug[r][col]
                aug[r] = [_normalize_scalar(a - f * b) for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _invert_matrix(mat) -> tuple[tuple, ...]:
    """Matrix inverse; raises ZeroDivisionError when (numerically) singular."""
    if _matrix_has_float(mat):
        arr = np.array([[float(v) for v in row] for row in mat], dtype=float)
        svals = np.linalg.svd(arr, compute_uv=False)
        if svals[-1] <= 1e-12 * max(svals[0], 1e-300):
            raise ZeroDivisionError("singular matrix")
        return _as_matrix(np.linalg.inv(arr))
    return _invert_exact(mat)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysParams:
    """Dimensional constants of the oscillator: mass, angular frequency, hbar."""

    m: float
    omega: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar"):
            value = float(getattr(self, name))
            if not 0 < value < inf:
                raise ValueError(f"{name} must be strictly positive and finite, not {value!r}")
            object.__setattr__(self, name, value)

    @property
    def sigma_ref(self) -> float:
        """Oscillator length sqrt(hbar / (m * omega))."""
        return sqrt(self.hbar / (self.m * self.omega))

    @property
    def ground_sigma(self) -> float:
        """Gaussian width saturating the canonical uncertainty bound."""
        return sqrt(self.hbar / (2.0 * self.m * self.omega))


class PolynomialObservable:
    """Polynomial in (x, y, p_x, p_y) stored as exponent-tuple -> coefficient.

    Immutable by convention; all arithmetic returns new instances.  Zero
    coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Sequence[int], object] | None = None):
        clean: dict[Exponents, object] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != NVARS or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo!r}")
            coeff = _normalize_scalar(coeff)
            if not _scalar_is_zero(coeff):
                clean[expo] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("PolynomialObservable is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "PolynomialObservable":
        return cls()

    @classmethod
    def constant(cls, c) -> "PolynomialObservable":
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def coordinate(cls, index: int) -> "PolynomialObservable":
        if not 0 <= index < NVARS:
            raise ValueError(f"coordinate index out of range: {index}")
        expo = tuple(int(i == index) for i in range(NVARS))
        return cls({expo: 1})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, expo: Sequence[int]):
        return self.terms.get(tuple(int(e) for e in expo), 0)

    def max_abs_coefficient(self) -> float:
        return max((abs(float(c)) for c in self.terms.values()), default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0) + coeff
        return PolynomialObservable(out)

    __radd__ = __add__

    def __neg__(self):
        return PolynomialObservable({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, PolynomialObservable):
            out: dict[Exponents, object] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    expo = tuple(a + b for a, b in zip(e1, e2))
                    out[expo] = out.get(expo, 0) + c1 * c2
            return PolynomialObservable(out)
        return PolynomialObservable({e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = PolynomialObservable.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None  # unhashable: equality is semantic, not structural

    # -- calculus -----------------------------------------------------------

    def partial(self, index: int) -> "PolynomialObservable":
        """Partial derivative with respect to coordinate `index`."""
        if not 0 <= index < NVARS:
            raise ValueError(f"coordinate index out of range: {index}")
        out: dict[Exponents, object] = {}
        for expo, coeff in self.terms.items():
            e = expo[index]
            if e:
                lowered = list(expo)
                lowered[index] = e - 1
                key = tuple(lowered)
                out[key] = out.get(key, 0) + e * coeff
        return PolynomialObservable(out)

    def gradient(self) -> tuple["PolynomialObservable", ...]:
        return tuple(self.partial(i) for i in range(NVARS))

    def evaluate(self, point: Sequence):
        """Evaluate at a length-4 point; exactness follows the inputs."""
        vals = list(point)
        if len(vals) != NVARS:
            raise ValueError("point must have 4 components")
        total = 0
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, expo):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    # -- display ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[expo]
            factors = [f"{name}^{e}" if e > 1 else name
                       for name, e in zip(COORD_NAMES, expo) if e]
            body = "*".join(factors)
            cs = str(coeff)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or ("/" in cs and isinstance(coeff, sp.Basic)):
                cs = f"({cs})"
            if body and cs == "1":
                pieces.append(body)
            elif body and cs == "-1":
                pieces.append(f"-{body}")
            else:
                pieces.append(f"{cs}*{body}" if body else cs)
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self):
        return f"PolynomialObservable({self.terms!r})"


def _coerce_poly(value):
    if isinstance(value, PolynomialObservable):
        return value
    if isinstance(value, (int, float, Fraction, sp.Basic, np.generic)):
        return PolynomialObservable.constant(value)
    return NotImplemented


def coordinates() -> tuple[PolynomialObservable, ...]:
    """The four coordinate observables (x, y, p_x, p_y)."""
    return tuple(PolynomialObservable.coordinate(i) for i in range(NVARS))


class SymplecticForm:
    """Constant antisymmetric invertible bracket matrix and its cached inverse.

    ``upper`` holds the bracket values {x^mu, x^nu}; ``lower`` is the matrix
    inverse, the coefficient table of the corresponding 2-form.
    """

    __slots__ = ("upper", "lower")

    def __init__(self, upper):
        mat = _as_matrix(upper)
        if len(mat) != NVARS:
            raise ValueError("form must be 4x4")
        if not _is_antisymmetric(mat):
            raise ValueError("not antisymmetric")
        try:
            inverse = _invert_matrix(mat)
        except ZeroDivisionError:
            raise ValueError("degenerate") from None
        object.__setattr__(self, "upper", mat)
        object.__setattr__(self, "lower", inverse)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("SymplecticForm is immutable")

    def upper_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.upper], dtype=float)

    def lower_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.lower], dtype=float)

    def __repr__(self):
        return f"SymplecticForm({[list(r) for r in self.upper]!r})"


@dataclass(frozen=True)
class LinearVectorField:
    """Linear dynamics xdot^mu = A^mu_nu x^nu given by a 4x4 matrix A."""

    matrix: tuple

    def __init__(self, matrix):
        mat = _as_matrix(matrix)
        if len(mat) != NVARS:
            raise ValueError("vector field matrix must be 4x4")
        object.__setattr__(self, "matrix", mat)

    def components(self) -> tuple[PolynomialObservable, ...]:
        """The four right-hand sides as degree-1 polynomials."""
        comps = []
        for row in self.matrix:
            terms = {}
            for nu, a in enumerate(row):
                if not _scalar_is_zero(a):
                    expo = tuple(int(i == nu) for i in range(NVARS))
                    terms[expo] = a
            comps.append(PolynomialObservable(terms))
        return tuple(comps)

    def as_float_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.matrix], dtype=float)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def poisson_bracket(f: PolynomialObservable, g: PolynomialObservable,
                    form: SymplecticForm) -> PolynomialObservable:
    """{f, g} = sum_mu,nu  df/dx^mu * upper[mu][nu] * dg/dx^nu, exactly."""
    df = f.gradient()
    dg = g.gradient()
    out = PolynomialObservable.zero()
    for mu in range(NVARS):
        if df[mu].is_zero:
            continue
        for nu in range(NVARS):
            w = form.upper[mu][nu]
            if _scalar_is_zero(w) or dg[nu].is_zero:
                continue
            out = out + (df[mu] * dg[nu]) * w
    return out


@dataclass(frozen=True)
class FormValidation:
    """Outcome of validating a candidate bracket matrix."""

    ok: bool
    reason: str | None
    form: SymplecticForm | None
    jacobi_residual: float


def validate_form(candidate) -> FormValidation:
    """Check antisymmetry, nondegeneracy, and the Jacobi identity on coordinates.

    Constant matrices satisfy Jacobi automatically; the brute-force check over
    all coordinate triples is still run and reported.
    """
    try:
        mat = _as_matrix(candidate)
        if len(mat) != NVARS:
            raise ValueError("form must be 4x4")
    except ValueError:
        return FormValidation(False, "not antisymmetric", None, float("nan"))
    if not _is_antisymmetric(mat):
        return FormValidation(False, "not antisymmetric", None, float("nan"))
    try:
        form = SymplecticForm(mat)
    except ValueError:
        return FormValidation(False, "degenerate", None, float("nan"))

    coords = coordinates()
    worst = 0.0
    for a in range(NVARS):
        for b in range(NVARS):
            for c in range(NVARS):
                cyc = (poisson_bracket(poisson_bracket(coords[a], coords[b], form), coords[c], form)
                       + poisson_bracket(poisson_bracket(coords[b], coords[c], form), coords[a], form)
                       + poisson_bracket(poisson_bracket(coords[c], coords[a], form), coords[b], form))
                worst = max(worst, cyc.max_abs_coefficient())
    if worst > 1e-12 * (1.0 + _matrix_max_abs(mat)) ** 2:
        return FormValidation(False, "Jacobi violated", None, worst)
    return FormValidation(True, None, form, worst)


def hamiltonian_vector_field(form: SymplecticForm,
                             hamiltonian: PolynomialObservable) -> tuple[PolynomialObservable, ...]:
    """Component mu of the induced dynamics: sum_nu upper[mu][nu] * dH/dx^nu."""
    grad = hamiltonian.gradient()
    comps = []
    for mu in range(NVARS):
        acc = PolynomialObservable.zero()
        for nu in range(NVARS):
            w = form.upper[mu][nu]
            if _scalar_is_zero(w) or grad[nu].is_zero:
                continue
            acc = acc + grad[nu] * w
        comps.append(acc)
    return tuple(comps)


def is_constant_of_motion(f: PolynomialObservable, field: LinearVectorField) -> bool:
    """True iff df/dt = sum_mu df/dx^mu * (A x)^mu vanishes identically.

    Needs only the equations of motion; no bracket or Hamiltonian choice enters.
    """
    comps = field.components()
    total = PolynomialObservable.zero()
    for mu in range(NVARS):
        dmu = f.partial(mu)
        if not dmu.is_zero and not comps[mu].is_zero:
            total = total + dmu * comps[mu]
    return total.is_zero
