"""Polynomial observables, symplectic forms, and Poisson brackets on R^4.

Phase space is coordinatized by (x, y, p_x, p_y), in that order.  Coefficient
arithmetic stays exact whenever the inputs are exact (int, Fraction, or sympy
expression); floats are supported for numeric work and propagate as floats.

Every exact scalar has one canonical form, produced by `_normalize_scalar`:
a sympy value becomes cancel(expand(c)) and an integer becomes an int, so an
exact zero is literally 0 and is tested with ``== 0``.  Polynomials and
matrices store only canonical scalars; bracket identities and vector-field
residuals are therefore asserted with a literally zero remainder.  A monomial
(a Rational times integer powers of symbols) is already in that form as
sympy's automatic evaluation builds it, so it is recognized and kept; every
other sympy value (a sum, a product or power of one, a Float, I) is cancelled.

A contraction (a bracket, a Hamiltonian vector field, a derivative along a
linear flow, a pair residual) sums the products of raw partial-derivative
terms into one {exponent: coefficient} dict and builds one polynomial from
it, so each output exponent is canonicalized once and no intermediate is.

sympy is never imported here: no sympy value can exist before its caller has
imported sympy, so `_sympy_of` reads the module from ``sys.modules`` and float
work never loads it.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt
from typing import Mapping, Sequence

import numpy as np

NVARS = 4
COORD_NAMES = ("x", "y", "p_x", "p_y")

Exponents = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# scalar helpers (shared by the polynomial and matrix code)
# ---------------------------------------------------------------------------

_PLAIN_SCALARS = (int, float, Fraction, complex)
_ZERO_TOL = 1e-12  # of 1 + max|mat|, for a float matrix's entries in _all_zero


def _sympy_of(c):
    """The sympy module when c is a sympy value, else None; never imports sympy."""
    if isinstance(c, _PLAIN_SCALARS):
        return None
    sp = sys.modules.get("sympy")
    return sp if sp is not None and isinstance(c, sp.Basic) else None


def _is_monomial_factor(f) -> bool:
    """f is a commutative Symbol, or one raised to an Integer power."""
    if f.is_Pow:
        f, e = f.args
        if not e.is_Integer:
            return False
    return f.is_Symbol and f.is_commutative


def _is_canonical_monomial(c) -> bool:
    """c is a Rational, or a product of a Rational and factors accepted by
    `_is_monomial_factor`, as sympy's automatic evaluation writes one; such a
    value is its own cancel(expand(c))."""
    if c.is_Rational:
        return True
    factors = c.args if c.is_Mul else (c,)
    if factors[0].is_Rational:
        factors = factors[1:]
    return all(map(_is_monomial_factor, factors))


def _normalize_scalar(c):
    """The canonical form of a scalar; an exact zero comes out as the int 0.

    numpy scalars become Python ones, a sympy value becomes cancel(expand(c)),
    and a sympy integer or numeric zero becomes an int.  A canonical monomial
    (see `_is_canonical_monomial`) is already that form and is returned as it
    is; any other sympy value (a sum, a sum inside a product or power, a
    non-integer power, a Float, I) goes through cancel(expand(c)).
    """
    if isinstance(c, np.generic):
        c = c.item()
    sp = _sympy_of(c)
    if sp is not None:
        if not _is_canonical_monomial(c):
            c = sp.cancel(sp.expand(c))
        # sympy's Float(0) == 0 is False, so numeric zeros are made literal too
        if c.is_Integer or (c.is_Number and c.is_zero):
            c = int(c)
    return c


def _is_exact(c) -> bool:
    if isinstance(c, (bool, float, complex)):
        return False
    if isinstance(c, (int, Fraction)):
        return True
    sp = _sympy_of(c)
    return sp is not None and not c.has(sp.Float)


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
    if any(_is_complex(v) for row in mat for v in row):
        raise ValueError("matrix entries must be real")
    return mat


def _is_complex(c) -> bool:
    """c is a Python complex, or a sympy value that sympy can tell is not real
    (I, I*m with m positive, m with m imaginary).  A canonical monomial whose
    symbols are all known to be real is real, so it is not asked: that query
    on every entry cut the `exact` benchmark by a third."""
    if isinstance(c, complex):
        return True
    return (_sympy_of(c) is not None
            and not (_is_canonical_monomial(c) and all(s.is_real for s in c.free_symbols))
            and c.is_real is False)


def _is_float_matrix(mat) -> bool:
    """mat is zero-tested and inverted in floating point: it holds a float and
    no free symbol.  A symbolic entry, even a Float multiple of a symbol, has
    no float value, so its matrix stays on the exact path."""
    return (any(not _is_exact(v) for row in mat for v in row)
            and not any(_sympy_of(v) is not None and v.free_symbols for row in mat for v in row))


def _all_zero(values, mat) -> bool:
    """Each value read off `mat` is zero: literally 0 once canonical, or, when
    `mat` is a float matrix, at most _ZERO_TOL (1 + max|mat|), a scale taken once."""
    if _is_float_matrix(mat):
        scale = _ZERO_TOL * (1.0 + max(abs(float(v)) for row in mat for v in row))
        return all(abs(float(v)) <= scale for v in values)
    return all(_normalize_scalar(v) == 0 for v in values)


def _invert_antisymmetric(mat) -> tuple[tuple, ...]:
    """Inverse of a canonical exact antisymmetric 4x4 matrix W, in closed form:
    with a, b, c, d, e, f its upper entries W01, W02, W03, W12, W13, W23, the
    Pfaffian is Pf = af - be + cd, det W = Pf^2 (Cayley), and W^-1 is
    [[0, -f, e, -d], [f, 0, -c, b], [-e, c, 0, -a], [d, -b, a, 0]] / Pf.  A
    canonical Pf of 0 raises ValueError("degenerate").  A zero comes out as
    Fraction(0), and so does every entry of an int or Fraction matrix."""
    (_, a, b, c), (_, _, d, e), (_, _, _, f) = mat[:3]
    pf = _normalize_scalar(sum(u * v for u, v in ((a, f), (-b, e), (c, d)) if u != 0 and v != 0))
    if pf == 0:
        raise ValueError("degenerate")
    r, zero = _reciprocal(pf), Fraction(0)

    def scaled(v):  # v / Pf and -v / Pf; a sympy v is not multiplied by a unit Pf
        if v == 0:
            return zero, zero
        if _sympy_of(v) is None or r != 1:
            v = _normalize_scalar(v * r)
        return v, _normalize_scalar(-v)

    (a, na), (b, nb), (c, nc), (d, nd), (e, ne), (f, nf) = map(scaled, (a, b, c, d, e, f))
    return ((zero, nf, e, nd), (f, zero, nc, b), (ne, c, zero, na), (d, nb, a, zero))


def _invert_matrix(mat) -> tuple[tuple, ...]:
    """Inverse of an antisymmetric 4x4 matrix, in closed form when it is exact;
    raises ValueError("degenerate") when it is (numerically) singular.

    Floats are tested after dividing each row by its largest absolute entry,
    so rows of very different scale, such as 1/(m omega) against m omega, do
    not read as singular.  The largest entry, unlike the Euclidean norm, is
    not squared on the way, so it neither overflows nor underflows at
    m omega = 1e+/-200.
    """
    if _is_float_matrix(mat):
        arr = np.array([[float(v) for v in row] for row in mat], dtype=float)
        scales = np.abs(arr).max(axis=1)
        if not scales.all():
            raise ValueError("degenerate")
        svals = np.linalg.svd(arr / scales[:, None], compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise ValueError("degenerate")
        return _as_matrix(np.linalg.inv(arr))
    return _invert_antisymmetric(mat)


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
            if coeff != 0:
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

    def _merged(self, other, combine) -> "PolynomialObservable":
        """combine(self, other) termwise; only the exponents `other` touches are
        canonicalized again, the others are copied as the canonical values they are."""
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            c = _normalize_scalar(combine(out.get(expo, 0), coeff))
            if c != 0:
                out[expo] = c
            else:
                out.pop(expo, None)
        merged = object.__new__(PolynomialObservable)
        object.__setattr__(merged, "terms", out)
        return merged

    def __add__(self, other):
        return self._merged(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        # a negated sympy value is not always canonical, so every term is
        return PolynomialObservable({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._merged(other, operator.sub)

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
        return PolynomialObservable(_raw_partial(self.terms, index))

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
            if ("+" in cs[1:]) or ("-" in cs[1:]) or ("/" in cs and _sympy_of(coeff) is not None):
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
    if isinstance(value, (int, float, Fraction, np.generic)) or _sympy_of(value) is not None:
        return PolynomialObservable.constant(value)
    return NotImplemented


def coordinates() -> tuple[PolynomialObservable, ...]:
    """The four coordinate observables (x, y, p_x, p_y)."""
    return tuple(PolynomialObservable.coordinate(i) for i in range(NVARS))


def _check_shape_and_antisymmetry(mat) -> None:
    if len(mat) != NVARS:
        raise ValueError("form must be 4x4")
    if not _all_zero((mat[i][j] + mat[j][i] for i in range(NVARS) for j in range(i, NVARS)), mat):
        raise ValueError("not antisymmetric")


class SymplecticForm:
    """Constant antisymmetric invertible bracket matrix and its cached inverse.

    ``upper`` holds the bracket values {x^mu, x^nu}; ``lower`` is the matrix
    inverse, the coefficient table of the corresponding 2-form.
    """

    __slots__ = ("upper", "lower")

    def __init__(self, upper):
        mat = _as_matrix(upper)
        _check_shape_and_antisymmetry(mat)
        self._store(mat, _invert_matrix(mat))

    @classmethod
    def _from_inverse_pair(cls, upper, lower) -> "SymplecticForm":
        """The form of `upper`, a canonical matrix whose inverse `lower` the
        caller has already computed; `upper` is checked as in __init__."""
        _check_shape_and_antisymmetry(upper)
        form = object.__new__(cls)
        form._store(upper, lower)
        return form

    def _store(self, upper, lower) -> None:
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)

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
        return tuple(PolynomialObservable({tuple(int(i == nu) for i in range(NVARS)): a
                                           for nu, a in enumerate(row)})
                     for row in self.matrix)

    def as_float_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.matrix], dtype=float)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

_ONE = {(0,) * NVARS: 1}
# the gradient of (1/2) x.x: component nu is the coordinate x^nu
_COORDINATE_GRADIENT = tuple({tuple(int(i == nu) for i in range(NVARS)): 1}
                             for nu in range(NVARS))


def _times(c, d):
    """c * d; a factor that is the int 1 or -1 costs no multiplication, which
    on sympy values is a full Mul where a negation is not."""
    if type(d) is int and (d == 1 or d == -1):
        return c if d == 1 else -c
    if type(c) is int and (c == 1 or c == -1):
        return d if c == 1 else -d
    return c * d


def _raw_partial(terms: Mapping[Exponents, object], mu: int) -> dict:
    """d/dx^mu of a term dict, uncanonicalized; lowered exponents stay distinct."""
    return {expo[:mu] + (expo[mu] - 1,) + expo[mu + 1:]: _times(expo[mu], coeff)
            for expo, coeff in terms.items() if expo[mu]}


def _raw_gradient(f: PolynomialObservable) -> tuple[dict, ...]:
    return tuple(_raw_partial(f.terms, mu) for mu in range(NVARS))


def _contract(left: Sequence[dict], matrix, right: Sequence[dict],
              out: dict | None = None) -> dict:
    """Raw sum_mu,nu left[mu] * matrix[mu][nu] * right[nu], accumulated into
    `out`; the first product at an exponent is stored, not added to 0."""
    out = {} if out is None else out
    for lterms, row in zip(left, matrix):
        for w, rterms in zip(row, right):
            if w == 0:
                continue
            for e1, c1 in lterms.items():
                c1w = _times(c1, w)
                for e2, c2 in rterms.items():
                    expo = tuple(a + b for a, b in zip(e1, e2))
                    term, prev = _times(c1w, c2), out.get(expo)
                    out[expo] = term if prev is None else prev + term
    return out


def poisson_bracket(f: PolynomialObservable, g: PolynomialObservable,
                    form: SymplecticForm) -> PolynomialObservable:
    """{f, g} = sum_mu,nu  df/dx^mu * upper[mu][nu] * dg/dx^nu, exactly."""
    return PolynomialObservable(_contract(_raw_gradient(f), form.upper, _raw_gradient(g)))


@dataclass(frozen=True)
class FormValidation:
    """Outcome of validating a candidate bracket matrix."""

    ok: bool
    reason: str | None
    form: SymplecticForm | None
    jacobi_residual: float


def validate_form(candidate) -> FormValidation:
    """Accept a candidate bracket matrix exactly when `SymplecticForm` does.

    A rejected candidate reports "degenerate" when it has no inverse and "not
    antisymmetric" for any other defect (not 4x4, a complex entry, or not
    antisymmetric).
    Exact entries are compared in their canonical form, so antisymmetry is a
    literal-zero test of each sum upper[i][j] + upper[j][i].

    The Jacobi identity is not evaluated: under a constant matrix the bracket
    of two coordinates is a constant, whose brackets all vanish, so every
    cyclic sum over coordinate triples is identically zero.  An accepted form
    therefore reports jacobi_residual 0.0; a rejected one reports nan.
    """
    try:
        form = SymplecticForm(candidate)
    except ValueError as exc:
        reason = "degenerate" if str(exc) == "degenerate" else "not antisymmetric"
        return FormValidation(False, reason, None, float("nan"))
    return FormValidation(True, None, form, 0.0)


def hamiltonian_vector_field(form: SymplecticForm,
                             hamiltonian: PolynomialObservable) -> tuple[PolynomialObservable, ...]:
    """Component mu of the induced dynamics: sum_nu upper[mu][nu] * dH/dx^nu."""
    grad = _raw_gradient(hamiltonian)
    return tuple(PolynomialObservable(_contract((_ONE,), (row,), grad)) for row in form.upper)


def is_constant_of_motion(f: PolynomialObservable, field: LinearVectorField) -> bool:
    """True iff df/dt = sum_mu df/dx^mu * (A x)^mu vanishes identically.

    Needs only the equations of motion; no bracket or Hamiltonian choice enters.
    """
    grad = _raw_gradient(f)
    return PolynomialObservable(_contract(grad, field.matrix, _COORDINATE_GRADIENT)).is_zero
