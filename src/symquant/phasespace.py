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
Each symbolic product and sum in it is formed once: a polynomial keeps its
raw gradient in a second slot, `_times` factors the sign out of exact
operands so c d and -c d are one product in sympy's cache, and `_plus` adds
two terms with the same monomial part on their Rational coefficients, with
no Add.  On fresh symbols the residuals and bracket table of one `exact`
benchmark op build 23 sympy Mul and Add objects, where they built 60.
Floats are never sign-factored and keep their order of operations.  The
output is built by `PolynomialObservable._of`, which trusts the exponent
tuples this module made.  `_is_float_matrix` reads entry types before it
walks any sympy value.

sympy is never imported here: no sympy value can exist before its caller has
imported sympy, so `_sympy_of` reads the module from ``sys.modules`` and float
work never loads it.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import frexp, inf, ldexp, sqrt
from typing import Mapping, Sequence

import numpy as np

NVARS = 4
COORD_NAMES = ("x", "y", "p_x", "p_y")

Exponents = tuple[int, int, int, int]
# the index pairs (i, j) with i <= j: the entries that fix a symmetric or antisymmetric matrix
_UPPER_WITH_DIAG = tuple((i, j) for i in range(NVARS) for j in range(i, NVARS))


# ---------------------------------------------------------------------------
# scalar helpers (shared by the polynomial and matrix code)
# ---------------------------------------------------------------------------

_PLAIN_SCALARS = (int, float, Fraction, complex)
_ZERO_TOL = 1e-12  # of an entry's size, for a float zero in _is_antisymmetric and pairs
_PF_TOL = 1e-12  # of ||D W D||_F^2 / 2, at or below which |Pf| is singular in _invert_matrix


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
    no float value, so its matrix stays on the exact path.  The entry types
    are read first: a matrix of ints and Fractions is exact and one of plain
    numbers with any other is float, so only a matrix with a sympy entry is
    walked for symbols and Floats."""
    entries = [v for row in mat for v in row]
    if all(type(v) is int or type(v) is Fraction for v in entries):
        return False
    symbolic = [v for v in entries if _sympy_of(v) is not None]
    if not symbolic:
        return True
    return (not any(v.free_symbols for v in symbolic)
            and not all(map(_is_exact, entries)))


def _is_antisymmetric(mat) -> bool:
    """Each sum mat[i][j] + mat[j][i] with i <= j is zero.  An exact sum is
    zero when it is literally 0 once canonical.  In a float matrix each sum is
    read at its own size: it is zero within _ZERO_TOL of the smaller of the
    largest |entry| of row i and of row j, the rows the two mirrored entries
    share.  So the verdict is the same at every overall scale of `mat`, and an
    asymmetry in a block of small entries is seen beside a block of large ones."""
    sums = ((i, j, mat[i][j] + mat[j][i]) for i, j in _UPPER_WITH_DIAG)
    if not _is_float_matrix(mat):
        return all(_normalize_scalar(v) == 0 for _, _, v in sums)
    size = [max(abs(float(v)) for v in row) for row in mat]
    return all(abs(float(v)) <= _ZERO_TOL * min(size[i], size[j]) for i, j, v in sums)


def _pfaffian(mat):
    """Pf = af - be + cd of an antisymmetric 4x4 matrix W, with a, b, c, d, e, f
    its upper entries W01, W02, W03, W12, W13, W23; canonical when W is."""
    (_, a, b, c), (_, _, d, e), (_, _, _, f) = mat[:3]
    return _normalize_scalar(sum(u * v for u, v in ((a, f), (-b, e), (c, d)) if u != 0 and v != 0))


def _adjugate_over(mat, pf) -> tuple[tuple, ...]:
    """W^-1 of an antisymmetric 4x4 matrix W with Pfaffian pf != 0, in closed form:
    det W = Pf^2 (Cayley), and W^-1 is [[0, -f, e, -d], [f, 0, -c, b],
    [-e, c, 0, -a], [d, -b, a, 0]] / Pf for the entries a..f of `_pfaffian`.
    A zero comes out as Fraction(0)."""
    (_, a, b, c), (_, _, d, e), (_, _, _, f) = mat[:3]
    r, zero = _reciprocal(pf), Fraction(0)

    def scaled(v):  # v / Pf and -v / Pf; a sympy v is not multiplied by a unit Pf
        if v == 0:
            return zero, zero
        if _sympy_of(v) is None or r != 1:
            v = _normalize_scalar(v * r)
        return v, _normalize_scalar(-v)

    (a, na), (b, nb), (c, nc), (d, nd), (e, ne), (f, nf) = map(scaled, (a, b, c, d, e, f))
    return ((zero, nf, e, nd), (f, zero, nc, b), (ne, c, zero, na), (d, nb, a, zero))


def _invert_antisymmetric(mat) -> tuple[tuple, ...]:
    """Inverse of a canonical exact antisymmetric 4x4 matrix, the Pfaffian
    adjugate of `_adjugate_over`; a canonical Pf of 0 raises
    ValueError("degenerate").  Every entry of an int or Fraction matrix's
    inverse is a Fraction."""
    pf = _pfaffian(mat)
    if pf == 0:
        raise ValueError("degenerate")
    return _adjugate_over(mat, pf)


def _invert_matrix(mat) -> tuple[tuple, ...]:
    """Inverse of an antisymmetric 4x4 matrix W in closed form; raises
    ValueError("degenerate") when W is (numerically) singular.

    An exact W goes to `_invert_antisymmetric`.  A float W is inverted as
    D (D W D)^-1 D, by the Pfaffian adjugate of its balance D W D: D =
    diag(2^-k_i), with k_i = floor(e_i / 2) for the `frexp` exponent e_i of
    row i's largest |entry|, so every scaling is an exact `ldexp` and rows of
    very different size, such as 1/(m omega) against m omega at m omega =
    1e+/-200, meet at about 1.  A real antisymmetric 4x4 matrix has singular
    values (l1, l1, l2, l2), |Pf| = l1 l2 and ||W||_F^2 = 2 (l1^2 + l2^2), so
    the gate |Pf| <= _PF_TOL ||D W D||_F^2 / 2 is the test l2 <= _PF_TOL l1
    on the balance, taken without LAPACK.  An inverse past the float range is
    degenerate too.
    """
    if not _is_float_matrix(mat):
        return _invert_antisymmetric(mat)
    rows = [[float(v) for v in row] for row in mat]
    k = [frexp(max(map(abs, row)))[1] // 2 for row in rows]
    balanced = [[ldexp(v, -k[i] - k[j]) for j, v in enumerate(row)]
                for i, row in enumerate(rows)]
    pf = _pfaffian(balanced)
    if not abs(pf) > _PF_TOL * sum(v * v for row in balanced for v in row) / 2:
        raise ValueError("degenerate")
    try:
        return tuple(tuple(ldexp(v, -k[i] - k[j]) for j, v in enumerate(row))
                     for i, row in enumerate(_adjugate_over(balanced, pf)))
    except OverflowError:
        raise ValueError("degenerate") from None


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

    __slots__ = ("terms", "_gradient")

    def __init__(self, terms: Mapping[Sequence[int], object] | None = None):
        clean: dict[Exponents, object] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != NVARS or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo!r}")
            coeff = _normalize_scalar(coeff)
            if coeff != 0:
                clean[expo] = coeff
        self._store(clean)

    @classmethod
    def _of(cls, terms: dict) -> "PolynomialObservable":
        """The polynomial holding `terms` as it is: exponent tuples this module
        built and canonical nonzero coefficients, so neither is checked again."""
        poly = object.__new__(cls)
        poly._store(terms)
        return poly

    def _store(self, terms: dict) -> None:
        object.__setattr__(self, "terms", terms)
        # the raw gradient, formed on first use by `_raw_gradient`
        object.__setattr__(self, "_gradient", None)

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
        return PolynomialObservable._of(out)

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
            return _polynomial(_contract((self.terms,), ((1,),), (other.terms,)))
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

    # -- evaluation ---------------------------------------------------------

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
    if not _is_antisymmetric(mat):
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


def _is_negative(c) -> bool:
    """c is a negative int, Fraction or sympy Rational, or a sympy Mul whose
    leading factor is a negative Rational; never true of a float."""
    if type(c) is int or type(c) is Fraction:
        return c < 0
    if _sympy_of(c) is None:
        return False
    if c.is_Mul:
        c = c.args[0]
    return c.is_Rational and c.p < 0


def _times(c, d):
    """c * d; a factor that is the int 1 or -1 costs no multiplication, which
    on sympy values is a full Mul where a negation is not.  When a factor is
    a sympy value, the sign of each exact operand is factored out (see
    `_is_negative`) and the product of the two magnitudes negated, so c d and
    -c d are one product, which sympy's cache builds once."""
    if type(d) is int and (d == 1 or d == -1):
        return c if d == 1 else -c
    if type(c) is int and (c == 1 or c == -1):
        return d if c == 1 else -d
    if _sympy_of(c) is None and _sympy_of(d) is None:
        return c * d
    negative = False
    if _is_negative(c):
        c, negative = -c, True
    if _is_negative(d):
        d, negative = -d, not negative
    return -(c * d) if negative else c * d


def _plus(a, b):
    """a + b; two sympy terms r a' and s a' with Rationals r, s and the same
    monomial part a' (a symbol, a power of one, or a product) sum to
    (r + s) a', built as sympy's Add would build it but without the Add, and
    to the int 0 when they cancel."""
    sp = _sympy_of(a)
    if sp is None or _sympy_of(b) is None:
        return a + b
    r, part = a.as_coeff_Mul()
    s, other = b.as_coeff_Mul()
    if not (r.is_Rational and s.is_Rational and part == other
            and (part.is_Mul or part.is_Symbol or (part.is_Pow and part.base.is_Symbol))):
        return a + b
    coeff = r + s
    if coeff == 0:
        return 0
    if coeff == 1:
        return part
    return sp.Mul._from_args((coeff, *part.args) if part.is_Mul else (coeff, part))


def _raw_partial(terms: Mapping[Exponents, object], mu: int) -> dict:
    """d/dx^mu of a term dict, uncanonicalized; lowered exponents stay distinct."""
    return {expo[:mu] + (expo[mu] - 1,) + expo[mu + 1:]: _times(expo[mu], coeff)
            for expo, coeff in terms.items() if expo[mu]}


def _raw_gradient(f: PolynomialObservable) -> tuple[dict, ...]:
    """The four raw partials of f, formed once and kept on f; read, never mutated."""
    grad = f._gradient
    if grad is None:
        grad = tuple(_raw_partial(f.terms, mu) for mu in range(NVARS))
        object.__setattr__(f, "_gradient", grad)
    return grad


def _contract(left: Sequence[dict], matrix, right: Sequence[dict],
              out: dict | None = None) -> dict:
    """Raw sum_mu,nu left[mu] * matrix[mu][nu] * right[nu], accumulated into
    `out`; the first product at an exponent is stored, not added to 0, and
    later ones are added by `_plus`."""
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
                    out[expo] = term if prev is None else _plus(prev, term)
    return out


def _polynomial(raw: dict) -> PolynomialObservable:
    """The polynomial of a raw sum from `_contract`: each coefficient is
    canonicalized once and zeros dropped; the exponent tuples are taken as built."""
    canonical = zip(raw, map(_normalize_scalar, raw.values()))
    return PolynomialObservable._of({expo: c for expo, c in canonical if c != 0})


def poisson_bracket(f: PolynomialObservable, g: PolynomialObservable,
                    form: SymplecticForm) -> PolynomialObservable:
    """{f, g} = sum_mu,nu  df/dx^mu * upper[mu][nu] * dg/dx^nu, exactly."""
    return _polynomial(_contract(_raw_gradient(f), form.upper, _raw_gradient(g)))


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
    return tuple(_polynomial(_contract((_ONE,), (row,), grad)) for row in form.upper)


def is_constant_of_motion(f: PolynomialObservable, field: LinearVectorField) -> bool:
    """True iff df/dt = sum_mu df/dx^mu * (A x)^mu vanishes identically.

    Needs only the equations of motion; no bracket or Hamiltonian choice enters.
    """
    grad = _raw_gradient(f)
    return _polynomial(_contract(grad, field.matrix, _COORDINATE_GRADIENT)).is_zero
