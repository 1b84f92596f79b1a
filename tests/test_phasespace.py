"""Polynomial algebra, bracket identities, form validation, constants of motion."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from symquant import (
    LinearVectorField,
    PolynomialObservable,
    SymplecticForm,
    bracket_matrices,
    coordinates,
    hamiltonian_vector_field,
    is_constant_of_motion,
    oscillator_field,
    poisson_bracket,
    standard_forms,
    standard_hamiltonians,
    standard_pairs,
    validate_form,
    verify_pair,
)
from symquant import phasespace
from symquant.phasespace import _normalize_scalar
from oracles import (PHASE_SYMBOLS, canonical_scalar, lapack_form_inverse, poly_to_sympy,
                     polynomial_product, sympy_bracket, sympy_lie_derivative)

X, Y, PX, PY = coordinates()
FORMS = standard_forms(1, 1)
S0, S1, S2, S3 = standard_hamiltonians(1, 1)
THO = oscillator_field(1, 1)


# ---------------------------------------------------------------------------
# polynomial arithmetic basics
# ---------------------------------------------------------------------------

def test_zero_coefficients_are_dropped():
    p = PolynomialObservable({(1, 0, 0, 0): 1}) - X
    assert p.is_zero
    assert p.terms == {}


def test_exact_fraction_arithmetic():
    p = Fraction(1, 3) * X + Fraction(1, 6) * X
    assert p == Fraction(1, 2) * X
    assert p.coefficient((1, 0, 0, 0)) == Fraction(1, 2)


def test_multiplication_and_power():
    assert (X + Y) ** 2 == X * X + 2 * (X * Y) + Y * Y
    assert (X * PX).degree == 2


def test_evaluate():
    s = S0.evaluate((1.0, 0.0, 0.0, 0.0))
    assert s == pytest.approx(0.5)
    assert S3.evaluate((1, 2, 3, 4)) == 1 * 4 - 2 * 3


_M, _W = sp.symbols("m omega", positive=True)


@pytest.mark.parametrize("coeff", [
    (_M + 1) ** 2 - _M ** 2 - 2 * _M - 1,          # zero after expansion
    _M / (_M * _W) - 1 / _W,                      # zero after cancellation
    (_M ** 2 - 1) / (_M - 1) - _M - 1,            # zero only after cancellation
    (1 + sp.sqrt(2)) ** 2 - 3 - 2 * sp.sqrt(2),   # a number, zero after expansion
    sp.Float(0.0),                                # sympy's Float(0) != 0
])
def test_coefficients_that_vanish_after_canonicalization_are_dropped(coeff):
    p = PolynomialObservable({(1, 0, 0, 0): coeff, (0, 1, 0, 0): 1})
    assert p.terms == {(0, 1, 0, 0): 1}
    assert (X * coeff).is_zero


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        PolynomialObservable({(-1, 0, 0, 0): 1.0})


# ---------------------------------------------------------------------------
# poisson_bracket examples
# ---------------------------------------------------------------------------

def test_bracket_x_px_canonical():
    assert poisson_bracket(X, PX, FORMS[0]) == 1


def test_bracket_antisymmetry_on_equal_arguments():
    for form in FORMS:
        assert poisson_bracket(X, X, form).is_zero


def test_bracket_x_y_rotational_form():
    assert poisson_bracket(X, Y, FORMS[3]) == -1


def test_bracket_s0_s3_vanishes():
    # oracle: full symbolic expansion, independently of the polynomial class
    expanded = sympy_bracket(poly_to_sympy(S0), poly_to_sympy(S3),
                             [[int(v) for v in row] for row in FORMS[0].upper])
    assert expanded == 0
    assert poisson_bracket(S0, S3, FORMS[0]).is_zero


def test_bracket_reproduces_form_entries():
    coords = coordinates()
    for form in FORMS:
        for mu in range(4):
            for nu in range(4):
                assert poisson_bracket(coords[mu], coords[nu], form) == form.upper[mu][nu]


def test_bracket_symbolic_m_omega_tables():
    m, w = sp.symbols("m omega", positive=True)
    coords = coordinates()
    f0, f1, f2, f3 = standard_forms(m, w)
    assert poisson_bracket(coords[0], coords[2], f0) == 1
    assert poisson_bracket(coords[1], coords[3], f0) == 1
    assert poisson_bracket(coords[0], coords[3], f1) == 1
    assert poisson_bracket(coords[1], coords[2], f1) == 1
    assert poisson_bracket(coords[0], coords[2], f2) == -1
    assert poisson_bracket(coords[1], coords[3], f2) == 1
    assert poisson_bracket(coords[0], coords[1], f3) == -1 / (m * w)
    assert poisson_bracket(coords[2], coords[3], f3) == -m * w


# ---------------------------------------------------------------------------
# validate_form
# ---------------------------------------------------------------------------

def test_validate_accepts_all_standard_forms():
    for forms in (FORMS, standard_forms(Fraction(2, 3), Fraction(5, 7)),
                  standard_forms(0.3, 1.7), standard_forms(_M, _W)):
        for form in forms:
            report = validate_form(form.upper)
            assert report.ok and report.reason is None
            assert report.jacobi_residual == 0


def test_validate_accepts_symbolic_form_antisymmetric_after_cancellation():
    candidate = [[0, _M / (_M * _W), 0, 0],
                 [-1 / _W, 0, 0, 0],
                 [0, 0, 0, (_M ** 2 - 1) / (_M - 1)],
                 [0, 0, -_M - 1, 0]]
    report = validate_form(candidate)
    assert report.ok and report.reason is None and report.jacobi_residual == 0
    assert poisson_bracket(X, Y, report.form) == 1 / _W
    assert poisson_bracket(PX, PY, report.form) == _M + 1


@pytest.mark.parametrize("m_omega", [1e-200, 1e-155, 1e155, 1e200])
def test_rotational_form_accepted_where_a_squared_row_overflows(m_omega):
    # scaling W3's rows to unit Euclidean norm squares 1/(m omega) or m omega,
    # which overflows past 1e154 and rejected the form as "degenerate"
    w3 = bracket_matrices(m_omega, 1.0)[3]
    form = SymplecticForm(w3)  # a RuntimeWarning is an error in this suite
    report = validate_form(w3)
    assert report.ok and report.reason is None
    assert form.lower[0][1] == pytest.approx(m_omega, rel=1e-15)
    assert form.lower[2][3] == pytest.approx(1.0 / m_omega, rel=1e-15)


@pytest.mark.parametrize("m_omega", [1e-7, 1e7])
def test_rotational_form_accepted_at_extreme_m_omega(m_omega):
    # W3 mixes entries 1/(m omega) and m omega; its rows differ in scale by
    # (m omega)^2, which must not read as degenerate
    form = standard_forms(m_omega, 1.0)[3]
    assert np.allclose(form.upper_array() @ form.lower_array(), np.eye(4), atol=1e-12)
    assert validate_form(form.upper).ok


def test_validate_zero_matrix_degenerate():
    assert validate_form([[0.0] * 4] * 4).reason == "degenerate"


def test_validate_float_form_with_an_inverse_past_the_float_range_degenerate():
    # 1/1e-310 is past the float range; LAPACK's inverse held nan and inf and
    # the form was accepted
    tiny = [[0, 1e-310, 0, 0], [-1e-310, 0, 0, 0], [0, 0, 0, 1.0], [0, 0, -1.0, 0]]
    assert validate_form(tiny).reason == "degenerate"


def test_validate_rank_two_antisymmetric_degenerate():
    candidate = [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]]
    # determinant oracle: expand symbolically
    assert sp.Matrix(candidate).det() == 0
    assert validate_form(candidate).reason == "degenerate"


def test_validate_symmetric_matrix_rejected():
    candidate = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert validate_form(candidate).reason == "not antisymmetric"


def test_validate_rejects_a_tiny_form_that_is_not_antisymmetric():
    # W[1][0] = -W[0][1] / 2; a zero test floored at 1e-12 saw no asymmetry
    # in entries of 1e-20 and accepted the form
    candidate = [[0, 1e-20, 0, 0], [-0.5e-20, 0, 0, 0], [0, 0, 0, 1e-20], [0, 0, -1e-20, 0]]
    assert validate_form(candidate).reason == "not antisymmetric"


def test_validate_rejects_a_small_block_that_is_not_antisymmetric_beside_a_large_one():
    # W3 at m omega = 1e10 with W[1][0] = -W[0][1] / 2: the asymmetry, 5e-11,
    # is half of its entries, but under 1e-12 of the 1e10 block beside them
    candidate = [list(row) for row in bracket_matrices(1e10, 1.0)[3]]
    candidate[1][0] = -0.5 * candidate[0][1]
    assert validate_form(candidate).reason == "not antisymmetric"


def test_validate_rejects_a_complex_form():
    # 1j and Float(0.5) I used to raise TypeError from float(), and the exact I
    # was accepted as a form
    for unit in (1j, np.complex128(1j), sp.Float(0.5) * sp.I, sp.I):
        report = validate_form([[0, unit, 0, 0], [-unit, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        assert not report.ok and report.reason == "not antisymmetric"
        assert report.form is None and math.isnan(report.jacobi_residual)


def test_validate_rejects_a_symbolic_imaginary_form():
    # I*m with m positive has no float value to test; it used to be accepted,
    # with lower[0][1] == I/m, and so was a monomial in a symbol declared
    # imaginary, which skipped the reality test as every monomial did
    z = sp.Symbol("z", imaginary=True)
    for unit in (sp.I * _M, _M * _W * sp.I / 2, sp.I * (_M + _W), z, 2 * z * _M / _W):
        report = validate_form([[0, unit, 0, 0], [-unit, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        assert not report.ok and report.reason == "not antisymmetric"
        assert report.form is None and math.isnan(report.jacobi_residual)
    # sympy cannot tell that a symbol without assumptions, or a product of
    # two imaginary ones, is not real
    for unit in (sp.Symbol("q"), z * sp.Symbol("z2", imaginary=True)):
        assert validate_form([[0, unit, 0, 0], [-unit, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]).ok


def test_validate_decides_a_float_multiple_of_a_symbol_exactly():
    # a Float coefficient of m has no float value; it used to raise TypeError
    # from float(), where the literal-zero test and the exact inverse decide it
    half_m = sp.Float(0.5) * _M
    candidate = [[0, half_m, 0, 0], [-half_m, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    report = validate_form(candidate)
    assert report.ok and report.reason is None and report.jacobi_residual == 0
    assert report.form.lower[0][1] == -2.0 / _M and report.form.lower[1][0] == 2.0 / _M
    assert poisson_bracket(X, Y, report.form) == half_m


def test_validate_rejects_random_singular_antisymmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=4)
        w = rng.normal(size=4)
        mat = np.outer(v, w) - np.outer(w, v)  # rank <= 2, antisymmetric
        assert validate_form(mat).reason == "degenerate"
        for m_omega in (1e-7, 1e7):
            # rescaled like W3 at extreme m omega: still rank <= 2
            d = np.array([1 / m_omega, 1 / m_omega, m_omega, m_omega])
            assert validate_form(np.outer(d, d) * mat).reason == "degenerate"


# ---------------------------------------------------------------------------
# the closed-form inverse of an exact form against sympy's Matrix.inv()
# ---------------------------------------------------------------------------

def _antisymmetric(upper) -> list:
    mat = [[0] * 4 for _ in range(4)]
    for v, (i, j) in zip(upper, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))):
        mat[i][j], mat[j][i] = v, -v
    return mat


def _rank_two(u, v) -> list:
    """u v^T - v u^T: antisymmetric, of rank at most 2."""
    return [[u[i] * v[j] - v[i] * u[j] for j in range(4)] for i in range(4)]


_exact_entries = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
_symbolic_entries = st.sampled_from([0, 0, 1, -2, Fraction(1, 3), _M, -_W, _M * _W, 1 / _M,
                                     _M + _W, sp.Rational(3, 2) * _W ** 2])
_exact_forms = st.one_of(
    *(st.lists(entries, min_size=6, max_size=6).map(_antisymmetric)
      for entries in (_exact_entries, _symbolic_entries)),
    *(st.builds(_rank_two, *[st.lists(entries, min_size=4, max_size=4)] * 2)
      for entries in (_exact_entries, _symbolic_entries)))


@given(candidate=_exact_forms)
@settings(max_examples=60, deadline=None)
def test_exact_inverse_matches_sympy(candidate):
    oracle = sp.Matrix(candidate)
    report = validate_form(candidate)
    if sp.cancel(oracle.det()) == 0:
        assert report.reason == "degenerate"
        return
    assert report.ok
    inverse = oracle.inv()
    symbolic = any(isinstance(v, sp.Basic) for row in candidate for v in row)
    for i, row in enumerate(report.form.lower):
        for j, v in enumerate(row):
            assert sp.cancel(sp.sympify(v) - inverse[i, j]) == 0
            if v == 0 or not symbolic:
                assert type(v) is Fraction
            elif isinstance(v, sp.Basic):
                canonical = canonical_scalar(v)
                assert v == canonical and type(v) is type(canonical)


# ---------------------------------------------------------------------------
# the balanced Pfaffian inverse of a float form against LAPACK
# ---------------------------------------------------------------------------

# entries of size 1/4 to 4, or 0, and row scales 10^t: entries meet products
# of scales from 1e-200 to 1e200, rows differing by 1e7 among them
_float_entries = st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))
_row_scales = st.lists(st.sampled_from([1.0, 10 ** 3.5, 10 ** -3.5, 1e100, 1e-100]),
                       min_size=4, max_size=4)


def _float_form(upper, scales) -> list:
    """The antisymmetric matrix of six upper entries, entry (i, j) times d_i d_j."""
    return _antisymmetric([v * scales[i] * scales[j] for v, (i, j) in
                           zip(upper, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))])


@given(upper=st.one_of(st.lists(_float_entries, min_size=6, max_size=6),
                       st.builds(lambda u, v: [r[j] for i, r in enumerate(_rank_two(u, v))
                                               for j in range(i + 1, 4)],
                                 *[st.lists(_float_entries, min_size=4, max_size=4)] * 2)),
       scales=_row_scales)
@settings(max_examples=200, deadline=None)
def test_float_inverse_matches_lapack(upper, scales):
    # the Pfaffian gate |Pf| <= 1e-12 ||D W D||_F^2 / 2 is the singular-value
    # test s_min <= 1e-12 s_max on the balance, so it decides as LAPACK does
    # away from the threshold, and its adjugate is LAPACK's inverse within the
    # roundoff of a matrix of condition 1/r
    candidate = _float_form(upper, scales)
    inverse, d, r = lapack_form_inverse(candidate)
    assume(not 1e-13 <= r <= 1e-11)
    report = validate_form(candidate)
    if inverse is None:
        assert report.reason == "degenerate"
        return
    assert report.ok
    balanced = report.form.lower_array() / np.outer(d, d)
    expected = inverse / np.outer(d, d)
    assert np.max(np.abs(balanced - expected)) <= 1e-13 / r * np.max(np.abs(expected))


def test_symplectic_form_constructor_enforces_invariants():
    with pytest.raises(ValueError, match="not antisymmetric"):
        SymplecticForm([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        SymplecticForm([[0] * 4] * 4)
    form = FORMS[3]
    upper = np.array([[float(v) for v in row] for row in form.upper])
    lower = np.array([[float(v) for v in row] for row in form.lower])
    assert np.allclose(upper @ lower, np.eye(4), atol=1e-14)


# ---------------------------------------------------------------------------
# hamiltonian_vector_field
# ---------------------------------------------------------------------------

def test_vector_field_standard_energy():
    comps = hamiltonian_vector_field(FORMS[0], S0)
    assert comps == (PX, PY, -X, -Y)


def test_vector_field_constant_hamiltonian():
    comps = hamiltonian_vector_field(FORMS[2], PolynomialObservable.constant(3))
    assert all(c.is_zero for c in comps)


def test_vector_field_rotational_pair():
    comps = hamiltonian_vector_field(FORMS[3], S3)
    assert comps == (PX, PY, -X, -Y)


def test_vector_field_all_pairs_reproduce_oscillator():
    target = THO.components()
    for form, ham in zip(FORMS, standard_hamiltonians(1, 1)):
        comps = hamiltonian_vector_field(form, ham)
        assert all((c - t).is_zero for c, t in zip(comps, target))


# ---------------------------------------------------------------------------
# is_constant_of_motion
# ---------------------------------------------------------------------------

def test_alternative_hamiltonians_are_constants_of_motion():
    for ham in standard_hamiltonians(1, 1):
        assert is_constant_of_motion(ham, THO)


def test_coordinate_is_not_conserved():
    assert not is_constant_of_motion(X, THO)


def test_constants_are_conserved():
    assert is_constant_of_motion(PolynomialObservable.constant(math.pi), THO)


def test_conservation_needs_no_bracket_choice():
    field = LinearVectorField([[0, 1, 0, 0], [-1, 0, 0, 0],
                               [0, 0, 0, 2], [0, 0, -2, 0]])
    assert is_constant_of_motion(X * X + Y * Y, field)


# ---------------------------------------------------------------------------
# bracket properties (exact arithmetic over random polynomials)
# ---------------------------------------------------------------------------

_EXPONENTS = [e for e in
              [(a, b, c, d) for a in range(4) for b in range(4)
               for c in range(4) for d in range(4)]
              if sum(e) <= 3]

_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
_polys = st.dictionaries(st.sampled_from(_EXPONENTS), _coeffs, max_size=4).map(
    PolynomialObservable)
_forms = st.sampled_from(FORMS)


@given(f=_polys, g=_polys, form=_forms)
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetric(f, g, form):
    assert (poisson_bracket(f, g, form) + poisson_bracket(g, f, form)).is_zero


@given(f=_polys, g=_polys, h=_polys, a=_coeffs, form=_forms)
@settings(max_examples=40, deadline=None)
def test_bracket_bilinear(f, g, h, a, form):
    lhs = poisson_bracket(f, a * g + h, form)
    rhs = a * poisson_bracket(f, g, form) + poisson_bracket(f, h, form)
    assert (lhs - rhs).is_zero


@given(f=_polys, g=_polys, h=_polys, form=_forms)
@settings(max_examples=30, deadline=None)
def test_bracket_leibniz(f, g, h, form):
    lhs = poisson_bracket(f, g * h, form)
    rhs = poisson_bracket(f, g, form) * h + g * poisson_bracket(f, h, form)
    assert (lhs - rhs).is_zero


@given(f=_polys, g=_polys, h=_polys, form=_forms)
@settings(max_examples=25, deadline=None)
def test_bracket_jacobi(f, g, h, form):
    total = (poisson_bracket(poisson_bracket(f, g, form), h, form)
             + poisson_bracket(poisson_bracket(g, h, form), f, form)
             + poisson_bracket(poisson_bracket(h, f, form), g, form))
    assert total.is_zero


@given(f=_polys, g=_polys, form=_forms)
@settings(max_examples=25, deadline=None)
def test_bracket_matches_sympy_expansion(f, g, form):
    ours = poly_to_sympy(poisson_bracket(f, g, form))
    upper = [[sp.Rational(v) for v in row] for row in form.upper]
    assert sp.expand(ours - sympy_bracket(poly_to_sympy(f), poly_to_sympy(g), upper)) == 0


# ---------------------------------------------------------------------------
# symbolic m and omega: brackets, vector fields and conservation against sympy
# ---------------------------------------------------------------------------

_SYM_FORMS = standard_forms(_M, _W)  # W3 carries 1/(m omega) and m omega
_SYM_FIELD = oscillator_field(_M, _W)

# polynomials in m and omega with small rational coefficients
_sym_coeffs = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=3,
).map(lambda terms: sum(sp.Rational(n, d) * _M ** i * _W ** j for n, d, i, j in terms))
_sym_polys = st.dictionaries(st.sampled_from(_EXPONENTS), _sym_coeffs, max_size=3).map(
    PolynomialObservable)
_SYM_HAMS = standard_hamiltonians(_M, _W)


def _with_constants_of_motion(coeffs, extra):
    """extra + sum_i coeffs[i] S_i, summed raw and built once."""
    raw = dict(extra.terms)
    for c, ham in zip(coeffs, _SYM_HAMS):
        for expo, v in ham.terms.items():
            raw[expo] = raw.get(expo, 0) + c * v
    return PolynomialObservable(raw)


# a combination of S0..S3 is conserved; adding a random polynomial usually breaks that
_sym_candidates = st.builds(
    _with_constants_of_motion,
    st.lists(_sym_coeffs, min_size=4, max_size=4),
    st.one_of(st.just(PolynomialObservable.zero()), _sym_polys))


def _assert_canonical(poly):
    for c in poly.terms.values():
        assert c != 0
        canonical = canonical_scalar(c)
        assert c == canonical and type(c) is type(canonical)


# ---------------------------------------------------------------------------
# the canonical form of a scalar against cancel(expand(c)) computed by sympy
# ---------------------------------------------------------------------------

_ASSUMPTIONS = ({}, {"positive": True}, {"real": True}, {"integer": True}, {"nonzero": True})
_ORACLE_SYMBOLS = tuple(sp.Symbol(f"{name}{k}", **assume)
                        for name in "ab" for k, assume in enumerate(_ASSUMPTIONS))

# Rational x 0-4 symbols with exponents in -4..4, as sympy evaluates the product
_monomials = st.builds(
    lambda n, d, factors: sp.Rational(n, d) * sp.Mul(*(s ** e for s, e in factors)),
    st.integers(-5, 5), st.integers(1, 5),
    st.lists(st.tuples(st.sampled_from(_ORACLE_SYMBOLS), st.integers(-4, 4)), max_size=4))
_sums = st.lists(_monomials, min_size=2, max_size=3).map(sp.Add.fromiter)
_scalars = st.one_of(
    _monomials,
    _sums,
    st.builds(lambda x, c: sp.Float(x) * c,
              st.floats(-10, 10, allow_nan=False, allow_infinity=False), _monomials),
    # a sum as a factor or a base: products that cancel(expand(c)) rewrites
    st.builds(lambda c, s, k: c * s ** k, _monomials, _sums, st.integers(-2, 2)),
    st.just(sp.sqrt(_M)),
    st.just((_M + 1) ** -1 * _W),
)


@given(c=_scalars)
@settings(max_examples=150, deadline=None)
def test_normalize_scalar_matches_cancel_of_expand(c):
    ours, oracle = _normalize_scalar(c), canonical_scalar(c)
    assert type(ours) is type(oracle)
    assert sp.srepr(ours) == sp.srepr(oracle)


def _sympy_rows(mat):
    return [[sp.sympify(v) for v in row] for row in mat]


@given(f=_sym_polys, g=_sym_polys, form=st.sampled_from(_SYM_FORMS))
@settings(max_examples=25, deadline=None)
def test_symbolic_bracket_matches_sympy_and_is_canonical(f, g, form):
    ours = poisson_bracket(f, g, form)
    _assert_canonical(ours)
    oracle = sympy_bracket(poly_to_sympy(f), poly_to_sympy(g), _sympy_rows(form.upper))
    assert sp.cancel(poly_to_sympy(ours) - oracle) == 0


@given(h=_sym_polys, form=st.sampled_from(_SYM_FORMS))
@settings(max_examples=25, deadline=None)
def test_symbolic_vector_field_matches_sympy_and_is_canonical(h, form):
    rows = _sympy_rows(form.upper)
    for mu, comp in enumerate(hamiltonian_vector_field(form, h)):
        _assert_canonical(comp)
        oracle = sympy_bracket(PHASE_SYMBOLS[mu], poly_to_sympy(h), rows)
        assert sp.cancel(poly_to_sympy(comp) - oracle) == 0


@given(f=_sym_candidates)
@settings(max_examples=25, deadline=None)
def test_symbolic_conservation_matches_sympy(f):
    _assert_canonical(f)
    oracle = sympy_lie_derivative(poly_to_sympy(f), _sympy_rows(_SYM_FIELD.matrix))
    assert is_constant_of_motion(f, _SYM_FIELD) == (sp.cancel(oracle) == 0)


# ---------------------------------------------------------------------------
# a contraction canonicalizes each output exponent once
# ---------------------------------------------------------------------------

@pytest.fixture
def cancel_calls(monkeypatch):
    """The arguments of every sp.cancel call during a test."""
    calls = []
    cancel = sp.cancel
    monkeypatch.setattr(sp, "cancel", lambda c, *args, **kw: calls.append(c) or cancel(c, *args, **kw))
    return calls


@pytest.fixture
def canonicalizations(monkeypatch):
    """The sympy arguments of every `_normalize_scalar` call during a test."""
    calls = []
    normalize = phasespace._normalize_scalar

    def counting(c):
        if isinstance(c, sp.Basic):
            calls.append(c)
        return normalize(c)

    monkeypatch.setattr(phasespace, "_normalize_scalar", counting)
    return calls


def test_symbolic_bracket_table_cancels_once_per_raw_exponent(cancel_calls):
    m, w = sp.symbols("m_table omega_table", positive=True)
    pairs = standard_pairs(m, w)
    hams = [p.hamiltonian for p in pairs]
    del cancel_calls[:]
    table = [[poisson_bracket(hi, hj, pairs[0].form) for hj in hams] for hi in hams]
    # the 16 raw sums have 36 distinct exponents between them, each a monomial
    # in m and omega; canonicalizing every intermediate polynomial took 422 calls
    assert len(cancel_calls) == 0
    assert sum(len(b.terms) for row in table for b in row) == 16
    assert all(table[i][i].is_zero and table[0][i].is_zero for i in range(4))


def test_symbolic_pairs_cancel_once_per_entry_and_component(cancel_calls):
    m, w = sp.symbols("m_pairs omega_pairs", positive=True)
    pairs = standard_pairs(m, w)
    # 12 Hamiltonian coefficients, W3's 4 entries and 10 entries of its exact
    # inverse, all monomials in m and omega; canonicalizing every entry of
    # every Gauss-Jordan step took 50 calls
    assert len(cancel_calls) == 0
    field = oscillator_field(m, w)
    del cancel_calls[:]
    residuals = [verify_pair(p, field) for p in pairs]
    # one output exponent per component of each of the four pairs, each a
    # monomial; forming the induced field and the difference separately took 96
    assert len(cancel_calls) == 0
    assert all(comp.terms == {} for res in residuals for comp in res)


def _is_monomial(c) -> bool:
    """One term over one term once cancelled, e.g. 2 m/omega, not (m + omega^2)/omega."""
    num, den = sp.fraction(sp.cancel(c))
    return all(len(sp.Add.make_args(sp.expand(part))) == 1 for part in (num, den))


def test_sums_cancel_once_per_touched_exponent(canonicalizations, cancel_calls):
    m, w = sp.symbols("m_sum omega_sum", positive=True)
    # k polynomials over mostly distinct exponents, so the running sum holds
    # many terms that a later summand does not touch
    polys = [PolynomialObservable({_EXPONENTS[(3 * i + j) % len(_EXPONENTS)]:
                                   (i + j + 1) * m / w + j * w ** i for j in range(3)})
             for i in range(8)]
    del canonicalizations[:], cancel_calls[:]
    total = polys[0]
    for p in polys[1:]:
        total = total + p
    touched = sum(len(p.terms) for p in polys[1:])
    assert len(canonicalizations) == touched
    # only the raw sums that are not a monomial are cancelled: here 14 of 21,
    # those with an omega^i term next to the m/omega one
    cancelled = list(cancel_calls)
    sums = [sp.expand(c) for c in canonicalizations if not _is_monomial(c)]
    assert 0 < len(sums) < touched
    assert cancelled == sums
    del canonicalizations[:], cancel_calls[:]
    difference = total - polys[-1]
    assert len(canonicalizations) == len(polys[-1].terms)
    assert len(total.terms) > max(len(p.terms) for p in polys)
    for poly in (total, difference):
        _assert_canonical(poly)
    oracle = sum(poly_to_sympy(p) for p in polys)
    assert sp.cancel(poly_to_sympy(total) - oracle) == 0
    assert sp.cancel(poly_to_sympy(difference) - oracle + poly_to_sympy(polys[-1])) == 0


# ---------------------------------------------------------------------------
# the shortcuts that form each symbolic product once
# ---------------------------------------------------------------------------

_M_ONCE, _W_ONCE = sp.symbols("m_once omega_once", positive=True)
# signed canonical monomials in symbols no other test uses, as sympy's
# evaluation writes them, ints, Fractions, and one sum, which takes the
# fallback of `_times` and `_plus`
_signed_monomials = st.builds(
    lambda n, d, i, j: sp.Rational(n, d) * _M_ONCE ** i * _W_ONCE ** j,
    st.integers(-4, 4).filter(bool), st.integers(1, 4), st.integers(-2, 2), st.integers(-2, 2))
_exact_operands = st.one_of(
    _signed_monomials,
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.just(_M_ONCE + 2 * _W_ONCE),
)
_once_polys = st.dictionaries(st.sampled_from(_EXPONENTS), _exact_operands, max_size=4).map(
    PolynomialObservable)
_ONCE_FORMS = standard_forms(_M_ONCE, _W_ONCE)


@given(c=_exact_operands, d=_exact_operands)
@settings(max_examples=150, deadline=None)
def test_sign_factored_product_is_the_product(c, d):
    ours, oracle = _normalize_scalar(phasespace._times(c, d)), canonical_scalar(c * d)
    assert type(ours) is type(oracle)
    assert sp.srepr(ours) == sp.srepr(oracle)
    # and it is built as sympy builds c * d, so no output's printed form moves
    assert sp.srepr(phasespace._times(c, d)) == sp.srepr(c * d)


@given(f=_once_polys, g=_once_polys, form=st.sampled_from(_ONCE_FORMS))
@settings(max_examples=40, deadline=None)
def test_bracket_with_structural_sums_matches_sympy(f, g, form):
    ours = poisson_bracket(f, g, form)
    _assert_canonical(ours)
    oracle = sympy_bracket(poly_to_sympy(f), poly_to_sympy(g), _sympy_rows(form.upper))
    assert sp.expand(poly_to_sympy(ours) - oracle) == 0


@given(f=_once_polys, g=_once_polys)
@settings(max_examples=40, deadline=None)
def test_product_with_structural_sums_matches_the_term_loop_oracle(f, g):
    product = f * g
    _assert_canonical(product)
    assert product.terms == polynomial_product(f.terms, g.terms)


@given(f=_once_polys)
@settings(max_examples=30, deadline=None)
def test_gradient_is_kept_on_its_polynomial(f):
    before, copy = repr(f), PolynomialObservable(f.terms)
    gradient = phasespace._raw_gradient(f)
    assert phasespace._raw_gradient(f) is gradient
    assert repr(f) == before == f"PolynomialObservable({f.terms!r})"
    assert f == copy and copy == f
    for name in ("terms", "_gradient", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert phasespace._raw_gradient(f) is gradient
