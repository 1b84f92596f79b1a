"""Admissible-form enumeration, Hamiltonian reconstruction, pair verification."""

import hashlib
import math
import subprocess
import sys
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from symquant import (
    LinearVectorField,
    PolynomialObservable,
    admissible_inverse_forms,
    classify_boundedness,
    complete_pair,
    coordinates,
    hamiltonian_from_form,
    is_constant_of_motion,
    oscillator_field,
    standard_forms,
    standard_hamiltonians,
    standard_pairs,
    validate_form,
    verify_pair,
)
from symquant import pairs, phasespace
from oracles import (boundedness_label, bruteforce_admissible_dimension, exact_admissible_basis,
                     poly_to_sympy, polynomial_product, sympy_bracket)

THO = oscillator_field(1, 1)
FORMS = standard_forms(1, 1)
HAMS = standard_hamiltonians(1, 1)
X, Y, PX, PY = coordinates()


# ---------------------------------------------------------------------------
# admissible_inverse_forms
# ---------------------------------------------------------------------------

def _assert_rounds_the_exact_basis(field):
    # each element is a multiple of sympy's reduced-row-echelon solution,
    # rounded once per entry: an exact zero is 0, no other entry is 0,
    # subnormal or inf, and each ratio of entries is the exact one to within
    # two roundings
    basis = admissible_inverse_forms(field)
    exact = exact_admissible_basis(field.matrix)
    assert basis.dimension == len(exact)
    for theta, vector in zip(basis.basis, exact):
        coords = [float(theta[i, j]) for i, j in pairs.PAIR_INDEX]
        assert [c == 0 for c in coords] == [v == 0 for v in vector]
        assert all(c == 0 or sys.float_info.min <= abs(c) < math.inf for c in coords)
        k = max(range(len(vector)), key=lambda i: abs(vector[i]))
        for c, v in zip(coords, vector):
            if v:
                assert abs(Fraction(c) / Fraction(coords[k]) * vector[k] / v - 1) <= 2.0 ** -51
        assert basis.contains(theta)


def test_admissible_space_contains_all_standard_inverse_forms():
    basis = admissible_inverse_forms(THO)
    for form in FORMS:
        assert basis.contains(form.lower_array())


def test_admissible_space_of_zero_field_is_full():
    field = LinearVectorField([[0] * 4] * 4)
    assert admissible_inverse_forms(field).dimension == 6
    _assert_rounds_the_exact_basis(field)


def test_admissible_dimension_matches_bruteforce_oracle():
    oracle = bruteforce_admissible_dimension(
        [[int(v) for v in row] for row in THO.matrix])
    assert admissible_inverse_forms(THO).dimension == oracle
    _assert_rounds_the_exact_basis(THO)


def test_basis_elements_satisfy_constraint():
    a = THO.as_float_array()
    for theta in admissible_inverse_forms(THO).basis:
        assert np.max(np.abs(theta @ a + a.T @ theta)) <= 1e-12
        assert np.max(np.abs(theta + theta.T)) == 0.0


def test_basis_is_linearly_independent():
    basis = admissible_inverse_forms(THO)
    stacked = np.stack([b.ravel() for b in basis.basis])
    assert np.linalg.matrix_rank(stacked) == basis.dimension


def test_generic_field_has_smaller_admissible_space():
    # anisotropic oscillator: frequencies 1 and 2 decouple the cross pairs
    field = LinearVectorField([[0, 0, 1, 0], [0, 0, 0, 1],
                               [-1, 0, 0, 0], [0, -4, 0, 0]])
    assert admissible_inverse_forms(field).dimension == 2
    _assert_rounds_the_exact_basis(field)


@pytest.mark.parametrize("field, dimension", [
    (oscillator_field(Fraction(3, 5), Fraction(2, 7)), 4), (oscillator_field(1.3, 1.5), 4),
    (oscillator_field(sp.Float(1.5), 1), 4),
    *[(LinearVectorField([[1, c, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), 0)
      for c in (1, 1e6, 1e10, 1e300)]],
    ids=["rational", "float", "sympy-float", *[f"coupled-{c:g}" for c in (1, 1e6, 1e10, 1e300)]])
def test_admissible_space_is_solved_exactly(field, dimension):
    # A = I + c E_01 admits no theta at any c != 0, since a diagonal
    # similarity maps c to 1; an SVD with a cutoff at 1e-10 of the largest
    # singular value found 2 null directions at c = 1e6 and 1e10 and 4 at 1e300
    assert admissible_inverse_forms(field).dimension == dimension
    _assert_rounds_the_exact_basis(field)


@pytest.mark.parametrize("theta", [np.eye(3), (1 + 1j) * FORMS[0].lower_array()],
                         ids=["3x3", "complex"])
def test_contains_rejects_what_complete_pair_rejects(theta):
    # a matrix that is no real 4x4 form is outside the space, not an error
    assert not admissible_inverse_forms(THO).contains(theta)


@pytest.mark.parametrize("m, omega, entry", [(1e5, 1.0, (2, 3)), (1e8, 1.0, (0, 1)),
                                             (1e20, 1e-20, (0, 1))])
def test_a_raised_entry_of_the_rotational_form_is_not_admissible(m, omega, entry):
    # W3^-1 with one entry and its mirror raised by half is antisymmetric, but
    # theta A is asymmetric by half an entry of theta A; the least-squares
    # projection accepted the first two, a zero test floored at 1 the third
    field = oscillator_field(m, omega)
    theta = standard_forms(m, omega)[3].lower_array()
    theta[entry] *= 1.5
    theta[entry[::-1]] *= 1.5
    assert not admissible_inverse_forms(field).contains(theta)
    with pytest.raises(ValueError, match="asymmetric product"):
        hamiltonian_from_form(theta, field)


def test_a_small_entry_of_theta_a_beside_large_ones_is_not_admissible():
    # W0^-1 at m = 1e-100 with its (2, 3) entry set to 0.5 and its mirror to
    # -0.5: theta A is asymmetric by 5e-101 at (1, 2), half its entries there,
    # but under 1e-12 of its 1e100 entries; the one scale per matrix accepted it
    # and returned an H without that term
    field = oscillator_field(1e-100, 1.0)
    theta = standard_forms(1e-100, 1.0)[0].lower_array()
    theta[2, 3], theta[3, 2] = 0.5, -0.5
    assert not admissible_inverse_forms(field).contains(theta)
    with pytest.raises(ValueError, match="asymmetric product"):
        hamiltonian_from_form(theta, field)


def test_standard_forms_and_inverses_are_accepted_at_every_decade():
    # each entry is tested at its own size, so no standard form or inverse
    # reads as asymmetric where its blocks are 1e300 apart
    for k in range(-300, 301):
        m = 10.0 ** k
        field = oscillator_field(m, 1.0)
        basis = admissible_inverse_forms(field)
        _assert_rounds_the_exact_basis(field)
        for mu, form in enumerate(standard_forms(m, 1.0)):
            assert validate_form(form.upper).ok, (k, mu)
            assert validate_form(form.lower).ok, (k, mu)
            assert basis.contains(form.lower), (k, mu)
            complete_pair(form.lower, field)


_SWEEP = ([(10.0 ** k, 1.0) for k in range(-150, 151, 10)]
          + [(1.0, 10.0 ** k) for k in range(-150, 151, 10)]
          + [(10.0 ** k, 10.0 ** -k) for k in range(-150, 151, 10)])


@pytest.mark.parametrize("m, omega", _SWEEP)
def test_admissibility_holds_for_the_standard_forms_at_every_scale(m, omega):
    # the zero test reads the same at every overall scale, so what is
    # admissible stays so: each standard inverse form is in the space and
    # completes, and each basis element completes unless it is degenerate
    field = oscillator_field(m, omega)
    basis = admissible_inverse_forms(field)
    _assert_rounds_the_exact_basis(field)
    for form in standard_forms(m, omega):
        assert basis.contains(form.lower_array())
        complete_pair(form.lower_array(), field)
    for theta in basis.basis:
        assert basis.contains(theta)
        try:
            complete_pair(theta, field)
        except ValueError as exc:
            assert str(exc) == "degenerate form"


# ---------------------------------------------------------------------------
# hamiltonian_from_form / complete_pair
# ---------------------------------------------------------------------------

def test_reconstructs_energy_from_canonical_inverse_form():
    theta0 = FORMS[0].lower
    assert hamiltonian_from_form(theta0, THO) == HAMS[0]


def test_reconstructs_angular_momentum_from_rotational_inverse_form():
    theta3 = FORMS[3].lower
    assert hamiltonian_from_form(theta3, THO) == X * PY - Y * PX


def test_reconstruction_is_linear_in_theta():
    theta = FORMS[1].lower_array()
    base = hamiltonian_from_form(theta, THO)
    for c in (2.0, -0.75):
        assert hamiltonian_from_form(c * theta, THO) == c * base


def test_asymmetric_product_rejected():
    # theta admissible for the oscillator must commute with the flow; a generic
    # antisymmetric matrix does not, and theta A comes out asymmetric
    theta = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetric product"):
        hamiltonian_from_form(theta, THO)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("rel, accepted", [(1e-14, True), (1e-9, False)])
def test_float_zero_test_is_relative_to_the_matrix(scale, rel, accepted):
    # one rule decides a form's antisymmetry and the symmetry of theta A: a
    # float entry is zero within 1e-12 max|matrix|, at every overall scale
    upper = scale * FORMS[0].upper_array()
    upper[0, 2] += rel * scale
    report = validate_form(upper)
    assert report.ok is accepted
    assert report.reason == (None if accepted else "not antisymmetric")
    theta = scale * FORMS[0].lower_array()
    theta[0, 1] += rel * scale
    theta[1, 0] -= rel * scale  # theta A is now asymmetric by rel * scale
    if accepted:
        hamiltonian_from_form(theta, THO)
    else:
        with pytest.raises(ValueError, match="asymmetric product"):
            hamiltonian_from_form(theta, THO)


def test_degenerate_theta_rejected():
    # rank-2 admissible direction: theta_0 + theta_2 kills the x block
    theta = FORMS[0].lower_array() + FORMS[2].lower_array()
    assert abs(np.linalg.det(theta)) < 1e-12
    with pytest.raises(ValueError, match="degenerate form"):
        hamiltonian_from_form(theta, THO)


@pytest.mark.parametrize("build", [hamiltonian_from_form, complete_pair])
def test_non_antisymmetric_theta_rejected(build):
    # theta A = diag(1, 1, 2, 2) is symmetric and theta is invertible, but theta
    # is no inverse bracket matrix; hamiltonian_from_form used to return its H
    theta = [[0, 0, -1, 0], [0, 0, 0, -1], [2, 0, 0, 0], [0, 2, 0, 0]]
    with pytest.raises(ValueError, match="not antisymmetric"):
        build(theta, THO)


def test_complete_pair_roundtrip():
    pair = complete_pair(FORMS[2].lower, THO)
    assert all(r.is_zero for r in verify_pair(pair, THO))
    assert pair.hamiltonian == HAMS[2]


def test_complete_pair_inverts_theta_once(monkeypatch):
    # every inversion, the one of theta and any the form's construction makes
    calls = []
    invert = phasespace._invert_matrix

    def counting(mat):
        calls.append(mat)
        return invert(mat)

    monkeypatch.setattr(pairs, "_invert_matrix", counting)
    monkeypatch.setattr(phasespace, "_invert_matrix", counting)
    m, w = sp.symbols("m_once omega_once", positive=True)
    for forms, field in ((FORMS, THO), (standard_forms(0.3, 1.7), oscillator_field(0.3, 1.7)),
                         (standard_forms(m, w), oscillator_field(m, w))):
        for form in forms:
            del calls[:]
            pair = complete_pair(form.lower, field)
            assert len(calls) == 1
            assert pair.form.upper == form.upper
            assert pair.form.lower == form.lower


# ---------------------------------------------------------------------------
# verify_pair
# ---------------------------------------------------------------------------

def test_all_standard_pairs_reproduce_the_flow():
    for pair in standard_pairs(1, 1):
        assert all(r.is_zero for r in verify_pair(pair, THO))


def test_standard_pairs_symbolic_parameters():
    m, w = sp.symbols("m omega", positive=True)
    field = oscillator_field(m, w)
    for pair in standard_pairs(m, w):
        assert all(r.is_zero for r in verify_pair(pair, field))


def test_symbolic_api_works_when_sympy_is_imported_after_symquant():
    script = ("import sys\n"
              "import symquant\n"
              "assert 'sympy' not in sys.modules, 'symquant imported sympy'\n"
              "import sympy as sp\n"
              "from symquant import PolynomialObservable, oscillator_field, standard_pairs, verify_pair\n"
              "m, w = sp.symbols('m omega', positive=True)\n"
              "field = oscillator_field(m, w)\n"
              "for pair in standard_pairs(m, w):\n"
              "    assert all(r.terms == {} for r in verify_pair(pair, field))\n"
              "p = PolynomialObservable({(1, 0, 0, 0): (m + 1) ** 2 - m ** 2 - 2 * m - 1,\n"
              "                          (0, 1, 0, 0): m})\n"
              "assert p.terms == {(0, 1, 0, 0): m}, p.terms\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_mismatched_pair_has_nonzero_residual():
    from symquant import HamiltonianPair

    mismatched = HamiltonianPair(form=FORMS[0], hamiltonian=HAMS[1])
    residual = verify_pair(mismatched, THO)
    # oracle: symbolic expansion of omega_0 grad(S1) minus the field
    coords = sp.symbols("x y p_x p_y")
    upper = [[int(v) for v in row] for row in FORMS[0].upper]
    target = [coords[2], coords[3], -coords[0], -coords[1]]
    expanded = [sp.expand(sympy_bracket(coords[mu], poly_to_sympy(HAMS[1]), upper)
                          - target[mu]) for mu in range(4)]
    assert any(e != 0 for e in expanded)
    assert any(not r.is_zero for r in residual)
    for r, e in zip(residual, expanded):
        assert sp.expand(poly_to_sympy(r) - e) == 0


def test_additive_constant_does_not_change_the_flow():
    from symquant import HamiltonianPair

    shifted = HamiltonianPair(form=FORMS[0], hamiltonian=HAMS[0] + 17)
    assert all(r.is_zero for r in verify_pair(shifted, THO))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_roundtrip_random_invertible_thetas():
    rng = np.random.default_rng(11)
    basis = admissible_inverse_forms(THO)
    built = 0
    for _ in range(25):
        theta = basis.sample(rng.normal(size=basis.dimension))
        if abs(np.linalg.det(theta)) < 1e-6:
            continue
        pair = complete_pair(theta, THO)
        residual = verify_pair(pair, THO)
        assert max(r.max_abs_coefficient() for r in residual) <= 1e-10
        assert is_constant_of_motion(pair.hamiltonian, THO)
        built += 1
    assert built >= 20


def test_reconstructed_hamiltonians_are_constants_of_motion():
    basis = admissible_inverse_forms(THO)
    for theta in basis.basis:
        ham = None
        try:
            ham = hamiltonian_from_form(theta, THO)
        except ValueError:
            continue  # degenerate basis direction: excluded from pairs
        assert is_constant_of_motion(ham, THO)


def test_boundedness_labels():
    labels = [classify_boundedness(h) for h in HAMS]
    assert labels[0] == "bounded-below"
    assert labels[1:] == ["unbounded"] * 3


def test_boundedness_rejects_cubics():
    with pytest.raises(ValueError):
        classify_boundedness(X * X * X)


_M = sp.Symbol("m", positive=True)
# each kind of coefficient, from an int k; thirds are not dyadic, so a Fraction
# or sympy coefficient that classify_boundedness read as a float would be rounded
_KINDS = {"int": int, "Fraction": lambda k: Fraction(k, 3), "float": lambda k: k / 2,
          "sympy": lambda k: sp.Rational(k, 3), "symbol": lambda k: k * _M}
_UNIT = st.tuples(*[st.integers(-1, 1)] * 4)


@st.composite
def _quadratics(draw, kinds=tuple(_KINDS)):
    """(1/2) x^T S x + l.x + c with coefficients of one drawn kind.

    S = 2 sum_k d_k v_k v_k^T over at most four directions v_k, with weights
    d_k of one sign or of both, so S is often semidefinite with flat
    directions; l is S u, in the range of S, plus half the time a w that
    mostly leaves it.
    """
    make = _KINDS[draw(st.sampled_from(kinds))]
    vecs = draw(st.lists(_UNIT, max_size=4))
    signs = draw(st.sampled_from(((1,), (-1,), (1, -1))))
    s = np.zeros((4, 4), dtype=int)
    for v in vecs:
        s += 2 * draw(st.sampled_from(signs)) * draw(st.integers(1, 2)) * np.outer(v, v)
    lin = s @ draw(_UNIT) + np.array(draw(st.sampled_from([(0,) * 4, draw(_UNIT)])))
    terms = {(0,) * 4: draw(st.integers(-2, 2))}
    for i in range(4):
        terms[tuple(int(k == i) for k in range(4))] = lin[i]
        for j in range(i, 4):
            terms[tuple(int(k == i) + int(k == j) for k in range(4))] = s[i, j] // (1 + (i == j))
    return PolynomialObservable({e: make(int(k)) for e, k in terms.items() if k})


@settings(max_examples=150, deadline=None)
@given(_quadratics(kinds=("int", "Fraction", "float", "sympy")))
def test_boundedness_matches_the_exact_hessian_oracle(hamiltonian):
    assert classify_boundedness(hamiltonian) == boundedness_label(hamiltonian.terms)


@settings(max_examples=150, deadline=None)
@given(_quadratics(kinds=("int", "float")), st.lists(st.integers(-150, 150), min_size=5, max_size=5))
def test_boundedness_is_invariant_under_positive_scaling(hamiltonian, k):
    # c H(D x) is bounded exactly as H is, for c = 10^k0 and D = diag(10^k1..10^k4),
    # formed exactly; against a tolerance a curvature or slope far below the
    # largest entry reads as 0
    scaled = PolynomialObservable({e: Fraction(c) * Fraction(10) ** (k[0] + sum(map(mul, k[1:], e)))
                                   for e, c in hamiltonian.terms.items()})
    assert classify_boundedness(scaled) == boundedness_label(hamiltonian.terms)


@settings(max_examples=100, deadline=None)
@given(_quadratics(kinds=("int", "float")), st.lists(st.integers(-150, 150), min_size=15, max_size=15))
def test_boundedness_of_separately_scaled_terms_matches_the_oracle(hamiltonian, k):
    # each float term times its own 10^k: a polynomial whose entries span up to 1e300
    scaled = PolynomialObservable({e: c * 10.0 ** k_e for (e, c), k_e in zip(hamiltonian.terms.items(), k)})
    assert classify_boundedness(scaled) == boundedness_label(scaled.terms)


@pytest.mark.parametrize("terms, label", [
    ({(0, 0, 2, 0): 5e11, (0, 1, 0, 0): 1.0}, "unbounded"),  # light particle, linear potential
    ({(0, 0, 2, 0): 5e11, (2, 0, 0, 0): -0.5}, "unbounded"),  # light inverted oscillator
    ({(0, 0, 2, 0): 5e11, (2, 0, 0, 0): 0.5, (0, 1, 0, 0): 0.0}, "bounded-below"),
    ({(0, 0, 2, 0): 1e-300, (1, 0, 1, 0): 1e-300, (2, 0, 0, 0): 1e300}, "bounded-below"),
    ({(2, 0, 0, 0): -1e-300, (0, 0, 0, 2): -1e300, (0, 0, 0, 1): 1e300}, "bounded-above"),
])
def test_boundedness_reads_no_scale_as_zero(terms, label):
    assert classify_boundedness(PolynomialObservable(terms)) == label


@settings(max_examples=60, deadline=None)
@given(_quadratics(), _quadratics())
def test_product_matches_the_term_loop_oracle(f, g):
    assert (f * g).terms == polynomial_product(f.terms, g.terms)


# ---------------------------------------------------------------------------
# the exact layer's outputs are pinned down to their repr
# ---------------------------------------------------------------------------

def _exact_layer_outputs(m, omega) -> list:
    """Every output of the calls one `exact` benchmark op makes, at m, omega."""
    field = oscillator_field(m, omega)
    standard = standard_pairs(m, omega)
    hams = [p.hamiltonian for p in standard]
    out = [field.matrix, standard, [form.lower for form in standard_forms(m, omega)]]
    out.append([verify_pair(p, field) for p in standard])
    out.append([[phasespace.poisson_bracket(hi, hj, standard[0].form) for hj in hams]
                for hi in hams])
    reports = [validate_form(p.form.upper) for p in standard]
    out += [reports, [r.form.lower for r in reports]]
    out.append([is_constant_of_motion(h, field) for h in hams])
    completed = [complete_pair(p.form.lower, field) for p in standard]
    out += [completed, [p.form.lower for p in completed]]
    out.append([hamiltonian_from_form(p.form.lower, field) for p in standard])
    out.append([validate_form(c) for c in (
        [[7, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[0, 1, 2, 0], [-1, 0, 3, 0], [-2, -3, 0, 0], [0, 0, 0, 0]],
        [[0, m, 0, 0], [-m, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])])
    if not isinstance(m, sp.Basic):
        # a form with no zero entry off the diagonal, and so none in its
        # inverse; whether an exact zero of a symbolic inverse is an int or a
        # Fraction is not pinned
        generic = validate_form([[0, m, 2, omega], [-m, 0, omega, 3],
                                 [-2, -omega, 0, m * omega], [-omega, -3, -m * omega, 0]])
        out += [generic, generic.form.lower, admissible_inverse_forms(field)]
    return out


def test_exact_layer_outputs_are_pinned():
    # SHA-256 of the repr of every output above at int, Fraction and symbolic
    # m and omega, recorded with sympy 1.14 and numpy 2.4 on x86-64; a change
    # to exact arithmetic that moves any value, type or printed form moves it
    m, w = sp.symbols("m_pin omega_pin", positive=True)
    outputs = [_exact_layer_outputs(*mw)
               for mw in ((1, 1), (2, 3), (Fraction(3, 5), Fraction(2, 7)), (m, w))]
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "d9fa82bda53aaf7a8d35db9798b9a2583af45b8498ed1d23b5977497267f5068"


@pytest.fixture
def sympy_constructions(monkeypatch):
    """The number of sympy Mul and Add objects built, that is of their flatten
    calls, since the fixture was set up; a product or sum found in sympy's
    cache is not built again and is not counted."""
    count = [0]
    for cls in (sp.Mul, sp.Add):
        def counting(cls, seq, flatten=cls.flatten.__func__):
            count[0] += 1
            return flatten(cls, seq)
        monkeypatch.setattr(cls, "flatten", classmethod(counting))
    return count


def _symbolic_op(m, omega):
    """The symbolic half of one `exact` benchmark op: the pair residuals and
    the bracket table of S0..S3 under W0."""
    field = oscillator_field(m, omega)
    standard = standard_pairs(m, omega)
    hams = [p.hamiltonian for p in standard]
    return ([verify_pair(p, field) for p in standard],
            [[phasespace.poisson_bracket(hi, hj, standard[0].form) for hj in hams] for hi in hams])


def test_the_exact_layer_builds_each_symbolic_product_once(sympy_constructions):
    # counted on symbols no other call has seen, after one warm-up call, so
    # every product and sum the calls form is built here; 60 and 76 when each
    # product of a sign was formed anew, each cancelling or doubling sum built
    # as an Add and each gradient formed per bracket
    _exact_layer_outputs(*sp.symbols("m_warm omega_warm", positive=True))
    before = sympy_constructions[0]
    _symbolic_op(*sp.symbols("m_count omega_count", positive=True))
    assert sympy_constructions[0] - before <= 23
    before = sympy_constructions[0]
    _exact_layer_outputs(*sp.symbols("m_all omega_all", positive=True))
    assert sympy_constructions[0] - before <= 39
