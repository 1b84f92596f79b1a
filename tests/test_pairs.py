"""Admissible-form enumeration, Hamiltonian reconstruction, pair verification."""

import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

from symquant import (
    LinearVectorField,
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
from oracles import bruteforce_admissible_dimension, poly_to_sympy, sympy_bracket

THO = oscillator_field(1, 1)
FORMS = standard_forms(1, 1)
HAMS = standard_hamiltonians(1, 1)
X, Y, PX, PY = coordinates()


# ---------------------------------------------------------------------------
# admissible_inverse_forms
# ---------------------------------------------------------------------------

def test_admissible_space_contains_all_standard_inverse_forms():
    basis = admissible_inverse_forms(THO)
    for form in FORMS:
        theta = form.lower_array()
        assert basis.projection_residual(theta) <= 1e-12
        assert basis.contains(theta)


def test_admissible_space_of_zero_field_is_full():
    basis = admissible_inverse_forms(LinearVectorField([[0] * 4] * 4))
    assert basis.dimension == 6


def test_admissible_dimension_matches_bruteforce_oracle():
    oracle = bruteforce_admissible_dimension(
        [[int(v) for v in row] for row in THO.matrix])
    assert admissible_inverse_forms(THO).dimension == oracle


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
    basis = admissible_inverse_forms(field)
    assert basis.dimension == 2


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


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("rel, accepted", [(1e-14, True), (1e-9, False)])
def test_float_zero_test_is_relative_to_the_matrix(scale, rel, accepted):
    # one rule decides a form's antisymmetry and the symmetry of theta A: a
    # float entry is zero within 1e-12 (1 + max|matrix|)
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
