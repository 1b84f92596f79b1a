"""Grid wavefunctions, spectral primitives, and the normal-ordering oracle."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from symquant import (
    GaussianPacket,
    GridSpec,
    PhaseState,
    PhysParams,
    Primitive,
    WaveFunction,
)
from symquant.operators import MAX_POINTS, _apply_primitive
import oracles
from oracles import apply, dense_matrix, normal_form

GRID = GridSpec(half_width=8.0, points=128)
X, Y, DX, DY = Primitive.X, Primitive.Y, Primitive.DX, Primitive.DY


def _l2(values, grid):
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.spacing ** 2))


# ---------------------------------------------------------------------------
# grid / wavefunction plumbing
# ---------------------------------------------------------------------------

def test_grid_invariants():
    with pytest.raises(ValueError):
        GridSpec(half_width=-1.0, points=32)
    with pytest.raises(ValueError):
        GridSpec(half_width=4.0, points=8)
    with pytest.raises(ValueError):
        GridSpec(half_width=4.0, points=33)
    assert GRID.spacing == pytest.approx(0.125)
    assert GRID.axis()[0] == -8.0
    assert GRID.axis()[-1] == pytest.approx(8.0 - GRID.spacing)


def test_grid_points_are_capped_by_the_memory_budget():
    # decided in the constructor, before any grid array exists
    assert GridSpec(half_width=8.0, points=MAX_POINTS).points == MAX_POINTS
    for points in (MAX_POINTS + 2, 1_000_000):
        with pytest.raises(ValueError, match=f"points must be at most {MAX_POINTS}"):
            GridSpec(half_width=8.0, points=points)


def test_packet_normalization():
    psi = GaussianPacket(center=(0.5, -0.5), wavevector=(1.0, 2.0),
                         sigma=0.9).sample(GRID)
    assert abs(psi.norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("half_width", [1e-300, 1e300])
def test_normalize_rejects_zero_and_infinite_norms(half_width):
    # h^2 underflows to 0 or overflows to inf; psi / inf would be all zeros
    grid = GridSpec(half_width=half_width, points=16)
    with pytest.raises(ValueError, match="cannot normalize a field of norm"):
        GaussianPacket(sigma=1.0).sample(grid)


@pytest.mark.parametrize("make, field", [
    (lambda: PhysParams(m=math.inf, omega=1.0), "m"),
    (lambda: GridSpec(half_width=math.inf, points=32), "half_width"),
    (lambda: GaussianPacket(center=(math.nan, 0.0)), "center"),
    (lambda: GaussianPacket(wavevector=(0.0, -math.inf)), "wavevector"),
    (lambda: GaussianPacket(sigma=math.inf), "sigma"),
    (lambda: PhaseState(0.0, 0.0, math.nan, 0.0), "p_x"),
])
def test_non_finite_inputs_are_rejected(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_a_field_of_another_shape_than_its_grid_is_rejected():
    with pytest.raises(ValueError, match="^values shape does not match grid$"):
        WaveFunction(GRID, np.zeros((GRID.points, GRID.points + 1)))


# ---------------------------------------------------------------------------
# primitive grid actions
# ---------------------------------------------------------------------------

def _act(p, values):
    return _apply_primitive(p, values, GRID)


def test_spectral_derivative_against_analytic_oracle():
    # windowed plane wave; the oracle is the closed-form derivative
    k = 2.1
    sigma = 0.8
    xg, yg = GRID.meshgrid()
    values = np.exp(1j * k * xg) * np.exp(-(xg ** 2 + yg ** 2) / (4 * sigma ** 2))
    psi = WaveFunction(GRID, values).normalize()
    expected = (1j * k - xg / (2 * sigma ** 2)) * psi.values
    got = _act(Primitive.DX, psi.values)
    assert _l2(got - expected, GRID) / _l2(expected, GRID) <= 1e-8


def test_plane_wave_on_the_frequency_lattice_is_exact():
    # k an exact grid frequency: no window needed and no spectral leakage
    k = 8 * math.pi / GRID.half_width / 2
    xg, _ = GRID.meshgrid()
    psi = WaveFunction(GRID, np.exp(1j * k * xg) / (2 * GRID.half_width))
    got = _act(Primitive.DX, psi.values)
    assert np.max(np.abs(got - 1j * k * psi.values)) <= 1e-10 * k


def test_multiply_derivative_commutator_is_minus_identity():
    psi = GaussianPacket(sigma=0.7).sample(GRID)
    got = (_act(Primitive.X, _act(Primitive.DX, psi.values))
           - _act(Primitive.DX, _act(Primitive.X, psi.values)))
    assert _l2(got + psi.values, GRID) <= 1e-8


def test_application_is_linear():
    pk1 = GaussianPacket(center=(0.4, 0.0), sigma=0.8).sample(GRID)
    pk2 = GaussianPacket(center=(-0.3, 0.5), sigma=0.6).sample(GRID)

    def op(values):
        return (2.0 * _act(Primitive.X, _act(Primitive.DY, values))
                - 0.5j * _act(Primitive.DX, values))

    lhs = op(1.5 * pk1.values - 2j * pk2.values)
    rhs = 1.5 * op(pk1.values) - 2j * op(pk2.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# the normal-ordering oracle: words over the primitives, factors acting right
# to left, on the basis x^a y^b d_x^c d_y^d
# ---------------------------------------------------------------------------

def _commutator(p, q):
    return ((1.0, (p, q)), (-1.0, (q, p)))


def test_normal_form_reorders_derivative_past_multiplication():
    assert normal_form(((1.0, (DX, X)),)) == {(1, 0, 1, 0): 1.0, (0, 0, 0, 0): 1.0}
    assert normal_form(((1.0, (X, DX)),)) == {(1, 0, 1, 0): 1.0}


def test_normal_form_handles_powers():
    # d^2/dx^2 (x .) = x d^2/dx^2 + 2 d/dx
    assert normal_form(((1.0, (DX, DX, X)),)) == {(1, 0, 2, 0): 1.0, (0, 0, 1, 0): 2.0}


def test_cross_axis_primitives_commute():
    for p, q in ((X, DY), (Y, DX), (DX, DY), (X, Y)):
        assert normal_form(_commutator(p, q)) == {}
    assert normal_form(_commutator(X, DX)) == {(0, 0, 0, 0): -1.0}


def test_operator_equality_modulo_ordering():
    # x d_x + 1 and d_x x have one normal form; adding 1 again does not
    lhs = ((1.0, (X, DX)), (1.0, ()))
    assert normal_form(lhs) == normal_form(((1.0, (DX, X)),))
    assert normal_form(lhs + ((1.0, ()),)) != normal_form(((1.0, (DX, X)),))


def test_normal_form_acts_as_the_word_on_grids():
    # each normally ordered monomial, applied on the grid, gives what the word
    # gives, to roundoff
    psi = GaussianPacket(center=(0.2, -0.1), wavevector=(0.5, 0.3),
                         sigma=0.75).sample(GRID)
    for word in ((DX, X, DY, Y), (DX, DX, X, X), (Y, DY, DX, X)):
        ordered = tuple((c, (X,) * a + (Y,) * b + (DX,) * cx + (DY,) * cy)
                        for (a, b, cx, cy), c in normal_form(((1.0, word),)).items())
        direct = apply(((1.0, word),), psi.values, GRID)
        assert np.max(np.abs(apply(ordered, psi.values, GRID) - direct)) \
            <= 1e-9 * np.max(np.abs(direct)), word


# ---------------------------------------------------------------------------
# dense materialization (the test oracle in oracles.py)
# ---------------------------------------------------------------------------

def test_dense_matrix_matches_functional_application():
    # against the library's primitive actions, nested by hand
    grid = GridSpec(half_width=6.0, points=24)
    psi = GaussianPacket(center=(0.3, -0.2), wavevector=(0.4, 0.1),
                         sigma=0.8).sample(grid)
    x, y, dx, dy = Primitive.X, Primitive.Y, Primitive.DX, Primitive.DY
    op = ((1.5, (x, dx)), (-2j, (dy,)), (0.25, (y, y)), (1.0, ()))
    dense = dense_matrix(op, grid)
    via_matrix = (dense @ psi.values.ravel()).reshape(psi.values.shape)
    v = psi.values
    via_primitives = (1.5 * _apply_primitive(x, _apply_primitive(dx, v, grid), grid)
                      - 2j * _apply_primitive(dy, v, grid)
                      + 0.25 * _apply_primitive(y, _apply_primitive(y, v, grid), grid) + v)
    assert np.max(np.abs(via_matrix - via_primitives)) <= 1e-10
    assert np.max(np.abs(apply(op, v, grid) - via_primitives)) <= 1e-10


def test_dense_momentum_is_hermitian():
    grid = GridSpec(half_width=6.0, points=20)
    p_op = dense_matrix(((-1j, (Primitive.DX,)),), grid)
    assert np.max(np.abs(p_op - p_op.conj().T)) <= 1e-12


# what tests/oracles.py may take from the library: value types, the names of
# the primitives and observables, the report's Robertson slack, and
# unitary_evolve, which the evolved-Gaussian oracle backs on its own
_ORACLE_IMPORTS = {("symquant", name) for name in (
    "GridSpec", "GaussianPacket", "WaveFunction", "PhysParams", "Primitive", "OBSERVABLES",
    "unitary_evolve")} | {("symquant.lab", "_ROBERTSON_SLACK")}


def test_oracles_import_nothing_they_check():
    # an oracle that builds its operators from the library's rows agrees with
    # the library whatever sign those rows carry
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "symquant"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "symquant":
            imported |= {(node.module, alias.name) for alias in node.names}
    assert imported - _ORACLE_IMPORTS == set()
