"""Grid wavefunctions, spectral primitives, and the operator normal form."""

import math

import numpy as np
import pytest

from symquant import (
    GaussianPacket,
    GridSpec,
    LocalizationWarning,
    OperatorExpr,
    PhysParams,
    Primitive,
    WaveFunction,
)
from symquant.operators import MAX_POINTS, check_localized
from oracles import dense_matrix

GRID = GridSpec(half_width=8.0, points=128)
X_OP = OperatorExpr.primitive(Primitive.X)
Y_OP = OperatorExpr.primitive(Primitive.Y)
DX = OperatorExpr.primitive(Primitive.DX)
DY = OperatorExpr.primitive(Primitive.DY)


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
])
def test_non_finite_inputs_are_rejected(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_inner_product_grid_mismatch():
    psi = GaussianPacket(sigma=1.0).sample(GRID)
    other = GaussianPacket(sigma=1.0).sample(GridSpec(8.0, 64))
    with pytest.raises(ValueError, match="grid mismatch"):
        psi.inner(other)


def test_localization_warning():
    wide = GaussianPacket(sigma=4.0).sample(GRID)
    with pytest.warns(LocalizationWarning):
        assert not check_localized(wide)
    narrow = GaussianPacket(sigma=0.7).sample(GRID)
    assert check_localized(narrow)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_identity_application():
    psi = GaussianPacket(sigma=0.8).sample(GRID)
    out = OperatorExpr.identity().apply(psi)
    assert np.array_equal(out.values, psi.values)


def test_spectral_derivative_against_analytic_oracle():
    # windowed plane wave; the oracle is the closed-form derivative
    k = 2.1
    sigma = 0.8
    xg, yg = GRID.meshgrid()
    values = np.exp(1j * k * xg) * np.exp(-(xg ** 2 + yg ** 2) / (4 * sigma ** 2))
    psi = WaveFunction(GRID, values).normalize()
    expected = (1j * k - xg / (2 * sigma ** 2)) * psi.values
    got = DX.apply(psi).values
    assert _l2(got - expected, GRID) / _l2(expected, GRID) <= 1e-8


def test_plane_wave_on_the_frequency_lattice_is_exact():
    # k an exact grid frequency: no window needed and no spectral leakage
    k = 8 * math.pi / GRID.half_width / 2
    xg, _ = GRID.meshgrid()
    psi = WaveFunction(GRID, np.exp(1j * k * xg) / (2 * GRID.half_width))
    got = DX.apply(psi).values
    assert np.max(np.abs(got - 1j * k * psi.values)) <= 1e-10 * k


def test_multiply_derivative_commutator_is_minus_identity():
    psi = GaussianPacket(sigma=0.7).sample(GRID)
    comm = X_OP @ DX - DX @ X_OP
    got = comm.apply(psi).values
    assert _l2(got + psi.values, GRID) <= 1e-8


def test_application_is_linear():
    pk1 = GaussianPacket(center=(0.4, 0.0), sigma=0.8).sample(GRID)
    pk2 = GaussianPacket(center=(-0.3, 0.5), sigma=0.6).sample(GRID)
    op = 2.0 * (X_OP @ DY) - 0.5j * DX
    combined = WaveFunction(GRID, 1.5 * pk1.values - 2j * pk2.values)
    lhs = op.apply(combined).values
    rhs = 1.5 * op.apply(pk1).values - 2j * op.apply(pk2).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# normal form and symbolic commutation
# ---------------------------------------------------------------------------

def test_normal_form_reorders_derivative_past_multiplication():
    assert (DX @ X_OP).normal_form() == {(1, 0, 1, 0): 1.0, (0, 0, 0, 0): 1.0}
    assert (X_OP @ DX).normal_form() == {(1, 0, 1, 0): 1.0}


def test_normal_form_handles_powers():
    op = DX @ DX @ X_OP  # d^2/dx^2 (x .) = x d^2/dx^2 + 2 d/dx
    assert op.normal_form() == {(1, 0, 2, 0): 1.0, (0, 0, 1, 0): 2.0}


def test_cross_axis_primitives_commute():
    assert X_OP.commutes_with(DY)
    assert Y_OP.commutes_with(DX)
    assert DX.commutes_with(DY)
    assert X_OP.commutes_with(Y_OP)
    assert not X_OP.commutes_with(DX)


def test_operator_equality_modulo_ordering():
    lhs = X_OP @ DX + OperatorExpr.identity()
    rhs = DX @ X_OP
    assert lhs.equals(rhs)
    assert not lhs.equals(rhs + OperatorExpr.identity())


def test_composition_is_associative_on_grids():
    psi = GaussianPacket(center=(0.2, -0.1), wavevector=(0.5, 0.3),
                         sigma=0.75).sample(GRID)
    a, b, c = X_OP, DY, DX
    lhs = ((a @ b) @ c).apply(psi).values
    rhs = (a @ (b @ c)).apply(psi).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# dense materialization (the test oracle in oracles.py)
# ---------------------------------------------------------------------------

def test_dense_matrix_matches_functional_application():
    grid = GridSpec(half_width=6.0, points=24)
    psi = GaussianPacket(center=(0.3, -0.2), wavevector=(0.4, 0.1),
                         sigma=0.8).sample(grid)
    op = (1.5 * (X_OP @ DX) - 2j * DY + 0.25 * (Y_OP @ Y_OP)
          + OperatorExpr.identity())
    dense = dense_matrix(op, grid)
    via_matrix = (dense @ psi.values.ravel()).reshape(psi.values.shape)
    via_apply = op.apply(psi).values
    assert np.max(np.abs(via_matrix - via_apply)) <= 1e-10


def test_dense_momentum_is_hermitian():
    grid = GridSpec(half_width=6.0, points=20)
    p_op = dense_matrix(-1j * DX, grid)
    assert np.max(np.abs(p_op - p_op.conj().T)) <= 1e-12
