"""Matrix-free unitary evolution: conjugation reproduces the rotated operators."""

import math

import numpy as np
import pytest

from symquant import (
    GridSpec,
    PhysParams,
    PolynomialObservable,
    ground_packet,
    quantize_observable,
    scheme,
    unitary_conjugation_check,
    unitary_evolve,
)
from symquant import quantum
from oracles import dense_evolve, dense_matrix

P = PhysParams(1.0, 1.0, 1.0)
SMALL = GridSpec(half_width=8.0, points=32)


def test_zero_time_conjugation_is_exact():
    for sid in range(4):
        dev = unitary_conjugation_check(scheme(sid, P), "x", 0.0, SMALL)
        assert dev <= 1e-12


def test_conjugation_matches_heisenberg_rotation():
    assert unitary_conjugation_check(scheme(0, P), "x", 0.6, SMALL) <= 1e-5
    assert unitary_conjugation_check(scheme(3, P), "p_x", 1.1, SMALL) <= 1e-5


def test_conjugation_all_schemes_all_observables():
    for sid in range(4):
        s = scheme(sid, P)
        for which in ("x", "y", "p_x", "p_y"):
            assert unitary_conjugation_check(s, which, 0.6, SMALL) <= 1e-5


def test_generic_parameters():
    params = PhysParams(m=2.5, omega=1.3, hbar=0.7)
    grid = GridSpec(half_width=8.0 * params.sigma_ref, points=32)
    assert unitary_conjugation_check(scheme(1, params), "y",
                                     0.8 / params.omega, grid) <= 1e-5


def test_evolution_preserves_the_norm():
    psi = ground_packet(P, center=(0.4, -0.2), wavevector=(0.5, 0.3)).sample(SMALL)
    for sid in range(4):
        s = scheme(sid, P)
        for t in (0.3, 1.7, 6.0):
            assert abs(unitary_evolve(s, psi, t).norm() - 1.0) <= 1e-8


def test_evolution_composes():
    psi = ground_packet(P, center=(0.3, 0.1)).sample(SMALL)
    s = scheme(0, P)
    twice = unitary_evolve(s, unitary_evolve(s, psi, 0.4), 0.7)
    direct = unitary_evolve(s, psi, 1.1)
    assert np.max(np.abs(twice.values - direct.values)) <= 1e-10


def test_matches_dense_eigendecomposition():
    psi = ground_packet(P, center=(0.4, -0.2), wavevector=(0.5, 0.3)).sample(SMALL)
    times = (-1.1, 0.3, 1.7, 6.0)
    for sid in range(4):
        s = scheme(sid, P)
        for t, dense in zip(times, dense_evolve(s, psi, times)):
            assert np.max(np.abs(unitary_evolve(s, psi, t).values - dense.values)) <= 1e-10


def test_large_grid_accepted():
    # a dense generator would be 4096 x 4096 here; the propagator never forms it
    big = GridSpec(half_width=8.0, points=64)
    assert unitary_conjugation_check(scheme(0, P), "x", 0.6, big) <= 1e-5
    assert unitary_conjugation_check(scheme(3, P), "p_x", 1.1, big) <= 1e-5


def test_norm_guard_rejects_a_non_hermitian_generator(monkeypatch):
    # x p_x + i hbar / 2 quantizes to the unsymmetrized product x (hbar/i) d/dx,
    # whose anti-Hermitian part i hbar / 2 grows the norm by exp(t / 2)
    s = scheme(0, P)
    unsymmetrized = PolynomialObservable({(1, 0, 1, 0): 1, (0, 0, 0, 0): 0.5j * P.hbar})
    assert quantize_observable(s, unsymmetrized).equals(
        s.fundamental("x") @ s.fundamental("p_x"))
    monkeypatch.setattr(quantum, "_generator_polynomial", lambda _: unsymmetrized)
    psi = ground_packet(P).sample(SMALL)
    with pytest.raises(RuntimeError, match="changed the norm"):
        unitary_evolve(s, psi, 0.3)


def test_grid_mismatch_rejected():
    psi = ground_packet(P).sample(GridSpec(half_width=8.0, points=16))
    with pytest.raises(ValueError, match="grid mismatch"):
        unitary_conjugation_check(scheme(0, P), "x", 0.5, SMALL, psi=psi)


def test_explicit_matrix_exponential_oracle():
    # independent route: scipy-free series-squaring exponential of the dense
    # generator applied to the state, for one scheme and time
    from symquant import standard_hamiltonians
    from symquant.quantum import heisenberg_operator

    s = scheme(2, P)
    t = 0.6
    generator = dense_matrix(quantize_observable(s, standard_hamiltonians(1, 1)[2]),
                             SMALL)
    a = -1j * generator * t / P.hbar
    # scaling and squaring with a plain Taylor kernel
    squarings = max(0, int(math.ceil(math.log2(max(1.0, np.linalg.norm(a, 1))))) + 4)
    small = a / (2 ** squarings)
    term = np.eye(small.shape[0], dtype=complex)
    expm = term.copy()
    for k in range(1, 18):
        term = term @ small / k
        expm += term
    for _ in range(squarings):
        expm = expm @ expm

    psi = ground_packet(P, center=(0.5, -0.3), wavevector=(0.4, 0.2)).sample(SMALL)
    forward = expm @ psi.values.ravel()
    acted = s.fundamental("x").apply(
        type(psi)(SMALL, forward.reshape(psi.values.shape))).values.ravel()
    back = np.conj(expm.T) @ acted
    target = heisenberg_operator(s, "x", t).apply(psi).values.ravel()
    rel = np.linalg.norm(back - target) / np.linalg.norm(target)
    assert rel <= 1e-5
