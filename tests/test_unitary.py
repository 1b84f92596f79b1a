"""Closed-form unitary evolution: conjugation reproduces the rotated operators."""

import math

import numpy as np
import pytest

from symquant import (
    GaussianPacket,
    GridSpec,
    PhysParams,
    PolynomialObservable,
    conjugation_deviations,
    conjugation_probe,
    ground_packet,
    heisenberg_moments,
    scheme,
    standard_hamiltonians,
    unitary_evolve,
)
from symquant import lab, quantum
from oracles import (apply, dense_matrix, dense_shear_evolve, evolved_packet,
                     forward_backward_conjugation, fundamental, generator, heisenberg_observable,
                     sampled_gaussian)

P = PhysParams(1.0, 1.0, 1.0)
# the unitary group's grid at P: half-width 8 sigma_ref, N = 48
GRID = GridSpec(half_width=8.0, points=48)
FFTS = ("fft", "ifft", "fft2", "ifft2")


def _worst_gap(s, probes, grid=GRID):
    """The largest conjugation deviation of s's probes on the default probe packet."""
    return max(conjugation_deviations(s, conjugation_probe(s.params).sample(grid), probes))


def test_zero_time_conjugation_is_exact():
    for sid in range(4):
        assert _worst_gap(scheme(sid, P), [("x", 0.0)]) <= 1e-12


def test_conjugation_matches_heisenberg_rotation():
    assert _worst_gap(scheme(0, P), [("x", 0.6)]) <= 1e-5
    assert _worst_gap(scheme(3, P), [("p_x", 1.1)]) <= 1e-5


def test_conjugation_all_schemes_all_observables():
    for sid in range(4):
        assert _worst_gap(scheme(sid, P), [(which, 0.6) for which in ("x", "y", "p_x", "p_y")]) \
            <= 1e-5


def test_generic_parameters():
    params = PhysParams(m=2.5, omega=1.3, hbar=0.7)
    grid = GridSpec(half_width=8.0 * params.sigma_ref, points=48)
    assert _worst_gap(scheme(1, params), [("y", 0.8 / params.omega)], grid) <= 1e-5


def test_evolution_preserves_the_norm():
    psi = ground_packet(P, center=(0.4, -0.2), wavevector=(0.5, 0.3)).sample(GRID)
    for sid in range(4):
        s = scheme(sid, P)
        for t in (0.3, 1.7, 6.0):
            assert abs(unitary_evolve(s, psi, t).norm() - 1.0) <= 1e-8


def test_evolution_composes():
    psi = ground_packet(P, center=(0.3, 0.1)).sample(GRID)
    for sid in range(4):
        s = scheme(sid, P)
        twice = unitary_evolve(s, unitary_evolve(s, psi, 0.4), 0.7)
        direct = unitary_evolve(s, psi, 1.1)
        assert np.max(np.abs(twice.values - direct.values)) <= 1e-10, sid


@pytest.mark.parametrize("m_omega", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("sid", range(4))
def test_evolution_matches_the_gaussian_oracle(sid, m_omega):
    # the ground-width packet stays a Gaussian whose centre and wavevector
    # follow the classical flow; S3 keeps its phase too, S0-S2 up to a global
    # one.  At 10 sigma_ref the packet's tails are below roundoff at the seam
    # (at the group's 8 sigma_ref they put 6e-12 of the peak into the gap)
    params = PhysParams(m=m_omega / 1.3, omega=1.3, hbar=0.7)
    ref = params.sigma_ref
    grid = GridSpec(half_width=10.0 * ref, points=64)
    packet = GaussianPacket(center=(0.4 * ref, -0.2 * ref), wavevector=(0.5 / ref, 0.3 / ref),
                            sigma=params.ground_sigma)
    psi = packet.sample(grid)
    s = scheme(sid, params)
    for omega_t in (-1.7, 0.6, 1.1, 2.9):
        t = omega_t / params.omega
        evolved = unitary_evolve(s, psi, t).values
        expected = sampled_gaussian(*evolved_packet(sid, packet, t, params), packet.sigma, grid)
        if sid != 3:
            overlap = np.vdot(expected, evolved)
            expected = expected * overlap / abs(overlap)
        assert np.max(np.abs(evolved - expected)) <= 1e-10, omega_t


@pytest.mark.parametrize("points", [16, 32])
@pytest.mark.parametrize("m_omega", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("sid", [0, 2])
def test_separable_route_matches_dense_eigendecomposition(sid, m_omega, points):
    # S0 and S2 split into a position and a derivative part, so they evolve by
    # the shear product of those parts' exponentials.  On grids too coarse to
    # resolve the packet the product is not exp(-i S t / hbar) of the grid's
    # S, but it is still the dense eigendecompositions' shear product
    params = PhysParams(m=m_omega / 1.3, omega=1.3, hbar=0.7)
    ref = params.sigma_ref
    grid = GridSpec(half_width=8.0 * ref, points=points)
    psi = GaussianPacket(center=(0.4 * ref, -0.2 * ref), wavevector=(0.5 / ref, 0.3 / ref),
                         sigma=params.ground_sigma).sample(grid)
    s = scheme(sid, params)
    for tau in (-1.1, 0.3, 1.7, 6.0):
        t = tau / params.omega
        dense = dense_shear_evolve(generator(sid, params), psi, t, params.omega, params.hbar)
        assert np.max(np.abs(unitary_evolve(s, psi, t).values - dense)) <= 1e-10, t


def _counted_ffts(monkeypatch):
    calls = []
    for name in FFTS:
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _f=transform, _n=name, **kwargs:
                            calls.append(_n) or _f(*args, **kwargs))
    return calls


@pytest.mark.parametrize("sid", [1, 3])
def test_long_times_reduce_modulo_the_period(sid, monkeypatch):
    # every generator has period 2 pi / omega, so omega t = 1000.6 costs what
    # its remainder costs, at most 4 steps, and gives the same state
    s = scheme(sid, P)
    psi = ground_packet(P, center=(0.4, -0.2), wavevector=(0.5, 0.3)).sample(GRID)
    calls = _counted_ffts(monkeypatch)
    states, counts = [], []
    for omega_t in (1000.6, math.fmod(1000.6, 2.0 * math.pi), 3.1):
        del calls[:]
        states.append(unitary_evolve(s, psi, omega_t / P.omega).values)
        counts.append(len(calls))
    assert np.max(np.abs(states[0] - states[1])) <= 1e-10
    # a step is fft2 + ifft2, or three pairs of 1-D FFTs; 3.1 takes the most, 4
    per_step = 2 if sid == 1 else 6
    assert counts[0] == counts[1] <= counts[2] == 4 * per_step


@pytest.mark.parametrize("sid", range(4))
def test_propagator_is_generated_by_the_quantized_generator(sid):
    # i hbar d/dt U(t) psi = S psi at t = 0, by a central difference, with S
    # quantized by hand and applied on the grid by the oracle
    s = scheme(sid, P)
    eps = 1e-4
    for center, wavevector in (((0.4, -0.2), (0.5, 0.3)), ((-1.0, 0.5), (0.0, -1.2))):
        psi = ground_packet(P, center=center, wavevector=wavevector).sample(GRID)
        ahead, behind = (unitary_evolve(s, psi, tau).values for tau in (eps, -eps))
        rate = (ahead - behind) / (2 * eps)
        expected = -1j / P.hbar * apply(generator(sid, P), psi.values, GRID)
        assert np.max(np.abs(rate - expected)) <= 1e-6 * np.max(np.abs(expected))


def test_the_route_follows_the_normal_form_not_the_scheme(monkeypatch):
    # under scheme 0, x p_y - y p_x is -i hbar (x d_y - y d_x): the rotation
    # route turns the plane by -t
    monkeypatch.setattr(quantum, "_generator_polynomial", lambda _: PolynomialObservable(
        {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}))
    packet = GaussianPacket(center=(0.6, -0.3), wavevector=(0.4, 0.9), sigma=0.8)
    grid = GridSpec(half_width=10.0, points=64)
    turned = unitary_evolve(scheme(0, P), packet.sample(grid), 1.1).values
    c, s = math.cos(-1.1), math.sin(-1.1)
    rotate = lambda v: (c * v[0] + s * v[1], -s * v[0] + c * v[1])  # R(-1.1)^T v
    expected = sampled_gaussian(rotate(packet.center), rotate(packet.wavevector), 0.8, grid)
    assert np.max(np.abs(turned - expected)) <= 1e-10


def _with_generator(monkeypatch, terms):
    monkeypatch.setattr(quantum, "_generator_polynomial", lambda _: PolynomialObservable(terms))


S0_TERMS = standard_hamiltonians(1, 1)[0].terms


@pytest.mark.parametrize("terms", [
    {**S0_TERMS, (1, 1, 0, 0): 0.25},  # couples the axes: A B is not a multiple of I
    {key: c if key[2] + key[3] else -c for key, c in S0_TERMS.items()},  # inverted: A B = -I
    {(0, 0, 2, 0): 0.5, (2, 0, 0, 0): 0.5},  # one axis only: A B is singular
    {**S0_TERMS, (1, 0, 0, 0): 0.1},  # a linear term
    {(1, 0, 0, 1): 1, (0, 1, 1, 0): -2},  # an uneven rotation
    # not Hermitian: the unsymmetrized product x (hbar/i) d/dx, whose
    # anti-Hermitian part i hbar / 2 would grow the norm by exp(t / 2) ...
    {(1, 0, 1, 0): 1, (0, 0, 0, 0): 0.5j * P.hbar},
    {**S0_TERMS, (2, 0, 0, 0): 0.5 + 0.1j},  # ... an absorbing potential ...
    {(1, 0, 0, 1): 1j, (0, 1, 1, 0): -1j},  # ... hbar (x d_y - y d_x), a real c
], ids=["coupled", "inverted", "one-axis", "linear", "uneven",
        "unsymmetrized", "absorbing", "real-rotation"])
def test_an_unrecognised_normal_form_raises(terms, monkeypatch):
    _with_generator(monkeypatch, terms)
    psi = ground_packet(P).sample(GRID)
    with pytest.raises(ValueError, match="no closed-form propagator"):
        unitary_evolve(scheme(0, P), psi, 0.3)


def test_an_unrecognised_generator_fails_the_unitary_group(monkeypatch):
    # the domain gate admits every scenario the propagator serves, so a
    # generator no route fits is a library defect: the group fails and names
    # the scheme, and no config error is raised
    _with_generator(monkeypatch, {(1, 0, 1, 0): 1, (0, 0, 0, 0): 0.5j * P.hbar})
    result = lab._check_unitary(lab.default_scenario(), [scheme(sid, P) for sid in range(4)])
    assert result.status == "fail"
    assert result.detail.startswith("scheme 0: no closed-form propagator for the generator ")


def test_generators_multiply_only_grid_commuting_primitives():
    # S = (1/2) sum_ab M_ab P_a P_b is Weyl-ordered; the routes read M's
    # blocks as the written products, which holds on the grid only if M pairs
    # no coordinate with the derivative along its own axis
    for sid in range(4):
        gen = quantum._generator_matrix(scheme(sid, P))
        assert gen[0, 2] == gen[2, 0] == gen[1, 3] == gen[3, 1] == 0, sid


def test_propagator_applies_no_operator_expression(monkeypatch):
    # the propagator is phases and FFTs: it makes no primitive grid action
    def refuse(p, values, grid):
        raise AssertionError("a primitive grid action was applied")

    monkeypatch.setattr(quantum, "_apply_primitive", refuse)
    psi = ground_packet(P, center=(0.3, 0.1)).sample(GRID)
    for sid in range(4):
        assert abs(unitary_evolve(scheme(sid, P), psi, 0.7).norm() - 1.0) <= 1e-8


def _recorded_propagators(monkeypatch):
    """(scheme id, [(stack shape, t), ...]) of each propagator built, as it is used."""
    built = []
    propagator = quantum._propagator

    def recorded(s, grid):
        evolve, runs = propagator(s, grid), []
        built.append((s.id, runs))
        return lambda values, t: runs.append((values.shape, t)) or evolve(values, t)

    monkeypatch.setattr(quantum, "_propagator", recorded)
    return built


def test_conjugation_check_builds_one_propagator_per_scheme(monkeypatch):
    # a scheme's generator is compiled once for all of its conjugation probes
    built = _recorded_propagators(monkeypatch)
    assert _worst_gap(scheme(3, P), [("x", 0.6), ("p_x", 1.1)]) <= 1e-5
    assert [sid for sid, _ in built] == [3]
    del built[:]
    result = lab._check_unitary(lab.default_scenario(), [scheme(sid, P) for sid in range(4)])
    assert [sid for sid, _ in built] == [0, 1, 2, 3]
    assert result.detail == "max conjugation deviation 2.799e-11"


def test_each_generator_matrix_is_built_once(monkeypatch):
    # the route is read off the one matrix _propagator builds per scheme
    built = []
    generator_matrix = quantum._generator_matrix
    monkeypatch.setattr(quantum, "_generator_matrix",
                        lambda s: built.append(s.id) or generator_matrix(s))
    result = lab._check_unitary(lab.default_scenario(), [scheme(sid, P) for sid in range(4)])
    assert result.detail == "max conjugation deviation 2.799e-11"
    assert built == [0, 1, 2, 3]


def test_conjugation_check_evolves_forward_only(monkeypatch):
    # each probe evolves the stack [psi, O(t) psi] forward to its own t
    built = _recorded_propagators(monkeypatch)
    lab._check_unitary(lab.default_scenario(), [scheme(sid, P) for sid in range(4)])
    assert [runs for _, runs in built] == [[((2, 48, 48), 0.6), ((2, 48, 48), 1.1)]] * 4


@pytest.mark.parametrize("hbar", [0.5, 2.0])
@pytest.mark.parametrize("m_omega", [1e-3, 1.0, 1e3])
def test_conjugation_matches_the_forward_backward_oracle(m_omega, hbar):
    omega = 1.3
    params = PhysParams(m=m_omega / omega, omega=omega, hbar=hbar)
    grid = GridSpec(half_width=8.0 * params.sigma_ref, points=48)
    # the probe in oscillator units, so it is localized at every m omega and hbar
    psi = GaussianPacket(center=(0.5 * params.sigma_ref, -0.3 * params.sigma_ref),
                         wavevector=(0.4 / params.sigma_ref, 0.2 / params.sigma_ref),
                         sigma=params.ground_sigma).sample(grid)
    probes = (("x", 0.6 / omega), ("p_x", 1.1 / omega))
    for sid in range(4):
        s = scheme(sid, params)
        stacked = conjugation_deviations(s, psi, probes)
        for (which, t), dev in zip(probes, stacked):
            expected = forward_backward_conjugation(s, which, t, psi)
            assert abs(dev - expected) <= 1e-12, (sid, which)
            assert dev <= 1e-5


def test_large_grid_accepted():
    # a dense generator would be 4096 x 4096 here; the propagator never forms it
    big = GridSpec(half_width=8.0, points=64)
    assert _worst_gap(scheme(0, P), [("x", 0.6)], big) <= 1e-5
    assert _worst_gap(scheme(3, P), [("p_x", 1.1)], big) <= 1e-5


def test_explicit_matrix_exponential_oracle():
    # independent route: scipy-free series-squaring exponential of the dense,
    # hand-quantized generator applied to the state, for one scheme and time,
    # on a grid of N = 32 that a dense 1024 x 1024 matrix affords
    small = GridSpec(half_width=8.0, points=32)
    t = 0.6
    a = -1j * dense_matrix(generator(2, P), small) * t / P.hbar
    # scaling and squaring with a plain Taylor kernel
    squarings = max(0, int(math.ceil(math.log2(max(1.0, np.linalg.norm(a, 1))))) + 4)
    scaled = a / (2 ** squarings)
    # the degree-17 Taylor polynomial, evaluated as Paterson and Stockmeyer do:
    # the powers 0-4 of the scaled matrix are formed once, and Horner's rule in
    # the fourth power runs over blocks of four terms, 7 products in all
    powers = [np.eye(scaled.shape[0], dtype=complex), scaled]
    for _ in range(3):
        powers.append(powers[-1] @ scaled)
    expm = 0
    for j in reversed(range(5)):
        block = sum(powers[i] / math.factorial(4 * j + i) for i in range(4) if 4 * j + i <= 17)
        expm = block + (expm @ powers[4] if j < 4 else 0)
    for _ in range(squarings):
        expm = expm @ expm

    packet = ground_packet(P, center=(0.5, -0.3), wavevector=(0.4, 0.2))
    psi = packet.sample(small)
    forward = expm @ psi.values.ravel()
    acted = apply(fundamental(2, "x", P), forward.reshape(psi.values.shape), small).ravel()
    back = np.conj(expm.T) @ acted
    target = apply(heisenberg_observable(2, "x", t, P), psi.values, small).ravel()
    rel = np.linalg.norm(back - target) / np.linalg.norm(target)
    assert rel <= 1e-5
    # the library's moment engine, which reads the rotation off flow_jacobian,
    # gives the mean <psi|U^dagger x U|psi> the dense exponential gives
    dense_mean = np.vdot(forward, acted) * small.spacing ** 2
    (means, _), = heisenberg_moments([scheme(2, P)], packet, small, (t,))
    assert abs(dense_mean - means[0, 0]) <= 1e-5
