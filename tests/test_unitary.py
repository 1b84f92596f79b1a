"""Matrix-free unitary evolution: conjugation reproduces the rotated operators."""

import math

import numpy as np
import pytest

from symquant import (
    GaussianPacket,
    GridSpec,
    OperatorExpr,
    PhysParams,
    Primitive,
    PolynomialObservable,
    WaveFunction,
    conjugation_deviations,
    conjugation_probe,
    ground_packet,
    quantize_observable,
    scheme,
    standard_hamiltonians,
    unitary_evolve,
)
from symquant import lab, quantum
from oracles import dense_evolve, dense_matrix, forward_backward_conjugation, spectral_bound

P = PhysParams(1.0, 1.0, 1.0)
SMALL = GridSpec(half_width=8.0, points=32)


def _worst_gap(s, probes, grid=SMALL):
    """The largest conjugation deviation of s's probes on the default probe packet."""
    return max(conjugation_deviations(s, conjugation_probe(s.params, grid), probes))


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
    grid = GridSpec(half_width=8.0 * params.sigma_ref, points=32)
    assert _worst_gap(scheme(1, params), [("y", 0.8 / params.omega)], grid) <= 1e-5


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


@pytest.mark.parametrize("points", [16, 32])
@pytest.mark.parametrize("m_omega", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("sid", [0, 2])
def test_separable_route_matches_dense_eigendecomposition(sid, m_omega, points, monkeypatch):
    # S0 and S2 split over the axes, so they evolve in closed form from the
    # eigensystems of two N x N factors, and build no stencil
    monkeypatch.setattr(quantum, "_generator_stencil", None)
    params = PhysParams(m=m_omega / 1.3, omega=1.3, hbar=0.7)
    ref = params.sigma_ref
    grid = GridSpec(half_width=8.0 * ref, points=points)
    psi = GaussianPacket(center=(0.4 * ref, -0.2 * ref), wavevector=(0.5 / ref, 0.3 / ref),
                         sigma=params.ground_sigma).sample(grid)
    s = scheme(sid, params)
    times = tuple(tau / params.omega for tau in (-1.1, 0.3, 1.7, 6.0))
    for t, dense in zip(times, dense_evolve(s, psi, times)):
        assert np.max(np.abs(unitary_evolve(s, psi, t).values - dense.values)) <= 1e-10, t


def test_a_generator_that_mixes_the_axes_takes_the_recurrence(monkeypatch):
    # S0 plus an x y potential no longer splits over the axes
    coupled = PolynomialObservable({**standard_hamiltonians(1, 1)[0].terms, (1, 1, 0, 0): 0.25})
    monkeypatch.setattr(quantum, "_generator_polynomial", lambda _: coupled)
    s = scheme(0, P)
    generator = quantize_observable(s, coupled)
    assert quantum._separable_factors(generator, generator.normal_form(), SMALL) is None
    runs = []
    propagate = quantum._propagate
    monkeypatch.setattr(quantum, "_propagate", lambda *args: runs.append(args) or propagate(*args))
    grid = GridSpec(half_width=8.0, points=16)
    psi = ground_packet(P, center=(0.4, -0.2), wavevector=(0.5, 0.3)).sample(grid)
    evolved = unitary_evolve(s, psi, 0.7)
    assert len(runs) == 1
    mat = dense_matrix(quantize_observable(s, coupled), grid)
    evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    dense = evecs @ (np.exp(-0.7j * evals / P.hbar) * (evecs.conj().T @ psi.values.ravel()))
    assert np.max(np.abs(evolved.values.ravel() - dense)) <= 1e-10


def _generator(s):
    return quantize_observable(s, quantum._generator_polynomial(s))


def test_generators_multiply_only_grid_commuting_primitives():
    # the stencil acts with S's normal form; that equals S's written products
    # only if no product pairs a coordinate with the derivative along its axis
    same_axis = ({Primitive.X, Primitive.DX}, {Primitive.Y, Primitive.DY})
    for sid in range(4):
        for _, prod in _generator(scheme(sid, P)).terms:
            assert not any(pair <= set(prod) for pair in same_axis), (sid, prod)


@pytest.mark.parametrize("sid", range(4))
def test_stencil_acts_like_the_quantized_generator(sid):
    # the stencil applies (S - c) / r with 1-D factors, to one field or a stack
    s = scheme(sid, P)
    packets = [ground_packet(P, center=c, wavevector=k)
               for c, k in (((0.4, -0.2), (0.5, 0.3)), ((-1.0, 0.5), (0.0, -1.2)),
                            ((0.0, 0.0), (0.0, 0.0)))]
    for points in (16, 32, 64, 128):
        grid = GridSpec(half_width=8.0, points=points)
        fields = np.stack([packet.sample(grid).values for packet in packets])
        expected = np.stack([_generator(s).apply(WaveFunction(grid, f)).values for f in fields])
        stencil = quantum._generator_stencil(_generator(s).normal_form(), grid)
        for values, target in ((fields[0], expected[0]), (fields, expected)):
            acted = (stencil.half_width * stencil.step(values, np.empty_like(values))
                     + stencil.center * values)
            assert np.max(np.abs(acted - target)) <= 1e-12 * np.max(np.abs(target)), points


def test_unitary_check_runs_its_orders_without_fft(monkeypatch):
    # S0 and S2 evolve in closed form; S1 and S3 run 165 + 166 = 331 stacked
    # orders on the default scenario: T_0, then one stencil step per order on
    # the (3, 32, 32) stack, none of them an FFT
    steps, in_step, ffts = [], [], []
    step = quantum._Stencil.step

    def counted_step(self, values, out):
        steps.append(values.shape)
        in_step.append(True)
        try:
            return step(self, values, out)
        finally:
            in_step.pop()

    def counted(name, transform):
        return lambda *args, **kwargs: (ffts.append(name) if in_step else None) or \
            transform(*args, **kwargs)

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    monkeypatch.setattr(quantum._Stencil, "step", counted_step)
    orders = []
    propagate = quantum._propagate

    def counted_propagate(*args):
        before = len(steps)
        out = propagate(*args)
        orders.append(len(steps) - before + 1)
        return out

    monkeypatch.setattr(quantum, "_propagate", counted_propagate)
    result = lab._check_unitary(lab.default_scenario())
    assert result.detail == "max conjugation deviation 7.266e-07"
    assert orders == [165, 166] and sum(orders) == 331
    assert set(steps) == {(3, 32, 32)}
    assert ffts == []


@pytest.mark.parametrize("sid", range(4))
def test_stencil_radius_matches_the_term_by_term_bound(sid):
    s = scheme(sid, P)
    stencil = quantum._generator_stencil(_generator(s).normal_form(), SMALL)
    bound = spectral_bound(_generator(s), SMALL)
    # the symmetric radius the propagator used before the centre shift: S2 =
    # (p_y^2 - p_x^2) / 2m + m omega^2 (y^2 - x^2) / 2 merges its terms to half
    # of their summed norms
    symmetric = bound / 2 if sid == 2 else bound
    assert stencil.half_width <= symmetric * (1 + 1e-14)
    if sid == 0:
        # V and K0 are both >= 0, so the interval [0, max V + max K0] is half as wide
        assert stencil.half_width == pytest.approx(bound / 2, rel=1e-14)
        assert stencil.center == pytest.approx(bound / 2, rel=1e-14)
    tiny = GridSpec(half_width=8.0, points=16)
    small = quantum._generator_stencil(_generator(s).normal_form(), tiny)
    dense = dense_matrix(_generator(s), tiny)
    spectrum = np.linalg.eigvalsh((dense + dense.conj().T) / 2.0)
    assert small.center - small.half_width <= spectrum.min()
    assert spectrum.max() <= small.center + small.half_width


def test_propagator_applies_no_operator_expression(monkeypatch):
    def refuse(self, psi):
        raise AssertionError("OperatorExpr.apply called")

    monkeypatch.setattr(OperatorExpr, "apply", refuse)
    psi = ground_packet(P, center=(0.3, 0.1)).sample(SMALL)
    for sid in range(4):
        assert abs(unitary_evolve(scheme(sid, P), psi, 0.7).norm() - 1.0) <= 1e-8


def test_conjugation_check_builds_one_stencil(monkeypatch):
    # a scheme's generator is compiled once for all of its conjugation probes;
    # only S1 and S3, whose generators mix the axes, need a stencil
    builds = []
    build = quantum._generator_stencil
    monkeypatch.setattr(quantum, "_generator_stencil",
                        lambda nf, grid: builds.append(nf) or build(nf, grid))
    assert _worst_gap(scheme(3, P), [("x", 0.6), ("p_x", 1.1)]) <= 1e-5
    assert builds == [_generator(scheme(3, P)).normal_form()]
    del builds[:]
    result = lab._check_unitary(lab.default_scenario())
    assert builds == [_generator(scheme(sid, P)).normal_form() for sid in (1, 3)]
    assert result.detail == "max conjugation deviation 7.266e-07"


def test_each_generator_is_quantized_and_normal_ordered_once(monkeypatch):
    # both routes read the one normal form _propagator computes: S0 and S2
    # test it for separability, S1 and S3 also compile their stencil from it
    generators, orderings = [], []
    quantize, normal_form = quantum.quantize_observable, OperatorExpr.normal_form

    def recorded_quantize(s, f):
        generators.append(quantize(s, f))
        return generators[-1]

    def recorded_normal_form(self):
        if any(self is op for op in generators):
            orderings.append(self)
        return normal_form(self)

    monkeypatch.setattr(quantum, "quantize_observable", recorded_quantize)
    monkeypatch.setattr(OperatorExpr, "normal_form", recorded_normal_form)
    result = lab._check_unitary(lab.default_scenario())
    assert result.detail == "max conjugation deviation 7.266e-07"
    assert len(generators) == 4
    assert len(orderings) == 4 and all(a is b for a, b in zip(orderings, generators))


def test_conjugation_check_evolves_forward_only(monkeypatch):
    # S1 and S3 each run one recurrence, over the stack [psi, x(t1) psi, p_x(t2) psi]
    runs = []
    propagate = quantum._propagate
    monkeypatch.setattr(quantum, "_propagate", lambda stencil, states, hbar, jobs:
                        runs.append((states.shape[0], jobs)) or propagate(stencil, states, hbar, jobs))
    lab._check_unitary(lab.default_scenario())
    assert runs == [(3, [(0, 0.6), (0, 1.1), (1, 0.6), (2, 1.1)])] * 2


@pytest.mark.parametrize("hbar", [0.5, 2.0])
@pytest.mark.parametrize("m_omega", [1e-3, 1.0, 1e3])
def test_conjugation_matches_the_forward_backward_oracle(m_omega, hbar):
    omega = 1.3
    params = PhysParams(m=m_omega / omega, omega=omega, hbar=hbar)
    grid = GridSpec(half_width=8.0 * params.sigma_ref, points=32)
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


def test_norm_guard_rejects_a_non_hermitian_generator(monkeypatch):
    # x p_x + i hbar / 2 quantizes to the unsymmetrized product x (hbar/i) d/dx,
    # whose anti-Hermitian part i hbar / 2 grows the norm by exp(t / 2)
    s = scheme(0, P)
    unsymmetrized = PolynomialObservable({(1, 0, 1, 0): 1, (0, 0, 0, 0): 0.5j * P.hbar})
    assert quantize_observable(s, unsymmetrized).equals(
        s.fundamental("x") @ s.fundamental("p_x"))
    monkeypatch.setattr(quantum, "_generator_polynomial", lambda _: unsymmetrized)
    # it splits over the axes, but eigh would drop its anti-Hermitian part,
    # so it takes the recurrence, whose norm guard reports it
    generator = quantize_observable(s, unsymmetrized)
    assert quantum._separable_factors(generator, generator.normal_form(), SMALL) is None
    psi = ground_packet(P).sample(SMALL)
    with pytest.raises(RuntimeError, match="changed the norm"):
        unitary_evolve(s, psi, 0.3)


def test_norm_guard_holds_on_the_stacked_check(monkeypatch):
    # the same non-Hermitian generator, through the per-scheme recurrence
    unsymmetrized = PolynomialObservable({(1, 0, 1, 0): 1, (0, 0, 0, 0): 0.5j * P.hbar})
    monkeypatch.setattr(quantum, "_generator_polynomial", lambda _: unsymmetrized)
    with pytest.raises(RuntimeError, match="changed the norm"):
        lab._check_unitary(lab.default_scenario())


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
