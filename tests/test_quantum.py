"""Scheme construction, commutator realization, Heisenberg evolution, moments."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symquant import (
    CANONICAL_PAIRS,
    GaussianPacket,
    GridSpec,
    LocalizationWarning,
    OperatorExpr,
    Primitive,
    PhysParams,
    commutator_table_check,
    default_scenario,
    expectation,
    ground_packet,
    heisenberg_moments,
    heisenberg_operator,
    kernel_overlap,
    quantization_needs_symmetrization,
    quantize_observable,
    run_scenario,
    scheme,
    standard_forms,
    standard_hamiltonians,
    standard_pairs,
    two_time_commutator,
    uncertainty_bound,
    uncertainty_product,
    coordinates,
    WaveFunction,
)
from symquant import lab, quantum
from symquant.flow import flow_jacobian
from oracles import (
    applied_commutator,
    applied_variance,
    commutator_deviations,
    heisenberg_mean,
    heisenberg_uncertainty,
    quadrature_mean,
)

P = PhysParams(1.0, 1.0, 1.0)
P2 = PhysParams(m=2.5, omega=1.3, hbar=0.7)
GRID = GridSpec(half_width=8.0, points=128)
OBS = ("x", "y", "p_x", "p_y")

X_OP = OperatorExpr.primitive(Primitive.X)
Y_OP = OperatorExpr.primitive(Primitive.Y)
DX = OperatorExpr.primitive(Primitive.DX)
DY = OperatorExpr.primitive(Primitive.DY)

PACKET = GaussianPacket(center=(1.0, 0.0), wavevector=(1.0, 0.0),
                        sigma=1.0 / math.sqrt(2.0))


def _grid_for(params: PhysParams) -> GridSpec:
    return GridSpec(half_width=8.0 * params.sigma_ref, points=128)


def _packet_for(params: PhysParams) -> GaussianPacket:
    s = params.sigma_ref
    return GaussianPacket(center=(0.6 * s, -0.4 * s),
                          wavevector=(1.2 / s, 0.5 / s),
                          sigma=0.8 * s)


# ---------------------------------------------------------------------------
# scheme construction
# ---------------------------------------------------------------------------

def test_scheme_assignments_match_the_representations():
    hb = P2.hbar
    mw = P2.m * P2.omega
    s0, s1, s2, s3 = (scheme(i, P2) for i in range(4))
    assert s0.fundamental("p_x").equals(-1j * hb * DX)
    assert s0.fundamental("p_y").equals(-1j * hb * DY)
    assert s1.fundamental("p_x").equals(-1j * hb * DY)
    assert s1.fundamental("p_y").equals(-1j * hb * DX)
    assert s2.fundamental("p_x").equals(1j * hb * DX)
    assert s2.fundamental("p_y").equals(-1j * hb * DY)
    assert s3.fundamental("x").equals(X_OP)
    assert s3.fundamental("p_x").equals(mw * Y_OP)
    assert s3.fundamental("y").equals((1j * hb / mw) * DX)
    assert s3.fundamental("p_y").equals(1j * hb * DY)


def test_unknown_scheme_id():
    with pytest.raises(ValueError, match="unknown id"):
        scheme(4, P)


def test_commutator_table_is_dirac_rule():
    # scheme() reads the raw bracket matrix, which must equal the validated form
    for params in (P, P2, PhysParams(m=1e-7, omega=1.0, hbar=1.0)):
        for sid in range(4):
            s = scheme(sid, params)
            upper = standard_forms(params.m, params.omega)[sid].upper_array()
            assert np.array_equal(s.commutators, 1j * params.hbar * upper)


def test_scheme_validates_and_inverts_no_form(form_work):
    for params in (P, P2):
        for sid in range(4):
            scheme(sid, params)
    assert form_work == {"invert_exact": 0, "form_init": 0}


def test_run_scenario_builds_forms_only_for_its_pair_residuals(form_work):
    # one standard_pairs call builds one form, the float W3; the forms of
    # W0..W2 are module constants, shared by every call
    pairs = standard_pairs(1.0, 1.0)
    expected = dict(form_work)
    assert expected == {"invert_exact": 0, "form_init": 1}
    assert all(p.form is q.form for p, q in zip(pairs[:3], standard_pairs(2.0, 3.0)))
    form_work.update(invert_exact=0, form_init=0)
    run_scenario(default_scenario())
    assert form_work == expected


def test_specific_table_entries():
    hb, mw = P2.hbar, P2.m * P2.omega
    assert scheme(0, P2).commutators[0, 2] == 1j * hb
    assert scheme(2, P2).commutators[0, 2] == -1j * hb
    s3 = scheme(3, P2).commutators
    assert s3[0, 1] == pytest.approx(-1j * hb / mw)
    assert s3[2, 3] == pytest.approx(-1j * hb * mw)


@pytest.mark.parametrize("mw", [1.0, 1e-7, 1e7])
def test_canonical_pairs_are_the_nonzero_upper_table_entries(mw):
    # CANONICAL_PAIRS is derived once from the bracket matrices at m = omega = 1;
    # the nonzero pattern of each table must not move with m omega
    params = PhysParams(m=mw, omega=1.0, hbar=0.7)
    for sid in range(4):
        table = scheme(sid, params).commutators
        nonzero = tuple((OBS[i], OBS[j]) for i in range(4) for j in range(i + 1, 4)
                        if table[i, j] != 0)
        assert CANONICAL_PAIRS[sid] == nonzero


# ---------------------------------------------------------------------------
# commutator realization on the grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [P, P2], ids=["unit", "generic"])
def test_commutator_tables_realized(params):
    grid = _grid_for(params)
    psi = ground_packet(params).sample(grid)
    schemes = [scheme(sid, params) for sid in range(4)]
    checks = commutator_table_check(schemes, psi)
    assert len(checks) == 4
    for s, chk in zip(schemes, checks):
        assert chk.localized
        assert chk.max_deviation <= 1e-8
        # one scheme alone gets what it gets among four, bit for bit
        assert commutator_table_check([s], psi) == [chk]


# the widest off-centre packets reach about 1e-10 of their peak at the grid
# boundary, past check_localized's threshold; the comparisons are bit for bit
# and do not depend on localization
@pytest.mark.filterwarnings("ignore::symquant.LocalizationWarning")
@settings(max_examples=40, deadline=None)
@given(sid=st.sampled_from((0, 1, 2, 3)), log_mw=st.floats(-3.0, 3.0),
       log_hbar=st.floats(-2.0, 2.0), omega=st.floats(0.1, 10.0),
       points=st.sampled_from((16, 32, 64, 128)),
       offset=st.tuples(*[st.floats(-0.5, 0.5)] * 4), width=st.floats(0.7, 1.1),
       t=st.floats(-10.0, 10.0))
def test_assignment_rows_act_as_the_operator_expressions(sid, log_mw, log_hbar, omega, points,
                                                         offset, width, t):
    # the unitary group applies rows of A and J(t) A to the grid field, and
    # the commutator group the primitive commutators; each must give bit for
    # bit what the OperatorExprs give
    params = PhysParams(m=10.0 ** log_mw / omega, omega=omega, hbar=10.0 ** log_hbar)
    ref = params.sigma_ref
    grid = GridSpec(half_width=8.0 * ref, points=points)
    psi = GaussianPacket(center=(offset[0] * ref, offset[1] * ref),
                         wavevector=(offset[2] / ref, offset[3] / ref),
                         sigma=width * params.ground_sigma).sample(grid)
    s = scheme(sid, params)
    prims = [OperatorExpr.primitive(p) for p in quantum.PRIMITIVES]
    fields = quantum._primitive_commutators(psi)
    assert sorted(fields) == [(a, b) for a in range(4) for b in range(a + 1, 4)]
    for (a, b), field in fields.items():
        assert np.array_equal(field, (prims[a] @ prims[b] - prims[b] @ prims[a]).apply(psi).values)
    # the per-pair composition of the fundamentals rounds its products in
    # another order; the gap is roundoff on terms of the size of the table
    # entries, hbar, hbar m omega and hbar / (m omega)
    mw = params.m * params.omega
    bound = 16 * np.finfo(float).eps * params.hbar * max(1.0, mw, 1.0 / mw)
    expected = commutator_deviations(s, psi)
    got = commutator_table_check([s], psi)[0].deviations
    assert got.keys() == expected.keys()
    every = commutator_table_check([scheme(k, params) for k in range(4)], psi)
    assert every[sid].deviations == got
    for pair, dev in got.items():
        assert abs(dev - expected[pair]) <= bound, pair
    for r, which in enumerate(OBS):
        for tau in (0.0, t):
            row = flow_jacobian(tau, params)[r] @ s.assignment
            assert np.array_equal(quantum._act(row, psi.values, grid),
                                  heisenberg_operator(s, which, tau).apply(psi).values)
        assert np.array_equal(quantum._act(s.assignment[r], psi.values, grid),
                              s.fundamental(which).apply(psi).values)


def test_commutator_group_makes_sixteen_primitive_actions(monkeypatch):
    # the six primitive commutators of the probe serve every scheme: 4 first
    # actions and 12 second ones, whatever the number of schemes
    calls = []
    apply = quantum._apply_primitive
    monkeypatch.setattr(quantum, "_apply_primitive",
                        lambda p, values, grid: calls.append(p) or apply(p, values, grid))
    for schemes in ((0,), (0, 1, 2, 3)):
        del calls[:]
        scn = replace(default_scenario(), schemes=schemes)
        assert lab._check_commutators(scn).detail == "max deviation 6.889e-13"
        assert len(calls) == 16


def test_commutator_check_warns_when_delocalized():
    psi = GaussianPacket(sigma=4.0).sample(GRID)
    with pytest.warns(LocalizationWarning):
        chk, = commutator_table_check([scheme(0, P)], psi)
    assert not chk.localized


def test_a_delocalized_probe_warns_once_for_all_schemes():
    # localization is a property of the state, decided once per call
    psi = GaussianPacket(sigma=4.0).sample(GRID)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        checks = commutator_table_check([scheme(sid, P) for sid in range(4)], psi)
    assert [w.category for w in caught] == [LocalizationWarning]
    assert len(checks) == 4 and not any(chk.localized for chk in checks)


# ---------------------------------------------------------------------------
# heisenberg_operator
# ---------------------------------------------------------------------------

def test_rotational_scheme_mixes_coordinates():
    t = 0.7
    op = heisenberg_operator(scheme(3, P), "x", t)
    assert op.equals(math.cos(t) * X_OP + math.sin(t) * Y_OP)


def test_time_zero_returns_fundamentals():
    for sid in range(4):
        s = scheme(sid, P2)
        for which in OBS:
            assert heisenberg_operator(s, which, 0.0).equals(s.fundamental(which))


def test_quarter_period_swaps_position_and_momentum():
    s = scheme(0, P)
    op = heisenberg_operator(s, "x", math.pi / 2)
    assert op.equals(-1j * DX)  # hbar/(m omega i) d/dx at unit parameters


def test_operator_equations_of_motion():
    # d<O(t)>/dt against the oscillator right-hand side evaluated on means
    psi = PACKET.sample(GRID)
    delta = 1e-4
    t = 0.6
    for sid in range(4):
        s = scheme(sid, P)
        mean = {w: expectation(heisenberg_operator(s, w, t), psi).real
                for w in OBS}
        rhs = {"x": mean["p_x"] / P.m, "y": mean["p_y"] / P.m,
               "p_x": -P.m * P.omega ** 2 * mean["x"],
               "p_y": -P.m * P.omega ** 2 * mean["y"]}
        for w in OBS:
            plus = expectation(heisenberg_operator(s, w, t + delta), psi).real
            minus = expectation(heisenberg_operator(s, w, t - delta), psi).real
            assert abs((plus - minus) / (2 * delta) - rhs[w]) <= 1e-6


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def test_centered_real_packet_has_zero_means():
    psi = ground_packet(P).sample(GRID)
    for sid in range(4):
        s = scheme(sid, P)
        for t in (0.0, 0.9):
            assert abs(expectation(heisenberg_operator(s, "x", t), psi)) <= 1e-12


def test_hermitian_expectations_are_real():
    psi = _packet_for(P2).sample(_grid_for(P2))
    for sid in range(4):
        s = scheme(sid, P2)
        for w in OBS:
            val = expectation(heisenberg_operator(s, w, 0.55), psi)
            assert abs(val.imag) <= 1e-10


@pytest.mark.parametrize("params", [P, P2], ids=["unit", "generic"])
def test_means_match_gaussian_moment_oracle(params):
    grid = _grid_for(params)
    packet = _packet_for(params)
    psi = packet.sample(grid)
    for sid in range(4):
        s = scheme(sid, params)
        for which in OBS:
            for t in (0.0, 0.45 / params.omega, 2.1 / params.omega):
                got = expectation(heisenberg_operator(s, which, t), psi)
                want = heisenberg_mean(sid, which, t, packet, params)
                assert got.real == pytest.approx(want, abs=1e-9)
                assert abs(got.imag) <= 1e-10


def test_oracle_cross_checked_by_quadrature():
    packet = _packet_for(P)
    for sid, which, t in ((0, "x", 0.8), (1, "x", 0.8), (3, "y", 1.3), (2, "p_x", 0.4)):
        closed = heisenberg_mean(sid, which, t, packet, P)
        quad = quadrature_mean(sid, which, t, packet, P)
        assert abs(quad - closed) <= 1e-9


def test_crossed_momentum_shows_up_in_the_mean():
    # same state, same observable, different theories
    packet = GaussianPacket(center=(0.4, -0.7), wavevector=(1.3, -0.6), sigma=0.7)
    psi = packet.sample(GRID)
    t = 1.1
    means = {sid: expectation(heisenberg_operator(scheme(sid, P), "x", t), psi).real
             for sid in range(4)}
    kx, ky = packet.wavevector
    assert means[0] - means[1] == pytest.approx((kx - ky) * math.sin(t), abs=1e-6)
    assert means[1] == pytest.approx(
        packet.center[0] * math.cos(t) + ky * math.sin(t), abs=1e-6)
    assert means[3] == pytest.approx(
        packet.center[0] * math.cos(t) + packet.center[1] * math.sin(t), abs=1e-6)


def test_all_schemes_agree_at_time_zero():
    packet = _packet_for(P)
    psi = packet.sample(GRID)
    for sid in range(4):
        s = scheme(sid, P)
        assert expectation(s.fundamental("x"), psi).real == pytest.approx(
            packet.center[0], abs=1e-9)
    for sid in (0, 1, 2):
        s = scheme(sid, P)
        assert expectation(s.fundamental("y"), psi).real == pytest.approx(
            packet.center[1], abs=1e-9)
    # the rotational scheme represents y with a derivative, so its mean differs
    s3 = scheme(3, P)
    assert expectation(s3.fundamental("y"), psi).real == pytest.approx(
        -P.hbar * packet.wavevector[0] / (P.m * P.omega), abs=1e-9)


# ---------------------------------------------------------------------------
# uncertainty products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [P, P2], ids=["unit", "generic"])
def test_ground_width_saturates_every_bound(params):
    grid = _grid_for(params)
    psi = ground_packet(params).sample(grid)
    hb, mw = params.hbar, params.m * params.omega
    expected = {
        (0, ("x", "p_x")): hb / 2, (0, ("y", "p_y")): hb / 2,
        (1, ("x", "p_y")): hb / 2, (1, ("y", "p_x")): hb / 2,
        (2, ("x", "p_x")): hb / 2, (2, ("y", "p_y")): hb / 2,
        (3, ("x", "y")): hb / (2 * mw), (3, ("p_x", "p_y")): hb * mw / 2,
    }
    for (sid, pair), value in expected.items():
        s = scheme(sid, params)
        assert uncertainty_bound(s, pair) == pytest.approx(value, abs=1e-15)
        for t in (0.0, 0.9 / params.omega):
            assert uncertainty_product(s, pair, psi, t) == pytest.approx(
                value, abs=1e-6)


def test_double_width_packet_at_eighth_period():
    # sigma^2 = hbar/(m omega): the product grows to 5/8 hbar by t = pi/(4 omega)
    packet = GaussianPacket(center=(0.3, -0.2), wavevector=(0.5, 0.1), sigma=1.0)
    psi = packet.sample(GRID)
    t = math.pi / 4
    oracle = heisenberg_uncertainty(0, ("x", "p_x"), t, packet, P)
    assert oracle == pytest.approx(5.0 / 8.0, abs=1e-12)
    got = uncertainty_product(scheme(0, P), ("x", "p_x"), psi, t)
    assert got == pytest.approx(5.0 / 8.0, abs=1e-6)


def test_bounds_hold_for_random_packets():
    rng = np.random.default_rng(17)
    pairs = {0: (("x", "p_x"), ("y", "p_y")), 1: (("x", "p_y"), ("y", "p_x")),
             2: (("x", "p_x"), ("y", "p_y")), 3: (("x", "y"), ("p_x", "p_y"))}
    for sid in range(4):
        s = scheme(sid, P)
        for _ in range(10):
            packet = GaussianPacket(
                center=tuple(rng.uniform(-0.8, 0.8, size=2)),
                wavevector=tuple(rng.uniform(-1.2, 1.2, size=2)),
                sigma=float(rng.uniform(0.42, 0.85)))
            psi = packet.sample(GRID)
            t = float(rng.uniform(0, 2 * math.pi))
            for pair in pairs[sid]:
                product = uncertainty_product(s, pair, psi, t)
                assert product >= uncertainty_bound(s, pair) - 1e-9
                oracle = heisenberg_uncertainty(sid, pair, t, packet, P)
                assert product == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# two-time commutator
# ---------------------------------------------------------------------------

def test_two_time_commutator_values():
    psi = ground_packet(P).sample(GRID)
    hb_over_mw = P.hbar / (P.m * P.omega)
    rng = np.random.default_rng(9)
    for _ in range(5):
        t, tp = rng.uniform(0, 6, size=2)
        expected = 1j * hb_over_mw * math.sin(P.omega * (tp - t))
        assert abs(two_time_commutator(scheme(0, P), t, tp, psi) - expected) <= 1e-9
        assert abs(two_time_commutator(scheme(2, P), t, tp, psi) + expected) <= 1e-9
        assert abs(two_time_commutator(scheme(1, P), t, tp, psi)) <= 1e-9 * hb_over_mw
        assert abs(two_time_commutator(scheme(3, P), t, tp, psi)) <= 1e-9 * hb_over_mw


def test_two_time_commutator_quarter_period_and_equal_times():
    psi = ground_packet(P).sample(GRID)
    got = two_time_commutator(scheme(0, P), 0.4, 0.4 + math.pi / 2, psi)
    assert got == pytest.approx(1j * P.hbar / (P.m * P.omega), abs=1e-9)
    for sid in range(4):
        assert abs(two_time_commutator(scheme(sid, P), 1.3, 1.3, psi)) <= 1e-12


# ---------------------------------------------------------------------------
# moment engine against applied operators
# ---------------------------------------------------------------------------

def _small_gaussian() -> WaveFunction:
    return _packet_for(P2).sample(GridSpec(half_width=10.0 * P2.sigma_ref, points=32))


def _random_field() -> WaveFunction:
    # complex noise up to the grid edge: the Gram identity is algebraic,
    # not a property of localized Gaussians
    rng = np.random.default_rng(31)
    values = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    return WaveFunction(GridSpec(half_width=4.0, points=32), values).normalize()


@pytest.mark.parametrize("field, localized", [(_small_gaussian, True), (_random_field, False)],
                         ids=["gaussian", "random"])
@pytest.mark.parametrize("sid", range(4))
def test_moment_engine_matches_applied_operators(sid, field, localized):
    # every error is relative to the size of the terms that cancel in it
    psi = field()
    s = scheme(sid, P2)
    times = (0.0, 0.45 / P2.omega, 2.1 / P2.omega, -3.7 / P2.omega)
    means, variances = heisenberg_moments([s], psi, times)[0]
    assert means.shape == variances.shape == (len(times), len(OBS))
    assert variances.dtype == np.float64
    # one scheme alone gets what it gets among four, bit for bit
    batched = heisenberg_moments([scheme(k, P2) for k in range(4)], psi, times)[sid]
    assert [a.tobytes() for a in batched] == [means.tobytes(), variances.tobytes()]
    for k, t in enumerate(times):
        spreads = {}
        for i, which in enumerate(OBS):
            op = heisenberg_operator(s, which, t)
            scale = op.apply(psi).norm()
            assert abs(means[k, i] - expectation(op, psi)) <= 1e-12 * scale
            want = applied_variance(op, psi)
            assert abs(variances[k, i] - want) <= 1e-12 * scale ** 2
            spreads[which] = math.sqrt(want)
        for pair in CANONICAL_PAIRS[sid]:
            assert uncertainty_product(s, pair, psi, t) == pytest.approx(
                spreads[pair[0]] * spreads[pair[1]], rel=1e-12, abs=0)
        for t_prime in times:
            a = heisenberg_operator(s, "x", t)
            b = heisenberg_operator(s, "x", t_prime)
            scale = a.apply(psi).norm() * b.apply(psi).norm()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = two_time_commutator(s, t, t_prime, psi)
            assert [w.category for w in caught] == (
                [] if localized else [LocalizationWarning])
            assert abs(got - applied_commutator(a, b, psi)) <= 1e-12 * scale


def test_moments_of_no_times_are_empty():
    (means, variances), = heisenberg_moments([scheme(0, P)], _small_gaussian(), ())
    assert means.shape == variances.shape == (0, len(OBS))
    assert heisenberg_moments([], _small_gaussian(), (0.0,)) == []


# ---------------------------------------------------------------------------
# mixed-basis kernels
# ---------------------------------------------------------------------------

def test_kernel_values():
    hb = P2.hbar
    pref = 1.0 / (2 * math.pi * hb)
    s0, s1, s2, s3 = (scheme(i, P2) for i in range(4))
    assert kernel_overlap(s0, 0, 0, 0, 0) == pytest.approx(pref)
    args = (0.7, -0.4, 1.1, 0.3)
    x, y, px, py = args
    assert kernel_overlap(s0, *args) == pytest.approx(
        pref * np.exp(1j * (x * px + y * py) / hb))
    assert kernel_overlap(s1, *args) == pytest.approx(
        pref * np.exp(1j * (x * py + y * px) / hb))
    assert kernel_overlap(s2, *args) == pytest.approx(
        pref * np.exp(1j * (-x * px + y * py) / hb))
    with pytest.raises(ValueError, match="no common momentum basis"):
        kernel_overlap(s3, *args)


def test_kernel_modulus_is_constant():
    rng = np.random.default_rng(4)
    for sid in range(3):
        s = scheme(sid, P2)
        for _ in range(8):
            args = rng.uniform(-3, 3, size=4)
            assert abs(kernel_overlap(s, *args)) == pytest.approx(
                1.0 / (2 * math.pi * P2.hbar))


# ---------------------------------------------------------------------------
# quantization of classical observables
# ---------------------------------------------------------------------------

def test_constant_quantizes_to_identity_multiple():
    from symquant import PolynomialObservable

    op = quantize_observable(scheme(1, P), PolynomialObservable.constant(2.5))
    assert op.equals(2.5 * OperatorExpr.identity())


def test_energy_quantizes_to_the_schroedinger_operator():
    s = scheme(0, P2)
    hb, m, w = P2.hbar, P2.m, P2.omega
    got = quantize_observable(s, standard_hamiltonians(m, w)[0])
    want = (-(hb ** 2) / (2 * m)) * (DX @ DX + DY @ DY) \
        + (m * w ** 2 / 2) * (X_OP @ X_OP + Y_OP @ Y_OP)
    assert got.equals(want)


def test_rotational_generator_has_commuting_factors():
    s = scheme(3, P2)
    hb, w = P2.hbar, P2.omega
    got = quantize_observable(s, standard_hamiltonians(P2.m, P2.omega)[3])
    want = (1j * hb * w) * (X_OP @ DY - DX @ Y_OP)
    assert got.equals(want)


def test_no_symmetrization_for_matching_scheme():
    for sid in range(4):
        s = scheme(sid, P)
        smu = standard_hamiltonians(1, 1)[sid]
        assert not quantization_needs_symmetrization(s, smu)


def test_symmetrization_triggers_for_noncommuting_factors():
    x, y, px, py = coordinates()
    s3 = scheme(3, P)
    assert quantization_needs_symmetrization(s3, x * y)
    sym = quantize_observable(s3, x * y)
    a, b = s3.fundamental("x"), s3.fundamental("y")
    assert sym.equals(0.5 * (a @ b + b @ a))


def test_degree_three_unsupported():
    x, *_ = coordinates()
    with pytest.raises(ValueError, match="degree > 2 unsupported"):
        quantize_observable(scheme(0, P), x * x * x)


def test_variance_of_fundamentals_matches_packet_moments():
    packet = _packet_for(P)
    psi = packet.sample(GRID)
    _, variances = heisenberg_moments([scheme(0, P)], psi, (0.0,))[0]
    assert variances[0, OBS.index("x")] == pytest.approx(
        packet.sigma ** 2, abs=1e-9)
    assert variances[0, OBS.index("p_x")] == pytest.approx(
        P.hbar ** 2 / (4 * packet.sigma ** 2), abs=1e-9)
