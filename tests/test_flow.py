"""Closed-form oscillator evolution, flow symplecticity, conservation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symquant import (
    PhaseState,
    PhysParams,
    PolynomialObservable,
    admissible_inverse_forms,
    coordinates,
    default_sample_times,
    exact_flow,
    flow_jacobian,
    oscillator_field,
    standard_hamiltonians,
    standard_pairs,
    SymplecticForm,
    verify_conserved,
    verify_flow_symplectic,
)
from oracles import leapfrog

P = PhysParams(1.0, 1.0, 1.0)
P2 = PhysParams(m=2.5, omega=1.3, hbar=1.0)
X, Y, PX, PY = coordinates()


def _jacobians(times, params):
    """The (T, 4, 4) stack of flow maps `verify_flow_symplectic` and `verify_conserved` take."""
    return np.array([flow_jacobian(float(t), params) for t in times])


def test_identity_at_time_zero():
    state = PhaseState(0.3, -1.2, 0.8, 0.05)
    assert exact_flow(state, 0.0, P) == state
    assert np.array_equal(flow_jacobian(0.0, P), np.eye(4))


def test_quarter_period_rotation():
    out = exact_flow(PhaseState(1.0, 0.0, 0.0, 0.0), math.pi / (2 * P2.omega), P2)
    expected = (0.0, 0.0, -P2.m * P2.omega, 0.0)
    assert np.allclose(out.as_array(), expected, atol=1e-12)


def test_flow_matches_leapfrog_oracle():
    rng = np.random.default_rng(3)
    state = tuple(rng.uniform(-1.5, 1.5, size=4))
    reference = leapfrog(state, 0.37, P, dt=1e-5)
    ours = exact_flow(PhaseState(*state), 0.37, P).as_array()
    assert np.max(np.abs(ours - reference)) <= 1e-8


def test_full_period_is_identity():
    j = flow_jacobian(2 * math.pi / P2.omega, P2)
    assert np.allclose(j, np.eye(4), atol=1e-12)


def test_quarter_period_jacobian_matrix():
    j = flow_jacobian(math.pi / 2, P)
    expected = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                         [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    assert np.allclose(j, expected, atol=1e-15)


def test_jacobian_determinant_one():
    for t in (0.1, 0.9, 4.4):
        assert np.linalg.det(flow_jacobian(t, P2)) == pytest.approx(1.0, abs=1e-12)


def test_jacobian_matches_finite_differences():
    t = 0.83
    delta = 1e-6
    j = flow_jacobian(t, P2)
    base = PhaseState(0.4, -0.9, 1.2, 0.3)
    fd = np.zeros((4, 4))
    for nu in range(4):
        bump = np.zeros(4)
        bump[nu] = delta
        plus = exact_flow(PhaseState(*(base.as_array() + bump)), t, P2).as_array()
        minus = exact_flow(PhaseState(*(base.as_array() - bump)), t, P2).as_array()
        fd[:, nu] = (plus - minus) / (2 * delta)
    assert np.max(np.abs(j - fd)) <= 1e-7


def test_group_law():
    rng = np.random.default_rng(8)
    for _ in range(10):
        state = PhaseState(*rng.uniform(-2, 2, size=4))
        t1, t2 = rng.uniform(0, 7, size=2)
        once = exact_flow(exact_flow(state, t1, P2), t2, P2)
        direct = exact_flow(state, t1 + t2, P2)
        assert np.max(np.abs(once.as_array() - direct.as_array())) <= 1e-12


def test_flow_preserves_standard_forms():
    assert verify_flow_symplectic(standard_pairs(1, 1)[0].form, _jacobians([1.23], P))[0].ok
    assert verify_flow_symplectic(standard_pairs(1, 1)[3].form, _jacobians([0.77], P))[0].ok
    rng = np.random.default_rng(14)
    for pair in standard_pairs(P2.m, P2.omega):
        times = rng.uniform(0, 4 * math.pi / P2.omega, size=20)
        checks = verify_flow_symplectic(pair.form, _jacobians(times, P2))
        assert len(checks) == 20
        for check in checks:
            assert check.ok and check.max_deviation <= 1e-12


@pytest.mark.parametrize("m", [1e-7, 1e7])
def test_flow_verdict_is_relative_to_the_size_of_the_pullback(m):
    # J and W3 carry entries of order m omega and 1/(m omega); the roundoff
    # of J^T L J (1.0e-10 for W0-W2, 1.9e-9 for W3) fails an absolute 1e-12
    params = PhysParams(m=m, omega=1.0, hbar=1.0)
    for pair in standard_pairs(params.m, params.omega):
        check, = verify_flow_symplectic(pair.form, _jacobians([0.77], params))
        assert check.ok and check.max_deviation > 1e-12
    # {x, y} = 1 and {p_x, p_y} = 2 are not preserved by the flow at any m
    mixed = SymplecticForm([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]])
    assert not verify_flow_symplectic(mixed, _jacobians([0.77], params))[0].ok


@pytest.mark.parametrize("m", [1e-7, 1e7])
def test_conserved_verdict_is_relative_to_the_size_of_the_terms(m):
    # the terms of S0..S3 scale as m omega or 1/(m omega); their roundoff
    # along the flow (up to 2.8e-9 here) fails an absolute 1e-10
    params = PhysParams(m=m, omega=1.0, hbar=1.0)
    state = PhaseState(0.9, -0.4, 0.3, 1.1)
    times = default_sample_times(params)
    checks = [verify_conserved(pair.hamiltonian, state, _jacobians(times, params))
              for pair in standard_pairs(params.m, params.omega)]
    assert all(check.ok for check in checks)
    assert max(check.max_drift for check in checks) > 1e-10
    # x^2 is no constant of motion at any m
    assert not verify_conserved(PolynomialObservable({(2, 0, 0, 0): 1}), state,
                                _jacobians(times, params)).ok


@settings(max_examples=60, deadline=None)
@given(log_mw=st.floats(-3.0, 3.0), log_hbar=st.floats(-3.0, 3.0), omega=st.floats(0.1, 10.0),
       phases=st.lists(st.floats(0.0, 4.0 * math.pi), min_size=1, max_size=20),
       state=st.tuples(*[st.floats(-2.0, 2.0)] * 4))
def test_stacked_flow_verdicts_equal_the_per_time_verdicts(log_mw, log_hbar, omega, phases, state):
    # check's flow group takes its verdicts from one (T, 4, 4) Jacobian stack
    # per form and f evaluated once on the (4, T) states; each must be what
    # the per-time products and a one-map stack give, bit for bit
    params = PhysParams(m=10.0 ** log_mw / omega, omega=omega, hbar=10.0 ** log_hbar)
    times = [phase / omega for phase in phases]
    jacobians = _jacobians(times, params)
    state0 = PhaseState(*state)
    pairs = standard_pairs(params.m, params.omega)
    # {x, y} = 1 and {p_x, p_y} = 2 is not preserved, so some verdicts are False
    mixed = SymplecticForm([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]])
    for form in [pair.form for pair in pairs] + [mixed]:
        lower = form.lower_array()
        stacked = verify_flow_symplectic(form, jacobians)
        assert len(stacked) == len(times)
        for t, check in zip(times, stacked):
            jac = flow_jacobian(t, params)
            dev = float(np.max(np.abs(jac.T @ lower @ jac - lower)))
            size = float(np.max(np.abs(jac).T @ np.abs(lower) @ np.abs(jac)))
            assert check == (dev <= 1e-12 * max(1.0, size), dev)
            assert verify_flow_symplectic(form, jac[None]) == [check]
    for pair in pairs:
        f = pair.hamiltonian
        ref = float(f.evaluate(state0.as_array()))
        drifts = [abs(float(f.evaluate(exact_flow(state0, t, params).as_array())) - ref)
                  for t in times]
        assert verify_conserved(f, state0, jacobians).max_drift == max([0.0] + drifts)


def test_scaling_map_is_not_symplectic():
    check, = verify_flow_symplectic(standard_pairs(1, 1)[0].form, 2.0 * np.eye(4)[None])
    assert check.max_deviation == pytest.approx(3.0)  # (2 I)^T w (2 I) - w = 3 w entrywise
    assert not check.ok


def test_flow_preserves_every_invertible_admissible_form():
    basis = admissible_inverse_forms(oscillator_field(1, 1))
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(12):
        theta = basis.sample(rng.normal(size=basis.dimension))
        if abs(np.linalg.det(theta)) < 1e-6:
            continue
        form = SymplecticForm(np.linalg.inv(theta))
        times = rng.uniform(0, 4 * math.pi, size=20)
        assert all(check.ok for check in verify_flow_symplectic(form, _jacobians(times, P)))
        checked += 1
    assert checked >= 8


def test_conserved_quantities_along_flow():
    rng = np.random.default_rng(2)
    state = PhaseState(*rng.uniform(-1, 1, size=4))
    times = default_sample_times(P2)
    assert len(times) == 100
    hams, jacobians = standard_hamiltonians(P2.m, P2.omega), _jacobians(times, P2)
    assert verify_conserved(hams[0], state, jacobians).max_drift <= 1e-10
    assert verify_conserved(hams[3], state, jacobians).max_drift <= 1e-10


def test_coordinate_drifts():
    check = verify_conserved(X, PhaseState(1.0, 0.0, 0.0, 0.0), _jacobians([math.pi / 2], P))
    assert check.max_drift == pytest.approx(1.0)
    assert not check.ok


def test_times_must_be_nonempty():
    with pytest.raises(ValueError, match="jacobians must be nonempty"):
        verify_conserved(X, PhaseState(0, 0, 0, 0), np.empty((0, 4, 4)))
