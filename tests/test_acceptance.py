"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import sympy as sp

from symquant import (
    GaussianPacket,
    GridSpec,
    PhysParams,
    admissible_inverse_forms,
    commutator_table_check,
    conjugation_deviations,
    conjugation_probe,
    coordinates,
    default_sample_times,
    default_scenario,
    expectation,
    flow_jacobian,
    ground_packet,
    heisenberg_operator,
    oscillator_field,
    poisson_bracket,
    scheme,
    standard_forms,
    standard_hamiltonians,
    standard_pairs,
    two_time_commutator,
    uncertainty_bound,
    uncertainty_product,
    verify_conserved,
    verify_flow_symplectic,
    verify_pair,
    PhaseState,
)
from oracles import bruteforce_admissible_dimension, heisenberg_mean

P = PhysParams(1.0, 1.0, 1.0)
GRID = GridSpec(half_width=8.0, points=128)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_pair_reproduction_symbolic():
    m, w = sp.symbols("m omega", positive=True)
    field = oscillator_field(m, w)
    residuals = []
    for pair in standard_pairs(m, w):
        residuals.append(all(r.is_zero for r in verify_pair(pair, field)))
    _report(1, "pair reproduction (symbolic m, omega)", all(residuals),
            f"zero residual for pairs {[int(r) for r in residuals]}")


def test_criterion_02_bracket_tables():
    m, w = sp.symbols("m omega", positive=True)
    coords = coordinates()
    ok = True
    for params in ((1, 1), (m, w)):
        f0, f1, f2, f3 = standard_forms(*params)
        mm, ww = params
        ok &= poisson_bracket(coords[0], coords[2], f0) == 1
        ok &= poisson_bracket(coords[1], coords[3], f0) == 1
        ok &= poisson_bracket(coords[0], coords[3], f1) == 1
        ok &= poisson_bracket(coords[1], coords[2], f1) == 1
        ok &= poisson_bracket(coords[0], coords[2], f2) == -1
        ok &= poisson_bracket(coords[1], coords[3], f2) == 1
        ok &= poisson_bracket(coords[0], coords[1], f3) == -1 / (sp.Integer(1) * mm * ww)
        ok &= poisson_bracket(coords[2], coords[3], f3) == -(mm * ww)
        for form in (f0, f1, f2, f3):
            for mu in range(4):
                for nu in range(4):
                    ok &= poisson_bracket(coords[mu], coords[nu], form) == form.upper[mu][nu]
    _report(2, "bracket tables entrywise", bool(ok), "all four forms, exact")


def test_criterion_03_admissible_space_containment():
    field = oscillator_field(1, 1)
    basis = admissible_inverse_forms(field)
    residuals = [basis.projection_residual(form.lower_array())
                 for form in standard_forms(1, 1)]
    oracle = bruteforce_admissible_dimension(
        [[int(v) for v in row] for row in field.matrix])
    ok = max(residuals) <= 1e-12 and basis.dimension == oracle
    _report(3, "admissible-space containment", ok,
            f"max residual {max(residuals):.2e}, dimension {basis.dimension} "
            f"vs oracle {oracle}")


def test_criterion_04_flow_symplecticity_and_conservation():
    rng = np.random.default_rng(123)
    times = rng.uniform(0.0, 4 * math.pi, size=20)
    jacobians = np.array([flow_jacobian(float(t), P) for t in times])
    worst_pullback = max(
        check.max_deviation
        for pair in standard_pairs(1, 1) for check in verify_flow_symplectic(pair.form, jacobians))
    state = PhaseState(0.8, -0.6, 0.5, 1.2)
    worst_drift = max(
        verify_conserved(h, state, default_sample_times(P), P).max_drift
        for h in standard_hamiltonians(1, 1))
    ok = worst_pullback <= 1e-12 and worst_drift <= 1e-10
    _report(4, "flow symplecticity + conservation", ok,
            f"pullback {worst_pullback:.2e}, drift {worst_drift:.2e}")


def test_criterion_05_commutator_realization():
    psi = ground_packet(P).sample(GRID)
    checks = commutator_table_check([scheme(sid, P) for sid in range(4)], psi)
    worst = max(chk.max_deviation for chk in checks)
    # sign flips and noncommuting coordinates, measured directly
    def measured(s, a, b):
        fa, fb = s.fundamental(a), s.fundamental(b)
        diff = fa.apply(fb.apply(psi)).values - fb.apply(fa.apply(psi)).values
        return psi.inner(type(psi)(psi.grid, diff))

    s2, s3 = scheme(2, P), scheme(3, P)
    signs_ok = (abs(measured(s2, "x", "p_x") + 1j * P.hbar) <= 1e-8
                and abs(measured(s3, "x", "y") + 1j * P.hbar / (P.m * P.omega)) <= 1e-8
                and abs(measured(s3, "p_x", "p_y") + 1j * P.hbar * P.m * P.omega) <= 1e-8)
    ok = worst <= 1e-8 and signs_ok
    _report(5, "commutator realization", ok,
            f"max deviation {worst:.2e}, sign flips verified: {signs_ok}")


def test_criterion_06_uncertainty_saturation_and_bounds():
    psi = ground_packet(P).sample(GRID)
    hb, mw = P.hbar, P.m * P.omega
    saturation = {
        (0, ("x", "p_x")): hb / 2, (2, ("x", "p_x")): hb / 2,
        (1, ("x", "p_y")): hb / 2,
        (3, ("x", "y")): hb / (2 * mw), (3, ("p_x", "p_y")): hb * mw / 2,
    }
    worst_gap = 0.0
    for (sid, pair), value in saturation.items():
        got = uncertainty_product(scheme(sid, P), pair, psi, 0.0)
        worst_gap = max(worst_gap, abs(got - value))

    rng = np.random.default_rng(77)
    pairs = {0: (("x", "p_x"), ("y", "p_y")), 1: (("x", "p_y"), ("y", "p_x")),
             2: (("x", "p_x"), ("y", "p_y")), 3: (("x", "y"), ("p_x", "p_y"))}
    worst_margin = math.inf
    for sid in range(4):
        s = scheme(sid, P)
        for _ in range(50):
            packet = GaussianPacket(
                center=tuple(rng.uniform(-0.8, 0.8, size=2)),
                wavevector=tuple(rng.uniform(-1.2, 1.2, size=2)),
                sigma=float(rng.uniform(0.42, 0.85)))
            psi_r = packet.sample(GRID)
            t = float(rng.uniform(0.0, 2 * math.pi))
            for pair in pairs[sid]:
                margin = (uncertainty_product(s, pair, psi_r, t)
                          - uncertainty_bound(s, pair))
                worst_margin = min(worst_margin, margin)
    ok = worst_gap <= 1e-6 and worst_margin >= -1e-9
    _report(6, "uncertainty saturation + bounds", ok,
            f"saturation gap {worst_gap:.2e}, worst margin {worst_margin:+.2e} "
            f"over 50 packets/scheme")


def test_criterion_07_inequivalence_table():
    scn = default_scenario()
    psi = scn.packet.sample(scn.grid)
    formulas = {
        0: lambda t: math.cos(t) + math.sin(t),
        1: math.cos,
        2: lambda t: math.cos(t) - math.sin(t),
        3: math.cos,
    }
    times = list(scn.times) + [0.9, 2.2]
    worst = 0.0
    for sid, formula in formulas.items():
        s = scheme(sid, P)
        for t in times:
            got = expectation(heisenberg_operator(s, "x", t), psi).real
            oracle = heisenberg_mean(sid, "x", t, scn.packet, P)
            assert abs(oracle - formula(t)) <= 1e-12
            worst = max(worst, abs(got - formula(t)))
    ok = worst <= 1e-6
    _report(7, "mean-value inequivalence table", ok,
            f"max |<x(t)> - analytic| = {worst:.2e}")


def test_criterion_08_two_time_commutator():
    psi = ground_packet(P).sample(GRID)
    hb_over_mw = P.hbar / (P.m * P.omega)
    rng = np.random.default_rng(31)
    worst_null = 0.0
    worst_signal = 0.0
    for _ in range(6):
        t, tp = rng.uniform(0.0, 7.0, size=2)
        expected = 1j * hb_over_mw * math.sin(P.omega * (tp - t))
        worst_signal = max(
            worst_signal,
            abs(two_time_commutator(scheme(0, P), t, tp, psi) - expected),
            abs(two_time_commutator(scheme(2, P), t, tp, psi) + expected))
        worst_null = max(
            worst_null,
            abs(two_time_commutator(scheme(1, P), t, tp, psi)),
            abs(two_time_commutator(scheme(3, P), t, tp, psi)))
    ok = worst_null <= 1e-9 * hb_over_mw and worst_signal <= 1e-6
    _report(8, "two-time commutator", ok,
            f"schemes 1/3 null {worst_null:.2e}, schemes 0/2 error {worst_signal:.2e}")


def test_criterion_09_unitary_conjugation():
    # the unitary group's grid, which resolves its probe
    grid = GridSpec(half_width=8.0 * P.sigma_ref, points=48)
    start = time.perf_counter()
    psi = conjugation_probe(P, grid)
    probes = [(which, t) for which in ("x", "y", "p_x", "p_y")
              for t in (0.6 / P.omega, 1.1 / P.omega)]
    worst = max(dev for sid in range(4)
                for dev in conjugation_deviations(scheme(sid, P), psi, probes))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed <= 60.0
    _report(9, "unitary conjugation", ok,
            f"max deviation {worst:.2e} over 32 checks in {elapsed:.1f}s")


def test_criterion_10_cli_contract(tmp_path):
    env_cmd = [sys.executable, "-m", "symquant"]
    check = subprocess.run(env_cmd + ["check"], capture_output=True, text=True)
    check_ok = check.returncode == 0 and "overall: pass" in check.stdout

    run1 = subprocess.run(env_cmd + ["run", "--no-timestamp"],
                          capture_output=True)
    run2 = subprocess.run(env_cmd + ["run", "--no-timestamp"],
                          capture_output=True)
    deterministic = (run1.returncode == 0 and run1.stdout == run2.stdout
                     and json.loads(run1.stdout))

    csv_run = subprocess.run(env_cmd + ["run", "--format", "csv", "--no-timestamp"],
                             capture_output=True, text=True)
    header_ok = csv_run.stdout.split("\n")[0] == \
        "scheme,observable,time,mean_re,mean_im,variance"

    ok = bool(check_ok and deterministic and header_ok)
    _report(10, "CLI contract", ok,
            f"check exit {check.returncode}, byte-identical JSON: "
            f"{run1.stdout == run2.stdout}, header exact: {header_ok}")
