"""The benchmark's three workloads: seeded inputs, one op, and its oracle.

Every op gets fresh inputs drawn from ``(seed, worker, op)``, so no op can be
answered from a cache that an earlier op in the same process filled: sympy's
expression cache sees new symbols and new rationals, and each ``check`` runs
in a new interpreter, where the dense-generator cache starts empty.

* ``tabulate``: ``lab.run_scenario`` plus ``lab.report_to_json`` on a seeded
  packet, all four schemes and observables, 16 times over one period, N=128.
  Nearly all of it is quantum moments over the operators' FFT and multiply
  actions, which is what a faster moment engine must speed up.
* ``verify``: ``python -m symquant check`` on a seeded scenario file, in a
  fresh interpreter: the import plus the cold dense unitary cross-check a
  ``check`` user pays on every call.
* ``exact``: the classical layer in process on fresh sympy symbols and seeded
  Fractions; it touches no grid, so quantum-layer changes must leave it flat.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np

import expected
from tracing import CHECK_GROUPS

SCHEMES = (0, 1, 2, 3)
N_TIMES = 16
CHILD_TIMEOUT_S = 150.0
TRACED_CHECK = Path(__file__).with_name("traced_check.py")


class OracleError(Exception):
    """An op's output disagrees with the closed-form answer."""


def _close(value: float, ref: float, tol: float, what: str) -> None:
    if not abs(value - ref) <= tol * max(1.0, abs(ref)):
        raise OracleError(f"{what}: got {value!r}, expected {ref!r}")


class Workload:
    """Seeded inputs for worker ``worker`` of a run with seed ``seed``."""

    # the opaque top-level call whose traced children define trace.coverage;
    # "op" is the benchmark's own root span, so on a workload that calls every
    # probed function directly (exact) the coverage reads about 1 by design
    top = "op"

    def __init__(self, seed: int, worker: int, workdir: Path):
        self.seed = seed
        self.worker = worker
        self.workdir = workdir

    def rng(self, op: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.worker, op])


class InProcess(Workload):
    """A workload whose op calls the library in the benchmark's own process."""

    def setup(self) -> None:
        import symquant  # noqa: F401  (the import is part of set-up time)
        from symquant import lab, pairs, phasespace

        self.lab, self.pairs, self.phasespace = lab, pairs, phasespace

    def run_traced(self, inp, tracer):
        tracer.install()
        try:
            root = tracer.open("op")
            try:
                return self.run(inp)
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()


class Tabulate(InProcess):
    name = "tabulate"
    top = "lab.run_scenario"

    def make_input(self, op: int):
        rng = self.rng(op)
        m, omega = (float(v) for v in rng.uniform(0.8, 1.25, size=2))
        # |centre| <= 1, sigma <= 0.7 keeps the packet below ~1e-11 at the
        # boundary of [-8, 8)^2, so the grid moments match the closed form
        doc = {
            "m": m, "omega": omega, "hbar": 1.0,
            "packet": {"center": [float(v) for v in rng.uniform(-1.0, 1.0, size=2)],
                       "wavevector": [float(v) for v in rng.uniform(-1.5, 1.5, size=2)],
                       "sigma": float(rng.uniform(0.5, 0.7))},
            "schemes": list(SCHEMES),
            "observables": list(expected.OBSERVABLES),
            "times": [2.0 * math.pi * k / (N_TIMES * omega) for k in range(N_TIMES)],
            "grid": {"L": 8.0, "N": 128},
        }
        return doc, self.lab.scenario_from_dict(doc)

    def run(self, inp) -> str:
        report = self.lab.run_scenario(inp[1])
        return self.lab.report_to_json(report, include_timestamp=False)

    def check(self, inp, out: str) -> None:
        doc, report = inp[0], json.loads(out)
        m, omega, hbar = doc["m"], doc["omega"], doc["hbar"]
        packet = doc["packet"]
        times = doc["times"]
        if report["metadata"]["params"] != {"m": m, "omega": omega, "hbar": hbar}:
            raise OracleError("metadata params differ from the scenario")
        cells = {(c["scheme"], c["observable"], c["time"]): c for c in report["cells"]}
        rows = {(u["scheme"], tuple(u["pair"]), u["time"]): u
                for u in report["uncertainties"]}
        n_rows = 0
        for sid in SCHEMES:
            ref = expected.gaussian_table(sid, m, omega, hbar, packet["center"],
                                          packet["wavevector"], packet["sigma"], times)
            for k, t in enumerate(times):
                for name in expected.OBSERVABLES:
                    cell = cells.get((sid, name, t))
                    if cell is None:
                        raise OracleError(f"missing cell {sid} {name} t={t}")
                    where = f"scheme {sid} {name} t={t}"
                    _close(cell["mean_re"], ref["means"][name, k], 1e-8, f"mean {where}")
                    _close(cell["mean_im"], 0.0, 1e-8, f"imaginary mean {where}")
                    _close(cell["variance"], ref["variances"][name, k], 1e-8,
                           f"variance {where}")
                for pair, bound in ref["bounds"].items():
                    row = rows.get((sid, pair, t))
                    if row is None:
                        raise OracleError(f"missing uncertainty row {sid} {pair} t={t}")
                    where = f"scheme {sid} {pair} t={t}"
                    _close(row["bound"], bound, 1e-12, f"bound {where}")
                    _close(row["product"], ref["products"][pair, k], 1e-8,
                           f"product {where}")
                    if not row["satisfied"]:
                        raise OracleError(f"uncertainty bound reported violated: {where}")
                    n_rows += 1
        if len(cells) != len(report["cells"]) or len(cells) != 4 * len(SCHEMES) * N_TIMES:
            raise OracleError(f"expected {4 * len(SCHEMES) * N_TIMES} distinct cells")
        if n_rows != len(report["uncertainties"]):
            raise OracleError("unexpected uncertainty rows")
        residuals = report["pair_residuals"]
        if len(residuals) != 4 or any(
                r["max_abs_residual"] > 1e-12 * max(1.0, m * omega ** 2) for r in residuals):
            raise OracleError(f"pair residuals not at roundoff: {residuals}")


class Exact(InProcess):
    name = "exact"

    def make_input(self, op: int) -> dict:
        import sympy as sp

        rng = self.rng(op)
        tag = f"{self.seed}_{self.worker}_{op}"

        def rational(lo: int, hi: int) -> Fraction:
            return Fraction(int(rng.integers(lo, hi)), int(rng.integers(lo, hi)))

        m, omega = rational(1, 13), rational(1, 13)
        sym = np.triu(rng.integers(-5, 6, size=(4, 4)))
        sym = sym + sym.T
        sym[0, 0] = 7  # never the zero matrix, which is antisymmetric
        u, v = rng.integers(-5, 6, size=(2, 4))
        u[0], v[1] = 1, 1  # u, v independent: rank exactly 2
        u[1], v[0] = 0, 0
        degenerate = np.outer(u, v) - np.outer(v, u)
        probe = np.triu(rng.integers(-4, 5, size=(4, 4)))
        return {
            "m_sym": sp.Symbol(f"m_{tag}", positive=True),
            "omega_sym": sp.Symbol(f"omega_{tag}", positive=True),
            "m": m, "omega": omega,
            "symmetric": [[int(x) for x in row] for row in sym],
            "degenerate": [[int(x) for x in row] for row in degenerate],
            "probe": [[Fraction(int(x)) for x in row] for row in probe + probe.T],
            "thetas": [expected.inverse(w)
                       for w in expected.bracket_matrices(m, omega)],
        }

    def run(self, inp: dict) -> dict:
        pairs, ps = self.pairs, self.phasespace
        PolynomialObservable = ps.PolynomialObservable
        out = {}

        # symbolic m and omega: pair residuals and the bracket table of S0..S3
        field = pairs.oscillator_field(inp["m_sym"], inp["omega_sym"])
        standard = pairs.standard_pairs(inp["m_sym"], inp["omega_sym"])
        out["sym_residuals"] = [pairs.verify_pair(p, field) for p in standard]
        hams = [p.hamiltonian for p in standard]
        out["sym_table"] = [[ps.poisson_bracket(hi, hj, standard[0].form) for hj in hams]
                            for hi in hams]

        # Fraction m and omega: validation, conservation, completion, enumeration
        field = pairs.oscillator_field(inp["m"], inp["omega"])
        standard = pairs.standard_pairs(inp["m"], inp["omega"])
        out["valid"] = [ps.validate_form(p.form.upper) for p in standard]
        out["symmetric"] = ps.validate_form(inp["symmetric"])
        out["degenerate"] = ps.validate_form(inp["degenerate"])
        probe = PolynomialObservable(expected.half_quadratic_terms(inp["probe"]))
        out["conserved"] = [ps.is_constant_of_motion(p.hamiltonian, field)
                            for p in standard]
        out["probe_conserved"] = ps.is_constant_of_motion(probe, field)
        out["completed"] = [pairs.complete_pair(theta, field) for theta in inp["thetas"]]
        out["basis"] = pairs.admissible_inverse_forms(field)
        return out

    def check(self, inp: dict, out: dict) -> None:
        import sympy as sp

        m, omega = inp["m"], inp["omega"]
        a = expected.field_matrix(m, omega)
        hess = expected.hessians(m, omega)
        forms = expected.bracket_matrices(m, omega)

        for mu, residual in enumerate(out["sym_residuals"]):
            if any(comp.terms for comp in residual):
                raise OracleError(f"symbolic pair {mu} residual is not literally zero")

        point = {inp["m_sym"]: sp.Rational(m.numerator, m.denominator),
                 inp["omega_sym"]: sp.Rational(omega.numerator, omega.denominator)}
        for i in range(4):
            for j in range(4):
                got = {}
                for expo, c in out["sym_table"][i][j].terms.items():
                    value = sp.sympify(c).subs(point)
                    if not value.is_Rational:
                        raise OracleError(f"bracket {{S{i}, S{j}}} is not rational")
                    if value != 0:
                        got[expo] = Fraction(int(value.p), int(value.q))
                if got != expected.bracket_terms(hess[i], forms[0], hess[j]):
                    raise OracleError(f"bracket {{S{i}, S{j}}} differs from x^T S W S x")

        for mu, report in enumerate(out["valid"]):
            if not (report.ok and report.reason is None and report.jacobi_residual == 0):
                raise OracleError(f"standard form {mu} not accepted exactly: {report}")
            if [list(r) for r in report.form.upper] != forms[mu]:
                raise OracleError(f"standard form {mu} differs from W_{mu}")
        for key, reason in (("symmetric", "not antisymmetric"), ("degenerate", "degenerate")):
            if out[key].ok or out[key].reason != reason:
                raise OracleError(f"{key} candidate: expected rejection "
                                  f"{reason!r}, got {out[key].reason!r}")

        if out["conserved"] != [True] * 4:
            raise OracleError(f"S0..S3 conservation: {out['conserved']}")
        if out["probe_conserved"] != expected.is_conserved(inp["probe"], a):
            raise OracleError("conservation of the seeded quadratic probe")

        for mu, pair in enumerate(out["completed"]):
            if pair.hamiltonian.terms != expected.half_quadratic_terms(hess[mu]):
                raise OracleError(f"completed pair {mu}: Hamiltonian is not S_{mu}")
            if [list(r) for r in pair.form.upper] != forms[mu]:
                raise OracleError(f"completed pair {mu}: bracket matrix is not W_{mu}")

        basis = [np.asarray(b, dtype=float) for b in out["basis"].basis]
        a_f = np.array(a, dtype=float)
        if len(basis) != 4 or np.linalg.matrix_rank(
                np.stack([b.ravel() for b in basis])) != 4:
            raise OracleError(f"admissible space has dimension {len(basis)}, expected 4")
        for b in basis:
            if np.max(np.abs(b + b.T)) > 1e-12 or np.max(np.abs(b @ a_f + a_f.T @ b)) > 1e-10:
                raise OracleError("admissible basis element violates theta A + A^T theta = 0")
        span = np.stack([b.ravel() for b in basis], axis=1)
        for mu, theta in enumerate(inp["thetas"]):
            target = np.array(theta, dtype=float).ravel()
            coeffs, *_ = np.linalg.lstsq(span, target, rcond=None)
            if np.max(np.abs(span @ coeffs - target)) > 1e-10 * max(1.0, np.max(np.abs(target))):
                raise OracleError(f"inverse form {mu} is outside the admissible space")


class Verify(Workload):
    """``python -m symquant check`` in a fresh interpreter per op."""

    name = "verify"
    top = "cli.check"

    def setup(self) -> None:
        """Nothing to import: the library runs only in the child processes."""

    def make_input(self, op: int) -> Path:
        rng = self.rng(op)
        # m * omega >= 1 keeps the ground-state probe below 1e-12 at the
        # boundary of [-8, 8)^2, so the commutator group passes rather than warns
        m, omega = (float(v) for v in rng.uniform(1.0, 1.8, size=2))
        doc = {
            "m": m, "omega": omega, "hbar": 1.0,
            "packet": {"center": [float(v) for v in rng.uniform(-1.0, 1.0, size=2)],
                       "wavevector": [float(v) for v in rng.uniform(-1.0, 1.0, size=2)],
                       "sigma": float(rng.uniform(0.5, 0.7))},
            "schemes": list(SCHEMES),
            "observables": list(expected.OBSERVABLES),
            "times": [0.0, 0.5, 1.0],
            "grid": {"L": 8.0, "N": 128},
        }
        path = self.workdir / f"verify-{self.worker}-{op}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def run(self, path: Path) -> dict:
        return run_child([sys.executable, "-m", "symquant", "check",
                          "--scenario", str(path)], self.workdir)

    def run_traced(self, path: Path, tracer) -> dict:
        spans_path = path.with_suffix(".spans.json")
        out = run_child([sys.executable, str(TRACED_CHECK), str(spans_path),
                         "check", "--scenario", str(path)], self.workdir)
        try:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            spans = []
        finally:
            spans_path.unlink(missing_ok=True)
        for span in spans:
            span[4] = tracer.op_id
        tracer.spans.extend(spans)
        return out

    def check(self, path: Path, out: dict) -> None:
        path.unlink(missing_ok=True)
        if out["returncode"] != 0:
            raise OracleError(f"check exited {out['returncode']}: {out['stderr'][-500:]}")
        if out["stderr"].strip():
            raise OracleError(f"check wrote to stderr: {out['stderr'][-500:]}")
        expected_lines = [f"{g}: pass" for g in CHECK_GROUPS] + ["overall: pass"]
        got = [line.split(" (")[0] for line in out["stdout"].splitlines()]
        if got != expected_lines:
            raise OracleError(f"check output: {out['stdout'][-500:]}")


def run_child(cmd: list[str], workdir: Path) -> dict:
    """Run a child to completion; report its exit code, output and peak RSS."""
    stdout_path = workdir / "child.out"
    stderr_path = workdir / "child.err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        # wait4 rather than Popen.wait, for the child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": stderr_path.read_text(encoding="utf-8", errors="replace"),
        "max_rss_mb": usage.ru_maxrss / 1024.0,
    }


WORKLOADS = {cls.name: cls for cls in (Tabulate, Verify, Exact)}
