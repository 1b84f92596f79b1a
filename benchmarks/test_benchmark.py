"""Smoke tests of the benchmark: every metric is emitted and every oracle bites.

Run from the repository root:  python -m pytest benchmarks/test_benchmark.py
(about a minute; the tier-1 suite does not collect this file).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import expected  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_every_metric_the_benchmark_emits(spec):
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_its_oracle(spec, workload, trace):
    # so short that each worker runs one op after its warm-up, on the same
    # path as a full run: three set-ups untraced, one traced worker
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert record["failed_ops_frac"] == 0 and record["seed"] == 7
    assert {"python", "numpy", "sympy", "blas", "nproc"} <= set(record["env"])
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # each workload is dominated by the layers it was chosen for
    share = {layer: values[f"{layer}.total.self_frac"] for layer in
             ("phasespace", "pairs", "flow", "operators", "quantum", "lab", "cli")}
    assert values["trace.coverage"] > 0.9
    if workload == "tabulate":
        assert share["quantum"] + share["operators"] >= 0.9
    elif workload == "exact":
        assert share["phasespace"] + share["pairs"] >= 0.9
        assert share["quantum"] == share["operators"] == 0
    else:
        groups = {g: values[f"lab.run_checks.{g}.s"] for g in workloads.CHECK_GROUPS}
        assert max(groups, key=groups.get) == "unitary"
        assert values["quantum.unitary_conjugation_check.cold_s"] > \
            values["quantum.unitary_conjugation_check.warm_s"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the oracles reject wrong answers -------------------------------------------

def _in_process(cls, tmp_path):
    workload = cls(seed=5, worker=0, workdir=tmp_path)
    workload.setup()
    inp = workload.make_input(0)
    return workload, inp, workload.run(inp)


def test_tabulate_oracle_rejects_a_shifted_mean(tmp_path):
    workload, inp, out = _in_process(workloads.Tabulate, tmp_path)
    workload.check(inp, out)
    report = json.loads(out)
    report["cells"][37]["mean_re"] += 1e-6
    with pytest.raises(workloads.OracleError, match="mean"):
        workload.check(inp, json.dumps(report))


def test_exact_oracle_rejects_a_wrong_reason_and_a_nonzero_residual(tmp_path):
    workload, inp, out = _in_process(workloads.Exact, tmp_path)
    workload.check(inp, out)
    bad = dict(out, degenerate=out["symmetric"])
    with pytest.raises(workloads.OracleError, match="degenerate"):
        workload.check(inp, bad)
    residual = out["sym_residuals"][2]
    bad = dict(out, sym_residuals=[residual] * 3 + [(residual[0] + 1,) + residual[1:]])
    with pytest.raises(workloads.OracleError, match="literally zero"):
        workload.check(inp, bad)


def test_verify_oracle_rejects_a_warned_group(tmp_path):
    workload = workloads.Verify(seed=5, worker=0, workdir=tmp_path)
    lines = [f"{g}: pass (ok)" for g in workloads.CHECK_GROUPS] + ["overall: pass"]
    good = {"returncode": 0, "stdout": "\n".join(lines), "stderr": ""}
    workload.check(workload.make_input(0), good)
    bad = copy.deepcopy(good)
    bad["stdout"] = bad["stdout"].replace("commutators: pass", "commutators: warn")
    with pytest.raises(workloads.OracleError):
        workload.check(workload.make_input(1), bad)


def test_closed_forms_generate_the_oscillator():
    m, omega = Fraction(3, 7), Fraction(5, 2)
    a = expected.field_matrix(m, omega)
    for w, s in zip(expected.bracket_matrices(m, omega), expected.hessians(m, omega)):
        assert expected.matmul(w, s) == a
        assert expected.is_conserved(s, a)
        assert expected.matmul(w, expected.inverse(w)) == [
            [int(i == j) for j in range(4)] for i in range(4)]
