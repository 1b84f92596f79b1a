"""symquant benchmark: three seeded, closed-loop, single-client workloads.

Usage (from the repository root):

    python3 benchmarks/run.py --workload {tabulate,verify,exact} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it starts ``SETUPS`` (3) fresh worker processes one after
another.  Each sets up (imports symquant, builds its inputs and runs one
warm-up op), then runs ops for ``S / 3`` seconds, at least one, checking
every output against a closed-form oracle.  It reports the end-to-end
metrics:

* ``setup_s``: median over the workers of spawn to warm-up op done
* ``throughput_ops_s``: ops completed over the summed op wall time
* ``max_rss_mb``: median over the workers of the peak RSS of the process
  doing the work (for ``verify``, the ``check`` child processes)

The median op time ``op_p50_s`` and its sample count go to the run record
only: on a machine whose speed switches between a fast and a slow phase the
median jumps between the two from run to run, where the mean behind
``throughput_ops_s`` moves smoothly with the share of slow ops.

With ``--trace 1`` one worker alternates untraced and traced ops for ``S``
seconds and reports the per-layer metrics: per-op medians of span calls and
self times, ``import.*`` from ``python -X importtime``, the tracing overhead
and the trace coverage.  No end-to-end number comes from a traced run.

The second-to-last line of standard output is a record of the run: seed,
environment, op counts, failures and ``failed_ops_frac``.  The last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  Spans of the
traced run are written to ``.bench_work/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tabulate", "verify", "exact")
# every worker must end by then, so that a run ends within three minutes
DEADLINE = time.monotonic() + 170.0
IMPORT_PROBES = 3
# fresh worker processes in an untraced run; setup_s is their median
SETUPS = 3

END_TO_END_UNITS = {"setup_s": "s", "throughput_ops_s": "1/s", "max_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in tracing.INCLUSIVE:
        units[f"{name}.s"] = "s"
    units.update({
        "operators.apply_dx.bytes_computed": "B",
        "operators.apply_x.bytes_computed": "B",
        "quantum.unitary_conjugation_check.cold_s": "s",
        "quantum.unitary_conjugation_check.warm_s": "s",
    })
    for layer in tracing.LAYERS:
        units[f"{layer}.total.self_frac"] = "fraction"
    units.update({"import.symquant_s": "s", "import.sympy_s": "s",
                  "trace.overhead_frac": "fraction", "trace.coverage": "fraction"})
    return units


def child_env() -> tuple[dict, int]:
    """Environment for every process the benchmark starts: this checkout's
    ``src`` first on the path and at most two BLAS threads (``nproc`` on
    the 2-core machine the workloads were sized on)."""
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env, threads


def run_worker(args, env: dict, workdir: Path, worker: int, seconds: float,
               spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--worker", str(worker),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # a session of its own, so a timeout also stops the worker's children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
    except BaseException as exc:  # timed out, interrupted or terminated
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"worker {worker} did not finish in time") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {worker} exited {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def import_times(env: dict) -> dict[str, float]:
    """Cumulative import time of symquant and of sympy during ``import symquant``.

    A package that ``import symquant`` no longer pulls in reads 0.
    """
    samples: dict[str, list[float]] = {"symquant": [], "sympy": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symquant"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE - time.monotonic()), check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        for name in samples:
            samples[name].append(cumulative.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def timed_run(args, env: dict, workdir: Path) -> tuple[dict, dict]:
    workers = [run_worker(args, env, workdir, k, args.seconds / SETUPS)
               for k in range(SETUPS)]
    ops = [t for w in workers for t in w["op_s"]]
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "throughput_ops_s": len(ops) / sum(ops),
        "max_rss_mb": statistics.median(w["max_rss_mb"] for w in workers),
    }
    units = END_TO_END_UNITS
    detail = {"op_p50_s": statistics.median(ops), "op_samples": len(ops),
              "setup_samples": [w["setup_s"] for w in workers]}
    return ({name: {"value": metrics[name], "unit": units[name]} for name in units},
            {"workers": workers, **detail})


def traced_run(args, env: dict, workdir: Path) -> tuple[dict, dict]:
    spans_out = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
    worker = run_worker(args, env, workdir, 0, args.seconds, spans_out)
    values = dict(worker["layers"])
    values.update({f"import.{name}_s": t for name, t in import_times(env).items()})
    values["trace.overhead_frac"] = (statistics.median(worker["traced_op_s"])
                                     / statistics.median(worker["untraced_op_s"]) - 1.0)
    units = per_layer_units()
    return ({name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            {"workers": [worker], "spans": str(spans_out.relative_to(ROOT)),
             "op_samples": len(worker["traced_op_s"])})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="symquant benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "symquant" / "__init__.py").is_file():
        print(f"error: no symquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # terminating the benchmark must also stop the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env, threads = child_env()
    workbase = ROOT / ".bench_work"
    workbase.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workbase))
    try:
        metrics, detail = (traced_run if args.trace else timed_run)(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    workers = detail.pop("workers")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "failed_ops_frac": failed / attempted,
        "failures": [f for w in workers for f in w["failures"]],
        **detail,
        "env": {**workers[0]["env"], "nproc": len(os.sched_getaffinity(0)),
                "thread_cap": threads},
    }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
