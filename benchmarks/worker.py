"""One benchmark process: set up once, then run ops in a closed loop.

Started by ``run.py`` in a fresh interpreter; prints one JSON object as its
last line of standard output.  Set-up time runs from the moment ``run.py``
spawned this process (``--spawned-at``, on the system-wide monotonic clock)
to the end of one warm-up op: interpreter start, imports, inputs, warm-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """The BLAS numpy was built against, and the thread count it runs with."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                threads = int(query())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


class Loop:
    """Runs ops, checks each against its oracle, and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.child_rss: list[float] = []
        self.next_op = 0

    def attempt(self, tracer=None) -> float:
        """One op: build its input, time the call, then check the output.

        An op fails if it raises, warns, exits non-zero or misses the oracle.
        """
        op = self.next_op
        self.next_op += 1
        inp = self.workload.make_input(op)
        error = None
        out = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = self.workload.run(inp)
                else:
                    tracer.op_id = op
                    out = self.workload.run_traced(inp, tracer)
            except Exception as exc:  # an op that raises is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if error is None:
                try:
                    self.workload.check(inp, out)
                except Exception as exc:
                    error = f"oracle: {type(exc).__name__}: {exc}"
        if error is None and caught:
            error = f"warned: {caught[0].message}"
        if isinstance(out, dict) and "max_rss_mb" in out:
            self.child_rss.append(out["max_rss_mb"])
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {op}: {error}"[:1000])
        return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.worker, args.workdir)
    workload.setup()
    if "symquant" in sys.modules:
        origin = Path(sys.modules["symquant"].__file__).resolve()
        if ROOT / "src" not in origin.parents:
            raise SystemExit(f"imported symquant from {origin}, not from {ROOT / 'src'}")
    loop = Loop(workload)
    loop.attempt()
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s}
    deadline = time.monotonic() + args.seconds

    def more(done: int) -> bool:
        return done == 0 or time.monotonic() < deadline

    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced, per_op, archive = [], [], [], []
        while more(min(len(untraced), len(traced))) or len(traced) < len(untraced):
            if len(untraced) <= len(traced):
                untraced.append(loop.attempt())
                continue
            tracer.spans = []
            traced.append(loop.attempt(tracer))
            per_op.append(tracing.op_metrics(tracer.spans, workload.top))
            archive.append(tracer.spans)
        result["layers"] = {name: statistics.median(op[name] for op in per_op)
                            for name in per_op[0]}
        result["untraced_op_s"] = untraced
        result["traced_op_s"] = traced
        if args.spans_out is not None:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                # one span list per traced op; "parent" indexes that op's list
                json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                           "ops": archive}, handle)
    else:
        ops = []
        while more(len(ops)):
            ops.append(loop.attempt())
        result["op_s"] = ops

    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update({
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        # the process doing the work: this one, or for verify its children
        "max_rss_mb": max(loop.child_rss) if loop.child_rss else own_rss,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sympy": metadata.version("sympy"),
            "blas": blas_info(),
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
