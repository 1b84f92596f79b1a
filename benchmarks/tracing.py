"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps functions of the symquant modules for the duration of one
traced op and restores the originals afterwards, so untraced ops run the
unmodified library.  Every module-level name bound to a probed function is
rebound, which catches both ``module.f(...)`` calls and names imported with
``from .module import f``.  A probe whose target no longer exists is skipped:
its metrics then read zero and ``trace.coverage`` drops, which shows that the
traced decomposition has gone stale.

A span is ``[name, start, end, parent, op_id, extra]``; ``parent`` is the
index of the enclosing span in the same list, or -1.  ``extra`` is the bytes
of the input and output fields for a primitive grid action (computed from the
array sizes, not measured), 1 for a unitary check that is the first for its
scheme and grid in the process (cold: it builds the generator eigensystem),
and 0 otherwise.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# the groups of ``symquant check``; lab.run_checks runs each as _check_<group>
CHECK_GROUPS = ("pairs", "flow", "commutators", "uncertainties", "unitary")

# (metric prefix, module, attribute); "Class.method" attributes patch the class.
PROBES = (
    ("lab.run_scenario", "lab", "run_scenario"),
    ("lab.report_to_json", "lab", "report_to_json"),
    ("lab.run_checks", "lab", "run_checks"),
) + tuple(
    (f"lab.run_checks.{group}", "lab", f"_check_{group}") for group in CHECK_GROUPS
) + (
    ("quantum.scheme", "quantum", "scheme"),
    ("quantum.heisenberg_operator", "quantum", "heisenberg_operator"),
    ("quantum.expectation", "quantum", "expectation"),
    ("quantum.variance", "quantum", "variance"),
    ("quantum.uncertainty_product", "quantum", "uncertainty_product"),
    ("quantum.commutator_table_check", "quantum", "commutator_table_check"),
    ("quantum.unitary_conjugation_check", "quantum", "unitary_conjugation_check"),
    ("quantum.unitary_evolve", "quantum", "unitary_evolve"),
    ("operators.GaussianPacket.sample", "operators", "GaussianPacket.sample"),
    ("operators.OperatorExpr.apply", "operators", "OperatorExpr.apply"),
    ("operators.dense_matrix", "operators", "dense_matrix"),
    # one primitive grid action per call; the metric name depends on which
    ("operators.apply", "operators", "_apply_primitive"),
    ("pairs.oscillator_field", "pairs", "oscillator_field"),
    ("pairs.standard_pairs", "pairs", "standard_pairs"),
    ("pairs.verify_pair", "pairs", "verify_pair"),
    ("pairs.complete_pair", "pairs", "complete_pair"),
    ("pairs.admissible_inverse_forms", "pairs", "admissible_inverse_forms"),
    ("phasespace.validate_form", "phasespace", "validate_form"),
    ("phasespace.poisson_bracket", "phasespace", "poisson_bracket"),
    ("phasespace.is_constant_of_motion", "phasespace", "is_constant_of_motion"),
    ("flow.pullback_deviation", "flow", "pullback_deviation"),
    ("flow.conserved_along_flow", "flow", "conserved_along_flow"),
)

PRIMITIVE_NAMES = {"X": "operators.apply_x", "Y": "operators.apply_y",
                   "DX": "operators.apply_dx", "DY": "operators.apply_dy"}

# every span name the probes record; the primitive probe records one name
# per primitive in place of its own
SPAN_NAMES = tuple(sorted(
    {name for name, _, _ in PROBES if name != "operators.apply"}
    | set(PRIMITIVE_NAMES.values())))

# spans whose inclusive time is reported too: the opaque top-level calls and
# the check groups, whose work is almost all in their children
INCLUSIVE = ("lab.run_scenario", "cli.check") + tuple(
    f"lab.run_checks.{group}" for group in CHECK_GROUPS)

LAYERS = ("phasespace", "pairs", "flow", "operators", "quantum", "lab", "cli")


class Tracer:
    """Collects spans in memory; ``install``/``uninstall`` bracket one traced op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._unitary_seen: set = set()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra: int = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = extra
        self._stack.pop()

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        if name == "operators.apply":
            @functools.wraps(fn)
            def primitive(p, values, grid):
                idx = tracer.open(PRIMITIVE_NAMES[p.name])
                try:
                    return fn(p, values, grid)
                finally:
                    tracer.close(idx, 2 * values.nbytes)
            return primitive

        if name == "quantum.unitary_conjugation_check":
            @functools.wraps(fn)
            def unitary(s, which, t, grid, *args, **kwargs):
                key = (s.id, s.params, grid)
                cold = key not in tracer._unitary_seen
                tracer._unitary_seen.add(key)
                idx = tracer.open(name)
                try:
                    return fn(s, which, t, grid, *args, **kwargs)
                finally:
                    tracer.close(idx, int(cold))
            return unitary

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def install(self) -> None:
        """Wrap every probe target in every loaded symquant module."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "symquant" or key.startswith("symquant."))]
        for name, module_name, attr in PROBES:
            home = sys.modules.get(f"symquant.{module_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = cls.__dict__.get(method) if cls is not None else None
                if original is None:
                    continue
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def op_metrics(spans: list[list], top: str) -> dict[str, float]:
    """Per-op layer metrics from one op's spans.

    ``spans`` holds exactly one root span named ``op``; ``top`` names the
    opaque top-level call whose traced children define ``trace.coverage``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    nbytes: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    root_s = 0.0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        own = (end - start) - child_time[i]
        if name == "op":
            root_s += end - start
            continue
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        nbytes[name] += extra
        layer_self[name.split(".")[0]] += own

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in INCLUSIVE:
        out[f"{name}.s"] = total_s[name]
    out["operators.apply_dx.bytes_computed"] = nbytes["operators.apply_dx"]
    out["operators.apply_x.bytes_computed"] = nbytes["operators.apply_x"]
    cold = sum(end - start for name, start, end, _, _, first in spans
               if name == "quantum.unitary_conjugation_check" and first)
    out["quantum.unitary_conjugation_check.cold_s"] = cold
    out["quantum.unitary_conjugation_check.warm_s"] = (
        total_s["quantum.unitary_conjugation_check"] - cold)
    for layer in LAYERS:
        out[f"{layer}.total.self_frac"] = layer_self[layer] / root_s if root_s else 0.0
    out["trace.coverage"] = _coverage(spans, child_time, top)
    return out


def _coverage(spans: list[list], child_time: list[float], top: str) -> float:
    """Self time of everything traced below ``top`` over ``top``'s duration."""
    below = [False] * len(spans)
    top_s = covered = 0.0
    for i, (name, start, end, parent, *_) in enumerate(spans):
        if parent >= 0 and (below[parent] or spans[parent][0] == top):
            below[i] = True
            covered += (end - start) - child_time[i]
        if name == top and not (parent >= 0 and below[parent]):
            top_s += end - start
    return covered / top_s if top_s else 0.0
