"""Command-line front end: init, run, check, and pairs subcommands."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._version import __version__
from .lab import (
    Scenario,
    ScenarioError,
    _pair_residuals,
    default_scenario,
    emit_report,
    load_scenario,
    run_checks,
    run_scenario,
)
from .pairs import (
    admissible_inverse_forms,
    classify_boundedness,
    complete_pair,
    oscillator_field,
    standard_pairs,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symquant",
        description="Alternative symplectic structures for the 2-D oscillator "
                    "and the inequivalent quantum theories they generate.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    init_cmd = sub.add_parser("init", help="write the default scenario file")
    init_cmd.add_argument("--out", default="scenario.json",
                          help="destination path, or '-' for stdout")

    run_cmd = sub.add_parser("run", help="evaluate a scenario and emit a report")
    _scenario_args(run_cmd)
    run_cmd.add_argument("--format", choices=("csv", "json"), default="json")
    run_cmd.add_argument("--out", default="-", help="destination path, or '-' for stdout")
    run_cmd.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp for byte-identical output")

    check_cmd = sub.add_parser("check", help="run the verification suite")
    _scenario_args(check_cmd)
    check_cmd.add_argument("--corrupt-form", action="store_true",
                           help="test fixture: feed a symmetric matrix to the "
                                "pair check and expect it to fail")

    pairs_cmd = sub.add_parser("pairs", help="print the admissible-form basis "
                                             "and the four standard pairs")
    _scenario_args(pairs_cmd)
    return parser


def _scenario_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--scenario", default=None,
                     help="scenario JSON path (defaults to the built-in scenario)")
    cmd.add_argument("--grid-n", type=int, default=None,
                     help="override grid points per axis")
    cmd.add_argument("--grid-l", type=float, default=None,
                     help="override grid half-width")


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    if args.grid_n is not None or args.grid_l is not None:
        scenario = scenario.with_grid(points=args.grid_n, half_width=args.grid_l)
    return scenario


def _cmd_init(args: argparse.Namespace) -> int:
    payload = json.dumps(default_scenario().to_dict(), indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote default scenario to {args.out}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    report = run_scenario(scenario)
    emit_report(report, args.format, args.out,
                include_timestamp=not args.no_timestamp)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    summary = run_checks(scenario, corrupt_form=args.corrupt_form)
    for result in summary.results:
        print(f"{result.name}: {result.status} ({result.detail})")
    print(f"overall: {'fail' if summary.failed else 'pass'}")
    return summary.exit_code


def _format_matrix(matrix: np.ndarray) -> str:
    rows = []
    for row in np.asarray(matrix, dtype=float):
        rows.append("  [" + ", ".join(f"{v: .6f}" for v in row) + "]")
    return "\n".join(rows)


def _cmd_pairs(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    m, omega = scenario.params.m, scenario.params.omega
    field = oscillator_field(m, omega)
    basis = admissible_inverse_forms(field)
    print(f"oscillator field at m={m}, omega={omega}")
    print(f"admissible inverse-form space: dimension {basis.dimension}")
    for k, theta in enumerate(basis.basis):
        print(f"basis[{k}] =")
        print(_format_matrix(theta))
        try:
            pair = complete_pair(theta, field)
        except ValueError as exc:
            print(f"  {exc}: excluded from pair construction")
        else:
            print(f"  completes to H = {pair.hamiltonian}")
    print()
    print("standard pairs:")
    pairs = standard_pairs(m, omega)
    for mu, (pair, worst) in enumerate(zip(pairs, _pair_residuals(scenario.params, pairs))):
        label = classify_boundedness(pair.hamiltonian)
        contained = basis.contains(pair.form.lower_array(), tol=1e-10)
        print(f"  scheme {mu}: H = {pair.hamiltonian}")
        print(f"    residual {worst:.3e}, {label}, inverse form in admissible "
              f"space: {contained}")
    return 0


_HANDLERS = {
    "init": _cmd_init,
    "run": _cmd_run,
    "check": _cmd_check,
    "pairs": _cmd_pairs,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
