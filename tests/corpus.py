"""A corpus of scenarios from the valid domain (README, "Valid domain"), its edges included.

`scenarios()` returns each scenario document by name.  They cover m omega /
hbar from 1e-12 to 1e12 in oscillator units, packets just inside the
aliasing and boundary limits, N from 16 to 512, every `checks` toggle, and
subsets of schemes, observables and times.  `test_corpus.py` pins the SHA-256
of each one's `run --no-timestamp` JSON and `check` text, so a change that
moves any printed byte of a valid scenario names it.

Run as a script to print the digests of the current tree:

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from symquant.cli import main

CHECKS = ("pairs", "flow", "commutators", "uncertainties", "unitary")
ALL_ON = {name: True for name in CHECKS}


def _only(*names: str) -> dict:
    return {name: name in names for name in CHECKS}


def _document(m, omega, hbar, center, wavevector, sigma, L, N, times,
              schemes=(0, 1, 2, 3), observables=("x", "y", "p_x", "p_y"), checks=ALL_ON):
    return {"m": m, "omega": omega, "hbar": hbar,
            "packet": {"center": list(center), "wavevector": list(wavevector), "sigma": sigma},
            "schemes": list(schemes), "observables": list(observables), "times": list(times),
            "grid": {"L": L, "N": N}, "checks": dict(checks)}


def _oscillator_units(m, omega, hbar, N=64, checks=ALL_ON):
    """The packet and grid in units of sigma_ref = sqrt(hbar / (m omega)), times in 1/omega."""
    ref = math.sqrt(hbar / (m * omega))
    return _document(m, omega, hbar, (0.3 * ref, -0.2 * ref), (0.5 / ref, -0.4 / ref),
                     0.6 * ref, 8.0 * ref, N,
                     [tau / omega for tau in (0.0, 0.4, math.pi / 2, -2.3)], checks=checks)


def scenarios() -> dict:
    unit = 1.0 / math.sqrt(2.0)  # the ground width at m = omega = hbar = 1
    default_times = (0.0, math.pi / 4.0, math.pi / 2.0)
    out = {
        "default": _document(1.0, 1.0, 1.0, (1.0, 0.0), (1.0, 0.0), unit, 8.0, 128,
                             default_times),
        # m omega / hbar across decades, each split differently among m, omega and hbar
        "scale-1e-12": _oscillator_units(1e-12, 1.0, 1.0),
        "scale-1e-6": _oscillator_units(1.0, 1e-3, 1e3),
        "scale-1e-3-hbar": _oscillator_units(2.0, 0.5, 1e3),
        "scale-1e3": _oscillator_units(1e3, 1.0, 1.0),
        "scale-1e6": _oscillator_units(1.0, 1.0, 1e-6),
        "scale-1e12": _oscillator_units(1e4, 1e8, 1.0),
        "generic-params": _oscillator_units(1.3, 1.5, 0.7, N=96),
        # the spectral edge exp(-(0.7071 (pi/0.5 - 1.4))^2) = 6.6e-6, under 1e-5
        "near-aliasing": _document(1.0, 1.0, 1.0, (0.0, 0.0), (1.4, -0.3), unit, 8.0, 32,
                                   default_times),
        # the boundary edge exp(-4.875^2 / 2) = 6.9e-6, under 1e-5
        "near-boundary": _document(1.0, 1.0, 1.0, (3.0, -1.0), (0.5, 0.5), unit, 8.0, 128,
                                   default_times),
        # N = 16: a packet between grid points, both edges near 8e-6; the
        # commutator and uncertainty probes, centred on a grid point, would
        # not fit, so those groups are off
        "n16": _document(1.0, 1.0, 1.0, (-0.4575, -0.4575), (0.0, 0.0), 1.0, 7.32, 16,
                         default_times, checks=_only("pairs", "flow", "unitary")),
        "n32": _oscillator_units(0.8, 1.25, 1.0, N=32, checks=_only("pairs", "flow", "unitary")),
        "n256": _oscillator_units(1.0, 1.0, 1.0, N=256, checks=_only("commutators")),
        "n512": _document(1.0, 1.0, 1.0, (0.5, -0.5), (2.0, 1.0), unit, 12.0, 512,
                          (0.3,), schemes=(1, 3), observables=("p_x",),
                          checks=_only("pairs")),
        # subsets of schemes, observables and times, negative and large times
        "subset-crossed": _document(2.5, 1.3, 0.7, (0.2, 0.4), (-0.6, 0.9), 0.45, 5.0, 64,
                                    (-1.1, 0.0, 1e6), schemes=(3, 1), observables=("p_y", "x"),
                                    checks=_only("uncertainties")),
        "symmetric-packet": _document(1.0, 1.0, 1.0, (0.7, 0.7), (0.5, 0.5), unit, 8.0, 64,
                                      (0.25, 3.0), schemes=(1,)),
    }
    # each check group on its own, and none
    for name in CHECKS:
        out[f"only-{name}"] = _oscillator_units(1.7, 0.6, 1.2, checks=_only(name))
    out["no-checks"] = _oscillator_units(0.9, 2.0, 1.1, checks=_only())
    return out


def digests(name: str, document: dict, directory: Path) -> tuple[str, str, int]:
    """(SHA-256 of `run --no-timestamp` stdout, SHA-256 of `check` stdout, check's exit
    code), each command run in process on the document written to `directory`; `run`
    must exit 0."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    outputs = []
    for argv in (["run", "--no-timestamp"], ["check"]):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main([*argv, "--scenario", str(path)])
        outputs.append((hashlib.sha256(buffer.getvalue().encode()).hexdigest(), code))
    (run_sha, run_code), (check_sha, check_code) = outputs
    assert run_code == 0, name
    return run_sha, check_sha, check_code


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, document in scenarios().items():
            print(f"    {name!r}: {digests(name, document, Path(tmp))!r},")
