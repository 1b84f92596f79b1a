"""Run the symquant CLI under the benchmark's tracer and write its spans out.

Usage: python traced_check.py SPANS_OUT CLI_ARG...

The traced stand-in for ``python -m symquant CLI_ARG...``: the same import and
the same ``cli.main``, wrapped in an ``op`` span covering both and a
``cli.check`` span around ``cli.main``.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = tracer.open("op")
    code = 1
    try:
        from symquant import cli

        tracer.install()
        span = tracer.open("cli.check")
        try:
            code = cli.main(argv)
        finally:
            tracer.close(span)
            tracer.uninstall()
    finally:
        tracer.close(root)
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
