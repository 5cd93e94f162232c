#!/usr/bin/env python3
"""Run ``repro serve`` with the benchmark's tracer installed.

Usage::

    python3 perfbench/serve_boot.py DUMP.json serve [repro serve flags]

The traced ``serve_mixed`` run starts the daemon through this script
instead of ``python -m repro``: it wraps the layers (see
``tracing.py``), runs the normal CLI, and when the daemon shuts down
writes every span and aggregate it recorded to ``DUMP.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    from repro.cli import main as cli_main
    from tracing import Tracer

    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
