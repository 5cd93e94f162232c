#!/usr/bin/env python3
"""Regenerate ``perfbench/golden.json``: the default-seed pins.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

Simulates every (trace, config) the benchmark can run at the default
seed — both loop workloads' traces, and every distinct request of the
``serve_mixed`` list — and records its measured cycles and retired
instructions.  The pins are regression values of this code, not
reference measurements; regenerate them only for a change that is
meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


def main() -> int:
    from repro import simulate
    from repro.trace import TraceCache
    from repro.workloads import build_trace
    from run import loop_config, pin_of, serve_config, serve_requests

    settings = json.loads((BENCH / "settings.json").read_text())
    seed = settings["default_seed"]
    work = BENCH.parent / ".perfbench" / "pin"
    cache = TraceCache(work)
    golden: dict[str, dict] = {}
    try:
        loop = settings["loop"]
        traces = [build_trace(p, loop["trace_length"], seed=seed,
                              cache=cache) for p in loop["profiles"]]
        for workload in ("fdip_server", "stall_server"):
            config = loop_config(workload, settings)
            golden[workload] = {t.name: pin_of(simulate(t, config))
                                for t in traces}
        serve = golden["serve_mixed"] = {}
        length = settings["serve"]["trace_length"]
        for spec in serve_requests(seed, settings):
            if spec["kind"] == "repeat":
                continue
            trace = build_trace(spec["profile"], length, seed=spec["walk"],
                                cache=cache)
            serve[spec["id"]] = pin_of(simulate(
                trace, serve_config(spec["prefetch"], settings)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(v) for v in golden.values())} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
