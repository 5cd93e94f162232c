#!/usr/bin/env python3
"""The repository benchmark: one named workload, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fdip_server --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/settings.json`` for why each was chosen and
its input sizes):

- ``fdip_server`` — FDIP at stock latencies, back to back on pre-built
  ``gcc_like`` and ``vortex_like`` traces, through
  :func:`repro.api.simulate`;
- ``stall_server`` — the same traces with no prefetcher and a
  1600-cycle memory, where most cycles are jumped analytically;
- ``serve_mixed`` — a ``repro serve`` daemon in a subprocess, driven by
  two closed-loop :class:`repro.serve.Client` threads over a seeded mix
  of first-touch, trace-reuse and exact-repeat requests.

``--trace 0`` reports the end-to-end metrics (tracing off).
``--trace 1`` runs an untraced part and a traced part, reports the
per-layer metrics (host time per layer from wrappers around the public
functions of each layer, see ``perfbench/tracing.py``) and writes the
spans as Chrome trace-event JSON under ``.perfbench_out/``.

Every operation's output is checked: each ``SimResult`` passes
``check_invariants``; repeats are bit-identical to the first result;
after timing, each distinct (trace, config) is re-simulated once with
the ``naive`` engine and must match exactly; at the default seed,
cycles and retired counts must equal the pins in
``perfbench/golden.json``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("fdip_server", "stall_server", "serve_mixed")
DAEMON_START_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Operation bookkeeping
# ----------------------------------------------------------------------

class Ops:
    """Attempted operations, each keyed by the (trace, config) it ran."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.failed: set[int] = set()
        self.reasons: list[str] = []

    def add(self, key: str, error: str | None = None) -> int:
        self.keys.append(key)
        index = len(self.keys) - 1
        if error is not None:
            self.fail_index(index, error)
        return index

    def fail_index(self, index: int, reason: str) -> None:
        self.failed.add(index)
        self.reasons.append(f"{self.keys[index]}: {reason}")

    def fail_key(self, key: str, reason: str) -> None:
        """A failed check on ``key`` fails every operation that ran it."""
        for index, other in enumerate(self.keys):
            if other == key:
                self.failed.add(index)
        self.reasons.append(f"{key}: {reason}")


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def result_dict(result) -> dict:
    from repro.sim.serialize import result_to_dict

    return result_to_dict(result)


def check_result(ops: Ops, index: int, result) -> None:
    from repro.sim.invariants import check_invariants

    violations = check_invariants(result, warmed_up=True)
    if violations:
        ops.fail_index(index, "invariants: " + "; ".join(violations))


def pin_of(result) -> dict:
    """What golden.json pins per result: simulated cycles and retired
    instructions (see pin.py)."""
    return {"cycles": result.cycles,
            "retired": result.get("backend.retired")}


def check_pin(ctx: "Context", ops: Ops, key: str, result) -> None:
    """At the default seed, ``key``'s result matches its golden pin."""
    if ctx.seed != ctx.settings["default_seed"]:
        return
    pin = ctx.golden.get(ctx.workload, {}).get(key)
    if pin != pin_of(result):
        ops.fail_key(key, f"golden pin {pin} != {pin_of(result)}")


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------

class Context:
    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.settings = json.loads(
            (BENCH / "settings.json").read_text(encoding="utf-8"))
        self.golden = json.loads(
            (BENCH / "golden.json").read_text(encoding="utf-8"))
        self.work = ROOT / ".perfbench" / (
            f"{self.workload}-{self.seed}-{os.getpid()}")
        self.out = ROOT / ".perfbench_out"

    @property
    def timed_seconds(self) -> tuple[float, float]:
        """(untraced, traced) seconds of the timed part."""
        if not self.trace:
            return float(self.seconds), 0.0
        return self.seconds / 3.0, self.seconds * 2.0 / 3.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Loop workloads: fdip_server, stall_server
# ----------------------------------------------------------------------

def loop_config(workload: str, settings: dict):
    from dataclasses import replace

    from repro import PrefetchConfig, SimConfig

    loop = settings["loop"]
    warmup = int(loop["trace_length"] * loop["warmup_fraction"])
    if workload == "fdip_server":
        return SimConfig(prefetch=PrefetchConfig(kind="fdip",
                                                 filter_mode="enqueue"),
                         warmup_instructions=warmup)
    config = SimConfig(prefetch=PrefetchConfig(kind="none"),
                       warmup_instructions=warmup)
    return config.replace(memory=replace(
        config.memory, memory_latency=loop["stall_memory_latency"]))


def build_loop_traces(ctx: Context, rep: int) -> list:
    from repro.trace import TraceCache
    from repro.workloads import build_trace

    loop = ctx.settings["loop"]
    cache = TraceCache(ctx.work / f"traces-{rep}")
    return [build_trace(profile, loop["trace_length"], seed=ctx.seed,
                        cache=cache)
            for profile in loop["profiles"]]


def run_loop(ctx: Context) -> dict:
    from repro import simulate
    from tracing import Tracer, count_calls

    config = loop_config(ctx.workload, ctx.settings)
    setup_tracer = Tracer() if ctx.trace else None
    setup_times = []
    for rep in range(ctx.settings["setup_reps"]):
        if setup_tracer is not None:
            setup_tracer.install()
        began = perf_counter()
        traces = build_loop_traces(ctx, rep)
        setup_times.append(perf_counter() - began)
        if setup_tracer is not None:
            setup_tracer.uninstall()
    instructions = sum(len(trace) for trace in traces)

    ops = Ops()
    # The first result per trace is the reference every later pass
    # must repeat exactly.
    reference: dict[str, object] = {}

    def passes(seconds: float, tracer: Tracer | None) -> list[float]:
        latencies = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or not latencies:
            total = 0.0
            results = []
            with (tracer.span("request", f"pass{len(latencies)}")
                  if tracer is not None else nullcontext()):
                for trace in traces:
                    began = perf_counter()
                    try:
                        result = simulate(trace, config)
                    except Exception as exc:  # noqa: BLE001 — counted
                        result = exc
                    total += perf_counter() - began
                    results.append(result)
            latencies.append(total)
            for trace, result in zip(traces, results):
                if isinstance(result, Exception):
                    ops.add(trace.name, f"raised {result!r}")
                    continue
                index = ops.add(trace.name)
                check_result(ops, index, result)
                ref = reference.setdefault(trace.name, result)
                if (result.cycles, result.counters) != \
                        (ref.cycles, ref.counters):
                    ops.fail_index(index, "differs from the first pass")
        return latencies

    untraced_s, traced_s = ctx.timed_seconds
    began = perf_counter()
    latencies = passes(untraced_s, None)
    elapsed = perf_counter() - began
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if ctx.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = passes(traced_s, tracer)
        finally:
            tracer.uninstall()
        work = [count_calls(lambda: [simulate(t, config) for t in traces])
                for _ in range(2)]
        if work[0] != work[1]:
            ops.add("work-pass", f"call counts differ: {work}")
        base = statistics.median(latencies)
        dumps = [setup_tracer.to_dict(), tracer.to_dict()]
        layer = layer_metrics(
            run=tracer.to_dict(), requests=len(traced),
            setup=setup_tracer.to_dict(), setups=len(setup_times),
            work=work[0],
            overhead=(statistics.median(traced) - base) / base)
        export_trace(ctx, ops, dumps)

    # Untimed cross-checks: the naive engine and the golden pins.
    for trace in traces:
        ref = reference.get(trace.name)
        if ref is None:
            continue   # every run of it raised; already counted
        naive = simulate(trace, config, engine="naive")
        if result_dict(naive) != result_dict(ref):
            ops.fail_key(trace.name, "event and naive engines differ")
        check_pin(ctx, ops, trace.name, ref)

    log(f"{ctx.workload}: {len(latencies)} timed passes of "
        f"{len(traces)} traces, {instructions} instructions per pass")
    e2e = {
        "sim_ips": (statistics.median(instructions / t for t in latencies),
                    "instr/s"),
        "req_p50_s": (statistics.median(latencies), "s"),
        "req_p90_s": (p90(latencies) if len(latencies) > 1
                      else latencies[0], "s"),
        "hit_p50_s": (statistics.median(latencies[1:] or latencies), "s"),
        "req_per_s": (len(latencies) / elapsed, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"ops": ops, "e2e": e2e, "layer": layer,
            "samples": len(latencies)}


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

def serve_requests(seed: int, settings: dict) -> list[dict]:
    """The seeded request list, built in blocks of three (see
    settings.json): a first-touch trace, a reuse of an earlier trace
    under a new prefetcher, and an exact repeat of an earlier request.
    """
    serve = settings["serve"]
    rng = random.Random(seed)
    profiles = [p for pair in zip(serve["client_profiles"],
                                  serve["server_profiles"]) for p in pair]
    kinds = serve["prefetchers"]
    requests: list[dict] = []
    traces: list[dict] = []
    cold = 0
    for _ in range(serve["blocks"]):
        for kind in rng.sample(["cold", "reuse", "repeat"], 3):
            pos = len(requests)
            if kind == "reuse":
                candidates = [t for t in traces
                              if t["pos"] <= pos - serve["reuse_distance"]
                              and len(t["used"]) < len(kinds)]
                kind = "reuse" if candidates else "cold"
            if kind == "repeat":
                candidates = [r for r in requests if r["kind"] != "repeat"
                              and r["pos"] <= pos - serve["repeat_distance"]]
                kind = "repeat" if candidates else "cold"
            if kind == "cold":
                prefetch = kinds[(cold + cold // len(profiles)) % len(kinds)]
                trace = {"profile": profiles[cold % len(profiles)],
                         "walk": 1000 * seed + cold, "pos": pos,
                         "used": [prefetch]}
                traces.append(trace)
                cold += 1
                request = {"profile": trace["profile"],
                           "walk": trace["walk"], "prefetch": prefetch}
            elif kind == "reuse":
                trace = rng.choice(candidates)
                prefetch = next(k for k in kinds if k not in trace["used"])
                trace["used"].append(prefetch)
                request = {"profile": trace["profile"],
                           "walk": trace["walk"], "prefetch": prefetch}
            else:
                original = rng.choice(candidates)
                request = {key: original[key]
                           for key in ("profile", "walk", "prefetch")}
                request["of"] = original["id"]
            request.update(kind=kind, pos=pos, id=f"r{pos:04d}")
            request.setdefault("of", request["id"])
            requests.append(request)
    return requests


def serve_config(prefetch: str, settings: dict):
    from repro import PrefetchConfig, SimConfig

    serve = settings["serve"]
    return SimConfig(prefetch=PrefetchConfig(kind=prefetch),
                     warmup_instructions=int(serve["trace_length"]
                                             * serve["warmup_fraction"]))


def run_request(spec: dict, settings: dict):
    from repro import RunRequest

    return RunRequest(workload=spec["profile"],
                      config=serve_config(spec["prefetch"], settings),
                      trace_length=settings["serve"]["trace_length"],
                      seed=spec["walk"], label=spec["id"])


class Daemon:
    """One ``repro serve`` subprocess with its own fresh cache dirs."""

    def __init__(self, ctx: Context, tag: str, dump: Path | None = None):
        from repro.serve import Client

        self.results = ctx.work / f"results-{tag}"
        self.traces = ctx.work / f"traces-{tag}"
        self.dump = dump
        ctx.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, REPRO_TRACE_CACHE=str(self.traces))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0",
                      "--cache-dir", str(self.results), "--workers",
                      str(ctx.settings["serve"]["daemon_workers"])]
        if dump is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            command = [sys.executable, str(BENCH / "serve_boot.py"),
                       str(dump)] + serve_args
        self._stderr = open(ctx.work / f"daemon-{tag}.err", "w",
                            encoding="utf-8")
        began = perf_counter()
        self.proc = subprocess.Popen(
            command, env=env, cwd=ctx.work, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        DAEMON_START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
            self.client = Client(host, int(port), timeout=120.0)
            deadline = perf_counter() + DAEMON_START_TIMEOUT
            while True:
                try:
                    if self.client.health().get("ok"):
                        break
                except Exception:  # noqa: BLE001 — not up yet
                    if perf_counter() > deadline:
                        raise
                if self.proc.poll() is not None:
                    raise RuntimeError("daemon exited during start-up")
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - began

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> dict | None:
        """Shut the daemon down; returns its tracer dump, if any."""
        try:
            if self.proc.poll() is None and hasattr(self, "client"):
                self.client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 — fall back to killing it
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._stderr.close()
        if self.dump is not None and self.dump.exists():
            return json.loads(self.dump.read_text(encoding="utf-8"))
        return None


def closed_loop(ctx: Context, daemon: Daemon, requests: list[dict],
                seconds: float, tracer=None) -> tuple[list, float]:
    """Two client threads, each sending its next request only after the
    previous one completed, until ``seconds`` pass or the list ends.

    Returns ``(records, elapsed)`` with one ``(spec, latency, response,
    error)`` record per request started.
    """
    from repro.errors import QueueFullError, ServeError
    from repro.serve import Client

    records: list = [None] * len(requests)
    cursor = [0]
    lock = threading.Lock()
    host, port = daemon.client.host, daemon.client.port
    began = perf_counter()
    deadline = began + seconds

    def client_loop() -> None:
        client = Client(host, port, timeout=120.0)
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests) or perf_counter() >= deadline:
                    return
                cursor[0] += 1
            spec = requests[index]
            request = run_request(spec, ctx.settings)
            response = error = None
            start = perf_counter()
            try:
                with (tracer.span("client.request", spec["id"])
                      if tracer is not None else nullcontext()):
                    response = client.run(request, wait=120.0)
            except QueueFullError as exc:
                error = f"429 {exc}"
            except ServeError as exc:
                error = f"non-200 {exc}"
            except Exception as exc:  # noqa: BLE001 — counted as failed
                error = repr(exc)
            records[index] = (spec, perf_counter() - start, response, error)

    threads = [threading.Thread(target=client_loop)
               for _ in range(ctx.settings["serve"]["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in records if r is not None], perf_counter() - began


def check_serve(ctx: Context, ops: Ops, records: list,
                trace_dir: Path) -> None:
    """Untimed output checks over one closed loop's responses."""
    from repro import simulate
    from repro.trace import TraceCache
    from repro.workloads import build_trace

    firsts: dict[str, tuple[dict, object]] = {}
    for spec, _, response, error in records:
        index = ops.add(spec["of"], error)
        if response is None:
            continue
        check_result(ops, index, response.result)
        payload = result_dict(response.result)
        first = firsts.setdefault(spec["of"], (spec, payload))
        if payload != first[1]:
            ops.fail_index(index, "repeat differs from the first response")
    cache = TraceCache(trace_dir)
    length = ctx.settings["serve"]["trace_length"]
    for key, (spec, payload) in firsts.items():
        trace = build_trace(spec["profile"], length, seed=spec["walk"],
                            cache=cache)
        naive = simulate(trace, serve_config(spec["prefetch"],
                                             ctx.settings),
                         name=payload["name"], engine="naive")
        if result_dict(naive) != payload:
            ops.fail_key(key, "served result differs from the naive "
                              "engine")
        check_pin(ctx, ops, key, naive)


def run_serve(ctx: Context) -> dict:
    requests = serve_requests(ctx.seed, ctx.settings)
    ops = Ops()
    untraced_s, traced_s = ctx.timed_seconds
    setup_times = []
    for rep in range(ctx.settings["setup_reps"] if not ctx.trace else 1):
        daemon = Daemon(ctx, f"u{rep}")
        setup_times.append(daemon.setup_s)
        if rep + 1 < ctx.settings["setup_reps"] and not ctx.trace:
            daemon.stop()
    try:
        records, elapsed = closed_loop(ctx, daemon, requests, untraced_s)
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    check_serve(ctx, ops, records, daemon.traces)

    served = [r for r in records if r[2] is not None]
    latencies = [r[1] for r in served]
    hits = [r[1] for r in served if r[2].source == "cache"]
    kinds = {k: sum(1 for r in records if r[0]["kind"] == k)
             for k in ("cold", "reuse", "repeat")}
    log(f"serve_mixed: {len(records)} requests ({kinds}), "
        f"{len(hits)} result-cache hits")
    layer = None
    if ctx.trace:
        layer = traced_serve(ctx, ops, requests, traced_s,
                             base_p50=statistics.median(latencies))
    instructions = ctx.settings["serve"]["trace_length"] * len(served)
    e2e = {
        "sim_ips": (instructions / elapsed, "instr/s"),
        "req_p50_s": (statistics.median(latencies), "s"),
        "req_p90_s": (p90(latencies), "s"),
        "hit_p50_s": (statistics.median(hits), "s"),
        "req_per_s": (len(served) / elapsed, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"ops": ops, "e2e": e2e, "layer": layer,
            "samples": len(latencies)}


def traced_serve(ctx: Context, ops: Ops, requests: list[dict],
                 seconds: float, base_p50: float) -> dict:
    """The traced part: a daemon started through serve_boot.py, the
    client side traced in this process, then the per-layer split."""
    from repro import simulate
    from repro.trace import TraceCache
    from repro.workloads import build_trace
    from tracing import TRACE_LAYERS, Tracer, count_calls, merge

    daemon = Daemon(ctx, "traced", dump=ctx.work / "daemon-spans.json")
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = closed_loop(ctx, daemon, requests, seconds, tracer)
    finally:
        tracer.uninstall()
        server = daemon.stop()
    if server is None:
        raise RuntimeError("the traced daemon wrote no span dump")
    check_serve(ctx, ops, records, daemon.traces)
    client = tracer.to_dict()
    served = [r for r in records if r[2] is not None]

    # serve.http: client round trip minus daemon-side spans and the
    # client's own wrapped calls, per request.
    daemon_time: dict[str, float] = {}
    for _, name, t0, t1, parent, request, *_ in server["spans"]:
        if parent == 0 and request is not None:
            daemon_time[request] = daemon_time.get(request, 0.0) + t1 - t0
    round_trips = {}
    client_inner: dict[int, float] = {}
    for sid, name, t0, t1, parent, request, *_ in client["spans"]:
        if name == "client.request":
            round_trips[sid] = (request, t1 - t0)
    for sid, name, t0, t1, parent, request, *_ in client["spans"]:
        if parent in round_trips:
            client_inner[parent] = client_inner.get(parent, 0.0) + t1 - t0
    http = sum(max(0.0, total - daemon_time.get(request, 0.0)
                   - client_inner.get(sid, 0.0))
               for sid, (request, total) in round_trips.items())

    # Trace-layer share of the first-touch requests' latency.
    first_touch = set(server["first_touch"])
    trace_self = sum(s[8] for s in server["spans"]
                     if s[1] in TRACE_LAYERS and s[5] in first_touch)
    first_latency = sum(r[1] for r in served if r[0]["id"] in first_touch)

    # The work pass: one computed request per prefetcher kind, locally.
    picks = {}
    for spec, *_ in served:
        if spec["kind"] != "repeat":
            picks.setdefault(spec["prefetch"], spec)
    cache = TraceCache(daemon.traces)
    length = ctx.settings["serve"]["trace_length"]
    jobs = [(build_trace(s["profile"], length, seed=s["walk"],
                         cache=cache),
             serve_config(s["prefetch"], ctx.settings))
            for s in picks.values()]
    work = [count_calls(lambda: [simulate(t, c) for t, c in jobs])
            for _ in range(2)]
    if work[0] != work[1]:
        ops.add("work-pass", f"call counts differ: {work}")

    traced_p50 = statistics.median(r[1] for r in served)
    layer = layer_metrics(run=merge([server, client]),
                          requests=len(served), setup=server,
                          setups=len(served), work=work[0],
                          overhead=(traced_p50 - base_p50) / base_p50)
    layer["serve.http.self_s"] = (http / len(served), "s")
    layer["serve.hit_frac"] = (
        sum(1 for r in served if r[2].source == "cache") / len(served),
        "ratio")
    layer["serve.first_touch_trace_frac"] = (
        trace_self / first_latency if first_latency else 0.0, "ratio")
    export_trace(ctx, ops, [server, client])
    return layer


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(*, run: dict, requests: int, setup: dict, setups: int,
                  work: dict, overhead: float) -> dict:
    """The per-layer metrics (names and units as in BENCHMARK.json).

    ``run`` holds the traced requests' spans and aggregates; ``setup``
    the trace layer's (the loop workloads build traces only in set-up).
    """
    from tracing import COMPONENT_LAYERS

    def agg(dump: dict, name: str) -> list:
        return dump["aggs"].get(name, [0, 0.0, 0.0])

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    metrics["trace.build_program.calls"] = (
        per(agg(setup, "trace.build_program")[0], setups), "count")
    for name in ("build_program", "walk", "read", "write"):
        metrics[f"trace.{name}.self_s"] = (
            per(agg(setup, f"trace.{name}")[2], setups), "s")
    cache = setup["trace_cache"]
    metrics["trace.cache_hit_frac"] = (
        per(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    for name in ("construct", "run", "collect"):
        metrics[f"sim.{name}.self_s"] = (
            per(agg(run, f"sim.{name}")[2], requests), "s")
    proofs = agg(run, "sim.stall_proof")
    metrics["sim.stall_proof.calls"] = (per(proofs[0], requests), "count")
    metrics["sim.stall_proof.self_s"] = (per(proofs[2], requests), "s")
    metrics["sim.jump_accept_frac"] = (
        per(run["counts"].get("sim.jumps", 0), proofs[0]), "ratio")
    cycles = sum(r[0] for r in run["sim_runs"])
    metrics["sim.skip_frac"] = (
        per(sum(r[1] for r in run["sim_runs"]), cycles), "ratio")
    component_self = 0.0
    for name in COMPONENT_LAYERS:
        calls, _, self_time = agg(run, name)
        component_self += self_time
        metrics[f"{name}.calls"] = (per(calls, requests), "count")
        metrics[f"{name}.self_s"] = (per(self_time, requests), "s")
    metrics["sim.component_tick_frac"] = (
        per(component_self, agg(run, "sim.run")[1]), "ratio")
    metrics["stats.bump_per_cycle"] = (
        per(work["bumps"], work["cycles"]), "calls/cycle")
    metrics["sim.calls_per_cycle"] = (
        per(work["calls"], work["cycles"]), "calls/cycle")
    metrics["sim.calls_per_instr"] = (
        per(work["calls"], work["instructions"]), "calls/instr")
    metrics["serve.queue_wait_s"] = (
        per(agg(run, "serve.queue_wait")[1], requests), "s")
    for name in ("serve.execute", "serve.cache_get", "serve.cache_put",
                 "cachekey", "serialize.to_dict", "serialize.from_dict"):
        metrics[f"{name}.self_s"] = (per(agg(run, name)[2], requests), "s")
    metrics["serve.http.self_s"] = (0.0, "s")
    metrics["serve.hit_frac"] = (0.0, "ratio")
    metrics["serve.first_touch_trace_frac"] = (0.0, "ratio")
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics


def export_trace(ctx: Context, ops: Ops, dumps: list[dict]) -> None:
    """Write the spans as Chrome trace-event JSON and validate them."""
    from repro.errors import ObservabilityError
    from repro.obs.spans import validate_chrome_trace
    from tracing import chrome_trace, merge

    ctx.out.mkdir(parents=True, exist_ok=True)
    path = ctx.out / f"trace-{ctx.workload}-seed{ctx.seed}.json"
    path.write_text(json.dumps(chrome_trace(merge(dumps))),
                    encoding="utf-8")
    try:
        validate_chrome_trace(json.loads(path.read_text(encoding="utf-8")))
    except ObservabilityError as exc:
        ops.add("trace-export", f"invalid Chrome trace: {exc}")
        return
    log(f"wrote {path.relative_to(ROOT)}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: the simulator sources are missing ({SRC / 'repro'} "
            f"not found); run from the root of a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    ctx = Context(args)
    try:
        ctx.work.mkdir(parents=True, exist_ok=True)
        if ctx.workload == "serve_mixed":
            outcome = run_serve(ctx)
        else:
            outcome = run_loop(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass

    ops: Ops = outcome["ops"]
    metrics = outcome["layer"] if ctx.trace else outcome["e2e"]
    attempted, failed = len(ops.keys), len(ops.failed)
    for reason in ops.reasons[:20]:
        log(f"FAIL {reason}")
    log(f"fail_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name, (value, unit) in outcome["e2e"].items():
        log(f"  {name:<34} {value:>14.6g} {unit}")
    log(f"  (latency samples: {outcome['samples']})")
    if outcome["layer"] is not None:
        for name, (value, unit) in outcome["layer"].items():
            log(f"  {name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
