"""Host-time tracing for the benchmark's traced runs.

The tracer wraps public functions of the simulator's layers from the
outside (nothing under ``src/`` changes) and keeps everything in memory
until the run ends:

- *span* wrappers record one span per call — name, start, end, parent
  span and request id — for the coarse layer boundaries (trace build,
  machine construction, the cycle loop, result collection, caches,
  serialization);
- *aggregate* wrappers record only a call count and summed time for
  the per-cycle calls (component ticks, memory accesses, stall proofs),
  where one span per call would cost more than the work it measures.

Both kinds share one per-thread stack, so every entry's self time is
its duration minus the time its wrapped callees took.  Times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans recorded in
the daemon process and in the benchmark process share one timeline.

:func:`count_calls` is the separate, untimed work pass: it counts
Python calls inside ``Simulator.run`` with ``sys.setprofile``, which
is deterministic for a given program and input.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

__all__ = ["Tracer", "count_calls", "chrome_trace", "merge"]

# Per-cycle calls: (metric prefix, module, class, method).
AGGREGATED = (
    ("frontend.fetch_tick", "repro.frontend.fetch_engine", "FetchEngine",
     "tick"),
    ("frontend.predict_tick", "repro.frontend.predict_unit",
     "PredictUnit", "tick"),
    ("prefetch.tick", "repro.prefetch.fdip", "FdipPrefetcher", "tick"),
    ("memory.begin_cycle", "repro.memory.hierarchy", "MemorySystem",
     "begin_cycle"),
    ("memory.demand_fetch", "repro.memory.hierarchy", "MemorySystem",
     "demand_fetch"),
    ("memory.issue_prefetch", "repro.memory.hierarchy", "MemorySystem",
     "try_issue_prefetch"),
    ("cpu.deliver", "repro.cpu.backend", "Backend", "deliver"),
)

#: The component-tick entries whose self times make up the cycle work.
COMPONENT_LAYERS = tuple(entry[0] for entry in AGGREGATED)

#: Module-level functions wrapped wherever a ``repro`` module binds them.
SPANNED_FUNCTIONS = (
    ("trace.build_program", "repro.workloads.suite", "build_program"),
    ("trace.read", "repro.trace.io", "read_trace"),
    ("trace.write", "repro.trace.io", "write_trace"),
    ("cachekey", "repro.cachekey", "cache_key"),
    ("serialize.to_dict", "repro.sim.serialize", "result_to_dict"),
    ("serialize.from_dict", "repro.sim.serialize", "result_from_dict"),
)

TRACE_LAYERS = ("trace.build_program", "trace.walk", "trace.read",
                "trace.write", "trace.cache")


class Tracer:
    """In-memory spans and per-call aggregates for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.aggs: dict[str, list] = {}      # name -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.sim_runs: list[tuple[int, int, int]] = []
        self.trace_cache = {"hits": 0, "misses": 0}
        self.first_touch: set[str] = set()
        self.submitted: dict[str, float] = {}
        self.jobs: dict[str, str] = {}
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Per-thread state
    # ------------------------------------------------------------------

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = []
            local.request = None
            local.tid = threading.get_ident() % 1_000_000
        return local

    @property
    def request(self) -> str | None:
        return self._state().request

    @request.setter
    def request(self, value: str | None) -> None:
        self._state().request = value

    def _agg(self, name: str) -> list:
        return self.aggs.setdefault(name, [0, 0.0, 0.0])

    def _close(self, name: str, state, sid: int, parent: int, t0: float,
               t1: float, child: float) -> None:
        if state.stack:
            state.stack[-1][0] += t1 - t0
        self._record(name, state, sid, parent, t0, t1, child)

    def _record(self, name: str, state, sid: int, parent: int, t0: float,
                t1: float, child: float) -> None:
        duration = t1 - t0
        with self._lock:
            agg = self._agg(name)
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child
            self.spans.append((sid, name, t0, t1, parent, state.request,
                               self.pid, state.tid, duration - child))

    # ------------------------------------------------------------------
    # Spans the benchmark opens itself
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        """One span around the ``with`` body, optionally naming the
        request it serves (spans opened inside inherit it)."""
        state = self._state()
        if request is not None:
            state.request = request
        sid = next(self._ids)
        parent = state.open[-1] if state.open else 0
        frame = [0.0]
        state.stack.append(frame)
        state.open.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            state.stack.pop()
            state.open.pop()
            self._close(name, state, sid, parent, t0, t1, frame[0])

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _spanned(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            if before is not None:
                before(state, args)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(state, args, result)
            return result

        return wrapper

    def _aggregated(self, name: str, fn):
        agg = self._agg(name)
        local = self._local
        state_of = self._state

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = state_of().stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, module: str, attr: str, replacement) -> None:
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every traced layer (idempotent per install/uninstall)."""
        import importlib

        if self._patches:
            return
        for module in ("repro.api", "repro.serve", "repro.serve.client",
                       "repro.serve.daemon", "repro.sim.events",
                       "repro.workloads"):
            importlib.import_module(module)
        from repro import api
        from repro.serve.cache import ResultCache
        from repro.serve.service import SimulationService
        from repro.sim import fastpath
        from repro.sim.simulator import Simulator
        from repro.trace.cache import TraceCache
        from repro.trace.stream import Trace

        for name, module, cls, method in AGGREGATED:
            owner = getattr(sys.modules[module], cls)
            self._patch(owner, method,
                        self._aggregated(name, owner.__dict__[method]))
        self._patch_everywhere(
            "repro.sim.fastpath", "stall_proof",
            self._aggregated("sim.stall_proof", fastpath.stall_proof))
        self._patch(Simulator, "_apply_skip", self._counted(
            "sim.jumps", Simulator.__dict__["_apply_skip"]))
        for name, module, attr in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._patch_everywhere(module, attr,
                                   self._spanned(name, original))

        walk = Trace.__dict__["from_program"].__func__
        self._patch(Trace, "from_program",
                    classmethod(self._spanned("trace.walk", walk)))
        self._patch(Simulator, "__init__", self._spanned(
            "sim.construct", Simulator.__dict__["__init__"]))
        self._patch(Simulator, "run", self._spanned(
            "sim.run", Simulator.__dict__["run"], after=self._after_run))
        self._patch(Simulator, "telemetry_snapshot", self._spanned(
            "sim.collect", Simulator.__dict__["telemetry_snapshot"]))
        self._patch(TraceCache, "get_or_build",
                    self._trace_cache_wrapper(
                        TraceCache.__dict__["get_or_build"]))
        self._patch_everywhere("repro.api", "execute", self._spanned(
            "serve.execute", api.execute, before=self._before_execute))
        self._patch(ResultCache, "get", self._spanned(
            "serve.cache_get", ResultCache.__dict__["get"]))
        self._patch(ResultCache, "put", self._spanned(
            "serve.cache_put", ResultCache.__dict__["put"]))
        self._patch(SimulationService, "submit", self._spanned(
            "serve.submit", SimulationService.__dict__["submit"],
            before=self._before_submit, after=self._after_submit))
        self._patch(SimulationService, "wait",
                    self._wait_wrapper(SimulationService.__dict__["wait"]))

    def uninstall(self) -> None:
        """Restore every wrapped function (recorded data is kept)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks ----------------------------------------------------------

    def _after_run(self, state, args, result) -> None:
        sim = args[0]
        with self._lock:
            self.sim_runs.append((sim.cycle, sim.skipped_cycles,
                                  len(sim.trace)))

    def _before_submit(self, state, args) -> None:
        state.request = getattr(args[1], "label", None)

    def _after_submit(self, state, args, job_id) -> None:
        with self._lock:
            self.submitted[state.request] = perf_counter()
            self.jobs[job_id] = state.request

    def _before_execute(self, state, args) -> None:
        label = getattr(args[0], "label", None) if args else None
        if label is None:
            return
        state.request = label
        with self._lock:
            submitted = self.submitted.pop(label, None)
        if submitted is not None:
            # Queue wait: from the end of submit() to the worker
            # picking the request up, recorded as its own span.
            self._record("serve.queue_wait", state, next(self._ids), 0,
                         submitted, perf_counter(), 0.0)

    def _trace_cache_wrapper(self, get_or_build):
        tracer = self

        def wrapper(cache, key, builder):
            built = []

            def counting_builder():
                built.append(True)
                return builder()

            result = inner(cache, key, counting_builder)
            with tracer._lock:
                tracer.trace_cache["misses" if built else "hits"] += 1
                if built and tracer.request is not None:
                    tracer.first_touch.add(tracer.request)
            return result

        inner = self._spanned("trace.cache", get_or_build)
        return wrapper

    def _wait_wrapper(self, wait):
        tracer = self

        def wrapper(service, job_id, *args, **kwargs):
            # Attribute the result handler's serialization to the job's
            # request.
            tracer.request = tracer.jobs.get(job_id, tracer.request)
            return wait(service, job_id, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dump (how the traced daemon hands its data
        back to the benchmark process)."""
        with self._lock:
            return {"spans": [list(s) for s in self.spans],
                    "aggs": {k: list(v) for k, v in self.aggs.items()},
                    "counts": dict(self.counts),
                    "sim_runs": [list(r) for r in self.sim_runs],
                    "trace_cache": dict(self.trace_cache),
                    "first_touch": sorted(self.first_touch)}

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")


def merge(dumps: list[dict]) -> dict:
    """Several tracer dumps (say, daemon and client) as one."""
    merged = {"spans": [], "aggs": {}, "counts": {}, "sim_runs": [],
              "trace_cache": {"hits": 0, "misses": 0}, "first_touch": []}
    for dump in dumps:
        for key in ("spans", "sim_runs", "first_touch"):
            merged[key] += dump[key]
        for name, values in dump["aggs"].items():
            entry = merged["aggs"].setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        for key in ("counts", "trace_cache"):
            for name, value in dump[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def chrome_trace(dump: dict) -> dict:
    """One Chrome trace-event document from a tracer dump.

    Spans become complete events through :class:`repro.obs.spans.Span`
    (parent and request ids in ``args``); per-call aggregates travel in
    ``otherData``, which trace viewers keep as metadata.
    """
    from repro.obs.spans import Span

    origin = min((s[2] for s in dump["spans"]), default=0.0)
    events = []
    for sid, name, t0, t1, parent, request, pid, tid, self_time in \
            dump["spans"]:
        span = Span(name=name, start=t0, duration=max(0.0, t1 - t0),
                    pid=pid, tid=tid,
                    args={"id": sid, "parent": parent,
                          "request": request,
                          "self_s": round(self_time, 9)})
        events.append(span.to_trace_event(origin))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"aggregates": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(dump["aggs"].items())}}}


def count_calls(fn) -> dict:
    """Run ``fn()`` counting Python calls inside every ``Simulator.run``.

    Returns total calls, ``StatGroup.bump`` calls, simulated cycles and
    trace instructions over every run ``fn`` performed.  Garbage
    collection is held off so no finalizer lands in the count.
    """
    from repro.sim.simulator import Simulator
    from repro.stats.counters import StatGroup

    bump_code = StatGroup.bump.__code__
    totals = {"calls": 0, "bumps": 0, "cycles": 0, "instructions": 0}
    original = Simulator.__dict__["run"]

    def run(sim):
        counter = [0, 0]

        def profile(frame, event, arg):
            if event == "call":
                counter[0] += 1
                if frame.f_code is bump_code:
                    counter[1] += 1

        sys.setprofile(profile)
        try:
            return original(sim)
        finally:
            sys.setprofile(None)
            totals["calls"] += counter[0]
            totals["bumps"] += counter[1]
            totals["cycles"] += sim.cycle
            totals["instructions"] += len(sim.trace)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    Simulator.run = run
    try:
        fn()
    finally:
        Simulator.run = original
        if enabled:
            gc.enable()
    return totals
