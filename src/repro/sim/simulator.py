"""The cycle-level simulator: wires the front end, memory, and backend.

Per-cycle schedule (one iteration of :meth:`Simulator.run`):

1. memory: complete fills due this cycle, reset the tag-port budget;
2. backend: retire completed instructions (frees window slots);
3. resolution: if the pending mispredicted branch resolves this cycle,
   squash (FTQ, PIQ, in-progress fetch) and redirect the prediction unit;
4. fetch engine: one demand access, deliver instructions;
5. prediction unit: produce one fetch block into the FTQ;
6. prefetch engine: scan/filter/issue.

The run ends when every trace record has retired.  ``warmup_instructions``
resets all statistics once that many instructions have retired, so reported
numbers cover only the measured region (caches, predictors, and the FTB
stay warm).
"""

from __future__ import annotations

from typing import Callable

from repro.bpred import ReturnAddressStack, make_direction_predictor
from repro.component import Component
from repro.config import ENGINES, SimConfig
from repro.cpu import Backend
from repro.errors import ConfigError, SimulationError, WatchdogStallError
from repro.frontend import FetchEngine, FetchTargetQueue, FTQEntry, \
    PredictUnit
from repro.ftb import FetchTargetBuffer, TwoLevelFTB
from repro.memory import MemorySystem
from repro.obs import events as obs_events
from repro.obs.profile import CycleProfiler
from repro.prefetch import make_prefetcher
from repro.sim.events import run_event_loop
from repro.sim.results import SimResult
from repro.stats import IntervalSampler, IntervalSeries, \
    RunLengthObserver, StatGroup, TelemetryNode, TelemetrySnapshot
from repro.trace import Trace

__all__ = ["Simulator"]

_DEFAULT_CYCLE_CAP_PER_INSTR = 200


class Simulator:
    """One configured machine, ready to run one trace.

    Everything beyond the trace and config is keyword-only:

    - ``name`` labels the result (defaults to the trace's name);
    - ``tracer`` attaches a per-cycle pipeline tracer (forces the
      naive loop — a tracer observes every cycle by definition);
    - ``engine`` overrides ``config.engine`` for this run: one of
      ``"naive"`` or ``"event"``.  Both are bit-identical (see
      ``docs/performance.md``, "Engine selection").
    """

    def __init__(self, trace: Trace, config: SimConfig, *,
                 name: str | None = None, tracer=None,
                 engine: str | None = None):
        if config.max_instructions is not None \
                and config.max_instructions < len(trace):
            trace = trace.slice(0, config.max_instructions)
        self._warm_records = []
        if config.fast_forward_instructions > 0:
            cut = min(config.fast_forward_instructions, len(trace) - 1)
            self._warm_records = trace.records[:cut]
            trace = trace.slice(cut, len(trace))
        self.trace = trace
        self.config = config
        self.name = name or trace.name
        self.stats = StatGroup("sim")

        predictor_cfg = config.frontend.predictor
        self.predictor = make_direction_predictor(predictor_cfg)
        self.ras = ReturnAddressStack(predictor_cfg.ras_depth)
        if predictor_cfg.ftb_l2_sets:
            self.ftb = TwoLevelFTB(
                predictor_cfg.ftb_sets, predictor_cfg.ftb_ways,
                predictor_cfg.ftb_l2_sets, predictor_cfg.ftb_l2_ways,
                predictor_cfg.ftb_l2_latency)
        else:
            self.ftb = FetchTargetBuffer(predictor_cfg.ftb_sets,
                                         predictor_cfg.ftb_ways)
        self.ftq = FetchTargetQueue(config.frontend.ftq_depth)
        self.memory = MemorySystem(
            config.memory,
            prefetch_fill_to_l1=config.prefetch.fill_l1_directly)
        self.prefetcher = make_prefetcher(config, self.memory)
        self.memory.sidecar = self.prefetcher.sidecar
        self.backend = Backend(config.core)
        self.predict_unit = PredictUnit(self.trace, self.ftb, self.predictor,
                                        self.ras, config.frontend)
        self.fetch_engine = FetchEngine(
            self.trace, self.memory, self.ftq, self.backend, self.prefetcher,
            config.core, self._schedule_resolution)

        self.cycle = 0
        self.tracer = tracer
        if engine is None:
            engine = config.engine
        elif engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; expected one of "
                f"{', '.join(ENGINES)}")
        self.engine = engine
        self.skipped_cycles = 0   # diagnostics only; not a statistic
        # Opt-in cycle-attribution profiler (see repro/obs/profile.py).
        # It lives outside the telemetry tree on purpose: SimResult
        # stays bit-identical with profiling on or off.
        self.profiler = CycleProfiler() if config.profile else None
        self._resolve_at: int | None = None
        self._resolve_entry: FTQEntry | None = None
        self._warmed = config.warmup_instructions == 0
        self._measure_start_cycle = 0
        self._measure_start_retired = 0
        # In-run checkpointing: when a sink is attached and
        # config.checkpoint_interval > 0, run() hands it a machine
        # snapshot every interval cycles (see sim/checkpoint.py).
        self.checkpoint_sink: Callable[[dict], None] | None = None
        self._resume_sampler: dict | None = None
        self._resume_occupancy: dict | None = None
        if self._warm_records:
            self._fast_forward()

    # ------------------------------------------------------------------

    def _fast_forward(self) -> None:
        """Functionally warm caches, FTB, and predictor (no timing).

        Approximates what a timed warm-up would leave behind: every
        touched block resident in L1-I/L2 (subject to capacity), the FTB
        trained on taken control transfers with fetch-block starts
        tracked the way the prediction unit partitions blocks, and the
        direction predictor trained on every conditional.  Statistics
        are reset afterwards so the measured region starts clean.
        """
        from repro.ftb import FTBEntry
        from repro.isa import INSTRUCTION_BYTES, InstrKind

        block_bytes = self.memory.block_bytes
        cap_bytes = self.config.frontend.max_fetch_block \
            * INSTRUCTION_BYTES
        history = 0
        history_mask = (1 << self.config.frontend.predictor
                        .history_bits) - 1
        l1i, l2 = self.memory.l1i, self.memory.l2
        predictor, ftb = self.predictor, self.ftb
        block_start = self._warm_records[0].pc

        for record in self._warm_records:
            bid = record.pc // block_bytes
            if not l1i.contains(bid):
                l1i.fill(bid)
                l2.fill(bid)
            kind = record.kind
            if kind == InstrKind.BRANCH_COND:
                predictor.update(record.pc, history, record.taken)
                history = ((history << 1) | int(record.taken)) \
                    & history_mask
            if record.next_pc != record.pc + INSTRUCTION_BYTES:
                target = None if kind.is_return else record.next_pc
                ftb.install(FTBEntry(
                    start=block_start,
                    fallthrough=record.pc + INSTRUCTION_BYTES,
                    target=target, kind=kind))
                block_start = record.next_pc
            elif record.pc + INSTRUCTION_BYTES - block_start >= cap_bytes:
                block_start = record.next_pc

        self._reset_stats()
        self.stats.bump("fast_forwarded", len(self._warm_records))

    def _schedule_resolution(self, entry: FTQEntry, resolve_at: int) -> None:
        if self._resolve_entry is not None:
            raise SimulationError(
                "two unresolved mispredictions in flight; the front end "
                "should have been down the wrong path")
        self._resolve_entry = entry
        self._resolve_at = resolve_at

    def _squash_and_redirect(self) -> None:
        entry = self._resolve_entry
        self._resolve_entry = None
        self._resolve_at = None
        self.ftq.clear()
        self.fetch_engine.squash()
        self.backend.flush_wrong_path()
        self.prefetcher.squash()
        self.predict_unit.on_resolve(entry)
        self.stats.bump("squashes")

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Simulate until the whole trace has retired."""
        total = len(self.trace)
        warmup = min(self.config.warmup_instructions, max(0, total - 1))
        max_cycles = self.config.max_cycles
        if max_cycles is None:
            max_cycles = _DEFAULT_CYCLE_CAP_PER_INSTR * total + 100_000

        # A tracer observes every cycle; it forces the naive loop.
        engine = self.engine if self.tracer is None else "naive"
        tracer = self.tracer
        profiler = self.profiler
        memory = self.memory
        mem_stats = memory.stats
        backend = self.backend
        fetch_engine = self.fetch_engine
        predict_unit = self.predict_unit
        prefetcher = self.prefetcher
        ftq = self.ftq

        window = self.config.telemetry_window
        if self._resume_sampler is not None:
            # Resuming from a checkpoint: continue the in-progress
            # series instead of anchoring a fresh one mid-run.
            sampler = IntervalSampler.from_state_dict(self._resume_sampler)
            self._resume_sampler = None
        else:
            sampler = IntervalSampler(window, origin=self.cycle,
                                      base_retired=backend.retired) \
                if window > 0 else None
        occupancy = RunLengthObserver(self.stats.histogram("ftq_occupancy"))
        if self._resume_occupancy is not None:
            occupancy.load_state_dict(self._resume_occupancy)
            self._resume_occupancy = None

        interval = self.config.checkpoint_interval
        sink = self.checkpoint_sink
        next_ckpt = (self.cycle + interval
                     if interval > 0 and sink is not None else None)
        watchdog = self.config.watchdog_interval
        # A resume restarts the watchdog's interval at the resume point.
        progress_cycle = self.cycle
        progress_retired = backend.retired

        if self.config.event_log is not None:
            obs_events.attach_log_file(self.config.event_log)
        obs_events.emit("run_start", data={
            "name": self.name, "engine": engine,
            "cycle": self.cycle, "instructions": total,
            "resumed": self.cycle > 0})

        if engine == "event":
            occupancy, sampler = run_event_loop(
                self, total=total, warmup=warmup, max_cycles=max_cycles,
                occupancy=occupancy, sampler=sampler, interval=interval,
                sink=sink, next_ckpt=next_ckpt, watchdog=watchdog)
            return self._finish(occupancy, sampler, mem_stats)

        while backend.retired < total:
            self.cycle += 1
            cycle = self.cycle
            if cycle > max_cycles:
                raise SimulationError(
                    f"cycle cap exceeded ({max_cycles}); retired "
                    f"{backend.retired}/{total} — likely a deadlock")
            memory.begin_cycle(cycle)
            backend.retire(cycle)
            if self._resolve_at is not None and cycle >= self._resolve_at:
                self._squash_and_redirect()
            fetched = fetch_engine.tick(cycle)
            predict_unit.tick(cycle, ftq)
            prefetcher.tick(cycle, ftq)
            occ = ftq.occupancy()
            occupancy.observe(occ)
            if sampler is not None:
                sampler.advance(cycle, occ, backend.retired,
                                mem_stats.get("demand_misses"))
            if profiler is not None:
                profiler.observe(self, bool(fetched))
            if tracer is not None:
                tracer.record(cycle, self)

            if not self._warmed and backend.retired >= warmup:
                occupancy.flush()
                self._reset_measurement()
                occupancy = RunLengthObserver(
                    self.stats.histogram("ftq_occupancy"))
                if sampler is not None:
                    # Counters just cleared; anchor the interval series
                    # at the measurement origin so window boundaries and
                    # deltas cover only the measured region.
                    sampler = IntervalSampler(
                        window, origin=cycle, base_retired=backend.retired)
                obs_events.emit("warmup_end", data={
                    "name": self.name, "cycle": cycle,
                    "retired": backend.retired})

            if watchdog > 0:
                if backend.retired > progress_retired:
                    progress_retired = backend.retired
                    progress_cycle = cycle
                elif cycle - progress_cycle >= watchdog:
                    obs_events.emit("watchdog_stall", data={
                        "name": self.name, "cycle": cycle,
                        "retired": backend.retired,
                        "watchdog_interval": watchdog})
                    raise WatchdogStallError(
                        cycle, backend.retired, watchdog,
                        state=self._stall_dump())
            if next_ckpt is not None and cycle >= next_ckpt:
                # End-of-cycle consistent point.
                sink(self.state_dict(occupancy=occupancy, sampler=sampler))
                next_ckpt = cycle + interval

        return self._finish(occupancy, sampler, mem_stats)

    def _finish(self, occupancy: RunLengthObserver,
                sampler: IntervalSampler | None,
                mem_stats: StatGroup) -> SimResult:
        """Shared end-of-run finalization for every engine."""
        occupancy.flush()
        intervals = None
        if sampler is not None:
            intervals = sampler.finalize(
                self.cycle, self.backend.retired,
                mem_stats.get("demand_misses"))
        obs_events.emit("run_end", data={
            "name": self.name, "cycle": self.cycle,
            "retired": self.backend.retired,
            "skipped_cycles": self.skipped_cycles})
        return self._collect(intervals)

    def _apply_skip(self, plan, occupancy: RunLengthObserver,
                    sampler: IntervalSampler | None = None) -> None:
        """Batch-apply the bookkeeping of ``plan.cycles`` idle cycles.

        Bumps exactly the stall counters the naive loop would have,
        records the (constant) FTQ occupancy samples, advances the
        interval sampler across the window (retired instructions,
        demand misses, and FTQ occupancy are provably constant inside
        it, so boundary crossings are reconstructed exactly), lets the
        prefetcher catch up its internal clock, and jumps the cycle
        counter to one before the plan's progress bound.
        """
        n = plan.cycles
        if self.profiler is not None:
            # The skip proof pins every input classify() reads across
            # the window, so one call attributes all n cycles to the
            # exact bucket the naive loop would have chosen.
            self.profiler.observe(self, False, n)
        self.fetch_engine.stats.bump(plan.fetch_counter, n)
        if plan.predict_counter is not None:
            self.predict_unit.stats.bump(plan.predict_counter, n)
        if plan.retire_stalled:
            self.backend.stats.bump("retire_stall_cycles", n)
        occ = self.ftq.occupancy()
        occupancy.observe(occ, n)
        if sampler is not None:
            sampler.advance(plan.target - 1, occ, self.backend.retired,
                            self.memory.stats.get("demand_misses"))
        self.prefetcher.on_skip(plan.target - 1)
        self.cycle = plan.target - 1
        self.skipped_cycles += n

    def _reset_measurement(self) -> None:
        self._warmed = True
        self._measure_start_cycle = self.cycle
        self._measure_start_retired = self.backend.retired
        self._reset_stats()
        if self.profiler is not None:
            self.profiler.reset()

    def _stall_dump(self) -> dict:
        """Scheduling-state summary attached to watchdog failures."""
        return {
            "ftq_occupancy": self.ftq.occupancy(),
            "resolve_at": self._resolve_at,
            "fetch_waiting_until": self.fetch_engine.waiting_until,
            "ftb_wait_until": self.predict_unit.ftb_wait_until,
            "backend_occupancy": self.backend.occupancy,
            "next_completion": self.backend.next_completion,
            "next_fill": self.memory.next_event_cycle,
            "in_flight_blocks": self.memory.in_flight_blocks(),
            "predict_done": self.predict_unit.done,
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def state_dict(self, *, occupancy: RunLengthObserver | None = None,
                   sampler: IntervalSampler | None = None) -> dict:
        """JSON-compatible snapshot of the whole machine.

        ``occupancy``/``sampler`` are ``run()``'s loop-local telemetry
        accumulators; the in-run checkpoint hook passes them so a
        resumed run reproduces the interval series and the occupancy
        histogram bit for bit.  Snapshots taken between runs may omit
        them.
        """
        return {
            "cycle": self.cycle,
            # Convenience copy for heartbeats/diagnostics; restore reads
            # the authoritative value from the backend component state.
            "retired": self.backend.retired,
            "skipped_cycles": self.skipped_cycles,
            "resolve_at": self._resolve_at,
            "has_resolve_entry": self._resolve_entry is not None,
            "warmed": self._warmed,
            "measure_start_cycle": self._measure_start_cycle,
            "measure_start_retired": self._measure_start_retired,
            "stats": self.stats.state_dict(),
            # Positional, matching components() order.
            "components": [component.state_dict()
                           for component in self.components()],
            "occupancy": (occupancy.state_dict()
                          if occupancy is not None else None),
            "sampler": sampler.state_dict() if sampler is not None else None,
            "profile": (self.profiler.state_dict()
                        if self.profiler is not None else None),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a machine snapshot captured by :meth:`state_dict`.

        The simulator must have been constructed with the same trace
        and config as the one that produced the snapshot (the
        checkpoint manager enforces this via identity metadata); the
        next :meth:`run` call then continues from the captured cycle
        and produces a bit-identical :class:`SimResult`.
        """
        self.cycle = int(state["cycle"])
        self.skipped_cycles = int(state["skipped_cycles"])
        resolve_at = state["resolve_at"]
        self._resolve_at = int(resolve_at) if resolve_at is not None else None
        self._warmed = bool(state["warmed"])
        self._measure_start_cycle = int(state["measure_start_cycle"])
        self._measure_start_retired = int(state["measure_start_retired"])
        self.stats.load_state_dict(state["stats"])
        components = self.components()
        payloads = state["components"]
        if len(payloads) != len(components):
            raise SimulationError(
                f"snapshot holds {len(payloads)} component states, "
                f"machine has {len(components)}")
        for component, payload in zip(components, payloads):
            component.load_state_dict(payload)
        # Re-establish object-identity aliases that serialization by
        # value necessarily broke: the pending mispredicted entry is
        # the same object in the FTQ (when still queued) and as the
        # simulator's resolve entry (when already delivered).
        self.predict_unit.relink_pending(self.ftq)
        if state["has_resolve_entry"]:
            entry = self.predict_unit.pending_mispredict
            if entry is None:
                raise SimulationError(
                    "snapshot has a scheduled resolution but no pending "
                    "misprediction")
            self._resolve_entry = entry
        else:
            self._resolve_entry = None
        self._resume_occupancy = state.get("occupancy")
        self._resume_sampler = state.get("sampler")
        profile_state = state.get("profile")
        if self.profiler is not None and profile_state is not None:
            self.profiler.load_state_dict(profile_state)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def components(self) -> tuple[Component, ...]:
        """The top-level telemetry components, in reporting order.

        Every machine part implements :class:`repro.component.Component`;
        nested parts (predictor and RAS under the prediction unit, FTB
        levels, cache/bus/MSHR under the memory system, prefetcher
        buffers) report through their parent's ``sub_components``.
        """
        return (self.ftq, self.predict_unit, self.ftb, self.fetch_engine,
                self.prefetcher, self.backend, self.memory)

    def _reset_stats(self) -> None:
        self.stats.reset()
        for component in self.components():
            component.reset()

    def telemetry_snapshot(self, intervals: IntervalSeries | None = None,
                           ) -> TelemetrySnapshot:
        """Snapshot the full telemetry tree for the measured region.

        The root ``sim`` node carries the simulator's own counters and
        the FTQ-occupancy histogram; each component hangs off it as a
        subtree.  Safe to call mid-run (live view of current counters).
        """
        root = TelemetryNode.from_stat_group(
            self.stats,
            children=[component.telemetry()
                      for component in self.components()])
        meta = {
            "name": self.name,
            "prefetcher": self.config.prefetch.kind,
            "cycles": self.cycle - self._measure_start_cycle,
            "instructions": self.backend.retired
            - self._measure_start_retired,
        }
        return TelemetrySnapshot(root=root, meta=meta, intervals=intervals)

    def _collect(self, intervals: IntervalSeries | None = None) -> SimResult:
        return SimResult.from_snapshot(self.telemetry_snapshot(intervals))

    def profile_report(self) -> dict:
        """The cycle-attribution profile for the measured region so far.

        Buckets sum exactly to the measured cycle count (the ``cycles``
        field of :attr:`telemetry_snapshot`'s meta).  Requires
        ``SimConfig(profile=True)``; the convenience wrapper is
        :func:`repro.obs.profile_run`.
        """
        if self.profiler is None:
            raise SimulationError(
                "profiling is off; construct with SimConfig(profile=True) "
                "or use repro.obs.profile_run")
        meta = {
            "name": self.name,
            "prefetcher": self.config.prefetch.kind,
            "cycles": self.cycle - self._measure_start_cycle,
            "instructions": self.backend.retired
            - self._measure_start_retired,
        }
        return self.profiler.report(
            meta=meta,
            bus_busy=self.memory.bus.stats.get("busy_cycles"))
