"""The event-driven cycle engine: wake scheduling over components.

The naive loop polls every component every cycle.  This engine inverts
the control flow: work is driven by component wake state, not polling.

Two mechanisms, both bit-identical to the naive loop:

1. **Per-component tick elision.**  Each component's wake contract
   (:meth:`~repro.component.Component.next_wake_cycle`, plus the
   architectural state the contract is derived from) tells the loop
   when a tick can only be the component's own stall-counter bump; the
   loop applies the bump directly and skips the call:

   - *memory*: with no fill due (``next_wake_cycle`` → None or a
     future cycle), ``begin_cycle`` only resets the tag-port budget —
     inlined;
   - *backend*: before the oldest completion, ``retire`` only bumps
     ``retire_stall_cycles`` (window non-empty) or nothing (empty);
   - *fetch*: while the pending demand fill is in flight, ``tick``
     only bumps ``miss_stall_cycles``;
   - *predict*: while the FTQ is full, ``tick`` only bumps
     ``ftq_full_stalls`` (its first check, before any wait state).

   The prefetcher is ticked every cycle unless its class declares
   :attr:`~repro.prefetch.base.Prefetcher.inert_tick` (the no-prefetch
   baseline): quiescence alone is not enough, because a quiescent
   stream prefetcher's no-op tick still refreshes an internal LRU
   clock, so elision there would not be exact.

2. **Adaptively gated analytic jumps.**  Machine-wide idle spans are
   jumped in one step: :func:`~repro.sim.fastpath.stall_proof` proves
   every component stalled and names the earliest wake cycle,
   :func:`plan_jump` turns that into a :class:`~repro.sim.fastpath.
   SkipPlan`, and ``Simulator._apply_skip`` batch-applies the
   bookkeeping.  The two jump gates — the stall proof and
   :meth:`~repro.prefetch.base.Prefetcher.quiescent` — are evaluated
   last-rejector-first.  On a saturated FDIP run the prefetcher's O(1)
   PIQ check rejects every attempt and stays in front; on a
   stream-prefetcher run quiescence walks every buffer, so the proof
   (which rejects on the FTQ head) moves in front instead.  Gate order
   cannot change the outcome — a jump needs both — so the adaptation is
   bit-identical by construction.

Equivalence with the naive loop is enforced by the test suite's engine
matrix and the checkpoint fuzz suite; selection is
``SimConfig(engine="event")`` (the default — see
``docs/performance.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError, WatchdogStallError
from repro.obs import events as obs_events
from repro.sim.fastpath import SkipPlan, stall_proof
from repro.stats import IntervalSampler, RunLengthObserver

if TYPE_CHECKING:
    from repro.sim.simulator import Simulator

__all__ = ["plan_jump", "run_event_loop"]


def plan_jump(proof, cycle: int, max_cycles: int) -> SkipPlan | None:
    """Turn a successful :func:`~repro.sim.fastpath.stall_proof` into a
    jump plan, or None when the earliest wake is too close to skip
    anything.

    The plan never jumps past ``max_cycles + 1``, so the cycle-cap
    deadlock error fires with identical state to the naive loop; a
    fully deadlocked machine (no wake bound at all) jumps straight to
    the cap.
    """
    fetch_counter, predict_counter, retire_stalled, wake = proof
    target = max_cycles + 1
    if wake is not None and wake < target:
        target = wake
    skipped = target - cycle - 1
    if skipped <= 0:
        return None
    return SkipPlan(target=target, cycles=skipped,
                    fetch_counter=fetch_counter,
                    predict_counter=predict_counter,
                    retire_stalled=retire_stalled)


def run_event_loop(sim: "Simulator", *, total: int, warmup: int,
                   max_cycles: int, occupancy: RunLengthObserver,
                   sampler: IntervalSampler | None, interval: int,
                   sink, next_ckpt: int | None, watchdog: int,
                   ) -> tuple[RunLengthObserver, IntervalSampler | None]:
    """Drive ``sim`` to completion under wake scheduling.

    Mirrors the naive loop's per-cycle schedule exactly — same
    component order, same one-stall-counter-per-cycle accounting, same
    warm-up reset, watchdog, and ``>=``-triggered checkpoint semantics
    across jumps — while eliding ticks the wake contracts prove to be
    pure stall bumps.  Returns the (possibly warm-up-rebound) occupancy
    observer and interval sampler for the caller's finalization.
    """
    config = sim.config
    window = config.telemetry_window
    profiler = sim.profiler
    memory = sim.memory
    mem_stats = memory.stats
    backend = sim.backend
    fetch_engine = sim.fetch_engine
    predict_unit = sim.predict_unit
    prefetcher = sim.prefetcher
    ftq = sim.ftq

    # Hot-loop locals.  The underlying containers are mutated in place
    # everywhere during a run (squash clears, heap pushes/pops), never
    # rebound — load_state_dict, which does rebind, only runs between
    # runs.
    mem_events = memory._events
    ftq_entries = ftq._entries
    ftq_depth = ftq.depth
    fetch_bump = fetch_engine.stats.bump
    predict_bump = predict_unit.stats.bump
    backend_bump = backend.stats.bump
    prefetch_tick = prefetcher.tick
    prefetch_inert = prefetcher.inert_tick
    quiescent = prefetcher.quiescent
    issue_width = backend.core.issue_width
    bwindow = backend._window
    bwindow_popleft = bwindow.popleft
    proof_first = False   # adaptive jump-gate order; see the skip gate

    # The cycle counter and the occupancy run-length accumulator live
    # in locals; ``sim.cycle`` and the observer fields are synced at
    # every boundary where other code can read them (warm-up reset,
    # analytic jumps, watchdog trips, checkpoint snapshots, loop exit).
    cycle = sim.cycle
    warmed = sim._warmed
    occ_hist = occupancy._histogram
    occ_value = occupancy._value
    occ_weight = occupancy._weight
    # A single ``cycle >= ckpt_at`` compare per cycle; the sentinel
    # sits past the cycle-cap error so it can never trigger.
    ckpt_at = next_ckpt if next_ckpt is not None else max_cycles + 2

    progress_cycle = cycle
    progress_retired = backend.retired
    if backend.retired >= total:
        return occupancy, sampler

    while True:
        cycle += 1
        if cycle > max_cycles:
            sim.cycle = cycle
            occupancy._value = occ_value
            occupancy._weight = occ_weight
            raise SimulationError(
                f"cycle cap exceeded ({max_cycles}); retired "
                f"{backend.retired}/{total} — likely a deadlock")
        # memory: wake only when a fill is due; otherwise inline the
        # input-free bookkeeping begin_cycle would do.
        if mem_events and mem_events[0][0] <= cycle:
            memory.begin_cycle(cycle)
        else:
            memory._now = cycle
            memory._ports_used = 0
        # backend: asleep until the oldest completion; a non-empty
        # window owes exactly one retire_stall_cycles per stalled cycle
        # (matching _apply_skip's batch accounting).  The due case
        # inlines Backend.retire (a completion at the head guarantees
        # n >= 1, so the n == 0 stall branch cannot apply).
        if bwindow:
            if bwindow[0] <= cycle:
                n = 0
                while n < issue_width and bwindow and bwindow[0] <= cycle:
                    bwindow_popleft()
                    n += 1
                backend.retired += n
                backend_bump("retired", n)
            else:
                backend_bump("retire_stall_cycles")
        if sim._resolve_at is not None and cycle >= sim._resolve_at:
            sim._squash_and_redirect()
        # fetch: asleep until the pending demand fill lands; the
        # elided tick would only bump miss_stall_cycles.
        waiting = fetch_engine._waiting_until
        if waiting is not None and cycle < waiting:
            fetch_bump("miss_stall_cycles")
            fetched = False
        else:
            fetched = fetch_engine.tick(cycle)
        # predict: a full FTQ is its first check — the elided tick
        # would only bump ftq_full_stalls.
        if len(ftq_entries) >= ftq_depth:
            predict_bump("ftq_full_stalls")
        else:
            predict_unit.tick(cycle, ftq)
        # prefetcher: ticked every cycle unless its tick is declared
        # inert — quiescent ticks are no-ops by contract, but the
        # stream prefetcher's no-op still refreshes its LRU clock, so
        # quiescence alone does not justify elision.
        if not prefetch_inert:
            prefetch_tick(cycle, ftq)
        retired = backend.retired
        # Occupancy run-length accounting, inlined (one branch per
        # cycle instead of a method call; same arithmetic as
        # RunLengthObserver.observe).
        occ = len(ftq_entries)
        if occ == occ_value:
            occ_weight += 1
        else:
            if occ_weight:
                occ_hist.observe(occ_value, occ_weight)
            occ_value = occ
            occ_weight = 1
        if sampler is not None:
            sampler.advance(cycle, occ, retired,
                            mem_stats.get("demand_misses"))
        if profiler is not None:
            profiler.observe(sim, bool(fetched))

        if not warmed and retired >= warmup:
            sim.cycle = cycle
            occupancy._value = occ_value
            occupancy._weight = occ_weight
            occupancy.flush()
            sim._reset_measurement()
            warmed = True
            occupancy = RunLengthObserver(
                sim.stats.histogram("ftq_occupancy"))
            occ_hist = occupancy._histogram
            occ_value = occupancy._value
            occ_weight = occupancy._weight
            if sampler is not None:
                sampler = IntervalSampler(
                    window, origin=cycle, base_retired=retired)
            obs_events.emit("warmup_end", data={
                "name": sim.name, "cycle": cycle, "retired": retired})
        elif not fetched and retired < total:
            # A jump needs both gates: the stall proof and prefetcher
            # quiescence.  Which one is cheap and which one rejects is
            # workload-dependent (a saturated FDIP rejects on its PIQ
            # in O(1); a stream prefetcher's quiescence walks every
            # buffer while the proof rejects on the FTQ head), so the
            # engine checks the gate that rejected last first —
            # move-to-front over two gates, bit-identical under either
            # order.
            if proof_first:
                proof = stall_proof(sim, cycle)
                if proof is not None and not quiescent(ftq):
                    proof = None
                    proof_first = False
            elif quiescent(ftq):
                proof = stall_proof(sim, cycle)
                if proof is None:
                    proof_first = True
            else:
                proof = None
            if proof is not None:
                plan = plan_jump(proof, cycle, max_cycles)
                if plan is not None:
                    sim.cycle = cycle
                    occupancy._value = occ_value
                    occupancy._weight = occ_weight
                    sim._apply_skip(plan, occupancy, sampler)
                    cycle = sim.cycle
                    occ_value = occupancy._value
                    occ_weight = occupancy._weight

        if watchdog > 0:
            if retired > progress_retired:
                progress_retired = retired
                progress_cycle = cycle
            elif cycle - progress_cycle >= watchdog:
                sim.cycle = cycle
                occupancy._value = occ_value
                occupancy._weight = occ_weight
                obs_events.emit("watchdog_stall", data={
                    "name": sim.name, "cycle": cycle,
                    "retired": retired,
                    "watchdog_interval": watchdog})
                raise WatchdogStallError(
                    cycle, retired, watchdog, state=sim._stall_dump())
        if cycle >= ckpt_at:
            # End-of-cycle consistent point; ``>=`` (not ``==``)
            # because an analytic jump may cross the boundary.
            sim.cycle = cycle
            occupancy._value = occ_value
            occupancy._weight = occ_weight
            sink(sim.state_dict(occupancy=occupancy, sampler=sampler))
            ckpt_at = cycle + interval
        if retired >= total:
            # Retirement only moves in the retire step at the top of
            # the cycle, so the end-of-cycle check is equivalent to the
            # naive loop's top-of-cycle condition.
            break

    sim.cycle = cycle
    occupancy._value = occ_value
    occupancy._weight = occ_weight
    return occupancy, sampler
