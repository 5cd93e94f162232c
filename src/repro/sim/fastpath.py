"""Idle-cycle stall proofs for the event engine's analytic jumps.

A trace-driven run spends most of its cycles with every component
stalled: fetch blocked on a fill, the prediction unit blocked on a full
FTQ (or an L2-FTB promotion, or an unresolved misprediction), the
prefetcher with nothing queued.  Each such cycle does nothing but bump
one stall counter per stalled component and record an (unchanged) FTQ
occupancy sample.

:func:`stall_proof` recognises exactly those cycles *by proof*, not by
heuristic: it succeeds only when every component's next tick is known
to be a pure stall-counter bump, and takes the earliest of each
component's self-scheduled wake bounds, gathered through the uniform
:meth:`~repro.component.Component.next_wake_cycle` contract:

- the next memory fill completion (``MemorySystem.next_wake_cycle``),
- the next backend instruction completion (``Backend.next_wake_cycle``),
- the scheduled branch-resolution cycle,
- the cycle fetch's pending demand fill lands
  (``FetchEngine.next_wake_cycle``),
- the cycle a pending L2-FTB promotion completes
  (``PredictUnit.next_wake_cycle``).

The event engine (``sim/events.py``) combines the proof with the
prefetcher's quiescence declaration into a :class:`SkipPlan`; the
simulator then jumps the clock to one cycle before the wake bound and
batch-applies the per-cycle bookkeeping the naive loop would have done
(the stall counters, the occupancy samples, the prefetcher's internal
clock), keeping both engines **bit-identical** — the same
``SimResult``, counter for counter.  The test suite's naive-vs-event
equivalence matrix enforces this; the invariants each component must
uphold are documented in ``docs/performance.md``.

Why each gate is sound, in cycle-schedule order:

1. ``memory.begin_cycle`` only completes fills due this cycle; with the
   skip bounded by the memory wake no fill is due in the window.
2. ``backend.retire`` retires nothing before ``next_completion``; a
   non-empty window bumps ``retire_stall_cycles`` once per cycle.
3. Resolution is bounded by ``_resolve_at``.
4. The fetch engine, when stalled, bumps exactly one of
   ``miss_stall_cycles`` / ``ftq_empty_cycles`` / ``window_stall_cycles``
   and returns.  Its stall cannot clear mid-window: the fill bound, the
   FTQ (nobody pushes — predict is stalled too), and the backend window
   (no retirement before ``next_completion``) are all pinned.
5. The prediction unit checks FTQ-full *before* the L2-FTB wait, so a
   full FTQ contributes no wait bound; the other stall states bound or
   pin themselves the same way.  Running out of trace records is a
   silent no-op (no counter).
6. The prefetcher must declare itself :meth:`~repro.prefetch.base.
   Prefetcher.quiescent` — with no demand accesses, fills, or FTQ pushes
   in the window, quiescence is stable until the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.simulator import Simulator

__all__ = ["SkipPlan", "stall_proof"]


@dataclass(slots=True)
class SkipPlan:
    """A provably idle window and the bookkeeping it owes."""

    target: int               # first cycle at which anything can change
    cycles: int               # skipped cycles: target - current - 1
    fetch_counter: str        # fetch stall counter to bump per cycle
    predict_counter: str | None   # predict stall counter (None: silent)
    retire_stalled: bool      # backend window non-empty in the window


def stall_proof(sim: "Simulator", cycle: int):
    """Prove that no component except the prefetcher can do real work.

    Returns ``(fetch_counter, predict_counter, retire_stalled, wake)``
    when every non-prefetch component's next tick is a pure
    stall-counter bump, or None when any of them could do real work
    next cycle.  ``wake`` is the earliest self-scheduled wake bound —
    the first cycle at which anything can change — or None when no
    component has one (a fully deadlocked machine).

    The prefetcher is deliberately excluded: the event engine combines
    the proof with :meth:`~repro.prefetch.base.Prefetcher.quiescent`
    in whichever order is cheaper for the workload.
    """
    # Failure checks run before any wake collection so a rejected
    # attempt (the common case on busy stretches) allocates nothing.

    # --- fetch engine ------------------------------------------------
    fetch_wake = sim.fetch_engine.next_wake_cycle(cycle)
    if fetch_wake is not None:
        fetch_counter = "miss_stall_cycles"
    else:
        head = sim.ftq.head()
        if head is None:
            fetch_counter = "ftq_empty_cycles"
        elif ((not head.wrong_path or sim.config.core.wrong_path_in_window)
                and sim.backend.free_slots <= 0):
            fetch_counter = "window_stall_cycles"
        else:
            return None   # fetch would access the memory system

    # --- prediction unit ---------------------------------------------
    predict = sim.predict_unit
    predict_wake = None
    if sim.ftq.full:
        # tick checks FTQ-full before the L2-FTB wait, so a pending
        # promotion neither clears nor bounds anything while full.
        predict_counter: str | None = "ftq_full_stalls"
    else:
        predict_wake = predict.next_wake_cycle(cycle)
        if predict_wake is not None:
            predict_counter = "ftb_l2_stall_cycles"
        elif predict.awaiting_resolution:
            if sim.config.frontend.model_wrong_path:
                return None   # producing wrong-path blocks every cycle
            predict_counter = "mispredict_stall_cycles"
        elif predict.out_of_records:
            predict_counter = None   # exhausted trace: silent no-op
        else:
            return None   # would produce a fetch block

    # --- self-scheduled progress bounds -------------------------------
    memory_wake = sim.memory.next_wake_cycle(cycle)
    backend_wake = sim.backend.next_wake_cycle(cycle)
    wakes = [wake for wake in (fetch_wake, predict_wake, memory_wake,
                               backend_wake, sim._resolve_at)
             if wake is not None]
    return (fetch_counter, predict_counter, backend_wake is not None,
            min(wakes) if wakes else None)
