"""Bit-identity of the event engine against the naive loop.

The event engine (``engine="event"``, see ``repro/sim/events.py``)
jumps over provably idle cycles in one step (``repro/sim/fastpath.py``)
and elides per-component work inside productive cycles.  Its
correctness claim is absolute: the full
:class:`~repro.sim.results.SimResult` — every counter, every histogram,
every derived metric — must equal the naive cycle-by-cycle loop's, for
every prefetcher and configuration.  These tests sweep that claim
across the prefetcher kinds, cache-probe-filter modes, trace seeds, and
the warm-up-reset edge case.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ENGINES, FilterMode, PrefetchConfig, \
    PrefetcherKind, SimConfig
from repro.sim.simulator import Simulator
from repro.trace import Trace

ALL_KINDS = PrefetcherKind.ALL
CPF_MODES = (FilterMode.ENQUEUE, FilterMode.REMOVE)
SEEDS = (9, 23)
ACCELERATED = tuple(e for e in ENGINES if e != "naive")


@pytest.fixture(scope="module")
def traces(small_program):
    return {seed: Trace.from_program(small_program, 3_000, seed=seed)
            for seed in SEEDS}


def run_all(trace: Trace, config: SimConfig):
    """``{engine: (result, simulator)}`` over every registered engine."""
    out = {}
    for engine in ENGINES:
        sim = Simulator(trace, config, engine=engine)
        out[engine] = (sim.run(), sim)
    return out


def assert_identical(naive, other, engine="event"):
    """Equality with a readable counter-level diff on failure.

    ``SimResult`` equality covers the full telemetry snapshot (tree,
    meta, and interval series), so every comparison here is also a
    snapshot-identity assertion.
    """
    if naive == other:
        assert naive.telemetry == other.telemetry
        return
    diffs = [f"{key}: naive={naive.counters.get(key)} "
             f"{engine}={other.counters.get(key)}"
             for key in sorted(set(naive.counters) | set(other.counters))
             if naive.counters.get(key) != other.counters.get(key)]
    for field in ("cycles", "instructions", "mispredicts",
                  "ftq_mean_occupancy", "ftq_occupancy_hist",
                  "fetch_block_hist", "prefetch_lead_hist"):
        if getattr(naive, field) != getattr(other, field):
            diffs.append(f"{field}: naive={getattr(naive, field)!r} "
                         f"{engine}={getattr(other, field)!r}")
    if naive.telemetry != other.telemetry:
        nt, ot = naive.telemetry, other.telemetry
        if nt is not None and ot is not None \
                and nt.intervals != ot.intervals:
            diffs.append(f"intervals: naive={nt.intervals!r} "
                         f"{engine}={ot.intervals!r}")
        else:
            diffs.append("telemetry snapshots differ")
    raise AssertionError(f"{engine} engine diverged from naive loop:\n  "
                         + "\n  ".join(diffs))


def assert_matrix_identical(runs):
    naive = runs["naive"][0]
    for engine in ACCELERATED:
        assert_identical(naive, runs[engine][0], engine)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", CPF_MODES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_engine_matrix_matches_naive(traces, kind, mode, seed):
    config = SimConfig(prefetch=PrefetchConfig(kind=kind,
                                               filter_mode=mode))
    assert_matrix_identical(run_all(traces[seed], config))


def test_accelerated_engines_actually_skip(traces):
    """A stall-heavy run must exercise the skip machinery, or the
    matrix above proves nothing."""
    config = SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.NONE))
    config = config.replace(
        memory=replace(config.memory, memory_latency=400))
    runs = run_all(traces[SEEDS[0]], config)
    assert_matrix_identical(runs)
    for engine in ACCELERATED:
        sim = runs[engine][1]
        assert sim.skipped_cycles > 0, engine
        assert sim.skipped_cycles < sim.cycle, engine
    assert runs["naive"][1].skipped_cycles == 0


def test_warmup_reset_straddles_skip_window(traces):
    """The measurement reset must land on exactly the same cycle.

    With a long memory latency the run is dominated by multi-hundred-
    cycle skip windows; a warm-up threshold mid-run forces the reset to
    fire inside that regime.  Retirement bounds every skip, so the
    reset cycle — and all post-reset statistics — must be identical.
    """
    for warmup in (500, 1000, 1500):
        config = SimConfig(
            prefetch=PrefetchConfig(kind=PrefetcherKind.NONE),
            warmup_instructions=warmup)
        config = config.replace(
            memory=replace(config.memory, memory_latency=400))
        runs = run_all(traces[SEEDS[0]], config)
        assert_matrix_identical(runs)
        for engine in ACCELERATED:
            assert runs[engine][1].skipped_cycles > 0, engine


@pytest.mark.parametrize("engine", ACCELERATED)
@pytest.mark.parametrize("kind", (PrefetcherKind.NONE,
                                  PrefetcherKind.FDIP,
                                  PrefetcherKind.STREAM))
def test_interval_series_identical_under_batching(traces, kind, engine):
    """Per-window interval samples must be bit-identical per engine.

    The sampler reconstructs window boundaries that fall *inside* a
    skipped-cycle batch analytically; a small window against a
    stall-heavy run makes many boundaries land mid-skip.
    """
    config = SimConfig(prefetch=PrefetchConfig(kind=kind),
                       telemetry_window=64)
    config = config.replace(
        memory=replace(config.memory, memory_latency=400))
    naive = Simulator(traces[SEEDS[0]], config, engine="naive").run()
    sim = Simulator(traces[SEEDS[0]], config, engine=engine)
    accel = sim.run()
    assert sim.skipped_cycles > 0
    assert naive.telemetry is not None and accel.telemetry is not None
    assert naive.telemetry.intervals is not None
    assert naive.telemetry.intervals == accel.telemetry.intervals
    assert_identical(naive, accel, engine)
    # The series must tile the measured region: windows are contiguous,
    # and the per-window instruction deltas sum to the run's total.
    samples = accel.telemetry.intervals.samples
    assert sum(s.instructions for s in samples) == accel.instructions
    assert sum(s.cycles for s in samples) == accel.cycles
    assert samples[-1].end_cycle == sim.cycle


def test_interval_series_with_warmup_reset(traces):
    """The series restarts at the measurement origin after warm-up."""
    config = SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.NONE),
                       warmup_instructions=1000, telemetry_window=64)
    config = config.replace(
        memory=replace(config.memory, memory_latency=400))
    runs = run_all(traces[SEEDS[0]], config)
    assert_matrix_identical(runs)
    for engine in ACCELERATED:
        result, sim = runs[engine]
        assert sim.skipped_cycles > 0, engine
        samples = result.telemetry.intervals.samples
        assert sum(s.instructions for s in samples) == result.instructions
        assert sum(s.cycles for s in samples) == result.cycles


def test_tracer_forces_naive_loop(traces):
    """A tracer must observe every cycle: any engine drops to naive."""
    from repro.analysis import PipeTracer

    config = SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.FDIP))
    for engine in ACCELERATED:
        tracer = PipeTracer(start=1, length=50)
        sim = Simulator(traces[SEEDS[0]], config, tracer=tracer,
                        engine=engine)
        sim.run()
        assert sim.skipped_cycles == 0, engine
        assert len(tracer.snapshots) > 0, engine

