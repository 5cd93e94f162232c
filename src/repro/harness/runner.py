"""Experiment runner with in-process result memoization.

The twelve experiments share many (workload, configuration) simulation
runs; this runner keys every run by its exact inputs so an experiment
that re-requests an already-simulated point pays nothing.  Traces are
cached on disk (see :class:`~repro.trace.cache.TraceCache`), simulation
results in memory.

Long traces can additionally be *sharded*: :meth:`Runner.run` splits
the trace into windows, simulates them on the supervised pool, and
merges the telemetry (see :mod:`repro.sim.sharding`).  Sharded results
are cached under a distinct key variant so they never masquerade as
monolithic results.
"""

from __future__ import annotations

import math

from repro import env
# Bound as a module-level name (rather than called through repro.api)
# so tests can monkeypatch `repro.harness.runner.simulate`.
from repro.api import simulate
from repro.cachekey import shard_variant as _shard_variant
from repro.config import SimConfig
from repro.errors import RetryExhaustedError
from repro.spec import ExperimentSpec, Point, RunRequest, \
    normalize_points
from repro.sim import SimResult
from repro.stats.sweep import merge_counters
from repro.trace import Trace
from repro.workloads import build_trace

__all__ = ["Runner", "default_trace_length", "geomean"]

_QUICK_LENGTH = 60_000
_FULL_LENGTH = 400_000

#: Below this trace length transparent sharding is skipped: the windows
#: would be so short that the warm-up transient dominates the measured
#: region (see the calibration in ``docs/performance.md``).
_SHARD_THRESHOLD = 150_000


def default_trace_length() -> int:
    """Trace length for experiments.

    ``REPRO_TRACE_LEN`` overrides exactly; ``REPRO_FULL=1`` selects the
    long configuration; the default keeps a full experiment sweep in the
    minutes range on a laptop.  Malformed values raise
    :class:`~repro.errors.ConfigError` (see :mod:`repro.env`).
    """
    override = env.trace_length_override()
    if override is not None:
        return override
    if env.full_run_requested():
        return _FULL_LENGTH
    return _QUICK_LENGTH


def geomean(values: list[float]) -> float:
    """Geometric mean (0.0 for an empty list)."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# The shard-variant tag is derived next to cache_key() itself (one
# module owns every piece of result identity); re-exported here because
# this is where harness callers historically found it.
shard_variant = _shard_variant


class Runner:
    """Runs (workload, config) points with memoization.

    ``shards``/``shard_overlap`` set the transparent sharding policy:
    when ``shards > 1`` and the trace is at least ``shard_threshold``
    instructions long, :meth:`run` simulates each point as that many
    merged windows on the process pool instead of one monolithic run.
    ``processes`` is the runner's worker budget, shared between
    point-level sweep parallelism and within-point shard parallelism.
    """

    def __init__(self, trace_length: int | None = None, seed: int = 1,
                 warmup_fraction: float = 0.2,
                 persist_dir: str | None = None,
                 store: "ResultStore | None" = None,
                 shards: int | None = None,
                 shard_overlap: int | None = None,
                 shard_threshold: int = _SHARD_THRESHOLD,
                 processes: int | None = None):
        self.trace_length = trace_length or default_trace_length()
        self.seed = seed
        self.warmup_fraction = warmup_fraction
        self.shards = shards
        self.shard_overlap = shard_overlap
        self.shard_threshold = shard_threshold
        self.processes = processes
        self._traces: dict[str, Trace] = {}
        self._results: dict[tuple, SimResult] = {}
        self.sweep_counters: dict[str, int] = {}
        if store is not None:
            self._store = store
        else:
            if persist_dir is None:
                persist_dir = env.result_cache_dir()
            self._store = None
            if persist_dir:
                from repro.harness.persist import ResultStore
                self._store = ResultStore(persist_dir)

    def trace(self, workload: str) -> Trace:
        trace = self._traces.get(workload)
        if trace is None:
            trace = build_trace(workload, self.trace_length, seed=self.seed)
            self._traces[workload] = trace
        return trace

    def _warmed(self, config: SimConfig) -> SimConfig:
        if config.warmup_instructions == 0 and self.warmup_fraction > 0:
            warmup = int(self.trace_length * self.warmup_fraction)
            return config.replace(warmup_instructions=warmup)
        return config

    def _effective_shards(self, shards: int | None) -> int:
        """How many shards a point actually runs with.

        An explicit per-call/per-point value wins; ``None`` falls back
        to the runner's policy, which only engages at or above the
        sharding threshold (short traces shard inaccurately — the
        warm-up transient would dominate each window).
        """
        if shards is None:
            if self.shards is None \
                    or self.trace_length < self.shard_threshold:
                return 1
            shards = self.shards
        return max(1, min(shards, self.trace_length))

    def run(self, workload: str, config: SimConfig, *,
            shards: int | None = None,
            processes: int | None = None) -> SimResult:
        """Simulate ``workload`` under ``config`` (memoized).

        ``shards`` overrides the runner's sharding policy for this call
        (``1`` forces a monolithic run); sharded runs fan their windows
        out over ``processes`` workers (default: the runner's budget,
        else one worker per shard) and cache under a shard-specific key.
        """
        config = self._warmed(config)
        nshards = self._effective_shards(shards)
        request = self._request(workload, config, nshards)
        if nshards > 1:
            return self._run_sharded(request, processes=processes)
        key = (workload, config)
        result = self._results.get(key)
        if result is None and self._store is not None:
            result = self._store.load_key(request.cache_key())
            if result is not None:
                self._results[key] = result
        if result is None:
            result = simulate(self.trace(workload), config,
                              name=workload)
            self._results[key] = result
            if self._store is not None:
                self._store.store_key(request.cache_key(), result)
        return result

    def _request(self, workload: str, config: SimConfig,
                 nshards: int) -> "RunRequest":
        """The resolved request identifying one (already warmed) point.

        Every cache interaction below keys on this request's
        :meth:`~repro.spec.RunRequest.cache_key`, the same shared
        digest the serving layer and the sweep manifest use.
        """
        from repro.spec import resolve_request

        return resolve_request(
            workload=workload, config=config,
            trace_length=self.trace_length, seed=self.seed,
            shards=nshards,
            shard_overlap=self.shard_overlap if nshards > 1 else None)

    def _run_sharded(self, request: "RunRequest", *,
                     processes: int | None = None) -> SimResult:
        """Sharded execution of one point, memoized under its variant."""
        from repro.harness.shard_runner import run_sharded_workload

        key = (request.workload, request.config, request.variant())
        result = self._results.get(key)
        if result is None and self._store is not None:
            result = self._store.load_key(request.cache_key())
            if result is not None:
                self._results[key] = result
        if result is None:
            result = run_sharded_workload(
                request.workload, self.trace_length, self.seed,
                request.config, shards=request.shards,
                overlap=request.shard_overlap,
                processes=processes or self.processes)
            self._results[key] = result
            if self._store is not None:
                self._store.store_key(request.cache_key(), result)
        return result

    def with_seed(self, seed: int) -> "Runner":
        """A runner over the same lengths/persistence but another seed.

        Child runners share nothing in memory (different traces), but do
        share the on-disk trace/result caches.  All settings travel
        through the constructor (no post-construction mutation), so
        constructor logic always applies to children.
        """
        return Runner(trace_length=self.trace_length, seed=seed,
                      warmup_fraction=self.warmup_fraction,
                      store=self._store, shards=self.shards,
                      shard_overlap=self.shard_overlap,
                      shard_threshold=self.shard_threshold,
                      processes=self.processes)

    def sweep(self, points: "list[Point] | ExperimentSpec",
              processes: int | None = None, *,
              max_retries: int = 2, point_timeout: float | None = None,
              checkpoint: str | None = None,
              resume: bool = False) -> "SweepOutcome":
        """Run many points fault-tolerantly and memoize the survivors.

        ``points`` is a list of typed :class:`~repro.spec.Point`
        objects or an :class:`~repro.spec.ExperimentSpec` (legacy
        ``(workload, config)`` tuples are rejected with a
        ``ConfigError``).
        Unsharded points fan out through
        :func:`~repro.harness.parallel.parallel_sweep`; points whose
        shard count resolves above one run one at a time with the whole
        worker budget parallelizing *within* the point.  Completed
        results join the in-memory memo so subsequent :meth:`run` calls
        are free; execution counters accumulate on
        :attr:`sweep_counters` (reported in the markdown report footer).
        """
        from repro.harness.parallel import (
            PointFailure,
            _effective_config,
            parallel_sweep,
        )
        from repro.harness.persist import result_key

        normalized = normalize_points(points)
        processes = processes if processes is not None else self.processes
        warmup = int(self.trace_length * self.warmup_fraction)

        plain = [p for p in normalized
                 if self._effective_shards(p.shards) <= 1]
        sharded = [p for p in normalized
                   if self._effective_shards(p.shards) > 1]

        outcome = parallel_sweep(
            [p.key for p in plain], trace_length=self.trace_length,
            seed=self.seed, warmup=warmup, processes=processes,
            max_retries=max_retries, point_timeout=point_timeout,
            store=self._store, checkpoint=checkpoint, resume=resume)
        for (workload, config), result in outcome.items():
            key = (workload, _effective_config(config, warmup))
            self._results.setdefault(key, result)

        counters = dict(outcome.counters)
        for point in sharded:
            nshards = self._effective_shards(point.shards)
            try:
                result = self.run(point.workload, point.config,
                                  shards=nshards, processes=processes)
            except RetryExhaustedError as exc:
                effective = self._warmed(point.config)
                variant = shard_variant(nshards, self.shard_overlap)
                outcome.failures.append(PointFailure(
                    point.workload, point.config,
                    result_key(point.workload, effective,
                               self.trace_length, self.seed,
                               variant=variant),
                    attempts=list(exc.attempts)))
                counters["failed"] = counters.get("failed", 0) + 1
            else:
                outcome.results[point.key] = result
                counters["completed"] = counters.get("completed", 0) + 1
                counters["sharded_points"] = \
                    counters.get("sharded_points", 0) + 1
            counters["points"] = counters.get("points", 0) + 1
        outcome.counters = counters

        self.sweep_counters = merge_counters(self.sweep_counters,
                                             outcome.counters)
        return outcome

    def speedup(self, workload: str, config: SimConfig,
                baseline: SimConfig) -> float:
        """IPC ratio of ``config`` over ``baseline`` on ``workload``."""
        return self.run(workload, config).speedup_over(
            self.run(workload, baseline))

    @property
    def runs_performed(self) -> int:
        return len(self._results)
