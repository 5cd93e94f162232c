"""Parallel sweep runner and the markdown report generator."""

import pytest

from repro.harness import (
    Runner,
    generate_report,
    parallel_sweep,
    technique_config,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))


class TestParallelSweep:
    def test_inline_mode(self):
        points = [("compress_like", technique_config("none")),
                  ("compress_like", technique_config("nlp"))]
        results = parallel_sweep(points, trace_length=3000, processes=1)
        assert set(results) == set(points)
        for result in results.values():
            assert result.instructions > 0

    def test_duplicates_deduplicated(self):
        point = ("compress_like", technique_config("none"))
        results = parallel_sweep([point, point], trace_length=3000,
                                 processes=1)
        assert len(results) == 1

    def test_multiprocess_matches_inline(self):
        points = [("compress_like", technique_config("none")),
                  ("compress_like", technique_config("fdip_enqueue")),
                  ("m88ksim_like", technique_config("none"))]
        inline = parallel_sweep(points, trace_length=3000, processes=1)
        fanned = parallel_sweep(points, trace_length=3000, processes=2)
        for point in points:
            assert inline[point].cycles == fanned[point].cycles
            assert inline[point].counters == fanned[point].counters

    def test_warmup_default_applied(self):
        point = ("compress_like", technique_config("none"))
        results = parallel_sweep([point], trace_length=3000, processes=1)
        result = results[point]
        assert result.instructions < 3000


class TestReport:
    def test_subset_report(self):
        runner = Runner(trace_length=2000)
        text = generate_report(runner, experiment_ids=["E1"])
        assert "# Reproduction report" in text
        assert "## E1" in text
        assert "```text" in text

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            generate_report(Runner(trace_length=2000),
                            experiment_ids=["E99"])

    def test_reports_run_count(self):
        runner = Runner(trace_length=2000)
        text = generate_report(runner, experiment_ids=["E1"])
        assert "Total simulation points" in text

    def test_appendix_survives_sharding(self):
        # The appendix peeks at the runner's memo; a sharding runner
        # memoizes under the shard variant, so the peek must resolve
        # points exactly as run() does or the appendix vanishes.
        from repro.harness.report import _telemetry_appendix

        runner = Runner(trace_length=4000, seed=1, shards=2,
                        shard_threshold=1000, processes=1)
        for technique in ("none", "fdip_enqueue"):
            runner.run("compress_like", technique_config(technique))
        assert _telemetry_appendix(runner) is not None
