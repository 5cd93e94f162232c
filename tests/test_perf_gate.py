"""The perf gate's baseline comparison (``repro.perf.compare_to_baseline``).

Timing itself is exercised by ``benchmarks/bench_perf.py``; these tests
pin the gate's pass/fail rules on hand-written reports.
"""

from __future__ import annotations

from repro.perf import compare_to_baseline


def _report(event_speedup: float = 3.0) -> dict:
    return {"version": 2, "points": {"stall_heavy": {
        "identical": True,
        "engines": {
            "naive": {"identical": True},
            "event": {"identical": True, "speedup": event_speedup},
        }}}}


class TestCompareToBaseline:

    def test_matching_report_passes(self):
        assert compare_to_baseline(_report(), _report()) == []

    def test_speedup_regression_fails(self):
        failures = compare_to_baseline(_report(2.0), _report(3.0))
        assert len(failures) == 1
        assert "event-engine speedup" in failures[0]

    def test_engine_missing_from_report_fails(self):
        baseline = _report()
        baseline["points"]["stall_heavy"]["engines"]["turbo"] = {
            "identical": True, "speedup": 9.0}
        failures = compare_to_baseline(_report(), baseline)
        assert failures == ["stall_heavy: the baseline has a 'turbo' "
                            "engine row but the report does not"]

    def test_engine_new_in_report_is_skipped(self):
        report = _report()
        report["points"]["stall_heavy"]["engines"]["turbo"] = {
            "identical": True, "speedup": 0.1}
        assert compare_to_baseline(report, _report()) == []

    def test_non_identical_point_fails(self):
        report = _report()
        report["points"]["stall_heavy"]["identical"] = False
        failures = compare_to_baseline(report, _report())
        assert any("DIFFER" in failure for failure in failures)

    def test_version_1_baseline_refused(self):
        baseline = {"points": {"stall_heavy": {"speedup": 3.0}}}
        failures = compare_to_baseline(_report(), baseline)
        assert len(failures) == 1
        assert "version" in failures[0]
