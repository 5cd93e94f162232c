"""RunRequest / RunResponse and the shared resolve_request path."""

from __future__ import annotations

import json

import pytest

from repro.api import execute, simulate
from repro.config import PrefetchConfig, SimConfig
from repro.errors import ConfigError
from repro.obs import profile_run
from repro.sim.serialize import result_to_json
from repro.spec import (
    REQUEST_SCHEMA,
    RunRequest,
    RunResponse,
    resolve_request,
)
from repro.workloads import build_trace

LENGTH = 6_000


class TestRunRequestValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigError, match="workload"):
            RunRequest("")

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError, match="SimConfig"):
            RunRequest("gcc_like", config={"kind": "fdip"})

    def test_bad_trace_length_rejected(self):
        with pytest.raises(ConfigError, match="trace_length"):
            RunRequest("gcc_like", trace_length=0)

    def test_bad_shards_rejected(self):
        with pytest.raises(ConfigError, match="shards"):
            RunRequest("gcc_like", shards=0)

    def test_name_prefers_label(self):
        assert RunRequest("gcc_like").name == "gcc_like"
        assert RunRequest("gcc_like", label="exp3").name == "exp3"

    def test_unresolved_request_has_no_cache_key(self):
        with pytest.raises(ConfigError, match="resolve_request"):
            RunRequest("gcc_like").cache_key()


class TestResolveRequest:
    def test_pins_every_default(self):
        request = resolve_request(workload="gcc_like")
        assert request.resolved
        assert request.trace_length is not None
        assert request.shards == 1
        assert request.shard_overlap is None
        request.cache_key()   # resolvable now

    def test_kwargs_override_request_fields(self):
        base = RunRequest("gcc_like", trace_length=LENGTH, seed=1)
        overridden = resolve_request(base, seed=7, label="alt")
        assert overridden.seed == 7
        assert overridden.label == "alt"
        assert overridden.workload == "gcc_like"

    def test_monolithic_never_encodes_overlap(self):
        request = resolve_request(workload="gcc_like",
                                  trace_length=LENGTH,
                                  shards=1, shard_overlap=2_000)
        assert request.shard_overlap is None
        assert request.variant() == ""

    def test_sharded_gets_default_overlap(self):
        from repro.sim.sharding import DEFAULT_SHARD_OVERLAP

        request = resolve_request(workload="gcc_like",
                                  trace_length=200_000, shards=4)
        assert request.shard_overlap == DEFAULT_SHARD_OVERLAP
        assert request.variant().startswith("shards=4:")

    def test_shards_clamped_to_trace_length(self):
        request = resolve_request(workload="gcc_like",
                                  trace_length=2, shards=100)
        assert request.shards == 2

    def test_needs_a_workload(self):
        with pytest.raises(ConfigError, match="workload"):
            resolve_request()

    def test_rejects_non_request(self):
        with pytest.raises(ConfigError, match="RunRequest"):
            resolve_request(("gcc_like", SimConfig()))

    def test_idempotent(self):
        once = resolve_request(workload="gcc_like", trace_length=LENGTH)
        assert resolve_request(once) == once


class TestWireForm:
    def test_round_trip(self):
        request = resolve_request(
            workload="gcc_like",
            config=SimConfig(prefetch=PrefetchConfig(kind="fdip")),
            trace_length=LENGTH, seed=3, label="point-a")
        payload = request.to_dict()
        assert payload["schema"] == REQUEST_SCHEMA
        json.dumps(payload)   # JSON-compatible by construction
        rebuilt = RunRequest.from_dict(payload)
        assert rebuilt == request
        assert rebuilt.cache_key() == request.cache_key()

    def test_unknown_key_rejected(self):
        payload = RunRequest("gcc_like").to_dict()
        payload["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            RunRequest.from_dict(payload)

    def test_wrong_schema_rejected(self):
        payload = RunRequest("gcc_like").to_dict()
        payload["schema"] = "repro.request/v99"
        with pytest.raises(ConfigError, match="schema"):
            RunRequest.from_dict(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            RunRequest.from_dict(None)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", None),
        ("trace_length", 3000.0), ("trace_length", True),
        ("shards", 2.0), ("shards", False), ("shard_overlap", 0.5),
        ("label", 7), ("config", "garbage"), ("config", []),
    ])
    def test_mistyped_wire_field_rejected(self, field, value):
        """Identity fields are type-checked before any cache key exists.

        ``cache_key`` digests ``int(seed)``, so an unchecked ``1.5`` (or
        ``True``) shared seed 1's key while simulating something else,
        and a non-mapping ``config`` silently ran a stock machine.
        """
        body = {"workload": "gcc_like", "trace_length": 3000, "seed": 1}
        resolve_request(RunRequest.from_dict(body)).cache_key()
        with pytest.raises(ConfigError, match=field):
            RunRequest.from_dict({**body, field: value})


class TestExecute:
    def test_execute_matches_simulate_bit_identically(self):
        trace = build_trace("compress_like", LENGTH, seed=1)
        request = resolve_request(workload="compress_like",
                                  trace_length=LENGTH, seed=1,
                                  label="compress_like")
        response = execute(request)
        direct = simulate(trace, SimConfig(), name="compress_like")
        assert response.source == "computed"
        assert result_to_json(response.result) == result_to_json(direct)

    def test_execute_accepts_a_prebuilt_trace(self):
        trace = build_trace("compress_like", LENGTH, seed=1)
        request = resolve_request(workload="compress_like",
                                  trace_length=LENGTH, seed=1)
        via_trace = execute(request, trace=trace)
        rebuilt = execute(request)
        assert result_to_json(via_trace.result) == \
            result_to_json(rebuilt.result)

    def test_profile_on_sharded_request_rejected(self):
        request = resolve_request(workload="compress_like",
                                  trace_length=200_000, shards=4)
        with pytest.raises(ConfigError, match="monolithic"):
            execute(request, profile=True)


class TestRunResponse:
    def _response(self):
        trace = build_trace("compress_like", LENGTH, seed=1)
        return profile_run(trace, SimConfig())

    def test_profile_run_returns_response(self):
        response = self._response()
        assert isinstance(response, RunResponse)
        assert response.source == "computed"
        assert response.profile is not None
        assert response.profile["cycles"] == response.result.cycles

    def test_bad_source_rejected(self):
        response = self._response()
        with pytest.raises(ConfigError, match="source"):
            RunResponse(result=response.result,
                        request=response.request, source="psychic")
