"""The ``BENCH_<name>.json`` artifact schema.

Every ``repro-spatial bench`` run emits one machine-readable document:
per-stage wall-clock timings, hot-path counters, and accuracy summaries
for every technique on every benchmark dataset, plus a measurement of
the instrumentation's own overhead.  Future PRs compare their run
against the committed baseline, so the format is pinned here as a JSON
Schema (draft-07) and validated on every write.

:func:`validate_bench` uses the ``jsonschema`` package when it is
importable and otherwise falls back to a structural check of the same
constraints, so validation works in minimal environments too.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["BENCH_SCHEMA", "BenchSchemaError", "validate_bench"]

#: Bump when the artifact layout changes incompatibly.
SCHEMA_VERSION = 1

_TIMER_SCHEMA = {
    "type": "object",
    "required": ["count", "total_s", "min_s", "max_s", "mean_s"],
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "total_s": {"type": "number", "minimum": 0},
        "min_s": {"type": "number", "minimum": 0},
        "max_s": {"type": "number", "minimum": 0},
        "mean_s": {"type": "number", "minimum": 0},
    },
}

_METRICS_SCHEMA = {
    "type": "object",
    "required": ["counters", "timers", "histograms"],
    "properties": {
        "counters": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "timers": {
            "type": "object",
            "additionalProperties": _TIMER_SCHEMA,
        },
        "histograms": {"type": "object"},
    },
}

_ACCURACY_SCHEMA = {
    "type": "object",
    "required": [
        "average_relative_error",
        "mean_per_query_error",
        "median_per_query_error",
        "rmse",
        "n_queries",
    ],
    "properties": {
        "average_relative_error": {"type": "number", "minimum": 0},
        "mean_per_query_error": {"type": "number", "minimum": 0},
        "median_per_query_error": {"type": "number", "minimum": 0},
        "rmse": {"type": "number", "minimum": 0},
        "n_queries": {"type": "integer", "minimum": 1},
    },
}

_LIVE_SCHEMA = {
    "type": "object",
    "required": [
        "ops",
        "queries",
        "inserts",
        "deletes",
        "refreshes",
        "final_epoch",
        "final_n",
        "estimator_rebuilds",
        "replay_seconds",
        "live_matches",
    ],
    "properties": {
        "ops": {"type": "integer", "minimum": 1},
        "queries": {"type": "integer", "minimum": 0},
        "inserts": {"type": "integer", "minimum": 0},
        "deletes": {"type": "integer", "minimum": 0},
        "refreshes": {"type": "integer", "minimum": 0},
        "final_epoch": {"type": "integer", "minimum": 0},
        "final_n": {"type": "integer", "minimum": 1},
        "estimator_rebuilds": {"type": "integer", "minimum": 0},
        "replay_seconds": {"type": "number", "minimum": 0},
        "live_matches": {"type": "boolean"},
    },
}

_INT_LIST_SCHEMA = {
    "type": "array",
    "items": {"type": "integer", "minimum": 0},
}

_SHARDED_SCHEMA = {
    "type": "object",
    "required": [
        "n_shards",
        "workers",
        "shard_sizes",
        "shard_buckets",
        "fanout",
        "skipped",
        "subqueries",
        "fanout_rate",
        "avg_shards_per_query",
        "single_engine_seconds",
        "replay_seconds",
        "ops",
        "mutations",
        "owner_only_invalidation",
        "shard_epoch_bumps",
        "routed_mutations",
        "sharded_matches",
    ],
    "properties": {
        "n_shards": {"type": "integer", "minimum": 1},
        "workers": {"type": "integer", "minimum": 1},
        "shard_sizes": _INT_LIST_SCHEMA,
        "shard_buckets": _INT_LIST_SCHEMA,
        "fanout": {"type": "integer", "minimum": 0},
        "skipped": {"type": "integer", "minimum": 0},
        "subqueries": {"type": "integer", "minimum": 0},
        "fanout_rate": {"type": "number", "minimum": 0},
        "avg_shards_per_query": {"type": "number", "minimum": 0},
        "single_engine_seconds": {"type": "number", "minimum": 0},
        "replay_seconds": {"type": "number", "minimum": 0},
        "ops": {"type": "integer", "minimum": 0},
        "mutations": {"type": "integer", "minimum": 0},
        "owner_only_invalidation": {"type": "boolean"},
        "shard_epoch_bumps": _INT_LIST_SCHEMA,
        "routed_mutations": {"type": "integer", "minimum": 0},
        "sharded_matches": {"type": "boolean"},
        # optional (newer artifacts): the worker-kill recovery cell
        "recovery": {
            "type": "object",
            "required": [
                "requests",
                "survived",
                "kills",
                "respawns",
                "replayed_ops",
                "degraded_fraction",
                "recovered_matches",
            ],
            "properties": {
                "requests": {"type": "integer", "minimum": 0},
                "survived": {"type": "integer", "minimum": 0},
                "kills": {"type": "integer", "minimum": 0},
                "respawns": {"type": "integer", "minimum": 0},
                "replayed_ops": {"type": "integer", "minimum": 0},
                "degraded_fraction": {
                    "type": "number", "minimum": 0, "maximum": 1,
                },
                "recovered_matches": {"type": "boolean"},
            },
        },
    },
}

_SERVER_SCHEMA = {
    "type": "object",
    "required": [
        "concurrency",
        "max_batch",
        "wait_steps",
        "window",
        "requests",
        "batches",
        "avg_batch",
        "shed",
        "batched_seconds",
        "batched_qps",
        "p50_ms",
        "p99_ms",
        "single_seconds",
        "single_qps",
        "single_p50_ms",
        "single_p99_ms",
        "speedup",
        "server_matches",
    ],
    "properties": {
        "concurrency": {"type": "integer", "minimum": 1},
        "max_batch": {"type": "integer", "minimum": 1},
        "wait_steps": {"type": "integer", "minimum": 0},
        "window": {"type": "integer", "minimum": 1},
        "requests": {"type": "integer", "minimum": 1},
        "batches": {"type": "integer", "minimum": 0},
        "avg_batch": {"type": "number", "minimum": 0},
        "shed": {"type": "integer", "minimum": 0},
        "batched_seconds": {"type": "number", "minimum": 0},
        "batched_qps": {"type": "number", "minimum": 0},
        "p50_ms": {"type": "number", "minimum": 0},
        "p99_ms": {"type": "number", "minimum": 0},
        "single_seconds": {"type": "number", "minimum": 0},
        "single_qps": {"type": "number", "minimum": 0},
        "single_p50_ms": {"type": "number", "minimum": 0},
        "single_p99_ms": {"type": "number", "minimum": 0},
        "speedup": {"type": "number", "minimum": 0},
        "server_matches": {"type": "boolean"},
    },
}

_TUNED_SCHEMA = {
    "type": "object",
    "required": [
        "ops",
        "queries",
        "inserts",
        "deletes",
        "tuning_passes",
        "tuning_pairs",
        "feedback_observed",
        "feedback_scored",
        "final_epoch",
        "final_n",
        "n_buckets_static",
        "n_buckets_tuned",
        "count_conserved",
        "are_static",
        "are_tuned",
        "improvement",
        "replay_seconds",
        "tuned_matches",
    ],
    "properties": {
        "ops": {"type": "integer", "minimum": 1},
        "queries": {"type": "integer", "minimum": 0},
        "inserts": {"type": "integer", "minimum": 0},
        "deletes": {"type": "integer", "minimum": 0},
        "tuning_passes": {"type": "integer", "minimum": 0},
        "tuning_pairs": {"type": "integer", "minimum": 0},
        "feedback_observed": {"type": "integer", "minimum": 0},
        "feedback_scored": {"type": "integer", "minimum": 0},
        "final_epoch": {"type": "integer", "minimum": 0},
        "final_n": {"type": "integer", "minimum": 1},
        "n_buckets_static": {"type": "integer", "minimum": 1},
        "n_buckets_tuned": {"type": "integer", "minimum": 1},
        "count_conserved": {"type": "boolean"},
        "are_static": {"type": "number", "minimum": 0},
        "are_tuned": {"type": "number", "minimum": 0},
        "improvement": {"type": "number"},
        "replay_seconds": {"type": "number", "minimum": 0},
        "tuned_matches": {"type": "boolean"},
    },
}

_TECHNIQUE_SCHEMA = {
    "type": "object",
    "required": [
        "technique",
        "build_seconds",
        "estimate_seconds",
        "size_words",
        "accuracy",
        "metrics",
    ],
    "properties": {
        "technique": {"type": "string"},
        "build_seconds": {"type": "number", "minimum": 0},
        "estimate_seconds": {"type": "number", "minimum": 0},
        "size_words": {"type": "integer", "minimum": 0},
        "accuracy": _ACCURACY_SCHEMA,
        "metrics": _METRICS_SCHEMA,
        # optional scalar-loop fields (present when the bench ran
        # with engine="batch"; additions are backward compatible)
        "scalar_seconds": {"type": "number", "minimum": 0},
        "speedup": {"type": "number", "minimum": 0},
        "scalar_matches": {"type": "boolean"},
        # optional live-serving fields (present when the bench ran
        # with engine="live")
        "live": _LIVE_SCHEMA,
        # optional sharded scatter-gather fields (present when the
        # bench ran with engine="sharded"): shard layout, fan-out
        # accounting, and the bit-for-bit differential gate
        "sharded": _SHARDED_SCHEMA,
        # optional micro-batching front-door fields (present when the
        # bench ran with engine="server"): client-observed latency
        # percentiles, qps, and the batched-vs-single-dispatch speedup
        "server": _SERVER_SCHEMA,
        # optional query-feedback self-tuning fields (present when the
        # bench ran with engine="tuned"): the ARE-vs-static
        # differential on a drifting live workload plus the
        # bit-for-bit rebuild gate
        "tuned": _TUNED_SCHEMA,
    },
}

_DATASET_SCHEMA = {
    "type": "object",
    "required": [
        "dataset",
        "n",
        "n_queries",
        "qsize",
        "truth_seconds",
        "techniques",
    ],
    "properties": {
        "dataset": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "n_queries": {"type": "integer", "minimum": 1},
        "qsize": {"type": "number", "exclusiveMinimum": 0},
        "truth_seconds": {"type": "number", "minimum": 0},
        "techniques": {
            "type": "array",
            "minItems": 1,
            "items": _TECHNIQUE_SCHEMA,
        },
    },
}

_OVERHEAD_SCHEMA = {
    "type": "object",
    "required": [
        "disabled_counter_ns",
        "disabled_timer_ns",
        "enabled_counter_ns",
        "enabled_timer_ns",
        "minskew_disabled_s",
        "minskew_enabled_s",
    ],
    "additionalProperties": {"type": "number", "minimum": 0},
}

BENCH_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro bench artifact",
    "type": "object",
    "required": [
        "schema_version",
        "name",
        "created_unix",
        "config",
        "environment",
        "overhead",
        "datasets",
        "total_seconds",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "name": {"type": "string", "minLength": 1},
        "created_unix": {"type": "number", "minimum": 0},
        "config": {
            "type": "object",
            "required": ["n_buckets", "n_regions", "n_queries", "qsize"],
        },
        "environment": {
            "type": "object",
            "required": ["python", "numpy", "platform"],
        },
        "overhead": _OVERHEAD_SCHEMA,
        "datasets": {
            "type": "array",
            "minItems": 1,
            "items": _DATASET_SCHEMA,
        },
        "total_seconds": {"type": "number", "minimum": 0},
    },
}


class BenchSchemaError(ValueError):
    """A bench artifact does not conform to :data:`BENCH_SCHEMA`."""


def validate_bench(doc: Any) -> None:
    """Raise :class:`BenchSchemaError` unless ``doc`` is a valid
    bench artifact; returns None on success."""
    try:
        import jsonschema
    except ImportError:
        _validate_manually(doc)
        return
    try:
        jsonschema.validate(doc, BENCH_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise BenchSchemaError(
            f"bench artifact failed schema validation: {exc.message}"
        ) from exc


# ----------------------------------------------------------------------
# dependency-free fallback validator (same constraints, plainer errors)
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchSchemaError(
            f"bench artifact failed schema validation: {message}"
        )


def _check_object(doc: Any, schema: Dict[str, Any], path: str) -> None:
    _require(isinstance(doc, dict), f"{path} must be an object")
    for key in schema.get("required", ()):
        _require(key in doc, f"{path}.{key} is missing")
    for key, sub in schema.get("properties", {}).items():
        if key in doc:
            _check_value(doc[key], sub, f"{path}.{key}")


def _check_value(value: Any, schema: Dict[str, Any], path: str) -> None:
    if "const" in schema:
        _require(value == schema["const"],
                 f"{path} must equal {schema['const']!r}")
        return
    kind = schema.get("type")
    if kind == "object":
        _check_object(value, schema, path)
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            for key, sub in value.items():
                if key not in schema.get("properties", {}):
                    _check_value(sub, extra, f"{path}.{key}")
    elif kind == "array":
        _require(isinstance(value, list), f"{path} must be an array")
        _require(len(value) >= schema.get("minItems", 0),
                 f"{path} has too few items")
        items = schema.get("items")
        if items:
            for i, item in enumerate(value):
                _check_value(item, items, f"{path}[{i}]")
    elif kind == "integer":
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{path} must be an integer")
        _check_bounds(value, schema, path)
    elif kind == "number":
        _require(isinstance(value, (int, float))
                 and not isinstance(value, bool),
                 f"{path} must be a number")
        _check_bounds(value, schema, path)
    elif kind == "string":
        _require(isinstance(value, str), f"{path} must be a string")
        _require(len(value) >= schema.get("minLength", 0),
                 f"{path} is too short")
    elif kind == "boolean":
        _require(isinstance(value, bool), f"{path} must be a boolean")


def _check_bounds(value: Any, schema: Dict[str, Any], path: str) -> None:
    if "minimum" in schema:
        _require(value >= schema["minimum"],
                 f"{path} must be >= {schema['minimum']}")
    if "exclusiveMinimum" in schema:
        _require(value > schema["exclusiveMinimum"],
                 f"{path} must be > {schema['exclusiveMinimum']}")


def _validate_manually(doc: Any) -> None:
    _check_value(doc, BENCH_SCHEMA, "$")
