"""Lint-result rendering: human text and machine JSON.

The JSON document shape is pinned by :data:`LINT_JSON_SCHEMA` (and
checked by :func:`validate_lint_json`, which the test suite runs over
every rendered report) so editor integrations and CI annotations can
rely on it::

    {
      "version": 1,
      "tool": "repro-lint",
      "files_checked": 63,
      "summary": {"total": 2, "by_rule": {"DET001": 2}},
      "violations": [
        {"path": "...", "line": 12, "col": 4,
         "rule": "DET001", "message": "..."}
      ]
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .engine import LintResult

__all__ = [
    "LINT_JSON_SCHEMA",
    "render_text",
    "render_json",
    "lint_json_dict",
    "validate_lint_json",
]

#: Bump when the report layout changes incompatibly.
REPORT_VERSION = 1

LINT_JSON_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro lint report",
    "type": "object",
    "required": [
        "version", "tool", "files_checked", "summary", "violations",
    ],
    "properties": {
        "version": {"const": REPORT_VERSION},
        "tool": {"const": "repro-lint"},
        "files_checked": {"type": "integer", "minimum": 0},
        "summary": {
            "type": "object",
            "required": ["total", "by_rule"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "by_rule": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "integer", "minimum": 1,
                    },
                },
            },
        },
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "line", "col", "rule", "message"],
                "properties": {
                    "path": {"type": "string"},
                    "line": {"type": "integer", "minimum": 1},
                    "col": {"type": "integer", "minimum": 0},
                    "rule": {"type": "string"},
                    "message": {"type": "string", "minLength": 1},
                },
            },
        },
    },
}


def render_text(result: LintResult) -> str:
    """One diagnostic per line plus a closing summary line."""
    lines = [violation.format() for violation in result.violations]
    if result.violations:
        by_rule = ", ".join(
            f"{rule}: {count}"
            for rule, count in result.by_rule().items()
        )
        lines.append(
            f"{len(result.violations)} violation"
            f"{'s' if len(result.violations) != 1 else ''} "
            f"in {result.files_checked} files ({by_rule})"
        )
    else:
        lines.append(f"{result.files_checked} files clean")
    return "\n".join(lines)


def lint_json_dict(result: LintResult) -> Dict[str, Any]:
    """The report as a JSON-serialisable dict (see the schema)."""
    return {
        "version": REPORT_VERSION,
        "tool": "repro-lint",
        "files_checked": result.files_checked,
        "summary": {
            "total": len(result.violations),
            "by_rule": result.by_rule(),
        },
        "violations": [v.as_dict() for v in result.violations],
    }


def render_json(result: LintResult, *, indent: int = 2) -> str:
    """The report serialised as JSON text."""
    return json.dumps(lint_json_dict(result), indent=indent,
                      sort_keys=True)


def validate_lint_json(doc: Any) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches the report
    schema (structural check; no external dependencies)."""
    if not isinstance(doc, dict):
        raise ValueError("lint report must be a JSON object")
    for key in LINT_JSON_SCHEMA["required"]:
        if key not in doc:
            raise ValueError(f"lint report is missing {key!r}")
    if doc["version"] != REPORT_VERSION:
        raise ValueError(f"unknown lint report version {doc['version']!r}")
    if doc["tool"] != "repro-lint":
        raise ValueError(f"unknown lint tool {doc['tool']!r}")
    if not isinstance(doc["files_checked"], int) \
            or doc["files_checked"] < 0:
        raise ValueError("files_checked must be a non-negative integer")
    summary = doc["summary"]
    if not isinstance(summary, dict) or "total" not in summary \
            or "by_rule" not in summary:
        raise ValueError("summary must carry 'total' and 'by_rule'")
    violations = doc["violations"]
    if not isinstance(violations, list):
        raise ValueError("violations must be an array")
    if summary["total"] != len(violations):
        raise ValueError("summary.total disagrees with violations")
    for i, item in enumerate(violations):
        if not isinstance(item, dict):
            raise ValueError(f"violations[{i}] must be an object")
        for key in ("path", "line", "col", "rule", "message"):
            if key not in item:
                raise ValueError(f"violations[{i}] is missing {key!r}")
        if not isinstance(item["line"], int) or item["line"] < 1:
            raise ValueError(f"violations[{i}].line must be >= 1")
        if not isinstance(item["col"], int) or item["col"] < 0:
            raise ValueError(f"violations[{i}].col must be >= 0")
