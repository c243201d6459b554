"""Static analysis: the repository's AST-based invariant linter.

The paper's figures are only trustworthy if every run is
byte-deterministic and every geometry array keeps the float64 ``(N, 4)``
contract.  The determinism and differential tests check those
invariants *dynamically*; this package enforces them *statically*, so a
stray ``np.random.seed`` or silent dtype downcast fails fast in review
rather than rotting the figures.

Layout:

* :mod:`repro.analysis.engine` — the lint pass: file walking, parsing,
  import-alias resolution, and running the selected rules of both
  registries over the loaded tree;
* :mod:`repro.analysis.rules` — the per-module rule registry and its
  rules (DET001, NPY001, MUT001, OBS001, API001);
* :mod:`repro.analysis.project` — the whole-program substrate (symbol
  tables, call graph, dominance analysis) and its rules (EPOCH001,
  SEED001, ORDER001, RES002);
* :mod:`repro.analysis.config` — rule selection;
* :mod:`repro.analysis.reporters` — text and schema-pinned JSON output.

Run it via ``repro-spatial lint src/`` or programmatically::

    from repro.analysis import lint_paths, render_text

    result = lint_paths(["src"])
    print(render_text(result))
    assert result.ok
"""

from .config import DEFAULT_CONFIG, LintConfig
from .diagnostics import PARSE_RULE, Violation
from .engine import (
    LintResult,
    ModuleContext,
    iter_source_files,
    lint_paths,
    lint_source,
)
from .project import (
    PROJECT_RULES,
    ProjectRule,
    load_project,
    register_project,
)
from .reporters import (
    LINT_JSON_SCHEMA,
    lint_json_dict,
    render_json,
    render_text,
    validate_lint_json,
)
from .rules import RULES, Rule, register

__all__ = [
    "DEFAULT_CONFIG",
    "LintConfig",
    "PARSE_RULE",
    "Violation",
    "LintResult",
    "ModuleContext",
    "iter_source_files",
    "lint_paths",
    "lint_source",
    "LINT_JSON_SCHEMA",
    "lint_json_dict",
    "render_json",
    "render_text",
    "validate_lint_json",
    "RULES",
    "Rule",
    "register",
    "PROJECT_RULES",
    "ProjectRule",
    "load_project",
    "register_project",
]
