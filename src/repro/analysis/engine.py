"""Linter engine: file walking, parsing, and the one lint pass.

The engine owns everything rule-independent.  For each ``.py`` file it
builds a :class:`ModuleContext` — the parsed tree plus an import-alias
map so rules reason about *fully-qualified* call names (``np.random
.seed`` and ``from numpy import random as r; r.seed`` both resolve to
``numpy.random.seed``).  :func:`lint_paths` then loads every module of
the targets into one :class:`~repro.analysis.project.model.Project`
and runs the selected rules of both registries over it: each
per-module rule (:data:`~repro.analysis.rules.RULES`) on every module,
each whole-program rule (:data:`~repro.analysis.project.rules
.PROJECT_RULES`) once on the project.  :func:`lint_source` is the same
pass over one in-memory module.

Unparseable files yield a single :data:`~repro.analysis.diagnostics
.PARSE_RULE` violation instead of crashing the run, so one bad file
cannot hide findings in the rest of the tree; rule selection never
filters those out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, \
    Optional, Sequence, Set, Tuple, Union

from .config import DEFAULT_CONFIG, LintConfig
from .diagnostics import PARSE_RULE, Violation

if TYPE_CHECKING:
    from .project.model import Project

__all__ = [
    "ModuleContext",
    "LintResult",
    "iter_source_files",
    "lint_paths",
    "lint_source",
]

#: Directory basenames skipped while walking lint targets.
EXCLUDE_DIR_NAMES: Tuple[str, ...] = (
    "__pycache__", ".git", ".venv", "build", "dist",
)


def _module_name_of(path: str) -> str:
    """Dotted module name, anchored at the last ``repro`` component.

    Files outside a ``repro`` package tree fall back to their stem, so
    fixture files in tests still get a usable module key.
    """
    parts = Path(path).parts
    anchor: Optional[int] = None
    for i, part in enumerate(parts):
        if part == "repro":
            anchor = i
    if anchor is None:
        dotted = Path(path).stem
    else:
        tail = [p for p in parts[anchor:]]
        tail[-1] = Path(tail[-1]).stem
        if tail[-1] == "__init__":
            tail = tail[:-1]
        dotted = ".".join(tail)
    return dotted


class _ImportCollector(ast.NodeVisitor):
    """First pass: record import aliases and imported module roots."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}
        self.modules: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            # ``import numpy.random`` binds ``numpy``; ``import
            # numpy.random as nr`` binds ``nr`` to the full path.
            target = alias.name if alias.asname else \
                alias.name.split(".", 1)[0]
            self.aliases[bound] = target
            self.modules.add(alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            # Relative imports stay inside this package; rules about
            # numpy/time/random never involve them.
            return
        for alias in node.names:
            bound = alias.asname or alias.name
            self.aliases[bound] = f"{node.module}.{alias.name}"
            self.modules.add(node.module)


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: str
    module: str
    source: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    imported_modules: FrozenSet[str] = frozenset()

    @classmethod
    def from_source(cls, source: str, path: str) -> "ModuleContext":
        """Parse ``source``; raises :class:`SyntaxError` on bad input."""
        tree = ast.parse(source, filename=path)
        imports = _ImportCollector()
        imports.visit(tree)
        return cls(
            path=path,
            module=_module_name_of(path),
            source=source,
            tree=tree,
            aliases=imports.aliases,
            imported_modules=frozenset(imports.modules),
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of a Name/Attribute chain.

        Expands the chain's root through the module's import aliases:
        with ``import numpy as np``, ``np.random.seed`` resolves to
        ``"numpy.random.seed"``.  Returns ``None`` for anything that is
        not a plain dotted chain (calls, subscripts, literals).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        root = self.aliases.get(parts[0], parts[0])
        return ".".join([root] + parts[1:])

    def in_packages(self, prefixes: Sequence[str]) -> bool:
        """True when this module lives under one of ``prefixes``."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    files_checked: int
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_source_files(
    paths: Iterable[Union[str, Path]],
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    excluded = set(EXCLUDE_DIR_NAMES)
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not excluded.intersection(candidate.parts):
                    found.append(candidate)
        elif path.suffix == ".py":
            found.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such lint target: {path}")
    seen: Set[str] = set()
    unique: List[Path] = []
    for path in found:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def parse_violation(path: str, exc: SyntaxError) -> Violation:
    """The :data:`PARSE_RULE` finding for a file that does not parse."""
    return Violation(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule=PARSE_RULE,
        message=f"cannot parse file: {exc.msg}",
    )


def _run_rules(project: Project, config: LintConfig) -> List[Violation]:
    """The selected rules of both registries over ``project``."""
    # deferred, here and below: the rule modules and the project
    # loader import this module
    from .project.rules import PROJECT_RULES
    from .rules import RULES

    found: List[Violation] = []
    for ctx in project.modules.values():
        for code, rule_class in sorted(RULES.items()):
            if config.wants(code):
                found.extend(rule_class(ctx).run())
    for code, project_rule in sorted(PROJECT_RULES.items()):
        if config.wants(code):
            found.extend(project_rule(project).run())
    return found


def lint_source(
    source: str,
    path: str = "<string>",
    config: LintConfig = DEFAULT_CONFIG,
) -> List[Violation]:
    """The lint pass over one in-memory module."""
    from .project.loader import build_project

    try:
        ctx = ModuleContext.from_source(source, path)
    except SyntaxError as exc:
        return [parse_violation(path, exc)]
    return sorted(_run_rules(build_project([ctx]), config))


def lint_paths(
    paths: Sequence[Union[str, Path]],
    config: LintConfig = DEFAULT_CONFIG,
) -> LintResult:
    """Lint every ``.py`` file reachable from ``paths``, loaded as one
    project."""
    from .project.loader import load_project

    files = iter_source_files(paths)
    project, violations = load_project(files)
    violations.extend(_run_rules(project, config))
    return LintResult(
        files_checked=len(files),
        violations=tuple(sorted(violations)),
    )
