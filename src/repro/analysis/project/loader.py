"""Project loader: parse a file set into a :class:`Project`.

Three passes, all syntactic:

1. parse every file into a :class:`~repro.analysis.engine
   .ModuleContext` (unparseable files yield a ``PARSE`` violation and
   are skipped, exactly like the per-file engine);
2. build per-module *project-aware* alias maps — unlike the per-file
   collector, relative imports are resolved against the module's
   package so ``from ..estimators import BucketEstimator`` inside
   ``repro.serving.shard`` binds to
   ``repro.estimators.BucketEstimator``;
3. index top-level classes/functions and methods, then inventory every
   class's ``self.x`` assignments for the pickle hazards and held
   project classes described on :class:`~repro.analysis.project.model
   .AttributeInfo`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple, Union

from ..diagnostics import PARSE_RULE, Violation
from ..engine import ModuleContext
from .model import AttributeInfo, ClassInfo, FunctionInfo, Project

__all__ = ["load_project"]

#: Callables whose results never pickle: thread/process primitives.
LOCK_FACTORIES: FrozenSet[str] = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "threading.Barrier",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
})

#: Pool executors: live OS resources, never pickle.
EXECUTOR_FACTORIES: FrozenSet[str] = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
})


def _package_of(module: str, path: str) -> str:
    """The package relative imports resolve against."""
    if Path(path).name == "__init__.py":
        return module
    if "." in module:
        return module.rsplit(".", 1)[0]
    return ""


class _ProjectImportCollector(ast.NodeVisitor):
    """Alias collector that also resolves relative imports."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".", 1)[0]
                self.aliases[root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self.package.split(".") if self.package else []
            up = node.level - 1
            if up:
                if up >= len(base):
                    return  # beyond the project root: unresolvable
                base = base[:-up]
            if node.module:
                base = base + node.module.split(".")
            prefix = ".".join(base)
        else:
            if node.module is None:
                return
            prefix = node.module
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.aliases[bound] = f"{prefix}.{alias.name}"


def _module_toplevel_globals(tree: ast.Module) -> FrozenSet[str]:
    """Names bound by top-level (ann)assignments — not imports/defs."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        names.add(element.id)
    return frozenset(names)


def _index_module(project: Project, ctx: ModuleContext) -> None:
    """Record ``ctx``'s top-level classes/functions and their methods."""
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{ctx.module}.{stmt.name}"
            project.functions[qualname] = FunctionInfo(
                qualname=qualname,
                module=ctx.module,
                name=stmt.name,
                node=stmt,
                ctx=ctx,
            )
        elif isinstance(stmt, ast.ClassDef):
            qualname = f"{ctx.module}.{stmt.name}"
            bases: List[str] = []
            for base in stmt.bases:
                parts = project.dotted_parts(base)
                if parts is not None:
                    bases.append(
                        project.resolve_dotted(ctx.module, parts)
                    )
            info = ClassInfo(
                qualname=qualname,
                module=ctx.module,
                name=stmt.name,
                node=stmt,
                ctx=ctx,
                base_names=tuple(bases),
            )
            for sub in stmt.body:
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    method_qualname = f"{qualname}.{sub.name}"
                    method = FunctionInfo(
                        qualname=method_qualname,
                        module=ctx.module,
                        name=sub.name,
                        node=sub,
                        ctx=ctx,
                        class_name=qualname,
                    )
                    info.methods[sub.name] = method
                    project.functions[method_qualname] = method
            project.classes[qualname] = info


# ----------------------------------------------------------------------
# attribute inventory
# ----------------------------------------------------------------------
def _contains_id_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Name) \
                and sub.func.id == "id":
            return True
    return False


def _dict_is_id_keyed(value: ast.expr) -> bool:
    if isinstance(value, ast.DictComp):
        return _contains_id_call(value.key)
    if isinstance(value, ast.Dict):
        return any(
            key is not None and _contains_id_call(key)
            for key in value.keys
        )
    return False


def annotation_classes(
    project: Project, module: str, annotation: ast.expr
) -> Set[str]:
    """Project classes named anywhere inside ``annotation``.

    Walking the whole annotation tree makes ``Optional[X]``,
    ``List[X]`` and ``Mapping[K, X]`` all contribute ``X`` without a
    typing-form special case; string annotations are parsed first.
    """
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(
                annotation.value, mode="eval"
            ).body
        except SyntaxError:
            return set()
    found: Set[str] = set()
    for node in ast.walk(annotation):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        resolved = project.resolve(module, node)
        if resolved is not None and resolved in project.classes:
            found.add(resolved)
    return found


def _function_yields(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _classify_value(
    project: Project,
    module: str,
    info: ClassInfo,
    name: str,
    value: ast.expr,
    line: int,
) -> None:
    """Fold one assigned value into the attribute record."""
    record = info.attributes.setdefault(
        name, AttributeInfo(name=name, line=line)
    )
    if _dict_is_id_keyed(value):
        record.id_keyed = True
    if isinstance(value, ast.GeneratorExp):
        record.generator = True
    if isinstance(value, ast.Call):
        resolved = project.resolve(module, value.func)
        if resolved is not None:
            if resolved in project.classes:
                record.held_classes.add(resolved)
            elif resolved in LOCK_FACTORIES:
                record.lock = True
            elif resolved in EXECUTOR_FACTORIES:
                record.executor = True
            else:
                callee = project.functions.get(resolved)
                if callee is not None \
                        and _function_yields(callee.node):
                    record.generator = True


def _inventory_class(project: Project, info: ClassInfo) -> None:
    """Scan every method for ``self.x`` state and its hazards."""
    module = info.module
    for method in info.methods.values():
        for node in ast.walk(method.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    _inventory_target(
                        project, module, info, target, node.value
                    )
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if _is_self_attribute(target):
                    assert isinstance(target, ast.Attribute)
                    record = info.attributes.setdefault(
                        target.attr,
                        AttributeInfo(
                            name=target.attr, line=node.lineno
                        ),
                    )
                    record.held_classes.update(
                        annotation_classes(
                            project, module, node.annotation
                        )
                    )
                    if node.value is not None:
                        _classify_value(
                            project, module, info, target.attr,
                            node.value, node.lineno,
                        )


def _is_self_attribute(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) \
        and isinstance(node.value, ast.Name) \
        and node.value.id == "self"


def _inventory_target(
    project: Project,
    module: str,
    info: ClassInfo,
    target: ast.expr,
    value: ast.expr,
) -> None:
    if _is_self_attribute(target):
        assert isinstance(target, ast.Attribute)
        _classify_value(
            project, module, info, target.attr, value, target.lineno
        )
        return
    # ``self.x[id(est)] = ...`` — id()-keyed store into the attribute.
    if isinstance(target, ast.Subscript) \
            and _is_self_attribute(target.value) \
            and _contains_id_call(target.slice):
        attribute = target.value
        assert isinstance(attribute, ast.Attribute)
        record = info.attributes.setdefault(
            attribute.attr,
            AttributeInfo(name=attribute.attr, line=target.lineno),
        )
        record.id_keyed = True


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def load_project(
    paths: Iterable[Union[str, Path]],
) -> Tuple[Project, List[Violation]]:
    """Parse ``paths`` into a project; unparseable files become
    ``PARSE`` violations rather than exceptions."""
    project = Project()
    violations: List[Violation] = []
    contexts: List[ModuleContext] = []
    for raw in paths:
        path = Path(raw)
        posix = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            ctx = ModuleContext.from_source(source, posix)
        except SyntaxError as exc:
            violations.append(Violation(
                path=posix,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_RULE,
                message=f"cannot parse file: {exc.msg}",
            ))
            continue
        except OSError as exc:
            violations.append(Violation(
                path=posix,
                line=1,
                col=0,
                rule=PARSE_RULE,
                message=f"cannot read file: {exc}",
            ))
            continue
        contexts.append(ctx)
        project.modules[ctx.module] = ctx
        collector = _ProjectImportCollector(
            _package_of(ctx.module, posix)
        )
        collector.visit(ctx.tree)
        project.module_aliases[ctx.module] = collector.aliases
        project.module_globals[ctx.module] = \
            _module_toplevel_globals(ctx.tree)
    for ctx in contexts:
        _index_module(project, ctx)
    for info in project.classes.values():
        _inventory_class(project, info)
    return project, violations
