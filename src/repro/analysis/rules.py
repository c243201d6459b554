"""The repository's invariant rules.

Every rule is an :class:`ast.NodeVisitor` subclass registered in
:data:`RULES` via :func:`register`.  The engine instantiates one rule
object per (module, rule) pair and calls :meth:`Rule.run`; rules report
findings with :meth:`Rule.report` and never raise on weird-but-legal
code — a linter that crashes on unusual input is worse than one that
misses a finding.  A rule's scopes and thresholds are the module
constants defined next to it.

Rule codes
----------
DET001
    Determinism: no global-RNG or wall-clock calls in result paths.
    Randomness must be threaded as ``numpy.random.Generator`` values
    constructed from explicit seeds.
NPY001
    Dtype hygiene: ``.astype``/``dtype=`` must name an explicit numpy
    dtype (``np.int64``), never a platform-dependent builtin (``int``)
    or a string alias.
MUT001
    Purity: public functions of the kernel packages must not mutate
    their parameters in place.
OBS001
    Metric keys passed to ``OBS.add``/``OBS.timer``/``OBS.observe``
    must be string literals (or f-strings with a literal dotted
    prefix) under a registered namespace.
API001
    Public functions in the core packages carry complete type
    annotations: every parameter and the return type.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, \
    Tuple, Type

from .diagnostics import Violation
from .engine import ModuleContext

__all__ = ["Rule", "RULES", "register"]

#: Registry of every known rule, keyed by code.
RULES: Dict[str, Type["Rule"]] = {}


def register(rule_class: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to :data:`RULES`."""
    code = rule_class.code
    if not code or code in RULES:
        raise ValueError(f"duplicate or empty rule code: {code!r}")
    RULES[code] = rule_class
    return rule_class


class Rule(ast.NodeVisitor):
    """Base class for one lint rule over one module."""

    #: Short unique code, e.g. ``"DET001"``.
    code: str = ""
    #: One-line description shown by ``repro-spatial lint --list-rules``.
    summary: str = ""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.violations: List[Violation] = []

    def run(self) -> List[Violation]:
        """Visit the module and return this rule's findings."""
        if self.applies():
            self.visit(self.ctx.tree)
        return self.violations

    def applies(self) -> bool:
        """Whether this rule is in scope for the module at all."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            path=self.ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        ))


# ----------------------------------------------------------------------
# DET001 — determinism
# ----------------------------------------------------------------------
#: Module prefixes where DET001 is not enforced: the observability
#: layer legitimately reads wall clocks.
DET001_ALLOW_MODULES: Tuple[str, ...] = ("repro.obs",)

#: Fully-qualified callables that break run determinism.
DET001_BANNED_CALLS: FrozenSet[str] = frozenset({
    "numpy.random.seed",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.random_sample",
    "numpy.random.ranf",
    "numpy.random.sample",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.uniform",
    "numpy.random.normal",
    "numpy.random.exponential",
    "numpy.random.poisson",
    "numpy.random.RandomState",
    "numpy.random.set_state",
    "time.time",
    "time.time_ns",
})


@register
class DeterminismRule(Rule):
    """Forbid global-RNG and wall-clock reads in result paths."""

    code = "DET001"
    summary = (
        "no global-RNG or wall-clock calls; thread a seeded "
        "numpy.random.Generator instead"
    )

    def applies(self) -> bool:
        return not self.ctx.in_packages(DET001_ALLOW_MODULES)

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve(node.func)
        if name is not None:
            self._check_call(node, name)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        if name in DET001_BANNED_CALLS:
            self.report(node, self._banned_message(name))
            return
        if name == "numpy.random.default_rng" and not node.args:
            self.report(
                node,
                "numpy.random.default_rng() without a seed is "
                "non-deterministic; pass an explicit seed or accept a "
                "Generator parameter",
            )
            return
        # Any function of the stdlib ``random`` module is global-RNG
        # state (and ``random.Random()`` unseeded is just as bad).
        if name.startswith("random.") \
                and "random" in self.ctx.imported_modules:
            self.report(node, self._banned_message(name))

    @staticmethod
    def _banned_message(name: str) -> str:
        if name.startswith("time."):
            return (
                f"{name}() reads the wall clock in a result path; "
                "time only in the observability layer or accept a "
                "clock parameter"
            )
        return (
            f"{name}() uses global RNG state; thread an explicitly "
            "seeded numpy.random.Generator parameter instead"
        )


# ----------------------------------------------------------------------
# NPY001 — dtype hygiene
# ----------------------------------------------------------------------
_BUILTIN_DTYPES = {"int", "float", "bool", "complex"}

# String aliases of *numeric* dtypes hide the width ("int", "f8") or
# restate it unreadably ("<i8"); explicit unicode/bytes/void dtypes
# like "<U1" carry their width and are not numeric, so they pass.
_NUMERIC_DTYPE_STRING_RE = re.compile(
    r"^(u?int|float|complex)\d*$|^bool8?$|^[<>=|]?[ifubc]\d*$"
)


@register
class DtypeRule(Rule):
    """Forbid implicit/platform-dependent dtypes on array conversions."""

    code = "NPY001"
    summary = (
        ".astype()/dtype= must name an explicit numpy dtype "
        "(np.int64, np.float64), not a builtin or string alias"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "astype":
            self._check_astype(node)
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                self._check_dtype_value(keyword.value)
        self.generic_visit(node)

    def _check_astype(self, node: ast.Call) -> None:
        if not node.args and not any(
            k.arg == "dtype" for k in node.keywords
        ):
            self.report(
                node, ".astype() call without a dtype argument"
            )
            return
        if node.args:
            self._check_dtype_value(node.args[0])
        # dtype= keywords are handled once, in visit_Call.

    def _check_dtype_value(self, value: ast.expr) -> None:
        if isinstance(value, ast.Name) and value.id in _BUILTIN_DTYPES:
            if value.id in ("int", "float"):
                hint = f"such as np.{value.id}64"
            else:
                hint = f"such as np.{value.id}_"
            self.report(
                value,
                f"builtin dtype {value.id!r} is platform-dependent; "
                f"use an explicit numpy dtype {hint}",
            )
        elif isinstance(value, ast.Constant) \
                and isinstance(value.value, str) \
                and _NUMERIC_DTYPE_STRING_RE.match(value.value):
            self.report(
                value,
                f"string dtype {value.value!r} hides the width; use "
                f"an explicit numpy dtype such as np.int64/np.float64",
            )


# ----------------------------------------------------------------------
# MUT001 — parameter purity
# ----------------------------------------------------------------------
#: Module prefixes whose *public* functions must not mutate their
#: array/sequence parameters in place.
MUT001_PACKAGES: Tuple[str, ...] = (
    "repro.geometry",
    "repro.core",
    "repro.estimators",
)

#: Method names on a parameter treated as in-place mutation.
#: ``ndarray.partition`` is omitted: the name collides with the
#: repository's own ``Partitioner.partition()`` protocol, which is
#: pure.
MUT001_MUTATING_METHODS: FrozenSet[str] = frozenset({
    "sort", "fill", "resize", "put", "setflags", "itemset",
    "append", "extend", "insert", "remove", "pop", "clear",
    "reverse", "update", "setdefault", "popitem", "discard",
})


@register
class MutationRule(Rule):
    """Forbid in-place mutation of parameters in public functions."""

    code = "MUT001"
    summary = (
        "public kernel functions must not mutate their parameters "
        "in place"
    )

    def applies(self) -> bool:
        return self.ctx.in_packages(MUT001_PACKAGES)

    # Only walk top-level and public-class functions; visit_ClassDef /
    # visit_FunctionDef below stop generic descent so nested/private
    # scopes are not re-entered.
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name.startswith("_"):
            return
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(item, is_method=True)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node, is_method=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node, is_method=False)

    def _check_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        *,
        is_method: bool,
    ) -> None:
        if node.name.startswith("_") and not _is_dunder(node.name):
            return
        params = _parameter_names(node.args, drop_self=is_method)
        if not params:
            return
        tracked = params - _rebound_names(node)
        if not tracked:
            return
        for statement in node.body:
            self._scan(statement, tracked, node.name)

    def _scan(
        self, node: ast.AST, params: Set[str], func_name: str
    ) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    self._check_target(target, params, func_name)
            elif isinstance(child, ast.AugAssign):
                name = _root_name(child.target)
                if name in params:
                    self.report(
                        child,
                        f"augmented assignment mutates parameter "
                        f"{name!r} of public function {func_name}()",
                    )
            elif isinstance(child, ast.Call):
                self._check_method_call(child, params, func_name)

    def _check_target(
        self, target: ast.expr, params: Set[str], func_name: str
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element, params, func_name)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            name = _root_name(target)
            if name in params:
                what = "item" if isinstance(target, ast.Subscript) \
                    else "attribute"
                self.report(
                    target,
                    f"{what} assignment mutates parameter {name!r} of "
                    f"public function {func_name}()",
                )

    def _check_method_call(
        self, node: ast.Call, params: Set[str], func_name: str
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in MUT001_MUTATING_METHODS:
            return
        name = _root_name(func.value)
        if name in params:
            self.report(
                node,
                f"{name}.{func.attr}() mutates parameter {name!r} of "
                f"public function {func_name}() in place",
            )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _parameter_names(
    args: ast.arguments, *, drop_self: bool
) -> Set[str]:
    ordered = list(args.posonlyargs) + list(args.args)
    names = [a.arg for a in ordered]
    if drop_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return set(names)


def _rebound_names(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Set[str]:
    """Names re-bound anywhere in the body.

    A function that does ``arr = arr.copy()`` owns the new object, so
    later mutation of ``arr`` is legal; tracking order of statements
    would need a CFG, so rebinding anywhere exempts the name (the rule
    prefers false negatives over false positives).
    """
    rebound: Set[str] = set()
    for child in ast.walk(node):
        targets: Sequence[ast.expr] = ()
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, ast.AnnAssign):
            targets = (child.target,)
        elif isinstance(child, ast.For):
            targets = (child.target,)
        elif isinstance(child, ast.withitem):
            if child.optional_vars is not None:
                targets = (child.optional_vars,)
        for target in targets:
            rebound.update(_bare_bound_names(target))
    return rebound


def _bare_bound_names(target: ast.expr) -> Set[str]:
    """Names *re-bound* by an assignment target.

    Only bare names count: ``arr = ...`` re-binds ``arr``, while
    ``arr[0] = ...`` or ``arr.attr = ...`` mutate the object ``arr``
    still refers to — those are exactly what MUT001 flags, so they
    must not exempt the parameter.
    """
    names: Set[str] = set()
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, ast.Starred):
        names.update(_bare_bound_names(target.value))
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.update(_bare_bound_names(element))
    return names


def _root_name(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of a Subscript/Attribute chain, if any."""
    current: ast.expr = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


# ----------------------------------------------------------------------
# OBS001 — metric-key discipline
# ----------------------------------------------------------------------
#: First dotted segment a metric key must start with: the
#: registered-metric naming scheme of :mod:`repro.obs`.
OBS_NAMESPACES: FrozenSet[str] = frozenset({
    "bench", "build", "counting", "data", "equi_area", "equi_count",
    "estimate", "estimator", "eval", "grid", "lint", "maintenance",
    "minskew", "obs", "oracle", "partition", "progressive",
    "rtree", "serving", "storage", "tuning", "workload",
})

_METRIC_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[A-Za-z0-9_\-]+)+$")
_METRIC_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*\.")
_OBS_METHODS = frozenset({"add", "observe", "timer"})


@register
class MetricKeyRule(Rule):
    """Metric keys must be literal and follow the naming scheme."""

    code = "OBS001"
    summary = (
        "OBS metric keys must be literal dotted names under a "
        "registered namespace"
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _OBS_METHODS \
                and self._is_obs(func.value):
            self._check_key(node, func.attr)
        self.generic_visit(node)

    def _is_obs(self, node: ast.expr) -> bool:
        resolved = self.ctx.resolve(node)
        if resolved is None:
            return False
        return resolved == "OBS" or resolved.endswith(".OBS") \
            or resolved == "repro.obs.OBS"

    def _check_key(self, node: ast.Call, method: str) -> None:
        if not node.args:
            self.report(
                node, f"OBS.{method}() called without a metric key"
            )
            return
        key = node.args[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            self._check_literal(key, key.value, method)
        elif isinstance(key, ast.JoinedStr):
            self._check_fstring(key, method)
        else:
            self.report(
                key,
                f"OBS.{method}() key must be a string literal (or an "
                f"f-string with a literal dotted prefix), not a "
                f"computed expression",
            )

    def _check_literal(
        self, node: ast.AST, value: str, method: str
    ) -> None:
        if not _METRIC_KEY_RE.match(value):
            self.report(
                node,
                f"metric key {value!r} does not match the naming "
                f"scheme 'namespace.metric_name'",
            )
            return
        self._check_namespace(node, value, method)

    def _check_fstring(self, node: ast.JoinedStr, method: str) -> None:
        first = node.values[0] if node.values else None
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            self.report(
                node,
                f"OBS.{method}() f-string key must start with a "
                f"literal 'namespace.' prefix",
            )
            return
        prefix = first.value
        if not _METRIC_PREFIX_RE.match(prefix):
            self.report(
                node,
                f"metric-key prefix {prefix!r} must be a literal "
                f"dotted namespace ('namespace.')",
            )
            return
        self._check_namespace(node, prefix, method)

    def _check_namespace(
        self, node: ast.AST, key: str, method: str
    ) -> None:
        namespace = key.split(".", 1)[0]
        if namespace not in OBS_NAMESPACES:
            registered = ", ".join(sorted(OBS_NAMESPACES))
            self.report(
                node,
                f"metric namespace {namespace!r} is not registered "
                f"(known: {registered})",
            )


# ----------------------------------------------------------------------
# API001 — annotation completeness
# ----------------------------------------------------------------------
#: Module prefixes whose public functions require complete type
#: annotations (every parameter and the return type).
API001_PACKAGES: Tuple[str, ...] = (
    "repro.geometry",
    "repro.obs",
    "repro.core",
    "repro.estimators",
    "repro.analysis",
    "repro.errors",
    "repro.resilience",
)


@register
class AnnotationRule(Rule):
    """Public functions in core packages must be fully annotated."""

    code = "API001"
    summary = (
        "public core-package functions need complete parameter and "
        "return annotations"
    )

    def applies(self) -> bool:
        return self.ctx.in_packages(API001_PACKAGES)

    def visit_Module(self, node: ast.Module) -> None:
        for item in node.body:
            self._visit_scope_item(item, in_class=False)

    def _visit_scope_item(
        self, node: ast.stmt, *, in_class: bool
    ) -> None:
        if isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                return
            for item in node.body:
                self._visit_scope_item(item, in_class=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(node, is_method=in_class)

    def _check_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        *,
        is_method: bool,
    ) -> None:
        if node.name.startswith("_") and not _is_dunder(node.name):
            return
        missing = _unannotated_args(node.args, drop_self=is_method)
        for arg in missing:
            self.report(
                arg,
                f"parameter {arg.arg!r} of public function "
                f"{node.name}() has no type annotation",
            )
        if node.returns is None:
            self.report(
                node,
                f"public function {node.name}() has no return type "
                f"annotation",
            )


def _unannotated_args(
    args: ast.arguments, *, drop_self: bool
) -> List[ast.arg]:
    ordered = list(args.posonlyargs) + list(args.args)
    if drop_self and ordered and ordered[0].arg in ("self", "cls"):
        ordered = ordered[1:]
    ordered.extend(args.kwonlyargs)
    if args.vararg is not None:
        ordered.append(args.vararg)
    if args.kwarg is not None:
        ordered.append(args.kwarg)
    return [a for a in ordered if a.annotation is None]
