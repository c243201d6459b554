"""Project-wide symbol model: modules, classes, functions, attributes.

The per-file linter (:mod:`repro.analysis.engine`) sees one module at a
time; the protocols that keep the serving spine honest — revalidation
before kernel-snapshot reads, picklable worker payloads, seed
threading — span
modules.  A :class:`Project` is the shared substrate the cross-module
rules reason over:

* ``modules`` — every parsed :class:`~repro.analysis.engine
  .ModuleContext`, keyed by dotted module name;
* ``classes`` / ``functions`` — flat symbol tables keyed by qualified
  name (``repro.estimators.bucket_estimator.BucketEstimator`` and
  ``...BucketEstimator.estimate``), methods included;
* ``module_aliases`` — a *project-aware* import map per module that,
  unlike the per-file map, also resolves relative imports
  (``from ..estimators import BucketEstimator``) so cross-package
  references land on their defining module;
* per-class :class:`AttributeInfo` inventories recording what each
  ``self.x`` holds — project classes (the pickle-reachability edges),
  id()-keyed dicts, locks, executors, generators (the pickle hazards).

Resolution follows re-exports: ``repro.estimators.BucketEstimator``
canonicalises to ``repro.estimators.bucket_estimator.BucketEstimator``
by chasing the package ``__init__``'s own import aliases.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, \
    Tuple, Union

from ..engine import ModuleContext

__all__ = ["AttributeInfo", "ClassInfo", "FunctionInfo", "Project"]

#: Both callable-definition node flavours.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class AttributeInfo:
    """One instance attribute (``self.name``) of a project class.

    Attributes
    ----------
    name:
        Attribute name without the ``self.`` prefix.
    line:
        First assignment's line, for diagnostics.
    id_keyed:
        The attribute is (or is stored into as) a dict keyed by
        ``id(...)`` — object identities do not survive pickling.
    lock, executor, generator:
        The attribute holds a threading primitive, a pool executor, or
        a generator — none of which pickle.
    held_classes:
        Qualified names of project classes the attribute holds,
        gathered from constructor assignments and annotations
        (``Optional[X]``, ``List[X]``, ``Mapping[K, X]`` all
        contribute ``X``).  These are the edges pickle reachability
        walks.
    """

    name: str
    line: int = 0
    id_keyed: bool = False
    lock: bool = False
    executor: bool = False
    generator: bool = False
    held_classes: Set[str] = field(default_factory=set)

    @property
    def risky(self) -> bool:
        """True when pickling this attribute loses or breaks state."""
        return self.id_keyed or self.lock or self.executor \
            or self.generator

    def risk_reasons(self) -> List[str]:
        """Human-readable hazard names, for diagnostics."""
        reasons: List[str] = []
        if self.id_keyed:
            reasons.append("an id()-keyed dict")
        if self.lock:
            reasons.append("a lock")
        if self.executor:
            reasons.append("an executor")
        if self.generator:
            reasons.append("a generator")
        return reasons


@dataclass
class FunctionInfo:
    """One function or method, with its defining module context."""

    qualname: str
    module: str
    name: str
    node: FunctionNode
    ctx: ModuleContext
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def parameter_names(self) -> List[str]:
        """Positional + keyword-only names; ``self``/``cls`` dropped
        for methods."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] \
            + [a.arg for a in args.args] \
            + [a.arg for a in args.kwonlyargs]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    def parameter_default(self, name: str) -> Optional[ast.expr]:
        """The default expression of parameter ``name``, or ``None``
        when the parameter is required (or unknown)."""
        args = self.node.args
        positional = list(args.posonlyargs) + list(args.args)
        n_defaults = len(args.defaults)
        for i, arg in enumerate(positional):
            if arg.arg != name:
                continue
            from_end = len(positional) - i
            if from_end <= n_defaults:
                return args.defaults[n_defaults - from_end]
            return None
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == name:
                return default
        return None


@dataclass
class ClassInfo:
    """One class, its methods, and its instance-attribute inventory."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    ctx: ModuleContext
    base_names: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attributes: Dict[str, AttributeInfo] = field(default_factory=dict)

    def defines(self, method: str) -> bool:
        return method in self.methods


@dataclass
class Project:
    """The whole-program symbol table the cross-module rules share."""

    modules: Dict[str, ModuleContext] = field(default_factory=dict)
    module_aliases: Dict[str, Dict[str, str]] = field(
        default_factory=dict
    )
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Names bound at module top level (excluding imports, defs and
    #: classes) per module — SEED001's "module global" set.
    module_globals: Dict[str, FrozenSet[str]] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def dotted_parts(self, node: ast.AST) -> Optional[List[str]]:
        """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-chains."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        return parts

    def resolve(self, module: str, node: ast.AST) -> Optional[str]:
        """Qualified name of a Name/Attribute chain seen in ``module``.

        The chain's root expands through the module's project-aware
        alias map (relative imports included) or, failing that,
        through the module's own top-level symbols; the result is then
        canonicalised through re-exports.  ``None`` for anything that
        is not a plain dotted chain.
        """
        parts = self.dotted_parts(node)
        if parts is None:
            return None
        return self.resolve_dotted(module, parts)

    def resolve_dotted(self, module: str, parts: List[str]) -> str:
        """Resolve already-split ``parts`` in ``module``'s namespace."""
        aliases = self.module_aliases.get(module, {})
        root = parts[0]
        if root in aliases:
            qualified = aliases[root].split(".") + parts[1:]
        elif f"{module}.{root}" in self.classes \
                or f"{module}.{root}" in self.functions:
            qualified = module.split(".") + parts
        else:
            qualified = parts
        return self.canonicalize(".".join(qualified))

    def canonicalize(self, name: str, _depth: int = 0) -> str:
        """Chase re-exports until ``name`` names a project symbol.

        ``repro.estimators.BucketEstimator`` → the defining module's
        ``repro.estimators.bucket_estimator.BucketEstimator``.  Names
        that never land on a project symbol come back unchanged (they
        are external: ``numpy.random.default_rng``).
        """
        if _depth > 8:
            return name
        if name in self.classes or name in self.functions:
            return name
        parts = name.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            if module not in self.modules:
                continue
            rest = parts[i:]
            symbol = f"{module}.{rest[0]}"
            if symbol in self.classes or symbol in self.functions:
                return self.canonicalize(
                    ".".join([symbol] + rest[1:]), _depth + 1
                )
            target = self.module_aliases.get(module, {}).get(rest[0])
            if target is not None:
                return self.canonicalize(
                    ".".join([target] + rest[1:]), _depth + 1
                )
            break
        return name

    # ------------------------------------------------------------------
    # class hierarchy
    # ------------------------------------------------------------------
    def iter_mro(self, class_qualname: str) -> Iterator[ClassInfo]:
        """The class and its project ancestors, nearest first.

        External bases (ABCs, numpy types) are skipped; cycles are
        guarded, not an error — the linter must not crash on weird
        code.
        """
        seen: Set[str] = set()
        queue: List[str] = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            yield info
            for base in info.base_names:
                queue.append(self.canonicalize(base))

    def find_method(
        self, class_qualname: str, method: str
    ) -> Optional[FunctionInfo]:
        """Resolve ``method`` through the project-visible MRO."""
        for info in self.iter_mro(class_qualname):
            found = info.methods.get(method)
            if found is not None:
                return found
        return None

    def defines_or_inherits(
        self, class_qualname: str, names: Tuple[str, ...]
    ) -> bool:
        """True when any of ``names`` is a method of the class or of
        one of its project ancestors."""
        return any(
            self.find_method(class_qualname, name) is not None
            for name in names
        )
