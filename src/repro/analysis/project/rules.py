"""The whole-program rules: serving protocols, machine-checked.

Every rule subclasses :class:`ProjectRule` and registers in
:data:`PROJECT_RULES` — a registry separate from the per-module
:data:`repro.analysis.rules.RULES` because the two families are built
differently (one rule object per module there, one per project here);
the lint pass runs both.  A rule's scopes are the module constants
defined next to it.

Rule codes
----------
EPOCH001
    Revalidation dominance.  In a class that defines or inherits a
    revalidator (``_revalidate``/``sync``), every read of the
    epoch-keyed kernel snapshot — a call taking ``self._arrays`` as
    its receiver or as an argument — must be dominated by a
    revalidator call on every path.  Interprocedural within the
    class: a private method whose reads are not locally dominated
    must itself be dominated at each call site.  Additionally,
    anywhere in the EPOCH001 packages (which include
    ``repro.tuning``), storing a published-summary attribute on a
    receiver other than ``self`` (``hist.buckets = ...``) is a
    finding: it swaps the summary without the owner's atomic epoch
    bump, so a consumer can serve the new buckets against a stale
    epoch — mutations must publish through ``replace_buckets()``.
SEED001
    Interprocedural seed threading, escalating DET001.  An RNG
    construction must take its seed from a parameter or a literal,
    never a module-level global; seed parameters are traced up call
    edges, and a call site that leaves a seed parameter at its
    ``None`` default (or passes ``None``) relies on an unseeded RNG.
ORDER001
    Iteration order.  Inside the kernel packages, iterating a
    ``set``/``frozenset`` (or a set-algebra result over dict views)
    into a float accumulation makes the sum order — and therefore the
    last ulp — depend on hash seeds.  Iterate ``sorted(...)`` instead.
RES002
    Deadline-dominated IPC.  A blocking pipe read
    (``recv``/``recv_bytes``/``poll``) in the serving package must be
    dominated by a deadline check (``.check()``) on every path — the
    same dominance machinery as EPOCH001 — so a worker process that
    dies mid-reply exhausts a logical budget instead of hanging the
    serve.  Worker-side idle loops are exempt by name; their
    supervisor kills them.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, \
    Tuple, Type

from ..diagnostics import Violation
from ..engine import ModuleContext
from .callgraph import CallGraph, calls_in
from .dominance import EVENT_READ, EVENT_REVALIDATE, undominated_reads
from .model import ClassInfo, FunctionInfo, Project

__all__ = [
    "PROJECT_RULES",
    "ProjectRule",
    "register_project",
]

#: Registry of every cross-module rule, keyed by code.
PROJECT_RULES: Dict[str, Type["ProjectRule"]] = {}


def register_project(
    rule_class: Type["ProjectRule"],
) -> Type["ProjectRule"]:
    """Class decorator adding a rule to :data:`PROJECT_RULES`."""
    code = rule_class.code
    if not code or code in PROJECT_RULES:
        raise ValueError(f"duplicate or empty rule code: {code!r}")
    PROJECT_RULES[code] = rule_class
    return rule_class


class ProjectRule:
    """Base class for one cross-module rule over one project."""

    #: Short unique code, e.g. ``"EPOCH001"``.
    code: str = ""
    #: One-line description for ``repro-spatial lint --list-rules``.
    summary: str = ""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._graph: Optional[CallGraph] = None
        self.violations: List[Violation] = []

    @property
    def graph(self) -> CallGraph:
        """The project's call graph, built on first use."""
        if self._graph is None:
            self._graph = CallGraph.build(self.project)
        return self._graph

    def run(self) -> List[Violation]:
        raise NotImplementedError

    def report(self, path: str, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        ))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


# ----------------------------------------------------------------------
# EPOCH001 — revalidation dominance
# ----------------------------------------------------------------------
#: Module prefixes whose revalidating classes EPOCH001 checks.
EPOCH001_PACKAGES: Tuple[str, ...] = (
    "repro.serving",
    "repro.estimators",
    "repro.tuning",
)

#: Method names that bring derived state up to date; a class is in
#: EPOCH001 scope when it defines or inherits one of these.
EPOCH001_REVALIDATORS: Tuple[str, ...] = ("_revalidate", "sync")

#: ``self.<attr>`` names holding derived state — the epoch-keyed
#: kernel snapshot (``_arrays``).  A call that takes one as its
#: receiver (``self._arrays.estimate_block(...)``) or as an argument
#: (``estimate_many_arrays(self._arrays, ...)``) reads it.
EPOCH001_SNAPSHOT_ATTRS: FrozenSet[str] = frozenset({"_arrays"})

#: Methods never analysed (constructors; the revalidators themselves
#: are always exempt).
EPOCH001_EXEMPT_METHODS: FrozenSet[str] = frozenset({
    "__init__", "__repr__", "__getstate__", "__setstate__",
})

#: Published-summary attributes: storing one on any receiver other
#: than ``self`` (``hist.buckets = ...``) bypasses the owner's atomic
#: epoch-bump publish (``replace_buckets``) and is flagged in every
#: EPOCH001 package.
EPOCH001_MUTATION_ATTRS: FrozenSet[str] = frozenset({"buckets"})


@register_project
class EpochDominanceRule(ProjectRule):
    """Kernel-snapshot reads must follow a revalidate."""

    code = "EPOCH001"
    summary = (
        "kernel-snapshot reads in revalidating classes must be "
        "dominated by _revalidate()/sync() on every path"
    )

    def run(self) -> List[Violation]:
        for info in self.project.classes.values():
            ctx = info.ctx
            if not ctx.in_packages(EPOCH001_PACKAGES):
                continue
            if not self.project.defines_or_inherits(
                info.qualname, EPOCH001_REVALIDATORS
            ):
                continue
            self._check_class(info)
        for ctx in self.project.modules.values():
            if ctx.in_packages(EPOCH001_PACKAGES):
                self._check_summary_stores(ctx)
        return self.violations

    # ------------------------------------------------------------------
    # published-summary stores must go through the epoch-bump path
    # ------------------------------------------------------------------
    def _check_summary_stores(self, ctx: ModuleContext) -> None:
        """Flag ``<receiver>.buckets = ...`` for non-``self``
        receivers anywhere in the module.

        ``self.buckets = ...`` inside the owning class is the
        publish implementation itself; every *other* store reaches
        into another object's summary and bypasses its epoch bump.
        """
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if target.attr not in EPOCH001_MUTATION_ATTRS:
                    continue
                receiver = target.value
                if isinstance(receiver, ast.Name) \
                        and receiver.id == "self":
                    continue
                self.report(
                    ctx.path, target,
                    f"direct store to .{target.attr} bypasses the "
                    f"owner's atomic epoch bump; publish the tuned "
                    f"summary through replace_buckets() instead",
                )

    # ------------------------------------------------------------------
    def _analysed_methods(
        self, info: ClassInfo
    ) -> Dict[str, FunctionInfo]:
        exempt = set(EPOCH001_EXEMPT_METHODS)
        exempt.update(EPOCH001_REVALIDATORS)
        return {
            name: method
            for name, method in info.methods.items()
            if name not in exempt
        }

    def _check_class(self, info: ClassInfo) -> None:
        methods = self._analysed_methods(info)
        # Fixpoint: a private method with locally undominated reads
        # needs revalidation at entry, so calls to it become read
        # events in its callers; that can make further private
        # callers needy in turn.
        needy: Set[str] = set()
        for _ in range(len(methods) + 1):
            classifier = _EpochClassifier(frozenset(needy))
            grown = set(needy)
            for name, method in methods.items():
                if not name.startswith("_") or _is_dunder(name):
                    continue
                if undominated_reads(method.node, classifier):
                    grown.add(name)
            if grown == needy:
                break
            needy = grown

        classifier = _EpochClassifier(frozenset(needy))
        internally_called = self._internal_callees(info)
        for name, method in methods.items():
            private = name.startswith("_") and not _is_dunder(name)
            if private and name in internally_called:
                # Every internal call site carries the obligation (the
                # injected read event); reporting here too would state
                # the same defect twice.
                continue
            for call in undominated_reads(method.node, classifier):
                self.report(
                    info.ctx.path, call,
                    self._message(info, name, call, needy),
                )

    def _internal_callees(self, info: ClassInfo) -> Set[str]:
        called: Set[str] = set()
        for method in info.methods.values():
            for call in calls_in(method.node):
                func = call.func
                if isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Name) \
                        and func.value.id == "self":
                    called.add(func.attr)
        return called

    def _message(
        self,
        info: ClassInfo,
        method: str,
        call: ast.Call,
        needy: Set[str],
    ) -> str:
        func = call.func
        what = "kernel-snapshot read"
        if isinstance(func, ast.Attribute) and func.attr in needy:
            what = (
                f"call to self.{func.attr}() (which reads the kernel "
                f"snapshot)"
            )
        revalidators = "/".join(
            f"{name}()" for name in EPOCH001_REVALIDATORS
        )
        return (
            f"{what} in {info.name}.{method} is not dominated by "
            f"{revalidators} on every path; stale epochs would be "
            f"served"
        )


class _EpochClassifier:
    """Call classifier handed to the dominance walker."""

    def __init__(self, needy: FrozenSet[str]) -> None:
        self.needy = needy

    def __call__(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                if func.attr in EPOCH001_REVALIDATORS:
                    return EVENT_REVALIDATE
                if func.attr in self.needy:
                    return EVENT_READ
                return None
            if self._is_snapshot(receiver):
                return EVENT_READ
        # the snapshot handed to a kernel: f(self._arrays, ...)
        args = list(call.args) + [kw.value for kw in call.keywords]
        if any(self._is_snapshot(arg) for arg in args):
            return EVENT_READ
        return None

    def _is_snapshot(self, node: ast.expr) -> bool:
        """``self.<attr>`` for a kernel-snapshot attribute."""
        return isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self" \
            and node.attr in EPOCH001_SNAPSHOT_ATTRS


# ----------------------------------------------------------------------
# SEED001 — interprocedural seed threading
# ----------------------------------------------------------------------
#: Qualified RNG constructors whose seed argument SEED001 traces
#: across call edges.
SEED001_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.SeedSequence",
})

#: Classification results for a seed expression.
_SEED_OK = "ok"
_SEED_GLOBAL = "global"
_SEED_NONE = "none"


@register_project
class SeedThreadingRule(ProjectRule):
    """RNG seeds come from parameters or literals, traced across
    call edges."""

    code = "SEED001"
    summary = (
        "RNG constructors take their seed from a parameter or "
        "literal — never a module global, an explicit None, or an "
        "omitted None default (traced interprocedurally)"
    )

    def run(self) -> List[Violation]:
        seed_params: Dict[str, Set[str]] = {}
        # Construction sites: classify the seed expression in place
        # and record which parameters feed seeds.
        for ctx in self.project.modules.values():
            for call, scopes in _rng_constructions(ctx, self.project):
                seed = _seed_argument(call)
                if seed is None:
                    continue  # DET001 owns the missing-seed case
                status, params, name = _classify_seed(
                    seed, scopes, ctx, self.project
                )
                if status == _SEED_GLOBAL:
                    self.report(
                        ctx.path, call,
                        f"RNG seed reads module-level {name!r}; "
                        f"seeds must arrive through parameters so "
                        f"callers control determinism",
                    )
                elif status == _SEED_NONE:
                    self.report(
                        ctx.path, call,
                        "RNG constructed with an explicit None seed "
                        "— an unseeded generator; thread a real seed "
                        "instead",
                    )
                owner = _param_owner(scopes, params, ctx, self.project)
                if owner is not None:
                    seed_params.setdefault(owner[0], set()).update(
                        owner[1]
                    )
        self._propagate(seed_params)
        self._check_call_sites(seed_params)
        # A call site can resolve through several edges (constructor +
        # __init__); dedupe before reporting.
        return sorted(set(self.violations))

    # ------------------------------------------------------------------
    def _propagate(self, seed_params: Dict[str, Set[str]]) -> None:
        """Fixpoint: a caller param passed into a seed param is one."""
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            for site in self.graph.sites:
                callee = self._callee_function(site.callee)
                if callee is None:
                    continue
                targets = seed_params.get(callee.qualname)
                if not targets:
                    continue
                caller = self.project.functions.get(site.caller)
                if caller is None:
                    continue
                for param in targets:
                    arg = _argument_for(site.call, callee, param)
                    if arg is None:
                        continue
                    status, params, _name = _classify_seed(
                        arg, [caller.node], caller.ctx, self.project
                    )
                    if status != _SEED_OK or not params:
                        continue
                    bucket = seed_params.setdefault(
                        caller.qualname, set()
                    )
                    fresh = params - bucket
                    if fresh:
                        bucket.update(fresh)
                        changed = True

    def _check_call_sites(
        self, seed_params: Dict[str, Set[str]]
    ) -> None:
        for site in self.graph.sites:
            callee = self._callee_function(site.callee)
            if callee is None:
                continue
            targets = seed_params.get(callee.qualname)
            if not targets:
                continue
            caller = self.project.functions.get(site.caller)
            if caller is None:
                continue
            for param in sorted(targets):
                arg = _argument_for(site.call, callee, param)
                if arg is None:
                    if not _call_is_mappable(site.call):
                        continue
                    default = callee.parameter_default(param)
                    if default is not None \
                            and isinstance(default, ast.Constant) \
                            and default.value is None:
                        self.report(
                            caller.ctx.path, site.call,
                            f"call to {callee.name}() leaves seed "
                            f"parameter {param!r} at its None "
                            f"default — the RNG downstream would be "
                            f"unseeded; pass an explicit seed",
                        )
                    continue
                status, _params, name = _classify_seed(
                    arg, [caller.node], caller.ctx, self.project
                )
                if status == _SEED_GLOBAL:
                    self.report(
                        caller.ctx.path, site.call,
                        f"seed for {callee.name}(..., {param}=...) "
                        f"reads module-level {name!r}; thread it "
                        f"through the caller's parameters",
                    )
                elif status == _SEED_NONE:
                    self.report(
                        caller.ctx.path, site.call,
                        f"call passes None as seed parameter "
                        f"{param!r} of {callee.name}() — an "
                        f"unseeded RNG downstream",
                    )

    def _callee_function(
        self, qualname: str
    ) -> Optional[FunctionInfo]:
        """The function a call edge lands on; constructor edges land
        on ``__init__`` through the MRO."""
        fn = self.project.functions.get(qualname)
        if fn is not None:
            return fn
        if qualname in self.project.classes:
            return self.project.find_method(qualname, "__init__")
        return None


def _rng_constructions(
    ctx: ModuleContext,
    project: Project,
) -> List[Tuple[ast.Call, List[ast.AST]]]:
    """(call, enclosing function-scope stack) per RNG construction."""
    found: List[Tuple[ast.Call, List[ast.AST]]] = []

    def walk(node: ast.AST, scopes: List[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            child_scopes = scopes
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                child_scopes = scopes + [child]
            if isinstance(child, ast.Call):
                resolved = project.resolve(ctx.module, child.func)
                if resolved is not None \
                        and resolved in SEED001_CONSTRUCTORS:
                    found.append((child, list(child_scopes)))
            walk(child, child_scopes)

    walk(ctx.tree, [])
    return found


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    if call.args and not isinstance(call.args[0], ast.Starred):
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy"):
            return keyword.value
    return None


def _scope_params(scopes: Sequence[ast.AST]) -> Set[str]:
    params: Set[str] = set()
    for scope in scopes:
        if isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            args = scope.args
            for arg in list(args.posonlyargs) + list(args.args) \
                    + list(args.kwonlyargs):
                params.add(arg.arg)
            if args.vararg is not None:
                params.add(args.vararg.arg)
            if args.kwarg is not None:
                params.add(args.kwarg.arg)
    return params - {"self", "cls"}


def _local_bindings(
    scopes: Sequence[ast.AST],
) -> Dict[str, List[ast.expr]]:
    """Name -> candidate defining expressions across the scope stack."""
    bindings: Dict[str, List[ast.expr]] = {}

    def bind(name: str, value: Optional[ast.expr]) -> None:
        if value is not None:
            bindings.setdefault(name, []).append(value)

    for scope in scopes:
        if not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, node.value)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                bind(node.target.id, node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)) \
                    and isinstance(node.target, ast.Name):
                bind(node.target.id, node.iter)
            elif isinstance(node, ast.comprehension) \
                    and isinstance(node.target, ast.Name):
                bind(node.target.id, node.iter)
            elif isinstance(node, ast.withitem) \
                    and isinstance(node.optional_vars, ast.Name):
                bind(node.optional_vars.id, node.context_expr)
    return bindings


def _classify_seed(
    expr: ast.expr,
    scopes: Sequence[ast.AST],
    ctx: ModuleContext,
    project: Project,
) -> Tuple[str, Set[str], Optional[str]]:
    """Where does a seed expression's value come from?

    Returns ``(status, parameter_names, offending_name)``: ``status``
    is OK (literal/parameter-derived), GLOBAL (reads a module-level
    binding or an imported value) or NONE (literally ``None``).
    """
    params = _scope_params(scopes)
    bindings = _local_bindings(scopes)
    module_globals = project.module_globals.get(ctx.module, frozenset())
    aliases = project.module_aliases.get(ctx.module, {})
    used_params: Set[str] = set()
    offender: List[str] = []
    visiting: Set[str] = set()

    def classify(node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            if node.value is None:
                return _SEED_NONE
            return _SEED_OK
        if isinstance(node, ast.Name):
            name = node.id
            if name in params:
                used_params.add(name)
                return _SEED_OK
            if name in bindings and name not in visiting:
                visiting.add(name)
                status = _SEED_OK
                for candidate in bindings[name]:
                    sub = classify(candidate)
                    if sub == _SEED_GLOBAL:
                        status = _SEED_GLOBAL
                visiting.discard(name)
                return status
            if name in module_globals or name in aliases:
                resolved = project.resolve_dotted(ctx.module, [name])
                if resolved in project.functions \
                        or resolved in project.classes:
                    return _SEED_OK  # a callable, not seed material
                offender.append(name)
                return _SEED_GLOBAL
            return _SEED_OK  # builtin or untracked: stay quiet
        if isinstance(node, ast.Call):
            status = _SEED_OK
            for arg in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                sub = classify(arg)
                if sub == _SEED_GLOBAL:
                    status = _SEED_GLOBAL
            return status
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root: ast.expr = node
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name):
                if root.id in params:
                    # A field read off a parameter-carried object
                    # (``config.seed``): fine here, but the carrier
                    # is a config, not a seed — callers passing it
                    # are not passing "the seed", so the parameter
                    # is deliberately NOT recorded as a seed param.
                    return _SEED_OK
                return classify(root)
            return _SEED_OK
        status = _SEED_OK
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                sub = classify(child)
                if sub == _SEED_NONE and isinstance(node, ast.expr):
                    continue  # None inside a tuple: entropy pairs ok
                if sub == _SEED_GLOBAL:
                    status = _SEED_GLOBAL
        return status

    status = classify(expr)
    name = offender[0] if offender else None
    return status, used_params, name


def _param_owner(
    scopes: Sequence[ast.AST],
    params: Set[str],
    ctx: ModuleContext,
    project: Project,
) -> Optional[Tuple[str, Set[str]]]:
    """Map used seed parameters back to the indexed function that
    declares them (innermost scope first)."""
    if not params:
        return None
    for scope in reversed(list(scopes)):
        if not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        declared = _scope_params([scope])
        owned = params & declared
        if not owned:
            continue
        for fn in project.functions.values():
            if fn.node is scope and fn.module == ctx.module:
                return fn.qualname, owned
        return None  # nested def: parameter-threaded, but no edges
    return None


def _call_is_mappable(call: ast.Call) -> bool:
    """False when *args/**kwargs make omission undecidable."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    return all(kw.arg is not None for kw in call.keywords)


def _argument_for(
    call: ast.Call, callee: FunctionInfo, param: str
) -> Optional[ast.expr]:
    """The expression passed for ``param``, or None when omitted or
    unmappable."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return None
    names = callee.parameter_names()
    if param in names:
        index = names.index(param)
        if index < len(call.args):
            return call.args[index]
    return None


# ----------------------------------------------------------------------
# ORDER001 — unordered iteration feeding float accumulation
# ----------------------------------------------------------------------
#: Module prefixes where iteration over unordered sets must not feed
#: float accumulation.
ORDER001_PACKAGES: Tuple[str, ...] = (
    "repro.core",
    "repro.estimators",
    "repro.serving",
)

#: Reducers whose argument order changes the float result.
_ORDER_REDUCERS = frozenset({
    "sum", "math.fsum", "numpy.sum", "numpy.nansum", "numpy.prod",
})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


@register_project
class UnorderedAccumulationRule(ProjectRule):
    """No set iteration into float sums inside the kernel packages."""

    code = "ORDER001"
    summary = (
        "iterating sets/unordered views into float accumulation "
        "makes results depend on hash order; iterate sorted(...) "
        "instead"
    )

    def run(self) -> List[Violation]:
        for ctx in self.project.modules.values():
            if not ctx.in_packages(ORDER001_PACKAGES):
                continue
            self._check_module(ctx)
        return self.violations

    def _check_module(self, ctx: ModuleContext) -> None:
        local_sets = _set_typed_locals(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_unordered(node.iter, local_sets) \
                        and _accumulates(node.body):
                    self.report(
                        ctx.path, node,
                        "for-loop iterates an unordered set while "
                        "accumulating floats; iterate "
                        "sorted(...) to pin the summation order",
                    )
            elif isinstance(node, ast.Call):
                resolved = _reducer_name(node, ctx)
                if resolved is None:
                    continue
                for arg in node.args[:1]:
                    if _is_unordered(arg, local_sets):
                        self.report(
                            ctx.path, node,
                            f"{resolved}() reduces an unordered set; "
                            f"the float result depends on hash "
                            f"order — reduce over sorted(...)",
                        )
                    elif isinstance(
                        arg,
                        (ast.GeneratorExp, ast.ListComp, ast.SetComp),
                    ) and any(
                        _is_unordered(gen.iter, local_sets)
                        for gen in arg.generators
                    ):
                        self.report(
                            ctx.path, node,
                            f"{resolved}() reduces a comprehension "
                            f"over an unordered set; iterate "
                            f"sorted(...) to pin the order",
                        )
        return None


def _reducer_name(call: ast.Call, ctx: ModuleContext) -> Optional[str]:
    name = ctx.resolve(call.func)
    if name is not None and name in _ORDER_REDUCERS:
        return name
    return None


def _set_typed_locals(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if _is_unordered(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and _annotation_is_set(node.annotation):
            names.add(node.target.id)
    return names


def _annotation_is_set(annotation: ast.expr) -> bool:
    head = annotation
    if isinstance(head, ast.Subscript):
        head = head.value
    if isinstance(head, ast.Attribute):
        return head.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(head, ast.Name):
        return head.id in (
            "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
        )
    return False


def _is_dict_view(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Call) \
        and isinstance(expr.func, ast.Attribute) \
        and expr.func.attr in ("keys", "items")


def _is_unordered(expr: ast.expr, local_sets: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in local_sets
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) \
                and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) \
                and func.attr in _SET_METHODS:
            return _is_unordered(func.value, local_sets) \
                or _is_dict_view(func.value)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        for side in (expr.left, expr.right):
            if _is_unordered(side, local_sets) or _is_dict_view(side):
                return True
    return False


def _accumulates(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Add, ast.Sub)):
                return True
            if isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.BinOp) \
                    and isinstance(
                        node.value.op, (ast.Add, ast.Sub)) \
                    and _mentions(node.value, node.targets[0].id):
                return True
    return False


def _mentions(expr: ast.expr, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(expr)
    )


# ----------------------------------------------------------------------
# RES002 — deadline-dominated IPC receive loops
# ----------------------------------------------------------------------
#: Module prefixes whose IPC receive loops RES002 checks.
RES002_PACKAGES: Tuple[str, ...] = ("repro.serving",)

#: Attribute calls treated as blocking IPC reads (connection
#: ``recv``/``recv_bytes``/``poll``).
RES002_RECV_METHODS: FrozenSet[str] = frozenset({
    "recv", "recv_bytes", "poll",
})

#: Attribute calls that consume deadline budget (``Deadline.check``);
#: each IPC read must be dominated by one.
RES002_CHECK_ATTRS: FrozenSet[str] = frozenset({"check"})

#: Function/method names RES002 never analyses — the worker-side idle
#: loop blocks on ``recv`` by design (its supervisor kills it); only
#: parent-side loops must carry deadlines.
RES002_EXEMPT_FUNCTIONS: Tuple[str, ...] = ("_shard_worker_main",)


@register_project
class DeadlineRecvRule(ProjectRule):
    """Blocking IPC reads in serving code must sit under a deadline.

    The serving tier's availability contract says a dead or wedged
    worker process surfaces as a typed error, never as a hang.  That
    holds only if every parent-side pipe read
    (``conn.recv``/``recv_bytes``/``poll``) is dominated — on every
    path, the same walker EPOCH001 uses — by a deadline check
    (``deadline.check(...)``), so a worker that stops replying runs
    the loop out of logical budget instead of blocking forever.
    Worker-side idle loops (:data:`RES002_EXEMPT_FUNCTIONS`) legitimately
    block on ``recv``: their supervisor kills them, so they carry no
    deadline.
    """

    code = "RES002"
    summary = (
        "IPC receive loops in serving code must be dominated by a "
        "deadline check on every path; a silent worker death would "
        "hang the serve otherwise"
    )

    def run(self) -> List[Violation]:
        for info in self.project.functions.values():
            if not info.ctx.in_packages(RES002_PACKAGES):
                continue
            if info.name in RES002_EXEMPT_FUNCTIONS:
                continue
            for call in undominated_reads(info.node, _classify_recv):
                self.report(
                    info.ctx.path, call,
                    self._message(info, call),
                )
        return self.violations

    def _message(self, info: FunctionInfo, call: ast.Call) -> str:
        attr = call.func.attr \
            if isinstance(call.func, ast.Attribute) else "recv"
        return (
            f"IPC read .{attr}() in {info.qualname} is not dominated "
            f"by a deadline .check() on every path; a worker that "
            f"dies mid-reply would hang this loop forever"
        )


def _classify_recv(call: ast.Call) -> Optional[str]:
    """Call classifier for RES002's dominance walk."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in RES002_CHECK_ATTRS:
        return EVENT_REVALIDATE
    if func.attr in RES002_RECV_METHODS:
        return EVENT_READ
    return None

