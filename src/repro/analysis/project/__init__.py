"""Whole-program analysis: the substrate and rules that see the full tree.

A per-module rule (:mod:`repro.analysis.rules`) sees one module at a
time, so it cannot state the invariants that actually protect the
serving tier — "every kernel-snapshot read happens after a
revalidate", "every parent-side pipe read sits under a deadline",
"seeds flow through parameters across call edges".  The lint pass
(:func:`repro.analysis.engine.lint_paths`) loads every target into one
project, and the rules here reason over all of it:

``model``
    Symbol tables — modules, classes (with project-visible MRO),
    functions, per-class inventories of the project classes each
    attribute holds.
``loader``
    Builds a :class:`~repro.analysis.project.model.Project` from
    source paths, resolving absolute, aliased *and relative* imports.
``callgraph``
    Best-effort call edges: ``self.``-dispatch through the MRO,
    alias/re-export resolution, constructor edges, local receiver
    inference.
``dominance``
    The path-sensitive "is every read dominated by a revalidate?"
    abstract interpretation EPOCH001 and RES002 run per function.
``rules``
    The whole-program rules (EPOCH001, SEED001, ORDER001, RES002) and
    their :data:`PROJECT_RULES` registry.
"""

from __future__ import annotations

from .callgraph import CallGraph, CallSite, calls_in, local_class_env
from .dominance import EVENT_READ, EVENT_REVALIDATE, undominated_reads
from .loader import build_project, load_project
from .model import AttributeInfo, ClassInfo, FunctionInfo, Project
from .rules import PROJECT_RULES, ProjectRule, register_project

__all__ = [
    "AttributeInfo",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "EVENT_READ",
    "EVENT_REVALIDATE",
    "FunctionInfo",
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
    "build_project",
    "calls_in",
    "load_project",
    "local_class_env",
    "register_project",
    "undominated_reads",
]
