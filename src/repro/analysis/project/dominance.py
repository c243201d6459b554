"""Path-sensitive dominance: is every read preceded by a revalidate?

EPOCH001's core question — "is this kernel-snapshot read dominated by
a ``_revalidate()``/``sync()`` call on every path into it?" — is
answered by abstract interpretation of one boolean (*revalidated*)
over a method body:

* a revalidate event sets the state;
* a read event in the unrevalidated state is a violation;
* ``if``/``else`` joins with logical AND — both branches must
  revalidate for the state to hold afterwards (a branch that returns
  is excluded from the join);
* loop bodies are analysed under the entry state and the state is
  *reset to the entry state afterwards* — the body may run zero
  times, so a revalidate inside a loop never dominates reads after
  it (conservative by design: a false "revalidate again" is cheap, a
  missed stale read is a wrong answer);
* ``try`` joins the body with every handler, both analysed from the
  entry state — an exception may fire before the body's revalidate
  ran.

Within one statement, events are processed in source-position order,
so ``self._revalidate(); return self._serve(q)`` across two
statements and a revalidate-then-read inside one expression both
resolve correctly.  Nested ``def``/``lambda`` bodies are skipped —
their execution is deferred and analysed at their own call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .model import FunctionNode

__all__ = ["EVENT_READ", "EVENT_REVALIDATE", "undominated_reads"]

#: Event kinds returned by a classifier.
EVENT_REVALIDATE = "revalidate"
EVENT_READ = "read"

#: Classifier signature: ``call -> event kind or None``.
Classifier = Callable[[ast.Call], Optional[str]]


@dataclass
class _State:
    revalidated: bool = False
    terminated: bool = False

    def copy(self) -> "_State":
        return _State(self.revalidated, self.terminated)


def _events_in(
    node: ast.AST, classify: Classifier
) -> List[Tuple[ast.Call, str]]:
    """Classified calls under ``node`` in source-position order,
    skipping deferred (nested function/lambda) bodies."""
    found: List[Tuple[ast.Call, str]] = []

    def walk(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef),
            ):
                continue
            if isinstance(child, ast.Call):
                kind = classify(child)
                if kind is not None:
                    found.append((child, kind))
            walk(child)

    walk(node)
    found.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return found


class _Walker:
    def __init__(self, classify: Classifier) -> None:
        self.classify = classify
        self.violations: List[ast.Call] = []

    # ------------------------------------------------------------------
    def run_events(self, node: ast.AST, state: _State) -> None:
        """Process one expression/simple statement's events in order."""
        for call, kind in _events_in(node, self.classify):
            if kind == EVENT_REVALIDATE:
                state.revalidated = True
            elif not state.revalidated:
                self.violations.append(call)

    def run_body(
        self, body: Sequence[ast.stmt], state: _State
    ) -> None:
        for stmt in body:
            if state.terminated:
                break
            self.run_stmt(stmt, state)

    # ------------------------------------------------------------------
    def run_stmt(self, stmt: ast.stmt, state: _State) -> None:
        if isinstance(stmt, ast.If):
            self.run_events(stmt.test, state)
            then_state = state.copy()
            else_state = state.copy()
            self.run_body(stmt.body, then_state)
            self.run_body(stmt.orelse, else_state)
            _merge_into(state, [then_state, else_state])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.run_events(stmt.iter, state)
            loop_state = state.copy()
            self.run_body(stmt.body, loop_state)
            self.run_body(stmt.orelse, state.copy())
            # zero iterations are possible: keep the entry state.
        elif isinstance(stmt, ast.While):
            self.run_events(stmt.test, state)
            loop_state = state.copy()
            self.run_body(stmt.body, loop_state)
            self.run_body(stmt.orelse, state.copy())
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.run_events(item.context_expr, state)
            self.run_body(stmt.body, state)
        elif isinstance(stmt, ast.Try):
            body_state = state.copy()
            self.run_body(stmt.body, body_state)
            branch_states = [body_state]
            for handler in stmt.handlers:
                handler_state = state.copy()
                self.run_body(handler.body, handler_state)
                branch_states.append(handler_state)
            if stmt.orelse:
                self.run_body(stmt.orelse, body_state)
            _merge_into(state, branch_states)
            if stmt.finalbody:
                self.run_body(stmt.finalbody, state)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self.run_events(stmt, state)
            state.terminated = True
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass  # deferred bodies: analysed at their own call sites
        else:
            generic = _match_case_bodies(stmt)
            if generic is not None:
                subject, bodies = generic
                self.run_events(subject, state)
                branch_states = []
                for body in bodies:
                    branch_state = state.copy()
                    self.run_body(body, branch_state)
                    branch_states.append(branch_state)
                # no case may match: the entry state joins too.
                branch_states.append(state.copy())
                _merge_into(state, branch_states)
            else:
                self.run_events(stmt, state)


def _match_case_bodies(
    stmt: ast.stmt,
) -> Optional[Tuple[ast.expr, List[List[ast.stmt]]]]:
    """``match`` support without a hard 3.10 dependency."""
    match_type = getattr(ast, "Match", None)
    if match_type is None or not isinstance(stmt, match_type):
        return None
    return stmt.subject, [case.body for case in stmt.cases]


def _merge_into(state: _State, branches: List[_State]) -> None:
    live = [b for b in branches if not b.terminated]
    if not live:
        state.terminated = True
        return
    state.revalidated = all(b.revalidated for b in live)


def undominated_reads(
    node: FunctionNode,
    classify: Classifier,
    *,
    entry_revalidated: bool = False,
) -> List[ast.Call]:
    """Read-event calls not dominated by a revalidate on every path."""
    walker = _Walker(classify)
    state = _State(revalidated=entry_revalidated)
    walker.run_body(node.body, state)
    return walker.violations
