"""Conservative per-function call graph over a :class:`Project`.

Edges are resolved syntactically with a small set of rules, erring on
the side of *adding* an edge (reachability-based checkers stay sound
against false negatives at the cost of occasional over-approximation):

* bare ``f()`` — nested defs of the caller, then the enclosing function
  chain, then module-level functions, then the import table;
* ``self.m()`` — the caller's own class, walking project-visible bases;
* ``a.b.f()`` — the import table expands ``a``; if the result names a
  project class, ``f`` is its method, if a module, its function; a local
  variable assigned from a project-class constructor types the receiver;
* receiver-unknown ``x.m()`` — an edge to *every* project method named
  ``m`` only when exactly one class defines it (unique-name fallback),
  except when ``x`` is a builtin container: a display such as ``[]``,
  or a name that the caller or an enclosing function binds only to one;
* thread spawns — ``pool.submit(f)`` / ``pool.map(f, …)`` on an
  executor-typed local and ``Thread(target=f)`` resolve ``f`` with the
  same rules and mark it a **thread entry**.

Lambdas are opaque (they cannot mutate attributes); calls on call
results stay unresolved.
"""

from __future__ import annotations

import ast

from .facts import FunctionFacts, dotted, function_facts
from .project import FunctionInfo, Project

__all__ = ["CallGraph"]


class CallGraph:
    """Call edges plus thread-entry points for a whole project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller qualname -> set of callee qualnames.
        self.edges: dict[str, set[str]] = {}
        #: function qualname -> its intraprocedural facts.
        self.facts: dict[str, FunctionFacts] = {}
        #: qualnames handed to another thread (submit/map/Thread targets).
        self.thread_entries: set[str] = set()
        #: callee qualname -> set of caller qualnames (reverse edges).
        self.callers: dict[str, set[str]] = {}
        self._build()

    # --- construction --------------------------------------------------------

    def _build(self) -> None:
        for qualname, info in self.project.functions.items():
            self.facts[qualname] = function_facts(info.node)
        for qualname, info in self.project.functions.items():
            facts = self.facts[qualname]
            callees = self.edges.setdefault(qualname, set())
            for call in facts.calls:
                target = self._resolve_call(info, facts, call.kind, call.name, call.dotted)
                if target is not None:
                    callees.add(target)
            for spawn in facts.spawns:
                entry = self._resolve_target_expr(info, facts, spawn.target)
                if entry is not None:
                    callees.add(entry)
                    self.thread_entries.add(entry)
        for caller, callees in self.edges.items():
            for callee in callees:
                self.callers.setdefault(callee, set()).add(caller)

    def _resolve_call(
        self,
        info: FunctionInfo,
        facts: FunctionFacts,
        kind: str,
        name: str,
        dotted_callee: str | None,
    ) -> str | None:
        project = self.project
        if kind == "name":
            return self._resolve_bare(info, name)
        if kind == "self":
            if info.cls is None:
                return None
            cls = project.class_of(info.cls)
            if cls is None:
                return None
            method = project.resolve_method(cls, name)
            return method.qualname if method is not None else None
        if kind == "dotted":
            assert dotted_callee is not None
            receiver, _, method_name = dotted_callee.rpartition(".")
            # Receiver typed by a local ``x = SomeClass(...)`` assignment.
            ctor = facts.local_ctors.get(receiver)
            if ctor is not None:
                resolved_ctor = project.resolve(info.module, ctor)
                if resolved_ctor is not None:
                    cls = project.class_of(resolved_ctor)
                    if cls is not None:
                        method = project.resolve_method(cls, method_name)
                        if method is not None:
                            return method.qualname
            resolved = project.resolve(info.module, dotted_callee)
            if resolved is not None:
                if resolved in project.functions:
                    return resolved
                cls = project.class_of(resolved)
                if cls is not None:  # constructor call -> __init__ if defined
                    init = project.resolve_method(cls, "__init__")
                    return init.qualname if init is not None else None
            # The receiver itself may resolve to a class (classmethod-ish
            # call) or a module whose function is the last segment.
            head = project.resolve(info.module, receiver)
            if head is not None:
                cls = project.class_of(head)
                if cls is not None:
                    method = project.resolve_method(cls, method_name)
                    if method is not None:
                        return method.qualname
            if self._is_container(info, receiver):
                return None
            return self._unique_method(method_name)
        if kind == "method":
            return self._unique_method(name)
        return None

    def _resolve_bare(self, info: FunctionInfo, name: str) -> str | None:
        project = self.project
        # Nested defs of the caller, then the enclosing function chain.
        scope = info.qualname
        while scope.startswith(info.module):
            candidate = f"{scope}.{name}"
            if candidate in project.functions:
                return candidate
            if "." not in scope[len(info.module) + 1 :]:
                break
            scope = scope.rsplit(".", 1)[0]
        module_fn = project.module_functions.get(info.module, {}).get(name)
        if module_fn is not None:
            return module_fn.qualname
        resolved = project.resolve(info.module, name)
        if resolved is not None:
            if resolved in project.functions:
                return resolved
            cls = project.class_of(resolved)
            if cls is not None:
                init = project.resolve_method(cls, "__init__")
                return init.qualname if init is not None else None
        return None

    def _is_container(self, info: FunctionInfo, receiver: str) -> bool:
        """Is ``receiver`` a name bound, where it is visible, only to a container?"""
        scope = info.qualname
        while scope.startswith(f"{info.module}."):
            facts = self.facts.get(scope)
            if facts is None:
                return False
            if receiver in facts.local_names:
                return receiver in facts.local_containers
            scope = scope.rsplit(".", 1)[0]
        return False

    def _unique_method(self, name: str) -> str | None:
        candidates = self.project.methods_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0].qualname
        return None

    def _resolve_target_expr(
        self, info: FunctionInfo, facts: FunctionFacts, target: ast.expr | None
    ) -> str | None:
        """Resolve the callable handed to submit/map/Thread."""
        if target is None or isinstance(target, ast.Lambda):
            return None
        name = dotted(target)
        if name is None:
            return None
        parts = name.split(".")
        if len(parts) == 1:
            return self._resolve_bare(info, name)
        if parts[0] == "self" and len(parts) == 2 and info.cls is not None:
            cls = self.project.class_of(info.cls)
            if cls is not None:
                method = self.project.resolve_method(cls, parts[1])
                if method is not None:
                    return method.qualname
            return None
        return self._resolve_call(info, facts, "dotted", parts[-1], name)

    # --- queries -------------------------------------------------------------

    def resolve_call_site(self, qualname: str, call) -> str | None:
        """Callee qualname for one recorded call site of ``qualname``."""
        info = self.project.function(qualname)
        facts = self.facts.get(qualname)
        if info is None or facts is None:
            return None
        return self._resolve_call(info, facts, call.kind, call.name, call.dotted)

    def reachable_from_thread_entries(self) -> set[str]:
        """Every function reachable (BFS) from some thread entry."""
        return self.reachable_from(self.thread_entries)

    def reachable_from(self, roots: set[str]) -> set[str]:
        seen: set[str] = set()
        queue = [root for root in roots if root in self.edges]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.edges.get(current, ()))
        return seen

    def path_to_entry(self, qualname: str) -> list[str]:
        """A shortest entry→function chain, for human-readable messages."""
        if qualname in self.thread_entries:
            return [qualname]
        # BFS backwards over reverse edges until a thread entry is hit.
        parents: dict[str, str] = {}
        queue = [qualname]
        seen = {qualname}
        while queue:
            current = queue.pop(0)
            for caller in sorted(self.callers.get(current, ())):
                if caller in seen:
                    continue
                parents[caller] = current
                if caller in self.thread_entries:
                    chain = [caller]
                    while chain[-1] != qualname:
                        chain.append(parents[chain[-1]])
                    return chain
                seen.add(caller)
                queue.append(caller)
        return [qualname]
