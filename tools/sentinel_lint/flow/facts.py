"""Light intraprocedural dataflow over one function's AST.

:func:`function_facts` computes, in a single syntactic pass, everything
the flow checkers need to know about one function body:

* **call sites** with their callee shape (bare name, ``self.m``, dotted
  path, or receiver-unknown method), the exception names caught by
  enclosing ``try`` blocks, and whether the nearest guard sits inside or
  outside the nearest enclosing loop (the per-device-isolation question);
* **``self`` mutations** — attribute assigns/augassigns/deletes,
  subscript stores, and calls to container mutators — with the set of
  lock expressions held (``with self._lock:``) at that point;
* **raise sites** and their guarding context;
* **thread-spawn sites** — ``pool.submit(f)``, ``pool.map(f, …)`` on a
  local bound to an executor constructor, and ``Thread(target=f)``;
* small local environments: names bound to executor constructors, to
  project-class constructors (for receiver typing in the call graph) and
  to list/dict/set displays (receivers that are builtin containers).

Nested ``def``s are *not* descended into — they are functions of their
own in the :class:`~tools.sentinel_lint.flow.project.Project` index and
get their own facts.  Lambdas are visited inline (they cannot contain
statements, so they contribute calls but never mutations).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "CallSite",
    "Mutation",
    "RaiseSite",
    "SpawnSite",
    "FunctionFacts",
    "function_facts",
    "dotted",
    "MUTATOR_METHODS",
]

#: Method names that mutate their receiver in place.  Used to treat
#: ``self.buf.append(x)`` as a write to ``self.buf``.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert",
        "pop", "popleft", "popitem", "remove", "discard", "clear",
        "add", "update", "setdefault", "sort", "reverse",
    }
)

#: Constructor names (last dotted segment) that create a thread pool.
_EXECUTOR_CTORS = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

#: Constructor names that create a raw thread.
_THREAD_CTORS = frozenset({"Thread"})

#: Expressions that build a builtin list, dict or set.
_CONTAINER_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: "name" (bare), "self" (``self.m()``), "dotted" (``a.b.f()``),
    #: "method" (attribute call on an unresolvable receiver), "opaque".
    kind: str
    #: The bare/bound name being called (last dotted segment).
    name: str
    #: Full dotted callee as written, when expressible.
    dotted: str | None
    #: Exception names caught by enclosing ``try`` bodies ("" = bare except).
    guards: frozenset[str]
    #: Is the call lexically inside a for/while loop of this function?
    in_loop: bool
    #: When guarded and in a loop: does the nearest guard sit *inside*
    #: the nearest enclosing loop (per-iteration isolation)?
    guarded_inside_loop: bool


@dataclass(frozen=True)
class Mutation:
    """One write to ``self.<attr>`` (or a container mutator call on it)."""

    node: ast.AST
    attr: str
    #: "assign", "augassign", "delete", "subscript" or the mutator name.
    kind: str
    #: Lock expressions (dotted) held via ``with`` at this point.
    locks_held: frozenset[str]


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise`` statement."""

    node: ast.Raise
    #: Dotted exception as written (``DecodeError``, ``exc``), or None
    #: for a bare re-raise.
    exception: str | None
    #: Was the raised expression a caught variable (re-raise pattern)?
    is_reraise: bool
    guards: frozenset[str]


@dataclass(frozen=True)
class SpawnSite:
    """A call that hands a callable to another thread."""

    node: ast.Call
    #: The callable expression passed (first arg / ``target=``), or None.
    target: ast.expr | None
    #: "submit", "map" or "thread".
    via: str


@dataclass
class FunctionFacts:
    """Everything one pass extracts from a single function body."""

    calls: list[CallSite] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    #: Local names bound to a thread-pool constructor.
    executor_names: set[str] = field(default_factory=set)
    #: Local name -> dotted constructor it was assigned from.
    local_ctors: dict[str, str] = field(default_factory=dict)
    #: ``self.X = <dotted ctor>(...)`` assignments seen (attr -> ctors).
    self_attr_ctors: dict[str, list[str]] = field(default_factory=dict)
    #: Every local name this function binds (parameters included).
    local_names: set[str] = field(default_factory=set)
    #: Locals bound only ever to a list, dict or set display.
    local_containers: set[str] = field(default_factory=set)


def _caught_names(handlers: list[ast.ExceptHandler]) -> set[str]:
    """Exception names a try's handlers catch ("" for a bare except)."""
    names: set[str] = set()
    for handler in handlers:
        if handler.type is None:
            names.add("")
        elif isinstance(handler.type, ast.Tuple):
            for element in handler.type.elts:
                name = dotted(element)
                if name is not None:
                    names.add(name.split(".")[-1])
        else:
            name = dotted(handler.type)
            if name is not None:
                names.add(name.split(".")[-1])
    return names


class _FactsVisitor(ast.NodeVisitor):
    def __init__(self, root: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.root = root
        self.facts = FunctionFacts()
        #: ordered context: ("try", frozenset(names)) and ("loop",) entries.
        self._context: list[tuple[str, frozenset[str]]] = []
        self._locks: list[str] = []
        self._caught_vars: set[str] = set()
        #: Locals bound to a container display / to anything else.
        self._displays: set[str] = set()
        self._others: set[str] = set()

    # --- context bookkeeping -------------------------------------------------

    def _guards(self) -> frozenset[str]:
        names: set[str] = set()
        for kind, caught in self._context:
            if kind == "try":
                names |= caught
        return frozenset(names)

    def _in_loop(self) -> bool:
        return any(kind == "loop" for kind, _ in self._context)

    def _guarded_inside_loop(self) -> bool:
        """Does a try sit deeper than the innermost loop?"""
        for kind, _ in reversed(self._context):
            if kind == "try":
                return True
            if kind == "loop":
                return False
        return False

    # --- structure -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.root:
            arguments = node.args
            for arg in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                arguments.vararg, arguments.kwarg,
            ):
                if arg is not None:
                    self._bind_name(arg.arg, None)
            self.generic_visit(node)
        else:
            # nested defs are separate functions: do not descend
            self._bind_name(node.name, None)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Try(self, node: ast.Try) -> None:
        caught = frozenset(_caught_names(node.handlers))
        self._context.append(("try", caught))
        for stmt in node.body:
            self.visit(stmt)
        self._context.pop()
        for handler in node.handlers:
            if handler.name:
                self._caught_vars.add(handler.name)
                self._bind_name(handler.name, None)
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.orelse + node.finalbody:
            self.visit(stmt)

    def _visit_loop(self, node: ast.For | ast.While) -> None:
        self._context.append(("loop", frozenset()))
        if isinstance(node, ast.For):
            self.visit(node.iter)
            self._bind(node.target, None)
            self.visit(node.target)
        else:
            self.visit(node.test)
        for stmt in node.body:
            self.visit(stmt)
        self._context.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    visit_For = _visit_loop
    visit_While = _visit_loop

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            name = dotted(expr)
            if name is None and isinstance(expr, ast.Call):
                name = dotted(expr.func)
            if name is not None:
                self._locks.append(name)
                pushed += 1
            self.visit(expr)
            if item.optional_vars is not None:
                self._bind(item.optional_vars, None)
                self._maybe_bind_executor(item.optional_vars, expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self._locks.pop()

    visit_AsyncWith = visit_With

    # --- bindings ------------------------------------------------------------

    def _bind_name(self, name: str, value: ast.expr | None) -> None:
        self.facts.local_names.add(name)
        if isinstance(value, _CONTAINER_DISPLAYS):
            self._displays.add(name)
        else:
            self._others.add(name)

    def _bind(self, target: ast.expr, value: ast.expr | None) -> None:
        """Record the local names ``target`` binds (``value``: a plain name's)."""
        if isinstance(target, ast.Name):
            self._bind_name(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None)

    def _maybe_bind_executor(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name) or not isinstance(value, ast.Call):
            return
        ctor = dotted(value.func)
        if ctor is None:
            return
        if ctor.split(".")[-1] in _EXECUTOR_CTORS:
            self.facts.executor_names.add(target.id)
        else:
            self.facts.local_ctors[target.id] = ctor

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(node, target)
            self._bind(target, node.value)
            self._maybe_bind_executor(target, node.value)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(node.value, ast.Call)
            ):
                ctor = dotted(node.value.func)
                if ctor is not None:
                    self.facts.self_attr_ctors.setdefault(target.attr, []).append(ctor)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_store(node, node.target, kind="assign")
        self._bind(node.target, node.value)
        if node.value is not None:
            self._maybe_bind_executor(node.target, node.value)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node, node.target, kind="augassign")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_store(node, target, kind="delete")
        self.generic_visit(node)

    def _record_store(self, node: ast.AST, target: ast.expr, kind: str = "assign") -> None:
        """Record a write whose target is ``self.X`` or ``self.X[...]``."""
        actual_kind = kind
        if isinstance(target, ast.Subscript):
            target = target.value
            actual_kind = "subscript" if kind == "assign" else kind
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.facts.mutations.append(
                Mutation(
                    node=node,
                    attr=target.attr,
                    kind=actual_kind,
                    locks_held=frozenset(self._locks),
                )
            )

    # --- raises --------------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        exception: str | None = None
        is_reraise = False
        if node.exc is not None:
            expr = node.exc
            if isinstance(expr, ast.Call):
                expr = expr.func
            exception = dotted(expr)
            if exception is not None and exception in self._caught_vars:
                is_reraise = True
        self.facts.raises.append(
            RaiseSite(
                node=node,
                exception=exception,
                is_reraise=is_reraise or node.exc is None,
                guards=self._guards(),
            )
        )
        self.generic_visit(node)

    # --- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = dotted(func)
        kind = "opaque"
        bare = ""
        if name is not None:
            parts = name.split(".")
            bare = parts[-1]
            if len(parts) == 1:
                kind = "name"
            elif parts[0] == "self" and len(parts) == 2:
                kind = "self"
            else:
                kind = "dotted"
        elif isinstance(func, ast.Attribute):
            bare = func.attr
            # A method of a builtin container display resolves to nothing.
            kind = "opaque" if isinstance(func.value, _CONTAINER_DISPLAYS) else "method"
        self.facts.calls.append(
            CallSite(
                node=node,
                kind=kind,
                name=bare,
                dotted=name,
                guards=self._guards(),
                in_loop=self._in_loop(),
                guarded_inside_loop=self._guarded_inside_loop(),
            )
        )
        self._maybe_spawn(node, name, bare)
        # A mutator call on ``self.X`` is a write to that attribute.
        if (
            isinstance(func, ast.Attribute)
            and bare in MUTATOR_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            self.facts.mutations.append(
                Mutation(
                    node=node,
                    attr=func.value.attr,
                    kind=bare,
                    locks_held=frozenset(self._locks),
                )
            )
        self.generic_visit(node)

    def _maybe_spawn(self, node: ast.Call, name: str | None, bare: str) -> None:
        if bare in ("submit", "map") and name is not None and "." in name:
            receiver = name.rsplit(".", 1)[0]
            if (
                receiver in self.facts.executor_names
                or receiver.split(".")[-1] in _EXECUTOR_CTORS
            ):
                target = node.args[0] if node.args else None
                self.facts.spawns.append(SpawnSite(node=node, target=target, via=bare))
        elif bare in _THREAD_CTORS:
            for keyword in node.keywords:
                if keyword.arg == "target":
                    self.facts.spawns.append(
                        SpawnSite(node=node, target=keyword.value, via="thread")
                    )


def function_facts(node: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionFacts:
    """The dataflow facts for one function definition."""
    visitor = _FactsVisitor(node)
    visitor.visit(node)
    visitor.facts.local_containers = visitor._displays - visitor._others
    return visitor.facts
