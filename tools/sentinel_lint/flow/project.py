"""Project-wide module and symbol index.

A :class:`Project` is built once per lint run from every scanned
:class:`~tools.sentinel_lint.source.SourceFile`.  It answers the
questions the flow checkers keep asking:

* which dotted module does this path implement, and vice versa;
* what functions/classes does each module define (qualified names);
* what does each module's import table bind a local alias to;
* which classes define a method of a given name (for conservative
  receiver-unknown call resolution).

Qualified names are dotted throughout: ``repro.gateway.monitor`` for a
module, ``repro.gateway.monitor.DeviceMonitor`` for a class,
``repro.gateway.monitor.DeviceMonitor.observe`` for a method and
``repro.ml.forest.RandomForestClassifier.fit.build`` for a function nested inside
another.  Files that fail to parse are skipped here — the runner already
reports them as SL000.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..source import SourceFile

__all__ = ["ClassInfo", "FunctionInfo", "Project", "module_name_for_path"]


def module_name_for_path(path: str) -> str:
    """Dotted module name for a repo-relative '/'-separated path.

    ``src/repro/...`` maps into the installed ``repro`` package; every
    other tree (``tools``, ``tests``, ``benchmarks``) keeps its directory
    name as the top-level package, mirroring how the repo imports them.
    """
    trimmed = path.removesuffix(".py")
    if trimmed.startswith("src/"):
        trimmed = trimmed[len("src/") :]
    parts = trimmed.split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition, with its home in the project."""

    qualname: str  #: e.g. ``repro.core.extractor.SetupPhaseDetector.observe``
    module: str  #: e.g. ``repro.core.extractor``
    cls: str | None  #: class qualname when this is a method, else None
    name: str  #: the bare ``def`` name
    node: ast.FunctionDef | ast.AsyncFunctionDef
    src: SourceFile

    @property
    def is_method(self) -> bool:
        """Does the first positional argument look like ``self``?"""
        args = self.node.args.posonlyargs + self.node.args.args
        return bool(args) and args[0].arg == "self"

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ClassInfo:
    """One class definition and its directly defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    src: SourceFile
    #: method name -> FunctionInfo (directly defined; no MRO walk).
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: dotted base-class expressions as written (``Transport``,
    #: ``protocol.Transport``) — resolved on demand via the import table.
    bases: list[str] = field(default_factory=list)


class _DefCollector(ast.NodeVisitor):
    """Collects functions/classes of one module with qualified names."""

    def __init__(self, project: "Project", module: str, src: SourceFile) -> None:
        self.project = project
        self.module = module
        self.src = src
        self._scope: list[str] = []  # qualname suffix parts
        self._class_stack: list[ClassInfo] = []

    def _qual(self, name: str) -> str:
        return ".".join([self.module, *self._scope, name])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = ClassInfo(
            qualname=self._qual(node.name),
            module=self.module,
            name=node.name,
            node=node,
            src=self.src,
        )
        for base in node.bases:
            dotted = _dotted(base)
            if dotted is not None:
                info.bases.append(dotted)
        self.project.classes[info.qualname] = info
        self._scope.append(node.name)
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()
        self._scope.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        enclosing_class = self._class_stack[-1] if self._class_stack else None
        directly_in_class = (
            enclosing_class is not None
            and self._scope
            and self._scope[-1] == enclosing_class.name
        )
        info = FunctionInfo(
            qualname=self._qual(node.name),
            module=self.module,
            cls=enclosing_class.qualname if directly_in_class else None,
            name=node.name,
            node=node,
            src=self.src,
        )
        self.project.functions[info.qualname] = info
        if directly_in_class:
            enclosing_class.methods[node.name] = info
            self.project.methods_by_name.setdefault(node.name, []).append(info)
        elif not self._scope:
            self.project.module_functions.setdefault(self.module, {})[node.name] = info
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_table(tree: ast.Module, module: str) -> dict[str, str]:
    """Local alias -> dotted target for one module's top-level imports.

    ``import a.b as c`` binds ``c -> a.b``; plain ``import a.b`` binds
    ``a -> a`` (attribute chains extend it).  ``from m import x as y``
    binds ``y -> m.x``; relative imports resolve against ``module``'s
    package.  Only top-level and class/function-body imports are walked —
    the table is flow-insensitive by design.
    """
    package_parts = module.split(".")[:-1]
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                cut = len(package_parts) - (node.level - 1)
                if cut < 0:
                    continue
                resolved = package_parts[:cut]
                if node.module:
                    resolved = resolved + node.module.split(".")
                base = ".".join(resolved)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


class Project:
    """Every scanned source, indexed for whole-program analysis."""

    def __init__(
        self, sources: list[SourceFile], *, full_src: bool = True, root: str = "."
    ) -> None:
        #: Repo root — where checkers find the docs.
        self.root = root
        #: repo-relative path -> source.
        self.sources: dict[str, SourceFile] = {}
        #: dotted module name -> source.
        self.modules: dict[str, SourceFile] = {}
        #: function qualname -> info (methods, functions, nested functions).
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> info.
        self.classes: dict[str, ClassInfo] = {}
        #: bare method name -> every class method of that name.
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: module -> top-level function name -> info.
        self.module_functions: dict[str, dict[str, FunctionInfo]] = {}
        #: module -> import table (alias -> dotted target).
        self.imports: dict[str, dict[str, str]] = {}
        #: Was the whole ``src`` tree scanned?  Checkers that reason about
        #: absence (unused obs names) only run when the index is known to
        #: be complete.
        self.full_src = full_src

        self._callgraph = None

        for src in sources:
            try:
                tree = src.tree
            except SyntaxError:
                continue  # the runner reports SL000 for this file
            module = module_name_for_path(src.path)
            self.sources[src.path] = src
            self.modules[module] = src
            self.imports[module] = _import_table(tree, module)
            _DefCollector(self, module, src).visit(tree)

    @property
    def callgraph(self):
        """The project call graph, built once and shared by checkers."""
        if self._callgraph is None:
            from .callgraph import CallGraph  # local: callgraph imports project

            self._callgraph = CallGraph(self)
        return self._callgraph

    # --- symbol resolution ---------------------------------------------------

    def resolve(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted expression used in ``module`` to a qualname.

        ``dotted`` is what the source spells (``obs_names.METRIC_X``,
        ``DeviceMonitor``, ``parallel.spawn_generators``); the head segment is
        expanded through the module's import table, then matched against
        known modules, classes and functions.  Returns the project
        qualname, or None for anything external/unresolvable.
        """
        parts = dotted.split(".")
        table = self.imports.get(module, {})
        head = table.get(parts[0])
        if head is not None:
            expanded = ".".join([head, *parts[1:]])
        else:
            # A module-local definition referenced by bare name.
            expanded = f"{module}.{dotted}"
        for candidate in (expanded, dotted):
            if candidate in self.functions or candidate in self.classes:
                return candidate
            if candidate in self.modules:
                return candidate
        return None

    def class_of(self, qualname: str) -> ClassInfo | None:
        return self.classes.get(qualname)

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def resolve_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """``cls.name`` resolved through project-visible base classes."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            method = current.methods.get(name)
            if method is not None:
                return method
            for base in current.bases:
                resolved = self.resolve(current.module, base)
                if resolved is not None:
                    base_info = self.classes.get(resolved)
                    if base_info is not None:
                        stack.append(base_info)
        return None
