"""Whole-program flow analysis for sentinel-lint.

The per-file checkers (SL001–SL006) see one AST at a time; the contracts
added since PR 4 — lock discipline around thread-shared state, exception
taxonomies crossing the gateway↔IoTSSP boundary, canonical observability
names — live *across* functions and modules.  This package supplies the
shared substrate the flow-aware checkers (SL007, SL008 and SL010) are
built on:

* :class:`~tools.sentinel_lint.flow.project.Project` — a project-wide
  module/symbol index over every scanned source file;
* :class:`~tools.sentinel_lint.flow.facts.FunctionFacts` — a light
  intraprocedural dataflow pass (call sites, ``self`` mutations, lock
  regions, raise/except structure, thread-spawn sites);
* :class:`~tools.sentinel_lint.flow.callgraph.CallGraph` — a
  conservative per-function call graph including
  ``ThreadPoolExecutor.submit`` / ``Thread(target=...)`` edges.

Everything is stdlib-``ast`` based and deterministic; the analyses are
built once per lint run and shared by every project checker.
"""

from __future__ import annotations

from .callgraph import CallGraph
from .facts import FunctionFacts, function_facts
from .project import FunctionInfo, Project

__all__ = [
    "CallGraph",
    "FunctionFacts",
    "function_facts",
    "FunctionInfo",
    "Project",
]
