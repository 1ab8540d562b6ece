"""File discovery and checker orchestration."""

from __future__ import annotations

import os

from .baseline import Baseline
from .checkers.base import Checker
from .findings import PARSE_ERROR_CODE, Finding
from .registry import all_checkers
from .reporters import RunResult
from .source import SourceFile
from .suppressions import Suppressions

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


def discover_files(root: str, paths: list[str]) -> list[str]:
    """Repo-relative paths of every ``.py`` file under the given paths.

    ``paths`` are interpreted relative to ``root`` (absolute paths are
    re-anchored).  Returns a sorted, de-duplicated list; a path that does
    not exist raises ``FileNotFoundError`` — a misspelled CI target should
    fail loudly, not silently lint nothing.
    """
    found: set[str] = set()
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            found.add(os.path.relpath(absolute, root).replace(os.sep, "/"))
        elif os.path.isdir(absolute):
            for dirpath, dirnames, filenames in os.walk(absolute):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        full = os.path.join(dirpath, filename)
                        found.add(os.path.relpath(full, root).replace(os.sep, "/"))
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
    return sorted(found)


def check_source(
    src: SourceFile, checkers: list[Checker] | None = None
) -> tuple[list[Finding], int]:
    """Run checkers over one (possibly in-memory) source.

    Returns ``(findings, suppressed_count)`` with inline suppressions
    already applied.  A file that fails to parse yields a single
    :data:`~tools.sentinel_lint.findings.PARSE_ERROR_CODE` finding.
    """
    if checkers is None:
        checkers = all_checkers()
    applicable = [checker for checker in checkers if checker.applies_to(src.path)]
    if not applicable:
        return [], 0
    try:
        src.tree  # noqa: B018 - force the parse once, up front
    except SyntaxError as exc:
        return [
            Finding(
                path=src.path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            )
        ], 0
    raw: list[Finding] = []
    for checker in applicable:
        raw.extend(checker.check(src))
    suppressions = Suppressions.from_source(src)
    kept = [f for f in raw if not suppressions.is_suppressed(f.code, f.line)]
    return kept, len(raw) - len(kept)


def _covers_src(root: str, paths: list[str]) -> bool:
    """Do the requested paths include the whole ``src`` tree?

    Project checkers that reason about *absence* (unused obs names) only
    fire when the index is known complete.
    """
    src_dir = os.path.abspath(os.path.join(root, "src"))
    for path in paths:
        absolute = os.path.abspath(
            path if os.path.isabs(path) else os.path.join(root, path)
        )
        if src_dir == absolute or src_dir.startswith(absolute + os.sep):
            return True
    return False


def check_project_sources(
    sources: list[SourceFile],
    checkers: list[Checker],
    *,
    root: str = ".",
    full_src: bool = False,
) -> tuple[list[Finding], int]:
    """Run project checkers over a set of (possibly in-memory) sources.

    Returns ``(findings, suppressed_count)`` with inline suppressions
    applied per finding path.  Used by the runner and, directly, by the
    flow-checker tests (which build fixture projects in memory).
    """
    from .checkers.base import ProjectChecker
    from .flow.project import Project

    project = Project(sources, full_src=full_src, root=root)
    raw: list[Finding] = []
    for checker in checkers:
        if isinstance(checker, ProjectChecker):
            raw.extend(checker.check_project(project))
    suppressions: dict[str, Suppressions] = {}
    kept: list[Finding] = []
    for finding in raw:
        src = project.sources.get(finding.path)
        if src is not None and finding.path not in suppressions:
            suppressions[finding.path] = Suppressions.from_source(src)
        active = suppressions.get(finding.path)
        if active is None or not active.is_suppressed(finding.code, finding.line):
            kept.append(finding)
    return kept, len(raw) - len(kept)


def run_paths(
    root: str,
    paths: list[str],
    *,
    baseline: Baseline | None = None,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> RunResult:
    """Lint every file under ``paths`` and partition against the baseline."""
    from .checkers.base import ProjectChecker

    checkers = all_checkers()
    if select:
        checkers = [c for c in checkers if c.code in select]
    if ignore:
        checkers = [c for c in checkers if c.code not in ignore]
    file_checkers = [c for c in checkers if not isinstance(c, ProjectChecker)]
    project_checkers = [c for c in checkers if isinstance(c, ProjectChecker)]
    result = RunResult()
    collected: list[Finding] = []
    sources: list[SourceFile] = []
    for rel_path in discover_files(root, paths):
        src = SourceFile.from_path(rel_path, os.path.join(root, rel_path))
        sources.append(src)
        findings, suppressed = check_source(src, file_checkers)
        collected.extend(findings)
        result.suppressed_count += suppressed
        result.files_scanned += 1
    if project_checkers:
        findings, suppressed = check_project_sources(
            sources,
            project_checkers,
            root=root,
            full_src=_covers_src(root, paths),
        )
        collected.extend(findings)
        result.suppressed_count += suppressed
    if baseline is None:
        result.findings = sorted(collected)
    else:
        result.findings, result.baselined = baseline.split(collected)
    return result
