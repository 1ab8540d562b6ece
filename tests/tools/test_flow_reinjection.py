"""Reinjection guards: the flow checkers catch this PR's bugs coming back.

Each test lints the *real* ``src`` tree with exactly one bug reintroduced
in memory — the unlocked completion-buffer write, an unlocked model
snapshot or corpus swap, an unlocked report count, the ad-hoc codec
``ValueError``, an unguarded boundary
call, an ad-hoc metric name — and asserts the matching checker fires.
The shipped tree itself must stay clean (also enforced by
``test_regression_guard``).
"""

import ast
from pathlib import Path

from tools.sentinel_lint import SourceFile
from tools.sentinel_lint.registry import get_checker
from tools.sentinel_lint.runner import check_project_sources, discover_files

REPO_ROOT = Path(__file__).resolve().parents[2]
MONITOR_PATH = "src/repro/gateway/monitor.py"
IDENTIFIER_PATH = "src/repro/core/identifier.py"
SERVICE_PATH = "src/repro/securityservice/service.py"
ICMP_PATH = "src/repro/packets/icmp.py"

_TEXTS: dict[str, str] = {}


def _real_text(rel_path: str) -> str:
    if rel_path not in _TEXTS:
        _TEXTS[rel_path] = (REPO_ROOT / rel_path).read_text(encoding="utf-8")
    return _TEXTS[rel_path]


def lint_src(code: str, mutations: dict | None = None, *, full_src: bool = True):
    """Lint the real src tree with ``mutations`` (path -> text) applied."""
    mutations = mutations or {}
    sources = [
        SourceFile(path=rel, text=mutations.get(rel, _real_text(rel)))
        for rel in discover_files(str(REPO_ROOT), ["src"])
    ]
    findings, _ = check_project_sources(
        sources, [get_checker(code)], root=str(REPO_ROOT), full_src=full_src
    )
    return findings


def inject_into_method(source: str, method: str, statement: str) -> str:
    """Insert a statement as the first line of a function body."""
    lines = source.splitlines(keepends=True)
    for i, line in enumerate(lines):
        stripped = line.lstrip()
        if stripped.startswith(f"def {method}("):
            indent = " " * (len(line) - len(stripped) + 4)
            lines.insert(i + 1, f"{indent}{statement}\n")
            return "".join(lines)
    raise AssertionError(f"method {method!r} not found")


class TestShippedTreeIsClean:
    def test_flow_checkers_find_nothing_in_src(self):
        for code in ("SL007", "SL008", "SL010"):
            assert lint_src(code) == [], f"{code} fired on the shipped tree"


class TestSL007Reinjection:
    def test_unlocked_completion_buffer_write_fires(self):
        mutated = inject_into_method(
            _real_text(MONITOR_PATH),
            "forget",
            "self._completed = list(self._completed)",
        )
        findings = lint_src("SL007", {MONITOR_PATH: mutated})
        assert [f.code for f in findings] == ["SL007"]
        assert "_completed" in findings[0].message
        assert "without holding the owning lock" in findings[0].message

    def test_unlocked_snapshot_swap_fires(self):
        mutated = inject_into_method(
            _real_text(IDENTIFIER_PATH), "adopt", "self._snapshot = snapshot"
        )
        findings = lint_src("SL007", {IDENTIFIER_PATH: mutated})
        assert [f.code for f in findings] == ["SL007"]
        assert "_snapshot" in findings[0].message
        assert "without holding the owning lock" in findings[0].message

    def test_unlocked_corpus_swap_fires(self):
        mutated = inject_into_method(
            _real_text(IDENTIFIER_PATH), "remove_type", "self._corpus = self._corpus.copy()"
        )
        findings = lint_src("SL007", {IDENTIFIER_PATH: mutated})
        assert [f.code for f in findings] == ["SL007"]
        assert "_corpus" in findings[0].message
        assert "without holding the owning lock" in findings[0].message

    def test_unlocked_report_count_fires(self):
        mutated = inject_into_method(
            _real_text(SERVICE_PATH), "directives_for", "self.reports_handled += len(labels)"
        )
        findings = lint_src("SL007", {SERVICE_PATH: mutated})
        assert [f.code for f in findings] == ["SL007"]
        assert "reports_handled" in findings[0].message
        assert "without holding the owning lock" in findings[0].message


class TestSL008Reinjection:
    def test_adhoc_valueerror_in_codec_fires(self):
        mutated = inject_into_method(
            _real_text(ICMP_PATH),
            "neighbor_solicitation",
            "raise ValueError('reinjected')",
        )
        findings = lint_src("SL008", {ICMP_PATH: mutated})
        assert [f.code for f in findings] == ["SL008"]
        assert "raises ValueError" in findings[0].message

    def test_unguarded_boundary_call_in_public_entry_fires(self):
        mutated = inject_into_method(
            _real_text(MONITOR_PATH),
            "observe",
            "self.transport.submit(packet)",
        )
        findings = lint_src("SL008", {MONITOR_PATH: mutated})
        assert [f.code for f in findings] == ["SL008"]
        assert "transport fault can escape" in findings[0].message


class TestSL010Reinjection:
    def test_adhoc_metric_name_fires(self):
        mutated = inject_into_method(
            _real_text(MONITOR_PATH),
            "observe",
            "obs_counter('adhoc_probe_total').inc()",
        )
        findings = lint_src("SL010", {MONITOR_PATH: mutated})
        assert [f.code for f in findings] == ["SL010"]
        assert "'adhoc_probe_total'" in findings[0].message


class TestTypedLayersAnnotationComplete:
    """Local stand-in for the CI mypy gate (mypy is not vendored here).

    ``pyproject.toml`` turns on ``disallow_untyped_defs`` /
    ``disallow_incomplete_defs`` for ``repro.core``, ``repro.ml`` and
    ``repro.packets``; this asserts the property those flags enforce so a
    regression is caught before CI.
    """

    TYPED_DIRS = ("src/repro/core", "src/repro/ml", "src/repro/packets")

    def test_every_def_is_fully_annotated(self):
        gaps = []
        for typed_dir in self.TYPED_DIRS:
            for path in sorted((REPO_ROOT / typed_dir).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(tree):
                    if not isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    where = f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}"
                    args = node.args
                    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                    if args.vararg is not None:
                        params.append(args.vararg)
                    if args.kwarg is not None:
                        params.append(args.kwarg)
                    for param in params:
                        if param.arg in ("self", "cls"):
                            continue
                        if param.annotation is None:
                            gaps.append(f"{where}: parameter {param.arg!r} untyped")
                    if node.returns is None:
                        gaps.append(f"{where}: missing return annotation")
        assert gaps == [], "\n".join(gaps)
