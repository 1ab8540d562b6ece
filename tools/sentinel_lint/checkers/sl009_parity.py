"""SL009: scalar/batch twin APIs must change together.

The repo's stage-0 batch paths (``add_batch``, ``observe_batch``) are
pinned byte-identical to their per-packet scalar twins by differential
tests — but those only fail at
test time.  This checker makes the coupling visible at *lint* time via
``tools/sentinel_lint/parity.json``, a lockfile of AST content hashes
for every declared twin pair:

* one twin's hash drifting while the other stays pinned → finding at
  the changed twin ("you touched the scalar path; review the batch
  path");
* both hashes drifting → finding asking for an explicit re-pin with
  ``--write-parity``, so the manifest update shows up in the diff;
* a twin disappearing from the tree → finding (full-``src`` runs only);
* the twins disagreeing on how they spell a fingerprint dimension —
  one using a ``core/constants.py`` name, the other the bare literal —
  → finding on both.

To extend: add the pair to the manifest with empty hashes and run
``python -m tools.sentinel_lint --write-parity``.
"""

from __future__ import annotations

import ast
import os

from ..config import DIMENSION_CONSTANT_NAMES, DIMENSION_LITERALS
from ..findings import Finding
from ..flow.parity import DEFAULT_PARITY_PATH, ParityManifest, function_hash
from ..flow.project import FunctionInfo, Project
from ..registry import register
from .base import ProjectChecker

#: literal value -> constant name (from the SL004 policy table).
_LITERAL_TO_NAME = {value: name for value, (name, _) in DIMENSION_LITERALS.items()}
_NAME_TO_LITERAL = {name: value for value, name in _LITERAL_TO_NAME.items()}


def _dimension_usage(node: ast.AST) -> tuple[set[str], set[str]]:
    """(constant names used, constant names used *as bare literals*)."""
    names: set[str] = set()
    literals: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in DIMENSION_CONSTANT_NAMES:
            names.add(child.id)
        elif (
            isinstance(child, ast.Attribute)
            and child.attr in DIMENSION_CONSTANT_NAMES
        ):
            names.add(child.attr)
        elif (
            isinstance(child, ast.Constant)
            and type(child.value) is int
            and child.value in _LITERAL_TO_NAME
        ):
            literals.add(_LITERAL_TO_NAME[child.value])
    return names, literals


@register
class ScalarBatchParityChecker(ProjectChecker):
    code = "SL009"
    name = "scalar-batch-parity"
    description = (
        "declared scalar/batch twins must change together (parity.json "
        "lockfile) and spell fingerprint dimensions the same way"
    )

    #: Overridable for tests; relative to the project root.
    manifest_path = DEFAULT_PARITY_PATH

    def check_project(self, project: Project) -> list[Finding]:
        path = os.path.join(project.root, self.manifest_path)
        if not os.path.exists(path):
            return []  # no manifest declared (e.g. fixture projects)
        manifest = ParityManifest.load(path)
        findings: list[Finding] = []
        for pair in manifest.pairs:
            scalar = project.function(pair.scalar)
            batch = project.function(pair.batch)
            if scalar is None or batch is None:
                if project.full_src:
                    missing = pair.scalar if scalar is None else pair.batch
                    anchor = batch or scalar
                    if anchor is not None:
                        findings.append(
                            self.finding(
                                anchor.src,
                                anchor.node,
                                f"parity pair {pair.name!r}: twin {missing} is "
                                "missing from the tree — update parity.json or "
                                "restore the function",
                            )
                        )
                continue
            findings.extend(self._check_drift(pair, scalar, batch))
            findings.extend(self._check_dimensions(pair, scalar, batch))
        return findings

    def _check_drift(
        self, pair, scalar: FunctionInfo, batch: FunctionInfo
    ) -> list[Finding]:
        scalar_drift = function_hash(scalar.node) != pair.scalar_hash
        batch_drift = function_hash(batch.node) != pair.batch_hash
        if scalar_drift and batch_drift:
            return [
                self.finding(
                    scalar.src,
                    scalar.node,
                    f"parity pair {pair.name!r}: both twins changed — confirm "
                    "the differential tests still pass, then re-pin with "
                    "`python -m tools.sentinel_lint --write-parity`",
                )
            ]
        if scalar_drift or batch_drift:
            changed, frozen = (
                (scalar, batch) if scalar_drift else (batch, scalar)
            )
            return [
                self.finding(
                    changed.src,
                    changed.node,
                    f"parity pair {pair.name!r}: {changed.name} changed but its "
                    f"twin {frozen.name} did not — apply the matching change "
                    "(or re-pin with --write-parity if the drift is "
                    "deliberate and differential-tested)",
                )
            ]
        return []

    def _check_dimensions(
        self, pair, scalar: FunctionInfo, batch: FunctionInfo
    ) -> list[Finding]:
        scalar_names, scalar_literals = _dimension_usage(scalar.node)
        batch_names, batch_literals = _dimension_usage(batch.node)
        findings: list[Finding] = []
        for name in sorted(
            (scalar_names & batch_literals) | (batch_names & scalar_literals)
        ):
            by_name = scalar if name in scalar_names else batch
            by_literal = batch if by_name is scalar else scalar
            findings.append(
                self.finding(
                    by_literal.src,
                    by_literal.node,
                    f"parity pair {pair.name!r}: {by_name.name} uses constant "
                    f"{name} but {by_literal.name} spells the bare literal "
                    f"{_NAME_TO_LITERAL[name]} — use the constant on both "
                    "paths",
                )
            )
        return findings
