"""Declared scalar/batch parity manifest with AST content hashes.

The repo's twin APIs (``add``/``add_batch``, ``observe``/``observe_batch``)
are pinned byte-identical by differential tests — but a test only fails when it
*runs*; nothing at review time says "you changed the scalar path, did you
look at the batch path?".  The manifest makes that contract a lockfile:

* each pair records a content hash of both twins' ASTs (location-free
  ``ast.dump``, leading docstring stripped — comments and docstrings
  don't count as behaviour);
* changing one twin without the other is an SL009 finding at the changed
  twin;
* changing both twins leaves a "re-pin the manifest" finding until
  ``python -m tools.sentinel_lint --write-parity`` records the new pair
  of hashes — so the re-pin shows up in the diff and gets reviewed.

The manifest lives at :data:`DEFAULT_PARITY_PATH`, next to
``baseline.json``.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass

__all__ = [
    "DEFAULT_PARITY_PATH",
    "ParityManifest",
    "ParityPair",
    "function_hash",
]

DEFAULT_PARITY_PATH = "tools/sentinel_lint/parity.json"


def function_hash(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    """Location-free content hash of one function's AST.

    A leading docstring is stripped before dumping so prose edits never
    count as behavioural drift; ``ast.dump`` already omits line/column
    attributes, so moving a function or editing comments is hash-neutral.
    """
    body = list(node.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    stripped = ast.FunctionDef(
        name=node.name,
        args=node.args,
        body=body or [ast.Pass()],
        decorator_list=node.decorator_list,
        returns=node.returns,
        type_comment=None,
    )
    return hashlib.sha256(ast.dump(stripped).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ParityPair:
    """One declared scalar/batch twin with its pinned content hashes."""

    name: str  #: short human label, e.g. ``extractor.add``
    scalar: str  #: scalar twin qualname
    batch: str  #: batch twin qualname
    scalar_hash: str
    batch_hash: str


class ParityManifest:
    """The set of declared twins, loaded from / saved to JSON."""

    def __init__(self, pairs: list[ParityPair]) -> None:
        self.pairs = pairs

    @classmethod
    def load(cls, path: str) -> "ParityManifest":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        pairs = [
            ParityPair(
                name=entry["name"],
                scalar=entry["scalar"],
                batch=entry["batch"],
                scalar_hash=entry["scalar_hash"],
                batch_hash=entry["batch_hash"],
            )
            for entry in data.get("pairs", [])
        ]
        return cls(pairs)

    def save(self, path: str) -> None:
        data = {
            "version": 1,
            "pairs": [
                {
                    "name": pair.name,
                    "scalar": pair.scalar,
                    "batch": pair.batch,
                    "scalar_hash": pair.scalar_hash,
                    "batch_hash": pair.batch_hash,
                }
                for pair in sorted(self.pairs, key=lambda p: p.name)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=False)
            handle.write("\n")

    def repinned(self, hashes: dict[str, str]) -> "ParityManifest":
        """A copy with every resolvable twin's hash refreshed."""
        pairs = [
            ParityPair(
                name=pair.name,
                scalar=pair.scalar,
                batch=pair.batch,
                scalar_hash=hashes.get(pair.scalar, pair.scalar_hash),
                batch_hash=hashes.get(pair.batch, pair.batch_hash),
            )
            for pair in self.pairs
        ]
        return ParityManifest(pairs)
