"""Command-line interface: ``python -m tools.sentinel_lint [paths...]``.

Exit codes: 0 — clean (baselined/suppressed findings do not fail the
run); 1 — at least one new finding; 2 — usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .baseline import DEFAULT_BASELINE_PATH, Baseline
from .registry import all_checkers
from .reporters import render_json, render_text
from .runner import run_paths

DEFAULT_PATHS = ["src", "tests", "benchmarks", "tools"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentinel-lint",
        description="Repo-native AST static analysis for the IoT Sentinel tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root that relative paths and checker scopes anchor to",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="output_format"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE_PATH} under --root, if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the JSON findings report to FILE (for CI artifacts)",
    )
    parser.add_argument(
        "--select", default=None, help="comma-separated codes to run (e.g. SL001,SL005)"
    )
    parser.add_argument(
        "--ignore", default=None, help="comma-separated codes to skip"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also print baselined findings"
    )
    parser.add_argument(
        "--list-checkers", action="store_true", help="list registered checkers and exit"
    )
    return parser


def _parse_codes(raw: str | None) -> set[str] | None:
    if raw is None:
        return None
    return {code.strip().upper() for code in raw.split(",") if code.strip()}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_checkers:
        for checker in all_checkers():
            print(f"{checker.code}  {checker.name:34s} {checker.description}")
        return 0

    root = os.path.abspath(args.root)
    paths = args.paths or DEFAULT_PATHS

    baseline_path = args.baseline or os.path.join(root, DEFAULT_BASELINE_PATH)
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        if os.path.isfile(baseline_path):
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, OSError) as exc:
                print(f"sentinel-lint: bad baseline: {exc}", file=sys.stderr)
                return 2

    try:
        result = run_paths(
            root,
            paths,
            baseline=baseline,
            select=_parse_codes(args.select),
            ignore=_parse_codes(args.ignore),
        )
    except FileNotFoundError as exc:
        print(f"sentinel-lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(result.findings).save(baseline_path)
        print(
            f"sentinel-lint: wrote {len(result.findings)} finding(s) to {baseline_path}"
        )
        return 0

    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(render_json(result))
            handle.write("\n")

    if args.output_format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
