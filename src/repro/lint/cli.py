"""Argument handling for ``python -m repro lint``.

Kept separate from :mod:`repro.cli` so the lint framework stays
importable (and testable) without dragging in the solver CLI; the
``repro`` CLI mounts :func:`add_arguments`/:func:`run` on its ``lint``
subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import LintError, checker_descriptions, run_lint


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to check (default: src)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the JSON report instead of text")
    parser.add_argument(
        "--rules", metavar="RULE[,RULE...]",
        help="run only these rules (default: all registered)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule, description in checker_descriptions().items():
            print(f"{rule:12s} {description}")
        return 0
    try:
        rules = ([r.strip() for r in args.rules.split(",") if r.strip()]
                 if args.rules else None)
        report = run_lint(args.paths, rules=rules)
    except LintError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checkers for the reproduction")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
