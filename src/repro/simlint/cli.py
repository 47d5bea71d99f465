"""``python -m repro.simlint`` — the command-line front end.

Exit codes::

    0   no unsuppressed, un-baselined findings
    1   new findings (the CI-gating outcome), or stale baseline
        entries under ``--fail-on-expired``
    2   usage error, unknown rule, unreadable/unparsable input

Typical invocations::

    python -m repro.simlint src benchmarks tests examples
    python -m repro.simlint src --format github          # CI annotations
    python -m repro.simlint src --select SIM011          # one rule
    python -m repro.simlint src --changed-only --stats   # warm incremental
    python -m repro.simlint src --update-baseline        # adopt findings
    python -m repro.simlint src --prune-baseline         # drop stale entries
    python -m repro.simlint --list-rules

The default run is the two-phase whole-program analysis: per-file
rules (SIM001–SIM007, served from the content-hash cache under
``.simlint_cache/`` when unchanged) plus the cross-module pack
(SIM010–SIM014) over a freshly aggregated
:class:`~repro.simlint.project.ProjectIndex`.  ``--changed-only``
narrows the per-file *report* to files whose content hash missed the
cache — the index is always rebuilt over everything, so cross-module
rules never see a stale world.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.simlint.baseline import Baseline
from repro.simlint.engine import LintError
from repro.simlint.project import CACHE_DIR_NAME, lint_project
from repro.simlint.project_rules import PROJECT_RULES
from repro.simlint.reporters import REPORTERS
from repro.simlint.rules import RULES

__all__ = ["main", "build_parser"]

DEFAULT_BASELINE = "simlint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simlint",
        description=(
            "AST-based determinism & simulation-safety linter for the "
            "repro codebase (per-file + whole-program rules)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help=f"baseline file of grandfathered findings "
        f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="remove baseline entries the current run no longer "
        "produces, write the shrunk file, and exit 0",
    )
    parser.add_argument(
        "--fail-on-expired",
        action="store_true",
        help="exit 1 if the baseline contains stale entries "
        "(CI hygiene: a fixed finding must also leave the baseline)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="repository root for relative paths (default: cwd)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="report per-file findings only for files whose content "
        "hash missed the cache (the cross-module index still covers "
        "every file)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print files/s, cache hit rate and per-rule hit counts",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=f"per-file index/finding cache location "
        f"(default: <root>/{CACHE_DIR_NAME})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file cache (index everything fresh)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes for per-file indexing "
        "(default: REPRO_PARALLEL env, else serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help="skip the cross-module rule pack (per-file rules only)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in (*RULES, *PROJECT_RULES):
        scopes = ",".join(sorted(rule.scopes))
        lines.append(f"{rule.id}  {rule.title}  [scopes: {scopes}]")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def _split_rules(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _emit(text: str) -> None:
    """Print to stdout, tolerating a closed pipe (``... | head``)."""
    try:
        print(text)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass


def _render_stats(stats, findings, elapsed: float) -> str:
    """The ``--stats`` block: throughput, cache behaviour, rule hits."""
    rate = stats.files / elapsed if elapsed > 0 else 0.0
    lines = [
        f"simlint stats: {stats.files} file(s) in {elapsed:.2f}s "
        f"({rate:.0f} files/s)",
        f"  cache: {stats.cache_hits} hit(s), {stats.cache_misses} "
        f"miss(es) ({stats.hit_rate:.0%} hit rate)",
    ]
    hits: dict = {}
    for f in findings:
        hits[f.rule] = hits.get(f.rule, 0) + 1
    if hits:
        counts = ", ".join(f"{r}={n}" for r, n in sorted(hits.items()))
        lines.append(f"  rule hits: {counts}")
    else:
        lines.append("  rule hits: none")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _emit(_list_rules())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "python -m repro.simlint: error: no paths given "
            "(try: src benchmarks tests)",
            file=sys.stderr,
        )
        return 2

    root = Path(args.root).resolve() if args.root else Path.cwd()
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir:
        cache_dir = Path(args.cache_dir)
    else:
        cache_dir = root / CACHE_DIR_NAME

    started = time.perf_counter()  # simlint: disable=SIM001 -- measured lint wall-time for --stats, not simulated time
    try:
        result, stats = lint_project(
            args.paths,
            root=root,
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
            cache_dir=cache_dir,
            workers=args.jobs,
            changed_only=args.changed_only,
            project_rules=not args.no_project,
        )
    except LintError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started  # simlint: disable=SIM001 -- measured lint wall-time for --stats, not simulated time

    baseline_path = root / args.baseline
    if args.no_baseline:
        baseline = Baseline({})
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"simlint: error: {exc}", file=sys.stderr)
            return 2

    if args.update_baseline:
        Baseline.write(baseline_path, result.findings)
        _emit(
            f"simlint: baseline updated with {len(result.findings)} "
            f"finding(s) at {baseline_path}"
        )
        return 0

    if args.prune_baseline:
        removed = baseline.prune(result.findings)
        baseline.save(baseline_path)
        _emit(
            f"simlint: pruned {len(removed)} stale baseline entr(ies) "
            f"at {baseline_path}"
        )
        for key in removed:
            _emit(f"  removed {key}")
        return 0

    new, baselined = baseline.split(result.findings)
    expired = baseline.expired(result.findings)
    reporter = REPORTERS[args.format]
    _emit(reporter(new, baselined, result.suppressed, expired, result.files))
    if args.stats:
        _emit(_render_stats(stats, result.findings, elapsed))
    if new:
        return 1
    if args.fail_on_expired and expired:
        print(
            f"simlint: error: {len(expired)} stale baseline entr(ies) — "
            f"run --prune-baseline and commit the shrunk file",
            file=sys.stderr,
        )
        return 1
    return 0
