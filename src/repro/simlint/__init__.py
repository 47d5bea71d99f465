"""repro.simlint — AST-based determinism & simulation-safety linter.

The repo's headline guarantee — bit-for-bit same-seed reproducibility
of metrics JSON and event traces — is one stray ``time.time()``,
global ``random`` draw, or unordered-``set`` iteration away from
silently breaking.  This package enforces those invariants statically
(stdlib ``ast`` only, no dependencies):

* a per-file rule registry (:data:`repro.simlint.rules.RULES`,
  SIM001–SIM007),
* a whole-program rule pack
  (:data:`repro.simlint.project_rules.PROJECT_RULES`, SIM010–SIM014)
  over a cross-module :class:`~repro.simlint.project.ProjectIndex`
  with content-hash-keyed incremental caching and parallel indexing,
* inline ``# simlint: disable=SIM0xx -- reason`` suppressions,
* a committed baseline for grandfathered findings,
* text / JSON / GitHub-annotation reporters,
* a CLI: ``python -m repro.simlint src benchmarks tests examples``.

Programmatic use::

    from repro.simlint import lint_paths, lint_source, lint_project

    result = lint_source("import time\\nt = time.time()\\n")
    assert result.findings[0].rule == "SIM001"

    result, stats = lint_project(["src"], cache_dir=Path(".simlint_cache"))
"""

from repro.simlint.baseline import Baseline
from repro.simlint.engine import (
    LintError,
    LintResult,
    classify_scope,
    lint_paths,
    lint_source,
)
from repro.simlint.findings import Finding
from repro.simlint.project import (
    FileIndex,
    IndexStats,
    ProjectIndex,
    build_project_index,
    index_source,
    lint_project,
)
from repro.simlint.project_rules import PROJECT_RULES, PROJECT_RULES_BY_ID
from repro.simlint.rules import RULES, RULES_BY_ID

__all__ = [
    "Baseline",
    "FileIndex",
    "Finding",
    "IndexStats",
    "LintError",
    "LintResult",
    "PROJECT_RULES",
    "PROJECT_RULES_BY_ID",
    "ProjectIndex",
    "RULES",
    "RULES_BY_ID",
    "build_project_index",
    "classify_scope",
    "index_source",
    "lint_paths",
    "lint_project",
    "lint_source",
]
