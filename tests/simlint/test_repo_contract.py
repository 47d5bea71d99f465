"""The repo-wide static-analysis contract.

Locks in what the whole-program pass proved at adoption time:

* ``src/`` + ``tests/`` + ``benchmarks/`` + ``examples/`` are clean
  under the full rule pack (per-file SIM001–SIM007 and cross-module
  SIM010–SIM014) —
  every RNG in library code derives from the session tree, every
  published metric name is catalogued, every emitted trace event is
  on-schema with its required fields, every hand-rolled config
  serializer is complete;
* the committed baseline stays empty (debt-free) and stale-entry
  free;
* the regression fixes the adoption run produced stay fixed
  (``Finding`` round-trips completely through JSON — the SIM014
  finding the pass caught in simlint's own code).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs.metric_catalog import METRIC_CATALOG, METRICS
from repro.obs.trace_schema import TRACE_EVENTS, TRACE_SCHEMA
from repro.simlint.findings import Finding
from repro.simlint.project import lint_project

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_result(tmp_path_factory):
    cache = tmp_path_factory.mktemp("simlint_cache")
    result, stats = lint_project(
        ["src", "tests", "benchmarks", "examples"], root=REPO_ROOT,
        cache_dir=cache,
    )
    return result, stats


class TestRepoIsClean:
    def test_no_findings_under_full_rule_pack(self, repo_result):
        result, _ = repo_result
        assert result.findings == [], [
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in result.findings
        ]

    def test_whole_tree_was_actually_linted(self, repo_result):
        result, stats = repo_result
        assert stats.files > 150  # the tree, not a subset
        assert result.files == stats.files

    def test_every_suppression_carries_a_justification(self):
        # The acceptance bar: a bare `# simlint: disable=...` comment
        # with no `-- reason` tail is a review smell the tree must not
        # carry.  Only real COMMENT tokens count (docstrings may
        # *describe* the syntax).
        import io
        import tokenize

        from repro.simlint.engine import _SUPPRESS_RE

        offenders = []
        for path in sorted(REPO_ROOT.glob("src/**/*.py")):
            source = path.read_text(encoding="utf-8")
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(tok.string)
                if match is not None and "--" not in tok.string[match.end():]:
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{tok.start[0]}"
                    )
        assert offenders == []

    def test_committed_baseline_is_empty(self):
        import json

        payload = json.loads(
            (REPO_ROOT / "simlint-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["entries"] == []


class TestDeclaredContracts:
    def test_metric_catalog_is_sorted_and_duplicate_free(self):
        names = [spec.name for spec in METRICS]
        assert len(names) == len(set(names))
        assert len(METRIC_CATALOG) == len(METRICS)

    def test_metric_kinds_are_valid(self):
        assert {spec.kind for spec in METRICS} <= {
            "counter",
            "gauge",
            "histogram",
        }

    def test_trace_schema_is_duplicate_free_with_tuple_fields(self):
        names = [spec.name for spec in TRACE_EVENTS]
        assert len(names) == len(set(names))
        assert len(TRACE_SCHEMA) == len(TRACE_EVENTS)
        for spec in TRACE_EVENTS:
            assert isinstance(spec.required, tuple) and spec.required

    def test_ci_asserted_metrics_are_catalogued(self):
        # ci.yml smoke jobs assert on these names; a catalog that
        # dropped them would green-light breaking CI's own checks.
        for name in (
            "fault.episodes",
            "fault.recovery_s",
            "recovery.transfers_recovered",
            "recovery.recovered_mbit",
            "recovery.failovers",
            "selection.degraded",
            "swarm.parts_proven",
            "swarm.downloads_ok",
            "swarm.downloads_failed",
        ):
            assert name in METRIC_CATALOG, name


class TestFindingRoundtrip:
    """Regression for the real SIM014 catch: ``Finding.to_dict`` used
    to drop ``end_line``, so findings replayed from the JSON cache had
    shrunken suppression spans."""

    def test_to_dict_mentions_every_field(self):
        import dataclasses

        f = Finding(
            rule="SIM001",
            path="src/x.py",
            line=3,
            col=0,
            message="m",
            end_line=7,
        )
        assert set(f.to_dict()) == {
            field.name for field in dataclasses.fields(Finding)
        }

    def test_json_roundtrip_is_identity(self):
        import json

        f = Finding(
            rule="SIM010",
            path="src/x.py",
            line=3,
            col=4,
            message="m",
            end_line=9,
        )
        back = Finding.from_dict(json.loads(json.dumps(f.to_dict())))
        assert back == f
        assert back.end_line == 9  # end_line is compare=False: check it
