"""Smoke test: every script in ``examples/`` runs end to end."""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

#: Lines an example must print, beyond running clean.
EXPECTED = {
    "churn_and_failover": (
        "SC4 in view = False",
        "economic  : 6 completed, 0 aborted",
        "backup governor replicating",
        "now homed at: backup-broker",
        "SC2 registered at backup: True",
    ),
    "federation": (
        "shard map v1",
        "resolved notes.pdf",
        "crashing",
        "still resolves notes.pdf",
    ),
}


@pytest.mark.parametrize(
    "example", sorted(path.stem for path in EXAMPLES.glob("*.py"))
)
def test_example_runs(example, capsys, monkeypatch, tmp_path):
    path = EXAMPLES / f"{example}.py"
    # No command-line arguments (the example's defaults), and nothing
    # written into the checkout.
    monkeypatch.setattr(sys, "argv", [str(path)])
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    for line in EXPECTED.get(example, ()):
        assert line in out
