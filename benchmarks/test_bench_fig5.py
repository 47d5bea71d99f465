"""Benchmark: regenerate Figure 5 (whole vs 4 vs 16 parts, 100 Mb)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import fig5_granularity

from benchmarks.conftest import PAPER_CONFIG, emit


def test_bench_fig5(benchmark, paper_config):
    result = benchmark.pedantic(
        fig5_granularity.run, args=(paper_config,), rounds=1, iterations=1
    )
    for peer in result.peers():
        assert (
            result.mean_seconds(peer, 1)
            > result.mean_seconds(peer, 4)
            > result.mean_seconds(peer, 16)
        ), peer
    assert 1.0 <= result.grand_mean_minutes(16) <= 3.0
    assert result.grand_mean_minutes(1) >= 5 * result.grand_mean_minutes(16)
    emit(
        "Figure 5 — 100 Mb: complete file vs 4 parts vs 16 parts "
        f"(16-part grand mean {result.grand_mean_minutes(16):.2f} min; "
        "paper: ~1.7 min)",
        result.table(),
    )


@pytest.mark.parametrize("seed", range(12))
def test_fig5_seed_sweep_returns_ordered(seed):
    # Whole-file transfers that exhaust their attempts are censored
    # samples: every seed returns, at the paper's 5 repetitions.
    config = dataclasses.replace(PAPER_CONFIG, seed=seed)
    result = fig5_granularity.run(config)
    whole, four, sixteen = (result.grand_mean_minutes(n) for n in (1, 4, 16))
    assert whole > four > sixteen, f"seed {seed}: {whole:.2f}/{four:.2f}/{sixteen:.2f}"
    # A censored count is reported for every cell, and each censored
    # cell is marked in the table.
    assert set(result.censored) == set(result.summaries)
    assert all(0 <= k <= config.repetitions for k in result.censored.values())
    marked = sum(1 for k in result.censored.values() if k)
    marked += sum(1 for g in result.granularities if result.censored_count(g))
    assert result.table().count(">=") == marked
