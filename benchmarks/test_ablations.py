"""Ablation benchmarks for the design choices DESIGN.md calls out.

* expansion to generalizations (Algorithm 1, line 1) vs. valid-only
  traversal;
* answer caching across thresholds vs. re-asking a fresh crowd;
* re-asking globally decided general assignments (Section 4.2 refinement)
  vs. skipping them.
"""

import pytest

from conftest import run_once
from repro.datasets import health
from repro.experiments import ablations


@pytest.mark.benchmark(group="ablations")
def test_expansion_ablation(benchmark, show):
    rows = run_once(
        benchmark,
        lambda: ablations.run_expansion_ablation(
            width=500, depth=7, msp_fraction=0.02, trials=3
        ),
    )
    show(ablations.render_expansion_ablation(rows))
    # DESIGN.md decision 1: walking the expanded space pays for its invalid
    # generalizations through inference, so in every trial it asks fewer
    # questions than the valid-only traversal and loses no valid MSP
    for row in rows:
        assert row["expanded_questions"] < row["valid_only_questions"], row
        assert row["expanded_valid_msps"] >= row["valid_only_msps"], row


@pytest.mark.benchmark(group="ablations")
def test_cache_ablation(benchmark, show):
    rows = run_once(
        benchmark,
        lambda: ablations.run_cache_ablation(
            health.build_dataset(), thresholds=(0.2, 0.3, 0.4), crowd_size=15
        ),
    )
    show(ablations.render_cache_ablation(rows, "self-treatment"))
    for row in rows:
        if row["threshold"] != 0.2:
            # cached replay consumes no new crowd effort and uses at most
            # as many answers as a fresh run would ask
            assert row["cached_questions"] <= row["fresh_questions"]


@pytest.mark.benchmark(group="ablations")
def test_decided_generals_ablation(benchmark, show):
    counts = run_once(
        benchmark,
        lambda: ablations.run_decided_generals_ablation(
            health.build_dataset(), crowd_size=15
        ),
    )
    show(
        f"questions — skip decided: {counts['skip decided']}, "
        f"re-ask decided: {counts['re-ask decided']}"
    )
    assert counts["skip decided"] <= counts["re-ask decided"]
