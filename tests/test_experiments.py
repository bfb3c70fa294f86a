"""Smoke + trend tests for the experiment harnesses (small configurations)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.datasets import health
from repro.experiments import (
    ablations,
    distribution,
    multiplicities,
    run_domain,
    run_figure4f,
    run_figure5,
    shape,
)
from repro.experiments.figure4f import render_figure4f
from repro.experiments.figure5 import render_figure5
from repro.experiments.reporting import (
    average_ignoring_none,
    format_table,
    percentage_milestones,
)


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [(1, 2.5), ("x", "y")], title="T")
        assert "T" in text
        assert "2.50" in text

    def test_average_ignoring_none(self):
        assert average_ignoring_none([1.0, None, 3.0]) == 2.0
        assert average_ignoring_none([None]) is None

    def test_milestones(self):
        assert percentage_milestones()[-1] == 1.0


class TestFigure5Harness:
    @pytest.fixture(scope="class")
    def results(self):
        return run_figure5(
            msp_fractions=(0.02, 0.10),
            width=120,
            depth=5,
            trials=2,
            milestones=(0.2, 1.0),
        )

    def test_structure(self, results):
        assert set(results) == {0.02, 0.10}
        for per_algorithm in results.values():
            assert set(per_algorithm) == {"vertical", "horizontal", "naive"}

    def test_vertical_faster_than_horizontal_early(self, results):
        # the paper's headline: vertical returns the first answers sooner
        for fraction, per_algorithm in results.items():
            vertical = per_algorithm["vertical"][0.2]
            horizontal = per_algorithm["horizontal"][0.2]
            assert vertical is not None and horizontal is not None
            assert vertical <= horizontal * 1.1

    def test_naive_helped_by_dense_msps(self, results):
        # naive's relative cost at 100% shrinks as MSPs get denser
        sparse = results[0.02]["naive"][1.0] / results[0.02]["vertical"][1.0]
        dense = results[0.10]["naive"][1.0] / results[0.10]["vertical"][1.0]
        assert dense <= sparse * 1.5

    def test_render(self, results):
        text = render_figure5(results)
        assert "Figure 5" in text
        assert "vertical" in text


class TestFigure4fHarness:
    @pytest.fixture(scope="class")
    def results(self):
        return run_figure4f(width=120, depth=5, trials=2, milestones=(0.5, 1.0))

    def test_all_configurations_present(self, results):
        assert "100% closed" in results
        assert "100% special." in results

    def test_specialization_does_not_hurt(self, results):
        closed = results["100% closed"][1.0]
        special = results["100% special."][1.0]
        assert special is not None and closed is not None
        assert special <= closed * 1.1

    def test_pruning_does_not_hurt(self, results):
        closed = results["100% closed"][1.0]
        pruned = results["50% pruning"][1.0]
        assert pruned <= closed * 1.1

    def test_render(self, results):
        assert "Figure 4f" in render_figure4f(results)

    def test_independent_of_hash_seed(self):
        code = (
            "import json; from repro.experiments import run_figure4f; "
            "r = run_figure4f(width=120, depth=5, trials=2, milestones=(0.5, 1.0)); "
            "print(json.dumps({k: list(v.values()) for k, v in r.items()}))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(json.loads(run.stdout))
        assert outputs[0] == outputs[1]


class TestFigure4Harness:
    @pytest.fixture(scope="class")
    def domain_run(self):
        return run_domain(
            health.build_dataset(),
            thresholds=(0.2, 0.4),
            crowd_size=12,
            transactions=30,
            max_values_per_var=1,
            max_more_facts=0,
        )

    def test_rows_per_threshold(self, domain_run):
        assert [r.threshold for r in domain_run.rows] == [0.2, 0.4]

    def test_msps_decrease_with_threshold(self, domain_run):
        low, high = domain_run.rows
        assert high.msps <= low.msps

    def test_replay_uses_fewer_answers(self, domain_run):
        low, high = domain_run.rows
        assert high.questions <= low.questions

    def test_beats_baseline(self, domain_run):
        for row in domain_run.rows:
            assert 0 < row.baseline_percent < 100.0

    def test_pace_series_monotone(self, domain_run):
        series = domain_run.pace_series(fractions=(0.5, 1.0))
        for label, points in series.items():
            values = [q for _, q in points if q is not None]
            assert values == sorted(values), label

    def test_tables_render(self, domain_run):
        assert "Crowd statistics" in domain_run.crowd_stats_table()
        assert "Pace" in domain_run.pace_table()


class TestTextExperiments:
    def test_shape_sweep_smoke(self):
        results = shape.run_shape_sweep(
            widths=(60,), depths=(3, 4), msp_fraction=0.05, trials=1
        )
        assert len(results) == 2
        text = shape.render_shape_sweep(results)
        assert "width" in text

    def test_distribution_sweep_smoke(self):
        results = distribution.run_distribution_sweep(
            width=60, depth=3, msp_fraction=0.05, trials=1
        )
        assert len(results) == 6
        assert "placement" in distribution.render_distribution_sweep(results)

    def test_multiplicities_experiment(self):
        rows = multiplicities.run_multiplicities_experiment(
            msp_counts=(3,), max_set_sizes=(1, 2), foods=8, drinks=4
        )
        assert len(rows) == 2
        for row in rows:
            assert row["lazy_nodes"] < row["eager_nodes"]
        assert "lazy" in multiplicities.render_multiplicities(rows)

    def test_multiplicities_questions_track_msps_not_sizes(self):
        rows = multiplicities.run_multiplicities_experiment(
            msp_counts=(2, 6), max_set_sizes=(2,), foods=10, drinks=5
        )
        few, many = rows
        assert many["questions"] >= few["questions"]


class TestAblations:
    def test_expansion_ablation(self):
        rows = ablations.run_expansion_ablation(
            width=60, depth=4, msp_fraction=0.05, trials=1
        )
        assert rows
        text = ablations.render_expansion_ablation(rows)
        assert "expansion" in text

    def test_cache_ablation(self):
        rows = ablations.run_cache_ablation(
            health.build_dataset(), thresholds=(0.2, 0.4), crowd_size=10
        )
        higher = [r for r in rows if r["threshold"] == 0.4]
        assert higher
        assert higher[0]["cached_questions"] <= higher[0]["fresh_questions"]

    def test_decided_generals_ablation(self):
        counts = ablations.run_decided_generals_ablation(
            health.build_dataset(), crowd_size=10
        )
        assert counts["skip decided"] <= counts["re-ask decided"]
