"""Tests for the Fig. 5 experiment driver (paper-shape checks)."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.fig5 import (
    HADOOP_WORKLOADS,
    PAPER_FIG5,
    SPARK_WORKLOADS,
    Fig5Config,
    _conditions_for,
    run_fig5,
)
from repro.units import gb, mb


@pytest.fixture(scope="module")
def result():
    # Slightly reduced grid for test speed; same structure.
    return run_fig5(Fig5Config(n_hadoop_sizes=10, n_spark_sizes=6, seed=1))


class TestStructure:
    def test_case_count(self, result):
        assert len(result.cases) == 3 * 10 + 3 * 6

    def test_all_six_workloads_covered(self, result):
        assert len(result.per_workload_mape()) == 6

    def test_errors_positive_finite(self, result):
        assert np.all(np.isfinite(result.errors))
        assert np.all(result.errors >= 0)


class TestPaperShape:
    def test_mean_error_near_paper(self, result):
        # Paper: 2.68 %.  Accept the same order of magnitude.
        assert result.mape < 2 * PAPER_FIG5["mape"]

    def test_bucket_fractions_at_least_paper_like(self, result):
        buckets = result.buckets
        assert buckets[3.0] >= 0.5
        assert buckets[5.0] >= 0.75
        assert buckets[8.0] >= 0.9

    def test_buckets_monotone(self, result):
        b = result.buckets
        assert b[3.0] <= b[5.0] <= b[8.0]

    def test_render_compares_to_paper(self, result):
        out = result.render()
        assert "2.68" in out  # paper number shown alongside
        assert "hadoop.wordcount" in out


class TestConfig:
    def test_full_grid_is_paper_grid(self):
        cfg = Fig5Config()
        assert cfg.n_hadoop_sizes == 20 and cfg.n_spark_sizes == 10

    def test_paper_grid_shape(self):
        conds = {
            w: _conditions_for(w, Fig5Config())
            for w in HADOOP_WORKLOADS + SPARK_WORKLOADS
        }
        # 3 Hadoop workloads x 20 sizes + 3 Spark x 10 sizes.
        assert sum(len(specs) for specs in conds.values()) == 3 * 20 + 3 * 10
        for w, specs in conds.items():
            assert all(spec.profile.name == w for spec in specs)

    def test_paper_size_ranges(self):
        def sizes(workloads):
            return [
                spec.input_mb
                for w in workloads
                for spec in _conditions_for(w, Fig5Config())
            ]

        hadoop, spark = sizes(HADOOP_WORKLOADS), sizes(SPARK_WORKLOADS)
        assert min(hadoop) == pytest.approx(mb(50))
        assert max(hadoop) == pytest.approx(gb(4))
        assert min(spark) == pytest.approx(mb(200))
        assert max(spark) == pytest.approx(gb(7))

    def test_invalid_config_rejected(self):
        with pytest.raises(ExperimentError):
            Fig5Config(n_hadoop_sizes=1)
        with pytest.raises(ExperimentError):
            Fig5Config(train_windows=0)

    def test_seed_changes_cases(self):
        a = run_fig5(Fig5Config(n_hadoop_sizes=3, n_spark_sizes=2, seed=1))
        b = run_fig5(Fig5Config(n_hadoop_sizes=3, n_spark_sizes=2, seed=2))
        assert a.mape != b.mape
