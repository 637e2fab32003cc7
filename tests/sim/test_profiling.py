"""Tests for the profiling pipeline that trains the predictor."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.interference.ground_truth import default_interference_model
from repro.model.training import mean_absolute_percentage_error
from repro.service.component import Component, ComponentClass
from repro.service.nutch import NutchConfig, build_nutch_service
from repro.sim.profiling import (
    ProfilingConfig,
    mixed_conditions,
    profile_component,
    train_predictor_for_service,
)
from repro.simcore.distributions import LogNormal
from repro.units import gb, mb, ms
from repro.workloads.batch import BatchJobSpec


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def _rep():
    return Component(
        name="searching-rep",
        cls=ComponentClass.SEARCHING,
        base_service=LogNormal(ms(6), 0.8),
    )


class TestConditions:
    def test_mixed_conditions_counts(self, rng):
        conds = mixed_conditions(30, rng, max_jobs=3)
        assert len(conds) == 30
        assert all(0 <= len(c) <= 3 for c in conds)
        assert any(len(c) == 0 for c in conds)  # idle-node condition

    def test_invalid_counts_rejected(self, rng):
        with pytest.raises(ExperimentError):
            mixed_conditions(0, rng)


class TestProfileComponent:
    def test_produces_training_pairs(self, rng):
        conds = mixed_conditions(10, rng)
        cfg = ProfilingConfig(window_s=30.0, repetitions=2)
        result = profile_component(
            _rep(), conds, default_interference_model(0.02), cfg, rng
        )
        assert len(result.training) == 10 * 2
        assert result.conditions_observed == 10
        assert result.scv_estimate == pytest.approx(0.8, rel=0.3)

    def test_per_type_training_matches_paper_accuracy(self, rng):
        """Fig. 5's setting: one co-runner type per campaign ("in each
        test, we trained the regression models") — Eq. 1 then predicts
        held-out sizes with a few percent error."""
        from repro.model.training import train_combined_model

        conds = [
            [BatchJobSpec.of("hadoop.wordcount", float(size))]
            for size in np.geomspace(mb(50), gb(4), 20)
        ]
        cfg = ProfilingConfig(window_s=60.0, repetitions=3)
        interference = default_interference_model(0.02)
        result = profile_component(_rep(), conds, interference, cfg, rng)
        train, test = result.training.split(0.7, rng)
        model, _ = train_combined_model(train)
        pred = model.predict(test.contention)
        mape = mean_absolute_percentage_error(pred, test.service_times)
        assert mape < 5.0

    def test_mixed_training_data_learnable(self, rng):
        """Pooled multi-job training (what the online scheduler uses) is
        coarser than Fig. 5's per-type campaigns — Eq. 1 averages four
        single-resource views, so job-type diversity adds spread — but
        must stay accurate enough to rank placements."""
        from repro.model.training import train_combined_model

        conds = mixed_conditions(40, rng)
        cfg = ProfilingConfig(window_s=60.0, repetitions=2)
        interference = default_interference_model(0.02)
        result = profile_component(_rep(), conds, interference, cfg, rng)
        train, test = result.training.split(0.75, rng)
        model, _ = train_combined_model(train)
        pred = model.predict(test.contention)
        mape = mean_absolute_percentage_error(pred, test.service_times)
        assert mape < 18.0

    def test_empty_conditions_rejected(self, rng):
        with pytest.raises(ExperimentError):
            profile_component(
                _rep(), [], default_interference_model(), ProfilingConfig(), rng
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ExperimentError):
            ProfilingConfig(window_s=0.0)
        with pytest.raises(ExperimentError):
            ProfilingConfig(repetitions=0)


class TestTrainPredictorForService:
    def test_one_model_per_class(self, rng):
        service = build_nutch_service(
            NutchConfig(n_search_groups=2, replicas_per_group=2)
        )
        predictor = train_predictor_for_service(
            service,
            default_interference_model(0.02),
            rng,
            config=ProfilingConfig(window_s=30.0, repetitions=1),
            n_mixed_conditions=15,
        )
        for cls in service.classes():
            u = np.array([[0.3, 10.0, 60.0, 20.0]])
            mean = predictor.predict_mean_service(cls, u)[0]
            assert mean > 0
            assert predictor.scv(cls) > 0

    def test_predictions_track_ground_truth_on_manifold(self, rng):
        """Probes drawn from realistic co-location mixes (the contention
        manifold the scheduler actually visits) must track ground truth
        well enough to rank placements."""
        service = build_nutch_service(
            NutchConfig(n_search_groups=2, replicas_per_group=2)
        )
        interference = default_interference_model(0.02)
        predictor = train_predictor_for_service(
            service,
            interference,
            rng,
            config=ProfilingConfig(window_s=60.0, repetitions=2),
            n_mixed_conditions=60,
        )
        rep = service.representative(ComponentClass.SEARCHING)
        probe_rng = np.random.default_rng(5)
        from repro.cluster.resources import ResourceVector

        truths, preds = [], []
        for condition in mixed_conditions(30, probe_rng):
            u = ResourceVector.sum(spec.demand for spec in condition)
            truths.append(interference.service_distribution(rep, u).mean)
            preds.append(
                predictor.predict_mean_service(rep.cls, u.as_array()[None, :])[0]
            )
        truths, preds = np.array(truths), np.array(preds)
        assert np.mean(np.abs(preds - truths) / truths) * 100 < 15.0
        # Ranking quality: predicted ordering correlates strongly.
        assert np.corrcoef(truths, preds)[0, 1] > 0.9
