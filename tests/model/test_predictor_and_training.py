"""Tests for latency predictors and the training pipeline."""

import numpy as np
import pytest

from repro.cluster.resources import ResourceVector
from repro.errors import ModelError
from repro.interference.ground_truth import default_interference_model
from repro.model.combined import CombinedServiceTimeModel
from repro.model.matrix import MatrixInputs, PerformanceMatrix
from repro.model.predictor import OraclePredictor, TrainedPredictor
from repro.model.queueing import mg1_latency
from repro.model.training import (
    TrainingSet,
    error_buckets,
    mean_absolute_percentage_error,
    train_combined_model,
)
from repro.service.component import Component, ComponentClass
from repro.simcore.distributions import LogNormal
from repro.units import ms


def _searching_component():
    return Component(
        name="search-rep",
        cls=ComponentClass.SEARCHING,
        base_service=LogNormal(ms(6), 0.8),
    )


def _fitted_model(rng, n=400):
    intensity = rng.uniform(0, 1, n)
    u = np.column_stack(
        [0.8 * intensity, 25 * intensity, 180 * intensity, 60 * intensity]
    )
    x = ms(6) * (1 + 0.7 * intensity)
    return CombinedServiceTimeModel().fit(u, x)


class TestTrainedPredictor:
    def test_latency_combines_eq1_and_eq2(self):
        rng = np.random.default_rng(0)
        model = _fitted_model(rng)
        pred = TrainedPredictor(
            {ComponentClass.SEARCHING: model}, {ComponentClass.SEARCHING: 0.8}
        )
        u = np.array([[0.4, 12.5, 90.0, 30.0]])
        mean = pred.predict_mean_service(ComponentClass.SEARCHING, u)[0]
        # The decide path's latency for a component under contention u:
        # its node carries u on top of the component's own demand.
        demand = np.array([[0.01, 0.5, 2.0, 1.0]])
        pm = PerformanceMatrix(
            MatrixInputs(
                stage_of=[0],
                classes=[ComponentClass.SEARCHING],
                demands=demand,
                assignment=[0],
                node_totals=u + demand,
                arrival_rates=[50.0],
            ),
            pred,
        )
        assert pm.base_latencies[0] == pytest.approx(mg1_latency(mean, 0.8, 50.0))

    def test_unfitted_model_rejected(self):
        with pytest.raises(ModelError):
            TrainedPredictor(
                {ComponentClass.SEARCHING: CombinedServiceTimeModel()},
                {ComponentClass.SEARCHING: 1.0},
            )

    def test_missing_scv_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            TrainedPredictor({ComponentClass.SEARCHING: _fitted_model(rng)}, {})

    def test_unknown_class_rejected(self):
        rng = np.random.default_rng(0)
        pred = TrainedPredictor(
            {ComponentClass.SEARCHING: _fitted_model(rng)},
            {ComponentClass.SEARCHING: 1.0},
        )
        with pytest.raises(ModelError):
            pred.predict_mean_service(ComponentClass.SEGMENTING, np.zeros((1, 4)))

    def test_empty_models_rejected(self):
        with pytest.raises(ModelError):
            TrainedPredictor({}, {})

    def test_negative_scv_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            TrainedPredictor(
                {ComponentClass.SEARCHING: _fitted_model(rng)},
                {ComponentClass.SEARCHING: -1.0},
            )


class TestOraclePredictor:
    def test_matches_ground_truth_exactly(self):
        interference = default_interference_model(noise_sigma=0.0)
        comp = _searching_component()
        oracle = OraclePredictor(interference, {ComponentClass.SEARCHING: comp})
        u = ResourceVector(core=0.5, cache_mpki=20.0, disk_bw=100.0, net_bw=30.0)
        mean = oracle.predict_mean_service(
            ComponentClass.SEARCHING, u.as_array()[None, :]
        )[0]
        assert mean == pytest.approx(interference.service_distribution(comp, u).mean)

    def test_scv_is_base_scv(self):
        oracle = OraclePredictor(
            default_interference_model(0.0),
            {ComponentClass.SEARCHING: _searching_component()},
        )
        assert oracle.scv(ComponentClass.SEARCHING) == pytest.approx(0.8)

    def test_missing_representative_rejected(self):
        oracle = OraclePredictor(
            default_interference_model(0.0),
            {ComponentClass.SEARCHING: _searching_component()},
        )
        with pytest.raises(ModelError):
            oracle.predict_mean_service(ComponentClass.AGGREGATING, np.zeros((1, 4)))

    def test_empty_representatives_rejected(self):
        with pytest.raises(ModelError):
            OraclePredictor(default_interference_model(0.0), {})


class TestTrainingSet:
    def test_add_and_arrays(self):
        ts = TrainingSet()
        ts.add(ResourceVector(core=0.5), ms(6))
        ts.add(ResourceVector(core=0.7), ms(8))
        assert len(ts) == 2
        assert ts.contention.shape == (2, 4)
        np.testing.assert_allclose(ts.service_times, [ms(6), ms(8)])

    def test_scv(self):
        ts = TrainingSet()
        for x in (1.0, 2.0, 3.0):
            ts.add(ResourceVector(), x)
        expected = np.var([1.0, 2.0, 3.0]) / 4.0
        assert ts.scv == pytest.approx(expected)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ModelError):
            TrainingSet().add(ResourceVector(), 0.0)

    def test_empty_access_rejected(self):
        ts = TrainingSet()
        with pytest.raises(ModelError):
            ts.contention
        with pytest.raises(ModelError):
            ts.service_times

    def test_split_partitions(self):
        rng = np.random.default_rng(1)
        ts = TrainingSet()
        for i in range(100):
            ts.add(ResourceVector(core=i / 100), ms(5) + i * 1e-5)
        train, test = ts.split(0.8, rng)
        assert len(train) == 80 and len(test) == 20

    def test_split_bounds(self):
        rng = np.random.default_rng(1)
        ts = TrainingSet()
        ts.add(ResourceVector(), 1.0)
        with pytest.raises(ModelError):
            ts.split(0.5, rng)
        ts.add(ResourceVector(), 2.0)
        with pytest.raises(ModelError):
            ts.split(1.5, rng)

    def test_train_combined_model(self):
        rng = np.random.default_rng(3)
        ts = TrainingSet()
        for _ in range(200):
            z = rng.uniform(0, 1)
            ts.add(
                ResourceVector(core=0.8 * z, cache_mpki=20 * z, disk_bw=100 * z),
                ms(6) * (1 + 0.5 * z),
            )
        model, scv = train_combined_model(ts)
        assert model.is_fitted
        assert scv == pytest.approx(ts.scv)


class TestErrorMetrics:
    def test_mape(self):
        assert mean_absolute_percentage_error(
            [1.1, 0.9], [1.0, 1.0]
        ) == pytest.approx(10.0)

    def test_mape_validation(self):
        with pytest.raises(ModelError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])
        with pytest.raises(ModelError):
            mean_absolute_percentage_error([1.0], [0.0])

    def test_buckets_match_paper_convention(self):
        errors = [1.0, 2.0, 4.0, 6.0, 9.0]
        buckets = error_buckets(errors)
        assert buckets[3.0] == pytest.approx(0.4)
        assert buckets[5.0] == pytest.approx(0.6)
        assert buckets[8.0] == pytest.approx(0.8)

    def test_buckets_validation(self):
        with pytest.raises(ModelError):
            error_buckets([])
        with pytest.raises(ModelError):
            error_buckets([-1.0])
