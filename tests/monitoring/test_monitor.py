"""Tests for the online monitor, sample windows, and arrival estimator."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineKind
from repro.cluster.resources import ResourceVector
from repro.errors import MonitoringError
from repro.monitoring.arrival import ArrivalRateEstimator
from repro.monitoring.monitor import MonitorConfig, OnlineMonitor
from repro.monitoring.samples import ContentionSample, SampleWindow
from repro.service.component import Component, ComponentClass
from repro.simcore.distributions import Exponential
from repro.simcore.engine import SimulationEngine
from repro.units import ms


class FakeJob:
    def __init__(self, name, **demand):
        self.name = name
        self.demand = ResourceVector(**demand)


def _component(name="c0"):
    return Component(
        name=name, cls=ComponentClass.SEARCHING, base_service=Exponential(ms(6))
    )


@pytest.fixture
def setup():
    cluster = Cluster.homogeneous(2)
    comp = _component()
    cluster.place(comp, "node-0")
    job = FakeJob("job", core=0.5, cache_mpki=10.0, disk_bw=80.0, net_bw=20.0)
    cluster.place(job, "node-0", MachineKind.BATCH)
    return cluster, comp


class TestSampleWindow:
    def test_mean_of_samples(self):
        w = SampleWindow()
        w.append(ContentionSample(0.0, ResourceVector(core=0.2)))
        w.append(ContentionSample(1.0, ResourceVector(core=0.4)))
        assert w.mean().core == pytest.approx(0.3)

    def test_cache_mean_uses_fresh_only(self):
        w = SampleWindow()
        w.append(ContentionSample(0.0, ResourceVector(cache_mpki=10.0), cache_valid=True))
        w.append(ContentionSample(1.0, ResourceVector(cache_mpki=99.0), cache_valid=False))
        assert w.mean().cache_mpki == pytest.approx(10.0)

    def test_out_of_order_rejected(self):
        w = SampleWindow()
        w.append(ContentionSample(5.0, ResourceVector.zero()))
        with pytest.raises(MonitoringError):
            w.append(ContentionSample(4.0, ResourceVector.zero()))

    def test_empty_window_errors(self):
        w = SampleWindow()
        with pytest.raises(MonitoringError):
            w.mean()
        with pytest.raises(MonitoringError):
            w.last()

    def test_clear(self):
        w = SampleWindow()
        w.append(ContentionSample(0.0, ResourceVector.zero()))
        w.clear()
        assert w.empty

    def test_last_fresh_cache(self):
        w = SampleWindow()
        assert w.last_fresh_cache() is None
        w.append(ContentionSample(0.0, ResourceVector(cache_mpki=7.0), cache_valid=True))
        w.append(ContentionSample(1.0, ResourceVector(cache_mpki=1.0), cache_valid=False))
        assert w.last_fresh_cache() == pytest.approx(7.0)


class TestMonitorConfig:
    def test_paper_cadences_default(self):
        cfg = MonitorConfig()
        assert cfg.system_period_s == 1.0  # §VI-A: once every second
        assert cfg.micro_period_s == 60.0  # once every minute

    def test_micro_faster_than_system_rejected(self):
        with pytest.raises(MonitoringError):
            MonitorConfig(system_period_s=10.0, micro_period_s=1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(MonitoringError):
            MonitorConfig(core_noise=-0.1)


class TestOneShotObservation:
    def test_observe_near_truth(self, setup):
        cluster, comp = setup
        monitor = OnlineMonitor(
            MonitorConfig(), cluster, [comp], np.random.default_rng(0)
        )
        truth = cluster.contention_for(comp)
        obs = np.array(
            [monitor.observe(comp).vector.as_array() for _ in range(2000)]
        )
        np.testing.assert_allclose(obs.mean(axis=0), truth.as_array(), rtol=0.02)

    def test_observe_window_reduces_noise(self, setup):
        cluster, comp = setup
        rng = np.random.default_rng(1)
        monitor = OnlineMonitor(MonitorConfig(), cluster, [comp], rng)
        one_shot = np.array(
            [monitor.observe(comp).vector.core for _ in range(500)]
        )
        windowed = np.array(
            [monitor.observe_window(comp, duration_s=100.0).core for _ in range(500)]
        )
        assert windowed.std() < one_shot.std() / 3

    def test_observe_window_bad_duration(self, setup):
        cluster, comp = setup
        monitor = OnlineMonitor(
            MonitorConfig(), cluster, [comp], np.random.default_rng(0)
        )
        with pytest.raises(MonitoringError):
            monitor.observe_window(comp, duration_s=0.0)

    def test_zero_noise_exact(self, setup):
        cluster, comp = setup
        cfg = MonitorConfig(core_noise=0.0, bw_noise=0.0, cache_noise=0.0)
        monitor = OnlineMonitor(cfg, cluster, [comp], np.random.default_rng(0))
        truth = cluster.contention_for(comp)
        assert monitor.observe(comp).vector == truth

    def test_no_components_rejected(self, setup):
        cluster, _ = setup
        with pytest.raises(MonitoringError):
            OnlineMonitor(MonitorConfig(), cluster, [], np.random.default_rng(0))


class TestEventDrivenSampling:
    def test_cadence_counts(self, setup):
        cluster, comp = setup
        engine = SimulationEngine()
        monitor = OnlineMonitor(
            MonitorConfig(), cluster, [comp], np.random.default_rng(0)
        )
        monitor.attach(engine)
        engine.run_until(120.0)
        window = monitor.windows[comp.name]
        # 120 system samples + 2 micro samples.
        assert len(window) == 122

    def test_window_mean_tracks_truth(self, setup):
        cluster, comp = setup
        engine = SimulationEngine()
        monitor = OnlineMonitor(
            MonitorConfig(), cluster, [comp], np.random.default_rng(3)
        )
        monitor.attach(engine)
        engine.run_until(300.0)
        est = monitor.window_mean(comp)
        truth = cluster.contention_for(comp)
        np.testing.assert_allclose(
            est.as_array(), truth.as_array(), rtol=0.05
        )

    def test_cache_carried_between_micro_samples(self, setup):
        cluster, comp = setup
        engine = SimulationEngine()
        monitor = OnlineMonitor(
            MonitorConfig(), cluster, [comp], np.random.default_rng(4)
        )
        monitor.attach(engine)
        engine.run_until(61.0)
        window = monitor.windows[comp.name]
        fresh = [s for s in window._samples if s.cache_valid]
        assert len(fresh) == 1  # only the t=60 micro sample

    def test_detach_stops_sampling(self, setup):
        cluster, comp = setup
        engine = SimulationEngine()
        monitor = OnlineMonitor(
            MonitorConfig(), cluster, [comp], np.random.default_rng(0)
        )
        monitor.attach(engine)
        engine.run_until(10.0)
        monitor.detach()
        n = monitor.samples_taken
        engine.run_until(100.0)
        assert monitor.samples_taken == n

    def test_reset_windows(self, setup):
        cluster, comp = setup
        engine = SimulationEngine()
        monitor = OnlineMonitor(
            MonitorConfig(), cluster, [comp], np.random.default_rng(0)
        )
        monitor.attach(engine)
        engine.run_until(10.0)
        monitor.reset_windows()
        with pytest.raises(MonitoringError):
            monitor.window_mean(comp)


class TestArrivalRateEstimator:
    def test_single_window(self):
        est = ArrivalRateEstimator(window_s=10.0, smoothing=1.0)
        assert est.record_count(500) == pytest.approx(50.0)

    def test_smoothing(self):
        est = ArrivalRateEstimator(window_s=1.0, smoothing=0.5)
        est.record_count(100)
        out = est.record_count(200)
        assert out == pytest.approx(150.0)

    def test_poisson_observation_concentrates(self):
        rng = np.random.default_rng(5)
        est = ArrivalRateEstimator(window_s=10.0, smoothing=1.0)
        rates = [
            est.record_count(int(rng.poisson(100.0 * 10.0)))
            for _ in range(300)
        ]
        assert np.mean(rates) == pytest.approx(100.0, rel=0.02)
        assert np.std(rates) == pytest.approx(np.sqrt(100.0 / 10.0), rel=0.3)

    def test_no_estimate_before_observation(self):
        est = ArrivalRateEstimator()
        assert not est.has_estimate
        with pytest.raises(MonitoringError):
            est.estimate

    def test_reset(self):
        est = ArrivalRateEstimator()
        est.record_count(10)
        est.reset()
        assert not est.has_estimate
        assert est.windows_observed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_s": 0.0},
            {"smoothing": 0.0},
            {"smoothing": 1.5},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(MonitoringError):
            ArrivalRateEstimator(**kwargs)

    def test_negative_count_rejected(self):
        with pytest.raises(MonitoringError):
            ArrivalRateEstimator().record_count(-1)


class TestSnapshot:
    """The monitor's frozen window views (the control plane's
    phase-boundary handoff): observations recorded after a snapshot
    must never appear in it."""

    def _monitor(self, setup):
        cluster, comp = setup
        return (
            OnlineMonitor(
                MonitorConfig(), cluster, [comp], np.random.default_rng(0)
            ),
            comp,
        )

    def test_snapshot_covers_every_component(self, setup):
        monitor, comp = self._monitor(setup)
        snap = monitor.snapshot()
        assert set(snap) == {comp.name}
        assert snap[comp.name].empty

    def test_post_snapshot_observe_does_not_mutate_snapshot(self, setup):
        monitor, comp = self._monitor(setup)
        monitor._sample_all(0.0, fresh_cache=True)
        snap = monitor.snapshot()
        view = snap[comp.name]
        assert len(view) == 1
        frozen_last = view.last()
        frozen_mean = view.mean().as_array().copy()
        # The live window keeps accumulating...
        monitor._sample_all(1.0, fresh_cache=False)
        monitor._sample_all(2.0, fresh_cache=True)
        assert len(monitor.windows[comp.name]) == 3
        # ...but the taken snapshot is frozen in time.
        assert len(view) == 1
        assert view.last() is frozen_last
        np.testing.assert_array_equal(view.mean().as_array(), frozen_mean)

    def test_snapshot_survives_window_reset(self, setup):
        monitor, comp = self._monitor(setup)
        monitor._sample_all(0.0, fresh_cache=True)
        view = monitor.snapshot()[comp.name]
        monitor.reset_windows()
        assert monitor.windows[comp.name].empty
        assert len(view) == 1

    def test_frozen_view_rejects_mutation(self, setup):
        monitor, comp = self._monitor(setup)
        monitor._sample_all(0.0, fresh_cache=True)
        view = monitor.snapshot()[comp.name]
        with pytest.raises(AttributeError):
            view.samples = ()
        assert not hasattr(view, "append")

    def test_empty_frozen_view_fails_loudly(self):
        from repro.monitoring.samples import FrozenSampleWindow

        view = FrozenSampleWindow(samples=())
        assert view.empty and len(view) == 0
        with pytest.raises(MonitoringError):
            view.mean()
        with pytest.raises(MonitoringError):
            view.last()
