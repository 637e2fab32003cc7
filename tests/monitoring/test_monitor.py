"""Tests for the online monitor's windowed readings."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineKind
from repro.cluster.resources import ResourceVector
from repro.errors import MonitoringError
from repro.monitoring.monitor import MonitorConfig, OnlineMonitor
from repro.service.component import Component, ComponentClass
from repro.simcore.distributions import Exponential
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


class TestMonitorConfig:
    def test_paper_cadences_default(self):
        cfg = MonitorConfig()
        assert cfg.system_period_s == 1.0  # §VI-A: once every second
        assert cfg.micro_period_s == 60.0  # once every minute

    def test_micro_faster_than_system_rejected(self):
        with pytest.raises(MonitoringError):
            MonitorConfig(system_period_s=10.0, micro_period_s=1.0)

    @pytest.mark.parametrize("name", ["core_noise", "bw_noise", "cache_noise"])
    def test_negative_noise_rejected(self, name):
        with pytest.raises(MonitoringError, match=name):
            MonitorConfig(**{name: -0.1})


class TestOneShotObservation:
    def test_observe_near_truth(self, setup):
        # A one-second window is a single sample at each cadence.
        cluster, comp = setup
        monitor = OnlineMonitor(MonitorConfig(), cluster, np.random.default_rng(0))
        truth = cluster.contention_for(comp)
        obs = np.array(
            [
                monitor.observe_window(comp, duration_s=1.0).as_array()
                for _ in range(2000)
            ]
        )
        np.testing.assert_allclose(obs.mean(axis=0), truth.as_array(), rtol=0.02)

    def test_observe_window_reduces_noise(self, setup):
        cluster, comp = setup
        rng = np.random.default_rng(1)
        monitor = OnlineMonitor(MonitorConfig(), cluster, rng)
        one_shot = np.array(
            [monitor.observe_window(comp, duration_s=1.0).core for _ in range(500)]
        )
        windowed = np.array(
            [monitor.observe_window(comp, duration_s=100.0).core for _ in range(500)]
        )
        assert windowed.std() < one_shot.std() / 3

    def test_observe_window_bad_duration(self, setup):
        cluster, comp = setup
        monitor = OnlineMonitor(MonitorConfig(), cluster, np.random.default_rng(0))
        with pytest.raises(MonitoringError):
            monitor.observe_window(comp, duration_s=0.0)

    def test_zero_noise_exact(self, setup):
        cluster, comp = setup
        cfg = MonitorConfig(core_noise=0.0, bw_noise=0.0, cache_noise=0.0)
        monitor = OnlineMonitor(cfg, cluster, np.random.default_rng(0))
        truth = cluster.contention_for(comp)
        assert monitor.observe_window(comp, duration_s=10.0) == truth


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"system_period_s": 0.0},
            {"system_period_s": -1.0},
            {"micro_period_s": 0.0},
        ],
        ids=["zero-system", "negative-system", "zero-micro"],
    )
    def test_non_positive_period_rejected(self, kwargs):
        with pytest.raises(MonitoringError, match="periods must be positive"):
            MonitorConfig(**kwargs)


class TestWindowNoise:
    """Each channel's noise shrinks with the samples its cadence takes."""

    @pytest.mark.parametrize(
        "duration_s, n_sys, n_micro",
        [(1.0, 1, 1), (30.0, 30, 1), (60.0, 60, 1), (600.0, 600, 10)],
    )
    def test_relative_noise_follows_each_cadence(
        self, setup, duration_s, n_sys, n_micro
    ):
        cluster, comp = setup
        cfg = MonitorConfig()
        monitor = OnlineMonitor(cfg, cluster, np.random.default_rng(3))
        truth = cluster.contention_for(comp).as_array()
        obs = np.array(
            [
                monitor.observe_window(comp, duration_s).as_array()
                for _ in range(4000)
            ]
        )
        rel_std = (obs / truth).std(axis=0)
        expected = [
            cfg.core_noise / np.sqrt(n_sys),
            cfg.cache_noise / np.sqrt(n_micro),
            cfg.bw_noise / np.sqrt(n_sys),
            cfg.bw_noise / np.sqrt(n_sys),
        ]
        np.testing.assert_allclose(rel_std, expected, rtol=0.1)

    def test_readings_floored_at_zero(self, setup):
        cluster, comp = setup
        cfg = MonitorConfig(core_noise=5.0, bw_noise=5.0, cache_noise=5.0)
        monitor = OnlineMonitor(cfg, cluster, np.random.default_rng(4))
        obs = np.array(
            [monitor.observe_window(comp, 1.0).as_array() for _ in range(500)]
        )
        assert obs.min() == 0.0  # noise this large must hit the floor
        assert (obs >= 0.0).all()

    def test_same_seed_same_readings(self, setup):
        cluster, comp = setup
        node = cluster.node("node-0")

        def readings(seed):
            monitor = OnlineMonitor(
                MonitorConfig(), cluster, np.random.default_rng(seed)
            )
            return [
                monitor.observe_window(comp, 30.0),
                monitor.observe_node_window(node, 30.0),
            ]

        assert readings(9) == readings(9)
        assert readings(9) != readings(10)


class TestNodeWindow:
    def test_zero_noise_is_the_node_total(self, setup):
        cluster, _ = setup
        cfg = MonitorConfig(core_noise=0.0, bw_noise=0.0, cache_noise=0.0)
        monitor = OnlineMonitor(cfg, cluster, np.random.default_rng(0))
        for node in cluster:
            assert monitor.observe_node_window(node, 10.0) == node.total_demand()

    def test_idle_node_reads_zero(self, setup):
        cluster, _ = setup
        monitor = OnlineMonitor(MonitorConfig(), cluster, np.random.default_rng(0))
        reading = monitor.observe_node_window(cluster.node("node-1"), 10.0)
        assert reading == ResourceVector()

    def test_bad_duration_rejected(self, setup):
        cluster, _ = setup
        monitor = OnlineMonitor(MonitorConfig(), cluster, np.random.default_rng(0))
        with pytest.raises(MonitoringError, match="duration"):
            monitor.observe_node_window(cluster.node("node-0"), -1.0)

    def test_node_reading_near_truth(self, setup):
        cluster, _ = setup
        node = cluster.node("node-0")
        monitor = OnlineMonitor(MonitorConfig(), cluster, np.random.default_rng(5))
        obs = np.array(
            [monitor.observe_node_window(node, 60.0).as_array() for _ in range(500)]
        )
        np.testing.assert_allclose(
            obs.mean(axis=0), node.total_demand().as_array(), rtol=0.01
        )
