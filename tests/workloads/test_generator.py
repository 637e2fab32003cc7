"""Tests for the batch-job churn generator."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.errors import WorkloadError
from repro.simcore.engine import SimulationEngine
from repro.units import gb, mb
from repro.workloads.generator import BatchJobGenerator, GeneratorConfig


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def cluster():
    return Cluster.homogeneous(3)


class TestGeneratorConfig:
    def test_defaults_valid(self):
        GeneratorConfig()

    def test_weights_normalised(self):
        cfg = GeneratorConfig(mix={"spark.sort": 2.0, "hadoop.bayes": 2.0})
        np.testing.assert_allclose(cfg.profile_weights(), [0.5, 0.5])

    def test_unknown_profile_rejected(self):
        with pytest.raises(WorkloadError):
            GeneratorConfig(mix={"nope": 1.0})

    def test_zero_rate_rejected(self):
        with pytest.raises(WorkloadError):
            GeneratorConfig(jobs_per_node_per_s=0.0)

    @pytest.mark.parametrize(
        "size_range", [(0.0, 10.0), (10.0, 10.0), (10.0, 5.0)],
        ids=["zero-low", "empty", "inverted"],
    )
    def test_invalid_size_range_rejected(self, size_range):
        with pytest.raises(WorkloadError, match="size range"):
            GeneratorConfig(size_range_mb=size_range)

    def test_zero_batch_slots_rejected(self):
        with pytest.raises(WorkloadError, match="max_batch_jobs_per_node"):
            GeneratorConfig(max_batch_jobs_per_node=0)

    def test_zero_weight_mix_rejected_at_sampling(self):
        cfg = GeneratorConfig(mix={"spark.sort": 0.0})
        with pytest.raises(WorkloadError, match="positive"):
            cfg.profile_weights()

    def test_default_mix_is_uniform_over_all_profiles(self):
        from repro.workloads.profiles import ALL_PROFILES

        cfg = GeneratorConfig()
        assert cfg.profile_names() == sorted(ALL_PROFILES)
        np.testing.assert_allclose(
            cfg.profile_weights(), 1.0 / len(ALL_PROFILES)
        )


class TestSampling:
    def test_specs_stay_in_mix_and_size_range(self, rng):
        cfg = GeneratorConfig(
            mix={"spark.sort": 1.0, "hadoop.bayes": 3.0},
            size_range_mb=(mb(10), mb(100)),
        )
        gen = BatchJobGenerator(cfg, rng)
        specs = [gen.sample_spec() for _ in range(400)]
        names = [s.profile.name for s in specs]
        assert set(names) == {"spark.sort", "hadoop.bayes"}
        # Weights 1:3 -> about a quarter of the jobs are spark.sort.
        assert names.count("spark.sort") / len(names) == pytest.approx(
            0.25, abs=0.07
        )
        sizes = np.array([s.input_mb for s in specs])
        assert sizes.min() >= mb(10) and sizes.max() <= mb(100)

    def test_sampled_job_arrives_when_asked(self, rng):
        job = BatchJobGenerator(GeneratorConfig(), rng).sample_job(42.0)
        assert job.arrival_time == 42.0
        assert job.duration > 0.0
        assert job.departure_time == 42.0 + job.duration


class TestChurn:
    def test_jobs_arrive_and_depart(self, rng, cluster):
        engine = SimulationEngine()
        gen = BatchJobGenerator(
            GeneratorConfig(jobs_per_node_per_s=0.05, size_range_mb=(mb(10), gb(1))),
            rng,
        )
        gen.start(engine, cluster)
        engine.run_until(3_000.0)
        assert gen.arrived > 0
        assert gen.completed > 0
        # Conservation: everything arrived is running, done, or dropped.
        active = sum(len(v) for v in gen.active_jobs.values())
        assert gen.arrived == gen.completed + gen.dropped + active

    def test_active_jobs_respect_slot_cap(self, rng, cluster):
        engine = SimulationEngine()
        cfg = GeneratorConfig(jobs_per_node_per_s=1.0, max_batch_jobs_per_node=2)
        gen = BatchJobGenerator(cfg, rng)
        gen.start(engine, cluster)
        engine.run_until(200.0)
        for jobs in gen.active_jobs.values():
            assert len(jobs) <= 2
        assert gen.dropped > 0  # at that rate the cap must bind

    def test_active_jobs_impose_contention(self, rng, cluster):
        engine = SimulationEngine()
        gen = BatchJobGenerator(GeneratorConfig(jobs_per_node_per_s=0.5), rng)
        gen.start(engine, cluster)
        engine.run_until(120.0)
        total = sum(
            node.contention_for(None).core for node in cluster
        )
        assert total > 0.0

    def test_stop_halts_arrivals(self, rng, cluster):
        engine = SimulationEngine()
        gen = BatchJobGenerator(GeneratorConfig(jobs_per_node_per_s=0.5), rng)
        gen.start(engine, cluster)
        engine.run_until(60.0)
        arrived = gen.arrived
        gen.stop()
        engine.run_until(600.0)
        assert gen.arrived == arrived
        # All in-flight jobs eventually leave.
        assert sum(len(v) for v in gen.active_jobs.values()) == 0

    def test_arrivals_follow_the_poisson_rate(self, rng, cluster):
        # Every arrival counts, admitted or dropped: E = rate * T * nodes.
        engine = SimulationEngine()
        gen = BatchJobGenerator(GeneratorConfig(jobs_per_node_per_s=0.5), rng)
        gen.start(engine, cluster)
        engine.run_until(1_000.0)
        assert gen.arrived == pytest.approx(0.5 * 1_000.0 * 3, rel=0.1)

    def test_departed_jobs_leave_the_cluster(self, rng, cluster):
        engine = SimulationEngine()
        gen = BatchJobGenerator(GeneratorConfig(jobs_per_node_per_s=0.5), rng)
        gen.start(engine, cluster)
        engine.run_until(60.0)
        gen.stop()
        engine.run()
        assert gen.completed > 0
        for node in cluster:
            assert node.contention_for(None).core == 0.0

    def test_deterministic_given_seed(self, cluster):
        def run(seed):
            engine = SimulationEngine()
            gen = BatchJobGenerator(
                GeneratorConfig(jobs_per_node_per_s=0.2),
                np.random.default_rng(seed),
            )
            gen.start(engine, Cluster.homogeneous(3))
            engine.run_until(500.0)
            return (gen.arrived, gen.completed, gen.dropped)

        assert run(11) == run(11)
        assert run(11) != run(12)
