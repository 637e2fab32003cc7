"""Tests for the execution-backend seam (:mod:`repro.sim.backends`)."""

import pickle
import time

import pytest

from repro.baselines.policies import BasicPolicy, REDPolicy
from repro.errors import ConfigurationError, WorkerTaskError
from repro.experiments.fig6 import paper_pcs_policy
from repro.service.nutch import NutchConfig
from repro.sim.backends import (
    BACKEND_NAMES,
    EXPENSIVE_POINT_CUTOFF_S,
    SERIAL_AUTO_THRESHOLD,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    auto_backend,
    backend_from_name,
    resolve_backend,
)
from repro.sim.runner import RunnerConfig
from repro.sim.sweep import ParallelSweepRunner, SweepSpec
from repro.workloads.generator import GeneratorConfig


def _square(x: int) -> int:
    return x * x


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("deliberate failure on 2")
    return x * x


class TestSerialBackend:
    def test_map_preserves_order(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_imap_yields_index_result_pairs(self):
        pairs = list(SerialBackend().imap_unordered(_square, [5, 6]))
        assert pairs == [(0, 25), (1, 36)]

    def test_empty(self):
        assert SerialBackend().map(_square, []) == []

    def test_failure_wrapped_with_index_and_cause(self):
        backend = SerialBackend()
        collected = []
        with pytest.raises(WorkerTaskError) as err:
            for pair in backend.imap_unordered(_fail_on_two, [1, 2, 3]):
                collected.append(pair)
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, ValueError)
        assert "deliberate failure" in str(err.value)
        # The task before the failure was yielded; the one after never ran.
        assert collected == [(0, 1)]


class TestProcessBackend:
    """One spawn round-trip (slow-ish)."""

    def test_map_matches_serial(self):
        items = list(range(7))
        assert ProcessBackend(2).map(_square, items) == [x * x for x in items]

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(0)

    def test_empty_input_starts_no_pool(self):
        # No items, no spawn: the pool is only built for real work.
        assert ProcessBackend(2).map(_square, []) == []
        assert list(ProcessBackend(2).imap_unordered(_square, [])) == []


@pytest.mark.tier2
class TestProcessBackendFailure:
    def test_failure_survives_pickling_with_index(self):
        # Peers that finished before the failure was observed are
        # yielded (the sweep caches them); the failing index never is,
        # and the error names it across the pickle boundary.
        collected = []
        with pytest.raises(WorkerTaskError) as err:
            for pair in ProcessBackend(2).imap_unordered(
                _fail_on_two, [1, 3, 2, 4]
            ):
                collected.append(pair)
        assert err.value.index == 2
        assert "deliberate failure" in str(err.value)
        assert all(index != 2 for index, _ in collected)
        assert all(result == [1, 9, None, 16][i] for i, result in collected)


@pytest.mark.tier2
def test_serial_beats_spawn_on_a_small_grid():
    """On a 6-point grid ``auto`` stays inline, and rightly: every spawn
    worker pays an interpreter start, the package's imports and a cold
    predictor memo, which six cheap points cannot amortise, while the
    inline path reuses all three."""
    spec = SweepSpec(
        base=RunnerConfig(
            n_nodes=6,
            arrival_rate=30.0,
            interval_s=8.0,
            n_intervals=3,
            warmup_intervals=1,
            seed=0,
            nutch=NutchConfig(
                n_search_groups=3, replicas_per_group=2,
                n_segmenters=1, n_aggregators=1,
            ),
            generator=GeneratorConfig(
                jobs_per_node_per_s=0.02, max_batch_jobs_per_node=3
            ),
            n_profiling_conditions=8,
        ),
        policies=(BasicPolicy(), REDPolicy(replicas=2), paper_pcs_policy()),
        arrival_rates=(30.0, 70.0),
        seeds=(0,),
    )
    assert spec.n_points <= 8
    auto = ParallelSweepRunner(spec, workers=4)._resolve_backend(
        spec.n_points, []
    )
    assert auto.name == "serial"

    timings, runs = {}, {}
    for backend in (SerialBackend(), ProcessBackend(4)):
        t0 = time.perf_counter()
        runs[backend.name] = ParallelSweepRunner(
            spec, workers=4, backend=backend
        ).run()
        timings[backend.name] = time.perf_counter() - t0
    for point in spec.points():
        assert (
            runs["process"].results[point].metrics_dict()
            == runs["serial"].results[point].metrics_dict()
        ), point.describe()
    assert timings["serial"] < timings["process"], timings


class TestFactories:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_names_resolve(self, name, tmp_path):
        # The distributed backend is the one name that cannot resolve
        # without a spool directory; everything else ignores the kwarg.
        spool = tmp_path / "spool" if name == "distributed" else None
        backend = backend_from_name(name, workers=2, spool=spool)
        assert isinstance(backend, ExecutionBackend)
        assert backend.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="serial, process"):
            backend_from_name("ssh", workers=2)

    def test_thread_is_not_a_backend(self):
        assert "thread" not in BACKEND_NAMES
        with pytest.raises(ConfigurationError, match="'thread'"):
            backend_from_name("thread", workers=2)
        with pytest.raises(ConfigurationError, match="'thread'"):
            resolve_backend("thread", workers=2, n_tasks=4)

    def test_auto_rule(self):
        assert auto_backend(1, 100).name == "serial"
        assert auto_backend(4, 1).name == "serial"
        assert auto_backend(4, SERIAL_AUTO_THRESHOLD).name == "serial"
        assert auto_backend(4, SERIAL_AUTO_THRESHOLD + 1).name == "process"

    def test_auto_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            auto_backend(0, 5)

    def test_resolve_passthrough_and_names(self):
        ready = ProcessBackend(3)
        assert resolve_backend(ready, workers=1, n_tasks=99) is ready
        assert resolve_backend(None, 4, 2).name == "serial"
        assert resolve_backend("auto", 4, 50).name == "process"
        assert resolve_backend("serial", 4, 50).name == "serial"


class TestCostAwareAuto:
    """A small grid of *expensive* points spawns processes; cheap
    points run inline unless there are many of them, and the pool
    always takes one point per task."""

    def test_expensive_small_set_routes_to_process(self):
        backend = auto_backend(
            4, 4, est_cost_s=EXPENSIVE_POINT_CUTOFF_S * 5
        )
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 4

    def test_cheap_small_set_routes_to_serial(self):
        assert isinstance(auto_backend(4, 4, est_cost_s=0.1), SerialBackend)
        assert isinstance(
            auto_backend(4, SERIAL_AUTO_THRESHOLD, est_cost_s=0.1),
            SerialBackend,
        )

    def test_cheap_large_set_gets_one_point_per_task(self):
        backend = auto_backend(4, 40, est_cost_s=0.1)
        assert isinstance(backend, ProcessBackend)
        assert repr(backend) == "ProcessBackend(workers=4)"

    def test_no_estimate_keeps_count_rule(self):
        assert auto_backend(4, SERIAL_AUTO_THRESHOLD).name == "serial"
        assert auto_backend(4, SERIAL_AUTO_THRESHOLD + 1).name == "process"

    def test_serial_short_circuits_regardless_of_cost(self):
        assert auto_backend(1, 4, est_cost_s=1e6).name == "serial"
        assert auto_backend(4, 1, est_cost_s=1e6).name == "serial"

    def test_negative_estimate_rejected(self):
        with pytest.raises(ConfigurationError):
            auto_backend(4, 4, est_cost_s=-1.0)

    def test_resolve_forwards_estimate(self):
        resolved = resolve_backend(
            "auto", 4, 4, est_cost_s=EXPENSIVE_POINT_CUTOFF_S * 5
        )
        assert resolved.name == "process"
        # Named backends ignore the estimate — explicit wins.
        assert resolve_backend(
            "serial", 4, 4, est_cost_s=EXPENSIVE_POINT_CUTOFF_S * 5
        ).name == "serial"


class TestWorkerTaskError:
    def test_pickle_round_trip_keeps_index(self):
        err = WorkerTaskError("task 3 raised ValueError: boom", index=3)
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, WorkerTaskError)
        assert back.index == 3
        assert "boom" in str(back)
