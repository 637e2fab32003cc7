"""Distributed sweep backend: spool protocol, codec, and identity.

Tier-1 tests run the worker loop in-thread (everything is file-based,
so a thread is protocol-identical to a remote process and keeps the
suite fast).  Tier-2 adds SIGKILL fault injection against a real
subprocess; the cross-backend identity matrix in
``test_sweep_manifest.py`` carries the distributed axis with real
``python -m repro worker`` processes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.baselines.policies import (
    BasicPolicy,
    HedgedPolicy,
    PCSPolicy,
    Policy,
    REDPolicy,
    ReissuePolicy,
)
from repro.errors import (
    ConfigurationError,
    SpoolError,
    SweepExecutionError,
)
from repro.service.nutch import NutchConfig
from repro.sim.backends import (
    EXPENSIVE_POINT_CUTOFF_S,
    auto_backend,
    backend_from_name,
)
from repro.sim.distributed import (
    DEFAULT_LEASE_S,
    SPOOL_SCHEMA_VERSION,
    DistributedBackend,
    SweepSpool,
    decode_task,
    encode_task,
    register_codec_class,
    run_worker,
)
from repro.sim.runner import RunnerConfig
from repro.sim.sweep import (
    ParallelSweepRunner,
    SweepCache,
    SweepSpec,
    _atomic_write_json,
    _canonical,
)
from repro.workloads.generator import GeneratorConfig


@register_codec_class
@dataclass(frozen=True)
class SpoolExplodingPolicy(Policy):
    """Fails during setup; registered so it round-trips the spool."""

    name: str = "SpoolExploding"

    def induced_load(self):
        raise RuntimeError("deliberate spool-point failure")


def _tiny_base(**overrides) -> RunnerConfig:
    kwargs = dict(
        n_nodes=6,
        arrival_rate=40.0,
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
    )
    kwargs.update(overrides)
    return RunnerConfig(**kwargs)


def _tiny_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        base=_tiny_base(),
        policies=(BasicPolicy(), REDPolicy(replicas=2)),
        arrival_rates=(30.0, 70.0),
        seeds=(0, 1),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class _WorkerThread:
    """An in-thread spool worker with clean start/stop semantics."""

    def __init__(self, spool, **kwargs):
        if not isinstance(spool, SweepSpool):
            spool = SweepSpool(spool)
        self.spool = spool
        kwargs.setdefault("poll_interval_s", 0.02)
        self.thread = threading.Thread(
            target=run_worker, args=(spool,), kwargs=kwargs, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.spool.ensure().request_stop()
        self.thread.join(timeout=30)
        self.spool.clear_stop()
        assert not self.thread.is_alive(), "worker thread failed to drain"


# Serial baseline shared by the identity tests (computed once).
_SERIAL: dict = {}


def _serial_run():
    if "run" not in _SERIAL:
        _SERIAL["run"] = ParallelSweepRunner(
            _tiny_spec(), backend="serial"
        ).run()
    return _SERIAL["run"]


class TestTaskCodec:
    """encode_task/decode_task must be a lossless inverse pair."""

    @pytest.mark.parametrize(
        "policy",
        [
            BasicPolicy(),
            REDPolicy(replicas=3),
            ReissuePolicy(quantile=0.95),
            HedgedPolicy(hedge_delay_s=0.05),
            PCSPolicy(),
            SpoolExplodingPolicy(),
        ],
        ids=lambda p: p.name,
    )
    def test_round_trip_every_policy(self, policy):
        config = _tiny_base(chunk_requests=64)
        entry = encode_task(7, (config, policy))
        # The wire format is genuinely JSON-able.
        entry = json.loads(json.dumps(entry))
        decoded_config, decoded_policy = decode_task(entry)
        assert decoded_config == config
        assert decoded_policy == policy
        # And canonical (cache-key) equality, the sweep's own currency.
        assert _canonical(decoded_config) == _canonical(config)
        assert _canonical(decoded_policy) == _canonical(policy)
        assert entry["index"] == 7

    def test_unknown_class_is_a_named_error(self):
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        entry["policy"]["__class__"] = "NoSuchPolicy"
        with pytest.raises(SpoolError, match="NoSuchPolicy"):
            decode_task(entry)

    def test_tampered_payload_fails_validation(self):
        # Decoding re-runs __post_init__: a payload edited into an
        # invalid config must fail loudly, not simulate garbage.
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        entry["config"]["n_intervals"] = -5
        with pytest.raises(SpoolError, match="RunnerConfig"):
            decode_task(entry)

    def test_missing_payload_keys(self):
        with pytest.raises(SpoolError, match="config/policy"):
            decode_task({"index": 0})

    def test_register_rejects_non_dataclass(self):
        with pytest.raises(ConfigurationError):
            register_codec_class(dict)


class TestSpoolProtocol:
    def test_ensure_creates_layout_and_stamp(self, tmp_path):
        spool = SweepSpool(tmp_path / "spool").ensure()
        for d in (
            spool.jobs_dir,
            spool.claims_dir,
            spool.results_dir,
            spool.workers_dir,
        ):
            assert d.is_dir()
        meta = json.loads(spool.meta_path.read_text())
        assert meta["schema_version"] == SPOOL_SCHEMA_VERSION
        # Idempotent.
        SweepSpool(tmp_path / "spool").ensure()

    # Schema 1 jobs carried a ``tasks`` list: a worker of that build
    # would read a one-point job as empty and report success.
    @pytest.mark.parametrize("version", [1, 999])
    def test_version_mismatch_refuses_to_open(self, tmp_path, version):
        spool = SweepSpool(tmp_path).ensure()
        spool.meta_path.write_text(json.dumps({"schema_version": version}))
        with pytest.raises(SpoolError, match=f"schema {version}"):
            SweepSpool(tmp_path).ensure()

    def test_claim_is_exclusive(self, tmp_path):
        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        spool.submit_job("run-000000", "run", entry)
        assert spool.pending_jobs() == ["run-000000"]
        wins = []
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            claimed = spool.claim("run-000000")
            if claimed is not None:
                wins.append(claimed)

        threads = [threading.Thread(target=race) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert wins[0]["claim"]["pid"] == os.getpid()
        assert spool.pending_jobs() == []

    def test_reclaim_stale_redispatches(self, tmp_path):
        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        spool.submit_job("run-000000", "run", entry)
        payload = spool.claim("run-000000")
        # A live same-host claim is not stale.
        assert spool.reclaim_stale("run", lease_s=30.0) == 0
        # Forge abandonment: remote host, heartbeat far past the lease.
        payload["claim"]["host"] = "some-other-host"
        payload["claim"]["heartbeat"] = time.time() - 1e6
        _atomic_write_json(spool.claims_dir / "run-000000.json", payload)
        assert spool.reclaim_stale("run", lease_s=30.0) == 1
        assert spool.pending_jobs() == ["run-000000"]
        assert not (spool.claims_dir / "run-000000.json").exists()
        # The re-dispatched job carries the original task.
        job = json.loads((spool.jobs_dir / "run-000000.json").read_text())
        assert job["task"] == entry
        assert "claim" not in job

    def test_reclaim_spares_finished_then_died_worker(self, tmp_path):
        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        spool.submit_job("run-000000", "run", entry)
        payload = spool.claim("run-000000")
        spool.write_result("run-000000", {"status": "ok", "result": {}})
        payload["claim"]["host"] = "some-other-host"
        payload["claim"]["heartbeat"] = time.time() - 1e6
        _atomic_write_json(spool.claims_dir / "run-000000.json", payload)
        # Result exists: the claim is dropped, nothing re-dispatched.
        assert spool.reclaim_stale("run", lease_s=30.0) == 0
        assert spool.pending_jobs() == []
        assert not (spool.claims_dir / "run-000000.json").exists()
        assert spool.read_result("run-000000") is not None

    def test_claim_without_block_is_stale_only_after_the_lease(
        self, tmp_path, monkeypatch
    ):
        # The claimer dies between the claiming rename and the write of
        # its claim block.  The job had queued for longer than the
        # lease, yet the claim itself is fresh: reclaim and gc spare it
        # (a live claimer is in this state for an instant) until the
        # lease, counted from the claim, runs out.
        import repro.sim.distributed as distributed

        class Died(Exception):
            pass

        def die(path, payload, indent=None):
            raise Died

        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        spool.submit_job("run-000000", "run", entry)
        queued = time.time() - 1e3
        os.utime(spool.jobs_dir / "run-000000.json", (queued, queued))
        monkeypatch.setattr(distributed, "_atomic_write_json", die)
        with pytest.raises(Died):
            spool.claim("run-000000")
        monkeypatch.undo()
        claim_path = spool.claims_dir / "run-000000.json"
        assert "claim" not in json.loads(claim_path.read_text())
        assert spool.reclaim_stale("run", lease_s=30.0) == 0
        assert spool.gc(lease_s=30.0) == []
        expired = time.time() - 60.0
        os.utime(claim_path, (expired, expired))
        assert spool.reclaim_stale("run", lease_s=30.0) == 1
        assert spool.pending_jobs() == ["run-000000"]

    def test_dead_local_claim_is_stale_to_reclaim_and_gc(self, tmp_path):
        # One staleness rule serves both callers: a same-host claim
        # whose pid is gone is stale at once, fresh heartbeat or not,
        # and a remote claim with a fresh heartbeat is not.
        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))

        def forge(job_id, **claim):
            spool.submit_job(job_id, job_id.partition("-")[0], entry)
            payload = spool.claim(job_id)
            payload["claim"].update(claim, heartbeat=time.time())
            _atomic_write_json(spool.claims_dir / f"{job_id}.json", payload)

        for run_id in ("aaa", "bbb"):
            forge(f"{run_id}-000000", pid=999999999)  # this host, pid gone
            forge(f"{run_id}-000001", host="some-other-host")

        assert spool.reclaim_stale("aaa", lease_s=30.0) == 1
        assert spool.pending_jobs() == ["aaa-000000"]
        removed = spool.gc(lease_s=30.0)
        assert [p.name for p in removed] == ["bbb-000000.json"]
        assert sorted(p.stem for p in spool.claims_dir.glob("*.json")) == [
            "aaa-000001",
            "bbb-000001",
        ]

    def test_live_workers_and_gc_share_the_liveness_rule(self, tmp_path):
        # Same-host presence is judged by pid, remote presence by
        # heartbeat; a worker counts as live exactly when gc spares it.
        spool = SweepSpool(tmp_path).ensure()
        host = json.loads(spool.register_worker().read_text())["host"]
        now = time.time()
        records = {
            "dead-local": {"pid": 999999999, "host": host, "heartbeat": now},
            "beating-remote": {
                "pid": 1, "host": "some-other-host", "heartbeat": now,
            },
            "silent-remote": {
                "pid": 1, "host": "some-other-host", "heartbeat": now - 1e6,
            },
        }
        for name, record in records.items():
            _atomic_write_json(spool.workers_dir / f"{name}.json", record)

        assert spool.live_workers(lease_s=30.0) == 2
        removed = spool.gc(lease_s=30.0)
        assert {p.stem for p in removed} == {"dead-local", "silent-remote"}
        assert spool.worker_path().exists()
        assert spool.live_workers(lease_s=30.0) == 2

    def test_cancel_run_scopes_to_the_run_id(self, tmp_path):
        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        spool.submit_job("aaa-000000", "aaa", entry)
        spool.submit_job("bbb-000000", "bbb", entry)
        spool.write_result("aaa-000001", {"status": "ok", "result": {}})
        spool.cancel_run("aaa")
        assert spool.pending_jobs() == ["bbb-000000"]
        assert spool.read_result("aaa-000001") is None

    def test_gc_reaps_stale_artifacts_spares_live(self, tmp_path):
        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        # Live claim (this pid) and an expired remote claim.
        spool.submit_job("run-000000", "run", entry)
        live = spool.claim("run-000000")
        assert live is not None
        spool.submit_job("run-000001", "run", entry)
        stale = spool.claim("run-000001")
        stale["claim"]["host"] = "some-other-host"
        stale["claim"]["heartbeat"] = time.time() - 1e6
        _atomic_write_json(spool.claims_dir / "run-000001.json", stale)
        # Live worker presence (this pid) and a dead remote one.
        spool.register_worker()
        _atomic_write_json(
            spool.workers_dir / "other-host-1.json",
            {"pid": 1, "host": "some-other-host", "heartbeat": 0.0},
        )
        # Orphaned temp file from a (certainly dead) pid.
        orphan = spool.jobs_dir / "x.json.tmp-999999999"
        orphan.write_text("{}")
        mine = spool.results_dir / f"y.json.tmp-{os.getpid()}"
        mine.write_text("{}")

        removed = spool.gc(lease_s=30.0)

        assert (spool.claims_dir / "run-000000.json").exists()
        assert not (spool.claims_dir / "run-000001.json").exists()
        assert spool.worker_path().exists()
        assert not (spool.workers_dir / "other-host-1.json").exists()
        assert not orphan.exists()
        assert mine.exists()  # live-pid-spared
        assert {p.name for p in removed} == {
            "run-000001.json",
            "other-host-1.json",
            "x.json.tmp-999999999",
        }

    def test_sweep_cache_gc_delegates_to_spool(self, tmp_path):
        # gc needs a manifest, so complete a one-point sweep first.
        spec = _tiny_spec(
            policies=(BasicPolicy(),), arrival_rates=(30.0,), seeds=(0,)
        )
        cache = SweepCache(tmp_path / "cache")
        ParallelSweepRunner(spec, cache=cache, backend="serial").run()
        spool = SweepSpool(tmp_path / "spool").ensure()
        orphan = spool.root / "z.tmp-999999999"
        orphan.write_text("{}")
        removed = cache.gc(spool=spool.root)
        assert orphan in removed
        assert not orphan.exists()

    def test_stop_sentinel_round_trip(self, tmp_path):
        SweepSpool(tmp_path).ensure().request_stop()
        assert SweepSpool(tmp_path).stop_requested()
        # A stopped spool's worker exits without executing anything.
        assert run_worker(tmp_path, poll_interval_s=0.01) == 0
        SweepSpool(tmp_path).clear_stop()
        assert not SweepSpool(tmp_path).stop_requested()


class TestWorkerLoop:
    def test_stop_when_idle_drains_and_reports_count(self, tmp_path):
        spool = SweepSpool(tmp_path).ensure()
        for i in range(2):
            spool.submit_job(
                f"run-{i:06d}",
                "run",
                encode_task(i, (_tiny_base(), BasicPolicy())),
            )
        executed = run_worker(
            spool, poll_interval_s=0.01, stop_when_idle=True
        )
        assert executed == 2
        assert spool.pending_jobs() == []
        assert spool.read_result("run-000000")["status"] == "ok"
        # Presence file removed on exit.
        assert not spool.worker_path().exists()

    def test_worker_reports_task_failure_as_error_result(self, tmp_path):
        spool = SweepSpool(tmp_path).ensure()
        spool.submit_job(
            "run-000000",
            "run",
            encode_task(0, (_tiny_base(), SpoolExplodingPolicy())),
        )
        run_worker(spool, poll_interval_s=0.01, stop_when_idle=True)
        result = spool.read_result("run-000000")
        assert result["status"] == "error"
        assert "deliberate spool-point failure" in result["error"]
        assert "result" not in result

    def test_job_without_a_task_is_an_error_result(self, tmp_path):
        # A schema-1 job carried a ``tasks`` list.  A worker that finds
        # no ``task`` reports an error, never an empty success that
        # would leave the coordinator waiting.
        spool = SweepSpool(tmp_path).ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        _atomic_write_json(
            spool.jobs_dir / "run-000000.json",
            {
                "schema_version": 1,
                "run_id": "run",
                "job_id": "run-000000",
                "tasks": [entry],
            },
        )
        executed = run_worker(
            spool, poll_interval_s=0.01, stop_when_idle=True
        )
        assert executed == 1
        result = spool.read_result("run-000000")
        assert result["status"] == "error"
        assert "missing its config/policy payload" in result["error"]
        assert "result" not in result


class TestDistributedBackend:
    def test_rejects_arbitrary_callables(self, tmp_path):
        backend = DistributedBackend(tmp_path)
        with pytest.raises(ConfigurationError, match="arbitrary"):
            list(backend.imap_unordered(len, ["ab"]))

    def test_wait_workers_timeout_is_a_named_error(self, tmp_path):
        spec = _tiny_spec(seeds=(0,))
        backend = DistributedBackend(
            tmp_path,
            wait_workers=1,
            wait_timeout_s=0.2,
            poll_interval_s=0.05,
        )
        with pytest.raises(SpoolError, match="python -m repro worker"):
            ParallelSweepRunner(spec, backend=backend).run()

    def test_end_to_end_bit_identical_and_clean_spool(self, tmp_path):
        serial = _serial_run()
        spec = _tiny_spec()
        spool = tmp_path / "spool"
        with _WorkerThread(spool):
            distributed = ParallelSweepRunner(
                spec,
                backend=DistributedBackend(spool, poll_interval_s=0.02),
            ).run()
        for point in spec.points():
            assert (
                distributed.results[point].metrics_dict()
                == serial.results[point].metrics_dict()
            ), point.describe()
        # Nothing left behind: jobs consumed, results drained.
        s = SweepSpool(spool)
        assert s.pending_jobs() == []
        assert list(s.results_dir.glob("*.json")) == []
        assert list(s.claims_dir.glob("*.json")) == []

    def test_failure_cancels_cached_peers_survive_and_resume(
        self, tmp_path
    ):
        # Grid order puts Basic before the exploding policy, so with a
        # single in-thread worker and one point per job the Basic
        # points finish (and land in the cache) before the failure
        # surfaces.
        spec = _tiny_spec(
            policies=(BasicPolicy(), SpoolExplodingPolicy()),
            arrival_rates=(30.0,),
            seeds=(0, 1),
        )
        spool = tmp_path / "spool"
        cache = SweepCache(tmp_path / "cache")
        with _WorkerThread(spool):
            with pytest.raises(SweepExecutionError) as err:
                ParallelSweepRunner(
                    spec,
                    cache=cache,
                    backend=DistributedBackend(
                        spool, poll_interval_s=0.02
                    ),
                ).run()
        assert err.value.policy == "SpoolExploding"
        assert "deliberate" in str(err.value)
        assert len(cache) == 2  # the two Basic points
        # Cancel withdrew the run's leftover jobs from the spool.
        assert SweepSpool(spool).pending_jobs() == []
        # A fixed grid resumes from the cached peers without workers.
        fixed = _tiny_spec(
            policies=(BasicPolicy(),), arrival_rates=(30.0,), seeds=(0, 1)
        )
        resumed = ParallelSweepRunner(
            fixed, cache=cache, backend="serial"
        ).run()
        assert resumed.cache_hits == 2

    def test_coordinator_reclaims_forged_stale_claim(self, tmp_path):
        # Protocol-level fault injection without processes: before any
        # real worker starts, a rogue claimer steals every dispatched
        # job and abandons it with an expired remote heartbeat; the
        # coordinator must reclaim and still finish bit-identically.
        spec = _tiny_spec(seeds=(0,), arrival_rates=(30.0,))
        serial = _serial_run()
        spool = SweepSpool(tmp_path / "spool").ensure()
        backend = DistributedBackend(
            spool, lease_s=0.5, poll_interval_s=0.02
        )
        n_jobs = len(spec.points())  # one job per point

        def steal_everything():
            # Distinct jobs: the coordinator may reclaim a stolen job
            # and dispatch it again before the thief has seen them all.
            stolen = set()
            deadline = time.monotonic() + 60
            while len(stolen) < n_jobs and time.monotonic() < deadline:
                for job_id in spool.pending_jobs():
                    payload = spool.claim(job_id)
                    if payload is None:
                        continue
                    payload["claim"]["host"] = "rogue-host"
                    payload["claim"]["heartbeat"] = time.time() - 1e6
                    _atomic_write_json(
                        spool.claims_dir / f"{job_id}.json", payload
                    )
                    stolen.add(job_id)
                time.sleep(0.005)
            return len(stolen)

        box = {}
        coordinator = threading.Thread(
            target=lambda: box.update(
                run=ParallelSweepRunner(spec, backend=backend).run()
            ),
            daemon=True,
        )
        coordinator.start()
        # No worker is running yet, so the thief wins every claim race.
        assert steal_everything() == n_jobs
        with _WorkerThread(spool):
            coordinator.join(timeout=120)
        assert not coordinator.is_alive(), "coordinator never finished"
        assert backend.reclaimed >= 1
        distributed = box["run"]
        for point in spec.points():
            assert (
                distributed.results[point].metrics_dict()
                == serial.results[point].metrics_dict()
            )

    def test_reclaimed_counts_every_redispatched_claim(
        self, tmp_path, monkeypatch
    ):
        # One reclaim pass that re-dispatches three claims counts
        # three.  The worker starts only after that pass, so the
        # coordinator's first idle pass is sure to reach it.
        spec = _tiny_spec(
            policies=(BasicPolicy(),), arrival_rates=(30.0,), seeds=(0,)
        )
        spool = SweepSpool(tmp_path / "spool")
        backend = DistributedBackend(spool, poll_interval_s=0.02)
        worker = _WorkerThread(spool)
        real_reclaim = spool.reclaim_stale

        def reclaim_stale(run_id, lease_s):
            if worker.thread.is_alive():
                return real_reclaim(run_id, lease_s)
            worker.__enter__()
            return 3

        monkeypatch.setattr(spool, "reclaim_stale", reclaim_stale)
        try:
            ParallelSweepRunner(spec, backend=backend).run()
        finally:
            if worker.thread.is_alive():
                worker.__exit__(None, None, None)
        assert backend.reclaimed == 3


class TestRoutingAndWiring:
    def test_backend_from_name_requires_spool(self, tmp_path):
        with pytest.raises(ConfigurationError, match="spool"):
            backend_from_name("distributed")
        backend = backend_from_name(
            "distributed", spool=tmp_path, wait_workers=2
        )
        assert backend.name == "distributed"
        assert backend.wait_workers == 2

    def test_runner_requires_spool_for_distributed(self):
        with pytest.raises(ConfigurationError, match="spool"):
            ParallelSweepRunner(_tiny_spec(), backend="distributed")

    def test_auto_routes_expensive_grids_to_the_spool(self, tmp_path):
        expensive = EXPENSIVE_POINT_CUTOFF_S * 10
        backend = auto_backend(
            n_tasks=16,
            workers=4,
            est_cost_s=expensive,
            spool=tmp_path,
            wait_workers=2,
        )
        assert backend.name == "distributed"
        assert backend.wait_workers == 2

    def test_auto_keeps_cheap_grids_local(self, tmp_path):
        cheap = EXPENSIVE_POINT_CUTOFF_S / 100
        assert (
            auto_backend(
                n_tasks=16, workers=4, est_cost_s=cheap, spool=tmp_path
            ).name
            != "distributed"
        )
        # A single task never travels either.
        assert (
            auto_backend(
                n_tasks=1,
                workers=4,
                est_cost_s=EXPENSIVE_POINT_CUTOFF_S * 10,
                spool=tmp_path,
            ).name
            != "distributed"
        )
        # And no spool means no distributed routing, whatever the cost.
        assert (
            auto_backend(
                n_tasks=16,
                workers=4,
                est_cost_s=EXPENSIVE_POINT_CUTOFF_S * 10,
            ).name
            != "distributed"
        )


class TestWorkerCLI:
    def test_stop_flag_writes_sentinel(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["worker", str(tmp_path), "--stop"]) == 0
        assert SweepSpool(tmp_path).stop_requested()
        assert main(["worker", str(tmp_path), "--clear-stop"]) == 0
        assert not SweepSpool(tmp_path).stop_requested()

    def test_stop_when_idle_run_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["worker", str(tmp_path), "--stop-when-idle"]) == 0
        assert "0 job(s)" in capsys.readouterr().out

    def test_repro_cli_worker_subcommand(self, tmp_path, capsys):
        # A plain worker started on a stopped spool exits at once.
        from repro.cli import main

        assert main(["worker", str(tmp_path), "--stop"]) == 0
        assert main(["worker", str(tmp_path)]) == 0
        assert "0 job(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value",
        [("--poll-interval", "1"), ("--lease", "5"), ("--max-jobs", "1")],
        ids=["--poll-interval", "--lease", "--max-jobs"],
    )
    def test_worker_tuning_flags_are_usage_errors(
        self, flag, value, tmp_path, capsys
    ):
        # The coordinator's lease is DEFAULT_LEASE_S; a worker flag
        # could only make the two disagree.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["worker", str(tmp_path), flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in (
            capsys.readouterr().err
        )

    def test_sweep_cli_distributed_requires_spool(self):
        from repro.cli import main

        # Repo CLI convention: configuration errors from the runner
        # propagate (same as an unknown policy name).
        with pytest.raises(ConfigurationError, match="spool"):
            main(
                [
                    "sweep",
                    "--backend",
                    "distributed",
                    "--policies",
                    "basic",
                    "--rates",
                    "30",
                    "--seeds",
                    "0",
                ]
            )


@pytest.mark.tier2
class TestDispatchTax:
    def test_round_trip_under_half_a_second_per_job(self, tmp_path):
        """submit -> claim -> result -> consume with no compute in
        between: the filesystem overhead every spool job pays on top of
        its compute.  A local disk measures a few ms; the ceiling leaves
        room for shared CI filesystems."""
        spool = SweepSpool(tmp_path / "spool").ensure()
        entry = encode_task(0, (_tiny_base(), BasicPolicy()))
        rounds = 50
        t0 = time.perf_counter()
        for i in range(rounds):
            job_id = f"tax-{i:06d}"
            spool.submit_job(job_id, "tax", entry)
            assert spool.claim(job_id) is not None
            spool.write_result(job_id, {"status": "ok", "result": {}})
            spool.release_claim(job_id)
            assert spool.read_result(job_id) is not None
            spool.consume_result(job_id)
        per_job_s = (time.perf_counter() - t0) / rounds
        assert per_job_s < 0.5, f"{per_job_s:.3f} s per spool round trip"


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH", ""),
        )
        if p
    )
    return env


@pytest.mark.tier2
class TestFaultInjection:
    """SIGKILL a worker holding a claim: the lease protocol must
    re-dispatch its job and the sweep still finishes bit-identically."""

    def test_sigkilled_worker_claim_is_reclaimed(self, tmp_path):
        spec = _tiny_spec(seeds=(0,), arrival_rates=(30.0,))
        serial = _serial_run()
        spool = SweepSpool(tmp_path / "spool").ensure()

        # A worker that claims one job and hangs mid-compute, holding
        # the claim with its own (real) pid.
        hang_script = (
            "import sys, time\n"
            "from repro.sim.distributed import SweepSpool\n"
            "spool = SweepSpool(sys.argv[1]).ensure()\n"
            "while True:\n"
            "    for job_id in spool.pending_jobs():\n"
            "        if spool.claim(job_id) is not None:\n"
            "            print('claimed', flush=True)\n"
            "            time.sleep(3600)\n"
            "    time.sleep(0.01)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", hang_script, str(spool.root)],
            env=_worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        backend = DistributedBackend(
            spool, lease_s=5.0, poll_interval_s=0.02
        )
        box = {}
        coordinator = threading.Thread(
            target=lambda: box.update(
                run=ParallelSweepRunner(spec, backend=backend).run()
            ),
            daemon=True,
        )
        try:
            coordinator.start()
            # Wait for the hung worker to announce its claim, then
            # SIGKILL it — a same-host dead pid, so the coordinator
            # reclaims without waiting out the lease.
            assert proc.stdout.readline().strip() == "claimed"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            # Only now start a healthy worker to finish the sweep.
            with _WorkerThread(spool):
                coordinator.join(timeout=120)
            assert not coordinator.is_alive(), "coordinator never finished"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert backend.reclaimed >= 1
        distributed = box["run"]
        for point in spec.points():
            assert (
                distributed.results[point].metrics_dict()
                == serial.results[point].metrics_dict()
            ), point.describe()
