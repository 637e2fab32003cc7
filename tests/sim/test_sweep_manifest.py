"""Tests for sweep-cache provenance: manifest, diff, GC, atomicity,
corruption handling, and cross-backend aggregate identity."""

import dataclasses
import json

import pytest

from repro.baselines.policies import BasicPolicy, REDPolicy
from repro.errors import (
    CacheCorruptionError,
    StaleManifestError,
    SweepCacheError,
)
from repro.service.nutch import NutchConfig
from repro.sim.aggregate import SweepSummary
from repro.sim.runner import RunnerConfig
from repro.sim.sweep import (
    MANIFEST_VERSION,
    ParallelSweepRunner,
    SweepCache,
    SweepSpec,
    _atomic_write_json,
    point_cache_key,
)


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
        n_profiling_conditions=8,
    )
    kwargs.update(overrides)
    return RunnerConfig(**kwargs)


def _tiny_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        base=_tiny_base(),
        policies=(BasicPolicy(),),
        arrival_rates=(30.0,),
        seeds=(0, 1),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


@pytest.fixture()
def run_cache(tmp_path):
    """A completed tiny sweep with its cache."""
    spec = _tiny_spec()
    cache = SweepCache(tmp_path)
    result = ParallelSweepRunner(spec, workers=1, cache=cache).run()
    return spec, cache, result


class TestManifest:
    def test_schema_and_point_map(self, run_cache):
        spec, cache, _ = run_cache
        manifest = cache.manifest()
        assert manifest["schema_version"] == MANIFEST_VERSION
        assert manifest["completed"] is not None
        assert manifest["created"] <= manifest["completed"]
        assert set(manifest["points"]) == set(spec.point_keys())
        coords = sorted(
            (p["policy"], p["arrival_rate"], p["seed"])
            for p in manifest["points"].values()
        )
        assert coords == [("Basic", 30.0, 0), ("Basic", 30.0, 1)]
        # Every live key resolves to a point file on disk.
        for key in manifest["points"]:
            assert cache.path_for(key).exists()

    def test_base_config_diff_names_deviations(self, run_cache):
        _, cache, _ = run_cache
        diff = cache.manifest()["base_config_diff"]
        assert diff["n_nodes"] == [30, 6]
        assert diff["nutch.n_search_groups"] == [20, 3]
        # Per-point placeholders are excluded from provenance.
        assert "arrival_rate" not in diff and "seed" not in diff

    def test_rerun_same_grid_keeps_created(self, run_cache):
        spec, cache, _ = run_cache
        created = cache.manifest()["created"]
        ParallelSweepRunner(spec, workers=1, cache=cache).run()
        assert cache.manifest()["created"] == created

    def test_different_grid_rewrites_manifest(self, run_cache):
        _, cache, _ = run_cache
        other = _tiny_spec(arrival_rates=(55.0,))
        cache.begin_manifest(other)
        manifest = cache.manifest()
        assert manifest["spec"]["arrival_rates"] == [55.0]
        assert manifest["completed"] is None

    def test_stale_schema_version_raises_named_error(self, run_cache):
        _, cache, _ = run_cache
        payload = json.loads(cache.manifest_path.read_text())
        payload["schema_version"] = MANIFEST_VERSION + 1
        cache.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(StaleManifestError) as err:
            cache.manifest()
        assert str(cache.manifest_path) in str(err.value)
        assert err.value.path == cache.manifest_path

    def test_garbage_manifest_raises_named_error(self, run_cache):
        _, cache, _ = run_cache
        cache.manifest_path.write_text('{"schema_version": 1,, TRUNCATED')
        with pytest.raises(CacheCorruptionError) as err:
            cache.manifest()
        assert str(cache.manifest_path) in str(err.value)

    def test_absent_manifest_is_none(self, tmp_path):
        assert SweepCache(tmp_path / "fresh").manifest() is None

    def test_corrupt_manifest_never_silently_overwritten(self, run_cache):
        spec, cache, _ = run_cache
        cache.manifest_path.write_text("garbage, not json")
        with pytest.raises(CacheCorruptionError):
            ParallelSweepRunner(spec, workers=1, cache=cache).run()
        # The damaged file is left for the operator to inspect.
        assert cache.manifest_path.read_text() == "garbage, not json"

    def test_stale_schema_manifest_superseded_on_rerun(self, run_cache):
        spec, cache, _ = run_cache
        payload = json.loads(cache.manifest_path.read_text())
        payload["schema_version"] = MANIFEST_VERSION + 1
        cache.manifest_path.write_text(json.dumps(payload))
        ParallelSweepRunner(spec, workers=1, cache=cache).run()
        assert cache.manifest()["schema_version"] == MANIFEST_VERSION

    def test_structurally_broken_manifest_raises_named_error(self, run_cache):
        _, cache, _ = run_cache
        cache.manifest_path.write_text(
            json.dumps({"schema_version": MANIFEST_VERSION})
        )
        with pytest.raises(CacheCorruptionError, match="spec, points"):
            cache.manifest()

    def test_completion_stamp_skipped_for_foreign_grid(self, run_cache):
        # A concurrent sweep over a different grid rewrote the manifest
        # after this sweep began: completing must not stamp *its* grid.
        spec, cache, _ = run_cache
        foreign = _tiny_spec(arrival_rates=(55.0,))
        cache.begin_manifest(foreign)
        manifest = cache.complete_manifest(spec)
        assert manifest["completed"] is None
        # The foreign sweep's own completion still lands.
        assert cache.complete_manifest(foreign)["completed"] is not None


class TestDiff:
    def test_identical_grids_diff_empty(self, run_cache, tmp_path):
        spec, cache, _ = run_cache
        other = SweepCache(tmp_path / "other")
        other.begin_manifest(spec)
        assert cache.diff(other) == {}

    def test_changed_knob_named(self, run_cache, tmp_path):
        spec, cache, _ = run_cache
        changed = dataclasses.replace(
            spec, base=dataclasses.replace(spec.base, n_nodes=9)
        )
        other = SweepCache(tmp_path / "other")
        other.begin_manifest(changed)
        diff = cache.diff(other)
        assert diff == {"base.n_nodes": (6, 9)}
        # Also accepts a raw path and a manifest dict.
        assert cache.diff(other.root) == diff
        assert cache.diff(other.manifest()) == diff

    def test_diff_without_manifest_rejected(self, run_cache, tmp_path):
        _, cache, _ = run_cache
        with pytest.raises(SweepCacheError):
            cache.diff(tmp_path / "empty")
        with pytest.raises(SweepCacheError):
            SweepCache(tmp_path / "empty2").diff(cache)


class TestGC:
    def test_orphans_and_temps_removed_live_points_kept(self, run_cache):
        spec, cache, _ = run_cache
        orphan = cache.path_for("0123456789abcdef0123456789abcdef")
        orphan.write_text("{}")
        # A temp whose writer pid is long dead (way beyond pid_max).
        leftover = cache.root / "deadbeef.tmp-99999999"
        leftover.write_text("partial")
        removed = cache.gc()
        assert sorted(p.name for p in removed) == sorted(
            [orphan.name, leftover.name]
        )
        assert not orphan.exists() and not leftover.exists()
        assert cache.manifest_path.exists()
        assert len(cache) == spec.n_points
        # Everything still loads: GC never touches live entries.
        for key in spec.point_keys():
            assert cache.load(key) is not None

    def test_live_writers_temp_is_spared(self, run_cache):
        import os

        _, cache, _ = run_cache
        in_flight = cache.root / f"deadbeef.tmp-{os.getpid()}"
        in_flight.write_text("partial")  # a concurrent sweep mid-write
        assert in_flight not in cache.gc()
        assert in_flight.exists()
        in_flight.unlink()

    def test_dead_writers_temp_is_reaped(self, run_cache):
        # A pid way beyond any real pid_max: the writer is long gone.
        _, cache, _ = run_cache
        abandoned = cache.root / "cafef00d.tmp-99999999"
        abandoned.write_text("torn bytes")
        assert abandoned in cache.gc()
        assert not abandoned.exists()

    @pytest.mark.parametrize("suffix", ["garbage", "12x34", ""])
    def test_non_numeric_temp_suffix_is_reaped(self, run_cache, suffix):
        # A ``tmp-`` suffix that is not a pid cannot belong to a live
        # atomic write (our writers always embed one), so it is swept
        # rather than crashing the pid probe or leaking forever.
        _, cache, _ = run_cache
        stray = cache.root / f"deadbeef.tmp-{suffix}"
        stray.write_text("not ours")
        removed = cache.gc()
        assert stray in removed
        assert not stray.exists()

    def test_gc_requires_manifest(self, tmp_path):
        cache = SweepCache(tmp_path / "no-manifest")
        with pytest.raises(SweepCacheError):
            cache.gc()


class TestCorruptionAndAtomicity:
    def test_truncated_point_file_raises_named_error(self, run_cache):
        spec, cache, _ = run_cache
        key = next(iter(spec.point_keys()))
        path = cache.path_for(key)
        path.write_text(path.read_text()[:40])  # simulate torn content
        with pytest.raises(CacheCorruptionError) as err:
            cache.load(key)
        assert str(path) in str(err.value)

    def test_from_cache_keeps_corruption_error_contract(self, run_cache):
        # from_cache's documented error contract: a corrupt entry
        # surfaces as the named cache error, with .path.
        from repro.sim.aggregate import SweepSummary

        spec, cache, _ = run_cache
        key = next(iter(spec.point_keys()))
        cache.path_for(key).write_text("{not json")
        with pytest.raises(CacheCorruptionError) as err:
            SweepSummary.from_cache(cache)
        assert err.value.path == cache.path_for(key)

    def test_from_cache_does_not_mislabel_other_errors(
        self, run_cache, monkeypatch
    ):
        # A permissions problem (or any non-cache failure) on a point
        # file is not corruption: it surfaces as itself, not as a
        # CacheCorruptionError claiming external damage.
        from repro.sim.aggregate import SweepSummary

        _, cache, _ = run_cache

        def denied(self, key):
            raise PermissionError(f"denied: {key}")

        monkeypatch.setattr(type(cache), "load", denied)
        with pytest.raises(PermissionError) as err:
            SweepSummary.from_cache(cache)
        assert not isinstance(err.value, CacheCorruptionError)

    def test_undecodable_result_payload_raises_named_error(self, run_cache):
        spec, cache, _ = run_cache
        key = next(iter(spec.point_keys()))
        payload = json.loads(cache.path_for(key).read_text())
        del payload["result"]["overall_latency"]
        cache.path_for(key).write_text(json.dumps(payload))
        with pytest.raises(CacheCorruptionError):
            cache.load(key)

    def test_killed_write_never_poisons_the_cache(
        self, run_cache, monkeypatch
    ):
        """Regression: an interrupted store must leave either the old
        entry or nothing — never a half-written JSON."""
        spec, cache, result = run_cache
        point = spec.points()[0]
        key = point_cache_key(spec.runner_config(point), point.policy)
        good = cache.path_for(key).read_text()

        real_dump = json.dump

        def dying_dump(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:25])  # half the payload...
            fh.flush()
            raise KeyboardInterrupt("killed mid-write")  # ...then die

        monkeypatch.setattr("repro.sim.sweep.json.dump", dying_dump)
        with pytest.raises(KeyboardInterrupt):
            cache.store(key, point, result.results[point])
        monkeypatch.setattr("repro.sim.sweep.json.dump", real_dump)

        # The completed entry is untouched — the torn bytes only ever
        # reached the temp file, which GC sweeps up once its writer is
        # dead (here: relabel the temp as an expired pid's).
        assert cache.path_for(key).read_text() == good
        assert cache.load(key) is not None
        (torn,) = cache.root.glob("*.tmp-*")
        torn.rename(torn.with_name(f"{key}.tmp-99999999"))
        cache.gc()
        assert not any(cache.root.glob("*.tmp-*"))

        # Resuming serves the intact entry from cache.
        rerun = ParallelSweepRunner(spec, workers=1, cache=cache).run()
        assert rerun.cache_hits == spec.n_points

    def test_same_process_writers_of_one_path_never_collide(
        self, tmp_path, monkeypatch
    ):
        """Two writers of one file in one process (two sweeps storing
        the same point, a spool claim under heartbeat) each get their
        own temp file, so neither rename loses its source."""
        import os

        target = tmp_path / "point.json"
        real_replace = os.replace
        interleaved = []

        def interleaving_replace(src, dst):
            # Just before the outer writer renames, a second writer of
            # the same path runs start to finish.
            if not interleaved:
                interleaved.append(True)
                _atomic_write_json(target, {"writer": "inner"})
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaving_replace)
        _atomic_write_json(target, {"writer": "outer"})
        monkeypatch.undo()

        assert interleaved
        assert json.loads(target.read_text()) == {"writer": "outer"}
        assert list(tmp_path.glob("*.tmp-*")) == []


@pytest.mark.tier2
class TestCrossBackendIdentity:
    """Serial, process and distributed execution and the aggregate
    path must agree bit-for-bit — the sweep subsystem's core contract,
    whatever runs the points."""

    @pytest.fixture(scope="class")
    def grid(self):
        return _tiny_spec(
            policies=(BasicPolicy(), REDPolicy(replicas=2)),
            arrival_rates=(40.0,),
            seeds=(0, 1),
        )

    @pytest.fixture(scope="class")
    def serial(self, grid):
        return ParallelSweepRunner(grid, workers=1, backend="serial").run()

    @pytest.mark.parametrize(
        "backend,workers",
        [("process", 2), ("process", 4)],
        ids=["process-2", "process-4"],
    )
    def test_backends_bit_identical(
        self, grid, serial, backend, workers, tmp_path
    ):
        parallel = ParallelSweepRunner(
            grid, workers=workers, cache=tmp_path, backend=backend
        ).run()
        for point in grid.points():
            assert (
                parallel.results[point].metrics_dict()
                == serial.results[point].metrics_dict()
            ), f"{backend} workers={workers}: {point.describe()}"
        # The seed-level reduction is identical too — whatever computed
        # the points, and whether they come from memory or the cache.
        assert parallel.summary().to_dict() == serial.summary().to_dict()
        assert (
            SweepSummary.from_cache(SweepCache(tmp_path)).to_dict()
            == serial.summary().to_dict()
        )

    @pytest.fixture(scope="class")
    def streamed_grid(self, grid):
        return _tiny_spec(
            base=_tiny_base(summary_mode="streaming", chunk_requests=64),
            policies=grid.policies,
            arrival_rates=grid.arrival_rates,
            seeds=grid.seeds,
        )

    @pytest.fixture(scope="class")
    def streamed_serial(self, streamed_grid):
        return ParallelSweepRunner(
            streamed_grid, workers=1, backend="serial"
        ).run()

    @pytest.mark.parametrize(
        "backend,workers", [("process", 2)], ids=["process-2"]
    )
    def test_request_chunking_axis_bit_identical(
        self, streamed_grid, streamed_serial, backend, workers
    ):
        # The streaming-scale axis: streamed summaries over windowed
        # interval execution (RunnerConfig.chunk_requests) must agree
        # byte for byte whatever backend runs the points.  Basic runs
        # several windows per interval with the queue carry; the grid's
        # RED policy cannot chunk and folds one window per interval.
        run = ParallelSweepRunner(
            streamed_grid, workers=workers, backend=backend
        ).run()
        for point in streamed_grid.points():
            expected = streamed_serial.results[point].metrics_dict()
            assert expected["summary_mode"] == "streaming"
            assert (
                run.results[point].metrics_dict() == expected
            ), point.describe()

    def test_exact_mode_ignores_request_chunking(self, grid, serial):
        # Exact summaries run every interval as one window, so
        # chunk_requests never changes an exact result; the RED points
        # only add the chunk_fallback provenance flag.
        chunked_grid = _tiny_spec(
            base=_tiny_base(chunk_requests=64),
            policies=grid.policies,
            arrival_rates=grid.arrival_rates,
            seeds=grid.seeds,
        )
        chunked_run = ParallelSweepRunner(
            chunked_grid, workers=1, backend="serial"
        ).run()
        for point, chunked_point in zip(
            grid.points(), chunked_grid.points()
        ):
            chunked_metrics = chunked_run.results[chunked_point].metrics_dict()
            if chunked_metrics.pop("chunk_fallback", False):
                assert point.policy.name.startswith("RED")
            assert (
                chunked_metrics == serial.results[point].metrics_dict()
            ), point.describe()

    def test_distributed_bit_identical(self, grid, serial, tmp_path):
        # The spool axis: a coordinator plus two out-of-process
        # ``python -m repro worker`` processes must reproduce the serial
        # grid byte for byte, and the aggregate over the
        # coordinator-side cache agrees too.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.sim.distributed import SweepSpool

        spool = tmp_path / "spool"
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (
                str(Path(repro.__file__).resolve().parents[1]),
                env.get("PYTHONPATH", ""),
            )
            if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", str(spool)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
            )
            for _ in range(2)
        ]
        try:
            distributed = ParallelSweepRunner(
                grid,
                cache=cache_dir,
                backend="distributed",
                spool=spool,
                wait_workers=2,
            ).run()
        finally:
            SweepSpool(spool).ensure().request_stop()
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
        for point in grid.points():
            assert (
                distributed.results[point].metrics_dict()
                == serial.results[point].metrics_dict()
            ), point.describe()
        assert distributed.summary().to_dict() == serial.summary().to_dict()
        assert (
            SweepSummary.from_cache(SweepCache(cache_dir)).to_dict()
            == serial.summary().to_dict()
        )
