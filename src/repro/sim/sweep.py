"""Parallel sweep execution: policies × arrival rates × seeds grids.

The paper's headline artifacts (Figs. 5–7) are sweeps, and every point
of a sweep is independent of every other point: one
:class:`~repro.sim.runner.ExperimentRunner` evaluating one policy at
one arrival rate under one seed.  This module turns that independence
into wall-clock speed and resumability:

- :class:`SweepSpec` names a grid (a base :class:`RunnerConfig` plus
  the policies, arrival rates and seeds to cross);
- :class:`ParallelSweepRunner` fans the grid points out over an
  :class:`~repro.sim.backends.ExecutionBackend` — inline, spawn
  processes (spawn-safe: the worker function is a module-level
  callable and every argument is a picklable frozen dataclass) or a
  distributed spool — with per-point deterministic seeding via
  :class:`~repro.rng.RngRegistry` — **results are bit-identical to the
  serial path regardless of backend, worker count or completion
  order**;
- :class:`SweepCache` memoizes completed points in an on-disk JSON
  store keyed by a stable hash of (runner config, policy) — which
  embeds the arrival rate and seed — so an interrupted sweep resumes
  instead of recomputing, and repeated figure regenerations are free.

Determinism contract
--------------------
A sweep point's result depends only on its :class:`RunnerConfig` and
policy: the runner builds all of its random streams from
``RngRegistry(config.seed)``, and predictor training draws from the
dedicated ``"profiling"`` stream, so training in one process and
evaluating in another (or retraining per point) cannot change any
number.  Workers additionally memoize the trained predictor per
profiling signature, so evaluating six policies at one seed trains
once — exactly like the serial :class:`ExperimentRunner` sharing.
The memo is lock-protected and train-once-per-signature, so sweeps
that ``repro serve`` runs on daemon threads share a single training
run instead of racing to duplicate it.

Choosing an execution backend
-----------------------------
``ParallelSweepRunner(..., backend=...)`` (CLI ``--backend``) selects
how pending points execute; results are identical for every choice.

``serial``
    Inline in the calling thread.  No interpreter spawn, no numpy
    re-import, and the predictor memo is warm — a grid whose points
    share a profiling signature trains once *total*.  What
    ``workers=1`` always meant; the right pick where start-up cost
    dominates (small grids, resumed sweeps with a handful of missing
    cells) and for timing-sensitive runs.
``process``
    Spawn-context process workers, one point per task: each worker
    pays an interpreter + numpy import and a cold predictor memo, then
    computes in true parallel, taking the next pending point whenever
    it finishes one — the right trade for expensive points or large
    grids on multi-core hosts.
``distributed``
    Points run on worker processes pulled from a shared spool
    directory (CLI ``--spool DIR``; start workers with ``python -m
    repro worker DIR``), which may sit on other hosts behind a shared
    filesystem — one point per job; see :mod:`repro.sim.distributed`
    for the claim/lease protocol.  It beats ``process`` when the fleet
    has more cores than the coordinator and points are expensive
    (:data:`repro.sim.backends.EXPENSIVE_POINT_CUTOFF_S`); ``auto``
    routes such grids there when a spool is configured.  Resume
    interacts with the spool only through this cache: workers never
    touch ``SweepCache`` — results travel back through the spool and
    the **coordinator** persists them — so an interrupted distributed
    sweep resumes from the same cache files as any other backend, and
    stale spool artifacts are mere garbage (reaped by
    :meth:`SweepCache.gc` ``spool=``), never stale results.

The default (``backend=None`` / CLI ``auto``) applies exactly that
guidance, **cost-aware**: serial for one worker or one pending point;
processes whenever the expected per-point cost exceeds a margin over
the ~0.6 s per-worker spawn tax (:data:`repro.sim.backends.
EXPENSIVE_POINT_CUTOFF_S`); otherwise serial for small pending sets
and processes for large ones
(:func:`repro.sim.backends.auto_backend`).  The per-point cost is
estimated from the spec via :func:`estimated_point_cost_s`
(``n_intervals × interval_s × n_nodes`` simulated node-seconds times
a coarse wall-clock calibration) or, on a resumed sweep, from the
*measured* wall-clock of the already-cached points — real timings
beat any model.

Failure hardening
-----------------
A point whose evaluation raises does not corrupt the sweep: the
backend cancels all not-yet-started points, peers that already
finished stay persisted in the cache, and the runner re-raises a
:class:`~repro.errors.SweepExecutionError` naming the failing point's
(policy, arrival rate, seed) coordinates.  Rerunning after a fix
resumes from the cached peers.  The manifest's ``completed`` stamp is
only written by a sweep that actually finished.

JSON float round-trips are exact (``repr`` is the shortest exact
representation), so cache hits are byte-identical to fresh runs.

Manifest schema (``manifest.json``, version 2)
----------------------------------------------
Alongside the opaque ``<key>.json`` point files, a cached sweep keeps a
human-readable ``manifest.json`` describing *what* the hashes are:

``schema_version``
    Integer, currently ``2``.  A manifest written under a different
    schema raises :class:`repro.errors.StaleManifestError` naming the
    file (never a silent misread).  Version 2 added the top-level
    ``spec.scenario`` name (version-1 manifests predate the scenario
    registry and must be rebuilt by rerunning the sweep).
``cache_version``
    The point-payload :data:`CACHE_VERSION` the sweep wrote under.
``created`` / ``completed``
    UTC ISO-8601 timestamps; ``completed`` is ``null`` until the sweep
    finishes, so an interrupted run is recognisable at a glance.
``spec``
    The grid in canonical form: ``scenario`` (the registered
    :mod:`repro.scenarios` name the whole grid ran under), ``base``
    (the full :class:`~repro.sim.runner.RunnerConfig`), ``policies``,
    ``arrival_rates`` and ``seeds``.
``base_config_diff``
    The base config's deviations from a default
    :class:`~repro.sim.runner.RunnerConfig` as ``{dotted.field:
    [default, actual]}`` — provenance you can read without diffing
    JSON blobs (the per-point ``arrival_rate``/``seed`` placeholders
    are excluded).
``points``
    The point → key map: ``{cache_key: {policy, arrival_rate, seed}}``
    for every grid cell, so any ``<key>.json`` can be traced back to
    its coordinates (and orphaned keys can be garbage-collected with
    :meth:`SweepCache.gc`).

:meth:`SweepCache.manifest` reads and validates it;
:meth:`SweepCache.diff` compares two cache directories' specs field by
field (cross-run provenance: *which knob changed between these runs?*).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.policies import (
    AdaptiveHedgePolicy,
    AdaptiveReissuePolicy,
    BasicPolicy,
    HedgedPolicy,
    Policy,
    REDPolicy,
    ReissuePolicy,
)
from repro.errors import (
    CacheCorruptionError,
    ConfigurationError,
    ExperimentError,
    StaleManifestError,
    SweepCacheError,
    SweepExecutionError,
    SweepLookupError,
    WorkerTaskError,
)
from repro.sim.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    resolve_backend,
)
from repro.sim.runner import ExperimentRunner, PolicyResult, RunnerConfig

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "SweepProgress",
    "SweepResult",
    "SweepCache",
    "ParallelSweepRunner",
    "parallel_map",
    "point_cache_key",
    "policy_from_name",
    "estimated_point_cost_s",
    "SIM_WALL_S_PER_NODE_SECOND",
    "CACHE_VERSION",
    "MANIFEST_VERSION",
]

#: Bump when the cached payload layout (or anything that invalidates
#: old results, e.g. a metric-convention fix) changes.
CACHE_VERSION = 1

#: Bump when the ``manifest.json`` layout changes (see the module
#: docstring for the schema).
MANIFEST_VERSION = 2

#: The manifest's filename inside a cache directory.
MANIFEST_NAME = "manifest.json"


# ----------------------------------------------------------------------
# grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One cell of the grid: (policy, arrival rate, seed)."""

    policy: Policy
    arrival_rate: float
    seed: int

    def describe(self) -> str:
        """Short human-readable cell name."""
        return f"{self.policy.name} @ {self.arrival_rate:g} req/s, seed {self.seed}"


@dataclass(frozen=True)
class SweepSpec:
    """A policies × arrival rates × seeds grid over one base config.

    The base config's own ``arrival_rate`` and ``seed`` are placeholders
    — each point replaces them with its grid coordinates.
    """

    base: RunnerConfig
    policies: Tuple[Policy, ...]
    arrival_rates: Tuple[float, ...]
    seeds: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not self.policies:
            raise ExperimentError("sweep needs at least one policy")
        if not self.arrival_rates:
            raise ExperimentError("sweep needs at least one arrival rate")
        if not self.seeds:
            raise ExperimentError("sweep needs at least one seed")
        if any(r <= 0 for r in self.arrival_rates):
            raise ExperimentError("arrival rates must be positive")
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ExperimentError(f"duplicate policy names in sweep: {names}")
        if len(set(self.arrival_rates)) != len(self.arrival_rates):
            raise ExperimentError(
                f"duplicate arrival rates in sweep: {self.arrival_rates}"
            )
        if len(set(self.seeds)) != len(self.seeds):
            raise ExperimentError(f"duplicate seeds in sweep: {self.seeds}")

    @property
    def scenario(self) -> str:
        """The registered scenario name the whole grid runs under."""
        return self.base.scenario

    @property
    def n_points(self) -> int:
        """Grid size."""
        return len(self.policies) * len(self.arrival_rates) * len(self.seeds)

    def points(self) -> List[SweepPoint]:
        """All grid cells, rate-major (the Fig. 6 presentation order)."""
        return [
            SweepPoint(policy=p, arrival_rate=r, seed=s)
            for r in self.arrival_rates
            for p in self.policies
            for s in self.seeds
        ]

    def runner_config(self, point: SweepPoint) -> RunnerConfig:
        """The fully resolved :class:`RunnerConfig` for one cell."""
        return replace(
            self.base, arrival_rate=point.arrival_rate, seed=point.seed
        )

    def point_keys(self) -> Dict[str, dict]:
        """The manifest's point → key map, in grid order.

        ``{cache_key: {"policy": ..., "arrival_rate": ..., "seed": ...}}``
        for every cell — the readable inverse of the opaque filenames.
        """
        return {
            point_cache_key(self.runner_config(p), p.policy): {
                "policy": p.policy.name,
                "arrival_rate": p.arrival_rate,
                "seed": p.seed,
            }
            for p in self.points()
        }


# ----------------------------------------------------------------------
# per-point cost estimation (feeds the cost-aware auto backend rule)
# ----------------------------------------------------------------------
#: Coarse wall-clock calibration: seconds of compute per *simulated
#: node-second* of a sweep point (`n_intervals × interval_s × n_nodes`).
#: A quick Fig. 6 point (16 nodes, 6×30 s: 2880 node-seconds) measured
#: a median of 0.088–0.117 s serial wall over the grid's 18 points in
#: three runs on a 2-vCPU x86-64 host, i.e. 3.1e-5–4.1e-5 s per
#: node-second.  It only has to rank a point against the 2 s spawn-tax
#: cutoff, so a factor of a few either way does not change the routing
#: decision; measured cache timings override it on resumed sweeps.
SIM_WALL_S_PER_NODE_SECOND = 4e-5


def estimated_point_cost_s(config: RunnerConfig) -> float:
    """Expected wall-clock of one sweep point, from its spec alone.

    The simulation work scales with how much cluster-time one point
    simulates: every interval advances the churn engine and serves
    requests across ``n_nodes`` nodes for ``interval_s`` seconds.  The
    product times :data:`SIM_WALL_S_PER_NODE_SECOND` is deliberately
    coarse — it exists to answer one question for
    :func:`repro.sim.backends.auto_backend`: *is this point expensive
    relative to a worker's spawn tax?*
    """
    node_seconds = config.n_intervals * config.interval_s * config.n_nodes
    return float(node_seconds * SIM_WALL_S_PER_NODE_SECOND)


# ----------------------------------------------------------------------
# stable hashing of configs and policies
# ----------------------------------------------------------------------
def _canonical(obj):
    """Recursively convert configs/policies to canonical JSON-able form.

    Dataclass instances carry their class name so that, e.g., a
    ``StaticThreshold`` and an ``AdaptiveThreshold`` with coincidentally
    equal field values hash differently.

    A dataclass may declare ``__digest_default_omit__`` — a mapping of
    field name to its *inert* value — and such fields are omitted from
    the canonical form while they hold that value.  This is how a field
    added after caches exist keeps every pre-existing digest (and spool
    job payload — the codec's decoder defaults missing fields) byte-
    identical until someone actually turns the feature on.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__class__": type(obj).__name__}
        omit = getattr(type(obj), "__digest_default_omit__", None)
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if omit is not None and f.name in omit and value == omit[f.name]:
                continue
            out[f.name] = _canonical(value)
        return out
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    # numpy scalars and anything else with .item()
    item = getattr(obj, "item", None)
    if callable(item):
        return _canonical(item())
    raise ConfigurationError(
        f"cannot canonicalise {type(obj).__name__!r} for sweep hashing"
    )


def point_cache_key(config: RunnerConfig, policy: Policy) -> str:
    """Stable cache key for one sweep point.

    Hashes the *full* runner config (which embeds the point's arrival
    rate and seed) together with the policy descriptor — i.e. the
    (config hash, policy, rate, seed) identity of the point.  Any knob
    change produces a different key, so stale results are never served.
    """
    payload = {
        "version": CACHE_VERSION,
        "config": _canonical(config),
        "policy": _canonical(policy),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# on-disk results cache
# ----------------------------------------------------------------------
def _utc_now() -> str:
    """UTC ISO-8601 timestamp for manifest provenance."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _atomic_write_json(path: Path, payload: dict, indent=None) -> None:
    """Write JSON via temp-file-then-rename so readers never see a
    half-written file.

    The temp file lives in the target directory (``os.replace`` must
    not cross filesystems) and is flushed + fsynced before the rename,
    so even a hard kill mid-write leaves either the old content or the
    new — never a truncated hybrid.  A per-call nonce in the temp name
    keeps two writers of one path in the same process (a spool claim
    under heartbeat, one cache point stored by two in-process sweeps)
    off each other's temp file; the ``tmp-<pid>`` tail is what
    :func:`_reap_temp_files` reads to spare live writers.
    """
    tmp = path.with_name(
        f"{path.stem}-{os.urandom(4).hex()}.tmp-{os.getpid()}"
    )
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _reap_temp_files(*directories: Path) -> List[Path]:
    """Delete ``*.tmp-<pid>`` files abandoned by dead writers; returns
    the removed paths.

    A temp file whose writer pid is still alive is an in-flight atomic
    write and is left alone (deleting it would crash that writer's
    rename); a tail that is not a pid cannot be one of ours in flight.
    """
    removed: List[Path] = []
    for directory in directories:
        for path in directory.glob("*.tmp-*"):
            pid_str = path.name.rpartition("tmp-")[2]
            if pid_str.isdigit() and _pid_alive(int(pid_str)):
                continue
            path.unlink(missing_ok=True)
            removed.append(path)
    return removed


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but is not ours
    except OverflowError:
        return False  # not a representable pid on this system
    return True


def _config_diff(a, b, prefix: str = "") -> Dict[str, tuple]:
    """Recursive diff of two canonical config trees.

    Returns ``{dotted.path: (a_value, b_value)}`` for every leaf where
    the trees disagree (including paths present on only one side).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out: Dict[str, tuple] = {}
        for key in sorted(set(a) | set(b)):
            sub_prefix = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if key not in a:
                out[sub_prefix] = (None, b[key])
            elif key not in b:
                out[sub_prefix] = (a[key], None)
            else:
                out.update(_config_diff(a[key], b[key], sub_prefix))
        return out
    if a != b:
        return {prefix or "<root>": (a, b)}
    return {}


class SweepCache:
    """On-disk JSON memo of completed sweep points, plus provenance.

    One file per point (``<key>.json``), written atomically (temp file
    + rename + fsync) so a crash mid-write can never leave a
    half-written entry, and concurrent sweeps over overlapping grids
    are safe.  A *stale-version* entry (valid JSON, older
    :data:`CACHE_VERSION`) reads as a miss and is recomputed; a
    *corrupt* entry (truncated/garbage content) raises
    :class:`~repro.errors.CacheCorruptionError` naming the file —
    atomic writes make corruption impossible to self-inflict, so it is
    never silently papered over.

    A ``manifest.json`` (see the module docstring for the schema)
    records what grid the keys belong to; :meth:`manifest`,
    :meth:`diff` and :meth:`gc` are the provenance APIs over it.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Location of one entry."""
        return self.root / f"{key}.json"

    @property
    def manifest_path(self) -> Path:
        """Location of the manifest."""
        return self.root / MANIFEST_NAME

    def _point_paths(self):
        """Point-entry files (the manifest is not a point)."""
        return (
            p for p in self.root.glob("*.json") if p.name != MANIFEST_NAME
        )

    def _read_json(self, path: Path) -> Optional[dict]:
        """Parse one cache file; missing → ``None``, garbage → raise."""
        try:
            with path.open("r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CacheCorruptionError(
                f"sweep cache file {path} is corrupt ({exc.__class__.__name__}: "
                f"{exc}); delete that file (the sweep will recompute the "
                "point, or rebuild the manifest) to recover",
                path=path,
            ) from exc

    def load(self, key: str) -> Optional[PolicyResult]:
        """Return the memoized result for ``key``, or ``None`` on miss.

        Raises :class:`~repro.errors.CacheCorruptionError` (naming the
        file) if the entry exists but is not valid JSON or its result
        payload cannot be decoded; a version mismatch is a plain miss.
        """
        path = self.path_for(key)
        payload = self._read_json(path)
        if payload is None:
            return None
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            return None
        try:
            return PolicyResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheCorruptionError(
                f"sweep cache file {path} has an undecodable result payload "
                f"({exc.__class__.__name__}: {exc})",
                path=path,
            ) from exc

    def store(
        self, key: str, point: SweepPoint, result: PolicyResult
    ) -> Path:
        """Atomically persist one completed point."""
        path = self.path_for(key)
        payload = {
            "version": CACHE_VERSION,
            "key": key,
            "policy": point.policy.name,
            "arrival_rate": point.arrival_rate,
            "seed": point.seed,
            "result": result.to_dict(),
        }
        _atomic_write_json(path, payload)
        return path

    # -- manifest / provenance -----------------------------------------
    @staticmethod
    def _spec_payload(spec: SweepSpec) -> dict:
        """The manifest's canonical description of a grid."""
        return {
            "scenario": spec.scenario,
            "base": _canonical(spec.base),
            "policies": [_canonical(p) for p in spec.policies],
            "arrival_rates": list(spec.arrival_rates),
            "seeds": list(spec.seeds),
        }

    def begin_manifest(self, spec: SweepSpec) -> dict:
        """Write (or refresh) the manifest for ``spec`` at sweep start.

        Re-running the *same* grid keeps the original ``created``
        timestamp (the cache's age is real provenance); a different
        grid over the same directory rewrites the manifest from
        scratch.  ``completed`` is reset to ``null`` until
        :meth:`complete_manifest`.
        """
        spec_payload = self._spec_payload(spec)
        created = _utc_now()
        try:
            existing = self.manifest()
        except StaleManifestError:
            # An older-schema manifest is legitimately superseded here;
            # *corruption* still propagates — damage is never silently
            # overwritten.
            existing = None
        if existing is not None and existing.get("spec") == spec_payload:
            created = existing.get("created", created)
        manifest = {
            "schema_version": MANIFEST_VERSION,
            "cache_version": CACHE_VERSION,
            "created": created,
            "completed": None,
            "spec": spec_payload,
            "base_config_diff": {
                k: list(v)
                for k, v in _config_diff(
                    _canonical(RunnerConfig()), _canonical(spec.base)
                ).items()
                if k not in ("arrival_rate", "seed")  # per-point placeholders
            },
            "points": spec.point_keys(),
        }
        _atomic_write_json(self.manifest_path, manifest, indent=2)
        return manifest

    def complete_manifest(self, spec: Optional[SweepSpec] = None) -> dict:
        """Stamp ``completed`` on the manifest at sweep end.

        With ``spec`` given, the stamp only lands if the on-disk
        manifest still describes that grid: a concurrent sweep over a
        *different* grid may have rewritten the manifest since this
        sweep began, and stamping its (unfinished) grid as completed
        would poison downstream ``gc``/aggregation.
        """
        manifest = self.manifest()
        if manifest is None:
            raise SweepCacheError(
                f"no {MANIFEST_NAME} in {self.root} to complete",
                path=self.manifest_path,
            )
        if spec is not None and manifest.get("spec") != self._spec_payload(spec):
            return manifest  # another grid owns the manifest now
        manifest["completed"] = _utc_now()
        _atomic_write_json(self.manifest_path, manifest, indent=2)
        return manifest

    def manifest(self) -> Optional[dict]:
        """Read and validate the manifest; ``None`` when absent.

        Raises :class:`~repro.errors.CacheCorruptionError` on garbage
        content and :class:`~repro.errors.StaleManifestError` when the
        schema version does not match :data:`MANIFEST_VERSION` — both
        name the offending file.
        """
        payload = self._read_json(self.manifest_path)
        if payload is None:
            return None
        version = payload.get("schema_version") if isinstance(payload, dict) else None
        if version != MANIFEST_VERSION:
            raise StaleManifestError(
                f"{self.manifest_path} has manifest schema version "
                f"{version!r}; this build reads version {MANIFEST_VERSION} "
                "— rebuild the cache (rerun the sweep) or aggregate it "
                "with the matching build",
                path=self.manifest_path,
            )
        missing = [k for k in ("spec", "points", "created") if k not in payload]
        if missing:
            raise CacheCorruptionError(
                f"{self.manifest_path} is missing manifest field(s) "
                f"{', '.join(missing)}; delete it and rerun the sweep to "
                "rebuild provenance",
                path=self.manifest_path,
            )
        return payload

    def diff(self, other: Union["SweepCache", dict, str, Path]) -> Dict[str, tuple]:
        """Spec difference between this cache and another run.

        ``other`` may be another :class:`SweepCache`, a cache directory
        path, or an already-read manifest dict.  Returns ``{dotted.path:
        (mine, theirs)}`` over the manifests' ``spec`` trees — empty
        when the two runs swept the same grid.
        """
        mine = self.manifest()
        if mine is None:
            raise SweepCacheError(
                f"no {MANIFEST_NAME} in {self.root} to diff",
                path=self.manifest_path,
            )
        if isinstance(other, (str, Path)):
            other = SweepCache(other)
        if isinstance(other, SweepCache):
            theirs = other.manifest()
            if theirs is None:
                raise SweepCacheError(
                    f"no {MANIFEST_NAME} in {other.root} to diff against",
                    path=other.manifest_path,
                )
        else:
            theirs = other
        return _config_diff(mine["spec"], theirs["spec"])

    def gc(self, spool=None) -> List[Path]:
        """Remove point files not named by the manifest, plus temp
        files abandoned by dead writers; returns the removed paths.

        This is how a cache directory shared across evolving grids is
        kept bounded: keys from abandoned configurations are orphans
        once the manifest describes the current grid.  Temp files are
        reaped by :func:`_reap_temp_files` (live writers spared).

        With ``spool`` (a directory path or
        :class:`~repro.sim.distributed.SweepSpool`), stale *spool*
        artifacts are reaped too — expired claim files, dead-worker
        presence files, and orphaned temp files.  Run spool gc on idle
        spools (see :meth:`SweepSpool.gc <repro.sim.distributed.
        SweepSpool.gc>`).
        """
        manifest = self.manifest()
        if manifest is None:
            raise SweepCacheError(
                f"no {MANIFEST_NAME} in {self.root}; gc needs a manifest to "
                "know which keys are live",
                path=self.manifest_path,
            )
        live = set(manifest["points"])
        removed: List[Path] = []
        for path in self._point_paths():
            if path.stem not in live:
                path.unlink(missing_ok=True)
                removed.append(path)
        removed.extend(_reap_temp_files(self.root))
        if spool is not None:
            from repro.sim.distributed import SweepSpool

            if not isinstance(spool, SweepSpool):
                spool = SweepSpool(spool)
            removed.extend(spool.gc())
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._point_paths())

    def clear(self) -> int:
        """Delete all entries (and the manifest); returns how many
        point entries were removed."""
        n = 0
        for path in self._point_paths():
            path.unlink(missing_ok=True)
            n += 1
        self.manifest_path.unlink(missing_ok=True)
        return n


# ----------------------------------------------------------------------
# worker side (must be module-level and picklable for spawn)
# ----------------------------------------------------------------------
#: Per-process memo of trained predictors, keyed by profiling signature.
#: Shared by every thread of the process (the inline path and the
#: sweeps ``repro serve`` runs on daemon threads alike) behind
#: :data:`_PREDICTOR_MEMO_LOCK`; evaluating many policies that share a
#: seed trains once per process instead of once per point.  Bounded
#: (FIFO) because on the serial path it lives in the caller's process
#: for the interpreter's lifetime.
_PREDICTOR_MEMO: Dict[tuple, object] = {}
_PREDICTOR_MEMO_LIMIT = 8
_PREDICTOR_MEMO_LOCK = threading.Lock()
#: One lock per profiling signature so concurrent sweeps needing the
#: same predictor train it once and share it, while points with
#: *different* signatures keep running unserialised.
_PREDICTOR_TRAIN_LOCKS: Dict[tuple, threading.Lock] = {}


def _profiling_signature(config: RunnerConfig) -> tuple:
    """The config fields predictor training depends on (not the rate).

    ``class_mix`` is part of the signature although training itself
    draws only per-component-class profiles: two configs that differ
    in their request-class mix must never share a memo slot, so a
    future mix-aware profiling change cannot silently serve a stale
    predictor.
    """
    return (
        config.seed,
        config.scenario,
        config.scale,
        config.nutch,
        config.profiling,
        config.n_profiling_conditions,
        config.interference_noise,
        config.class_mix,
    )


def _memoize_predictor(signature: tuple, trained: object) -> None:
    """FIFO-bounded insert; caller must not hold the memo lock."""
    with _PREDICTOR_MEMO_LOCK:
        if signature in _PREDICTOR_MEMO:
            return
        while len(_PREDICTOR_MEMO) >= _PREDICTOR_MEMO_LIMIT:
            evicted = next(iter(_PREDICTOR_MEMO))
            _PREDICTOR_MEMO.pop(evicted)
            _PREDICTOR_TRAIN_LOCKS.pop(evicted, None)
        _PREDICTOR_MEMO[signature] = trained


def _trained_for(config: RunnerConfig, policy: Policy):
    """The memoized trained predictor this point needs, or ``None``.

    Policies that never consult the trained model (non-scheduling
    baselines, the oracle ablation) skip training entirely — exactly
    as :meth:`ExperimentRunner.setup` would.  For the rest, the
    per-signature lock makes training happen once per process even
    when concurrent sweeps hit a cold memo simultaneously; training is
    deterministic given the signature (it draws only from
    ``RngRegistry(seed)``'s ``"profiling"`` stream), so who trains
    cannot change any number.
    """
    if not policy.schedules or getattr(policy, "use_oracle", False):
        return None
    signature = _profiling_signature(config)
    with _PREDICTOR_MEMO_LOCK:
        trained = _PREDICTOR_MEMO.get(signature)
        lock = _PREDICTOR_TRAIN_LOCKS.setdefault(signature, threading.Lock())
    if trained is not None:
        return trained
    with lock:
        with _PREDICTOR_MEMO_LOCK:
            trained = _PREDICTOR_MEMO.get(signature)
        if trained is None:
            trained = ExperimentRunner(config).trained_predictor()
            _memoize_predictor(signature, trained)
    return trained


def _execute_point(config: RunnerConfig, policy: Policy) -> PolicyResult:
    """Run one sweep point (in a worker of any backend, or inline)."""
    runner = ExperimentRunner(config, trained=_trained_for(config, policy))
    result = runner.run(policy)
    if runner.trained is not None:
        # Belt for policy types outside _trained_for's fast paths.
        _memoize_predictor(_profiling_signature(config), runner.trained)
    return result


def _execute_task(task: Tuple[RunnerConfig, Policy]) -> PolicyResult:
    """Backend-shaped trampoline: one picklable argument per task."""
    config, policy = task
    return _execute_point(config, policy)


def parallel_map(
    fn: Callable,
    items: Sequence,
    workers: int = 1,
    backend: Union[str, ExecutionBackend, None] = None,
    est_cost_s: Optional[float] = None,
) -> list:
    """Order-preserving map over an execution backend.

    ``backend`` is an :class:`~repro.sim.backends.ExecutionBackend`, a
    name (``serial``/``process``), or ``None``/``"auto"`` for the
    default rule: spawn processes when ``est_cost_s`` (the caller's
    expected per-item compute) marks the items expensive or the batch
    is large, inline otherwise.  For the process backend ``fn`` must be
    a module-level function and every item picklable (spawn re-imports
    the module in each worker).

    Failure contract (uniform across backends, including serial): a
    raising ``fn`` surfaces as :class:`~repro.errors.WorkerTaskError`
    carrying the failing item's index, chained to the original
    exception where no pickle boundary intervenes.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    items = list(items)
    resolved = resolve_backend(
        backend, workers, len(items), est_cost_s=est_cost_s
    )
    return resolved.map(fn, items)


# ----------------------------------------------------------------------
# progress + results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepProgress:
    """One progress tick: a point finished (freshly or from cache)."""

    done: int
    total: int
    point: SweepPoint
    result: PolicyResult
    from_cache: bool
    elapsed_s: float

    def render(self) -> str:
        """One status line, e.g. for a verbose console."""
        source = "cache" if self.from_cache else "run"
        return (
            f"[{self.done:>{len(str(self.total))}d}/{self.total}] "
            f"({source:>5s}, {self.elapsed_s:6.1f}s) {self.result.render()}"
        )


@dataclass
class SweepResult:
    """Every grid cell's :class:`PolicyResult`, in grid order."""

    spec: SweepSpec
    results: Dict[SweepPoint, PolicyResult]
    wall_time_s: float
    cache_hits: int = 0
    #: Lazy coordinate index — built once, so :meth:`get` is a dict
    #: lookup instead of a per-call scan over every grid cell.
    _coord_index: Optional[Dict[Tuple[str, float, int], PolicyResult]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _index(self) -> Dict[Tuple[str, float, int], PolicyResult]:
        if self._coord_index is None:
            self._coord_index = {
                (point.policy.name, point.arrival_rate, point.seed): result
                for point, result in self.results.items()
            }
        return self._coord_index

    def get(
        self, policy_name: str, arrival_rate: float, seed: Optional[int] = None
    ) -> PolicyResult:
        """Look one cell up by coordinates.

        ``seed=None`` returns the first grid seed's slice.  A miss
        raises :class:`~repro.errors.SweepLookupError` listing the
        coordinates the grid actually has.
        """
        index = self._index()
        seeds = self.spec.seeds if seed is None else (seed,)
        for s in seeds:
            result = index.get((policy_name, arrival_rate, s))
            if result is not None:
                return result
        raise SweepLookupError(
            f"no sweep cell ({policy_name}, {arrival_rate:g}, seed {seed}); "
            f"grid has policies {[p.name for p in self.spec.policies]}, "
            f"arrival rates {[f'{r:g}' for r in self.spec.arrival_rates]}, "
            f"seeds {list(self.spec.seeds)}"
        )

    def by_rate(
        self, seed: Optional[int] = None
    ) -> Dict[float, Dict[str, PolicyResult]]:
        """The Fig. 6 shape: ``{rate: {policy name: result}}``.

        With multiple seeds in the grid, ``seed`` selects which slice;
        with one seed it may be omitted.
        """
        if seed is None:
            if len(self.spec.seeds) != 1:
                raise ExperimentError(
                    f"grid has seeds {self.spec.seeds}; pass seed= to by_rate"
                )
            seed = self.spec.seeds[0]
        if seed not in self.spec.seeds:
            raise ExperimentError(f"seed {seed} not in grid {self.spec.seeds}")
        out: Dict[float, Dict[str, PolicyResult]] = {
            r: {} for r in self.spec.arrival_rates
        }
        for point, result in self.results.items():
            if point.seed == seed:
                out[point.arrival_rate][point.policy.name] = result
        return out

    def summary(self, config=None) -> "object":
        """Reduce this sweep across seeds (see :mod:`repro.sim.aggregate`).

        Returns a :class:`~repro.sim.aggregate.SweepSummary`: one
        mean/CI aggregate per (policy, arrival rate).  The import is
        late because :mod:`repro.sim.aggregate` layers on top of this
        module.
        """
        from repro.sim.aggregate import AggregateConfig, SweepSummary

        return SweepSummary.from_sweep(
            self, config=config or AggregateConfig()
        )

    def render(self) -> str:
        """Per-cell one-liners plus a footer."""
        lines = [
            f"seed {point.seed} | {result.render()}"
            for point, result in self.results.items()
        ]
        lines.append(
            f"{len(self.results)} points "
            f"({self.cache_hits} from cache) in {self.wall_time_s:.1f} s"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class ParallelSweepRunner:
    """Executes a :class:`SweepSpec`, optionally in parallel and cached.

    Parameters
    ----------
    spec:
        The grid to run.
    workers:
        Worker count for the process backend.  ``1`` (default)
        runs everything inline in this process — the exact serial path.
        Results are identical for every worker count (see the module
        docstring's determinism contract).
    cache:
        ``None`` (no memoization), a directory path, or a ready
        :class:`SweepCache`.  Completed points are persisted as they
        finish, so an interrupted sweep resumes where it stopped.
    progress:
        Optional callback invoked with a :class:`SweepProgress` after
        every point (cache hits included), in completion order.
    backend:
        How pending points execute: an
        :class:`~repro.sim.backends.ExecutionBackend`, a name
        (``serial``/``process``/``distributed``), or ``None``/``"auto"``
        (default) for the rule in the module docstring's *Choosing an
        execution backend* section — serial for one worker or a small
        set of cheap pending points, spawn processes otherwise.
        Bit-identical results for every choice.
    spool:
        Shared spool directory for the distributed backend (required
        with ``backend="distributed"``; offered to ``auto``, which
        routes expensive grids there — see the module docstring).
    wait_workers:
        Distributed only: block until this many live spool workers are
        registered before dispatching jobs.
    """

    def __init__(
        self,
        spec: SweepSpec,
        workers: int = 1,
        cache: Union[SweepCache, str, Path, None] = None,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        spool: Union[str, Path, None] = None,
        wait_workers: int = 0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if (
            isinstance(backend, str)
            and backend != "auto"
            and backend not in BACKEND_NAMES
        ):
            raise ConfigurationError(
                f"unknown execution backend {backend!r} (expected auto, "
                f"{', '.join(BACKEND_NAMES)}, or an ExecutionBackend)"
            )
        if backend == "distributed" and spool is None:
            raise ConfigurationError(
                "backend='distributed' needs a spool directory (spool=/"
                "--spool DIR) shared with its workers"
            )
        if wait_workers < 0:
            raise ConfigurationError(
                f"wait_workers must be >= 0, got {wait_workers}"
            )
        self.spec = spec
        self.workers = workers
        if cache is not None and not isinstance(cache, SweepCache):
            cache = SweepCache(cache)
        self.cache = cache
        self.progress = progress
        self.backend = backend
        self.spool = spool
        self.wait_workers = wait_workers

    # -- internals ------------------------------------------------------
    def _emit(
        self,
        done: int,
        total: int,
        point: SweepPoint,
        result: PolicyResult,
        from_cache: bool,
        t0: float,
    ) -> None:
        if self.progress is not None:
            self.progress(
                SweepProgress(
                    done=done,
                    total=total,
                    point=point,
                    result=result,
                    from_cache=from_cache,
                    elapsed_s=time.perf_counter() - t0,
                )
            )

    def _finish(
        self,
        point: SweepPoint,
        key: str,
        result: PolicyResult,
        results: Dict[SweepPoint, PolicyResult],
    ) -> None:
        results[point] = result
        if self.cache is not None:
            self.cache.store(key, point, result)

    def _estimate_point_cost(self, cached) -> float:
        """Expected per-point wall-clock for the auto backend rule.

        Prefers the *measured* mean wall-clock of this run's cache
        hits (same grid, same host — the best predictor of the pending
        points) and falls back to the spec-based
        :func:`estimated_point_cost_s` on a cold cache.
        """
        timed = [r.wall_time_s for r in cached if r.wall_time_s > 0]
        if timed:
            return float(sum(timed) / len(timed))
        return estimated_point_cost_s(self.spec.base)

    def _resolve_backend(self, n_pending: int, cached) -> ExecutionBackend:
        """The backend the pending points will run on (cost-aware auto)."""
        return resolve_backend(
            self.backend,
            self.workers,
            n_pending,
            est_cost_s=self._estimate_point_cost(cached),
            spool=self.spool,
            wait_workers=self.wait_workers,
        )

    # -- public API -----------------------------------------------------
    def run(self) -> SweepResult:
        """Execute every grid point; returns all results in grid order."""
        t0 = time.perf_counter()
        points = self.spec.points()
        total = len(points)
        results: Dict[SweepPoint, PolicyResult] = {}
        cache_hits = 0
        pending: List[Tuple[SweepPoint, RunnerConfig, str]] = []

        if self.cache is not None:
            self.cache.begin_manifest(self.spec)

        for point in points:
            config = self.spec.runner_config(point)
            key = point_cache_key(config, point.policy)
            cached = self.cache.load(key) if self.cache is not None else None
            if cached is not None:
                results[point] = cached
                cache_hits += 1
                self._emit(len(results), total, point, cached, True, t0)
            else:
                pending.append((point, config, key))

        # The backend seam: auto picks serial for one worker or a small
        # set of cheap pending points (a spawn worker would pay an
        # interpreter + numpy import and a cold predictor memo for
        # nothing), processes when the estimated per-point cost
        # outweighs the spawn tax (measured cache-hit timings when
        # resuming, the spec-based estimate otherwise) or the pending
        # set is large; an explicit backend is honoured as given.
        if pending:
            backend = self._resolve_backend(len(pending), results.values())
            tasks = [(config, point.policy) for point, config, key in pending]
            try:
                for index, result in backend.imap_unordered(
                    _execute_task, tasks
                ):
                    point, _, key = pending[index]
                    self._finish(point, key, result, results)
                    self._emit(len(results), total, point, result, False, t0)
            except WorkerTaskError as err:
                # Peers that finished before the failure are already in
                # the cache; the backend cancelled everything else.  Name
                # the failing point instead of leaking a bare traceback.
                failed: Optional[SweepPoint] = (
                    pending[err.index][0]
                    if err.index is not None and 0 <= err.index < len(pending)
                    else None
                )
                where = failed.describe() if failed else "unknown point"
                raise SweepExecutionError(
                    f"sweep point {where} failed on the {backend.name} "
                    f"backend: {err} ({len(results)}/{total} points "
                    "completed; completed points remain cached and a rerun "
                    "resumes from them)",
                    policy=failed.policy.name if failed else None,
                    arrival_rate=failed.arrival_rate if failed else None,
                    seed=failed.seed if failed else None,
                ) from err

        if self.cache is not None:
            self.cache.complete_manifest(self.spec)

        # Grid order, whatever the completion order was.
        ordered = {point: results[point] for point in points}
        return SweepResult(
            spec=self.spec,
            results=ordered,
            wall_time_s=time.perf_counter() - t0,
            cache_hits=cache_hits,
        )


# ----------------------------------------------------------------------
# policy-name parsing (CLI / config files)
# ----------------------------------------------------------------------
def policy_from_name(name: str) -> Policy:
    """Map a Fig. 6 legend name to its policy descriptor.

    Accepts ``Basic``, ``RED-<k>`` (k >= 2), ``RI-<p>`` (percent in
    (0, 100)), ``Hedge`` / ``Hedge-<ms>`` (fixed-delay hedging,
    optionally with the delay in milliseconds), their online-tuned
    counterparts ``ARI-<p>`` (adaptive reissue) and ``AHedge`` /
    ``AHedge-<p>`` (quantile-tracking hedge), and ``PCS`` (the
    adaptive-threshold configuration the Fig. 6 reproduction uses).
    """
    label = name.strip()
    if label.lower() == "basic":
        return BasicPolicy()
    if label.lower() == "hedge":
        return HedgedPolicy()
    if label.lower() == "ahedge":
        return AdaptiveHedgePolicy()
    if label.lower() == "pcs":
        # Late import: experiments sits above sim in the layering.
        from repro.experiments.fig6 import paper_pcs_policy

        return paper_pcs_policy()
    head, sep, tail = label.partition("-")
    if sep and head.upper() == "RED":
        try:
            return REDPolicy(replicas=int(tail))
        except ValueError as exc:
            raise ConfigurationError(f"bad RED policy {name!r}") from exc
    if sep and head.upper() == "RI":
        try:
            return ReissuePolicy(quantile=int(tail) / 100.0)
        except ValueError as exc:
            raise ConfigurationError(f"bad RI policy {name!r}") from exc
    if sep and head.upper() == "ARI":
        try:
            return AdaptiveReissuePolicy(quantile=int(tail) / 100.0)
        except ValueError as exc:
            raise ConfigurationError(f"bad ARI policy {name!r}") from exc
    if sep and head.upper() == "AHEDGE":
        try:
            return AdaptiveHedgePolicy(quantile=int(tail) / 100.0)
        except ValueError as exc:
            raise ConfigurationError(f"bad AHedge policy {name!r}") from exc
    if sep and head.upper() == "HEDGE":
        try:
            return HedgedPolicy(hedge_delay_s=float(tail.rstrip("ms")) / 1e3)
        except ValueError as exc:
            raise ConfigurationError(f"bad Hedge policy {name!r}") from exc
    raise ConfigurationError(
        f"unknown policy {name!r} (expected Basic, RED-<k>, RI-<p>, "
        "Hedge[-<ms>], ARI-<p>, AHedge[-<p>] or PCS)"
    )
