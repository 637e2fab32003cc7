"""Algorithm 1: Predictive Component-level Scheduling.

The greedy loop, as in the paper:

1. construct the performance matrix ``L`` (line 2);
2. all components start as migration candidates (line 3);
3. while candidates remain and the best predicted reduction exceeds
   the threshold ε (line 5):

   a. find the entry set ``SL`` with the largest ``L`` value (line 6);
   b. among ties, pick the migration that most reduces the migrated
      component's *own* latency (line 7) — the ``R`` matrix;
   c. enforce the migration in the allocation array, remove the
      component from the candidates (lines 10–12);
   d. update the matrix (line 13 / Algorithm 2).

Complexity O(m²·k) per scheduling interval (§V), which Fig. 7 measures;
the scheduler therefore separates *analysis time* (matrix construction)
from *search time* (the greedy loop) in its outcome record.  The
matrix kernel (:mod:`repro.model.matrix`) predicts m² latencies for
the build (each row against every component) and m·n for one
Algorithm 2 update, n being the components on the two moved nodes;
stage maxima add m·k·S array entries per build and a k²·S table per
allocation.

The matrix validates the predictor's Eq. 2 inputs once, when the
scheduler constructs it for a decision, and reuses its contention buffer
across the build and every update of that decision.  The loop keeps
its candidates as a boolean mask over the rows: line 6's tie set is
read in candidate-row order, then column order, from the rows whose
best entry reaches the largest value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import SchedulingError
from repro.model.matrix import MatrixInputs, PerformanceMatrix
from repro.model.predictor import LatencyPredictor
from repro.scheduler.threshold import StaticThreshold, ThresholdPolicy

__all__ = ["SchedulerConfig", "Migration", "SchedulingOutcome", "PCSScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of Algorithm 1.

    Attributes
    ----------
    threshold:
        The ε policy (paper default: static 5 ms).
    update_mode:
        ``"algorithm2"`` — the paper's partial matrix update;
        ``"full"`` — exact rebuild of all candidate rows each loop
        (slower, used as the fidelity reference in ablations).
    build_method:
        ``"fast"`` (vectorised) or ``"reference"`` matrix construction.
    max_migrations:
        Optional hard cap per interval (the paper observes 10–20).
    tie_tolerance:
        Relative tolerance for "entries with the largest value" —
        floating-point ties within this factor form the set SL.
    """

    threshold: ThresholdPolicy = field(default_factory=StaticThreshold)
    update_mode: str = "algorithm2"
    build_method: str = "fast"
    max_migrations: Optional[int] = None
    tie_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.update_mode not in ("algorithm2", "full"):
            raise SchedulingError(f"unknown update_mode {self.update_mode!r}")
        if self.build_method not in ("fast", "reference"):
            raise SchedulingError(f"unknown build_method {self.build_method!r}")
        if self.max_migrations is not None and self.max_migrations < 0:
            raise SchedulingError("max_migrations must be >= 0")
        if self.tie_tolerance < 0:
            raise SchedulingError("tie_tolerance must be >= 0")


@dataclass(frozen=True)
class Migration:
    """One enforced component-node migration."""

    component_index: int
    origin: int
    destination: int
    predicted_gain_s: float
    self_gain_s: float


@dataclass
class SchedulingOutcome:
    """Everything one scheduling interval produced."""

    migrations: List[Migration]
    initial_overall_s: float
    final_overall_s: float
    analysis_time_s: float
    search_time_s: float
    assignment: np.ndarray

    @property
    def n_migrations(self) -> int:
        """Number of migrations enforced."""
        return len(self.migrations)

    @property
    def predicted_reduction_s(self) -> float:
        """Total predicted overall-latency reduction."""
        return self.initial_overall_s - self.final_overall_s

    @property
    def total_time_s(self) -> float:
        """Analysis + search wall-clock (the Fig. 7 quantity)."""
        return self.analysis_time_s + self.search_time_s

    def summary(self) -> dict:
        """JSON-serialisable digest for status surfaces.

        What a control plane reports about one decision without
        shipping the full migration list or the allocation array: how
        many moves, the predicted overall before/after, and where the
        time went (the control surface's ``/status`` consumes this).
        """
        return {
            "n_migrations": self.n_migrations,
            "initial_overall_s": self.initial_overall_s,
            "final_overall_s": self.final_overall_s,
            "predicted_reduction_s": self.predicted_reduction_s,
            "analysis_time_s": self.analysis_time_s,
            "search_time_s": self.search_time_s,
            "total_time_s": self.total_time_s,
        }


class PCSScheduler:
    """Algorithm 1 over a :class:`PerformanceMatrix`."""

    def __init__(
        self, predictor: LatencyPredictor, config: Optional[SchedulerConfig] = None
    ) -> None:
        self.predictor = predictor
        self.config = config or SchedulerConfig()

    def schedule(self, inputs: MatrixInputs) -> SchedulingOutcome:
        """Run one scheduling interval; ``inputs`` is mutated in place to
        the final allocation (callers pass a copy if they need the
        original)."""
        cfg = self.config
        t0 = time.perf_counter()
        pm = PerformanceMatrix(inputs, self.predictor).build(cfg.build_method)
        analysis_time = time.perf_counter() - t0
        initial_overall = pm.current_overall

        t1 = time.perf_counter()
        candidate = np.ones(inputs.m, dtype=bool)
        migrations: List[Migration] = []
        counts = inputs.component_counts()
        while candidate.any():
            if (
                cfg.max_migrations is not None
                and len(migrations) >= cfg.max_migrations
            ):
                break
            epsilon = cfg.threshold.epsilon(pm.current_overall)
            cand_rows = np.flatnonzero(candidate)
            sub = pm.L[cand_rows]
            if inputs.node_limits is not None:
                # Never propose a migration into a node with no free slot.
                sub[:, counts >= inputs.node_limits] = -np.inf
            row_max = sub.max(axis=1)
            lmax = float(row_max.max())
            if lmax <= epsilon:
                break  # line 5/9: no migration clears the threshold
            # Line 6: the set SL of entries sharing the largest value, by
            # candidate row, then column; only rows reaching it can hold one.
            tol = cfg.tie_tolerance * max(1.0, abs(lmax))
            near = np.flatnonzero(row_max >= lmax - tol)
            tie_rows, tie_cols = np.nonzero(sub[near] >= lmax - tol)
            tie_rows = cand_rows[near[tie_rows]]
            # Line 7: break ties on the migrated component's own gain.
            self_gains = pm.R[tie_rows, tie_cols]
            best = int(np.argmax(self_gains))
            cmax = int(tie_rows[best])
            destination = int(tie_cols[best])
            origin = int(inputs.assignment[cmax])
            if destination == origin:  # pragma: no cover - L diagonal is 0
                raise SchedulingError("greedy selected a no-op migration")
            migrations.append(
                Migration(
                    component_index=cmax,
                    origin=origin,
                    destination=destination,
                    predicted_gain_s=lmax,
                    self_gain_s=float(self_gains[best]),
                )
            )
            # Lines 10-13: enforce, retire the component, update matrix.
            pm.apply_migration(cmax, destination)
            counts[origin] -= 1
            counts[destination] += 1
            candidate[cmax] = False
            if not candidate.any():
                break
            if cfg.update_mode == "algorithm2":
                pm.algorithm2_update(
                    cmax, origin, destination, np.flatnonzero(candidate)
                )
            else:
                pm.rebuild_rows(np.flatnonzero(candidate))
        search_time = time.perf_counter() - t1

        return SchedulingOutcome(
            migrations=migrations,
            initial_overall_s=initial_overall,
            final_overall_s=pm.current_overall,
            analysis_time_s=analysis_time,
            search_time_s=search_time,
            assignment=inputs.assignment.copy(),
        )


def exhaustive_best_single_migration(
    inputs: MatrixInputs, predictor: LatencyPredictor
) -> Migration:
    """Brute-force best single migration (test oracle for tiny instances).

    The paper notes exhaustive search over allocations is O(k^m); even
    one exhaustive *step* validates the greedy's first pick.
    """
    pm = PerformanceMatrix(inputs.copy(), predictor).build("reference")
    i, j = np.unravel_index(np.argmax(pm.L), pm.L.shape)
    return Migration(
        component_index=int(i),
        origin=int(inputs.assignment[int(i)]),
        destination=int(j),
        predicted_gain_s=float(pm.L[i, j]),
        self_gain_s=float(pm.R[i, j]),
    )
