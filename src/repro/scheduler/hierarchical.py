"""Hierarchical scheduling for very large services (paper §VI-D).

"For services with more components, the scheduler could apply a
hierarchical strategy that divides the components into small groups of
640 components or less and finds the appropriate component-node
allocation between groups and then within groups.  The scheduling
overhead therefore can remain low even with a large number of
components."

Implementation: components are split into contiguous stage-major chunks
of at most ``group_size``.  Chunks are scheduled one after another with
a *shared, live* node-totals vector, so each chunk sees the allocations
the previous chunks enforced — the "between groups" coordination — and
runs plain Algorithm 1 "within groups".  The per-interval cost drops
from O(m²k) to O(m·group_size·k).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.model.matrix import MatrixInputs
from repro.model.predictor import LatencyPredictor
from repro.scheduler.pcs import (
    Migration,
    PCSScheduler,
    SchedulerConfig,
    SchedulingOutcome,
)

__all__ = ["HierarchicalScheduler", "chunk_predecessors"]


def chunk_predecessors(
    preds: Tuple[Tuple[int, ...], ...], s_first: int, s_last: int
) -> Tuple[Tuple[int, ...], ...]:
    """Restrict a stage DAG to the chunk's stage range, renumbered.

    Edges into stages before the chunk are dropped — those stages'
    contributions are fixed from the chunk's point of view, the same
    cross-chunk approximation the hierarchy already makes for stage
    maxima — which turns their dependents into local entry stages.
    Within the range every edge survives (a predecessor of stage ``s``
    is always earlier, so it can only fall before the chunk, never
    after), keeping the chunk's objective the critical path over its
    own slice of the DAG instead of silently reverting to a chain sum.
    """
    return tuple(
        tuple(p - s_first for p in preds[s] if p >= s_first)
        for s in range(s_first, s_last + 1)
    )


class HierarchicalScheduler:
    """Chunked Algorithm 1 with shared node state."""

    def __init__(
        self,
        predictor: LatencyPredictor,
        config: Optional[SchedulerConfig] = None,
        group_size: int = 640,
    ) -> None:
        if group_size < 1:
            raise SchedulingError(f"group_size must be >= 1, got {group_size}")
        self.group_size = int(group_size)
        self._inner = PCSScheduler(predictor, config)

    def schedule(self, inputs: MatrixInputs) -> SchedulingOutcome:
        """Run chunked scheduling; mutates ``inputs`` to the final
        allocation, like :meth:`PCSScheduler.schedule`."""
        m = inputs.m
        if m <= self.group_size:
            return self._inner.schedule(inputs)

        migrations: List[Migration] = []
        analysis_time = 0.0
        search_time = 0.0
        initial_overall: Optional[float] = None
        final_overall = 0.0
        for start in range(0, m, self.group_size):
            rows = np.arange(start, min(start + self.group_size, m))
            sub_limits = None
            if inputs.node_limits is not None:
                # Slots taken by components outside this chunk still count.
                outside = np.bincount(
                    inputs.assignment, minlength=inputs.k
                ) - np.bincount(inputs.assignment[rows], minlength=inputs.k)
                sub_limits = inputs.node_limits - outside
            s_first = int(inputs.stage_of[rows[0]])
            s_last = int(inputs.stage_of[rows[-1]])
            sub = MatrixInputs(
                # Chunk stages renumbered from 0 so stage_offsets holds;
                # chunks are stage-major contiguous so this is exact
                # *within* the chunk (cross-chunk stage maxima are the
                # approximation the hierarchy buys speed with).
                stage_of=inputs.stage_of[rows] - s_first,
                classes=[inputs.classes[int(r)] for r in rows],
                demands=inputs.demands[rows],
                assignment=inputs.assignment[rows].copy(),
                node_totals=inputs.node_totals,  # shared live view
                arrival_rates=inputs.arrival_rates[rows],
                node_limits=sub_limits,
                # DAG topologies keep their critical-path objective
                # within the chunk (edges to pre-chunk stages drop —
                # the same fixed-outside approximation as above).
                stage_predecessors=(
                    None
                    if inputs.stage_predecessors is None
                    else chunk_predecessors(
                        inputs.stage_predecessors, s_first, s_last
                    )
                ),
            )
            outcome = self._inner.schedule(sub)
            if initial_overall is None:
                initial_overall = outcome.initial_overall_s
            final_overall = outcome.final_overall_s
            analysis_time += outcome.analysis_time_s
            search_time += outcome.search_time_s
            # Fold sub-allocation back into the global arrays; node
            # totals were already updated in place by apply_migration.
            inputs.assignment[rows] = sub.assignment
            for mig in outcome.migrations:
                migrations.append(
                    Migration(
                        component_index=int(rows[mig.component_index]),
                        origin=mig.origin,
                        destination=mig.destination,
                        predicted_gain_s=mig.predicted_gain_s,
                        self_gain_s=mig.self_gain_s,
                    )
                )
        return SchedulingOutcome(
            migrations=migrations,
            initial_overall_s=float(initial_overall or 0.0),
            final_overall_s=float(final_overall),
            analysis_time_s=analysis_time,
            search_time_s=search_time,
            assignment=inputs.assignment.copy(),
        )
