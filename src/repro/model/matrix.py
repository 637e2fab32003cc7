"""The performance matrix ``L`` — paper Eq. 5 with Table III updates.

``L[i][j]`` is the predicted change in overall service latency when
component ``c_i`` migrates from its current node to node ``n_j``::

    L[i][j] = l_overall − l'_overall                           (Eq. 5)

where the primed latency applies Table III's contention updates:

=============================  ======================================
component                      updated contention vector ``U'``
=============================  ======================================
``c_i`` itself                 ``U_{n_j}``  (the target node's total)
any component on the origin    ``U − U_{c_i}``
any component on the target    ``U + U_{c_i}``
any other component            ``U``  (unchanged)
=============================  ======================================

Only components on the origin and the target node change latency, so
only the replica groups with a member on one of those two nodes change
their Eq. 3 mean.  One kernel, :meth:`PerformanceMatrix._block`,
computes ``(L, R)`` for a block of rows × target nodes from exactly
those latencies:

- each row's node-mates under ``U − U_{c_i}``, in one class-batched
  predictor and Eq. 2 call.  Only the row's own group and groups spread
  over several nodes depend on the target; the other groups on the
  origin enter once per row, as per-stage maxima the matrix keeps until
  a migration touches the row's node;
- every component on a target under ``U + U_{c_i}``, in one such call;
- the row itself on each target, from the arrival means predicted once
  per allocation.

A stage's new maximum is the largest of the touched groups' new means
and a per-allocation table that holds, for every pair of nodes, the
best base group mean among the groups on neither.  ``build("fast")``
runs the kernel over row chunks of at most :data:`BLOCK_PAIRS` pairs;
Algorithm 2's update runs it once for the candidates on the two moved
nodes and once for the other candidates' two moved columns, where
those candidates' kept origin maxima stand in for their node-mates.

Inputs are validated once, when the matrix is constructed (Eq. 2's
SCVs, arrival rates and ``rho_max``); afterwards only the predicted
means are checked, on every predictor call.  The kernel's largest
array, the target contention tensor, lives in a buffer the matrix owns
and reuses across chunks and updates (see :class:`PerformanceMatrix`).

Exactness: every entry equals :meth:`PerformanceMatrix.entry`, the
one-cell reading of the table above, to rtol 1e-10;
``build("reference")`` calls it for every cell and is the oracle the
kernel is tested against.  A group with all its members on one node
sums them in index order, as recomputing all m latencies would, so its
entries match that recomputation bit for bit (every entry does when
each component is its own group).  A group spread over both nodes sums
its two parts separately and may differ in the last ulp.

The matrix also tracks ``R[i][j]`` — the migrated component's *own*
latency reduction — because Algorithm 1 line 7 breaks ties on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, SchedulingError, UnstableQueueError
from repro.model.predictor import LatencyPredictor
from repro.model.queueing import mg1_latency_unchecked
from repro.model.service_latency import (
    exits_from_predecessors,
    stage_offsets,
    validate_predecessors,
)
from repro.service.component import ComponentClass

__all__ = ["MatrixInputs", "PerformanceMatrix"]

#: Cap on one kernel chunk's rows × (target components + targets): the
#: build's contention batch stays this size whatever m is.  At 640×128
#: (21 rows a chunk) the predictor's temporaries stay small enough for
#: the allocator to recycle: 1 << 15 re-faulted ~6.4k pages a decision,
#: this 0.3k–0.8k, and the median decision was 4–9 ms faster in 3 of 3
#: alternating runs (2-vCPU x86-64 host, oracle predictor).
BLOCK_PAIRS = 1 << 14


@dataclass
class MatrixInputs:
    """Everything Eq. 5 needs, in flat array form (matrix row order).

    Attributes
    ----------
    stage_of:
        ``(m,)`` stage index per component, non-decreasing.
    classes:
        Component class per component (length m).
    demands:
        ``(m, 4)`` per-component own demand ``U_ci``.
    assignment:
        ``(m,)`` current node index per component (the paper's A[m]).
    node_totals:
        ``(k, 4)`` estimated total resource consumption per node
        (all residents + background) — the monitor's node view.
    arrival_rates:
        ``(m,)`` per-component *induced* request arrival rate (req/s):
        the replica's nominal share of the service stream inflated by
        the active policy's duplicate load
        (:meth:`repro.baselines.policies.InducedLoad.replica_rate` —
        the predict phase folds the group-capped executed-copy
        multiplier in before building these inputs).  The M/G/1 stage
        therefore prices redundancy/reissue as the extra utilisation it
        really is.  For a policy that executes no duplicates the
        multiplier is exactly 1.0 and this is the historical
        policy-blind vector, bit for bit.
    node_limits:
        Optional ``(k,)`` cap on how many *components* each node can
        host (VM slots left after batch VMs).  ``None`` = unlimited.
        The scheduler never proposes a migration into a full node.
    group_of:
        Optional ``(m,)`` global replica-group id per component
        (non-decreasing, stage-major).  When given, the overall-latency
        objective uses the grouped Eqs. 3–4 (group mean, stage max) of
        :func:`repro.model.service_latency.grouped_overall_latency`;
        when ``None`` each component is its own group, which is exactly
        the paper's Eq. 3.
    stage_predecessors:
        Optional per-stage predecessor tuple
        (:attr:`~repro.service.topology.ServiceTopology.
        predecessor_indices`) for DAG topologies.  When given, the
        overall-latency objective composes stage maxima along the
        **critical path** instead of Eq. 4's chain sum, so ``L``
        entries weight a straggler by whether its stage actually sits
        on the predicted critical path — migrating a component on a
        side branch that the join never waits on predicts (correctly)
        no overall gain.  ``None`` keeps the exact chain sum, which is
        what a chain DAG's critical path degenerates to.
    class_weights:
        Optional ``(C,)`` request-class mix weights (sum to 1).  Given
        together with ``class_stage_participation``, the overall-latency
        objective becomes the mix-weighted average of per-class
        critical paths (:func:`repro.model.service_latency.
        mixed_class_overall_latency`) — a straggler on a stage only a
        light class visits is discounted by that class's weight.
        ``None`` (with participation also ``None``) keeps the exact
        homogeneous objective.
    class_stage_participation:
        Optional ``(C, S)`` per-class stage participation probabilities
        in ``[0, 1]``; required iff ``class_weights`` is given.
    class_service_scales:
        Optional ``(C,)`` positive per-class service-demand multipliers
        (:attr:`repro.service.classes.RequestClass.service_scale`): a
        class with scale ``σ_c`` works every stage it visits ``σ_c×``
        longer, so its per-class composition sees
        ``stage_lats · participation[c] · σ_c``.  Only meaningful with
        ``class_weights``; ``None`` means all ones (bit-identical to
        the unscaled objective).
    """

    stage_of: np.ndarray
    classes: List[ComponentClass]
    demands: np.ndarray
    assignment: np.ndarray
    node_totals: np.ndarray
    arrival_rates: np.ndarray
    node_limits: Optional[np.ndarray] = None
    group_of: Optional[np.ndarray] = None
    stage_predecessors: Optional[Tuple[Tuple[int, ...], ...]] = None
    class_weights: Optional[np.ndarray] = None
    class_stage_participation: Optional[np.ndarray] = None
    class_service_scales: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.stage_of = np.asarray(self.stage_of, dtype=np.int64)
        self.demands = np.asarray(self.demands, dtype=np.float64)
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.node_totals = np.asarray(self.node_totals, dtype=np.float64)
        self.arrival_rates = np.asarray(self.arrival_rates, dtype=np.float64)
        m = self.stage_of.size
        if len(self.classes) != m:
            raise ModelError("classes length must match stage_of")
        if self.demands.shape != (m, 4):
            raise ModelError(f"demands must be (m, 4), got {self.demands.shape}")
        if self.assignment.shape != (m,):
            raise ModelError("assignment must be (m,)")
        if self.node_totals.ndim != 2 or self.node_totals.shape[1] != 4:
            raise ModelError("node_totals must be (k, 4)")
        if self.arrival_rates.shape != (m,):
            raise ModelError("arrival_rates must be (m,)")
        k = self.node_totals.shape[0]
        if np.any(self.assignment < 0) or np.any(self.assignment >= k):
            raise ModelError("assignment indices out of node range")
        if np.any(np.diff(self.stage_of) < 0):
            raise ModelError("stage_of must be non-decreasing (stage-major order)")
        if np.any(self.demands < 0) or np.any(self.node_totals < 0):
            raise ModelError("demands and node_totals must be >= 0")
        if np.any(self.arrival_rates < 0):
            raise ModelError("arrival_rates must be >= 0")
        if self.node_limits is not None:
            self.node_limits = np.asarray(self.node_limits, dtype=np.int64)
            if self.node_limits.shape != (k,):
                raise ModelError("node_limits must be (k,)")
            counts = np.bincount(self.assignment, minlength=k)
            if np.any(counts > self.node_limits):
                raise ModelError(
                    "current assignment already exceeds node_limits"
                )
        if self.group_of is not None:
            self.group_of = np.asarray(self.group_of, dtype=np.int64)
            if self.group_of.shape != (m,):
                raise ModelError("group_of must be (m,)")
            if np.any(np.diff(self.group_of) < 0):
                raise ModelError("group_of must be non-decreasing")
            # Every group must live inside a single stage.
            for g in np.unique(self.group_of):
                stages = np.unique(self.stage_of[self.group_of == g])
                if stages.size != 1:
                    raise ModelError(f"group {g} spans stages {stages}")
        if self.stage_predecessors is not None:
            # The one shared DAG validator (service_latency), so the
            # invariant cannot drift between the matrix and the
            # composition functions.
            self.stage_predecessors = validate_predecessors(
                self.stage_predecessors, int(self.stage_of.max()) + 1
            )
        if (self.class_weights is None) != (
            self.class_stage_participation is None
        ):
            raise ModelError(
                "class_weights and class_stage_participation must be "
                "given together"
            )
        if self.class_weights is not None:
            self.class_weights = np.asarray(
                self.class_weights, dtype=np.float64
            )
            self.class_stage_participation = np.asarray(
                self.class_stage_participation, dtype=np.float64
            )
            n_stages = int(self.stage_of.max()) + 1
            c = self.class_weights.size
            if self.class_weights.ndim != 1 or c == 0:
                raise ModelError("class_weights must be a non-empty 1-D array")
            if np.any(self.class_weights < 0) or not np.isclose(
                self.class_weights.sum(), 1.0
            ):
                raise ModelError(
                    "class_weights must be non-negative and sum to 1"
                )
            if self.class_stage_participation.shape != (c, n_stages):
                raise ModelError(
                    "class_stage_participation must be (C, S) = "
                    f"({c}, {n_stages}), got "
                    f"{self.class_stage_participation.shape}"
                )
            if np.any(self.class_stage_participation < 0) or np.any(
                self.class_stage_participation > 1
            ):
                raise ModelError(
                    "class_stage_participation must lie in [0, 1]"
                )
        if self.class_service_scales is not None:
            if self.class_weights is None:
                raise ModelError(
                    "class_service_scales requires class_weights"
                )
            self.class_service_scales = np.asarray(
                self.class_service_scales, dtype=np.float64
            )
            if self.class_service_scales.shape != (self.class_weights.size,):
                raise ModelError(
                    "class_service_scales must be (C,) = "
                    f"({self.class_weights.size},), got "
                    f"{self.class_service_scales.shape}"
                )
            if np.any(self.class_service_scales <= 0) or not np.all(
                np.isfinite(self.class_service_scales)
            ):
                raise ModelError(
                    "class_service_scales must be finite and > 0"
                )

    def component_counts(self) -> np.ndarray:
        """Components currently hosted per node."""
        return np.bincount(self.assignment, minlength=self.k)

    @property
    def m(self) -> int:
        """Number of components."""
        return int(self.stage_of.size)

    @property
    def k(self) -> int:
        """Number of nodes."""
        return int(self.node_totals.shape[0])

    def copy(self) -> "MatrixInputs":
        """Deep copy (scheduling mutates assignment/node_totals)."""
        return MatrixInputs(
            stage_of=self.stage_of.copy(),
            classes=list(self.classes),
            demands=self.demands.copy(),
            assignment=self.assignment.copy(),
            node_totals=self.node_totals.copy(),
            arrival_rates=self.arrival_rates.copy(),
            node_limits=(
                None if self.node_limits is None else self.node_limits.copy()
            ),
            group_of=None if self.group_of is None else self.group_of.copy(),
            stage_predecessors=self.stage_predecessors,
            class_weights=(
                None
                if self.class_weights is None
                else self.class_weights.copy()
            ),
            class_stage_participation=(
                None
                if self.class_stage_participation is None
                else self.class_stage_participation.copy()
            ),
            class_service_scales=(
                None
                if self.class_service_scales is None
                else self.class_service_scales.copy()
            ),
        )


class _Targets(NamedTuple):
    """The target-side index work of one fill, shared by its row chunks."""

    nodes: np.ndarray  # the target nodes
    comps: np.ndarray  # components on them, node by node in index order
    contention: np.ndarray  # (4, len(comps)): their current contention
    cells: np.ndarray  # their cells, in the same order
    cell_pos: np.ndarray  # position in ``cells`` of every cell, or -1
    seg_t: np.ndarray  # per (target, stage) run of cells: the target,
    seg_s: np.ndarray  # the stage,
    seg: np.ndarray  # and the run's first cell


class PerformanceMatrix:
    """Builds and incrementally maintains ``L`` (and the tie-break ``R``).

    Validation happens once, at construction: the predictor's SCVs must
    be non-negative, its ``rho_max`` in (0, 1) and the arrival rates
    non-negative.  Eq. 2 then runs unchecked
    (:func:`~repro.model.queueing.mg1_latency_unchecked`), and only the
    mean service times are checked on every predictor call, since they
    are the one input the matrix does not control.

    The kernel's largest array, the target contention tensor (rows ×
    target components × 4), lives in a buffer this object owns: every
    row chunk and every Algorithm 2 update writes into the same memory
    instead of allocating it afresh, so a decision does not return it to
    the OS between chunks and fault it back in.  The buffer carries
    nothing from one call to the next.
    """

    def __init__(self, inputs: MatrixInputs, predictor: LatencyPredictor) -> None:
        self.inputs = inputs
        self.predictor = predictor
        m = inputs.m
        group_of = (
            inputs.group_of
            if inputs.group_of is not None
            else np.arange(m, dtype=np.int64)
        )
        self._group_offsets = stage_offsets(group_of)
        group_counts = np.diff(np.append(self._group_offsets, m))
        self._group_sizes = group_counts.astype(np.float64)
        self._stage_offsets_groups = stage_offsets(
            inputs.stage_of[self._group_offsets]
        )
        n_groups = self._group_offsets.size
        n_stages = self._stage_offsets_groups.size
        # Group ordinal (0..G-1) of every component, stage ordinal
        # (0..S-1) of every group.
        self._group_ordinal = np.repeat(np.arange(n_groups), group_counts)
        self._group_stage = np.repeat(
            np.arange(n_stages),
            np.diff(np.append(self._stage_offsets_groups, n_groups)),
        )
        # DAG topologies compose stage maxima along the critical path;
        # None keeps the exact chain sum (bit-identical to pre-DAG).
        # Predecessors were validated by MatrixInputs; exits are
        # precomputed here because _compose runs once per kernel chunk
        # and must not re-derive them per call.
        self._dag_preds = inputs.stage_predecessors
        if self._dag_preds is not None:
            self._dag_exits = exits_from_predecessors(self._dag_preds)
        # Request-class mix: None keeps the exact homogeneous objective
        # (bit-identical to pre-class builds); with a mix, _compose
        # averages per-class critical paths by weight.  Per-class
        # service scales fold into the participation factors once here
        # (None keeps the unscaled factors bit-identical).
        self._mix_weights = inputs.class_weights
        self._mix_participation = inputs.class_stage_participation
        if (
            self._mix_participation is not None
            and inputs.class_service_scales is not None
        ):
            self._mix_participation = (
                self._mix_participation
                * inputs.class_service_scales[:, None]
            )
        # Component classes, in order of first appearance.
        self._classes: List[ComponentClass] = list(dict.fromkeys(inputs.classes))
        index = {cls: c for c, cls in enumerate(self._classes)}
        self._class_id = np.array(
            [index[cls] for cls in inputs.classes], dtype=np.int64
        )
        # Eq. 2's inputs, checked here once for every later evaluation.
        self._scv = np.array([predictor.scv(cls) for cls in self._classes])
        self._rho_max = float(predictor.rho_max)
        if not 0 < self._rho_max < 1:
            raise UnstableQueueError(
                f"rho_max must be in (0, 1), got {self._rho_max}"
            )
        if np.any(self._scv < 0):
            raise UnstableQueueError("scv must be >= 0")
        if np.any(inputs.arrival_rates < 0):
            raise UnstableQueueError("arrival rates must be >= 0")
        # The cell of each (group, node), or -1; _refresh_base resets
        # only the entries of the cells it replaces.
        self._cell_of = np.full((n_groups, inputs.k), -1, dtype=np.int64)
        self._cell_group = self._cell_node = np.empty(0, dtype=np.int64)
        # Per row, the stage maxima of the groups wholly on its node
        # other than its own, under U − U_ci.  They depend only on the
        # row's node, so a migration leaves them valid for every row
        # on any other node (_origin_known).
        self._origin_max = np.empty((m, n_stages))
        self._origin_known = np.zeros(m, dtype=bool)
        # The target contention tensor of one kernel chunk; grown to the
        # largest chunk and reused by every later one.
        self._contention = np.empty(0)
        self.L: Optional[np.ndarray] = None
        self.R: Optional[np.ndarray] = None
        self._refresh_base()

    # ------------------------------------------------------------------
    # base state
    # ------------------------------------------------------------------
    def _contention_now(self) -> np.ndarray:
        """Per-component current contention: node total minus own demand."""
        inp = self.inputs
        u = inp.node_totals[inp.assignment] - inp.demands
        return np.maximum(u, 0.0)

    def _predict(self, c: int, contention: np.ndarray) -> np.ndarray:
        """Mean service times of class ``c``, which must be positive."""
        means = self.predictor.predict_mean_service(self._classes[c], contention)
        if np.any(means <= 0):
            raise UnstableQueueError("mean service times must be positive")
        return means

    def _latencies(self, comps: np.ndarray, contention: np.ndarray) -> np.ndarray:
        """Eq. 2 latency of each component of ``comps`` under the matching
        row of ``contention``; ``comps`` broadcasts against
        ``contention.shape[:-1]``, the shape of the result.

        The one pair-latency evaluation behind the base state, the
        kernel and :meth:`entry`: one predictor call per class present.
        """
        shape = contention.shape[:-1]
        lam = self.inputs.arrival_rates[comps]
        if len(self._classes) == 1:
            means = self._predict(0, contention.reshape(-1, 4)).reshape(shape)
            return mg1_latency_unchecked(means, self._scv[0], lam, self._rho_max)
        out = np.empty(shape, dtype=np.float64)
        ids = np.broadcast_to(self._class_id[comps], shape)
        lam = np.broadcast_to(lam, shape)
        for c in range(len(self._classes)):
            sel = ids == c
            if sel.any():
                out[sel] = mg1_latency_unchecked(
                    self._predict(c, contention[sel]),
                    self._scv[c],
                    lam[sel],
                    self._rho_max,
                )
        return out

    def _compose(self, stage_max: np.ndarray) -> np.ndarray:
        """Overall latency from per-stage maxima: Eq. 4's chain sum, or
        the critical path when the inputs carry a stage DAG.  Works on
        ``(S,)`` and batched ``(..., S)`` sheets alike.

        Inlines :func:`~repro.model.service_latency.dag_overall_latency`
        against the pre-validated predecessors and precomputed exit set
        — this runs for every kernel chunk and every :meth:`entry`, so
        the public function's per-call validation would be pure waste.

        With a request-class mix
        (:attr:`MatrixInputs.class_weights`/``class_stage_participation``)
        the objective is the mix-weighted average of per-class
        compositions, each over participation-scaled stage latencies —
        the matrix form of :func:`~repro.model.service_latency.
        mixed_class_overall_latency`, looped over the (small) class
        axis so the batched sheets stay vectorised.
        """
        if self._mix_weights is not None:
            overall = np.zeros(stage_max.shape[:-1], dtype=np.float64)
            for c in range(self._mix_weights.size):
                overall = overall + self._mix_weights[c] * self._compose_one(
                    stage_max * self._mix_participation[c]
                )
            return overall
        return self._compose_one(stage_max)

    def _compose_one(self, stage_max: np.ndarray) -> np.ndarray:
        """One composition pass (chain sum or critical path)."""
        if self._dag_preds is None:
            return stage_max.sum(axis=-1)
        completion = np.empty_like(stage_max)
        for si, ps in enumerate(self._dag_preds):
            if not ps:
                completion[..., si] = stage_max[..., si]
                continue
            ready = completion[..., ps[0]]
            for p in ps[1:]:
                ready = np.maximum(ready, completion[..., p])
            completion[..., si] = ready + stage_max[..., si]
        overall = completion[..., self._dag_exits[0]]
        for si in self._dag_exits[1:]:
            overall = np.maximum(overall, completion[..., si])
        return overall

    def _refresh_base(self) -> None:
        """Base latencies and objective, then the per-allocation tables
        the kernel reads: cells, the untouched-group table and the
        arrival means.

        The base latencies and arrival means are predicted for every
        component and node in one batch, as at construction: a batch of
        one row takes numpy's dot-product path, whose rounding differs
        from the matrix-vector path, and the overall latency before and
        after a decision must not depend on how many components a
        migration touched.
        """
        inp = self.inputs
        m, k = inp.m, inp.k
        self._u_now = self._contention_now()
        self.base_latencies = self._latencies(np.arange(m), self._u_now)
        group_sums = np.add.reduceat(self.base_latencies, self._group_offsets)
        self._base_group_means = group_sums / self._group_sizes
        self.base_overall = float(
            self._compose(
                np.maximum.reduceat(
                    self._base_group_means, self._stage_offsets_groups
                )
            )
        )
        # Components by node; a cell is one group's components on one
        # node, so cells are node-major and numbered in by_node order.
        self._by_node = np.argsort(inp.assignment, kind="stable")
        nodes = inp.assignment[self._by_node]
        groups = self._group_ordinal[self._by_node]
        self._node_count = np.bincount(nodes, minlength=k)
        self._node_start = _starts(self._node_count)
        first = _run_starts(nodes, groups)
        self._cell_of[self._cell_group, self._cell_node] = -1
        self._cell_first = first
        self._cell_node = nodes[first]
        self._cell_group = groups[first]
        self._cell_size = np.diff(np.append(first, m))
        self._cell_of[self._cell_group, self._cell_node] = np.arange(first.size)
        # A cell spans when its group also has members on other nodes.
        self._cell_spans = self._cell_size < self._group_sizes[self._cell_group]
        self._any_span = bool(self._cell_spans.any())
        self._comp_cell = np.empty(m, dtype=np.int64)
        self._comp_cell[self._by_node] = np.repeat(
            np.arange(first.size), self._cell_size
        )
        self._node_cells = np.bincount(self._cell_node, minlength=k)
        self._node_cell_start = _starts(self._node_cells)
        # Base sum of each cell, and of the rest of its group.
        self._cell_sum = np.add.reduceat(self.base_latencies[self._by_node], first)
        self._cell_rest = group_sums[self._cell_group] - self._cell_sum
        self._untouched = self._untouched_table()
        # Mean service time of a new arrival on every node (Table III
        # row 1), per class.
        self._arrival_means = np.stack(
            [
                self._predict(c, inp.node_totals)
                for c in range(len(self._classes))
            ]
        )

    def _untouched_table(self) -> np.ndarray:
        """``(k, k, S)``: per stage, the best base group mean among the
        groups with no component on either node (``-inf`` if none).

        Each stage's best group settles every pair it does not touch;
        the pairs left walk down the stage's ranking until a group
        touches neither node — a few ranks in practice, since one group
        touches only its members' nodes.
        """
        k = self.inputs.k
        means = self._base_group_means
        offsets = self._stage_offsets_groups
        counts = np.diff(np.append(offsets, means.size))
        ranked = np.lexsort((-means, self._group_stage))
        best = ranked[offsets]
        touch = self._cell_of[best] >= 0
        table = np.empty((k, k, offsets.size))
        for s, free in enumerate(~touch):
            table[:, :, s] = np.where(free[:, None] & free, means[best[s]], -np.inf)
        # The pairs each stage's best group touches: its nodes' rows
        # and columns (a pair on two such nodes comes twice; harmless).
        s, node = np.nonzero(touch)
        s = np.tile(np.repeat(s, k), 2)
        o = np.concatenate([np.repeat(node, k), np.tile(np.arange(k), node.size)])
        t = np.concatenate([np.tile(np.arange(k), node.size), np.repeat(node, k)])
        for rank in range(1, int(counts.max())):
            live = counts[s] > rank
            s, o, t = s[live], o[live], t[live]
            if s.size == 0:
                break
            g = ranked[offsets[s] + rank]
            hit = (self._cell_of[g, o] < 0) & (self._cell_of[g, t] < 0)
            table[o[hit], t[hit], s[hit]] = means[g[hit]]
            s, o, t = s[~hit], o[~hit], t[~hit]
        return table

    @property
    def current_overall(self) -> float:
        """Predicted overall service latency (Eq. 4) right now."""
        return self.base_overall

    # ------------------------------------------------------------------
    # single entry (the specification the kernel is tested against)
    # ------------------------------------------------------------------
    def entry(self, i: int, j: int) -> tuple[float, float]:
        """Exact ``(L[i][j], R[i][j])`` for one candidate migration.

        Incremental: only components on the origin and target nodes
        change latency (Table III), so only their groups' means — and
        only the stage maxima over the cached group-mean vector — are
        recomputed.  The reference build calls this for every cell.
        """
        inp = self.inputs
        if not (0 <= i < inp.m and 0 <= j < inp.k):
            raise ModelError(f"entry ({i}, {j}) out of range")
        origin = int(inp.assignment[i])
        if j == origin:
            return 0.0, 0.0
        d_i = inp.demands[i]
        affected = np.flatnonzero(
            (inp.assignment == origin) | (inp.assignment == j)
        )
        u_aff = self._u_now[affected].copy()
        on_origin = inp.assignment[affected] == origin
        u_aff[on_origin] = np.maximum(u_aff[on_origin] - d_i, 0.0)
        u_aff[~on_origin] = u_aff[~on_origin] + d_i
        self_pos = int(np.searchsorted(affected, i))
        u_aff[self_pos] = inp.node_totals[j]  # Table III row 1: U' = U_nj
        l_aff = self._latencies(affected, u_aff)
        # Incremental group means: subtract old contributions, add new.
        means = self._base_group_means.copy()
        groups = self._group_ordinal[affected]
        delta = (l_aff - self.base_latencies[affected]) / self._group_sizes[groups]
        np.add.at(means, groups, delta)
        l_overall_new = float(
            self._compose(np.maximum.reduceat(means, self._stage_offsets_groups))
        )
        return (
            float(self.base_overall - l_overall_new),
            float(self.base_latencies[i] - l_aff[self_pos]),
        )

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def _targets(self, targets: np.ndarray) -> _Targets:
        """Index work that depends only on the target nodes."""
        comps = self._by_node[
            _ranges(self._node_start[targets], self._node_count[targets])
        ]
        cells = _ranges(self._node_cell_start[targets], self._node_cells[targets])
        cell_pos = np.full(self._cell_size.size, -1, dtype=np.int64)
        cell_pos[cells] = np.arange(cells.size)
        seg_t, seg_s, seg = _segments(
            np.repeat(np.arange(targets.size), self._node_cells[targets]),
            self._group_stage[self._cell_group[cells]],
        )
        return _Targets(
            targets, comps, self._u_now[comps].T.copy(), cells, cell_pos,
            seg_t, seg_s, seg,
        )

    def _self_latencies(self, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Each row's latency on each target at the target's arrival
        mean (Table III row 1)."""
        cls = self._class_id[rows]
        return mg1_latency_unchecked(
            self._arrival_means[cls[:, None], targets],
            self._scv[cls][:, None],
            self.inputs.arrival_rates[rows][:, None],
            self._rho_max,
        )

    def _plus_latencies(self, rows: np.ndarray, tg: _Targets) -> np.ndarray:
        """``(rows, components on the targets)``: each component's
        latency with the row's demand added to its contention (Table III
        row 3), from the contention tensor in the matrix's buffer."""
        demand = self.inputs.demands[rows]
        size = rows.size * tg.comps.size * 4
        if self._contention.size < size:
            self._contention = np.empty(size)
        contention = self._contention[:size].reshape(rows.size, tg.comps.size, 4)
        for r in range(4):
            np.add.outer(demand[:, r], tg.contention[r], out=contention[..., r])
        return self._latencies(tg.comps, contention)

    def _origin_side(self, rows: np.ndarray, l_self: np.ndarray):
        """The origin cells whose mean depends on the target — each row's
        own, and those of groups spread over several nodes — as
        ``(cells, their row, numerators per target)``, the group's rest
        included.  Every other cell on a row's node enters
        ``_origin_max`` instead, computed for the rows not known since
        their node last changed."""
        inp = self.inputs
        origin = inp.assignment[rows]
        demand = inp.demands[rows]
        own = self._comp_cell[rows]
        if self._any_span:
            n_cells = self._node_cells[origin]
            o_cells = _ranges(self._node_cell_start[origin], n_cells)
            o_row = np.repeat(np.arange(rows.size), n_cells)
            dyn = (o_cells == own[o_row]) | self._cell_spans[o_cells]
            d_cells, d_row = o_cells[dyn], o_row[dyn]
        else:
            d_cells, d_row = own, np.arange(rows.size)
        cold = np.flatnonzero(~self._origin_known[rows])
        n_cells = self._node_cells[origin[cold]]
        s_cells = _ranges(self._node_cell_start[origin[cold]], n_cells)
        s_row = np.repeat(cold, n_cells)
        keep = (s_cells != own[s_row]) & ~self._cell_spans[s_cells]
        s_cells, s_row = s_cells[keep], s_row[keep]
        # Node-mates under U − U_ci: the cold rows' other cells, then the
        # target-dependent cells' members other than the row itself.
        s_size, d_size = self._cell_size[s_cells], self._cell_size[d_cells]
        s_comp = self._by_node[_ranges(self._cell_first[s_cells], s_size)]
        d_comp = self._by_node[_ranges(self._cell_first[d_cells], d_size)]
        d_mrow = np.repeat(d_row, d_size)
        mate = d_comp != rows[d_mrow]
        e_comp = np.concatenate([s_comp, d_comp[mate]])
        e_row = np.concatenate([np.repeat(s_row, s_size), d_mrow[mate]])
        if e_comp.size:
            l_minus = self._latencies(
                e_comp, np.maximum(self._u_now[e_comp] - demand[e_row], 0.0)
            )
        self._origin_max[rows[cold]] = -np.inf
        if s_cells.size:
            s_group = self._cell_group[s_cells]
            s_num = np.add.reduceat(l_minus[: s_comp.size], _starts(s_size))
            s_num += self._cell_rest[s_cells]
            seg_r, seg_s, seg = _segments(s_row, self._group_stage[s_group])
            self._origin_max[rows[seg_r], seg_s] = np.maximum.reduceat(
                s_num / self._group_sizes[s_group], seg
            )
        self._origin_known[rows[cold]] = True
        o_vals = np.empty((d_comp.size, l_self.shape[1]))
        if mate.any():
            o_vals[mate] = l_minus[s_comp.size :, None]
        o_vals[~mate] = l_self
        o_num = np.add.reduceat(o_vals, _starts(d_size), axis=0)
        o_num += self._cell_rest[d_cells][:, None]
        return d_cells, d_row, o_num

    def _block(
        self, rows: np.ndarray, tg: _Targets
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(L, R)`` of migrating each of ``rows`` to each target of ``tg``.

        Table III changes latencies only on the origin and the target
        node, so only groups touching one of them get a new mean:

        - origin groups: members on the origin under ``U − U_ci`` (one
          latency per row and member), the migrating component at the
          target's arrival mean.  Only the row's own cell and cells of
          groups spread over several nodes depend on the target; every
          other cell on the origin enters once per row, as a per-stage
          maximum kept until the row's node changes;
        - target groups: members on the target under ``U + U_ci`` (one
          latency per row and component on any target);
        - the rest of a group keeps its base sum, so a group spread over
          both nodes takes both deltas and counts on the origin side.

        Each stage's maximum is the largest of those new means and the
        untouched-group table.  A group wholly on one node sums its
        members in index order, as a full recomputation does, so such
        entries equal it bit for bit.
        """
        inp = self.inputs
        targets = tg.nodes
        origin = inp.assignment[rows]
        l_self = self._self_latencies(rows, targets)
        l_plus = self._plus_latencies(rows, tg)
        t_sum = np.add.reduceat(l_plus, _starts(self._cell_size[tg.cells]), axis=1)
        t_num = t_sum + self._cell_rest[tg.cells]
        d_cells, d_row, o_num = self._origin_side(rows, l_self)

        if self._any_span:
            # A group on both nodes: its target cell's delta joins the
            # origin entry, and the target entry drops out.
            span = np.flatnonzero(self._cell_spans[d_cells])
            x_cell = self._cell_of[self._cell_group[d_cells[span]][:, None], targets]
            x_entry, x_target = np.nonzero(
                (x_cell >= 0) & (targets != origin[d_row[span]][:, None])
            )
            x_cell = x_cell[x_entry, x_target]
            x_entry = span[x_entry]
            x_pos, x_row = tg.cell_pos[x_cell], d_row[x_entry]
            o_num[x_entry, x_target] += t_sum[x_row, x_pos] - self._cell_sum[x_cell]
            t_num[x_row, x_pos] = -np.inf

        # Stage maxima: untouched groups, the origin's other groups, then
        # origin and target means.
        k, n_stages = inp.k, self._origin_max.shape[1]
        stage_max = self._untouched.reshape(k * k, n_stages)[
            origin[:, None] * k + targets
        ]
        np.maximum(stage_max, self._origin_max[rows][:, None, :], out=stage_max)
        d_group = self._cell_group[d_cells]
        o_mean = o_num / self._group_sizes[d_group][:, None]
        seg_r, seg_s, seg = _segments(d_row, self._group_stage[d_group])
        stage_max[seg_r, :, seg_s] = np.maximum(
            stage_max[seg_r, :, seg_s], np.maximum.reduceat(o_mean, seg, axis=0)
        )
        t_mean = t_num / self._group_sizes[self._cell_group[tg.cells]]
        stage_max[:, tg.seg_t, tg.seg_s] = np.maximum(
            stage_max[:, tg.seg_t, tg.seg_s],
            np.maximum.reduceat(t_mean, tg.seg, axis=1),
        )

        L = self.base_overall - self._compose(stage_max)
        R = self.base_latencies[rows][:, None] - l_self
        stay = origin[:, None] == targets[None, :]
        L[stay] = 0.0
        R[stay] = 0.0
        return L, R

    def _fill(self, rows, targets) -> None:
        """Write the kernel's ``rows`` × ``targets`` entries into ``L``
        and ``R``, at most :data:`BLOCK_PAIRS` pairs per chunk."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        tg = self._targets(np.asarray(targets, dtype=np.int64))
        step = max(1, BLOCK_PAIRS // (tg.comps.size + tg.nodes.size))
        for lo in range(0, rows.size, step):
            chunk = rows[lo : lo + step]
            cells = np.ix_(chunk, tg.nodes)
            self.L[cells], self.R[cells] = self._block(chunk, tg)

    # ------------------------------------------------------------------
    # full builds
    # ------------------------------------------------------------------
    def build(self, method: str = "fast") -> "PerformanceMatrix":
        """Compute the full ``L`` and ``R``; returns self."""
        if method not in ("fast", "reference"):
            raise ModelError(f"unknown build method {method!r}")
        inp = self.inputs
        self.L = np.zeros((inp.m, inp.k))
        self.R = np.zeros((inp.m, inp.k))
        if method == "fast":
            self._fill(np.arange(inp.m), np.arange(inp.k))
        else:
            for i in range(inp.m):
                for j in range(inp.k):
                    self.L[i, j], self.R[i, j] = self.entry(i, j)
        return self

    # ------------------------------------------------------------------
    # migration + Algorithm 2 incremental update
    # ------------------------------------------------------------------
    def apply_migration(self, i: int, j: int) -> int:
        """Mutate state as if ``c_i`` moved to node ``j``; returns origin.

        Updates the allocation array and the node totals, then refreshes
        the base latencies and tables — O(m + k²·S), matching the
        paper's claim that the matrix need not be rebuilt from scratch
        inside the loop.  The origin-side maxima of rows on the two
        nodes are dropped; every other row keeps its own.
        """
        inp = self.inputs
        origin = int(inp.assignment[i])
        if origin == j:
            raise SchedulingError(f"no-op migration of component {i}")
        inp.node_totals[origin] = np.maximum(
            inp.node_totals[origin] - inp.demands[i], 0.0
        )
        inp.node_totals[j] = inp.node_totals[j] + inp.demands[i]
        inp.assignment[i] = j
        self._origin_known[(inp.assignment == origin) | (inp.assignment == j)] = False
        self._refresh_base()
        return origin

    def algorithm2_update(
        self, moved: int, n_origin: int, n_destination: int, candidates: Iterable[int]
    ) -> None:
        """Paper Algorithm 2: refresh the affected rows and columns.

        After migrating ``c_moved``: (a) the ``n_origin`` and
        ``n_destination`` columns change for every candidate row, and
        (b) every candidate component hosted on either node gets its
        whole row refreshed.  Entries of non-candidate rows and the
        moved component's row are left stale, exactly as in the paper
        (the moved component is no longer a candidate).  ``candidates``
        is any iterable of row indices; an integer array is used as is.
        """
        if self.L is None or self.R is None:
            raise SchedulingError("matrix must be built before updating")
        if not isinstance(candidates, np.ndarray):
            candidates = np.fromiter(candidates, dtype=np.int64)
        mask = np.zeros(self.inputs.m, dtype=bool)
        mask[candidates] = True
        mask[moved] = False
        cand = np.flatnonzero(mask)
        moved_nodes = np.array([n_origin, n_destination], dtype=np.int64)
        on_moved = np.isin(self.inputs.assignment[cand], moved_nodes)
        self._fill(cand[on_moved], np.arange(self.inputs.k))
        self._fill(cand[~on_moved], moved_nodes)

    def rebuild_rows(self, rows: Sequence[int]) -> None:
        """Exact refresh of whole rows (used by the 'full' update mode)."""
        if self.L is None or self.R is None:
            raise SchedulingError("matrix must be built before updating")
        self._fill(rows, np.arange(self.inputs.k))


def _starts(counts: np.ndarray) -> np.ndarray:
    """Start offset of each run, given the run lengths."""
    return np.cumsum(counts) - counts


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for every ``(s, n)``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(
        starts - (ends - counts), counts
    )


def _run_starts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Start offset of each run of equal ``(a, b)`` pairs."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    new[1:] |= b[1:] != b[:-1]
    return np.flatnonzero(new)


def _segments(outer: np.ndarray, stage: np.ndarray):
    """Runs of equal ``(outer, stage)`` in a sequence sorted by both:
    each run's outer value, stage and start offset."""
    seg = _run_starts(outer, stage)
    return outer[seg], stage[seg], seg
