"""Service topology: a validated request DAG of stages (Eqs. 3–4, generalised).

Semantics
---------
- A request traverses the stages as a **DAG**: every stage lists the
  stages whose completion it waits on (:attr:`Stage.predecessors`).
  A stage starts when its *slowest* predecessor finishes, so the
  overall latency is the **critical-path composition** of stage
  latencies: ``completion(s) = max_p completion(p) + latency(s)``,
  with the overall latency the max over the exit stages' completions.
  When every stage's predecessor is simply the previous stage (the
  default), this degenerates exactly to the paper's Eq. 4 — the sum of
  stage latencies along the chain.  *Skip edges* (a later stage naming
  an earlier, non-adjacent predecessor) are allowed: predecessors must
  only appear earlier in the stage list, which keeps stage-major order
  a topological order of the DAG.
- Within a stage, the request fans out to the stage's **replica
  groups** (search shards all hold different index partitions) and the
  stage completes when the slowest *participating* group responds
  (Eq. 3's max).  A group with ``participation < 1`` is **optional**:
  each request includes it in the fan-out with that probability
  (probabilistic branching; the Bernoulli draws come from the
  caller's :class:`~repro.rng.RngRegistry`-derived request stream, so
  sample paths stay deterministic per seed).  A request that skips
  every group of a stage passes through it with zero added latency.
- Within a group, replicas are interchangeable; which replica(s)
  receive a copy of the request is the *policy's* decision (Basic sends
  to one, RED-k to k, RI-p reissues conditionally).  Load-sharing a
  stage over several equivalent servers is therefore modeled as one
  group with several replicas.

The stage edges resolved here (:attr:`ServiceTopology.predecessor_indices`
and :attr:`~ServiceTopology.successor_indices`) are the source of truth
for traversal order everywhere downstream: both simulators walk the
predecessor indices, and the scheduler's performance matrix composes
predicted stage latencies along the same edges
(:mod:`repro.model.service_latency`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.service.component import Component

__all__ = [
    "ReplicaGroup",
    "Stage",
    "ServiceTopology",
    "RequestClass",
    "ResolvedClassMix",
]


@dataclass
class ReplicaGroup:
    """Interchangeable replicas of one shard/partition.

    ``participation`` is the probability that a request's stage fan-out
    includes this group (1.0 — the default — is the paper's
    deterministic fan-out; anything lower makes the group *optional*,
    drawn per request).
    """

    name: str
    components: List[Component]
    participation: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("group name must be non-empty")
        if not self.components:
            raise TopologyError(f"group {self.name} must have >= 1 replica")
        if not 0.0 < self.participation <= 1.0:
            raise TopologyError(
                f"group {self.name} participation must be in (0, 1], "
                f"got {self.participation}"
            )

    @property
    def n_replicas(self) -> int:
        """Number of interchangeable replicas in this group."""
        return len(self.components)

    @property
    def optional(self) -> bool:
        """Whether requests may skip this group (``participation < 1``)."""
        return self.participation < 1.0

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass
class Stage:
    """One stage of the request DAG: a set of groups the request fans
    out to once every predecessor stage has completed.

    ``predecessors`` names the stages this one waits on.  ``None`` (the
    default) means *the previous stage in the list* — the paper's chain
    — or no predecessor for the first stage.  An explicit tuple may
    name any **earlier** stages (skip edges included); ``()`` marks an
    additional entry stage running in parallel from request arrival.
    """

    name: str
    groups: List[ReplicaGroup]
    predecessors: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("stage name must be non-empty")
        if not self.groups:
            raise TopologyError(f"stage {self.name} must have >= 1 group")
        if self.predecessors is not None:
            preds = tuple(self.predecessors)
            if len(set(preds)) != len(preds):
                raise TopologyError(
                    f"stage {self.name} lists duplicate predecessors {preds}"
                )
            if self.name in preds:
                raise TopologyError(f"stage {self.name} cannot precede itself")
            self.predecessors = preds

    @property
    def components(self) -> List[Component]:
        """All components of the stage, group-major order."""
        return [c for g in self.groups for c in g.components]

    @property
    def n_groups(self) -> int:
        """Fan-out width of the stage."""
        return len(self.groups)

    def __iter__(self) -> Iterator[ReplicaGroup]:
        return iter(self.groups)


@dataclass(frozen=True)
class RequestClass:
    """One heterogeneous request population over a shared topology.

    A class restricts the topology's request DAG per request: its
    ``participation`` mapping overrides group participation
    probabilities by group name (``0.0`` means requests of this class
    never fan out to that group — a class-conditional DAG restriction;
    unnamed groups keep their topology default), ``service_scale``
    multiplies every service time the class's requests experience
    (autocomplete is lighter than full search), and ``weight`` is the
    class's share of the arrival stream.
    """

    name: str
    weight: float = 1.0
    service_scale: float = 1.0
    #: Group name -> participation probability in [0, 1] for this
    #: class (overrides the group's default; 0 removes the group from
    #: this class's DAG).
    participation: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("request class name must be non-empty")
        if self.weight < 0:
            raise TopologyError(
                f"class {self.name} weight must be >= 0, got {self.weight}"
            )
        if self.service_scale <= 0:
            raise TopologyError(
                f"class {self.name} service_scale must be positive, "
                f"got {self.service_scale}"
            )
        for group, p in self.participation.items():
            if not 0.0 <= p <= 1.0:
                raise TopologyError(
                    f"class {self.name} participation for group {group!r} "
                    f"must be in [0, 1], got {p}"
                )


@dataclass(frozen=True)
class ResolvedClassMix:
    """A class mix resolved against one topology (the simulator view).

    Built by :meth:`ServiceTopology.resolve_classes`; rows are classes,
    group columns follow the topology's stage-major group order (the
    same global-group order the performance matrix uses).  Pure data —
    both simulators, the runner's load model and the predictor compose
    from these arrays without re-deriving the mapping.
    """

    names: Tuple[str, ...]
    #: (C,) normalised mix weights, all > 0.
    weights: np.ndarray
    #: (C,) per-class service-time multipliers.
    service_scales: np.ndarray
    #: (C, G) effective participation per class and stage-major group.
    group_participation: np.ndarray
    #: Stage-major group names aligned with the columns above.
    group_names: Tuple[str, ...]
    #: (C, S) per-class stage membership weight: the max participation
    #: over the stage's groups — the model layer's critical-path weight.
    stage_participation: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.names)

    @property
    def multi_class(self) -> bool:
        """Whether requests need a per-request class-assignment draw."""
        return self.n_classes > 1

    def expected_group_participation(self) -> np.ndarray:
        """(G,) mix-weighted participation per group (load model input)."""
        return self.weights @ self.group_participation

    def class_of(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to class indices by mix weight."""
        cum = np.cumsum(self.weights)
        return np.minimum(
            np.searchsorted(cum, u, side="right"), self.n_classes - 1
        )

    def describe(self) -> str:
        """One line per class: weight, scale, DAG restrictions."""
        lines = []
        for c, name in enumerate(self.names):
            restricted = [
                f"{g}={self.group_participation[c, gi]:g}"
                for gi, g in enumerate(self.group_names)
                if not np.isclose(
                    self.group_participation[c, gi],
                    self._default_p[gi],
                )
            ]
            extra = f" [{', '.join(restricted)}]" if restricted else ""
            lines.append(
                f"{name}(w={self.weights[c]:.2f}, "
                f"x{self.service_scales[c]:g}){extra}"
            )
        return ", ".join(lines)

    # Stashed by resolve_classes so describe() can show only the
    # overrides that actually differ from the topology defaults.
    _default_p: np.ndarray = field(default=None, repr=False, compare=False)


class ServiceTopology:
    """A validated request DAG of stages.

    Construction resolves every stage's predecessors (``None`` → the
    previous stage), derives each stage's successors, assigns every
    component its ``(stage_index, group_index, replica_index)``
    coordinates and checks name uniqueness — the invariants everything
    downstream (performance matrix rows, scheduler candidate sets, the
    simulators' traversal order) relies on.  Predecessors must appear
    *earlier* in the stage list, so the stage edges cannot form a cycle,
    the definition order is always a topological order and the matrix's
    stage-major row layout is preserved for any DAG.
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        if not stages:
            raise TopologyError("a service needs at least one stage")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate stage names in {names}")
        self._stages = list(stages)
        index_of = {name: i for i, name in enumerate(names)}

        # Resolve predecessor names to indices; None = chain default.
        preds: List[Tuple[int, ...]] = []
        for si, stage in enumerate(self._stages):
            if stage.predecessors is None:
                preds.append((si - 1,) if si > 0 else ())
                continue
            resolved = []
            for pname in stage.predecessors:
                pi = index_of.get(pname)
                if pi is None:
                    raise TopologyError(
                        f"stage {stage.name!r} names unknown predecessor "
                        f"{pname!r} (stages: {names})"
                    )
                if pi >= si:
                    raise TopologyError(
                        f"stage {stage.name!r} predecessor {pname!r} must be "
                        "defined earlier in the stage list (definition order "
                        "is the topological order)"
                    )
                resolved.append(pi)
            preds.append(tuple(resolved))
        self._predecessors: Tuple[Tuple[int, ...], ...] = tuple(preds)
        succs: List[List[int]] = [[] for _ in self._stages]
        for si, ps in enumerate(self._predecessors):
            for p in ps:
                succs[p].append(si)
        self._successors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(s) for s in succs
        )

        seen: set[str] = set()
        for si, stage in enumerate(self._stages):
            for gi, group in enumerate(stage.groups):
                for ri, comp in enumerate(group.components):
                    if comp.name in seen:
                        raise TopologyError(
                            f"duplicate component name {comp.name!r}"
                        )
                    seen.add(comp.name)
                    comp.positioned(si, gi, ri)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def stages(self) -> List[Stage]:
        """Stages in definition (topological, matrix-row) order."""
        return list(self._stages)

    @property
    def n_stages(self) -> int:
        """Number of stages (paper's S)."""
        return len(self._stages)

    @property
    def predecessor_indices(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-stage predecessor stage indices (empty = entry stage)."""
        return self._predecessors

    @property
    def successor_indices(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-stage successor stage indices (empty = exit stage)."""
        return self._successors

    @property
    def exit_indices(self) -> Tuple[int, ...]:
        """Indices of the exit stages (no successors)."""
        return tuple(
            si for si, succ in enumerate(self._successors) if not succ
        )

    @property
    def is_chain(self) -> bool:
        """Whether this DAG is exactly the paper's sequential chain.

        True iff stage ``s`` waits on exactly stage ``s − 1`` (and the
        first stage on nothing) and no group is optional — the
        degenerate case every pre-DAG consumer assumed, kept on its own
        fast path so chain scenarios stay bit-identical.
        """
        chain_edges = all(
            ps == ((si - 1,) if si > 0 else ())
            for si, ps in enumerate(self._predecessors)
        )
        return chain_edges and not self.has_optional_groups

    @property
    def has_optional_groups(self) -> bool:
        """Whether any group is probabilistically skipped."""
        return any(g.optional for s in self._stages for g in s.groups)

    def resolve_classes(
        self,
        classes: Sequence[RequestClass],
        mix: Optional[Mapping[str, float]] = None,
    ) -> Optional[ResolvedClassMix]:
        """Resolve a class declaration list against this topology.

        ``mix`` optionally re-weights the declared classes by name (the
        CLI's ``--classes``); weights of 0 drop a class from the run.
        Returns ``None`` when the surviving mix is the **exact
        degenerate case** — no classes declared, or a single class with
        unit service scale and no participation overrides — so callers
        branch to the pre-class code path and stay bit-identical.
        Raises :class:`~repro.errors.TopologyError` on unknown class or
        group names, or when every class is weighted out.
        """
        classes = list(classes or ())
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate request class names in {names}")
        if mix is not None:
            unknown = set(mix) - set(names)
            if unknown:
                raise TopologyError(
                    f"mix names unknown classes {sorted(unknown)} "
                    f"(declared: {names or 'none'})"
                )
            for w in mix.values():
                if w < 0:
                    raise TopologyError("mix weights must be >= 0")
            classes = [
                RequestClass(
                    name=c.name,
                    weight=float(mix.get(c.name, c.weight)),
                    service_scale=c.service_scale,
                    participation=c.participation,
                )
                for c in classes
            ]
        group_names = tuple(
            g.name for s in self._stages for g in s.groups
        )
        known = set(group_names)
        for c in classes:
            bad = set(c.participation) - known
            if bad:
                raise TopologyError(
                    f"class {c.name} overrides unknown groups {sorted(bad)}"
                )
        active = [c for c in classes if c.weight > 0]
        if classes and not active:
            raise TopologyError(
                "every request class has zero weight; at least one must "
                "remain in the mix"
            )
        if not active:
            return None
        default_p = np.array(
            [g.participation for s in self._stages for g in s.groups]
        )
        part = np.stack(
            [
                np.array(
                    [
                        float(c.participation.get(g, default_p[gi]))
                        for gi, g in enumerate(group_names)
                    ]
                )
                for c in active
            ]
        )
        scales = np.array([c.service_scale for c in active])
        if (
            len(active) == 1
            and scales[0] == 1.0
            and np.array_equal(part[0], default_p)
        ):
            # A single class that neither rescales nor restricts is the
            # homogeneous population — take the pre-class fast path.
            return None
        weights = np.array([c.weight for c in active])
        weights = weights / weights.sum()
        # Per-class stage membership: the strongest group participation
        # in the stage (a stage every group of which is skipped carries
        # zero critical-path weight for the class).
        offsets = []
        gi = 0
        for s in self._stages:
            offsets.append((gi, gi + len(s.groups)))
            gi += len(s.groups)
        stage_part = np.stack(
            [
                np.array([part[c, lo:hi].max() for lo, hi in offsets])
                for c in range(len(active))
            ]
        )
        return ResolvedClassMix(
            names=tuple(c.name for c in active),
            weights=weights,
            service_scales=scales,
            group_participation=part,
            group_names=group_names,
            stage_participation=stage_part,
            _default_p=default_p,
        )

    @property
    def components(self) -> List[Component]:
        """All components, stage-major order — the matrix row order."""
        return [c for s in self._stages for c in s.components]

    @property
    def n_components(self) -> int:
        """Total number of components (paper's m)."""
        return len(self.components)

    def stage(self, name: str) -> Stage:
        """Look a stage up by name."""
        for s in self._stages:
            if s.name == name:
                return s
        raise TopologyError(f"no stage named {name!r}")

    def component(self, name: str) -> Component:
        """Look a component up by name."""
        for c in self.components:
            if c.name == name:
                return c
        raise TopologyError(f"no component named {name!r}")

    def component_index(self, component: Component) -> int:
        """Performance-matrix row index of ``component``."""
        for i, c in enumerate(self.components):
            if c is component:
                return i
        raise TopologyError(f"{component.name} is not part of this topology")

    def describe(self) -> str:
        """Human-readable summary.

        Chains keep the familiar ``stage[GxR] -> stage[GxR]`` arrow
        form; DAGs annotate each stage with its predecessors and each
        stage's optional-group count, e.g.
        ``blend[1x3 <- parse,web,ads]``.
        """
        chain = self.is_chain
        parts = []
        for si, s in enumerate(self._stages):
            reps = {g.n_replicas for g in s.groups}
            reps_s = str(reps.pop()) if len(reps) == 1 else "var"
            shape = f"{s.n_groups}x{reps_s}"
            n_opt = sum(1 for g in s.groups if g.optional)
            if n_opt:
                shape += f" {n_opt}opt"
            if chain:
                parts.append(f"{s.name}[{shape}]")
            else:
                preds = self._predecessors[si]
                origin = (
                    "entry"
                    if not preds
                    else ",".join(self._stages[p].name for p in preds)
                )
                parts.append(f"{s.name}[{shape} <- {origin}]")
        sep = " -> " if chain else " | "
        return sep.join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceTopology({self.describe()})"
