"""Policy descriptors for the compared techniques.

Each policy is two halves:

- the frozen *descriptor* here — name, parameters, load multiplier,
  whether the PCS scheduler runs between intervals; and
- a *routing kernel* (:mod:`repro.baselines.routing`) holding the
  per-group sub-request mechanics, registered right next to its
  descriptor via :func:`~repro.baselines.routing.register_routing_kernel`.

The simulator dispatches on the registry only, so adding a policy —
see :class:`HedgedPolicy` for a worked example — never touches
:mod:`repro.sim.queue_sim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.baselines.routing import (
    AdaptiveHedgeKernel,
    AdaptiveReissueKernel,
    HedgedKernel,
    RandomSplitKernel,
    RedundancyKernel,
    ReissueKernel,
    register_routing_kernel,
    routing_kernel_for,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.pcs import SchedulerConfig

__all__ = [
    "InducedLoad",
    "Policy",
    "BasicPolicy",
    "REDPolicy",
    "ReissuePolicy",
    "HedgedPolicy",
    "AdaptiveReissuePolicy",
    "AdaptiveHedgePolicy",
    "PCSPolicy",
    "standard_policies",
    "routing_kernel_for",
]


@dataclass(frozen=True)
class InducedLoad:
    """The arrival-rate feedback a routing policy injects (§VI-C).

    Redundancy and reissue *are* interference: every extra executed
    copy is an extra arrival at some replica's queue.  This model makes
    that feedback an explicit object instead of a scalar folded into
    each descriptor: ``copies`` simultaneous copies per sub-request
    plus an expected ``reissue_fraction`` of single backups.

    The old ``Policy.load_multiplier`` scalar is the exact degenerate
    case — :attr:`scalar` reproduces its float expression bit for bit
    for every registered policy (``float(copies) + reissue_fraction``),
    so consumers that cannot see the group keep identical behaviour.
    Group-aware consumers use :meth:`group_multiplier`, which caps the
    fan-out at the group's actual replica count (a RED-5 sub-request on
    a 2-replica group executes at most twice — the kernels have always
    enforced this; the accounting now agrees) and degrades to 1.0 on
    single-replica groups, matching every kernel's random-split
    fallback.  Class mixes and optional groups enter through the
    ``participation`` argument of :meth:`replica_rate` — the resolved
    class-weighted group participation, exactly the factor the runner's
    load model already applies.

    ``cancel_delay_s`` (redundancy only) carries the imperfect-
    cancellation parameter so the *load-dependent* expectation
    :meth:`expected_group_multiplier` can predict how many copies
    actually execute: with queues empty every copy starts within the
    cancel message delay and all ``k`` run; under heavy queueing the
    first start cancels the rest and the multiplier collapses toward 1.
    ``hedge_delay_s`` does the same for fixed-delay hedging, whose
    realized backup fraction is ``P(sojourn > delay)``.
    """

    copies: int = 1
    reissue_fraction: float = 0.0
    cancel_delay_s: Optional[float] = None
    hedge_delay_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ConfigurationError(
                f"induced copies must be >= 1, got {self.copies}"
            )
        if not 0.0 <= self.reissue_fraction <= 1.0:
            raise ConfigurationError(
                "reissue_fraction must be in [0, 1], got "
                f"{self.reissue_fraction}"
            )
        if self.cancel_delay_s is not None and self.cancel_delay_s < 0:
            raise ConfigurationError("cancel_delay_s must be >= 0")
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise ConfigurationError("hedge_delay_s must be positive")

    @property
    def scalar(self) -> float:
        """The legacy group-blind multiplier (exact degenerate case)."""
        return float(self.copies) + self.reissue_fraction

    def group_multiplier(self, n_replicas: int) -> float:
        """Expected executed copies per sub-request on an ``n_replicas``
        group, assuming no cancellation succeeds (the static planning
        bound the runner's load model uses)."""
        if n_replicas <= 1:
            # Kernels fall back to plain random split on 1-replica
            # groups — no sibling to duplicate onto.
            return 1.0
        return float(min(self.copies, n_replicas)) + self.reissue_fraction

    def replica_rate(
        self, arrival_rate: float, participation: float, n_replicas: int
    ) -> float:
        """Induced per-replica arrival rate on one group.

        ``participation`` is the (class-weighted) probability a request
        visits the group at all; the group's share of ``arrival_rate``
        is split uniformly over its replicas and inflated by the
        policy's executed copies.
        """
        if n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1, got {n_replicas}"
            )
        return (
            participation
            * self.group_multiplier(n_replicas)
            * arrival_rate
            / n_replicas
        )

    def expected_group_multiplier(
        self,
        n_replicas: int,
        queue_wait_s: float = 0.0,
        sojourn_s: float = 0.0,
    ) -> float:
        """Load-*dependent* expected executed copies per sub-request.

        Refines :meth:`group_multiplier` with the two §VI-C effects the
        static bound ignores, under the exponential-sojourn
        approximation:

        - imperfect cancellation: a redundancy copy executes iff it
          starts within ``cancel_delay_s`` of its quickest sibling.
          With per-replica queueing delays ≈ iid Exp(mean
          ``queue_wait_s``), the excesses over the minimum are again
          exponential, so each of the other ``k−1`` copies survives
          with probability ``1 − exp(−delay/wait)`` — all ``k`` at an
          empty queue, collapsing to 1 under heavy queueing;
        - hedging: the backup fires only when the primary overstays,
          ``P(S > delay) = exp(−delay/sojourn)`` for ``S ≈
          Exp(mean sojourn_s)``.

        Percentile reissue needs no correction: its timer *is* the
        ``q``-th own-window percentile, so the realized backup fraction
        is ``1 − q`` at any load.
        """
        if n_replicas <= 1:
            return 1.0
        k = min(self.copies, n_replicas)
        mult = 1.0
        if k > 1:
            if self.cancel_delay_s is None or queue_wait_s <= 0.0:
                mult = float(k)
            else:
                survive = 1.0 - math.exp(-self.cancel_delay_s / queue_wait_s)
                mult = 1.0 + (k - 1) * survive
        fraction = self.reissue_fraction
        if self.hedge_delay_s is not None:
            fraction = (
                math.exp(-self.hedge_delay_s / sojourn_s)
                if sojourn_s > 0.0
                else 0.0
            )
        return mult + fraction


@dataclass(frozen=True)
class Policy:
    """Base descriptor: how sub-requests are routed inside a replica group."""

    name: str = "policy"

    @property
    def schedules(self) -> bool:
        """Whether the policy runs the PCS scheduler between intervals."""
        return False

    @property
    def copies(self) -> int:
        """Simultaneous copies of each sub-request sent to a group."""
        return 1

    @property
    def adapts_threshold(self) -> bool:
        """Whether the policy's kernel tunes its timer from a
        :class:`~repro.baselines.routing.ThresholdFeed` (the runner
        creates and threads the feed only when this is set)."""
        return False

    def induced_load(self) -> InducedLoad:
        """The policy's arrival-rate feedback model."""
        return InducedLoad(copies=self.copies)

    @property
    def load_multiplier(self) -> float:
        """Expected executed copies per sub-request — the factor by
        which the policy multiplies each replica's request load (and
        therefore its resource consumption).  Derived: the group-blind
        :attr:`InducedLoad.scalar` of :meth:`induced_load`."""
        return self.induced_load().scalar


# Basic routing is the base behaviour: every policy without a more
# specific registration (PCS included) random-splits.
register_routing_kernel(Policy, lambda p: RandomSplitKernel())


@dataclass(frozen=True)
class BasicPolicy(Policy):
    """No redundancy, no reissue, static placement."""

    name: str = "Basic"


register_routing_kernel(BasicPolicy, lambda p: RandomSplitKernel())


@dataclass(frozen=True)
class REDPolicy(Policy):
    """Request redundancy with ``replicas`` simultaneous copies.

    The paper tests RED-3 and RED-5.  ``cancel_delay_s`` is the network
    message delay of the cancellation mechanism — the reason two
    replicas may both execute a request (§VI-C's discussion of why
    cancellation is imperfect).
    """

    name: str = "RED"
    replicas: int = 3
    cancel_delay_s: float = 0.002

    def __post_init__(self) -> None:
        if self.replicas < 2:
            raise ConfigurationError(
                f"RED needs >= 2 replicas, got {self.replicas}"
            )
        if self.cancel_delay_s < 0:
            raise ConfigurationError("cancel_delay_s must be >= 0")
        object.__setattr__(self, "name", f"RED-{self.replicas}")

    @property
    def copies(self) -> int:
        return self.replicas

    def induced_load(self) -> InducedLoad:
        return InducedLoad(
            copies=self.replicas, cancel_delay_s=self.cancel_delay_s
        )


register_routing_kernel(
    REDPolicy, lambda p: RedundancyKernel(p.replicas, p.cancel_delay_s)
)


@dataclass(frozen=True)
class ReissuePolicy(Policy):
    """Request reissue at the ``quantile`` of expected latency.

    The paper tests RI-90 (reissue after the 90th percentile of the
    expected latency for the request class) and RI-99.
    """

    name: str = "RI"
    quantile: float = 0.90

    def __post_init__(self) -> None:
        if not 0 < self.quantile < 1:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {self.quantile}"
            )
        object.__setattr__(self, "name", f"RI-{int(round(self.quantile * 100))}")

    def induced_load(self) -> InducedLoad:
        # A fraction (1 - q) of sub-requests is reissued once.
        return InducedLoad(reissue_fraction=1.0 - self.quantile)


register_routing_kernel(ReissuePolicy, lambda p: ReissueKernel(p.quantile))


@dataclass(frozen=True)
class HedgedPolicy(Policy):
    """Hedged (tied) requests: a backup copy after a fixed delay.

    The Tail-at-Scale discipline the paper's RI-p approximates
    adaptively: every sub-request still outstanding after
    ``hedge_delay_s`` gets one backup on the next replica; the quicker
    copy wins.  Not one of the paper's six techniques — it exists as
    the worked example of a policy plugging into the simulator through
    the kernel registry alone.

    ``expected_hedge_fraction`` is the assumed fraction of requests
    whose primary outlives the delay; it only feeds
    :attr:`load_multiplier` (the resource-accounting estimate), not the
    routing itself, which hedges exactly the requests that actually
    overstay.
    """

    name: str = "Hedge"
    hedge_delay_s: float = 0.010
    expected_hedge_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.hedge_delay_s <= 0:
            raise ConfigurationError(
                f"hedge_delay_s must be positive, got {self.hedge_delay_s}"
            )
        if not 0 <= self.expected_hedge_fraction <= 1:
            raise ConfigurationError(
                "expected_hedge_fraction must be in [0, 1], got "
                f"{self.expected_hedge_fraction}"
            )
        object.__setattr__(
            self, "name", f"Hedge-{self.hedge_delay_s * 1e3:g}ms"
        )

    def induced_load(self) -> InducedLoad:
        return InducedLoad(
            reissue_fraction=self.expected_hedge_fraction,
            hedge_delay_s=self.hedge_delay_s,
        )


register_routing_kernel(
    HedgedPolicy, lambda p: HedgedKernel(hedge_delay_s=p.hedge_delay_s)
)


@dataclass(frozen=True)
class AdaptiveReissuePolicy(ReissuePolicy):
    """RI-p with the timer tuned online from the monitor's gauges.

    Same two-pass reissue mechanics as :class:`ReissuePolicy`; the
    kernel routes with the streaming cross-window percentile estimate
    (:class:`repro.monitoring.streaming.ReissueThresholdFeed`) instead
    of each window's own noisy percentile.  Legend name ``ARI-<p>``.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "name", f"ARI-{int(round(self.quantile * 100))}"
        )

    @property
    def adapts_threshold(self) -> bool:
        return True


register_routing_kernel(
    AdaptiveReissuePolicy, lambda p: AdaptiveReissueKernel(p.quantile)
)


@dataclass(frozen=True)
class AdaptiveHedgePolicy(HedgedPolicy):
    """Hedging whose delay tracks the observed ``quantile`` latency.

    ``hedge_delay_s`` is only the cold-start delay; once the feed warms
    up the backup fires at the streamed ``quantile``-th percentile of
    observed group latencies.  The induced reissue fraction is
    therefore ``1 − quantile`` by construction once tuned, which is
    what :meth:`induced_load` declares.  Legend name ``AHedge-<p>``.
    """

    quantile: float = 0.95

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.quantile < 1:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {self.quantile}"
            )
        object.__setattr__(
            self, "name", f"AHedge-{int(round(self.quantile * 100))}"
        )

    @property
    def adapts_threshold(self) -> bool:
        return True

    def induced_load(self) -> InducedLoad:
        # Once tuned, the delay sits at the quantile-th percentile of
        # group latency, so a (1 − q) fraction overstays and hedges —
        # the percentile-reissue accounting, not the fixed-delay one.
        return InducedLoad(reissue_fraction=1.0 - self.quantile)


register_routing_kernel(
    AdaptiveHedgePolicy,
    lambda p: AdaptiveHedgeKernel(
        hedge_delay_s=p.hedge_delay_s, quantile=p.quantile
    ),
)


def _default_scheduler_config() -> "SchedulerConfig":
    # Late: only a PCS policy loads the scheduler and the model under it.
    from repro.scheduler.pcs import SchedulerConfig

    return SchedulerConfig()


@dataclass(frozen=True)
class PCSPolicy(Policy):
    """Basic routing + predictive component-level scheduling."""

    name: str = "PCS"
    scheduler_config: SchedulerConfig = field(
        default_factory=_default_scheduler_config
    )
    use_oracle: bool = False  # ablation: ground-truth predictor
    hierarchical_group_size: Optional[int] = None

    @property
    def schedules(self) -> bool:
        return True


# PCS routes like Basic (it inherits the Policy-base registration); the
# explicit entry documents that this is a decision, not an omission.
register_routing_kernel(PCSPolicy, lambda p: RandomSplitKernel())


def standard_policies() -> List[Policy]:
    """The paper's six compared techniques, in Fig. 6 legend order."""
    return [
        BasicPolicy(),
        REDPolicy(replicas=3),
        REDPolicy(replicas=5),
        ReissuePolicy(quantile=0.90),
        ReissuePolicy(quantile=0.99),
        PCSPolicy(),
    ]
