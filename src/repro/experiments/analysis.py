"""Analysis helpers over Fig. 6-style sweep results.

Quantifies the qualitative claims the paper makes in prose:

- :func:`crossover_rate` — the arrival rate at which a mitigation
  technique flips from helping to hurting relative to Basic ("when the
  arrival rate gradually increases ... this technique adversely causes
  longer latencies compared to those of Basic");
- :func:`dominance_table` — who is best at each rate;
- :func:`pcs_convergence` — how PCS's per-interval latency series
  settles as migrations accumulate within one run.

:func:`summary_crossover_rate` runs the crossover scan over a
multi-seed :class:`~repro.sim.aggregate.SweepSummary`, so per-seed
reduction goes through the shared aggregate layer instead of a private
loop.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.report import render_table
from repro.sim.aggregate import SweepSummary
from repro.sim.runner import PolicyResult

__all__ = [
    "crossover_rate",
    "dominance_table",
    "pcs_convergence",
    "predicted_policy_latency",
    "predicted_crossover_rate",
    "summary_crossover_rate",
]


def _crossover_from_values(
    values: Dict[float, Dict[str, float]], technique: str, baseline: str
) -> Optional[float]:
    """Shared crossover scan over ``{rate: {policy: metric value}}``."""
    rates = sorted(values)
    if not rates:
        raise ExperimentError("empty sweep")
    ratios = []
    for rate in rates:
        per_policy = values[rate]
        if technique not in per_policy or baseline not in per_policy:
            raise ExperimentError(
                f"sweep is missing {technique!r} or {baseline!r} at {rate}"
            )
        ratios.append(per_policy[technique] / per_policy[baseline])
    if ratios[0] >= 1.0:
        return rates[0]  # never helped
    for i in range(1, len(rates)):
        if ratios[i] >= 1.0:
            # Geometric interpolation of log(ratio) crossing zero.
            lo, hi = rates[i - 1], rates[i]
            a, b = math.log(ratios[i - 1]), math.log(ratios[i])
            t = -a / (b - a)
            return float(math.exp(
                math.log(lo) + t * (math.log(hi) - math.log(lo))
            ))
    return None


def crossover_rate(
    results: Dict[float, Dict[str, PolicyResult]],
    technique: str,
    baseline: str = "Basic",
    metric: str = "overall_mean_s",
) -> Optional[float]:
    """Estimate where ``technique`` starts losing to ``baseline``.

    Scans the sweep in rate order; at the first transition from
    better-than-baseline to worse-than-baseline, interpolates the
    crossing geometrically (latency ratios move multiplicatively with
    load).  Returns ``None`` when no crossover exists in the sweep, and
    the lowest rate when the technique never helps.
    """
    return _crossover_from_values(
        {
            rate: {name: getattr(r, metric) for name, r in per_policy.items()}
            for rate, per_policy in results.items()
        },
        technique,
        baseline,
    )


def summary_crossover_rate(
    summary: SweepSummary,
    technique: str,
    baseline: str = "Basic",
    metric: str = "overall_latency.mean",
) -> Optional[float]:
    """:func:`crossover_rate` over seed-mean metrics of a summary."""
    return _crossover_from_values(
        {
            rate: {
                name: summary.seed_mean(name, rate, metric)
                for name in summary.policies()
            }
            for rate in summary.rates()
        },
        technique,
        baseline,
    )


def _group_benefit(induced, sojourn: float, n_replicas: int) -> float:
    """One group's expected latency after the policy's tail-cutting.

    Dispatches on the :class:`~repro.baselines.policies.InducedLoad`
    shape, so any policy expressible through the descriptor seam gets
    the right closed form without this module naming policy classes.
    Single-replica groups cannot duplicate (the kernels fall back to
    plain random split there) and keep the raw sojourn.
    """
    from repro.model.queueing import (
        hedged_latency,
        quickest_of_k_latency,
        reissue_latency,
    )

    if n_replicas <= 1:
        return float(sojourn)
    k = min(induced.copies, n_replicas)
    if k > 1:
        return float(quickest_of_k_latency(sojourn, k))
    if induced.reissue_fraction > 0.0:
        if induced.hedge_delay_s is not None:
            return float(hedged_latency(sojourn, induced.hedge_delay_s))
        return float(reissue_latency(sojourn, 1.0 - induced.reissue_fraction))
    return float(sojourn)


def predicted_policy_latency(
    topology,
    policy,
    arrival_rate: float,
    rho_max: Optional[float] = None,
    service_scale: float = 1.0,
) -> float:
    """Model-predicted mean overall latency of ``policy`` at one rate.

    The analytic side of §VI-C: each replica is an M/G/1 server (Eq. 2)
    whose arrival rate is the policy's *induced* per-replica rate
    (:meth:`~repro.baselines.policies.InducedLoad.replica_rate` — the
    group-capped executed-copy multiplier times the participation share
    of the stream), so duplicate executions are priced as utilisation.
    Each group's sojourn then gets the policy's exponential-model
    benefit transform (:mod:`repro.model.queueing`), and groups compose
    group-mean → stage-max → DAG critical path exactly as the measured
    objective does (:mod:`repro.model.service_latency`).

    ``service_scale`` inflates every component's base mean service time
    — the knob for folding in average cluster interference, which the
    base (idle-node) demands do not see.  Predictions are comparable
    *across policies* at any fixed scale; crossovers are ratios, so
    they are insensitive to it to first order.
    """
    from repro.model.queueing import DEFAULT_RHO_MAX, mg1_latency_array
    from repro.model.service_latency import (
        dag_overall_latency,
        stage_latencies,
    )

    if arrival_rate <= 0:
        raise ExperimentError(
            f"arrival_rate must be positive, got {arrival_rate!r}"
        )
    if service_scale <= 0:
        raise ExperimentError(
            f"service_scale must be positive, got {service_scale!r}"
        )
    induced = policy.induced_load()
    cap = DEFAULT_RHO_MAX if rho_max is None else rho_max
    group_lats: List[float] = []
    stage_of_group: List[int] = []
    for si, stage in enumerate(topology.stages):
        for group in stage.groups:
            n = group.n_replicas
            lam_r = induced.replica_rate(
                arrival_rate, group.participation, n
            )
            sojourns = mg1_latency_array(
                np.array([c.base_mean * service_scale for c in group]),
                np.array([c.base_scv for c in group]),
                lam_r,
                rho_max=cap,
            )
            group_lats.append(
                _group_benefit(induced, float(np.mean(sojourns)), n)
            )
            stage_of_group.append(si)
    stage_lats = stage_latencies(
        np.asarray(group_lats), np.asarray(stage_of_group)
    )
    return float(
        dag_overall_latency(stage_lats, topology.predecessor_indices)
    )


def predicted_crossover_rate(
    topology,
    technique,
    rates: Sequence[float],
    baseline=None,
    service_scale: float = 1.0,
) -> Optional[float]:
    """Model-*derived* help→hurt crossover of a duplication policy.

    The analytic counterpart of :func:`summary_crossover_rate`: scans
    :func:`predicted_policy_latency` curves of ``technique`` vs
    ``baseline`` (default :class:`~repro.baselines.policies.BasicPolicy`)
    over ``rates`` through the same
    :func:`_crossover_from_values` kernel the measured scan uses, so
    "crossover" means the same thing on both sides of the comparison.
    Returns ``None`` when the technique still helps at the highest
    rate, and the lowest rate when it never helps.
    """
    from repro.baselines.policies import BasicPolicy

    if baseline is None:
        baseline = BasicPolicy()
    values = {
        float(rate): {
            technique.name: predicted_policy_latency(
                topology, technique, float(rate),
                service_scale=service_scale,
            ),
            baseline.name: predicted_policy_latency(
                topology, baseline, float(rate),
                service_scale=service_scale,
            ),
        }
        for rate in rates
    }
    return _crossover_from_values(values, technique.name, baseline.name)


def dominance_table(
    results: Dict[float, Dict[str, PolicyResult]],
    metric: str = "component_p99_s",
) -> str:
    """Which policy wins at each arrival rate, and by how much."""
    if not results:
        raise ExperimentError("empty sweep")
    rows = []
    for rate in sorted(results):
        per_policy = results[rate]
        ranked = sorted(per_policy.items(), key=lambda kv: getattr(kv[1], metric))
        best_name, best = ranked[0]
        runner_up_name, runner_up = ranked[1] if len(ranked) > 1 else ranked[0]
        margin = getattr(runner_up, metric) / getattr(best, metric)
        rows.append(
            [
                f"{rate:g}",
                best_name,
                f"{getattr(best, metric) * 1e3:.1f}",
                runner_up_name,
                f"{margin:.2f}x",
            ]
        )
    return render_table(
        ["rate (req/s)", "best", "best (ms)", "runner-up", "margin"],
        rows,
        title=f"Policy dominance by arrival rate ({metric})",
    )


def pcs_convergence(result: PolicyResult) -> Dict[str, float]:
    """How much PCS improved between its first and last measured interval.

    Returns the first/last per-interval overall means and the relative
    improvement; a positive improvement shows the scheduler adapting
    within the run (beyond what the pooled numbers reveal).
    """
    series = result.per_interval_overall_mean
    if len(series) < 2:
        raise ExperimentError("need at least two measured intervals")
    first, last = float(series[0]), float(series[-1])
    return {
        "first_interval_mean_s": first,
        "last_interval_mean_s": last,
        "relative_improvement": 1.0 - last / first if first > 0 else 0.0,
    }
