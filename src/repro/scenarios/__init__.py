"""Workload scenarios: pluggable service topologies for the harness.

The paper evaluates PCS on exactly one service — the Fig. 1 Nutch-like
search topology.  This package generalises that singularity into a
registry of named :class:`~repro.scenarios.spec.ScenarioSpec` bundles
(service builder + workload/interference profile + runner defaults +
metadata) so every experiment layer — :class:`~repro.sim.runner.
ExperimentRunner`, the sweep subsystem, the figure drivers and the CLI
— runs any registered scenario by name.

Scenario catalog
----------------
``nutch-search`` (default)
    The paper's three-stage search service: one segmenting group, a
    shard fan-out of searching groups, one aggregating group.  Shape
    comes from ``RunnerConfig.nutch`` (a
    :class:`~repro.service.nutch.NutchConfig`); results are
    bit-identical to the pre-scenario harness.

``pipeline-deep``
    A five-stage sequential pipeline (ingest → parse → transform ×2 →
    store), one load-shared group per stage.  With no intra-stage
    fan-out, overall latency is a pure sum of stage sojourns — a
    straggler cannot hide behind a faster sibling group, which stresses
    migration-based mitigation very differently from the search
    topology.

``fanout-feed``
    A wide fan-out social-feed service: gateway → ~24 heavy-tailed
    timeline-shard groups (Pareto service times, α = 2.2) → rank/blend.
    The stage max over dozens of heavy-tailed groups makes the overall
    latency tail-dominated; redundancy's min-of-k is strongest here at
    light load and collapses hardest under its own induced load.

``diamond-search``
    A request **DAG**: parse fans out to parallel web-shard and
    optional ads branches, joined by a blend stage with a
    parse → blend skip edge.  Overall latency is the critical path
    over the stage DAG (chains are the degenerate case).

``branchy-api``
    A probabilistically branched API backend: optional profile and
    recommendation stages (per-request Bernoulli draws) behind a
    gateway, joined by a render stage reachable by a skip edge.

``mixed-frontend``
    The **request-class** showcase: three parallel branch stages
    (search shards, optional image lookup, suggest) behind a gateway,
    with three declared request classes (``search``/``autocomplete``/
    ``image-heavy``) that restrict the DAG and rescale service demand
    per class.  Runs report per-class latency summaries alongside the
    pooled ones; ``--classes`` re-weights the mix from the CLI.

Non-Nutch shapes scale with ``RunnerConfig.scale`` (group/replica
counts are multiplied and rounded), so tests and quick CLI runs shrink
a scenario without registering a new one.  ``repro-pcs scenarios``
prints this catalog with live topology summaries (DAG scenarios show
their stage predecessors and optional-group counts; classed scenarios
append their class table).

Adding a scenario
-----------------
1. Write a builder ``def build(config: RunnerConfig) -> OnlineService``
   that deterministically constructs the topology (unique component
   names; classes homogeneous — every component of a class shares one
   base distribution, so §VI-D's one-profiling-campaign-per-class
   argument keeps holding).  Give components resource demands or the
   scheduler has nothing to balance.
2. Register it::

       from repro.scenarios import ScenarioSpec, register_scenario

       register_scenario(ScenarioSpec(
           name="my-service",
           description="one line for the catalog",
           build=build,
           runner_defaults={"n_nodes": 16},
       ))

3. Run it anywhere a scenario name is accepted: ``RunnerConfig(
   scenario="my-service")``, ``repro-pcs sweep --scenario my-service``,
   ``Fig6Config(scenario="my-service")``.  Sweep caches record the name
   in their manifest, so aggregation and provenance work unchanged.

Registration is import-time: built-ins register when this package
imports; put third-party registrations in your own module and import it
before resolving names (worker processes re-import
:mod:`repro.scenarios`, so built-ins always resolve; third-party
scenarios must be importable from the worker too, i.e. live in a real
module rather than a notebook cell).
"""

from repro.scenarios.spec import (
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    suggested_n_nodes,
)
from repro.scenarios import builtin as _builtin  # noqa: F401  (registers built-ins)
from repro.scenarios.builtin import (
    BRANCHY_API,
    DIAMOND_SEARCH,
    FANOUT_FEED,
    MIXED_FRONTEND,
    NUTCH_SEARCH,
    PIPELINE_DEEP,
)

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "suggested_n_nodes",
    "NUTCH_SEARCH",
    "PIPELINE_DEEP",
    "FANOUT_FEED",
    "DIAMOND_SEARCH",
    "BRANCHY_API",
    "MIXED_FRONTEND",
]
