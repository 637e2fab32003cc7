"""Comparison policies (paper §VI-A "Compared techniques").

Six request-routing/mitigation policies share one interface:

- **Basic** — each sub-request goes to one replica (round-robin); no
  redundancy, no reissue, no migration.
- **RED-3 / RED-5** — request redundancy [11, 26, 27]: every
  sub-request is executed on 3 or 5 replicas in parallel; the quickest
  response wins; queued duplicates are cancelled *imperfectly* (the
  paper's two leak paths are modeled).
- **RI-90 / RI-99** — request reissue [14, 18]: a sub-request goes to
  one replica; if it has not completed after the 90th/99th percentile
  of its expected latency, a secondary copy goes to another replica and
  the quicker of the two wins.
- **PCS** — Basic routing plus the predictive component-level
  scheduler migrating components between intervals.

The policies only *describe* behaviour; the sample-path mechanics live
in :mod:`repro.sim.queue_sim`.

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "Policy": "policies",
        "BasicPolicy": "policies",
        "REDPolicy": "policies",
        "ReissuePolicy": "policies",
        "PCSPolicy": "policies",
        "standard_policies": "policies",
    },
)
