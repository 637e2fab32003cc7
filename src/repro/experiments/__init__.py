"""Experiment drivers regenerating the paper's evaluation artifacts.

- :mod:`repro.experiments.fig5` — prediction accuracy of the Eq. 1
  performance model (paper Fig. 5).
- :mod:`repro.experiments.fig6` — the six-policy latency comparison
  over the arrival-rate sweep (paper Fig. 6(a)–(f)) plus the headline
  reduction percentages.
- :mod:`repro.experiments.fig7` — scheduler scalability up to 640
  components × 128 nodes (paper Fig. 7).
- :mod:`repro.experiments.ablations` — design-choice ablations
  (threshold, matrix update mode, predictor fidelity, hierarchy,
  monitor noise) that the paper mentions but does not evaluate.
- :mod:`repro.experiments.report` — plain-text tables/series renderers
  shared by the drivers, examples and benchmarks.

Import a driver by its module (``from repro.experiments import fig6``):
the package itself imports none of them, so a command loads only the
driver it runs.
"""
