"""Batch-job workload substrate.

Models the offline batch jobs that co-locate with service components and
cause the time-varying interference PCS reacts to (§II-B):

- :mod:`repro.workloads.profiles` — per-workload resource-demand curves
  for the six BigDataBench jobs the paper uses (Hadoop Bayes, WordCount,
  PageIndex; Spark Bayes, WordCount, Sort), calibrated to the anchor
  points quoted in the paper (e.g. WordCount CPU utilisation of
  31 %/61 %/79 % at 500 MB/2 GB/8 GB on a 12-core Xeon).
- :mod:`repro.workloads.batch` — job specs and live job objects.
- :mod:`repro.workloads.generator` — Poisson churn of short jobs over
  the cluster's batch VMs.
- :mod:`repro.workloads.traces` — request arrival-rate profiles
  (stationary, diurnal, burst, flash crowd) that scale the service's
  base rate interval by interval.

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "Framework": "profiles",
        "Semantics": "profiles",
        "SaturatingCurve": "profiles",
        "WorkloadProfile": "profiles",
        "ALL_PROFILES": "profiles",
        "HADOOP_PROFILES": "profiles",
        "SPARK_PROFILES": "profiles",
        "get_profile": "profiles",
        "BatchJobSpec": "batch",
        "BatchJob": "batch",
        "BatchJobGenerator": "generator",
        "GeneratorConfig": "generator",
    },
)
