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
"""

from repro.workloads.batch import BatchJob, BatchJobSpec
from repro.workloads.generator import BatchJobGenerator, GeneratorConfig
from repro.workloads.profiles import (
    ALL_PROFILES,
    HADOOP_PROFILES,
    SPARK_PROFILES,
    Framework,
    SaturatingCurve,
    Semantics,
    WorkloadProfile,
    get_profile,
)

__all__ = [
    "Framework",
    "Semantics",
    "SaturatingCurve",
    "WorkloadProfile",
    "ALL_PROFILES",
    "HADOOP_PROFILES",
    "SPARK_PROFILES",
    "get_profile",
    "BatchJobSpec",
    "BatchJob",
    "BatchJobGenerator",
    "GeneratorConfig",
]
