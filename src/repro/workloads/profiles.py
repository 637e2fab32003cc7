"""Resource-demand profiles for the paper's batch workloads.

The paper's workload taxonomy (§II-B) has two axes:

* **computation semantics** — Sort is I/O-intensive, Bayes is
  CPU-intensive (floating point), WordCount is CPU-intensive (integer),
  Page Index has similar CPU and I/O demands;
* **software stack** — the same semantics implemented on Hadoop vs
  Spark shifts the bottleneck (the paper's example: Hadoop Bayes is
  CPU-intensive, Spark Bayes is I/O-intensive).

Demand as a function of input size follows a saturating Michaelis–Menten
curve ``u(s) = u_max · s / (s + K)``.  The WordCount CPU curve is
calibrated to the paper's measured anchors (31 %, 61 %, 79 % CPU
utilisation at 500 MB, 2 GB, 8 GB on a 12-core Xeon E5635), which a
least-squares fit turns into ``u_max = 0.90, K = 952 MB``; the other
curves keep the same functional form with parameters chosen to realise
the taxonomy above.

Durations are calibrated to the paper's claim that these batch jobs run
"from a few seconds to several minutes" (§VI-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.cluster.resources import ResourceKind, ResourceVector
from repro.errors import WorkloadError

__all__ = [
    "Framework",
    "Semantics",
    "SaturatingCurve",
    "WorkloadProfile",
    "HADOOP_PROFILES",
    "SPARK_PROFILES",
    "ALL_PROFILES",
    "get_profile",
]


class Framework(enum.Enum):
    """Software stack a batch job is implemented on (§II-B)."""

    HADOOP = "hadoop"
    SPARK = "spark"


class Semantics(enum.Enum):
    """Dominant resource class of a workload's computation semantics."""

    CPU_INTENSIVE = "cpu"
    IO_INTENSIVE = "io"
    BALANCED = "balanced"


@dataclass(frozen=True)
class SaturatingCurve:
    """``u(s) = u_max · s / (s + half_size_mb)`` — demand vs input size.

    ``u_max`` is the asymptotic demand (fraction of cores, MPKI, or
    MB/s depending on the resource) and ``half_size_mb`` the input size
    at which half of it is reached.
    """

    u_max: float
    half_size_mb: float

    def __post_init__(self) -> None:
        if self.u_max < 0:
            raise WorkloadError(f"u_max must be >= 0, got {self.u_max}")
        if self.half_size_mb <= 0:
            raise WorkloadError(
                f"half_size_mb must be > 0, got {self.half_size_mb}"
            )

    def __call__(self, input_mb):
        """Evaluate the curve (scalar or NumPy array input)."""
        s = np.asarray(input_mb, dtype=np.float64)
        if np.any(s < 0):
            raise WorkloadError(f"input size must be >= 0 MB, got {input_mb}")
        out = self.u_max * s / (s + self.half_size_mb)
        return float(out) if np.isscalar(input_mb) else out


@dataclass(frozen=True)
class WorkloadProfile:
    """A batch workload's demand curves and duration model.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"hadoop.wordcount"``.
    framework / semantics:
        Taxonomy axes from §II-B.
    curves:
        One :class:`SaturatingCurve` per :class:`ResourceKind`.
    base_duration_s / duration_per_mb_s:
        Affine job-duration model before multiplicative noise:
        ``duration = base + per_mb · size``.
    duration_sigma:
        Log-normal sigma of the multiplicative duration noise.
    """

    name: str
    framework: Framework
    semantics: Semantics
    curves: Mapping[ResourceKind, SaturatingCurve]
    base_duration_s: float
    duration_per_mb_s: float
    duration_sigma: float = 0.35

    def __post_init__(self) -> None:
        missing = [k for k in ResourceKind if k not in self.curves]
        if missing:
            raise WorkloadError(f"profile {self.name} missing curves for {missing}")
        if self.base_duration_s <= 0 or self.duration_per_mb_s < 0:
            raise WorkloadError(f"invalid duration model in profile {self.name}")
        if self.duration_sigma < 0:
            raise WorkloadError(f"duration_sigma must be >= 0 in {self.name}")

    def demand(self, input_mb: float) -> ResourceVector:
        """Resource demand of a job of this type at ``input_mb``."""
        return ResourceVector(
            core=self.curves[ResourceKind.CORE](input_mb),
            cache_mpki=self.curves[ResourceKind.CACHE](input_mb),
            disk_bw=self.curves[ResourceKind.DISK_BW](input_mb),
            net_bw=self.curves[ResourceKind.NET_BW](input_mb),
        )

    def mean_duration(self, input_mb: float) -> float:
        """Expected duration in seconds (before noise)."""
        return self.base_duration_s + self.duration_per_mb_s * float(input_mb)

    def sample_duration(self, input_mb: float, rng: np.random.Generator) -> float:
        """Noisy duration: mean × LogNormal(1, sigma)."""
        mean = self.mean_duration(input_mb)
        if self.duration_sigma == 0:
            return mean
        sigma = self.duration_sigma
        # E[lognormal(mu, sigma)] = 1 when mu = -sigma^2/2.
        noise = rng.lognormal(-0.5 * sigma * sigma, sigma)
        return mean * float(noise)

    @property
    def dominant_resource(self) -> ResourceKind:
        """Resource with the largest asymptotic demand relative to a
        default node capacity — used in tests to check the taxonomy."""
        from repro.cluster.node import NodeCapacity

        cap = NodeCapacity().vector.as_array()
        maxima = np.array([self.curves[k].u_max for k in _KIND_ORDER])
        return _KIND_ORDER[int(np.argmax(maxima / cap))]


_KIND_ORDER = (
    ResourceKind.CORE,
    ResourceKind.CACHE,
    ResourceKind.DISK_BW,
    ResourceKind.NET_BW,
)


def _curves(core, cache, disk, net) -> Dict[ResourceKind, SaturatingCurve]:
    """Shorthand: each argument is a ``(u_max, half_size_mb)`` pair."""
    return {
        ResourceKind.CORE: SaturatingCurve(*core),
        ResourceKind.CACHE: SaturatingCurve(*cache),
        ResourceKind.DISK_BW: SaturatingCurve(*disk),
        ResourceKind.NET_BW: SaturatingCurve(*net),
    }


HADOOP_PROFILES: Dict[str, WorkloadProfile] = {
    # CPU-intensive, dominated by floating-point operations (§II-B).
    "hadoop.bayes": WorkloadProfile(
        name="hadoop.bayes",
        framework=Framework.HADOOP,
        semantics=Semantics.CPU_INTENSIVE,
        curves=_curves(
            core=(0.95, 800.0),
            cache=(14.0, 1000.0),
            disk=(25.0, 1200.0),
            net=(8.0, 1500.0),
        ),
        base_duration_s=25.0,
        duration_per_mb_s=0.050,
    ),
    # CPU-intensive integer workload; CPU curve calibrated to the
    # paper's 31 %/61 %/79 % anchors at 500 MB/2 GB/8 GB.
    "hadoop.wordcount": WorkloadProfile(
        name="hadoop.wordcount",
        framework=Framework.HADOOP,
        semantics=Semantics.CPU_INTENSIVE,
        curves=_curves(
            core=(0.90, 952.0),
            cache=(10.0, 900.0),
            disk=(40.0, 1100.0),
            net=(10.0, 1500.0),
        ),
        base_duration_s=20.0,
        duration_per_mb_s=0.040,
    ),
    # "similar demands for CPU and I/O resources" (§II-B).
    "hadoop.pageindex": WorkloadProfile(
        name="hadoop.pageindex",
        framework=Framework.HADOOP,
        semantics=Semantics.BALANCED,
        curves=_curves(
            core=(0.55, 900.0),
            cache=(15.0, 1000.0),
            disk=(130.0, 1400.0),
            net=(30.0, 1200.0),
        ),
        base_duration_s=30.0,
        duration_per_mb_s=0.055,
    ),
}

SPARK_PROFILES: Dict[str, WorkloadProfile] = {
    # Same semantics as hadoop.bayes but I/O-bound on Spark (§II-B's
    # software-stack example).
    "spark.bayes": WorkloadProfile(
        name="spark.bayes",
        framework=Framework.SPARK,
        semantics=Semantics.IO_INTENSIVE,
        curves=_curves(
            core=(0.35, 900.0),
            cache=(8.0, 1000.0),
            disk=(150.0, 1100.0),
            net=(40.0, 1200.0),
        ),
        base_duration_s=10.0,
        duration_per_mb_s=0.018,
    ),
    "spark.wordcount": WorkloadProfile(
        name="spark.wordcount",
        framework=Framework.SPARK,
        semantics=Semantics.IO_INTENSIVE,
        curves=_curves(
            core=(0.40, 950.0),
            cache=(8.0, 900.0),
            disk=(140.0, 1000.0),
            net=(35.0, 1300.0),
        ),
        base_duration_s=8.0,
        duration_per_mb_s=0.015,
    ),
    # Sort: the canonical I/O-intensive workload, shuffle-heavy.
    "spark.sort": WorkloadProfile(
        name="spark.sort",
        framework=Framework.SPARK,
        semantics=Semantics.IO_INTENSIVE,
        curves=_curves(
            core=(0.30, 1000.0),
            cache=(6.0, 900.0),
            disk=(180.0, 1000.0),
            net=(80.0, 1100.0),
        ),
        base_duration_s=12.0,
        duration_per_mb_s=0.020,
    ),
}

ALL_PROFILES: Dict[str, WorkloadProfile] = {**HADOOP_PROFILES, **SPARK_PROFILES}


def get_profile(name: str) -> WorkloadProfile:
    """Look a profile up by registry name (``"spark.sort"`` etc.)."""
    try:
        return ALL_PROFILES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload profile {name!r}; known: {sorted(ALL_PROFILES)}"
        ) from None
