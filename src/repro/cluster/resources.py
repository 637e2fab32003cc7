"""Shared-resource kinds and contention vectors (paper Table II).

The paper tracks four classes of shared resources and one scalar of
"contention information" per class:

==========================  =====================================
Shared resource             Contention information
==========================  =====================================
processing units/pipelines  ``U_core``   — core usage (fraction)
LLC, ITLB, DTLB             ``U_cache``  — misses per kilo instr.
disk bandwidth              ``U_diskBW`` — MB/s read+write
network bandwidth           ``U_netBW``  — MB/s send+receive
==========================  =====================================

:class:`ResourceVector` is the 4-vector ``U`` used everywhere: as a
program's resource *demand*, as the *contention* a component observes
(sum of co-runners' demands plus node background activity), and as the
additive update quantity of Table III (``U' = U ± U_ci``).

It is an immutable value type backed by a small NumPy array so that the
performance-matrix fast path can stack many of them into ``(m, 4)``
matrices without conversion cost.  Every vector, whether built from
scalars or computed by the algebra, passes one checked constructor that
rejects non-finite and negative entries; the algebra hands it the array
it computed, so a sum or clip is one NumPy operation and one check.
A node's contention read (:meth:`repro.cluster.node.Node.total_demand`)
likewise adds its residents' demands onto the background in machine
order and makes one checked vector of the result.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ResourceKind", "RESOURCE_KINDS", "ResourceVector"]


class ResourceKind(enum.Enum):
    """The four shared-resource classes of paper Table II."""

    CORE = "core"
    CACHE = "cache"
    DISK_BW = "diskBW"
    NET_BW = "networkBW"

    @property
    def index(self) -> int:
        """Position of this kind inside a :class:`ResourceVector`."""
        return _KIND_INDEX[self]


RESOURCE_KINDS: tuple[ResourceKind, ...] = (
    ResourceKind.CORE,
    ResourceKind.CACHE,
    ResourceKind.DISK_BW,
    ResourceKind.NET_BW,
)
_KIND_INDEX = {kind: i for i, kind in enumerate(RESOURCE_KINDS)}

N_RESOURCES = len(RESOURCE_KINDS)


def _checked(data: np.ndarray) -> np.ndarray:
    """Freeze ``data`` once every entry is finite and ``>= 0``."""
    values = data.tolist()
    if not all(map(math.isfinite, values)):
        raise ConfigurationError(f"resource vector must be finite, got {data}")
    if min(values) < 0:
        raise ConfigurationError(f"resource vector must be >= 0, got {data}")
    data.flags.writeable = False
    return data


class ResourceVector:
    """An immutable 4-vector over :data:`RESOURCE_KINDS`.

    Supports the algebra Table III needs: ``+``, ``-`` (floored at zero
    via :meth:`minus`), scalar ``*``, and comparisons.  Component order
    is ``(core, cache, diskBW, networkBW)``.

    Parameters
    ----------
    core:
        Core usage as a fraction of the node's cores (``0.31`` = 31 %).
    cache_mpki:
        Shared-cache misses per kilo instruction.
    disk_bw:
        Disk read+write bandwidth in MB/s.
    net_bw:
        Network send+receive bandwidth in MB/s.
    """

    __slots__ = ("_data",)

    def __init__(
        self,
        core: float = 0.0,
        cache_mpki: float = 0.0,
        disk_bw: float = 0.0,
        net_bw: float = 0.0,
    ) -> None:
        self._data = _checked(
            np.array([core, cache_mpki, disk_bw, net_bw], dtype=np.float64)
        )

    @classmethod
    def _of(cls, data: np.ndarray) -> "ResourceVector":
        """Adopt ``data``, a fresh float64 4-array nothing else holds,
        with ``__init__``'s checks."""
        vector = cls.__new__(cls)
        vector._data = _checked(data)
        return vector

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ResourceVector":
        """The all-zero vector."""
        return _ZERO

    @classmethod
    def from_array(cls, arr: Iterable[float]) -> "ResourceVector":
        """Build from any length-4 iterable ``(core, cache, disk, net)``."""
        vals = np.asarray(list(arr), dtype=np.float64)
        if vals.shape != (N_RESOURCES,):
            raise ConfigurationError(
                f"expected {N_RESOURCES} entries, got shape {vals.shape}"
            )
        return cls._of(vals)

    @classmethod
    def from_mapping(cls, mapping: Mapping[ResourceKind, float]) -> "ResourceVector":
        """Build from a ``{ResourceKind: value}`` mapping (missing = 0)."""
        return cls(
            core=mapping.get(ResourceKind.CORE, 0.0),
            cache_mpki=mapping.get(ResourceKind.CACHE, 0.0),
            disk_bw=mapping.get(ResourceKind.DISK_BW, 0.0),
            net_bw=mapping.get(ResourceKind.NET_BW, 0.0),
        )

    @classmethod
    def sum(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum of many vectors (empty sum is zero)."""
        total = np.zeros(N_RESOURCES)
        for v in vectors:
            total += v._data
        return cls._of(total)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def core(self) -> float:
        """Core-usage fraction."""
        return float(self._data[0])

    @property
    def cache_mpki(self) -> float:
        """Shared-cache misses per kilo instruction."""
        return float(self._data[1])

    @property
    def disk_bw(self) -> float:
        """Disk bandwidth in MB/s."""
        return float(self._data[2])

    @property
    def net_bw(self) -> float:
        """Network bandwidth in MB/s."""
        return float(self._data[3])

    def __getitem__(self, kind: ResourceKind) -> float:
        return float(self._data[kind.index])

    def as_array(self) -> np.ndarray:
        """Read-only NumPy view ``(core, cache, diskBW, netBW)``."""
        return self._data

    def as_mapping(self) -> dict[ResourceKind, float]:
        """Dict form keyed by :class:`ResourceKind`."""
        return {kind: float(self._data[kind.index]) for kind in RESOURCE_KINDS}

    # ------------------------------------------------------------------
    # algebra (Table III)
    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return ResourceVector._of(self._data + other._data)

    def minus(self, other: "ResourceVector") -> "ResourceVector":
        """``self - other`` floored at zero per component.

        Table III subtracts a departing component's own demand from the
        contention of remaining residents; the floor guards against
        negative contention from monitor noise.
        """
        return ResourceVector._of(np.maximum(self._data - other._data, 0.0))

    def __mul__(self, factor: float) -> "ResourceVector":
        if not isinstance(factor, (int, float, np.floating)):
            return NotImplemented
        if factor < 0:
            raise ConfigurationError(f"cannot scale by negative factor {factor}")
        return ResourceVector._of(self._data * float(factor))

    __rmul__ = __mul__

    def clip(self, upper: "ResourceVector") -> "ResourceVector":
        """Component-wise ``min(self, upper)`` — saturate at capacity."""
        return ResourceVector._of(np.minimum(self._data, upper._data))

    # ------------------------------------------------------------------
    # comparisons / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return bool(np.array_equal(self._data, other._data))

    def __hash__(self) -> int:
        return hash(self._data.tobytes())

    def isclose(self, other: "ResourceVector", rtol=1e-9, atol=1e-12) -> bool:
        """Tolerant comparison for tests."""
        return bool(np.allclose(self._data, other._data, rtol=rtol, atol=atol))

    def norm(self) -> float:
        """Euclidean norm — a crude total-pressure scalar for placement."""
        return float(np.linalg.norm(self._data))

    def __repr__(self) -> str:
        return (
            f"ResourceVector(core={self.core:.3f}, cache_mpki={self.cache_mpki:.3f},"
            f" disk_bw={self.disk_bw:.3f}, net_bw={self.net_bw:.3f})"
        )


_ZERO = ResourceVector()
